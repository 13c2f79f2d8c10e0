"""Link-level simulator and trainable wave-domain optimizer for
metasurface-assisted full-duplex links."""

import ctypes

from .config import (ChannelConfig, ConfigError, EvalConfig, GeometryConfig,
                     SystemConfig, TerminalLayout, TrainConfig, load_config,
                     miniature_config, save_config, reference_config)

__all__ = [
    "ChannelConfig", "ConfigError", "EvalConfig", "GeometryConfig",
    "SystemConfig", "TerminalLayout", "TrainConfig", "load_config",
    "miniature_config", "save_config", "reference_config",
]


def _set_heap_policy():
    """Set glibc's heap policy for the process; a no-op without `mallopt`.

    A batch or training step frees its arrays at its end and takes as much
    again in the next. By default glibc serves large arrays from fresh
    mappings until its adaptive thresholds have risen, and hands the freed
    heap top back to the OS, so the next batch faults those pages in again.
    The policy changes no value. It holds for the whole process, including
    any program that imports `simfd`, and nothing here resets it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3): arrays up to 32 MiB come from the heap, the
    # ceiling glibc's adaptive threshold reaches on its own (larger ones
    # are still mapped and faulted in per use, as by default)
    mallopt(-3, 32 << 20)
    # M_TRIM_THRESHOLD (-1): the freed heap top goes back to the OS only
    # beyond 64 MiB, twice the mmap threshold, as glibc pairs them; setting
    # either alone fixes the other at its 128 KiB start, which faults more
    # than the default does
    mallopt(-1, 64 << 20)


_set_heap_policy()
