"""Link-level simulator and trainable wave-domain optimizer for
metasurface-assisted full-duplex links."""

from .config import (ChannelConfig, ConfigError, EvalConfig, GeometryConfig,
                     SystemConfig, TerminalLayout, TrainConfig, load_config,
                     miniature_config, save_config, reference_config)

__all__ = [
    "ChannelConfig", "ConfigError", "EvalConfig", "GeometryConfig",
    "SystemConfig", "TerminalLayout", "TrainConfig", "load_config",
    "miniature_config", "save_config", "reference_config",
]
