"""Experiment configuration: every record mirroring the config file, each
checked for range when it is built (a ConfigError), so a record that exists
is valid and no caller checks it again.

The JSON config document has sections system / sim / channel / training /
evaluation; every default reproduces the reference simulation settings at
desk scale (Monte Carlo count and test scale are kept small for CI and can
be raised via the file or the CLI's --full-scale flag).
"""

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce

from .wavefield import C_LIGHT


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class TerminalLayout:
    """Grid sizes and layer counts for one terminal; 0 layers = no stack."""

    tx_antenna_grid: tuple  # (nx, ny)
    rx_antenna_grid: tuple
    tx_unit_grid: tuple
    rx_unit_grid: tuple
    tx_layers: int
    rx_layers: int

    def __post_init__(self):
        for grid in (self.tx_antenna_grid, self.rx_antenna_grid,
                     self.tx_unit_grid, self.rx_unit_grid):
            if len(grid) != 2:
                raise ConfigError(f"a grid has two axes (nx, ny), got {grid}")
            if min(grid) < 1:
                raise ConfigError(f"grid dimensions must be >= 1, got {grid}")
        if self.tx_layers < 0 or self.rx_layers < 0:
            raise ConfigError("layer counts must be >= 0")

    @property
    def tx_antennas(self):
        return self.tx_antenna_grid[0] * self.tx_antenna_grid[1]

    @property
    def rx_antennas(self):
        return self.rx_antenna_grid[0] * self.rx_antenna_grid[1]

    @property
    def tx_units(self):
        return self.tx_unit_grid[0] * self.tx_unit_grid[1]

    @property
    def rx_units(self):
        return self.rx_unit_grid[0] * self.rx_unit_grid[1]

    @property
    def tx_stack(self):
        """(antenna grid, unit grid, layer count) of the TX stack."""
        return self.tx_antenna_grid, self.tx_unit_grid, self.tx_layers

    @property
    def rx_stack(self):
        return self.rx_antenna_grid, self.rx_unit_grid, self.rx_layers

    @property
    def channel_grids(self):
        """(TX, RX) grids facing the channel: each stack's unit grid, or its
        antenna grid when the stack has no layers."""
        return tuple(units if layers > 0 else antennas
                     for antennas, units, layers in (self.tx_stack, self.rx_stack))


@dataclass(frozen=True)
class GeometryConfig:
    """Frequency, spacings and per-terminal layouts of both stacks.

    unit_spacing / layer_spacing of None default to half a wavelength.
    """

    frequency: float
    terminals: tuple  # (TerminalLayout, TerminalLayout)
    light_speed: float = C_LIGHT
    unit_spacing: float = None
    layer_spacing: float = None

    def __post_init__(self):
        if self.frequency <= 0 or self.light_speed <= 0:
            raise ConfigError("frequency and light speed must be positive")
        if self.spacing <= 0 or self.layer_gap <= 0:
            raise ConfigError("spacings must be positive")
        if len(self.terminals) != 2:
            raise ConfigError("exactly two terminals expected")

    @property
    def wavelength(self):
        return self.light_speed / self.frequency

    @property
    def spacing(self):
        return self.unit_spacing if self.unit_spacing is not None else self.wavelength / 2.0

    @property
    def layer_gap(self):
        return self.layer_spacing if self.layer_spacing is not None else self.wavelength / 2.0

    @property
    def unit_area(self):
        return self.spacing ** 2

    def terminal(self, q):
        return self.terminals[q - 1]

    @property
    def tx_antennas(self):
        """(terminal 1, terminal 2) transmit antenna counts."""
        return tuple(t.tx_antennas for t in self.terminals)

    @property
    def rx_antennas(self):
        return tuple(t.rx_antennas for t in self.terminals)


@dataclass(frozen=True)
class ChannelConfig:
    distance: float = 50.0             # terminal separation (m)
    reference_distance: float = 1.0
    path_loss_exponent: float = 3.5
    shadowing_db: float = 9.0
    noise_dbm: float = -110.0
    si_distance: float = 0.5           # self-interference link distance (m)
    si_shadowing_db: float = 0.0
    si_isolation_db: float = 0.0       # passive TX/RX isolation on SI links
    coherence: float = 0.9             # quasi-static cross-link persistence
    si_coherence: float = 1.0          # SI geometry is the device's own

    def __post_init__(self):
        if self.reference_distance <= 0:
            raise ConfigError("reference distance must be positive")
        if self.distance < self.reference_distance:
            raise ConfigError("link distance below reference distance")
        if self.si_distance <= 0:
            raise ConfigError("SI distance must be positive")
        if self.path_loss_exponent <= 0:
            raise ConfigError("path loss exponent must be positive")
        if self.shadowing_db < 0 or self.si_shadowing_db < 0:
            raise ConfigError("shadowing std must be >= 0")
        if not 0.0 <= self.coherence <= 1.0 or not 0.0 <= self.si_coherence <= 1.0:
            raise ConfigError("coherence values must lie in [0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 1000
    learning_rate: float = 0.005
    lr_decay: float = 0.95
    lr_decay_interval: int = 50
    lr_floor: float = 1e-5
    weight_decay: float = 1e-4
    power_alpha: float = 2.0           # Beta parameters for training power
    power_beta: float = 2.0
    power_min_dbm: float = -10.0
    power_max_dbm: float = 30.0
    finetune_epochs: int = None        # default epochs // 10
    finetune_lr: float = None          # default learning_rate / 10
    restarts: int = 1                  # random inits; best training loss kept
    seed: int = 1

    @property
    def finetune_epoch_count(self):
        return self.finetune_epochs if self.finetune_epochs is not None else self.epochs // 10

    @property
    def finetune_learning_rate(self):
        return self.finetune_lr if self.finetune_lr is not None else self.learning_rate / 10.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 (batch normalization)")
        if self.learning_rate <= 0 or self.finetune_learning_rate <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError("lr decay must be in (0, 1]")
        if self.lr_decay_interval < 1:
            raise ConfigError("lr decay interval must be >= 1")
        if self.power_min_dbm > self.power_max_dbm:
            raise ConfigError("power range is inverted")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.finetune_epoch_count < 0:
            raise ConfigError("finetune epochs must be >= 0")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be >= 0")
        if self.power_alpha <= 0 or self.power_beta <= 0:
            raise ConfigError("power Beta parameters must be positive")


@dataclass(frozen=True)
class EvalConfig:
    monte_carlo: int = 10              # desk scale; reference setting is 100
    test_scale: int = 10000            # desk scale; reference setting is 100000
    power_sweep_dbm: tuple = (0.0, 10.0, 20.0, 30.0)
    eval_batch: int = 2048
    seed: int = 1234

    def __post_init__(self):
        if self.monte_carlo < 1:
            raise ConfigError("monte carlo count must be >= 1")
        if self.test_scale < 2:
            raise ConfigError("test scale must be >= 2 (power control)")
        if len(self.power_sweep_dbm) == 0:
            raise ConfigError("power sweep must be non-empty")
        if len(set(self.power_sweep_dbm)) != len(self.power_sweep_dbm):
            # a row is replayed from its power, so each power names one row
            raise ConfigError(f"power sweep repeats a power: {self.power_sweep_dbm}")
        if self.eval_batch < 2:
            raise ConfigError("eval batch must be >= 2")


@dataclass(frozen=True)
class SystemConfig:
    """Everything one experiment needs, in one record."""

    n_bits: tuple = (12, 8)
    geometry: GeometryConfig = None
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    trainable_power: bool = False
    label: str = "default"

    def __post_init__(self):
        if len(self.n_bits) != 2 or min(self.n_bits) < 1:
            raise ConfigError("two positive per-terminal bit counts expected")
        if self.geometry is None:
            raise ConfigError("geometry section missing")

    @property
    def total_bits(self):
        return self.n_bits[0] + self.n_bits[1]

    def to_dict(self):
        return {section: _write(self, rows) for section, rows in _SCHEMA.items()}

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the config document schema
# ---------------------------------------------------------------------------

def _int(value):
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _real(value):
    """A finite real number, kept as given so integer powers keep the digest;
    a numeric string becomes its float."""
    if isinstance(value, str):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return value


def _float(value):
    return float(_real(value))


def _exact(kind):
    def coerce(value):
        if not isinstance(value, kind):
            raise ValueError(f"not a {kind.__name__}: {value!r}")
        return value
    return coerce


def _optional(kind):
    return lambda value: None if value is None else kind(value)


def _tuple(kind, length=None):
    def coerce(values):
        if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
            raise ValueError(f"not a list of the expected length: {values!r}")
        return tuple(kind(v) for v in values)
    return coerce


def _terminal(doc):
    return _build(TerminalLayout, _read(doc, _TERMINAL, "terminal"))


# Rows are (JSON key, attribute path(s), coercion). A path is dotted from the
# owning dataclass; a row naming several space-separated paths holds a list
# with one entry per path. A key may be omitted exactly when its field has a
# default, which then applies.
_TERMINAL = (
    ("tx_antennas", "tx_antenna_grid", _tuple(_int, 2)),
    ("rx_antennas", "rx_antenna_grid", _tuple(_int, 2)),
    ("tx_units", "tx_unit_grid", _tuple(_int, 2)),
    ("rx_units", "rx_unit_grid", _tuple(_int, 2)),
    ("tx_layers", "tx_layers", _int),
    ("rx_layers", "rx_layers", _int),
)

_SCHEMA = {
    "system": (
        ("frequency_hz", "geometry.frequency", _float),
        ("light_speed", "geometry.light_speed", _float),
        ("distance_m", "channel.distance", _float),
        ("bits", "n_bits", _tuple(_int, 2)),
        ("label", "label", _exact(str)),
    ),
    "sim": (
        ("unit_spacing_m", "geometry.unit_spacing", _optional(_float)),
        ("layer_spacing_m", "geometry.layer_spacing", _optional(_float)),
        ("terminals", "geometry.terminals", _tuple(_terminal)),
    ),
    "channel": (
        ("reference_distance_m", "channel.reference_distance", _float),
        ("path_loss_exponent", "channel.path_loss_exponent", _float),
        ("shadowing_db", "channel.shadowing_db", _float),
        ("noise_dbm", "channel.noise_dbm", _float),
        ("si_distance_m", "channel.si_distance", _float),
        ("si_shadowing_db", "channel.si_shadowing_db", _float),
        ("si_isolation_db", "channel.si_isolation_db", _float),
        ("coherence", "channel.coherence", _float),
        ("si_coherence", "channel.si_coherence", _float),
    ),
    "training": (
        ("epochs", "training.epochs", _int),
        ("batch_size", "training.batch_size", _int),
        ("learning_rate", "training.learning_rate", _float),
        ("lr_decay", "training.lr_decay", _float),
        ("lr_decay_interval", "training.lr_decay_interval", _int),
        ("lr_floor", "training.lr_floor", _float),
        ("weight_decay", "training.weight_decay", _float),
        ("power_alpha", "training.power_alpha", _float),
        ("power_beta", "training.power_beta", _float),
        ("power_range_dbm", "training.power_min_dbm training.power_max_dbm",
         _tuple(_float, 2)),
        ("finetune_epochs", "training.finetune_epochs", _optional(_int)),
        ("finetune_lr", "training.finetune_lr", _optional(_float)),
        ("restarts", "training.restarts", _int),
        ("trainable_power", "trainable_power", _exact(bool)),
        ("seed", "training.seed", _int),
    ),
    "evaluation": (
        ("monte_carlo", "evaluation.monte_carlo", _int),
        ("test_scale", "evaluation.test_scale", _int),
        ("power_sweep_dbm", "evaluation.power_sweep_dbm", _tuple(_real)),
        ("eval_batch", "evaluation.eval_batch", _int),
        ("seed", "evaluation.seed", _int),
    ),
}


def _json(value):
    if isinstance(value, TerminalLayout):
        return _write(value, _TERMINAL)
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    return value


def _write(obj, rows):
    doc = {}
    for key, paths, _ in rows:
        values = [reduce(getattr, path.split("."), obj) for path in paths.split()]
        doc[key] = _json(values if len(values) > 1 else values[0])
    return doc


def _object(doc, keys, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} is not an object: {doc!r}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _read(doc, rows, where):
    """Coerced {path: value} for the keys present in one JSON object."""
    _object(doc, [key for key, _, _ in rows], where)
    values = {}
    for key, paths, coerce in rows:
        if key not in doc:
            continue
        try:
            value = coerce(doc[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from exc
        paths = paths.split()
        if len(paths) > 1:
            values.update(zip(paths, value))
        else:
            values[paths[0]] = value
    return values


def _build(owner, values, prefix=""):
    """An `owner` from dotted-path values, the rest left to its defaults; a
    missing value for a field without a default raises TypeError."""
    kwargs = {}
    for f in fields(owner):
        path = prefix + f.name
        if is_dataclass(f.type):
            kwargs[f.name] = _build(f.type, values, path + ".")
        elif path in values:
            kwargs[f.name] = values[path]
    return owner(**kwargs)


def config_from_dict(doc):
    """SystemConfig from a config document; any defect is a ConfigError."""
    _object(doc, _SCHEMA, "config document")
    values = {}
    for section, rows in _SCHEMA.items():
        values.update(_read(doc.get(section, {}), rows, section))
    try:
        return _build(SystemConfig, values)
    except TypeError as exc:
        raise ConfigError(f"a required key is missing: {exc}") from exc


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def save_config(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def reference_config():
    """Reference simulation settings (desk-scale evaluation counts)."""
    terminals = (
        TerminalLayout((4, 4), (4, 4), (9, 9), (9, 9), 3, 3),
        TerminalLayout((3, 3), (3, 3), (9, 9), (9, 9), 3, 3),
    )
    return SystemConfig(
        n_bits=(12, 8),
        geometry=GeometryConfig(frequency=28e9, terminals=terminals),
        label="reference",
    )


def miniature_config(seed=1):
    """Desk-scale setup: 2x2 antennas, 4x4 units, 2 layers, 4+4 bits.

    The channel is scaled to keep the desk-size problem meaningful: 60 dB of
    passive SI isolation leaves the self-interference ~5 dB above the desired
    link (instead of ~70 dB, which carries no recoverable cross signal at
    this size), and cross links are strongly quasi-static (coherence 0.98).
    Training runs hotter than the reference settings, with 3 restarts.
    """
    terminals = (
        TerminalLayout((2, 2), (2, 2), (4, 4), (4, 4), 2, 2),
        TerminalLayout((2, 2), (2, 2), (4, 4), (4, 4), 2, 2),
    )
    return SystemConfig(
        n_bits=(4, 4),
        geometry=GeometryConfig(frequency=28e9, terminals=terminals),
        channel=ChannelConfig(si_isolation_db=60.0, coherence=0.98),
        training=TrainConfig(epochs=500, batch_size=256, learning_rate=0.01,
                             lr_decay_interval=100, power_min_dbm=20.0,
                             power_max_dbm=30.0, finetune_epochs=150,
                             finetune_lr=0.01, restarts=3, seed=seed),
        evaluation=EvalConfig(monte_carlo=5, test_scale=10000,
                              power_sweep_dbm=(20.0, 25.0, 30.0)),
        label="miniature",
    )


PRESETS = {
    "reference": reference_config,
    "default": reference_config,
    "mini": miniature_config,
}


def with_layers(config, layers):
    """Copy of a config with every stack set to `layers` layers (0 = none)."""
    terminals = tuple(replace(t, tx_layers=layers, rx_layers=layers)
                      for t in config.geometry.terminals)
    geom = replace(config.geometry, terminals=terminals)
    return replace(config, geometry=geom,
                   label=f"{config.label}-L{layers}")


def with_unit_grid(config, grid):
    """Copy of a config with every stack's unit grid set to `grid`."""
    grid = tuple(grid)
    terminals = tuple(replace(t, tx_unit_grid=grid, rx_unit_grid=grid)
                      for t in config.geometry.terminals)
    geom = replace(config.geometry, terminals=terminals)
    return replace(config, geometry=geom,
                   label=f"{config.label}-U{grid[0]}x{grid[1]}")


def with_bits(config, n_bits):
    """Copy of a config with the per-terminal bit counts replaced."""
    n_bits = tuple(int(b) for b in n_bits)
    return replace(config, n_bits=n_bits,
                   label=f"{config.label}-B{'+'.join(map(str, n_bits))}")
