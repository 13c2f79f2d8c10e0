"""Experiment configuration: one validated record mirroring the config file.

The JSON config document has sections system / sim / channel / training /
evaluation; every default reproduces the reference simulation settings at
desk scale (Monte Carlo count and test scale are kept small for CI and can
be raised via the file or the CLI's --full-scale flag).
"""

import hashlib
import json
import numbers
from dataclasses import dataclass, field, replace

from .wavefield import C_LIGHT, GeometryConfig, GeometryError, TerminalLayout


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


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

    def validate(self):
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

    def validate(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 (batch normalization)")
        if self.learning_rate <= 0 or self.finetune_learning_rate <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError("lr decay must be in (0, 1]")
        if self.power_min_dbm > self.power_max_dbm:
            raise ConfigError("power range is inverted")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")


@dataclass(frozen=True)
class EvalConfig:
    monte_carlo: int = 10              # desk scale; reference setting is 100
    test_scale: int = 10000            # desk scale; reference setting is 100000
    power_sweep_dbm: tuple = (0.0, 10.0, 20.0, 30.0)
    eval_batch: int = 2048
    seed: int = 1234

    def validate(self):
        if self.monte_carlo < 1:
            raise ConfigError("monte carlo count must be >= 1")
        if self.test_scale < 2:
            raise ConfigError("test scale must be >= 2 (power control)")
        if len(self.power_sweep_dbm) == 0:
            raise ConfigError("power sweep must be non-empty")
        if self.eval_batch < 2:
            raise ConfigError("eval batch must be >= 2")


@dataclass(frozen=True)
class SystemConfig:
    """Everything one experiment needs, in one validated record."""

    n_bits: tuple = (12, 8)
    geometry: GeometryConfig = None
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    trainable_power: bool = False
    label: str = "default"

    def bits(self, q):
        return self.n_bits[q - 1]

    @property
    def total_bits(self):
        return self.n_bits[0] + self.n_bits[1]

    def validate(self):
        if len(self.n_bits) != 2 or min(self.n_bits) < 1:
            raise ConfigError("two positive per-terminal bit counts expected")
        if self.geometry is None:
            raise ConfigError("geometry section missing")
        try:
            self.geometry.validate()
        except GeometryError as exc:
            raise ConfigError(str(exc)) from exc
        self.channel.validate()
        self.training.validate()
        self.evaluation.validate()
        return self

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        geom = self.geometry
        return {
            "system": {
                "frequency_hz": geom.frequency,
                "light_speed": geom.light_speed,
                "distance_m": self.channel.distance,
                "bits": list(self.n_bits),
                "label": self.label,
            },
            "sim": {
                "unit_spacing_m": geom.unit_spacing,
                "layer_spacing_m": geom.layer_spacing,
                "terminals": [
                    {
                        "tx_antennas": list(t.tx_antenna_grid),
                        "rx_antennas": list(t.rx_antenna_grid),
                        "tx_units": list(t.tx_unit_grid),
                        "rx_units": list(t.rx_unit_grid),
                        "tx_layers": t.tx_layers,
                        "rx_layers": t.rx_layers,
                    }
                    for t in geom.terminals
                ],
            },
            "channel": {
                "reference_distance_m": self.channel.reference_distance,
                "path_loss_exponent": self.channel.path_loss_exponent,
                "shadowing_db": self.channel.shadowing_db,
                "noise_dbm": self.channel.noise_dbm,
                "si_distance_m": self.channel.si_distance,
                "si_shadowing_db": self.channel.si_shadowing_db,
                "si_isolation_db": self.channel.si_isolation_db,
                "coherence": self.channel.coherence,
                "si_coherence": self.channel.si_coherence,
            },
            "training": {
                "epochs": self.training.epochs,
                "batch_size": self.training.batch_size,
                "learning_rate": self.training.learning_rate,
                "lr_decay": self.training.lr_decay,
                "lr_decay_interval": self.training.lr_decay_interval,
                "lr_floor": self.training.lr_floor,
                "weight_decay": self.training.weight_decay,
                "power_alpha": self.training.power_alpha,
                "power_beta": self.training.power_beta,
                "power_range_dbm": [self.training.power_min_dbm,
                                    self.training.power_max_dbm],
                "finetune_epochs": self.training.finetune_epochs,
                "finetune_lr": self.training.finetune_lr,
                "restarts": self.training.restarts,
                "trainable_power": self.trainable_power,
                "seed": self.training.seed,
            },
            "evaluation": {
                "monte_carlo": self.evaluation.monte_carlo,
                "test_scale": self.evaluation.test_scale,
                "power_sweep_dbm": list(self.evaluation.power_sweep_dbm),
                "eval_batch": self.evaluation.eval_batch,
                "seed": self.evaluation.seed,
            },
        }

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _optional(kind, value):
    return None if value is None else kind(value)


def _numbers(values):
    """Tuple of real numbers, kept as given so integer powers keep the digest."""
    values = tuple(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"not a number: {v!r}")
    return values


def config_from_dict(doc):
    try:
        system = doc["system"]
        sim = doc["sim"]
        terminals = tuple(
            TerminalLayout(
                tx_antenna_grid=tuple(int(n) for n in t["tx_antennas"]),
                rx_antenna_grid=tuple(int(n) for n in t["rx_antennas"]),
                tx_unit_grid=tuple(int(n) for n in t["tx_units"]),
                rx_unit_grid=tuple(int(n) for n in t["rx_units"]),
                tx_layers=int(t["tx_layers"]),
                rx_layers=int(t["rx_layers"]),
            )
            for t in sim["terminals"]
        )
        geom = GeometryConfig(
            frequency=float(system["frequency_hz"]),
            terminals=terminals,
            light_speed=float(system.get("light_speed", C_LIGHT)),
            unit_spacing=sim.get("unit_spacing_m"),
            layer_spacing=sim.get("layer_spacing_m"),
        )
        chan_doc = doc.get("channel", {})
        chan = ChannelConfig(
            distance=float(system["distance_m"]),
            reference_distance=float(chan_doc.get("reference_distance_m", 1.0)),
            path_loss_exponent=float(chan_doc.get("path_loss_exponent", 3.5)),
            shadowing_db=float(chan_doc.get("shadowing_db", 9.0)),
            noise_dbm=float(chan_doc.get("noise_dbm", -110.0)),
            si_distance=float(chan_doc.get("si_distance_m", 0.5)),
            si_shadowing_db=float(chan_doc.get("si_shadowing_db", 0.0)),
            si_isolation_db=float(chan_doc.get("si_isolation_db", 0.0)),
            coherence=float(chan_doc.get("coherence", 0.9)),
            si_coherence=float(chan_doc.get("si_coherence", 1.0)),
        )
        train_doc = doc.get("training", {})
        prange = train_doc.get("power_range_dbm", [-10.0, 30.0])
        train = TrainConfig(
            epochs=int(train_doc.get("epochs", 2000)),
            batch_size=int(train_doc.get("batch_size", 1000)),
            learning_rate=float(train_doc.get("learning_rate", 0.005)),
            lr_decay=float(train_doc.get("lr_decay", 0.95)),
            lr_decay_interval=int(train_doc.get("lr_decay_interval", 50)),
            lr_floor=float(train_doc.get("lr_floor", 1e-5)),
            weight_decay=float(train_doc.get("weight_decay", 1e-4)),
            power_alpha=float(train_doc.get("power_alpha", 2.0)),
            power_beta=float(train_doc.get("power_beta", 2.0)),
            power_min_dbm=float(prange[0]),
            power_max_dbm=float(prange[1]),
            finetune_epochs=_optional(int, train_doc.get("finetune_epochs")),
            finetune_lr=_optional(float, train_doc.get("finetune_lr")),
            restarts=int(train_doc.get("restarts", 1)),
            seed=int(train_doc.get("seed", 1)),
        )
        eval_doc = doc.get("evaluation", {})
        evaluation = EvalConfig(
            monte_carlo=int(eval_doc.get("monte_carlo", 10)),
            test_scale=int(eval_doc.get("test_scale", 10000)),
            power_sweep_dbm=_numbers(eval_doc.get("power_sweep_dbm",
                                                  (0.0, 10.0, 20.0, 30.0))),
            eval_batch=int(eval_doc.get("eval_batch", 2048)),
            seed=int(eval_doc.get("seed", 1234)),
        )
        cfg = SystemConfig(
            n_bits=tuple(int(b) for b in system["bits"]),
            geometry=geom,
            channel=chan,
            training=train,
            evaluation=evaluation,
            trainable_power=bool(train_doc.get("trainable_power", False)),
            label=str(system.get("label", "config")),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    return cfg.validate()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


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
    cfg = SystemConfig(
        n_bits=(12, 8),
        geometry=GeometryConfig(frequency=28e9, terminals=terminals),
        label="reference",
    )
    return cfg.validate()


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
    cfg = SystemConfig(
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
    return cfg.validate()


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
                   label=f"{config.label}-L{layers}").validate()


def with_unit_grid(config, grid):
    """Copy of a config with every stack's unit grid set to `grid`."""
    grid = tuple(grid)
    terminals = tuple(replace(t, tx_unit_grid=grid, rx_unit_grid=grid)
                      for t in config.geometry.terminals)
    geom = replace(config.geometry, terminals=terminals)
    return replace(config, geometry=geom,
                   label=f"{config.label}-U{grid[0]}x{grid[1]}").validate()


def with_bits(config, n_bits):
    """Copy of a config with the per-terminal bit counts replaced."""
    n_bits = tuple(int(b) for b in n_bits)
    return replace(config, n_bits=n_bits,
                   label=f"{config.label}-B{n_bits[0]}+{n_bits[1]}").validate()
