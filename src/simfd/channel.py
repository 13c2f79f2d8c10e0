"""Correlated Rayleigh channel synthesis with path loss, shadowing and noise.

Links between the stacks of the two terminals follow a Kronecker model:
G = R_rx^{1/2} Gtilde R_tx^{1/2}, with sinc spatial correlation on each
layer grid, log-distance path loss applied as an amplitude factor, and
i.i.d. circularly symmetric fading. All randomness flows through explicitly
passed numpy Generators; a realization is reproducible from (config, seed).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import wavefield

# fixed rng consumption order inside realize_channels
LINK_ORDER = ((1, 1), (1, 2), (2, 1), (2, 2))

# derivation tag of the persistent channel component of an experiment
NOMINAL_TAG = 0x534F5552


class ChannelError(ValueError):
    """Invalid channel parameters or non-conforming shapes."""


def derive_seed(master, index):
    """Independent child seed `index` of experiment seed `master`."""
    seq = np.random.SeedSequence([int(master), int(index)])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss inputs; `exponent` is the path-loss exponent."""

    distance: float
    reference_distance: float = 1.0
    exponent: float = 3.5
    shadowing_db: float = 0.0

    def __post_init__(self):
        if self.reference_distance <= 0:
            raise ChannelError("reference distance must be positive")
        if self.distance < self.reference_distance:
            raise ChannelError("distance below the reference distance")
        if self.exponent <= 0:
            raise ChannelError("path loss exponent must be positive")
        if self.shadowing_db < 0:
            raise ChannelError("shadowing std must be >= 0")


@dataclass
class CorrelationMatrices:
    """Per-terminal spatial correlation on the channel-facing layers."""

    tx: np.ndarray        # M_q x M_q, TX stack's last layer grid
    rx: np.ndarray        # N_q x N_q, RX stack's outermost layer grid
    tx_sqrt: np.ndarray
    rx_sqrt: np.ndarray


@dataclass
class ChannelRealization:
    """One draw of the four link matrices, path loss and shadowing applied.

    links[(p, q)] has shape N_q x M_p (receiver rows, transmitter columns).
    """

    links: dict

    def link(self, p, q):
        return self.links[(p, q)]

    def validate(self):
        for key in LINK_ORDER:
            if not np.isfinite(self.links[key]).all():
                raise ChannelError(f"non-finite entries in link {key}")


def dbm_to_watt(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def spatial_correlation(positions, wavelength):
    """sinc(2 d / wavelength) correlation over one layer's unit positions."""
    positions = np.asarray(positions, dtype=float)
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return np.sinc(2.0 * dist / wavelength)


def psd_sqrt(matrix):
    """Symmetric PSD square root with negative eigenvalues clipped to zero."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ChannelError("square matrix expected")
    if np.abs(matrix - matrix.T).max() > 1e-10:
        raise ChannelError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(matrix)
    # a C-ordered right operand: with vecs.T itself, the product's last bits
    # depend on the BLAS thread count for some sizes (9 x 9 among them)
    root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ np.ascontiguousarray(vecs.T)
    return (root + root.T) / 2.0


def draw_iid_rayleigh(rows, cols, rng):
    """i.i.d. circularly symmetric complex Gaussian entries, unit variance."""
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def correlated_channel(rx_sqrt, iid, tx_sqrt):
    """Kronecker-correlated channel: rx_sqrt @ iid @ tx_sqrt."""
    rx_sqrt = np.asarray(rx_sqrt)
    tx_sqrt = np.asarray(tx_sqrt)
    iid = np.asarray(iid)
    if rx_sqrt.shape[1] != iid.shape[0] or iid.shape[1] != tx_sqrt.shape[0]:
        raise ChannelError(
            f"non-conforming shapes {rx_sqrt.shape} {iid.shape} {tx_sqrt.shape}")
    return rx_sqrt @ iid @ tx_sqrt


def path_loss_db(params, wavelength, rng=None):
    """PL(D) = 20 log10(4 pi D0 / lambda) + 10 b log10(D / D0) + X.

    X is the shadowing term: one N(0, std^2) draw from `rng` when the
    configured std is positive, else 0.
    """
    shadow_db = 0.0
    if params.shadowing_db > 0 and rng is not None:
        shadow_db = params.shadowing_db * rng.standard_normal()
    pl0 = 20.0 * np.log10(4.0 * np.pi * params.reference_distance / wavelength)
    return pl0 + 10.0 * params.exponent * np.log10(
        params.distance / params.reference_distance) + shadow_db


def draw_noise(variance_linear, size, rng):
    """Complex Gaussian noise, variance `variance_linear` per entry."""
    if variance_linear < 0:
        raise ChannelError("noise variance must be >= 0")
    if variance_linear == 0.0:
        return np.zeros(size, dtype=complex)
    std = np.sqrt(variance_linear / 2.0)
    return std * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


@lru_cache(maxsize=16)
def correlation_bundle(geom):
    """Correlation matrices and PSD roots for both terminals (cached), on
    each side's channel-facing grid (TerminalLayout.channel_grids).
    """
    out = {}
    lam = geom.wavelength
    for q in (1, 2):
        tx_grid, rx_grid = geom.terminal(q).channel_grids
        tx_pos = wavefield.unit_positions(tx_grid[0], tx_grid[1], geom.spacing)
        rx_pos = wavefield.unit_positions(rx_grid[0], rx_grid[1], geom.spacing)
        r_tx = spatial_correlation(tx_pos, lam)
        r_rx = spatial_correlation(rx_pos, lam)
        out[q] = CorrelationMatrices(r_tx, r_rx, psd_sqrt(r_tx), psd_sqrt(r_rx))
    return out


def realize_channels(config, rng):
    """Draw all four link matrices of a SystemConfig.

    Cross links (1,2) and (2,1) use the terminal separation distance and the
    configured shadowing; self-interference links (1,1) and (2,2) use the SI
    distance, SI shadowing, and the extra SI isolation. rng consumption order
    is fixed: links in LINK_ORDER, per link one shadowing draw (only when
    that link's shadowing std is positive) then the fading matrix.
    """
    geom = config.geometry
    chan = config.channel
    corr = correlation_bundle(geom)
    links = {}
    for p, q in LINK_ORDER:
        cross = p != q
        # SI links closer than the reference distance fall back to free-space
        # loss at their actual distance (reference = distance, exponent moot)
        ref = chan.reference_distance if cross \
            else min(chan.reference_distance, chan.si_distance)
        params = PathLossParams(
            distance=chan.distance if cross else chan.si_distance,
            reference_distance=ref,
            exponent=chan.path_loss_exponent,
            shadowing_db=chan.shadowing_db if cross else chan.si_shadowing_db)
        pl = path_loss_db(params, geom.wavelength, rng=rng)
        if not cross:
            pl += chan.si_isolation_db
        gain = 10.0 ** (-pl / 20.0)
        tx_side = corr[p].tx_sqrt
        rx_side = corr[q].rx_sqrt
        iid = draw_iid_rayleigh(rx_side.shape[0], tx_side.shape[0], rng)
        links[(p, q)] = gain * correlated_channel(rx_side, iid, tx_side)
    out = ChannelRealization(links)
    out.validate()
    return out


class ChannelSource:
    """Channel draws of one experiment, anchored to a persistent component.

    The nominal realization (derived from the experiment seed) models the
    quasi-static part of the environment: the self-interference geometry and
    the slowly varying portion of the cross links. Statistical draws redraw
    the innovation around it every call (base training); instantaneous draws
    freeze one innovation per index (fine-tuning and evaluation).
    """

    def __init__(self, config):
        self.config = config
        self.nominal = realize_channels(config, np.random.default_rng(
            derive_seed(config.training.seed, NOMINAL_TAG)))

    def _mix(self, fresh):
        """Quasi-static composition: persistent component plus fresh innovation.

        Per link, G = sqrt(rho) G_nominal + sqrt(1 - rho) G_fresh with rho the
        cross-link coherence (si_coherence on the self-interference links);
        unit fading variance is preserved. rho = 0 returns the fresh draw
        unchanged, rho = 1 pins the link to the persistent component.
        """
        chan = self.config.channel
        links = {}
        for key in LINK_ORDER:
            rho = chan.si_coherence if key[0] == key[1] else chan.coherence
            links[key] = np.sqrt(rho) * self.nominal.links[key] \
                + np.sqrt(1.0 - rho) * fresh.links[key]
        out = ChannelRealization(links)
        out.validate()
        return out

    def statistical(self, rng):
        """Fresh innovation around the persistent component (redraw per batch)."""
        return self._mix(realize_channels(self.config, rng))

    def instantaneous(self, seed):
        """One frozen realization reproducible from its innovation seed."""
        return self._mix(realize_channels(self.config, np.random.default_rng(seed)))
