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
    """A channel realization with non-finite link entries."""


def derive_seed(master, index):
    """Independent child seed `index` of experiment seed `master`."""
    seq = np.random.SeedSequence([int(master), int(index)])
    return int(seq.generate_state(1, np.uint64)[0])


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

    links[(p, q)] has shape N_q x M_p (receiver rows, transmitter columns),
    or (R, N_q, M_p) for R realizations stacked on a run axis (`stack`).
    """

    links: dict

    @classmethod
    def stack(cls, realizations):
        """One realization per run of an ensemble, in order."""
        return cls({key: np.stack([r.links[key] for r in realizations])
                    for key in LINK_ORDER})

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


def link_loss_db(config, p, q, rng=None):
    """Loss of link (p, q) of a SystemConfig, in dB:
    PL(D) = 20 log10(4 pi D0 / lambda) + 10 b log10(D / D0) + X.

    Cross links use the terminal separation and its shadowing std;
    self-interference links use the SI distance and SI shadowing, with the
    reference D0 capped at the SI distance (an SI link closer than the
    reference falls back to free-space loss at its own distance), plus the
    SI isolation. X is one N(0, std^2) draw from `rng` when the link's std
    is positive and `rng` is given, else 0.
    """
    chan = config.channel
    cross = p != q
    dist = chan.distance if cross else chan.si_distance
    ref = chan.reference_distance if cross else min(chan.reference_distance, dist)
    std = chan.shadowing_db if cross else chan.si_shadowing_db
    shadow_db = std * rng.standard_normal() if std > 0 and rng is not None else 0.0
    pl = 20.0 * np.log10(4.0 * np.pi * ref / config.geometry.wavelength) \
        + 10.0 * chan.path_loss_exponent * np.log10(dist / ref) + shadow_db
    return pl if cross else pl + chan.si_isolation_db


def draw_noise(variance_linear, size, rng):
    """Complex Gaussian noise, variance `variance_linear` per entry."""
    if variance_linear == 0.0:
        return np.zeros(size, dtype=complex)
    std = np.sqrt(variance_linear / 2.0)
    return std * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def receiver_noise(config, rows, rng):
    """One batch's receiver noise at a SystemConfig's noise power, (rows, N_q)
    per terminal: terminal 1's draw, then terminal 2's."""
    variance = dbm_to_watt(config.channel.noise_dbm)
    return [draw_noise(variance, (rows, n), rng) for n in config.geometry.rx_antennas]


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

    Each link's gain is its `link_loss_db` budget; rng consumption order is
    fixed: links in LINK_ORDER, per link one shadowing draw (only when that
    link's shadowing std is positive) then the fading matrix.
    """
    corr = correlation_bundle(config.geometry)
    links = {}
    for p, q in LINK_ORDER:
        gain = 10.0 ** (-link_loss_db(config, p, q, rng) / 20.0)
        tx_side = corr[p].tx_sqrt
        rx_side = corr[q].rx_sqrt
        iid = draw_iid_rayleigh(rx_side.shape[0], tx_side.shape[0], rng)
        links[(p, q)] = gain * (rx_side @ iid @ tx_side)
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
