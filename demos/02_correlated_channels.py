"""Channel synthesis: sinc spatial correlation, Kronecker structure, path
loss budgets, and the quasi-static source used by training and evaluation.

Run: python demos/02_correlated_channels.py
"""

import numpy as np

import simfd.channel as ch
import simfd.wavefield as wf
from simfd.config import miniature_config, reference_config

cfg = miniature_config()
lam = cfg.geometry.wavelength

# --- spatial correlation on one layer ----------------------------------------
pos = wf.unit_positions(4, 4, cfg.geometry.spacing)
corr = ch.spatial_correlation(pos, lam)
print("sinc correlation, 4x4 grid at half-wavelength spacing:")
print("  diagonal:", corr[0, 0], " nearest neighbour:", f"{corr[0, 1]:.2e}",
      " diagonal neighbour:", f"{corr[0, 5]:+.4f}")
eigs = np.linalg.eigvalsh(corr)
print(f"  eigenvalue range [{eigs.min():+.4f}, {eigs.max():.4f}]")

# --- link budget --------------------------------------------------------------
chan = cfg.channel
for name, dist, extra in (("cross link", chan.distance, 0.0),
                          ("self-interference", chan.si_distance,
                           chan.si_isolation_db)):
    ref = min(chan.reference_distance, dist)
    pl = ch.path_loss_db(ch.PathLossParams(dist, ref, chan.path_loss_exponent, 0.0),
                         lam) + extra
    print(f"{name:18s}: {dist:5.1f} m -> {pl:6.1f} dB "
          f"(amplitude {10 ** (-pl / 20):.2e})")
print(f"receiver noise: {chan.noise_dbm} dBm = {ch.dbm_to_watt(chan.noise_dbm):.1e} W")

# --- one realization ----------------------------------------------------------
real = ch.realize_channels(cfg, np.random.default_rng(0))
for key in ch.LINK_ORDER:
    g = real.link(*key)
    print(f"G{key[0]}{key[1]}: shape {g.shape}, "
          f"rms entry {np.sqrt((np.abs(g) ** 2).mean()):.2e}")

# --- the quasi-static source --------------------------------------------------
source = ch.ChannelSource(cfg)
a = source.instantaneous(1)
b = source.instantaneous(2)
si_same = np.array_equal(a.link(1, 1), b.link(1, 1))
cross_corr = np.vdot(a.link(1, 2), b.link(1, 2)).real \
    / (np.linalg.norm(a.link(1, 2)) * np.linalg.norm(b.link(1, 2)))
print(f"\ntwo instantaneous draws: SI link identical = {si_same}, "
      f"cross-link correlation = {cross_corr:.3f} "
      f"(configured coherence {cfg.channel.coherence})")

# --- reference-scale shapes ----------------------------------------------------
big = ch.realize_channels(reference_config(), np.random.default_rng(1))
print(f"\nreference configuration: G12 is {big.link(1, 2).shape} "
      f"(81 = 9x9 units per stack)")
