"""Walk through the wave-domain physics: unit grids, Rayleigh-Sommerfeld
coefficients, and the stacked propagation operators of one terminal.

Run: python demos/01_wave_propagation.py
"""

import numpy as np

import simfd.autograd as ag
import simfd.emnn as emnn
import simfd.wavefield as wf
from simfd.config import miniature_config

cfg = miniature_config()
geom = cfg.geometry
term = geom.terminal(1)
lam = geom.wavelength

print(f"carrier {geom.frequency / 1e9:.0f} GHz, wavelength {lam * 1e3:.2f} mm, "
      f"unit spacing {geom.spacing * 1e3:.2f} mm")

# --- element grids -----------------------------------------------------------
antennas = wf.unit_positions(*term.tx_antenna_grid, geom.spacing)
layer1 = wf.unit_positions(*term.tx_unit_grid, geom.spacing, 1, geom.layer_gap)
print(f"\nTX antennas: {len(antennas)} elements at z = 0")
print(f"TX layer 1:  {len(layer1)} units at z = {layer1[0, 2] * 1e3:.2f} mm")

# --- one transmission coefficient -------------------------------------------
axial = wf.diffraction_coefficient(antennas[0], antennas[0] + [0, 0, geom.layer_gap],
                                   geom.frequency, geom.unit_area)
print(f"\naxial coefficient over one layer gap: |v| = {abs(axial):.4f}, "
      f"arg = {np.angle(axial):+.4f} rad")

offsets = np.arange(1, 5) * geom.spacing
for off in offsets:
    v = wf.diffraction_coefficient([0, 0, 0], [off, 0, geom.layer_gap],
                                   geom.frequency, geom.unit_area)
    print(f"  lateral offset {off / lam:.1f} lambda: |v| = {abs(v):.4f}")

# --- full stack operators -----------------------------------------------------
# the network's own stage functions compose each operator: started from the
# identity on the antennas, the TX stage yields T^T and the RX stage R^T
rng = np.random.default_rng(0)
factors = wf.stack_factors(geom, *term.tx_stack)
antennas_eye = ag.Tensor(np.eye(term.tx_antennas, dtype=complex))
thetas = [rng.uniform(0, 2 * np.pi, term.tx_units) for _ in range(term.tx_layers)]
t_mat = emnn.tx_sim_forward(antennas_eye, factors, thetas).data.T
print(f"\nTX operator shape {t_mat.shape} "
      f"(units x antennas), layers = {term.tx_layers}")
sv = np.linalg.svd(t_mat, compute_uv=False)
print(f"singular values: {np.round(sv, 3)}")

# phases only steer energy, they never create it: compare against zero phases
zeros = [np.zeros(term.tx_units) for _ in range(term.tx_layers)]
flat = emnn.tx_sim_forward(antennas_eye, factors, zeros).data.T
print(f"zero-phase operator Frobenius norm  {np.linalg.norm(flat):.4f}")
print(f"random-phase operator Frobenius norm {np.linalg.norm(t_mat):.4f}")

# the RX stack has the same outward factors and runs them backwards: by
# reciprocity the matrix from layer l back to layer l-1 is V_l^T
units_eye = ag.Tensor(np.eye(term.rx_units, dtype=complex))
r_mat = emnn.rx_sim_forward(units_eye, wf.stack_factors(geom, *term.rx_stack),
                            [np.zeros(term.rx_units) for _ in range(term.rx_layers)]).data.T
print(f"\nRX operator shape {r_mat.shape} (antennas x units)")
