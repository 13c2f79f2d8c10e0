"""Deterministic metasurface-stack geometry and Rayleigh-Sommerfeld propagation.

A terminal carries a TX stack and an RX stack of programmable layers. The
antenna array is modeled as layer 0 of each stack (same element spacing as
the EM units); layer l sits in the plane z = l * layer_spacing of the
stack's local frame. All functions here are pure, double precision, and
deterministic for a fixed geometry.
"""

import numpy as np

C_LIGHT = 299792458.0


class GeometryError(ValueError):
    """Invalid propagation arguments or coincident points."""


def unit_positions(nx, ny, spacing, layer_index=0, layer_spacing=0.0):
    """Element centers of a centered nx-by-ny grid at z = layer_index * spacing.

    Returns an (nx*ny, 3) array, x index running fastest; the grid centroid
    is (0, 0, layer_index * layer_spacing).
    """
    if nx < 1 or ny < 1:
        raise GeometryError("grid dimensions must be >= 1")
    if spacing <= 0:
        raise GeometryError("spacing must be positive")
    xs = (np.arange(nx) - (nx - 1) / 2.0) * spacing
    ys = (np.arange(ny) - (ny - 1) / 2.0) * spacing
    out = np.zeros((nx * ny, 3))
    out[:, 0] = np.tile(xs, ny)
    out[:, 1] = np.repeat(ys, nx)
    out[:, 2] = layer_index * layer_spacing
    return out


def diffraction_coefficient(src, dst, frequency, unit_area, light_speed=C_LIGHT):
    """Rayleigh-Sommerfeld transmission coefficient between two unit centers.

    (S cos(chi) / r) * (1/(2 pi r) - j f/c) * exp(j 2 pi r f / c), with r the
    Euclidean distance and chi the angle to the source layer's normal (z).
    """
    if unit_area <= 0:
        raise GeometryError("unit area must be positive")
    d = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float)
    r = float(np.sqrt((d * d).sum()))
    if r == 0.0:
        raise GeometryError("coincident source and destination units")
    cos_chi = abs(d[2]) / r
    return (unit_area * cos_chi / r) * (1.0 / (2.0 * np.pi * r) - 1j * frequency / light_speed) \
        * np.exp(1j * 2.0 * np.pi * r * frequency / light_speed)


def transmission_matrix(prev_positions, next_positions, frequency, unit_area,
                        light_speed=C_LIGHT):
    """Layer-to-layer coefficient matrix, shape (len(next), len(prev)).

    Entry (m, m~) is diffraction_coefficient(prev[m~], next[m]).
    """
    prev_positions = np.asarray(prev_positions, dtype=float)
    next_positions = np.asarray(next_positions, dtype=float)
    if prev_positions.size == 0 or next_positions.size == 0:
        raise GeometryError("empty position list")
    if unit_area <= 0:
        raise GeometryError("unit area must be positive")
    diff = next_positions[:, None, :] - prev_positions[None, :, :]
    r = np.sqrt((diff * diff).sum(axis=2))
    if (r == 0.0).any():
        raise GeometryError("coincident units across layers")
    cos_chi = np.abs(diff[:, :, 2]) / r
    return (unit_area * cos_chi / r) * (1.0 / (2.0 * np.pi * r) - 1j * frequency / light_speed) \
        * np.exp(1j * 2.0 * np.pi * r * frequency / light_speed)


def wrap_phase(phases):
    """Canonicalize phases into [0, 2 pi) for export."""
    return np.mod(np.asarray(phases, dtype=float), 2.0 * np.pi)


# ---------------------------------------------------------------------------
# builders from a config.GeometryConfig
# ---------------------------------------------------------------------------

def stack_factors(geom, antenna_grid, unit_grid, layers):
    """Outward transmission matrices [V_1 .. V_L] of one stack.

    V_l maps layer l-1 to layer l; layer 0 is the antenna grid, layers 1..L
    the unit grid. A receive stack uses the same factors: the coefficient
    depends only on r and |dz|, so the inward matrix of a layer pair is
    exactly V_l^T.
    """
    grids = [antenna_grid] + [unit_grid] * layers
    planes = [unit_positions(g[0], g[1], geom.spacing, layer, geom.layer_gap)
              for layer, g in enumerate(grids)]
    return [transmission_matrix(prev, nxt, geom.frequency, geom.unit_area,
                                geom.light_speed)
            for prev, nxt in zip(planes, planes[1:])]


def complex_to_pair(matrix):
    """Complex rows (..., n) as paired real rows [re | im] (..., 2n)."""
    matrix = np.asarray(matrix, dtype=complex)
    return np.concatenate([matrix.real, matrix.imag], axis=-1)
