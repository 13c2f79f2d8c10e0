"""Deterministic metasurface-stack geometry and Rayleigh-Sommerfeld propagation.

A terminal carries a TX stack and an RX stack of programmable layers. The
antenna array is modeled as layer 0 of each stack (same element spacing as
the EM units); layer l sits in the plane z = l * layer_spacing of the
stack's local frame. All functions here are pure, double precision, and
deterministic for a fixed geometry.
"""

from dataclasses import dataclass

import numpy as np

C_LIGHT = 299792458.0


class GeometryError(ValueError):
    """Invalid geometry or a singular (coincident-point) configuration."""


@dataclass(frozen=True)
class TerminalLayout:
    """Grid sizes and layer counts for one terminal; 0 layers = no stack."""

    tx_antenna_grid: tuple  # (nx, ny)
    rx_antenna_grid: tuple
    tx_unit_grid: tuple
    rx_unit_grid: tuple
    tx_layers: int
    rx_layers: int

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

    def validate(self):
        for grid in (self.tx_antenna_grid, self.rx_antenna_grid,
                     self.tx_unit_grid, self.rx_unit_grid):
            if len(grid) != 2 or min(grid) < 1:
                raise GeometryError(f"grid dimensions must be >= 1, got {grid}")
        if self.tx_layers < 0 or self.rx_layers < 0:
            raise GeometryError("layer counts must be >= 0")


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

    def validate(self):
        if self.frequency <= 0 or self.light_speed <= 0:
            raise GeometryError("frequency and light speed must be positive")
        if self.spacing <= 0 or self.layer_gap <= 0:
            raise GeometryError("spacings must be positive")
        if len(self.terminals) != 2:
            raise GeometryError("exactly two terminals expected")
        for t in self.terminals:
            t.validate()


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
# builders from a GeometryConfig
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
