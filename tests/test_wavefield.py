import numpy as np
import pytest

import simfd.autograd as ag
import simfd.emnn as emnn
import simfd.wavefield as wf
from simfd.config import (GeometryConfig, TerminalLayout, miniature_config,
                          reference_config)

F = 28e9
LAM = wf.C_LIGHT / F
D = LAM / 2.0
AREA = D * D


def rs_scalar(src, dst, f=F, area=AREA):
    """Independent one-line evaluation of the diffraction coefficient."""
    d = np.asarray(dst, float) - np.asarray(src, float)
    r = np.sqrt((d * d).sum())
    cos_chi = abs(d[2]) / r
    return (area * cos_chi / r) * (1 / (2 * np.pi * r) - 1j * f / wf.C_LIGHT) \
        * np.exp(1j * 2 * np.pi * r * f / wf.C_LIGHT)


class TestUnitPositions:
    def test_singleton_is_origin(self):
        pos = wf.unit_positions(1, 1, D)
        assert np.array_equal(pos, [[0.0, 0.0, 0.0]])

    def test_two_by_two_symmetry(self):
        pos = wf.unit_positions(2, 2, D)
        assert sorted(pos[:, 0]) == sorted([-D / 2, -D / 2, D / 2, D / 2])
        assert np.all(pos[:, 2] == 0.0)

    def test_three_by_three_enumerated_by_hand(self):
        # centered 3x3 grid, layer 2 at spacing lambda/2: z = lambda
        pos = wf.unit_positions(3, 3, D, layer_index=2, layer_spacing=D)
        assert pos.shape == (9, 3)
        assert np.allclose(pos[:, 2], LAM)
        expected = sorted([(-D, -D), (0, -D), (D, -D), (-D, 0), (0, 0), (D, 0),
                           (-D, D), (0, D), (D, D)])
        got = sorted((round(x, 12), round(y, 12)) for x, y in pos[:, :2])
        assert np.allclose(got, expected)

    def test_centroid_on_axis(self):
        pos = wf.unit_positions(4, 3, D, layer_index=1, layer_spacing=0.01)
        assert np.allclose(pos.mean(axis=0), [0.0, 0.0, 0.01])

    def test_invalid_spacing(self):
        with pytest.raises(wf.GeometryError):
            wf.unit_positions(2, 2, 0.0)


class TestDiffractionCoefficient:
    def test_axial_magnitude_formula(self):
        r = LAM / 2.0
        got = wf.diffraction_coefficient([0, 0, 0], [0, 0, r], F, AREA)
        want = (AREA / r) * np.sqrt((1 / (2 * np.pi * r)) ** 2 + (F / wf.C_LIGHT) ** 2)
        assert abs(abs(got) - want) < 1e-12 * want

    def test_perpendicular_offset_vanishes(self):
        got = wf.diffraction_coefficient([0, 0, 0], [LAM, 0, 0], F, AREA)
        assert got == 0.0

    def test_full_wavelength_phase_wrap(self):
        got = wf.diffraction_coefficient([0, 0, 0], [0, 0, LAM], F, AREA)
        base = np.angle(1 / (2 * np.pi * LAM) - 1j * F / wf.C_LIGHT)
        wrapped = np.mod(np.angle(got) - base, 2 * np.pi)
        assert min(wrapped, 2 * np.pi - wrapped) < 1e-9

    def test_coincident_points_rejected(self):
        with pytest.raises(wf.GeometryError):
            wf.diffraction_coefficient([0, 0, 0], [0, 0, 0], F, AREA)

    def test_matches_independent_scalar(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            src = rng.standard_normal(3) * D
            dst = rng.standard_normal(3) * D + [0, 0, 5 * D]
            assert wf.diffraction_coefficient(src, dst, F, AREA) == pytest.approx(
                rs_scalar(src, dst), rel=1e-12)


class TestTransmissionMatrix:
    def test_degenerate_single_pair(self):
        prev = wf.unit_positions(1, 1, D)
        nxt = wf.unit_positions(1, 1, D, 1, D)
        mat = wf.transmission_matrix(prev, nxt, F, AREA)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(rs_scalar(prev[0], nxt[0]), rel=1e-12)

    def test_aligned_grids_symmetric_under_index_swap(self):
        prev = wf.unit_positions(2, 2, D)
        nxt = wf.unit_positions(2, 2, D, 1, D)
        mat = wf.transmission_matrix(prev, nxt, F, AREA)
        # brute-force: swapping source and destination indices on identical
        # coplanar-aligned grids leaves the geometry unchanged
        for m in range(4):
            for k in range(4):
                assert mat[m, k] == pytest.approx(mat[k, m], rel=1e-12)

    def test_exhaustive_entrywise_recompute(self):
        prev = wf.unit_positions(4, 4, D)
        nxt = wf.unit_positions(3, 3, D, 1, D)
        mat = wf.transmission_matrix(prev, nxt, F, AREA)
        assert mat.shape == (9, 16)
        for m in range(9):
            for k in range(16):
                assert mat[m, k] == pytest.approx(rs_scalar(prev[k], nxt[m]),
                                                  rel=1e-12)

    def test_farther_pairs_weaker_at_equal_angle(self):
        # enumerate 3x3 -> 1x1: compare the axial unit against farther ones
        prev = wf.unit_positions(3, 3, D)
        nxt = np.array([[0.0, 0.0, 4 * D]])
        mat = wf.transmission_matrix(prev, nxt, F, AREA)[0]
        dists = np.linalg.norm(prev - nxt[0], axis=1)
        order = np.argsort(dists)
        mags = np.abs(mat)[order]
        assert all(mags[i] >= mags[i + 1] - 1e-15 for i in range(len(mags) - 1))

    def test_distance_reciprocity_exact(self):
        a = wf.unit_positions(3, 2, D)
        b = wf.unit_positions(2, 2, D, 2, D)
        dab = np.sqrt(((b[:, None, :] - a[None, :, :]) ** 2).sum(axis=2))
        dba = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        assert np.array_equal(dab, dba.T)


def phase_mask(phases):
    """diag(exp(j phases)), as the column-phase op applies it to the identity."""
    return ag.phase_shift(np.eye(len(phases), dtype=complex), phases).data


class TestPhaseMask:
    def test_zero_phases_identity(self):
        assert np.array_equal(phase_mask(np.zeros(3)), np.eye(3))

    def test_known_values(self):
        mask = phase_mask(np.array([np.pi, np.pi / 2]))
        assert np.allclose(np.diag(mask), [-1.0, 1j])
        assert mask[0, 1] == 0.0

    def test_unit_modulus(self):
        rng = np.random.default_rng(1)
        mask = phase_mask(rng.uniform(0, 2 * np.pi, 16))
        assert np.max(np.abs(np.abs(np.diag(mask)) ** 2 - 1.0)) < 1e-12

    def test_norm_preservation(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
        out = ag.phase_shift(v, rng.uniform(0, 2 * np.pi, 8))
        assert np.linalg.norm(out.data) == pytest.approx(np.linalg.norm(v), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ag.GraphError):
            ag.phase_shift(np.eye(4, dtype=complex), np.zeros(3))


def mini_geometry(l_layers=2, k_layers=2):
    terminals = (
        TerminalLayout((2, 2), (2, 2), (4, 4), (4, 4), l_layers, k_layers),
        TerminalLayout((2, 2), (2, 2), (4, 4), (4, 4), l_layers, k_layers),
    )
    return GeometryConfig(frequency=F, terminals=terminals)


def tx_factors(geom, q):
    return wf.stack_factors(geom, *geom.terminal(q).tx_stack)


def rx_factors(geom, q):
    return wf.stack_factors(geom, *geom.terminal(q).rx_stack)


def tx_dense(geom, q, phases):
    """Dense T = Phi_L V_L ... Phi_1 V_1, composed by the forward's TX stage."""
    eye = ag.Tensor(np.eye(geom.terminal(q).tx_antennas, dtype=complex))
    return emnn.tx_sim_forward(eye, tx_factors(geom, q), phases).data.T


def rx_dense(geom, q, phases):
    """Dense R = V_1^T Psi_1 ... V_K^T Psi_K, composed by the forward's RX stage."""
    rx_grid = geom.terminal(q).channel_grids[1]
    eye = ag.Tensor(np.eye(rx_grid[0] * rx_grid[1], dtype=complex))
    return emnn.rx_sim_forward(eye, rx_factors(geom, q), phases).data.T


class TestPropagationOperators:
    def test_single_layer_zero_phases_is_first_factor(self):
        geom = mini_geometry(1, 1)
        assert np.allclose(tx_dense(geom, 1, [np.zeros(16)]), tx_factors(geom, 1)[0])
        assert np.allclose(rx_dense(geom, 1, [np.zeros(16)]), rx_factors(geom, 1)[0].T)

    def test_tx_chain_matches_dense_product(self):
        geom = mini_geometry(2, 2)
        rng = np.random.default_rng(3)
        phases = [rng.uniform(0, 2 * np.pi, 16) for _ in range(2)]
        got = tx_dense(geom, 1, phases)
        v1, v2 = tx_factors(geom, 1)
        want = np.diag(np.exp(1j * phases[1])) @ v2 @ np.diag(np.exp(1j * phases[0])) @ v1
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 1e-10

    def test_rx_chain_matches_dense_product_three_layers(self):
        geom = mini_geometry(3, 3)
        rng = np.random.default_rng(4)
        phases = [rng.uniform(0, 2 * np.pi, 16) for _ in range(3)]
        got = rx_dense(geom, 2, phases)
        u1, u2, u3 = (v.T for v in rx_factors(geom, 2))
        want = u1 @ np.diag(np.exp(1j * phases[0])) @ u2 \
            @ np.diag(np.exp(1j * phases[1])) @ u3 @ np.diag(np.exp(1j * phases[2]))
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 1e-10

    def test_no_layers_is_identity(self):
        geom = mini_geometry(0, 0)
        assert np.array_equal(tx_dense(geom, 1, []), np.eye(4))
        assert np.array_equal(rx_dense(geom, 2, []), np.eye(4))

    def test_shapes(self):
        geom = mini_geometry(2, 2)
        assert tx_dense(geom, 1, [np.zeros(16)] * 2).shape == (16, 4)
        assert rx_dense(geom, 1, [np.zeros(16)] * 2).shape == (4, 16)

    def test_phase_layers_preserve_chain_norm_bound(self):
        # the chained operator norm with phases never exceeds the product of
        # the factors' largest singular values (phases preserve norms)
        geom = mini_geometry(2, 2)
        rng = np.random.default_rng(5)
        top = np.linalg.svd(tx_dense(geom, 1, [rng.uniform(0, 2 * np.pi, 16)
                                               for _ in range(2)]), compute_uv=False)[0]
        bound = np.prod([np.linalg.svd(m, compute_uv=False)[0]
                         for m in tx_factors(geom, 1)])
        assert top <= bound * (1 + 1e-12)

    def test_deterministic_rebuild(self):
        geom = mini_geometry(2, 2)
        a = tx_factors(geom, 1)
        b = tx_factors(geom, 1)
        for m1, m2 in zip(a, b):
            assert np.array_equal(m1, m2)

    def test_wrong_side_rejected(self):
        # the factors map 4 antennas to 16 units; a stage started from the
        # wrong end of the stack does not close
        geom = mini_geometry(1, 1)
        with pytest.raises(ag.GraphError):
            emnn.rx_sim_forward(np.eye(4, dtype=complex), rx_factors(geom, 1),
                                [np.zeros(16)])
        with pytest.raises(ag.GraphError):
            emnn.tx_sim_forward(np.eye(16, dtype=complex), tx_factors(geom, 1),
                                [np.zeros(16)])

    @pytest.mark.parametrize("preset", [miniature_config, reference_config])
    def test_inward_factor_is_outward_transpose(self, preset):
        # reciprocity, bit for bit: the matrix from layer l back to layer
        # l-1, built from the positions, is the transpose of the outward V_l
        geom = preset().geometry
        for t in geom.terminals:
            grids = [t.rx_antenna_grid] + [t.rx_unit_grid] * t.rx_layers
            planes = [wf.unit_positions(g[0], g[1], geom.spacing, l, geom.layer_gap)
                      for l, g in enumerate(grids)]
            outward = wf.stack_factors(geom, *t.rx_stack)
            assert len(outward) == t.rx_layers
            for l, v in enumerate(outward, 1):
                inward = wf.transmission_matrix(planes[l], planes[l - 1], geom.frequency,
                                                geom.unit_area, geom.light_speed)
                assert np.array_equal(inward, v.T)

    def test_channel_grids(self):
        # the unit grid faces the channel, the antenna grid when no layers
        t = TerminalLayout((2, 2), (3, 1), (4, 4), (5, 5), 0, 2)
        assert t.channel_grids == ((2, 2), (5, 5))
        t = TerminalLayout((2, 2), (3, 1), (4, 4), (5, 5), 1, 0)
        assert t.channel_grids == ((4, 4), (3, 1))

    def test_dimension_mismatch_rejected(self):
        geom = mini_geometry(2, 2)
        with pytest.raises(ag.GraphError):
            tx_dense(geom, 1, [np.zeros(16), np.zeros(9)])


class TestGeometryConfig:
    def test_default_spacings_are_half_wavelength(self):
        geom = mini_geometry()
        assert geom.spacing == pytest.approx(LAM / 2)
        assert geom.layer_gap == pytest.approx(LAM / 2)
        assert geom.unit_area == pytest.approx((LAM / 2) ** 2)


def test_pair_conversion_roundtrip():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    pair = wf.complex_to_pair(m)
    assert np.array_equal(pair, np.concatenate([m.real, m.imag], axis=1))
    assert np.array_equal(ag.to_complex(pair).data, m)


def test_wrap_phase_range():
    wrapped = wf.wrap_phase(np.array([-0.1, 2 * np.pi + 0.3, 7 * np.pi]))
    assert np.all((wrapped >= 0) & (wrapped < 2 * np.pi))
