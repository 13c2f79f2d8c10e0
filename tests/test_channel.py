import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import simfd.channel as ch
import simfd.wavefield as wf
from simfd.config import miniature_config, reference_config

F = 28e9
LAM = wf.C_LIGHT / F


class TestSpatialCorrelation:
    def test_zero_distance_is_one(self):
        pos = np.array([[0.0, 0.0, 0.0]])
        assert ch.spatial_correlation(pos, LAM)[0, 0] == 1.0

    def test_half_wavelength_spacing_vanishes(self):
        pos = np.array([[0.0, 0.0, 0.0], [LAM / 2, 0.0, 0.0]])
        r = ch.spatial_correlation(pos, LAM)
        assert abs(r[0, 1]) < 1e-15  # sinc(1) up to the floating value of pi
        assert abs(r[1, 0]) < 1e-15

    def test_two_element_half_wavelength_grid(self):
        pos = wf.unit_positions(2, 1, LAM / 2)
        r = ch.spatial_correlation(pos, LAM)
        assert np.array_equal(np.diag(r), [1.0, 1.0])
        assert abs(r[0, 1]) < 1e-15

    def test_exactly_symmetric_unit_diagonal(self):
        pos = wf.unit_positions(3, 3, LAM / 3)
        r = ch.spatial_correlation(pos, LAM)
        assert np.array_equal(r, r.T)
        assert np.array_equal(np.diag(r), np.ones(9))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(ch.psd_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(ch.psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))

    def test_sinc_matrix_reconstruction(self):
        pos = wf.unit_positions(2, 2, LAM / 3)
        r = ch.spatial_correlation(pos, LAM)
        root = ch.psd_sqrt(r)
        vals = np.linalg.eigvalsh(r)
        clipped = (np.linalg.eigh(r)[1] * np.maximum(vals, 0.0)) @ np.linalg.eigh(r)[1].T
        err = np.linalg.norm(root @ root.T - clipped) / np.linalg.norm(clipped)
        assert err < 1e-8

    def test_clipping_bounded_by_most_negative_eigenvalue(self):
        pos = wf.unit_positions(3, 3, LAM / 4)
        r = ch.spatial_correlation(pos, LAM)
        root = ch.psd_sqrt(r)
        most_negative = max(0.0, -np.linalg.eigvalsh(r).min())
        change = np.abs(root @ root.T - r).max()
        assert change <= most_negative + 1e-12

    def test_reference_roots_do_not_depend_on_thread_count(self):
        # the reference preset's 9 x 9 channel-facing grids; a product of the
        # eigenvectors with their transpose view gave other last bits on 2
        # OpenBLAS threads than on 1
        script = ("import hashlib; import simfd.channel as ch; "
                  "from simfd.config import reference_config; "
                  "bundle = ch.correlation_bundle(reference_config().geometry); "
                  "print(hashlib.sha256(b''.join(m.tx_sqrt.tobytes() + m.rx_sqrt.tobytes() "
                  "for m in bundle.values())).hexdigest())")
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OMP_NUM_THREADS": threads,
                   "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            digests.append(subprocess.run([sys.executable, "-c", script], env=env,
                                          capture_output=True, text=True,
                                          check=True).stdout)
        assert digests[0] == digests[1]


class TestIidRayleigh:
    def test_moments(self):
        rng = np.random.default_rng(0)
        g = ch.draw_iid_rayleigh(400, 250, rng)  # 1e5 entries
        assert abs(g.mean()) < 0.02
        assert abs((np.abs(g) ** 2).mean() - 1.0) < 0.02

    def test_seed_determinism(self):
        a = ch.draw_iid_rayleigh(5, 5, np.random.default_rng(42))
        b = ch.draw_iid_rayleigh(5, 5, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestCorrelatedChannel:
    def test_kronecker_covariance(self):
        # empirical covariance of vec(G) matches kron(R_tx, R_rx) on a
        # 2x2 / 2x2 layer pair over 2e4 draws (Monte Carlo oracle)
        rng = np.random.default_rng(3)
        tx_pos = wf.unit_positions(2, 2, LAM / 3)
        rx_pos = wf.unit_positions(2, 2, LAM / 3)
        r_tx = ch.spatial_correlation(tx_pos, LAM)
        r_rx = ch.spatial_correlation(rx_pos, LAM)
        s_tx, s_rx = ch.psd_sqrt(r_tx), ch.psd_sqrt(r_rx)
        draws = 20000
        acc = np.zeros((16, 16), dtype=complex)
        for _ in range(draws):
            g = s_rx @ ch.draw_iid_rayleigh(4, 4, rng) @ s_tx
            v = g.flatten("F")
            acc += np.outer(v, v.conj())
        emp = acc / draws
        want = np.kron(r_tx, r_rx)
        err = np.linalg.norm(emp - want) / np.linalg.norm(want)
        assert err < 0.05


def budget_config(**channel):
    """The mini preset with its channel fields replaced."""
    cfg = miniature_config()
    return replace(cfg, channel=replace(cfg.channel, **channel))


class TestLinkLoss:
    def test_reference_distance_free_space(self):
        cfg = budget_config(distance=1.0, reference_distance=1.0, shadowing_db=0.0)
        lam = cfg.geometry.wavelength
        want = 20.0 * np.log10(4.0 * np.pi * 1.0 / lam)
        for key in ((1, 2), (2, 1)):
            assert ch.link_loss_db(cfg, *key) == pytest.approx(want, abs=1e-12)

    def test_decade_distance_adds_ten_b(self):
        near = budget_config(distance=1.0, path_loss_exponent=3.5)
        far = budget_config(distance=10.0, path_loss_exponent=3.5)
        assert ch.link_loss_db(far, 1, 2) - ch.link_loss_db(near, 1, 2) \
            == pytest.approx(35.0, abs=1e-9)

    def test_monotone_in_distance(self):
        vals = [ch.link_loss_db(budget_config(distance=d), 1, 2)
                for d in (1.0, 2.0, 5.0, 20.0, 50.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_si_link_below_reference_is_free_space_plus_isolation(self):
        cfg = budget_config(si_distance=0.5, reference_distance=1.0,
                            si_isolation_db=20.0)
        want = 20.0 * np.log10(4.0 * np.pi * 0.5 / cfg.geometry.wavelength) + 20.0
        for key in ((1, 1), (2, 2)):
            assert ch.link_loss_db(cfg, *key) == pytest.approx(want, abs=1e-12)

    def test_si_link_beyond_reference_uses_the_exponent(self):
        cfg = budget_config(si_distance=2.0, reference_distance=1.0,
                            path_loss_exponent=3.0, si_isolation_db=10.0)
        want = 20.0 * np.log10(4.0 * np.pi / cfg.geometry.wavelength) \
            + 30.0 * np.log10(2.0) + 10.0
        assert ch.link_loss_db(cfg, 1, 1) == pytest.approx(want, abs=1e-12)

    def test_shadowing_draw_precedes_isolation(self):
        # one draw scaled by the link's std, added before the SI isolation;
        # the exact order pins the realization bits
        cfg = budget_config(si_shadowing_db=3.0, si_isolation_db=30.0)
        chan = cfg.channel
        ref = min(chan.reference_distance, chan.si_distance)
        z = np.random.default_rng(7).standard_normal()
        want = 20.0 * np.log10(4.0 * np.pi * ref / cfg.geometry.wavelength) \
            + 10.0 * chan.path_loss_exponent * np.log10(chan.si_distance / ref) \
            + 3.0 * z + 30.0
        assert ch.link_loss_db(cfg, 2, 2, np.random.default_rng(7)) == want

    def test_shadowing_only_with_rng_and_positive_std(self):
        cfg = budget_config(shadowing_db=9.0, si_shadowing_db=0.0)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        assert ch.link_loss_db(cfg, 1, 1, rng) == ch.link_loss_db(cfg, 1, 1)
        assert rng.bit_generator.state == state
        a = ch.link_loss_db(cfg, 1, 2, np.random.default_rng(7))
        b = ch.link_loss_db(cfg, 1, 2, np.random.default_rng(7))
        assert a == b != ch.link_loss_db(cfg, 1, 2)


class TestDrawNoise:
    def test_zero_variance_is_zero(self):
        assert np.array_equal(ch.draw_noise(0.0, 5, np.random.default_rng(0)),
                              np.zeros(5, dtype=complex))

    def test_empirical_variance(self):
        rng = np.random.default_rng(1)
        n = ch.draw_noise(2.5, 100000, rng)
        assert abs((np.abs(n) ** 2).mean() - 2.5) / 2.5 < 0.02

    def test_dbm_conversion(self):
        assert ch.dbm_to_watt(-110.0) == pytest.approx(1e-14, rel=1e-12)


class TestRealizeChannels:
    def test_reference_config_link_shapes(self):
        cfg = reference_config()
        rng = np.random.default_rng(0)
        real = ch.realize_channels(cfg, rng)
        # 81 = 9x9 EM units on every stack
        assert real.link(1, 2).shape == (81, 81)
        assert real.link(2, 1).shape == (81, 81)
        assert real.link(1, 1).shape == (81, 81)

    def test_seed_determinism_and_divergence(self):
        cfg = miniature_config()
        a = ch.realize_channels(cfg, np.random.default_rng(5))
        b = ch.realize_channels(cfg, np.random.default_rng(5))
        c = ch.realize_channels(cfg, np.random.default_rng(6))
        for key in ch.LINK_ORDER:
            assert np.array_equal(a.links[key], b.links[key])
        assert not np.array_equal(a.links[(1, 2)], c.links[(1, 2)])

    def test_degenerate_composition_equals_iid_draw(self):
        # identity correlations (2x1 grid at lambda/2), PL forced to 0 dB by
        # putting both terminals at D = D0 = lambda / (4 pi), no shadowing
        from simfd.config import (ChannelConfig, GeometryConfig, SystemConfig,
                                  TerminalLayout)
        lam = LAM
        d0 = lam / (4 * np.pi)
        terminals = (TerminalLayout((1, 1), (1, 1), (2, 1), (2, 1), 1, 1),
                     TerminalLayout((1, 1), (1, 1), (2, 1), (2, 1), 1, 1))
        geom = GeometryConfig(frequency=F, terminals=terminals)
        cfg = SystemConfig(
            n_bits=(2, 2), geometry=geom,
            channel=ChannelConfig(distance=d0, reference_distance=d0,
                                  shadowing_db=0.0, si_distance=d0,
                                  si_isolation_db=0.0))
        real = ch.realize_channels(cfg, np.random.default_rng(11))
        # replay the documented draw order with the same stream; a unit gain
        # leaves each link equal to its i.i.d. draw
        rng = np.random.default_rng(11)
        for key in ch.LINK_ORDER:
            want = ch.draw_iid_rayleigh(2, 2, rng)
            assert np.allclose(real.links[key], want, rtol=1e-12, atol=1e-12)

    def test_si_links_use_isolation(self):
        cfg = miniature_config()
        iso = replace(cfg, channel=replace(cfg.channel, si_isolation_db=40.0,
                                           shadowing_db=0.0))
        flat = replace(cfg, channel=replace(cfg.channel, si_isolation_db=0.0,
                                            shadowing_db=0.0))
        a = ch.realize_channels(iso, np.random.default_rng(3))
        b = ch.realize_channels(flat, np.random.default_rng(3))
        # same draws in the same order: only the SI links are scaled, by 40 dB
        for key in ((1, 1), (2, 2)):
            assert np.allclose(a.links[key], b.links[key] * 10 ** (-40 / 20),
                               rtol=1e-12, atol=0)
        for key in ((1, 2), (2, 1)):
            assert np.array_equal(a.links[key], b.links[key])


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_gain_is_channel_error(self):
        # an unbounded shadowing std passes the config; a draw of it can
        # overflow a link's gain, and the realization rejects the link
        cfg = budget_config(shadowing_db=1e4)
        with pytest.raises(ch.ChannelError, match=r"non-finite entries in link \(2, 1\)"):
            ch.realize_channels(cfg, np.random.default_rng(1))


class TestChannelSource:
    def test_mixing_preserves_variance_scale(self):
        cfg = miniature_config()
        src = ch.ChannelSource(cfg)
        real = src.instantaneous(123)
        for key in ch.LINK_ORDER:
            assert np.isfinite(real.links[key]).all()

    def test_si_links_are_persistent(self):
        cfg = miniature_config()  # si_coherence = 1
        src = ch.ChannelSource(cfg)
        a = src.instantaneous(1)
        b = src.instantaneous(2)
        assert np.array_equal(a.links[(1, 1)], b.links[(1, 1)])
        assert not np.array_equal(a.links[(1, 2)], b.links[(1, 2)])

    def test_zero_coherence_recovers_iid_draw(self):
        cfg = miniature_config()
        cfg0 = replace(cfg, channel=replace(cfg.channel, coherence=0.0,
                                            si_coherence=0.0))
        src = ch.ChannelSource(cfg0)
        got = src.instantaneous(99)
        want = ch.realize_channels(cfg0, np.random.default_rng(99))
        for key in ch.LINK_ORDER:
            assert np.array_equal(got.links[key], want.links[key])

    def test_instantaneous_reproducible(self):
        cfg = miniature_config()
        a = ch.ChannelSource(cfg).instantaneous(5)
        b = ch.ChannelSource(cfg).instantaneous(5)
        for key in ch.LINK_ORDER:
            assert np.array_equal(a.links[key], b.links[key])

    def test_statistical_redraws_differ(self):
        cfg = miniature_config()
        src = ch.ChannelSource(cfg)
        rng = np.random.default_rng(0)
        a = src.statistical(rng)
        b = src.statistical(rng)
        assert not np.array_equal(a.links[(1, 2)], b.links[(1, 2)])
