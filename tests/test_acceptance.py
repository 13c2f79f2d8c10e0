"""Acceptance gate: every criterion at its stated tolerance, one line each.

Trend criteria run the full protocol (base training with restarts, per
realization fine-tuning, evaluation) over 5 seeds x 5 realizations per
configuration arm at desk scale; arms are trained once per session and
shared across criteria.
"""

import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import simfd.autograd as ag
import simfd.channel as ch
import simfd.emnn as emnn
import simfd.evaluation as ev
import simfd.training as training
import simfd.wavefield as wf
from simfd.cli import full_grad_check
from simfd.config import miniature_config, with_bits, with_layers

ARM_SEEDS = (1, 2, 3, 4, 5)
ARM_REALIZATIONS = 5
ARM_SYMBOLS = 2500


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def mini():
    return miniature_config()


@pytest.fixture(scope="module")
def mini_base(mini):
    return training.train_base(mini)


@lru_cache(maxsize=None)
def protocol_arm(kind):
    """Median BER per sweep power for one configuration arm."""
    config = miniature_config()
    if kind == "L0":
        config = ev.baseline_conventional(config)
    elif kind in ("L1", "L3"):
        config = with_layers(config, int(kind[1]))
    elif kind == "bits88":
        config = with_bits(config, (8, 8))
    config = replace(config, evaluation=replace(config.evaluation,
                                                monte_carlo=ARM_REALIZATIONS,
                                                test_scale=ARM_SYMBOLS))
    report = ev.protocol([replace(config, training=replace(config.training, seed=seed))
                          for seed in ARM_SEEDS])
    return {p: report.median_ber(config.label, p)
            for p in config.evaluation.power_sweep_dbm}


def test_gradient_correctness(mini):
    start = time.time()
    err = full_grad_check(mini, seed=0, batch=8, h=1e-6)
    elapsed = time.time() - start
    report("gradient correctness",
           err < 1e-5 and elapsed < 60.0,
           f"max relative error {err:.3e} (< 1e-5), {elapsed:.1f}s (< 60s)")


def coefficient_matrix(src, dst, geom):
    """Transmission matrix entry by entry from diffraction_coefficient."""
    return np.array([[wf.diffraction_coefficient(s, d, geom.frequency, geom.unit_area,
                                                 geom.light_speed) for s in src]
                     for d in dst])


def stack_planes(geom, antenna_grid, unit_grid, layers):
    """Unit centers of layers 0 (the antennas) .. `layers` of one stack."""
    grids = [antenna_grid] + [unit_grid] * layers
    return [wf.unit_positions(g[0], g[1], geom.spacing, l, geom.layer_gap)
            for l, g in enumerate(grids)]


def test_physics_network_consistency(mini):
    geom = mini.geometry
    model = emnn.Emnn(mini, rng=np.random.default_rng(0))
    tx, rx = {}, {}
    for q, t in enumerate(geom.terminals, 1):
        planes = stack_planes(geom, *t.tx_stack)
        tx[q] = [coefficient_matrix(planes[l - 1], planes[l], geom) for l in (1, 2)]
        planes = stack_planes(geom, *t.rx_stack)
        rx[q] = [coefficient_matrix(planes[l], planes[l - 1], geom) for l in (1, 2)]
    rng = np.random.default_rng(1)
    worst = 0.0

    def err(out, want):
        return np.linalg.norm(out.data - want) / np.linalg.norm(want)

    for draw in range(100):
        q = 1 + draw % 2
        thetas = [rng.uniform(0, 2 * np.pi, 16) for _ in range(2)]
        xis = [rng.uniform(0, 2 * np.pi, 16) for _ in range(2)]
        (v1, v2), (u1, u2) = tx[q], rx[q]
        t_dense = np.diag(np.exp(1j * thetas[1])) @ v2 @ np.diag(np.exp(1j * thetas[0])) @ v1
        r_dense = u1 @ np.diag(np.exp(1j * xis[0])) @ u2 @ np.diag(np.exp(1j * xis[1]))
        # a complex batch, and the identity that composes the operator itself
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for rows in (x, np.eye(4, dtype=complex)):
            out = emnn.tx_sim_forward(ag.Tensor(rows), model.tx_factors[q - 1],
                                      [ag.Tensor(t) for t in thetas])
            worst = max(worst, err(out, rows @ t_dense.T))
        y = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        for rows in (y, np.eye(16, dtype=complex)):
            out = emnn.rx_sim_forward(ag.Tensor(rows), model.rx_factors[q - 1],
                                      [ag.Tensor(t) for t in xis])
            worst = max(worst, err(out, rows @ r_dense.T))
    report("physics/network consistency", worst < 1e-10,
           f"worst relative error {worst:.3e} over 100 draws (< 1e-10)")


def test_unit_modulus_and_power_conservation():
    rng = np.random.default_rng(2)
    worst_norm = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 24))
        theta = rng.uniform(-10, 10, n)
        x = ag.to_complex(rng.standard_normal((8, 2 * n)) * rng.uniform(0.1, 10)).data
        y = ag.phase_shift(ag.Tensor(x), theta)
        before = x.real ** 2 + x.imag ** 2
        after = y.data.real ** 2 + y.data.imag ** 2
        worst_norm = max(worst_norm, float(np.max(np.abs(before - after))))
    worst_power = 0.0
    for _ in range(50):
        a = int(rng.integers(2, 9))
        raw = ag.Tensor(rng.standard_normal((128, 2 * a)) * rng.uniform(0.05, 20))
        p_lin = rng.uniform(1e-3, 10.0)
        out = emnn.power_control(raw, np.full((128, a), p_lin / a))
        total = (out.data[:, :a] ** 2 + out.data[:, a:] ** 2).mean(axis=0).sum()
        worst_power = max(worst_power, abs(total - p_lin) / p_lin)
    report("unit modulus and power conservation",
           worst_norm < 1e-12 and worst_power < 1e-9,
           f"norm drift {worst_norm:.2e} (< 1e-12), "
           f"power error {worst_power:.2e} (< 1e-9)")


def test_channel_statistics():
    lam = wf.C_LIGHT / 28e9
    tx_pos = wf.unit_positions(2, 2, lam / 3)
    rx_pos = wf.unit_positions(2, 2, lam / 3)
    r_tx = ch.spatial_correlation(tx_pos, lam)
    r_rx = ch.spatial_correlation(rx_pos, lam)
    s_tx, s_rx = ch.psd_sqrt(r_tx), ch.psd_sqrt(r_rx)
    rng = np.random.default_rng(3)
    acc = np.zeros((16, 16), dtype=complex)
    draws = 20000
    for _ in range(draws):
        g = s_rx @ ch.draw_iid_rayleigh(4, 4, rng) @ s_tx
        v = g.flatten("F")
        acc += np.outer(v, v.conj())
    want = np.kron(r_tx, r_rx)
    kron_err = np.linalg.norm(acc / draws - want) / np.linalg.norm(want)

    half = ch.spatial_correlation(wf.unit_positions(3, 3, lam / 2), lam)
    diag_exact = np.array_equal(np.diag(half), np.ones(9))
    # lambda/2-spaced neighbours: sinc(1) evaluates to 0 up to float pi
    grid = wf.unit_positions(3, 3, lam / 2)
    dist = np.linalg.norm(grid[:, None] - grid[None, :], axis=2)
    neighbour = np.isclose(dist, lam / 2)
    off_zero = float(np.max(np.abs(half[neighbour])))
    report("channel statistics",
           kron_err < 0.05 and diag_exact and off_zero < 1e-15,
           f"Kronecker covariance error {kron_err:.3f} (< 0.05), diagonal exact, "
           f"half-wavelength entries {off_zero:.1e} (< 1e-15)")


def test_path_loss(mini):
    lam = mini.geometry.wavelength
    worst = 0.0
    for d0, b, d in ((1.0, 3.5, 50.0), (1.0, 2.0, 10.0), (0.5, 4.0, 333.0)):
        cfg = replace(mini, channel=replace(mini.channel, distance=d, reference_distance=d0,
                                            path_loss_exponent=b))
        want = 20.0 * np.log10(4.0 * np.pi * d0 / lam) + 10.0 * b * np.log10(d / d0)
        worst = max(worst, abs(ch.link_loss_db(cfg, 1, 2) - want))
    report("path loss", worst < 1e-9,
           f"worst deviation {worst:.2e} dB (< 1e-9)")


def test_loss_sanity(mini):
    floor = mini.total_bits * np.log(2)
    rng = np.random.default_rng(4)
    model = emnn.Emnn(mini, rng=rng)
    source = ch.ChannelSource(mini)
    realization = source.instantaneous(11)
    block = training.sample_batch(rng, mini)
    logits = model.forward(block.bits, block.power_dbm, realization,
                           ch.receiver_noise(mini, len(block.bits), rng), training=True)
    loss = float(training.bce_loss(block.bits, logits).data)
    _, _, ber_untrained = ev.evaluate(model, realization, 30.0, 10000,
                                      np.random.default_rng(5))
    report("loss sanity",
           abs(loss - floor) / floor < 0.20 and abs(ber_untrained - 0.5) < 0.05,
           f"untrained BCE {loss:.3f} vs {floor:.3f} "
           f"({abs(loss - floor) / floor:.1%} < 20%), "
           f"untrained BER {ber_untrained:.3f} (0.5 +- 0.05)")


def test_training_efficacy(mini, mini_base):
    start = time.time()
    losses = [h[1] for h in mini_base.history]
    smoothed = training.smoothed(losses, 50)
    at50, at500 = smoothed[49], smoothed[-1]
    source = ch.ChannelSource(mini)
    seed = ev.derive_seed(mini.evaluation.seed, 0)
    realization = source.instantaneous(seed)
    untrained = emnn.Emnn(mini, rng=np.random.default_rng(6))
    _, _, ber_untrained = ev.evaluate(untrained, realization, 30.0, 10000,
                                      np.random.default_rng(7))
    [tuned] = training.finetune(mini_base, [realization], [np.random.default_rng(seed)])
    model = emnn.Emnn(mini, params=tuned.params)
    _, _, ber_trained = ev.evaluate(model, realization, 30.0, 10000,
                                    np.random.default_rng(8))
    elapsed = time.time() - start
    report("training efficacy",
           at500 < at50 and ber_trained * 5.0 <= ber_untrained
           and elapsed < 600.0,
           f"smoothed loss {at50:.3f} -> {at500:.3f} (strictly lower), "
           f"BER {ber_trained:.5f} vs untrained {ber_untrained:.3f} "
           f"({ber_untrained / max(ber_trained, 1e-9):.0f}x >= 5x), "
           f"{elapsed:.0f}s (< 600s)")


def test_transfer_learning_acceleration(mini, mini_base):
    source = ch.ChannelSource(mini)
    rseeds = [ev.derive_seed(mini.evaluation.seed, 100 + i) for i in range(5)]
    realizations = [source.instantaneous(rseed) for rseed in rseeds]
    rngs = [np.random.default_rng(7 + i) for i in range(5)]
    model = emnn.Emnn(mini, params=emnn.ParamStore.stack(
        [emnn.init_params(mini, rng) for rng in rngs]))
    scratches = training.fit(model, rngs, mini.training.epochs,
                             lambda epoch: training.lr_schedule(epoch, mini.training),
                             lambda r: realizations[r])
    tunes = training.finetune(mini_base, realizations,
                              [np.random.default_rng(rseed) for rseed in rseeds],
                              epochs=mini.training.epochs)
    ratios = []
    for scratch, tuned in zip(scratches, tunes):
        sm_scratch = training.smoothed([h[1] for h in scratch.history], 50)
        target = sm_scratch[-1]
        needed = next(j + 1 for j, v in enumerate(sm_scratch) if v <= target)
        sm_ft = training.smoothed([h[1] for h in tuned.history], 50)
        crossed = next((j + 1 for j, v in enumerate(sm_ft) if v <= target), 10 ** 9)
        ratios.append(crossed / needed)
    median = float(np.median(ratios))
    report("transfer-learning acceleration", median <= 0.25,
           f"median crossing-epoch ratio {median:.3f} over 5 seeds (<= 0.25)")


def test_stack_benefit_over_conventional():
    stacked = protocol_arm("mini")
    conventional = protocol_arm("L0")
    power = 30.0
    report("stack benefit over conventional",
           stacked[power] < conventional[power],
           f"median BER at {power:.0f} dBm: with stacks {stacked[power]:.4f} < "
           f"no stacks {conventional[power]:.4f} (5 seeds x 5 realizations)")


def test_layer_count_trend():
    one = protocol_arm("L1")
    three = protocol_arm("L3")
    power = 30.0
    report("layer count trend", three[power] <= one[power],
           f"median BER at {power:.0f} dBm: L=K=3 {three[power]:.4f} <= "
           f"L=K=1 {one[power]:.4f}")


def test_bits_per_symbol_trend():
    small = protocol_arm("mini")
    large = protocol_arm("bits88")
    ok = all(small[p] <= large[p] for p in small)
    detail = ", ".join(f"{p:.0f}dBm {small[p]:.4f}<={large[p]:.4f}"
                       for p in sorted(small))
    report("bits per symbol trend", ok, f"4+4 vs 8+8 median BER: {detail}")


def test_determinism(mini, tmp_path):
    quick = replace(
        mini,
        training=replace(mini.training, epochs=40, restarts=1, batch_size=64,
                         finetune_epochs=5),
        evaluation=replace(mini.evaluation, monte_carlo=2, test_scale=500,
                           power_sweep_dbm=(30.0,), eval_batch=256))
    rows = ev.protocol([quick]).rows
    base = training.train_base(quick)  # trained again: rows replay on a fresh base
    replayed = [ev.rerun_row(base, row) for row in rows]
    rows_match = all(a.errors == b.errors and a.bits == b.bits and a.ber == b.ber
                     for a, b in zip(rows, replayed))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    training.save_checkpoint(base, p1)
    training.save_checkpoint(training.load_checkpoint(p1), p2)
    bytes_match = p1.read_bytes() == p2.read_bytes()
    report("determinism", rows_match and bytes_match,
           f"{len(rows)} report rows replayed bit-identically, "
           f"checkpoint round-trip byte-identical: {bytes_match}")
