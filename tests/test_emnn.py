import math

import numpy as np
import pytest

import simfd.autograd as ag
import simfd.channel as ch
import simfd.emnn as emnn
import simfd.training as training
import simfd.wavefield as wf
from paired_real import batch_first_forward
from simfd.config import miniature_config, reference_config


@pytest.fixture(scope="module")
def mini():
    return miniature_config()


@pytest.fixture(scope="module")
def mini_model(mini):
    return emnn.Emnn(mini, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def mini_realization(mini):
    return ch.ChannelSource(mini).instantaneous(7)


def table_shapes(cfg, q):
    """{name without the terminal prefix: shape} of terminal q's table rows."""
    return {name.split(".", 1)[1]: shape
            for name, shape, _, _ in emnn.param_table(cfg) if name.startswith(f"t{q}.")}


class TestParamTable:
    def test_reference_widths_terminal_one(self):
        cfg = reference_config()
        shapes = table_shapes(cfg, 1)
        # stream 1: 12 bits, 16 TX antennas, 81-unit layers
        assert [shapes[f"tx.w{i}"] for i in range(3)] == [(12, 12), (12, 12), (12, 32)]
        assert shapes["theta1"] == (81,)
        # the RX stack's last layer faces the channel
        assert cfg.geometry.terminal(1).channel_grids[1] == (9, 9)
        assert shapes["rx.w0"][0] == 32
        # stream 1 is decoded at terminal 2: 12-wide head there
        other = table_shapes(cfg, 2)
        assert [other["rx.b0"], other["rx.b1"]] == [(12,), (12,)]
        assert other["rx.w1"] == (12, 12)

    def test_reference_widths_terminal_two(self):
        shapes = table_shapes(reference_config(), 2)
        assert [shapes[f"tx.b{i}"] for i in range(3)] == [(8,), (8,), (18,)]
        # stream 2 is decoded at terminal 1
        other = table_shapes(reference_config(), 1)
        assert [other["rx.b0"], other["rx.b1"]] == [(8,), (8,)]
        assert other["rx_bn2.gamma"] == (8,)

    def test_no_sim_baseline_degeneracy(self):
        from simfd.config import with_layers
        cfg = with_layers(reference_config(), 0)
        assert not any(".theta" in name or ".xi" in name
                       for name, *_ in emnn.param_table(cfg))
        # with no stacks the channel lands on the antennas directly:
        # A_2^rx x A_1^tx for the link 1 -> 2
        real = ch.ChannelSource(cfg).instantaneous(0)
        assert real.link(1, 2).shape == (9, 16)
        assert real.link(1, 1).shape == (16, 16)
        emnn.Emnn(cfg, rng=np.random.default_rng(0)).check_realization(real)

    def test_param_table_matches_miniature(self, mini):
        shapes = table_shapes(mini, 1)
        assert shapes["tx.w0"] == (4, 4)                 # bit input
        assert [shapes[f"tx.b{i}"] for i in range(3)] == [(4,), (4,), (8,)]
        assert shapes["theta1"] == (16,)
        assert shapes["rx_bn2.beta"] == (4,)              # the logits' width

    def test_model_arch_reads_the_geometry(self):
        # the per-terminal antenna counts callers read as `model.arch`
        model = emnn.Emnn(reference_config(), rng=np.random.default_rng(0))
        assert model.arch.rx_antennas == (16, 9)
        assert model.arch.tx_antennas == (16, 9)

    def test_layers_group_the_tables_tensors(self, mini):
        params = emnn.init_params(mini, np.random.default_rng(0))
        grouped = []
        for q in (1, 2):
            for w, b in params.layers(q, "tx") + params.layers(q, "rx"):
                assert w.name.replace(".w", ".b") == b.name
                grouped += [w, b]
            for gamma, beta, (mean, var) in params.layers(q, "bn"):
                bn = gamma.name.removesuffix(".gamma")
                assert beta.name == bn + ".beta"
                assert params.running[bn][0] is mean and params.running[bn][1] is var
                grouped += [gamma, beta]
            grouped += params.layers(q, "theta") + params.layers(q, "xi")
        # the very Tensor objects trainables() returns, each exactly once
        assert sorted(map(id, grouped)) == sorted(map(id, params.trainables()))


def init_digest(cfg):
    """sha256 over (name, <f8 data) of every tensor in table order, then every
    batchnorm state's name, running mean and running var, of a seed-0 init;
    with the tensor and scalar counts."""
    import hashlib
    params = emnn.init_params(cfg, np.random.default_rng(0))
    h = hashlib.sha256()
    for name, t in params.tensors.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data, "<f8").tobytes())
    for name, _, _, _ in params.table:
        if name.endswith(".gamma"):
            bn = name.removesuffix(".gamma")
            h.update(bn.encode())
            for stat in params.running[bn]:
                h.update(np.ascontiguousarray(stat, "<f8").tobytes())
    tensors = params.trainables()
    return h.hexdigest(), len(tensors), sum(t.size for t in tensors)


class TestParamStore:
    # the rng draw order of init_params: tx w0..w2, theta, xi, rx w0..w1 per
    # terminal. Only Generator.uniform and constants are involved, so the
    # digests do not depend on the BLAS build
    INIT_DIGESTS = {
        "mini": ("0babbd1cd8030e4400a81fb2eca36b028770780333adb66534e138f1ad75485f",
                 40, 464),
        "reference": ("03d7950c1d3ebf3b3331dcf90d80656b0d7be050f14db7a45ec5edfbc4fa1e58",
                      44, 2906),
        "mini-power": ("1f8763ef4c31707e6b7674c7670fc4cc329d6172a5966cc9145af19f44296fad",
                       41, 472),
    }

    @pytest.mark.parametrize("case", sorted(INIT_DIGESTS))
    def test_init_draws_pinned(self, case):
        from dataclasses import replace
        cfg = {"mini": miniature_config(), "reference": reference_config(),
               "mini-power": replace(miniature_config(), trainable_power=True)}[case]
        assert init_digest(cfg) == self.INIT_DIGESTS[case]

    def test_tensors_view_one_buffer_in_table_order(self, mini):
        params = emnn.init_params(mini, np.random.default_rng(2))
        params.flat[:] = np.arange(params.flat.size)
        offset = 0
        for name, shape, _, _ in params.table:
            size = math.prod(shape)
            assert np.shares_memory(params[name].data, params.flat)
            assert np.array_equal(params[name].data,
                                  np.arange(offset, offset + size).reshape(shape))
            offset += size
        assert offset == params.flat.size

    def test_copy_is_independent(self, mini_model):
        params = mini_model.params
        before = [params.flat.copy(), params.stats.copy(), params.m.copy(),
                  params.v.copy()]
        step = params.step
        clone = params.copy()
        for buffer in (clone.flat, clone.stats, clone.m, clone.v):
            buffer[:] = -1.0
        clone.step += 1
        for buffer, then in zip((params.flat, params.stats, params.m, params.v), before):
            assert np.array_equal(buffer, then)
        assert params.step == step
        assert all(np.shares_memory(t.data, clone.flat) for t in clone.trainables())


class TestTxDnn:
    def test_zero_weights_zero_output(self, mini):
        params = emnn.init_params(mini, np.random.default_rng(1))
        for i in range(3):
            params[f"t1.tx.w{i}"].data[:] = 0.0
            params[f"t1.tx.b{i}"].data[:] = 0.0
        out = emnn.tx_dnn_forward(np.ones((3, 4)), params, 1)
        assert np.array_equal(out.data, np.zeros((3, 8)))

    def test_widths(self, mini_model):
        out = emnn.tx_dnn_forward(np.zeros((5, 4)), mini_model.params, 1)
        assert out.data.shape == (5, 8)

    def test_finite_for_random_inputs(self, mini_model):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, (16, 4)).astype(float)
        out = emnn.tx_dnn_forward(bits, mini_model.params, 1)
        assert np.isfinite(out.data).all()


class TestPowerControl:
    def test_unit_power_fixed_point(self):
        # a stream that already has unit batch power keeps its scale under
        # a per-antenna allocation of exactly 1
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((512, 6))
        a = 3
        power = (raw[:, :a] ** 2 + raw[:, a:] ** 2).mean(axis=0)
        raw = raw / np.sqrt(np.concatenate([power, power]))
        out = emnn.power_control(ag.Tensor(raw), np.ones((512, a)))
        assert np.allclose(out.data, raw, atol=1e-9)

    def test_total_power_identity(self):
        # batch-mean total transmit power equals the budget to 1e-9 relative
        rng = np.random.default_rng(4)
        for trial in range(5):
            raw = ag.Tensor(rng.standard_normal((256, 8)) * rng.uniform(0.1, 10))
            p_lin = rng.uniform(0.01, 10.0)
            alloc = np.full((256, 4), p_lin / 4.0)
            out = emnn.power_control(raw, alloc)
            total = (out.data[:, :4] ** 2 + out.data[:, 4:] ** 2).mean(axis=0).sum()
            assert abs(total - p_lin) / p_lin < 1e-9

    def test_unit_covariance_diagonal(self):
        # E{x x^H} diagonal equals one within 3% on a large batch
        rng = np.random.default_rng(5)
        raw = ag.Tensor(np.abs(rng.standard_normal((10000, 8))) * 2.0)
        out = emnn.power_control(raw, np.ones((10000, 4)))
        diag = (out.data[:, :4] ** 2 + out.data[:, 4:] ** 2).mean(axis=0)
        assert np.max(np.abs(diag - 1.0)) < 0.03

    def test_dead_stream_warns(self):
        raw = np.ones((16, 4))
        raw[:, 1] = 0.0
        raw[:, 3] = 0.0  # complex stream 1 identically zero
        with pytest.warns(RuntimeWarning):
            emnn.power_control(ag.Tensor(raw), np.ones((16, 2)))

    def test_equal_split_allocation(self, mini_model):
        power_dbm = np.full(10, 30.0)
        p1, p2 = emnn.allocate_power(power_dbm, mini_model.config.geometry,
                                     mini_model.params)
        assert np.allclose(p1.data.sum(axis=1) + p2.data.sum(axis=1), 1.0)
        assert np.allclose(p1.data, p1.data[0, 0])

    def test_trainable_allocation_sums_to_budget(self, mini):
        from dataclasses import replace
        cfg = replace(mini, trainable_power=True)
        model = emnn.Emnn(cfg, rng=np.random.default_rng(6))
        model.params.power_logits.data[:] = np.random.default_rng(7).standard_normal(8)
        p1, p2 = emnn.allocate_power(np.full(4, 10.0), cfg.geometry, model.params)
        total = p1.data.sum(axis=1) + p2.data.sum(axis=1)
        assert np.allclose(total, ch.dbm_to_watt(10.0))


def complex_rows(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSimForward:
    def test_single_layer_zero_phase_is_first_factor(self, mini):
        v1 = wf.stack_factors(mini.geometry, *mini.geometry.terminal(1).tx_stack)[0]
        z = complex_rows(np.random.default_rng(8), (5, 4))
        out = emnn.tx_sim_forward(ag.Tensor(z), [v1], [ag.Tensor(np.zeros(16))])
        assert np.allclose(out.data, z @ v1.T, atol=1e-12)

    def test_layerwise_equals_dense_operator(self, mini_model):
        # batch rows and the identity (the composed operator) agree with the
        # dense product Phi_2 V_2 Phi_1 V_1
        rng = np.random.default_rng(9)
        v1, v2 = mini_model.tx_factors[0]
        for trial in range(10):
            thetas = [rng.uniform(0, 2 * np.pi, 16) for _ in range(2)]
            dense = np.exp(1j * thetas[1])[:, None] * (
                v2 @ (np.exp(1j * thetas[0])[:, None] * v1))
            z = complex_rows(rng, (6, 4))
            for rows, want in ((z, z @ dense.T), (np.eye(4, dtype=complex), dense.T)):
                out = emnn.tx_sim_forward(ag.Tensor(rows), mini_model.tx_factors[0],
                                          [ag.Tensor(t) for t in thetas])
                err = np.linalg.norm(out.data - want) / np.linalg.norm(want)
                assert err < 1e-10

    def test_rx_layerwise_equals_dense_operator(self, mini_model):
        rng = np.random.default_rng(10)
        # the RX stage runs the outward factors backwards: R = V_1^T Psi_1 V_2^T Psi_2
        v1, v2 = mini_model.rx_factors[0]
        xis = [rng.uniform(0, 2 * np.pi, 16) for _ in range(2)]
        dense = v1.T @ (np.exp(1j * xis[0])[:, None] * (v2.T @ np.diag(np.exp(1j * xis[1]))))
        z = complex_rows(rng, (6, 16))
        out = emnn.rx_sim_forward(ag.Tensor(z), mini_model.rx_factors[0],
                                  [ag.Tensor(t) for t in xis])
        want = z @ dense.T
        err = np.linalg.norm(out.data - want) / np.linalg.norm(want)
        assert err < 1e-10

    def test_phase_layer_norm_preserving_per_layer(self, mini_model):
        rng = np.random.default_rng(11)
        z = complex_rows(rng, (4, 16))
        y = ag.phase_shift(ag.Tensor(z), ag.Tensor(rng.uniform(0, 2 * np.pi, 16)))
        assert np.max(np.abs((np.abs(z) ** 2).sum(axis=1)
                             - (np.abs(y.data) ** 2).sum(axis=1))) < 1e-12


class TestChannelLayer:
    """channel_layer(T1^T, T2^T) gives receiver q's [T1^T G_1q^T ; T2^T G_2q^T]."""

    def test_pure_cross_when_si_zero(self, mini_realization):
        rng = np.random.default_rng(12)
        links = dict(mini_realization.links)
        links[(1, 1)] = np.zeros((16, 16), complex)
        links[(2, 2)] = np.zeros((16, 16), complex)
        real = ch.ChannelRealization(links)
        t1 = ag.Tensor(complex_rows(rng, (3, 16)))
        t2 = ag.Tensor(np.zeros((2, 16), complex))
        f1, f2 = emnn.channel_layer(t1, t2, real)
        assert np.array_equal(f1.data, np.zeros((5, 16)))
        assert np.allclose(f2.data[:3], t1.data @ mini_realization.link(1, 2).T)
        assert np.array_equal(f2.data[3:], np.zeros((2, 16)))

    def test_pure_self_interference(self, mini_realization):
        rng = np.random.default_rng(13)
        t1 = ag.Tensor(complex_rows(rng, (3, 16)))
        t2 = ag.Tensor(np.zeros((2, 16), complex))
        f1, _ = emnn.channel_layer(t1, t2, mini_realization)
        assert np.allclose(f1.data[:3], t1.data @ mini_realization.link(1, 1).T)

    def test_random_case_against_complex_oracle(self, mini_realization):
        # a joint signal (z1, z2) through the stacked operator equals the
        # superposition G_1q z1 + G_2q z2 at both receivers
        rng = np.random.default_rng(14)
        t1 = ag.Tensor(complex_rows(rng, (4, 16)))
        t2 = ag.Tensor(complex_rows(rng, (3, 16)))
        f1, f2 = emnn.channel_layer(t1, t2, mini_realization)
        z1, z2 = complex_rows(rng, (5, 4)), complex_rows(rng, (5, 3))
        joint = np.concatenate([z1, z2], axis=1)
        s1, s2 = z1 @ t1.data, z2 @ t2.data
        link = mini_realization.link
        assert np.allclose(joint @ f1.data, s1 @ link(1, 1).T + s2 @ link(2, 1).T)
        assert np.allclose(joint @ f2.data, s1 @ link(1, 2).T + s2 @ link(2, 2).T)


class TestRxDnn:
    def test_zero_last_scale_gives_zero_logits(self, mini):
        params = emnn.init_params(mini, np.random.default_rng(16))
        params["t1.rx_bn2.gamma"].data[:] = 0.0
        params["t1.rx_bn2.beta"].data[:] = 0.0
        y = ag.Tensor(np.random.default_rng(17).standard_normal((8, 8)))
        out = emnn.rx_dnn_forward(y, params, 1, training=True)
        assert np.all(out.data == 0.0)

    def test_output_width_is_decoded_stream(self, mini_model):
        out = emnn.rx_dnn_forward(ag.Tensor(np.zeros((4, 8))),
                                  mini_model.params, 1, training=False)
        assert out.data.shape == (4, 4)


class TestHardDecision:
    def test_threshold(self):
        assert np.array_equal(emnn.hard_decision(np.array([-0.01, 0.01])), [0, 1])

    def test_tie_maps_to_one(self):
        assert emnn.hard_decision(np.array([0.0, -0.0])).tolist() == [1, 1]

    def test_vector_elementwise(self):
        logits = np.array([[-2.2, 2.2], [0.4, -0.4]])
        assert np.array_equal(emnn.hard_decision(logits), [[0, 1], [1, 0]])


class TestForwardFull:
    def test_output_shape_and_alignment(self, mini_model, mini_realization):
        rng = np.random.default_rng(18)
        bits = rng.integers(0, 2, (8, 8)).astype(float)
        logits = mini_model.forward(bits, np.full(8, 20.0), mini_realization,
                                    ch.receiver_noise(mini_model.config, 8, rng))
        assert logits.data.shape == (8, 8)

    def test_deterministic_given_state(self, mini, mini_realization):
        def once():
            rng = np.random.default_rng(19)
            model = emnn.Emnn(mini, rng=rng)
            bits = rng.integers(0, 2, (8, 8)).astype(float)
            return model.forward(bits, np.full(8, 20.0), mini_realization,
                                 ch.receiver_noise(mini, 8, rng)).data
        assert np.array_equal(once(), once())

    def test_realization_shape_mismatch_raises(self, mini, mini_model):
        from simfd.config import with_unit_grid
        other = with_unit_grid(mini, (3, 3))
        bad = ch.ChannelSource(other).instantaneous(0)
        with pytest.raises(emnn.ArchitectureError):
            mini_model.forward(np.zeros((4, 8)), np.full(4, 10.0), bad,
                               ch.receiver_noise(mini, 4, np.random.default_rng(0)))

    def test_toy_identity_channel_trains_to_exact_recovery(self):
        # noiseless, SI-free 2+2-bit toy on scaled-identity cross links;
        # trained to convergence (restart selection by training loss, the
        # system's standard remedy for bad inits) decisions must round to
        # the transmitted bits exactly
        from dataclasses import replace
        from simfd.config import with_bits
        cfg = with_bits(miniature_config(seed=3), (2, 2))
        cfg = replace(cfg, training=replace(cfg.training, restarts=1,
                                            power_min_dbm=30.0))
        eye = np.eye(16) * 1e-3
        links = {(1, 1): np.zeros((16, 16), complex),
                 (2, 2): np.zeros((16, 16), complex),
                 (1, 2): eye.astype(complex), (2, 1): eye.astype(complex)}
        real = ch.ChannelRealization(links)

        # the three seeds train as one stacked store, each on its own batches
        seeds = (20, 21, 22)
        model = emnn.Emnn(cfg, params=emnn.ParamStore.stack(
            [emnn.init_params(cfg, np.random.default_rng(seed)) for seed in seeds]))
        opt = training.AdamW(model.params, weight_decay=cfg.training.weight_decay)
        rngs = [np.random.default_rng(seed + 1000) for seed in seeds]
        reals = ch.ChannelRealization.stack([real] * len(seeds))
        noiseless = [np.zeros((len(seeds), cfg.training.batch_size, 4), complex)] * 2
        for epoch in range(600):
            blocks = [training.sample_batch(rng, cfg) for rng in rngs]
            bits = np.stack([block.bits for block in blocks])
            logits = model.forward(bits, np.stack([block.power_dbm for block in blocks]),
                                   reals, noiseless)
            losses = training.bce_loss(bits, logits)
            ag.backward(ag.reduce_sum(losses))
            opt.step(0.01)
        # the lowest final loss, the earliest seed on a tie
        best_model = emnn.Emnn(cfg, params=model.params.run(int(np.argmin(losses.data))))
        rng = np.random.default_rng(99)
        bits = rng.integers(0, 2, (512, 4)).astype(float)
        logits = best_model.forward(bits, np.full(512, 30.0), real,
                                    [np.zeros((512, 4), complex)] * 2, training=False)
        assert np.array_equal(emnn.hard_decision(logits), bits.astype(np.int64))


def lopsided_config():
    """Unequal antenna counts and units, L != K, trainable power split."""
    from dataclasses import replace
    from simfd.config import TerminalLayout
    mini = miniature_config()
    terminals = (TerminalLayout((2, 2), (1, 2), (3, 3), (4, 4), 2, 1),
                 TerminalLayout((1, 3), (2, 1), (2, 2), (3, 3), 1, 3))
    geom = replace(mini.geometry, terminals=terminals)
    return replace(mini, geometry=geom, n_bits=(5, 3),
                   trainable_power=True)


def operator_cases():
    from simfd.evaluation import baseline_conventional
    return {"reference": reference_config(), "mini": miniature_config(),
            "lopsided": lopsided_config(),
            "conventional": baseline_conventional(miniature_config())}


class TestOperatorFirst:
    @pytest.mark.parametrize("train_mode", [True, False])
    @pytest.mark.parametrize("case", ["reference", "mini", "lopsided",
                                      "conventional"])
    def test_matches_batch_first_oracle(self, case, train_mode):
        cfg = operator_cases()[case]
        rng = np.random.default_rng(40)
        params = emnn.Emnn(cfg, rng=rng).params
        real = ch.ChannelSource(cfg).instantaneous(41)
        batch = 24
        bits = rng.integers(0, 2, (batch, cfg.total_bits)).astype(float)
        power = rng.uniform(-30.0, -10.0, batch)
        noise_var = ch.dbm_to_watt(cfg.channel.noise_dbm)
        noise = [ch.draw_noise(noise_var, (batch, a), rng)
                 for a in cfg.geometry.rx_antennas]

        results = []
        for oracle in (False, True):
            model = emnn.Emnn(cfg, params=params.copy())
            if oracle:
                logits = batch_first_forward(model, bits, power, real, train_mode,
                                             noise)
            else:
                logits = model.forward(bits, power, real, training=train_mode,
                                       noise_override=noise)
            ag.backward(training.bce_loss(bits, logits))
            grads = {k: t.grad.copy()
                     for k, t in model.params.tensors.items()}
            results.append((logits.data, grads))
        (logits, grads), (want, want_grads) = results

        assert np.linalg.norm(logits - want) <= 1e-12 * np.linalg.norm(want)
        assert grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            scale = max(np.linalg.norm(g), 1e-300)
            assert np.linalg.norm(grads[name] - g) <= 1e-12 * scale, name

    @staticmethod
    def stage_shapes(model, realization, batch, monkeypatch):
        """(op, shape) of every node built inside the stack and channel
        stages of one training step."""
        outputs = []
        for name in ("tx_sim_forward", "channel_layer", "rx_sim_forward"):
            def record(*args, fn=getattr(emnn, name)):
                out = fn(*args)
                outputs.extend(out if isinstance(out, tuple) else (out,))
                return out
            monkeypatch.setattr(emnn, name, record)
        rng = np.random.default_rng(43)
        bits = rng.integers(0, 2, (batch, model.config.total_bits)).astype(float)
        logits = model.forward(bits, np.full(batch, 25.0), realization,
                               ch.receiver_noise(model.config, batch, rng))
        ag.backward(training.bce_loss(bits, logits))
        monkeypatch.undo()
        seen, shapes = set(), []
        for out in outputs:
            for node in ag.topo_order(out):
                if node.op is not None and id(node) not in seen:
                    seen.add(id(node))
                    shapes.append((node.op, node.data.shape))
        return shapes

    @pytest.mark.parametrize("batch", [4, 512])
    def test_stack_work_independent_of_batch(self, mini, mini_realization, batch,
                                             monkeypatch):
        model = emnn.Emnn(mini, rng=np.random.default_rng(42))
        shapes = self.stage_shapes(model, mini_realization, batch, monkeypatch)
        # 2 terminals x (2 tx + 2 rx layers) x (matmul + phase), plus per
        # receiver 2 link matmuls and their concat
        assert len(shapes) == 2 * 4 * 2 + 2 * 3
        assert shapes == self.stage_shapes(model, mini_realization, 2, monkeypatch)
        assert max(shape[0] for _, shape in shapes) == sum(mini.geometry.tx_antennas)


class TestRunAxis:
    @pytest.mark.parametrize("train_mode", [True, False])
    @pytest.mark.parametrize("case", ["reference", "mini", "lopsided",
                                      "conventional"])
    def test_stacked_forward_equals_each_run(self, case, train_mode):
        cfg = operator_cases()[case]
        rng = np.random.default_rng(41)
        runs = [emnn.init_params(cfg, rng) for _ in range(3)]
        for params in runs:
            # distinct running statistics, which eval mode reads
            params.stats[...] = rng.uniform(0.5, 2.0, params.stats.shape)
        source = ch.ChannelSource(cfg)
        realizations = [source.instantaneous(i) for i in range(3)]
        batch = 16
        bits = rng.integers(0, 2, (3, batch, cfg.total_bits)).astype(float)
        power = rng.uniform(20.0, 30.0, (3, batch))
        noise = [ch.draw_noise(ch.dbm_to_watt(cfg.channel.noise_dbm), (3, batch, n), rng)
                 for n in cfg.geometry.rx_antennas]
        stacked = emnn.Emnn(cfg, params=emnn.ParamStore.stack(runs))
        logits = stacked.forward(bits, power, ch.ChannelRealization.stack(realizations),
                                 training=train_mode, noise_override=noise)
        ag.backward(ag.reduce_sum(training.bce_loss(bits, logits)))
        grads = stacked.params.flat_grad()
        for r, params in enumerate(runs):
            one = emnn.Emnn(cfg, params=params).forward(
                bits[r], power[r], realizations[r], training=train_mode,
                noise_override=[n[r] for n in noise])
            ag.backward(training.bce_loss(bits[r], one))
            assert np.array_equal(logits.data[r], one.data)
            assert np.array_equal(stacked.params.stats[r], params.stats)
            assert np.array_equal(grads[r], params.flat_grad())

    def test_run_copies_one_run_out(self, mini):
        rng = np.random.default_rng(42)
        runs = [emnn.init_params(mini, rng) for _ in range(2)]
        runs[1].step = 7
        stacked = emnn.ParamStore.stack(runs)
        for r, params in enumerate(runs):
            out = stacked.run(r)
            for buffer in ("flat", "stats", "m", "v"):
                assert np.array_equal(getattr(out, buffer), getattr(params, buffer))
            assert out.step == params.step and type(out.step) is int
            assert not np.shares_memory(out.flat, stacked.flat)


class TestGraphContract:
    """The loss graph's node contract: the benchmark's gradient check reads
    each dense layer's "relu" node, and the CLI's smoothness check finds
    the stream normalization by its op name."""

    def mini_loss(self, mini, mini_realization, params):
        rng = np.random.default_rng(43)
        bits = rng.integers(0, 2, (32, mini.total_bits)).astype(float)
        model = emnn.Emnn(mini, params=params)
        logits = model.forward(bits, np.full(32, 20.0), mini_realization,
                               ch.receiver_noise(mini, 32, rng))
        return training.bce_loss(bits, logits)

    def test_one_relu_node_per_dense_layer(self, mini, mini_model, mini_realization):
        loss = self.mini_loss(mini, mini_realization, mini_model.params.copy())
        relus = [node for node in ag.topo_order(loss) if node.op == "relu"]
        assert len(relus) == 10
        for node in relus:
            x, w, b = (p.data for p in node._parents)
            assert np.array_equal(node.data > 0, x @ w + b > 0)

    def test_smoothness_check_finds_a_dead_stream(self, mini, mini_model, mini_realization):
        from simfd import cli
        params = mini_model.params.copy()
        assert cli._point_is_smooth(self.mini_loss(mini, mini_realization, params),
                                    kink_margin=0.0, power_floor=1e-6)
        # terminal 1's first antenna: re and im pre-activations far below the kink
        antennas = mini.geometry.terminal(1).tx_antennas
        for column in (0, antennas):
            params["t1.tx.w2"].data[:, column] = 0.0
            params["t1.tx.b2"].data[column] = -1.0
        with pytest.warns(RuntimeWarning, match="all-zero antenna stream"):
            loss = self.mini_loss(mini, mini_realization, params)
        # kink margin 0: only the stream normalization can reject the point
        assert not cli._point_is_smooth(loss, kink_margin=0.0, power_floor=1e-6)


class TestPhaseExport:
    def test_table_format_and_range(self, mini_model):
        text = emnn.export_phase_table(mini_model.params)
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        # 2 terminals x (2 tx + 2 rx layers) x 16 units
        assert len(lines) - 1 == 2 * (2 + 2) * 16
        for line in lines[1:]:
            q, side, layer, unit, phase = line.split()
            assert side in ("tx", "rx")
            assert 0.0 <= float(phase) < 2 * np.pi

    def test_table_wraps_negative_phases(self, mini_model):
        params = mini_model.params.copy()
        params["t1.theta1"].data[0] = -1.0
        line = emnn.export_phase_table(params).splitlines()[1]
        assert line.startswith("1 tx 1 0 ")
        assert float(line.split()[-1]) == pytest.approx(2 * np.pi - 1.0, abs=1e-12)
