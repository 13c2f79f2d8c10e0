import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import simfd.autograd as ag
import simfd.emnn as emnn
import simfd.training as training
from dataclasses import replace
from simfd.channel import ChannelSource
from simfd.config import miniature_config


@pytest.fixture(scope="module")
def quick_config():
    cfg = miniature_config(seed=11)
    return replace(cfg, training=replace(cfg.training, epochs=40, restarts=1,
                                         batch_size=64))


@pytest.fixture(scope="module")
def quick_checkpoint(quick_config):
    return training.train_base(quick_config)


class TestBceLoss:
    def test_perfect_prediction_near_zero(self):
        bits = np.array([[1.0, 0.0, 1.0]])
        soft = ag.Tensor(np.array([[1.0, 0.0, 1.0]]))
        with pytest.warns(RuntimeWarning):
            loss = training.bce_loss(bits, soft)
        assert 0.0 <= float(loss.data) <= 3 * 1e-10

    def test_maximum_entropy_prediction(self):
        bits = np.random.default_rng(0).integers(0, 2, (32, 8)).astype(float)
        soft = ag.Tensor(np.full((32, 8), 0.5))
        loss = training.bce_loss(bits, soft)
        assert float(loss.data) == pytest.approx(8 * np.log(2), rel=1e-12)

    def test_against_direct_scalar_evaluation(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, (5, 3)).astype(float)
        probs = rng.uniform(0.05, 0.95, (5, 3))
        loss = training.bce_loss(bits, ag.Tensor(probs))
        want = -np.mean(np.sum(bits * np.log(probs)
                               + (1 - bits) * np.log(1 - probs), axis=1)) * 1
        # mean over batch of bitwise sums
        want = -(bits * np.log(probs) + (1 - bits) * np.log(1 - probs)).sum() / 5
        assert float(loss.data) == pytest.approx(want, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            bits = rng.integers(0, 2, (4, 6)).astype(float)
            soft = ag.Tensor(rng.uniform(0.01, 0.99, (4, 6)))
            assert float(training.bce_loss(bits, soft).data) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ag.GraphError):
            training.bce_loss(np.zeros((2, 3)), ag.Tensor(np.full((2, 4), 0.5)))


class TestXavierInit:
    """init_params draws every weight matrix from U(-l, l), l = sqrt(6 / (in + out))."""

    def test_bounds(self):
        from simfd.config import reference_config
        params = emnn.init_params(reference_config(), np.random.default_rng(3))
        weights = [params[name] for name, _, _, init in params.table
                   if init == "xavier"]
        assert len(weights) == 2 * (3 + 2)
        for w in weights:
            fan_in, fan_out = w.data.shape
            assert np.all(np.abs(w.data) <= np.sqrt(6.0 / (fan_in + fan_out)))

    def test_empirical_variance(self):
        # a 200-bit, 250-antenna terminal: its last TX weight is 200 x 500
        from simfd.config import GeometryConfig, SystemConfig, TerminalLayout
        big = TerminalLayout((250, 1), (1, 1), (1, 1), (1, 1), 0, 0)
        small = TerminalLayout((1, 1), (1, 1), (1, 1), (1, 1), 0, 0)
        cfg = SystemConfig(n_bits=(200, 1),
                           geometry=GeometryConfig(28e9, terminals=(big, small)))
        w = emnn.init_params(cfg, np.random.default_rng(4))["t1.tx.w2"]
        assert w.data.shape == (200, 500)
        want = 2.0 / (200 + 500)
        assert abs(w.data.var() - want) / want < 0.05

    def test_phase_vectors_uniform_range(self, quick_config):
        params = emnn.init_params(quick_config, np.random.default_rng(6))
        phases = [params.layers(q, stack) for q in (1, 2) for stack in ("theta", "xi")]
        assert [len(p) for p in phases] == [2, 2, 2, 2]
        for th in sum(phases, []):
            assert np.all((th.data >= 0) & (th.data < 2 * np.pi))


def store(*rows):
    """A ParamStore over (name, value, decay) rows, holding each value."""
    params = emnn.ParamStore([(name, np.shape(value), decay, 0.0)
                              for name, value, decay in rows])
    for name, value, _ in rows:
        params[name].data[...] = value
    return params


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = store(("p", [1.0, -2.0], False))
        p = params["p"]
        p.grad = np.zeros(2)
        opt = training.AdamW(params, weight_decay=0.0)
        before = p.data.copy()
        opt.step(0.1)
        assert np.array_equal(p.data, before)

    def test_single_scalar_hand_computation(self):
        # one step from zero moments: m_hat = g, v_hat = g^2,
        # update = g / (|g| + eps) + wd * theta0
        theta0, g, lr, wd = 0.7, 0.3, 0.01, 0.1
        params = store(("p", [theta0], True))
        p = params["p"]
        p.grad = np.array([g])
        opt = training.AdamW(params, weight_decay=wd)
        opt.step(lr)
        want = theta0 - lr * (g / (abs(g) + 1e-8) + wd * theta0)
        assert p.data[0] == pytest.approx(want, rel=1e-12)

    def test_phases_excluded_from_decay(self):
        params = store(("theta", [1.0], False))
        theta = params["theta"]
        theta.grad = np.zeros(1)
        opt = training.AdamW(params, weight_decay=0.5)
        opt.step(0.1)
        assert theta.data[0] == 1.0

    def test_non_finite_gradient_aborts(self):
        params = store(("p", [1.0], False))
        params["p"].grad = np.array([np.nan])
        opt = training.AdamW(params)
        with pytest.raises(training.TrainingDiverged):
            opt.step(0.1)

    def test_fused_step_matches_per_tensor_reference(self):
        rng = np.random.default_rng(12)
        shapes = [(3, 2), (4,), (2, 2), (5,), (1, 3)]
        decay = [True, False, True, False, False]
        params = store(*[(f"p{i}", rng.standard_normal(shape), d)
                         for i, (shape, d) in enumerate(zip(shapes, decay))])
        tensors = params.trainables()
        reference = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
                     for p in tensors]
        opt = training.AdamW(params, weight_decay=0.05)
        for step in range(1, 21):
            lr = 0.01 * 0.9 ** step
            for i, p in enumerate(tensors):
                p.grad = None if i == 1 else rng.standard_normal(p.shape)
            opt.step(lr)
            assert params.step == step
            m, v = params.views(params.m), params.views(params.v)
            for p, d, (data, ref_m, ref_v) in zip(tensors, decay, reference):
                grad = np.zeros(p.shape) if p.grad is None else p.grad
                training.adamw_step(data, grad, ref_m, ref_v, step, lr,
                                    weight_decay=0.05 if d else 0.0)
                assert np.array_equal(p.data, data)
                assert np.array_equal(m[p.name], ref_m)
                assert np.array_equal(v[p.name], ref_v)
        assert all(np.shares_memory(p.data, params.flat) for p in tensors)

    def test_non_finite_gradient_names_the_tensor(self):
        # the decayed tensor a precedes b in the buffer; neither may move
        params = store(("a", np.ones(2), True), ("b", np.ones(3), False))
        params["a"].grad = np.ones(2)
        params["b"].grad = np.array([0.0, np.inf, 0.0])
        opt = training.AdamW(params)
        before = [params.flat.copy(), params.m.copy(), params.v.copy()]
        with pytest.raises(training.TrainingDiverged, match="non-finite gradient in b"):
            opt.step(0.1)
        for buffer, then in zip((params.flat, params.m, params.v), before):
            assert np.array_equal(buffer, then)
        assert params.step == 0


class TestLrSchedule:
    def test_epoch_zero_is_base_rate(self, quick_config):
        tc = replace(quick_config.training, learning_rate=0.005, lr_decay=0.95,
                     lr_decay_interval=50)
        assert training.lr_schedule(0, tc) == 0.005

    def test_one_interval_one_decay(self, quick_config):
        tc = replace(quick_config.training, learning_rate=0.005, lr_decay=0.95,
                     lr_decay_interval=50)
        assert training.lr_schedule(50, tc) == pytest.approx(0.00475)

    def test_floor(self, quick_config):
        tc = replace(quick_config.training, learning_rate=0.005, lr_decay=0.95,
                     lr_decay_interval=50)
        assert training.lr_schedule(10 ** 6, tc) == tc.lr_floor


class TestSampleBatch:
    def test_bit_marginal(self, quick_config):
        cfg = replace(quick_config,
                      training=replace(quick_config.training, batch_size=12500))
        block = training.sample_batch(np.random.default_rng(7), cfg)
        assert abs(block.bits.mean() - 0.5) < 0.01  # 1e5 bits

    def test_beta_power_mean_at_midpoint(self, quick_config):
        cfg = replace(quick_config,
                      training=replace(quick_config.training, batch_size=100000))
        block = training.sample_batch(np.random.default_rng(8), cfg)
        mid = (cfg.training.power_min_dbm + cfg.training.power_max_dbm) / 2
        span = cfg.training.power_max_dbm - cfg.training.power_min_dbm
        assert abs(block.power_dbm.mean() - mid) < 0.02 * span

    def test_seed_determinism(self, quick_config):
        a = training.sample_batch(np.random.default_rng(9), quick_config)
        b = training.sample_batch(np.random.default_rng(9), quick_config)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.power_dbm, b.power_dbm)


class TestTrainBase:
    def test_initial_loss_near_entropy_floor(self, quick_checkpoint, quick_config):
        floor = quick_config.total_bits * np.log(2)
        first = quick_checkpoint.history[0][1]
        assert abs(first - floor) / floor < 0.20

    def test_identical_seed_identical_checkpoint(self, quick_config):
        a = training.train_base(quick_config)
        b = training.train_base(quick_config)
        for name, t in a.params.named_tensors().items():
            assert np.array_equal(t.data, b.params.named_tensors()[name].data)
        assert a.history == b.history

    def test_history_records_epoch_loss_lr(self, quick_checkpoint):
        epoch, loss, lr = quick_checkpoint.history[0]
        assert epoch == 0 and np.isfinite(loss) and lr > 0

    def test_non_finite_gradient_ends_the_run_as_diverged(self):
        # the loss stays finite at lr 1e10 while a gradient overflows
        cfg = miniature_config()
        cfg = replace(cfg, training=replace(cfg.training, learning_rate=1e10))
        ck = training.train_base(cfg, epochs=40)
        assert ck.diverged
        assert ck.epoch == len(ck.history) == ck.params.step
        assert np.isfinite(ck.params.flat).all()


class TestFinetune:
    def test_zero_epochs_leaves_params_unchanged(self, quick_checkpoint,
                                                 quick_config):
        real = ChannelSource(quick_config).instantaneous(3)
        tuned = training.finetune(quick_checkpoint, real,
                                  np.random.default_rng(0), epochs=0)
        for name, t in tuned.params.named_tensors().items():
            assert np.array_equal(
                t.data, quick_checkpoint.params.named_tensors()[name].data)

    def test_deterministic_for_fixed_seed(self, quick_checkpoint, quick_config):
        real = ChannelSource(quick_config).instantaneous(3)
        a = training.finetune(quick_checkpoint, real, np.random.default_rng(5),
                              epochs=5)
        b = training.finetune(quick_checkpoint, real, np.random.default_rng(5),
                              epochs=5)
        for name, t in a.params.named_tensors().items():
            assert np.array_equal(t.data, b.params.named_tensors()[name].data)

    @pytest.mark.parametrize("finetune_lr", [1e200, 1e10])
    def test_diverged_run_returns_the_last_good_state(self, finetune_lr):
        # at 1e200 the loss overflows in epoch 1; at 1e10 a gradient does in
        # epoch 17, after the forward has moved the batchnorm statistics
        cfg = miniature_config()
        cfg = replace(cfg, training=replace(cfg.training, epochs=20, restarts=1,
                                            finetune_lr=finetune_lr))
        base = training.train_base(cfg)
        real = ChannelSource(cfg).instantaneous(3)
        ck = training.finetune(base, real, np.random.default_rng(3))
        assert ck.diverged and ck.epoch > 0
        good = training.finetune(base, real, np.random.default_rng(3), epochs=ck.epoch)
        assert not good.diverged
        for buffer in ("flat", "stats", "m", "v"):
            assert np.array_equal(getattr(ck.params, buffer), getattr(good.params, buffer))
        assert ck.params.step == good.params.step

    def test_mismatched_realization_rejected(self, quick_checkpoint):
        from simfd.config import with_unit_grid
        other = with_unit_grid(miniature_config(), (3, 3))
        bad = ChannelSource(other).instantaneous(0)
        with pytest.raises(emnn.ArchitectureError):
            training.finetune(quick_checkpoint, bad, np.random.default_rng(0))

    def test_does_not_mutate_base(self, quick_checkpoint, quick_config):
        snapshot = {n: t.data.copy()
                    for n, t in quick_checkpoint.params.named_tensors().items()}
        real = ChannelSource(quick_config).instantaneous(4)
        training.finetune(quick_checkpoint, real, np.random.default_rng(1),
                          epochs=3)
        for name, t in quick_checkpoint.params.named_tensors().items():
            assert np.array_equal(t.data, snapshot[name])


class TestCheckpointIO:
    def test_roundtrip_bit_exact(self, quick_checkpoint, tmp_path):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        training.save_checkpoint(quick_checkpoint, p1)
        loaded = training.load_checkpoint(p1)
        training.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tensor_values_exact(self, quick_checkpoint, tmp_path):
        path = tmp_path / "c.ckpt"
        training.save_checkpoint(quick_checkpoint, path)
        loaded = training.load_checkpoint(path)
        want = quick_checkpoint.params.named_arrays()
        got = loaded.params.named_arrays()
        assert list(got) == list(want)
        for name, array in want.items():
            assert np.array_equal(array, got[name])
        assert loaded.params.step == quick_checkpoint.params.step

    def test_history_csv_alongside(self, quick_checkpoint, tmp_path):
        path = tmp_path / "d.ckpt"
        training.save_checkpoint(quick_checkpoint, path)
        csv = tmp_path / "d.ckpt.history.csv"
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,lr"
        assert len(lines) - 1 == len(quick_checkpoint.history)

    def test_not_a_checkpoint(self, tmp_path):
        bad = tmp_path / "garbage.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        with pytest.raises(training.CheckpointError):
            training.load_checkpoint(bad)

    def test_corrupt_truncation_detected(self, quick_checkpoint, tmp_path):
        path = tmp_path / "e.ckpt"
        training.save_checkpoint(quick_checkpoint, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(training.CheckpointError):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("fault", [
        "truncated_version", "truncated_header_length", "missing_running_var",
        "missing_opt_moment", "missing_opt_step", "wrong_shape_running_mean",
        "non_integer_shape", "trailing_bytes", "extra_tensor", "reordered_tensors"])
    def test_malformed_file_is_checkpoint_error(self, quick_checkpoint, tmp_path, fault):
        path = tmp_path / "g.ckpt"
        training.save_checkpoint(quick_checkpoint, path)
        blob = path.read_bytes()
        magic = len(training.CHECKPOINT_MAGIC)
        if fault == "truncated_version":
            blob = blob[:magic + 2]
        elif fault == "truncated_header_length":
            blob = blob[:magic + 4 + 3]
        elif fault == "trailing_bytes":
            blob += b"\0"
        else:
            blob = rewrite_checkpoint(blob, fault)
        path.write_bytes(blob)
        with pytest.raises(training.CheckpointError):
            training.load_checkpoint(path)

    def test_rng_state_survives(self, quick_checkpoint, tmp_path):
        path = tmp_path / "f.ckpt"
        training.save_checkpoint(quick_checkpoint, path)
        loaded = training.load_checkpoint(path)
        assert loaded.rng_state == quick_checkpoint.rng_state


# train_base of miniature_config() with restarts=1 and epochs=2, written
# before the batchnorm statistics and optimizer moments moved into the
# parameter store; it pins the container's byte layout
GOLDEN_CHECKPOINT = Path(__file__).parent / "data" / "mini_e2.ckpt"


class TestGoldenCheckpoint:
    def test_resaves_byte_identically(self, tmp_path):
        path = tmp_path / "again.ckpt"
        training.save_checkpoint(training.load_checkpoint(GOLDEN_CHECKPOINT), path)
        assert path.read_bytes() == GOLDEN_CHECKPOINT.read_bytes()

    def test_store_holds_the_files_arrays(self):
        header, raw = split_checkpoint(GOLDEN_CHECKPOINT.read_bytes())
        params = training.load_checkpoint(GOLDEN_CHECKPOINT).params
        m, v = params.views(params.m), params.views(params.v)

        def in_store(name):
            if name.startswith(("opt.m.", "opt.v.")):
                return (m if name[4] == "m" else v)[name[6:]]
            bn, found, stat = name.partition(".running_")
            if found:
                return params.running[bn][stat == "var"]
            return params[name].data

        # trainables and both moments of each, two statistics per batchnorm layer
        layers = sum(name.endswith(".gamma") for name, *_ in params.table)
        assert len(raw) == 3 * len(params.table) + 2 * layers
        for name, data in raw.items():
            assert np.array_equal(in_store(name).ravel(), np.frombuffer(data, "<f8"))
        assert params.step == header["opt_step"] == 2


def split_checkpoint(blob):
    """(header, {name: tensor bytes}) of a checkpoint container."""
    start = len(training.CHECKPOINT_MAGIC) + 4
    (header_len,) = struct.unpack("<Q", blob[start:start + 8])
    header = json.loads(blob[start + 8:start + 8 + header_len])
    offset = start + 8 + header_len
    arrays = {}
    for spec in header["tensors"]:
        count = int(np.prod(spec["shape"]))
        arrays[spec["name"]] = blob[offset:offset + 8 * count]
        offset += 8 * count
    return header, arrays


def pack_checkpoint(header, payload):
    """A checkpoint container of a header (any JSON value) and raw tensor bytes."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return training.CHECKPOINT_MAGIC + struct.pack("<I", training.CHECKPOINT_VERSION) \
        + struct.pack("<Q", len(text)) + text + payload


def rewrite_checkpoint(blob, fault):
    """The checkpoint container `blob` with one header entry or tensor spoiled."""
    header, arrays = split_checkpoint(blob)
    if fault == "missing_opt_step":
        del header["opt_step"]
    elif fault == "non_integer_shape":
        header["tensors"][0]["shape"] = ["a"]
    elif fault == "extra_tensor":
        header["tensors"].append({"name": "t1.tx.w3", "shape": [2]})
        arrays["t1.tx.w3"] = bytes(16)
    elif fault == "reordered_tensors":
        # two same-shape biases swapped, with their data: every name and
        # byte count still matches
        specs = header["tensors"]
        specs[1], specs[3] = specs[3], specs[1]
    else:
        suffix = {"missing_running_var": ".running_var",
                  "missing_opt_moment": "opt.m.t1.tx.w0",
                  "wrong_shape_running_mean": ".running_mean"}[fault]
        spec = next(s for s in header["tensors"] if s["name"].endswith(suffix))
        if fault == "wrong_shape_running_mean":
            spec["shape"] = [spec["shape"][0] + 1]
            arrays[spec["name"]] += bytes(8)
        else:
            header["tensors"].remove(spec)
            del arrays[spec["name"]]
    return pack_checkpoint(header, b"".join(arrays[s["name"]] for s in header["tensors"]))


# header edits that once escaped the loader as TypeError / ConfigError, or
# (opt_step) loaded silently
HEADER_FAULTS = {
    "header_is_list": lambda h: [],
    "tensors_is_number": lambda h: {**h, "tensors": 5},
    "tensor_spec_is_string": lambda h: {**h, "tensors": ["t1.tx.w0"] + h["tensors"][1:]},
    "history_rows_are_numbers": lambda h: {**h, "history": [1, 2]},
    "config_has_unknown_key": lambda h: {**h, "config": {**h["config"], "bogus": 1}},
    "opt_step_is_string": lambda h: {**h, "opt_step": "x"},
}


@pytest.fixture(scope="module")
def checkpoint_file(quick_checkpoint, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.ckpt"
    training.save_checkpoint(quick_checkpoint, path)
    return path


@pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
def test_malformed_header_is_checkpoint_error(checkpoint_file, tmp_path, fault):
    blob = checkpoint_file.read_bytes()
    header, arrays = split_checkpoint(blob)
    path = tmp_path / "h.ckpt"
    path.write_bytes(pack_checkpoint(HEADER_FAULTS[fault](header),
                                     b"".join(arrays.values())))
    with pytest.raises(training.CheckpointError):
        training.load_checkpoint(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=6)


@st.composite
def damaged_checkpoints(draw, blob):
    """`blob` truncated at a byte, or with one header value replaced by any
    JSON, or one header key deleted or added."""
    kind = draw(st.sampled_from(["truncate", "replace", "delete", "add"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    header, arrays = split_checkpoint(blob)
    if kind == "add":
        header[draw(st.text().filter(lambda k: k not in header))] = draw(JSON_VALUES)
    else:
        key = draw(st.sampled_from(sorted(header)))
        if kind == "replace":
            header[key] = draw(JSON_VALUES)
        else:
            del header[key]
    return pack_checkpoint(header, b"".join(arrays.values()))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_is_checkpoint_error(checkpoint_file, data):
    damaged = data.draw(damaged_checkpoints(checkpoint_file.read_bytes()))
    path = checkpoint_file.with_name("damaged.ckpt")
    path.write_bytes(damaged)
    try:
        training.load_checkpoint(path)
    except training.CheckpointError:
        pass


def test_smoothed_trailing_mean():
    sm = training.smoothed([4.0, 2.0, 6.0, 0.0], window=2)
    assert np.allclose(sm, [4.0, 3.0, 4.0, 3.0])


def test_miniature_smoothed_loss_monotone():
    """Smoothed (window 50) base-training loss is non-increasing from epoch
    50 to the end on the full desk-scale run, with at most 5% violations."""
    ck = training.train_base(miniature_config())
    sm = training.smoothed([h[1] for h in ck.history], 50)
    steps = range(49, len(sm) - 1)
    violations = sum(1 for i in steps if sm[i + 1] > sm[i])
    assert violations / len(steps) <= 0.05
