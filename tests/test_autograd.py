import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

import simfd.autograd as ag
import simfd.emnn as emnn
import simfd.training as training
from simfd.channel import ChannelSource, receiver_noise
from simfd.config import miniature_config
from paired_real import complex_matmul, phase_diag_apply


def fd_grad(build_loss, tensor, h=1e-6):
    flat = tensor.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = float(build_loss().data)
        flat[i] = keep - h
        lo = float(build_loss().data)
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * h)
    return out.reshape(tensor.data.shape)


def rel_err(a, b, floor=1e-6):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def test_relu_values_and_mask():
    x = ag.Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    y = ag.relu(x)
    assert np.array_equal(y.data, [0.0, 0.0, 2.0])
    ag.backward(ag.reduce_sum(y))
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_matmul_against_hand_computation():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    out = ag.matmul(ag.Tensor(a), ag.Tensor(b))
    assert np.allclose(out.data, a @ b)


def test_matmul_shape_mismatch():
    with pytest.raises(ag.GraphError):
        ag.matmul(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((2, 3))))


def test_backward_of_sum_is_ones():
    x = ag.Tensor(np.random.default_rng(0).standard_normal((3, 4)),
                  requires_grad=True)
    ag.backward(ag.reduce_sum(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_constants_carry_no_gradient():
    c = ag.Tensor(np.ones(3))
    x = ag.Tensor(np.ones(3), requires_grad=True)
    loss = ag.reduce_sum(ag.hadamard(c, x))
    ag.backward(loss)
    assert c.grad is None
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_rejects_non_scalar():
    x = ag.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ag.GraphError):
        ag.backward(ag.scale(x, 2.0))


def test_topo_order_parents_precede_children():
    x = ag.Tensor(np.ones(2), requires_grad=True)
    y = ag.add(x, 1.0)
    z = ag.hadamard(y, y)
    loss = ag.reduce_sum(z)
    order = ag.topo_order(loss)
    pos = {id(t): i for i, t in enumerate(order)}
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_separate_graphs_sharing_leaves_get_fresh_gradients():
    w = ag.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    first = ag.reduce_sum(ag.scale(w, 3.0))
    second = ag.reduce_sum(ag.hadamard(w, w))
    ag.backward(first)
    assert np.array_equal(w.grad, [3.0, 3.0])
    ag.backward(second)
    assert np.array_equal(w.grad, [2.0, 4.0])
    # a graph can be walked again, and again starts from nothing
    ag.backward(first)
    assert np.array_equal(w.grad, [3.0, 3.0])


def test_graphs_built_apart_and_joined_by_an_op_get_every_gradient():
    a = ag.Tensor(np.ones(2), requires_grad=True)
    b = ag.Tensor(np.ones(2), requires_grad=True)
    left, right = ag.scale(a, 2.0), ag.scale(b, 3.0)
    ag.backward(ag.reduce_sum(ag.add(left, right)))
    assert np.array_equal(a.grad, [2.0, 2.0])
    assert np.array_equal(b.grad, [3.0, 3.0])


def test_node_read_by_three_ops_gets_their_sum():
    x = ag.Tensor(np.array([0.1, 0.7, -1.3]), requires_grad=True)
    c = np.array([3.0, -0.5, 0.2])
    h = ag.scale(x, 1.5)
    loss = ag.reduce_sum(ag.add(ag.add(ag.scale(h, 2.0), ag.hadamard(h, c)),
                                ag.scale(h, -0.25)))
    ag.backward(loss)
    first = x.grad
    assert np.allclose(first, 1.5 * (2.0 + c - 0.25))
    ag.backward(loss)
    assert np.array_equal(x.grad, first)


def test_no_grad_scope_records_nothing():
    x = ag.Tensor(np.ones((2, 3)), requires_grad=True)
    w = ag.Tensor(np.ones((3, 2)), requires_grad=True)
    h = ag.matmul(x, w)
    with ag.no_grad():
        y = ag.relu(ag.add(h, 1.0))
    assert y.op == "relu" and not y.requires_grad
    assert y._parents == () and y._backward is None
    assert ag.matmul(x, w).requires_grad  # recording resumes after the scope


def _mini_forward(model, realization, rng):
    bits = rng.integers(0, 2, (16, model.config.total_bits)).astype(float)
    return model.forward(bits, np.full(16, 25.0), realization,
                         receiver_noise(model.config, 16, rng), training=False)


def test_no_grad_forward_has_no_parents():
    cfg = miniature_config()
    model = emnn.Emnn(cfg, rng=np.random.default_rng(0))
    realization = ChannelSource(cfg).instantaneous(3)
    with ag.no_grad():
        logits = _mini_forward(model, realization, np.random.default_rng(1))
    assert logits._parents == ()
    assert ag.topo_order(logits) == [logits]
    graded = _mini_forward(model, realization, np.random.default_rng(1))
    assert np.array_equal(logits.data, graded.data)


def test_undifferentiated_graph_is_freed():
    cfg = miniature_config()
    model = emnn.Emnn(cfg, rng=np.random.default_rng(0))
    realization = ChannelSource(cfg).instantaneous(3)
    rng = np.random.default_rng(2)
    logits = _mini_forward(model, realization, rng)
    loss = training.bce_loss(np.zeros(logits.shape), logits)
    refs = [weakref.ref(loss), weakref.ref(logits), weakref.ref(logits._parents[0])]
    del logits, loss
    gc.collect()
    assert all(ref() is None for ref in refs)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(shape=st.sampled_from([(1, 1), (5, 3), (64, 8), (1, 4, 2), (3, 16, 4)]),
       saturated=st.sampled_from([0.0, 40.0, 60.0]), seed=st.integers(0, 2**32 - 1))
def test_bce_with_logits_is_softplus_with_sigmoid_gradient(shape, saturated, seed):
    """Loss softplus(z) - b z over each run's block, divided by its rows, and
    gradient (expit(z) - b) / rows, at logits over [-60, 60] with saturated
    ones against the opposite bit, in 2-D and stacked (R, B, n), warning-free."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-60.0, 60.0, shape)
    b = (rng.random(shape) < 0.5).astype(float)
    against = rng.random(shape) < 0.3
    z[against] = np.where(b[against] == 1.0, -saturated, saturated)
    rows = shape[-2]
    logits = ag.Tensor(z, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = ag.bce_with_logits(logits, b)
        ag.backward(ag.reduce_sum(loss))
    want = (np.logaddexp(0.0, z) - b * z).sum(axis=(-2, -1)) / rows
    assert loss.shape == shape[:-2]
    np.testing.assert_allclose(loss.data, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(logits.grad, (expit(z) - b) / rows, rtol=1e-12, atol=0.0)


def test_bce_with_logits_keeps_the_full_gradient_far_past_saturation():
    """At |z| = 800, where exp(|z|) overflows, a wrong logit costs |z| and
    keeps the gradient -+1 / rows; a right one costs 0 with gradient 0."""
    z = np.array([[-800.0, 800.0], [800.0, -800.0]])
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    logits = ag.Tensor(z, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = ag.bce_with_logits(logits, b)
        ag.backward(loss)
    assert float(loss.data) == 800.0  # (800 + 800 + 0 + 0) / 2 rows
    np.testing.assert_array_equal(logits.grad, [[-0.5, 0.5], [0.0, 0.0]])


def test_loss_is_one_node_on_the_rx_dnns_last_batchnorms():
    """bce_loss reads the forward output directly, and that output joins the
    two RX-DNNs' last batchnorms: no op sits between a decoder and the loss."""
    cfg = miniature_config()
    model = emnn.Emnn(cfg, rng=np.random.default_rng(0))
    realization = ChannelSource(cfg).instantaneous(3)
    logits = _mini_forward(model, realization, np.random.default_rng(4))
    loss = training.bce_loss(np.zeros(logits.shape), logits)
    assert loss.op == "bce_with_logits"
    assert len(loss._parents) == 1 and loss._parents[0] is logits
    assert logits.op == "concat"
    assert [p.op for p in logits._parents] == ["batchnorm", "batchnorm"]


def test_softmax_rows_sum_to_one():
    x = ag.Tensor(np.random.default_rng(1).standard_normal((4, 5)),
                  requires_grad=True)
    y = ag.softmax(x, axis=-1)
    assert np.allclose(y.data.sum(axis=-1), 1.0)


def test_concat_slice_roundtrip_gradients():
    rng = np.random.default_rng(2)
    a = ag.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = ag.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    joined = ag.concat([a, b], axis=1)
    back = ag.slice_axis(joined, 1, 2, 4)
    ag.backward(ag.reduce_sum(ag.hadamard(back, back)))
    assert np.array_equal(a.grad, np.zeros((3, 2)))
    assert np.allclose(b.grad, 2.0 * b.data)


def test_complex_matmul_identity_and_j():
    rng = np.random.default_rng(3)
    x = ag.Tensor(rng.standard_normal((5, 6)))
    eye = np.eye(3)
    out = complex_matmul(eye, np.zeros((3, 3)), x)
    assert np.allclose(out.data, x.data)
    out_j = complex_matmul(np.zeros((3, 3)), eye, x)
    re, im = x.data[:, :3], x.data[:, 3:]
    assert np.allclose(out_j.data[:, :3], -im)
    assert np.allclose(out_j.data[:, 3:], re)


def test_complex_matmul_against_complex_arithmetic():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    x = ag.Tensor(np.concatenate([z.real, z.imag], axis=1))
    out = complex_matmul(m.real.copy(), m.imag.copy(), x)
    want = z @ m.T
    assert np.allclose(out.data[:, :3], want.real)
    assert np.allclose(out.data[:, 3:], want.imag)


def test_phase_diag_trivial_angles():
    rng = np.random.default_rng(5)
    x = ag.Tensor(rng.standard_normal((4, 6)))
    out0 = phase_diag_apply(np.zeros(3), x)
    assert np.allclose(out0.data, x.data)
    out90 = phase_diag_apply(np.full(3, np.pi / 2.0), x)
    re, im = x.data[:, :3], x.data[:, 3:]
    assert np.allclose(out90.data[:, :3], -im)
    assert np.allclose(out90.data[:, 3:], re)


def test_phase_diag_preserves_complex_norm():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 10))
    theta = rng.uniform(0, 2 * np.pi, 5)
    out = phase_diag_apply(theta, ag.Tensor(x))
    before = x[:, :5] ** 2 + x[:, 5:] ** 2
    after = out.data[:, :5] ** 2 + out.data[:, 5:] ** 2
    assert np.max(np.abs(before - after)) < 1e-12


def test_phase_diag_theta_gradient_matches_fd():
    rng = np.random.default_rng(7)
    theta = ag.Tensor(rng.uniform(0, 2 * np.pi, 4), requires_grad=True)
    x = ag.Tensor(rng.standard_normal((3, 8)))
    w = rng.standard_normal(8)

    def build():
        y = phase_diag_apply(theta, x)
        return ag.reduce_sum(ag.hadamard(y, ag.Tensor(np.broadcast_to(w, (3, 8)).copy())))

    ag.backward(build())
    ad = theta.grad.copy()
    fd = fd_grad(build, theta)
    assert rel_err(ad, fd) < 1e-5


def fd_grad_complex(build_loss, tensor, h=1e-6):
    """dL/dRe + j dL/dIm by central differences on both parts."""
    parts = []
    for step in (h, 1j * h):
        flat = tensor.data.reshape(-1)
        out = np.zeros(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = float(build_loss().data)
            flat[i] = keep - step
            lo = float(build_loss().data)
            flat[i] = keep
            out[i] = (hi - lo) / (2.0 * h)
        parts.append(out.reshape(tensor.data.shape))
    return parts[0] + 1j * parts[1]


def test_complex_tensor_keeps_complex128():
    z = ag.Tensor(np.array([1 + 2j, 3j], dtype=np.complex64))
    assert z.data.dtype == np.complex128
    assert ag.Tensor(np.array([1, 2])).data.dtype == np.float64


def test_phase_shift_matches_complex_arithmetic():
    rng = np.random.default_rng(21)
    z = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    theta = rng.uniform(-10, 10, 4)
    out = ag.phase_shift(ag.Tensor(z), theta)
    assert np.allclose(out.data, z @ np.diag(np.exp(1j * theta)), rtol=0, atol=1e-14)
    with pytest.raises(ag.GraphError):
        ag.phase_shift(ag.Tensor(z), np.zeros(5))


def test_pair_boundary_roundtrip():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 8))
    z = ag.to_complex(ag.Tensor(x))
    assert np.array_equal(z.data, x[:, :4] + 1j * x[:, 4:])
    assert np.array_equal(ag.to_pair(z).data, x)
    with pytest.raises(ag.GraphError):
        ag.to_complex(ag.Tensor(np.zeros((3, 5))))


def test_complex_gradients_match_finite_differences():
    """CR convention: every complex leaf gets dL/dRe + j dL/dIm, every real
    leaf dL/dx, through matmul (conjugate transpose), phase and boundaries."""
    rng = np.random.default_rng(23)
    a = ag.Tensor(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)),
                  requires_grad=True)
    b = ag.Tensor(rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)),
                  requires_grad=True)
    theta = ag.Tensor(rng.uniform(0, 2 * np.pi, 5), requires_grad=True)
    x = ag.Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    w = rng.standard_normal((2, 10))

    def build():
        h = ag.phase_shift(ag.matmul(ag.matmul(ag.to_complex(x), a), b), theta)
        y = ag.to_pair(h)
        return ag.reduce_sum(ag.hadamard(ag.hadamard(y, y), w))

    ag.backward(build())
    grads = [t.grad.copy() for t in (a, b, theta, x)]
    assert rel_err(grads[0], fd_grad_complex(build, a)) < 1e-6
    assert rel_err(grads[1], fd_grad_complex(build, b)) < 1e-6
    assert rel_err(grads[2], fd_grad(build, theta)) < 1e-6
    assert rel_err(grads[3], fd_grad(build, x)) < 1e-6


def test_batchnorm_train_then_eval_affine():
    rng = np.random.default_rng(8)
    running = (np.zeros(4), np.ones(4))
    gamma = ag.Tensor(rng.uniform(0.5, 2.0, 4), requires_grad=True)
    beta = ag.Tensor(rng.standard_normal(4), requires_grad=True)
    for _ in range(20):
        ag.batchnorm(ag.Tensor(rng.standard_normal((16, 4)) * 3.0 + 1.0),
                     gamma, beta, running, training=True)
    # eval mode is affine: f(a) + f(b) == f(a + b) + f(0)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))

    def f(arr):
        return ag.batchnorm(ag.Tensor(arr), gamma, beta, running, training=False).data

    assert np.allclose(f(a) + f(b), f(a + b) + f(np.zeros((5, 4))), atol=1e-12)


def test_batchnorm_updates_running_statistics_in_place():
    # the running pair may be views into a larger buffer, as in a ParamStore
    rng = np.random.default_rng(10)
    buffer = np.concatenate([np.zeros(3), np.ones(3)])
    x = rng.standard_normal((8, 3))
    ag.batchnorm(ag.Tensor(x), ag.Tensor(np.ones(3)), ag.Tensor(np.zeros(3)),
                 (buffer[:3], buffer[3:]), training=True)
    m = ag.BN_MOMENTUM
    assert np.array_equal(buffer[:3], (1.0 - m) * x.mean(axis=0))
    assert np.array_equal(buffer[3:], m + (1.0 - m) * x.var(axis=0))


def test_batchnorm_train_requires_batch():
    g = ag.Tensor(np.ones(3))
    b = ag.Tensor(np.zeros(3))
    with pytest.raises(ag.GraphError):
        ag.batchnorm(ag.Tensor(np.ones((1, 3))), g, b, (np.zeros(3), np.ones(3)),
                     training=True)


def test_forward_is_deterministic():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    r1 = ag.matmul(ag.Tensor(a), ag.Tensor(b)).data
    r2 = ag.matmul(ag.Tensor(a), ag.Tensor(b)).data
    assert np.array_equal(r1, r2)


def _random_graph_loss(rng, params):
    """Small random graph over the primitive set, smooth at generic points."""
    x, w1, w2, theta, gamma, beta = params
    h = ag.relu(ag.add(ag.matmul(x, w1), 0.1))
    h = ag.to_pair(ag.phase_shift(ag.to_complex(h), theta))
    running = (rng.standard_normal(h.data.shape[1]) * 0.1,
               rng.uniform(0.5, 1.5, h.data.shape[1]))
    h = ag.batchnorm(h, gamma, beta, running, training=True)
    target = (rng.random((x.data.shape[0], w2.data.shape[1])) > 0.5).astype(float)
    return ag.bce_with_logits(ag.matmul(h, w2), target)


@pytest.mark.parametrize("case", range(4))
def test_random_graphs_match_finite_differences(case):
    """25 random graphs per case: every backward matches central differences."""
    rng = np.random.default_rng(100 + case)
    for trial in range(25):
        n, m = 6, 4
        x = ag.Tensor(rng.standard_normal((5, n)), requires_grad=True)
        w1 = ag.Tensor(rng.standard_normal((n, 2 * m)) * 0.5, requires_grad=True)
        w2 = ag.Tensor(rng.standard_normal((2 * m, 3)) * 0.5, requires_grad=True)
        theta = ag.Tensor(rng.uniform(0, 2 * np.pi, m), requires_grad=True)
        gamma = ag.Tensor(rng.uniform(0.5, 1.5, 2 * m), requires_grad=True)
        beta = ag.Tensor(rng.standard_normal(2 * m) * 0.2, requires_grad=True)
        params = (x, w1, w2, theta, gamma, beta)
        state_rng = np.random.default_rng(1000 * case + trial)

        def build():
            local = np.random.default_rng(1000 * case + trial)
            return _random_graph_loss(local, params)

        loss = build()
        ag.backward(loss)
        for p in params:
            ad = p.grad.copy()
            # h = 1e-5 keeps the roundoff floor well below the tolerance on
            # small-gradient scalars; the floor mirrors grad_check's
            fd = fd_grad(build, p, h=1e-5)
            assert rel_err(ad, fd, floor=1e-4) < 1e-5


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(runs=st.sampled_from([None, 1, 2, 3, 15]), rows=st.integers(1, 300),
       cols=st.integers(1, 40),
       layout=st.sampled_from(["C", "column slice", "Fortran", "one column"]),
       complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_row_reductions_are_sums_bit_for_bit(runs, rows, cols, layout, complex_, seed):
    """_rows_sum / _rows_dot give the bits of sum(axis=-2) on every layout;
    a numpy whose einsum adds in another order fails here."""
    rng = np.random.default_rng(seed)
    lead = () if runs is None else (runs,)
    cols = 1 if layout == "one column" else cols
    shape = lead + (rows, cols + (layout == "column slice"))

    def draw():
        x = rng.choice([-1.0, 1.0], shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
        if complex_:
            x = x + 1j * rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
        if layout == "column slice":
            return x[..., 1:]
        return np.asfortranarray(x) if layout == "Fortran" else x

    a, b = draw(), draw()
    assert ag._rows_sum(a).tobytes() == a.sum(axis=-2).tobytes()
    assert ag._rows_dot(a, b).tobytes() == (a * b).sum(axis=-2).tobytes()


def test_dense_relu_is_the_three_ops():
    # values and gradients bit for bit, for one run and a stack of runs
    rng = np.random.default_rng(12)
    for lead in ((), (3,)):
        x = rng.standard_normal(lead + (32, 6))
        w = rng.standard_normal(lead + (6, 5))
        b = rng.standard_normal(lead + (5,))
        g = rng.standard_normal(lead + (32, 5))
        results = []
        for op in (lambda x, w, b: ag.relu(ag.add(ag.matmul(x, w), b)), ag.dense_relu):
            leaves = [ag.Tensor(v.copy(), requires_grad=True) for v in (x, w, b)]
            y = op(*leaves)
            ag.backward(ag.reduce_sum(ag.hadamard(y, g)))
            results.append([y.data] + [t.grad for t in leaves])
        for fused, chain in zip(results[1], results[0]):
            assert fused.tobytes() == chain.tobytes()


def test_normalize_streams_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    for lead in ((), (2,)):
        raw = ag.Tensor(rng.standard_normal(lead + (6, 8)), requires_grad=True)
        power = ag.Tensor(rng.uniform(0.5, 2.0, lead + (6, 4)), requires_grad=True)
        w = rng.standard_normal(lead + (6, 8))

        def build():
            out, _ = ag.normalize_streams(raw, power, 1e-12)
            return ag.reduce_sum(ag.hadamard(out, w))

        ag.backward(build())
        for t in (raw, power):
            assert rel_err(t.grad, fd_grad(build, t)) < 1e-6


def test_grad_check_linear_layer_tight():
    rng = np.random.default_rng(11)
    w = ag.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    x = np.abs(rng.standard_normal((4, 5))) + 0.1

    def build():
        y = ag.matmul(ag.Tensor(x), w)
        return ag.reduce_sum(ag.hadamard(y, y))

    assert ag.grad_check(build, [w], h=1e-6) < 1e-7


def test_grad_check_records_only_the_analytic_pass():
    w = ag.Tensor(np.array([[0.5, -1.0], [2.0, 0.3]]), requires_grad=True)
    recorded = []

    def build():
        loss = ag.reduce_sum(ag.hadamard(ag.matmul(ag.Tensor(np.eye(2)), w), w))
        recorded.append(loss.requires_grad)
        return loss

    assert ag.grad_check(build, [w]) < 1e-7
    assert recorded == [True] + [False] * 8


def test_grad_check_rejects_bad_step():
    with pytest.raises(ValueError):
        ag.grad_check(lambda: ag.Tensor(0.0), [], h=1.0)
