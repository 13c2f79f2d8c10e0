"""Minimal reverse-mode automatic differentiation over dense arrays.

A node holds float64 or complex128 data. The loss is real; for a complex
node, `grad` holds dL/dRe + j dL/dIm (the CR-calculus convention of
Kreutz-Delgado, "The Complex Gradient Operator and the CR-Calculus",
arXiv:0906.4835); under it a linear map backpropagates through its
conjugate transpose. Real and complex nodes meet only in `phase_shift`
(real phases) and in `to_complex` / `to_pair` / `receive`, which cross
between complex fields and the paired real rows [re | im] of the digital
networks.

Graph walk. `backward` walks `topo_order(loss)` in reverse, so a node passes
its gradient on only after every node that reads it has added its own. A
node refers only to its parents, so a graph dropped without being
differentiated is freed like any other object.

Lazy gradients. `backward` first clears the gradient of every node it will
walk; a node's first contribution then becomes its gradient, and later ones
are added out of place with `accumulate`. Nothing is allocated for a node
that no gradient reaches, and a gradient may share its buffer with another
node's, so treat gradients as read-only. Once an interior node (an op
result) has passed its gradient on, the walk sets its `grad` back to None,
so a step holds its leaves' gradients and the node values, not one gradient
per node. Every node keeps its data, parents and backward closure, so a
graph can be walked again.

No-grad scope. Inside `with no_grad():` ops compute values only: their
results keep no parents and no backward closure.

Run axis. The ops act on the trailing two axes, rows by columns, so one op
serves a single run (2-D arrays) and an ensemble of R independent runs
stacked on a leading axis (R, rows, columns): batch reductions run over
axis -2, transposes swap the last two axes, and a per-run vector, one rank
below the rows it meets, broadcasts over them as [..., None, :]. No op mixes
runs, so each run's values and gradients are those it has on its own.

Batch reductions. A sum over the rows runs in `sum(axis=-2)`'s order: row
after row, each added across the columns at once. `_rows_sum` and
`_rows_dot` compute it through `np.einsum`, which adds in that same order,
about twice as fast and, for a product, with no temporary. They use einsum
only on C-contiguous float64 operands of more than one column, and fall
back to `sum` itself otherwise: on a single column or a Fortran-ordered
array, `sum` adds the contiguous axis pairwise, and einsum's complex product
rounds differently. Every value therefore has the bits it has through `sum`.
"""

from contextlib import contextmanager

import numpy as np

# False inside `no_grad`: op results then record nothing for backward
_grad_enabled = True


class GraphError(ValueError):
    """Raised when an operation would build an ill-formed graph."""


def _rows(data, other):
    """`data` ready to broadcast against `other`: one rank below a stack of
    rows it is a per-run vector, laid along the rows as [..., None, :]
    (numpy's own rule for a 1-D vector against 2-D rows)."""
    return data[..., None, :] if data.ndim > 1 and data.ndim == other.ndim - 1 else data


def _summable(x):
    """Whether einsum sums x's rows in sum(axis=-2)'s order (module docstring)."""
    return x.dtype == np.float64 and x.shape[-1] > 1 and x.flags.c_contiguous


def _rows_sum(x):
    """x.sum(axis=-2), bit for bit."""
    if _summable(x):
        return np.einsum("...bf->...f", x)
    return x.sum(axis=-2)


def _rows_dot(a, b):
    """(a * b).sum(axis=-2) of same-shape a and b, bit for bit, without the
    product temporary."""
    if _summable(a) and _summable(b):
        return np.einsum("...bf,...bf->...f", a, b)
    return (a * b).sum(axis=-2)


def _unbroadcast(grad, shape):
    """Sum a gradient back down to `shape` after broadcasting (see _rows)."""
    if grad.shape == shape:
        return grad
    if grad.ndim == len(shape) + 1 and grad.shape[-1:] == shape[-1:]:
        return _rows_sum(grad)
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """One node of the computation graph: an ndarray value plus grad plumbing.

    Leaves are created directly (requires_grad=True for trainables); results
    of ops carry closures that push gradients to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "op",
                 "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, name=None):
        data = np.asarray(data)
        self.data = data.astype(np.complex128 if np.iscomplexobj(data) else np.float64,
                                copy=False)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self.op = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape}, grad={self.requires_grad})"


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


@contextmanager
def no_grad():
    """Scope in which ops compute values only (nothing is kept for backward).

    The switch is process-wide, not per thread.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _result(data, parents, backward, op=None):
    """Op result; numpy already returns float64 / complex128 here, so the
    value is kept as is rather than coerced like a leaf's. Outside `no_grad`
    it keeps its parents, and requires grad, with `backward` as its closure,
    when one of them does."""
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.requires_grad = False
    out.name = None
    out.op = op
    out._parents = ()
    out._backward = None
    if not _grad_enabled:
        return out
    out._parents = tuple(parents)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._backward = backward
    return out


def accumulate(node, grad):
    """Add one gradient contribution to `node` (the first one is kept as is)."""
    node.grad = grad if node.grad is None else node.grad + grad


def topo_order(root):
    """Topologically ordered node list (every parent precedes its children)."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        # reversed keeps parent visitation in creation order
        for p in reversed(node._parents):
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss):
    """Reverse-accumulate gradients of a scalar loss into the graph's leaves.

    Gradients are cleared on every node of `topo_order(loss)`, leaves
    included, then accumulated walking it in reverse; each interior node's
    is released once it has been passed on, so only the leaves' remain. The
    walk is fixed for a fixed graph, so gradients are bit-deterministic.
    """
    if loss.data.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
    nodes = topo_order(loss)
    for node in nodes:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(nodes):
        if node.grad is not None and node._backward is not None:
            node._backward(node)
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise / structural primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _lift(a), _lift(b)
    def bw(out):
        if a.requires_grad:
            accumulate(a, _unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(out.grad, b.data.shape))
    return _result(_rows(a.data, b.data) + _rows(b.data, a.data), (a, b), bw, op="add")


def hadamard(a, b):
    a, b = _lift(a), _lift(b)
    da, db = _rows(a.data, b.data), _rows(b.data, a.data)
    def bw(out):
        if a.requires_grad:
            accumulate(a, _unbroadcast(out.grad * db, a.data.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(out.grad * da, b.data.shape))
    return _result(da * db, (a, b), bw, op="hadamard")


def scale(a, s):
    a = _lift(a)
    s = float(s)
    def bw(out):
        if a.requires_grad:
            accumulate(a, s * out.grad)
    return _result(a.data * s, (a,), bw, op="scale")


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise GraphError("matmul expects operands of rank 2 or more")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise GraphError(f"matmul shape mismatch {a.data.shape} @ {b.data.shape}")
    def bw(out):
        # conj() of a real array is the array itself; an operand shared by
        # the runs of a stack (a fixed propagation factor) takes no gradient
        if a.requires_grad:
            accumulate(a, out.grad @ b.data.conj().swapaxes(-1, -2))
        if b.requires_grad:
            accumulate(b, a.data.conj().swapaxes(-1, -2) @ out.grad)
    return _result(a.data @ b.data, (a, b), bw, op="matmul")


def concat(parts, axis=-1):
    parts = [_lift(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)
    def bw(out):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * out.grad.ndim
                idx[axis] = slice(lo, hi)
                accumulate(p, out.grad[tuple(idx)])
    return _result(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw, op="concat")


def slice_axis(a, axis, start, length):
    a = _lift(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    def bw(out):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[idx] = out.grad
            accumulate(a, full)
    return _result(a.data[idx].copy(), (a,), bw, op="slice")


def reduce_sum(a, axis=None):
    a = _lift(a)
    def bw(out):
        if a.requires_grad:
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            # a writable copy: the read-only broadcast view must not become a.grad
            accumulate(a, np.broadcast_to(g, a.data.shape).copy())
    return _result(a.data.sum(axis=axis), (a,), bw, op="reduce_sum")


def relu(a):
    a = _lift(a)
    def bw(out):
        if a.requires_grad:
            accumulate(a, out.grad * (out.data > 0))
    return _result(np.where(a.data > 0, a.data, 0.0), (a,), bw, op="relu")


def dense_relu(x, w, b):
    """relu(x @ w + b) of real rows as one node, with the three ops'
    arithmetic. Its op is "relu" and its data the relu output; its parents
    (x, w, b) give back the pre-activation."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    pre = x.data @ w.data
    pre += _rows(b.data, pre)
    def bw(out):
        dz = out.grad * (out.data > 0)
        if x.requires_grad:
            accumulate(x, dz @ w.data.swapaxes(-1, -2))
        if w.requires_grad:
            accumulate(w, x.data.swapaxes(-1, -2) @ dz)
        if b.requires_grad:
            accumulate(b, _unbroadcast(dz, b.data.shape))
    return _result(np.where(pre > 0, pre, 0.0), (x, w, b), bw, op="relu")


def bce_with_logits(z, bits):
    """Binary cross-entropy of logits z against bits b of z's shape, as one
    node: softplus(z) - b z summed over the trailing two axes and divided by
    the rows, so one loss per run. softplus(z) = max(z, 0) + log1p(exp(-|z|))
    and the gradient (sigmoid(z) - b) / rows stay finite at any logit."""
    z = _lift(z)
    b = np.asarray(bits, dtype=float)
    if b.shape != z.data.shape:
        raise GraphError(f"bit block {b.shape} vs logits {z.data.shape}")
    x = z.data
    rows = x.shape[-2]
    e = np.exp(-np.abs(x))
    loss = (np.maximum(x, 0.0) + np.log1p(e) - b * x).sum(axis=(-2, -1)) / rows
    def bw(out):
        if z.requires_grad:
            p = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            accumulate(z, (p - b) * (out.grad / rows)[..., None, None])
    return _result(loss, (z,), bw, op="bce_with_logits")


def softmax(a, axis=-1):
    a = _lift(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    def bw(out):
        if a.requires_grad:
            dot = (out.grad * y).sum(axis=axis, keepdims=True)
            accumulate(a, y * (out.grad - dot))
    return _result(y, (a,), bw, op="softmax")


# ---------------------------------------------------------------------------
# normalization over the batch
# ---------------------------------------------------------------------------

# running statistics decay as stat = BN_MOMENTUM * stat + (1 - BN_MOMENTUM) * batch
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


def batchnorm(x, gamma, beta, running, training):
    """Per-feature batch normalization over the rows (axis -2).

    `running` is the (mean, var) pair of running-statistic arrays. Training
    mode normalizes with batch statistics (batch >= 2 required) and updates
    both arrays in place; eval mode is the affine map through them.
    """
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    running_mean, running_var = running
    g = gamma.data[..., None, :]
    if training:
        n = x.data.shape[-2]
        if n < 2:
            raise GraphError("batchnorm training mode requires batch >= 2")
        # the arithmetic of np.mean and np.var, with x centred once
        mu = _rows_sum(x.data) / n
        c = x.data - mu[..., None, :]
        var = _rows_dot(c, c) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = c * inv_std[..., None, :]
        m = BN_MOMENTUM
        running_mean[...] = m * running_mean + (1.0 - m) * mu
        running_var[...] = m * running_var + (1.0 - m) * var

        def bw(out):
            dxhat = out.grad * g
            if gamma.requires_grad:
                accumulate(gamma, _rows_dot(out.grad, xhat))
            if beta.requires_grad:
                accumulate(beta, _rows_sum(out.grad))
            if x.requires_grad:
                accumulate(x, (inv_std / n)[..., None, :] * (
                    n * dxhat - _rows_sum(dxhat)[..., None, :]
                    - xhat * _rows_dot(dxhat, xhat)[..., None, :]))
        return _result(g * xhat + beta.data[..., None, :], (x, gamma, beta), bw,
                       op="batchnorm")

    inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
    xhat = (x.data - running_mean[..., None, :]) * inv_std[..., None, :]

    def bw(out):
        if gamma.requires_grad:
            accumulate(gamma, _rows_dot(out.grad, xhat))
        if beta.requires_grad:
            accumulate(beta, _rows_sum(out.grad))
        if x.requires_grad:
            accumulate(x, out.grad * g * inv_std[..., None, :])
    return _result(g * xhat + beta.data[..., None, :], (x, gamma, beta), bw,
                   op="batchnorm")


def _pow_slope(x, k):
    """d(x ** k)/dx, with the subgradient 0 where it is not finite (x = 0
    under a fractional power)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = k * x ** (k - 1.0)
    return np.where(np.isfinite(d), d, 0.0)


def normalize_streams(raw, power, eps):
    """Paired rows [re | im] (B, 2n), each complex column normalized to unit
    mean power over the rows and scaled by sqrt(power) (B, n), as one node
    with the arithmetic and gradient order of the chain of slices, squares,
    sum, scale, powers, products and concat. Returns the node and the
    columns' mean powers (..., 1, n)."""
    raw, power = _lift(raw), _lift(power)
    n, rows = raw.data.shape[-1] // 2, raw.data.shape[-2]
    re, im = raw.data[..., :n], raw.data[..., n:]
    scale = 1.0 / rows
    mean_power = _rows_sum(re * re + im * im)[..., None, :] * scale
    norm = mean_power ** 0.5 + eps
    inv = norm ** -1.0
    amp = power.data ** 0.5
    gain = amp * inv
    both = np.concatenate([gain, gain], axis=-1)

    def bw(out):
        dboth = out.grad * raw.data
        dgain = dboth[..., :n] + dboth[..., n:]
        if power.requires_grad:
            accumulate(power, _unbroadcast(dgain * inv, amp.shape)
                       * _pow_slope(power.data, 0.5))
        if raw.requires_grad:
            dmean = (_unbroadcast(dgain * amp, inv.shape) * _pow_slope(norm, -1.0)
                     * _pow_slope(mean_power, 0.5))
            pair = np.concatenate([scale * dmean] * 2, axis=-1) * raw.data
            grad = out.grad * both
            grad += pair + pair
            # the chain added zero-padded slice gradients, which turn a -0 sum into +0
            grad += 0.0
            accumulate(raw, grad)
    return _result(raw.data * both, (raw, power), bw, op="normalize_streams"), mean_power


# ---------------------------------------------------------------------------
# complex fields
# ---------------------------------------------------------------------------

def phase_shift(x, theta):
    """Column phases y = x diag(exp(j theta)) on complex rows (B, n).

    Unit modulus, so every row keeps its norm; theta is unconstrained real
    and receives dL/dtheta = sum over rows of Im(g conj(y)). Per-run phases
    (R, n) turn rows shared by the runs into a stack (R, B, n).
    """
    x, theta = _lift(x), _lift(theta)
    if x.data.ndim < 2 or theta.data.shape[-1] != x.data.shape[-1]:
        raise GraphError(f"phase length {theta.data.shape} does not match input {x.data.shape}")
    rot = np.exp(1j * theta.data)[..., None, :]
    # x takes the product's shape first, so every shape pair runs one numpy
    # kernel: complex (1, 1) by (1, 1, 1) takes another, whose last bits
    # would set a one-unit run at R = 1 apart from the same run in an ensemble
    shape = np.broadcast(x.data, rot).shape
    y = (x.data if x.data.shape == shape else np.broadcast_to(x.data, shape)) * rot

    def bw(out):
        if theta.requires_grad:
            accumulate(theta, (out.grad * y.conj()).imag.sum(axis=-2))
        if x.requires_grad:
            accumulate(x, out.grad * rot.conj())
    return _result(y, (x, theta), bw, op="phase")


def to_complex(x):
    """Paired real rows [re | im] (B, 2n) as complex rows (B, n)."""
    x = _lift(x)
    if x.data.ndim < 2 or x.data.shape[-1] % 2:
        raise GraphError(f"paired rows need an even width, got {x.data.shape}")
    n = x.data.shape[-1] // 2

    def bw(out):
        if x.requires_grad:
            accumulate(x, np.concatenate([out.grad.real, out.grad.imag], axis=-1))
    z = np.empty(x.data.shape[:-1] + (n,), dtype=np.complex128)
    z.real, z.imag = x.data[..., :n], x.data[..., n:]
    return _result(z, (x,), bw, op="to_complex")


def to_pair(z):
    """Complex rows (B, n) as paired real rows [re | im] (B, 2n)."""
    z = _lift(z)
    n = z.data.shape[-1]

    def bw(out):
        if z.requires_grad:
            accumulate(z, out.grad[..., :n] + 1j * out.grad[..., n:])
    return _result(np.concatenate([z.data.real, z.data.imag], axis=-1), (z,), bw,
                   op="to_pair")


def receive(x, h, noise, gain):
    """Paired real rows [re | im] of (x h + noise) gain, as one node with the
    arithmetic of matmul, to_pair, the add of the paired noise and scale.
    The complex add is the paired add, component by component; `noise` is a
    constant, the received field's shape."""
    x, h = _lift(x), _lift(h)
    gain = float(gain)
    z = x.data @ h.data
    z += noise
    n = z.shape[-1]

    def bw(out):
        g = gain * out.grad
        g = g[..., :n] + 1j * g[..., n:]
        if x.requires_grad:
            accumulate(x, g @ h.data.conj().swapaxes(-1, -2))
        if h.requires_grad:
            accumulate(h, x.data.conj().swapaxes(-1, -2) @ g)
    return _result(np.concatenate([z.real, z.imag], axis=-1) * gain, (x, h), bw,
                   op="receive")


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(build_loss, params, h=1e-6, floor=1e-3):
    """Worst-case relative error of analytic vs central-difference gradients.

    `build_loss()` must rebuild the same deterministic scalar-loss graph on
    every call (all randomness frozen outside). Per-scalar relative error is
    |ad - fd| / max(|ad|, |fd|, floor): for gradients below `floor` the
    comparison degrades to an absolute one at floor scale, which still
    catches wrong rules (a sign or factor error shows up at the gradient's
    own magnitude) while not amplifying the finite-difference noise floor on
    near-zero gradients into spurious ratios. Only the analytic pass records
    a graph; the finite-difference rebuilds run under `no_grad`.
    """
    if not 1e-8 <= h <= 1e-4:
        raise ValueError("step size h outside [1e-8, 1e-4]")
    loss = build_loss()
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ad in zip(params, analytic):
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            with no_grad():
                flat[i] = keep + h
                hi = float(build_loss().data)
                flat[i] = keep - h
                lo = float(build_loss().data)
            flat[i] = keep
            fd[i] = (hi - lo) / (2.0 * h)
        fd = fd.reshape(p.data.shape)
        denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), floor)
        worst = max(worst, float(np.max(np.abs(ad - fd) / denom)))
    return worst
