"""Paired-real oracle: complex signals as real rows [re | im], stages applied
to the data batch itself.

This is the representation the network used before its stacks were composed
as complex operators. The primitives and stage functions are kept here, as
they were, so tests can check the complex operator path against an
independent batch-first implementation.
"""

import numpy as np

import simfd.autograd as ag
import simfd.channel as ch
import simfd.emnn as emnn
from simfd.autograd import GraphError, _lift, _result, accumulate


def complex_matmul(m_re, m_im, x):
    """Apply an (m x n) complex matrix to batched paired signals (B, 2n).

    Computes y = M z as four real matmuls:
    y_re = z_re A_re^T - z_im A_im^T, y_im = z_re A_im^T + z_im A_re^T.
    The matrix halves may be constants (ndarray) or trainable Tensors.
    """
    m_re, m_im, x = _lift(m_re), _lift(m_im), _lift(x)
    rows, cols = m_re.data.shape
    if m_im.data.shape != (rows, cols):
        raise GraphError("complex matrix halves must share a shape")
    if x.data.ndim != 2 or x.data.shape[1] != 2 * cols:
        raise GraphError(f"paired input width {x.data.shape} does not match 2x{cols}")
    xr, xi = x.data[:, :cols], x.data[:, cols:]
    yr = xr @ m_re.data.T - xi @ m_im.data.T
    yi = xr @ m_im.data.T + xi @ m_re.data.T

    def bw(out):
        gr, gi = out.grad[:, :rows], out.grad[:, rows:]
        if x.requires_grad:
            accumulate(x, np.concatenate([gr @ m_re.data + gi @ m_im.data,
                                          -gr @ m_im.data + gi @ m_re.data], axis=1))
        if m_re.requires_grad:
            accumulate(m_re, gr.T @ xr + gi.T @ xi)
        if m_im.requires_grad:
            accumulate(m_im, gi.T @ xr - gr.T @ xi)
    return _result(np.concatenate([yr, yi], axis=1), (m_re, m_im, x), bw, op="complex_matmul")


def phase_diag_apply(theta, x):
    """Unit-modulus diagonal phase layer on paired signals (B, 2n).

    y_re = cos(t) x_re - sin(t) x_im, y_im = sin(t) x_re + cos(t) x_im; exact
    backward for both the phases and the signal. theta is unconstrained real.
    """
    theta, x = _lift(theta), _lift(x)
    n = theta.data.shape[-1]
    if theta.data.ndim != 1 or x.data.ndim != 2 or x.data.shape[1] != 2 * n:
        raise GraphError(f"phase length {theta.data.shape} does not match input {x.data.shape}")
    c, s = np.cos(theta.data), np.sin(theta.data)
    xr, xi = x.data[:, :n], x.data[:, n:]
    yr = c * xr - s * xi
    yi = s * xr + c * xi

    def bw(out):
        gr, gi = out.grad[:, :n], out.grad[:, n:]
        if theta.requires_grad:
            accumulate(theta, (gr * (-s * xr - c * xi) + gi * (c * xr - s * xi)).sum(axis=0))
        if x.requires_grad:
            accumulate(x, np.concatenate([gr * c + gi * s, -gr * s + gi * c], axis=1))
    return _result(np.concatenate([yr, yi], axis=1), (theta, x), bw, op="phase_diag")


def planes(matrix):
    """Split a complex matrix into its (real, imag) float64 planes."""
    matrix = np.asarray(matrix)
    return np.ascontiguousarray(matrix.real, dtype=float), \
        np.ascontiguousarray(matrix.imag, dtype=float)


def complex_to_pair_batch(matrix):
    """(B, n) complex -> (B, 2n) paired real."""
    matrix = np.asarray(matrix)
    return np.concatenate([matrix.real, matrix.imag], axis=-1).astype(float)


def tx_sim_forward(x, factor_pairs, thetas):
    """Alternate fixed transmission layers and trainable phase layers."""
    for (re, im), theta in zip(factor_pairs, thetas):
        x = phase_diag_apply(theta, complex_matmul(re, im, x))
    return x


def rx_sim_forward(y, factor_pairs, xis):
    """Receive stack: phase layer K first, transmission toward the antennas."""
    for (re, im), xi in zip(reversed(factor_pairs), reversed(xis)):
        y = complex_matmul(re, im, phase_diag_apply(xi, y))
    return y


def channel_layer(s1, s2, link_pairs):
    """Superpose cross-link and self-interference arrivals at both receivers.

    field_q = G_pq s_p + G_qq s_q; a fixed, non-trainable block.
    """
    f1 = ag.add(complex_matmul(*link_pairs[(1, 1)], s1),
                complex_matmul(*link_pairs[(2, 1)], s2))
    f2 = ag.add(complex_matmul(*link_pairs[(1, 2)], s1),
                complex_matmul(*link_pairs[(2, 2)], s2))
    return f1, f2


def batch_first_forward(model, bits, power_dbm, realization, training, noise):
    """Every stage applied to the data batch itself, in paired real rows."""
    arch = model.arch
    n1 = arch.n_bits[0]
    link_pairs = {key: planes(realization.link(*key)) for key in ch.LINK_ORDER}
    sent = []
    p_alloc = emnn.allocate_power(power_dbm, arch, model.params)
    for q, p_q in zip((1, 2), p_alloc):
        block = bits[:, :n1] if q == 1 else bits[:, n1:]
        x = emnn.power_control(emnn.tx_dnn_forward(block, model.params, q), p_q)
        tx_pairs = [planes(m) for m in model.tx_factors[q - 1]]
        sent.append(tx_sim_forward(x, tx_pairs, model.params.layers(q, "theta")))
    fields = channel_layer(sent[0], sent[1], link_pairs)
    received = []
    for q, f_q in zip((1, 2), fields):
        # the model holds the outward factors; the RX stage maps inward
        rx_pairs = [planes(m.T) for m in model.rx_factors[q - 1]]
        r_q = rx_sim_forward(f_q, rx_pairs, model.params.layers(q, "xi"))
        r_q = ag.add(r_q, complex_to_pair_batch(noise[q - 1]))
        received.append(emnn.rx_dnn_forward(ag.scale(r_q, model.rx_scale),
                                            model.params, q, training))
    return ag.concat([received[1], received[0]], axis=1)
