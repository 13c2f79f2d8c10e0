"""The reverse-mode engine underneath the trainable network: complex
fields with real phase gradients, a tiny end-to-end gradient, and the
full-network finite-difference check.

Run: python demos/03_autodiff_and_gradcheck.py
"""

import numpy as np

import simfd.autograd as ag
from simfd.cli import full_grad_check
from simfd.config import miniature_config

rng = np.random.default_rng(0)

# --- complex fields -----------------------------------------------------------
z = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
theta = ag.Tensor(np.array([0.0, np.pi / 2, np.pi]), requires_grad=True)
rotated = ag.phase_shift(ag.Tensor(z), theta)
print("input field:   ", np.round(z, 3))
print("rotated by diag(exp(j theta)):", np.round(rotated.data, 3))


# --- a small trainable graph ----------------------------------------------------
# the rotated field meets a real layer as paired rows [re | im], whose two
# outputs are the logits of a binary cross-entropy
def forward():
    return ag.matmul(ag.to_pair(ag.phase_shift(ag.Tensor(z), theta)), w)


w = ag.Tensor(rng.standard_normal((6, 2)) * 0.5, requires_grad=True, name="w")
target = np.array([[1.0, 0.0]])
loss = ag.bce_with_logits(forward(), target)
ag.backward(loss)
print(f"\nscalar loss {float(loss.data):.4f}")
print("d loss / d theta:", np.round(theta.grad, 4))
print("|d loss / d w| max:", f"{np.abs(w.grad).max():.4f}")

# --- verify the phase gradient by central differences ---------------------------
h = 1e-6
fd = np.zeros(3)
for i in range(3):
    keep = theta.data[i]
    for sign in (+1, -1):
        theta.data[i] = keep + sign * h
        logits = forward().data
        l_val = (np.logaddexp(0.0, logits) - target * logits).sum()
        fd[i] += sign * l_val / (2 * h)
    theta.data[i] = keep
print("finite differences:", np.round(fd, 4),
      f" max |ad - fd| = {np.abs(theta.grad - fd).max():.2e}")

# --- the full network, every trainable scalar ------------------------------------
err = full_grad_check(miniature_config(), seed=0, batch=8)
print(f"\nfull-network gradient check: max relative error {err:.3e} "
      f"({'OK' if err < 1e-5 else 'FAILED'} at 1e-5)")
