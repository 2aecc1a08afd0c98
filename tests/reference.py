"""Slow, direct references for fast paths of the package: validation as a
forward pass over the validation rows, and central-difference gradients.
Tests hold the package to them; nothing here is used by the package."""

import numpy as np

from bmpnet.scheme import BilinearScheme, forward_fast_batch
from bmpnet.training import mse


def direct_scorer(val_set):
    """``score(scheme)``: the mean squared error of a forward pass over
    the validation rows, the scorer that ``training.scorer`` replaced."""
    va_rows, vb_rows, vt_rows = val_set.flat()
    return lambda scheme: mse(
        forward_fast_batch(scheme, va_rows, vb_rows), vt_rows)


def within_gate(direct, form):
    """The quadratic form agrees with the forward pass: to 1e-12
    relative, plus 1e-15 times the root of the loss, since near a
    solution the forward pass itself loses digits."""
    return abs(direct - form) <= 1e-12 * form \
        + 1e-15 * max(direct, form) ** 0.5


def grad_fd(scheme, a_rows, b_rows, target_rows, h=1e-6):
    """Central-difference gradients, one coordinate at a time.  Slow by
    construction; exists to audit ``training.grad_analytic``."""

    def loss_for(H, K, F):
        s = BilinearScheme(n=scheme.n, r=scheme.r, H=H, K=K, F=F)
        return mse(forward_fast_batch(s, a_rows, b_rows), target_rows)

    mats = [np.array(scheme.H, dtype=np.float64),
            np.array(scheme.K, dtype=np.float64),
            np.array(scheme.F, dtype=np.float64)]
    grads = []
    for which in range(3):
        g = np.zeros_like(mats[which])
        for idx in np.ndindex(mats[which].shape):
            orig = mats[which][idx]
            mats[which][idx] = orig + h
            up = loss_for(*mats)
            mats[which][idx] = orig - h
            down = loss_for(*mats)
            mats[which][idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return tuple(grads)
