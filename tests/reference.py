"""Slow, direct references for fast paths of the package: validation as a
forward pass over the validation rows and as a quadratic form of the
reconstructed tensor, central-difference gradients,
snapping to a grid by a minimum over all of it, the residual over
every entry of the target tensor and the product summed one shared index
at a time.  Tests hold the package to them; nothing here is used by the
package."""

from fractions import Fraction

import numpy as np

from bmpnet.scheme import BilinearScheme, forward_fast_batch, reconstruct
from bmpnet.tensor import frobenius_sq, is_exact, matmul_tensor, \
    zeros_matching
from bmpnet.training import mse


def direct_scorer(val_set):
    """``score(scheme)``: the mean squared error of a forward pass over
    the validation rows, the scorer that ``training.scorer`` replaced."""
    va_rows, vb_rows, vt_rows = val_set.flat()
    return lambda scheme: mse(
        forward_fast_batch(scheme, va_rows, vb_rows), vt_rows)


def reconstruct_scorer(n, moment):
    """``score(scheme)`` of one run: the quadratic form of ``training.scorer``
    with the residual taken from ``scheme.reconstruct``, the scorer that the
    batched Khatri-Rao residual replaced."""
    target = matmul_tensor(n, n, n)

    def score(scheme):
        scheme = BilinearScheme(n, len(scheme.F), scheme.H, scheme.K, scheme.F)
        d = (reconstruct(scheme) - target).reshape(len(moment), -1)
        return float((d * (moment @ d)).sum())
    return score


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


def snap(x, grid):
    """The grid value nearest to x, by a minimum over the whole grid with
    exact distances; ties prefer smaller magnitude, then the negative
    candidate.  The reference for ``verify``'s bisection."""
    xf = Fraction(float(x))
    return min((Fraction(g) for g in grid),
               key=lambda g: (abs(g - xf), abs(g), g))


def residual_sq(scheme):
    """Squared Frobenius distance to the structure tensor, subtracting the
    dense target over all m^3 entries.  The reference for ``verify``'s
    subtraction on the target's support."""
    n = scheme.n
    return frobenius_sq(reconstruct(scheme) - matmul_tensor(
        n, n, n, exact=is_exact(scheme.H)))


def slot_loop_bmp(factors):
    """Bhattacharya-Mesner product summed one shared index at a time:
    ``out = out + term`` for h = 0, 1, ..., each term the left-to-right
    product of the factors' slices at h.  The float reference for
    ``tensor.bmp``, which steps h in blocks and must match it bit for
    bit.  Factors are assumed well formed."""
    d = len(factors)
    factors = [np.asarray(f) for f in factors]
    l = factors[0].shape[0]
    out_shape = tuple(factors[(j + 1) % d].shape[j] for j in range(d))
    out = zeros_matching(out_shape, factors[0])
    for h in range(l):
        term = None
        for k, f in enumerate(factors):
            piece = f[(slice(None),) * k + (slice(h, h + 1),)]
            term = piece if term is None else term * piece
        out = out + term
    return out
