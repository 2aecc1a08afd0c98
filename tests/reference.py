"""Slow, direct references for fast paths of the package: validation as a
forward pass over the validation rows and as a quadratic form of the
reconstructed tensor, central-difference gradients, snapping to a grid
by a minimum over all of it and by bisection entry by entry, slot norms
and gauge fixing slot by slot, the total tensor one joint state at a
time, the residual over every entry of the target tensor, the product
summed one shared index at a time, exact products, totals and
residuals taken in Fraction arithmetic, the validation moment from a
fresh product per chunk, and clipping norms from array reductions; and
one batch's gradients with fresh buffers.  Tests hold the package to
them; nothing here is used by the package."""

from bisect import bisect_left
from fractions import Fraction

import numpy as np

from bmpnet.network import lift, parent_positions
from bmpnet.scheme import BilinearScheme, forward_fast_batch, reconstruct
from bmpnet.tensor import _forget_view, frobenius_sq, is_exact, \
    matmul_tensor, zeros_matching
from bmpnet.training import GradBuffers, grad_analytic, mse
from bmpnet.verify import DEFAULT_GRID


def direct_scorer(val_set):
    """``score(scheme)``: the mean squared error of a forward pass over
    the validation rows, the scorer that ``training.scorer`` replaced."""
    va_rows, vb_rows, vt_rows = val_set
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


def fresh_grads(hk, f, ab_rows, target_rows):
    """``training.grad_analytic`` of one batch with the buffers ``fit``
    passes, made fresh for this call: arrays shaped as ``hk``, F and the
    target rows for its outputs (the squared errors not over the
    targets), and the :class:`GradBuffers` of the batch."""
    runs = np.broadcast_shapes(hk.shape[1:-2], ab_rows.shape[1:-2],
                               f.shape[:-2])
    out = (np.empty(hk.shape[:1] + runs + hk.shape[-2:]),
           np.empty(runs + f.shape[-2:]), np.empty_like(target_rows))
    return grad_analytic(hk, f, ab_rows, target_rows, out, GradBuffers(
        runs, ab_rows.shape[-2], f.shape[-1], f.shape[-2]))


def snap(x, grid):
    """The grid value nearest to x, by a minimum over the whole grid with
    exact distances; ties prefer smaller magnitude, then the negative
    candidate.  The reference for :func:`bisection_snapper` and for
    ``verify``'s ``searchsorted``."""
    xf = Fraction(float(x))
    return min((Fraction(g) for g in grid),
               key=lambda g: (abs(g - xf), abs(g), g))


def bisection_snapper(grid):
    """``snap(x)``: the grid value nearest to the scalar x, by bisection
    over the midpoints of the sorted grid, in exact arithmetic.  At a
    midpoint the tie goes to the smaller magnitude, then to the negative
    candidate."""
    points = sorted(set(Fraction(g) for g in grid))
    mids = [(lo + hi) / 2 for lo, hi in zip(points, points[1:])]

    def nearest(x):
        x = Fraction(float(x))
        i = bisect_left(mids, x)
        if i < len(mids) and mids[i] == x:
            return min(points[i:i + 2], key=lambda g: (abs(g), g))
        return points[i]
    return nearest


def round_each(scheme, grid=DEFAULT_GRID):
    """``verify.round_scheme`` entry by entry: the bisection snapper
    through ``np.vectorize``, the rounding that one ``searchsorted`` over
    whole factors replaced."""
    snap = np.vectorize(bisection_snapper(grid), otypes=[object])
    return BilinearScheme(n=scheme.n, r=scheme.r, H=snap(scheme.H),
                          K=snap(scheme.K), F=snap(scheme.F))


def slot_norms_each(scheme):
    """``verify.slot_contribution_norms`` slot by slot, each vector's
    entries converted with ``float()``: the bits the whole-array version
    must keep."""
    norms = []
    for s in range(scheme.r):
        h = np.asarray([float(v) for v in scheme.H[:, s]])
        k = np.asarray([float(v) for v in scheme.K[:, s]])
        f = np.asarray([float(v) for v in scheme.F[s, :]])
        norms.append(float(np.linalg.norm(h) * np.linalg.norm(k)
                           * np.linalg.norm(f)))
    return norms


def normalize_each(scheme):
    """``verify.normalize_slots`` slot by slot, each maximum a generator
    ``max`` over the column."""
    H = np.asarray(scheme.H).copy()
    K = np.asarray(scheme.K).copy()
    F = np.asarray(scheme.F).copy()
    for s in range(scheme.r):
        lam = max(abs(v) for v in H[:, s])
        mu = max(abs(v) for v in K[:, s])
        if lam != 0:
            H[:, s] = H[:, s] / lam
        if mu != 0:
            K[:, s] = K[:, s] / mu
        F[s, :] = F[s, :] * (lam * mu)
    return BilinearScheme(n=scheme.n, r=scheme.r, H=H, K=K, F=F)


def total_each(net):
    """``network.total_direct`` one joint state at a time: each entry the
    left-to-right product of the nodes' activation entries at it.  The
    network is assumed valid."""
    node_by_id = net.node_map()
    sizes = tuple(node_by_id[nid].states for nid in net.order)
    parents = [parent_positions(net, nid) for nid in net.order]
    acts = [np.asarray(net.activations[nid]) for nid in net.order]
    # exact before float before integer, so that no entry is truncated
    ref = max(acts, key=lambda a: (is_exact(a), a.dtype.kind not in "iu"))
    out = zeros_matching(sizes, ref)
    for idx in np.ndindex(sizes):
        val = None
        for j in range(len(sizes)):
            entry = acts[j][tuple(idx[p] for p in parents[j]) + (idx[j],)]
            val = entry if val is None else val * entry
        out[idx] = val
    return out


def residual_sq(scheme):
    """Squared Frobenius distance to the structure tensor, subtracting the
    dense target over all m^3 entries.  The reference for ``verify``'s
    subtraction on the target's support; an exact scheme is reconstructed
    with :func:`masked_bmp` and its squares summed as Fractions, the
    reference for ``verify``'s scaled integers."""
    n = scheme.n
    if not is_exact(scheme.H):
        return frobenius_sq(reconstruct(scheme) - matmul_tensor(n, n, n))
    m = n * n
    F_t = scheme.F.reshape(scheme.r, n, n).transpose(0, 2, 1).reshape(
        scheme.r, m)
    d = masked_bmp([_forget_view(scheme.H.T, [2], [m]),
                    _forget_view(scheme.K.T, [0], [m]),
                    _forget_view(F_t.T, [1], [m])]).transpose(1, 2, 0) \
        - matmul_tensor(n, n, n, exact=True)
    return sum((v * v for v in d.flat), Fraction(0))


def _rational_nonzero(t):
    """Read-only boolean nonzero mask of an object array of ints and
    Fractions, read on the core (index 0 of every stride-0 axis) and
    broadcast back."""
    core = t[tuple(slice(0, 1) if step == 0 else slice(None)
                   for step in t.strides)]
    return np.broadcast_to(core.astype(bool), t.shape)


def masked_bmp(factors):
    """Bhattacharya-Mesner product of exact factors (ints and Fractions)
    in Fraction arithmetic, one shared index at a time, multiplying only
    the terms whose factors are all nonzero: the exact product as it was
    taken before scaled integers, and the reference for them.  Factors
    are assumed well formed."""
    d = len(factors)
    factors = [np.asarray(f) for f in factors]
    l = factors[0].shape[0]
    out_shape = tuple(factors[(j + 1) % d].shape[j] for j in range(d))
    out = np.full(out_shape, Fraction(0), dtype=object)
    masks = [_rational_nonzero(f) for f in factors]
    for h in range(l):
        live = np.ones(out_shape, dtype=bool)
        for k, m in enumerate(masks):
            live &= np.take(m, [h], axis=k)
        where = np.nonzero(live)
        term = None
        for k, f in enumerate(factors):
            at = where[:k] + (np.full(len(where[0]), h),) + where[k + 1:]
            term = f[at] if term is None else term * f[at]
        np.add.at(out, where, term)
    return out


def masked_total(net):
    """Total tensor of an exact network: the lifted activations, as
    Fractions, multiplied by :func:`masked_bmp`."""
    q = len(net.order)
    if q == 1:
        return lift(net, 0)
    return masked_bmp([lift(net, q - 1)]
                      + [lift(net, k) for k in range(q - 1)])


def slot_loop_bmp(factors):
    """Bhattacharya-Mesner product summed one shared index at a time:
    ``out = out + term`` for h = 0, 1, ..., each term the left-to-right
    product of the factors' slices at h.  The float reference for
    ``tensor.bmp``, which must match it bit for bit.  Factors are
    assumed well formed."""
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


def chunked_fourth_moment(a, b):
    """``training.fourth_moment`` with a fresh broadcast product for each
    chunk of 1,024 rows, the formula its reused buffer replaced, which
    fixes the bits of the moment."""
    a_rows, b_rows = (x.reshape(len(x), -1) for x in (a, b))
    (count, m), chunk = a_rows.shape, 1024
    total = np.zeros((m * m, m * m))
    for start in range(0, count, chunk):
        x = (a_rows[start:start + chunk, :, None]
             * b_rows[start:start + chunk, None, :]).reshape(-1, m * m)
        total += x.T @ x
    return total / count


def array_global_norm(grads):
    """The Euclidean norm of each run's gradient block (R, A, P) that
    ``training.clip_gradients`` clips by, as array reductions: each
    array's squares summed, the A sums accumulated in order, one
    ``np.sqrt``."""
    squares = np.add.reduce(grads * grads, axis=-1)
    return np.sqrt(np.add.accumulate(squares, axis=-1)[:, -1])


def array_clip_gradients(grads, threshold):
    """``training.clip_gradients`` on the norms of
    :func:`array_global_norm`, the formula its Python-float norms
    replaced."""
    norm = array_global_norm(grads)
    if not norm.max() <= threshold:
        grads *= (threshold / np.maximum(norm, threshold))[:, None, None]
    return grads
