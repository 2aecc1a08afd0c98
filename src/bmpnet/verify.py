"""Certification of bilinear schemes: residuals against the structure
tensor, snapping near-discrete factors to a rational grid, and the
classical rank-7 scheme for 2x2 product as a pinned reference.

Every residual is the norm of :func:`bmpnet.scheme.residual_matrix`,
as is training's validation loss.  Float residuals measure how close a
trained scheme is; exact factors give a zero residual as a proof.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scheme import BilinearScheme, residual_matrix
# imported only for perfbench/tracing.py, which wraps it in this module
from .scheme import reconstruct  # noqa: F401
from .tensor import (
    ShapeMismatch,
    _max_abs,
    entry,
    exact_array,
    fit_integers,
    frobenius_sq,
)
# imported only for perfbench/tracing.py, which wraps it in this module
from .tensor import matmul_tensor  # noqa: F401

# snapping grid for trained factors; entries of published schemes for
# small n are drawn from exactly these values
DEFAULT_GRID = (
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
)


@dataclass
class VerifyReport:
    """Outcome of checking one scheme against the structure tensor."""

    n: int
    r: int
    residual: float
    exact_zero: bool = None
    slot_norms: list = None
    note: str = ""

    def to_json(self):
        return {
            "n": self.n,
            "r": self.r,
            "residual": self.residual,
            "exact_zero": self.exact_zero,
            "slot_norms": list(self.slot_norms or []),
            "note": self.note,
        }


def _residual_sq(scheme, n, factors=None):
    """Squared Frobenius norm of the scheme's :func:`residual_matrix`: a
    Fraction when every factor is integer or exact, a float otherwise.
    The factors are read in one scalar mode (``factors``, the
    :func:`entry` of H, K and F, if at hand).  Integer and exact factors
    are scaled to integers over the lcm of their denominators, D is taken
    against denom * T, ``denom`` the product of the three, by
    :func:`fit_integers` in int64 or Python ints, and the residual is
    sum(D^2) / denom^2.  Float factors form D in float64."""
    if scheme.n != n:
        raise ShapeMismatch("scheme is for n=%d, asked about n=%d"
                            % (scheme.n, n))
    mode, xs, denoms = factors or entry([scheme.H, scheme.K, scheme.F])
    if mode == "float":
        return frobenius_sq(residual_matrix(*xs))
    denom = math.prod(denoms)
    h, k, f = fit_integers(xs, scheme.r, denom)
    return Fraction(frobenius_sq(residual_matrix(h, k, f, denom)),
                    denom * denom)


def residual_sq_exact(scheme, n):
    """Exact squared residual as a Fraction; zero iff the scheme is a
    true decomposition.  Requires every factor to be integer or exact."""
    factors = entry([scheme.H, scheme.K, scheme.F])
    if factors[0] == "float":
        raise ShapeMismatch("exact residual needs integer or exact factors")
    return _residual_sq(scheme, n, factors)


def slot_contribution_norms(scheme, factors=None):
    """Frobenius norm of each rank-1 contribution h_s (x) k_s (x) f_s,
    which factorises as the product of the three vector norms.  Near-zero
    slots flag wasted rank.  Each factor is converted to floats once, from
    its :func:`entry` form (``factors``, if already at hand): a float one
    is float64 already, and an exact one converts as ``ints / denom``
    when both are below 2^53: they are doubles exactly, so each quotient
    is the correctly rounded ``float()`` of its entry.  Other factors
    convert entry by entry.  ``norm`` copies a strided vector to a
    contiguous one, so every norm is that of the vector's entries listed
    as floats."""
    def floats(m, ints, denom):
        if ints.dtype == np.float64:
            return ints
        if ints.dtype != np.int64 or max(_max_abs(ints), denom) >= 1 << 53:
            return np.asarray(m).astype(np.float64)
        return ints / denom

    _, xs, denoms = factors or entry([scheme.H, scheme.K, scheme.F])
    H, K, F = map(floats, (scheme.H, scheme.K, scheme.F), xs, denoms)
    norm = np.linalg.norm
    return [float(norm(h) * norm(k) * norm(f))
            for h, k, f in zip(H.T, K.T, F)]


def verify_scheme(scheme):
    """Full report: float residual always, exact verdict when every
    factor is integer or exact, as the residual then is.  The factors are
    read in one scalar mode and scaled once (:func:`entry`), for the
    residual and the slot norms both."""
    factors = entry([scheme.H, scheme.K, scheme.F])
    exact = factors[0] != "float"
    sq = _residual_sq(scheme, scheme.n, factors)
    return VerifyReport(
        n=scheme.n,
        r=scheme.r,
        residual=math.sqrt(float(sq)),
        exact_zero=(sq == 0) if exact else None,
        slot_norms=slot_contribution_norms(scheme, factors),
        note="exact rational arithmetic" if exact else "float arithmetic",
    )


def _snapper(grid):
    """``snap(mat)``: the grid values nearest to the entries of ``mat``.
    The entries, as doubles, are placed among the doubles nearest to the
    midpoints of the sorted grid by one ``searchsorted``, which is exact:
    no double lies strictly between a midpoint and its nearest double.
    An entry equal to one of those is settled in exact arithmetic, a tie
    going to the smaller magnitude, then to the negative candidate; NaN
    and inf raise as they do for ``Fraction``."""
    points = sorted(set(Fraction(g) for g in grid))
    mids = np.array([float((a + b) / 2) for a, b in zip(points, points[1:])])
    values = np.array(points, dtype=object)

    def snap(mat):
        x = np.asarray(mat).astype(np.float64)
        out = values[np.searchsorted(mids, x)]
        for i in zip(*np.nonzero(np.isin(x, mids) | ~np.isfinite(x))):
            exact = Fraction(x[i])
            out[i] = min(points, key=lambda g: (abs(g - exact), abs(g), g))
        return out
    return snap


def round_scheme(scheme, grid=DEFAULT_GRID):
    """Snap every factor entry to the nearest grid value, returning an
    exact-mode scheme ready for rational verification."""
    snap = _snapper(grid)
    return BilinearScheme(n=scheme.n, r=scheme.r, H=snap(scheme.H),
                          K=snap(scheme.K), F=snap(scheme.F))


def normalize_slots(scheme):
    """Gauge fix: rescale each slot so H and K columns have unit maximum
    magnitude, compensating in the matching F row.  Leaves the computed
    bilinear map unchanged; makes grids like {0, +-1/2, +-1} reachable."""
    H, K, F = (np.asarray(m).copy() for m in (scheme.H, scheme.K, scheme.F))
    lam, mu = (np.abs(t).max(axis=0) for t in (H, K))
    for t, scale in ((H, lam), (K, mu)):
        live = scale != 0
        t[:, live] = t[:, live] / scale[live]
    F[...] = F * (lam * mu)[:, None]
    return BilinearScheme(n=scheme.n, r=scheme.r, H=H, K=K, F=F)


def known_strassen():
    """The classical seven-multiplication scheme for 2x2 matrices, with
    exact integer entries.  Operand entries are flattened row-major, so
    index order is (1,1), (1,2), (2,1), (2,2)."""
    H = exact_array([
        [1, 0, 1, 0, 1, -1, 0],
        [0, 0, 0, 0, 1, 0, 1],
        [0, 1, 0, 0, 0, 1, 0],
        [1, 1, 0, 1, 0, 0, -1],
    ])
    K = exact_array([
        [1, 1, 0, -1, 0, 1, 0],
        [0, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 1],
        [1, 0, -1, 0, 1, 0, 1],
    ])
    F = exact_array([
        [1, 0, 0, 1],
        [0, 0, 1, -1],
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [-1, 1, 0, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ])
    return BilinearScheme(n=2, r=7, H=H, K=K, F=F)


def exponent(k, r):
    """Asymptotic exponent log_k(r) implied by a rank-r scheme for k x k
    product under recursive application."""
    if k < 2:
        raise ShapeMismatch("base extent must be at least 2")
    if r < 1:
        raise ShapeMismatch("rank must be positive")
    return math.log(r) / math.log(k)
