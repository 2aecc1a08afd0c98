"""Rank-r bilinear schemes for n x n matrix multiplication.

A scheme holds three factor matrices H, K (both n^2 x r) and F (r x n^2).
It computes ``vec(AB) = F^T ((H^T vec A) * (K^T vec B))`` where ``*`` is
the entrywise product, so ``r`` counts the scalar multiplications.  Two
forward routes are provided: the direct vectorised one above, and an
equivalent pipeline phrased purely in tensor-network operations, kept as
an independent cross-check of the calculus.
"""

import math
from dataclasses import dataclass

import numpy as np

from .network import strassen_pipeline
from .tensor import (
    ShapeMismatch,
    _forget_view,
    bmp,
    float_array,
    matrix_from_json,
    matrix_to_json,
    matmul_tensor,
    zeros_matching,
)


class RankTooSmall(ValueError):
    """The tensor-network route needs r >= n^2 to embed the operands."""


class NonFiniteEntries(ShapeMismatch):
    """A factor matrix holds NaN or inf."""


@dataclass
class BilinearScheme:
    """Factor triple of a rank-r scheme for n x n matrix product."""

    n: int
    r: int
    H: np.ndarray
    K: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ShapeMismatch("n and r must be positive")
        m = self.n * self.n
        self.H = np.asarray(self.H)
        self.K = np.asarray(self.K)
        self.F = np.asarray(self.F)
        if self.H.shape != (m, self.r):
            raise ShapeMismatch("H must be (n^2, r), got %s" % (self.H.shape,))
        if self.K.shape != (m, self.r):
            raise ShapeMismatch("K must be (n^2, r), got %s" % (self.K.shape,))
        if self.F.shape != (self.r, m):
            raise ShapeMismatch("F must be (r, n^2), got %s" % (self.F.shape,))
        for mat in (self.H, self.K, self.F):
            if mat.dtype != object and not np.all(np.isfinite(mat)):
                raise NonFiniteEntries("scheme entries must be finite")


def init_scheme(n, r, seed, alpha=1.0):
    """Draw H, K, F (in that order) with i.i.d. N(0, alpha^2) entries."""
    rng = np.random.default_rng(seed)
    m = n * n
    H = rng.normal(0.0, alpha, (m, r))
    K = rng.normal(0.0, alpha, (m, r))
    F = rng.normal(0.0, alpha, (r, m))
    return BilinearScheme(n=n, r=r, H=H, K=K, F=F)


def forward_fast(scheme, a_vec, b_vec):
    """vec(AB) from flattened operands via the r multiplications."""
    a_vec = np.asarray(a_vec)
    b_vec = np.asarray(b_vec)
    m = scheme.n * scheme.n
    if a_vec.shape != (m,) or b_vec.shape != (m,):
        raise ShapeMismatch("operands must be flat vectors of length n^2")
    u = scheme.H.T.dot(a_vec)
    w = scheme.K.T.dot(b_vec)
    return scheme.F.T.dot(u * w)


def forward_fast_batch(scheme, a_rows, b_rows):
    """Batched forward: rows of a_rows/b_rows are flattened operands.
    The factors and the rows may carry a leading run axis."""
    a_rows = np.asarray(a_rows)
    b_rows = np.asarray(b_rows)
    prods = (a_rows @ scheme.H) * (b_rows @ scheme.K)
    return prods @ scheme.F


def padded_square_factors(scheme):
    """Zero-pad the factors to r x r squares for the network pipeline.

    H and K gain zero rows below index n^2, F gains zero columns; the
    stored scheme itself always stays at its true rectangular shapes.
    """
    m = scheme.n * scheme.n
    r = scheme.r
    if r < m:
        raise RankTooSmall("need r >= n^2 to pad, got r=%d < %d" % (r, m))
    H_sq = zeros_matching((r, r), scheme.H)
    K_sq = zeros_matching((r, r), scheme.K)
    F_sq = zeros_matching((r, r), scheme.F)
    H_sq[:m, :] = scheme.H
    K_sq[:m, :] = scheme.K
    F_sq[:, :m] = scheme.F
    return H_sq, K_sq, F_sq


def forward_bmp(scheme, a_mat, b_mat):
    """vec(AB) via the tensor-network pipeline: the first n^2 coordinates
    of :func:`bmpnet.network.strassen_pipeline`, whose padding
    coordinates are identically zero.  Must agree with
    :func:`forward_fast`.
    """
    n = scheme.n
    if np.shape(a_mat) != (n, n) or np.shape(b_mat) != (n, n):
        raise ShapeMismatch("operands must be n x n matrices")
    return strassen_pipeline(a_mat, b_mat, scheme)[: n * n]


def reconstruct(scheme, n=None):
    """Order-3 tensor sum of the per-multiplication outer products.

    Equals the n x n matrix-product structure tensor exactly when the
    scheme is a true rank decomposition.  F rows hold coefficients on
    the row-major flattening of AB, whereas the structure tensor's last
    slot runs over the transposed layout, so each output factor is
    reindexed through that transpose first.  The sum over slots is one
    Bhattacharya-Mesner product of the three factors, each lifted to
    order 3 as a broadcast view (:func:`bmpnet.tensor.forget` without its
    copy), so each factor is stored once; its output slots come out
    as (f, h, k), so that every term multiplies h, k, f in that order.
    """
    if n is not None and n != scheme.n:
        raise ShapeMismatch(
            "requested size %d but the scheme multiplies %d x %d matrices"
            % (n, scheme.n, scheme.n)
        )
    n = scheme.n
    m = n * n
    F_t = scheme.F.reshape(scheme.r, n, n).transpose(0, 2, 1).reshape(
        scheme.r, m)
    out = bmp([_forget_view(scheme.H.T, [2], [m]),
               _forget_view(scheme.K.T, [0], [m]),
               _forget_view(F_t.T, [1], [m])])
    return out.transpose(1, 2, 0)


def residual_matrix(H, K, F, scale=1):
    """D = KR(H, K) @ F_t - scale * T, the residual of the factors as an
    (..., m^2, m) matrix in :func:`reconstruct`'s layout: KR is the
    column-wise Khatri-Rao product, F_t has F's columns in T's transposed
    layout, and ``scale`` is subtracted on T's n^3 support only.  D keeps
    the factors' dtype (float64, int64 or object); leading run axes give
    each run the same matrix products as alone."""
    m, r = H.shape[-2:]
    n = math.isqrt(m)
    kr = (H[..., :, None, :] * K[..., None, :, :]).reshape(
        H.shape[:-2] + (m * m, r))
    d = kr @ F[..., np.arange(m).reshape(n, n).T.ravel()]
    rows, cols = np.nonzero(matmul_tensor(n, n, n).reshape(m * m, m))
    d[..., rows, cols] -= scale
    return d


def scheme_to_json(scheme):
    """Serialise as ``{"n", "r", "H", "K", "F"}`` with nested row lists."""
    return {
        "n": scheme.n,
        "r": scheme.r,
        "H": matrix_to_json(scheme.H),
        "K": matrix_to_json(scheme.K),
        "F": matrix_to_json(scheme.F),
    }


def scheme_from_json(obj, exact=False):
    """Inverse of :func:`scheme_to_json`; a missing or malformed key
    raises ValueError naming it."""

    def get(key, parse):
        try:
            return parse(obj[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("scheme key %r is missing or malformed (%s: %s)"
                             % (key, type(exc).__name__, exc)) from None

    def mat(rows):
        return matrix_from_json(rows, exact=exact)

    return BilinearScheme(n=get("n", int), r=get("r", int), H=get("H", mat),
                          K=get("K", mat), F=get("F", mat))


def to_float(scheme):
    """float64 copy of a scheme."""
    return BilinearScheme(
        n=scheme.n,
        r=scheme.r,
        H=float_array(scheme.H),
        K=float_array(scheme.K),
        F=float_array(scheme.F),
    )
