"""Dense tensor operators built around the Bhattacharya-Mesner product.

A tensor here is a plain ``numpy.ndarray`` in row-major layout.  Each
public call decides its scalar mode once, at its entry (:func:`entry`):
integers (integer arrays, signed or unsigned, and object arrays of
Python ints), exact (object arrays of Python ints and Fractions, one
Fraction at least) or float (anything else, each array converted once to
float64).  Integer and exact products and sums run on scaled integers:
each array is converted once to integers over a common denominator, the
arithmetic runs in int64 while a bound computed in Python ints allows it
and in Python ints past it (:func:`fit_integers`), and the result becomes
Fractions once (:func:`unscaled`), only when some input held a Fraction.
Slots (axes) are 0-based throughout.
"""

import math
from fractions import Fraction
from operator import attrgetter

import numpy as np


class ShapeMismatch(ValueError):
    """Operand dimensions are inconsistent with the requested operation."""


class ArityMismatch(ValueError):
    """Wrong number of operands, or an operand of the wrong order."""


class BadIndexSet(ValueError):
    """A slot-index set is out of range or contains duplicates."""


def exact_array(values):
    """Build an object ndarray whose entries are all ``Fraction``.

    Accepts nested lists or an ndarray; entries may be ints, floats,
    strings like ``"1/2"``, or Fractions already.  Conversion from float
    is exact (binary expansion), so round-tripping float data through
    this helper loses nothing.
    """
    arr = np.array(values, dtype=object)
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        v = arr[idx]
        out[idx] = v if isinstance(v, Fraction) else Fraction(v)
    return out


def zeros_matching(shape, like):
    """Zero tensor of the given shape in the scalar mode of ``like``:
    for an object array, int zeros if its first entry is a Python int
    (scaled integers past int64), else Fraction zeros; zeros of its own
    dtype for an integer array, float64 zeros otherwise, bool included."""
    like = np.asarray(like)
    if like.dtype == object:
        out = np.empty(shape, dtype=object)
        out[...] = 0 if type(next(like.flat, None)) is int else Fraction(0)
        return out
    if like.dtype.kind in "iu":
        return np.zeros(shape, dtype=like.dtype)
    return np.zeros(shape, dtype=np.float64)


def _padded(t, r):
    """``t`` zero-padded to extent r along every axis, in its own scalar
    mode (see :func:`zeros_matching`)."""
    out = zeros_matching((r,) * t.ndim, t)
    out[tuple(map(slice, t.shape))] = t
    return out


# int64 carries a computation only while a bound on the magnitude of
# every partial result, computed in Python ints, stays below this
_INT64_BOUND = 1 << 62


def _core(t):
    """The entries ``t`` stores: index 0 of every stride-0 (broadcast)
    axis, kept at extent 1."""
    if 0 not in t.strides:
        return t
    return t[(...,) + tuple(slice(0, 1) if step == 0 else slice(None)
                            for step in t.strides)]


def read_mode(arrays):
    """``(mode, stored)``: the scalar mode of one call on the ndarrays
    ``arrays``, decided once at its entry, and the entries each object
    array stores, listed once from its core (None for other arrays).
    "int" when every array is an integer array, signed or unsigned, or
    an object array of Python ints; "exact" when some other entry is a
    Fraction; "float" when some array is a float or bool array, or an
    object array holding anything else (a float, a bool, a numpy
    scalar)."""
    stored = [_core(a).ravel().tolist() if a.dtype == object else None
              for a in arrays]
    types = set()
    for a, vals in zip(arrays, stored):
        types.update({int} if a.dtype.kind in "iu" else
                     {float} if vals is None else map(type, vals))
    return ("int" if types <= {int} else "exact" if types <= {int, Fraction}
            else "float"), stored


def entry(arrays):
    """``(mode, xs, denoms)``: one call's ``arrays`` in its scalar mode
    (:func:`read_mode`), each object array's entries read once, with
    ``xs[k] / denoms[k]`` equal to ``arrays[k]`` entrywise.  In float
    mode each is float64 over 1.  Otherwise each is its scaled integers
    over the lcm of its entries' denominators: an integer array is its
    own, over 1, and an object array's are int64 when every one is below
    2^62 in magnitude, else Python ints.  A broadcast view gives a
    broadcast view."""
    arrays = [np.asarray(a) for a in arrays]
    mode, stored = read_mode(arrays)
    xs, denoms = [], []
    for t, vals in zip(arrays, stored):
        denom = 1
        if vals is None:
            x = t.astype(np.float64, copy=False) if mode == "float" else t
        elif mode == "float":
            x = np.array(vals, dtype=np.float64)
        else:
            denom = math.lcm(*set(map(attrgetter("denominator"), vals)))
            nums = list(map(attrgetter("numerator"), vals)) if denom == 1 \
                else [v.numerator * (denom // v.denominator) for v in vals]
            wide = max(map(abs, nums), default=0) >= _INT64_BOUND
            x = np.array(nums, dtype=object if wide else np.int64)
        if vals is not None:
            x = x.reshape(t.shape) if 0 not in t.strides else \
                np.broadcast_to(x.reshape(_core(t).shape), t.shape)
        xs.append(x)
        denoms.append(denom)
    return mode, xs, denoms


def unscaled(ints, denom):
    """Object array of the Fractions ``ints / denom``, shared per value."""
    ints = np.asarray(ints)
    vals = ints.ravel().tolist()
    each = {v: Fraction(v, denom) for v in set(vals)}  # shared: immutable
    return np.fromiter(map(each.__getitem__, vals), object,
                       len(vals)).reshape(ints.shape)


def _max_abs(a):
    """Largest magnitude in an integer array, as a Python int."""
    if not a.size:
        return 0
    top = int(np.abs(a).max())
    # the most negative int64 is its own absolute value
    return top if top >= 0 else -int(a.min())


def fit_integers(arrays, terms, plus=0):
    """Integer arrays (object arrays of Python ints too) made ready for a
    sum of ``terms`` products of one entry of each, plus ``plus``: int64
    while ``terms * prod(max |a|) + plus`` (each maximum taken as at
    least 1, so that every partial product is bounded too), computed in
    Python ints, stays below 2^62; else object arrays of Python ints.  No
    result wraps."""
    wide = terms * math.prod(max(_max_abs(a), 1) for a in arrays) \
        + plus >= _INT64_BOUND
    return [a.astype(object if wide else np.int64, copy=False)
            for a in arrays]


def _product(factors):
    """The product :func:`bmp` defines, as one ``einsum`` with the shared
    label d in slot k of factor k: of integer factors that
    :func:`fit_integers` made ready, exact in any order, or of float64
    factors."""
    d = len(factors)
    return np.einsum(*(x for k, f in enumerate(factors) for x in (
        f, [*range(k), d, *range(k + 1, d)])), [*range(d)])


def bmp(factors):
    """Bhattacharya-Mesner product of ``d`` tensors of order ``d``.

    Factor ``k`` (0-based) carries the shared extent ``l`` in its slot
    ``k``; the remaining slots must agree across factors and give the
    result shape.  Entrywise, the result at index ``(i_0, ..., i_{d-1})``
    is the sum over ``h < l`` of the product of factor ``k`` evaluated at
    that index with ``i_k`` replaced by ``h``.

    Requires at least two factors (the order-1 case is degenerate).
    Every scalar mode (:func:`entry`) is multiplied by one ``einsum``
    (:func:`_product`).  Integer and exact factors are multiplied as
    scaled integers, in int64 while ``l * prod(max |f_k|)`` allows it and
    in Python ints past it, and the result is rescaled once to Fractions
    when some factor held a Fraction; integers give integers.  Otherwise
    every factor is multiplied as float64, so integers meet floats as
    floats and never wrap.
    """
    d = len(factors)
    if d < 2:
        raise ArityMismatch("bmp needs at least two factors, got %d" % d)
    factors = [np.asarray(f) for f in factors]
    for k, f in enumerate(factors):
        if f.ndim != d:
            raise ArityMismatch(
                "factor %d has order %d, expected %d" % (k, f.ndim, d))
    shared = {f.shape[k] for k, f in enumerate(factors)}
    if len(shared) != 1:
        raise ShapeMismatch("shared extents disagree: %s"
                            % sorted(shared))
    l = shared.pop()
    for j in range(d):
        sizes = {f.shape[j] for k, f in enumerate(factors) if k != j}
        if len(sizes) != 1:
            raise ShapeMismatch(
                "slot %d extents disagree across factors: %s"
                % (j, sorted(sizes)))

    mode, xs, denoms = entry(factors)
    if mode == "float":
        return _product(xs)
    out = _product(fit_integers(xs, l))
    return unscaled(out, math.prod(denoms)) if mode == "exact" else out


def blow(t):
    """Raise the order by one: duplicate the first slot onto a new last
    slot.  ``blow(t)[i0, ..., ik] = t[i0, ...]`` when ``ik == i0``, else 0.
    """
    t = np.asarray(t)
    if t.ndim < 1:
        raise ArityMismatch("blow needs a tensor of order >= 1")
    n0 = t.shape[0]
    out = zeros_matching(t.shape + (n0,), t)
    for i in range(n0):
        out[i, ..., i] = t[i, ...]
    return out


def _check_slots(slots, order):
    """Raise BadIndexSet unless the list ``slots`` holds distinct slots of
    a tensor of order ``order``."""
    if len(set(slots)) != len(slots):
        raise BadIndexSet("duplicate slots: %s" % sorted(slots))
    for s in slots:
        if not 0 <= s < order:
            raise BadIndexSet("slot %d out of range for order %d" % (s, order))


def _inserted(t, slots, extents):
    """``t`` with slots of extent 1 inserted at the 0-based result
    positions ``slots``, and the shape :func:`forget` widens it to."""
    t = np.asarray(t)
    slots = list(slots)
    extents = list(extents)
    if len(slots) != len(extents):
        raise BadIndexSet("need one extent per inserted slot")
    d_out = t.ndim + len(slots)
    _check_slots(slots, d_out)
    for e in extents:
        if e < 1:
            raise ShapeMismatch("slot extents must be positive")
    target = dict(zip(slots, extents))
    kept = iter(t.shape)
    ones = [1 if j in target else next(kept) for j in range(d_out)]
    return t.reshape(ones), [target.get(j, sz) for j, sz in enumerate(ones)]


def _forget_view(t, slots, extents):
    """:func:`forget` without the copy: a read-only broadcast view of
    ``t`` whose inserted slots have stride 0."""
    return np.broadcast_to(*_inserted(t, slots, extents))


def _widened(t, shape):
    """A fresh array of ``shape`` holding ``t`` broadcast to it."""
    out = np.empty(shape, dtype=t.dtype)
    out[...] = t
    return out


def forget(t, slots, extents):
    """Insert free slots at the given 0-based result positions.

    The result has order ``t.ndim + len(slots)`` and does not vary along
    the inserted slots; ``extents`` supplies their sizes (the operation
    itself cannot know them).  Erasing the inserted slots from a result
    index recovers the source index.  The result is a fresh array.
    """
    return _widened(*_inserted(t, slots, extents))


def contraction(t, slots):
    """Sum over the given 0-based slots, dropping them from the order.

    An empty slot set returns a copy; contracting every slot yields an
    order-0 tensor holding the total sum.  Integer and exact tensors are
    summed as integers, in int64 while ``max |t|`` times the contracted
    extents allows it; others as float64 (:func:`entry`).
    """
    t = np.asarray(t)
    slots = list(slots)
    _check_slots(slots, t.ndim)
    if not slots:
        return t.copy()
    axes = tuple(sorted(slots))
    mode, (x,), (denom,) = entry([t])
    if mode == "float":
        return np.asarray(x.sum(axis=axes))
    (ints,) = fit_integers([x], math.prod(t.shape[s] for s in axes))
    out = np.asarray(ints.sum(axis=axes))
    return unscaled(out, denom) if mode == "exact" else out


def matmul_tensor(a, b, c, exact=False):
    """Structure tensor of the bilinear map (A, B) -> AB for A of shape
    a x b and B of shape b x c, as an order-3 tensor of shape
    (a*b, b*c, c*a) over row-major matrix flattening.

    Entry ``[i*b + j, j*c + k, k*a + i]`` is 1; all others are 0.  Its
    contractions against flattened operands reproduce matrix product
    entries, which is the invariant the tests pin down.
    """
    for ext in (a, b, c):
        if ext < 1:
            raise ShapeMismatch("matrix extents must be positive")
    shape = (a * b, b * c, c * a)
    out = zeros_matching(shape, exact_array([0]) if exact else np.zeros(1))
    i, j, k = np.indices((a, b, c)).reshape(3, -1)
    out[i * b + j, j * c + k, k * a + i] = Fraction(1) if exact else 1.0
    return out


def frobenius_sq(t):
    """Sum of squared entries (:func:`entry`): a Fraction in exact mode
    and a Python int in integer mode, summed over scaled integers; a
    float otherwise."""
    mode, (x,), (denom,) = entry([t])
    if mode == "float":
        return float(np.sum(x ** 2))
    flat = np.ravel(x)
    flat, _ = fit_integers([flat, flat], flat.size)
    total = int(np.dot(flat, flat))
    return Fraction(total, denom * denom) if mode == "exact" else total


def scalar_to_json(v):
    """JSON-encode one scalar: ints stay ints, other rationals become
    'p/q' strings, floats stay floats (exact round-trip via repr)."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return "%d/%d" % (v.numerator, v.denominator)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def scalar_from_json(v, exact=False):
    if exact:
        return Fraction(v)
    return float(Fraction(v)) if isinstance(v, str) else float(v)


def matrix_to_json(mat):
    """Nested row lists of JSON scalars; a float64 matrix converts in one
    ``tolist``, which gives what :func:`scalar_to_json` gives."""
    mat = np.asarray(mat)
    if mat.dtype == np.float64:
        return mat.tolist()
    return [[scalar_to_json(v) for v in row] for row in mat]


def matrix_from_json(rows, exact=False):
    """Inverse of :func:`matrix_to_json`: a Fraction or float64 matrix."""
    vals = [[scalar_from_json(v, exact=exact) for v in row] for row in rows]
    return exact_array(vals) if exact else np.array(vals, dtype=np.float64)
