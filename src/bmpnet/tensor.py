"""Dense tensor operators built around the Bhattacharya-Mesner product.

A tensor here is a plain ``numpy.ndarray`` in row-major layout.  The same
code paths serve two scalar modes: ``float64`` arrays for numerical work,
and object arrays of ``fractions.Fraction`` for exact rational arithmetic
where no rounding is tolerated.  Exact products and sums run on scaled
integers: each exact tensor is converted once to integers over a common
denominator (:func:`scaled`), the arithmetic runs in int64 while a bound
computed in Python ints allows it and in Python ints past it
(:func:`fit_integers`), and the result becomes Fractions once
(:func:`unscaled`).  Integer arrays, signed or unsigned, stay integers.
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


def is_exact(t):
    """True when ``t`` is an object array (exact rational mode)."""
    return np.asarray(t).dtype == object


def zeros_matching(shape, like):
    """Zero tensor of the given shape in the scalar mode of ``like``:
    for an object array, int zeros if its first entry is a Python int
    (scaled integers past int64), else Fraction zeros; zeros of its own
    dtype for an integer array, float64 zeros otherwise."""
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


def scaled(t):
    """Scaled integers of an exact tensor: ``(ints, denom)`` with
    ``t == ints / denom`` entrywise, ``denom`` the lcm of the entries'
    denominators.  ``ints`` is int64 when every entry is below 2^62 in
    magnitude, else an object array of Python ints.  Each stored entry is
    read once, and a broadcast view gives a broadcast view.  An integer
    array, signed or unsigned, is its own scaled form, over 1.  None for
    any other array (float, or an object array holding floats, whose
    zeros must still meet NaN and inf)."""
    t = np.asarray(t)
    if t.dtype.kind in "iu":
        return t, 1
    if t.dtype != object:
        return None
    core = _core(t)
    vals = core.ravel().tolist()
    if not set(map(type, vals)) <= {int, Fraction}:
        return None
    denom = math.lcm(*set(map(attrgetter("denominator"), vals)))
    nums = list(map(attrgetter("numerator"), vals)) if denom == 1 else [
        v.numerator * (denom // v.denominator) for v in vals]
    wide = max(map(abs, nums), default=0) >= _INT64_BOUND
    ints = np.array(nums, dtype=object if wide else np.int64).reshape(
        core.shape)
    if core.shape != t.shape:
        ints = np.broadcast_to(ints, t.shape)
    return ints, denom


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
    """Integer arrays made ready for a sum of ``terms`` products of one
    entry of each, plus ``plus``: int64 while ``terms * prod(max |a|) +
    plus`` (each maximum taken as at least 1, so that every partial
    product is bounded too), computed in Python ints, stays below 2^62;
    else object arrays of Python ints.  No result wraps."""
    wide = any(a.dtype == object for a in arrays) or terms * math.prod(
        max(_max_abs(a), 1) for a in arrays) + plus >= _INT64_BOUND
    return [a.astype(object if wide else np.int64, copy=False)
            for a in arrays]


def _product(factors):
    """The product :func:`bmp` defines, as one ``einsum`` with the shared
    label d in slot k of factor k: of integer factors that
    :func:`fit_integers` made ready, exact in any order, or of factors
    cast to one float (or object) dtype."""
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
    Every scalar mode is multiplied by one ``einsum`` (:func:`_product`).
    Exact factors (ints and Fractions) are multiplied as scaled integers
    (:func:`scaled`), in int64 while ``l * prod(max |f_k|)`` allows it
    and in Python ints past it, and the result is rescaled once to
    Fractions; integer arrays give an integer result.  Other factors are
    first cast to ``np.result_type(np.float64, *factors)``, so integers
    meet floats as floats, and object arrays holding floats stay object.
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

    pairs = [scaled(f) for f in factors]
    if all(p is not None for p in pairs):
        out = _product(fit_integers([p[0] for p in pairs], l))
        if not any(map(is_exact, factors)):
            return out
        return unscaled(out, math.prod(p[1] for p in pairs))
    dtype = np.result_type(np.float64, *factors)
    return _product([f.astype(dtype, copy=False) for f in factors])


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
    order-0 tensor holding the total sum.  Exact and integer tensors are
    summed as integers, in int64 while ``max |t|`` times the contracted
    extents allows it.
    """
    t = np.asarray(t)
    slots = list(slots)
    _check_slots(slots, t.ndim)
    if not slots:
        return t.copy()
    axes = tuple(sorted(slots))
    pair = scaled(t)
    if pair is None:
        return np.asarray(t.sum(axis=axes))
    (ints,) = fit_integers([pair[0]],
                           math.prod(t.shape[s] for s in axes))
    out = np.asarray(ints.sum(axis=axes))
    return unscaled(out, pair[1]) if is_exact(t) else out


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
    """Sum of squared entries: a Fraction in exact mode, summed over
    scaled integers; a Python int for an integer array; a float
    otherwise."""
    t = np.asarray(t)
    pair = scaled(t)
    if pair is None:
        if is_exact(t):
            # an object array holding floats: the nonzero entries only
            live = t[t.astype(bool)]
            return np.add.reduce(live * live, initial=Fraction(0))
        return float(np.sum(t.astype(np.float64) ** 2))
    ints, denom = pair
    flat = np.ravel(ints)
    flat, _ = fit_integers([flat, flat], flat.size)
    total = int(np.dot(flat, flat))
    return Fraction(total, denom * denom) if is_exact(t) else total


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
