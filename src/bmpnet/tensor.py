"""Dense tensor operators built around the Bhattacharya-Mesner product.

A tensor here is a plain ``numpy.ndarray`` in row-major layout.  The same
code paths serve two scalar modes: ``float64`` arrays for numerical work,
and object arrays of ``fractions.Fraction`` for exact rational arithmetic
where no rounding is tolerated.  Slots (axes) are 0-based throughout.
"""

from fractions import Fraction

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


def float_array(values):
    """Build a float64 ndarray, converting Fractions if present."""
    arr = np.asarray(values)
    if arr.dtype == object:
        out = np.empty(arr.shape, dtype=np.float64)
        for idx in np.ndindex(arr.shape):
            out[idx] = float(arr[idx])
        return out
    return arr.astype(np.float64)


def is_exact(t):
    """True when ``t`` is an object array (exact rational mode)."""
    return np.asarray(t).dtype == object


def zeros_matching(shape, like):
    """Zero tensor of the given shape in the scalar mode of ``like``."""
    if is_exact(like):
        out = np.empty(shape, dtype=object)
        out[...] = Fraction(0)
        return out
    return np.zeros(shape, dtype=np.float64)


def _rational_nonzero(t):
    """Boolean nonzero mask of an object array whose entries are all
    ints or Fractions; None for any other array (float, or an object
    array holding floats, whose zeros must still meet NaN and inf)."""
    if t.dtype != object or not all(isinstance(v, (int, Fraction))
                                    for v in t.flat):
        return None
    return t != 0


def _slab(f, k, h):
    """View of ``f`` at index ``h`` of its slot ``k``, kept at extent 1."""
    return f[(slice(None),) * k + (slice(h, h + 1),)]


def bmp(factors):
    """Bhattacharya-Mesner product of ``d`` tensors of order ``d``.

    Factor ``k`` (0-based) carries the shared extent ``l`` in its slot
    ``k``; the remaining slots must agree across factors and give the
    result shape.  Entrywise, the result at index ``(i_0, ..., i_{d-1})``
    is the sum over ``h < l`` of the product of factor ``k`` evaluated at
    that index with ``i_k`` replaced by ``h``.

    Requires at least two factors (the order-1 case is degenerate).
    Works for float64 and exact object arrays alike.
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
    out_shape = []
    for j in range(d):
        sizes = {f.shape[j] for k, f in enumerate(factors) if k != j}
        if len(sizes) != 1:
            raise ShapeMismatch(
                "slot %d extents disagree across factors: %s"
                % (j, sorted(sizes)))
        out_shape.append(sizes.pop())
    out_shape = tuple(out_shape)

    ref = next((f for f in factors if is_exact(f)), factors[0])
    out = zeros_matching(out_shape, ref)
    masks = [_rational_nonzero(f) for f in factors]
    if all(m is not None for m in masks):
        # Exact rationals only: a term with a zero factor adds exactly
        # zero, so multiply just where every factor slice is nonzero.
        for h in range(l):
            live = np.ones(out_shape, dtype=bool)
            for k, m in enumerate(masks):
                live &= _slab(m, k, h)
            where = np.nonzero(live)
            if not where[0].size:
                continue
            term = None
            for k, f in enumerate(factors):
                piece = np.broadcast_to(_slab(f, k, h), out_shape)[where]
                term = piece if term is None else term * piece
            out[where] = out[where] + term
        return out
    for h in range(l):
        term = None
        for k, f in enumerate(factors):
            piece = _slab(f, k, h)
            term = piece if term is None else term * piece
        out = out + term
    return out


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


def forget(t, slots, extents):
    """Insert free slots at the given 0-based result positions.

    The result has order ``t.ndim + len(slots)`` and does not vary along
    the inserted slots; ``extents`` supplies their sizes (the operation
    itself cannot know them).  Erasing the inserted slots from a result
    index recovers the source index.
    """
    t = np.asarray(t)
    slots = list(slots)
    extents = list(extents)
    if len(slots) != len(extents):
        raise BadIndexSet("need one extent per inserted slot")
    if len(set(slots)) != len(slots):
        raise BadIndexSet("duplicate slots: %s" % sorted(slots))
    d_out = t.ndim + len(slots)
    for s in slots:
        if not 0 <= s < d_out:
            raise BadIndexSet("slot %d out of range for order %d" % (s, d_out))
    for e in extents:
        if e < 1:
            raise ShapeMismatch("slot extents must be positive")
    out = t
    target = {}
    # inserting at ascending final positions keeps earlier insertions put
    for s, e in sorted(zip(slots, extents)):
        out = np.expand_dims(out, axis=s)
        target[s] = e
    shape = [target.get(j, sz) for j, sz in enumerate(out.shape)]
    return np.broadcast_to(out, shape).copy()


def contraction(t, slots):
    """Sum over the given 0-based slots, dropping them from the order.

    An empty slot set returns a copy; contracting every slot yields an
    order-0 tensor holding the total sum.
    """
    t = np.asarray(t)
    slots = list(slots)
    if len(set(slots)) != len(slots):
        raise BadIndexSet("duplicate slots: %s" % sorted(slots))
    for s in slots:
        if not 0 <= s < t.ndim:
            raise BadIndexSet("slot %d out of range for order %d" % (s, t.ndim))
    if not slots:
        return t.copy()
    return np.asarray(t.sum(axis=tuple(sorted(slots))))


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
    one = Fraction(1) if exact else 1.0
    out = zeros_matching(shape, exact_array([0]) if exact else np.zeros(1))
    for i in range(a):
        for j in range(b):
            for k in range(c):
                out[i * b + j, j * c + k, k * a + i] = one
    return out


def frobenius_sq(t):
    """Sum of squared entries; a Fraction in exact mode, float otherwise.
    Exact mode squares only the nonzero entries."""
    t = np.asarray(t)
    if is_exact(t):
        return sum((x * x for x in t[np.nonzero(t)]), Fraction(0))
    return float(np.sum(t.astype(np.float64) ** 2))


def frobenius(t):
    """Frobenius norm as a float (exact inputs are squared exactly first)."""
    import math
    return math.sqrt(float(frobenius_sq(t)))


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
    """Nested row lists of JSON scalars."""
    return [[scalar_to_json(v) for v in row] for row in np.asarray(mat)]


def matrix_from_json(rows, exact=False):
    """Inverse of :func:`matrix_to_json`: a Fraction or float64 matrix."""
    vals = [[scalar_from_json(v, exact=exact) for v in row] for row in rows]
    return exact_array(vals) if exact else np.array(vals, dtype=np.float64)


def tensor_to_json(t):
    """Serialise as ``{"dims": [...], "data": [...]}`` with row-major data."""
    t = np.asarray(t)
    data = [scalar_to_json(v) for v in t.ravel(order="C")]
    return {"dims": list(t.shape), "data": data}


def tensor_from_json(obj, exact=False):
    dims = tuple(int(d) for d in obj["dims"])
    data = obj["data"]
    expected = 1
    for d in dims:
        expected *= d
    if len(data) != expected:
        raise ShapeMismatch(
            "data length %d does not match dims %s" % (len(data), list(dims)))
    vals = [scalar_from_json(v, exact=exact) for v in data]
    if exact:
        out = np.empty(len(vals), dtype=object)
        out[:] = vals
        return out.reshape(dims)
    return np.array(vals, dtype=np.float64).reshape(dims)
