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
    return np.asarray(values).astype(np.float64)


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


# entries per intermediate of one block of the shared index in bmp
_BLOCK = 1 << 20


def _rational_nonzero(t):
    """Read-only boolean nonzero mask of an object array whose entries
    are all ints or Fractions; None for any other array (float, or an
    object array holding floats, whose zeros must still meet NaN and
    inf).  Types and zeros are read on the core, index 0 of every
    stride-0 (broadcast) axis, so each stored entry is read once."""
    if t.dtype != object:
        return None
    core = t[tuple(slice(0, 1) if step == 0 else slice(None)
                   for step in t.strides)]
    if not set(map(type, core.flat)) <= {int, Fraction}:
        return None
    return np.broadcast_to(core.astype(bool), t.shape)


def _slabs(f, k, h0, h1):
    """View of ``f`` at indices ``h0:h1`` of its slot ``k``, moved to a
    new leading axis; slot ``k`` is kept at extent 1."""
    block = f[(slice(None),) * k + (slice(h0, h1),)]
    return block[None].swapaxes(0, k + 1)


def bmp(factors):
    """Bhattacharya-Mesner product of ``d`` tensors of order ``d``.

    Factor ``k`` (0-based) carries the shared extent ``l`` in its slot
    ``k``; the remaining slots must agree across factors and give the
    result shape.  Entrywise, the result at index ``(i_0, ..., i_{d-1})``
    is the sum over ``h < l`` of the product of factor ``k`` evaluated at
    that index with ``i_k`` replaced by ``h``.

    Requires at least two factors (the order-1 case is degenerate).
    Works for float64 and exact object arrays alike.  The shared index
    is stepped in blocks; a float result equals, bit for bit, the sum
    taken one ``h`` at a time in increasing order.
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
    step = max(1, min(l, _BLOCK // max(1, out.size)))
    masks = [_rational_nonzero(f) for f in factors]
    if all(m is not None for m in masks):
        # Exact rationals only: a term with a zero factor adds exactly
        # zero, so multiply just where every factor is nonzero.
        live = np.empty((step,) + out_shape, dtype=bool)
        for h0 in range(0, l, step):
            h1 = min(l, h0 + step)
            block = live[:h1 - h0]
            block[...] = True
            for k, m in enumerate(masks):
                block &= _slabs(m, k, h0, h1)
            where = np.unravel_index(np.flatnonzero(block), block.shape)
            term = None
            for k, f in enumerate(factors):
                at = where[1:k + 1] + (where[0] + h0,) + where[k + 2:]
                term = f[at] if term is None else term * f[at]
            np.add.at(out, where[1:], term)
        return out
    for h0 in range(0, l, step):
        h1 = min(l, h0 + step)
        term = _slabs(factors[0], 0, h0, h1)
        for k in range(1, d):
            term = term * _slabs(factors[k], k, h0, h1)
        # out + term_h0 + term_h0+1 + ..., added one h at a time
        sums = np.concatenate([out[None], term])
        out = np.add.accumulate(sums, axis=0, out=sums)[-1]
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


def _forget_view(t, slots, extents):
    """:func:`forget` without the copy: a read-only broadcast view of
    ``t`` whose inserted slots have stride 0."""
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
    return np.broadcast_to(out, shape)


def forget(t, slots, extents):
    """Insert free slots at the given 0-based result positions.

    The result has order ``t.ndim + len(slots)`` and does not vary along
    the inserted slots; ``extents`` supplies their sizes (the operation
    itself cannot know them).  Erasing the inserted slots from a result
    index recovers the source index.  The result is a fresh array.
    """
    return _forget_view(t, slots, extents).copy()


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
    axes = tuple(sorted(slots))
    mask = _rational_nonzero(t)
    if mask is None:
        return np.asarray(t.sum(axis=axes))
    # exact rationals: add only the nonzero entries
    return np.asarray(np.add.reduce(t, axis=axes, where=mask,
                                    initial=Fraction(0)))


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
        mask = _rational_nonzero(t)
        live = t[t.astype(bool) if mask is None else mask]
        return np.add.reduce(live * live, initial=Fraction(0))
    return float(np.sum(t.astype(np.float64) ** 2))


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
