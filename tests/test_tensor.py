"""Tensor operator tests.

The product kernel is checked against ``naive_bmp`` below, an
independent implementation that walks every output index and shared
value with plain Python loops.  It is deliberately slow and obvious;
any disagreement points at the vectorised kernel.  Float products are
also held to ``reference.slot_loop_bmp``, which sums one shared index
at a time: to rounding, and bit for bit where every sum is exact.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from bmpnet.tensor import (
    ArityMismatch,
    BadIndexSet,
    ShapeMismatch,
    blow,
    bmp,
    contraction,
    exact_array,
    forget,
    frobenius_sq,
    matmul_tensor,
    scalar_from_json,
    scalar_to_json,
    zeros_matching,
)
from reference import assert_rounding_close, slot_loop_bmp


def naive_bmp(factors):
    """Reference product: loop over every output index and shared value.

    Factor k must carry the shared extent in its slot k; the output
    entry at (i_0..i_{d-1}) sums, over h, the product of factor k read
    at that index with i_k replaced by h.
    """
    d = len(factors)
    l = factors[0].shape[0]
    out_shape = tuple(factors[(j + 1) % d].shape[j] for j in range(d))
    out = zeros_matching(out_shape, factors[0])
    for idx in np.ndindex(out_shape):
        total = None
        for h in range(l):
            term = None
            for k, f in enumerate(factors):
                pos = list(idx)
                pos[k] = h
                v = f[tuple(pos)]
                term = v if term is None else term * v
            total = term if total is None else total + term
        out[idx] = total
    return out


def random_exact(rng, shape):
    """Object array of small random Fractions (halves and quarters)."""
    numer = rng.integers(-8, 9, size=shape)
    denom = rng.choice([1, 2, 4], size=shape)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = Fraction(int(numer[idx]), int(denom[idx]))
    return out


class TestBmp:
    def test_two_factor_is_reversed_matrix_product(self):
        """With factors (T1: l x n2, T2: n1 x l) the product is T2 @ T1."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            t1 = rng.normal(size=(3, 3))
            t2 = rng.normal(size=(3, 3))
            np.testing.assert_allclose(bmp([t1, t2]), t2 @ t1, atol=1e-12)

    def test_two_factor_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(bmp([np.eye(2), m]), m)

    def test_matches_naive_loops_float(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for _ in range(15):
                extents = [int(e) for e in rng.integers(1, 5, size=d)]
                l = int(rng.integers(1, 5))
                factors = []
                for k in range(d):
                    shape = list(extents)
                    shape[k] = l
                    factors.append(rng.normal(size=tuple(shape)))
                got = bmp(factors)
                want = naive_bmp(factors)
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_naive_loops_exact(self):
        """Dense and mostly-zero factors (zeros as plain ints) alike give
        Fraction entries equal to the reference."""
        rng = np.random.default_rng(7)
        for zero_frac in (0.0, 0.6):
            for d in (2, 3):
                for _ in range(8):
                    extents = [int(e) for e in rng.integers(1, 5, size=d)]
                    l = int(rng.integers(1, 5))
                    factors = []
                    for k in range(d):
                        shape = list(extents)
                        shape[k] = l
                        f = random_exact(rng, tuple(shape))
                        if zero_frac:
                            f[rng.random(size=f.shape) < zero_frac] = 0
                        factors.append(f)
                    got = bmp(factors)
                    want = naive_bmp(factors)
                    assert got.dtype == object
                    assert got.shape == want.shape
                    for idx in np.ndindex(got.shape):
                        assert got[idx] == want[idx]
                        assert type(got[idx]) is Fraction

    def test_integers_meet_floats_as_floats(self):
        """Integer factors beside a float one are cast to float64 before
        they multiply, so 2^40 * 2^40 does not wrap in int64, in any
        factor order; float32 and bool give float64, and so does an
        object array holding a float beside a Fraction."""
        big = np.full((1, 1, 1), 1 << 40, dtype=np.int64)
        ones = np.ones((1, 1, 1))
        for factors in permutations([big, big, ones]):
            got = bmp(list(factors))
            assert got.dtype == np.float64 and got[0, 0, 0] == 2.0 ** 80
        assert bmp([np.ones((2, 2), np.float32),
                    np.ones((2, 2), bool)]).dtype == np.float64
        held = np.array([[0.5, Fraction(1, 3)]], dtype=object)
        got = bmp([held, held.T.copy()])
        floats = held.astype(np.float64)
        assert got.dtype == np.float64
        assert got.tobytes() == bmp([floats, floats.T.copy()]).tobytes()

    def test_zero_times_nan_stays_nan(self):
        """A zero factor does not hide a NaN, in float arrays or in
        object arrays that hold floats beside Fractions, which multiply
        as float64."""
        zero = np.zeros((1, 1))
        nan = np.full((1, 1), np.nan)
        assert np.isnan(bmp([zero, nan])[0, 0])
        exact_zero = np.array([[Fraction(0)]], dtype=object)
        got = bmp([exact_zero, nan.astype(object)])
        assert got.dtype == np.float64 and np.isnan(got[0, 0])

    def test_float_bitwise_equals_slot_loop(self):
        """The float product equals the sum taken one index at a time to
        rounding, NaN and inf entries included, and integer-valued
        floats, whose sums are exact in any order, byte for byte."""
        def random_factors(draw, l_max):
            d = int(rng.integers(2, 5))
            extents = [int(e) for e in rng.integers(1, 5, size=d)]
            l = int(rng.integers(1, l_max))
            factors = []
            for k in range(d):
                shape = list(extents)
                shape[k] = l
                factors.append(draw(shape))
            return factors, l + d

        def close(factors, terms):
            want = slot_loop_bmp(factors)
            magnitude = slot_loop_bmp([np.abs(f) for f in factors])
            assert_rounding_close(bmp(factors), want, magnitude, terms)

        rng = np.random.default_rng(13)

        def normal(shape):
            f = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
            f[rng.random(size=f.shape) < 0.3] = 0.0
            f[rng.random(size=f.shape) < 0.2] = -0.0
            return f

        def integral(shape):
            return rng.integers(-9, 10, size=shape).astype(np.float64)

        for _ in range(150):
            close(*random_factors(normal, 60))
            factors, _ = random_factors(integral, 60)
            assert bmp(factors).tobytes() == slot_loop_bmp(factors).tobytes()
        # one NaN or +-inf entry per factor among magnitudes 1e-300 to
        # 1e300 that overflow and underflow
        rng = np.random.default_rng(17)
        specials = (np.nan, -np.nan, np.inf, -np.inf)

        def extreme(shape):
            f = rng.normal(size=shape) * 10.0 ** rng.integers(
                -300, 301, size=shape)
            f[rng.random(size=f.shape) < 0.2] = 0.0
            f.flat[rng.integers(f.size)] = specials[
                rng.integers(len(specials))]
            return f

        with np.errstate(all="ignore"):
            for _ in range(300):
                close(*random_factors(extreme, 40))

    def test_float_single_entry_long_sum(self):
        """An output of size 1 summed over many h stays the sequential
        sum (numpy's own sum of 16 or more values is pairwise)."""
        rng = np.random.default_rng(14)
        for l in (16, 17, 64, 257):
            factors = [rng.normal(size=(l, 1, 1)) * 1e8,
                       rng.normal(size=(1, l, 1)),
                       rng.normal(size=(1, 1, l))]
            got = bmp(factors)
            assert got.tobytes() == slot_loop_bmp(factors).tobytes()

    def test_float_across_blocks(self):
        """A product with 2**20 entries of output, and products of l
        from 2 to 29."""
        rng = np.random.default_rng(15)
        factors = [rng.normal(size=(3, 128, 64)),
                   rng.normal(size=(128, 3, 64)),
                   rng.normal(size=(128, 128, 3))]
        assert bmp(factors).tobytes() == slot_loop_bmp(factors).tobytes()
        for _ in range(30):
            extents = [int(e) for e in rng.integers(1, 4, size=3)]
            l = int(rng.integers(2, 30))
            factors = []
            for k in range(3):
                shape = list(extents)
                shape[k] = l
                factors.append(rng.normal(size=shape))
            got = bmp(factors)
            assert got.tobytes() == slot_loop_bmp(factors).tobytes()

    def test_exact_broadcast_views_equal_copies(self):
        """Factors lifted as read-only broadcast views give the product
        of their forget copies, and both equal the reference."""
        rng = np.random.default_rng(16)
        for _ in range(6):
            l, e0, e1, e2 = (int(e) for e in rng.integers(1, 5, size=4))
            mats = [random_exact(rng, (l, e1)), random_exact(rng, (l, e2)),
                    random_exact(rng, (e0, l))]
            for mat in mats:
                mat[rng.random(size=mat.shape) < 0.5] = 0
            lifts = [([2], [e2]), ([0], [e0]), ([1], [e1])]
            views = [np.broadcast_to(np.expand_dims(mat, s[0]),
                                     forget(mat, s, e).shape)
                     for mat, (s, e) in zip(mats, lifts)]
            copies = [forget(mat, s, e) for mat, (s, e) in zip(mats, lifts)]
            assert not any(v.flags.writeable for v in views)
            from_views = bmp(views)
            from_copies = bmp(copies)
            want = naive_bmp(copies)
            for idx in np.ndindex(want.shape):
                assert from_views[idx] == from_copies[idx] == want[idx]
                assert type(from_views[idx]) is Fraction

    def test_exact_broadcast_nan_still_propagates(self):
        """A float NaN in the stored entries of a broadcast object array
        makes the product float64, so 0 * NaN still gives NaN."""
        zero = np.full((2, 3), Fraction(0), dtype=object)
        stored = np.array([[Fraction(1), float("nan")]], dtype=object)
        nan_view = np.broadcast_to(stored, (3, 2))
        out = bmp([zero, nan_view])
        assert out.shape == (3, 3) and out.dtype == np.float64
        assert np.isnan(out).all()

    def test_order3_random_2x2x2(self):
        rng = np.random.default_rng(3)
        factors = [rng.normal(size=(2, 2, 2)) for _ in range(3)]
        np.testing.assert_allclose(bmp(factors), naive_bmp(factors),
                                   atol=1e-12)

    def test_rejects_single_factor(self):
        with pytest.raises(ArityMismatch):
            bmp([np.ones((2, 2))])

    def test_rejects_factor_count_not_matching_order(self):
        with pytest.raises(ArityMismatch):
            bmp([np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))])

    def test_rejects_shared_extent_mismatch(self):
        with pytest.raises(ShapeMismatch):
            bmp([np.ones((3, 2)), np.ones((2, 4))])

    def test_rejects_free_extent_mismatch(self):
        # slot 2 would need extent 7 per factor 0 but 9 per factor 1
        with pytest.raises(ShapeMismatch):
            bmp([np.ones((2, 3, 7)), np.ones((4, 2, 9)),
                 np.ones((4, 3, 2))])


class TestBlow:
    def test_vector_becomes_diagonal(self):
        out = blow(np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, np.diag([3.0, 4.0]))

    def test_matrix_entries(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(2, 3))
        out = blow(m)
        assert out.shape == (2, 3, 2)
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    want = m[i, j] if i == k else 0.0
                    assert out[i, j, k] == want

    def test_appends_first_extent(self):
        t = np.zeros((3, 2, 4))
        assert blow(t).shape == (3, 2, 4, 3)

    def test_exact_mode(self):
        v = exact_array(["1/2", 2])
        out = blow(v)
        assert out.dtype == object
        assert out[0, 0] == Fraction(1, 2)
        assert out[0, 1] == 0
        assert out[1, 1] == 2

    def test_rejects_scalar(self):
        with pytest.raises(ArityMismatch):
            blow(np.float64(1.0))


class TestForget:
    def test_insert_leading_slot_repeats_rows(self):
        v = np.array([5.0, 6.0])
        out = forget(v, [0], [2])
        np.testing.assert_array_equal(out, np.array([[5.0, 6.0],
                                                     [5.0, 6.0]]))

    def test_insert_trailing_slot_repeats_columns(self):
        v = np.array([5.0, 6.0])
        out = forget(v, [1], [2])
        np.testing.assert_array_equal(out, np.array([[5.0, 5.0],
                                                     [6.0, 6.0]]))

    def test_then_contract_scales_by_extent(self):
        rng = np.random.default_rng(9)
        for m in (2, 3):
            t = rng.normal(size=(2, 2))
            for slot in range(3):
                widened = forget(t, [slot], [m])
                back = contraction(widened, {slot})
                np.testing.assert_allclose(back, m * t, atol=1e-12)

    def test_multiple_slots(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = forget(t, [0, 3], [3, 5])
        assert out.shape == (3, 2, 2, 5)
        for a in range(3):
            for b in range(5):
                np.testing.assert_array_equal(out[a, :, :, b], t)

    def test_does_not_alias_input(self):
        t = np.ones((2,))
        out = forget(t, [0], [2])
        out[0, 0] = 7.0
        assert t[0] == 1.0

    def test_rejects_duplicate_slots(self):
        with pytest.raises(BadIndexSet):
            forget(np.ones((2,)), [1, 1], [2, 2])

    def test_rejects_out_of_range_slot(self):
        with pytest.raises(BadIndexSet):
            forget(np.ones((2,)), [2], [2])

    def test_rejects_extent_count_mismatch(self):
        with pytest.raises(BadIndexSet):
            forget(np.ones((2,)), [0], [2, 3])


class TestContraction:
    def test_first_slot_gives_column_sums(self):
        m = np.array([[1.0, 2.0], [30.0, 40.0]])
        np.testing.assert_array_equal(contraction(m, {0}),
                                      np.array([31.0, 42.0]))

    def test_all_slots_give_total_sum(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(2, 3, 2))
        out = contraction(t, {0, 1, 2})
        assert out.shape == ()
        np.testing.assert_allclose(out, t.sum(), atol=1e-12)

    def test_empty_set_copies(self):
        t = np.ones((2, 2))
        out = contraction(t, set())
        np.testing.assert_array_equal(out, t)
        out[0, 0] = 5.0
        assert t[0, 0] == 1.0

    def test_undoes_blow(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=5)
        np.testing.assert_array_equal(contraction(blow(v), {1}), v)
        t = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(contraction(blow(t), {2}), t)

    def test_composes_like_a_union(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            shape = tuple(int(e) for e in rng.integers(1, 4, size=d))
            t = rng.normal(size=shape)
            slots = list(range(d))
            rng.shuffle(slots)
            cut = int(rng.integers(1, d))
            j1 = sorted(slots[:cut])
            j2_original = sorted(slots[cut:cut + 1])
            if not j2_original:
                continue
            # renumber j2 into the post-j1 slot space
            j2 = [s - sum(1 for x in j1 if x < s) for s in j2_original]
            step = contraction(contraction(t, set(j1)), set(j2))
            merged = contraction(t, set(j1) | set(j2_original))
            np.testing.assert_allclose(step, merged, atol=1e-12)

    def test_exact_mostly_zero_equals_dense_sum(self):
        """Mostly-zero exact tensors sum as the dense object sum does, and
        the sums stay Fractions, also where every entry summed is zero."""
        rng = np.random.default_rng(10)
        t = random_exact(rng, (4, 3, 5))
        t[rng.random(size=t.shape) < 0.8] = 0
        t[:, 1, :] = 0
        for slots in ({0}, {1}, {0, 2}, {0, 1, 2}):
            got = contraction(t, slots)
            want = t.sum(axis=tuple(sorted(slots)))
            assert got.shape == np.shape(want)
            for idx in np.ndindex(got.shape):
                assert got[idx] == np.asarray(want)[idx]
                assert type(got[idx]) is Fraction

    def test_rejects_bad_slot(self):
        with pytest.raises(BadIndexSet):
            contraction(np.ones((2, 2)), {2})
        with pytest.raises(BadIndexSet):
            contraction(np.ones((2, 2)), [0, 0])


class TestMatmulTensor:
    def test_smallest_case(self):
        out = matmul_tensor(1, 1, 1)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 1.0

    def test_2x2x2_has_eight_ones(self):
        out = matmul_tensor(2, 2, 2)
        assert out.shape == (4, 4, 4)
        assert np.sum(out == 1.0) == 8
        assert np.sum(out == 0.0) == 64 - 8

    def test_entries_by_enumeration(self):
        a, b, c = 2, 3, 4
        out = matmul_tensor(a, b, c)
        want = np.zeros((a * b, b * c, c * a))
        for i in range(a):
            for j in range(b):
                for k in range(c):
                    want[i * b + j, j * c + k, k * a + i] = 1.0
        np.testing.assert_array_equal(out, want)

    def test_full_contraction_counts_triples(self):
        for n in (2, 3):
            total = contraction(matmul_tensor(n, n, n), {0, 1, 2})
            assert total == n ** 3
        assert contraction(matmul_tensor(2, 3, 4), {0, 1, 2}) == 24

    def test_exact_mode(self):
        out = matmul_tensor(2, 2, 2, exact=True)
        assert out.dtype == object
        assert out[0, 0, 0] == Fraction(1)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ShapeMismatch):
            matmul_tensor(0, 1, 1)


class TestScalarModes:
    def test_exact_array_parses_fraction_strings(self):
        arr = exact_array([["1/2", 2], [0.25, Fraction(3)]])
        assert arr.dtype == object
        assert arr[0, 0] == Fraction(1, 2)
        assert arr[1, 0] == Fraction(1, 4)
        assert arr[1, 1] == Fraction(3)

    def test_zeros_matching_follows_mode(self):
        z = zeros_matching((2, 2), exact_array([1]))
        assert z.dtype == object
        assert z[1, 1] == Fraction(0)
        z = zeros_matching((2,), np.zeros(1))
        assert z.dtype == np.float64

    def test_frobenius_exact(self):
        t = exact_array([[1, "1/2"]])
        assert frobenius_sq(t) == Fraction(5, 4)

    def test_frobenius_exact_sums_the_nonzeros(self):
        t = zeros_matching((4, 4, 4), exact_array([0]))
        t[1, 2, 3] = Fraction(-3, 2)
        t[3, 0, 0] = Fraction(2)
        got = frobenius_sq(t)
        assert got == Fraction(25, 4) and type(got) is Fraction
        got = frobenius_sq(zeros_matching((4, 4, 4), exact_array([0])))
        assert got == 0 and type(got) is Fraction

    def test_frobenius_float(self):
        t = np.array([3.0, 4.0])
        assert frobenius_sq(t) == 25.0


class TestJson:
    def test_scalar_forms(self):
        assert scalar_to_json(Fraction(3)) == 3
        assert scalar_to_json(Fraction(1, 2)) == "1/2"
        assert scalar_to_json(0.125) == 0.125
        assert scalar_from_json("1/2", exact=True) == Fraction(1, 2)
        assert scalar_from_json("1/2") == 0.5

