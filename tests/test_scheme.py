"""Bilinear scheme tests: initialisation, both forward routes, algebraic
invariances, and the reconstruction tensor."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from bmpnet.network import StateSizeMismatch, strassen_pipeline
from bmpnet.scheme import (
    BilinearScheme,
    RankTooSmall,
    forward_fast,
    forward_fast_batch,
    init_scheme,
    padded_square_factors,
    reconstruct,
    residual_matrix,
    scheme_from_json,
    scheme_to_json,
)
from bmpnet.tensor import (ShapeMismatch, exact_array, matmul_tensor,
                           zeros_matching)
from bmpnet.verify import known_strassen
from netgen import float_scheme
from reference import assert_rounding_close


def zero_scheme(n, r):
    m = n * n
    return BilinearScheme(n=n, r=r, H=np.zeros((m, r)),
                          K=np.zeros((m, r)), F=np.zeros((r, m)))


class TestInit:
    def test_deterministic(self):
        s1 = init_scheme(3, 23, 404, 1.0)
        s2 = init_scheme(3, 23, 404, 1.0)
        assert np.array_equal(s1.H, s2.H)
        assert np.array_equal(s1.K, s2.K)
        assert np.array_equal(s1.F, s2.F)

    def test_seed_changes_draws(self):
        s1 = init_scheme(3, 23, 1, 1.0)
        s2 = init_scheme(3, 23, 2, 1.0)
        assert not np.array_equal(s1.H, s2.H)

    def test_shapes(self):
        s = init_scheme(2, 7, 0, 1.0)
        assert s.H.shape == (4, 7)
        assert s.K.shape == (4, 7)
        assert s.F.shape == (7, 4)

    def test_draw_statistics(self):
        # about 1.2e6 entries pooled over H, K, F
        for alpha in (1.0, 0.5):
            s = init_scheme(20, 1000, 77, alpha)
            pool = np.concatenate([s.H.ravel(), s.K.ravel(), s.F.ravel()])
            assert pool.size >= 10 ** 6
            assert abs(pool.mean()) < 0.01 * alpha
            assert abs(pool.std() - alpha) < 0.01 * alpha

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            BilinearScheme(n=2, r=7, H=np.zeros((4, 6)),
                           K=np.zeros((4, 7)), F=np.zeros((7, 4)))
        with pytest.raises(ShapeMismatch):
            BilinearScheme(n=0, r=7, H=np.zeros((0, 7)),
                           K=np.zeros((0, 7)), F=np.zeros((7, 0)))

    def test_rejects_non_finite(self):
        h = np.zeros((4, 7))
        h[0, 0] = np.inf
        with pytest.raises(ShapeMismatch):
            BilinearScheme(n=2, r=7, H=h, K=np.zeros((4, 7)),
                           F=np.zeros((7, 4)))


class TestForwardFast:
    def test_zero_scheme(self):
        out = forward_fast(zero_scheme(2, 7), np.ones(4), np.ones(4))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_strassen_reproduces_products_exactly(self):
        rng = np.random.default_rng(41)
        s = known_strassen()
        for _ in range(10):
            a = exact_array(rng.integers(-5, 6, (2, 2)))
            b = exact_array(rng.integers(-5, 6, (2, 2)))
            out = forward_fast(s, a.reshape(4), b.reshape(4))
            want = a.dot(b).reshape(4)
            assert all(out[j] == want[j] for j in range(4))

    def test_strassen_float(self):
        rng = np.random.default_rng(42)
        s = float_scheme(known_strassen())
        a = rng.uniform(-1, 1, (2, 2))
        b = rng.uniform(-1, 1, (2, 2))
        out = forward_fast(s, a.reshape(4), b.reshape(4))
        np.testing.assert_allclose(out, (a @ b).reshape(4), atol=1e-12)

    def test_rank_one_closed_form(self):
        rng = np.random.default_rng(43)
        h = rng.normal(size=4)
        k = rng.normal(size=4)
        f = rng.normal(size=4)
        s = BilinearScheme(n=2, r=1, H=h[:, None], K=k[:, None],
                           F=f[None, :])
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        want = (h @ a) * (k @ b) * f
        np.testing.assert_allclose(forward_fast(s, a, b), want, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(44)
        s = init_scheme(3, 23, 5, 1.0)
        a_rows = rng.normal(size=(10, 9))
        b_rows = rng.normal(size=(10, 9))
        batch = forward_fast_batch(s, a_rows, b_rows)
        for i in range(10):
            np.testing.assert_allclose(
                batch[i], forward_fast(s, a_rows[i], b_rows[i]), atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeMismatch):
            forward_fast(zero_scheme(2, 7), np.ones(3), np.ones(4))


def forward_bmp(s, a, b):
    """vec(AB) through the tensor-network route: the first n^2
    coordinates of the padded pipeline output."""
    return strassen_pipeline(a, b, s)[:s.n * s.n]


class TestForwardBmp:
    def test_agrees_with_fast_route(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            n = int(rng.choice([2, 3]))
            m = n * n
            r = int(rng.integers(m, m + 6))
            s = init_scheme(n, r, int(rng.integers(0, 2 ** 31)), 1.0)
            a = rng.uniform(-1, 1, (n, n))
            b = rng.uniform(-1, 1, (n, n))
            fast = forward_fast(s, a.reshape(m), b.reshape(m))
            piped = forward_bmp(s, a, b)
            assert piped.shape == (m,)
            np.testing.assert_allclose(piped, fast, atol=1e-10)

    def test_strassen_identity_inputs(self):
        out = forward_bmp(known_strassen(), exact_array(np.eye(2)),
                          exact_array(np.eye(2)))
        assert [out[j] for j in range(4)] == [1, 0, 0, 1]

    def test_zero_operand_gives_zero(self):
        rng = np.random.default_rng(46)
        s = init_scheme(3, 23, 9, 1.0)
        out = forward_bmp(s, np.zeros((3, 3)), rng.normal(size=(3, 3)))
        np.testing.assert_array_equal(out, np.zeros(9))

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmall):
            forward_bmp(zero_scheme(2, 3), np.eye(2), np.eye(2))

    def test_operand_shape_error(self):
        with pytest.raises(StateSizeMismatch):
            forward_bmp(zero_scheme(2, 7), np.eye(3), np.eye(2))


class TestBilinearity:
    def test_linear_in_first_operand(self):
        rng = np.random.default_rng(47)
        s = init_scheme(2, 7, 3, 1.0)
        a1, a2, b = (rng.normal(size=4) for _ in range(3))
        alpha = float(rng.normal())
        lhs = forward_fast(s, alpha * a1 + a2, b)
        rhs = alpha * forward_fast(s, a1, b) + forward_fast(s, a2, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_linear_in_second_operand(self):
        rng = np.random.default_rng(48)
        s = init_scheme(3, 20, 4, 1.0)
        a, b1, b2 = (rng.normal(size=9) for _ in range(3))
        beta = float(rng.normal())
        lhs = forward_fast(s, a, beta * b1 + b2)
        rhs = beta * forward_fast(s, a, b1) + forward_fast(s, a, b2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestInvariances:
    def test_simultaneous_slot_permutation(self):
        rng = np.random.default_rng(49)
        s = init_scheme(2, 7, 6, 1.0)
        perm = rng.permutation(7)
        permuted = BilinearScheme(n=2, r=7, H=s.H[:, perm],
                                  K=s.K[:, perm], F=s.F[perm, :])
        for _ in range(5):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            np.testing.assert_allclose(forward_fast(permuted, a, b),
                                       forward_fast(s, a, b), atol=1e-10)

    def test_per_slot_scaling(self):
        rng = np.random.default_rng(50)
        s = init_scheme(2, 7, 8, 1.0)
        lam = rng.uniform(0.5, 2.0, 7) * rng.choice([-1, 1], 7)
        mu = rng.uniform(0.5, 2.0, 7) * rng.choice([-1, 1], 7)
        scaled = BilinearScheme(
            n=2, r=7,
            H=s.H * lam[None, :],
            K=s.K * mu[None, :],
            F=s.F / (lam * mu)[:, None],
        )
        for _ in range(5):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            np.testing.assert_allclose(forward_fast(scaled, a, b),
                                       forward_fast(s, a, b), atol=1e-10)


class TestReconstruct:
    def test_zero_scheme(self):
        out = reconstruct(zero_scheme(2, 7))
        np.testing.assert_array_equal(out, np.zeros((4, 4, 4)))

    def test_strassen_rebuilds_structure_tensor(self):
        out = reconstruct(known_strassen())
        want = matmul_tensor(2, 2, 2, exact=True)
        assert out.shape == (4, 4, 4)
        for idx in np.ndindex((4, 4, 4)):
            assert out[idx] == want[idx]

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(51)
        h = rng.normal(size=4)
        k = rng.normal(size=4)
        f = rng.normal(size=4)
        s = BilinearScheme(n=2, r=1, H=h[:, None], K=k[:, None],
                           F=f[None, :])
        out = reconstruct(s)
        # third slot runs over the transposed output layout
        f_t = f.reshape(2, 2).T.reshape(4)
        want = h[:, None, None] * k[None, :, None] * f_t[None, None, :]
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_additive_in_each_factor(self):
        rng = np.random.default_rng(52)
        base = init_scheme(2, 7, 10, 1.0)
        other = init_scheme(2, 7, 11, 1.0)
        sum_h = BilinearScheme(n=2, r=7, H=base.H + other.H, K=base.K,
                               F=base.F)
        with_other_h = BilinearScheme(n=2, r=7, H=other.H, K=base.K,
                                      F=base.F)
        np.testing.assert_allclose(
            reconstruct(sum_h),
            reconstruct(base) + reconstruct(with_other_h), atol=1e-12)
        sum_f = BilinearScheme(n=2, r=7, H=base.H, K=base.K,
                               F=base.F + other.F)
        with_other_f = BilinearScheme(n=2, r=7, H=base.H, K=base.K,
                                      F=other.F)
        np.testing.assert_allclose(
            reconstruct(sum_f),
            reconstruct(base) + reconstruct(with_other_f), atol=1e-12)


def reconstruct_by_slots(s):
    """Reference: add the outer products h_s (x) k_s (x) f_s one slot at a
    time, in slot order, starting from zero in the scheme's scalar mode."""
    m = s.n * s.n
    out = zeros_matching((m, m, m), s.H)
    for t in range(s.r):
        f = s.F[t, :].reshape(s.n, s.n).T.reshape(m)
        out = out + (s.H[:, t][:, None, None] * s.K[:, t][None, :, None]
                     * f[None, None, :])
    return out


class TestReconstructMatchesSlotLoop:
    """The single product of lifted factors adds the same terms as the
    per-slot loop: exact results agree exactly, floats to rounding, and
    bit for bit where every sum is exact."""

    @pytest.mark.parametrize("n, r", [(1, 3), (2, 1), (2, 7), (3, 23)])
    def test_float_bitwise_with_nan_inf_and_negative_zero(self, n, r):
        rng = np.random.default_rng(100 * n + r)
        m = n * n
        # unvalidated, so that NaN and inf get in
        s = SimpleNamespace(n=n, r=r, H=rng.normal(size=(m, r)),
                            K=rng.normal(size=(m, r)),
                            F=rng.normal(size=(r, m)))
        s.H[0, 0] = np.nan
        s.K[m - 1, r - 1] = np.inf
        s.F[0, m - 1] = -np.inf
        s.H[:, r // 2] = -0.0
        s.F[r - 1, 0] = -0.0
        size = SimpleNamespace(n=n, r=r, H=np.abs(s.H), K=np.abs(s.K),
                               F=np.abs(s.F))
        with np.errstate(invalid="ignore"):
            assert_rounding_close(reconstruct(s), reconstruct_by_slots(s),
                                  reconstruct_by_slots(size), r + 3)
        ints = SimpleNamespace(n=n, r=r, **{
            k: rng.integers(-9, 10, size=getattr(s, k).shape).astype(
                np.float64) for k in "HKF"})
        got, want = reconstruct(ints), reconstruct_by_slots(ints)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("zero_frac", [0.0, 0.7])
    def test_exact_values_and_types(self, zero_frac):
        rng = np.random.default_rng(7)
        n, r = 2, 7
        m = n * n

        def mat(shape):
            vals = [Fraction(int(p), int(q)) if rng.random() >= zero_frac
                    else 0 for p, q in zip(rng.integers(-5, 6, m * r),
                                           rng.integers(1, 4, m * r))]
            return exact_array(vals).reshape(shape)

        s = BilinearScheme(n=n, r=r, H=mat((m, r)), K=mat((m, r)),
                           F=mat((r, m)))
        got, want = reconstruct(s), reconstruct_by_slots(s)
        assert got.shape == want.shape
        for g, w in zip(got.flat, want.flat):
            assert g == w and type(g) is type(w) is Fraction

    def test_exact_reference_scheme(self):
        s = known_strassen()
        got, want = reconstruct(s), reconstruct_by_slots(s)
        assert all(g == w and type(g) is type(w)
                   for g, w in zip(got.flat, want.flat))


def dense_residual(s, dtype=np.float64):
    """reconstruct(s) - T over all m^3 entries, as an (m^2, m) matrix."""
    m = s.n * s.n
    target = matmul_tensor(s.n, s.n, s.n).astype(dtype)
    return (reconstruct(s) - target).reshape(m * m, m)


class TestResidualMatrix:
    """The Khatri-Rao residual against the BMP reference: entry for entry
    on integers, to rounding on floats, and each run of a stack as
    alone."""

    @pytest.mark.parametrize("n, r", [(1, 3), (2, 7), (3, 23), (4, 49)])
    def test_float_matches_reconstruct(self, n, r):
        for scale in (1e-8, 1.0, 1e3):
            s = init_scheme(n, r, n * r, scale)
            got, want = residual_matrix(s.H, s.K, s.F), dense_residual(s)
            assert got.shape == want.shape and got.dtype == np.float64
            tol = 1e-15 * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        zero = zero_scheme(n, r)
        assert residual_matrix(zero.H, zero.K, zero.F).tobytes() \
            == dense_residual(zero).tobytes()

    @pytest.mark.parametrize("n, r", [(2, 7), (3, 23)])
    def test_each_run_as_alone(self, n, r):
        rng = np.random.default_rng(n + r)
        m = n * n
        H, K = rng.normal(size=(2, 3, m, r))
        F = rng.normal(size=(3, r, m))
        H[1, 0, :] = -0.0
        got = residual_matrix(H, K, F)
        assert got.shape == (3, m * m, m)
        for run in range(3):
            alone = residual_matrix(H[run].copy(), K[run].copy(),
                                    F[run].copy())
            assert got[run].tobytes() == alone.tobytes()

    def test_int64_matches_reconstruct(self):
        rng = np.random.default_rng(3)
        n, r = 3, 23
        m = n * n
        s = BilinearScheme(n=n, r=r, H=rng.integers(-9, 10, (m, r)),
                           K=rng.integers(-9, 10, (m, r)),
                           F=rng.integers(-9, 10, (r, m)))
        got = residual_matrix(s.H, s.K, s.F)
        assert got.dtype == np.int64
        assert np.array_equal(got, dense_residual(s, np.int64))
        strassen = known_strassen()
        ints = [np.array(f, dtype=np.int64)
                for f in (strassen.H, strassen.K, strassen.F)]
        assert not residual_matrix(*ints).any()

    def test_python_ints_past_2_62(self):
        rng = np.random.default_rng(4)
        n, r, big = 2, 7, (1 << 62) + 1
        m = n * n

        def mat(shape):
            return np.array([int(v) * big for v in
                             rng.integers(-3, 4, shape).flat],
                            dtype=object).reshape(shape)

        s = BilinearScheme(n=n, r=r, H=mat((m, r)), K=mat((m, r)),
                           F=mat((r, m)))
        got = residual_matrix(s.H, s.K, s.F)
        want = dense_residual(s, np.int64)
        assert got.dtype == object and any(abs(g) > big for g in got.flat)
        assert all(type(g) is int and g == w
                   for g, w in zip(got.flat, want.flat))


class TestResidualForwardEquivalence:
    """Zero residual and exact forward agreement imply each other; both
    directions exercised on the known scheme and a perturbed copy."""

    def basis_pairs(self):
        for i in range(4):
            for j in range(4):
                a = np.zeros(4, dtype=object)
                b = np.zeros(4, dtype=object)
                a[:] = Fraction(0)
                b[:] = Fraction(0)
                a[i] = Fraction(1)
                b[j] = Fraction(1)
                yield a, b

    def forward_matches_everywhere(self, s):
        for a, b in self.basis_pairs():
            want = a.reshape(2, 2).dot(b.reshape(2, 2)).reshape(4)
            got = forward_fast(s, a, b)
            if any(got[t] != want[t] for t in range(4)):
                return False
        return True

    def test_true_scheme(self):
        from bmpnet.verify import residual_sq_exact

        s = known_strassen()
        assert residual_sq_exact(s, 2) == 0
        assert self.forward_matches_everywhere(s)

    def test_perturbed_scheme(self):
        from bmpnet.verify import residual_sq_exact

        s = known_strassen()
        h = s.H.copy()
        h[0, 0] += Fraction(1, 7)
        bad = BilinearScheme(n=2, r=7, H=h, K=s.K, F=s.F)
        assert residual_sq_exact(bad, 2) != 0
        assert not self.forward_matches_everywhere(bad)


class TestPaddedFactors:
    def test_shapes_and_zero_fill(self):
        s = init_scheme(2, 7, 12, 1.0)
        H_sq, K_sq, F_sq = padded_square_factors(s)
        for mat in (H_sq, K_sq, F_sq):
            assert mat.shape == (7, 7)
        np.testing.assert_array_equal(H_sq[:4], s.H)
        np.testing.assert_array_equal(H_sq[4:], np.zeros((3, 7)))
        np.testing.assert_array_equal(F_sq[:, :4], s.F)
        np.testing.assert_array_equal(F_sq[:, 4:], np.zeros((7, 3)))

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmall):
            padded_square_factors(zero_scheme(2, 3))


class TestSchemeJson:
    def test_float_round_trip_bitwise(self):
        s = init_scheme(3, 23, 13, 1.0)
        back = scheme_from_json(scheme_to_json(s))
        assert back.n == 3 and back.r == 23
        assert np.array_equal(back.H, s.H)
        assert np.array_equal(back.K, s.K)
        assert np.array_equal(back.F, s.F)

    def test_exact_round_trip(self):
        s = known_strassen()
        back = scheme_from_json(scheme_to_json(s), exact=True)
        assert all(back.H[idx] == s.H[idx] for idx in np.ndindex(s.H.shape))
        assert all(back.F[idx] == s.F[idx] for idx in np.ndindex(s.F.shape))

    def test_exact_float_conversions(self):
        # an exact scheme's file read without exact gives each entry as
        # float() gives it, to the bit, 1/3 and -2/7 included
        s = known_strassen()
        H = s.H.copy()
        H[0, 0], H[1, 0] = Fraction(1, 3), Fraction(-2, 7)
        f = scheme_from_json(scheme_to_json(BilinearScheme(2, 7, H, s.K, s.F)))
        assert f.H.dtype == np.float64
        want = np.array([float(v) for v in H.flat]).reshape(H.shape)
        assert f.H.tobytes() == want.tobytes()
        assert all(f.K[idx] == s.K[idx] for idx in np.ndindex(s.K.shape))
