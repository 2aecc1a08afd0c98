"""Certification path: residuals, slot norms, gauge fixing, grid
snapping, the pinned rank-7 reference scheme and its 4x4 and 8x8
compositions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bmpnet.scheme import BilinearScheme, forward_fast, reconstruct, to_float
from bmpnet.tensor import ShapeMismatch, matmul_tensor
from bmpnet.training import TrainConfig, train
from bmpnet.verify import (
    DEFAULT_GRID,
    _residual_sq,
    _snapper,
    exponent,
    known_strassen,
    normalize_slots,
    residual_sq_exact,
    round_scheme,
    slot_contribution_norms,
    verify_scheme,
)
from netgen import kron_scheme
from reference import bisection_snapper, residual_sq, snap


class TestKnownScheme:
    """The pinned seven-multiplication scheme is a true decomposition."""

    def test_exact_residual_is_zero(self):
        s = known_strassen()
        assert residual_sq_exact(s, 2) == 0

    def test_reconstruction_matches_structure_tensor(self):
        got = reconstruct(known_strassen())
        want = matmul_tensor(2, 2, 2, exact=True)
        assert got.shape == want.shape
        for idx in np.ndindex(got.shape):
            assert got[idx] == want[idx]

    def test_float_copy_residual_tiny(self):
        s = to_float(known_strassen())
        assert verify_scheme(s).residual < 1e-12

    def test_multiplies_matrices(self):
        rng = np.random.default_rng(5)
        s = to_float(known_strassen())
        for _ in range(20):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            want = (a.reshape(2, 2) @ b.reshape(2, 2)).reshape(4)
            np.testing.assert_allclose(forward_fast(s, a, b), want,
                                       atol=1e-12)

    def test_rank_is_seven(self):
        s = known_strassen()
        assert s.n == 2 and s.r == 7


class TestResidual:
    def test_perturbed_scheme_has_positive_residual(self):
        s = known_strassen()
        H = s.H.copy()
        H[0, 0] += Fraction(1, 3)
        bad = BilinearScheme(n=2, r=7, H=H, K=s.K, F=s.F)
        sq = residual_sq_exact(bad, 2)
        assert sq > 0

    def test_float_matches_sqrt_of_exact(self):
        s = known_strassen()
        H = s.H.copy()
        H[1, 2] += Fraction(1, 2)
        bad = BilinearScheme(n=2, r=7, H=H, K=s.K, F=s.F)
        sq = residual_sq_exact(bad, 2)
        got = verify_scheme(to_float(bad)).residual
        np.testing.assert_allclose(got, float(sq) ** 0.5, rtol=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            residual_sq_exact(known_strassen(), 3)

    def test_exact_residual_needs_exact_scheme(self):
        with pytest.raises(ShapeMismatch):
            residual_sq_exact(to_float(known_strassen()), 2)


class TestResidualOnSupport:
    """The residual subtracts the target only where it is 1; float results
    agree with the dense subtraction to 1e-13 relative (a gemm forms D,
    not the ordered sum of ``reconstruct``), exact ones are equal."""

    @staticmethod
    def close_float(got, want):
        assert type(got) is float and type(want) is float
        assert got == pytest.approx(want, rel=1e-13, abs=0, nan_ok=True)

    @pytest.mark.parametrize("n, r", [(2, 7), (3, 23), (4, 49)])
    def test_random_float_schemes(self, n, r):
        rng = np.random.default_rng(n * r)
        for scale in (1e-8, 1.0, 1e3):
            s = BilinearScheme(n=n, r=r, H=scale * rng.normal(size=(n * n, r)),
                               K=rng.normal(size=(n * n, r)),
                               F=rng.normal(size=(r, n * n)))
            self.close_float(_residual_sq(s, n), residual_sq(s))
            self.close_float(verify_scheme(s).residual,
                             math.sqrt(residual_sq(s)))

    def test_int64_scheme(self):
        strassen = known_strassen()
        ints = [np.array(f, dtype=np.int64)
                for f in (strassen.H, strassen.K, strassen.F)]
        ints[0][2, 3] -= 2
        s = BilinearScheme(2, 7, *ints)
        got = _residual_sq(s, 2)
        assert got == residual_sq(s) == 16 and type(got) is Fraction
        report = verify_scheme(s)
        assert report.residual == 4.0 and report.exact_zero is None

    def test_trained_scheme(self):
        s = train(TrainConfig(n=2, r=7, epochs=2, batch_size=16,
                              train_size=64, val_size=32)).scheme
        self.close_float(_residual_sq(s, 2), residual_sq(s))

    def test_signed_zero_and_nan_entries(self):
        s = to_float(known_strassen())
        s.H[s.H == 0] = -0.0
        s.F[0, 0] = -0.0
        self.close_float(_residual_sq(s, 2), residual_sq(s))
        s.K[1, 1] = np.nan
        got, want = _residual_sq(s, 2), residual_sq(s)
        assert math.isnan(got) and math.isnan(want)
        self.close_float(got, want)

    def test_exact_schemes(self):
        strassen = known_strassen()
        H = strassen.H.copy()
        H[2, 3] += Fraction(-2, 3)
        perturbed = BilinearScheme(n=2, r=7, H=H, K=strassen.K,
                                   F=strassen.F)
        composed = kron_scheme(strassen, strassen)
        for s in (strassen, perturbed, composed):
            got = _residual_sq(s, s.n)
            assert type(got) is Fraction
            assert got == residual_sq(s)
        assert residual_sq(perturbed) > 0


class TestComposedScheme:
    """Strassen's scheme applied to its own 2x2 blocks: 4x4 at rank 49,
    certified exactly and rejected after a perturbation by 1/2."""

    def test_certified_exactly(self):
        s = kron_scheme(known_strassen(), known_strassen())
        assert (s.n, s.r) == (4, 49)
        assert residual_sq_exact(s, 4) == 0
        report = verify_scheme(s)
        assert report.exact_zero is True and report.residual == 0.0

    def test_perturbed_copy_rejected(self):
        s = kron_scheme(known_strassen(), known_strassen())
        F = s.F.copy()
        F[10, 5] += Fraction(1, 2)
        bad = BilinearScheme(n=4, r=49, H=s.H, K=s.K, F=F)
        sq = residual_sq_exact(bad, 4)
        assert sq > 0
        report = verify_scheme(bad)
        assert report.exact_zero is False
        assert report.residual == math.sqrt(float(sq))


class TestEightByEight:
    """Strassen's scheme applied three levels deep: 8x8 at rank 343, the
    largest exact certificate in the suite."""

    @pytest.fixture(scope="class")
    def scheme(self):
        s2 = known_strassen()
        return kron_scheme(kron_scheme(s2, s2), s2)

    def test_certified_exactly(self, scheme):
        assert (scheme.n, scheme.r) == (8, 343)
        report = verify_scheme(scheme)
        assert report.exact_zero is True and report.residual == 0.0

    def test_entry_moved_by_half_rejected(self, scheme):
        F = scheme.F.copy()
        F[100, 9] += Fraction(1, 2)
        bad = BilinearScheme(n=8, r=343, H=scheme.H, K=scheme.K, F=F)
        report = verify_scheme(bad)
        assert report.exact_zero is False
        # the residual is 1/2 times the outer product of slot 100's
        # columns of H and K
        h, k = scheme.H[:, 100], scheme.K[:, 100]
        want = Fraction(1, 4) * sum(h * h) * sum(k * k)
        assert want > 0
        assert report.residual == math.sqrt(float(want))


class TestSlotNorms:
    """Each slot's rank-1 term has Frobenius norm |h| * |k| * |f|."""

    def test_first_slot_of_reference(self):
        # slot 0 uses h = k = (1,0,0,1) and f = (1,0,0,1): norm sqrt(2)^3
        norms = slot_contribution_norms(known_strassen())
        assert len(norms) == 7
        np.testing.assert_allclose(norms[0], 2.0 * np.sqrt(2.0), rtol=1e-12)

    def test_zero_slot_reported_as_zero(self):
        s = to_float(known_strassen())
        H = s.H.copy()
        H[:, 3] = 0.0
        wasted = BilinearScheme(n=2, r=7, H=H, K=s.K, F=s.F)
        norms = slot_contribution_norms(wasted)
        assert norms[3] == 0.0
        assert all(v > 0 for i, v in enumerate(norms) if i != 3)

    def test_matches_direct_outer_product_norm(self):
        rng = np.random.default_rng(11)
        H = rng.standard_normal((4, 5))
        K = rng.standard_normal((4, 5))
        F = rng.standard_normal((5, 4))
        s = BilinearScheme(n=2, r=5, H=H, K=K, F=F)
        norms = slot_contribution_norms(s)
        for t in range(5):
            term = np.einsum("i,j,k->ijk", H[:, t], K[:, t], F[t, :])
            np.testing.assert_allclose(norms[t], np.linalg.norm(term),
                                       rtol=1e-12)


class TestVerifyReport:
    def test_exact_scheme_report(self):
        rep = verify_scheme(known_strassen())
        assert rep.exact_zero is True
        assert rep.residual == 0.0
        assert rep.n == 2 and rep.r == 7
        assert len(rep.slot_norms) == 7
        assert "exact" in rep.note

    def test_float_scheme_report(self):
        rep = verify_scheme(to_float(known_strassen()))
        assert rep.exact_zero is None
        assert rep.residual < 1e-12
        assert "float" in rep.note

    def test_json_payload(self):
        d = verify_scheme(known_strassen()).to_json()
        assert d["exact_zero"] is True
        assert d["residual"] == 0.0
        assert len(d["slot_norms"]) == 7
        assert set(d) == {"n", "r", "residual", "exact_zero",
                          "slot_norms", "note"}


class TestSnap:
    """Nearest grid value; ties break toward smaller magnitude."""

    @staticmethod
    def snap_one(grid, x):
        (got,) = _snapper(grid)([x])
        return got

    def test_plain_rounding(self):
        assert self.snap_one(DEFAULT_GRID, 0.9) == 1
        assert self.snap_one(DEFAULT_GRID, -0.6) == Fraction(-1, 2)
        assert self.snap_one(DEFAULT_GRID, 0.1) == 0
        assert self.snap_one(DEFAULT_GRID, 0.4) == Fraction(1, 2)

    def test_tie_prefers_smaller_magnitude(self):
        assert self.snap_one(DEFAULT_GRID, 0.25) == 0
        assert self.snap_one(DEFAULT_GRID, -0.25) == 0
        assert self.snap_one(DEFAULT_GRID, 0.75) == Fraction(1, 2)
        assert self.snap_one(DEFAULT_GRID, -0.75) == Fraction(-1, 2)

    @pytest.mark.parametrize("grid", [
        DEFAULT_GRID,
        DEFAULT_GRID + (Fraction(1, 3), Fraction(-1, 3)),
        (Fraction(-1), Fraction(1)),
    ])
    def test_bisection_matches_the_minimum_over_the_grid(self, grid):
        # every midpoint, as the nearest float and the next floats on
        # either side, plus both zeros and the grid points themselves;
        # the bisection of the reference and the searchsorted snapper
        # both agree with the minimum
        points = sorted(set(grid))
        xs = [0.0, -0.0] + [float(g) for g in points]
        for lo, hi in zip(points, points[1:]):
            mid = float((lo + hi) / 2)
            xs += [mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)]
        bisect = bisection_snapper(grid)
        for x, got in zip(xs, _snapper(grid)(xs)):
            want = snap(x, grid)
            assert got == want and type(got) is type(want), x
            assert bisect(x) == want, x

    def test_noisy_reference_snaps_back(self):
        rng = np.random.default_rng(3)
        base = known_strassen()
        noisy = to_float(base)
        s = BilinearScheme(
            n=2, r=7,
            H=noisy.H + rng.uniform(-0.2, 0.2, noisy.H.shape),
            K=noisy.K + rng.uniform(-0.2, 0.2, noisy.K.shape),
            F=noisy.F + rng.uniform(-0.2, 0.2, noisy.F.shape),
        )
        snapped = round_scheme(s)
        assert residual_sq_exact(snapped, 2) == 0
        for got, want in ((snapped.H, base.H), (snapped.K, base.K),
                          (snapped.F, base.F)):
            for idx in np.ndindex(got.shape):
                assert got[idx] == want[idx]

    def test_custom_grid(self):
        s = BilinearScheme(n=2, r=4,
                           H=np.full((4, 4), 0.34),
                           K=np.full((4, 4), 0.34),
                           F=np.full((4, 4), 0.34))
        snapped = round_scheme(s, grid=(Fraction(0), Fraction(1, 3)))
        assert snapped.H[0, 0] == Fraction(1, 3)


class TestNormalizeSlots:
    """Rescaling (h, k, f) -> (h/l, k/m, lm f) per slot is gauge freedom:
    the bilinear map is unchanged and factor columns end at unit max."""

    def test_map_unchanged(self):
        rng = np.random.default_rng(7)
        s = BilinearScheme(n=2, r=6,
                           H=rng.standard_normal((4, 6)) * 3.0,
                           K=rng.standard_normal((4, 6)) * 0.2,
                           F=rng.standard_normal((6, 4)))
        fixed = normalize_slots(s)
        np.testing.assert_allclose(np.asarray(reconstruct(fixed), float),
                                   np.asarray(reconstruct(s), float),
                                   atol=1e-12)

    def test_columns_have_unit_max(self):
        rng = np.random.default_rng(8)
        s = BilinearScheme(n=2, r=6,
                           H=rng.standard_normal((4, 6)) * 5.0,
                           K=rng.standard_normal((4, 6)) * 0.1,
                           F=rng.standard_normal((6, 4)))
        fixed = normalize_slots(s)
        for t in range(6):
            np.testing.assert_allclose(max(abs(fixed.H[:, t])), 1.0,
                                       rtol=1e-12)
            np.testing.assert_allclose(max(abs(fixed.K[:, t])), 1.0,
                                       rtol=1e-12)

    def test_zero_column_left_alone(self):
        s = to_float(known_strassen())
        H = s.H.copy()
        H[:, 2] = 0.0
        z = BilinearScheme(n=2, r=7, H=H, K=s.K, F=s.F)
        fixed = normalize_slots(z)
        assert np.all(fixed.H[:, 2] == 0.0)

    def test_normalize_then_snap_recovers_scaled_reference(self):
        # per-slot rescaling hides the grid until the gauge is fixed
        rng = np.random.default_rng(9)
        base = to_float(known_strassen())
        H, K, F = base.H.copy(), base.K.copy(), base.F.copy()
        for t in range(7):
            lam = rng.uniform(0.5, 3.0)
            mu = rng.uniform(0.5, 3.0)
            H[:, t] *= lam
            K[:, t] *= mu
            F[t, :] /= lam * mu
        scaled = BilinearScheme(n=2, r=7, H=H, K=K, F=F)
        snapped = round_scheme(normalize_slots(scaled))
        assert residual_sq_exact(snapped, 2) == 0


class TestExponent:
    def test_reference_values(self):
        np.testing.assert_allclose(exponent(2, 7), np.log2(7), rtol=1e-15)
        np.testing.assert_allclose(exponent(2, 8), 3.0, rtol=1e-15)
        np.testing.assert_allclose(exponent(3, 23),
                                   np.log(23) / np.log(3), rtol=1e-15)
        assert exponent(3, 23) < exponent(3, 27)

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ShapeMismatch):
            exponent(1, 7)
        with pytest.raises(ShapeMismatch):
            exponent(2, 0)
