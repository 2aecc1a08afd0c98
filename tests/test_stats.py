"""Welch's unequal-variance comparison and the Student-t CDF it rests
on.  The worked fixture compares a seven-run loss group at the largest
rank against the next rank down.  Where scipy is installed, the CDF and
quantile are also held to scipy's ``betainc`` and ``stdtrit``; the
package itself does not use scipy."""

import math
import sys

import numpy as np
import pytest

from bmpnet.stats import (
    DegenerateVariance,
    NonFiniteStatistic,
    SampleStats,
    TooFewSamples,
    summarize,
    t_cdf,
    t_quantile,
    welch_one_tailed,
)

# summary statistics of the worked example: group 1 is the lower-loss
# collection of seven runs, group 2 the higher-loss one
GROUP1 = SampleStats(mean=0.0022168, std=0.0047183, count=7)
GROUP2 = SampleStats(mean=0.012782, std=0.0069753, count=7)


class TestSummarize:
    def test_tiny_examples(self):
        s = summarize([1.0, 1.0, 1.0])
        assert (s.mean, s.std, s.count) == (1.0, 0.0, 3)
        s = summarize([0.0, 2.0])
        np.testing.assert_allclose(s.mean, 1.0)
        np.testing.assert_allclose(s.std, math.sqrt(2.0), rtol=1e-15)

    def test_matches_numpy_ddof1(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            vals = rng.standard_normal(rng.integers(2, 12))
            s = summarize(vals)
            np.testing.assert_allclose(s.mean, np.mean(vals), atol=1e-12)
            np.testing.assert_allclose(s.std, np.std(vals, ddof=1),
                                       atol=1e-12)
            assert s.count == len(vals)

    def test_rejects_short_input(self):
        with pytest.raises(TooFewSamples):
            summarize([3.0])
        with pytest.raises(TooFewSamples):
            summarize([])
        with pytest.raises(TooFewSamples):
            SampleStats(mean=0.0, std=1.0, count=1)

    def test_rejects_bad_stats(self):
        with pytest.raises(ValueError):
            SampleStats(mean=float("nan"), std=1.0, count=3)
        with pytest.raises(ValueError):
            SampleStats(mean=0.0, std=-1.0, count=3)


class TestTCdf:
    """With one degree of freedom the t distribution is Cauchy, whose
    CDF has the closed form 1/2 + arctan(t)/pi."""

    def test_agrees_with_cauchy_at_df_one(self):
        pts = np.linspace(-20.0, 20.0, 50)
        for t in pts:
            want = 0.5 + math.atan(t) / math.pi
            assert abs(t_cdf(t, 1.0) - want) <= 1e-10

    def test_exact_half_at_zero(self):
        for df in (1.0, 5.0, 11.2, 30.0):
            assert t_cdf(0.0, df) == 0.5

    def test_monotone_in_t(self):
        ts = np.linspace(-8.0, 8.0, 60)
        for df in (2.0, 10.5402, 25.0):
            vals = [t_cdf(t, df) for t in ts]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_symmetry(self):
        for df in (3.0, 11.2):
            for t in (0.5, 1.7, 3.318):
                np.testing.assert_allclose(t_cdf(-t, df),
                                           1.0 - t_cdf(t, df), atol=1e-14)

    def test_large_df_approaches_normal(self):
        # at df=1e6 the t CDF is within ~1e-6 of the standard normal's
        want = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(t_cdf(1.0, 1e6) - want) < 1e-5

    def test_worked_tail_probability(self):
        p = t_cdf(-3.318, 11.2)
        assert 0.0030 <= p <= 0.0036

    def test_infinite_t(self):
        for df in (1.0, 11.2, 1e6):
            assert t_cdf(-math.inf, df) == 0.0
            assert t_cdf(math.inf, df) == 1.0

    def test_rejects_nonpositive_df(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0.0)
        with pytest.raises(ValueError):
            t_cdf(1.0, -2.0)

    @pytest.mark.parametrize("df", [math.nan, math.inf])
    def test_rejects_nonfinite_df(self, df):
        with pytest.raises(ValueError, match="degrees of freedom"):
            t_cdf(1.0, df)
        with pytest.raises(ValueError, match="degrees of freedom"):
            t_quantile(0.975, df)


def worst_tail_error(dfs):
    """Largest relative error of the smaller tail P(T <= -t), 0 < t <= 40,
    against scipy's 0.5 * betainc(df/2, 1/2, df / (df + t^2)); a tail
    below the normal float range must come out below it too."""
    betainc = pytest.importorskip("scipy.special").betainc
    ts = np.linspace(0.25, 40.0, 160)
    worst = 0.0
    for df in dfs:
        want = 0.5 * betainc(df / 2.0, 0.5, df / (df + ts * ts))
        got = np.array([t_cdf(-t, df) for t in ts])
        normal = want >= sys.float_info.min
        assert np.all(got[~normal] < sys.float_info.min)
        rel = np.abs(got[normal] - want[normal]) / want[normal]
        worst = max(worst, float(rel.max()))
    return worst


class TestAgainstScipy:
    """Bounds set before the math-only distribution was written: 1e-12
    over every df a sweep of up to 16 reps can produce, 1e-11 to
    df = 1000, and 1e-8 to df = 1e6.  Against 40-digit mpmath at 400
    random points per range, the worst errors were 1.5e-14, 3.2e-14 and
    5.9e-11; scipy's own reach 1.7e-10 at df = 1e6."""

    def test_cdf_small_df(self):
        dfs = np.concatenate([np.linspace(1.0, 30.0, 59),
                              np.random.default_rng(3).uniform(1, 30, 20)])
        assert worst_tail_error(dfs) <= 1e-12

    def test_cdf_moderate_df(self):
        assert worst_tail_error(np.geomspace(1.0, 1000.0, 40)) <= 1e-11

    def test_cdf_large_df(self):
        assert worst_tail_error(np.geomspace(1000.0, 1e6, 20)) <= 1e-8

    def test_quantile(self):
        stdtrit = pytest.importorskip("scipy.special").stdtrit
        for df in np.concatenate([np.geomspace(1.0, 1000.0, 40),
                                  [10.540163546129676]]):
            for p in (0.001, 0.025, 0.1, 0.9, 0.975, 0.999):
                q = t_quantile(p, df)
                want = float(stdtrit(df, p))
                assert abs(q - want) <= 1e-10 * max(1.0, abs(q)), (df, p)


def mp_lower_tail(t, df):
    """P(T <= -|t|) in 40-digit mpmath, exact in every float input."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t, df = mpmath.mpf(t), mpmath.mpf(df)
        return 0.5 * mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t),
                                    regularized=True)


class TestFarTails:
    """Past |t| = 1.3e154, t^2 overflows in the CDF; the quantile's
    Newton steps from t = 0 reach a far tail until the t density
    underflows on the way.  Both held to mpmath."""

    @pytest.mark.parametrize("df", [0.5, 1.0, 2.5, 7.0])
    def test_cdf_where_t_squared_overflows(self, df):
        for t in (1e150, 1e154, 1e155, 1e160, 1e200, 1e300):
            want = float(mp_lower_tail(t, df))
            got = t_cdf(-t, df)
            if want < sys.float_info.min:
                assert got < sys.float_info.min, t
            else:
                assert abs(got - want) <= 1e-12 * want, t
            assert t_cdf(t, df) == 1.0

    def test_cauchy_far_tail(self):
        # 1/2 - atan(t)/pi = atan(1/t)/pi, which is 1/(pi t) to the bit
        assert abs(t_cdf(-1e160, 1.0) * math.pi * 1e160 - 1.0) <= 1e-13

    # the smallest tail each df reaches; below it the density underflows
    # before the root
    REACHED = {0.5: 1e-50, 1.0: 1e-100, 2.5: 1e-200, 10.0: 1e-200,
               40.0: 1e-300, 1000.0: 1e-300}

    @pytest.mark.parametrize("df", [0.5, 1.0, 2.5, 10.0, 40.0, 1000.0])
    def test_quantile_far_tail(self, df):
        for p in (1e-12, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300):
            if p < self.REACHED[df]:
                with pytest.raises(NonFiniteStatistic, match="underflows"):
                    t_quantile(p, df)
                continue
            q = t_quantile(p, df)
            assert q < 0.0
            assert abs(float(mp_lower_tail(q, df)) / p - 1.0) <= 1e-12, p

    def test_quantile_out_of_range_is_named(self):
        # the Cauchy quantile of 5e-324 is -6e322; at df = 100 the density
        # underflows before the root
        for df in (1.0, 100.0):
            with pytest.raises(NonFiniteStatistic):
                t_quantile(5e-324, df)


class TestTQuantile:
    def test_inverts_cdf(self):
        for df in (1.0, 10.5402, 30.0):
            for p in (0.025, 0.1, 0.5, 0.9, 0.975):
                t = t_quantile(p, df)
                np.testing.assert_allclose(t_cdf(t, df), p, atol=1e-10)

    def test_median_is_zero(self):
        assert t_quantile(0.5, 7.0) == 0.0

    def test_known_value(self):
        # 97.5th percentile at df=10 is 2.228 in standard tables
        np.testing.assert_allclose(t_quantile(0.975, 10.0), 2.2281,
                                   atol=5e-4)

    def test_rejects_boundary_p(self):
        with pytest.raises(ValueError):
            t_quantile(0.0, 5.0)
        with pytest.raises(ValueError):
            t_quantile(1.0, 5.0)


class TestWelchFixture:
    """Pinned seven-vs-seven comparison from the rank experiment."""

    def test_statistic(self):
        rep = welch_one_tailed(GROUP1, GROUP2)
        assert abs(rep.t - (-3.318)) <= 0.005

    def test_degrees_of_freedom_unrounded(self):
        rep = welch_one_tailed(GROUP1, GROUP2)
        assert abs(rep.df - 10.54) <= 0.1

    def test_one_tailed_p(self):
        rep = welch_one_tailed(GROUP1, GROUP2)
        assert 0.002 <= rep.p_one_tailed <= 0.005

    def test_confidence_interval(self):
        rep = welch_one_tailed(GROUP1, GROUP2)
        assert abs(rep.ci_low - (-0.0176)) <= 0.0005
        assert abs(rep.ci_high - (-0.0036)) <= 0.0005

    def test_interval_contains_point_estimate(self):
        rep = welch_one_tailed(GROUP1, GROUP2)
        diff = GROUP1.mean - GROUP2.mean
        assert rep.ci_low < diff < rep.ci_high

    def test_json_payload(self):
        d = welch_one_tailed(GROUP1, GROUP2).to_json()
        assert set(d) == {"t", "df", "p_one_tailed", "ci95",
                          "group1", "group2", "note"}
        assert d["ci95"][0] < d["ci95"][1]
        assert d["group1"]["count"] == 7

    def test_exact_bits(self):
        # the README's `welch` example, as the math-only t distribution
        # computes it: no reported number may move by a bit unnoticed
        d = welch_one_tailed(GROUP1, GROUP2).to_json()
        assert [repr(d["t"]), repr(d["df"]), repr(d["p_one_tailed"]),
                [repr(x) for x in d["ci95"]]] == [
            "-3.3193348055988596", "10.540163546129676",
            "0.0036162966075589365",
            ["-0.017608245026344067", "-0.0035221549736559332"]]
        # what scipy's betainc and brentq gave (scipy 1.17.1)
        assert all(abs(new - old) <= rtol * abs(old) for new, old, rtol in [
            (d["p_one_tailed"], 0.003616296607558938, 1e-14),
            (d["ci95"][0], -0.017608245026344067, 1e-12),
            (d["ci95"][1], -0.003522154973655934, 1e-12)])


class TestWelchProperties:
    def test_identical_groups(self):
        g = SampleStats(mean=1.0, std=0.5, count=9)
        rep = welch_one_tailed(g, g)
        assert rep.t == 0.0
        assert rep.p_one_tailed == 0.5
        assert rep.ci_low < 0.0 < rep.ci_high

    def test_swapping_groups_flips_sign(self):
        rep = welch_one_tailed(GROUP1, GROUP2)
        flip = welch_one_tailed(GROUP2, GROUP1)
        np.testing.assert_allclose(flip.t, -rep.t, rtol=1e-12)
        np.testing.assert_allclose(flip.p_one_tailed,
                                   1.0 - rep.p_one_tailed, atol=1e-12)
        np.testing.assert_allclose(flip.df, rep.df, rtol=1e-12)
        np.testing.assert_allclose((flip.ci_low, flip.ci_high),
                                   (-rep.ci_high, -rep.ci_low), rtol=1e-12)

    def test_from_raw_values(self):
        rng = np.random.default_rng(17)
        xs = rng.normal(0.0, 1.0, 8)
        ys = rng.normal(1.0, 2.0, 12)
        rep = welch_one_tailed(summarize(xs), summarize(ys))
        # cross-check against the textbook formulas evaluated directly
        se = np.var(xs, ddof=1) / 8 + np.var(ys, ddof=1) / 12
        t = (np.mean(xs) - np.mean(ys)) / math.sqrt(se)
        np.testing.assert_allclose(rep.t, t, rtol=1e-12)
        df = se ** 2 / ((np.var(xs, ddof=1) / 8) ** 2 / 7
                        + (np.var(ys, ddof=1) / 12) ** 2 / 11)
        np.testing.assert_allclose(rep.df, df, rtol=1e-12)

    def test_lower_first_mean_gives_negative_t(self):
        lo = SampleStats(mean=0.0, std=1.0, count=6)
        hi = SampleStats(mean=2.0, std=1.0, count=6)
        rep = welch_one_tailed(lo, hi)
        assert rep.t < 0
        assert rep.p_one_tailed < 0.05

    def test_degenerate_variance_rejected(self):
        g1 = SampleStats(mean=0.0, std=0.0, count=5)
        g2 = SampleStats(mean=1.0, std=0.0, count=5)
        with pytest.raises(DegenerateVariance):
            welch_one_tailed(g1, g2)

    @pytest.mark.parametrize("std", [1e200, 1e100, 1e-100])
    def test_spread_out_of_float_range_rejected(self, std):
        # std ** 2 overflows; or se ** 2 in the degrees of freedom
        # overflows; or it underflows, leaving 0 / 0
        g1 = SampleStats(mean=0.0, std=std, count=3)
        g2 = SampleStats(mean=1.0, std=std, count=3)
        with pytest.raises(NonFiniteStatistic):
            welch_one_tailed(g1, g2)

    @pytest.mark.parametrize("mean, std", [(1e308, 1.0), (1e300, 1e-10)])
    def test_statistic_out_of_float_range_rejected(self, mean, std):
        # the gap of the means overflows, or only t = gap / se does
        g1 = SampleStats(mean=-mean, std=std, count=3)
        g2 = SampleStats(mean=mean, std=std, count=3)
        with pytest.raises(NonFiniteStatistic, match="t statistic"):
            welch_one_tailed(g1, g2)

    def test_one_zero_variance_group_is_fine(self):
        g1 = SampleStats(mean=0.0, std=0.0, count=5)
        g2 = SampleStats(mean=1.0, std=0.3, count=5)
        rep = welch_one_tailed(g1, g2)
        assert math.isfinite(rep.t) and rep.t < 0
