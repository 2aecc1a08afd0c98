"""Welch's unequal-variance comparison and the Student-t CDF it rests
on.  The worked fixture compares a seven-run loss group at the largest
rank against the next rank down."""

import math

import numpy as np
import pytest

from bmpnet.stats import (
    DegenerateVariance,
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

    def test_rejects_nonpositive_df(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0.0)
        with pytest.raises(ValueError):
            t_cdf(1.0, -2.0)


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
        # the README's `welch` example, as the module computed it when it
        # imported scipy at load time (scipy 1.17.1): where and when
        # scipy loads must not move a bit of any reported number
        d = welch_one_tailed(GROUP1, GROUP2).to_json()
        assert [repr(d["t"]), repr(d["df"]), repr(d["p_one_tailed"]),
                [repr(x) for x in d["ci95"]]] == [
            "-3.3193348055988596", "10.540163546129676",
            "0.003616296607558938",
            ["-0.017608245026344067", "-0.003522154973655934"]]


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

    def test_one_zero_variance_group_is_fine(self):
        g1 = SampleStats(mean=0.0, std=0.0, count=5)
        g2 = SampleStats(mean=1.0, std=0.3, count=5)
        rep = welch_one_tailed(g1, g2)
        assert math.isfinite(rep.t) and rep.t < 0
