"""Small-sample comparison of loss groups: Welch's unequal-variance
t-test, one-tailed, with a 95% confidence interval for the mean gap.

The t distribution's CDF is expressed through the regularised incomplete
beta function; quantiles invert that CDF numerically.  Degrees of
freedom follow the Welch-Satterthwaite estimate and are reported
unrounded, so downstream numbers are reproducible from the inputs alone.
scipy supplies the beta function and the root finder; each is imported
by the function that calls it, so importing this module loads no scipy.
"""

import math
from dataclasses import dataclass


class TooFewSamples(ValueError):
    """Sample statistics need at least two observations."""


class DegenerateVariance(ValueError):
    """Both groups have zero variance; the test statistic is undefined."""


@dataclass
class SampleStats:
    """Mean, sample standard deviation (ddof=1) and count of one group."""

    mean: float
    std: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise TooFewSamples("need at least 2 samples, got %d"
                                % self.count)
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ValueError("mean and std must be finite")
        if self.std < 0:
            raise ValueError("std must be nonnegative")

    def to_json(self):
        return {"mean": self.mean, "std": self.std, "count": self.count}


def summarize(values):
    """SampleStats of a sequence (sample std, ddof=1)."""
    values = [float(v) for v in values]
    count = len(values)
    if count < 2:
        raise TooFewSamples("need at least 2 samples, got %d" % count)
    mean = sum(values) / count
    var = sum((v - mean) ** 2 for v in values) / (count - 1)
    return SampleStats(mean=mean, std=math.sqrt(var), count=count)


def t_cdf(t, df):
    """CDF of Student's t with ``df`` (possibly fractional) degrees of
    freedom, via the identity with the regularised incomplete beta
    function; exact 0.5 at t = 0 by construction."""
    from scipy.special import betainc

    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    t = float(t)
    x = df / (df + t * t)
    tail = 0.5 * float(betainc(df / 2.0, 0.5, x))
    return tail if t <= 0 else 1.0 - tail


def t_quantile(p, df):
    """Inverse of :func:`t_cdf` in its first argument."""
    from scipy.optimize import brentq

    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if p == 0.5:
        return 0.0
    return float(brentq(lambda t: t_cdf(t, df) - p, -1e8, 1e8, xtol=1e-12))


@dataclass
class WelchReport:
    """Result of one one-tailed Welch comparison (H1: mean1 < mean2)."""

    t: float
    df: float
    p_one_tailed: float
    ci_low: float
    ci_high: float
    group1: SampleStats
    group2: SampleStats
    note: str = ("degrees of freedom use the unrounded Welch-Satterthwaite "
                 "estimate; the interval is the two-sided 95% CI for "
                 "mean1 - mean2")

    def to_json(self):
        return {
            "t": self.t,
            "df": self.df,
            "p_one_tailed": self.p_one_tailed,
            "ci95": [self.ci_low, self.ci_high],
            "group1": self.group1.to_json(),
            "group2": self.group2.to_json(),
            "note": self.note,
        }


def welch_one_tailed(group1, group2):
    """Welch's t-test of H1: mean1 < mean2 from summary statistics.

    Returns the statistic, unrounded Welch-Satterthwaite degrees of
    freedom, the one-tailed p-value P(T <= t), and the two-sided 95%
    confidence interval for the difference of means.
    """
    se1 = group1.std ** 2 / group1.count
    se2 = group2.std ** 2 / group2.count
    se_sq = se1 + se2
    if se_sq == 0.0:
        raise DegenerateVariance("both groups have zero variance")
    t = (group1.mean - group2.mean) / math.sqrt(se_sq)
    df = se_sq ** 2 / (se1 ** 2 / (group1.count - 1)
                       + se2 ** 2 / (group2.count - 1))
    p = t_cdf(t, df)
    halfwidth = t_quantile(0.975, df) * math.sqrt(se_sq)
    diff = group1.mean - group2.mean
    return WelchReport(
        t=t,
        df=df,
        p_one_tailed=p,
        ci_low=diff - halfwidth,
        ci_high=diff + halfwidth,
        group1=group1,
        group2=group2,
    )
