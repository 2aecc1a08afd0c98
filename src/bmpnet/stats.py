"""Small-sample comparison of loss groups: Welch's unequal-variance
t-test, one-tailed, with a 95% confidence interval for the mean gap.

The t distribution's CDF is expressed through the regularised incomplete
beta function, evaluated by its continued fraction; quantiles invert that
CDF by Newton steps with the closed-form t density.  Both use the
``math`` module only.  Degrees of freedom follow the Welch-Satterthwaite
estimate and are reported unrounded, so downstream numbers are
reproducible from the inputs alone.
"""

import math
from dataclasses import dataclass


class TooFewSamples(ValueError):
    """Sample statistics need at least two observations."""


class DegenerateVariance(ValueError):
    """Both groups have zero variance; the test statistic is undefined."""


class NonFiniteStatistic(ValueError):
    """A statistic of the test, or the t density it is solved with,
    leaves the float range."""


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


# relative spacing of doubles at 1: the continued fraction and the
# Newton steps stop when their next correction falls below it
_EPS = 2.0 ** -52
# keeps the Lentz recurrences off an exact zero
_TINY = 1e-300
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# B_2k / (2k (2k - 1)) of Stirling's series for log Gamma, k = 1..5;
# from a = 20 on, the first omitted term is below 1e-17
_STIRLING = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188)


def _check_df(df):
    if not 0.0 < df < math.inf:
        raise ValueError("degrees of freedom must be positive and finite, "
                         "got %r" % df)


def _log_gamma_drop(a):
    """log Gamma(a) - log Gamma(a + 1/2).  For large ``a`` the two
    lgamma values cancel (an error of 9e-12 at df = 1e4 and 5e-10 at
    df = 1e6), so there their Stirling series are subtracted term by
    term."""
    if a < 20.0:
        return math.lgamma(a) - math.lgamma(a + 0.5)
    b = a + 0.5
    series = sum(c * (a ** (1 - 2 * k) - b ** (1 - 2 * k))
                 for k, c in enumerate(_STIRLING, 1))
    return 0.5 - 0.5 * math.log(a) - a * math.log1p(0.5 / a) + series


def _beta_fraction(a, b, x):
    """Continued fraction of the regularised incomplete beta function
    I_x(a, b), by the modified Lentz method; it converges quickly for
    x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise ArithmeticError("incomplete beta fraction did not converge "
                          "(a=%r, b=%r, x=%r)" % (a, b, x))


def _lower_tail(t, df):
    """P(T <= -|t|) = I_x(df/2, 1/2) / 2 with x = df / (df + t^2).  x
    and 1 - x are formed from t^2/df directly, not by subtraction, and
    by the symmetry I_x(a, b) = 1 - I_(1-x)(b, a) the fraction is
    evaluated where it converges.  Where t^2/df overflows, log x is
    log df - 2 log|t| and 1 - x rounds to 1."""
    z = t * t / df
    if z == 0.0:
        return 0.5
    a = 0.5 * df
    if z < math.inf:
        log_x, x, y = -math.log1p(z), 1.0 / (1.0 + z), z / (1.0 + z)
    elif math.isinf(t):
        return 0.0
    else:
        log_x = math.log(df) - 2.0 * math.log(abs(t))
        x, y = math.exp(log_x), 1.0
    # log of x^a (1 - x)^(1/2) / B(a, 1/2)
    front = math.exp(a * log_x + 0.5 * math.log(y)
                     - _LOG_SQRT_PI - _log_gamma_drop(a))
    if x * (a + 2.5) < a + 1.0:
        return 0.5 * front * _beta_fraction(a, 0.5, x) / a
    return 0.5 - front * _beta_fraction(0.5, a, y)


def t_cdf(t, df):
    """CDF of Student's t with ``df`` (possibly fractional) degrees of
    freedom, via the identity with the regularised incomplete beta
    function; exact 0.5 at t = 0 by construction."""
    _check_df(df)
    t = float(t)
    if t == 0.0:
        return 0.5
    if math.isnan(t):
        return t
    tail = _lower_tail(t, df)
    return tail if t < 0 else 1.0 - tail


def t_quantile(p, df):
    """Inverse of :func:`t_cdf` in its first argument.

    Newton steps with the t density solve for the lower tail from
    t = 0.  The CDF is convex for t < 0, so no step passes the root:
    the iterates fall monotonically onto it, and stop once rounding
    leaves no step of more than a unit in the last place.  Where the
    density underflows before the root, the quantile is out of reach
    and :class:`NonFiniteStatistic` names it."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    _check_df(df)
    if p == 0.5:
        return 0.0
    tail = min(p, 1.0 - p)
    a = 0.5 * df
    log_peak = -_log_gamma_drop(a) - 0.5 * math.log(math.pi * df)
    t = 0.0
    for _ in range(1000):
        density = math.exp(log_peak - (a + 0.5) * math.log1p(t * t / df))
        if density == 0.0:
            raise NonFiniteStatistic("the t density underflows on the way "
                                     "to the quantile (p=%r, df=%r)"
                                     % (p, df))
        step = (_lower_tail(t, df) - tail) / density
        if not step > _EPS * -t:
            return t if p < 0.5 else -t
        t -= step
    raise ArithmeticError("t quantile did not converge (p=%r, df=%r)"
                          % (p, df))


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
    try:
        se1 = group1.std ** 2 / group1.count
        se2 = group2.std ** 2 / group2.count
        se_sq = se1 + se2
        if se_sq == 0.0:
            raise DegenerateVariance("both groups have zero variance")
        df = se_sq ** 2 / (se1 ** 2 / (group1.count - 1)
                           + se2 ** 2 / (group2.count - 1))
    except (OverflowError, ZeroDivisionError):
        se_sq = df = math.nan
    if not (math.isfinite(se_sq) and math.isfinite(df)):
        raise NonFiniteStatistic(
            "standard errors or degrees of freedom leave the float range "
            "(std %r and %r)" % (group1.std, group2.std))
    t = (group1.mean - group2.mean) / math.sqrt(se_sq)
    p = t_cdf(t, df)
    halfwidth = t_quantile(0.975, df) * math.sqrt(se_sq)
    diff = group1.mean - group2.mean
    if not all(map(math.isfinite, (t, diff - halfwidth, diff + halfwidth))):
        raise NonFiniteStatistic(
            "the t statistic or the confidence interval leaves the float "
            "range (means %r and %r)" % (group1.mean, group2.mean))
    return WelchReport(
        t=t,
        df=df,
        p_one_tailed=p,
        ci_low=diff - halfwidth,
        ci_high=diff + halfwidth,
        group1=group1,
        group2=group2,
    )
