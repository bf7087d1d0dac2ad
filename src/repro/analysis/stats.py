"""Small statistics helpers (no heavy dependencies).

The experiment harness needs means, sample standard deviations, and
confidence intervals over per-topology replications.  The adaptive
sweep planner (:mod:`repro.experiments.adaptive`) additionally needs
Student-t critical values at the small per-batch ``n`` it operates at
(where the normal z=1.96 approximation is materially too narrow: the
true t multiplier is 12.7 at n=2 and 2.78 at n=5), Welch two-sample
tests, and paired-difference CIs for common-random-number comparisons.

Everything is implemented from scratch on top of ``math`` -- the
Student-t distribution via the regularized incomplete beta function
(continued-fraction evaluation, Lentz's method) -- so the module stays
dependency-free and bit-deterministic given the platform's libm.

Edge-case sentinels (never raise on legal-but-degenerate data)
--------------------------------------------------------------
* ``confidence_interval`` / ``confidence_interval_95`` with n == 1
  return the degenerate interval ``(x, x)``; zero-variance samples
  likewise collapse to ``(mean, mean)``.
* ``welch_t_test`` with either sample smaller than 2 returns the
  "no evidence" sentinel ``WelchResult(statistic=0.0, df=0.0,
  p_value=1.0)``.  Two zero-variance samples return ``p_value=1.0``
  when the means are equal and ``p_value=0.0`` (infinite statistic)
  when they differ.
* ``paired_difference_ci`` with a single pair returns the degenerate
  interval around that one difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return math.fsum(values) / len(values)


def variance(values: Sequence[float]) -> float:
    """Sample variance (n-1); zero for fewer than two samples.

    Squares by ``d * d``, never ``** 2``: float ``**`` goes through libm
    ``pow``, which is not correctly rounded for every input, so a
    power-of-two rescaling of the samples could change the last bit.
    """
    n = len(values)
    if n < 2:
        return 0.0
    center = mean(values)
    return math.fsum(d * d for d in (v - center for v in values)) / (n - 1)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); zero for fewer than two samples."""
    return math.sqrt(variance(values))


# ----------------------------------------------------------------------
# Student-t distribution from scratch: regularized incomplete beta
# I_x(a, b) by continued fraction (Numerical Recipes' betacf, modified
# Lentz), then the CDF identity and a bisection for critical values.


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function at ``x``."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast for x < (a+1)/(a+b+2);
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df!r}")
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    x = df / (df + t * t)
    tail = 0.5 * _reg_inc_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def t_critical(df: float, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value: P(|T| <= t*) = confidence.

    Found by bisection on the CDF (deterministic fixed iteration count,
    so identical inputs give bit-identical outputs everywhere the libm
    agrees).  Replaces the z=1.96 normal approximation, which at the
    small n adaptive sweeps run at understates the interval badly
    (df=1 -> 12.706, df=4 -> 2.776, df=29 -> 2.045).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df!r}")
    target = 0.5 + confidence / 2.0
    lo, hi = 0.0, 1.0
    while student_t_cdf(hi, df) < target:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for sane inputs
            return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# Confidence intervals


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Student-t CI for the mean of ``values``.

    n == 1 returns the degenerate ``(x, x)`` interval (no variance
    estimate exists); zero-variance samples collapse to ``(mean, mean)``.
    """
    center = mean(values)
    if len(values) < 2:
        return (center, center)
    half_width = ci_half_width(values, confidence)
    return (center - half_width, center + half_width)


def confidence_interval_95(values: Sequence[float]) -> Tuple[float, float]:
    """Student-t 95 % CI for the mean of ``values``.

    Historically this used the normal z=1.96 approximation; it now uses
    the exact t critical value for n-1 degrees of freedom, so intervals
    at small n are wider (and honest).
    """
    return confidence_interval(values, 0.95)


def ci_half_width(values: Sequence[float], confidence: float = 0.95) -> float:
    """Half-width of the Student-t CI; 0.0 for fewer than two samples."""
    n = len(values)
    if n < 2:
        return 0.0
    spread = stddev(values)
    if spread == 0.0:
        return 0.0
    return t_critical(n - 1, confidence) * spread / math.sqrt(n)


# ----------------------------------------------------------------------
# Two-sample comparisons


@dataclass(frozen=True)
class WelchResult:
    """Welch's unequal-variance t-test outcome."""

    statistic: float
    df: float
    p_value: float


def _welch_df(se1: float, se2: float, n1: int, n2: int) -> float:
    """Welch-Satterthwaite degrees of freedom.

    Computed from the variance *ratios* r_i = se_i / (se1 + se2) --
    algebraically identical to the textbook form but exactly
    scale-invariant and immune to ``se ** 2`` underflowing to zero for
    denormally small variances.
    """
    total = se1 + se2
    r1, r2 = se1 / total, se2 / total
    return 1.0 / (r1 * r1 / (n1 - 1) + r2 * r2 / (n2 - 1))


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> WelchResult:
    """Welch's two-sample t-test (unequal variances).

    Symmetric (swapping the samples negates the statistic, p unchanged)
    and scale-invariant (multiplying both samples by c > 0 changes
    nothing).  Sentinels instead of raising: either sample smaller than
    2 -> ``WelchResult(0.0, 0.0, 1.0)`` ("no evidence"); two
    zero-variance samples -> p 1.0 on equal means, p 0.0 (infinite
    statistic, df n1+n2-2) on unequal means.
    """
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        return WelchResult(statistic=0.0, df=0.0, p_value=1.0)
    m1, m2 = mean(a), mean(b)
    v1 = variance(a)
    v2 = variance(b)
    if v1 == 0.0 and v2 == 0.0:
        df = float(n1 + n2 - 2)
        if m1 == m2:
            return WelchResult(statistic=0.0, df=df, p_value=1.0)
        statistic = math.copysign(math.inf, m1 - m2)
        return WelchResult(statistic=statistic, df=df, p_value=0.0)
    se1, se2 = v1 / n1, v2 / n2
    statistic = (m1 - m2) / math.sqrt(se1 + se2)
    df = _welch_df(se1, se2, n1, n2)
    p_value = 2.0 * (1.0 - student_t_cdf(abs(statistic), df))
    return WelchResult(
        statistic=statistic, df=df, p_value=min(1.0, max(0.0, p_value))
    )


def unpaired_difference_ci(
    a: Sequence[float], b: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Welch CI for ``mean(a) - mean(b)`` treating the samples as
    independent.  Either sample smaller than 2 (or two zero-variance
    samples) yields the degenerate interval around the point estimate.
    """
    n1, n2 = len(a), len(b)
    center = mean(a) - mean(b)
    if n1 < 2 or n2 < 2:
        return (center, center)
    se1 = variance(a) / n1
    se2 = variance(b) / n2
    if se1 + se2 == 0.0:
        return (center, center)
    df = _welch_df(se1, se2, n1, n2)
    half_width = t_critical(df, confidence) * math.sqrt(se1 + se2)
    return (center - half_width, center + half_width)


def paired_difference_ci(
    a: Sequence[float], b: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Student-t CI for the mean paired difference ``a[i] - b[i]``.

    This is the common-random-number payoff: when both samples ran on
    identical topologies/fading (same seeds, index-aligned), the
    topology-to-topology variance cancels in the differences and the
    interval is never wider than the unpaired Welch CI on positively
    correlated samples.  Requires equal lengths; a single pair returns
    the degenerate interval around its difference.
    """
    if len(a) != len(b):
        raise ValueError(
            f"paired samples must align: {len(a)} vs {len(b)} values"
        )
    diffs = [x - y for x, y in zip(a, b)]
    return confidence_interval(diffs, confidence)


def relative_gain_pct(value: float, baseline: float) -> float:
    """Percentage improvement of ``value`` over ``baseline``."""
    if baseline == 0:
        raise ValueError("baseline is zero")
    return 100.0 * (value - baseline) / baseline
