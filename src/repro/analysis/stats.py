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
* The importance-weighted estimators (``weighted_mean`` and friends)
  *do* raise ``ValueError`` on structurally broken input --
  empty/misaligned samples, negative or non-finite weights, all-zero
  mass -- because a weight vector that malformed signals a caller bug,
  not a degenerate-but-legal sample.
  Legal degeneracy (n == 1, zero residual variance, ESS <= 1) again
  collapses to point intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return math.fsum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); zero for fewer than two samples."""
    n = len(values)
    if n < 2:
        return 0.0
    center = mean(values)
    variance = math.fsum((v - center) ** 2 for v in values) / (n - 1)
    return math.sqrt(variance)


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
    return 1.0 / (r1 ** 2 / (n1 - 1) + r2 ** 2 / (n2 - 1))


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
    v1 = stddev(a) ** 2
    v2 = stddev(b) ** 2
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
    se1 = stddev(a) ** 2 / n1
    se2 = stddev(b) ** 2 / n2
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


# ---------------------------------------------------------------------------
# Importance-weighted (self-normalized) estimators.
#
# A sampler that draws from a proposal distribution q (say, biased
# toward severe configurations) re-weights each draw by the likelihood
# ratio w_i = p(x_i) / q(x_i) back to the nominal distribution p.
# Everything below is the self-normalized flavor:
# estimates divide by sum(w) rather than n, so the weights only need to
# be known up to a common constant.  The price is a small O(1/n) bias
# (the estimator is a ratio), which the effective-sample-size
# diagnostics below are there to keep honest.
# ---------------------------------------------------------------------------


def _check_weights(
    values: Sequence[float], weights: Sequence[float]
) -> None:
    if len(values) != len(weights):
        raise ValueError(
            f"values and weights must align: {len(values)} vs "
            f"{len(weights)}"
        )
    if not weights:
        raise ValueError("need at least one weighted observation")
    for w in weights:
        if not (w >= 0.0) or math.isinf(w):
            raise ValueError(f"weights must be finite and >= 0, got {w}")
    if math.fsum(weights) <= 0.0:
        raise ValueError("weights sum to zero: no observation has mass")


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Self-normalized importance-weighted mean: sum(w x) / sum(w).

    With equal weights this is exactly :func:`mean`.  Raises
    ``ValueError`` on empty input, misaligned lengths, negative /
    non-finite weights, or an all-zero weight vector (a fully
    degenerate sample estimates nothing).
    """
    _check_weights(values, weights)
    total = math.fsum(weights)
    return math.fsum(w * x for w, x in zip(weights, values)) / total


def effective_sample_size(weights: Sequence[float]) -> float:
    """Kish effective sample size: (sum w)^2 / sum(w^2).

    Equals ``n`` exactly when all weights are equal and degrades toward
    1.0 as mass concentrates on a single draw; invariant to rescaling
    all weights by a common constant.  The standard self-normalized-IS
    health check: an ESS far below ``n`` means the proposal is poorly
    matched to the nominal distribution and the estimates below carry
    far less information than the raw draw count suggests.
    """
    _check_weights(weights, weights)
    total = math.fsum(weights)
    return total * total / math.fsum(w * w for w in weights)


#: An ESS share (ESS / n) below this marks the weight vector as
#: degenerate -- over ~2/3 of the nominal-distribution information was
#: lost to weight mismatch, so point estimates are dominated by a
#: handful of draws and the CI below is untrustworthy.
DEGENERACY_ESS_SHARE = 1.0 / 3.0

#: A single draw carrying more than this share of the total weight also
#: flags degeneracy, even when the ESS share still looks healthy.
DEGENERACY_MAX_SHARE = 0.5


@dataclass(frozen=True)
class WeightDiagnostics:
    """Health report for an importance-weight vector."""

    n: int
    ess: float
    max_share: float  # largest single weight / sum of weights
    degenerate: bool


def weight_diagnostics(weights: Sequence[float]) -> WeightDiagnostics:
    """Degeneracy sentinel for importance weights.

    ``degenerate`` is True when ``ess / n < DEGENERACY_ESS_SHARE`` or a
    single draw holds more than ``DEGENERACY_MAX_SHARE`` of the total
    mass.  A singleton sample (n == 1) trivially maxes both shares yet
    is reported non-degenerate: with one draw there is no weight
    *imbalance* to flag, only a small sample, which ``n`` conveys.
    """
    _check_weights(weights, weights)
    n = len(weights)
    ess = effective_sample_size(weights)
    max_share = max(weights) / math.fsum(weights)
    degenerate = n > 1 and (
        ess / n < DEGENERACY_ESS_SHARE or max_share > DEGENERACY_MAX_SHARE
    )
    return WeightDiagnostics(
        n=n, ess=ess, max_share=max_share, degenerate=degenerate
    )


def weighted_quantile(
    values: Sequence[float], weights: Sequence[float], q: float
) -> float:
    """Self-normalized weighted quantile (inverse of the weighted CDF).

    Returns the smallest observed value whose cumulative normalized
    weight reaches ``q``; with equal weights and q = k/n this is the
    k-th order statistic.  ``q`` outside [0, 1] raises; q = 0 returns
    the smallest value carrying positive weight.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    _check_weights(values, weights)
    total = math.fsum(weights)
    pairs = sorted(
        (x, w) for x, w in zip(values, weights) if w > 0.0
    )
    cumulative = 0.0
    for x, w in pairs:
        cumulative += w
        if cumulative >= q * total - 1e-12 * total:
            return x
    return pairs[-1][0]


def weighted_tail_probability(
    values: Sequence[float], weights: Sequence[float], threshold: float
) -> float:
    """Self-normalized estimate of P[X < threshold] under the nominal
    distribution, from draws made under the proposal.

    This is :func:`weighted_mean` over the indicator 1[x < threshold]
    -- the rare-event estimator importance sampling exists for.
    """
    return weighted_mean(
        [1.0 if x < threshold else 0.0 for x in values], weights
    )


def weighted_mean_ci(
    values: Sequence[float],
    weights: Sequence[float],
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Approximate CI for the self-normalized weighted mean.

    Uses the standard linearization (delta-method) variance of the
    ratio estimator, var ~= sum(w_i^2 (x_i - m)^2) / (sum w)^2, with a
    Student-t critical value on ``ESS - 1`` degrees of freedom so heavy
    weight concentration widens the interval instead of silently
    narrowing it.  Degenerate inputs return the point interval: a
    single observation, a single positive weight, or zero residual
    variance all yield ``(m, m)``.
    """
    m = weighted_mean(values, weights)
    ess = effective_sample_size(weights)
    if len(values) < 2 or ess <= 1.0:
        return (m, m)
    total = math.fsum(weights)
    variance = math.fsum(
        (w * (x - m)) ** 2 for w, x in zip(weights, values)
    ) / (total * total)
    if variance <= 0.0:
        return (m, m)
    half_width = t_critical(ess - 1.0, confidence) * math.sqrt(variance)
    return (m - half_width, m + half_width)


def weighted_tail_probability_ci(
    values: Sequence[float],
    weights: Sequence[float],
    threshold: float,
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """CI for :func:`weighted_tail_probability`, clipped into [0, 1]."""
    indicators = [1.0 if x < threshold else 0.0 for x in values]
    low, high = weighted_mean_ci(indicators, weights, confidence)
    return (max(0.0, low), min(1.0, high))
