"""Property battery for the importance-weighted estimator layer.

An importance sampler biases its draws toward severe configurations
and re-weights them back to the nominal distribution, so its numbers
are only as good as the weighted estimators.  This suite checks the
*statistical* claims (unbiasedness on a mixture with a known closed
form, CI coverage on synthetic importance samples, rare-event tail
recovery), the algebraic identities (equal weights reduce to the
unweighted estimators, scale invariance in the weights, ESS bounds),
and the documented failure modes (degeneracy sentinels on a proposal
that fails to dominate the nominal, ValueError on malformed weight
vectors).  CI runs it under ``HYPOTHESIS_PROFILE=ci`` for
derandomized, bounded examples.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import (
    DEGENERACY_ESS_SHARE,
    WeightDiagnostics,
    confidence_interval_95,
    effective_sample_size,
    mean,
    weight_diagnostics,
    weighted_mean,
    weighted_mean_ci,
    weighted_quantile,
    weighted_tail_probability,
    weighted_tail_probability_ci,
)

# The synthetic importance sample used throughout: nominal severity
# density p(theta) = kappa (1 - theta)^(kappa - 1) on [0, 1]
# (mild-biased, mean 1 / (kappa + 1), tail P[theta > c] = (1 - c)^kappa).
KAPPA = 3.0
TRUE_MEAN = 1.0 / (KAPPA + 1.0)


def nominal_density(theta: float) -> float:
    return KAPPA * (1.0 - theta) ** (KAPPA - 1.0)


def uniform_proposal_sample(rng: random.Random, n: int):
    """Importance sample with q = Uniform(0, 1): dominates p everywhere
    (finite-variance weights), so every estimator claim applies."""
    thetas = [rng.random() for _ in range(n)]
    weights = [nominal_density(theta) for theta in thetas]
    return thetas, weights


def severe_proposal_sample(rng: random.Random, n: int, lam: float = 3.0):
    """A severe-biased proposal q(theta) = lam theta^(lam - 1).
    Does NOT dominate p near theta = 0, so the
    weights have infinite variance for full-support functionals --
    exactly the pathology the degeneracy sentinels exist to flag.  Tail
    functionals (indicators supported at large theta) stay
    finite-variance, which is the regime tail estimates run in.
    """
    thetas, weights = [], []
    for _ in range(n):
        theta = rng.random() ** (1.0 / lam)
        log_p = math.log(KAPPA) + (KAPPA - 1.0) * math.log(
            max(1.0 - theta, 1e-300)
        )
        log_q = math.log(lam) + (lam - 1.0) * math.log(max(theta, 1e-300))
        thetas.append(theta)
        weights.append(math.exp(log_p - log_q))
    return thetas, weights


# Magnitudes below ~1e-6 are excluded (not just subnormals): the exact
# power-of-two scale-invariance property needs every weight*value
# product to stay in the normal range, where 2^k commutes with IEEE
# multiplication -- gradual underflow breaks exactness.
values_strategy = st.lists(
    st.floats(min_value=-100.0, max_value=100.0).filter(
        lambda v: v == 0.0 or abs(v) >= 1e-6
    ),
    min_size=1,
    max_size=12,
)
positive_weights = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def weighted_samples(draw):
    values = draw(values_strategy)
    weights = draw(
        st.lists(
            positive_weights,
            min_size=len(values),
            max_size=len(values),
        )
    )
    return values, weights


class TestWeightedMean:
    @given(values_strategy)
    def test_equal_weights_reduce_to_mean(self, values):
        assert weighted_mean(values, [1.0] * len(values)) == (
            pytest.approx(mean(values), rel=1e-12, abs=1e-12)
        )

    @given(weighted_samples(), st.integers(min_value=-20, max_value=20))
    def test_weight_scale_invariant(self, sample, exponent):
        """Self-normalization: rescaling all weights by c > 0 changes
        nothing.  Power-of-two scales commute exactly with IEEE
        arithmetic, so equality is exact."""
        values, weights = sample
        scale = 2.0 ** exponent
        assert weighted_mean(values, weights) == weighted_mean(
            values, [scale * w for w in weights]
        )

    @given(weighted_samples())
    def test_bounded_by_observed_range(self, sample):
        values, weights = sample
        m = weighted_mean(values, weights)
        assert min(values) - 1e-9 <= m <= max(values) + 1e-9

    def test_unbiased_on_known_mixture(self):
        """The core IS claim: sampling from the uniform proposal and
        re-weighting by p recovers E_p[theta] = 1/(kappa+1) = 0.25.
        Seeded draws, so the tolerance cannot flake."""
        thetas, weights = uniform_proposal_sample(random.Random(2024), 4000)
        assert weighted_mean(thetas, weights) == pytest.approx(
            TRUE_MEAN, abs=0.01
        )


class TestEffectiveSampleSize:
    @given(st.lists(positive_weights, min_size=1, max_size=20))
    def test_bounds(self, weights):
        ess = effective_sample_size(weights)
        assert 1.0 - 1e-9 <= ess <= len(weights) + 1e-9

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=-10, max_value=10),
    )
    def test_equal_weights_give_n(self, n, exponent):
        ess = effective_sample_size([2.0 ** exponent] * n)
        assert ess == pytest.approx(n, rel=1e-12)

    @given(st.lists(positive_weights, min_size=2, max_size=20))
    def test_strictly_below_n_when_unequal(self, weights):
        if len(set(weights)) == 1:
            return
        assert effective_sample_size(weights) < len(weights)

    def test_concentration_drives_ess_to_one(self):
        assert effective_sample_size([1e12, 1.0, 1.0]) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_singleton(self):
        assert effective_sample_size([0.37]) == pytest.approx(1.0)


class TestDegeneracySentinels:
    def test_equal_weights_healthy(self):
        diag = weight_diagnostics([2.0] * 8)
        assert diag == WeightDiagnostics(
            n=8, ess=pytest.approx(8.0), max_share=pytest.approx(0.125),
            degenerate=False,
        )

    def test_dominant_weight_flags(self):
        diag = weight_diagnostics([10.0, 1.0, 1.0, 1.0])
        assert diag.max_share > 0.5
        assert diag.degenerate

    def test_ess_share_flags_without_dominant_weight(self):
        # Two equal heavyweights among six near-zero draws: max_share
        # just under 1/2, but ESS ~= 2 of 8 is below the 1/3 floor.
        weights = [1.0, 1.0] + [1e-6] * 6
        diag = weight_diagnostics(weights)
        assert diag.max_share < 0.5
        assert diag.ess / diag.n < DEGENERACY_ESS_SHARE
        assert diag.degenerate

    def test_singleton_not_degenerate(self):
        assert not weight_diagnostics([5.0]).degenerate

    def test_flags_non_dominating_proposal(self):
        """The pathology the sentinel exists for: the severe-biased
        proposal does not dominate the nominal near theta = 0, so
        full-support weights are infinite-variance and the ESS
        collapses.  Every seed must flag it -- a silent pass here is a
        silent lie in the robustness report."""
        for seed in range(1, 6):
            _, weights = severe_proposal_sample(random.Random(seed), 200)
            assert weight_diagnostics(weights).degenerate


class TestWeightedQuantile:
    def test_equal_weights_give_order_statistics(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        weights = [1.0] * 5
        for k in range(1, 6):
            assert weighted_quantile(values, weights, k / 5.0) == float(k)

    def test_extremes(self):
        values, weights = [3.0, 1.0, 2.0], [1.0, 1.0, 1.0]
        assert weighted_quantile(values, weights, 0.0) == 1.0
        assert weighted_quantile(values, weights, 1.0) == 3.0

    def test_zero_weight_values_ignored(self):
        assert weighted_quantile([0.0, 5.0], [0.0, 1.0], 0.0) == 5.0

    def test_pinned_weighted_median(self):
        # CDF steps: 1 -> 0.25, 2 -> 0.5, 3 -> 1.0.
        assert weighted_quantile([1.0, 2.0, 3.0], [1.0, 1.0, 2.0], 0.5) == 2.0

    @given(
        weighted_samples(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_q(self, sample, q1, q2):
        values, weights = sample
        lo, hi = min(q1, q2), max(q1, q2)
        assert weighted_quantile(values, weights, lo) <= weighted_quantile(
            values, weights, hi
        )

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            weighted_quantile([1.0], [1.0], -0.1)
        with pytest.raises(ValueError):
            weighted_quantile([1.0], [1.0], 1.1)


class TestTailProbability:
    @given(weighted_samples(), st.floats(min_value=-200.0, max_value=200.0))
    def test_is_a_probability(self, sample, threshold):
        values, weights = sample
        assert 0.0 <= weighted_tail_probability(
            values, weights, threshold
        ) <= 1.0

    def test_equal_weights_give_empirical_fraction(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert weighted_tail_probability(
            values, [1.0] * 4, 2.5
        ) == pytest.approx(0.5)
        assert weighted_tail_probability(values, [1.0] * 4, 1.0) == 0.0

    def test_recovers_rare_event_from_severe_proposal(self):
        """The rare-event estimate: P[delivery < 0.1]
        with delivery = 1 - theta is P[theta > 0.9] = 0.1^3 = 1e-3
        under the nominal -- a ~4-hit event in 4000 nominal draws, but
        the severe proposal lands ~27 % of its draws there and the
        weights carry them back.  Seeded, so the bounds cannot flake.
        """
        thetas, weights = severe_proposal_sample(random.Random(2024), 4000)
        delivery = [1.0 - theta for theta in thetas]
        estimate = weighted_tail_probability(delivery, weights, 0.1)
        assert 0.0005 < estimate < 0.002


class TestWeightedMeanCI:
    def test_equal_weights_match_t_interval_up_to_n_ratio(self):
        """With unit weights the delta-method variance is
        sum((x - m)^2) / n^2 where the t interval uses s^2 / n =
        sum((x - m)^2) / ((n - 1) n): same center and df, half-width
        smaller by exactly sqrt((n - 1) / n)."""
        values = [3.0, 5.0, 8.0, 13.0, 21.0]
        n = len(values)
        lo_w, hi_w = weighted_mean_ci(values, [1.0] * n)
        lo_t, hi_t = confidence_interval_95(values)
        assert (lo_w + hi_w) / 2 == pytest.approx((lo_t + hi_t) / 2)
        assert (hi_w - lo_w) / (hi_t - lo_t) == pytest.approx(
            math.sqrt((n - 1) / n), rel=1e-9
        )

    def test_coverage_on_importance_samples(self):
        """Mirror of the t-interval coverage gate: on n=40 importance
        samples from the dominating uniform proposal, the interval must
        cover E_p[theta] at close to the nominal rate.  The ratio
        estimator's linearized variance under-covers slightly (~94.3 %
        measured over these 2,000 seeded trials); the band is set
        around that with ~3-sigma binomial slack."""
        rng = random.Random(777)
        trials, covered = 2000, 0
        for _ in range(trials):
            thetas, weights = uniform_proposal_sample(rng, 40)
            low, high = weighted_mean_ci(thetas, weights)
            covered += int(low <= TRUE_MEAN <= high)
        assert 0.91 <= covered / trials <= 0.97

    def test_tail_ci_coverage_and_clipping(self):
        rng = random.Random(99)
        trials, covered = 2000, 0
        truth = 0.1 ** KAPPA
        for _ in range(trials):
            thetas, weights = severe_proposal_sample(rng, 60)
            delivery = [1.0 - theta for theta in thetas]
            low, high = weighted_tail_probability_ci(delivery, weights, 0.1)
            assert 0.0 <= low <= high <= 1.0
            covered += int(low <= truth <= high)
        assert covered / trials >= 0.94

    def test_degenerate_inputs_return_point_interval(self):
        assert weighted_mean_ci([4.0], [1.0]) == (4.0, 4.0)
        # A single positive weight among zeros: ESS = 1.
        assert weighted_mean_ci([4.0, 9.0], [1.0, 0.0]) == (4.0, 4.0)
        # Zero residual variance.
        assert weighted_mean_ci([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) == (
            5.0, 5.0
        )

    def test_concentration_widens_not_narrows(self):
        """Heavy weight concentration must not fake precision: df runs
        on ESS, so concentrating mass on two draws gives a wider
        interval than the same values equally weighted."""
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        equal = weighted_mean_ci(values, [1.0] * 6)
        skewed = weighted_mean_ci(values, [10.0, 10.0, 0.1, 0.1, 0.1, 0.1])
        assert (skewed[1] - skewed[0]) > (equal[1] - equal[0])


class TestMalformedWeights:
    """Weighted estimators raise on caller bugs instead of returning
    sentinels: a malformed weight vector means the caller's bookkeeping
    is broken, and no number computed from it can be trusted."""

    CASES = (
        ([1.0, 2.0], [1.0]),          # misaligned lengths
        ([], []),                     # empty
        ([1.0], [-0.5]),              # negative weight
        ([1.0], [math.inf]),          # infinite weight
        ([1.0], [math.nan]),          # NaN weight
        ([1.0, 2.0], [0.0, 0.0]),     # all mass gone
    )

    @pytest.mark.parametrize("values,weights", CASES)
    def test_raises_value_error(self, values, weights):
        with pytest.raises(ValueError):
            weighted_mean(values, weights)
        with pytest.raises(ValueError):
            weighted_quantile(values, weights, 0.5)
        with pytest.raises(ValueError):
            weighted_mean_ci(values, weights)

    def test_zero_weights_allowed_when_mass_remains(self):
        assert weighted_mean([1.0, 99.0], [1.0, 0.0]) == 1.0
