"""Tests for propagation, fading, radio parameters, and reception."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.network import NetworkConfig
from repro.phy.fading import (
    NoFading,
    RayleighFading,
    RicianFading,
    rayleigh_outage_probability,
)
from repro.phy.propagation import (
    FreeSpacePropagation,
    LogDistancePropagation,
    TwoRayGroundPropagation,
)
from repro.phy.radio import (
    RadioParams,
    calibrate_rx_threshold_dbm,
    dbm_to_mw,
    mw_to_dbm,
    thermal_noise_mw,
)
from repro.phy.reception import ReceptionModel


class TestUnitConversions:
    def test_known_values(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert dbm_to_mw(30.0) == pytest.approx(1000.0)
        assert mw_to_dbm(1.0) == pytest.approx(0.0)

    def test_zero_power_is_minus_infinity(self):
        assert mw_to_dbm(0.0) == float("-inf")

    @given(st.floats(min_value=-120.0, max_value=40.0))
    def test_roundtrip(self, dbm):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-9)

    def test_thermal_noise_magnitude(self):
        # 22 MHz, 10 dB noise figure: about -90.6 dBm.
        noise_dbm = mw_to_dbm(thermal_noise_mw(22e6, 10.0))
        assert noise_dbm == pytest.approx(-90.6, abs=0.2)


class TestFreeSpace:
    def test_inverse_square_law(self):
        model = FreeSpacePropagation()
        p1 = model.rx_power_mw(100.0, 100.0)
        p2 = model.rx_power_mw(100.0, 200.0)
        assert p1 / p2 == pytest.approx(4.0)

    def test_gains_multiply(self):
        model = FreeSpacePropagation()
        base = model.rx_power_mw(1.0, 50.0)
        assert model.rx_power_mw(1.0, 50.0, tx_gain=2.0, rx_gain=3.0) == (
            pytest.approx(6.0 * base)
        )

    def test_zero_distance_returns_tx_power(self):
        model = FreeSpacePropagation()
        assert model.rx_power_mw(5.0, 0.0) == 5.0

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            FreeSpacePropagation(frequency_hz=0.0)


class TestTwoRayGround:
    def test_crossover_distance_formula(self):
        model = TwoRayGroundPropagation(
            frequency_hz=2.4e9, tx_antenna_height_m=1.5, rx_antenna_height_m=1.5
        )
        wavelength = 299_792_458.0 / 2.4e9
        expected = 4.0 * math.pi * 1.5 * 1.5 / wavelength
        assert model.crossover_distance_m == pytest.approx(expected)

    def test_free_space_below_crossover(self):
        model = TwoRayGroundPropagation()
        free = FreeSpacePropagation()
        d = model.crossover_distance_m * 0.5
        assert model.rx_power_mw(10.0, d) == pytest.approx(
            free.rx_power_mw(10.0, d)
        )

    def test_fourth_power_law_beyond_crossover(self):
        model = TwoRayGroundPropagation()
        d = model.crossover_distance_m * 1.5
        p1 = model.rx_power_mw(10.0, d)
        p2 = model.rx_power_mw(10.0, 2.0 * d)
        assert p1 / p2 == pytest.approx(16.0)

    @given(st.floats(min_value=1.0, max_value=2000.0))
    def test_power_decreases_with_distance(self, d):
        model = TwoRayGroundPropagation()
        assert model.rx_power_mw(10.0, d) >= model.rx_power_mw(10.0, d + 1.0)

    def test_invalid_heights(self):
        with pytest.raises(ValueError):
            TwoRayGroundPropagation(tx_antenna_height_m=0.0)


class TestLogDistance:
    def test_matches_free_space_at_reference(self):
        model = LogDistancePropagation(path_loss_exponent=3.5)
        free = FreeSpacePropagation()
        assert model.rx_power_mw(1.0, 1.0) == pytest.approx(
            free.rx_power_mw(1.0, 1.0)
        )

    def test_exponent_law(self):
        model = LogDistancePropagation(path_loss_exponent=3.0)
        p1 = model.rx_power_mw(1.0, 10.0)
        p2 = model.rx_power_mw(1.0, 20.0)
        assert p1 / p2 == pytest.approx(8.0)

    def test_rejects_sub_free_space_exponent(self):
        with pytest.raises(ValueError):
            LogDistancePropagation(path_loss_exponent=1.5)


_frequencies = st.floats(min_value=0.9e9, max_value=6e9)
_path_loss_models = st.one_of(
    st.builds(FreeSpacePropagation, frequency_hz=_frequencies),
    st.builds(
        TwoRayGroundPropagation,
        frequency_hz=_frequencies,
        tx_antenna_height_m=st.floats(min_value=0.5, max_value=30.0),
        rx_antenna_height_m=st.floats(min_value=0.5, max_value=30.0),
    ),
    st.builds(
        LogDistancePropagation,
        frequency_hz=_frequencies,
        reference_distance_m=st.floats(min_value=0.5, max_value=100.0),
        path_loss_exponent=st.floats(min_value=2.0, max_value=6.0),
    ),
)
_gains = st.floats(min_value=0.1, max_value=10.0)


def _knee_m(model):
    """Where the model changes law (free space has no knee: 100 m)."""
    if isinstance(model, TwoRayGroundPropagation):
        return model.crossover_distance_m
    if isinstance(model, LogDistancePropagation):
        return model.reference_distance_m
    return 100.0


class TestMaxRangeForPower:
    """``max_range_for_power`` is the exact reach, widened by a hair.

    The cutoff is the power at a distance 0.01x..100x the model's knee,
    so two-ray and log-distance cutoffs land on both sides of the law
    change.  Superset: every distance whose power clears the cutoff lies
    within the bound.  Tightness: the bound is within ``_TIGHT`` of the
    true reach, so power just inside it still clears the cutoff and
    power just beyond it does not.
    """

    _TIGHT = 1.0 + 1e-5

    @given(
        model=_path_loss_models,
        tx_mw=st.floats(min_value=0.01, max_value=1000.0),
        gains=st.tuples(_gains, _gains),
        cutoff_scale=st.floats(min_value=-2.0, max_value=2.0),
        probe_scales=st.lists(
            st.floats(min_value=0.01, max_value=100.0), max_size=8
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_is_exact_reach(
        self, model, tx_mw, gains, cutoff_scale, probe_scales
    ):
        def power(distance_m):
            return model.rx_power_mw(tx_mw, distance_m, *gains)

        cutoff_m = _knee_m(model) * 10.0 ** cutoff_scale
        cutoff = power(cutoff_m)
        bound = model.max_range_for_power(tx_mw, cutoff, *gains)
        assert bound is not None and cutoff_m <= bound
        for scale in probe_scales:
            if power(cutoff_m * scale) >= cutoff:
                assert cutoff_m * scale <= bound
        assert power(bound / self._TIGHT) >= cutoff
        assert power(bound * self._TIGHT) < cutoff


class TestFading:
    def test_no_fading_is_unity(self):
        rng = random.Random(1)
        model = NoFading()
        assert all(model.sample_power_gain(rng) == 1.0 for _ in range(10))

    def test_rayleigh_mean_is_one(self):
        rng = random.Random(2)
        model = RayleighFading()
        samples = [model.sample_power_gain(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(1.0, abs=0.03)

    def test_rayleigh_cdf_matches_exponential(self):
        rng = random.Random(3)
        model = RayleighFading()
        samples = [model.sample_power_gain(rng) for _ in range(20000)]
        below_one = sum(1 for s in samples if s < 1.0) / len(samples)
        assert below_one == pytest.approx(1.0 - math.exp(-1.0), abs=0.02)

    def test_rician_mean_is_one(self):
        rng = random.Random(4)
        model = RicianFading(k_factor=5.0)
        samples = [model.sample_power_gain(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(1.0, abs=0.03)

    def test_rician_high_k_concentrates_near_one(self):
        rng = random.Random(5)
        strong_los = RicianFading(k_factor=50.0)
        samples = [strong_los.sample_power_gain(rng) for _ in range(5000)]
        spread = max(samples) - min(samples)
        assert spread < 2.0  # Rayleigh spread over 5000 samples is >> 2

    def test_rician_rejects_negative_k(self):
        with pytest.raises(ValueError):
            RicianFading(k_factor=-1.0)

    def test_outage_probability_against_samples(self):
        rng = random.Random(6)
        model = RayleighFading()
        mean_snr = 4.0  # signal sits at 4x the threshold on average
        threshold = 1.0
        losses = sum(
            1
            for _ in range(20000)
            if model.sample_power_gain(rng) * mean_snr < threshold
        )
        predicted = rayleigh_outage_probability(mean_snr, threshold)
        assert losses / 20000 == pytest.approx(predicted, abs=0.01)

    def test_outage_probability_edge_cases(self):
        assert rayleigh_outage_probability(0.0, 1.0) == 1.0
        assert rayleigh_outage_probability(1e12, 1.0) == pytest.approx(
            0.0, abs=1e-9
        )


class TestRadioParams:
    def test_derived_fields(self):
        params = RadioParams(tx_power_dbm=15.0)
        assert params.tx_power_mw == pytest.approx(dbm_to_mw(15.0))
        assert params.rx_threshold_mw == pytest.approx(
            dbm_to_mw(params.rx_threshold_dbm)
        )
        assert params.sinr_threshold_linear == pytest.approx(10.0)

    def test_set_rx_threshold_keeps_cs_margin(self):
        params = RadioParams()
        params.set_rx_threshold_dbm(-70.0, cs_margin_db=12.0)
        assert params.rx_threshold_dbm == -70.0
        assert params.carrier_sense_threshold_dbm == -82.0
        assert params.rx_threshold_mw == pytest.approx(dbm_to_mw(-70.0))

    def test_calibration_puts_range_at_target(self):
        propagation = TwoRayGroundPropagation()
        params = RadioParams()
        threshold = calibrate_rx_threshold_dbm(propagation, params, 250.0)
        params.set_rx_threshold_dbm(threshold)
        at_range = propagation.rx_power_mw(params.tx_power_mw, 250.0)
        beyond = propagation.rx_power_mw(params.tx_power_mw, 251.0)
        assert at_range >= params.rx_threshold_mw
        assert beyond < params.rx_threshold_mw

    def test_calibration_rejects_bad_range(self):
        with pytest.raises(ValueError):
            calibrate_rx_threshold_dbm(
                TwoRayGroundPropagation(), RadioParams(), 0.0
            )


class TestReception:
    def make_model(self) -> ReceptionModel:
        params = RadioParams()
        params.set_rx_threshold_dbm(-74.0)
        return ReceptionModel(params)

    def test_below_threshold_fails(self):
        model = self.make_model()
        weak = dbm_to_mw(-80.0)
        assert not model.decide(weak, 0.0)

    def test_clear_channel_above_threshold_succeeds(self):
        model = self.make_model()
        strong = dbm_to_mw(-60.0)
        assert model.decide(strong, 0.0)

    def test_equal_power_interferer_destroys_frame(self):
        model = self.make_model()
        signal = dbm_to_mw(-60.0)
        assert not model.decide(signal, signal)

    def test_capture_over_weak_interferer(self):
        model = self.make_model()
        signal = dbm_to_mw(-60.0)
        interference = dbm_to_mw(-75.0)  # 15 dB down, above the 10 dB need
        assert model.decide(signal, interference)

    def test_can_sense_uses_cs_threshold(self):
        model = self.make_model()
        assert model.can_sense(dbm_to_mw(-80.0))
        assert not model.can_sense(dbm_to_mw(-95.0))

    def test_snr_margin_sign(self):
        model = self.make_model()
        assert model.snr_db_margin(dbm_to_mw(-60.0)) > 0
        assert model.snr_db_margin(dbm_to_mw(-90.0)) < 0
        assert model.snr_db_margin(0.0) == float("-inf")


def test_network_config_rejects_typo_backend_with_suggestion():
    with pytest.raises(ValueError, match="did you mean 'compiled'"):
        NetworkConfig(phy_backend="compield")
