import math

import numpy as np
import pytest

from irslink.errors import InvalidParameterError
from irslink.propagation import pl_los, pl_nlos, vertical_gain
from irslink.scenario import ScenarioConfig
from scalar_reference import effective_tx_power, pl_bs_to_element, pl_element_to_uav

ANT = ScenarioConfig()
PL2 = ScenarioConfig(f_ghz=2.0)


class TestVerticalGain:
    def test_boresight(self):
        assert vertical_gain(15.0, ANT) == 0.0

    def test_one_beamwidth_off(self):
        assert vertical_gain(25.0, ANT) == pytest.approx(-12.0, abs=1e-12)

    def test_sidelobe_floor(self):
        assert vertical_gain(-45.0, ANT) == -20.0

    def test_even_about_downtilt(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(0, 60, 100):
            assert vertical_gain(15.0 + x, ANT) == pytest.approx(vertical_gain(15.0 - x, ANT), rel=1e-12)

    def test_floor_reached_at_edge_angle(self):
        # pattern hits -SLA exactly theta3db*sqrt(SLA/12) off boresight
        edge = 10.0 * math.sqrt(20.0 / 12.0)
        assert edge == pytest.approx(12.909944487358056)
        assert vertical_gain(15.0 + edge, ANT) == pytest.approx(-20.0, abs=1e-9)
        assert vertical_gain(15.0 + edge - 0.01, ANT) > -20.0
        assert vertical_gain(15.0 + edge + 0.01, ANT) == -20.0

    def test_bounded_in_minus_sla_zero(self):
        thetas = np.linspace(-90, 90, 361)
        g = vertical_gain(thetas, ANT)
        assert np.all(g <= 0.0) and np.all(g >= -20.0)


class TestEffectiveTxPower:
    def test_boresight_full_power(self):
        assert effective_tx_power(46.0, 15.0, ANT) == 46.0

    def test_sla_cap(self):
        assert effective_tx_power(46.0, 35.0, ANT) == 26.0

    def test_bs_to_wall_center_angle(self):
        # depression angle of the default BS-to-wall-centre ray
        theta = math.degrees(math.atan2(15.0, 50.0))
        expected = 46.0 - 12.0 * ((theta - 15.0) / 10.0) ** 2
        assert effective_tx_power(46.0, theta, ANT) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(45.653508283988735, rel=1e-12)

    def test_never_exceeds_pt_nor_drops_below_pt_minus_sla(self):
        for theta in np.linspace(-90, 90, 181):
            p = effective_tx_power(46.0, theta, ANT)
            assert 26.0 <= p <= 46.0


class TestPlLos:
    def test_one_metre(self):
        assert pl_los(1.0, PL2) == pytest.approx(34.0205999133, abs=1e-9)

    def test_hundred_metres(self):
        assert pl_los(100.0, PL2) == pytest.approx(78.0205999133, abs=1e-9)

    def test_default_los_distance(self):
        assert pl_los(math.sqrt(2 * 25.0**2), PL2) == pytest.approx(68.08661005636824, rel=1e-12)

    def test_strictly_increasing_in_d_and_f(self):
        d = np.linspace(1.0, 500.0, 200)
        assert np.all(np.diff(pl_los(d, PL2)) > 0)
        assert pl_los(100.0, ScenarioConfig(f_ghz=4.0)) > pl_los(100.0, PL2)

    def test_invalid_distance(self):
        with pytest.raises(InvalidParameterError):
            pl_los(0.0, PL2)
        with pytest.raises(InvalidParameterError):
            pl_los(-5.0, PL2)


class TestPlNlos:
    def test_low_receiver_uses_pl0(self):
        # PL_0 = 13.54 + 39.08*2 + 20*log10(2) - 0.6*18.5 exceeds PL_LoS here
        assert pl_nlos(100.0, 20.0, PL2) == pytest.approx(86.6205999133, abs=1e-9)

    def test_high_receiver_uses_pl1(self):
        assert pl_nlos(100.0, 50.0, PL2) == pytest.approx(89.17679203862403, rel=1e-12)

    def test_los_clamp_binds_at_short_distance(self):
        # at 1 m PL_0 = 8.46 dB, so max() returns the LoS value
        assert pl_nlos(1.0, 20.0, PL2) == pytest.approx(34.0205999133, abs=1e-9)

    def test_boundary_height_takes_high_branch(self):
        low = pl_nlos(100.0, 22.499999, PL2)
        boundary = pl_nlos(100.0, 22.5, PL2)
        high = pl_nlos(100.0, 22.500001, PL2)
        assert boundary == pytest.approx(high, abs=1e-3)
        assert boundary != pytest.approx(low, abs=1.0)

    def test_each_branch_increases_with_distance(self):
        d = np.linspace(1.0, 500.0, 300)
        assert np.all(np.diff(pl_nlos(d, 20.0, PL2)) > 0)
        assert np.all(np.diff(pl_nlos(d, 50.0, PL2)) > 0)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            pl_nlos(0.0, 50.0, PL2)
        with pytest.raises(InvalidParameterError):
            pl_nlos(10.0, 0.0, PL2)


class TestSegmentComposition:
    def test_bs_to_element_equals_nlos(self):
        assert pl_bs_to_element(52.2015, 50.0, PL2) == pl_nlos(52.2015, 50.0, PL2)
        assert pl_bs_to_element(1.0, 50.0, PL2) == pytest.approx(20.9623720993283, rel=1e-12)

    def test_second_segment_hand_values(self):
        d1 = math.sqrt(2725.0)
        d2 = math.sqrt(2225.0)
        expected = pl_nlos(d1 + d2, 50.0, PL2) - pl_nlos(d1, 50.0, PL2)
        assert pl_element_to_uav(d1, d2, 50.0, PL2) == pytest.approx(expected, abs=1e-12)
        assert pl_element_to_uav(50.0, 50.0, 50.0, PL2) == pytest.approx(10.26729326927358, rel=1e-10)

    def test_vanishing_second_segment(self):
        assert pl_element_to_uav(80.0, 1e-12, 50.0, PL2) == pytest.approx(0.0, abs=1e-9)

    def test_composition_identity_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            d1 = rng.uniform(0.1, 200.0)
            d2 = rng.uniform(0.1, 200.0)
            h = rng.uniform(1.0, 150.0)
            params = ScenarioConfig(f_ghz=rng.uniform(0.5, 6.0))
            total = pl_bs_to_element(d1, h, params) + pl_element_to_uav(d1, d2, h, params)
            assert total == pytest.approx(pl_nlos(d1 + d2, h, params), abs=1e-9)


class TestFrequencyShift:
    def test_shift_identity_per_branch(self):
        # moving f1 -> f2 adds exactly 20 log10(f2/f1) to every branch
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = rng.uniform(1.0, 300.0)
            f1, f2 = rng.uniform(0.5, 6.0, 2)
            shift = 20.0 * math.log10(f2 / f1)
            cfg1, cfg2 = ScenarioConfig(f_ghz=f1), ScenarioConfig(f_ghz=f2)
            assert pl_los(d, cfg2) - pl_los(d, cfg1) == pytest.approx(shift, abs=1e-9)
            assert pl_nlos(d, 50.0, cfg2) - pl_nlos(d, 50.0, cfg1) == pytest.approx(shift, abs=1e-9)

    def test_shift_identity_low_branch_pl0_term(self):
        # in the low branch the shift applies whenever PL_0 binds on both sides
        d, h = 200.0, 20.0
        f1, f2 = 2.0, 4.0
        got = pl_nlos(d, h, ScenarioConfig(f_ghz=f2)) - pl_nlos(d, h, ScenarioConfig(f_ghz=f1))
        assert got == pytest.approx(20.0 * math.log10(f2 / f1), abs=1e-9)


class TestParamValidation:
    def test_antenna_params(self):
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(theta3db_deg=0.0)
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(sla_db=-1.0)

    def test_pathloss_params(self):
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(f_ghz=0.0)
