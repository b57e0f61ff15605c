"""Hand-value checks of the scalar reference budget (tests/scalar_reference.py),
the oracle that the vectorised kernel in irslink.simulator is compared against."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from irslink.errors import DegenerateGeometryError, InvalidParameterError
from irslink.geometry import Position3D, build_geometry
from irslink.propagation import pl_los, pl_nlos
from irslink.scenario import ScenarioConfig
from scalar_reference import (
    PHASE_ALIGNED,
    PHASE_GEOMETRIC,
    ChannelCoefficient,
    ReflectionParams,
    combine,
    dbm_to_amplitude,
    element_coefficient,
    los_coefficient,
    wall_ray_coefficient,
    wavelength_m,
)

ANT = ScenarioConfig()
PL2 = ScenarioConfig(f_ghz=2.0)
REFL = ReflectionParams()
TWO_PI = 2.0 * math.pi


def default_geom(rows=10, cols=10):
    return build_geometry(rows, cols, 0.02, 50.0, 25.0, 10.0, 50.0)


class TestDbmToAmplitude:
    def test_reference_points(self):
        assert dbm_to_amplitude(0.0) == 1.0
        assert dbm_to_amplitude(20.0) == pytest.approx(10.0, rel=1e-12)
        assert dbm_to_amplitude(-42.1) == pytest.approx(0.007852356346100719, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for p in rng.uniform(-120, 60, 200):
            assert 20.0 * math.log10(dbm_to_amplitude(p)) == pytest.approx(p, rel=1e-9)

    def test_strictly_increasing(self):
        assert dbm_to_amplitude(-50.0) < dbm_to_amplitude(-49.9)


class TestLosCoefficient:
    def test_default_scenario_hand_chain(self):
        # d = 25*sqrt(2), theta0 = -45 deg (side-lobe floor), LoS path loss at 2 GHz
        geom = default_geom()
        coeff = los_coefficient(geom, ANT, PL2, 46.0)
        d = 25.0 * math.sqrt(2.0)
        expected_p = 46.0 - 20.0 - pl_los(d, PL2)
        assert expected_p == pytest.approx(-42.086610056368244, rel=1e-12)
        assert coeff.amplitude == pytest.approx(dbm_to_amplitude(expected_p), rel=1e-12)
        assert coeff.phase == pytest.approx((-TWO_PI * d / 0.15) % TWO_PI, rel=1e-9)

    def test_wavelength_multiple_gives_zero_phase(self):
        # colinear scene: path length 39 wavelengths at 2 GHz
        geom = build_geometry(1, 1, 0.02, 3.0, 5.0, 5.0, 5.0, uav_x_m=5.85)
        coeff = los_coefficient(geom, ANT, PL2, 46.0)
        assert min(coeff.phase, TWO_PI - coeff.phase) < 1e-8

    def test_coincident_bs_uav_raises(self):
        geom = build_geometry(1, 1, 0.02, 50.0, 25.0, 10.0, 25.0, uav_x_m=0.0)
        with pytest.raises(DegenerateGeometryError):
            los_coefficient(geom, ANT, PL2, 46.0)


class TestElementCoefficient:
    def test_center_element_hand_chain(self):
        # 1x1 lattice puts the element exactly at the patch centre
        geom = default_geom(rows=1, cols=1)
        coeff = element_coefficient(0, geom, ANT, PL2, 46.0, REFL)
        d1 = math.sqrt(50.0**2 + 15.0**2)
        d2 = math.sqrt(25.0**2 + 40.0**2)
        theta_k = math.degrees(math.atan2(15.0, 50.0))
        expected_p = 46.0 - 12.0 * ((theta_k - 15.0) / 10.0) ** 2 - pl_nlos(d1 + d2, 50.0, PL2) - 1.0
        assert expected_p == pytest.approx(-44.42988373244507, rel=1e-12)
        assert coeff.amplitude == pytest.approx(dbm_to_amplitude(expected_p), rel=1e-12)

    def test_aligned_phase_equals_los_phase_for_every_element(self):
        geom = default_geom()
        los_phase = los_coefficient(geom, ANT, PL2, 46.0).phase
        for k in range(len(geom.elements)):
            assert element_coefficient(k, geom, ANT, PL2, 46.0, REFL, PHASE_ALIGNED).phase == los_phase

    def test_lossless_reflection_at_wavelength_multiple(self):
        # d1 + d2 = 39 wavelengths, reflection loss zero: raw link budget, zero phase
        geom = build_geometry(1, 1, 0.02, 3.0, 5.0, 5.0, 5.0, uav_x_m=0.15)
        refl = ReflectionParams(pl_irs_db=0.0, pl_wall_db=0.0)
        coeff = element_coefficient(0, geom, ANT, PL2, 46.0, refl, PHASE_GEOMETRIC)
        assert min(coeff.phase, TWO_PI - coeff.phase) < 1e-8
        raw = 46.0 + (-20.0) - pl_nlos(5.85, 5.0, PL2)  # theta_k = 0 is in the side lobe
        assert coeff.amplitude == pytest.approx(dbm_to_amplitude(raw), rel=1e-9)

    def test_unknown_phase_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            element_coefficient(0, default_geom(), ANT, PL2, 46.0, REFL, "other")


class TestWallRayCoefficient:
    def test_budget_is_element_budget_with_wall_loss(self):
        geom = default_geom(rows=1, cols=1)
        elem = element_coefficient(0, geom, ANT, PL2, 46.0, REFL, PHASE_GEOMETRIC)
        ray = wall_ray_coefficient(geom.irs_center, geom, ANT, PL2, 46.0, REFL)
        # 10 dB wall loss vs 1 dB surface loss: exactly 9 dB apart
        assert ray.amplitude == pytest.approx(elem.amplitude * 10.0 ** (-9.0 / 20.0), rel=1e-12)
        assert ray.phase == elem.phase

    def test_equal_losses_reproduce_geometric_element(self):
        geom = default_geom()
        refl = ReflectionParams(pl_irs_db=4.0, pl_wall_db=4.0)
        for k in (0, 37, 99):
            elem = element_coefficient(k, geom, ANT, PL2, 46.0, refl, PHASE_GEOMETRIC)
            ray = wall_ray_coefficient(geom.elements[k], geom, ANT, PL2, 46.0, refl)
            assert ray.amplitude == pytest.approx(elem.amplitude, rel=1e-12)
            assert ray.phase == pytest.approx(elem.phase, rel=1e-12)

    def test_half_wavelength_offset_flips_phase(self):
        # second scatter point solved so its path is lambda/2 longer
        geom = build_geometry(1, 1, 0.02, 3.0, 5.0, 5.0, 5.0, uav_x_m=0.15)
        lam = wavelength_m(2.0)
        target = 5.85 + lam / 2.0

        def extra(y):
            return math.sqrt(9.0 + y * y) + math.sqrt(2.85**2 + y * y) - target

        y_off = brentq(extra, 0.0, 2.0, xtol=1e-14)
        a = wall_ray_coefficient(geom.irs_center, geom, ANT, PL2, 46.0, REFL)
        b = wall_ray_coefficient(Position3D(3.0, y_off, 5.0), geom, ANT, PL2, 46.0, REFL)
        diff = (a.phase - b.phase) % TWO_PI
        assert diff == pytest.approx(math.pi, abs=1e-7)

    def test_scatter_point_at_bs_or_uav_raises(self):
        geom = default_geom()
        with pytest.raises(DegenerateGeometryError):
            wall_ray_coefficient(geom.bs, geom, ANT, PL2, 46.0, REFL)


class TestCombine:
    def test_in_phase_pair(self):
        assert combine([ChannelCoefficient(1.0, 0.0), ChannelCoefficient(1.0, 0.0)]) == pytest.approx(2.0)

    def test_perfect_cancellation(self):
        got = combine([ChannelCoefficient(1.0, 0.0), ChannelCoefficient(1.0, math.pi)])
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_pair(self):
        got = combine([ChannelCoefficient(3.0, 0.0), ChannelCoefficient(4.0, math.pi / 2.0)])
        assert got == pytest.approx(5.0, rel=1e-12)

    def test_never_exceeds_amplitude_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            amps = rng.uniform(0, 2, 8)
            phases = rng.uniform(0, TWO_PI, 8)
            coeffs = [ChannelCoefficient(a, p) for a, p in zip(amps, phases)]
            assert combine(coeffs) <= amps.sum() + 1e-12

    def test_identical_phases_add_linearly(self):
        coeffs = [ChannelCoefficient(a, 1.3) for a in (0.5, 1.5, 2.25)]
        assert combine(coeffs) == pytest.approx(4.25, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            combine([])


class TestFrequencyCovariance:
    def test_all_paths_scale_by_the_same_factor(self):
        # doubling f costs 20 log10(2) dB on every path: amplitudes halve exactly
        geom = default_geom()
        pl4 = ScenarioConfig(f_ghz=4.0)
        pairs = [
            (los_coefficient(geom, ANT, PL2, 46.0), los_coefficient(geom, ANT, pl4, 46.0)),
            (
                element_coefficient(5, geom, ANT, PL2, 46.0, REFL),
                element_coefficient(5, geom, ANT, pl4, 46.0, REFL),
            ),
            (
                wall_ray_coefficient(geom.irs_center, geom, ANT, PL2, 46.0, REFL),
                wall_ray_coefficient(geom.irs_center, geom, ANT, pl4, 46.0, REFL),
            ),
        ]
        for low, high in pairs:
            assert high.amplitude / low.amplitude == pytest.approx(0.5, rel=1e-12)


class TestValidation:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(InvalidParameterError):
            ChannelCoefficient(-0.1, 0.0)

    def test_phase_normalisation_enforced(self):
        with pytest.raises(InvalidParameterError):
            ChannelCoefficient(1.0, TWO_PI)

    def test_reflection_params(self):
        with pytest.raises(InvalidParameterError):
            ReflectionParams(pl_irs_db=-1.0)
