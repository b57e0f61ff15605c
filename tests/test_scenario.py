import math
from dataclasses import replace

import pytest

from irslink.errors import InvalidParameterError
from irslink.scenario import MonteCarloConfig, ScenarioConfig, near_square_factors


def test_defaults_match_standard_parameters():
    cfg = ScenarioConfig()
    assert cfg.f_ghz == 2.0
    assert cfg.p_t_dbm == 46.0
    assert cfg.theta_etilt_deg == 15.0
    assert cfg.pl_irs_db == 1.0
    assert cfg.pl_wall_db == 10.0
    assert cfg.h_bs_m == 25.0
    assert cfg.h_uav_m == 50.0
    assert cfg.h_irs_m == 10.0
    assert cfg.k == 100
    assert cfg.l_m == 50.0
    assert cfg.element_pitch_m == 0.02
    mc = MonteCarloConfig()
    assert mc.n_runs == 10_000
    assert mc.n_rays == 20
    assert mc.ray_phases == "geometric"


def test_validation_names_the_offending_key():
    with pytest.raises(InvalidParameterError, match="h_uav_m"):
        ScenarioConfig(h_uav_m=0.0)
    with pytest.raises(InvalidParameterError, match="f_ghz"):
        ScenarioConfig(f_ghz=-2.0)
    with pytest.raises(InvalidParameterError, match="n_runs"):
        MonteCarloConfig(n_runs=0)
    with pytest.raises(InvalidParameterError, match="n_runs"):
        MonteCarloConfig(n_runs=10**9 + 1)
    assert MonteCarloConfig(n_runs=10**9).n_runs == 10**9
    with pytest.raises(InvalidParameterError, match="ray_phases"):
        MonteCarloConfig(ray_phases="other")
    # a copy is checked too, so every config that exists is valid
    with pytest.raises(InvalidParameterError, match="sla_db"):
        replace(ScenarioConfig(), sla_db=0.0)
    with pytest.raises(InvalidParameterError, match="n_rays"):
        replace(MonteCarloConfig(), n_rays=-1)


def test_geometry_resolution_tracks_midpoint():
    geom = ScenarioConfig(l_m=80.0).geometry()
    assert geom.uav.x == 40.0
    geom = ScenarioConfig(l_m=80.0, uav_x_m=10.0).geometry()
    assert geom.uav.x == 10.0


@pytest.mark.parametrize("k,expected", [(100, (10, 10)), (50, (5, 10)), (25, (5, 5)), (36, (6, 6)),
                                        (75, (5, 15)), (13, (1, 13)), (1, (1, 1))])
def test_near_square_factorisation(k, expected):
    assert near_square_factors(k) == expected


def test_element_count_is_bounded_before_factoring():
    assert near_square_factors(10**8) == (10**4, 10**4)
    for k in (0, 10**8 + 1, 2**61 - 1):  # a huge prime would take minutes to factor
        with pytest.raises(InvalidParameterError, match="element count"):
            near_square_factors(k)
    with pytest.raises(InvalidParameterError, match="irs_rows"):
        ScenarioConfig(irs_rows=10**4, irs_cols=10**4 + 1)
    assert ScenarioConfig(irs_rows=10**4, irs_cols=10**4).k == 10**8


def test_floor_sqrt_rule():
    # floor-sqrt oracle: rows = floor(sqrt(k)), cols = ceil(k / rows), valid
    # when rows * cols == k; every k it factors gets the same lattice here
    accepted = 0
    for k in range(1, 10_001):
        rows = math.isqrt(k)
        cols = -(-k // rows)
        if rows * cols == k:
            accepted += 1
            assert near_square_factors(k) == (rows, cols)
    assert near_square_factors(30) == (5, 6)
    assert near_square_factors(50) == (5, 10)  # the oracle misses 50 (7 * 8 != 50)
    assert accepted > 100
