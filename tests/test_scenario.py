import math
from dataclasses import fields, replace

import pytest

from irslink import cli
from irslink.errors import InvalidParameterError
from irslink.scenario import MonteCarloConfig, ScenarioConfig, lattice_shape

# every field with a bound in its metadata, and every float field (which is
# bounded to be finite), with its record
BOUNDED = [(record, f) for record in (ScenarioConfig, MonteCarloConfig) for f in fields(record)
           if f.metadata.keys() & {"gt", "ge", "le"} or f.type.startswith("float")]


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
    assert mc.threads == 1


def test_threads_take_no_part_in_equality():
    # a thread count never changes a bit, so configs that differ only in it
    # are equal and hash alike (a kept search's key, the thread-invariance tests)
    assert MonteCarloConfig(threads=3) == MonteCarloConfig()
    assert hash(MonteCarloConfig(threads=3)) == hash(MonteCarloConfig())
    assert MonteCarloConfig(threads=3) != MonteCarloConfig(n_runs=9_999, threads=3)


def test_validation_names_the_offending_key():
    with pytest.raises(InvalidParameterError, match="h_uav_m"):
        ScenarioConfig(h_uav_m=0.0)
    for h in (1.5, 300.0):  # the UMa-AV path-loss model's height range, ends included
        assert ScenarioConfig(h_uav_m=h).h_uav_m == h
    for h in (1.49, 300.01):
        with pytest.raises(InvalidParameterError, match="h_uav_m"):
            ScenarioConfig(h_uav_m=h)
    for f in (0.5, 100.0):  # the carriers of TR 38.901's channel models, ends included
        assert ScenarioConfig(f_ghz=f).f_ghz == f
    for f in (-2.0, 0.0, 0.49, 100.01, 1e300, 5e-324, 1e-300):  # 1e300 and 5e-324 give a wavelength of 0 and inf
        with pytest.raises(InvalidParameterError, match="f_ghz"):
            ScenarioConfig(f_ghz=f)
    with pytest.raises(InvalidParameterError, match="n_runs"):
        MonteCarloConfig(n_runs=0)
    with pytest.raises(InvalidParameterError, match="n_runs"):
        MonteCarloConfig(n_runs=10**9 + 1)
    assert MonteCarloConfig(n_runs=10**9).n_runs == 10**9
    with pytest.raises(InvalidParameterError, match="n_rays"):
        MonteCarloConfig(n_rays=2**15 + 1)  # more than one run block
    assert MonteCarloConfig(n_rays=2**15).n_rays == 2**15
    with pytest.raises(InvalidParameterError, match="ray_phases"):
        MonteCarloConfig(ray_phases="other")
    # a copy is checked too, so every config that exists is valid
    with pytest.raises(InvalidParameterError, match="sla_db"):
        replace(ScenarioConfig(), sla_db=0.0)
    with pytest.raises(InvalidParameterError, match="n_rays"):
        replace(MonteCarloConfig(), n_rays=-1)


def test_uav_behind_the_wall_is_rejected():
    # the wall plane is x = l_m: a UAV on it is valid, one behind it is not,
    # also when a copy moves the wall in front of a pinned UAV
    assert ScenarioConfig(uav_x_m=50.0).uav.x == 50.0
    assert ScenarioConfig(l_m=1e-3).uav.x == 5e-4  # None tracks l_m / 2
    with pytest.raises(InvalidParameterError, match="uav_x_m"):
        ScenarioConfig(uav_x_m=math.nextafter(50.0, math.inf))
    with pytest.raises(InvalidParameterError, match="uav_x_m"):
        replace(ScenarioConfig(uav_x_m=40.0), l_m=30.0)


def test_antenna_angles_are_bounded():
    # the tilt is a depression angle in [-90, 90] (an uptilt below 0 is valid),
    # the beamwidth lies in (0, 180] and keeps the pattern's largest deviation finite
    for tilt in (-90.0, -5.0, 90.0):
        assert ScenarioConfig(theta_etilt_deg=tilt).theta_etilt_deg == tilt
    for tilt in (math.nextafter(90.0, math.inf), -90.5, 370.0, 1e308):
        with pytest.raises(InvalidParameterError, match="theta_etilt_deg"):
            ScenarioConfig(theta_etilt_deg=tilt)
    for width in (1e-150, 180.0):
        assert ScenarioConfig(theta3db_deg=width).theta3db_deg == width
    for width in (math.nextafter(180.0, math.inf), 400.0, 1e-160, 1e-320):
        with pytest.raises(InvalidParameterError, match="theta3db_deg"):
            ScenarioConfig(theta3db_deg=width)


def test_uav_placement_tracks_midpoint():
    assert ScenarioConfig(l_m=80.0).uav.x == 40.0
    assert ScenarioConfig(l_m=80.0, uav_x_m=10.0).uav.x == 10.0


@pytest.mark.parametrize("k,expected", [(100, (10, 10)), (50, (5, 10)), (25, (5, 5)), (36, (6, 6)),
                                        (75, (5, 15)), (13, (1, 13)), (1, (1, 1))])
def test_near_square_factorisation(k, expected):
    assert lattice_shape(k) == expected


def test_element_count_is_bounded_before_factoring():
    assert lattice_shape(10**8) == (10**4, 10**4)
    for k in (0, 10**8 + 1, 2**61 - 1):  # a huge prime would take minutes to factor
        with pytest.raises(InvalidParameterError, match="element count"):
            lattice_shape(k)
    with pytest.raises(InvalidParameterError, match="irs_rows"):
        ScenarioConfig(irs_rows=10**4, irs_cols=10**4 + 1)
    assert ScenarioConfig(irs_rows=10**4, irs_cols=10**4).k == 10**8
    # a product past str()'s 4,300 digits is shown by its exponent
    with pytest.raises(InvalidParameterError, match=r"^irs_rows\*irs_cols must be <= 100000000, got 1e\+6000$"):
        ScenarioConfig(irs_rows=10**3000, irs_cols=10**3000)


def test_floor_sqrt_rule():
    # floor-sqrt oracle: rows = floor(sqrt(k)), cols = ceil(k / rows), valid
    # when rows * cols == k; every k it factors gets the same lattice here
    accepted = 0
    for k in range(1, 10_001):
        rows = math.isqrt(k)
        cols = -(-k // rows)
        if rows * cols == k:
            accepted += 1
            assert lattice_shape(k) == (rows, cols)
    assert lattice_shape(30) == (5, 6)
    assert lattice_shape(50) == (5, 10)  # the oracle misses 50 (7 * 8 != 50)
    assert accepted > 100


@pytest.mark.parametrize("record,f", BOUNDED, ids=[f.name for _, f in BOUNDED])
def test_every_field_bound_holds_at_its_ends(record, f, capsys):
    # driven by the metadata: each closed end is accepted; the next value
    # outside each end (an open end itself) and, for a float, nan and +-inf
    # are rejected by name, and through the field's flag with one short line
    meta, is_int = f.metadata, f.type == "int"
    ends = [meta[key] for key in ("ge", "le") if key in meta]
    outside = [meta["gt"]] if "gt" in meta else []
    for key, way in (("ge", -1), ("le", 1)):
        if key in meta:
            outside.append(meta[key] + way if is_int else math.nextafter(meta[key], way * math.inf))
    if not is_int:
        outside += [math.nan, math.inf, -math.inf]
    for value in ends:
        assert getattr(record(**{f.name: value}), f.name) == value
    for value in outside:
        with pytest.raises(InvalidParameterError, match=f.name):
            record(**{f.name: value})
        code = cli.main(["gain", "--n-runs", "1", "--n-rays", "0", f"{cli._flag(f.name)}={value!r}"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), value
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {f.name} ") and len(err) <= 120, err
