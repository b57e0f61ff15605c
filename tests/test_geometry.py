import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import scalar_reference as ref
from irslink.errors import InvalidParameterError
from irslink.rng import uniform_block
from irslink.scenario import Position3D, ScenarioConfig, element_positions
from irslink.simulator import _scatter_matrix

CENTER = Position3D(50.0, 0.0, 10.0)


def with_x(x, y, z):
    """Points (y, z) of the wall plane x as (..., 3) rows (x, y, z)."""
    return np.stack((np.full_like(y, x), y, z), axis=-1)


def scatter(cfg, seed, count):
    """The simulator's mapping of one run's first 2 * count draws to patch points."""
    u = uniform_block(np.array([seed], dtype=np.uint64), 2 * count).reshape(count, 2)
    return with_x(cfg.irs_center.x, *_scatter_matrix(cfg, u))


def lattice(rows, cols, pitch, center):
    """The whole lattice as (K, 3) rows (x, y, z), made in one slice."""
    return with_x(center.x, *element_positions(rows, cols, pitch, center, 0, rows * cols))


@st.composite
def lattice_slices(draw):
    """(rows, cols, first, n): a lattice shape, 1 x k strips included, and a
    slice [first:first + n] that may cross row ends and run past the end."""
    rows = draw(st.one_of(st.just(1), st.integers(1, 60)))
    cols = draw(st.integers(1, 60))
    return rows, cols, draw(st.integers(0, rows * cols)), draw(st.integers(0, rows * cols + 2))


class TestElementPositions:
    def test_single_element_sits_at_center(self):
        y, z = element_positions(1, 1, 0.02, CENTER, 0, 1)
        assert (y.tolist(), z.tolist()) == ([0.0], [10.0])

    def test_2x2_lattice_hand_values(self):
        pts = lattice(2, 2, 0.02, CENTER)
        assert pts.shape == (4, 3)
        assert sorted(set(pts[:, 1])) == pytest.approx([-0.01, 0.01])
        assert sorted(set(pts[:, 2])) == pytest.approx([9.99, 10.01])
        assert all(pts[:, 0] == 50.0)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (3, 7), (10, 10), (100, 100)])
    @pytest.mark.parametrize("pitch", [0.02, 0.0137])
    def test_matches_reference_loop_bit_for_bit(self, rows, cols, pitch):
        # made 7 elements at a time: slices cross row ends, and the last is partial
        # unless 7 divides rows * cols
        center = Position3D(37.5, -1.25, 12.3)
        slices = [element_positions(rows, cols, pitch, center, first, 7) for first in range(0, rows * cols, 7)]
        loop = [[p.x, p.y, p.z] for p in ref.element_positions(rows, cols, pitch, center)]
        assert with_x(center.x, *(np.concatenate(planes) for planes in zip(*slices))).tolist() == loop

    # any slice of any lattice against the same slice of the reference loop,
    # bit for bit
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        shape=lattice_slices(),
        pitch=st.one_of(st.sampled_from([0.02, 0.0137]), st.floats(1e-4, 10.0)),
        y0=st.floats(-100.0, 100.0),
        z0=st.floats(0.1, 300.0),
    )
    @example((1, 4000, 3990, 32), 0.02, -1.25, 12.3)  # the last partial slice of a strip
    @example((3, 7, 5, 4), 0.0137, 0.0, 10.0)  # crosses the end of the first row
    @example((7, 11, 70, 7), 0.02, 0.0, 10.0)  # the last partial slice
    @example((100, 100, 0, 10_000), 0.0137, -1.25, 12.3)  # the whole lattice
    def test_slice_matches_reference_loop_bit_for_bit(self, shape, pitch, y0, z0):
        rows, cols, first, n = shape
        center = Position3D(37.5, y0, z0)
        y, z = element_positions(rows, cols, pitch, center, first, n)
        loop = ref.element_positions(rows, cols, pitch, center)[first:first + n]
        assert y.tolist() == [p.y for p in loop]
        assert z.tolist() == [p.z for p in loop]

    def test_10x10_extent_and_centroid(self):
        pts = lattice(10, 10, 0.02, CENTER)
        ys = pts[:, 1]
        zs = pts[:, 2]
        assert len(pts) == 100
        assert max(ys) - min(ys) == pytest.approx(0.18)
        assert max(zs) - min(zs) == pytest.approx(0.18)
        assert np.mean(ys) == pytest.approx(0.0, abs=1e-12)
        assert np.mean(zs) == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (3, 7), (5, 10), (4, 4)])
    def test_centroid_matches_center_for_any_shape(self, rows, cols):
        arr = lattice(rows, cols, 0.02, CENTER)
        assert np.allclose(arr.mean(axis=0), [50.0, 0.0, 10.0], atol=1e-12)

    def test_pairwise_distinct_at_pitch(self):
        pts = lattice(3, 3, 0.02, CENTER)
        assert len({(y, z) for _, y, z in pts.tolist()}) == 9
        ys = sorted(set(pts[:, 1]))
        assert np.allclose(np.diff(ys), 0.02)

    @pytest.mark.parametrize("rows,cols,pitch", [(0, 1, 0.02), (1, 0, 0.02), (1, 1, 0.0), (1, 1, -1.0)])
    def test_invalid_parameters(self, rows, cols, pitch):
        with pytest.raises(InvalidParameterError):
            element_positions(rows, cols, pitch, CENTER, 0, 1)

    @pytest.mark.parametrize("first,n", [(-1, 1), (0, -1)])
    def test_invalid_slice(self, first, n):
        with pytest.raises(InvalidParameterError):
            element_positions(2, 2, 0.02, CENTER, first, n)


class TestDistance:
    # the scalar reference's distance, the oracle of the kernel's d1 and d2
    def test_3_4_5_triangle(self):
        assert ref.distance(Position3D(0, 0, 0), Position3D(3, 4, 0)) == 5.0

    def test_bs_to_wall_center(self):
        d = ref.distance(Position3D(0, 0, 25), Position3D(50, 0, 10))
        assert d == pytest.approx(52.20153254455275, rel=1e-12, abs=0.0)

    def test_identity(self):
        p = Position3D(1.5, -2.0, 7.0)
        assert ref.distance(p, p) == 0.0

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = (Position3D(*rng.uniform(-100, 100, 3)) for _ in range(3))
            assert ref.distance(a, b) == ref.distance(b, a)
            assert ref.distance(a, c) <= ref.distance(a, b) + ref.distance(b, c) + 1e-12


class TestDepressionAngle:
    # the scalar reference's angle, the oracle of the kernel's BS-to-point angle
    def test_bs_to_wall_center(self):
        got = ref.depression_angle(Position3D(0, 0, 25), Position3D(50, 0, 10))
        assert got == pytest.approx(math.degrees(math.atan2(15.0, 50.0)), rel=1e-12, abs=0.0)
        assert got == pytest.approx(16.6992, abs=1e-4)

    def test_target_above_is_negative(self):
        assert ref.depression_angle(Position3D(0, 0, 25), Position3D(25, 0, 50)) == pytest.approx(-45.0)

    def test_level_target_is_zero(self):
        assert ref.depression_angle(Position3D(0, 0, 25), Position3D(10, 0, 25)) == 0.0

    def test_straight_down_is_plus_90(self):
        assert ref.depression_angle(Position3D(0, 0, 25), Position3D(0, 0, 1)) == 90.0

    def test_odd_symmetry_in_height_offset(self):
        rng = np.random.default_rng(11)
        frm = Position3D(0, 0, 40)
        for _ in range(100):
            dx, dy, dz = rng.uniform(0.5, 30, 3)
            up = ref.depression_angle(frm, Position3D(dx, dy, 40 + dz))
            down = ref.depression_angle(frm, Position3D(dx, dy, 40 - dz))
            assert up == pytest.approx(-down, rel=1e-12, abs=0.0)


def _default_cfg(rows=10, cols=10):
    return ScenarioConfig(irs_rows=rows, irs_cols=cols)


class TestScatterSampling:
    # statistics of the simulator's mapping; the scalar reference sampler
    # (tests/scalar_reference.py) pins down the draw layout
    def test_zero_extent_patch_collapses_to_center(self):
        pts = scatter(_default_cfg(1, 1), 123, 20)
        assert pts.tolist() == [[50.0, 0.0, 10.0]] * 20

    def test_seeded_stream_is_reproducible(self):
        cfg = _default_cfg()
        a = scatter(cfg, 99, 20)
        b = scatter(cfg, 99, 20)
        assert np.array_equal(a, b)
        pts = ref.sample_scatter_points(ref.scene(cfg), 20, ref.CounterStream(99))
        assert a.tolist() == [[p.x, p.y, p.z] for p in pts]

    def test_consumes_two_draws_per_point(self):
        # draws 0..13 are (y, z) of points 0..6, in order
        cfg = _default_cfg()
        stream = ref.CounterStream(5)
        pts = ref.sample_scatter_points(ref.scene(cfg), 7, stream)
        assert stream.position == 14
        assert scatter(cfg, 5, 7).tolist() == [[p.x, p.y, p.z] for p in pts]

    def test_all_points_on_patch(self):
        cfg = _default_cfg()
        for p in scatter(cfg, 3, 500):
            assert ref.on_patch(ref.scene(cfg), p)

    def test_count_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            ref.sample_scatter_points(ref.scene(_default_cfg()), 0, ref.CounterStream(1))

    def test_uniformity_mean_and_chi_square(self):
        # 1e5 samples: mean-y within 3 standard errors, occupancy uniform on a
        # 4x4 grid (chi-square, significance 1e-3)
        cfg = _default_cfg()
        pts = scatter(cfg, 2024, 100_000)
        ys = pts[:, 1]
        zs = pts[:, 2]
        half_w, half_h = cfg.patch_half_width_y, cfg.patch_half_height_z
        se = (2 * half_w / math.sqrt(12.0)) / math.sqrt(len(ys))
        assert abs(ys.mean()) < 3 * se
        y_bins = np.digitize(ys, np.linspace(-half_w, half_w, 5)[1:-1])
        z_bins = np.digitize(zs, np.linspace(10 - half_h, 10 + half_h, 5)[1:-1])
        counts = np.bincount(y_bins * 4 + z_bins, minlength=16)
        chi2 = ((counts - len(ys) / 16.0) ** 2 / (len(ys) / 16.0)).sum()
        assert chi2 < stats.chi2.ppf(1 - 1e-3, df=15)


@st.composite
def scenario_configs(draw):
    """Valid configs: pinned and tracking UAVs, no reflector (k = 0, either side
    zero), strips and rectangular lattices."""
    l_m = draw(st.floats(1e-3, 1e4))
    h_bs = draw(st.floats(1e-3, 1e3))
    return ScenarioConfig(
        h_bs_m=h_bs,
        h_irs_m=draw(st.floats(1e-3, h_bs)),
        h_uav_m=draw(st.floats(1.5, 300.0)),
        l_m=l_m,
        irs_rows=draw(st.integers(0, 60)),
        irs_cols=draw(st.integers(0, 60)),
        element_pitch_m=draw(st.floats(1e-6, 1e3)),
        uav_x_m=draw(st.one_of(st.none(), st.floats(-1e4, l_m))),
        uav_y_m=draw(st.floats(-1e4, 1e4)),
    )


class TestPlacementProperties:
    def test_default_positions(self):
        cfg = _default_cfg()
        assert cfg.bs == Position3D(0.0, 0.0, 25.0)
        assert cfg.irs_center == Position3D(50.0, 0.0, 10.0)
        assert cfg.uav == Position3D(25.0, 0.0, 50.0)  # midpoint default
        assert cfg.patch_half_width_y == cfg.patch_half_height_z == pytest.approx(0.09)

    def test_positions_are_values(self):
        # scalars only, so a batch's sharing keys compare equal across configs
        assert _default_cfg().bs == ScenarioConfig(h_uav_m=60.0).bs
        assert _default_cfg().irs_center != ScenarioConfig(l_m=40.0).irs_center

    def test_explicit_uav_position_overrides_midpoint(self):
        assert ScenarioConfig(uav_x_m=10.0, uav_y_m=2.0).uav == Position3D(10.0, 2.0, 50.0)

    def test_patch_extents_follow_lattice(self):
        cfg = ScenarioConfig(irs_rows=5)
        assert cfg.patch_half_height_z == pytest.approx(0.04)
        assert cfg.patch_half_width_y == pytest.approx(0.09)
        for e in lattice(5, 10, 0.02, cfg.irs_center):
            assert ref.on_patch(ref.scene(cfg), e)

    def test_empty_lattice_allowed(self):
        cfg = ScenarioConfig(irs_rows=0, irs_cols=0)
        assert cfg.patch_half_width_y == cfg.patch_half_height_z == 0.0

    def test_bad_heights_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioConfig(irs_rows=1, irs_cols=1, h_uav_m=0.0)

    # the five properties against the scalar reference's own placement: the
    # formulas are the same, so any difference is a bug
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(cfg=scenario_configs())
    @example(ScenarioConfig(irs_rows=0, irs_cols=7))  # no reflector, one side nonzero
    @example(ScenarioConfig(irs_rows=3, irs_cols=0))
    @example(ScenarioConfig(irs_rows=4, irs_cols=30, uav_x_m=50.0, uav_y_m=-3.5))  # rectangle, pinned on the wall
    @example(ScenarioConfig(irs_rows=1, irs_cols=1, l_m=1e-3))  # tracking UAV near the BS
    def test_placement_matches_scalar_reference(self, cfg):
        placed = ref.scene(cfg)
        assert cfg.bs == placed.bs
        assert cfg.uav == placed.uav
        assert cfg.irs_center == placed.irs_center
        assert cfg.patch_half_width_y == placed.patch_half_width_y
        assert cfg.patch_half_height_z == placed.patch_half_height_z
