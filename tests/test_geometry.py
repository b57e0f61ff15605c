import math

import numpy as np
import pytest
from scipy import stats

import scalar_reference as ref
from irslink.errors import DegenerateGeometryError, InvalidParameterError
from irslink.geometry import Position3D, build_geometry, depression_angle, distance, element_positions
from irslink.rng import uniform_block
from irslink.simulator import _scatter_matrix

CENTER = Position3D(50.0, 0.0, 10.0)


def scatter(geom, seed, count):
    """The simulator's mapping of one run's first 2 * count draws to patch points."""
    u = uniform_block(np.array([seed], dtype=np.uint64), 2 * count).reshape(count, 2)
    return _scatter_matrix(geom, u)


class TestElementPositions:
    def test_single_element_sits_at_center(self):
        assert element_positions(1, 1, 0.02, CENTER).tolist() == [[50.0, 0.0, 10.0]]

    def test_2x2_lattice_hand_values(self):
        pts = element_positions(2, 2, 0.02, CENTER)
        assert pts.shape == (4, 3)
        assert sorted(set(pts[:, 1])) == pytest.approx([-0.01, 0.01])
        assert sorted(set(pts[:, 2])) == pytest.approx([9.99, 10.01])
        assert all(pts[:, 0] == 50.0)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (3, 7), (10, 10), (100, 100)])
    @pytest.mark.parametrize("pitch", [0.02, 0.0137])
    def test_matches_reference_loop_bit_for_bit(self, rows, cols, pitch):
        center = Position3D(37.5, -1.25, 12.3)
        loop = [[p.x, p.y, p.z] for p in ref.element_positions(rows, cols, pitch, center)]
        assert element_positions(rows, cols, pitch, center).tolist() == loop

    def test_10x10_extent_and_centroid(self):
        pts = element_positions(10, 10, 0.02, CENTER)
        ys = pts[:, 1]
        zs = pts[:, 2]
        assert len(pts) == 100
        assert max(ys) - min(ys) == pytest.approx(0.18)
        assert max(zs) - min(zs) == pytest.approx(0.18)
        assert np.mean(ys) == pytest.approx(0.0, abs=1e-12)
        assert np.mean(zs) == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (3, 7), (5, 10), (4, 4)])
    def test_centroid_matches_center_for_any_shape(self, rows, cols):
        arr = element_positions(rows, cols, 0.02, CENTER)
        assert np.allclose(arr.mean(axis=0), [50.0, 0.0, 10.0], atol=1e-12)

    def test_pairwise_distinct_at_pitch(self):
        pts = element_positions(3, 3, 0.02, CENTER)
        assert len({(y, z) for _, y, z in pts.tolist()}) == 9
        ys = sorted(set(pts[:, 1]))
        assert np.allclose(np.diff(ys), 0.02)

    @pytest.mark.parametrize("rows,cols,pitch", [(0, 1, 0.02), (1, 0, 0.02), (1, 1, 0.0), (1, 1, -1.0)])
    def test_invalid_parameters(self, rows, cols, pitch):
        with pytest.raises(InvalidParameterError):
            element_positions(rows, cols, pitch, CENTER)


class TestDistance:
    def test_3_4_5_triangle(self):
        assert distance(Position3D(0, 0, 0), Position3D(3, 4, 0)) == 5.0

    def test_bs_to_wall_center(self):
        assert distance(Position3D(0, 0, 25), Position3D(50, 0, 10)) == pytest.approx(52.20153254455275, rel=1e-12)

    def test_identity(self):
        p = Position3D(1.5, -2.0, 7.0)
        assert distance(p, p) == 0.0

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = (Position3D(*rng.uniform(-100, 100, 3)) for _ in range(3))
            assert distance(a, b) == distance(b, a)
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


class TestDepressionAngle:
    def test_bs_to_wall_center(self):
        got = depression_angle(Position3D(0, 0, 25), Position3D(50, 0, 10))
        assert got == pytest.approx(math.degrees(math.atan2(15.0, 50.0)), rel=1e-12)
        assert got == pytest.approx(16.6992, abs=1e-4)

    def test_target_above_is_negative(self):
        assert depression_angle(Position3D(0, 0, 25), Position3D(25, 0, 50)) == pytest.approx(-45.0)

    def test_level_target_is_zero(self):
        assert depression_angle(Position3D(0, 0, 25), Position3D(10, 0, 25)) == 0.0

    def test_straight_down_is_plus_90(self):
        assert depression_angle(Position3D(0, 0, 25), Position3D(0, 0, 1)) == 90.0

    def test_odd_symmetry_in_height_offset(self):
        rng = np.random.default_rng(11)
        frm = Position3D(0, 0, 40)
        for _ in range(100):
            dx, dy, dz = rng.uniform(0.5, 30, 3)
            up = depression_angle(frm, Position3D(dx, dy, 40 + dz))
            down = depression_angle(frm, Position3D(dx, dy, 40 - dz))
            assert up == pytest.approx(-down, rel=1e-12)

    def test_coincident_points_raise(self):
        p = Position3D(1, 2, 3)
        with pytest.raises(DegenerateGeometryError):
            depression_angle(p, p)


def _default_geom(rows=10, cols=10):
    return build_geometry(rows, cols, 0.02, 50.0, 25.0, 10.0, 50.0)


class TestScatterSampling:
    # statistics of the simulator's mapping; the scalar reference sampler
    # (tests/scalar_reference.py) pins down the draw layout
    def test_zero_extent_patch_collapses_to_center(self):
        geom = build_geometry(1, 1, 0.02, 50.0, 25.0, 10.0, 50.0)
        pts = scatter(geom, 123, 20)
        assert pts.tolist() == [[50.0, 0.0, 10.0]] * 20

    def test_seeded_stream_is_reproducible(self):
        geom = _default_geom()
        a = scatter(geom, 99, 20)
        b = scatter(geom, 99, 20)
        assert np.array_equal(a, b)
        assert a.tolist() == [[p.x, p.y, p.z] for p in ref.sample_scatter_points(geom, 20, ref.CounterStream(99))]

    def test_consumes_two_draws_per_point(self):
        # draws 0..13 are (y, z) of points 0..6, in order
        geom = _default_geom()
        stream = ref.CounterStream(5)
        pts = ref.sample_scatter_points(geom, 7, stream)
        assert stream.position == 14
        assert scatter(geom, 5, 7).tolist() == [[p.x, p.y, p.z] for p in pts]

    def test_all_points_on_patch(self):
        geom = _default_geom()
        for p in scatter(geom, 3, 500):
            assert ref.on_patch(geom, p)

    def test_count_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            ref.sample_scatter_points(_default_geom(), 0, ref.CounterStream(1))

    def test_uniformity_mean_and_chi_square(self):
        # 1e5 samples: mean-y within 3 standard errors, occupancy uniform on a
        # 4x4 grid (chi-square, significance 1e-3)
        geom = _default_geom()
        pts = scatter(geom, 2024, 100_000)
        ys = pts[:, 1]
        zs = pts[:, 2]
        half_w = geom.patch_half_width_y
        se = (2 * half_w / math.sqrt(12.0)) / math.sqrt(len(ys))
        assert abs(ys.mean()) < 3 * se
        y_bins = np.digitize(ys, np.linspace(-half_w, half_w, 5)[1:-1])
        z_bins = np.digitize(zs, np.linspace(10 - geom.patch_half_height_z, 10 + geom.patch_half_height_z, 5)[1:-1])
        counts = np.bincount(y_bins * 4 + z_bins, minlength=16)
        chi2 = ((counts - len(ys) / 16.0) ** 2 / (len(ys) / 16.0)).sum()
        assert chi2 < stats.chi2.ppf(1 - 1e-3, df=15)


class TestBuildGeometry:
    def test_default_positions(self):
        geom = _default_geom()
        assert geom.bs == Position3D(0.0, 0.0, 25.0)
        assert geom.irs_center == Position3D(50.0, 0.0, 10.0)
        assert geom.uav == Position3D(25.0, 0.0, 50.0)  # midpoint default
        assert geom.elements.shape == (100, 3)

    def test_explicit_uav_position_overrides_midpoint(self):
        geom = build_geometry(10, 10, 0.02, 50.0, 25.0, 10.0, 50.0, uav_x_m=10.0, uav_y_m=2.0)
        assert geom.uav == Position3D(10.0, 2.0, 50.0)

    def test_patch_extents_follow_lattice(self):
        geom = build_geometry(5, 10, 0.02, 50.0, 25.0, 10.0, 50.0)
        assert geom.patch_half_height_z == pytest.approx(0.04)
        assert geom.patch_half_width_y == pytest.approx(0.09)
        for e in geom.elements:
            assert ref.on_patch(geom, e)

    def test_empty_lattice_allowed(self):
        geom = build_geometry(0, 0, 0.02, 50.0, 25.0, 10.0, 50.0)
        assert geom.elements.shape == (0, 3)
        assert geom.patch_half_width_y == 0.0

    def test_bad_heights_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_geometry(1, 1, 0.02, 50.0, 25.0, 10.0, 0.0)
