import math

import numpy as np
import pytest

from hiersense import (Blockage, NetworkTopology, PathlossParams,
                       build_topology, compute_phi, db_to_lin)
from hiersense.topology import NO_LINK, _los_matrix, frame_delays, pathloss_db
from tests.oracles import db_to_lin_fresh, pathloss_db_fresh


def _segment_hits_rect(p, q, rect) -> bool:
    """Scalar oracle: True if the segment p->q passes through the
    rectangle's open interior (Liang-Barsky; grazing does not count)."""
    xmin, ymin, xmax, ymax = rect
    dx, dy = q[0] - p[0], q[1] - p[1]
    t0, t1 = 0.0, 1.0
    for delta, lo, hi, start in ((dx, xmin, xmax, p[0]), (dy, ymin, ymax, p[1])):
        if delta == 0.0:
            if start < lo or start > hi:
                return False
        else:
            ta, tb = (lo - start) / delta, (hi - start) / delta
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
            if t0 > t1:
                return False
    tm = (t0 + t1) / 2.0
    x, y = p[0] + tm * dx, p[1] + tm * dy
    return xmin < x < xmax and ymin < y < ymax


def _los_loop(centers, rects) -> np.ndarray:
    """Scalar oracle of the LOS matrix: every pair against every rectangle."""
    centers = np.asarray(centers, dtype=float)
    n = len(centers)
    los = np.ones((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            for rect in rects:
                if _segment_hits_rect(centers[i], centers[j], rect):
                    los[i, j] = los[j, i] = False
                    break
    return los


class TestFrameDelays:
    def test_whole_frames_rounded_up(self):
        d = np.array([[0.0, 50.0], [100.0, 101.0]])
        got = frame_delays(d, 0.02)
        assert got.dtype.kind == "i"
        assert got.tolist() == [[0, 1], [2, 3]]
        assert not frame_delays(d, 0.0).any()

    def test_no_link_beyond_the_radius(self):
        d = np.array([[0.0, 50.0], [100.0, 101.0]])
        assert frame_delays(d, 0.02, 100.0).tolist() == [[0, 1], [2, NO_LINK]]


class TestBuildTopology:
    def test_paper_grid_spacing(self):
        topo = build_topology("grid", 256, (1600.0, 1600.0), 0, 1)
        assert topo.cell_count == 256
        xs = np.unique(topo.cell_centers[:, 0])
        assert len(xs) == 16
        assert np.allclose(np.diff(xs), 100.0)
        assert topo.cell_radius == 50.0

    def test_small_grid_all_los_without_blockages(self):
        topo = build_topology("grid", 4, (200.0, 200.0), 0, 1)
        assert topo.los_matrix.all()

    def test_deterministic_under_seed(self):
        a = build_topology("grid", 16, (400.0, 400.0), 3, rng_seed=7)
        b = build_topology("grid", 16, (400.0, 400.0), 3, rng_seed=7)
        assert np.array_equal(a.cell_centers, b.cell_centers)
        assert [x.center for x in a.blockages] == [x.center for x in b.blockages]
        assert np.array_equal(a.los_matrix, b.los_matrix)

    def test_non_square_grid_rejected(self):
        with pytest.raises(ValueError):
            build_topology("grid", 12, (400.0, 400.0))

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            build_topology("grid", 4, (0.0, 200.0))

    def test_random_topology_centers_inside_area(self):
        topo = build_topology("random", 30, (500.0, 500.0), 0, 5)
        assert topo.cell_count == 30
        assert (topo.cell_centers >= 0).all()
        assert (topo.cell_centers[:, 0] <= 500).all()
        assert topo.los_matrix.all()

    def test_random_topology_rejects_blockages(self):
        with pytest.raises(ValueError):
            build_topology("random", 10, (500.0, 500.0), 1, 5)

    def test_invariants(self, grid16):
        topo, _ = grid16
        d = topo.distance_matrix
        assert np.array_equal(d, d.T)
        assert (np.diag(d) == 0).all()
        assert np.array_equal(topo.los_matrix, topo.los_matrix.T)
        assert np.diag(topo.los_matrix).all()

    def test_blockages_sit_on_interior_boundaries(self):
        topo = build_topology("grid", 16, (400.0, 400.0), 5, rng_seed=3)
        for blk in topo.blockages:
            cx, cy = blk.center
            if blk.vertical:
                assert cx % 100.0 == 0.0 and 0 < cx < 400
            else:
                assert cy % 100.0 == 0.0 and 0 < cy < 400


class TestLineOfSight:
    def test_self_is_los(self, grid16):
        topo, _ = grid16
        assert topo.los_matrix[3, 3]

    def test_blockage_between_adjacent_cells(self):
        # 2x2 grid, blockage dropped exactly on the boundary between 0 and 1
        blk = Blockage(center=(100.0, 50.0), width=100.0, height=500.0,
                       vertical=True)
        topo = NetworkTopology([[50.0, 50.0], [150.0, 50.0],
                                [50.0, 150.0], [150.0, 150.0]],
                               (200.0, 200.0), 50.0, [blk])
        assert not topo.los_matrix[0, 1]
        assert topo.los_matrix[0, 2]  # vertical segment at x=50 misses the rect

    def test_segment_rect_oracle(self, rng):
        # dense point sampling: strictly interior points imply a hit
        rect = (2.0, 1.0, 5.0, 4.0)
        hits = 0
        for _ in range(200):
            p = rng.uniform(0, 7, 2)
            q = rng.uniform(0, 7, 2)
            ts = np.linspace(0, 1, 2001)
            pts = p[None, :] + ts[:, None] * (q - p)[None, :]
            inside = ((pts[:, 0] > rect[0]) & (pts[:, 0] < rect[2])
                      & (pts[:, 1] > rect[1]) & (pts[:, 1] < rect[3])).any()
            got = _segment_hits_rect(p, q, rect)
            if inside:
                assert got
                hits += 1
        assert hits > 20  # the sampling actually exercised intersections

    def test_grazing_segment_does_not_block(self):
        # a segment running exactly along a rectangle face stays clear
        assert not _segment_hits_rect((2.0, 0.0), (2.0, 6.0),
                                      (2.0, 1.0, 5.0, 4.0))
        assert _segment_hits_rect((1.0, 2.0), (6.0, 2.5), (2.0, 1.0, 5.0, 4.0))


class TestLosMatchesScalarOracle:
    """The array LOS matrix equals the pairwise scalar loop exactly."""

    RECTS = [(2.0, 1.0, 5.0, 4.0), (0.0, 3.0, 6.0, 3.5), (3.0, 0.0, 3.0 + 1e-9, 6.0)]

    def test_lattice_axis_parallel_grazing_and_inside(self):
        # integer lattice: axis-parallel segments, segments along faces and
        # through corners, endpoints on faces and strictly inside rectangles
        xs, ys = np.meshgrid(np.arange(7.0), np.arange(7.0))
        centers = np.column_stack([xs.ravel(), ys.ravel()])
        for k in range(len(self.RECTS)):
            rects = self.RECTS[:k + 1]
            expect = _los_loop(centers, rects)
            assert not expect.all()
            assert np.array_equal(_los_matrix(centers, rects), expect)

    def test_corner_and_face_points(self):
        rect = (2.0, 1.0, 5.0, 4.0)
        centers = [(2.0, 1.0), (5.0, 4.0), (2.0, 4.0), (5.0, 1.0), (3.5, 1.0),
                   (3.5, 4.0), (2.0, 2.5), (5.0, 2.5), (3.5, 2.5), (0.0, 0.0),
                   (7.0, 5.0), (1.0, 5.0), (6.0, 0.0)]
        expect = _los_loop(centers, [rect])
        assert np.array_equal(_los_matrix(np.array(centers), [rect]), expect)
        assert not expect[0, 1]  # corner to corner through the interior
        assert expect[0, 2]      # along the left face

    def test_random_points_and_rectangles(self, rng):
        for _ in range(5):
            centers = rng.uniform(0, 10, (40, 2))
            lo = rng.uniform(0, 8, (4, 2))
            size = rng.uniform(0.2, 3, (4, 2))
            rects = [tuple(np.concatenate([a, a + b]).tolist())
                     for a, b in zip(lo, size)]
            assert np.array_equal(_los_matrix(centers, rects),
                                  _los_loop(centers, rects))

    @pytest.mark.parametrize("n, blockages, seed", [
        (16, 5, 3), (64, 12, 0), (64, 12, 1), (100, 16, 2), (256, 16, 5)])
    def test_grid_layouts(self, n, blockages, seed):
        topo = build_topology("grid", n, (1600.0, 1600.0), blockages, seed)
        rects = [b.bounds() for b in topo.blockages]
        expect = _los_loop(topo.cell_centers, rects)
        assert not expect.all()
        assert np.array_equal(topo.los_matrix, expect)


class TestComputePhi:
    def test_reference_distance_value(self):
        # hand evaluation: (N0*W) = -173 + 10log10(2e7) = -99.99 dBm,
        # so at d = d_ref the INR is -11 + 99.99 - 74 = 14.99 dB
        topo = build_topology("grid", 4, (200.0, 200.0), 0, 1)
        phi = compute_phi(topo, PathlossParams())
        expected_db = -11.0 - (-173.0 + 10 * math.log10(20e6)) - 74.0
        assert abs(expected_db - 14.9897) < 1e-3
        assert np.allclose(np.diag(phi.phi), db_to_lin(expected_db))

    def test_los_class_irrelevant_when_exponents_equal(self):
        topo = build_topology("grid", 16, (400.0, 400.0), 4, rng_seed=2)
        assert not topo.los_matrix.all()
        params = PathlossParams(alpha_los=2.1, alpha_nlos=2.1)
        blocked = compute_phi(topo, params)
        open_topo = build_topology("grid", 16, (400.0, 400.0), 0, rng_seed=2)
        assert np.allclose(blocked.phi, compute_phi(open_topo, params).phi)

    def test_distance_doubling_drop(self):
        # doubling the distance under alpha=2.1 costs 2.1*10*log10(2) dB
        topo = NetworkTopology([[0.0, 5.0], [100.0, 5.0], [200.0, 5.0]],
                               (200.0, 10.0), 50.0, [])
        phi = compute_phi(topo, PathlossParams())
        drop_db = 10 * math.log10(phi.phi[0, 1] / phi.phi[0, 2])
        assert abs(drop_db - 2.1 * 10 * math.log10(2.0)) < 1e-9

    def test_symmetry_exact(self, grid16):
        _, phi = grid16
        assert (phi.phi == phi.phi.T).all()

    def test_monotone_in_distance_for_fixed_los_class(self, grid16):
        topo, phi = grid16
        iu = np.triu_indices(topo.cell_count, 1)
        for cls in (True, False):
            sel = topo.los_matrix[iu] == cls
            if sel.sum() < 2:
                continue
            order = np.argsort(topo.distance_matrix[iu][sel])
            assert (np.diff(phi.phi[iu][sel][order]) <= 1e-12).all()

    def test_removing_blockages_never_decreases_phi(self):
        params = PathlossParams()
        blocked_topo = build_topology("grid", 16, (400.0, 400.0), 4, rng_seed=2)
        open_topo = build_topology("grid", 16, (400.0, 400.0), 0, rng_seed=2)
        blocked = compute_phi(blocked_topo, params).phi
        opened = compute_phi(open_topo, params).phi
        assert (opened >= blocked - 1e-15).all()


class TestPathlossMatchesFreshArrays:
    def test_los_mask_and_compute_phi(self, grid16, default_pathloss, rng):
        topo, phi = grid16
        assert not topo.los_matrix.all()
        d = topo.distance_matrix.copy()
        np.fill_diagonal(d, default_pathloss.ref_distance_m)
        expect_db = pathloss_db_fresh(default_pathloss, d, topo.los_matrix)
        got_db = pathloss_db(default_pathloss, d, topo.los_matrix)
        assert got_db.tobytes() == expect_db.tobytes()
        assert db_to_lin(got_db).tobytes() == db_to_lin_fresh(expect_db).tobytes()
        assert phi.phi.tobytes() == db_to_lin_fresh(expect_db).tobytes()
        # integer exponents, and a mask broadcast against a scalar distance
        params = PathlossParams(alpha_los=2, alpha_nlos=4)
        d, los = rng.uniform(0.5, 3000.0, (9, 7)), rng.random((9, 7)) < 0.5
        for dist in (d, 250.0):
            assert pathloss_db(params, dist, los).tobytes() == \
                pathloss_db_fresh(params, dist, los).tobytes()

    @pytest.mark.parametrize("los", [True, False])
    def test_scalar_los_flag(self, default_pathloss, rng, los):
        d = rng.uniform(1.0, 3000.0, (31, 17))
        got = pathloss_db(default_pathloss, d, los)
        assert got.shape == d.shape
        assert got.tobytes() == pathloss_db_fresh(default_pathloss, d,
                                                  los).tobytes()

    def test_scalar_inputs_give_numpy_scalars(self, default_pathloss, rng):
        for d, los in ((250.0, True), (1e4, False), (np.float64(3.0), 1)):
            got = pathloss_db(default_pathloss, d, los)
            expect = pathloss_db_fresh(default_pathloss, d, los)
            assert type(got) is type(expect) is np.float64
            assert got.tobytes() == expect.tobytes()
        # a scalar dB value is raised by scalar math, whose power differs
        # from the array loop's in the last bit for some inputs
        for x in [5.0, 0, [3.0, -2.5], *rng.uniform(-100.0, 100.0, 300)]:
            got, expect = db_to_lin(x), db_to_lin_fresh(x)
            assert type(got) is type(expect)
            assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()

    @pytest.mark.parametrize("los", ["mask", True, False])
    def test_in_place_over_its_input(self, default_pathloss, rng, los):
        # 150 rows: the exponent factors' row blocks end in a partial one
        d = rng.uniform(0.5, 3000.0, (150, 70))
        flags = rng.random(d.shape) < 0.5 if los == "mask" else los
        expect_db = pathloss_db_fresh(default_pathloss, d, flags)
        out = d.copy()
        assert pathloss_db(default_pathloss, out, flags, out=out) is out
        assert out.tobytes() == expect_db.tobytes()
        assert db_to_lin(out, out=out) is out
        assert out.tobytes() == db_to_lin_fresh(expect_db).tobytes()

    def test_db_to_lin_leaves_its_input(self, rng):
        x = rng.uniform(-100.0, 100.0, 1000)
        before = x.copy()
        assert db_to_lin(x).tobytes() == db_to_lin_fresh(before).tobytes()
        assert x.tobytes() == before.tobytes()
