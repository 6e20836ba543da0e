import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmatch.geometry import (
    GRID_BACKEND_THRESHOLD,
    Point,
    PointLabel,
    PointSet,
    RadiusProfile,
    adaptive_radius,
    all_radii,
    knn_distances,
    pairs_within,
    pairwise_distances,
)


def brute_knn(query, targets, k):
    """Oracle: full sort of every distance, truncated to k."""
    q = np.asarray(query, dtype=np.float64)
    c = targets.coords
    d = np.sort(np.hypot(c[:, 0] - q[0], c[:, 1] - q[1]))
    return d[: min(k, len(targets))]


class TestPointTypes:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Point(0.0, float("inf"))

    def test_pointset_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="indices \\[1\\]"):
            PointSet([(0, 0), (float("nan"), 1)])

    def test_pointset_order_and_labels(self):
        ps = PointSet([(1, 2), (3, 4)], label=PointLabel.GROUND_TRUTH)
        assert len(ps) == 2
        assert ps[0] == Point(1.0, 2.0)
        assert ps.label is PointLabel.GROUND_TRUTH
        assert [p.x for p in ps] == [1.0, 3.0]

    def test_coords_read_only(self):
        ps = PointSet([(1, 2)])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 9.0

    def test_radius_profile_validation(self):
        with pytest.raises(ValueError):
            RadiusProfile(np.array([1.0]), k=0)
        with pytest.raises(ValueError):
            RadiusProfile(np.array([-1.0]), k=1)


class TestKnnDistances:
    def test_three_four_five(self):
        d = knn_distances(Point(0, 0), PointSet([(3, 4)]), k=1)
        assert d.tolist() == [5.0]

    def test_collinear(self):
        targets = PointSet([(1, 1), (2, 1), (4, 1)])
        d = knn_distances(Point(1, 1), targets, k=3)
        assert d.tolist() == [0.0, 1.0, 3.0]

    def test_k_clamped_to_target_count(self):
        targets = PointSet([(1, 0), (2, 0)])
        d = knn_distances(Point(0, 0), targets, k=10)
        assert d.tolist() == [1.0, 2.0]

    def test_against_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        targets = PointSet(rng.uniform(0, 1, (100, 2)))
        d = knn_distances(Point(0, 0), targets, k=5)
        np.testing.assert_array_equal(d, brute_knn((0, 0), targets, 5))

    def test_errors(self):
        with pytest.raises(ValueError, match="no ground truth"):
            knn_distances(Point(0, 0), PointSet([]), k=1)
        with pytest.raises(ValueError, match="invalid k"):
            knn_distances(Point(0, 0), PointSet([(1, 1)]), k=0)

    def test_sorted_prefix_property(self):
        # The k-NN output must be a prefix of the fully sorted distance list.
        rng = np.random.default_rng(11)
        for n in (1, 2, 17, 256, 500):
            targets = PointSet(rng.uniform(-50, 50, (n, 2)))
            q = rng.uniform(-60, 60, 2)
            for k in (1, 3, n, n + 4):
                np.testing.assert_array_equal(
                    knn_distances(q, targets, k), brute_knn(q, targets, k))

    def test_grid_backend_matches_scan(self):
        # Above the threshold the uniform-grid index takes over; distances
        # must be identical to the brute-force sort.
        rng = np.random.default_rng(13)
        n = GRID_BACKEND_THRESHOLD + 44
        targets = PointSet(rng.uniform(0, 200, (n, 2)))
        for _ in range(50):
            q = rng.uniform(-20, 220, 2)
            np.testing.assert_array_equal(
                knn_distances(q, targets, 5), brute_knn(q, targets, 5))

    def test_grid_backend_identical_points(self):
        targets = PointSet([(5.0, 5.0)] * (GRID_BACKEND_THRESHOLD + 1))
        d = knn_distances(Point(5, 5), targets, k=3)
        assert d.tolist() == [0.0, 0.0, 0.0]

    def test_grid_query_far_outside_the_cloud(self):
        # Only cells inside the grid are visited, so queries up to 3e4 px
        # from a 100 px cloud cost no more than queries next to it.
        rng = np.random.default_rng(37)
        targets = PointSet(rng.uniform(0, 100, (400, 2)))
        far = [(3e4, 50.0), (-3e4, -3e4), (50.0, 3.00001e4), (-2e4, 3e4)]
        queries = PointSet.from_coords(np.vstack([far, rng.uniform(-3e4, 3e4, (300, 2))]))
        full = pairwise_distances(queries, targets)
        r = np.sort(full, axis=1)[:, 7]
        t0 = time.perf_counter()
        for q in far:
            np.testing.assert_array_equal(
                knn_distances(q, targets, 5), brute_knn(q, targets, 5))
        radii = all_radii(queries, targets, k=5, floor=1e-9).radii
        qi, ti, d = pairs_within(queries, targets, r)
        assert time.perf_counter() - t0 < 0.1
        np.testing.assert_array_equal(radii, np.sort(full, axis=1)[:, :5].mean(axis=1))
        want_i, want_j = np.nonzero(full <= r[:, None])
        np.testing.assert_array_equal(qi, want_i)
        np.testing.assert_array_equal(ti, want_j)
        np.testing.assert_array_equal(d, full[want_i, want_j])


@st.composite
def neighbour_cases(draw):
    """Targets on either side of GRID_BACKEND_THRESHOLD in adversarial
    layouts, queries near and 1e6 px away, radii from 0 to past the cloud."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.one_of(st.integers(1, GRID_BACKEND_THRESHOLD - 1),
                       st.integers(GRID_BACKEND_THRESHOLD, GRID_BACKEND_THRESHOLD + 200)))
    layout = draw(st.sampled_from(["uniform", "coincident", "collinear", "far_cluster", "huge"]))
    # Half-pixel coordinates give tied distances.
    targets = np.round(2 * rng.uniform(0, 100, (m, 2))) / 2
    if layout == "coincident":
        targets[rng.random(m) < 0.7] = targets[0]
    elif layout == "collinear":
        targets[:, 1] = 3.0 if rng.random() < 0.5 else targets[:, 0]
    elif layout == "far_cluster":
        targets[rng.random(m) < 0.2] += (1e5, -1e5)
    angles = rng.uniform(0, 2 * np.pi, 4)
    queries = np.vstack([np.round(2 * rng.uniform(-20, 120, (draw(st.integers(0, 40)), 2))) / 2,
                         targets[rng.integers(0, m, 3)],
                         1e6 * np.column_stack([np.cos(angles), np.sin(angles)])])
    radii = rng.choice([0.0, 0.5, 3.0, 12.0, 40.0, 2e6], len(queries))
    if layout == "huge":
        # Without a huge target the cells stay small, and the cell index of
        # the huge query overflows int64 unless clipped before the cast.
        if rng.random() < 0.5:
            targets[0, rng.integers(2)] = 1e300
        queries[-1, rng.integers(2)] = -1e300 if rng.random() < 0.5 else 1e300
        radii[rng.random(len(queries)) < 0.2] = 3e300
        radii[-1] = 3e300
    k = draw(st.one_of(st.integers(1, 8), st.just(m + 3)))
    return PointSet.from_coords(queries), PointSet.from_coords(targets), radii, k


class TestGridEqualsFullScan:
    @settings(max_examples=200, deadline=None)
    @given(neighbour_cases())
    def test_pairs_radii_and_knn_bit_equal(self, case):
        self.assert_grid_equals_full_scan(*case)

    def test_cloud_wider_than_float_range(self):
        # hi - lo overflows for targets at -1e308 and 1e308; the grid must
        # still index them, and far queries must still see the whole cloud.
        rng = np.random.default_rng(17)
        targets = rng.uniform(0, 1000, (GRID_BACKEND_THRESHOLD + 44, 2))
        targets[:2] = [(-1e308, 5.0), (1e308, -3.0)]
        queries = np.vstack([rng.uniform(-50, 1050, (40, 2)), targets[:2],
                             [(0.0, 1e308), (-1.7e308, 0.0)]])
        radii = rng.choice([0.0, 3.0, 50.0, 1e308], len(queries))
        radii[40:] = 1e308
        queries, targets = PointSet.from_coords(queries), PointSet.from_coords(targets)
        with np.errstate(over="ignore"):
            # k = 1 keeps every adaptive radius finite.
            self.assert_grid_equals_full_scan(queries, targets, radii, 1)
            full = np.sort(pairwise_distances(queries, targets), axis=1)
            for i, q in enumerate(queries.coords):
                assert knn_distances(q, targets, 5).tobytes() == full[i, :5].tobytes()

    @staticmethod
    def assert_grid_equals_full_scan(queries, targets, radii, k):
        full = pairwise_distances(queries, targets)
        nearest = np.sort(full, axis=1)[:, :min(k, len(targets))]

        qi, ti, d = pairs_within(queries, targets, radii)
        want_i, want_j = np.nonzero(full <= radii[:, None])
        np.testing.assert_array_equal(qi, want_i)
        np.testing.assert_array_equal(ti, want_j)
        assert d.tobytes() == full[want_i, want_j].tobytes()

        got = all_radii(queries, targets, k=k, floor=1e-3).radii
        assert got.tobytes() == np.maximum(nearest.mean(axis=1), 1e-3).tobytes()
        for i in (0, len(queries) - 1):
            assert knn_distances(queries.coords[i], targets, k).tobytes() == nearest[i].tobytes()


class TestPairsWithin:
    @pytest.mark.parametrize("m", [7, GRID_BACKEND_THRESHOLD - 1, GRID_BACKEND_THRESHOLD, 600])
    def test_equals_dense_mask_on_both_backends(self, m):
        rng = np.random.default_rng(41 + m)
        gt = PointSet(np.round(rng.uniform(0, 60, (m, 2)), 1))
        pred = PointSet(np.vstack([np.round(rng.uniform(-5, 65, (300, 2)), 1),
                                   gt.coords[:20], [(1e4, -1e4)]]))
        radii = rng.uniform(0, 8, len(pred))
        radii[:10] = 0.0
        radii[-1] = 2e4
        d = pairwise_distances(pred, gt)
        qi, ti, dist = pairs_within(pred, gt, radii)
        want_i, want_j = np.nonzero(d <= radii[:, None])
        np.testing.assert_array_equal(qi, want_i)
        np.testing.assert_array_equal(ti, want_j)
        np.testing.assert_array_equal(dist, d[want_i, want_j])

    def test_edge_of_disc_is_inside(self):
        gt = PointSet([(float(i), 0.0) for i in range(GRID_BACKEND_THRESHOLD)])
        qi, ti, d = pairs_within(PointSet([(0.0, 0.0)]), gt, np.array([3.0]))
        assert ti.tolist() == [0, 1, 2, 3] and d.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_empty_and_misaligned(self):
        gt = PointSet([(0, 0)])
        assert all(a.size == 0 for a in pairs_within(PointSet([]), gt, np.empty(0)))
        assert all(a.size == 0 for a in pairs_within(gt, PointSet([]), np.ones(1)))
        with pytest.raises(ValueError, match="radius count"):
            pairs_within(gt, gt, np.ones(2))
        with pytest.raises(ValueError, match="finite and non-negative"):
            pairs_within(gt, gt, np.array([np.inf]))


class TestAdaptiveRadius:
    def test_mean_of_distances(self):
        # Distances 1, 2, 3 -> mean 2.
        gt = PointSet([(1, 0), (2, 0), (3, 0)])
        assert adaptive_radius(Point(0, 0), gt, k=3, floor=1e-3) == 2.0

    def test_floor_engages_at_zero_distance(self):
        gt = PointSet([(4, 4)])
        assert adaptive_radius(Point(4, 4), gt, k=1, floor=1e-3) == 1e-3

    def test_random_cloud_against_oracle(self):
        rng = np.random.default_rng(3)
        gt = PointSet(rng.uniform(0, 10, (50, 2)))
        p = Point(5, 5)
        expected = brute_knn((5, 5), gt, 5).mean()
        assert adaptive_radius(p, gt, k=5, floor=1e-9) == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        gt = PointSet(rng.uniform(0, 10, (30, 2)))
        p = Point(2, 7)
        radii = [adaptive_radius(p, gt, k=k, floor=1e-9) for k in range(1, 31)]
        assert all(a <= b + 1e-15 for a, b in zip(radii, radii[1:]))

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            adaptive_radius(Point(0, 0), PointSet([(1, 1)]), k=1, floor=0.0)


class TestAllRadii:
    def test_single_identical_point_hits_floor(self):
        ps = PointSet([(3, 3)])
        prof = all_radii(ps, ps, k=1, floor=1e-3)
        assert prof.radii.tolist() == [1e-3]

    def test_dense_vs_isolated(self):
        # A 3x3 cluster at spacing 1 against one point 20 px away: the
        # cluster prediction must get a much smaller radius.
        cluster = [(i, j) for i in range(3) for j in range(3)]
        gt = PointSet(cluster + [(40, 40)])
        pred = PointSet([(1, 1), (40, 41)])
        prof = all_radii(pred, gt, k=5, floor=1e-6)
        dense_expected = brute_knn((1, 1), gt, 5).mean()
        isolated_expected = brute_knn((40, 41), gt, 5).mean()
        np.testing.assert_allclose(prof.radii, [dense_expected, isolated_expected])
        assert prof.radii[0] < prof.radii[1]

    def test_k_clamped(self):
        gt = PointSet([(0, 0), (1, 0), (2, 0)])
        pred = PointSet([(0, 1)])
        prof = all_radii(pred, gt, k=5, floor=1e-9)
        expected = brute_knn((0, 1), gt, 3).mean()
        assert prof.radii[0] == pytest.approx(expected, abs=1e-15)

    def test_matches_per_point_calls(self):
        rng = np.random.default_rng(17)
        gt = PointSet(rng.uniform(0, 30, (40, 2)))
        pred = PointSet(rng.uniform(0, 30, (10, 2)))
        prof = all_radii(pred, gt, k=4, floor=1e-3)
        singles = [adaptive_radius(p, gt, k=4, floor=1e-3) for p in pred]
        np.testing.assert_allclose(prof.radii, singles, atol=1e-15)

    def test_scan_in_several_blocks_matches_per_point_calls(self):
        # 1000 x 200 pairs: the full scan runs in several row blocks.
        rng = np.random.default_rng(18)
        gt = PointSet(rng.uniform(0, 30, (200, 2)))
        pred = PointSet(rng.uniform(-5, 35, (1000, 2)))
        prof = all_radii(pred, gt, k=3, floor=1e-3)
        singles = [adaptive_radius(p, gt, k=3, floor=1e-3) for p in pred]
        np.testing.assert_allclose(prof.radii, singles, atol=1e-15)

    def test_grid_path_agrees_with_scan_path(self):
        rng = np.random.default_rng(19)
        gt_big = PointSet(rng.uniform(0, 100, (300, 2)))   # grid backend
        pred = PointSet(rng.uniform(0, 100, (25, 2)))
        prof = all_radii(pred, gt_big, k=5, floor=1e-9)
        expected = [brute_knn(p, gt_big, 5).mean() for p in pred.coords]
        np.testing.assert_allclose(prof.radii, expected, atol=1e-15)


class TestGeometryProperties:
    def test_translation_invariance(self):
        rng = np.random.default_rng(23)
        gt = rng.uniform(0, 10, (20, 2))
        p = np.array([4.0, 6.0])
        shift = np.array([123.456, -987.654])
        base = knn_distances(p, PointSet(gt), 6)
        moved = knn_distances(p + shift, PointSet(gt + shift), 6)
        np.testing.assert_allclose(moved, base, atol=1e-12)

    def test_density_response_power_of_two_scale(self):
        # Scaling coordinates by a power of two is exact in floats, so the
        # radii scale by exactly that factor when above the floor.
        rng = np.random.default_rng(29)
        gt = rng.uniform(0, 10, (30, 2))
        pred = rng.uniform(0, 10, (8, 2))
        base = all_radii(PointSet(pred), PointSet(gt), k=5, floor=1e-12)
        scaled = all_radii(PointSet(4.0 * pred), PointSet(4.0 * gt), k=5, floor=1e-12)
        np.testing.assert_array_equal(scaled.radii, 4.0 * base.radii)

    def test_density_response_general_scale(self):
        rng = np.random.default_rng(31)
        gt = rng.uniform(0, 10, (30, 2))
        pred = rng.uniform(0, 10, (8, 2))
        base = all_radii(PointSet(pred), PointSet(gt), k=5, floor=1e-12)
        scaled = all_radii(PointSet(3.7 * pred), PointSet(3.7 * gt), k=5, floor=1e-12)
        np.testing.assert_allclose(scaled.radii, 3.7 * base.radii, rtol=1e-12)

    def test_pairwise_distances_shape_and_values(self):
        a = PointSet([(0, 0), (1, 0)])
        b = PointSet([(0, 3), (4, 0), (0, 0)])
        d = pairwise_distances(a, b)
        np.testing.assert_allclose(d, [[3, 4, 0], [np.hypot(1, 3), 3, 1]])
        assert pairwise_distances(PointSet([]), b).shape == (0, 3)
