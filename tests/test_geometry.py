import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmatch import geometry
from countmatch.geometry import (
    DEFAULT_RADIUS_FLOOR,
    GRID_BACKEND_THRESHOLD,
    Point,
    PointLabel,
    PointSet,
    RadiusProfile,
    _knn,
    all_radii,
    pairs_within,
    pairwise_distances,
)
from countmatch.synth import DensityProfile, SceneConfig, perturb_points, sample_points


def brute_knn(query, targets, k):
    """Oracle: full sort of every distance, truncated to k."""
    q = np.asarray(query, dtype=np.float64)
    c = targets.coords
    d = np.sort(np.hypot(c[:, 0] - q[0], c[:, 1] - q[1]))
    return d[: min(k, len(targets))]


def knn_of(query, targets, k):
    """The k nearest distances of one query point, through ``_knn``."""
    return _knn(PointSet([query]).coords, targets, k)[0][0]


def radius_of(p, gt, k, floor=DEFAULT_RADIUS_FLOOR):
    """The adaptive radius of one point, through ``all_radii``."""
    return all_radii(PointSet([p]), gt, k, floor).radii[0]


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
        d = knn_of(Point(0, 0), PointSet([(3, 4)]), k=1)
        assert d.tolist() == [5.0]

    def test_collinear(self):
        targets = PointSet([(1, 1), (2, 1), (4, 1)])
        d = knn_of(Point(1, 1), targets, k=3)
        assert d.tolist() == [0.0, 1.0, 3.0]

    def test_k_clamped_to_target_count(self):
        targets = PointSet([(1, 0), (2, 0)])
        d = knn_of(Point(0, 0), targets, k=10)
        assert d.tolist() == [1.0, 2.0]

    def test_against_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        targets = PointSet(rng.uniform(0, 1, (100, 2)))
        d = knn_of(Point(0, 0), targets, k=5)
        np.testing.assert_array_equal(d, brute_knn((0, 0), targets, 5))

    def test_errors(self):
        with pytest.raises(ValueError, match="no ground truth"):
            knn_of(Point(0, 0), PointSet([]), k=1)
        with pytest.raises(ValueError, match="invalid k"):
            knn_of(Point(0, 0), PointSet([(1, 1)]), k=0)

    @pytest.mark.parametrize("k", [0, -3, 2.5, 3.0, np.float64(2.0), True, "5", None])
    def test_k_is_a_positive_integer(self, k):
        gt = PointSet([(1.0, 1.0), (2.0, 3.0)])
        calls = [lambda: knn_of((0.0, 0.0), gt, k), lambda: all_radii(gt, gt, k),
                 lambda: _knn(gt.coords, gt, k, 1e-3), lambda: RadiusProfile(np.ones(1), k)]
        for call in calls:
            with pytest.raises(ValueError, match="^invalid k$"):
                call()

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_k(self, k):
        gt = PointSet([(1.0, 1.0), (2.0, 3.0), (0.0, 4.0)])
        assert all_radii(gt, gt, k).radii.tobytes() == all_radii(gt, gt, 2).radii.tobytes()

    @pytest.mark.parametrize("query", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_non_finite_query(self, query):
        with pytest.raises(ValueError, match="non-finite"):
            knn_of(query, PointSet([(1, 1)]), k=1)
        with pytest.raises(ValueError, match="non-finite"):
            radius_of(query, PointSet([(1, 1)]), k=1)

    def test_sorted_prefix_property(self):
        # The k-NN output must be a prefix of the fully sorted distance list.
        rng = np.random.default_rng(11)
        for n in (1, 2, 17, 256, 500):
            targets = PointSet(rng.uniform(-50, 50, (n, 2)))
            q = rng.uniform(-60, 60, 2)
            for k in (1, 3, n, n + 4):
                np.testing.assert_array_equal(
                    knn_of(q, targets, k), brute_knn(q, targets, k))

    def test_grid_backend_matches_scan(self):
        # Above the threshold the uniform-grid index takes over; distances
        # must be identical to the brute-force sort.
        rng = np.random.default_rng(13)
        n = GRID_BACKEND_THRESHOLD + 44
        targets = PointSet(rng.uniform(0, 200, (n, 2)))
        for _ in range(50):
            q = rng.uniform(-20, 220, 2)
            np.testing.assert_array_equal(
                knn_of(q, targets, 5), brute_knn(q, targets, 5))

    def test_grid_backend_identical_points(self):
        targets = PointSet([(5.0, 5.0)] * (GRID_BACKEND_THRESHOLD + 1))
        d = knn_of(Point(5, 5), targets, k=3)
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
                knn_of(q, targets, 5), brute_knn(q, targets, 5))
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
        # The library scopes the overflows it expects, so any warning is an
        # error, the dense reference included.
        rng = np.random.default_rng(17)
        targets = rng.uniform(0, 1000, (GRID_BACKEND_THRESHOLD + 44, 2))
        targets[:2] = [(-1e308, 5.0), (1e308, -3.0)]
        queries = np.vstack([rng.uniform(-50, 1050, (40, 2)), targets[:2],
                             [(0.0, 1e308), (-1.7e308, 0.0)]])
        radii = rng.choice([0.0, 3.0, 50.0, 1e308], len(queries))
        radii[40:] = 1e308
        queries, targets = PointSet.from_coords(queries), PointSet.from_coords(targets)
        # k = 1 keeps every adaptive radius finite.
        self.assert_grid_equals_full_scan(queries, targets, radii, 1)
        full = np.sort(pairwise_distances(queries, targets), axis=1)
        for i, q in enumerate(queries.coords):
            assert knn_of(q, targets, 5).tobytes() == full[i, :5].tobytes()

    @staticmethod
    def assert_grid_equals_full_scan(queries, targets, radii, k):
        full = pairwise_distances(queries, targets)
        nearest = np.sort(full, axis=1)[:, :min(k, len(targets))]
        assert_pairs_within_equals_dense(queries, targets, radii)
        got = all_radii(queries, targets, k=k, floor=1e-3).radii
        assert got.tobytes() == np.maximum(nearest.mean(axis=1), 1e-3).tobytes()
        for i in (0, len(queries) - 1):
            assert knn_of(queries.coords[i], targets, k).tobytes() == nearest[i].tobytes()


class TestFusedPass:
    """``_knn`` with a floor: the radii and the in-radius edges come from
    the k-NN pass itself, bit-equal to ``all_radii`` then ``pairs_within``."""

    @staticmethod
    def assert_fused_equals_two_passes(queries, targets, k, floor):
        nearest, radii, edges = _knn(queries.coords, targets, k, floor)
        want = all_radii(queries, targets, k, floor).radii
        assert radii.dtype == want.dtype and radii.tobytes() == want.tobytes()
        assert nearest.tobytes() == _knn(queries.coords, targets, k)[0].tobytes()
        for got, expected in zip(edges, pairs_within(queries, targets, want)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(neighbour_cases(), st.sampled_from([1e-3, 0.5, 3.0, 50.0]))
    def test_adversarial_layouts(self, case, floor):
        queries, targets, _, k = case
        self.assert_fused_equals_two_passes(queries, targets, k, floor)

    @pytest.mark.parametrize("m", [GRID_BACKEND_THRESHOLD - 1, GRID_BACKEND_THRESHOLD])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("step", [0.0, 1.0])   # 1.0: integer points, tied distances
    def test_both_backends(self, m, k, step):
        rng = np.random.default_rng(60 + m + k)
        gt = rng.uniform(0, 200, (m, 2))
        pred = np.vstack([gt + rng.normal(0, 1.0, gt.shape), rng.uniform(-20, 220, (30, 2))])
        if step:
            gt, pred = np.round(gt / step) * step, np.round(pred / step) * step
        for floor in (1e-3, 2.0, 25.0):
            self.assert_fused_equals_two_passes(PointSet(pred), PointSet(gt), k, floor)

    @pytest.mark.parametrize("n, m", [(40, 60), (1500, GRID_BACKEND_THRESHOLD - 1)])
    def test_scan_edges_in_one_or_several_blocks(self, n, m):
        # The scan's edges leave _edge_list unsorted, in the row-major order
        # of its blocks: one block at 40 x 60, several at 1500 x 255.
        assert (n * m > geometry._SCAN_BLOCK_CELLS) == (n > 40)
        rng = np.random.default_rng(63)
        gt = rng.uniform(0, 300, (m, 2))
        pred = np.vstack([gt[:n] + rng.normal(0, 2.0, (min(n, m), 2)),
                          rng.uniform(-20, 320, (max(n - m, 0), 2))])
        for k, floor in ((1, 1e-3), (3, 5.0), (5, 40.0)):
            self.assert_fused_equals_two_passes(PointSet(pred), PointSet(gt), k, floor)

    @pytest.mark.parametrize("m", [GRID_BACKEND_THRESHOLD - 1, GRID_BACKEND_THRESHOLD])
    def test_coincident_clusters_whose_floor_exceeds_the_disc(self, m, monkeypatch):
        # Four stacks of coincident targets on a 2 px square: on the grid
        # the cells are 1/8 px, so a query on a stack would complete with
        # a 1/4 px disc, were the disc not started at the floor.
        corners = np.array([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)])
        gt = PointSet(corners[np.arange(m) % 4])
        pred = PointSet(np.vstack([corners, corners + 0.1, [(1.0, 1.0), (40.0, -3.0)]]))
        fallback = []

        def spy(queries, targets, radii):
            fallback.append(len(queries))
            return pairs_within(queries, targets, radii)

        monkeypatch.setattr(geometry, "pairs_within", spy)
        for k in (1, 3, 5):
            for floor in (1e-3, 0.5, 3.0):
                self.assert_fused_equals_two_passes(pred, gt, k, floor)
        assert fallback == []   # the block or disc that sets a radius holds it

    @pytest.mark.parametrize("m", [GRID_BACKEND_THRESHOLD - 1, GRID_BACKEND_THRESHOLD])
    def test_mean_rounded_above_a_disc_at_the_floor(self, m):
        # Three targets at distance x, whose mean rounds one ulp above x,
        # and a fourth one ulp beyond x. With the floor at x, the grid's
        # first disc is x and holds the three nearest, but the radius
        # reaches the fourth target.
        x = 1.9127555772777218
        assert np.full(3, x).mean() > x
        rng = np.random.default_rng(62)
        angle, dist = rng.uniform(0, 2 * np.pi, m - 4), rng.uniform(3, 4, m - 4)
        gt = np.vstack([[(x, 0.0), (-x, 0.0), (0.0, x), (0.0, -np.nextafter(x, np.inf))],
                        np.c_[dist * np.cos(angle), dist * np.sin(angle)]])
        pred, targets = PointSet([(0.0, 0.0)]), PointSet(gt)
        self.assert_fused_equals_two_passes(pred, targets, 3, x)
        assert _knn(pred.coords, targets, 3, x)[2][1].tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("m", [GRID_BACKEND_THRESHOLD - 1, GRID_BACKEND_THRESHOLD])
    def test_far_outliers_near_float_max(self, m):
        rng = np.random.default_rng(61)
        gt = rng.uniform(-5, 5, (m, 2))
        gt[:2] = [(-1e308, 3.0), (0.0, 1.7e308)]
        pred = np.vstack([rng.uniform(-6, 6, (20, 2)), [(0.0, 1e308), (-1.7e308, 0.0),
                                                        (1e308, -1e308)]])
        for k in (1, 3, 5):
            self.assert_fused_equals_two_passes(PointSet(pred), PointSet(gt), k, 1e-3)

    @pytest.mark.parametrize("m", [5, GRID_BACKEND_THRESHOLD])
    def test_empty_sides(self, m):
        gt = PointSet(np.random.default_rng(62).uniform(0, 50, (m, 2)))
        self.assert_fused_equals_two_passes(PointSet([]), gt, 5, 1e-3)
        for floor in (None, 1e-3):
            with pytest.raises(ValueError, match="target set is empty"):
                _knn(gt.coords, PointSet([]), 5, floor)


def synth_pair(profile, n, seed):
    """A synth scene of n targets on 900 x 900 px, and predictions: 5 %
    dropped, 1 px jitter, about 6 % spurious points over the canvas."""
    gt = sample_points(SceneConfig(width=900, height=900, n_points=n,
                                   profile=DensityProfile(profile), spacing_dense=6.0,
                                   spacing_sparse=20.0, jitter=1.0, seed=seed))
    pred = perturb_points(gt, drop_rate=0.05, spurious_rate=0.06, noise_sigma=1.0,
                          seed=seed + 1, bounds=(900, 900))
    return pred, gt


def assert_pairs_within_equals_dense(queries, targets, radii):
    """``pairs_within`` against the dense distance matrix's mask."""
    full = pairwise_distances(queries, targets)
    qi, ti, d = pairs_within(queries, targets, radii)
    want_i, want_j = np.nonzero(full <= radii[:, None])
    np.testing.assert_array_equal(qi, want_i)
    np.testing.assert_array_equal(ti, want_j)
    assert d.tobytes() == full[want_i, want_j].tobytes()


def assert_knn_equals_dense(queries, targets, k, floor):
    """``_knn`` against a sort of the dense distance matrix; given a
    floor, its radii and edges too."""
    full = pairwise_distances(PointSet.from_coords(queries), targets)
    want = np.sort(full, axis=1)[:, :min(k, len(targets))]
    nearest, radii, edges = _knn(queries, targets, k, floor)
    assert nearest.tobytes() == want.tobytes()
    if floor is None:
        assert radii is None and edges is None
        return
    qi, ti, d = edges
    assert radii.tobytes() == np.maximum(want.mean(axis=1), floor).tobytes()
    want_i, want_j = np.nonzero(full <= radii[:, None])
    np.testing.assert_array_equal(qi, want_i)
    np.testing.assert_array_equal(ti, want_j)
    assert d.tobytes() == full[want_i, want_j].tobytes()


class TestDensityAdaptivePass:
    """The grid k-NN pass starts each disc from the occupancy of the cells
    around the query and selects each row's k smallest in padded blocks."""

    @pytest.mark.parametrize("profile", ["uniform", "gradient", "two_cluster"])
    def test_about_k_distances_per_query(self, profile, monkeypatch):
        # A start disc of the bounding-box distance plus two cells gathered
        # about 20 k candidates per query on the two-cluster scene. Every
        # gathered pair is counted: the grid squares each one.
        pred, gt = synth_pair(profile, 2000, 5)
        assert len(gt) >= GRID_BACKEND_THRESHOLD
        computed = []
        real = geometry._squares

        def counted(dx, dy):
            computed.append(np.size(dx))
            return real(dx, dy)

        k = 5
        monkeypatch.setattr(geometry, "_squares", counted)
        nearest = _knn(pred.coords, gt, k, DEFAULT_RADIUS_FLOOR)[0]
        assert sum(computed) <= 10 * k * len(pred)
        monkeypatch.undo()
        want = np.sort(pairwise_distances(pred, gt), axis=1)[:, :k]
        assert nearest.tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [16, 64])
    @settings(max_examples=60, deadline=None)
    @given(case=neighbour_cases(), floor=st.sampled_from([1e-3, 0.5, 3.0, 50.0]))
    def test_fused_pass_in_small_blocks(self, budget, case, floor):
        # Selection blocks split and single rows overflow the budget.
        queries, targets, radii, k = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_SCAN_BLOCK_CELLS", budget)
            TestFusedPass.assert_fused_equals_two_passes(queries, targets, k, floor)
            TestGridEqualsFullScan.assert_grid_equals_full_scan(queries, targets, radii, k)

    @pytest.mark.parametrize("budget", [16, 64])
    def test_rows_longer_than_the_block_budget(self, budget, monkeypatch):
        rng = np.random.default_rng(71)
        gt = PointSet(np.vstack([np.full((200, 2), 40.0), rng.uniform(0, 80, (100, 2))]))
        queries = np.vstack([[(40.0, 40.0), (40.5, 39.0)], rng.uniform(-10, 90, (60, 2))])
        blocks = []
        real = geometry._row_smallest

        def spy(d, counts, kk):
            blocks.append((int(counts.max(initial=0)), int(np.maximum(counts, kk).sum())))
            return real(d, counts, kk)

        monkeypatch.setattr(geometry, "_SCAN_BLOCK_CELLS", budget)
        monkeypatch.setattr(geometry, "_row_smallest", spy)
        for k in (1, 5, 8):
            for floor in (1e-3, 6.0):
                assert_knn_equals_dense(queries, gt, k, floor)
        assert max(longest for longest, _ in blocks) > budget
        assert max(cells for _, cells in blocks) > 2 * budget

    def test_coincident_stack_doubles_from_a_tiny_start(self, monkeypatch):
        # Next to a stack of 240 coincident targets the occupancy around a
        # query is large, so its start disc is a fraction of a cell and has
        # to double several times; far queries start past the bounding box.
        rng = np.random.default_rng(70)
        gt = PointSet(np.vstack([np.full((240, 2), 50.0), rng.uniform(0, 100, (60, 2))]))
        queries = np.vstack([[(50.0, 50.0), (51.0, 50.5), (58.0, 56.0), (44.0, 61.0),
                              (1e4, 1e4), (-5e3, 50.0), (50.0, 2e5), (-1e6, -1e6)],
                             rng.uniform(-50, 150, (40, 2))])
        rounds = []
        real = geometry._UniformGrid.within

        def spy(grid, q, r):
            rounds.append(len(q))
            return real(grid, q, r)

        monkeypatch.setattr(geometry._UniformGrid, "within", spy)
        _knn(queries[2:4], gt, 5)
        assert len(rounds) >= 3
        rounds.clear()
        _knn(queries[4:8], gt, 5)
        assert len(rounds) <= 2
        for k in (1, 5, 8, 300):
            for floor in (1e-3, 0.5, 20.0):
                assert_knn_equals_dense(queries, gt, k, floor)


class TestPairsWithin:
    @pytest.mark.parametrize("m", [7, GRID_BACKEND_THRESHOLD - 1, GRID_BACKEND_THRESHOLD, 600])
    def test_equals_dense_mask_on_both_backends(self, m):
        # Range queries always ask the uniform grid; the sizes straddle
        # GRID_BACKEND_THRESHOLD, where only the k-NN pass changes path,
        # so every size here runs the grid. The name predates that.
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

    @pytest.mark.parametrize("n, m", [(0, 7), (0, GRID_BACKEND_THRESHOLD), (3, 0),
                                      (GRID_BACKEND_THRESHOLD, 0), (0, 0)])
    def test_empty_sides_give_typed_empty_arrays(self, n, m):
        # An empty side runs the general grid path, with no shortcut.
        rng = np.random.default_rng(44)
        queries, targets = (PointSet(rng.uniform(0, 50, (size, 2))) for size in (n, m))
        got = pairs_within(queries, targets, np.full(n, 60.0))
        assert [(a.dtype, a.shape) for a in got] == [
            (np.int64, (0,)), (np.int64, (0,)), (np.float64, (0,))]

    def test_grid_over_an_empty_cloud(self):
        grid = geometry._UniformGrid(np.empty((0, 2)))
        queries = np.array([(0.0, 0.0), (-3.0, 2.5), (1e300, -1e300), (1e300, 1e300)])
        # The last box reaches past the float range on both sides.
        radii = np.array([0.0, 5.0, 3e300, np.finfo(np.float64).max])
        chunks = list(grid.within(queries, radii))
        assert [(c.start, c.stop) for c, *_ in chunks] == [(0, 4)]
        assert all(a.size == 0 for _, *edges in chunks for a in edges)


#: Powers of two that carry the layouts below from squares that round
#: to 0 (2^-540: 1e-325), through subnormal squares of a few units and of
#: a few dozen bits (2^-536, 2^-520), to ordinary ones and to squares at
#: the top of the float range (2^510: 4e307; 2^512: about half of them
#: overflow). Elsewhere, scaling by a power of two moves no rounding.
_SCALES = [2.0 ** -540, 2.0 ** -536, 2.0 ** -520, 1.0, 2.0 ** 510, 2.0 ** 512]

#: A stack of _STACK_K coincident targets at this distance has a mean
#: distance five ulps above it.
_STACK_X, _STACK_K = 1.9598272398828156, 100


def near_ties(m):
    """Layouts of m targets whose squares do not order them as their
    distances do: ``(queries, targets, k)``.

    - *ring*: targets in random directions at distance about 1 from the
      origin, whose distances tie or differ by an ulp;
    - *stack*: _STACK_K coincident targets whose mean distance rounds
      up past them, one target at that mean, the rest farther away;
    - *subnormal*: at scale 2^-536, the squares of the first target
      round to 0 and those of the next two up to 1 unit each, though the
      second is the nearest (the case of
      :meth:`TestSquaredCandidates.test_underflowed_squares_keep_the_nearest`).
    """
    rng = np.random.default_rng(90 + m)
    angle = rng.uniform(0, 2 * np.pi, m)
    ring = np.c_[np.cos(angle), np.sin(angle)]
    ring_queries = np.array([(0.0, 0.0), (2.0 ** -10, -2.0 ** -11), tuple(ring[0])])
    mean = np.full(_STACK_K, _STACK_X).mean()
    assert mean > _STACK_X
    stack = np.vstack([np.full((_STACK_K, 2), (_STACK_X, 0.0)), [(mean, 0.0)],
                       ring[:m - _STACK_K - 1] * 3])
    subnormal = np.vstack([[(0.34, 0.34), (0.36, 0.0), (0.36, 0.36)], ring[3:] * 3])
    origin = np.zeros((1, 2))
    return [(ring_queries, ring, 1), (ring_queries, ring, 7), (origin, stack, _STACK_K),
            (origin, subnormal, 1), (origin, subnormal, 2)]


@st.composite
def scaled_clouds(draw):
    """Small clouds with duplicated and near-tied points, scaled by a
    power of two from 2^-545 (squares underflow) to 2^515 (squares
    overflow), and a floor: none, the smallest float, or a distance of
    the cloud."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.one_of(st.integers(1, 40),
                       st.integers(GRID_BACKEND_THRESHOLD, GRID_BACKEND_THRESHOLD + 40)))
    layout = draw(st.sampled_from(["ring", "lattice", "uniform"]))
    if layout == "ring":
        angle = rng.uniform(0, 2 * np.pi, m)
        targets = np.c_[np.cos(angle), np.sin(angle)] * rng.choice([1.0, 3.0], (m, 1))
    elif layout == "lattice":   # half-integers: exact ties
        targets = rng.integers(-8, 9, (m, 2)) / 2
    else:
        targets = rng.uniform(-8, 8, (m, 2))
    targets[rng.random(m) < 0.3] = targets[rng.integers(m)]
    nudged = rng.random((m, 2)) < 0.3
    targets[nudged] = np.nextafter(targets[nudged], rng.choice([-np.inf, np.inf], nudged.sum()))
    queries = np.vstack([[(0.0, 0.0)], targets[rng.integers(0, m, 2)],
                         rng.uniform(-9, 9, (draw(st.integers(0, 6)), 2))])
    # Most draws go to the two ends, where squares underflow or overflow.
    scale = 2.0 ** draw(st.one_of(st.integers(-545, -505), st.integers(-60, 60),
                                  st.integers(480, 515)))
    queries, targets = queries * scale, targets * scale
    full = pairwise_distances(PointSet.from_coords(queries), PointSet.from_coords(targets))
    floor = draw(st.sampled_from([None, "smallest", "pair"]))
    if floor == "smallest":
        floor = 5e-324
    elif floor == "pair":
        floor = max(float(full[0, rng.integers(m)]), 5e-324)
    k = draw(st.one_of(st.integers(1, 8), st.just(m), st.just(m + 3)))
    return queries, targets, full, k, floor


class TestSquaredCandidates:
    """Both queries pick candidates on squared distances within
    ``geometry._square_bound`` and compute ``hypot`` only for them. Each
    layout here is checked at every scale in _SCALES against the dense
    distance matrix, bit for bit: near ties catch a bound without its
    relative margin, underflowed squares one without its absolute term."""

    def test_underflowed_squares_keep_the_nearest(self):
        # Both squares of the first target round to 0, the one of the
        # second to the smallest subnormal, yet the second is nearer.
        query = np.zeros((1, 2))
        pinned = np.array([(1.5e-162, 1.5e-162), (1.6e-162, 0.0)])
        far = np.c_[np.linspace(1e-161, 2e-161, GRID_BACKEND_THRESHOLD), np.full(GRID_BACKEND_THRESHOLD, 1e-161)]
        for targets in (pinned, np.vstack([pinned, far])):
            targets = PointSet.from_coords(targets)
            for floor in (None, 5e-324):
                assert _knn(query, targets, 1, floor)[0].tolist() == [[1.6e-162]]
                assert_knn_equals_dense(query, targets, 1, floor)

    def test_knn_scan(self):
        for scale in _SCALES:
            for queries, targets, k in near_ties(GRID_BACKEND_THRESHOLD - 1):
                for floor in (None, 5e-324):
                    assert_knn_equals_dense(queries * scale,
                                            PointSet.from_coords(targets * scale), k, floor)

    def test_knn_grid(self):
        # A floor equal to a pair's distance starts the grid's disc there.
        for scale in _SCALES:
            for queries, targets, k in near_ties(GRID_BACKEND_THRESHOLD + 44):
                queries, targets = queries * scale, PointSet.from_coords(targets * scale)
                full = pairwise_distances(PointSet.from_coords(queries), targets)
                for floor in (None, 5e-324, *np.unique(full[0])[:12]):
                    assert_knn_equals_dense(queries, targets, k, floor)

    def test_pairs_within(self):
        # Each query asks once per target, with that target's distance
        # as its radius, so every pair lies on a disc's edge.
        for scale in _SCALES:
            for queries, targets, _ in near_ties(GRID_BACKEND_THRESHOLD + 44):
                queries = np.repeat(queries * scale, len(targets), axis=0)
                queries, targets = PointSet.from_coords(queries), PointSet.from_coords(targets * scale)
                full = pairwise_distances(queries, targets)
                radii = full[np.arange(len(queries)), np.arange(len(queries)) % len(targets)]
                assert_pairs_within_equals_dense(queries, targets, radii)

    @given(scaled_clouds())
    @settings(deadline=None)
    def test_scaled_clouds_equal_dense(self, case):
        # Run with --hypothesis-profile=ci for the CI example count.
        queries, targets, full, k, floor = case
        targets = PointSet.from_coords(targets)
        assert_knn_equals_dense(queries, targets, k, floor)
        # Each query's radius is its distance to one target, and the first
        # query asks again once per target: those pairs lie on the edge.
        n, m = full.shape
        radii = np.concatenate([full[np.arange(n), np.arange(n) % m], full[0]])
        queries = np.vstack([queries, np.repeat(queries[:1], m, axis=0)])
        assert_pairs_within_equals_dense(PointSet.from_coords(queries), targets, radii)


class TestAdaptiveRadius:
    def test_mean_of_distances(self):
        # Distances 1, 2, 3 -> mean 2.
        gt = PointSet([(1, 0), (2, 0), (3, 0)])
        assert radius_of(Point(0, 0), gt, k=3, floor=1e-3) == 2.0

    def test_floor_engages_at_zero_distance(self):
        gt = PointSet([(4, 4)])
        assert radius_of(Point(4, 4), gt, k=1, floor=1e-3) == 1e-3

    def test_random_cloud_against_oracle(self):
        rng = np.random.default_rng(3)
        gt = PointSet(rng.uniform(0, 10, (50, 2)))
        p = Point(5, 5)
        expected = brute_knn((5, 5), gt, 5).mean()
        assert radius_of(p, gt, k=5, floor=1e-9) == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        gt = PointSet(rng.uniform(0, 10, (30, 2)))
        p = Point(2, 7)
        radii = [radius_of(p, gt, k=k, floor=1e-9) for k in range(1, 31)]
        assert all(a <= b + 1e-15 for a, b in zip(radii, radii[1:]))

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            radius_of(Point(0, 0), PointSet([(1, 1)]), k=1, floor=0.0)


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
        singles = [radius_of(p, gt, k=4, floor=1e-3) for p in pred]
        np.testing.assert_allclose(prof.radii, singles, atol=1e-15)

    def test_scan_in_several_blocks_matches_per_point_calls(self):
        # 1000 x 200 pairs: the full scan runs in several row blocks.
        rng = np.random.default_rng(18)
        gt = PointSet(rng.uniform(0, 30, (200, 2)))
        pred = PointSet(rng.uniform(-5, 35, (1000, 2)))
        prof = all_radii(pred, gt, k=3, floor=1e-3)
        singles = [radius_of(p, gt, k=3, floor=1e-3) for p in pred]
        np.testing.assert_allclose(prof.radii, singles, atol=1e-15)

    def test_grid_path_agrees_with_scan_path(self):
        rng = np.random.default_rng(19)
        gt_big = PointSet(rng.uniform(0, 100, (300, 2)))   # grid backend
        pred = PointSet(rng.uniform(0, 100, (25, 2)))
        prof = all_radii(pred, gt_big, k=5, floor=1e-9)
        expected = [brute_knn(p, gt_big, 5).mean() for p in pred.coords]
        np.testing.assert_allclose(prof.radii, expected, atol=1e-15)

    @pytest.mark.parametrize("m", [20, GRID_BACKEND_THRESHOLD + 20])
    def test_mean_of_distances_near_float_max(self, m):
        # Five finite distances of 1e308 sum past the float range; their
        # mean does not. Rows whose sum is finite keep their radius bit
        # for bit.
        rng = np.random.default_rng(20)
        gt = PointSet(rng.uniform(-5, 5, (m, 2)))
        near = [(1.0, 2.0), (-3.0, 0.5)]
        prof = all_radii(PointSet([(0.0, 1e308)] + near), gt, k=5)
        assert prof.radii[0] == pytest.approx(1e308, rel=1e-15)
        assert radius_of((0.0, 1e308), gt, k=5) == prof.radii[0]
        assert prof.radii[1:].tobytes() == all_radii(PointSet(near), gt, k=5).radii.tobytes()
        assert radius_of(near[0], gt, k=5) == prof.radii[1]

    @pytest.mark.parametrize("m", [2, GRID_BACKEND_THRESHOLD + 20])
    def test_distance_beyond_float_range_names_the_cause(self, m):
        # (-1e308, 0) to (1e308, y) is 2e308: the distance itself
        # overflows, which no mean can repair.
        gt = PointSet([(1e308, float(y)) for y in range(m)])
        with pytest.raises(ValueError, match="span more than the float range"):
            all_radii(PointSet([(-1e308, 0.0)]), gt, k=1)
        with pytest.raises(ValueError, match="span more than the float range"):
            radius_of((-1e308, 0.0), gt, k=1)


class TestGeometryProperties:
    def test_translation_invariance(self):
        rng = np.random.default_rng(23)
        gt = rng.uniform(0, 10, (20, 2))
        p = np.array([4.0, 6.0])
        shift = np.array([123.456, -987.654])
        base = knn_of(p, PointSet(gt), 6)
        moved = knn_of(p + shift, PointSet(gt + shift), 6)
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

    def test_pairwise_distances_beyond_float_range(self):
        # Differences and hypot past 1.8e308 are inf, without a warning.
        a = PointSet([(-1e308, 0.0), (0.0, 0.0)])
        b = PointSet([(1e308, 0.0), (1.5e308, 1.5e308), (3.0, 4.0)])
        d = pairwise_distances(a, b)
        assert d.tolist() == [[np.inf, np.inf, 1e308], [1e308, np.inf, 5.0]]
