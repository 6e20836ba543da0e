import dataclasses
import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, min_weight_full_bipartite_matching

from countmatch import matching
from countmatch.assignment import hungarian_solve
from countmatch.geometry import (
    GRID_BACKEND_THRESHOLD,
    PointSet,
    RadiusProfile,
    all_radii,
    pairs_within,
)
from countmatch.densitymap import render_density
from countmatch.matching import (
    MatchConfig,
    MatchResult,
    SigmaMode,
    brute_force_match,
    build_weight_matrix,
    fixed_radius_match,
    gaussian_weight,
    match_points,
    match_with_radii,
)


def random_instance(rng, max_side=8, extent=20.0):
    n = int(rng.integers(1, max_side + 1))
    m = int(rng.integers(1, max_side + 1))
    pred = PointSet(rng.uniform(0, extent, (n, 2)))
    gt = PointSet(rng.uniform(0, extent, (m, 2)))
    return pred, gt


def scipy_sparse_optimum(pi, gj, w, n, m):
    """Largest total weight of a matching of the edge graph (edge e joins
    prediction pi[e] and gt gj[e]), by scipy's LAPJVsp.

    Each prediction also gets a private column, so it may stay unmatched.
    scipy needs non-zero costs: an edge costs -1 - w[e] and a private
    column -1, the same differences as -w[e] against 0.
    """
    rows = np.concatenate([pi, np.arange(n)])
    cols = np.concatenate([gj, m + np.arange(n)])
    cost = np.concatenate([-1.0 - w, np.full(n, -1.0)])
    r, c = min_weight_full_bipartite_matching(csr_matrix((cost, (rows, cols)), shape=(n, m + n)))
    weight = dict(zip(zip(pi.tolist(), gj.tolist()), w.tolist()))
    return math.fsum(weight[a, b] for a, b in zip(r.tolist(), c.tolist()) if b < m)


def dense_private_column_pairs(wm):
    """Pairs of the dense private-column problem that the sparse solve reads
    as an edge list: -w on the edges, 0 on each row's own private column
    m + n - 1 - i, 1.0 elsewhere. Under the one tie rule the dense and the
    sparse solve return the same pairs, ties included."""
    n, m = wm.values.shape
    cost = np.ones((n, m + n))
    cost[:, :m][wm.in_radius] = -wm.values[wm.in_radius]
    cost[np.arange(n), m + n - 1 - np.arange(n)] = 0.0
    return [(i, j) for i, j in hungarian_solve(cost).pairs if j < m]


def check_result_invariants(result, n_pred, n_gt):
    assert result.n_pred == n_pred
    assert result.n_gt == n_gt
    pred_idx = [p.pred_index for p in result.pairs]
    gt_idx = [p.gt_index for p in result.pairs]
    assert len(set(pred_idx)) == len(pred_idx)
    assert len(set(gt_idx)) == len(gt_idx)
    assert set(pred_idx).isdisjoint(result.unmatched_pred)
    assert set(gt_idx).isdisjoint(result.unmatched_gt)
    assert len(result.pairs) + len(result.unmatched_pred) == n_pred
    assert len(result.pairs) + len(result.unmatched_gt) == n_gt
    for p in result.pairs:
        assert 0.0 < p.weight <= 1.0
    assert result.total_weight == pytest.approx(
        math.fsum(p.weight for p in result.pairs), abs=1e-9)


class TestGaussianWeight:
    def test_zero_distance(self):
        assert gaussian_weight(0.0, 3.0) == 1.0

    def test_at_one_sigma(self):
        assert gaussian_weight(2.0, 2.0) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_half_width(self):
        sigma = 1.7
        d = sigma * math.sqrt(2.0 * math.log(2.0))
        assert gaussian_weight(d, sigma) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError, match="invalid sigma"):
            gaussian_weight(1.0, 0.0)
        with pytest.raises(ValueError, match="invalid sigma"):
            gaussian_weight(1.0, -2.0)

    @pytest.mark.parametrize("d, sigma", [(1e308, 5e307), (1.3e154, 1e154), (0.0, 1e200),
                                          (1e-200, 1e-200), (3e-170, 2e-170),
                                          (0.5, 1e-170), (1.0, 5e-324)])
    def test_squares_beyond_float_range(self, d, sigma):
        # d^2 or 2 sigma^2 overflows or underflows; the weight is still
        # exp(-(d / sigma)^2 / 2). In the last two, 2 sigma^2 underflows to
        # 0 while d^2 does not, and Python's (d / sigma) ** 2 would
        # overflow: the weight is 0.
        ratio = d / sigma
        expected = math.exp(-0.5 * ratio ** 2) if ratio < 1e150 else 0.0
        assert gaussian_weight(d, sigma) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, sys.float_info.max),
                              st.floats(5e-324, 1e308)), min_size=1, max_size=8),
           st.floats(5e-324, sys.float_info.max), st.sampled_from(SigmaMode))
    @example([(0.0, 1e-3), (1.0, 1e-3)], 5e-324, SigmaMode.RADIUS_SCALED)   # sigma rounds to 0
    def test_weight_rule_never_warns(self, pairs, sigma_value, mode):
        # Any finite distance, radius and width: no warning (an error under
        # the test settings), and every weight in [0, 1]. Where d^2 and
        # 2 sigma^2 are both normal floats, the weight is exp(-d^2 / (2
        # sigma^2)) to the bit.
        d, rad = (np.array(c) for c in zip(*pairs))
        cfg = MatchConfig(sigma_mode=mode, sigma_value=sigma_value)
        w = matching._gaussian(d, rad, cfg)
        assert w.shape == d.shape and np.all((w >= 0.0) & (w <= 1.0))
        with np.errstate(over="ignore", under="ignore"):
            sigma = np.full_like(d, sigma_value) if mode is SigmaMode.FIXED else sigma_value * rad
            num, den = d * d, 2.0 * sigma * sigma
        normal = np.isfinite(num) & np.isfinite(den) & (den >= np.finfo(np.float64).tiny)
        with np.errstate(over="ignore", under="ignore"):
            assert np.array_equal(w[normal], np.exp(-num[normal] / den[normal]))


class TestWeightMatrix:
    def test_identical_sets_have_unit_diagonal_maxima(self):
        rng = np.random.default_rng(1)
        pts = PointSet(rng.uniform(0, 10, (6, 2)))
        radii = all_radii(pts, pts, k=3, floor=1e-3)
        wm = build_weight_matrix(pts, pts, radii, MatchConfig())
        assert np.allclose(np.diag(wm.values), 1.0)
        assert (wm.values.argmax(axis=1) == np.arange(6)).all()

    def test_forbid_leaves_no_admissible_pair(self):
        pred = PointSet([(0, 0)])
        gt = PointSet([(3, 0)])
        radii = RadiusProfile(np.array([2.0]), k=1)
        wm = build_weight_matrix(pred, gt, radii, MatchConfig())
        assert not wm.in_radius.any()
        assert wm.values[0, 0] == 0.0

    def test_entries_match_direct_formula(self):
        rng = np.random.default_rng(2)
        pred = PointSet(rng.uniform(0, 15, (6, 2)))
        gt = PointSet(rng.uniform(0, 15, (6, 2)))
        cfg = MatchConfig(sigma_mode=SigmaMode.FIXED, sigma_value=2.5)
        radii = all_radii(pred, gt, cfg.k, cfg.radius_floor)
        wm = build_weight_matrix(pred, gt, radii, cfg)
        for i in range(6):
            for j in range(6):
                d = math.hypot(*(pred.coords[i] - gt.coords[j]))
                if d <= radii.radii[i]:
                    assert wm.in_radius[i, j]
                    assert wm.values[i, j] == pytest.approx(
                        math.exp(-d * d / (2 * 2.5 ** 2)), rel=1e-12)
                else:
                    assert not wm.in_radius[i, j]

    def test_in_radius_weights_bounded(self):
        rng = np.random.default_rng(3)
        pred = PointSet(rng.uniform(0, 9, (8, 2)))
        gt = PointSet(rng.uniform(0, 9, (5, 2)))
        radii = all_radii(pred, gt, 5, 1e-3)
        wm = build_weight_matrix(pred, gt, radii, MatchConfig())
        assert (wm.values[wm.in_radius] > 0).all()
        assert (wm.values[wm.in_radius] <= 1).all()

    def test_misaligned_radii_rejected(self):
        pred = PointSet([(0, 0), (1, 1)])
        gt = PointSet([(0, 0)])
        with pytest.raises(ValueError, match="radius profile"):
            build_weight_matrix(pred, gt, RadiusProfile(np.array([1.0]), 1), MatchConfig())


class TestMatchPoints:
    def test_identity_match(self):
        rng = np.random.default_rng(5)
        pts = PointSet(rng.uniform(0, 50, (10, 2)))
        result = match_points(pts, pts)
        check_result_invariants(result, 10, 10)
        assert len(result.pairs) == 10
        assert all(p.distance == 0.0 for p in result.pairs)
        assert result.total_weight == pytest.approx(10.0, abs=1e-12)

    def test_empty_sides(self):
        gt = PointSet([(0, 0), (1, 1), (2, 2), (3, 3)])
        result = match_points(PointSet([]), gt)
        assert result.pairs == ()
        assert result.unmatched_gt == (0, 1, 2, 3)
        result = match_points(gt, PointSet([]))
        assert result.unmatched_pred == (0, 1, 2, 3)

    def test_oracle_equivalence_200_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            pred, gt = random_instance(rng)
            a = match_points(pred, gt)
            b = brute_force_match(pred, gt)
            assert a.total_weight == pytest.approx(b.total_weight, abs=1e-9)
            check_result_invariants(a, len(pred), len(gt))
            check_result_invariants(b, len(pred), len(gt))

    def test_radius_respect_under_forbid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pred, gt = random_instance(rng, max_side=12, extent=12.0)
            radii = all_radii(pred, gt, 5, 1e-3)
            result = match_points(pred, gt)
            for p in result.pairs:
                assert p.distance <= radii.radii[p.pred_index] + 1e-12

    def test_weight_one_iff_zero_distance(self):
        pred = PointSet([(0, 0), (5, 5)])
        gt = PointSet([(0, 0), (5, 5.5)])
        result = match_points(pred, gt)
        by_pred = {p.pred_index: p for p in result.pairs}
        assert by_pred[0].weight == 1.0 and by_pred[0].distance == 0.0
        assert by_pred[1].weight < 1.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        pred = PointSet(rng.uniform(0, 20, (7, 2)))
        gt_coords = rng.uniform(0, 20, (9, 2))
        perm = rng.permutation(9)
        base = match_points(pred, PointSet(gt_coords))
        shuffled = match_points(pred, PointSet(gt_coords[perm]))
        assert shuffled.total_weight == pytest.approx(base.total_weight, abs=1e-9)
        assert sorted(round(p.distance, 9) for p in shuffled.pairs) == \
            sorted(round(p.distance, 9) for p in base.pairs)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pred, gt = random_instance(rng, max_side=20)
        assert match_points(pred, gt) == match_points(pred, gt)

    def test_density_adaptivity_two_cluster(self):
        # A spurious prediction 3 px outside a unit-spacing cluster cannot
        # match (all nearby cells are claimed and its radius is local),
        # while a prediction 3 px from a free isolated cell can.
        dense = [(10 + i, 10 + j) for i in range(5) for j in range(5)]
        isolated = [(60 + 20 * i, 10 + 20 * j) for i in range(3) for j in range(3)]
        gt = PointSet(dense + isolated)
        pred_pts = dense + isolated[:-1]   # the last isolated cell has no prediction
        spurious_near_dense = (7.0, 12.0)
        near_isolated = (97.0, 50.0)       # 3 px from the free cell at (100, 50)
        pred = PointSet(pred_pts + [spurious_near_dense, near_isolated])
        result = match_points(pred, gt)
        spur_idx = len(pred_pts)
        near_idx = len(pred_pts) + 1
        assert spur_idx in result.unmatched_pred
        matched = {p.pred_index: p.gt_index for p in result.pairs}
        assert matched[near_idx] == len(dense) + 8

    def test_overflowed_distance_outside_every_knn_set_is_no_edge(self):
        # gt (1.7e308, 1.7e308) is nobody's nearest neighbour, so the radii
        # are finite, but its distance from (0, 0) overflows to inf.
        pred = PointSet([(0.0, 0.0), (1.0, 1.0)])
        gt = PointSet([(0.0, 0.0), (2.0, 2.0), (1.7e308, 1.7e308)])
        result = match_points(pred, gt, MatchConfig(k=1))
        assert [(p.pred_index, p.gt_index) for p in result.pairs] == [(0, 0), (1, 1)]

    def test_fixed_radius_baseline(self):
        pred = PointSet([(0, 0), (10, 0)])
        gt = PointSet([(1, 0), (14, 0)])
        near = fixed_radius_match(pred, gt, radius=2.0)
        assert len(near.pairs) == 1 and near.pairs[0].pred_index == 0
        far = fixed_radius_match(pred, gt, radius=5.0)
        assert len(far.pairs) == 2
        with pytest.raises(ValueError):
            fixed_radius_match(pred, gt, radius=0.0)


class TestBruteForce:
    def test_single_pair(self):
        result = brute_force_match(PointSet([(0, 0)]), PointSet([(0.5, 0)]))
        assert len(result.pairs) == 1

    def test_symmetric_cross_deterministic(self):
        # Two predictions equidistant from both ground truths: ties resolve
        # lexicographically and the total equals either pairing's sum.
        pred = PointSet([(0, 1), (0, -1)])
        gt = PointSet([(1, 0), (-1, 0)])
        result = brute_force_match(pred, gt)
        again = brute_force_match(pred, gt)
        assert result == again
        assert result.pairs[0].pred_index == 0
        d = math.sqrt(2.0)
        radii = all_radii(pred, gt, 5, 1e-3)
        sigma = 0.5 * radii.radii[0]
        expected = 2.0 * math.exp(-d * d / (2 * sigma * sigma))
        assert result.total_weight == pytest.approx(expected, abs=1e-12)

    def test_total_never_below_solver(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            pred, gt = random_instance(rng)
            a = match_points(pred, gt)
            b = brute_force_match(pred, gt)
            assert b.total_weight >= a.total_weight - 1e-9

    def test_size_guard(self):
        rng = np.random.default_rng(11)
        pred = PointSet(rng.uniform(0, 9, (11, 2)))
        gt = PointSet(rng.uniform(0, 9, (11, 2)))
        with pytest.raises(ValueError, match="oracle instance too large"):
            brute_force_match(pred, gt)

    def test_size_guard_counts_mappings(self):
        # Only 5 predictions, but 60 * 59 * 58 * 57 * 56 injective mappings.
        pred = PointSet([(float(i), 0.0) for i in range(5)])
        gt = PointSet([(float(j), 1.0) for j in range(60)])
        started = time.perf_counter()
        for a, b in ((pred, gt), (gt, pred)):
            with pytest.raises(ValueError, match="oracle instance too large"):
                brute_force_match(a, b)
        assert time.perf_counter() - started < 0.1

    def test_rectangular_orientations(self):
        rng = np.random.default_rng(12)
        for shape in [(2, 6), (6, 2)]:
            pred = PointSet(rng.uniform(0, 8, (shape[0], 2)))
            gt = PointSet(rng.uniform(0, 8, (shape[1], 2)))
            a = match_points(pred, gt)
            b = brute_force_match(pred, gt)
            assert a.total_weight == pytest.approx(b.total_weight, abs=1e-9)


class TestMatchConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="invalid k"):
            MatchConfig(k=0)
        # geometry's one integer rule for k: no bool, no float.
        for k in (True, 5.0):
            with pytest.raises(ValueError, match="invalid k"):
                MatchConfig(k=k)
        with pytest.raises(ValueError, match="invalid sigma"):
            MatchConfig(sigma_value=-1.0)
        with pytest.raises(ValueError):
            MatchConfig(radius_floor=0.0)

    def test_four_settable_fields(self):
        assert [f.name for f in dataclasses.fields(MatchConfig)] == [
            "k", "sigma_mode", "sigma_value", "radius_floor"]
        with pytest.raises(TypeError):
            MatchConfig(out_of_radius="forbid")

    def test_fixed_sigma_mode(self):
        pred = PointSet([(0, 0)])
        gt = PointSet([(1, 0)])
        cfg = MatchConfig(sigma_mode=SigmaMode.FIXED, sigma_value=1.0, k=1)
        radii = RadiusProfile(np.array([5.0]), k=1)
        result = match_with_radii(pred, gt, radii, cfg)
        assert result.pairs[0].weight == pytest.approx(math.exp(-0.5), abs=1e-12)


class TestUnderflowedWeights:
    # exp(-40^2 / 2) underflows to 0.0 although the pair is within radius.
    PRED = PointSet([(0, 0)])
    GT = PointSet([(40, 0)])
    RADII = RadiusProfile(np.array([50.0]), k=1)

    def test_zero_weight_pair_is_not_an_edge(self):
        cfg = MatchConfig(sigma_mode=SigmaMode.FIXED, sigma_value=1.0)
        wm = build_weight_matrix(self.PRED, self.GT, self.RADII, cfg)
        assert not wm.in_radius.any()
        for result in (match_with_radii(self.PRED, self.GT, self.RADII, cfg),
                       brute_force_match(self.PRED, self.GT, cfg, radii=self.RADII)):
            assert result.pairs == ()
            assert result.unmatched_pred == (0,) and result.unmatched_gt == (0,)
            assert result.total_weight == 0.0

    def test_positive_neighbor_still_matches(self):
        pred = PointSet([(0, 0), (40, 1)])
        cfg = MatchConfig(sigma_mode=SigmaMode.FIXED, sigma_value=1.0)
        radii = RadiusProfile(np.array([50.0, 50.0]), k=1)
        result = match_with_radii(pred, self.GT, radii, cfg)
        check_result_invariants(result, 2, 1)
        assert [(p.pred_index, p.gt_index) for p in result.pairs] == [(1, 0)]


class TestWidthBeyondFloatRange:
    def test_overflowing_width_weighs_every_edge_one(self):
        # sigma_value * radius overflows to inf: every edge weighs 1. Under
        # the 1e308 floor every pair is an edge, so every gt is matched.
        rng = np.random.default_rng(72)
        pred = PointSet(rng.uniform(0, 10, (12, 2)))
        gt = PointSet(rng.uniform(0, 10, (9, 2)))
        for cfg, matched in ((MatchConfig(sigma_value=1e308), 6),
                             (MatchConfig(sigma_value=1e300, radius_floor=1e308), 9)):
            result = match_points(pred, gt, cfg)
            check_result_invariants(result, 12, 9)
            assert [p.weight for p in result.pairs] == [1.0] * matched

    def test_underflowing_width_square(self):
        # 2 sigma^2 underflows to 0 while d^2 does not: the weight is 0, so
        # the pair is no edge.
        result = match_points(PointSet([(0, 0)]), PointSet([(0.5, 0)]),
                              MatchConfig(sigma_value=1e-300))
        assert result.pairs == () and result.unmatched_pred == (0,)

    def test_coincident_pair_where_the_width_underflows_to_zero(self):
        # sigma = 5e-324 * the floor 1e-3 rounds to 0; distance 0 still
        # weighs 1.
        pt = PointSet([(3.0, 4.0)])
        result = match_points(pt, pt, MatchConfig(k=1, sigma_value=5e-324))
        assert [(p.pred_index, p.gt_index, p.weight) for p in result.pairs] == [(0, 0, 1.0)]


class TestSparsePath:
    def test_forbid_never_builds_the_dense_matrix(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense weight matrix built by the matcher")

        monkeypatch.setattr(matching, "build_weight_matrix", dense)
        monkeypatch.setattr(matching, "pairwise_distances", dense)
        rng = np.random.default_rng(15)
        for m in (40, GRID_BACKEND_THRESHOLD + 50):
            gt = PointSet(rng.uniform(0, 200, (m, 2)))
            pred = PointSet(rng.uniform(0, 200, (m + 5, 2)))
            check_result_invariants(match_points(pred, gt), m + 5, m)

    @pytest.mark.parametrize("n, m", [(40000, 200), (3000, 3000)])
    def test_memory_follows_the_edges_not_n_times_m(self, n, m):
        # Radii and edges both come from match_points: a full scan of the
        # 200 targets (below the grid threshold) and grid queries on 3000.
        # With k = 1 each prediction reaches only its nearest gt, so the
        # components stay small even with far more predictions than gt.
        rng = np.random.default_rng(16)
        gt = PointSet(rng.uniform(0, 1000, (m, 2)))
        pred = PointSet(rng.uniform(0, 1000, (n, 2)))
        tracemalloc.start()
        try:
            result = match_points(pred, gt, MatchConfig(k=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        check_result_invariants(result, n, m)
        assert peak < n * m * 8 / 4   # a quarter of one dense float64 matrix

    def test_fused_grid_pass_builds_no_n_by_m_array(self):
        # Radii and edges of a 20 000-point match come from one grid pass.
        rng = np.random.default_rng(63)
        gt = rng.uniform(0, 2800, (20000, 2))
        pred = np.vstack([gt[:19000] + rng.normal(0, 1.0, (19000, 2)),
                          rng.uniform(0, 2800, (1000, 2))])
        pred, gt = PointSet(pred), PointSet(gt)
        tracemalloc.start()
        try:
            result = match_points(pred, gt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        check_result_invariants(result, 20000, 20000)
        assert peak < 20000 * 20000 / 8   # less than one bit per (prediction, gt) pair

    def test_giant_component(self):
        # Every radius covers every point: the edge graph is complete, one
        # component.
        rng = np.random.default_rng(17)
        pred = PointSet(rng.uniform(0, 10, (30, 2)))
        gt = PointSet(rng.uniform(0, 10, (25, 2)))
        result = fixed_radius_match(pred, gt, radius=100.0)
        radii = RadiusProfile(np.full(30, 100.0), k=5)
        ref = hungarian_solve(-build_weight_matrix(pred, gt, radii, MatchConfig()).values)
        assert result.total_weight == pytest.approx(-ref.total_cost, abs=1e-9)
        assert len(result.pairs) == 25

    def test_lattice_giant_component(self):
        # A jittered 64 x 64 unit lattice, predictions jittered from it plus
        # 2 % spurious ones, radius 1.5: the edge graph is one connected
        # component over all 4 096 gt points.
        rng = np.random.default_rng(22)
        xs, ys = np.meshgrid(np.arange(64.0), np.arange(64.0))
        gt = np.column_stack([xs.ravel(), ys.ravel()]) + rng.uniform(-0.2, 0.2, (4096, 2))
        pred = np.vstack([gt + rng.normal(0, 0.1, gt.shape), rng.uniform(0, 64, (82, 2))])
        pred, gt = PointSet(pred), PointSet(gt)
        n, m = len(pred), len(gt)
        pi, gj, d = pairs_within(pred, gt, np.full(n, 1.5))
        graph = csr_matrix((np.ones(len(pi)), (pi, n + gj)), shape=(n + m, n + m))
        labels = connected_components(graph, directed=False)[1]
        assert len(set(labels[n:].tolist())) == 1

        started = time.perf_counter()
        result = fixed_radius_match(pred, gt, radius=1.5)
        assert time.perf_counter() - started < 1.0
        tracemalloc.start()
        try:
            fixed_radius_match(pred, gt, radius=1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8 / 8   # an eighth of one dense float64 matrix
        check_result_invariants(result, n, m)
        w = np.exp(-(d * d) / (2.0 * 0.75 * 0.75))
        assert result.total_weight == pytest.approx(
            scipy_sparse_optimum(pi, gj, w, n, m), abs=1e-9)


class TestTieRule:
    # Every edge below is 1 px long, so all weights are equal.
    def test_lowest_gt_first(self):
        result = fixed_radius_match(PointSet([(0, 0)]),
                                    PointSet([(1, 0), (-1, 0), (0, 1)]), radius=1.5)
        assert [(p.pred_index, p.gt_index) for p in result.pairs] == [(0, 0)]

    def test_earlier_prediction_keeps_a_contested_gt(self):
        result = fixed_radius_match(PointSet([(-1, 0), (1, 0)]), PointSet([(0, 0)]),
                                    radius=1.5)
        assert [(p.pred_index, p.gt_index) for p in result.pairs] == [(0, 0)]
        assert result.unmatched_pred == (1,)

    def test_later_prediction_moves_to_a_free_gt(self):
        # Prediction 1 reaches only gt 0, which prediction 0 took first at
        # an equal weight; prediction 0 moves on to gt 1, so both match.
        result = fixed_radius_match(PointSet([(0, 0), (-2, 0)]),
                                    PointSet([(-1, 0), (1, 0)]), radius=1.5)
        assert [(p.pred_index, p.gt_index) for p in result.pairs] == [(0, 1), (1, 0)]


    def test_dense_solve_takes_the_sparse_pairs(self):
        rng = np.random.default_rng(24)
        for _ in range(400):
            n, m = rng.integers(1, 41, 2)
            extent = rng.choice([4.0, 10.0, 30.0])
            pred = PointSet(np.round(rng.uniform(0, extent, (n, 2))))
            gt = PointSet(np.round(rng.uniform(0, extent, (m, 2))))
            wm = build_weight_matrix(pred, gt, all_radii(pred, gt), MatchConfig())
            assert dense_private_column_pairs(wm) == [
                (p.pred_index, p.gt_index) for p in match_points(pred, gt).pairs]


class TestSubResolutionWeights:
    def test_fixed_sigma_dense_solve_takes_the_sparse_pairs(self):
        # FIXED sigma 0.3 px with predictions 2-5 px off their gt: every
        # edge weighs between exp(-139) and exp(-22), far below the
        # resolution of a total near 1. The dense private-column solve
        # still returns the pairs of the sparse one.
        cfg = MatchConfig(sigma_mode=SigmaMode.FIXED, sigma_value=0.3)
        rng = np.random.default_rng(71)
        for _ in range(200):
            m = int(rng.integers(2, 41))
            gt = np.round(rng.uniform(0, 60, (m, 2)))
            angle = rng.uniform(0, 2 * np.pi, m)
            direction = np.column_stack([np.cos(angle), np.sin(angle)])
            offset = rng.uniform(2, 5, m)[:, None] * direction
            pred = np.vstack([gt + offset, gt[:int(rng.integers(0, 3))]])
            pred, gt = PointSet(rng.permutation(pred)), PointSet(gt)
            wm = build_weight_matrix(pred, gt, all_radii(pred, gt, cfg.k, cfg.radius_floor), cfg)
            result = match_points(pred, gt, cfg)
            assert dense_private_column_pairs(wm) == [
                (p.pred_index, p.gt_index) for p in result.pairs]


class TestFarPrediction:
    @pytest.mark.parametrize("m", [20, GRID_BACKEND_THRESHOLD + 20])
    def test_radius_and_weight_near_float_max(self, m):
        # Five distances of 1e308 sum past the float range, and so do
        # d^2 and sigma^2: the radius is 1e308 and every gt point is an
        # edge of weight exp(-(1e308 / 5e307)^2 / 2) = exp(-2).
        rng = np.random.default_rng(23)
        gt = PointSet(rng.uniform(-5, 5, (m, 2)))
        pred = PointSet([(0.0, 1e308)])
        result = match_points(pred, gt)
        check_result_invariants(result, 1, m)
        assert [(p.pred_index, p.gt_index) for p in result.pairs] == [(0, 0)]
        assert result.pairs[0].weight == pytest.approx(math.exp(-2.0), rel=1e-12)
        radii = all_radii(pred, gt)
        ref = hungarian_solve(-build_weight_matrix(pred, gt, radii, MatchConfig()).values)
        assert result.total_weight == pytest.approx(-ref.total_cost, abs=1e-9)


def _cloud(rng, count, extent, step, outliers):
    pts = rng.uniform(0, extent, (count, 2))
    if step:
        pts = np.round(pts / step) * step
    if outliers:
        far = rng.choice([-1.0, 1.0], (outliers, 2)) * rng.uniform(1e4, 1e5, (outliers, 2))
        pts[rng.choice(count, min(outliers, count), replace=False)] = far[:count]
    return pts


@st.composite
def matching_instances(draw):
    grid_side = draw(st.booleans())
    if grid_side:
        m = draw(st.integers(GRID_BACKEND_THRESHOLD, GRID_BACKEND_THRESHOLD + 60))
        n = draw(st.integers(1, 40))
    else:
        m = draw(st.integers(1, 40))
        n = draw(st.integers(1, 40))
    extent = draw(st.sampled_from([3.0, 30.0, 300.0]))
    step = draw(st.sampled_from([0.0, 0.5, 1.0]))   # 0: continuous; else quantized, with ties
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gt = _cloud(rng, m, extent, step, draw(st.integers(0, 2)))
    pred = _cloud(rng, n, extent, step, draw(st.integers(0, 2)))
    coincident = draw(st.integers(0, min(n, m)))   # predictions sitting exactly on a gt
    pred[:coincident] = gt[rng.choice(m, coincident, replace=False)]
    if draw(st.booleans()):
        cfg = MatchConfig(k=draw(st.integers(1, 6)),
                          sigma_value=draw(st.sampled_from([0.25, 0.5, 2.0])))
    else:
        cfg = MatchConfig(k=draw(st.integers(1, 6)), sigma_mode=SigmaMode.FIXED,
                          sigma_value=draw(st.sampled_from([0.05, 0.5, 3.0])))
    return PointSet(pred), PointSet(gt), cfg


class TestSparseMatchesDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(matching_instances())
    def test_total_equals_dense_solve(self, instance):
        pred, gt, cfg = instance
        result = match_points(pred, gt, cfg)
        check_result_invariants(result, len(pred), len(gt))
        radii = all_radii(pred, gt, cfg.k, cfg.radius_floor)
        wm = build_weight_matrix(pred, gt, radii, cfg)
        ref = hungarian_solve(-wm.values)
        assert result.total_weight == pytest.approx(-ref.total_cost, abs=1e-9)
        pi, gj = np.nonzero(wm.in_radius)
        lapjvsp = scipy_sparse_optimum(pi, gj, wm.values[pi, gj], len(pred), len(gt))
        assert result.total_weight == pytest.approx(lapjvsp, abs=1e-9)
        for p in result.pairs:
            assert wm.in_radius[p.pred_index, p.gt_index]
            assert p.distance == wm.distances[p.pred_index, p.gt_index]
            assert p.weight == wm.values[p.pred_index, p.gt_index]


_EMPTY_SHAPES = [(0, 3), (3, 0), (0, 0), (0, GRID_BACKEND_THRESHOLD)]


class TestEmptyInputs:
    # An empty side runs the general path of every matcher; (0, 256)
    # sends zero queries to the grid index.
    @staticmethod
    def _sets(n, m):
        return (PointSet([(i, 0.5 * i) for i in range(n)]),
                PointSet([(i + 0.25, i) for i in range(m)]))

    @pytest.mark.parametrize("n, m", _EMPTY_SHAPES)
    def test_every_matcher_leaves_everything_unmatched(self, n, m):
        pred, gt = self._sets(n, m)
        cfg = MatchConfig()
        radii = RadiusProfile(np.full(n, 2.0), k=cfg.k)
        expected = MatchResult(pairs=(), unmatched_pred=tuple(range(n)),
                               unmatched_gt=tuple(range(m)), total_weight=0.0)
        assert match_points(pred, gt, cfg) == expected
        assert fixed_radius_match(pred, gt, 2.0, cfg) == expected
        assert match_with_radii(pred, gt, radii, cfg) == expected
        assert brute_force_match(pred, gt, cfg) == expected
        assert brute_force_match(pred, gt, cfg, radii=radii) == expected

    @pytest.mark.parametrize("n, m", _EMPTY_SHAPES)
    def test_weight_matrix_shapes(self, n, m):
        pred, gt = self._sets(n, m)
        wm = build_weight_matrix(pred, gt, RadiusProfile(np.full(n, 2.0), k=1), MatchConfig())
        for arr in (wm.values, wm.in_radius, wm.distances):
            assert arr.shape == (n, m)
        assert wm.values.dtype == wm.distances.dtype == np.float64
        assert wm.in_radius.dtype == bool

    def test_render_density_of_no_points(self):
        dm = render_density(PointSet([]), sigma=1.5, height=7, width=5)
        assert dm.values.shape == (7, 5)
        assert dm.values.sum() == 0.0


class TestRowsWithoutEdges:
    def test_sparse_solve_takes_the_dense_pairs(self):
        # Fixed radii of 0.5-2.5 px on integer points leave many
        # predictions without any edge, before, between and after
        # predictions with edges. The pairs must equal those of the dense
        # private-column problem and the total that of the dense reference
        # solve.
        rng = np.random.default_rng(31)
        mixed = 0
        for _ in range(300):
            n, m = (int(x) for x in rng.integers(1, 16, 2))
            pred = PointSet(np.round(rng.uniform(0, 12, (n, 2))))
            gt = PointSet(np.round(rng.uniform(0, 12, (m, 2))))
            radii = RadiusProfile(rng.choice([0.5, 1.0, 1.5, 2.5], n), k=1)
            wm = build_weight_matrix(pred, gt, radii, MatchConfig())
            edgeless = ~wm.in_radius.any(axis=1)
            mixed += bool(edgeless.any() and not edgeless.all())
            result = match_with_radii(pred, gt, radii)
            check_result_invariants(result, n, m)
            assert dense_private_column_pairs(wm) == [
                (p.pred_index, p.gt_index) for p in result.pairs]
            ref = hungarian_solve(-wm.values)
            assert result.total_weight == pytest.approx(-ref.total_cost, abs=1e-9)
            assert set(np.flatnonzero(edgeless).tolist()) <= set(result.unmatched_pred)
        assert mixed >= 100


def _whole_array_oracle(pred, gt, cfg=MatchConfig(), radii=None):
    """The oracle as it was before chunked enumeration, kept verbatim:
    every mapping in one array, one argmax."""
    n, m = len(pred), len(gt)
    if n == 0 or m == 0:
        return matching._assemble(*[np.zeros(0, np.int64)] * 4, n, m)
    if radii is None:
        radii = all_radii(pred, gt, cfg.k, cfg.radius_floor)
    wm = build_weight_matrix(pred, gt, radii, cfg)
    # Rows of ``side`` are the smaller side's points.
    side = wm.values if n <= m else wm.values.T
    small, large = side.shape
    perms = np.array(list(itertools.permutations(range(large), small)), dtype=np.int64)
    totals = side[np.arange(small)[None, :], perms].sum(axis=1)
    pairs = np.column_stack((np.arange(small), perms[int(np.argmax(totals))]))
    i, j = (pairs if n <= m else pairs[:, ::-1]).T
    edge = wm.in_radius[i, j]
    i, j = i[edge], j[edge]
    return matching._assemble(i, j, wm.distances[i, j], wm.values[i, j], n, m)


def _tied_instance(rng, n, m):
    # Few integer sites, so distances, weights and totals tie exactly.
    pred = PointSet(rng.integers(0, 4, (n, 2)).astype(np.float64))
    gt = PointSet(rng.integers(0, 4, (m, 2)).astype(np.float64))
    return pred, gt


class TestOracleEnumeration:
    @staticmethod
    def check_equal(pred, gt, cfg):
        ref = _whole_array_oracle(pred, gt, cfg)
        got = brute_force_match(pred, gt, cfg)
        # The reference's n > m pairs come in gt order; the oracle sorts them.
        assert got.pairs == tuple(sorted(ref.pairs))
        assert got.unmatched_pred == ref.unmatched_pred
        assert got.unmatched_gt == ref.unmatched_gt
        assert got.total_weight == ref.total_weight

    @pytest.mark.parametrize("budget", [10, 23, matching._SCAN_BLOCK_CELLS])
    def test_chunks_keep_the_first_maximizer(self, monkeypatch, budget):
        # Small budgets split even a few dozen mappings into many chunks,
        # so ties between chunks are common.
        monkeypatch.setattr(matching, "_SCAN_BLOCK_CELLS", budget)
        rng = np.random.default_rng(budget)
        shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1)]
        shapes += [tuple(int(x) for x in rng.integers(1, 6, 2)) for _ in range(60)]
        for n, m in shapes:
            pred, gt = _tied_instance(rng, n, m)
            self.check_equal(pred, gt, MatchConfig())

    def test_real_budget_over_several_chunks(self):
        # 4 x 18 is 73 440 mappings, 5 chunks of 16 384; coincident gt
        # points make maximizers tie across chunks.
        rng = np.random.default_rng(41)
        for n, m in [(4, 18), (18, 4)]:
            pred, gt = _tied_instance(rng, n, m)
            assert matching._SCAN_BLOCK_CELLS // min(n, m) < math.perm(max(n, m), min(n, m))
            self.check_equal(pred, gt, MatchConfig())

    def test_memory_is_bounded(self):
        # 181 440 mappings. Held at once they peak at about 33 MB traced
        # (a 10 x 10 instance at about 790 MB RSS); in chunks, about 3 MB.
        rng = np.random.default_rng(42)
        pred = PointSet(rng.uniform(0, 20, (7, 2)))
        gt = PointSet(rng.uniform(0, 20, (9, 2)))
        tracemalloc.start()
        try:
            brute_force_match(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestPairOrder:
    def test_every_matcher_returns_pairs_in_prediction_order(self):
        # _assemble takes the solvers' order as it comes, so each matcher
        # must hand over its pairs sorted by prediction.
        rng = np.random.default_rng(43)
        for _ in range(60):
            n, m = (int(x) for x in rng.integers(1, 7, 2))
            pred, gt = _tied_instance(rng, n, m)
            radii = RadiusProfile(rng.choice([1.0, 2.0, 4.0], n), k=1)
            for result in (match_points(pred, gt), brute_force_match(pred, gt),
                           match_with_radii(pred, gt, radii), fixed_radius_match(pred, gt, 2.5)):
                order = [p.pred_index for p in result.pairs]
                assert order == sorted(order)

    def test_oracle_with_more_predictions_than_gt(self):
        pred = PointSet([(9.0, 0.0), (5.0, 0.0), (1.0, 0.0)])
        gt = PointSet([(1.0, 0.0), (9.0, 0.0)])
        result = brute_force_match(pred, gt)
        assert [(p.pred_index, p.gt_index) for p in result.pairs] == [(0, 1), (2, 0)]
