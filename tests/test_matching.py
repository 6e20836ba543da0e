import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmatch import matching
from countmatch.assignment import hungarian_solve
from countmatch.geometry import GRID_BACKEND_THRESHOLD, PointSet, RadiusProfile, all_radii
from countmatch.matching import (
    MatchConfig,
    OutOfRadiusMode,
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

    def test_penalty_mode_strictly_below_admissible(self):
        rng = np.random.default_rng(4)
        pred = PointSet(rng.uniform(0, 40, (7, 2)))
        gt = PointSet(rng.uniform(0, 40, (7, 2)))
        cfg = MatchConfig(out_of_radius=OutOfRadiusMode.LINEAR_PENALTY)
        radii = all_radii(pred, gt, cfg.k, cfg.radius_floor)
        wm = build_weight_matrix(pred, gt, radii, cfg)
        out = ~wm.in_radius
        if out.any():
            assert wm.values[out].max() < wm.values[wm.in_radius].min()
            # penalties preserve distance ordering: more distant is lower
            d_out = wm.distances[out]
            v_out = wm.values[out]
            order = np.argsort(d_out)
            assert (np.diff(v_out[order]) <= 1e-15).all()

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

    def test_rectangular_orientations(self):
        rng = np.random.default_rng(12)
        for shape in [(2, 6), (6, 2)]:
            pred = PointSet(rng.uniform(0, 8, (shape[0], 2)))
            gt = PointSet(rng.uniform(0, 8, (shape[1], 2)))
            a = match_points(pred, gt)
            b = brute_force_match(pred, gt)
            assert a.total_weight == pytest.approx(b.total_weight, abs=1e-9)


class TestLinearPenaltyMode:
    def test_solver_still_optimal_on_raw_objective(self):
        # Under the penalty mode the Hungarian objective includes graded
        # negative values for out-of-radius pairs; verify the solve against
        # exhaustive enumeration of that raw objective.
        rng = np.random.default_rng(13)
        from countmatch.assignment import hungarian_solve
        for _ in range(60):
            pred, gt = random_instance(rng, max_side=6, extent=30.0)
            cfg = MatchConfig(out_of_radius=OutOfRadiusMode.LINEAR_PENALTY)
            radii = all_radii(pred, gt, cfg.k, cfg.radius_floor)
            wm = build_weight_matrix(pred, gt, radii, cfg)
            sol = hungarian_solve(-wm.values)
            n, m = wm.values.shape
            if n <= m:
                best = max(math.fsum(wm.values[i, p[i]] for i in range(n))
                           for p in itertools.permutations(range(m), n))
            else:
                best = max(math.fsum(wm.values[p[j], j] for j in range(m))
                           for p in itertools.permutations(range(n), m))
            assert -sol.total_cost == pytest.approx(best, abs=1e-9)

    def test_pairs_still_within_radius(self):
        # Returned pairs obey the same admissibility contract in both modes.
        rng = np.random.default_rng(14)
        cfg = MatchConfig(out_of_radius=OutOfRadiusMode.LINEAR_PENALTY)
        for _ in range(30):
            pred, gt = random_instance(rng, max_side=9, extent=25.0)
            radii = all_radii(pred, gt, cfg.k, cfg.radius_floor)
            result = match_points(pred, gt, cfg)
            check_result_invariants(result, len(pred), len(gt))
            for p in result.pairs:
                assert p.distance <= radii.radii[p.pred_index] + 1e-12


class TestMatchConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="invalid k"):
            MatchConfig(k=0)
        with pytest.raises(ValueError, match="invalid sigma"):
            MatchConfig(sigma_value=-1.0)
        with pytest.raises(ValueError):
            MatchConfig(radius_floor=0.0)

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

    @pytest.mark.parametrize("mode", list(OutOfRadiusMode))
    def test_zero_weight_pair_is_not_an_edge(self, mode):
        cfg = MatchConfig(sigma_mode=SigmaMode.FIXED, sigma_value=1.0, out_of_radius=mode)
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


class TestSparsePath:
    def test_forbid_never_builds_the_dense_matrix(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense weight matrix built under FORBID")

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

    def test_giant_component(self):
        # Every radius covers every point: one component, solved densely.
        rng = np.random.default_rng(17)
        pred = PointSet(rng.uniform(0, 10, (30, 2)))
        gt = PointSet(rng.uniform(0, 10, (25, 2)))
        result = fixed_radius_match(pred, gt, radius=100.0)
        radii = RadiusProfile(np.full(30, 100.0), k=5)
        ref = hungarian_solve(-build_weight_matrix(pred, gt, radii, MatchConfig()).values)
        assert result.total_weight == pytest.approx(-ref.total_cost, abs=1e-9)
        assert len(result.pairs) == 25


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
        for p in result.pairs:
            assert wm.in_radius[p.pred_index, p.gt_index]
            assert p.distance == wm.distances[p.pred_index, p.gt_index]
            assert p.weight == wm.values[p.pred_index, p.gt_index]
