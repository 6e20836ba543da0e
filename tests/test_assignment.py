import heapq
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import countmatch
from countmatch.assignment import as_cost_matrix, hungarian_solve, max_weight_matching
from countmatch.geometry import PointSet, all_radii, pairs_within
from countmatch.matching import MatchConfig, build_weight_matrix


def brute_force_min(cost):
    """Oracle: exhaustive minimum over all injective assignments."""
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    best = math.inf
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            best = min(best, math.fsum(cost[i, perm[i]] for i in range(n)))
    else:
        for perm in itertools.permutations(range(n), m):
            best = min(best, math.fsum(cost[perm[j], j] for j in range(m)))
    return best


# Verbatim copies of the two solver loops as they were before the greedy
# start: every row augmented by Dijkstra, in index order. The references
# for the totals below.
def all_rows_augmented_solve(cost):
    """Pairs and fsum total of the minimum-cost assignment, n <= m."""
    n, m = cost.shape
    u = cost.min(axis=1, initial=np.inf)    # row potentials
    v = np.zeros(m)                         # column potentials
    row_of = np.full(m, -1, dtype=np.int64)  # row holding each column, -1 if free
    col_of = [-1] * n                       # column held by each row
    for cur in range(n):
        dist = np.full(m, np.inf)
        via = np.zeros(m, dtype=np.int64)   # row whose entry last lowered dist[j]
        open_v = v.copy()                   # v, with -inf on settled columns
        done, done_at = [], []              # settled columns and their path lengths
        i, reach = cur, 0.0
        while True:
            # A settled column's path length reads inf, so it is never
            # lowered again, and its dist is inf, so it is never picked.
            r = reach - u[i] + cost[i] - open_v
            lower = r < dist
            np.copyto(dist, r, where=lower)
            np.copyto(via, i, where=lower)
            j = int(np.argmin(dist))
            reach = float(dist[j])
            dist[j], open_v[j] = np.inf, -np.inf
            done.append(j)
            done_at.append(reach)
            if row_of[j] < 0:
                break
            i = int(row_of[j])
        u[cur] += reach
        delta = reach - np.array(done_at)
        v[done] -= delta
        u[row_of[done[:-1]]] += delta[:-1]
        while True:                         # flip the path from the free column j back to cur
            i = int(via[j])
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == cur:
                break
    pairs = tuple(enumerate(col_of))
    return pairs, math.fsum(cost[i, j] for i, j in pairs)


def all_rows_augmented_matching(pi, gj, w, n, m):
    """Edge indices of a maximum-weight matching of the edge graph."""
    start = np.searchsorted(pi, np.arange(n + 1)).tolist()
    cols, cost = gj.tolist(), (-w).tolist()
    u = [0.0] * n                 # row potentials
    v = [0.0] * (m + n)           # column potentials
    row_of = [-1] * (m + n)       # row holding each column, -1 if free
    col_of = [-1] * n             # column held by each row
    for cur in range(n):
        u[cur] = min(cost[start[cur]:start[cur + 1]] + [0.0])  # the private column costs 0
        dist: dict[int, float] = {}
        via: dict[int, int] = {}  # row whose edge last lowered dist[j]
        done: dict[int, float] = {}   # settled columns, in settling order
        heap: list[tuple[float, int]] = []
        i, reach = cur, 0.0
        while True:
            base = reach - u[i]
            s, e = start[i], start[i + 1]
            for j, c in zip(cols[s:e] + [m + n - 1 - i], cost[s:e] + [0.0]):
                if j not in done:
                    r = base + c - v[j]
                    if r < dist.get(j, math.inf):
                        dist[j], via[j] = r, i
                        heapq.heappush(heap, (r, j))
            reach, j = heapq.heappop(heap)
            while j in done:      # stale entry of a settled column
                reach, j = heapq.heappop(heap)
            done[j] = reach
            if row_of[j] < 0:
                break
            i = row_of[j]
        u[cur] += reach
        for k, d in done.items():
            v[k] -= reach - d
            if k != j:
                u[row_of[k]] += reach - d
        while True:               # flip the path from the free column j back to cur
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == cur:
                break
    gt_of = np.array(col_of, dtype=np.int64)
    return np.flatnonzero(gj == gt_of[pi])


class TestSmallCases:
    def test_identity_favoring_2x2(self):
        a = hungarian_solve([[0.0, 1.0], [1.0, 0.0]])
        assert a.pairs == ((0, 0), (1, 1))
        assert a.total_cost == 0.0

    def test_single_row_argmin(self):
        a = hungarian_solve([[5.0, 2.0, 9.0]])
        assert a.pairs == ((0, 1),)
        assert a.total_cost == 2.0

    def test_empty_matrices(self):
        for shape in [(0, 0), (0, 5), (5, 0)]:
            a = hungarian_solve(np.zeros(shape))
            assert a.pairs == ()
            assert a.total_cost == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian_solve([[1.0, np.inf]])
        with pytest.raises(ValueError, match="2-D"):
            as_cost_matrix([1.0, 2.0])

    def test_path_lengths_beyond_float_range_raise(self):
        # The reduced costs overflow and every open column reads inf. This
        # once looped forever, so it runs in a child process with a timeout.
        code = "from countmatch.assignment import hungarian_solve\n" \
               "hungarian_solve([[-1e308, 1e308], [-1e308, 1e308]])\n"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(countmatch.__file__))}
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=60)
        assert child.returncode == 1
        assert child.stderr.splitlines()[-1] == (
            "ValueError: assignment costs overflow: the costs span more than the float "
            "range (about 1.8e308)")

    def test_total_beyond_float_range_raises(self):
        # The optimum is -2e308.
        with pytest.raises(ValueError, match="^assignment costs overflow"):
            hungarian_solve([[1e308, -1e308], [-1e308, 1e308]])

    def test_overflow_in_an_unpicked_column_raises(self):
        # Row 0's path length to column 1 overflows, though column 1 is
        # never picked and every assignment totals -1e308. An overflowed
        # sum can also hide a finite path length, so any overflow raises.
        with pytest.raises(ValueError, match="^assignment costs overflow"):
            hungarian_solve([[-1e308, 1e308, 0], [-1e308, 5, 0]])

    def test_assignment_structure(self):
        a = hungarian_solve(np.arange(12, dtype=float).reshape(3, 4))
        assert len(a) == 3
        rows = [r for r, _ in a.pairs]
        cols = [c for _, c in a.pairs]
        assert rows == sorted(rows)
        assert len(set(cols)) == len(cols)


class TestOptimality:
    def test_random_7x7_against_permutation_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            cost = rng.normal(size=(7, 7))
            a = hungarian_solve(cost)
            assert a.total_cost == brute_force_min(cost)

    def test_random_rectangular(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.normal(size=(n, m)) * float(rng.choice([0.01, 1.0, 100.0]))
            a = hungarian_solve(cost)
            assert a.total_cost == pytest.approx(brute_force_min(cost), abs=1e-12)

    def test_degenerate_ties(self):
        # All-equal matrices resolve to the lexicographically first pairing.
        a = hungarian_solve(np.zeros((4, 6)))
        assert a.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))

    def test_large_against_scipy(self):
        rng = np.random.default_rng(44)
        for shape in [(60, 80), (80, 60), (120, 120)]:
            cost = rng.normal(size=shape)
            a = hungarian_solve(cost)
            r, c = linear_sum_assignment(cost)
            assert a.total_cost == pytest.approx(float(cost[r, c].sum()), abs=1e-9)

    def test_negative_and_sparse_structure(self):
        # Mostly-zero matrices with scattered negative entries, the shape
        # the point matcher produces.
        rng = np.random.default_rng(45)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(2, 30))
            cost = np.zeros((n, m))
            k = int(rng.integers(1, n * m))
            idx = rng.choice(n * m, size=k, replace=False)
            cost.flat[idx] = -rng.random(k)
            a = hungarian_solve(cost)
            r, c = linear_sum_assignment(cost)
            assert a.total_cost == pytest.approx(float(cost[r, c].sum()), abs=1e-9)


class TestInvariants:
    def test_shift_invariance(self):
        # Adding c to one row shifts the cost by exactly c and keeps the
        # pair set when rows <= cols (every row is matched). Continuous
        # random costs make the optimum unique almost surely.
        rng = np.random.default_rng(46)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(n, 9))
            cost = rng.normal(size=(n, m))
            base = hungarian_solve(cost)
            row = int(rng.integers(0, n))
            c = float(rng.normal()) * 4.0
            shifted = cost.copy()
            shifted[row] += c
            after = hungarian_solve(shifted)
            assert after.pairs == base.pairs
            assert after.total_cost == pytest.approx(base.total_cost + c, abs=1e-9)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.normal(size=(n, m))
            a = hungarian_solve(cost)
            b = hungarian_solve(cost.T)
            assert sorted((c, r) for r, c in a.pairs) == sorted(b.pairs)
            assert a.total_cost == pytest.approx(b.total_cost, abs=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(48)
        cost = rng.normal(size=(9, 9))
        first = hungarian_solve(cost)
        for _ in range(5):
            assert hungarian_solve(cost) == first

    def test_total_is_sum_of_assigned_entries(self):
        rng = np.random.default_rng(49)
        cost = rng.normal(size=(6, 10))
        a = hungarian_solve(cost)
        assert a.total_cost == pytest.approx(
            math.fsum(cost[r, c] for r, c in a.pairs), abs=1e-12)


class TestGreedyStart:
    def test_empty_and_single_cell(self):
        # np.argmin of a (0, 0) matrix along axis 1 raises; the start
        # must not reach it.
        for shape in [(0, 0), (0, 3), (3, 0)]:
            a = hungarian_solve(np.zeros(shape))
            assert a.pairs == () and a.total_cost == 0.0
        a = hungarian_solve([[-2.5]])
        assert a.pairs == ((0, 0),) and a.total_cost == -2.5
        empty = np.empty(0, dtype=np.int64)
        for n, m in [(0, 0), (0, 3), (3, 0)]:
            assert max_weight_matching(empty, empty, np.empty(0), n, m).size == 0

    def test_contested_column_goes_to_the_lowest_row(self):
        # Rows 0 and 1 both start on column 0; row 0 keeps it and row 1
        # is augmented onto column 1.
        a = hungarian_solve([[0.0, 1.0, 5.0], [0.0, 1.0, 5.0]])
        assert a.pairs == ((0, 0), (1, 1))
        pi, gj = np.array([0, 0, 1]), np.array([0, 1, 0])
        keep = max_weight_matching(pi, gj, np.array([1.0, 1.0, 1.0]), 2, 2)
        assert list(zip(pi[keep].tolist(), gj[keep].tolist())) == [(0, 1), (1, 0)]

    def test_totals_equal_augmenting_every_row(self):
        # Quantized scenes tie often, so pairs may differ between the two
        # starts; the optimum they reach may not.
        rng = np.random.default_rng(70)
        for _ in range(400):
            n, m = (int(x) for x in rng.integers(1, 41, 2))
            extent = rng.choice([4.0, 10.0, 30.0])
            pred = PointSet(np.round(rng.uniform(0, extent, (n, 2))))
            gt = PointSet(np.round(rng.uniform(0, extent, (m, 2))))
            radii = all_radii(pred, gt)
            wm = build_weight_matrix(pred, gt, radii, MatchConfig())
            pi, gj = np.nonzero(wm.in_radius)
            w = wm.values[pi, gj]
            got = math.fsum(w[max_weight_matching(pi, gj, w, n, m)])
            assert got == math.fsum(w[all_rows_augmented_matching(pi, gj, w, n, m)])
            cost = -wm.values  # the dense solve of the same scene, 0 off the edges
            cost = cost if n <= m else np.ascontiguousarray(cost.T)
            assert hungarian_solve(cost).total_cost == all_rows_augmented_solve(cost)[1]

    def test_lattice_giant_component_total(self):
        # One connected edge graph over a jittered 64 x 64 lattice.
        rng = np.random.default_rng(22)
        xs, ys = np.meshgrid(np.arange(64.0), np.arange(64.0))
        gt = np.column_stack([xs.ravel(), ys.ravel()]) + rng.uniform(-0.2, 0.2, (4096, 2))
        pred = np.vstack([gt + rng.normal(0, 0.1, gt.shape), rng.uniform(0, 64, (82, 2))])
        pred, gt = PointSet(pred), PointSet(gt)
        pi, gj, d = pairs_within(pred, gt, np.full(len(pred), 1.5))
        w = np.exp(-(d * d) / (2.0 * 0.75 * 0.75))
        n, m = len(pred), len(gt)
        got = math.fsum(w[max_weight_matching(pi, gj, w, n, m)])
        assert got == math.fsum(w[all_rows_augmented_matching(pi, gj, w, n, m)])
