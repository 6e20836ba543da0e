"""Exact solvers for the rectangular linear assignment problem.

One algorithm, two row representations: shortest augmenting paths in the
form of Jonker & Volgenant's sparse LAPJVsp (1987), with the dual updates
of Crouse 2016 ("On implementing 2D rectangular assignment algorithms").
:func:`hungarian_solve` reads each row as a dense numpy row and settles
columns with ``argmin``; :func:`max_weight_matching` reads rows as CSR
edge lists and settles columns from a heap. Neither pads to a square.

For an n x m problem with n <= m, every row potential starts at the
row's least cost and every column potential at 0, so every reduced cost
starts non-negative. The greedy start of Jonker & Volgenant's LAPJV
(1987) then gives each row its first least-cost column unless a lower
row took it: those pairs have reduced cost 0, so the duals stay
feasible. Only the rows left free are augmented, one at a time, in index
order. Dijkstra grows raw path lengths from the row over the reduced
costs until it settles a free column. Only then are the potentials of
the settled columns and of the rows holding them updated, once, and the
path is flipped back to the row. A dense solve costs O(n^2 m) at worst;
wider than tall inputs are solved on the transpose.

Tie rule: first the greedy pass, in which each row takes its first
least-cost column (``np.argmin`` on a dense row; edge-list order, with
the private column last, on an edge list) and the lowest row wins a
contested column; then the free rows in index order, and among equal
path lengths the lowest column is settled first (``np.argmin`` on a
dense row, the heap key (length, column) on an edge list). Identical
inputs therefore always give identical assignments.

Both solvers minimize. Callers that want a maximum-weight matching
negate their weights.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Assignment:
    """A minimum-cost matching: one (row, col) pair per min-side element.

    ``pairs`` is sorted by row index. ``total_cost`` is the exactly
    rounded sum (math.fsum) of the assigned cost entries.
    """

    pairs: tuple[tuple[int, int], ...]
    total_cost: float

    def __len__(self) -> int:
        return len(self.pairs)


def hungarian_solve(cost) -> Assignment:
    """Solve the rectangular assignment problem exactly.

    Parameters
    ----------
    cost : array-like, shape (rows, cols)
        Finite costs. Either dimension may be zero.

    Returns
    -------
    Assignment
        ``min(rows, cols)`` pairs covering the smaller side with minimum
        total cost. An empty matrix yields an empty assignment with cost
        zero (not an error). Costs whose path lengths, potentials or total
        overflow float64 raise ValueError.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix entries must be finite")
    n, m = cost.shape
    if n > m:
        transposed = hungarian_solve(np.ascontiguousarray(cost.T))
        pairs = sorted((r, c) for c, r in transposed.pairs)
        return Assignment(pairs=tuple(pairs), total_cost=transposed.total_cost)

    u = cost.min(axis=1, initial=np.inf)    # row potentials
    v = np.zeros(m)                         # column potentials
    row_of = np.full(m, -1, dtype=np.int64)  # row holding each column, -1 if free
    col_of = [-1] * n                       # column held by each row
    for i in range(n):                      # greedy start: first least-cost column
        j = int(np.argmin(cost[i]))
        if row_of[j] < 0:
            row_of[j], col_of[i] = i, j
    # An overflowed reduced cost, potential or total raises: with every
    # open column at inf, argmin would pick a settled one forever.
    try:
        with np.errstate(over="raise"):
            for cur in [i for i in range(n) if col_of[i] < 0]:
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
                while True:                 # flip the path from the free column j back to cur
                    i = int(via[j])
                    row_of[j] = i
                    col_of[i], j = j, col_of[i]
                    if i == cur:
                        break
        pairs = tuple(enumerate(col_of))
        total = math.fsum(cost[i, j] for i, j in pairs)
    except (FloatingPointError, OverflowError):
        raise ValueError("assignment costs overflow: the costs span more than the "
                         "float range (about 1.8e308)") from None
    return Assignment(pairs=pairs, total_cost=total)


def max_weight_matching(pi: np.ndarray, gj: np.ndarray, w: np.ndarray,
                        n: int, m: int) -> np.ndarray:
    """Edge indices of a maximum-weight matching of the bipartite edge
    graph (edge e joins prediction pi[e] and gt gj[e], weight w[e] > 0).

    Edges must be ordered by prediction, then gt, and each (pi, gj) pair
    must occur once. The graph is solved as one rectangular assignment
    over its edge list. Rows are the predictions. Columns are the gt
    points 0..m-1, then one private "unmatched" column per row:
    m + n - 1 - i for row i. An edge costs -w[e] and a private column 0,
    so the least cost is the largest weight. A row without edges keeps
    its private column, which the greedy start gives it.

    Under the module's tie rule a gt column comes before any private
    column, and a later row's private column before an earlier row's:
    when two rows tie for one gt, the earlier row keeps it. Time and
    memory follow the edges that the augmenting paths touch, never the
    n x m product.
    """
    start = np.searchsorted(pi, np.arange(n + 1))
    cost = -w
    # Greedy start. A row's least cost counts its private column, which
    # costs 0 and comes last, so a row with edges starts on its first
    # least-cost edge and a row without edges on its private column.
    edged = np.flatnonzero(start[1:] > start[:-1])
    least = np.zeros(n)
    least[edged] = np.minimum.reduceat(cost, start[edged])
    at = np.flatnonzero(cost == least[pi])
    first = at[np.unique(pi[at], return_index=True)[1]]
    col = m + n - 1 - np.arange(n)
    col[pi[first]] = gj[first]
    win = np.unique(col, return_index=True)[1]   # the lowest row wins a contested column
    row_of = np.full(m + n, -1)   # row holding each column, -1 if free
    row_of[col[win]] = win
    col_of = np.full(n, -1)       # column held by each row
    col_of[win] = col[win]
    start, cols, cost = start.tolist(), gj.tolist(), cost.tolist()
    u = least.tolist()            # row potentials
    v = [0.0] * (m + n)           # column potentials
    row_of, col_of = row_of.tolist(), col_of.tolist()
    for cur in [i for i in range(n) if col_of[i] < 0]:
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
