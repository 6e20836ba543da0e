"""Density-adaptive bipartite point matching.

Pipeline: per-prediction adaptive radii (mean distance to the k nearest
ground-truth points) -> Gaussian weights with per-row admissibility ->
exact Hungarian assignment maximizing total weight -> stripping of
inadmissible pairs. A prediction can therefore only claim a ground-truth
point inside its own neighborhood scale, which is what prevents false
matches in dense regions while keeping sparse regions matchable.

Edge contract: pair (i, j) is an *edge* when gt j lies within radius_i
of prediction i and its Gaussian weight is positive (a weight that
underflows to 0.0 is not an edge). Only edges are ever returned, so
every returned weight lies in (0, 1].

Under ``OutOfRadiusMode.FORBID`` (the default) a non-edge weighs 0 in
the solve and is stripped afterwards, so the optimum is the union of the
optima of the connected components of the edge graph. The matcher
therefore never builds the dense n x m problem: it finds the edges with
range queries (:func:`geometry.pairs_within`), weights only those, splits
the bipartite graph into components with a union-find, and solves each
component's small dense sub-matrix exactly (0 where there is no edge).
Memory and time follow the edge graph, not the n x m cross product.
``OutOfRadiusMode.LINEAR_PENALTY`` gives non-edges negative weights that
couple every component, so it keeps the dense path:
:func:`build_weight_matrix` plus one :func:`hungarian_solve`. That dense
pair is also the reference the sparse path is tested against.

A factorial brute-force matcher with identical semantics serves as the
correctness oracle for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .assignment import hungarian_solve
from .geometry import (
    DEFAULT_K,
    DEFAULT_RADIUS_FLOOR,
    PointSet,
    RadiusProfile,
    all_radii,
    pairs_within,
    pairwise_distances,
)

#: Default width factor for the radius-scaled Gaussian: sigma_i = 0.5 * radius_i.
DEFAULT_SIGMA_FACTOR = 0.5

#: Factorial-enumeration guard for the brute-force oracle.
BRUTE_FORCE_LIMIT = 10


class SigmaMode(Enum):
    """How the Gaussian decay width is chosen per prediction."""

    FIXED = "fixed"                  # sigma_value is the width in pixels
    RADIUS_SCALED = "radius_scaled"  # sigma_i = sigma_value * radius_i


class OutOfRadiusMode(Enum):
    """Treatment of pairs beyond the prediction's adaptive radius."""

    FORBID = "forbid"                  # weight 0 in the solve, never returned
    LINEAR_PENALTY = "linear_penalty"  # weight -D/D_max in the solve, never returned


@dataclass(frozen=True)
class MatchConfig:
    """Knobs of the adaptive matcher. Defaults follow the library-wide
    configuration: k = 5 neighbors, sigma_i = radius_i / 2, radius floor
    1e-3 px, out-of-radius pairs forbidden."""

    k: int = DEFAULT_K
    sigma_mode: SigmaMode = SigmaMode.RADIUS_SCALED
    sigma_value: float = DEFAULT_SIGMA_FACTOR
    radius_floor: float = DEFAULT_RADIUS_FLOOR
    out_of_radius: OutOfRadiusMode = OutOfRadiusMode.FORBID

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("invalid k")
        if not (self.sigma_value > 0 and math.isfinite(self.sigma_value)):
            raise ValueError("invalid sigma")
        if not (self.radius_floor > 0 and math.isfinite(self.radius_floor)):
            raise ValueError("radius floor must be positive and finite")


@dataclass(frozen=True)
class WeightMatrix:
    """Dense pairing weights plus the per-row admissibility mask.

    ``in_radius[i, j]`` marks the edges: pairs within prediction i's
    radius whose weight exp(-D_ij^2 / (2 sigma_i^2)) is positive.
    ``values[i, j]`` is that weight on edges and the mode-dependent
    placeholder (0 under FORBID, -D_ij/D_max under LINEAR_PENALTY)
    elsewhere; either placeholder is strictly below every edge weight.
    """

    values: np.ndarray
    in_radius: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.values, self.in_radius, self.distances):
            arr.setflags(write=False)


class MatchPair(NamedTuple):
    pred_index: int
    gt_index: int
    distance: float
    weight: float


@dataclass(frozen=True)
class MatchResult:
    """An assignment between a prediction set and a ground-truth set.

    ``pairs`` holds only admissible (in-radius) pairs; the weights of all
    pairs lie in (0, 1] and sum to ``total_weight``. Every index on either
    side appears exactly once across pairs and the unmatched lists.
    """

    pairs: tuple[MatchPair, ...]
    unmatched_pred: tuple[int, ...]
    unmatched_gt: tuple[int, ...]
    total_weight: float

    @property
    def n_pred(self) -> int:
        return len(self.pairs) + len(self.unmatched_pred)

    @property
    def n_gt(self) -> int:
        return len(self.pairs) + len(self.unmatched_gt)


def gaussian_weight(d: float, sigma: float) -> float:
    """exp(-d^2 / (2 sigma^2)): 1 at distance zero, decaying with squared
    distance."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("invalid sigma")
    if not math.isfinite(d):
        raise ValueError("distance must be finite")
    return float(np.exp(-(d * d) / (2.0 * sigma * sigma)))


def build_weight_matrix(pred: PointSet, gt: PointSet, radii: RadiusProfile,
                        cfg: MatchConfig) -> WeightMatrix:
    """Pairing weights of every prediction against every ground truth.

    ``radii`` must be aligned with ``pred`` (one radius per prediction).
    """
    if len(radii) != len(pred):
        raise ValueError(
            f"radius profile length {len(radii)} does not match predictions {len(pred)}")
    d = pairwise_distances(pred, gt)
    n, m = d.shape
    if n == 0 or m == 0:
        empty = np.zeros((n, m))
        return WeightMatrix(values=empty, in_radius=empty.astype(bool), distances=d)
    rad = radii.radii[:, None]
    values = _gaussian(d, rad, cfg)
    in_radius = (d <= rad) & (values > 0.0)
    if cfg.out_of_radius is OutOfRadiusMode.FORBID:
        values = np.where(in_radius, values, 0.0)
    else:
        d_max = float(d.max())
        penalty = -d / d_max if d_max > 0 else np.zeros_like(d)
        values = np.where(in_radius, values, penalty)
    return WeightMatrix(values=values, in_radius=in_radius, distances=d)


def match_points(pred: PointSet, gt: PointSet, cfg: MatchConfig = MatchConfig()) -> MatchResult:
    """Match predictions to ground truth with density-adaptive radii.

    The assignment maximizes total admissible weight (solved as a cost
    minimization on negated weights); pairs falling outside the
    prediction's radius are stripped after the solve and both endpoints
    reported unmatched. Output is deterministic. Either set may be empty.
    """
    if len(pred) == 0 or len(gt) == 0:
        return _all_unmatched(len(pred), len(gt))
    radii = all_radii(pred, gt, cfg.k, cfg.radius_floor)
    return match_with_radii(pred, gt, radii, cfg)


def fixed_radius_match(pred: PointSet, gt: PointSet, radius: float,
                       cfg: MatchConfig = MatchConfig()) -> MatchResult:
    """Baseline matcher: one global radius for every prediction.

    Same weighting and stripping as :func:`match_points`, with the
    adaptive profile replaced by a constant. Exists so the adaptive
    matcher can be compared against the fixed-threshold strategy it
    improves on.
    """
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    if len(pred) == 0 or len(gt) == 0:
        return _all_unmatched(len(pred), len(gt))
    radii = RadiusProfile(np.full(len(pred), float(radius)), cfg.k)
    return match_with_radii(pred, gt, radii, cfg)


def match_with_radii(pred: PointSet, gt: PointSet, radii: RadiusProfile,
                     cfg: MatchConfig = MatchConfig()) -> MatchResult:
    """Match with an explicit radius profile (one radius per prediction).

    Under FORBID the edge graph is solved component by component; under
    LINEAR_PENALTY the dense weight matrix is solved in one piece.
    """
    n, m = len(pred), len(gt)
    if n == 0 or m == 0:
        return _all_unmatched(n, m)
    if len(radii) != n:
        raise ValueError(f"radius profile length {len(radii)} does not match predictions {n}")
    if cfg.out_of_radius is OutOfRadiusMode.LINEAR_PENALTY:
        wm = build_weight_matrix(pred, gt, radii, cfg)
        return _assemble_solved(wm, hungarian_solve(-wm.values).pairs)
    pi, gj, d = pairs_within(pred, gt, radii.radii)
    w = _gaussian(d, radii.radii[pi], cfg)
    edge = w > 0.0
    pi, gj, d, w = pi[edge], gj[edge], d[edge], w[edge]
    keep = _max_weight_matching(pi, gj, w, n)
    return _assemble(pi[keep], gj[keep], d[keep], w[keep], n, m)


def brute_force_match(pred: PointSet, gt: PointSet, cfg: MatchConfig = MatchConfig(),
                      radii: Optional[RadiusProfile] = None) -> MatchResult:
    """Exhaustive-enumeration matcher, for verifying :func:`match_points`.

    Enumerates every injective mapping of the smaller side into the
    larger one, scores each with the same weight matrix the solver sees,
    and keeps the first maximizer in lexicographic enumeration order.
    Stripping of out-of-radius pairs is identical to the solver path.
    """
    n, m = len(pred), len(gt)
    if min(n, m) > BRUTE_FORCE_LIMIT:
        raise ValueError("oracle instance too large")
    if n == 0 or m == 0:
        return _all_unmatched(n, m)
    if radii is None:
        radii = all_radii(pred, gt, cfg.k, cfg.radius_floor)
    wm = build_weight_matrix(pred, gt, radii, cfg)
    values = wm.values

    if n <= m:
        perms = np.array(list(itertools.permutations(range(m), n)), dtype=np.int64)
        totals = values[np.arange(n)[None, :], perms].sum(axis=1)
        best = perms[int(np.argmax(totals))]
        pairs = [(i, int(best[i])) for i in range(n)]
    else:
        perms = np.array(list(itertools.permutations(range(n), m)), dtype=np.int64)
        totals = values[perms, np.arange(m)[None, :]].sum(axis=1)
        best = perms[int(np.argmax(totals))]
        pairs = sorted((int(best[j]), j) for j in range(m))
    return _assemble_solved(wm, pairs)


def _all_unmatched(n: int, m: int) -> MatchResult:
    return MatchResult(pairs=(), unmatched_pred=tuple(range(n)),
                       unmatched_gt=tuple(range(m)), total_weight=0.0)


def _gaussian(d: np.ndarray, rad, cfg: MatchConfig) -> np.ndarray:
    """Gaussian weights of distances ``d`` for radii ``rad`` (broadcast)."""
    sigma = cfg.sigma_value if cfg.sigma_mode is SigmaMode.FIXED else cfg.sigma_value * rad
    return np.exp(-(d * d) / (2.0 * sigma * sigma))


def _max_weight_matching(pi: np.ndarray, gj: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Edge indices of a maximum-weight matching of the bipartite edge
    graph (edge e joins prediction pi[e] and gt gj[e], weight w[e] > 0).

    Edges must be ordered by prediction, then gt. Each connected component
    is solved on its own; ties resolve as :func:`hungarian_solve` resolves
    them on the component's sub-matrix.
    """
    chosen: list[int] = []
    pl, gl, wl = pi.tolist(), gj.tolist(), w.tolist()
    for e in _components(pl, gl, n):
        ps, gs = [pl[k] for k in e], [gl[k] for k in e]
        rows, cols = sorted(set(ps)), sorted(set(gs))
        row_of = {v: a for a, v in enumerate(rows)}
        col_of = {v: a for a, v in enumerate(cols)}
        r, c = [row_of[v] for v in ps], [col_of[v] for v in gs]
        sub = np.zeros((len(rows), len(cols)))
        sub[r, c] = [wl[k] for k in e]
        edge_id = np.full(sub.shape, -1, dtype=np.int64)
        edge_id[r, c] = e
        ids = [int(edge_id[a, b]) for a, b in hungarian_solve(-sub).pairs]
        chosen.extend(k for k in ids if k >= 0)
    return np.array(chosen, dtype=np.int64)


def _components(pl: list[int], gl: list[int], n: int) -> list[list[int]]:
    """Edge indices grouped by connected component, each group in
    increasing order; edge k joins prediction pl[k] and gt gl[k].

    Union-find over prediction nodes 0..n-1 and gt nodes n..n+m-1.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = parent.setdefault(x, x)
        while root != parent[root]:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    for a, b in zip(pl, gl):
        ra, rb = find(a), find(b + n)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for k, a in enumerate(pl):
        groups.setdefault(find(a), []).append(k)
    return list(groups.values())


def _assemble_solved(wm: WeightMatrix, solver_pairs) -> MatchResult:
    """Result of a solve on the dense matrix: non-edge pairs are stripped."""
    ij = np.asarray(solver_pairs, dtype=np.int64).reshape(-1, 2)
    ij = ij[wm.in_radius[ij[:, 0], ij[:, 1]]]
    i, j = ij[:, 0], ij[:, 1]
    n, m = wm.values.shape
    return _assemble(i, j, wm.distances[i, j], wm.values[i, j], n, m)


def _assemble(pi: np.ndarray, gj: np.ndarray, dist: np.ndarray, weight: np.ndarray,
              n: int, m: int) -> MatchResult:
    """Result from the kept pairs, given as parallel arrays in any order."""
    order = np.argsort(pi, kind="stable")
    pi, gj, dist, weight = pi[order], gj[order], dist[order], weight[order]
    matched_pred = np.zeros(n, dtype=bool)
    matched_pred[pi] = True
    matched_gt = np.zeros(m, dtype=bool)
    matched_gt[gj] = True
    weights = weight.tolist()
    return MatchResult(
        pairs=tuple(map(MatchPair, pi.tolist(), gj.tolist(), dist.tolist(), weights)),
        unmatched_pred=tuple(np.flatnonzero(~matched_pred).tolist()),
        unmatched_gt=tuple(np.flatnonzero(~matched_gt).tolist()),
        total_weight=math.fsum(weights),
    )
