"""Density-adaptive bipartite point matching.

Pipeline: per-prediction adaptive radii (mean distance to the k nearest
ground-truth points) -> Gaussian weights of the pairs within each radius,
of a width scaled to that radius or fixed (the rule is :func:`_gaussian`)
-> exact Hungarian assignment maximizing total weight over those pairs.
A prediction can therefore only claim a ground-truth point inside its
own neighborhood scale, which is what prevents false matches in dense
regions while keeping sparse regions matchable.

Edge contract: pair (i, j) is an *edge* when gt j lies within radius_i
of prediction i and its Gaussian weight is positive (a weight that
underflows to 0.0 is not an edge). Only edges are ever returned, so
every returned weight lies in (0, 1].

That is the one out-of-radius rule: a non-edge weighs 0 and is never
returned, so only the edges matter. The matcher therefore never builds
the dense n x m problem. It takes the edges from the pass that finds
each prediction's k nearest: a radius is at most max(d_k, floor), and
a grid disc starts at the floor and completes a row only once it holds
the row's radius, so every edge lies in the full-scan block or grid disc
that set the radius. Matchers given their radii
(:func:`match_with_radii`, :func:`fixed_radius_match`) find the edges
with :func:`geometry.pairs_within`. Either way the matcher weights only
the edges and solves one assignment over the edge list
(:func:`assignment.max_weight_matching`), in which each prediction may
stay unmatched at cost 0 against -weight for an edge. Time and memory
follow the edges the augmenting paths touch, not the n x m cross
product. The dense :func:`build_weight_matrix` remains for the oracle
and as the reference the sparse path is tested against.

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

# Unused here; kept because perfbench's tracer wraps matching.hungarian_solve.
from .assignment import hungarian_solve, max_weight_matching
from .geometry import (
    _SCAN_BLOCK_CELLS,
    DEFAULT_K,
    DEFAULT_RADIUS_FLOOR,
    PointSet,
    RadiusProfile,
    _knn,
    _validate_floor,
    _validate_k,
    all_radii,
    pairs_within,
    pairwise_distances,
)

#: Default width factor for the radius-scaled Gaussian: sigma_i = 0.5 * radius_i.
DEFAULT_SIGMA_FACTOR = 0.5

#: The brute-force oracle enumerates at most BRUTE_FORCE_LIMIT! injective mappings.
BRUTE_FORCE_LIMIT = 10


class SigmaMode(Enum):
    """How the Gaussian decay width is chosen per prediction."""

    FIXED = "fixed"                  # sigma_value is the width in pixels
    RADIUS_SCALED = "radius_scaled"  # sigma_i = sigma_value * radius_i


@dataclass(frozen=True)
class MatchConfig:
    """Knobs of the adaptive matcher. Defaults follow the library-wide
    configuration: k = 5 neighbors, sigma_i = radius_i / 2, radius floor
    1e-3 px. Pairs beyond a prediction's radius are never edges."""

    k: int = DEFAULT_K
    sigma_mode: SigmaMode = SigmaMode.RADIUS_SCALED
    sigma_value: float = DEFAULT_SIGMA_FACTOR
    radius_floor: float = DEFAULT_RADIUS_FLOOR

    def __post_init__(self) -> None:
        _validate_k(self.k)
        if not (self.sigma_value > 0 and math.isfinite(self.sigma_value)):
            raise ValueError("invalid sigma")
        _validate_floor(self.radius_floor)


@dataclass(frozen=True)
class WeightMatrix:
    """Dense pairing weights plus the per-row admissibility mask.

    ``in_radius[i, j]`` marks the edges: pairs within prediction i's
    radius whose weight exp(-D_ij^2 / (2 sigma_i^2)) is positive.
    ``values[i, j]`` is that weight on edges and 0 elsewhere, strictly
    below every edge weight.
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
    cfg = MatchConfig(sigma_mode=SigmaMode.FIXED, sigma_value=sigma)
    if not math.isfinite(d):
        raise ValueError("distance must be finite")
    return float(_gaussian(np.float64(d), None, cfg))


def build_weight_matrix(pred: PointSet, gt: PointSet, radii: RadiusProfile,
                        cfg: MatchConfig) -> WeightMatrix:
    """Pairing weights of every prediction against every ground truth.

    ``radii`` must be aligned with ``pred`` (one radius per prediction).
    """
    rad = _aligned(radii, pred)[:, None]
    d = pairwise_distances(pred, gt)
    values = _gaussian(d, rad, cfg)
    in_radius = (d <= rad) & (values > 0.0)
    values = np.where(in_radius, values, 0.0)
    return WeightMatrix(values=values, in_radius=in_radius, distances=d)


def match_points(pred: PointSet, gt: PointSet, cfg: MatchConfig = MatchConfig()) -> MatchResult:
    """Match predictions to ground truth with density-adaptive radii.

    The assignment maximizes total weight over the edges (solved as a
    cost minimization on negated weights); a point on either side that
    no chosen edge covers is reported unmatched. Output is deterministic.
    Either set may be empty.
    """
    if len(gt) == 0:   # no nearest neighbours to find
        return _assemble(*[np.zeros(0, np.int64)] * 4, len(pred), 0)
    _, radii, edges = _knn(pred.coords, gt, cfg.k, cfg.radius_floor)
    return _solve_edges(*edges, radii, cfg, len(pred), len(gt))


def fixed_radius_match(pred: PointSet, gt: PointSet, radius: float,
                       cfg: MatchConfig = MatchConfig()) -> MatchResult:
    """Baseline matcher: one global radius for every prediction.

    Same weighting and edge rule as :func:`match_points`, with the
    adaptive profile replaced by a constant. Exists so the adaptive
    matcher can be compared against the fixed-threshold strategy it
    improves on.
    """
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    radii = RadiusProfile(np.full(len(pred), float(radius)), cfg.k)
    return match_with_radii(pred, gt, radii, cfg)


def match_with_radii(pred: PointSet, gt: PointSet, radii: RadiusProfile,
                     cfg: MatchConfig = MatchConfig()) -> MatchResult:
    """Match with an explicit radius profile (one radius per prediction).

    The in-radius edges are found by :func:`geometry.pairs_within` and
    solved by shortest augmenting paths over the edge list.
    """
    rad = _aligned(radii, pred)
    return _solve_edges(*pairs_within(pred, gt, rad), rad, cfg, len(pred), len(gt))


def _aligned(radii: RadiusProfile, pred: PointSet) -> np.ndarray:
    """The radii of ``radii``, checked to hold one per prediction of ``pred``."""
    if len(radii) != len(pred):
        raise ValueError(
            f"radius profile length {len(radii)} does not match predictions {len(pred)}")
    return radii.radii


def _solve_edges(pi: np.ndarray, gj: np.ndarray, d: np.ndarray, radii: np.ndarray,
                 cfg: MatchConfig, n: int, m: int) -> MatchResult:
    """Weights of the in-radius pairs (pi, gj, d), ordered by prediction
    then gt, one sparse solve over the edges, and the result."""
    w = _gaussian(d, radii[pi], cfg)
    edge = w > 0.0
    pi, gj, d, w = pi[edge], gj[edge], d[edge], w[edge]
    keep = max_weight_matching(pi, gj, w, n, m)
    return _assemble(pi[keep], gj[keep], d[keep], w[keep], n, m)


def brute_force_match(pred: PointSet, gt: PointSet, cfg: MatchConfig = MatchConfig(),
                      radii: Optional[RadiusProfile] = None) -> MatchResult:
    """Exhaustive-enumeration matcher, for verifying :func:`match_points`.

    Enumerates every injective mapping of the smaller side into the
    larger one, scores each with the same weight matrix the solver sees,
    and keeps the first maximizer in lexicographic enumeration order.
    Non-edges weigh 0 there and are stripped from the result, so it
    returns only edges, as the solver does.
    Mappings are scored in chunks of about ``geometry._SCAN_BLOCK_CELLS``
    entries, so memory stays bounded whatever the count.
    """
    n, m = len(pred), len(gt)
    # The first test only keeps the product math.perm takes short.
    if (min(n, m) > BRUTE_FORCE_LIMIT
            or math.perm(max(n, m), min(n, m)) > math.factorial(BRUTE_FORCE_LIMIT)):
        raise ValueError("oracle instance too large")
    if n == 0 or m == 0:
        return _assemble(*[np.zeros(0, np.int64)] * 4, n, m)
    if radii is None:
        radii = all_radii(pred, gt, cfg.k, cfg.radius_floor)
    wm = build_weight_matrix(pred, gt, radii, cfg)
    # Rows of ``side`` are the smaller side's points.
    side = wm.values if n <= m else wm.values.T
    small, large = side.shape
    mappings = itertools.permutations(range(large), small)
    best, best_total = None, -math.inf
    # Within a chunk argmax takes the first maximizer; a later chunk must beat it.
    while chunk := list(itertools.islice(mappings, _SCAN_BLOCK_CELLS // small)):
        perms = np.array(chunk, dtype=np.int64)
        totals = side[np.arange(small)[None, :], perms].sum(axis=1)
        k = int(np.argmax(totals))
        if totals[k] > best_total:
            best, best_total = perms[k], totals[k]
    chosen = np.zeros(side.shape, dtype=bool)
    chosen[np.arange(small), best] = True
    # Row-major nonzero hands the kept edges over in prediction order.
    i, j = np.nonzero((chosen if n <= m else chosen.T) & wm.in_radius)
    return _assemble(i, j, wm.distances[i, j], wm.values[i, j], n, m)


def _gaussian(d: np.ndarray, rad, cfg: MatchConfig) -> np.ndarray:
    """Gaussian weights exp(-d^2 / (2 sigma^2)) of distances ``d``, with the
    width sigma = ``cfg.sigma_value``, times the radius ``rad`` (broadcast
    against ``d``) under SigmaMode.RADIUS_SCALED.

    Where d^2 overflows, or 2 sigma^2 overflows or falls below the smallest
    normal float, that quotient would read inf/inf, 0/0 or a wrong 0 or 1,
    so those entries are computed as exp(-(d / sigma)^2 / 2) instead: an
    infinite width weighs 1, and so does distance 0. Nothing warns.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        sigma = cfg.sigma_value if cfg.sigma_mode is SigmaMode.FIXED else cfg.sigma_value * rad
        num, den = d * d, 2.0 * sigma * sigma
        w = np.exp(-num / den)
        off = np.isinf(num) | ~(np.isfinite(den) & (den >= np.finfo(np.float64).tiny))
        if np.any(off):
            ratio = np.where(d != 0, d / sigma, 0.0)
            w = np.where(off, np.exp(-0.5 * ratio * ratio), w)
    return w


def _assemble(pi: np.ndarray, gj: np.ndarray, dist: np.ndarray, weight: np.ndarray,
              n: int, m: int) -> MatchResult:
    """Result from the kept pairs, given as parallel arrays in ascending
    ``pi`` order, the order every solver returns them in."""
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
