"""Deterministic synthetic point scenes across density regimes.

Scenes reproduce the spread found in real cell-counting data: uniformly
scattered points, a dense grid-like cluster next to a sparse one (the
stress case for fixed-radius matchers), and a left-to-right density
gradient. Generation is a pure function of the configuration and seed.

Randomness comes from an explicitly specified generator so that test
vectors are portable across platforms and languages: SplitMix64
(Steele, Lea & Flood 2014) for the bit stream, 53-bit mantissa division
for uniforms, Box-Muller for normals, Knuth's product method (chunked)
for Poisson counts. No global RNG state is touched.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .geometry import PointLabel, PointSet

#: Gap between the dense and sparse blocks of a two-cluster scene, as a
#: fraction of the sparse spacing. Keeps the regimes adjacent enough that
#: a fixed global radius bridges them.
TWO_CLUSTER_GAP_FACTOR = 0.45


class Prng:
    """SplitMix64 stream with uniform, normal, and Poisson draws.

    The exact recipe (so it can be reproduced in any language):

    * state' = (state + 0x9E3779B97F4A7C15) mod 2^64; the output mixes
      state' via xor-shift-multiply with constants 0xBF58476D1CE4E5B9
      (shift 30), 0x94D049BB133111EB (shift 27), and a final shift 31.
    * uniform() = (next_u64() >> 11) * 2^-53, in [0, 1).
    * normal() draws Box-Muller pairs: r = sqrt(-2 ln u1) with the first
      nonzero u1, angle = 2 pi u2; returns r cos(angle) and caches
      r sin(angle) for the next call.
    * poisson(lam) runs Knuth's product method in chunks of rate <= 500
      to avoid exp underflow.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = int(seed) & self._MASK
        self._spare: Optional[float] = None

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def normal(self) -> float:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)

    def poisson(self, lam: float) -> int:
        if not (lam >= 0 and math.isfinite(lam)):
            raise ValueError("poisson rate must be non-negative and finite")
        total = 0
        remaining = lam
        while remaining > 0:
            chunk = min(remaining, 500.0)
            remaining -= chunk
            limit = math.exp(-chunk)
            k = 0
            p = 1.0
            while True:
                k += 1
                p *= self.uniform()
                if p <= limit:
                    break
            total += k - 1
        return total


class DensityProfile(Enum):
    UNIFORM = "uniform"
    TWO_CLUSTER = "two_cluster"
    GRADIENT = "gradient"


@dataclass(frozen=True)
class SceneConfig:
    """Scene geometry and sampling parameters."""

    width: int
    height: int
    n_points: int
    profile: DensityProfile = DensityProfile.UNIFORM
    spacing_dense: float = 1.0
    spacing_sparse: float = 20.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(1 <= s <= sys.float_info.max for s in (self.width, self.height)):
            raise ValueError("scene dimensions must be positive and within the float range")
        if self.n_points < 0:
            raise ValueError("n_points must be non-negative")
        if not (self.jitter >= 0 and math.isfinite(self.jitter)):
            raise ValueError("jitter must be non-negative and finite")
        if not all(s > 0 and math.isfinite(s) for s in (self.spacing_dense, self.spacing_sparse)):
            raise ValueError("spacings must be positive and finite")


@dataclass(frozen=True)
class TwoClusterLayout:
    """Derived geometry of a two-cluster scene.

    The dense block occupies columns left of ``midline_x``, the sparse
    block lies to the right; the first ``n_dense`` generated points are
    the dense block, row-major, followed by the sparse block row-major.
    """

    n_dense: int
    n_sparse: int
    dense_origin: tuple[float, float]
    sparse_origin: tuple[float, float]
    dense_cols: int
    sparse_cols: int
    midline_x: float


def _grid_shape(n: int) -> tuple[int, int]:
    cols = max(1, math.ceil(math.sqrt(n)))
    rows = max(1, math.ceil(n / cols))
    return cols, rows


def two_cluster_layout(cfg: SceneConfig) -> TwoClusterLayout:
    """Block placement for a two-cluster scene; raises if it cannot fit."""
    n_dense = (cfg.n_points + 1) // 2
    n_sparse = cfg.n_points - n_dense
    margin = max(1.0, cfg.jitter)
    dcols, drows = _grid_shape(max(n_dense, 1))
    scols, srows = _grid_shape(max(n_sparse, 1))
    dense_w = (dcols - 1) * cfg.spacing_dense
    dense_h = (drows - 1) * cfg.spacing_dense
    sparse_w = (scols - 1) * cfg.spacing_sparse
    sparse_h = (srows - 1) * cfg.spacing_sparse
    gap = TWO_CLUSTER_GAP_FACTOR * cfg.spacing_sparse
    total_w = margin + dense_w + gap + sparse_w + margin
    total_h = margin + max(dense_h, sparse_h) + margin
    if total_w > cfg.width or total_h > cfg.height:
        raise ValueError(
            f"infeasible packing: two-cluster scene needs {total_w:.1f} x {total_h:.1f}, "
            f"scene is {cfg.width} x {cfg.height}")
    dense_origin = (margin, margin)
    sparse_origin = (margin + dense_w + gap, margin)
    midline = margin + dense_w + 0.5 * gap
    return TwoClusterLayout(n_dense=n_dense, n_sparse=n_sparse,
                            dense_origin=dense_origin, sparse_origin=sparse_origin,
                            dense_cols=dcols, sparse_cols=scols, midline_x=midline)


def sample_points(cfg: SceneConfig) -> PointSet:
    """Generate a scene; identical configuration yields identical points."""
    rng = Prng(cfg.seed)
    pts: list[tuple[float, float]] = []
    if cfg.profile is DensityProfile.UNIFORM:
        for _ in range(cfg.n_points):
            pts.append((rng.uniform() * cfg.width, rng.uniform() * cfg.height))
    elif cfg.profile is DensityProfile.GRADIENT:
        # Linear density in x: inverse-CDF sampling via sqrt.
        for _ in range(cfg.n_points):
            pts.append((cfg.width * math.sqrt(rng.uniform()), rng.uniform() * cfg.height))
    else:
        layout = two_cluster_layout(cfg)
        blocks = (
            (layout.n_dense, layout.dense_origin, layout.dense_cols, cfg.spacing_dense),
            (layout.n_sparse, layout.sparse_origin, layout.sparse_cols, cfg.spacing_sparse),
        )
        for count, origin, cols, spacing in blocks:
            for i in range(count):
                x = origin[0] + (i % cols) * spacing
                y = origin[1] + (i // cols) * spacing
                if cfg.jitter > 0:
                    x += rng.uniform_in(-cfg.jitter, cfg.jitter)
                    y += rng.uniform_in(-cfg.jitter, cfg.jitter)
                pts.append((x, y))
    top = _upper_bounds(cfg.width, cfg.height)
    return PointSet([_clamp(x, y, top) for x, y in pts], label=PointLabel.GROUND_TRUTH)


def _upper_bounds(width: float, height: float) -> tuple[float, float]:
    """Largest coordinates strictly inside a width x height scene."""
    return math.nextafter(float(width), 0.0), math.nextafter(float(height), 0.0)


def _clamp(x: float, y: float, top: tuple[float, float]) -> tuple[float, float]:
    return (min(max(x, 0.0), top[0]), min(max(y, 0.0), top[1]))


def perturb_points(points: PointSet, drop_rate: float, spurious_rate: float = 0.0,
                   noise_sigma: float = 0.0, seed: int = 0,
                   bounds: Optional[tuple[float, float]] = None) -> PointSet:
    """Simulate imperfect predictions from a ground-truth scene.

    Each point is independently dropped with probability ``drop_rate``,
    survivors are jittered with isotropic Gaussian noise of standard
    deviation ``noise_sigma``, and Poisson(spurious_rate * n) spurious
    points are appended, drawn uniformly over ``bounds`` (width, height)
    or, if bounds are omitted, over the input's bounding box. With
    explicit bounds, which must be a valid :class:`SceneConfig` size, the
    survivors are also clamped inside them.

    Survivors keep their input order (so index i of the output maps to
    the i-th surviving source point), spurious points follow.
    """
    if not (0.0 <= drop_rate <= 1.0):
        raise ValueError("drop_rate must lie in [0, 1]")
    for name, value in (("spurious_rate", spurious_rate), ("noise_sigma", noise_sigma)):
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be non-negative and finite, got {value}")
    if bounds is not None:
        SceneConfig(width=bounds[0], height=bounds[1], n_points=0)   # the scene size rule
        top = _upper_bounds(bounds[0], bounds[1])
    rng = Prng(seed)
    out: list[tuple[float, float]] = []
    for x, y in points.coords.tolist():
        if rng.uniform() < drop_rate:
            continue
        if noise_sigma > 0:
            x = x + noise_sigma * rng.normal()
            y = y + noise_sigma * rng.normal()
        if bounds is not None:
            x, y = _clamp(x, y, top)
        out.append((x, y))
    n_spurious = rng.poisson(spurious_rate * len(points))
    if n_spurious:
        # A positive count implies a non-empty input, so the bounding-box
        # fallback is always available.
        if bounds is not None:
            x0, y0, x1, y1 = 0.0, 0.0, float(bounds[0]), float(bounds[1])
        else:
            x0, y0 = points.coords.min(axis=0)
            x1, y1 = points.coords.max(axis=0)
        for _ in range(n_spurious):
            out.append((rng.uniform_in(x0, x1), rng.uniform_in(y0, y1)))
    return PointSet(out, label=PointLabel.PREDICTED)


def sample_separated(n: int, width: float, height: float, min_separation: float,
                     margin: float = 0.0, seed: int = 0,
                     max_attempts_per_point: int = 2000) -> PointSet:
    """Dart-throwing sampler: n points pairwise >= min_separation apart.

    All points stay at least ``margin`` away from the scene borders;
    ``width``, ``height`` and ``margin`` must be finite. A
    ``min_separation`` <= 0 accepts every candidate. Raises when the
    requested packing cannot be met within the attempt budget.

    Placed points are kept in a background grid (Bridson 2007) of cells
    of side at least ``min_separation / sqrt(2)``, so a candidate is
    compared only with the points of the 5 x 5 block of cells around its
    own: every point closer than ``min_separation`` lies in that block.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not all(math.isfinite(v) for v in (width, height, margin)):
        raise ValueError(
            f"width, height and margin must be finite, got {width}, {height}, {margin}")
    if width - 2 * margin <= 0 or height - 2 * margin <= 0:
        raise ValueError("margin leaves no usable area")
    if math.isnan(min_separation):
        raise ValueError("min_separation must not be NaN")
    # Any cell of at least min_separation / sqrt(2) keeps the 5 x 5 search
    # exact; the second bound keeps x / cell finite for a subnormal one.
    cell = max(min_separation / math.sqrt(2), max(width, height) * 2.0 ** -52)
    # Squares are compared in units of 2**-shift, which bring the cell to
    # [0.5, 1): exact, and finite for separations and spans up to the
    # float maximum.
    shift = -math.frexp(cell)[1]
    sep2 = math.ldexp(min_separation, shift) ** 2
    grid: dict[tuple[int, int], list[tuple[float, float]]] = {}
    rng = Prng(seed)
    placed: list[tuple[float, float]] = []
    for _ in range(n):
        for attempt in range(max_attempts_per_point):
            x = rng.uniform_in(margin, width - margin)
            y = rng.uniform_in(margin, height - margin)
            if min_separation > 0:
                i, j = math.floor(x / cell), math.floor(y / cell)
                xs, ys = math.ldexp(x, shift), math.ldexp(y, shift)
                if not all((xs - px) ** 2 + (ys - py) ** 2 >= sep2
                           for a in range(i - 2, i + 3) for b in range(j - 2, j + 3)
                           for px, py in grid.get((a, b), ())):
                    continue
                grid.setdefault((i, j), []).append((xs, ys))
            placed.append((x, y))
            break
        else:
            raise ValueError(
                f"infeasible packing: placed {len(placed)} of {n} points at "
                f"separation {min_separation}")
    return PointSet(placed, label=PointLabel.GROUND_TRUTH)
