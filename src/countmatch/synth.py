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

SplitMix64 is a counter: its i-th state after s is s + i * gamma mod
2^64. So :func:`sample_points` and :func:`perturb_points` draw their
uniforms in numpy blocks, and every point keeps the bits that one
:class:`Prng` call per value gives. A perturbation's drop draws and
Box-Muller pairs are read in one loop over the block, as their stream
positions depend on which points survive; Box-Muller's logarithm, cosine
and sine stay ``math`` functions, applied per value, and Poisson's
products are ``np.cumprod`` runs, left to right as the scalar loop
multiplies. :func:`sample_separated` stays scalar: whether it draws
again depends on the points it has placed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import numpy as np

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

    def _uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` values of :meth:`uniform` as a float64 array;
        the state advances as ``count`` calls would. The recipe of
        :meth:`next_u64` on uint64 arrays, whose arithmetic wraps mod 2^64
        without a warning."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += np.uint64(self._state)
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(factor)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * 0x9E3779B97F4A7C15) & self._MASK
        return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

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
        total = 0
        for chunk in _poisson_chunks(lam):
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


def _poisson_chunks(lam: float) -> Iterator[float]:
    """The rates, each at most 500, that Knuth's product method splits
    ``lam`` into, so that ``exp(-rate)`` does not underflow."""
    if not (lam >= 0 and math.isfinite(lam)):
        raise ValueError("poisson rate must be non-negative and finite")
    remaining = lam
    while remaining > 0:
        chunk = min(remaining, 500.0)
        remaining -= chunk
        yield chunk


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
    size = (float(cfg.width), float(cfg.height))
    if cfg.profile is DensityProfile.UNIFORM:
        coords = rng._uniforms(2 * cfg.n_points).reshape(-1, 2) * size
    elif cfg.profile is DensityProfile.GRADIENT:
        # Linear density in x: inverse-CDF sampling via sqrt.
        u = rng._uniforms(2 * cfg.n_points).reshape(-1, 2)
        coords = np.stack([size[0] * np.sqrt(u[:, 0]), u[:, 1] * size[1]], axis=1)
    else:
        layout = two_cluster_layout(cfg)
        blocks = (
            (layout.n_dense, layout.dense_origin, layout.dense_cols, cfg.spacing_dense),
            (layout.n_sparse, layout.sparse_origin, layout.sparse_cols, cfg.spacing_sparse),
        )
        lattice = []
        for count, origin, cols, spacing in blocks:
            i = np.arange(count)
            lattice.append(np.stack([origin[0] + (i % cols) * spacing,
                                     origin[1] + (i // cols) * spacing], axis=1))
        coords = np.concatenate(lattice)
        if cfg.jitter > 0:
            # Each point's x draw, then its y draw: Prng.uniform_in(-jitter, jitter).
            lo, hi = -cfg.jitter, cfg.jitter
            coords = coords + (lo + (hi - lo) * rng._uniforms(2 * cfg.n_points).reshape(-1, 2))
    top = _upper_bounds(cfg.width, cfg.height)
    return PointSet.from_coords(_clamp(coords, top), label=PointLabel.GROUND_TRUTH)


def _upper_bounds(width: float, height: float) -> tuple[float, float]:
    """Largest coordinates strictly inside a width x height scene."""
    return math.nextafter(float(width), 0.0), math.nextafter(float(height), 0.0)


def _clamp(coords: np.ndarray, top: tuple[float, float]) -> np.ndarray:
    """``min(max(v, 0.0), top)`` of each coordinate, as Python takes it: a
    -0.0 stays -0.0, where ``np.maximum(v, 0.0)`` returns 0.0."""
    return np.where(coords < 0.0, 0.0, np.where(coords > top, top, coords))


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
    n = len(points)
    noisy = noise_sigma > 0
    # Each point's drop draw, then a survivor's Box-Muller pair (u1, u2)
    # if there is noise. A u1 of 0 is drawn again, so each 0 in the block
    # may cost one more value.
    u = rng._uniforms(3 * n if noisy else n)
    zeros = int(np.count_nonzero(u == 0.0)) if noisy else 0
    while zeros:
        more = rng._uniforms(zeros)
        u = np.concatenate((u, more))
        zeros = int(np.count_nonzero(more == 0.0))
    draws = u.tolist()
    keep: list[int] = []
    pairs: list[int] = []   # stream position of each survivor's u1
    at = 0
    for i in range(n):
        at += 1
        if draws[at - 1] < drop_rate:
            continue
        keep.append(i)
        if noisy:
            while draws[at] <= 0.0:
                at += 1
            pairs.append(at)
            at += 2
    coords = points.coords[keep]
    if noisy:
        first = np.array(pairs, dtype=np.intp)
        logs = np.fromiter(map(math.log, u[first].tolist()), np.float64, len(pairs))
        angles = ((2.0 * math.pi) * u[first + 1]).tolist()
        unit = np.stack([np.fromiter(map(f, angles), np.float64, len(pairs))
                         for f in (math.cos, math.sin)], axis=1)
        coords = coords + noise_sigma * (np.sqrt(-2.0 * logs)[:, None] * unit)
    if bounds is not None:
        coords = _clamp(coords, top)
    n_spurious, rest = _poisson(spurious_rate * n, u[at:], rng)
    if n_spurious:
        # A positive count implies a non-empty input, so the bounding-box
        # fallback is always available.
        if bounds is not None:
            lo, hi = np.zeros(2), np.array(bounds, dtype=np.float64)
        else:
            lo, hi = points.coords.min(axis=0), points.coords.max(axis=0)
        if rest.size < 2 * n_spurious:
            rest = np.concatenate((rest, rng._uniforms(2 * n_spurious - rest.size)))
        spurious = lo + (hi - lo) * rest[:2 * n_spurious].reshape(-1, 2)
        coords = np.concatenate((coords, spurious))
    return PointSet.from_coords(coords, label=PointLabel.PREDICTED)


def _poisson(lam: float, rest: np.ndarray, rng: Prng) -> tuple[int, np.ndarray]:
    """``Prng.poisson(lam)`` on the stream that reads ``rest``, then
    ``rng``. Each run of products is one ``np.cumprod``, which multiplies
    left to right as the scalar loop does. Returns the count and the
    values of ``rest`` left unread."""
    total = 0
    for chunk in _poisson_chunks(lam):
        limit = math.exp(-chunk)
        size = 2 * math.ceil(chunk) + 2   # about twice the expected draws
        k, p = 0, 1.0
        while True:
            if not rest.size:
                rest = rng._uniforms(size)
            products = np.cumprod(np.concatenate(([p], rest[:size])))[1:]
            hit = np.flatnonzero(products <= limit)
            used = int(hit[0]) + 1 if hit.size else products.size
            k += used
            rest = rest[used:]
            if hit.size:
                break
            p = products[-1]
        total += k - 1
    return total, rest


def sample_separated(n: int, width: float, height: float, min_separation: float,
                     margin: float = 0.0, seed: int = 0,
                     max_attempts_per_point: int = 2000) -> PointSet:
    """Dart-throwing sampler: n points pairwise >= min_separation apart.

    All points stay at least ``margin`` away from the scene borders;
    ``width``, ``height`` and ``margin`` must be finite, and ``margin``
    non-negative. A
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
    if margin < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")
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
