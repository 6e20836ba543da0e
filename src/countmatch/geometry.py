"""2-D point primitives, exact neighbor queries, and adaptive radii.

Coordinates follow the image convention (x grows rightward, y grows
downward, units are pixels). Two queries are provided: the k nearest
targets of a point, and every target within a per-query radius (the
edges of the matcher). Both take whole batches of queries. Below
``GRID_BACKEND_THRESHOLD`` targets they scan every target in bounded
blocks; at or above it they ask a uniform-grid index whose one query is
a batched disc query, and k-NN becomes disc queries whose radius doubles
until each holds k targets. Every query here is exact: the grid returns
the same distances as a full scan, it only prunes the candidate set.

The adaptive radius of a query point is the mean of its distances to the
k nearest target points, clamped below by a configurable floor. It
contracts where targets are dense and expands where they are sparse,
which is what makes radius-restricted matching density-aware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

#: Default neighbor count for adaptive radii.
DEFAULT_K = 5

#: Default lower bound on adaptive radii, in pixels. Keeps a prediction
#: sitting exactly on its only neighbor matchable (a zero radius would
#: exclude the point itself).
DEFAULT_RADIUS_FLOOR = 1e-3

#: Target-set size at which k-NN and range queries switch from a full
#: scan to the uniform-grid index.
GRID_BACKEND_THRESHOLD = 256


class PointLabel(Enum):
    """Provenance tag for a point set."""

    PREDICTED = "predicted"
    GROUND_TRUTH = "ground_truth"
    UNLABELED = "unlabeled"


@dataclass(frozen=True)
class Point:
    """A finite 2-D point in pixel coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        return float(np.hypot(self.x - other.x, self.y - other.y))


PointLike = Union[Point, Sequence[float]]


class PointSet:
    """Ordered, immutable collection of finite 2-D points.

    Order is significant: matching results refer to points by their index
    in the set. Coordinates are stored as a read-only (n, 2) float64 array
    available through :attr:`coords`.
    """

    __slots__ = ("_coords", "_label", "_grid")

    def __init__(self, points: Iterable[PointLike] = (), label: PointLabel = PointLabel.UNLABELED):
        rows = []
        for p in points:
            if isinstance(p, Point):
                rows.append((p.x, p.y))
            else:
                x, y = p
                rows.append((float(x), float(y)))
        self._freeze(np.asarray(rows, dtype=np.float64).reshape(-1, 2), label)

    @classmethod
    def from_coords(cls, coords: np.ndarray, label: PointLabel = PointLabel.UNLABELED) -> "PointSet":
        """Build a set directly from an (n, 2) array (copied)."""
        ps = cls.__new__(cls)
        ps._freeze(np.array(coords, dtype=np.float64).reshape(-1, 2), label)
        return ps

    def _freeze(self, coords: np.ndarray, label: PointLabel) -> None:
        if coords.size and not np.all(np.isfinite(coords)):
            bad = np.nonzero(~np.isfinite(coords).all(axis=1))[0].tolist()
            raise ValueError(f"non-finite coordinates at indices {bad}")
        coords.setflags(write=False)
        self._coords = coords
        self._label = label
        self._grid = None

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def label(self) -> PointLabel:
        return self._label

    def __len__(self) -> int:
        return self._coords.shape[0]

    def __getitem__(self, i: int) -> Point:
        x, y = self._coords[i]
        return Point(float(x), float(y))

    def __iter__(self) -> Iterator[Point]:
        for x, y in self._coords:
            yield Point(float(x), float(y))

    def __repr__(self) -> str:
        return f"PointSet(n={len(self)}, label={self._label.value})"

    def _index(self) -> "_UniformGrid":
        # Lazily built and cached; the set is immutable so this is safe to
        # race (worst case the grid is built twice).
        if self._grid is None:
            self._grid = _UniformGrid(self._coords)
        return self._grid


@dataclass(frozen=True)
class RadiusProfile:
    """Per-query adaptive radii, aligned with the prediction set."""

    radii: np.ndarray
    k: int

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=np.float64)
        radii.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        if self.k < 1:
            raise ValueError("invalid k")
        if radii.size and (not np.all(np.isfinite(radii)) or np.any(radii < 0)):
            raise ValueError("radii must be finite and non-negative")

    def __len__(self) -> int:
        return self.radii.shape[0]


class _UniformGrid:
    """Uniform-grid spatial index over a fixed point cloud.

    Cell size is chosen so the expected bucket occupancy is O(1). Point
    indices are stored sorted by cell (column-major: cell id = ix * ny +
    iy), so the cells of one grid column over a row range are one
    contiguous slice of ``order``; ``counts`` is a summed-area table of
    the cell occupancies. The one query, :meth:`within`, takes a whole
    batch of discs and visits, for each, only the cells of its bounding
    box that lie inside the grid: a query far outside the cloud costs no
    more than one next to it.
    """

    __slots__ = ("coords", "origin", "top", "cell", "shape", "order", "starts", "counts")

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        n = coords.shape[0]
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        # Halved, so the extent of any finite cloud is finite.
        half_extent = float(max(hi / 2 - lo / 2))
        ncells = max(1, int(math.sqrt(n)))
        self.cell = half_extent / ncells * 2 if half_extent > 0 else 1.0
        self.origin, self.top = lo, hi
        ij = np.floor(self._cells(coords)).astype(np.int64)
        nx = int(ij[:, 0].max()) + 1
        ny = int(ij[:, 1].max()) + 1
        self.shape = (nx, ny)
        cell_id = ij[:, 0] * ny + ij[:, 1]
        self.order = np.argsort(cell_id, kind="stable")
        per_cell = np.bincount(cell_id, minlength=nx * ny)
        self.starts = np.concatenate(([0], np.cumsum(per_cell)))
        self.counts = np.zeros((nx + 1, ny + 1), dtype=np.int64)
        self.counts[1:, 1:] = per_cell.reshape(nx, ny).cumsum(axis=0).cumsum(axis=1)

    def _cells(self, xy: np.ndarray) -> np.ndarray:
        """Grid coordinates, in cells, of the points ``xy``.

        Computed on halved coordinates, so the difference to the origin
        stays finite for any finite ``xy``. The map is monotone, which is
        all the disc queries need, and the constructor uses it too.
        """
        return (xy / 2 - self.origin / 2) / (self.cell / 2)

    def within(self, queries: np.ndarray,
               radii: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
        """Points at distance <= radii[i] from queries[i], for every i.

        Yields ``(chunk, qi, ti, d)`` for consecutive slices ``chunk`` of
        the queries: query indices (non-decreasing, inside ``chunk``),
        point indices (in no set order within a query) and distances. A
        chunk gathers at most ``_SCAN_BLOCK_CELLS`` candidate points and
        box columns, unless one query alone needs more.
        """
        # Widen each box by a few ulps so rounding in q -/+ r cannot drop
        # a point lying exactly on the disc's edge. Cell indices are
        # clipped to the grid before the integer cast, so far queries
        # neither overflow it nor visit empty cells.
        reach = (radii + 1e-12 * (np.abs(queries).sum(axis=1) + radii))[:, None]
        lo = np.clip(np.floor(self._cells(queries - reach)), 0, self.shape).astype(np.int64)
        hi = np.clip(np.floor(self._cells(queries + reach)) + 1, 0, self.shape).astype(np.int64)
        ncols = np.where(hi[:, 1] > lo[:, 1], hi[:, 0] - lo[:, 0], 0)
        c = self.counts
        boxed = c[hi[:, 0], hi[:, 1]] - c[lo[:, 0], hi[:, 1]] - c[hi[:, 0], lo[:, 1]] \
            + c[lo[:, 0], lo[:, 1]]
        cost = np.cumsum(boxed + ncols)
        ny = self.shape[1]
        s = 0
        while s < len(queries):
            spent = cost[s - 1] if s else 0
            e = max(int(np.searchsorted(cost, spent + _SCAN_BLOCK_CELLS, side="right")), s + 1)
            cols = np.repeat(np.arange(s, e), ncols[s:e])
            ix = _ranges(lo[s:e, 0], ncols[s:e]) * ny
            first = self.starts[ix + lo[cols, 1]]
            lens = self.starts[ix + hi[cols, 1]] - first
            ti = self.order[_ranges(first, lens)]
            qi = np.repeat(cols, lens)
            pts, q = self.coords[ti], queries[qi]
            d = np.hypot(pts[:, 0] - q[:, 0], pts[:, 1] - q[:, 1])
            keep = d <= radii[qi]
            yield slice(s, e), qi[keep], ti[keep], d[keep]
            s = e


def _ranges(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(f, f + n)`` over the pairs (f, n)."""
    ends = np.cumsum(length)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(first - ends + length, length) + np.arange(total)


def _as_query(p: PointLike) -> np.ndarray:
    if isinstance(p, Point):
        return np.array([p.x, p.y], dtype=np.float64)
    q = np.asarray(p, dtype=np.float64).reshape(2)
    if not np.all(np.isfinite(q)):
        raise ValueError("query point must be finite")
    return q


def knn_distances(query: PointLike, targets: PointSet, k: int) -> np.ndarray:
    """Distances from ``query`` to its k nearest points of ``targets``.

    Parameters
    ----------
    query : Point or (x, y)
    targets : PointSet
        Must be non-empty.
    k : int
        Number of neighbors requested; clamped to ``len(targets)``.

    Returns
    -------
    numpy.ndarray
        ``min(k, len(targets))`` Euclidean distances in non-decreasing
        order. This is a prefix of the fully sorted distance list.
    """
    return _knn(_as_query(query)[None, :], targets, k)[0]


def adaptive_radius(p: PointLike, gt: PointSet, k: int = DEFAULT_K,
                    floor: float = DEFAULT_RADIUS_FLOOR) -> float:
    """Mean distance to the k nearest ground-truth points, floored.

    When ``k`` exceeds the number of available targets the mean is taken
    over all of them; the result is never below ``floor``.
    """
    if not (floor > 0 and math.isfinite(floor)):
        raise ValueError("radius floor must be positive and finite")
    d = knn_distances(p, gt, k)
    return max(float(d.mean()), floor)


#: Cell budget of one block of a full scan: query rows are scanned in
#: blocks of at most this many query-target pairs.
_SCAN_BLOCK_CELLS = 1 << 16


def _scan_blocks(queries: np.ndarray, targets: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Full-scan distances, one block of query rows at a time.

    Yields ``(s, d)`` where ``d[a, j]`` is the distance from query
    ``s + a`` to target ``j``, bit-identical to
    :func:`pairwise_distances`. A block holds at most
    ``_SCAN_BLOCK_CELLS`` pairs (at least one row).
    """
    rows = max(1, _SCAN_BLOCK_CELLS // max(len(targets), 1))
    for s in range(0, len(queries), rows):
        diff = queries[s:s + rows, None, :] - targets[None, :, :]
        yield s, np.hypot(diff[..., 0], diff[..., 1])


def _knn(queries: np.ndarray, targets: PointSet, k: int) -> np.ndarray:
    """Row i: the ``min(k, len(targets))`` smallest distances from
    ``queries[i]`` to ``targets``, in non-decreasing order.

    Below ``GRID_BACKEND_THRESHOLD`` targets the queries are scanned
    against every target in bounded blocks. At or above it each query
    asks the grid for a disc that starts at the distance to the cloud's
    bounding box plus two cells and doubles until it holds k targets; a
    disc holding k targets contains the k nearest, so the result is
    exact. Memory is O(len(queries) * k + block).
    """
    if k < 1:
        raise ValueError("invalid k")
    m = len(targets)
    if m == 0:
        raise ValueError("no ground truth: target set is empty")
    kk = min(k, m)
    out = np.empty((len(queries), kk), dtype=np.float64)
    if m < GRID_BACKEND_THRESHOLD:
        for s, d in _scan_blocks(queries, targets.coords):
            out[s:s + len(d)] = np.sort(np.partition(d, kk - 1, axis=1)[:, :kk], axis=1)
        return out
    grid = targets._index()
    gap = np.maximum(np.maximum(grid.origin - queries, queries - grid.top), 0)
    radii = np.hypot(gap[:, 0], gap[:, 1]) + 2 * grid.cell
    todo = np.arange(len(queries))
    while todo.size:
        short = [todo[:0]]
        for chunk, qi, _, d in grid.within(queries[todo], radii[todo]):
            counts = np.bincount(qi - chunk.start, minlength=chunk.stop - chunk.start)
            d = d[np.lexsort((d, qi))]
            full = counts >= kk
            first = (np.cumsum(counts) - counts)[full]
            rows = todo[chunk]
            out[rows[full]] = d[first[:, None] + np.arange(kk)]
            short.append(rows[~full])
        todo = np.concatenate(short)
        radii[todo] *= 2
    return out


def all_radii(pred: PointSet, gt: PointSet, k: int = DEFAULT_K,
              floor: float = DEFAULT_RADIUS_FLOOR) -> RadiusProfile:
    """Adaptive radius of every prediction against one ground-truth set.

    The k nearest distances come from one batched query (full scan below
    ``GRID_BACKEND_THRESHOLD`` targets, uniform grid at or above it).
    Memory is O(len(pred) * k + block), never O(len(pred) * len(gt)).
    """
    if not (floor > 0 and math.isfinite(floor)):
        raise ValueError("radius floor must be positive and finite")
    nearest = _knn(pred.coords, gt, k)
    return RadiusProfile(np.maximum(nearest.mean(axis=1), floor), k)


def pairwise_distances(a: PointSet, b: PointSet) -> np.ndarray:
    """Dense (len(a), len(b)) Euclidean distance matrix."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)), dtype=np.float64)
    diff = a.coords[:, None, :] - b.coords[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def pairs_within(queries: PointSet, targets: PointSet,
                 radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (query, target) pair at distance <= the query's radius.

    Returns ``(qi, ti, d)``: query indices, target indices and distances,
    ordered by query index, then target index. Distances are bit-identical
    to :func:`pairwise_distances`. Below ``GRID_BACKEND_THRESHOLD``
    targets the queries are scanned against every target in bounded
    blocks; at or above it they go to the uniform grid in one batch.
    Memory is O(pairs found + block), never O(len(queries) * len(targets)).
    """
    radii = np.asarray(radii, dtype=np.float64)
    n, m = len(queries), len(targets)
    if radii.shape != (n,):
        raise ValueError(f"radius count {radii.shape} does not match queries {n}")
    if n and not (np.all(np.isfinite(radii)) and radii.min() >= 0):
        raise ValueError("radii must be finite and non-negative")
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
              np.empty(0, dtype=np.float64))]
    qc, tc = queries.coords, targets.coords
    if m < GRID_BACKEND_THRESHOLD:
        for s, d in _scan_blocks(qc, tc):
            qi, ti = np.nonzero(d <= radii[s:s + len(d), None])
            parts.append((qi + s, ti, d[qi, ti]))
    else:
        for _, qi, ti, d in targets._index().within(qc, radii):
            order = np.lexsort((ti, qi))
            parts.append((qi[order], ti[order], d[order]))
    return tuple(np.concatenate(col) for col in zip(*parts))
