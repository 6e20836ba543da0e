"""2-D point primitives, exact neighbor queries, and adaptive radii.

Coordinates follow the image convention (x grows rightward, y grows
downward, units are pixels). Two queries are provided: the k nearest
targets of a point, and every target within a per-query radius (the
edges of the matcher). Every query here is exact: the uniform-grid index
used for large target sets returns the same distances as a full scan,
it only prunes the candidate set.

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
        coords = np.asarray(rows, dtype=np.float64).reshape(-1, 2)
        if coords.size and not np.all(np.isfinite(coords)):
            bad = np.nonzero(~np.isfinite(coords).all(axis=1))[0].tolist()
            raise ValueError(f"non-finite coordinates at indices {bad}")
        coords.setflags(write=False)
        self._coords = coords
        self._label = label
        self._grid = None

    @classmethod
    def from_coords(cls, coords: np.ndarray, label: PointLabel = PointLabel.UNLABELED) -> "PointSet":
        """Build a set directly from an (n, 2) array (copied)."""
        arr = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
        ps = cls.__new__(cls)
        arr = arr.copy()
        if arr.size and not np.all(np.isfinite(arr)):
            bad = np.nonzero(~np.isfinite(arr).all(axis=1))[0].tolist()
            raise ValueError(f"non-finite coordinates at indices {bad}")
        arr.setflags(write=False)
        ps._coords = arr
        ps._label = label
        ps._grid = None
        return ps

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
    contiguous slice of ``order``. Queries visit only cells inside the
    grid: a query far outside the cloud costs no more than one next to it.

    ``knn`` expands Chebyshev rings of cells around the query's cell,
    starting at the first ring that touches the grid; a ring bound
    guarantees exactness: once the current k-th best distance is at most
    ``r * cell`` every unvisited point (Chebyshev cell distance > r) is
    too far to matter. ``within`` scans the cells of the query disc's
    bounding box.
    """

    __slots__ = ("coords", "origin", "cell", "shape", "order", "starts")

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        n = coords.shape[0]
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        extent = float(max(hi[0] - lo[0], hi[1] - lo[1]))
        ncells = max(1, int(math.sqrt(n)))
        self.cell = extent / ncells if extent > 0 else 1.0
        self.origin = lo
        ij = np.floor((coords - lo) / self.cell).astype(np.int64)
        nx = int(ij[:, 0].max()) + 1
        ny = int(ij[:, 1].max()) + 1
        self.shape = (nx, ny)
        cell_id = ij[:, 0] * ny + ij[:, 1]
        self.order = np.argsort(cell_id, kind="stable")
        self.starts = np.concatenate(
            ([0], np.cumsum(np.bincount(cell_id, minlength=nx * ny))))

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor((x - self.origin[0]) / self.cell)),
                int(math.floor((y - self.origin[1]) / self.cell)))

    def _gather(self, spans: list[tuple[int, int, int]]) -> np.ndarray:
        """Point indices in the column spans (ix, iy0, iy1), bounds inclusive."""
        ny = self.shape[1]
        starts = self.starts
        parts = [self.order[starts[ix * ny + y0]:starts[ix * ny + y1 + 1]]
                 for ix, y0, y1 in spans]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def _ring_spans(self, cx: int, cy: int, r: int) -> list[tuple[int, int, int]]:
        """Column spans of the cells at Chebyshev distance r from (cx, cy),
        clipped to the grid."""
        nx, ny = self.shape
        y0, y1 = max(cy - r, 0), min(cy + r, ny - 1)
        if y0 > y1:
            return []
        spans = []
        for ix in range(max(cx - r, 0), min(cx + r, nx - 1) + 1):
            if ix == cx - r or ix == cx + r:
                spans.append((ix, y0, y1))
                continue
            if cy - r >= 0:
                spans.append((ix, cy - r, cy - r))
            if cy + r < ny:
                spans.append((ix, cy + r, cy + r))
        return spans

    def _distances(self, idx: np.ndarray, q: np.ndarray) -> np.ndarray:
        pts = self.coords[idx]
        return np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1])

    def knn(self, q: np.ndarray, k: int) -> np.ndarray:
        n = self.coords.shape[0]
        kk = min(k, n)
        cx, cy = self._cell_of(q[0], q[1])
        nx, ny = self.shape
        # Rings closer than r0 hold no cell of the grid; past max_r every
        # cell has been visited.
        r0 = max(-cx, cx - nx + 1, -cy, cy - ny + 1, 0)
        max_r = max(cx, nx - 1 - cx, cy, ny - 1 - cy, 0) + 1
        best = np.empty(0, dtype=np.float64)
        for r in range(r0, max_r + 1):
            idx = self._gather(self._ring_spans(cx, cy, r))
            if idx.size:
                best = np.sort(np.concatenate([best, self._distances(idx, q)]))[:kk]
            if best.shape[0] == kk and best[-1] <= r * self.cell:
                break
        return best

    def within(self, q: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Indices (increasing) and distances of the points at distance
        <= r from q."""
        # Widen the box by a few ulps so rounding in q -/+ r cannot drop a
        # point lying exactly on the disc's edge.
        reach = r + 1e-12 * (abs(q[0]) + abs(q[1]) + r)
        x0, y0 = self._cell_of(q[0] - reach, q[1] - reach)
        x1, y1 = self._cell_of(q[0] + reach, q[1] + reach)
        nx, ny = self.shape
        y0, y1 = max(y0, 0), min(y1, ny - 1)
        spans = [(ix, y0, y1) for ix in range(max(x0, 0), min(x1, nx - 1) + 1)] \
            if y0 <= y1 else []
        idx = self._gather(spans)
        d = self._distances(idx, q)
        keep = d <= r
        idx, d = idx[keep], d[keep]
        order = np.argsort(idx)
        return idx[order], d[order]


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
    if k < 1:
        raise ValueError("invalid k")
    if len(targets) == 0:
        raise ValueError("no ground truth: target set is empty")
    q = _as_query(query)
    n = len(targets)
    kk = min(k, n)
    if n < GRID_BACKEND_THRESHOLD:
        c = targets.coords
        d = np.hypot(c[:, 0] - q[0], c[:, 1] - q[1])
        part = np.partition(d, kk - 1)[:kk]
        return np.sort(part)
    return targets._index().knn(q, kk)


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


def all_radii(pred: PointSet, gt: PointSet, k: int = DEFAULT_K,
              floor: float = DEFAULT_RADIUS_FLOOR) -> RadiusProfile:
    """Adaptive radius of every prediction against one ground-truth set.

    Below ``GRID_BACKEND_THRESHOLD`` targets the predictions are scanned
    against every target in bounded blocks; at or above it each one asks
    the uniform grid. Memory is O(len(pred) + block), never
    O(len(pred) * len(gt)).
    """
    if k < 1:
        raise ValueError("invalid k")
    if len(gt) == 0:
        raise ValueError("no ground truth: target set is empty")
    if not (floor > 0 and math.isfinite(floor)):
        raise ValueError("radius floor must be positive and finite")
    n_gt = len(gt)
    kk = min(k, n_gt)
    if len(pred) == 0:
        return RadiusProfile(np.empty(0, dtype=np.float64), k)
    radii = np.empty(len(pred), dtype=np.float64)
    if n_gt < GRID_BACKEND_THRESHOLD:
        for s, d in _scan_blocks(pred.coords, gt.coords):
            nearest = np.sort(np.partition(d, kk - 1, axis=1)[:, :kk], axis=1)
            radii[s:s + len(d)] = np.maximum(nearest.mean(axis=1), floor)
        return RadiusProfile(radii, k)
    grid = gt._index()
    for i, q in enumerate(pred.coords):
        radii[i] = max(float(grid.knn(q, kk).mean()), floor)
    return RadiusProfile(radii, k)


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
    blocks; at or above it each query asks the uniform grid. Memory is
    O(pairs found + block), never O(len(queries) * len(targets)).
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
        grid = targets._index()
        for i, (q, r) in enumerate(zip(qc, radii)):
            ti, d = grid.within(q, float(r))
            parts.append((np.full(ti.size, i, dtype=np.int64), ti, d))
    return tuple(np.concatenate(col) for col in zip(*parts))
