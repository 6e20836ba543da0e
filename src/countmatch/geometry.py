"""2-D point primitives, exact neighbor queries, and adaptive radii.

Coordinates follow the image convention (x grows rightward, y grows
downward, units are pixels). Two queries are provided: the k nearest
targets of a point, and every target within a per-query radius (the
edges of the matcher). Both take whole batches of queries. A range
query always asks a uniform-grid index, whose one query is a batched
disc query. The k-NN pass scans every target in bounded blocks below
``GRID_BACKEND_THRESHOLD`` targets; at or above it, k-NN becomes disc
queries whose radius doubles until each holds k targets. Each disc
starts at the size that the occupancy of the grid cells around its
query predicts will hold about twice k targets, so a k-NN query
computes a small multiple of k distances whether the targets there are
sparse or packed. Both backends select each row's k smallest by one
rule: the row is sorted whole. Every query here is exact:
the grid returns the same distances as a full scan, it only prunes the
candidate set.

Both queries pick their candidates on squared distances, ``dx * dx +
dy * dy`` (:func:`_squares`), against one bound on the square of the
radius that decides the result (:func:`_square_bound`), and compute the
exact distance, ``hypot`` (:func:`_hypot`), only for the survivors. The
bound has a relative margin for the rounding of squares, square roots
and means, and an absolute term for squares that underflow, below about
1e-162; where the radius's square overflows, from about 1.3e154, it is
inf and keeps every pair. So every distance, radius and edge is the one
a ``hypot`` of every pair would give.

The adaptive radius of a query point is the mean of its distances to the
k nearest target points, clamped below by a configurable floor. It
contracts where targets are dense and expands where they are sparse,
which is what makes radius-restricted matching density-aware. The
radius is at most the distance to the k-th nearest (or the floor), so
the k-NN pass can also hand the matcher every target within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

#: Default neighbor count for adaptive radii.
DEFAULT_K = 5

#: Default lower bound on adaptive radii, in pixels. Keeps a prediction
#: sitting exactly on its only neighbor matchable (a zero radius would
#: exclude the point itself).
DEFAULT_RADIUS_FLOOR = 1e-3

#: Target-set size at which the k-NN pass switches from a full scan to
#: the uniform-grid index. Range queries always use the grid.
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
        return float(_distances((self.x, self.y), (other.x, other.y)))


PointLike = Union[Point, Sequence[float]]


class PointSet:
    """Ordered, immutable collection of finite 2-D points.

    Order is significant: matching results refer to points by their index
    in the set. Coordinates are stored as a read-only (n, 2) float64 array
    available through :attr:`coords`.
    """

    __slots__ = ("_coords", "_label")

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
        if not np.all(np.isfinite(coords)):
            bad = np.nonzero(~np.isfinite(coords).all(axis=1))[0].tolist()
            raise ValueError(f"non-finite coordinates at indices {bad}")
        coords.setflags(write=False)
        self._coords = coords
        self._label = label

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


@dataclass(frozen=True)
class RadiusProfile:
    """Per-query adaptive radii, aligned with the prediction set."""

    radii: np.ndarray
    k: int

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=np.float64)
        radii.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        _validate_k(self.k)
        _validate_radii(radii)

    def __len__(self) -> int:
        return self.radii.shape[0]


def _validate_k(k) -> None:
    """The neighbour-count rule: k is a positive ``int`` or numpy integer,
    not a ``bool``."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError("invalid k")


def _validate_floor(floor) -> None:
    """The radius-floor rule: the floor is positive and finite."""
    if not (floor > 0 and math.isfinite(floor)):
        raise ValueError("radius floor must be positive and finite")


def _validate_radii(radii: np.ndarray) -> None:
    """The radii rule: every radius is finite and non-negative."""
    if not np.all(np.isfinite(radii)) or np.any(radii < 0):
        raise ValueError("radii must be finite and non-negative")


class _UniformGrid:
    """Uniform-grid spatial index over a fixed point cloud.

    Cell size is chosen so the expected bucket occupancy is O(1). Point
    indices are stored sorted by cell (column-major: cell id = ix * ny +
    iy), so the cells of one grid column over a row range are one
    contiguous slice of ``order``; ``counts`` is a summed-area table of
    the cell occupancies, which gives the number of points in any box of
    cells from four lookups. The one query, :meth:`within`, takes a whole
    batch of discs and visits, for each, only the cells of its bounding
    box that lie inside the grid: a query far outside the cloud costs no
    more than one next to it. :meth:`start_radii` reads the table to size
    the first disc of a k-NN query.
    """

    __slots__ = ("coords", "origin", "top", "cell", "shape", "order", "starts", "counts")

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        n = coords.shape[0]
        # An empty cloud gets a finite, inverted box: one cell, no point.
        big = np.finfo(np.float64).max
        lo = coords.min(axis=0, initial=big)
        hi = coords.max(axis=0, initial=-big)
        # Halved, so the extent of any finite cloud is finite.
        half_extent = float(max(hi / 2 - lo / 2))
        ncells = max(1, int(math.sqrt(n)))
        self.cell = half_extent / ncells * 2 if half_extent > 0 else 1.0
        self.origin, self.top = lo, hi
        ij = np.floor(self._cells(coords)).astype(np.int64)
        nx = int(ij[:, 0].max(initial=0)) + 1
        ny = int(ij[:, 1].max(initial=0)) + 1
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

    def _occupancy(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Points in the cell boxes ``[lo, hi)``, from the summed-area table."""
        c, w = self.counts, self.counts.shape[1]
        return c.take(hi[:, 0] * w + hi[:, 1]) - c.take(lo[:, 0] * w + hi[:, 1]) \
            - c.take(hi[:, 0] * w + lo[:, 1]) + c.take(lo[:, 0] * w + lo[:, 1])

    def start_radii(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Radius of a disc around each query's nearest cell expected to
        hold about ``_START_FILL * k`` points, at most two cells.

        The local density is the occupancy of the 3x3 cells around the
        query's cell (its nearest one, for a query outside the grid),
        clipped to the grid. Worked in cells, so nothing squares ``cell``.
        """
        with np.errstate(over="ignore"):
            at = np.floor(self._cells(queries))
        at = np.clip(at, 0, np.subtract(self.shape, 1)).astype(np.int64)
        lo = np.maximum(at - 1, 0)
        hi = np.minimum(at + 2, self.shape)
        count = np.maximum(self._occupancy(lo, hi), 1)
        fill = _START_FILL * k * np.prod(hi - lo, axis=1) / (math.pi * count)
        return np.minimum(np.sqrt(fill), 2.0) * self.cell

    def within(self, queries: np.ndarray,
               radii: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
        """Points at distance <= radii[i] from queries[i], for every i.

        Yields ``(chunk, qi, ti, d)`` for consecutive slices ``chunk`` of
        the queries: query indices (non-decreasing, inside ``chunk``),
        point indices (in no set order within a query) and distances. A
        chunk gathers at most ``_SCAN_BLOCK_CELLS`` candidate points and
        box columns, unless one query alone needs more. Each coordinate
        column is gathered with ``take``, and only the pairs whose squared
        distance is within :func:`_square_bound` of their radius get an
        exact distance.
        """
        # Widen each box by a few ulps so rounding in q -/+ r cannot drop
        # a point lying exactly on the disc's edge. Cell indices are
        # clipped to the grid before the integer cast, so far queries
        # neither overflow it nor visit empty cells. A box edge beyond the
        # float range is +-inf, which the clip maps to the grid's edge.
        with np.errstate(over="ignore"):
            reach = (radii + 1e-12 * (np.abs(queries).sum(axis=1) + radii))[:, None]
            lo = np.floor(self._cells(queries - reach))
            hi = np.floor(self._cells(queries + reach)) + 1
        lo = np.clip(lo, 0, self.shape).astype(np.int64)
        hi = np.clip(hi, 0, self.shape).astype(np.int64)
        ncols = np.where(hi[:, 1] > lo[:, 1], hi[:, 0] - lo[:, 0], 0)
        cost = np.cumsum(self._occupancy(lo, hi) + ncols)
        bound = _square_bound(radii)
        ny = self.shape[1]
        s = 0
        while s < len(queries):
            spent = cost[s - 1] if s else 0
            e = max(int(np.searchsorted(cost, spent + _SCAN_BLOCK_CELLS, side="right")), s + 1)
            cols = np.repeat(np.arange(s, e), ncols[s:e])
            ix = _ranges(lo[s:e, 0], ncols[s:e]) * ny
            first = self.starts.take(ix + lo[:, 1].take(cols))
            lens = self.starts.take(ix + hi[:, 1].take(cols)) - first
            ti = self.order.take(_ranges(first, lens))
            qi = np.repeat(cols, lens)
            with np.errstate(over="ignore"):
                dx = self.coords[:, 0].take(ti) - queries[:, 0].take(qi)
                dy = self.coords[:, 1].take(ti) - queries[:, 1].take(qi)
                near = np.flatnonzero(_squares(dx, dy) <= bound.take(qi))
            qi, ti = qi.take(near), ti.take(near)
            d = _hypot(dx.take(near), dy.take(near))
            keep = d <= radii.take(qi)
            yield slice(s, e), qi[keep], ti[keep], d[keep]
            s = e


def _ranges(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(f, f + n)`` over the pairs (f, n)."""
    ends = np.cumsum(length)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(first - ends + length, length) + np.arange(total)


def _distances(a, b) -> np.ndarray:
    """Euclidean distances between broadcast (..., 2) coordinate arrays:
    the dense rule, :func:`_hypot` of the coordinate differences.

    A distance beyond the float range is inf, without a warning: the
    farthest possible, outside any finite disc. The queries call
    :func:`_hypot` themselves, on the differences of the candidates that
    survive :func:`_square_bound`, so their distances are this one.
    """
    with np.errstate(over="ignore"):
        diff = np.subtract(a, b)
    return _hypot(diff[..., 0], diff[..., 1])


def _hypot(dx, dy, where=None) -> np.ndarray:
    """The exact distance of the differences ``(dx, dy)``. Given a mask
    ``where``, only its True entries cost a ``hypot``; the rest are inf."""
    with np.errstate(over="ignore"):
        if where is None:
            return np.hypot(dx, dy)
        return np.hypot(dx, dy, out=np.full(np.shape(dx), np.inf), where=where)


def _squares(dx, dy) -> np.ndarray:
    """The squared distances ``dx * dx + dy * dy`` of the differences
    ``(dx, dy)`` that the queries filter on :func:`_square_bound`; inf
    where they overflow. Called where the differences are taken, under
    the same ``np.errstate(over="ignore")``."""
    return dx * dx + dy * dy


def _square_bound(r):
    """A bound on :func:`_squares` for every pair whose :func:`_hypot`
    is at most ``r``: the queries keep as candidates the pairs whose
    squares are within it, and compute exact distances only for those.

    ``hypot`` is within an ulp of the true distance and the sum of two
    rounded squares within a few ulps of its square, so a relative margin
    of 32 ulps of 1 on ``r * r`` covers both, and what a k-NN scan adds
    on top of it: the square root of a row's k-th smallest square, and a
    mean of up to 255 distances that rounds above the largest. Squares
    below the smallest normal float lose their relative precision to
    underflow; the absolute term, four times that float, covers them.
    Where ``r * r`` overflows the bound is inf and keeps every pair,
    those whose squares overflow too; a pair within a finite ``r * r``
    has finite squares.
    """
    with np.errstate(over="ignore"):
        return r * r * (1 + 2.0 ** -47) + 2.0 ** -1020


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
    return _knn(PointSet([query]).coords, targets, k)[0][0]


def adaptive_radius(p: PointLike, gt: PointSet, k: int = DEFAULT_K,
                    floor: float = DEFAULT_RADIUS_FLOOR) -> float:
    """Mean distance to the k nearest ground-truth points, floored.

    When ``k`` exceeds the number of available targets the mean is taken
    over all of them; the result is never below ``floor``.
    """
    return float(all_radii(PointSet([p]), gt, k, floor).radii[0])


#: Cell budget of one block of a full scan: query rows are scanned in
#: blocks of at most this many query-target pairs.
_SCAN_BLOCK_CELLS = 1 << 16

#: A k-NN disc on the grid starts where the local occupancy predicts
#: about this many times k targets (:meth:`_UniformGrid.start_radii`).
_START_FILL = 2


def _knn(queries: np.ndarray, targets: PointSet, k: int, floor: Optional[float] = None):
    """Row i of ``nearest``: the ``min(k, len(targets))`` smallest
    distances from ``queries[i]`` to ``targets``, in non-decreasing order.

    Below ``GRID_BACKEND_THRESHOLD`` targets the queries are scanned
    against every target in bounded blocks. A row's distances are exact
    within :func:`_square_bound` of the larger of the floor and the root
    of its k-th smallest square, and inf beyond. At or above it each
    query asks the grid for a disc that starts at the distance to the
    cloud's bounding box plus
    :meth:`_UniformGrid.start_radii`, a radius read from the occupancy
    of the cells around the query, or at the floor if that is larger,
    and doubles until it holds k targets; a disc holding k targets
    contains the k nearest, so the result is exact; :func:`_row_smallest`
    lays each disc's candidates out in rows. Either way a row's k
    smallest are the first k of the row sorted whole, as numpy sorts
    rows this short faster than it partitions them. Memory is
    O(len(queries) * k + block + edges).

    Returns ``(nearest, radii, edges)``. Given a ``floor``, ``radii`` are
    the adaptive radii ``_radius(nearest, floor)`` and ``edges`` is what
    :func:`pairs_within` returns for them, both from the same pass: a
    radius is at most max(d_k, floor), and a row completes only in a
    disc that holds its radius, so every pair within it lies in the
    scanned block or in that disc. Without a floor both are None.
    """
    _validate_k(k)
    m = len(targets)
    if m == 0:
        raise ValueError("no ground truth: target set is empty")
    kk = min(k, m)
    out = np.empty((len(queries), kk), dtype=np.float64)
    radii = np.empty(len(queries), dtype=np.float64)
    parts = []
    if m < GRID_BACKEND_THRESHOLD:
        step = max(1, _SCAN_BLOCK_CELLS // m)   # query rows per block
        tx, ty = targets.coords[:, 0], targets.coords[:, 1]
        for s in range(0, len(queries), step):
            # Exact distances only for the pairs whose squares can reach
            # the k-th nearest or the floor: the rest stay inf.
            block = queries[s:s + step]
            with np.errstate(over="ignore"):
                dx = block[:, :1] - tx
                dy = block[:, 1:] - ty
                sq = _squares(dx, dy)
            cap = np.sqrt(np.sort(sq, axis=1)[:, kk - 1])
            if floor is not None:
                cap = np.maximum(cap, floor)
            d = _hypot(dx, dy, where=sq <= _square_bound(cap)[:, None])
            out[s:s + len(d)] = nearest = np.sort(d, axis=1)[:, :kk]
            if floor is not None:
                radii[s:s + len(d)] = reach = _radius(nearest, floor)
                at = np.flatnonzero(d <= reach[:, None])
                parts.append((at // m + s, at % m, d.take(at)))
    else:
        grid = _UniformGrid(targets.coords)
        # A start or doubled radius beyond the float range is inf: that
        # disc holds the whole cloud.
        disc = _distances(queries, np.clip(queries, grid.origin, grid.top)) \
            + grid.start_radii(queries, kk)
        if floor is not None:
            disc = np.maximum(disc, floor)
        todo = np.arange(len(queries))
        while todo.size:
            short = [todo[:0]]
            for chunk, qi, ti, d in grid.within(queries.take(todo, axis=0), disc.take(todo)):
                qi = qi - chunk.start
                counts = np.bincount(qi, minlength=chunk.stop - chunk.start)
                full = counts >= kk
                rows = todo[chunk]
                nearest = _row_smallest(d, counts, kk)
                if floor is not None:
                    reach = np.full(len(rows), -1.0)   # a row not yet done has no edge
                    reach[full] = _radius(nearest[full], floor)
                    # A mean can round up past d_k, and so past a disc
                    # holding d_k; that row takes another round.
                    reach[reach > disc.take(rows)] = -1.0
                    full = reach > 0
                    radii[rows[full]] = reach[full]
                    keep = d <= reach.take(qi)
                    parts.append((rows.take(qi[keep]), ti[keep], d[keep]))
                out[rows[full]] = nearest[full]
                short.append(rows[~full])
            todo = np.concatenate(short)
            with np.errstate(over="ignore"):
                disc[todo] *= 2
    if floor is None:
        return out, None, None
    return out, radii, _edge_list(parts, m)


def _edge_list(parts: list, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One edge list from ``parts``, a list of ``(qi, ti, d)`` arrays
    (possibly none) against ``m`` targets: query indices, target indices
    and distances, ordered by query index, then target index."""
    seed = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64))
    qi, ti, d = (np.concatenate(c) for c in zip(seed, *parts))
    order = np.argsort(qi * m + ti)   # each (query, target) pair occurs once
    return qi[order], ti[order], d[order]


def _row_smallest(d: np.ndarray, counts: np.ndarray, kk: int) -> np.ndarray:
    """Row i: the ``kk`` smallest of row i's values in non-decreasing
    order, padded with inf where the row has fewer.

    ``d`` holds the rows one after another, ``counts[i]`` values for
    row i. Rows are scattered into inf-padded (rows, longest row) blocks
    of at most ``_SCAN_BLOCK_CELLS`` cells, each sorted whole along its
    rows, the rule of the full scan; a row longer than that is a block
    of its own.
    """
    out = np.empty((len(counts), kk), dtype=np.float64)
    ends = np.cumsum(counts)
    s = 0
    while s < len(counts):
        # Every block is at least kk wide, so it holds at most this many rows.
        widest = np.maximum.accumulate(counts[s:s + max(1, _SCAN_BLOCK_CELLS // kk)])
        cells = np.maximum(widest, kk) * np.arange(1, len(widest) + 1)
        e = s + max(int(np.searchsorted(cells, _SCAN_BLOCK_CELLS, side="right")), 1)
        width = max(int(widest[e - s - 1]), kk)
        block = np.full((e - s) * width, np.inf)
        block[_ranges(np.arange(e - s) * width, counts[s:e])] = d[ends[s] - counts[s]:ends[e - 1]]
        out[s:e] = np.sort(block.reshape(e - s, width), axis=1)[:, :kk]
        s = e
    return out


def all_radii(pred: PointSet, gt: PointSet, k: int = DEFAULT_K,
              floor: float = DEFAULT_RADIUS_FLOOR) -> RadiusProfile:
    """Adaptive radius of every prediction against one ground-truth set.

    The k nearest distances come from one batched query (full scan below
    ``GRID_BACKEND_THRESHOLD`` targets, uniform grid at or above it).
    Memory is O(len(pred) * k + block), never O(len(pred) * len(gt)).
    """
    _validate_floor(floor)
    return RadiusProfile(_radius(_knn(pred.coords, gt, k)[0], floor), k)


def _radius(nearest: np.ndarray, floor: float) -> np.ndarray:
    """Adaptive radii from rows of sorted nearest distances: the row
    mean (:func:`_finite_mean`), clamped below by ``floor``. An inf
    distance (between finite points, coordinates that span more than the
    float range) raises ValueError."""
    if np.any(np.isinf(nearest[..., -1])):
        raise ValueError("a distance overflowed: the coordinates span more than "
                         "the float range (about 1.8e308)")
    return np.maximum(_finite_mean(nearest, axis=-1), floor)


def _finite_mean(values: np.ndarray, axis) -> np.ndarray:
    """Mean of finite ``values`` of any sign over ``axis``.

    The sum of finite values can overflow where their mean cannot. Such
    means are taken again on the values scaled down by a power of two
    above their count, so the sum stays finite, and scaled back up. Every
    other mean is ``mean(axis=axis)`` bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=axis)
        over = ~np.isfinite(mean)
    if np.any(over):
        scale = float(2 ** (values.size // mean.size).bit_length())
        mean = np.where(over, (values / scale).mean(axis=axis) * scale, mean)
    return mean


def pairwise_distances(a: PointSet, b: PointSet) -> np.ndarray:
    """Dense (len(a), len(b)) Euclidean distance matrix."""
    return _distances(a.coords[:, None, :], b.coords[None, :, :])


def pairs_within(queries: PointSet, targets: PointSet,
                 radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (query, target) pair at distance <= the query's radius.

    Returns ``(qi, ti, d)``: query indices, target indices and distances,
    ordered by query index, then target index. Distances are bit-identical
    to :func:`pairwise_distances`. The queries go to the uniform grid in
    one batch, whatever the number of targets, an empty set included.
    Memory is O(pairs found + block), never O(len(queries) * len(targets)).
    """
    radii = np.asarray(radii, dtype=np.float64)
    n, m = len(queries), len(targets)
    if radii.shape != (n,):
        raise ValueError(f"radius count {radii.shape} does not match queries {n}")
    _validate_radii(radii)
    grid = _UniformGrid(targets.coords)
    return _edge_list([(qi, ti, d) for _, qi, ti, d in grid.within(queries.coords, radii)], m)
