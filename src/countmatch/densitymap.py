"""Density-map rendering, peak decoding, and on-disk formats.

A density map is a single-channel grid of non-negative intensities whose
local maxima encode point detections. :class:`DensityMap` accepts a map
iff its minimum is >= 0 and its maximum is at most the float64 maximum:
both reductions propagate nan, so these two comparisons reject nan,
infinities and negatives. Rendering places a unit-integral isotropic
Gaussian at each source point (sampled at pixel centers, so the
discrete mass of a well-separated interior point is 1 to within
quantization). The Gaussian tiles are computed for a block of points at
a time, one product per tile cell, and added into the map in point
order, so every pixel sums its contributions in the same order whatever
the block size. A sum that overflows is that check's ValueError, with
no warning.

Decoding finds strict 8-neighborhood local maxima, with equal-valued
plateaus collapsed to their centroid, and greedily suppresses peaks
closer than a minimum distance (higher value wins, scan order breaks
ties). Candidates are the pixels at or above the threshold; the map's
minimum and maximum are read only when every pixel passes, to leave the
background plateau out (otherwise the threshold already has). The
candidates' neighbor maxima are gathered, their equal-valued plateaus
are labelled by an array-level union-find, and suppression walks the
conflict lists from :func:`countmatch.geometry.pairs_within` (a
uniform-grid index), visiting only the peaks that have a close later
peak. So decoding costs one comparison pass over the map plus work
proportional to the pixels at or above the threshold and to the close
pairs, with no Python loop over pixels.

Maps serialize either as row-major CSV or as a compact binary grid:

    bytes 0-5   magic ``b"DMAP1\\x00"``
    bytes 6-9   height, uint32 little-endian
    bytes 10-13 width, uint32 little-endian
    bytes 14-   height * width float32 little-endian, row-major

float64 maps are rounded to float32 by the binary format. A value above
the float32 maximum (about 3.4e38) would be stored as inf, which
:func:`load_binary` rejects, so :func:`save_binary` raises ValueError
for it before it opens the file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import _SCAN_BLOCK_CELLS, PointLabel, PointSet, pairs_within

BINARY_MAGIC = b"DMAP1\x00"

#: Rendering window half-width in units of sigma; contributions beyond
#: this are below 1e-13 of a point's mass.
RENDER_WINDOW_SIGMAS = 8.0


@dataclass(frozen=True)
class DensityMap:
    """H x W grid of non-negative finite intensities, H and W at least 1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or 0 in arr.shape:
            raise ValueError(f"density map must be 2-D and non-empty, got shape {arr.shape}")
        # Two reductions: min and max propagate nan, so nan, -inf, +inf
        # and negatives all fail one of the comparisons.
        if not (arr.min() >= 0 and arr.max() <= np.finfo(np.float64).max):
            raise ValueError("density map values must be finite and non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def render_density(points: PointSet, sigma: float, height: int, width: int) -> DensityMap:
    """Sum of unit-integral isotropic Gaussians centered at each point.

    Every point must lie inside [0, width) x [0, height). The total mass
    is within 2% of ``len(points)`` when all points are at least 3 sigma
    from the borders and sigma is at least ~0.6 px (below that, pixel
    quantization starts to bite).

    Each point's Gaussian tile (its window clipped to the map) is computed
    for a block of points at a time, with a few ``exp``/multiply calls per
    block, and the tiles are added into the map in point order. Each pixel
    therefore sums its terms in point order, so the output is the same bit
    for bit as adding one point's tile at a time. A block holds about
    ``geometry._SCAN_BLOCK_CELLS`` tile cells, so memory stays O(map + block).
    """
    # 8 sigma and 1 / (2 sigma^2), so 1 / (2 pi sigma^2), must be finite.
    if not (sigma > 0 and math.isfinite(RENDER_WINDOW_SIGMAS * sigma)
            and 2.0 * sigma * sigma > 0 and math.isfinite(1.0 / (2.0 * sigma * sigma))):
        raise ValueError("invalid sigma")
    if height < 1 or width < 1:
        raise ValueError("map dimensions must be positive")
    coords = points.coords
    oob = np.nonzero(
        (coords[:, 0] < 0) | (coords[:, 0] >= width)
        | (coords[:, 1] < 0) | (coords[:, 1] >= height))[0]
    if oob.size:
        raise ValueError(f"points out of bounds at indices {oob.tolist()}")
    values = np.zeros((height, width))
    window = int(math.ceil(RENDER_WINDOW_SIGMAS * sigma))
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)
    inv = 1.0 / (2.0 * sigma * sigma)
    # Point i covers rows y0[i]:y1[i] and columns x0[i]:x1[i], its window
    # clipped to the map; no tile is wider than 2 * window + 1 or the map.
    x0 = np.maximum(0, np.ceil(coords[:, 0] - window)).astype(np.intp)
    x1 = np.minimum(width - 1, np.floor(coords[:, 0] + window)).astype(np.intp) + 1
    y0 = np.maximum(0, np.ceil(coords[:, 1] - window)).astype(np.intp)
    y1 = np.minimum(height - 1, np.floor(coords[:, 1] + window)).astype(np.intp) + 1
    span_x = np.arange(min(2 * window + 1, width))
    span_y = np.arange(min(2 * window + 1, height))
    # One point per block when a tile is larger than the budget.
    block = max(1, _SCAN_BLOCK_CELLS // (len(span_x) * len(span_y)))
    # An overflowing sum becomes inf, which DensityMap rejects. At a tiny
    # sigma a squared offset beyond the window may overflow too; its exp
    # is 0 and its cell is never added.
    with np.errstate(over="ignore"):
        for start in range(0, len(coords), block):
            stop = start + block
            # The same exp/outer/multiply per element as one point at a
            # time (einsum's outer product is one IEEE product per cell);
            # cells past a clipped edge are computed and never added.
            gx = np.exp(-((x0[start:stop, None] + span_x - coords[start:stop, :1]) ** 2) * inv)
            gy = np.exp(-((y0[start:stop, None] + span_y - coords[start:stop, 1:]) ** 2) * inv)
            tiles = np.einsum("pi,pj->pij", gy, gx)
            tiles *= norm
            for tile, r0, r1, c0, c1 in zip(tiles, y0[start:stop].tolist(),
                                            y1[start:stop].tolist(), x0[start:stop].tolist(),
                                            x1[start:stop].tolist()):
                values[r0:r1, c0:c1] += tile[:r1 - r0, :c1 - c0]
    return DensityMap(values)


def default_threshold(dmap: DensityMap) -> float:
    """Half the map maximum; the decoding default when nothing better is known."""
    return 0.5 * float(dmap.values.max())


_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _min_label_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Label each of ``n`` nodes with the smallest node of its component.

    Edges are the pairs ``(src[i], dst[i])``. Each round hooks every
    root onto the smallest root it shares an edge with, then jumps
    pointers until every node points at its root; edges inside one
    component are dropped. Labels never increase, so there are no cycles.
    """
    labels = np.arange(n)
    while True:
        ls, ld = labels[src], labels[dst]
        split = ls != ld
        if not split.any():
            return labels
        src, dst, ls, ld = src[split], dst[split], ls[split], ld[split]
        np.minimum.at(labels, np.maximum(ls, ld), np.minimum(ls, ld))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def extract_peaks(dmap: DensityMap, threshold: float, min_distance: float = 1.0) -> PointSet:
    """Decode a density map into point detections.

    Returns the coordinates of strict local maxima over the
    8-neighborhood, where a connected plateau of equal values counts as
    one maximum located at its centroid, filtered to values >= threshold
    and greedily thinned so no two returned peaks are closer than
    ``min_distance`` (higher value wins; scan order breaks ties). Output
    order follows the greedy acceptance order, making repeated calls
    identical. ``threshold`` must be finite and ``min_distance`` finite
    and >= 1.

    Candidates come only from pixels at or above the threshold (and,
    when every pixel is, above the map minimum unless the map is
    constant): each gathers its eight neighbors and survives if none is
    larger. Equal-valued neighbors are linked and labelled by a
    min-label union-find with pointer jumping, and a plateau that has a
    member with a larger neighbor is dropped. Centroids come from
    integer coordinate sums, so they equal the exact mean of the member
    coordinates. Apart from one comparison pass over the map (and a
    minimum and maximum when every pixel passes), the cost is
    proportional to the pixels at or above the threshold, with no Python
    loop over pixels.

    The greedy pass keeps a peak unless a kept earlier peak lies closer
    than ``min_distance``. The close pairs come from
    :func:`~countmatch.geometry.pairs_within`, and only the peaks with a
    close later peak are visited, in order. So suppression costs
    O(peaks + close pairs), one Python step per peak with a conflict,
    and gives the same result as checking every pair.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if not (math.isfinite(min_distance) and min_distance >= 1):
        raise ValueError("min_distance must be finite and >= 1")
    vals = dmap.values
    h, w = vals.shape
    flat = vals.ravel()
    pixels = np.flatnonzero(vals >= threshold)
    if len(pixels) == flat.size:
        # A plateau at the map minimum has only larger outside neighbors,
        # so it is never a maximum; leave the background out. When some
        # pixel is below the threshold, so is the minimum, and the
        # threshold has already left the background out.
        lowest = vals.min()
        if lowest < vals.max():
            pixels = np.flatnonzero(flat > lowest)
    count = len(pixels)
    ys, xs = np.divmod(pixels, w)
    v = flat[pixels]
    # Neighbor indices clamped to the map: a clamped offset lands on the
    # pixel itself or on another of its neighbors, so maxima are unchanged.
    rows = (np.maximum(ys - 1, 0) * w, ys * w, np.minimum(ys + 1, h - 1) * w)
    cols = (np.maximum(xs - 1, 0), xs, np.minimum(xs + 1, w - 1))
    nbr_max = np.full(count, -np.inf)
    equal = {}
    for oy, ox in _NEIGHBOR_OFFSETS:
        nv = flat[rows[oy + 1] + cols[ox + 1]]
        np.maximum(nbr_max, nv, out=nbr_max)
        if (oy, ox) < (0, 0):   # the four earlier neighbors
            equal[oy, ox] = nv == v
    candidate = v >= nbr_max

    # Equal-valued links to the four earlier neighbors, thinned as in Wu,
    # Otoo & Suzuki's decision tree: a link to the pixel above implies the
    # others, and one up-left implies the one to the left. An equal
    # neighbor has the same value, so it is among ``pixels`` too.
    up = equal[-1, 0] & (ys > 0)   # on the top row, "above" is clamped to the pixel itself
    left = equal[0, -1] & ~up & ~equal[-1, -1]
    links = (((-1, 0), up), ((-1, 1), equal[-1, 1] & ~up),
             ((-1, -1), equal[-1, -1] & ~up), ((0, -1), left))
    src, dst = [], []
    for (oy, ox), mask in links:
        i = np.flatnonzero(mask)
        src.append(i)
        dst.append(np.searchsorted(pixels, rows[oy + 1][i] + cols[ox + 1][i]))
    labels = _min_label_components(count, np.concatenate(src), np.concatenate(dst))

    # The full equal-valued component of each pixel is a maximum only if
    # none of its members has a larger neighbor, i.e. all are candidates.
    poisoned = np.zeros(count, dtype=bool)
    poisoned[labels[~candidate]] = True
    member = ~poisoned[labels]
    roots = labels[member]
    sizes = np.bincount(roots, minlength=count)
    heads = np.flatnonzero(sizes)   # each peak's first pixel in raster order
    # Integer coordinate sums are exact below 2**53, so each centroid
    # equals math.fsum(member coordinates) / size bit for bit.
    cy = np.bincount(roots, ys[member], count)[heads] / sizes[heads]
    cx = np.bincount(roots, xs[member], count)[heads] / sizes[heads]
    order = np.lexsort((cx, cy, -v[heads]))
    coords = np.column_stack((cx[order], cy[order]))
    # pairs_within keeps d <= r; a conflict is a later peak strictly closer.
    n = len(coords)
    raw = PointSet.from_coords(coords)
    qi, ti, d = pairs_within(raw, raw, np.full(n, float(min_distance)))
    close = (ti > qi) & (d < min_distance)
    qi, ti = qi[close], ti[close]
    starts = np.searchsorted(qi, np.arange(n + 1))
    suppressed = np.zeros(n, dtype=bool)
    # Only a peak with a close later peak can suppress one.
    for i in np.unique(qi).tolist():
        if not suppressed[i]:
            suppressed[ti[starts[i]:starts[i + 1]]] = True
    return PointSet.from_coords(coords[~suppressed], label=PointLabel.PREDICTED)


def save_csv(dmap: DensityMap, path) -> None:
    """Row-major CSV, one map row per line, full float64 precision."""
    np.savetxt(path, dmap.values, delimiter=",", fmt="%.17g")


def load_csv(path) -> DensityMap:
    with open(path) as fh:   # the lines np.loadtxt reads: not blank, not a comment
        rows = [line for line in fh if line.split("#", 1)[0].strip()]
    if not rows:
        raise ValueError(f"{path}: no density-map values")
    return DensityMap(np.loadtxt(rows, delimiter=",", ndmin=2))


def save_binary(dmap: DensityMap, path) -> None:
    """Compact binary format; see the module docstring for the layout."""
    if dmap.values.max() > np.finfo(np.float32).max:
        raise ValueError("density map values above the float32 maximum (about 3.4e38) "
                         "cannot be stored in the binary format")
    header = BINARY_MAGIC + struct.pack("<II", dmap.height, dmap.width)
    data = dmap.values.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def load_binary(path) -> DensityMap:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(BINARY_MAGIC) + 8 or not blob.startswith(BINARY_MAGIC):
        raise ValueError(f"{path}: not a density-map binary file")
    height, width = struct.unpack_from("<II", blob, len(BINARY_MAGIC))
    expected = len(BINARY_MAGIC) + 8 + 4 * height * width
    if len(blob) != expected:
        raise ValueError(f"{path}: truncated density-map file "
                         f"({len(blob)} bytes, expected {expected})")
    data = np.frombuffer(blob, dtype="<f4", offset=len(BINARY_MAGIC) + 8)
    return DensityMap(data.astype(np.float64).reshape(height, width))
