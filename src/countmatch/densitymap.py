"""Density-map rendering, peak decoding, and on-disk formats.

A density map is a single-channel grid of non-negative intensities whose
local maxima encode point detections. Rendering places a unit-integral
isotropic Gaussian at each source point (sampled at pixel centers, so
the discrete mass of a well-separated interior point is 1 to within
quantization); decoding finds strict 8-neighborhood local maxima, with
equal-valued plateaus collapsed to their centroid, and greedily
suppresses peaks closer than a minimum distance (higher value wins, scan
order breaks ties). Suppression walks conflict lists from
:func:`countmatch.geometry.pairs_within` (full scan or grid index), so it
costs O(peaks + close pairs) rather than O(peaks^2).

Maps serialize either as row-major CSV or as a compact binary grid:

    bytes 0-5   magic ``b"DMAP1\\x00"``
    bytes 6-9   height, uint32 little-endian
    bytes 10-13 width, uint32 little-endian
    bytes 14-   height * width float32 little-endian, row-major

float64 maps are rounded to float32 by the binary format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import PointLabel, PointSet, pairs_within

BINARY_MAGIC = b"DMAP1\x00"

#: Rendering window half-width in units of sigma; contributions beyond
#: this are below 1e-13 of a point's mass.
RENDER_WINDOW_SIGMAS = 8.0


@dataclass(frozen=True)
class DensityMap:
    """H x W grid of non-negative finite intensities."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"density map must be 2-D, got shape {arr.shape}")
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
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
    """
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("invalid sigma")
    if height < 1 or width < 1:
        raise ValueError("map dimensions must be positive")
    coords = points.coords
    if len(points):
        oob = np.nonzero(
            (coords[:, 0] < 0) | (coords[:, 0] >= width)
            | (coords[:, 1] < 0) | (coords[:, 1] >= height))[0]
        if oob.size:
            raise ValueError(f"points out of bounds at indices {oob.tolist()}")
    values = np.zeros((height, width))
    window = int(math.ceil(RENDER_WINDOW_SIGMAS * sigma))
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)
    inv = 1.0 / (2.0 * sigma * sigma)
    for px, py in coords:
        x0 = max(0, int(math.ceil(px - window)))
        x1 = min(width - 1, int(math.floor(px + window)))
        y0 = max(0, int(math.ceil(py - window)))
        y1 = min(height - 1, int(math.floor(py + window)))
        xs = np.arange(x0, x1 + 1, dtype=np.float64)
        ys = np.arange(y0, y1 + 1, dtype=np.float64)
        gx = np.exp(-((xs - px) ** 2) * inv)
        gy = np.exp(-((ys - py) ** 2) * inv)
        values[y0:y1 + 1, x0:x1 + 1] += norm * np.outer(gy, gx)
    return DensityMap(values)


def default_threshold(dmap: DensityMap) -> float:
    """Half the map maximum; the decoding default when nothing better is known."""
    return 0.5 * float(dmap.values.max()) if dmap.values.size else 0.0


_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


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

    The greedy pass visits the peaks in that order once: a peak is kept
    unless a kept earlier peak lies closer than ``min_distance``. The
    close pairs come from :func:`~countmatch.geometry.pairs_within`, so
    suppression costs O(peaks + close pairs), with the same distances
    and the same result as checking every pair.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if not (math.isfinite(min_distance) and min_distance >= 1):
        raise ValueError("min_distance must be finite and >= 1")
    vals = dmap.values
    h, w = vals.shape
    if h == 0 or w == 0:
        return PointSet([], label=PointLabel.PREDICTED)

    # A pixel survives this mask iff no existing neighbor exceeds it;
    # plateau membership is resolved afterwards.
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = vals
    nbr_max = np.full((h, w), -np.inf)
    for oy, ox in _NEIGHBOR_OFFSETS:
        np.maximum(nbr_max, padded[1 + oy:1 + oy + h, 1 + ox:1 + ox + w], out=nbr_max)
    candidate = (vals >= nbr_max) & (vals >= threshold)

    visited = np.zeros((h, w), dtype=bool)
    raw_peaks: list[tuple[float, float, float]] = []  # (value, cy, cx)
    for y, x in np.argwhere(candidate):
        if visited[y, x]:
            continue
        value = vals[y, x]
        # Flood-fill the equal-valued component; it is a maximum only if
        # every outside neighbor is strictly smaller.
        stack = [(int(y), int(x))]
        visited[y, x] = True
        members = []
        is_peak = True
        while stack:
            cy, cx = stack.pop()
            members.append((cy, cx))
            for oy, ox in _NEIGHBOR_OFFSETS:
                ny, nx = cy + oy, cx + ox
                if not (0 <= ny < h and 0 <= nx < w):
                    continue
                nv = vals[ny, nx]
                if nv == value:
                    if not visited[ny, nx]:
                        visited[ny, nx] = True
                        stack.append((ny, nx))
                elif nv > value:
                    is_peak = False
        if is_peak:
            ys = [m[0] for m in members]
            xs = [m[1] for m in members]
            raw_peaks.append((float(value), math.fsum(ys) / len(ys), math.fsum(xs) / len(xs)))

    raw_peaks.sort(key=lambda p: (-p[0], p[1], p[2]))
    coords = np.array([(cx, cy) for _, cy, cx in raw_peaks]).reshape(-1, 2)
    # pairs_within keeps d <= r; a conflict is a later peak strictly closer.
    n = len(coords)
    raw = PointSet.from_coords(coords)
    qi, ti, d = pairs_within(raw, raw, np.full(n, float(min_distance)))
    close = (ti > qi) & (d < min_distance)
    qi, ti = qi[close], ti[close]
    starts = np.searchsorted(qi, np.arange(n + 1))
    suppressed = np.zeros(n, dtype=bool)
    for i in range(n):
        if not suppressed[i]:
            suppressed[ti[starts[i]:starts[i + 1]]] = True
    return PointSet.from_coords(coords[~suppressed], label=PointLabel.PREDICTED)


def save_csv(dmap: DensityMap, path) -> None:
    """Row-major CSV, one map row per line, full float64 precision."""
    np.savetxt(path, dmap.values, delimiter=",", fmt="%.17g")


def load_csv(path) -> DensityMap:
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    return DensityMap(values)


def save_binary(dmap: DensityMap, path) -> None:
    """Compact binary format; see the module docstring for the layout."""
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
