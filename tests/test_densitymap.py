import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from countmatch.densitymap import (
    _NEIGHBOR_OFFSETS,
    DensityMap,
    _min_label_components,
    extract_peaks,
    load_binary,
    load_csv,
    render_density,
    save_binary,
    save_csv,
)
from countmatch.geometry import (
    GRID_BACKEND_THRESHOLD,
    PointLabel,
    PointSet,
    pairs_within,
    pairwise_distances,
)
from countmatch.synth import sample_separated


class TestRenderDensity:
    def test_empty_points_all_zero(self):
        dm = render_density(PointSet([]), sigma=2.0, height=16, width=16)
        assert (dm.values == 0).all()

    def test_single_centered_point_mass(self):
        dm = render_density(PointSet([(32, 32)]), sigma=2.0, height=64, width=64)
        assert 0.98 <= dm.values.sum() <= 1.02

    def test_linearity_of_far_points(self):
        a = render_density(PointSet([(10, 10)]), 2.0, 64, 64)
        b = render_density(PointSet([(50, 50)]), 2.0, 64, 64)
        both = render_density(PointSet([(10, 10), (50, 50)]), 2.0, 64, 64)
        np.testing.assert_allclose(both.values, a.values + b.values, atol=1e-12)

    def test_out_of_bounds_reports_indices(self):
        with pytest.raises(ValueError, match="indices \\[0, 2\\]"):
            render_density(PointSet([(-1, 5), (3, 3), (5, 70)]), 1.0, 64, 64)

    def test_mass_scales_with_count(self):
        pts = sample_separated(10, 128, 128, min_separation=14, margin=8, seed=1)
        dm = render_density(pts, sigma=2.0, height=128, width=128)
        assert dm.values.sum() == pytest.approx(10.0, abs=0.2)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError, match="invalid sigma"):
            render_density(PointSet([]), sigma=0.0, height=8, width=8)

    def test_values_non_negative(self):
        dm = render_density(PointSet([(3, 3)]), 1.0, 8, 8)
        assert (dm.values >= 0).all()

    def test_overflowing_sum_is_one_value_error(self):
        # At sigma 1e-153 each point adds about 1.6e305 to its pixel, so
        # 1 200 coincident points overflow to inf: one ValueError, no warning.
        points = PointSet.from_coords(np.full((1200, 2), 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^density map values must be finite and non-negative$"):
                render_density(points, 1e-153, 8, 8)


def _reference_render_density(points, sigma, height, width):
    """The original renderer: one window of numpy calls per point."""
    coords = points.coords
    values = np.zeros((height, width))
    window = int(math.ceil(8.0 * sigma))
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
    return values


@st.composite
def render_cases(draw):
    """Maps of 1x1 to 64x64 and sigma 0.3 to 5, with points anywhere,
    on integer and half-integer coordinates, on every border (0, the
    last pixel centre and just below the far edge), and coincident.
    Up to 400 points: with tiles of 2**16 cells per block, about a fifth
    of the cases need more than one block."""
    h, w = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    sigma = draw(st.floats(0.3, 5.0))
    count = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 400)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coords = rng.uniform(0, 1, (count, 2)) * [w, h]
    for axis, size in enumerate((w, h)):
        kind = rng.integers(0, 4, count)
        edges = np.array([0.0, size - 1.0, np.nextafter(size, 0.0)])
        coords[kind == 1, axis] = np.floor(coords[kind == 1, axis])
        coords[kind == 2, axis] = np.minimum(np.round(2 * coords[kind == 2, axis]) / 2, size - 0.5)
        coords[kind == 3, axis] = rng.choice(edges, int((kind == 3).sum()))
    if count > 1:
        twins = rng.integers(0, count, count // 4)
        coords[rng.integers(0, count, len(twins))] = coords[twins]
    coords = np.minimum(coords, [np.nextafter(w, 0.0), np.nextafter(h, 0.0)])
    return PointSet.from_coords(coords), sigma, h, w


class TestRenderMatchesPerPointReference:
    @settings(max_examples=150, deadline=None)
    @given(render_cases())
    def test_same_bytes(self, case):
        points, sigma, h, w = case
        got = render_density(points, sigma, h, w).values
        assert got.tobytes() == _reference_render_density(points, sigma, h, w).tobytes()

    def test_many_blocks_of_coincident_points(self):
        # At sigma 5 a 64x64 map clips every tile to 64x64 cells, so a
        # block holds 16 points; 500 points on 20 sites make 32 blocks
        # and every pixel sums hundreds of terms in point order.
        rng = np.random.default_rng(11)
        sites = rng.uniform(0, 64, (20, 2))
        points = PointSet.from_coords(sites[rng.integers(0, 20, 500)])
        got = render_density(points, 5.0, 64, 64).values
        assert got.tobytes() == _reference_render_density(points, 5.0, 64, 64).tobytes()


@st.composite
def small_sigma_cases(draw):
    """Sigma 0.05 to 0.3 on maps of 1x1 to 32x32, points anywhere, on
    tenths of a pixel and at 0. The tiles' Gaussian factors run from 1
    down to 0: products in the cells beyond a point's window (up to two
    windows out) can be subnormal or underflow to 0."""
    h, w = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    sigma = draw(st.floats(0.05, 0.3))
    count = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coords = rng.uniform(0, 1, (count, 2)) * [w, h]
    kind = rng.integers(0, 3, (count, 2))
    coords[kind == 1] = np.round(10 * coords[kind == 1]) / 10
    coords[kind == 2] = 0.0
    coords = np.minimum(coords, [np.nextafter(w, 0.0), np.nextafter(h, 0.0)])
    return PointSet.from_coords(coords), sigma, h, w


class TestRenderMatchesPerPointReferenceAtSmallSigma:
    @settings(max_examples=150, deadline=None)
    @given(small_sigma_cases())
    def test_same_bytes(self, case):
        points, sigma, h, w = case
        got = render_density(points, sigma, h, w).values
        assert got.tobytes() == _reference_render_density(points, sigma, h, w).tobytes()

    def test_subnormal_and_underflowed_pixels(self):
        # At sigma 0.035 a pixel 0.95 px from (5.05, 5.05) on both axes
        # gets a subnormal value, and one next to (5.02, 5.06) gets 0.
        for coords, subnormals, zeros in (((5.05, 5.05), 1, 140), ((5.02, 5.06), 0, 141)):
            points = PointSet([coords])
            want = _reference_render_density(points, 0.035, 12, 12)
            assert ((want > 0) & (want < np.finfo(np.float64).tiny)).sum() == subnormals
            assert (want == 0).sum() == zeros
            assert render_density(points, 0.035, 12, 12).values.tobytes() == want.tobytes()

    def test_tiny_sigma_at_the_corner(self):
        # At sigma 1e-154 the squared offsets of the tile cells beyond the
        # window of (0, 0) overflow; those cells are never added.
        points = PointSet([(0.0, 0.0), (7.0, 7.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = render_density(points, 1e-154, 8, 8).values
        assert got.tobytes() == _reference_render_density(points, 1e-154, 8, 8).tobytes()


class TestExtractPeaks:
    def test_zero_map_empty(self):
        dm = DensityMap(np.zeros((32, 32)))
        assert len(extract_peaks(dm, threshold=0.1)) == 0

    @pytest.mark.parametrize("threshold", [0.0, 2.0])
    def test_constant_map_is_one_peak_at_its_centroid(self, threshold):
        # A constant map is one plateau with no outside neighbor, so it is
        # a maximum although its value is the map minimum.
        dm = DensityMap(np.full((5, 8), 2.0))
        assert extract_peaks(dm, threshold).coords.tolist() == [[3.5, 2.0]]

    def test_single_gaussian_recovered(self):
        dm = render_density(PointSet([(32, 32)]), 2.0, 64, 64)
        peaks = extract_peaks(dm, threshold=0.01, min_distance=2.0)
        assert len(peaks) == 1
        assert np.hypot(peaks.coords[0, 0] - 32, peaks.coords[0, 1] - 32) <= 1.0

    def test_two_gaussians_ten_sigma_apart(self):
        src = PointSet([(20, 30), (40, 30)])  # 20 px apart, sigma 2 -> 10 sigma
        dm = render_density(src, 2.0, 64, 64)
        peaks = extract_peaks(dm, threshold=0.001, min_distance=2.0)
        assert len(peaks) == 2
        d = pairwise_distances(peaks, src)
        assert d.min(axis=1).max() <= 1.0

    def test_label_is_predicted(self):
        dm = render_density(PointSet([(8, 8)]), 1.0, 16, 16)
        assert extract_peaks(dm, 0.01).label is PointLabel.PREDICTED

    def test_plateau_resolves_to_centroid(self):
        vals = np.zeros((9, 9))
        vals[4, 3:6] = 2.0  # flat 3-pixel ridge
        peaks = extract_peaks(DensityMap(vals), threshold=1.0)
        assert len(peaks) == 1
        assert peaks.coords[0].tolist() == [4.0, 4.0]

    def test_plateau_adjacent_to_larger_value_is_not_a_peak(self):
        vals = np.zeros((5, 7))
        vals[2, 1:3] = 2.0
        vals[2, 3] = 5.0
        peaks = extract_peaks(DensityMap(vals), threshold=0.5, min_distance=1.0)
        assert len(peaks) == 1
        assert peaks.coords[0].tolist() == [3.0, 2.0]

    def test_min_distance_suppression_higher_wins(self):
        vals = np.zeros((8, 8))
        vals[2, 2] = 3.0
        vals[2, 4] = 5.0
        peaks = extract_peaks(DensityMap(vals), threshold=1.0, min_distance=3.0)
        assert len(peaks) == 1
        assert peaks.coords[0].tolist() == [4.0, 2.0]

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        pts = PointSet(rng.uniform(8, 56, (12, 2)))
        dm = render_density(pts, 1.5, 64, 64)
        a = extract_peaks(dm, 0.005, 2.0)
        b = extract_peaks(dm, 0.005, 2.0)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_monotone_threshold(self):
        rng = np.random.default_rng(4)
        pts = PointSet(rng.uniform(8, 120, (25, 2)))
        dm = render_density(pts, 1.5, 128, 128)
        counts = [len(extract_peaks(dm, t, 1.0))
                  for t in (0.0005, 0.005, 0.02, 0.05, 0.1)]
        assert counts == sorted(counts, reverse=True)

    def test_min_distance_validation(self):
        with pytest.raises(ValueError, match="min_distance"):
            extract_peaks(DensityMap(np.zeros((4, 4))), 0.1, min_distance=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_min_distance_rejected(self, bad):
        vals = np.zeros((8, 8))
        vals[2, 2] = vals[5, 5] = 1.0
        with pytest.raises(ValueError, match="min_distance"):
            extract_peaks(DensityMap(vals), 0.5, min_distance=bad)

    def test_round_trip_recovery(self):
        # Separation >= 8 sigma and margin >= 3 sigma: rendering then peak
        # extraction recovers every point within a pixel.
        sigma = 2.0
        for seed in range(5):
            pts = sample_separated(30, 256, 256, min_separation=8 * sigma,
                                   margin=3 * sigma, seed=seed)
            dm = render_density(pts, sigma, 256, 256)
            peaks = extract_peaks(dm, threshold=0.2 * dm.values.max(),
                                  min_distance=2.0)
            assert len(peaks) == 30
            d = pairwise_distances(peaks, pts)
            assert d.min(axis=1).max() <= 1.0

    def test_saturated_plateau_is_one_peak_quickly(self):
        # Value 1 over a square 3/4 of each side: one 589 824-pixel
        # plateau, labelled without visiting pixels one at a time.
        vals = np.zeros((1024, 1024))
        vals[128:896, 128:896] = 1.0
        dm = DensityMap(vals)
        start = time.perf_counter()
        peaks = extract_peaks(dm, threshold=0.5)
        elapsed = time.perf_counter() - start
        assert peaks.coords.tolist() == [[511.5, 511.5]]
        assert elapsed < 1.0


_NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _reference_extract_peaks(vals, threshold, min_distance):
    """The original decoder: flood-filled plateau maxima, then an O(P^2)
    greedy that checks each candidate against every accepted peak."""
    h, w = vals.shape
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = vals
    nbr_max = np.full((h, w), -np.inf)
    for oy, ox in _NEIGHBORS:
        np.maximum(nbr_max, padded[1 + oy:1 + oy + h, 1 + ox:1 + ox + w], out=nbr_max)
    visited = np.zeros((h, w), dtype=bool)
    raw_peaks = []
    for y, x in np.argwhere((vals >= nbr_max) & (vals >= threshold)):
        if visited[y, x]:
            continue
        value = vals[y, x]
        stack = [(int(y), int(x))]
        visited[y, x] = True
        members = []
        is_peak = True
        while stack:
            cy, cx = stack.pop()
            members.append((cy, cx))
            for oy, ox in _NEIGHBORS:
                ny, nx = cy + oy, cx + ox
                if not (0 <= ny < h and 0 <= nx < w):
                    continue
                if vals[ny, nx] == value:
                    if not visited[ny, nx]:
                        visited[ny, nx] = True
                        stack.append((ny, nx))
                elif vals[ny, nx] > value:
                    is_peak = False
        if is_peak:
            ys = [m[0] for m in members]
            xs = [m[1] for m in members]
            raw_peaks.append((float(value), math.fsum(ys) / len(ys), math.fsum(xs) / len(xs)))
    raw_peaks.sort(key=lambda p: (-p[0], p[1], p[2]))
    accepted = []
    for value, cy, cx in raw_peaks:
        if all(np.hypot(cx - ax, cy - ay) >= min_distance for ay, ax in accepted):
            accepted.append((cy, cx))
    return np.array([(x, y) for y, x in accepted]).reshape(-1, 2), len(raw_peaks)


@st.composite
def peak_maps(draw):
    """Maps with tied values, plateaus, clusters denser than min_distance,
    and twin components (a centre pixel inside a square ring of the same
    value: equal value, equal centroid)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["plateaus", "spikes", "grid"]))
    if kind == "plateaus":
        # Quantized noise: many equal-valued plateaus and tied maxima.
        h, w = draw(st.integers(4, 48)), draw(st.integers(4, 48))
        vals = rng.integers(0, draw(st.integers(2, 6)), (h, w)).astype(np.float64)
    else:
        # Isolated spikes on an even lattice, packed into one window so
        # neighbours sit 2 px apart. The "grid" kind has more raw peaks
        # than GRID_BACKEND_THRESHOLD, which switches only the k-NN pass:
        # pairs_within asks the uniform grid for every kind.
        count = draw(st.integers(GRID_BACKEND_THRESHOLD + 4, GRID_BACKEND_THRESHOLD + 140)
                     if kind == "grid" else st.integers(1, 120))
        side = 2 * max(math.isqrt(count - 1) + 1, draw(st.integers(1, 40)))
        h, w = side + 10, side + 10
        sites = rng.choice((side // 2) ** 2, count, replace=False)
        vals = np.zeros((h, w))
        vals[5 + 2 * (sites // (side // 2)), 5 + 2 * (sites % (side // 2))] = \
            rng.integers(2, 4, count)
        for _ in range(draw(st.integers(0, 3))):
            cy, cx = rng.integers(2, h - 2), rng.integers(2, w - 2)
            vals[cy - 2:cy + 3, cx - 2:cx + 3] = 3.0
            vals[cy - 1:cy + 2, cx - 1:cx + 2] = 0.0
            vals[cy, cx] = 3.0
    threshold = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    min_distance = draw(st.one_of(st.sampled_from([1.0, 2.0, math.sqrt(8.0), 4.0, 12.0]),
                                  st.floats(1.0, 12.0)))
    return vals, threshold, min_distance


class TestSuppressionMatchesGreedyReference:
    @settings(max_examples=120, deadline=None)
    @given(peak_maps())
    def test_same_peaks_same_order(self, case):
        vals, threshold, min_distance = case
        expected, _ = _reference_extract_peaks(vals, threshold, min_distance)
        got = extract_peaks(DensityMap(vals), threshold, min_distance).coords
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [GRID_BACKEND_THRESHOLD // 2, 2 * GRID_BACKEND_THRESHOLD])
    def test_both_backends_dense_cluster(self, count):
        # Random spikes, many 1-2 px apart; at min_distance 3 some are
        # suppressed. The raw peak counts fall on either side of
        # GRID_BACKEND_THRESHOLD, but that switches only the k-NN pass:
        # pairs_within asks the uniform grid at both counts.
        rng = np.random.default_rng(count)
        vals = np.zeros((64, 64))
        vals[rng.integers(0, 64, count), rng.integers(0, 64, count)] = rng.integers(1, 4, count)
        expected, raw = _reference_extract_peaks(vals, 0.5, 3.0)
        assert (raw >= GRID_BACKEND_THRESHOLD) == (count > GRID_BACKEND_THRESHOLD)
        assert len(expected) < raw
        got = extract_peaks(DensityMap(vals), 0.5, 3.0).coords
        assert got.tobytes() == expected.tobytes()

    def test_twin_components_collapse_to_one(self):
        vals = np.zeros((9, 9))
        vals[2:7, 2:7] = 2.0
        vals[3:6, 3:6] = 0.0
        vals[4, 4] = 2.0
        expected, raw = _reference_extract_peaks(vals, 1.0, 1.0)
        assert raw == 2
        got = extract_peaks(DensityMap(vals), 1.0, 1.0).coords
        assert got.tolist() == expected.tolist() == [[4.0, 4.0]]


def _previous_extract_peaks(vals, threshold, min_distance):
    """extract_peaks before threshold-first candidates and conflict-only
    suppression. Its candidate rule (the threshold, then the background
    left out whenever the map is not constant) and its suppression loop
    (every peak visited in order) are kept as they were."""
    h, w = vals.shape
    flat = vals.ravel()
    above = vals >= threshold
    lowest = vals.min()
    if lowest < vals.max():
        above &= vals > lowest
    pixels = np.flatnonzero(above)
    count = len(pixels)
    ys, xs = np.divmod(pixels, w)
    v = flat[pixels]
    rows = (np.maximum(ys - 1, 0) * w, ys * w, np.minimum(ys + 1, h - 1) * w)
    cols = (np.maximum(xs - 1, 0), xs, np.minimum(xs + 1, w - 1))
    nbr_max = np.full(count, -np.inf)
    equal = {}
    for oy, ox in _NEIGHBOR_OFFSETS:
        nv = flat[rows[oy + 1] + cols[ox + 1]]
        np.maximum(nbr_max, nv, out=nbr_max)
        if oy < 0 or ox < 0:
            equal[oy, ox] = nv == v
    candidate = v >= nbr_max
    up = equal[-1, 0] & (ys > 0)
    left = equal[0, -1] & ~up & ~equal[-1, -1]
    links = (((-1, 0), up), ((-1, 1), equal[-1, 1] & ~up),
             ((-1, -1), equal[-1, -1] & ~up), ((0, -1), left))
    src, dst = [], []
    for (oy, ox), mask in links:
        i = np.flatnonzero(mask)
        src.append(i)
        dst.append(np.searchsorted(pixels, rows[oy + 1][i] + cols[ox + 1][i]))
    labels = _min_label_components(count, np.concatenate(src), np.concatenate(dst))
    poisoned = np.zeros(count, dtype=bool)
    poisoned[labels[~candidate]] = True
    member = ~poisoned[labels]
    roots = labels[member]
    sizes = np.bincount(roots, minlength=count)
    heads = np.flatnonzero(sizes)
    cy = np.bincount(roots, ys[member], count)[heads] / sizes[heads]
    cx = np.bincount(roots, xs[member], count)[heads] / sizes[heads]
    order = np.lexsort((cx, cy, -v[heads]))
    coords = np.column_stack((cx[order], cy[order]))
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
    return coords[~suppressed]


@st.composite
def maps_at_or_above_threshold(draw):
    """Maps whose every pixel is at or above the threshold: constant maps
    and a background plateau at the minimum under spikes or quantized
    noise, with the threshold at the minimum, just below it, and
    negative."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    vals = np.full((h, w), draw(st.sampled_from([0.0, 0.5, 3.0])))
    kind = draw(st.sampled_from(["constant", "spikes", "noise"]))
    if kind == "spikes":
        count = draw(st.integers(1, max(1, h * w // 4)))
        vals.flat[rng.choice(h * w, count, replace=False)] += rng.integers(1, 4, count)
    elif kind == "noise":
        vals += rng.integers(0, draw(st.integers(2, 5)), (h, w))
    lowest = vals.min()
    threshold = draw(st.sampled_from([lowest, np.nextafter(lowest, -math.inf), lowest - 0.5,
                                      -1.0, -1e300]))
    min_distance = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    return vals, float(threshold), min_distance


@st.composite
def suppression_chains(draw):
    """Dense peak fields: spikes on a lattice of spacing 1 or 2 with most
    sites taken, so a peak that is suppressed often has a close later
    peak of its own, which only a kept peak may suppress."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    step = draw(st.sampled_from([1, 2]))
    side = draw(st.integers(2, 16))
    vals = np.zeros((step * side + 2, step * side + 2))
    taken = rng.random((side, side)) < draw(st.floats(0.5, 1.0))
    peaks = rng.integers(1, draw(st.sampled_from([4, 1000])), (side, side))
    vals[1:-1:step, 1:-1:step][taken] = peaks[taken]
    min_distance = draw(st.one_of(st.sampled_from([1.5, 2.5, math.sqrt(8.0), 3.0, 4.5]),
                                  st.floats(1.0, 6.0)))
    return vals, 0.5, min_distance


class TestDecoderRulesMatchPreviousRules:
    @settings(max_examples=150, deadline=None)
    @given(maps_at_or_above_threshold())
    def test_every_pixel_at_or_above_the_threshold(self, case):
        vals, threshold, min_distance = case
        expected = _previous_extract_peaks(vals, threshold, min_distance)
        got = extract_peaks(DensityMap(vals), threshold, min_distance).coords
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(suppression_chains())
    def test_dense_peak_fields(self, case):
        vals, threshold, min_distance = case
        expected = _previous_extract_peaks(vals, threshold, min_distance)
        got = extract_peaks(DensityMap(vals), threshold, min_distance).coords
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("values, kept_x", [
        # A suppresses B; B's conflict with C does not suppress C.
        ((3, 2, 1), [2, 6]),
        # Order A, C, B: B is close to both and suppressed; A and C stay.
        ((3, 1, 2), [2, 6]),
        # A falling row of ten peaks keeps every other one.
        (range(10, 0, -1), [2, 6, 10, 14, 18]),
    ])
    def test_suppressed_peak_suppresses_nothing(self, values, kept_x):
        # Peaks 2 px apart along row 2, so only neighbors conflict at 3 px.
        values = list(values)
        vals = np.zeros((5, 2 * len(values) + 3))
        vals[2, 2:2 + 2 * len(values):2] = values
        got = extract_peaks(DensityMap(vals), 0.5, 3.0).coords
        assert got.tolist() == [[x, 2.0] for x in kept_x]
        assert got.tobytes() == _previous_extract_peaks(vals, 0.5, 3.0).tobytes()


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        dm = DensityMap(rng.random((17, 23)))
        path = tmp_path / "map.csv"
        save_csv(dm, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.values, dm.values)

    def test_binary_round_trip_float32(self, tmp_path):
        rng = np.random.default_rng(6)
        dm = DensityMap(rng.random((9, 14)))
        path = tmp_path / "map.dmap"
        save_binary(dm, path)
        loaded = load_binary(path)
        np.testing.assert_array_equal(
            loaded.values, dm.values.astype(np.float32).astype(np.float64))
        assert (loaded.height, loaded.width) == (9, 14)

    def test_binary_rejects_values_beyond_float32(self, tmp_path):
        # Such a value would be cast to inf, which load_binary rejects.
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "map.dmap"
        for value in (np.nextafter(top, math.inf), 1e39, 1.7e308):
            with pytest.raises(ValueError, match="float32 maximum"):
                save_binary(DensityMap(np.array([[0.0, value], [1.0, 2.0]])), path)
            assert not path.exists()
        save_binary(DensityMap(np.array([[top]])), path)
        assert load_binary(path).values[0, 0] == top

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.dmap"
        path.write_bytes(b"not a density map")
        with pytest.raises(ValueError, match="not a density-map"):
            load_binary(path)

    def test_binary_rejects_truncation(self, tmp_path):
        dm = DensityMap(np.ones((4, 4)))
        path = tmp_path / "map.dmap"
        save_binary(dm, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_binary(path)


_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(values=hnp.arrays(np.float32, _SHAPES, elements=st.floats(
        min_value=0.0, width=32, allow_nan=False, allow_infinity=False)))
    def test_binary_keeps_float32_values_exactly(self, tmp_path_factory, values):
        dm = DensityMap(values.astype(np.float64))
        path = tmp_path_factory.mktemp("dmap") / "map.dmap"
        save_binary(dm, path)
        assert load_binary(path).values.tobytes() == dm.values.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(values=hnp.arrays(np.float64, _SHAPES, elements=st.floats(
        min_value=0.0, allow_nan=False, allow_infinity=False)))
    def test_csv_keeps_float64_values_exactly(self, tmp_path_factory, values):
        # %.17g digits identify every finite double, subnormals included.
        dm = DensityMap(values)
        path = tmp_path_factory.mktemp("csv") / "map.csv"
        save_csv(dm, path)
        assert load_csv(path).values.tobytes() == dm.values.tobytes()


class TestDensityMapValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMap(np.array([[-0.1]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityMap(np.array([[np.nan]]))

    @settings(max_examples=300, deadline=None)
    @given(values=hnp.arrays(np.float64, _SHAPES, elements=st.one_of(
        st.floats(min_value=0.0, allow_infinity=False),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 5e-324, -5e-324,
                         float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max),
                         -float(np.finfo(np.float64).max)]),
        st.floats())))
    def test_accepts_exactly_the_finite_non_negative_maps(self, values):
        if np.all(np.isfinite(values)) and not np.any(values < 0):
            assert DensityMap(values).values.tobytes() == values.tobytes()
        else:
            with pytest.raises(ValueError,
                               match="^density map values must be finite and non-negative$"):
                DensityMap(values)


class TestMapsHaveAPixel:
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_zero_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match="must be 2-D"):
            DensityMap(np.zeros(shape))

    @pytest.mark.parametrize("text", ["", "\n", "\n\n\n", " \t\n", "# no values\n"])
    def test_csv_without_values(self, tmp_path, text):
        # What save_csv wrote for the (0, 3) and (3, 0) maps DensityMap
        # used to accept: np.loadtxt warned and returned shape (0, 1).
        path = tmp_path / "map.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no density-map values") as exc:
            load_csv(path)
        assert str(path) in str(exc.value)

    def test_csv_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("# header\n\n1,2\n3,4  # tail\n")
        assert load_csv(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("height, width", [(0, 0), (0, 3), (3, 0)])
    def test_binary_header_with_zero_dimension(self, tmp_path, height, width):
        path = tmp_path / "map.dmap"
        path.write_bytes(b"DMAP1\x00" + np.array([height, width], "<u4").tobytes())
        with pytest.raises(ValueError, match="must be 2-D"):
            load_binary(path)

    def test_one_pixel_map_decodes(self):
        dm = DensityMap(np.array([[0.5]]))
        assert extract_peaks(dm, 0.25).coords.tolist() == [[0.0, 0.0]]
        assert extract_peaks(dm, 1.0).coords.shape == (0, 2)
