import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmatch.densitymap import (
    DensityMap,
    default_threshold,
    extract_peaks,
    load_binary,
    load_csv,
    render_density,
    save_binary,
    save_csv,
)
from countmatch.geometry import GRID_BACKEND_THRESHOLD, PointLabel, PointSet, pairwise_distances
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

    def test_default_threshold(self):
        dm = DensityMap(np.array([[0.0, 4.0], [1.0, 2.0]]))
        assert default_threshold(dm) == 2.0


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
        # neighbours sit 2 px apart; on the grid side there are enough raw
        # peaks for pairs_within to use the grid index.
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
        # Random spikes, many 1-2 px apart; at min_distance 3 some are suppressed.
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


class TestDensityMapValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMap(np.array([[-0.1]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityMap(np.array([[np.nan]]))
