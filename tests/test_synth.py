import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmatch.geometry import PointLabel, PointSet, all_radii, pairwise_distances
from countmatch.synth import (
    DensityProfile,
    Prng,
    SceneConfig,
    perturb_points,
    sample_points,
    sample_separated,
    two_cluster_layout,
)


class TestPrng:
    def test_deterministic_stream(self):
        a = Prng(12345)
        b = Prng(12345)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_seed_zero_reference_values(self):
        # Frozen from the SplitMix64 recipe; guards the portable contract.
        r = Prng(0)
        assert r.next_u64() == 16294208416658607535
        assert r.next_u64() == 7960286522194355700

    def test_uniform_range(self):
        r = Prng(7)
        xs = [r.uniform() for _ in range(2000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(np.mean(xs) - 0.5) < 0.02

    def test_normal_moments(self):
        r = Prng(8)
        xs = [r.normal() for _ in range(4000)]
        assert abs(np.mean(xs)) < 0.05
        assert abs(np.std(xs) - 1.0) < 0.05

    def test_poisson_moments(self):
        r = Prng(9)
        xs = [r.poisson(4.0) for _ in range(2000)]
        assert abs(np.mean(xs) - 4.0) < 0.15
        assert r.poisson(0.0) == 0

    def test_poisson_large_rate_chunks(self):
        r = Prng(10)
        x = r.poisson(1500.0)
        assert 1300 < x < 1700

    def test_poisson_rejects_negative(self):
        with pytest.raises(ValueError):
            Prng(0).poisson(-1.0)


class TestSamplePoints:
    def test_zero_points(self):
        cfg = SceneConfig(width=64, height=64, n_points=0)
        assert len(sample_points(cfg)) == 0

    def test_bit_identical_reruns(self):
        cfg = SceneConfig(width=256, height=256, n_points=100,
                          profile=DensityProfile.UNIFORM, seed=42)
        a = sample_points(cfg)
        b = sample_points(cfg)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_uniform_bounds_and_spread(self):
        cfg = SceneConfig(width=256, height=256, n_points=100, seed=3)
        pts = sample_points(cfg)
        assert len(pts) == 100
        assert (pts.coords >= 0).all()
        assert (pts.coords[:, 0] < 256).all()
        assert (pts.coords[:, 1] < 256).all()
        # mean nearest-neighbor spacing for uniform sampling is about
        # 0.5 / sqrt(density); allow a generous band
        d = pairwise_distances(pts, pts)
        np.fill_diagonal(d, np.inf)
        nn = d.min(axis=1).mean()
        expected = 0.5 / math.sqrt(100 / (256 * 256))
        assert 0.6 * expected < nn < 1.4 * expected

    def test_label(self):
        cfg = SceneConfig(width=32, height=32, n_points=5, seed=1)
        assert sample_points(cfg).label is PointLabel.GROUND_TRUTH

    def test_gradient_profile_denser_on_the_right(self):
        cfg = SceneConfig(width=200, height=100, n_points=400,
                          profile=DensityProfile.GRADIENT, seed=5)
        pts = sample_points(cfg)
        left = (pts.coords[:, 0] < 100).sum()
        right = (pts.coords[:, 0] >= 100).sum()
        assert right > 2 * left

    def test_two_cluster_structure(self):
        cfg = SceneConfig(width=160, height=96, n_points=50,
                          profile=DensityProfile.TWO_CLUSTER,
                          spacing_dense=1.0, spacing_sparse=12.0, seed=7)
        pts = sample_points(cfg)
        lay = two_cluster_layout(cfg)
        assert len(pts) == 50
        assert lay.n_dense == 25 and lay.n_sparse == 25
        dense = pts.coords[:lay.n_dense]
        sparse = pts.coords[lay.n_dense:]
        assert (dense[:, 0] < lay.midline_x).all()
        assert (sparse[:, 0] > lay.midline_x).all()

    def test_two_cluster_regime_separation(self):
        # Dense-cluster adaptive radii stay strictly below sparse-region
        # radii for every seed when the spacing ratio is >= 4.
        for seed in range(30):
            cfg = SceneConfig(width=160, height=96, n_points=40,
                              profile=DensityProfile.TWO_CLUSTER,
                              spacing_dense=2.0, spacing_sparse=8.0, seed=seed)
            pts = sample_points(cfg)
            lay = two_cluster_layout(cfg)
            prof = all_radii(pts, pts, k=5, floor=1e-6)
            assert prof.radii[:lay.n_dense].mean() < prof.radii[lay.n_dense:].mean()

    def test_infeasible_packing(self):
        cfg = SceneConfig(width=20, height=20, n_points=100,
                          profile=DensityProfile.TWO_CLUSTER,
                          spacing_dense=2.0, spacing_sparse=10.0, seed=0)
        with pytest.raises(ValueError, match="infeasible packing"):
            sample_points(cfg)

    def test_jitter_stays_in_bounds(self):
        cfg = SceneConfig(width=120, height=90, n_points=30,
                          profile=DensityProfile.TWO_CLUSTER,
                          spacing_dense=1.5, spacing_sparse=9.0,
                          jitter=0.5, seed=11)
        pts = sample_points(cfg)
        assert (pts.coords >= 0).all()
        assert (pts.coords[:, 0] < 120).all()
        assert (pts.coords[:, 1] < 90).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(width=0, height=10, n_points=1)
        with pytest.raises(ValueError):
            SceneConfig(width=10, height=10, n_points=-1)
        with pytest.raises(ValueError):
            SceneConfig(width=10, height=10, n_points=1, jitter=-0.1)
        with pytest.raises(ValueError):
            SceneConfig(width=10, height=10, n_points=1, spacing_dense=0.0)

    @pytest.mark.parametrize("profile", list(DensityProfile))
    def test_numpy_integer_count_is_its_int(self, profile):
        # A uint8 count of 255 would wrap in the scene's n + 1 and 2 * n.
        want = sample_points(SceneConfig(400, 400, 255, profile)).coords
        assert sample_points(SceneConfig(400, 400, np.uint8(255), profile)).coords.tobytes() \
            == want.tobytes()
        want = sample_separated(5, 10.0, 10.0, 1.0).coords
        assert sample_separated(np.uint8(5), 10.0, 10.0, 1.0).coords.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["spacing_dense", "spacing_sparse"])
    def test_spacings_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match="^spacings must be positive and finite$"):
            SceneConfig(width=64, height=64, n_points=10, **{name: value})


class TestPerturbPoints:
    def test_identity_when_disabled(self):
        rng = np.random.default_rng(0)
        pts = PointSet(rng.uniform(0, 50, (30, 2)))
        out = perturb_points(pts, drop_rate=0.0, spurious_rate=0.0, noise_sigma=0.0, seed=5)
        np.testing.assert_array_equal(out.coords, pts.coords)
        assert out.label is PointLabel.PREDICTED

    def test_drop_all_leaves_only_spurious(self):
        rng = np.random.default_rng(1)
        pts = PointSet(rng.uniform(0, 50, (40, 2)))
        out = perturb_points(pts, drop_rate=1.0, spurious_rate=0.5, noise_sigma=0.0,
                             seed=6, bounds=(50, 50))
        assert 0 < len(out) < 40  # only the Poisson spurious points remain

    def test_drop_all_no_spurious_empty(self):
        pts = PointSet([(1, 1), (2, 2)])
        out = perturb_points(pts, drop_rate=1.0)
        assert len(out) == 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = PointSet(rng.uniform(0, 9, (25, 2)))
        a = perturb_points(pts, 0.3, 0.2, 0.7, seed=9, bounds=(9, 9))
        b = perturb_points(pts, 0.3, 0.2, 0.7, seed=9, bounds=(9, 9))
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_survivor_mean_matches_binomial(self):
        # drop 0.1 on 200 points: survivors average 180 within 3 standard
        # errors over 50 seeds.
        rng = np.random.default_rng(3)
        pts = PointSet(rng.uniform(0, 100, (200, 2)))
        survivors = [len(perturb_points(pts, 0.1, 0.0, 0.0, seed=s)) for s in range(50)]
        se = math.sqrt(200 * 0.1 * 0.9 / 50)
        assert abs(np.mean(survivors) - 180.0) <= 3 * se

    def test_noise_displaces_by_sigma(self):
        rng = np.random.default_rng(4)
        pts = PointSet(rng.uniform(100, 200, (300, 2)))
        out = perturb_points(pts, 0.0, 0.0, noise_sigma=2.0, seed=11)
        disp = out.coords - pts.coords
        assert abs(disp.std() - 2.0) < 0.2

    def test_spurious_within_bounds(self):
        pts = PointSet([(5, 5)])
        out = perturb_points(pts, 0.0, 20.0, 0.0, seed=12, bounds=(64, 32))
        assert (out.coords[:, 0] < 64).all()
        assert (out.coords[:, 1] < 32).all()
        assert (out.coords >= 0).all()

    def test_spurious_bbox_fallback(self):
        # Without explicit bounds, spurious points land in the input's
        # bounding box.
        pts = PointSet([(10, 20), (30, 40)])
        out = perturb_points(pts, drop_rate=1.0, spurious_rate=30.0, seed=13)
        assert len(out) > 0
        assert (out.coords[:, 0] >= 10).all() and (out.coords[:, 0] <= 30).all()
        assert (out.coords[:, 1] >= 20).all() and (out.coords[:, 1] <= 40).all()

    def test_empty_input_stays_empty(self):
        out = perturb_points(PointSet([]), drop_rate=0.5, spurious_rate=5.0, seed=1)
        assert len(out) == 0

    def test_rate_validation(self):
        pts = PointSet([(1, 1)])
        with pytest.raises(ValueError):
            perturb_points(pts, drop_rate=1.5)
        with pytest.raises(ValueError):
            perturb_points(pts, drop_rate=0.0, noise_sigma=-1.0)

    @pytest.mark.parametrize("name", ["noise_sigma", "spurious_rate"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_rates_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be non-negative and finite"):
            perturb_points(PointSet([(1, 1)]), drop_rate=0.0, bounds=(4, 4), **{name: value})


def test_scene_coordinates_frozen():
    # A digest of generated coordinates, bit for bit, over every profile,
    # jittered and clamped scenes, and perturbations with and without
    # bounds (noise 2 px pushes some survivors onto the clamp).
    h = hashlib.sha256()
    for seed in range(6):
        for profile in DensityProfile:
            gt = sample_points(SceneConfig(72, 52, 150, profile, spacing_dense=2.0,
                                           spacing_sparse=6.0, jitter=1.5, seed=seed))
            h.update(gt.coords.tobytes())
            for bounds in (None, (72, 52)):
                pred = perturb_points(gt, 0.1, 0.05, noise_sigma=2.0, seed=seed + 100,
                                      bounds=bounds)
                h.update(pred.coords.tobytes())
    assert h.hexdigest() == "a362805c3fe291dd5231bb2437061a3bd7d5b00ef4f3f8c29866ddc960a55303"


class TestSampleSeparated:
    def test_separation_and_margin(self):
        pts = sample_separated(40, 256, 256, min_separation=16, margin=8, seed=3)
        assert len(pts) == 40
        d = pairwise_distances(pts, pts)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 16.0
        assert (pts.coords >= 8).all()
        assert (pts.coords <= 248).all()

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="infeasible packing"):
            sample_separated(100, 32, 32, min_separation=16, seed=0,
                             max_attempts_per_point=200)

    def test_deterministic(self):
        a = sample_separated(10, 64, 64, 8, seed=5)
        b = sample_separated(10, 64, 64, 8, seed=5)
        np.testing.assert_array_equal(a.coords, b.coords)


def _reference_sample_separated(n, width, height, min_separation, margin=0.0, seed=0,
                                max_attempts_per_point=2000):
    """The quadratic dart-throwing loop that the background grid replaced, verbatim."""
    rng = Prng(seed)
    placed = []
    for _ in range(n):
        for attempt in range(max_attempts_per_point):
            x = rng.uniform_in(margin, width - margin)
            y = rng.uniform_in(margin, height - margin)
            if all((x - px) ** 2 + (y - py) ** 2 >= min_separation ** 2
                   for px, py in placed):
                placed.append((x, y))
                break
        else:
            raise ValueError(
                f"infeasible packing: placed {len(placed)} of {n} points at "
                f"separation {min_separation}")
    return PointSet(placed, label=PointLabel.GROUND_TRUTH)


class TestSampleSeparatedGrid:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, width, height, sep, margin", [
        (60, 64, 64, 5.0, 0.0),        # dense: many rejections
        (200, 300, 120, 7.5, 3.25),
        (90, 40.5, 97, 3, 1.5),        # integer separation, fractional size
        (40, 1000, 1000, 150.0, 10.0),  # runs out of attempts at 30-33 points
        (150, 2, 2, 0.1, 0.0),
        (25, 50, 50, math.inf, 0.0),   # one point fits, then infeasible
    ])
    def test_equals_reference_loop(self, seed, n, width, height, sep, margin):
        def run(f):
            try:
                return f(n, width, height, sep, margin=margin, seed=seed,
                         max_attempts_per_point=300).coords
            except ValueError as exc:
                return str(exc)
        got, want = run(sample_separated), run(_reference_sample_separated)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()

    def test_infeasible_message_equals_reference(self):
        args = (100, 32, 32, 16)
        with pytest.raises(ValueError) as want:
            _reference_sample_separated(*args, seed=0, max_attempts_per_point=200)
        with pytest.raises(ValueError) as got:
            sample_separated(*args, seed=0, max_attempts_per_point=200)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("infeasible packing: placed ")

    @pytest.mark.parametrize("sep", [0.0, -3.0])
    def test_non_positive_separation_accepts_every_candidate(self, sep):
        got = sample_separated(50, 20, 20, sep, margin=1.0, seed=4, max_attempts_per_point=1)
        want = _reference_sample_separated(50, 20, 20, 0.0, margin=1.0, seed=4,
                                           max_attempts_per_point=1)
        assert got.coords.tobytes() == want.coords.tobytes()

    def test_separation_whose_square_overflows(self):
        with pytest.raises(ValueError) as got:
            sample_separated(2, 100, 100, 2e154)
        assert str(got.value) == "infeasible packing: placed 1 of 2 points at separation 2e+154"

    @pytest.mark.parametrize("shift", [-1000, 600, 1015])
    def test_power_of_two_scaling_up_to_float_max(self, shift):
        # Scaling every length by 2**shift scales the points exactly; at
        # 2**1015 the scene spans 2**1023 and the separation is 2**1019.
        want = sample_separated(40, 256, 256, 16, margin=8, seed=3).coords
        got = sample_separated(40, *(math.ldexp(v, shift) for v in (256, 256, 16)),
                               margin=math.ldexp(8, shift), seed=3).coords
        assert got.tobytes() == np.ldexp(want, shift).tobytes()

    def test_subnormal_separation_equals_zero(self):
        got = sample_separated(5, 10.0, 10.0, 1e-310)
        assert got.coords.tobytes() == sample_separated(5, 10.0, 10.0, 0.0).coords.tobytes()

    def test_nan_separation_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            sample_separated(3, 20, 20, math.nan)

    def test_4000_points_quickly(self):
        # The quadratic scan took about 2 s here; the grid takes about 0.05 s.
        t0 = time.perf_counter()
        pts = sample_separated(4000, 2000, 2000, 5.0, seed=1)
        assert time.perf_counter() - t0 < 0.5
        assert len(pts) == 4000


def _reference_sample_points(cfg):
    """The one-call-per-value loop that the block draws replaced, verbatim
    but for the clamp, written out."""
    rng = Prng(cfg.seed)
    pts = []
    if cfg.profile is DensityProfile.UNIFORM:
        for _ in range(cfg.n_points):
            pts.append((rng.uniform() * cfg.width, rng.uniform() * cfg.height))
    elif cfg.profile is DensityProfile.GRADIENT:
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
    top = (math.nextafter(float(cfg.width), 0.0), math.nextafter(float(cfg.height), 0.0))
    return PointSet([(min(max(x, 0.0), top[0]), min(max(y, 0.0), top[1])) for x, y in pts],
                    label=PointLabel.GROUND_TRUTH)


def _reference_perturb_points(points, drop_rate, spurious_rate=0.0, noise_sigma=0.0, seed=0,
                              bounds=None):
    """The one-call-per-value loop that the block draws replaced, verbatim
    but for the input checks, left out, and the clamp, written out."""
    if bounds is not None:
        top = (math.nextafter(float(bounds[0]), 0.0), math.nextafter(float(bounds[1]), 0.0))
    rng = Prng(seed)
    out = []
    for x, y in points.coords.tolist():
        if rng.uniform() < drop_rate:
            continue
        if noise_sigma > 0:
            x = x + noise_sigma * rng.normal()
            y = y + noise_sigma * rng.normal()
        if bounds is not None:
            x, y = min(max(x, 0.0), top[0]), min(max(y, 0.0), top[1])
        out.append((x, y))
    n_spurious = rng.poisson(spurious_rate * len(points))
    if n_spurious:
        if bounds is not None:
            x0, y0, x1, y1 = 0.0, 0.0, float(bounds[0]), float(bounds[1])
        else:
            x0, y0 = points.coords.min(axis=0)
            x1, y1 = points.coords.max(axis=0)
        for _ in range(n_spurious):
            out.append((rng.uniform_in(x0, x1), rng.uniform_in(y0, y1)))
    return PointSet(out, label=PointLabel.PREDICTED)


def _outcome(f, *args, **kwargs):
    """The coordinates' bits, or the message of the ValueError raised."""
    try:
        return f(*args, **kwargs).coords.view(np.uint64)
    except ValueError as exc:
        return str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        np.testing.assert_array_equal(got, want)


_SEEDS = st.integers(-(2 ** 63), 2 ** 64 - 1)
_SIZES = st.one_of(st.integers(1, 2000), st.floats(1.0, 2000.0))


@st.composite
def scene_configs(draw):
    return SceneConfig(
        width=draw(_SIZES), height=draw(_SIZES), n_points=draw(st.integers(0, 300)),
        profile=draw(st.sampled_from(DensityProfile)),
        spacing_dense=draw(st.floats(0.1, 4.0)), spacing_sparse=draw(st.floats(1.0, 30.0)),
        jitter=draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0))), seed=draw(_SEEDS))


class TestBlockDraws:
    """``sample_points`` and ``perturb_points`` draw their uniforms in numpy
    blocks; every coordinate keeps the bits of one ``Prng`` call per value."""

    @pytest.mark.parametrize("seed", [0, 1, -1, 2 ** 63, 2 ** 64 - 0x9E3779B97F4A7C15])
    @pytest.mark.parametrize("count", [0, 1, 7, 1000])
    def test_block_equals_consecutive_uniforms(self, seed, count):
        # 2^64 - gamma: the first state wraps to exactly 0, whose mix is 0.
        block, scalar = Prng(seed), Prng(seed)
        got = block._uniforms(count)
        want = np.array([scalar.uniform() for _ in range(count)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (count,)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert block._state == scalar._state
        assert block.next_u64() == scalar.next_u64()

    @given(scene_configs(),
           st.lists(st.tuples(*[st.one_of(st.just(-0.0), st.floats(-30.0, 430.0))] * 2),
                    max_size=20),
           st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
           st.floats(0.0, 3.0),
           st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
           _SEEDS,
           st.one_of(st.none(), st.tuples(_SIZES, _SIZES)))
    @settings(deadline=None)
    def test_equal_to_one_call_per_value(self, cfg, extra, drop_rate, spurious_rate,
                                         noise_sigma, seed, bounds):
        # Run with --hypothesis-profile=ci for the CI example count.
        want = _outcome(_reference_sample_points, cfg)
        _assert_same_outcome(_outcome(sample_points, cfg), want)
        scene = np.zeros((0, 2)) if isinstance(want, str) else sample_points(cfg).coords
        points = PointSet.from_coords(np.concatenate([scene, np.reshape(extra, (-1, 2))]))
        args = (points, drop_rate, spurious_rate, noise_sigma, seed, bounds)
        _assert_same_outcome(_outcome(perturb_points, *args),
                             _outcome(_reference_perturb_points, *args))


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _undo_xorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix(z):
    """The state that SplitMix64's output mixer maps to ``z``: each of its
    xor-shifts and odd multipliers has an inverse."""
    z = _undo_xorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = _undo_xorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return _undo_xorshift(z, 30)


@pytest.mark.parametrize("survivor", [0, 4, 9])
@pytest.mark.parametrize("bounds", [None, (40, 30)])
def test_box_muller_draws_a_zero_u1_again(survivor, bounds):
    # With no drops, draw 3i is point i's drop draw and 3i + 1 its u1. The
    # seed puts the output 2047, whose uniform is exactly 0.0, at the
    # chosen survivor's u1, so Box-Muller reads the next value in its place.
    at = 3 * survivor + 1
    seed = (_unmix(2047) - (at + 1) * _GAMMA) & _MASK
    rng = Prng(seed)
    for _ in range(at):
        rng.next_u64()
    assert rng.next_u64() == 2047
    points = PointSet.from_coords(np.random.default_rng(5).uniform(0, 30, (10, 2)))
    args = (points, 0.0, 0.4, 1.5, seed, bounds)
    got, want = perturb_points(*args), _reference_perturb_points(*args)
    np.testing.assert_array_equal(got.coords.view(np.uint64), want.coords.view(np.uint64))
