import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from countmatch import dynconv
from countmatch.dynconv import (
    AttentionState,
    FeatureMap,
    ParamField,
    dynamic_gaussian_conv,
    fusion_attention,
    multiscale_forward,
    predict_params,
)
from countmatch.kernels import (
    KernelParams,
    _gaussian_factors,
    _offset_coefficient,
    squash_offset,
    squash_sigma,
    synthesize_kernel,
)


def naive_conv(feature, field, size, renormalize=False):
    """Oracle: five nested loops, per-pixel kernel from the scalar formula."""
    c, h, w = feature.values.shape
    half = size // 2
    out = np.zeros((c, h, w))
    for y in range(h):
        for x in range(w):
            sigma = float(squash_sigma(field.raws[0, y, x]))
            dx = float(squash_offset(field.raws[1, y, x]))
            dy = float(squash_offset(field.raws[2, y, x]))
            sx = field.sx * sigma
            sy = field.sy * sigma
            norm = 1.0 / (2 * math.pi * sx * sy)
            terms = {}
            for v in range(-half, half + 1):
                for u in range(-half, half + 1):
                    terms[(u, v)] = norm * math.exp(
                        -((u - dx) ** 2) / (2 * sx * sx) - ((v - dy) ** 2) / (2 * sy * sy))
            scale = 1.0 / math.fsum(terms.values()) if renormalize else 1.0
            for ch in range(c):
                acc = []
                for v in range(-half, half + 1):
                    for u in range(-half, half + 1):
                        yy, xx = y + v, x + u
                        if 0 <= yy < h and 0 <= xx < w:
                            acc.append(feature.values[ch, yy, xx] * terms[(u, v)] * scale)
                out[ch, y, x] = math.fsum(acc)
    return out


def single_block_pass(feature, field, halves, renormalize):
    """The Gaussian pass over the whole image as one block, as it stood
    before the strip pass; the strip pass must reproduce its bits."""
    _ring = dynconv._ring
    if (field.height, field.width) != (feature.height, feature.width):
        raise ValueError(
            f"parameter field misaligned: field is {field.height}x{field.width}, "
            f"feature is {feature.height}x{feature.width}")
    c, h, w = feature.values.shape
    top = max(halves)
    # Squashed per-pixel Gaussian factors, shared by all kernel offsets.
    sigma = squash_sigma(field.raws[0])
    dx, dy = squash_offset(field.raws[1]), squash_offset(field.raws[2])
    sx2, sy2, norm = _gaussian_factors(field.sx * sigma, field.sy * sigma)
    padded = np.pad(feature.values, ((0, 0), (top, top), (top, top)))
    x_terms = {u: -((u - dx) ** 2) / sx2 for u in range(-top, top + 1)}
    y_terms = {v: ((v - dy) ** 2) / sy2 for v in range(-top, top + 1)}

    out = np.zeros((c, h, w))
    tmp = np.empty((c, h, w))
    denom = np.zeros((h, w)) if renormalize else None
    saved = {}
    for r in range(top + 1):
        for u, v in _ring(r):
            coeff = _offset_coefficient(norm, x_terms[u], y_terms[v])
            if denom is not None:
                denom += coeff
            np.multiply(coeff, padded[:, v + top:v + top + h, u + top:u + top + w], out=tmp)
            out += tmp
        if r in halves:
            saved[r] = out / denom if denom is not None else out.copy()
    return saved


class TestFeatureMapValidation:
    def test_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            FeatureMap(np.full((1, 2, 2), np.nan))
        fm = FeatureMap(np.ones((2, 3, 4)))
        assert (fm.channels, fm.height, fm.width) == (2, 3, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_still_scans_its_input(self, bad):
        # The module's own outputs skip the scan; the public constructor
        # does not.
        values = np.ones((2, 3, 4))
        values[1, 2, 3] = bad
        with pytest.raises(ValueError, match="feature map values must be finite"):
            FeatureMap(values)

    def test_param_field_validation(self):
        with pytest.raises(ValueError):
            ParamField(np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            ParamField(np.zeros((3, 4, 4)), sx=0.0)

    @pytest.mark.parametrize("scale", [1e155, 1e-155, 1e160, 1e-160])
    @pytest.mark.parametrize("axis", ["sx", "sy"])
    def test_axial_scales_whose_factors_leave_float_range(self, axis, scale):
        # The kernels rule, raised at construction rather than in the conv.
        with pytest.raises(ValueError, match="axial scales .* over- or underflow"):
            ParamField(np.zeros((3, 4, 4)), **{axis: scale})


    @pytest.mark.parametrize("axis", ["sx", "sy"])
    def test_offset_terms_beyond_float_range(self, axis):
        # As in synthesize_kernel: an offset term that overflows gives a
        # coefficient of 0, without a warning, and an impulse still
        # reproduces the synthesized kernel bit for bit.
        field = ParamField(np.full((3, 9, 9), -30.0), **{axis: 2e-154})
        out = multiscale_forward(FeatureMap(np.ones((2, 9, 9))), field).values
        assert np.isfinite(out).all() and out.any()
        impulse = np.zeros((1, 9, 9))
        impulse[0, 4, 4] = 1.0
        response = dynamic_gaussian_conv(FeatureMap(impulse), field, 9).values[0]
        params = KernelParams(sigma=float(squash_sigma(-30.0)), dx=float(squash_offset(-30.0)),
                              dy=float(squash_offset(-30.0)), **{axis: 2e-154})
        assert response.tobytes() == synthesize_kernel(params, 9).values[::-1, ::-1].tobytes()


class TestPredictParams:
    def test_zero_head_gives_squash_midpoint(self):
        fm = FeatureMap(np.random.default_rng(0).normal(size=(4, 5, 6)))
        field = predict_params(fm, np.zeros((3, 4)))
        assert (field.raws == 0).all()
        assert float(squash_sigma(field.raws[0, 0, 0])) == 5.5

    def test_identity_weight_passthrough(self):
        fm = FeatureMap(np.arange(12, dtype=float).reshape(1, 3, 4))
        field = predict_params(fm, np.array([[1.0], [0.0], [0.0]]))
        np.testing.assert_array_equal(field.raws[0], fm.values[0])
        assert (field.raws[1:] == 0).all()

    def test_matches_per_pixel_dot_products(self):
        rng = np.random.default_rng(1)
        fm = FeatureMap(rng.normal(size=(5, 4, 3)))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        field = predict_params(fm, w, b)
        for y in range(4):
            for x in range(3):
                expected = w @ fm.values[:, y, x] + b
                np.testing.assert_allclose(field.raws[:, y, x], expected, atol=1e-12)

    def test_channel_mismatch(self):
        fm = FeatureMap(np.ones((4, 2, 2)))
        with pytest.raises(ValueError, match="head weights"):
            predict_params(fm, np.zeros((3, 5)))


class TestDynamicGaussianConv:
    def test_constant_preserved_with_renormalized_kernels(self):
        rng = np.random.default_rng(2)
        fm = FeatureMap(np.ones((1, 10, 12)))
        field = ParamField(rng.normal(size=(3, 10, 12)))
        out = dynamic_gaussian_conv(fm, field, 5, renormalize=True)
        interior = out.values[0, 2:-2, 2:-2]
        np.testing.assert_allclose(interior, 1.0, atol=1e-12)

    def test_impulse_reproduces_flipped_kernel(self):
        h = w = 11
        raws = np.zeros((3, h, w))
        raws[0] += 0.37
        raws[1] += -0.25
        raws[2] += 0.4
        field = ParamField(raws, sx=1.1, sy=0.9)
        impulse = np.zeros((1, h, w))
        impulse[0, 5, 5] = 1.0
        out = dynamic_gaussian_conv(FeatureMap(impulse), field, 5)
        params = KernelParams(sigma=float(squash_sigma(0.37)),
                              dx=float(squash_offset(-0.25)),
                              dy=float(squash_offset(0.4)), sx=1.1, sy=0.9)
        kernel = synthesize_kernel(params, 5).values
        # out[5+t, 5+s] = K(-s, -t): the kernel flipped in both axes
        for t in range(-2, 3):
            for s in range(-2, 3):
                assert out.values[0, 5 + t, 5 + s] == pytest.approx(
                    kernel[2 - t, 2 - s], abs=1e-12)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(3)
        fm = FeatureMap(rng.normal(size=(2, 8, 8)))
        field = ParamField(rng.normal(size=(3, 8, 8)) * 0.8, sx=1.3, sy=0.7)
        out = dynamic_gaussian_conv(fm, field, 5)
        expected = naive_conv(fm, field, 5)
        assert np.abs(out.values - expected).max() <= 1e-10

    def test_matches_naive_loop_oracle_renormalized(self):
        rng = np.random.default_rng(4)
        fm = FeatureMap(rng.normal(size=(2, 6, 7)))
        field = ParamField(rng.normal(size=(3, 6, 7)) * 0.5)
        out = dynamic_gaussian_conv(fm, field, 3, renormalize=True)
        expected = naive_conv(fm, field, 3, renormalize=True)
        assert np.abs(out.values - expected).max() <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 9, 9))
        b = rng.normal(size=(2, 9, 9))
        field = ParamField(rng.normal(size=(3, 9, 9)) * 0.6, sx=0.8, sy=1.4)
        lhs = dynamic_gaussian_conv(FeatureMap(2.5 * a - 1.5 * b), field, 5).values
        rhs = (2.5 * dynamic_gaussian_conv(FeatureMap(a), field, 5).values
               - 1.5 * dynamic_gaussian_conv(FeatureMap(b), field, 5).values)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_misaligned_field_rejected(self):
        fm = FeatureMap(np.ones((1, 4, 4)))
        field = ParamField(np.zeros((3, 5, 5)))
        with pytest.raises(ValueError, match="misaligned"):
            dynamic_gaussian_conv(fm, field, 3)

    def test_size_validation(self):
        fm = FeatureMap(np.ones((1, 4, 4)))
        field = ParamField(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            dynamic_gaussian_conv(fm, field, 4)

    @pytest.mark.parametrize("size", [3.0, 3.5, 5.0, 2.5])
    def test_non_integer_size_is_value_error(self, size):
        # The kernel module's size rule, with multiscale's "invalid scale".
        fm = FeatureMap(np.ones((1, 4, 4)))
        field = ParamField(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError, match="must be an integer"):
            dynamic_gaussian_conv(fm, field, size)
        with pytest.raises(ValueError, match="invalid scale: kernel size must be an integer"):
            multiscale_forward(fm, field, scales=(size,))


class TestMultiscaleForward:
    def test_first_block_is_identity(self):
        rng = np.random.default_rng(7)
        fm = FeatureMap(rng.normal(size=(2, 6, 6)))
        field = ParamField(np.zeros((3, 6, 6)))
        out = multiscale_forward(fm, field, scales=(3,))
        np.testing.assert_array_equal(out.values[:2], fm.values)

    def test_channel_counts(self):
        fm = FeatureMap(np.ones((2, 5, 5)))
        field = ParamField(np.zeros((3, 5, 5)))
        out = multiscale_forward(fm, field, scales=(3, 5))
        assert out.channels == 2 * 2 * 2
        out = multiscale_forward(fm, field, scales=(3, 5, 7, 9))
        assert out.channels == 2 * 4 * 2

    def test_blocks_match_single_scale_calls(self):
        rng = np.random.default_rng(8)
        fm = FeatureMap(rng.normal(size=(2, 7, 7)))
        field = ParamField(rng.normal(size=(3, 7, 7)) * 0.4, sx=1.1, sy=1.3)
        scales = (3, 5)
        out = multiscale_forward(fm, field, scales=scales)
        c = 2
        for si, s in enumerate(scales):
            np.testing.assert_array_equal(out.values[si * c:(si + 1) * c], fm.values)
        base = len(scales) * c
        for si, s in enumerate(scales):
            expected = dynamic_gaussian_conv(fm, field, s).values
            np.testing.assert_array_equal(
                out.values[base + si * c: base + (si + 1) * c], expected)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_blocks_are_single_scale_convs(self, data):
        c = data.draw(st.integers(1, 3))
        h, w = data.draw(st.one_of(st.sampled_from([(1, 1), (2, 9), (9, 2)]),
                                   st.tuples(st.integers(1, 8), st.integers(1, 8))))
        scales = data.draw(st.lists(st.sampled_from([3, 5, 7, 9, 11]), min_size=1, max_size=4))
        renormalize = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        fm = FeatureMap(rng.normal(size=(c, h, w)))
        field = ParamField(rng.normal(size=(3, h, w)), sx=rng.uniform(0.6, 1.6),
                           sy=rng.uniform(0.6, 1.6))
        out = multiscale_forward(fm, field, scales=scales, renormalize=renormalize).values
        assert out.shape == (2 * len(scales) * c, h, w)
        n = len(scales) * c
        np.testing.assert_array_equal(out[:n], np.concatenate([fm.values] * len(scales)))
        for si, s in enumerate(scales):
            block = out[n + si * c:n + (si + 1) * c]
            single = dynamic_gaussian_conv(fm, field, s, renormalize=renormalize).values
            assert block.tobytes() == single.tobytes()
            assert np.abs(block - naive_conv(fm, field, s, renormalize=renormalize)).max() <= 1e-10

    def test_each_offset_coefficient_evaluated_once(self, monkeypatch):
        calls = []
        real = dynconv._offset_coefficient

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(dynconv, "_offset_coefficient", counted)
        rng = np.random.default_rng(11)
        fm = FeatureMap(rng.normal(size=(2, 6, 6)))
        field = ParamField(rng.normal(size=(3, 6, 6)))
        multiscale_forward(fm, field, scales=(3, 5, 7, 9))
        assert len(calls) == 81
        calls.clear()
        dynamic_gaussian_conv(fm, field, 5)
        assert len(calls) == 25

    def test_misaligned_field_rejected(self):
        fm = FeatureMap(np.ones((1, 4, 4)))
        field = ParamField(np.zeros((3, 5, 5)))
        with pytest.raises(ValueError, match="misaligned"):
            multiscale_forward(fm, field)

    def test_invalid_scales(self):
        fm = FeatureMap(np.ones((1, 4, 4)))
        field = ParamField(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError, match="invalid scale"):
            multiscale_forward(fm, field, scales=())
        with pytest.raises(ValueError, match="invalid scale"):
            multiscale_forward(fm, field, scales=(3, 4))


class TestFusionAttention:
    def test_zero_alpha_gives_channel_means(self):
        rng = np.random.default_rng(9)
        fm = FeatureMap(rng.normal(size=(5, 6, 7)))
        out, state = fusion_attention(fm, np.zeros(5))
        expected = [math.fsum(fm.values[c].ravel()) / (6 * 7) for c in range(5)]
        np.testing.assert_allclose(state.alpha_prime, expected, atol=1e-12)

    def test_zero_input_returns_alpha(self):
        fm = FeatureMap(np.zeros((3, 4, 4)))
        alpha = np.array([0.5, -1.0, 2.0])
        out, state = fusion_attention(fm, alpha)
        np.testing.assert_array_equal(state.alpha_prime, alpha)
        assert (out.values == 0).all()

    def test_gating_formula(self):
        rng = np.random.default_rng(10)
        fm = FeatureMap(rng.normal(size=(4, 3, 3)))
        alpha = rng.normal(size=4)
        out, state = fusion_attention(fm, alpha)
        gate = 1.0 / (1.0 + np.exp(-state.alpha_prime))
        np.testing.assert_allclose(out.values, fm.values * gate[:, None, None], atol=1e-12)
        assert isinstance(state, AttentionState)

    def test_constant_channels_identity(self):
        # With alpha = 0 and constant channels, the logits are exactly
        # those constants.
        consts = np.array([1.5, -2.0, 0.25])
        fm = FeatureMap(np.broadcast_to(consts[:, None, None], (3, 5, 5)).copy())
        _, state = fusion_attention(fm, np.zeros(3))
        np.testing.assert_array_equal(state.alpha_prime, consts)

    def test_length_mismatch(self):
        fm = FeatureMap(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="alpha length"):
            fusion_attention(fm, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_is_named(self, bad):
        fm = FeatureMap(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="alpha must be finite"):
            fusion_attention(fm, np.array([0.0, bad]))

    @pytest.mark.parametrize("values, alpha", [(1e307, 1.7e308)], ids=["logit"])
    def test_overflowing_logits_are_value_errors(self, values, alpha):
        fm = FeatureMap(np.full((2, 3, 3), values))
        with pytest.raises(ValueError, match="overflows"):
            fusion_attention(fm, np.array([alpha, 0.0]))

    @pytest.mark.parametrize("first, mean, gate", [
        (np.full((3, 3), 1e308), 1e308, 1.0),
        # The halves sum to inf and -inf: the plain mean is nan.
        (np.repeat([[1e308], [-1e308]], 4, axis=1), 0.0, 0.5),
    ], ids=["mean", "plus-minus"])
    def test_channel_means_near_float_max(self, first, mean, gate):
        # Each channel's sum overflows, its mean does not.
        fm = FeatureMap(np.stack([first, np.full_like(first, 1e308)]))
        out, state = fusion_attention(fm, np.zeros(2))
        assert state.alpha_prime.tolist() == [mean, 1e308]
        assert out.values.tobytes() == (fm.values * [[[gate]], [[1.0]]]).tobytes()


def _strip_case(c, h, w, seed):
    rng = np.random.default_rng(seed)
    return (FeatureMap(rng.normal(size=(c, h, w))),
            ParamField(rng.normal(size=(3, h, w)), sx=1.2, sy=0.8))


class TestStripPass:
    """The strip pass gives the whole-image pass's bits on every strip layout."""

    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("c, h, w", [
        (4, 40, 300),       # strips of 27 rows: the last is 13
        (1, 3, dynconv._STRIP_CELLS + 1),  # c * w > _STRIP_CELLS: one-row strips
        (1, 1, 1),
        (3, 1, 50),
        (2, 50, 1),
        (16, 128, 128),     # the benchmark's map: strips of 16 rows
    ])
    def test_bits_equal_single_block_pass(self, c, h, w, renormalize):
        if (c, h, w) == (4, 40, 300):
            assert dynconv._STRIP_CELLS // (c * w) == 27
        fm, field = _strip_case(c, h, w, c * h * w)
        for scales in [(3, 5, 7, 9), (3, 3, 9)]:
            halves = {s // 2 for s in scales}
            want = single_block_pass(fm, field, halves, renormalize)
            got = dynconv._gaussian_pass(fm, field, halves, renormalize)
            assert got.keys() == want.keys()
            for r in halves:
                assert got[r].tobytes() == want[r].tobytes()
            out = multiscale_forward(fm, field, scales, renormalize).values
            n = len(scales) * c
            for si, s in enumerate(scales):
                assert out[n + si * c:n + (si + 1) * c].tobytes() == want[s // 2].tobytes()

    def test_impulse_reproduces_synthesized_kernel_across_strips(self):
        # The impulse's response spans a strip boundary (rows 27 and 28).
        c, h, w = 4, 60, 300
        raws = np.zeros((3, h, w))
        raws[0] += 0.37
        raws[1] += -0.25
        raws[2] += 0.4
        field = ParamField(raws, sx=1.1, sy=0.9)
        impulse = np.zeros((c, h, w))
        impulse[:, 28, 100] = 1.0
        assert dynconv._STRIP_CELLS // (c * w) == 27
        out = dynamic_gaussian_conv(FeatureMap(impulse), field, 5).values
        params = KernelParams(sigma=float(squash_sigma(0.37)), dx=float(squash_offset(-0.25)),
                              dy=float(squash_offset(0.4)), sx=1.1, sy=0.9)
        kernel = synthesize_kernel(params, 5).values
        flipped = kernel[::-1, ::-1]
        for ch in range(c):
            assert out[ch, 26:31, 98:103].tobytes() == flipped.tobytes()

    def test_coefficients_cover_each_pixel_once_per_offset(self, monkeypatch):
        elements = []
        real = dynconv._offset_coefficient

        def counted(*args):
            elements.append(np.broadcast(*args).size)
            return real(*args)

        monkeypatch.setattr(dynconv, "_offset_coefficient", counted)
        c, h, w = 4, 40, 300
        fm, field = _strip_case(c, h, w, 12)
        multiscale_forward(fm, field, scales=(3, 5, 7, 9))
        assert len(elements) > 81  # more than one strip
        assert sum(elements) == 9 * 9 * h * w

    def test_traced_peak_is_bounded_by_the_output(self):
        fm, field = _strip_case(16, 128, 128, 13)
        tracemalloc.start()
        try:
            out = multiscale_forward(fm, field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * out.values.nbytes


class TestFiniteness:
    """Overflow and zero kernel sums are one ValueError each, never a warning."""

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_overflowing_products_are_one_value_error(self, renormalize):
        # A finite input whose centre coefficient (about 2.6e151) times
        # 1e200 overflows: not "feature map values must be finite".
        fm = FeatureMap(np.full((1, 6, 6), 1e200))
        field = ParamField(np.zeros((3, 6, 6)), sx=2e-154)
        with pytest.raises(ValueError, match="convolution overflows float64"):
            multiscale_forward(fm, field, renormalize=renormalize)
        with pytest.raises(ValueError, match="convolution overflows float64"):
            dynamic_gaussian_conv(fm, field, 3, renormalize=renormalize)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_overflow_in_the_last_strip_only(self, renormalize):
        c, h, w = 4, 40, 300
        assert dynconv._STRIP_CELLS // (c * w) == 27   # strips of rows 0-26 and 27-39
        values = np.ones((c, h, w))
        values[:, 36:] = 1e200   # beyond the reach of a 9 x 9 kernel from row 26
        field = ParamField(np.zeros((3, h, w)), sx=2e-154)
        with pytest.raises(ValueError, match="convolution overflows float64"):
            multiscale_forward(FeatureMap(values), field, renormalize=renormalize)
        first = multiscale_forward(FeatureMap(values[:, :27]), ParamField(
            np.zeros((3, 27, w)), sx=2e-154), renormalize=renormalize)
        assert np.isfinite(first.values).all()

    def test_renormalizing_a_zero_kernel_sum_is_value_error(self):
        # raw dx = 0.25 puts every column off the grid, and with a tiny sx
        # every coefficient of that pixel underflows to 0. The sum is
        # checked before dividing, so this is not reported as an overflow.
        raws = np.zeros((3, 6, 6))
        raws[1, 2, 3] = 0.25
        field = ParamField(raws, sx=2e-154)
        fm = FeatureMap(np.ones((2, 6, 6)))
        with pytest.raises(ValueError, match="discrete sum is 0"):
            multiscale_forward(fm, field, renormalize=True)
        with pytest.raises(ValueError, match="discrete sum is 0"):
            dynamic_gaussian_conv(fm, field, 3, renormalize=True)
        # Without renormalizing that pixel's Gaussian outputs are 0.
        out = multiscale_forward(fm, field).values
        assert not out[8:, 2, 3].any() and out[8:].any()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_outputs_are_finite_read_only_maps_or_value_errors(self, data):
        c = data.draw(st.integers(1, 2))
        h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        big = st.floats(-1e300, 1e300)
        fm = FeatureMap(data.draw(hnp.arrays(np.float64, (c, h, w), elements=big)))
        raws = data.draw(hnp.arrays(np.float64, (3, h, w), elements=st.floats(-40, 40)))
        # Axial scales across the whole range the rule admits.
        sx, sy = (data.draw(st.floats(-154.0, 153.0).map(lambda e: 10.0 ** e)) for _ in range(2))
        try:
            field = ParamField(raws, sx=sx, sy=sy)
        except ValueError:
            assume(False)
        scales = data.draw(st.lists(st.sampled_from([3, 5, 7, 9]), min_size=1, max_size=4))
        renormalize = data.draw(st.booleans())
        extreme = st.one_of(st.floats(), st.sampled_from([1.7976931348623157e308,
                                                          -1.7976931348623157e308]))
        alpha = data.draw(hnp.arrays(np.float64, 2 * len(scales) * c, elements=extreme))

        def checked(call, *args):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    out = call(*args)
            except ValueError:
                return None
            out = out[0] if isinstance(out, tuple) else out
            assert out.values.dtype == np.float64 and not out.values.flags.writeable
            assert np.isfinite(out.values).all()
            return out

        checked(dynamic_gaussian_conv, fm, field, max(scales), renormalize)
        fused = checked(multiscale_forward, fm, field, scales, renormalize)
        checked(fusion_attention, fm, alpha[:c])
        if fused is not None:
            assert fused.channels == 2 * len(scales) * c
            checked(fusion_attention, fused, alpha)
