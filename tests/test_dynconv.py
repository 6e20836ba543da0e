import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from countmatch.kernels import KernelParams, squash_offset, squash_sigma, synthesize_kernel


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


class TestFeatureMapValidation:
    def test_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            FeatureMap(np.full((1, 2, 2), np.nan))
        fm = FeatureMap(np.ones((2, 3, 4)))
        assert (fm.channels, fm.height, fm.width) == (2, 3, 4)

    def test_param_field_validation(self):
        with pytest.raises(ValueError):
            ParamField(np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            ParamField(np.zeros((3, 4, 4)), sx=0.0)


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
