import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countmatch.kernels import (
    Kernel,
    KernelParams,
    kernel_gradients,
    logistic,
    squash_offset,
    squash_sigma,
    synthesize_kernel,
)


def eval_formula(params, u, v):
    """Oracle: scalar evaluation of the kernel formula."""
    sx = params.sigma_x
    sy = params.sigma_y
    return math.exp(-((u - params.dx) ** 2) / (2 * sx * sx)
                    - ((v - params.dy) ** 2) / (2 * sy * sy)) / (2 * math.pi * sx * sy)


class TestSquash:
    def test_midpoint(self):
        assert squash_sigma(0.0) == 5.5
        assert squash_offset(0.0) == 0.0

    def test_logistic_asymptote(self):
        # sigma approaches but never exceeds 10.
        assert squash_sigma(50.0) <= 10.0
        assert squash_sigma(50.0) == pytest.approx(10.0, abs=1e-12)
        assert squash_sigma(-50.0) >= 1.0

    def test_random_raws_stay_in_range(self):
        raw = np.random.default_rng(0).normal(scale=3.0, size=(50, 2))
        sigma = squash_sigma(raw)
        assert np.all((sigma >= 1.0) & (sigma <= 10.0))
        assert np.all(np.abs(squash_offset(raw)) <= 2.0)

    def test_monotone_in_each_coordinate(self):
        grid = np.linspace(-6, 6, 41)
        assert np.all(np.diff(squash_sigma(grid)) > 0)
        assert np.all(np.diff(squash_offset(grid)) > 0)

    def test_logistic_stability(self):
        assert logistic(-1000.0) == 0.0
        assert logistic(1000.0) == 1.0
        assert logistic(0.0) == 0.5


class TestKernelParams:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            KernelParams(sigma=0.5)
        with pytest.raises(ValueError):
            KernelParams(sigma=2.0, dx=2.5)
        with pytest.raises(ValueError):
            KernelParams(sigma=2.0, sx=0.0)

    @pytest.mark.parametrize("scales", [(1e153, 1.0), (1.0, 1e160), (1e-155, 1.0),
                                        (1.0, 1e-160), (5e-324, 1.0)])
    def test_axial_scales_whose_factors_leave_float_range(self, scales):
        sx, sy = scales
        with pytest.raises(ValueError, match="axial scales .* over- or underflow"):
            KernelParams(sigma=5.0, sx=sx, sy=sy)

    @pytest.mark.parametrize("scales", [(1e150, 1e150), (1e-150, 1e-150), (1e-153, 1e10)])
    def test_axial_scales_inside_float_range(self, scales):
        sx, sy = scales
        for sigma in (1.0, 10.0):
            k = synthesize_kernel(KernelParams(sigma=sigma, sx=sx, sy=sy), 3)
            assert np.isfinite(k.values).all()

    @pytest.mark.parametrize("scales", [(2e-154, 1.0), (1.0, 2e-154)])
    def test_offset_terms_beyond_float_range(self, scales):
        # The factors pass the rule, but every offset term off the kernel's
        # centre line overflows: its coefficient is exp(-inf) = 0, and the
        # centre line is the formula's value. The gradients are 0 off that
        # line too (not 0 * inf), and the closed forms on it.
        sx, sy = scales
        params = KernelParams(sigma=1.0, sx=sx, sy=sy)
        for size in (9, 17):
            half = size // 2
            k = synthesize_kernel(params, size).values
            grads = kernel_gradients(params, size).as_dict()
            axis = 1 if sx < sy else 0
            for grid in (k, *grads.values()):
                assert not np.delete(grid, half, axis=axis).any()
            for i in range(size):
                u, v = (0, i - half) if sx < sy else (i - half, 0)
                at = (i, half) if sx < sy else (half, i)
                value = eval_formula(params, u, v)
                a, b = u / params.sigma_x, v / params.sigma_y
                expected = {"sigma": value * (a * a + b * b - 2.0) / params.sigma,
                            "dx": value * u / params.sigma_x ** 2,
                            "dy": value * v / params.sigma_y ** 2,
                            "sx": value * (a * a - 1.0) / sx,
                            "sy": value * (b * b - 1.0) / sy}
                assert k[at] == pytest.approx(value, rel=1e-12)
                for name, grid in grads.items():
                    assert grid[at] == pytest.approx(expected[name], rel=1e-12)

    def test_derived_widths(self):
        p = KernelParams(sigma=4.0, sx=0.5, sy=2.0)
        assert p.sigma_x == 2.0
        assert p.sigma_y == 8.0


class TestSynthesizeKernel:
    def test_center_value_unit_isotropic(self):
        k = synthesize_kernel(KernelParams(sigma=1.0), 5)
        assert k.values[2, 2] == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)

    def test_axis_scaling_substitution(self):
        # Doubling sigma_x makes K(2, 0) equal half the unscaled K(1, 0):
        # the exponent matches after u -> u/2 and the normalization halves.
        wide = synthesize_kernel(KernelParams(sigma=1.0, sx=2.0), 7)
        narrow = synthesize_kernel(KernelParams(sigma=1.0, sx=1.0), 7)
        c = 3  # center index
        assert wide.values[c, c + 2] == pytest.approx(0.5 * narrow.values[c, c + 1], rel=1e-12)

    def test_discrete_sum_near_one(self):
        k = synthesize_kernel(KernelParams(sigma=2.0, dx=1.0, dy=-1.0), 13)
        assert 0.98 <= k.values.sum() <= 1.0

    def test_grid_matches_scalar_formula(self):
        rng = np.random.default_rng(1)
        p = KernelParams(sigma=float(rng.uniform(1, 10)), dx=1.2, dy=-0.7, sx=1.3, sy=0.6)
        k = synthesize_kernel(p, 9)
        half = 4
        for v in range(-half, half + 1):
            for u in range(-half, half + 1):
                assert k.values[v + half, u + half] == pytest.approx(
                    eval_formula(p, u, v), rel=1e-13)

    def test_positivity(self):
        k = synthesize_kernel(KernelParams(sigma=1.0, dx=2.0, dy=-2.0, sx=0.3, sy=0.3), 11)
        assert (k.values > 0).all()

    def test_peak_near_offset(self):
        p = KernelParams(sigma=2.0, dx=1.0, dy=-1.0)
        k = synthesize_kernel(p, 9)
        v, u = np.unravel_index(k.values.argmax(), k.values.shape)
        assert (u - 4, v - 4) == (1, -1)

    def test_renormalized_sums_to_one(self):
        k = synthesize_kernel(KernelParams(sigma=9.0, sx=2.0), 5, renormalize=True)
        assert k.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert k.renormalized

    @pytest.mark.parametrize("scales", [(2e-154, 1.0), (1.0, 2e-154)])
    def test_renormalizing_a_zero_sum_is_value_error(self, scales):
        # Off-grid offsets with a tiny axial scale: every coefficient
        # underflows to 0, so there is no sum to divide by (not 0 / 0 = nan).
        sx, sy = scales
        params = KernelParams(sigma=1.0, dx=0.5, dy=0.5, sx=sx, sy=sy)
        assert not synthesize_kernel(params, 3).values.any()
        with pytest.raises(ValueError, match="discrete sum is 0"):
            synthesize_kernel(params, 3, renormalize=True)
        # On the grid the centre line survives and renormalizing works.
        on_grid = KernelParams(sigma=1.0, sx=sx, sy=sy)
        k = synthesize_kernel(on_grid, 3, renormalize=True).values
        assert np.isfinite(k).all() and k.sum() == pytest.approx(1.0, abs=1e-12)

    def test_size_validation(self):
        p = KernelParams(sigma=2.0)
        for bad in (4, 0, -3, 1, 2.5):
            with pytest.raises(ValueError):
                synthesize_kernel(p, bad)

    def test_offset_equivariance(self):
        # Raising dx by 1 shifts the grid one column; interior columns agree.
        p0 = KernelParams(sigma=2.0, dx=-0.7, dy=0.3)
        p1 = KernelParams(sigma=2.0, dx=0.3, dy=0.3)
        k0 = synthesize_kernel(p0, 11).values
        k1 = synthesize_kernel(p1, 11).values
        np.testing.assert_allclose(k1[:, 1:], k0[:, :-1], atol=1e-12)


class TestNormalizationInvariant:
    def test_sum_within_two_percent_when_grid_covers_mass(self):
        # Grid must cover 3 sigma beyond the largest offset; 20 random
        # parameter draws.
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = KernelParams(
                sigma=float(rng.uniform(1.0, 3.0)),
                dx=float(rng.uniform(-2, 2)),
                dy=float(rng.uniform(-2, 2)),
                sx=float(np.exp(rng.uniform(-0.5, 0.5))),
                sy=float(np.exp(rng.uniform(-0.5, 0.5))),
            )
            smax = max(p.sigma_x, p.sigma_y)
            size = int(math.ceil(6 * smax + 2 * 2 + 1)) | 1
            total = synthesize_kernel(p, size).values.sum()
            assert 0.98 <= total <= 1.02


class TestKernelGradients:
    def test_center_dx_gradient_vanishes_by_symmetry(self):
        g = kernel_gradients(KernelParams(sigma=3.0, dx=0.0, dy=0.0, sx=1.0, sy=1.0), 9)
        assert g.d_dx[4, 4] == 0.0

    def test_isotropic_scale_gradients_transpose(self):
        g = kernel_gradients(KernelParams(sigma=2.0, dx=0.0, dy=0.0, sx=1.5, sy=1.5), 9)
        np.testing.assert_allclose(g.d_sx, g.d_sy.T, atol=1e-15)

    def test_finite_difference_agreement(self):
        # Central differences, eps = 1e-5, on entries with |K| > 1e-12;
        # relative error must stay below 1e-4 for all five parameters.
        rng = np.random.default_rng(3)
        eps = 1e-5
        worst = 0.0
        for _ in range(50):
            base = dict(
                sigma=float(rng.uniform(1.2, 9.8)),
                dx=float(rng.uniform(-1.8, 1.8)),
                dy=float(rng.uniform(-1.8, 1.8)),
                sx=float(np.exp(rng.uniform(-0.7, 0.7))),
                sy=float(np.exp(rng.uniform(-0.7, 0.7))),
            )
            params = KernelParams(**base)
            k = synthesize_kernel(params, 9).values
            grads = kernel_gradients(params, 9).as_dict()
            mask = np.abs(k) > 1e-12
            for name, analytic in grads.items():
                hi = dict(base)
                lo = dict(base)
                hi[name] += eps
                lo[name] -= eps
                fd = (synthesize_kernel(KernelParams(**hi), 9).values
                      - synthesize_kernel(KernelParams(**lo), 9).values) / (2 * eps)
                denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-12)
                rel = (np.abs(analytic - fd) / denom)[mask]
                worst = max(worst, float(rel.max()))
        assert worst <= 1e-4

    def test_gradient_shapes_finite(self):
        g = kernel_gradients(KernelParams(sigma=1.0, dx=2.0, dy=-2.0, sx=0.2, sy=4.0), 7)
        for grid in g.as_dict().values():
            assert grid.shape == (7, 7)
            assert np.isfinite(grid).all()


class TestKernelDataclass:
    def test_values_read_only(self):
        k = synthesize_kernel(KernelParams(sigma=2.0), 5)
        with pytest.raises(ValueError):
            k.values[0, 0] = 1.0
        assert isinstance(k, Kernel)
        assert k.size == 5


def two_branch_logistic(x):
    """Reference: the logistic evaluated separately for each sign, with
    masked gathers and one exp per branch."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


# Signed zeros, infinities, the smallest subnormal and normal, the exp
# underflow edge near 745 and the overflow edge near 709.78.
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                2.2250738585072014e-308, -2.2250738585072014e-308,
                745.0, -745.0, 745.2, -745.2, 709.78, -709.78, 1e308, -1e308]
_LOGISTIC_INPUTS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False))


def _bits(x) -> bytes:
    return struct.pack("<d", x)


class TestLogisticBits:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_LOGISTIC_INPUTS, max_size=40))
    @example(_EDGE_FLOATS)
    def test_arrays_match_two_branch_reference(self, xs):
        x = np.array(xs, dtype=np.float64)
        assert logistic(x).tobytes() == two_branch_logistic(x).tobytes()
        grid = np.resize(x, (4, len(xs)))
        assert logistic(grid).tobytes() == two_branch_logistic(grid).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_LOGISTIC_INPUTS)
    def test_zero_d_matches_two_branch_reference(self, x):
        for arg in (x, np.float64(x), np.array(x)):
            got = logistic(arg)
            assert type(got) is float
            assert _bits(got) == _bits(two_branch_logistic(arg))

    def test_nan_stays_nan(self):
        assert math.isnan(logistic(math.nan))
        out = logistic(np.array([math.nan, 0.0, -math.nan]))
        assert np.isnan(out[[0, 2]]).all() and out[1] == 0.5
