"""Anisotropic Gaussian kernel synthesis with verified analytic gradients.

A kernel is parameterized by a base standard deviation ``sigma`` in
[1, 10], sub-pixel center offsets ``dx, dy`` in [-2, 2], and positive
axial scales ``sx, sy`` that turn the base deviation into anisotropic
widths sigma_x = sx * sigma and sigma_y = sy * sigma. The scales are
bounded so that the Gaussian factors stay in float64 range for every
sigma (``_validate_axial_scales``, which ``dynconv`` calls too). On an odd-sized
grid of integer offsets (u, v) from the center pixel (y axis pointing
down, image convention) the kernel value is

    K(u, v) = exp(-(u - dx)^2 / (2 sigma_x^2)
              -(v - dy)^2 / (2 sigma_y^2)) / (2 pi sigma_x sigma_y)

whose integral over the continuous plane is exactly 1.

Raw, unconstrained sigma and offsets are mapped into their ranges by
smooth squashing functions (logistic, tanh) rather than clamping, so that
gradients never vanish at the range boundaries. Closed-form partial
derivatives with respect to all five parameters are provided and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA_MIN = 1.0
SIGMA_MAX = 10.0
OFFSET_LIMIT = 2.0


def logistic(x):
    """Numerically stable standard logistic, elementwise on arrays."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def squash_sigma(raw):
    """Map an unconstrained raw value into the open interval (1, 10)."""
    return SIGMA_MIN + (SIGMA_MAX - SIGMA_MIN) * logistic(raw)


def squash_offset(raw):
    """Map an unconstrained raw value into the open interval (-2, 2)."""
    return OFFSET_LIMIT * np.tanh(np.asarray(raw, dtype=np.float64))


@dataclass(frozen=True)
class KernelParams:
    """Validated kernel parameter bundle.

    sigma in [1, 10], dx and dy in [-2, 2] (pixels), sx and sy strictly
    positive. The derived anisotropic widths are exposed as properties.
    """

    sigma: float
    dx: float = 0.0
    dy: float = 0.0
    sx: float = 1.0
    sy: float = 1.0

    def __post_init__(self) -> None:
        vals = (self.sigma, self.dx, self.dy, self.sx, self.sy)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"kernel parameters must be finite, got {vals}")
        if not SIGMA_MIN <= self.sigma <= SIGMA_MAX:
            raise ValueError(f"sigma must lie in [{SIGMA_MIN}, {SIGMA_MAX}], got {self.sigma}")
        if abs(self.dx) > OFFSET_LIMIT or abs(self.dy) > OFFSET_LIMIT:
            raise ValueError(f"offsets must lie in [-{OFFSET_LIMIT}, {OFFSET_LIMIT}]")
        _validate_axial_scales(self.sx, self.sy)

    @property
    def sigma_x(self) -> float:
        return self.sx * self.sigma

    @property
    def sigma_y(self) -> float:
        return self.sy * self.sigma


@dataclass(frozen=True)
class Kernel:
    """A synthesized kernel grid together with its parameters."""

    values: np.ndarray
    params: KernelParams
    renormalized: bool = False

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class KernelGradients:
    """Partial derivatives of the raw kernel grid, one grid per parameter."""

    d_sigma: np.ndarray
    d_dx: np.ndarray
    d_dy: np.ndarray
    d_sx: np.ndarray
    d_sy: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"sigma": self.d_sigma, "dx": self.d_dx, "dy": self.d_dy,
                "sx": self.d_sx, "sy": self.d_sy}


def _validate_size(size: int) -> int:
    if not isinstance(size, (int, np.integer)) or isinstance(size, bool):
        raise ValueError(f"kernel size must be an integer, got {size!r}")
    if size < 3 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 3, got {size}")
    return int(size)


def _validate_axial_scales(sx: float, sy: float) -> None:
    """The axial-scale rule: sx and sy are positive, finite, and keep
    ``_gaussian_factors`` free of overflow and underflow for every sigma in
    [SIGMA_MIN, SIGMA_MAX]. Each factor is monotone in sigma, so the two
    ends of the range decide."""
    if not (sx > 0 and sy > 0 and math.isfinite(sx) and math.isfinite(sy)):
        raise ValueError(f"axial scales must be positive and finite, got sx={sx}, sy={sy}")
    with np.errstate(all="raise"):
        try:
            for sigma in (SIGMA_MIN, SIGMA_MAX):
                _gaussian_factors(np.float64(sx) * sigma, np.float64(sy) * sigma)
        except FloatingPointError:
            raise ValueError(
                f"axial scales sx={sx}, sy={sy} over- or underflow the Gaussian factors "
                f"for sigma in [{SIGMA_MIN}, {SIGMA_MAX}]") from None


def _check_kernel_sums(total) -> None:
    """Renormalizing divides by each kernel's discrete sum, which is 0 when
    every coefficient underflows (a tiny axial scale with an off-grid
    offset); that is refused rather than divided into nan."""
    if not np.all(total):
        raise ValueError("cannot renormalize a kernel whose discrete sum is 0")


def _offset_grids(size: int) -> tuple[np.ndarray, np.ndarray]:
    half = size // 2
    offs = np.arange(-half, half + 1, dtype=np.float64)
    return offs[None, :], offs[:, None]  # u along columns, v along rows


def _gaussian_factors(sigma_x, sigma_y):
    """(sx2, sy2, norm) = (2 sigma_x^2, 2 sigma_y^2, 1 / (2 pi sigma_x sigma_y))."""
    return 2.0 * sigma_x ** 2, 2.0 * sigma_y ** 2, 1.0 / (2.0 * math.pi * sigma_x * sigma_y)


def _offset_coefficient(norm, x_term, y_term):
    """The kernel formula, with ``x_term = -((u - dx) ** 2) / sx2`` and
    ``y_term = ((v - dy) ** 2) / sy2``. The dynamic convolution calls it
    too, so an impulse reproduces a synthesized kernel bit for bit."""
    return norm * np.exp(x_term - y_term)


def synthesize_kernel(params: KernelParams, size: int, renormalize: bool = False) -> Kernel:
    """Evaluate the kernel formula on a size x size grid of integer offsets.

    ``values[v + half, u + half]`` holds K(u, v). With ``renormalize`` the
    grid is divided by its discrete sum, which makes constant signals
    invariant under convolution; the default emits the raw formula values,
    whose discrete sum approaches 1 as the grid covers the Gaussian mass.
    Renormalizing a grid whose sum is 0 raises ValueError.
    """
    size = _validate_size(size)
    u, v = _offset_grids(size)
    sx2, sy2, norm = _gaussian_factors(params.sigma_x, params.sigma_y)
    # A tiny axial scale overflows an offset term to -inf or +inf, whose
    # coefficient exp(-inf) = 0 is the right value.
    with np.errstate(over="ignore"):
        x_term, y_term = -((u - params.dx) ** 2) / sx2, ((v - params.dy) ** 2) / sy2
    values = _offset_coefficient(norm, x_term, y_term)
    if renormalize:
        total = values.sum()
        _check_kernel_sums(total)
        values = values / total
    return Kernel(values=values, params=params, renormalized=renormalize)


def kernel_gradients(params: KernelParams, size: int) -> KernelGradients:
    """Closed-form partials of the raw kernel grid.

    With a = (u - dx) / sigma_x and b = (v - dy) / sigma_y:

        dK/d(dx)    = K * (u - dx) / sigma_x^2
        dK/d(dy)    = K * (v - dy) / sigma_y^2
        dK/d(sigma) = K * (a^2 + b^2 - 2) / sigma
        dK/d(sx)    = K * (a^2 - 1) / sx
        dK/d(sy)    = K * (b^2 - 1) / sy

    The sigma/scale forms follow from sigma_x = sx * sigma and
    sigma_y = sy * sigma by the chain rule.
    """
    k = synthesize_kernel(params, size).values
    u, v = _offset_grids(k.shape[0])
    ax = (u - params.dx) / params.sigma_x
    by = (v - params.dy) / params.sigma_y
    # A tiny axial scale overflows ax * ax, but only where K is already 0:
    # those entries read 0 * inf = nan, and their gradient is 0. Zeros that
    # are not nan keep their sign.
    with np.errstate(over="ignore", invalid="ignore"):
        ax2 = ax * ax
        by2 = by * by
        d_sigma, d_sx, d_sy = (np.nan_to_num(g, nan=0.0) for g in (
            k * (ax2 + by2 - 2.0) / params.sigma,
            k * (ax2 - 1.0) / params.sx,
            k * (by2 - 1.0) / params.sy))
    return KernelGradients(
        d_sigma=d_sigma,
        d_dx=k * (u - params.dx) / params.sigma_x ** 2,
        d_dy=k * (v - params.dy) / params.sigma_y ** 2,
        d_sx=d_sx,
        d_sy=d_sy,
    )
