"""Reference forward pass for dynamic anisotropic-Gaussian convolution.

Every output pixel is filtered with its own Gaussian kernel, synthesized
on the fly from a per-pixel parameter field (raw sigma/dx/dy channels put
through the same squashing maps as the kernel module, plus two global
axial scales). The convolution is depthwise (one kernel per location,
shared across channels) with zero padding at the borders.

On top of the single-scale primitive sit a dual-path multi-scale
concatenation (an identity-kernel reference path next to the Gaussian
path, per kernel size) and a channel attention block whose per-channel
gate logits are the input logits plus the channel's spatial mean, i.e. a
residual over global average pooling.

The accumulation order is fixed, so results are reproducible bit for
bit: kernel offsets are added ring by ring from the centre out (ring r
holds the offsets with max(|u|, |v|) = r, in row-major order). A kernel
of size 2r + 1 is rings 0..r of every larger one, so the multi-scale
Gaussian blocks are the saved partial sums of one pass out to the
largest size, and each offset's coefficient grid is evaluated once for
all sizes. The pass walks the image in horizontal strips of whole rows,
small enough for the running sums to stay in cache; each strip runs the
full ring order before the next begins, so every pixel sees the same
accumulation order, and the same bits, as in one whole-image pass. Each
offset copies its shifted slice into a contiguous buffer and scales it
there in place: the same products as a multiply straight from the
strided slice, which is slower.

Finiteness is checked once, where values are made: ``FeatureMap`` scans
its input, and the pass checks each strip as it saves it (ValueError when
a sum overflows float64, or when renormalizing by a kernel sum of 0). The
module's own outputs therefore skip the constructor's scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import _finite_mean
from .kernels import (_check_kernel_sums, _gaussian_factors, _offset_coefficient,
                      _validate_axial_scales, _validate_size, logistic, squash_offset,
                      squash_sigma)


@dataclass(frozen=True)
class FeatureMap:
    """A C x H x W grid of finite values."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"feature map must be C x H x W, got shape {arr.shape}")
        if 0 in arr.shape:
            raise ValueError("feature map dimensions must be positive")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature map values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


def _checked_map(values: np.ndarray) -> FeatureMap:
    """A FeatureMap around a fresh C x H x W float64 array that its caller
    has shown to be finite, made read-only without a second finite scan."""
    values.setflags(write=False)
    feature = object.__new__(FeatureMap)
    object.__setattr__(feature, "values", values)
    return feature


@dataclass(frozen=True)
class ParamField:
    """Raw per-pixel kernel parameters (3 x H x W) plus global axial scales.

    Channel 0 is the raw sigma, channels 1 and 2 the raw x/y offsets; the
    squashing maps are applied at kernel-synthesis time.
    """

    raws: np.ndarray
    sx: float = 1.0
    sy: float = 1.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.raws, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ValueError(f"parameter field must be 3 x H x W, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter field must be finite")
        _validate_axial_scales(self.sx, self.sy)
        arr.setflags(write=False)
        object.__setattr__(self, "raws", arr)

    @property
    def height(self) -> int:
        return self.raws.shape[1]

    @property
    def width(self) -> int:
        return self.raws.shape[2]


@dataclass(frozen=True)
class AttentionState:
    """Pre- and post-residual channel attention logits."""

    alpha: np.ndarray
    alpha_prime: np.ndarray


def predict_params(feature: FeatureMap, weights: np.ndarray,
                   bias: Optional[np.ndarray] = None,
                   sx: float = 1.0, sy: float = 1.0) -> ParamField:
    """Per-pixel linear head producing the raw parameter field.

    ``weights`` maps the C input channels to the 3 raw outputs (shape
    (3, C)); ``bias`` is an optional length-3 vector. This is the
    reference stand-in for a learned parameter-prediction head: a 1x1
    linear map, with squashing deferred to kernel synthesis.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (3, feature.channels):
        raise ValueError(
            f"head weights must have shape (3, {feature.channels}), got {w.shape}")
    if bias is None:
        b = np.zeros(3)
    else:
        b = np.asarray(bias, dtype=np.float64).reshape(3)
    raws = np.einsum("oc,chw->ohw", w, feature.values) + b[:, None, None]
    return ParamField(raws=raws, sx=sx, sy=sy)


# Values in one strip of the running sum (c * rows * w): 256 KB of float64.
_STRIP_CELLS = 1 << 15


def _ring(r: int) -> list[tuple[int, int]]:
    """Offsets (u, v) with max(|u|, |v|) = r, in row-major order."""
    return [(u, v) for v in range(-r, r + 1)
            for u in (range(-r, r + 1) if abs(v) == r else (-r, r))]


# An offset term that overflows gives exp(-inf) = 0, as in kernels; an
# overflowing product or sum fails the finite check of its strip.
@np.errstate(over="ignore", invalid="ignore")
def _gaussian_pass(feature: FeatureMap, field: ParamField, halves: set[int],
                   renormalize: bool) -> dict[int, np.ndarray]:
    """Dynamic Gaussian outputs for every half-width in ``halves``, from one pass.

    The image is walked in strips of whole rows, about ``_STRIP_CELLS``
    values per channel stack, so the running sums stay in cache. Within a
    strip the offsets are added ring by ring from the centre out; after
    each requested ring the strip's running sum is written into that
    half-width's output. With ``renormalize`` the per-pixel coefficient
    sum is built up through the same rings and each saved strip is
    divided by it once. Each saved strip is checked finite while it is
    still in cache.
    """
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

    saved = {r: np.empty((c, h, w)) for r in halves}
    rows = max(1, _STRIP_CELLS // (c * w))
    for y0 in range(0, h, rows):
        y1 = min(y0 + rows, h)
        out = np.zeros((c, y1 - y0, w))
        tmp = np.empty_like(out)
        denom = np.zeros((y1 - y0, w)) if renormalize else None
        for r in range(top + 1):
            for u, v in _ring(r):
                coeff = _offset_coefficient(norm[y0:y1], x_terms[u][y0:y1], y_terms[v][y0:y1])
                if denom is not None:
                    denom += coeff
                np.copyto(tmp, padded[:, y0 + v + top:y1 + v + top, u + top:u + top + w])
                tmp *= coeff
                out += tmp
            if r in halves:
                block = saved[r][:, y0:y1]
                if denom is None:
                    block[...] = out
                else:
                    _check_kernel_sums(denom)
                    np.divide(out, denom, out=block)
                if not np.isfinite(block).all():
                    raise ValueError("dynamic Gaussian convolution overflows float64")
    return saved


def dynamic_gaussian_conv(feature: FeatureMap, field: ParamField, size: int,
                          renormalize: bool = False) -> FeatureMap:
    """Filter every pixel with its own Gaussian kernel.

    ``out[c, y, x] = sum_{u,v} feature[c, y+v, x+u] * K_{y,x}(u, v)`` with
    zero padding outside the image and K synthesized from the squashed
    parameters at (y, x). The offsets are summed ring by ring from the
    centre out (``max(|u|, |v|)`` = 0, 1, ..., size // 2, row-major within
    a ring). With ``renormalize`` the sum is divided by each per-pixel
    kernel's discrete sum.
    """
    size = _validate_size(size)
    return _checked_map(_gaussian_pass(feature, field, {size // 2}, renormalize)[size // 2])


def multiscale_forward(feature: FeatureMap, field: ParamField,
                       scales: Sequence[int] = (3, 5, 7, 9),
                       renormalize: bool = False) -> FeatureMap:
    """Dual-path multi-scale concatenation.

    For each kernel size in ``scales`` the standard path applies a fixed
    identity-center depthwise kernel (passing the input through unchanged,
    a deterministic reference in place of learned weights) and the
    Gaussian path filters with the per-pixel Gaussian of that size. The
    Gaussian blocks are the saved partial sums of one ring-ordered pass
    out to the largest size, so each equals :func:`dynamic_gaussian_conv`
    at its size bit for bit. All blocks are concatenated along channels,
    standard path first, in the order of ``scales``, so the output has
    2 * len(scales) * C channels.
    """
    try:
        scales = [_validate_size(s) for s in scales]
    except ValueError as exc:
        raise ValueError(f"invalid scale: {exc}") from None
    if not scales:
        raise ValueError("invalid scale: need at least one kernel size")
    saved = _gaussian_pass(feature, field, {s // 2 for s in scales}, renormalize)
    standard = [feature.values for _ in scales]
    gaussian = [saved[s // 2] for s in scales]
    # The standard blocks copy a validated map; the pass checked its strips.
    return _checked_map(np.concatenate(standard + gaussian, axis=0))


def fusion_attention(f_cat: FeatureMap, alpha) -> tuple[FeatureMap, AttentionState]:
    """Residual channel attention over global average pooling.

    ``alpha_prime[c] = alpha[c] + mean(f_cat[c])``; each channel is scaled
    by ``logistic(alpha_prime[c])``. With alpha = 0 the gate logits are
    exactly the channel means, so the block reduces to a content-driven
    recalibration that preserves the input's semantics. A channel whose
    sum overflows still has its mean (:func:`geometry._finite_mean`); a
    logit beyond the float range raises ValueError.
    """
    a = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if a.shape[0] != f_cat.channels:
        raise ValueError(
            f"alpha length {a.shape[0]} does not match {f_cat.channels} channels")
    if not np.all(np.isfinite(a)):
        raise ValueError("alpha must be finite")
    with np.errstate(over="raise"):
        try:
            alpha_prime = a + _finite_mean(f_cat.values, axis=(1, 2))
        except FloatingPointError as exc:
            raise ValueError("attention logit overflows") from exc
    gate = logistic(alpha_prime)
    out = _checked_map(f_cat.values * gate[:, None, None])   # |f * gate| <= |f|
    return out, AttentionState(alpha=a, alpha_prime=alpha_prime)
