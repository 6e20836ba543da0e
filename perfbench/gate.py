"""Correctness gate, run outside the timed region.

Each check returns ``None`` when the output is correct and a one-line
description of the first problem otherwise. The references are
independent of the code under test: scipy's assignment solver for the
optimum, a k-d tree for peak spacing and a per-pixel loop for the
dynamic convolution.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

TOTAL_TOLERANCE = 1e-9
CONV_TOLERANCE = 1e-10


def check_match(cm, pred, gt, result) -> Optional[str]:
    """Matcher invariants under the default configuration, plus the solver
    total against scipy's optimum."""
    cfg = cm.matching.MatchConfig()
    n, m = len(pred), len(gt)
    preds = [p.pred_index for p in result.pairs] + list(result.unmatched_pred)
    gts = [p.gt_index for p in result.pairs] + list(result.unmatched_gt)
    if sorted(preds) != list(range(n)):
        return "prediction indices do not appear exactly once"
    if sorted(gts) != list(range(m)):
        return "ground-truth indices do not appear exactly once"
    if n == 0 or m == 0:
        return None if not result.pairs else "pairs on an empty side"
    radii = cm.geometry.all_radii(pred, gt, cfg.k, cfg.radius_floor).radii
    for p in result.pairs:
        dx, dy = pred.coords[p.pred_index] - gt.coords[p.gt_index]
        if np.hypot(dx, dy) > radii[p.pred_index]:
            return f"pair {p.pred_index}-{p.gt_index} lies outside its radius"
        if not 0.0 < p.weight <= 1.0:
            return f"pair {p.pred_index}-{p.gt_index} has weight {p.weight}"
    weights = cm.matching.build_weight_matrix(pred, gt, cm.geometry.RadiusProfile(radii, cfg.k),
                                              cfg).values
    rows, cols = linear_sum_assignment(weights, maximize=True)
    best = math.fsum(weights[rows, cols])
    if abs(best - result.total_weight) > TOTAL_TOLERANCE:
        return f"total weight {result.total_weight!r} differs from scipy's optimum {best!r}"
    return None


def check_peaks(values: np.ndarray, coords: np.ndarray, threshold: float,
                min_distance: float) -> Optional[str]:
    """Peaks keep min_distance from each other and reach the threshold."""
    if len(coords) == 0:
        return None
    for a, b in cKDTree(coords).query_pairs(min_distance):
        if math.dist(coords[a], coords[b]) < min_distance:
            return f"peaks {a} and {b} are closer than {min_distance}"
    h, w = values.shape
    for x, y in coords:
        # A plateau peak sits at its centroid; judge it by the pixels around it.
        ys = range(int(math.floor(y)), min(int(math.ceil(y)), h - 1) + 1)
        xs = range(int(math.floor(x)), min(int(math.ceil(x)), w - 1) + 1)
        if max(values[yy, xx] for yy in ys for xx in xs) < threshold:
            return f"peak at ({x}, {y}) is below the threshold"
    return None


def check_conv_crop(cm, feature, field, sizes, crop: int) -> Optional[str]:
    """dynamic_gaussian_conv against a per-pixel loop on a corner crop."""
    dc, kn = cm.dynconv, cm.kernels
    f = dc.FeatureMap(feature.values[:, :crop, :crop])
    p = dc.ParamField(field.raws[:, :crop, :crop], sx=field.sx, sy=field.sy)
    for size in sizes:
        got = dc.dynamic_gaussian_conv(f, p, size).values
        want = naive_conv(kn, f.values, p.raws, p.sx, p.sy, size)
        err = float(np.max(np.abs(got - want)))
        if not err <= CONV_TOLERANCE:
            return f"size {size}: dynamic conv differs from the per-pixel loop by {err:.3e}"
    return None


def naive_conv(kn, values: np.ndarray, raws: np.ndarray, sx: float, sy: float,
               size: int) -> np.ndarray:
    """One synthesized kernel per output pixel, zero padding at the borders."""
    c, h, w = values.shape
    half = size // 2
    padded = np.pad(values, ((0, 0), (half, half), (half, half)))
    out = np.zeros_like(values)
    for y in range(h):
        for x in range(w):
            params = kn.KernelParams(sigma=float(kn.squash_sigma(raws[0, y, x])),
                                     dx=float(kn.squash_offset(raws[1, y, x])),
                                     dy=float(kn.squash_offset(raws[2, y, x])), sx=sx, sy=sy)
            kernel = kn.synthesize_kernel(params, size).values  # [v + half, u + half]
            window = padded[:, y:y + size, x:x + size]
            out[:, y, x] = np.einsum("cvu,vu->c", window, kernel)
    return out
