"""Counting and localization metrics.

Counting error follows the crowd-counting convention: MAE is the mean
absolute count error and the quantity reported as "MSE" in that
literature is the *root* of the mean squared count error. Both readings
are exposed, explicitly labeled: ``mse_paper`` is the RMSE-style value
and ``mse_literal`` the plain mean of squared errors.

Localization quality is precision/recall/F1 over matched pairs within a
distance tolerance, micro-averaged across images in aggregate reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import PointSet
from .matching import MatchConfig, MatchResult, match_points


@dataclass(frozen=True)
class ImageEval:
    """Per-image tallies feeding an aggregate report."""

    image_id: str
    predicted: int
    ground_truth: int
    true_positives: int = 0

    def __post_init__(self) -> None:
        if self.predicted < 0 or self.ground_truth < 0 or self.true_positives < 0:
            raise ValueError("counts must be non-negative")
        if self.true_positives > min(self.predicted, self.ground_truth):
            raise ValueError("true positives cannot exceed either side's count")

    @property
    def absolute_error(self) -> int:
        return abs(self.predicted - self.ground_truth)


@dataclass(frozen=True)
class CountReport:
    """Aggregate counting and localization metrics over a set of images."""

    per_image: tuple[ImageEval, ...]
    mae: float
    mse_paper: float    # root mean squared count error (per convention)
    mse_literal: float  # plain mean squared count error
    precision: float
    recall: float
    f1: float


def count_error(pred_counts: Sequence[int], gt_counts: Sequence[int]) -> tuple[float, float, float]:
    """(mae, mse_paper, mse_literal) over paired per-image counts."""
    if len(pred_counts) != len(gt_counts):
        raise ValueError(
            f"count lists must have equal length, got {len(pred_counts)} and {len(gt_counts)}")
    if not pred_counts:
        raise ValueError("count lists must be non-empty")
    errs = [abs(p - g) for p, g in zip(pred_counts, gt_counts)]
    mae = math.fsum(errs) / len(errs)
    mse_literal = math.fsum(e * e for e in errs) / len(errs)
    return mae, math.sqrt(mse_literal), mse_literal


def localization_prf(match: MatchResult, tolerance: float) -> tuple[float, float, float]:
    """Precision, recall, F1 of a match result at a distance tolerance.

    True positives are matched pairs with distance <= tolerance.
    Conventions: a zero denominator with zero true positives yields 0,
    except that an entirely empty instance (no predictions, no ground
    truth) scores a perfect (1, 1, 1). F1 is 0 whenever P + R is 0.
    """
    return _prf(_true_positives(match, tolerance), match.n_pred, match.n_gt)


def _true_positives(match: MatchResult, tolerance: float) -> int:
    """Matched pairs of ``match`` at distance <= ``tolerance``, which must
    be positive."""
    if not (tolerance > 0):
        raise ValueError("tolerance must be positive")
    return sum(1 for p in match.pairs if p.distance <= tolerance)


def _prf(tp: int, n_pred: int, n_gt: int) -> tuple[float, float, float]:
    if n_pred == 0 and n_gt == 0:
        return 1.0, 1.0, 1.0
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gt if n_gt else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def evaluate_case(image_id: str, pred: PointSet, gt: PointSet, tolerance: float,
                  cfg: Optional[MatchConfig] = None) -> ImageEval:
    """Match one image and tally its counts and true positives."""
    result = match_points(pred, gt, cfg or MatchConfig())
    return ImageEval(image_id=image_id, predicted=len(pred), ground_truth=len(gt),
                     true_positives=_true_positives(result, tolerance))


def aggregate_report(per_image: Sequence[ImageEval]) -> CountReport:
    """Combine per-image tallies into one report.

    Counting metrics come from the per-image counts; precision/recall/F1
    are micro-averaged (totals of TP, predictions, and ground truth).
    Input order is preserved in the report.
    """
    if not per_image:
        raise ValueError("aggregate_report needs at least one image")
    mae, mse_paper, mse_literal = count_error(
        [im.predicted for im in per_image], [im.ground_truth for im in per_image])
    tp = sum(im.true_positives for im in per_image)
    n_pred = sum(im.predicted for im in per_image)
    n_gt = sum(im.ground_truth for im in per_image)
    precision, recall, f1 = _prf(tp, n_pred, n_gt)
    return CountReport(per_image=tuple(per_image), mae=mae, mse_paper=mse_paper,
                       mse_literal=mse_literal, precision=precision, recall=recall, f1=f1)
