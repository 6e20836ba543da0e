import math

import numpy as np
import pytest

from countmatch.geometry import PointSet
from countmatch.matching import MatchConfig, match_points
from countmatch.metrics import (
    CountReport,
    ImageEval,
    aggregate_report,
    count_error,
    evaluate_case,
)


class TestCountError:
    def test_perfect(self):
        assert count_error([5], [5]) == (0.0, 0.0, 0.0)

    def test_arithmetic(self):
        mae, mse_paper, mse_literal = count_error([3, 7], [5, 5])
        assert (mae, mse_paper, mse_literal) == (2.0, 2.0, 4.0)

    def test_random_against_direct_formula(self):
        rng = np.random.default_rng(0)
        p = rng.integers(0, 300, 100).tolist()
        g = rng.integers(0, 300, 100).tolist()
        mae, mse_paper, mse_literal = count_error(p, g)
        errs = np.abs(np.array(p) - np.array(g)).astype(float)
        assert mae == pytest.approx(errs.mean(), abs=1e-12)
        assert mse_literal == pytest.approx((errs ** 2).mean(), abs=1e-9)
        assert mse_paper == pytest.approx(math.sqrt((errs ** 2).mean()), abs=1e-12)

    def test_rms_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            p = rng.integers(0, 50, n).tolist()
            g = rng.integers(0, 50, n).tolist()
            mae, mse_paper, _ = count_error(p, g)
            assert mse_paper >= mae - 1e-12

    def test_duplication_invariance(self):
        p = [3, 9, 4]
        g = [5, 9, 1]
        base = count_error(p, g)
        doubled = count_error(p + p, g + g)
        assert doubled[0] == pytest.approx(base[0], abs=1e-12)
        assert doubled[1] == pytest.approx(base[1], abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="equal length"):
            count_error([1], [1, 2])
        with pytest.raises(ValueError, match="non-empty"):
            count_error([], [])
        with pytest.raises(ValueError, match="^count lists must be non-empty$"):
            count_error(np.array([]), np.array([]))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float64])
    def test_arrays_equal_lists(self, dtype):
        p, g = [3, 9, 4, 0], [5, 9, 1, 7]
        want = count_error([dtype(v).item() for v in p], [dtype(v).item() for v in g])
        got = count_error(np.array(p, dtype), np.array(g, dtype))
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("wrap", [np.array, lambda v: [np.int64(c) for c in v]])
    def test_int64_squares_past_the_int64_range(self, wrap):
        # 5e9 squared is past 2^63: on int64 it would wrap, and warn.
        got = count_error(wrap([5_000_000_000, 0]), wrap([0, 0]))
        assert got == count_error([5_000_000_000, 0], [0, 0])
        assert got[2] == 1.25e19


def prf_of(pred, gt, tolerance):
    """Precision, recall and F1 of one image, scored as a report of one."""
    report = aggregate_report([evaluate_case("img", pred, gt, tolerance)])
    return report.precision, report.recall, report.f1


class TestLocalizationPrf:
    def test_perfect_identity(self):
        pts = PointSet([(i, i) for i in range(6)])
        assert prf_of(pts, pts, tolerance=1.0) == (1.0, 1.0, 1.0)

    def test_empty_predictions(self):
        assert prf_of(PointSet([]), PointSet([(1, 1)]), tolerance=1.0) == (0.0, 0.0, 0.0)

    def test_both_empty_scores_perfect(self):
        assert prf_of(PointSet([]), PointSet([]), tolerance=1.0) == (1.0, 1.0, 1.0)

    def test_agrees_with_manual_filtering(self):
        rng = np.random.default_rng(2)
        pred = PointSet(rng.uniform(0, 30, (12, 2)))
        gt = PointSet(rng.uniform(0, 30, (15, 2)))
        tol = 2.0
        tp = sum(1 for p in match_points(pred, gt).pairs if p.distance <= tol)
        p, r, f1 = prf_of(pred, gt, tol)
        assert p == pytest.approx(tp / 12)
        assert r == pytest.approx(tp / 15)
        if p + r > 0:
            assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pred = PointSet(rng.uniform(0, 10, (int(rng.integers(0, 8)), 2)))
            gt = PointSet(rng.uniform(0, 10, (int(rng.integers(0, 8)), 2)))
            p, r, f1 = prf_of(pred, gt, tolerance=1.5)
            assert 0 <= p <= 1 and 0 <= r <= 1 and 0 <= f1 <= 1

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            evaluate_case("img", PointSet([]), PointSet([]), tolerance=0.0)


class TestImageEval:
    def test_validation(self):
        with pytest.raises(ValueError):
            ImageEval("a", predicted=-1, ground_truth=0)
        with pytest.raises(ValueError):
            ImageEval("a", predicted=2, ground_truth=2, true_positives=3)

    def test_absolute_error(self):
        assert ImageEval("a", 3, 8).absolute_error == 5


class TestAggregateReport:
    def test_single_image(self):
        im = ImageEval("img0", predicted=7, ground_truth=5, true_positives=4)
        report = aggregate_report([im])
        assert report.mae == 2.0
        assert report.mse_paper == 2.0
        assert report.mse_literal == 4.0
        assert report.precision == pytest.approx(4 / 7)
        assert report.recall == pytest.approx(4 / 5)

    def test_two_images_arithmetic(self):
        ims = [ImageEval("a", 5, 5, 5), ImageEval("b", 9, 5, 4)]
        report = aggregate_report(ims)
        assert report.mae == 2.0
        assert report.mse_paper == pytest.approx(math.sqrt(8.0), abs=1e-12)
        assert report.per_image == tuple(ims)

    def test_twenty_image_streaming_oracle(self):
        rng = np.random.default_rng(4)
        ims = []
        for i in range(20):
            g = int(rng.integers(0, 60))
            p = max(0, g + int(rng.integers(-6, 7)))
            tp = int(rng.integers(0, min(p, g) + 1)) if min(p, g) else 0
            ims.append(ImageEval(f"img{i}", p, g, tp))
        report = aggregate_report(ims)
        abs_errs = [abs(im.predicted - im.ground_truth) for im in ims]
        assert report.mae == pytest.approx(math.fsum(abs_errs) / 20, abs=1e-12)
        assert report.mse_literal == pytest.approx(
            math.fsum(e * e for e in abs_errs) / 20, abs=1e-9)
        tp = sum(im.true_positives for im in ims)
        assert report.precision == pytest.approx(tp / sum(im.predicted for im in ims))
        assert report.recall == pytest.approx(tp / sum(im.ground_truth for im in ims))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_report([])

    def test_report_is_count_report(self):
        report = aggregate_report([ImageEval("x", 1, 1, 1)])
        assert isinstance(report, CountReport)
        assert report.f1 == 1.0


class TestEvaluateCase:
    def test_counts_and_tp(self):
        rng = np.random.default_rng(5)
        gt = PointSet(rng.uniform(5, 60, (20, 2)))
        pred = PointSet(gt.coords + rng.normal(scale=0.3, size=(20, 2)))
        case = evaluate_case("img", pred, gt, tolerance=2.0)
        assert case.predicted == 20
        assert case.ground_truth == 20
        assert case.true_positives == 20

    def test_respects_config(self):
        gt = PointSet([(0, 0), (10, 0)])
        pred = PointSet([(1, 0)])
        case = evaluate_case("img", pred, gt, tolerance=5.0,
                             cfg=MatchConfig(k=1, radius_floor=1e-3))
        assert case.true_positives == 1
