"""Input rejections that no other test reaches: each raises its own type
with its own message."""

import math

import numpy as np
import pytest

from countmatch import cli
from countmatch.densitymap import DensityMap, extract_peaks, render_density
from countmatch.dynconv import FeatureMap, ParamField
from countmatch.geometry import PointSet, RadiusProfile
from countmatch.kernels import KernelParams
from countmatch.matching import gaussian_weight, match_with_radii
from countmatch.metrics import evaluate_case
from countmatch.synth import sample_separated


def _eval_pairs_of(tmp_path, manifest: bytes):
    path = tmp_path / "m.tsv"
    path.write_bytes(manifest)
    return cli._eval_pairs(cli.build_parser().parse_args(["eval", "--manifest", str(path)]))


_ONE = PointSet([(1.0, 1.0)])

_REJECTIONS = {
    "density-map-1d": (lambda _: DensityMap(np.zeros(3)), ValueError,
                       "density map must be 2-D"),
    "render-zero-height": (lambda _: render_density(_ONE, 1.0, 0, 5), ValueError,
                           "map dimensions must be positive"),
    "peaks-nan-threshold": (lambda _: extract_peaks(DensityMap(np.ones((2, 2))), math.nan),
                            ValueError, "threshold must be finite"),
    "feature-map-zero-width": (lambda _: FeatureMap(np.zeros((2, 3, 0))), ValueError,
                               "feature map dimensions must be positive"),
    "param-field-inf": (lambda _: ParamField(np.full((3, 2, 2), np.inf)), ValueError,
                        "parameter field must be finite"),
    "kernel-params-nan": (lambda _: KernelParams(sigma=2.0, dx=math.nan), ValueError,
                          "kernel parameters must be finite"),
    "weight-inf-distance": (lambda _: gaussian_weight(math.inf, 1.0), ValueError,
                            "distance must be finite"),
    "radii-misaligned": (lambda _: match_with_radii(_ONE, _ONE, RadiusProfile(np.ones(2), 1)),
                         ValueError, "radius profile length 2 does not match predictions 1"),
    "tolerance-zero": (lambda _: evaluate_case("a", _ONE, _ONE, 0.0), ValueError,
                       "tolerance must be positive"),
    "sample-negative-n": (lambda _: sample_separated(-1, 10.0, 10.0, 1.0), ValueError,
                          "n must be non-negative"),
    "sample-no-area": (lambda _: sample_separated(3, 10.0, 10.0, 1.0, margin=5.0), ValueError,
                       "margin leaves no usable area"),
    "manifest-malformed": (lambda tmp: _eval_pairs_of(tmp, b"a.txt\tb.txt\nc.txt b.txt\n"),
                           ValueError, "m.tsv:2: manifest lines are pred_path<TAB>gt_path"),
    "manifest-blank": (lambda tmp: _eval_pairs_of(tmp, b"\n\r\n\n"), ValueError,
                       "nothing to evaluate"),
    "manifest-not-utf8": (lambda tmp: _eval_pairs_of(tmp, b"a\tb\n\xff\tb\n"), ValueError,
                          "m.tsv:2: not UTF-8 text"),
}


@pytest.mark.parametrize("call, kind, message", _REJECTIONS.values(), ids=_REJECTIONS.keys())
def test_rejection(tmp_path, call, kind, message):
    with pytest.raises(kind) as exc:
        call(tmp_path)
    assert type(exc.value) is kind
    assert message in str(exc.value)


def test_skip_missing_with_no_readable_pair(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert cli.main(["eval", missing, missing, "--skip-missing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no readable file pairs\n"
