"""Input rejections that no other test reaches: each raises its own type
with its own message."""

import ast
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import countmatch
from countmatch import cli
from countmatch.densitymap import DensityMap, extract_peaks, render_density
from countmatch.dynconv import FeatureMap, ParamField
from countmatch.geometry import PointSet, RadiusProfile
from countmatch.kernels import KernelParams
from countmatch.matching import MatchConfig, gaussian_weight, match_with_radii
from countmatch.metrics import evaluate_case
from countmatch.synth import perturb_points, sample_separated


def _eval_pairs_of(tmp_path, manifest: bytes):
    path = tmp_path / "m.tsv"
    path.write_bytes(manifest)
    return cli._eval_pairs(cli.build_parser().parse_args(["eval", "--manifest", str(path)]))


_ONE = PointSet([(1.0, 1.0)])
_THREE = PointSet([(1.0, 1.0), (2.0, 3.0), (4.0, 2.0)])
_SCENE_SIZE = "scene dimensions must be positive and within the float range"
_NOT_FINITE = "width, height and margin must be finite"


def _perturb_within(bounds):
    return lambda _: perturb_points(_THREE, 0.0, spurious_rate=1.0, bounds=bounds)


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
    "match-config-float-k": (lambda _: MatchConfig(k=2.5), ValueError, "invalid k"),
    "radii-misaligned": (lambda _: match_with_radii(_ONE, _ONE, RadiusProfile(np.ones(2), 1)),
                         ValueError, "radius profile length 2 does not match predictions 1"),
    "tolerance-zero": (lambda _: evaluate_case("a", _ONE, _ONE, 0.0), ValueError,
                       "tolerance must be positive"),
    "sample-negative-n": (lambda _: sample_separated(-1, 10.0, 10.0, 1.0), ValueError,
                          "n must be non-negative"),
    "sample-no-area": (lambda _: sample_separated(3, 10.0, 10.0, 1.0, margin=5.0), ValueError,
                       "margin leaves no usable area"),
    "sample-inf-width": (lambda _: sample_separated(3, math.inf, 10.0, 1.0), ValueError,
                         _NOT_FINITE),
    "sample-nan-width": (lambda _: sample_separated(3, math.nan, 10.0, 1.0), ValueError,
                         _NOT_FINITE),
    "sample-negative-margin": (lambda _: sample_separated(5, 10.0, 10.0, 1.0, margin=-5.0, seed=1),
                               ValueError, "margin must be non-negative, got -5.0"),
    "sample-margin-past-float-range": (lambda _: sample_separated(5, 10.0, 10.0, 1.0,
                                                                  margin=-1e308, seed=1),
                                       ValueError, "margin must be non-negative, got -1e+308"),
    "perturb-negative-bounds": (_perturb_within((-5, 10)), ValueError, _SCENE_SIZE),
    "perturb-zero-bounds": (_perturb_within((0, 0)), ValueError, _SCENE_SIZE),
    "perturb-nan-bounds": (_perturb_within((math.nan, 10)), ValueError, _SCENE_SIZE),
    "perturb-inf-bounds": (_perturb_within((math.inf, 10)), ValueError, _SCENE_SIZE),
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


#: A message raised from two places that state two different rules:
#: MatchConfig's Gaussian width and render_density's window.
_SHARED_MESSAGES = {"invalid sigma"}


def test_each_value_error_message_has_one_raise_site():
    # A rule stated twice can drift: every ``raise ValueError(<message>)``
    # in the package has a text of its own, f-string fields blanked out.
    sites = defaultdict(list)
    for path in sorted(Path(countmatch.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"
                    and node.exc.args):
                continue
            message = node.exc.args[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                text = message.value
            elif isinstance(message, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                               for part in message.values)
            else:
                continue
            sites[text].append(f"{path.name}:{node.lineno}")
    twice = {text: where for text, where in sites.items()
             if len(where) > 1 and text not in _SHARED_MESSAGES}
    assert not twice, twice
