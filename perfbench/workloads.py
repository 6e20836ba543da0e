"""The benchmark's four workloads: inputs, one case, checks and facts.

Every input comes from ``countmatch.synth`` (scenes, perturbations and
the SplitMix64 stream) seeded from the workload seed, so the same seed
gives the same inputs. Sizes, profiles and the count error of each case
are fixed by the workload; the seed moves the points.

Predictions follow one recipe. Exactly 5 % of the ground truth is
dropped, survivors get 1 px Gaussian jitter, and spurious points are
spread uniformly over the whole canvas. The number of spurious points is
the number dropped plus the case's count error, so every case has both
misses and false positives, and the sign of n_pred - n_gt is set by the
workload rather than left to chance. The sign decides which path the
exact solver takes (n_pred > n_gt is the slow one), so leaving it to the
seed would make a run's cost depend mostly on a coin flip per scene.

Workload code calls the library through module attributes
(``cm.matching.match_points``), so that the tracer's wrappers see the
calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import gate

DROP_RATE = 0.05
JITTER_PX = 1.0
OVER_RATE = 0.01
TOLERANCE_PX = 4.0
RENDER_SIGMA = 2.0
MIN_DISTANCE = 2.0
CONV_SCALES = (3, 5, 7, 9)
SCENE_STYLE = dict(spacing_dense=6.0, spacing_sparse=20.0, jitter=1.0)


@dataclass
class Case:
    """One timed unit of work and the facts about its inputs."""

    label: str
    data: dict
    facts: dict = field(default_factory=dict)


def over_count(n: int) -> int:
    """Size of a case's count error: 1 % of the scene, at least one point."""
    return max(1, round(OVER_RATE * n))


def case_seed(seed: int, index: int) -> int:
    return (int(seed) << 20) + 16 * index


def scene(cm, profile: str, n: int, width: int, height: int, seed: int):
    cfg = cm.synth.SceneConfig(width=width, height=height, n_points=n,
                               profile=cm.synth.DensityProfile(profile), seed=seed,
                               **SCENE_STYLE)
    return cm.synth.sample_points(cfg)


def predictions(cm, gt, width: int, height: int, count_error: int, seed: int):
    """Perturb ``gt`` into a prediction set with n_pred = n_gt + count_error.

    Returns the prediction set and its input facts.
    """
    n = len(gt)
    drops = round(DROP_RATE * n)
    n_spurious = drops + count_error
    if n_spurious < 0:
        raise ValueError("count error larger than the number of drops")
    rng = cm.synth.Prng(seed)
    order = list(range(n))
    for i in range(drops):  # partial Fisher-Yates: the first `drops` are dropped
        j = i + int(rng.uniform() * (n - i))
        order[i], order[j] = order[j], order[i]
    keep = np.ones(n, dtype=bool)
    keep[order[:drops]] = False
    survivors = cm.geometry.PointSet.from_coords(gt.coords[keep])
    jittered = cm.synth.perturb_points(survivors, drop_rate=0.0, noise_sigma=JITTER_PX,
                                       seed=seed + 1, bounds=(width, height))
    spurious = cm.synth.sample_points(cm.synth.SceneConfig(
        width=width, height=height, n_points=n_spurious, seed=seed + 2))
    pred = cm.geometry.PointSet.from_coords(
        np.concatenate([jittered.coords, spurious.coords]),
        label=cm.geometry.PointLabel.PREDICTED)
    facts = {"n_pred": len(pred), "n_gt": n, "diff": len(pred) - n,
             "misses": drops, "false_pos": n_spurious}
    return pred, facts


def count_facts(facts: list[dict]) -> dict:
    """Per-case counts, and the share of cases on the solver's slow path:
    misses and false positives with n_pred >= n_gt."""
    slow = [f for f in facts if f["misses"] and f["false_pos"] and f["diff"] >= 0]
    return {"n_pred": [f["n_pred"] for f in facts], "n_gt": [f["n_gt"] for f in facts],
            "diff": [f["diff"] for f in facts], "slow_share": len(slow) / len(facts)}


def micro_f1(tp: int, n_pred: int, n_gt: int) -> float:
    return 2.0 * tp / (n_pred + n_gt) if n_pred + n_gt else 1.0


class Workload:
    """Base class. ``setup`` returns the cases and a tiny warm-up case."""

    name = ""

    def __init__(self, cm, smoke: bool = False):
        self.cm = cm
        self.smoke = smoke

    def setup(self, seed: int, workdir: Path) -> tuple[list[Case], Case]:
        raise NotImplementedError

    def run(self, case: Case) -> Any:
        raise NotImplementedError

    def fingerprint(self, case: Case, output) -> bytes:
        raise NotImplementedError

    def check(self, cases: list[Case], outputs: list) -> dict[int, str]:
        """Correctness gate: case index -> first error found."""
        raise NotImplementedError

    def quality(self, cases: list[Case], outputs: list) -> dict:
        """Output figures fixed for a seed (name -> (value, unit))."""
        return {}

    def describe(self, cases: list[Case], outputs: list) -> dict:
        return count_facts([c.facts for c in cases])


class CliEval(Workload):
    """``countmatch eval --manifest`` over a few scene-scale pairs."""

    name = "cli_eval"
    CANVAS = (640, 480)
    SCENES = (("uniform", 256), ("gradient", 264), ("two_cluster", 272), ("uniform", 280),
              ("gradient", 288))
    SMOKE_SCENES = (("uniform", 40), ("gradient", 50), ("two_cluster", 60))

    def setup(self, seed, workdir):
        cm = self.cm
        width, height = self.CANVAS
        scenes = self.SMOKE_SCENES if self.smoke else self.SCENES
        workdir.mkdir(parents=True, exist_ok=True)
        lines, facts = [], []
        for i, (profile, n) in enumerate(scenes):
            s = case_seed(seed, i)
            gt = scene(cm, profile, n, width, height, s)
            pred, f = predictions(cm, gt, width, height, over_count(n), s + 3)
            gt_path, pred_path = workdir / f"gt_{i}.txt", workdir / f"pred_{i}.txt"
            cm.cli.serialize_coord_file(gt, gt_path, quantize=True)
            cm.cli.serialize_coord_file(pred, pred_path, quantize=True)
            lines.append(f"{pred_path}\t{gt_path}\n")
            facts.append(dict(f, profile=profile, pred=str(pred_path), gt=str(gt_path)))
        manifest = workdir / "manifest.tsv"
        manifest.write_text("".join(lines), encoding="utf-8")
        case = Case("eval", {"manifest": manifest, "report": workdir / "report.txt",
                             "scenes": facts, "workdir": str(workdir)})
        # Warm-up: the same command on one tiny pair.
        gt = scene(cm, "uniform", 12, 64, 64, case_seed(seed, 99))
        pred, _ = predictions(cm, gt, 64, 64, 1, case_seed(seed, 99) + 3)
        cm.cli.serialize_coord_file(gt, workdir / "warm_gt.txt", quantize=True)
        cm.cli.serialize_coord_file(pred, workdir / "warm_pred.txt", quantize=True)
        (workdir / "warm.tsv").write_text(
            f"{workdir / 'warm_pred.txt'}\t{workdir / 'warm_gt.txt'}\n", encoding="utf-8")
        warm = Case("warm", {"manifest": workdir / "warm.tsv",
                             "report": workdir / "warm_report.txt", "scenes": [],
                             "workdir": str(workdir)})
        return [case], warm

    def run(self, case):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cm.cli.main(["eval", "--manifest", str(case.data["manifest"]),
                                     "--report-out", str(case.data["report"])])
        if code != 0:
            raise RuntimeError(f"countmatch eval exited with {code}")
        return out.getvalue(), Path(case.data["report"]).read_text(encoding="ascii")

    def fingerprint(self, case, output):
        # Image ids are file paths; drop the run's own directory from them.
        stdout, report = output
        return (stdout + report).replace(case.data["workdir"], "").encode()

    def _report(self, output) -> dict:
        fields = {}
        for line in output[1].splitlines():
            key, _, value = line.partition(": ")
            fields.setdefault(key, []).append(value)
        return fields

    def check(self, cases, outputs):
        cm = self.cm
        errors = {}
        for index, (case, output) in enumerate(zip(cases, outputs)):
            report = self._report(output)
            images = report.get("image", [])
            if len(images) != len(case.data["scenes"]):
                errors[index] = f"report lists {len(images)} images"
                continue
            for line, sc in zip(images, case.data["scenes"]):
                pred = cm.cli.parse_coord_file(sc["pred"], label=cm.geometry.PointLabel.PREDICTED)
                gt = cm.cli.parse_coord_file(sc["gt"], label=cm.geometry.PointLabel.GROUND_TRUTH)
                result = cm.matching.match_points(pred, gt)
                problem = gate.check_match(cm, pred, gt, result)
                tp = sum(1 for p in result.pairs if p.distance <= TOLERANCE_PX)
                expected = (f"{sc['pred']} pred={len(pred)} gt={len(gt)} "
                            f"abs_err={abs(len(pred) - len(gt))} tp={tp}")
                if problem is None and line != expected:
                    problem = f"report line {line!r} differs from {expected!r}"
                if problem is not None:
                    errors[index] = f"{sc['pred']}: {problem}"
                    break
        return errors

    def quality(self, cases, outputs):
        report = self._report(outputs[0])
        return {"f1": (float(report["f1"][0]), "ratio"),
                "count_mae": (float(report["mae"][0]), "count")}

    def describe(self, cases, outputs):
        scenes = cases[0].data["scenes"]
        return dict(count_facts(scenes), profiles=[sc["profile"] for sc in scenes])


class LabelAssign(Workload):
    """``match_points`` once per image, as in training-time label assignment."""

    name = "label_assign"
    CANVAS = (256, 256)
    IMAGES, SMALLEST, LARGEST = 200, 30, 80
    SMOKE_IMAGES, SMOKE_LARGEST = 6, 60
    PROFILES = ("uniform", "gradient", "two_cluster")

    def sizes(self) -> list[int]:
        count = self.SMOKE_IMAGES if self.smoke else self.IMAGES
        largest = self.SMOKE_LARGEST if self.smoke else self.LARGEST
        # Sizes spread evenly over [SMALLEST, largest], visited in a
        # stride order so that large and small images interleave.
        return [self.SMALLEST + round((largest - self.SMALLEST) * ((7 * i) % count) / (count - 1))
                for i in range(count)]

    def setup(self, seed, workdir):
        cm = self.cm
        width, height = self.CANVAS
        cases = []
        for i, n in enumerate(self.sizes()):
            s = case_seed(seed, i)
            profile = self.PROFILES[i % 3]
            gt = scene(cm, profile, n, width, height, s)
            # Every fourth image under-predicts, the rest over-predict.
            error = -over_count(n) if i % 4 == 3 else over_count(n)
            pred, facts = predictions(cm, gt, width, height, error, s + 3)
            cases.append(Case(f"image_{i}", {"pred": pred, "gt": gt}, dict(facts, profile=profile)))
        warm = Case("warm", {"pred": cases[0].data["pred"], "gt": cases[0].data["gt"]})
        return cases, warm

    def run(self, case):
        return self.cm.matching.match_points(case.data["pred"], case.data["gt"])

    def fingerprint(self, case, output):
        return repr((output.pairs, output.unmatched_pred, output.unmatched_gt,
                     output.total_weight)).encode()

    def check(self, cases, outputs):
        errors = {}
        for index, (case, result) in enumerate(zip(cases, outputs)):
            problem = gate.check_match(self.cm, case.data["pred"], case.data["gt"], result)
            if problem is not None:
                errors[index] = problem
        return errors

    def quality(self, cases, outputs):
        tp = sum(1 for r in outputs for p in r.pairs if p.distance <= TOLERANCE_PX)
        n_pred = sum(c.facts["n_pred"] for c in cases)
        n_gt = sum(c.facts["n_gt"] for c in cases)
        mae = sum(abs(c.facts["diff"]) for c in cases) / len(cases)
        return {"f1": (micro_f1(tp, n_pred, n_gt), "ratio"), "count_mae": (mae, "count")}


class DensityDecode(Workload):
    """Render predictions to density maps, decode peaks, score the counts."""

    name = "density_decode"
    MAPS = (("uniform", 1200, 1024, 768), ("gradient", 1200, 1024, 768),
            ("two_cluster", 1200, 1024, 512))
    SMOKE_MAPS = (("uniform", 80, 160, 128), ("two_cluster", 80, 256, 128))

    @staticmethod
    def threshold() -> float:
        """Half the peak height of an isolated point rendered on a pixel centre."""
        return 0.5 / (2.0 * math.pi * RENDER_SIGMA * RENDER_SIGMA)

    def setup(self, seed, workdir):
        cm = self.cm
        cases = []
        for i, (profile, n, width, height) in enumerate(self.SMOKE_MAPS if self.smoke else self.MAPS):
            s = case_seed(seed, i)
            gt = scene(cm, profile, n, width, height, s)
            pred, facts = predictions(cm, gt, width, height, over_count(n), s + 3)
            cases.append(Case(f"map_{i}", {"pred": pred, "n_gt": n, "shape": (height, width)},
                              dict(facts, profile=profile, pixels=width * height)))
        gt = scene(cm, "uniform", 8, 48, 48, case_seed(seed, 99))
        warm = Case("warm", {"pred": gt, "n_gt": 8, "shape": (48, 48)})
        return cases, warm

    def run(self, case):
        cm = self.cm
        height, width = case.data["shape"]
        dmap = cm.densitymap.render_density(case.data["pred"], RENDER_SIGMA, height, width)
        peaks = cm.densitymap.extract_peaks(dmap, self.threshold(), MIN_DISTANCE)
        mae, _, _ = cm.metrics.count_error([len(peaks)], [case.data["n_gt"]])
        return dmap, peaks, mae

    def fingerprint(self, case, output):
        dmap, peaks, mae = output
        return dmap.values.tobytes() + peaks.coords.tobytes() + repr(mae).encode()

    def check(self, cases, outputs):
        errors = {}
        for index, (dmap, peaks, mae) in enumerate(outputs):
            problem = gate.check_peaks(dmap.values, peaks.coords, self.threshold(), MIN_DISTANCE)
            if problem is None and mae != abs(len(peaks) - cases[index].data["n_gt"]):
                problem = f"count error {mae} does not match {len(peaks)} peaks"
            if problem is not None:
                errors[index] = problem
        return errors

    def quality(self, cases, outputs):
        return {"count_mae": (sum(o[2] for o in outputs) / len(outputs), "count")}

    def describe(self, cases, outputs):
        return dict(count_facts([c.facts for c in cases]), peaks=[len(o[1]) for o in outputs],
                    pixels=[c.facts["pixels"] for c in cases])


class ConvForward(Workload):
    """predict_params -> multiscale_forward -> fusion_attention per feature map."""

    name = "conv_forward"
    MAPS, SHAPE = 8, (16, 128, 128)
    SMOKE_MAPS, SMOKE_SHAPE = 2, (4, 20, 20)
    CROP = 18

    def setup(self, seed, workdir):
        cm = self.cm
        count, shape = (self.SMOKE_MAPS, self.SMOKE_SHAPE) if self.smoke else (self.MAPS, self.SHAPE)
        cases = [self._case(cm, f"map_{i}", shape, case_seed(seed, i)) for i in range(count)]
        warm = self._case(cm, "warm", (2, 12, 12), case_seed(seed, 99))
        return cases, warm

    @staticmethod
    def _case(cm, label, shape, seed) -> Case:
        # Feature values and head weights come from a numpy stream whose
        # seed is drawn from the package's own SplitMix64 generator.
        rng = np.random.default_rng(cm.synth.Prng(seed).next_u64())
        c = shape[0]
        data = {
            "feature": cm.dynconv.FeatureMap(rng.normal(size=shape)),
            "weights": rng.normal(scale=0.25, size=(3, c)),
            "bias": rng.normal(scale=0.5, size=3),
            "sx": float(np.exp(rng.uniform(-0.3, 0.3))),
            "sy": float(np.exp(rng.uniform(-0.3, 0.3))),
            "alpha": rng.normal(scale=0.1, size=2 * len(CONV_SCALES) * c),
        }
        return Case(label, data, {"shape": list(shape)})

    def run(self, case):
        dc, d = self.cm.dynconv, case.data
        field = dc.predict_params(d["feature"], d["weights"], d["bias"], sx=d["sx"], sy=d["sy"])
        fused = dc.multiscale_forward(d["feature"], field, CONV_SCALES)
        out, state = dc.fusion_attention(fused, d["alpha"])
        return field, out, state

    def fingerprint(self, case, output):
        field, out, state = output
        return out.values.tobytes() + state.alpha_prime.tobytes()

    def check(self, cases, outputs):
        errors = {}
        channels = cases[0].data["feature"].channels
        for index, (case, (field, out, state)) in enumerate(zip(cases, outputs)):
            expected = 2 * len(CONV_SCALES) * channels
            if out.channels != expected or not np.all(np.isfinite(out.values)):
                errors[index] = f"forward output has {out.channels} channels, expected {expected}"
        # The per-pixel reference loop is slow, so it runs on a corner crop
        # (zero padding included) of the first map, at every scale.
        problem = gate.check_conv_crop(self.cm, cases[0].data["feature"], outputs[0][0],
                                       CONV_SCALES, self.CROP)
        if problem is not None:
            errors.setdefault(0, problem)
        return errors

    def describe(self, cases, outputs):
        return {"maps": len(cases), "feature_shape": cases[0].facts["shape"],
                "output_channels": outputs[0][1].channels}


WORKLOADS = {w.name: w for w in (CliEval, LabelAssign, DensityDecode, ConvForward)}


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()
