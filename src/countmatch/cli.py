"""Command-line interface and on-disk coordinate format.

Coordinate files are plain text: one point per line as two non-negative
integers separated by a single space, newline-terminated ("x y"), in
file order. Parsing is strict (a malformed line reports its number) and
serialization of non-integer coordinates rounds half away from zero with
a warning, so integer round-trips are byte-identical.

Subcommands: match, eval, kernel, gradcheck, synth, bench. Exit codes:
0 success, 1 usage error, 2 data error. No environment variables are
consulted. Identical inputs and flags produce byte-identical output
files.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import densitymap, metrics, synth
from .dynconv import FeatureMap, ParamField, dynamic_gaussian_conv, multiscale_forward
from .geometry import PointLabel, PointSet
from .kernels import KernelParams, kernel_gradients, synthesize_kernel
from .matching import MatchConfig, OutOfRadiusMode, SigmaMode, match_points

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_COORD_LINE = re.compile(r"^(\d+) (\d+)$")


def parse_coord_file(path, label: PointLabel = PointLabel.UNLABELED) -> PointSet:
    """Read a coordinate TXT file. An empty file is an empty set."""
    pts = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            m = _COORD_LINE.match(stripped)
            if not m:
                raise ValueError(f"{path}:{lineno}: malformed coordinate line: {stripped!r}")
            pts.append((int(m.group(1)), int(m.group(2))))
    return PointSet(pts, label=label)


def serialize_coord_file(points: PointSet, path, quantize: bool = False) -> None:
    """Write a coordinate TXT file.

    The format stores integers; non-integer coordinates are rounded half
    away from zero. That rounding warns unless ``quantize`` acknowledges
    it (callers generating continuous points on purpose pass True).
    """
    lines = []
    rounded_any = False
    for x, y in points.coords:
        rx, ry = _round_half_away(x), _round_half_away(y)
        if rx != x or ry != y:
            rounded_any = True
        if rx < 0 or ry < 0:
            raise ValueError(f"cannot serialize negative coordinate ({x}, {y})")
        lines.append(f"{rx} {ry}\n")
    if rounded_any and not quantize:
        warnings.warn("non-integer coordinates rounded half away from zero "
                      f"while writing {path}", stacklevel=2)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def _round_half_away(value: float) -> int:
    return int(math.floor(abs(value) + 0.5)) * (1 if value >= 0 else -1)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _match_config(args) -> MatchConfig:
    return MatchConfig(
        k=args.k,
        sigma_mode=SigmaMode(args.sigma_mode),
        sigma_value=args.sigma_value,
        radius_floor=args.radius_floor,
        out_of_radius=OutOfRadiusMode(args.mode),
    )


def _add_match_flags(parser) -> None:
    parser.add_argument("--k", type=int, default=5, help="neighbor count for adaptive radii")
    parser.add_argument("--sigma-mode", choices=[m.value for m in SigmaMode],
                        default=SigmaMode.RADIUS_SCALED.value,
                        help="Gaussian width policy")
    parser.add_argument("--sigma-value", type=float, default=0.5,
                        help="width in px (fixed) or radius factor (radius_scaled)")
    parser.add_argument("--radius-floor", type=float, default=1e-3,
                        help="lower bound on adaptive radii, px")
    parser.add_argument("--mode", choices=[m.value for m in OutOfRadiusMode],
                        default=OutOfRadiusMode.FORBID.value,
                        help="treatment of pairs beyond the radius")


def build_parser() -> _Parser:
    parser = _Parser(prog="countmatch",
                     description="Density-adaptive point matching and counting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", parents=[], help="match a prediction file against ground truth")
    p.add_argument("pred", help="predicted coordinates (TXT)")
    p.add_argument("gt", help="ground-truth coordinates (TXT)")
    _add_match_flags(p)
    p.add_argument("--out", help="write the full pair report to this file")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("eval", help="counting metrics over file pairs or a manifest")
    p.add_argument("files", nargs="*", help="pred gt [pred gt ...]")
    p.add_argument("--manifest", help="TSV manifest: pred_path<TAB>gt_path per line")
    _add_match_flags(p)
    p.add_argument("--tolerance", type=float, default=4.0,
                   help="localization tolerance in px for precision/recall")
    p.add_argument("--report-out", help="write machine-readable key:value report here")
    p.add_argument("--skip-missing", action="store_true",
                   help="skip unreadable pairs instead of aborting")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("kernel", help="dump a kernel (and optionally gradients) as CSV")
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--dx", type=float, default=0.0)
    p.add_argument("--dy", type=float, default=0.0)
    p.add_argument("--sx", type=float, default=1.0)
    p.add_argument("--sy", type=float, default=1.0)
    p.add_argument("--size", type=int, default=9)
    p.add_argument("--renormalize", action="store_true", help="divide by the discrete sum")
    p.add_argument("--gradients", action="store_true",
                   help="also dump the five gradient grids (requires --out)")
    p.add_argument("--out", help="output CSV path; stdout when omitted")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("gradcheck", help="finite-difference check of kernel gradients")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--size", type=int, default=9)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--profile", choices=[m.value for m in synth.DensityProfile],
                   default=synth.DensityProfile.UNIFORM.value)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--spacing-dense", type=float, default=1.0)
    p.add_argument("--spacing-sparse", type=float, default=20.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="ground-truth TXT output path")
    p.add_argument("--perturb-out", help="also write a perturbed prediction TXT here")
    p.add_argument("--drop", type=float, default=0.1, help="drop rate for --perturb-out")
    p.add_argument("--noise", type=float, default=0.5, help="noise sigma for --perturb-out")
    p.add_argument("--spurious", type=float, default=0.0,
                   help="spurious rate for --perturb-out")
    p.add_argument("--density-out",
                   help="render a density map here (.csv for text, else binary)")
    p.add_argument("--render-sigma", type=float, default=2.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="wall-clock timings for standard presets")
    p.add_argument("preset", choices=["match-small", "match-large", "conv"])
    p.set_defaults(func=cmd_bench)

    return parser


def cmd_match(args) -> int:
    pred = parse_coord_file(args.pred, label=PointLabel.PREDICTED)
    gt = parse_coord_file(args.gt, label=PointLabel.GROUND_TRUTH)
    result = match_points(pred, gt, _match_config(args))
    report = _format_match_report(result)
    if args.out:
        Path(args.out).write_text(report, encoding="ascii")
    print(f"pairs: {len(result.pairs)}  unmatched_pred: {len(result.unmatched_pred)}  "
          f"unmatched_gt: {len(result.unmatched_gt)}  total_weight: {_fmt(result.total_weight)}")
    if not args.out:
        sys.stdout.write(report)
    return EXIT_OK


def _format_match_report(result) -> str:
    lines = [
        f"pred_count: {result.n_pred}",
        f"gt_count: {result.n_gt}",
        f"pair_count: {len(result.pairs)}",
        f"total_weight: {_fmt(result.total_weight)}",
        "unmatched_pred: " + " ".join(str(i) for i in result.unmatched_pred),
        "unmatched_gt: " + " ".join(str(j) for j in result.unmatched_gt),
    ]
    for p in result.pairs:
        lines.append(f"pair: {p.pred_index} {p.gt_index} {_fmt(p.distance)} {_fmt(p.weight)}")
    return "\n".join(lines) + "\n"


def _eval_pairs(args) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(
                        f"{args.manifest}:{lineno}: manifest lines are pred_path<TAB>gt_path")
                pairs.append((parts[0], parts[1]))
    if args.files:
        if len(args.files) % 2:
            raise ValueError("positional files must come in pred/gt pairs")
        pairs.extend(zip(args.files[::2], args.files[1::2]))
    if not pairs:
        raise ValueError("nothing to evaluate: give file pairs or --manifest")
    return pairs


def cmd_eval(args) -> int:
    pairs = _eval_pairs(args)
    cfg = _match_config(args)
    results = []
    failures = []
    for pred_path, gt_path in pairs:
        try:
            pred = parse_coord_file(pred_path, label=PointLabel.PREDICTED)
            gt = parse_coord_file(gt_path, label=PointLabel.GROUND_TRUTH)
        except (OSError, ValueError) as exc:
            failures.append(f"{pred_path} / {gt_path}: {exc}")
            continue
        results.append(metrics.evaluate_case(pred_path, pred, gt, args.tolerance, cfg))
    if failures and not args.skip_missing:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return EXIT_DATA
    if not results:
        print("error: no readable file pairs", file=sys.stderr)
        return EXIT_DATA
    report = metrics.aggregate_report(results)

    width = max(len("image"), *(len(im.image_id) for im in report.per_image))
    print(f"{'image':<{width}}  {'pred':>6}  {'gt':>6}  {'abs_err':>7}")
    for im in report.per_image:
        print(f"{im.image_id:<{width}}  {im.predicted:>6}  {im.ground_truth:>6}  "
              f"{im.absolute_error:>7}")
    print(f"mae: {_fmt(report.mae)}")
    print(f"mse_paper: {_fmt(report.mse_paper)}  (root mean squared count error)")
    print(f"mse_literal: {_fmt(report.mse_literal)}")
    print(f"precision: {_fmt(report.precision)}  recall: {_fmt(report.recall)}  "
          f"f1: {_fmt(report.f1)}")
    if args.report_out:
        Path(args.report_out).write_text(_format_eval_report(report), encoding="ascii")
    return EXIT_OK


def _format_eval_report(report) -> str:
    lines = [f"images: {len(report.per_image)}"]
    for im in report.per_image:
        lines.append(f"image: {im.image_id} pred={im.predicted} gt={im.ground_truth} "
                     f"abs_err={im.absolute_error} tp={im.true_positives}")
    lines += [
        f"mae: {_fmt(report.mae)}",
        f"mse_paper: {_fmt(report.mse_paper)}",
        f"mse_literal: {_fmt(report.mse_literal)}",
        f"precision: {_fmt(report.precision)}",
        f"recall: {_fmt(report.recall)}",
        f"f1: {_fmt(report.f1)}",
    ]
    return "\n".join(lines) + "\n"


def _write_grid_csv(path_or_stdout, grid: np.ndarray) -> None:
    if path_or_stdout is None:
        np.savetxt(sys.stdout, grid, delimiter=",", fmt="%.17g")
    else:
        np.savetxt(path_or_stdout, grid, delimiter=",", fmt="%.17g")


def cmd_kernel(args) -> int:
    params = KernelParams(sigma=args.sigma, dx=args.dx, dy=args.dy, sx=args.sx, sy=args.sy)
    kernel = synthesize_kernel(params, args.size, renormalize=args.renormalize)
    _write_grid_csv(args.out, kernel.values)
    if args.gradients:
        if not args.out:
            raise ValueError("--gradients needs --out to name the gradient files")
        grads = kernel_gradients(params, args.size)
        base = Path(args.out)
        for name, grid in grads.as_dict().items():
            _write_grid_csv(base.with_suffix(f".d_{name}.csv"), grid)
    return EXIT_OK


def run_gradcheck(trials: int, size: int, epsilon: float, seed: int = 0):
    """Worst relative finite-difference error over random parameter draws.

    Returns (max_rel_err, description). Relative error is taken per grid
    entry against max(|analytic|, |numeric|, 1e-12) and only entries with
    |K| > 1e-12 are scored.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_desc = "no trials"
    for trial in range(trials):
        params = KernelParams(
            sigma=float(rng.uniform(1.2, 9.8)),
            dx=float(rng.uniform(-1.8, 1.8)),
            dy=float(rng.uniform(-1.8, 1.8)),
            sx=float(np.exp(rng.uniform(-0.7, 0.7))),
            sy=float(np.exp(rng.uniform(-0.7, 0.7))),
        )
        k = synthesize_kernel(params, size).values
        grads = kernel_gradients(params, size).as_dict()
        mask = np.abs(k) > 1e-12
        base = {"sigma": params.sigma, "dx": params.dx, "dy": params.dy,
                "sx": params.sx, "sy": params.sy}
        for name, analytic in grads.items():
            hi = dict(base)
            lo = dict(base)
            hi[name] += epsilon
            lo[name] -= epsilon
            fd = (synthesize_kernel(KernelParams(**hi), size).values
                  - synthesize_kernel(KernelParams(**lo), size).values) / (2.0 * epsilon)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-12)
            rel = np.abs(analytic - fd) / denom
            err = float(rel[mask].max()) if mask.any() else 0.0
            if err > worst:
                worst = err
                worst_desc = f"trial {trial}, parameter {name}"
    return worst, worst_desc


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    worst, desc = run_gradcheck(args.trials, args.size, args.epsilon, args.seed)
    status = "PASS" if worst <= args.tolerance else "FAIL"
    print(f"{status} gradcheck: max relative error {worst:.3e} "
          f"(tolerance {args.tolerance:.3e}, worst at {desc})")
    return EXIT_OK if worst <= args.tolerance else EXIT_DATA


def cmd_synth(args) -> int:
    cfg = synth.SceneConfig(
        width=args.width, height=args.height, n_points=args.n,
        profile=synth.DensityProfile(args.profile),
        spacing_dense=args.spacing_dense, spacing_sparse=args.spacing_sparse,
        jitter=args.jitter, seed=args.seed)
    scene = synth.sample_points(cfg)
    serialize_coord_file(scene, args.out, quantize=True)
    print(f"wrote {len(scene)} points to {args.out}")
    if args.perturb_out:
        pred = synth.perturb_points(scene, drop_rate=args.drop, spurious_rate=args.spurious,
                                    noise_sigma=args.noise, seed=args.seed + 1,
                                    bounds=(args.width, args.height))
        serialize_coord_file(pred, args.perturb_out, quantize=True)
        print(f"wrote {len(pred)} perturbed points to {args.perturb_out}")
    if args.density_out:
        dmap = densitymap.render_density(scene, sigma=args.render_sigma,
                                         height=args.height, width=args.width)
        if args.density_out.endswith(".csv"):
            densitymap.save_csv(dmap, args.density_out)
        else:
            densitymap.save_binary(dmap, args.density_out)
        print(f"wrote density map to {args.density_out}")
    return EXIT_OK


def _bench_match(n: int, side: float, seed: int) -> None:
    cfg = synth.SceneConfig(width=int(side), height=int(side), n_points=n,
                            profile=synth.DensityProfile.UNIFORM, seed=seed)
    gt = synth.sample_points(cfg)
    pred = synth.perturb_points(gt, drop_rate=0.05, spurious_rate=0.05,
                                noise_sigma=1.0, seed=seed + 1, bounds=(side, side))
    t0 = time.perf_counter()
    result = match_points(pred, gt)
    elapsed = time.perf_counter() - t0
    print(f"n_pred: {len(pred)}")
    print(f"n_gt: {len(gt)}")
    print(f"pairs: {len(result.pairs)}")
    print(f"elapsed_s: {elapsed:.3f}")


def cmd_bench(args) -> int:
    print(f"preset: {args.preset}")
    if args.preset == "match-small":
        _bench_match(200, 512.0, seed=7)
    elif args.preset == "match-large":
        _bench_match(2000, 2048.0, seed=7)
    else:
        rng = np.random.default_rng(7)
        feature = FeatureMap(rng.normal(size=(8, 64, 64)))
        field = ParamField(rng.normal(size=(3, 64, 64)) * 0.5, sx=1.0, sy=1.0)
        scales = (3, 5, 7, 9)
        total = 0.0
        for s in scales:
            t0 = time.perf_counter()
            dynamic_gaussian_conv(feature, field, s)
            dt = time.perf_counter() - t0
            total += dt
            print(f"scale_{s}_s: {dt:.3f}")
        t0 = time.perf_counter()
        multiscale_forward(feature, field, scales)
        print(f"multiscale_s: {time.perf_counter() - t0:.3f}")
        print(f"per_scale_total_s: {total:.3f}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
