"""Command-line interface and on-disk coordinate format.

Coordinate files are plain text: one point per line as two non-negative
integers separated by a single space, newline-terminated ("x y"), in
file order. Lines may end in LF, CRLF or CR, and the last one may lack
its line break. Parsing reads the whole file as arrays and is strict:
the first bad line in file order reports its number, whether it is not
ASCII, malformed (a blank line is), or holds a value beyond the float
range. Leading zeros are allowed and add nothing, at any length.
Serialization of non-integer coordinates rounds half away from zero with
a warning, so integer round-trips are byte-identical.

Subcommands: match, eval, kernel, gradcheck, synth. Exit codes:
0 success, 1 usage error, 2 data error. No environment variables are
consulted. Identical inputs and flags produce byte-identical output
files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import replace
from functools import cache, partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import densitymap, metrics, synth
from .geometry import PointLabel, PointSet
from .kernels import (
    OFFSET_LIMIT,
    SIGMA_MAX,
    SIGMA_MIN,
    KernelParams,
    kernel_gradients,
    synthesize_kernel,
)
from .matching import MatchConfig, SigmaMode, match_points

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# Byte classes of a coordinate file. Digits are 0, so the other bytes
# are the field ends; a CR has become an LF before the classes are read.
_SPACE, _LF, _OTHER = 1, 2, 3
_BYTE_CLASS = np.full(256, _OTHER, np.uint8)
_BYTE_CLASS[ord("0"):ord("9") + 1] = 0
_BYTE_CLASS[ord(" ")] = _SPACE
_BYTE_CLASS[ord("\n")] = _LF
# Fields of at most 15 digits are below 10**15 < 2**53: exact in int64 and float64.
_INT_DIGITS = 15


def parse_coord_file(path, label: PointLabel = PointLabel.UNLABELED) -> PointSet:
    """Read a coordinate TXT file. An empty file is an empty set.

    The whole file is checked and converted as arrays. Lines end at LF,
    CRLF or CR, as ``bytes.splitlines`` splits, and a final line break
    adds no line. The first bad line in file order raises ValueError
    naming the path and line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # Same lines as bytes.splitlines, each ended by one LF.
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, np.uint8)
    # Good lines are digits, space, digits, LF: the field ends alternate
    # space and LF, and each follows at least one digit.
    classes = _BYTE_CLASS.take(buf)
    ends = np.flatnonzero(classes)
    lengths = ends - np.concatenate(([-1], ends[:-1])) - 1
    found = classes.take(ends)
    bad = lengths == 0
    bad[0::2] |= found[0::2] != _SPACE
    bad[1::2] |= found[1::2] != _LF
    if not bad.any():
        return PointSet.from_coords(_coordinates(path, data, buf, ends, lengths), label=label)
    # The first bad field end lies in the first bad line.
    at = int(ends[bad.argmax()])
    start = data.rfind(b"\n", 0, at) + 1
    line = data[start:data.index(b"\n", at)]
    lineno = data.count(b"\n", 0, start) + 1
    fields = 2 * (lineno - 1)   # the good lines before it may still overflow
    _coordinates(path, data, buf, ends[:fields], lengths[:fields])
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError:
        raise ValueError(f"{path}:{lineno}: not ASCII text") from None
    raise ValueError(f"{path}:{lineno}: malformed coordinate line: {text!r}")


def _coordinates(path, data: bytes, buf, ends, lengths) -> np.ndarray:
    """(n, 2) float64 values of the digit fields ending before ``ends``,
    exactly as ``float(int(field))`` reads each of them."""
    values = np.zeros(len(ends), np.int64)
    for place in range(min(int(lengths.max(initial=0)), _INT_DIGITS), 0, -1):
        digit = buf.take(ends - place, mode="clip").astype(np.int64) - ord("0")
        values = values * 10 + np.where(lengths >= place, digit, 0)
    values = values.astype(np.float64)
    for f in np.flatnonzero(lengths > _INT_DIGITS).tolist():
        # float() is correctly rounded at any length, leading zeros included,
        # and gives inf beyond the float range.
        values[f] = float(data[ends[f] - lengths[f]:ends[f]])
        if math.isinf(values[f]):
            raise ValueError(f"{path}:{f // 2 + 1}: coordinate out of float range "
                             "(about 1.8e308)")
    return values.reshape(-1, 2)


def serialize_coord_file(points: PointSet, path, quantize: bool = False) -> None:
    """Write a coordinate TXT file.

    The format stores integers; non-integer coordinates are rounded half
    away from zero. That rounding warns unless ``quantize`` acknowledges
    it (callers generating continuous points on purpose pass True).
    """
    coords = points.coords
    whole = np.floor(np.abs(coords))
    # |x| - floor(|x|) is exact (and 0 from 2**52 up, where every float is
    # an integer), where |x| + 0.5 would round above 2**52.
    rounded = np.copysign(whole + (np.abs(coords) - whole >= 0.5), coords)
    negative = rounded < 0
    if negative.any():
        x, y = coords[negative.any(axis=1).argmax()].tolist()
        raise ValueError(f"cannot serialize negative coordinate ({x}, {y})")
    if not quantize and (rounded != coords).any():
        warnings.warn("non-integer coordinates rounded half away from zero "
                      f"while writing {path}", stacklevel=2)
    # int64 holds every value below 2**53; Python's int writes the rest.
    big = whole >= 2.0 ** 53
    values = np.where(big, 0, rounded).astype(np.int64).ravel().tolist()
    for i in np.flatnonzero(big).tolist():
        values[i] = int(rounded.flat[i])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(("%d %d\n" * len(coords)) % tuple(values))


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
    )


def _add_match_flags(parser) -> None:
    default = MatchConfig()
    parser.add_argument("--k", type=int, default=default.k,
                        help="neighbor count for adaptive radii")
    parser.add_argument("--sigma-mode", choices=[m.value for m in SigmaMode],
                        default=default.sigma_mode.value,
                        help="Gaussian width policy")
    parser.add_argument("--sigma-value", type=float, default=default.sigma_value,
                        help="width in px (fixed) or radius factor (radius_scaled)")
    parser.add_argument("--radius-floor", type=float, default=default.radius_floor,
                        help="lower bound on adaptive radii, px")


@cache
def build_parser() -> _Parser:
    """The parser, built once per process: building costs far more than a parse."""
    parser = _Parser(prog="countmatch",
                     description="Density-adaptive point matching and counting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", parents=[], help="match a prediction file against ground truth")
    p.add_argument("pred", help="predicted coordinates (TXT)")
    p.add_argument("gt", help="ground-truth coordinates (TXT)")
    _add_match_flags(p)
    p.add_argument("--out", help="write the full pair report to this file")

    p = sub.add_parser("eval", help="counting metrics over file pairs or a manifest")
    p.add_argument("files", nargs="*", help="pred gt [pred gt ...]")
    p.add_argument("--manifest", help="TSV manifest: pred_path<TAB>gt_path per line")
    _add_match_flags(p)
    p.add_argument("--tolerance", type=float, default=4.0,
                   help="localization tolerance in px for precision/recall")
    p.add_argument("--report-out", help="write machine-readable key:value report here")
    p.add_argument("--skip-missing", action="store_true",
                   help="skip unreadable pairs instead of aborting")

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

    p = sub.add_parser("gradcheck", help="finite-difference check of kernel gradients")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--size", type=int, default=9)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)

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
        with open(args.manifest, "rb") as fh:
            lines = fh.read().splitlines()
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{args.manifest}:{lineno}: not UTF-8 text") from None
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
    if args.report_out:   # before stdout, so a failed write prints nothing
        Path(args.report_out).write_text(_format_eval_report(report), encoding="ascii")
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
    np.savetxt(sys.stdout if path_or_stdout is None else path_or_stdout, grid,
               delimiter=",", fmt="%.17g")


def cmd_kernel(args) -> int:
    if args.gradients and not args.out:
        raise ValueError("--gradients needs --out to name the gradient files")
    params = KernelParams(sigma=args.sigma, dx=args.dx, dy=args.dy, sx=args.sx, sy=args.sy)
    kernel = synthesize_kernel(params, args.size, renormalize=args.renormalize)
    _write_grid_csv(args.out, kernel.values)
    if args.gradients:
        grads = kernel_gradients(params, args.size)
        base = Path(args.out)
        for name, grid in grads.as_dict().items():
            _write_grid_csv(base.with_suffix(f".d_{name}.csv"), grid)
    return EXIT_OK


def run_gradcheck(trials: int, size: int, epsilon: float, seed: int = 0):
    """Worst relative finite-difference error over random parameter draws.

    Returns (max_rel_err, description). Relative error is taken per grid
    entry against max(|analytic|, |numeric|, 1e-12) and only entries with
    |K| > 1e-12 are scored. A NaN error is the worst: it is returned, at
    the first place it occurs. ``epsilon`` must be positive and below the
    margin that keeps each sigma and offset draw inside its range, so the
    central differences stay in range too.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    margin = 0.2
    if epsilon >= margin:
        raise ValueError(f"epsilon must be below {margin}, the margin of the parameter "
                         f"draws inside their ranges, got {epsilon}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_desc = "no trials"
    for trial in range(trials):
        params = KernelParams(
            sigma=float(rng.uniform(SIGMA_MIN + margin, SIGMA_MAX - margin)),
            dx=float(rng.uniform(margin - OFFSET_LIMIT, OFFSET_LIMIT - margin)),
            dy=float(rng.uniform(margin - OFFSET_LIMIT, OFFSET_LIMIT - margin)),
            sx=float(np.exp(rng.uniform(-0.7, 0.7))),
            sy=float(np.exp(rng.uniform(-0.7, 0.7))),
        )
        k = synthesize_kernel(params, size).values
        grads = kernel_gradients(params, size).as_dict()
        mask = np.abs(k) > 1e-12
        for name, analytic in grads.items():
            at = getattr(params, name)
            hi = replace(params, **{name: at + epsilon})
            lo = replace(params, **{name: at - epsilon})
            fd = (synthesize_kernel(hi, size).values
                  - synthesize_kernel(lo, size).values) / (2.0 * epsilon)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-12)
            rel = np.abs(analytic - fd) / denom
            err = float(rel[mask].max()) if mask.any() else 0.0
            if err > worst or (math.isnan(err) and not math.isnan(worst)):
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
    # Every output is built, and the density map (which save_binary may
    # reject) written, before the point files: a data error writes nothing.
    # A failed write removes the files written before it, and nothing is
    # announced until every file is written.
    scene = synth.sample_points(cfg)
    point_files = [(scene, args.out, "points")]
    if args.perturb_out:
        pred = synth.perturb_points(scene, drop_rate=args.drop, spurious_rate=args.spurious,
                                    noise_sigma=args.noise, seed=args.seed + 1,
                                    bounds=(args.width, args.height))
        point_files.append((pred, args.perturb_out, "perturbed points"))
    writes = [(path, partial(serialize_coord_file, points, quantize=True))
              for points, path, _ in point_files]
    if args.density_out:
        dmap = densitymap.render_density(scene, sigma=args.render_sigma,
                                         height=args.height, width=args.width)
        save = densitymap.save_csv if args.density_out.endswith(".csv") else densitymap.save_binary
        writes.insert(0, (args.density_out, partial(save, dmap)))
    written = []
    try:
        for path, write in writes:
            write(path)
            written.append(path)
    except BaseException:
        for path in written:
            os.remove(path)
        raise
    for points, path, what in point_files:
        print(f"wrote {len(points)} {what} to {path}")
    if args.density_out:
        print(f"wrote density map to {args.density_out}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Looked up at call time, so a wrapper later set on cli.cmd_<command> runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ValueError, OSError, MemoryError) as exc:   # a refused allocation is a data error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
