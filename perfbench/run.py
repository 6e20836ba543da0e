"""countmatch benchmark: one workload per process, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_eval --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets the workload up several times (input generation, file
writing and a warm-up call; ``setup_s`` is the median), then repeats
passes over the fixed inputs for ``--seconds``. Each pass runs every
case once, back to back. A case's time is the median of its
repetitions in the run, which damps the phases of seconds in which the
cores of a small shared machine run up to 40 % slower or faster.
``pass_s`` is the sum of the case times (the median pass) and
``case_p50_ms`` / ``case_p90_ms`` are their quantiles over the distinct
cases.

With ``--trace 1`` the run first measures untraced passes for half the
time, then installs the span tracer and measures traced passes for the
other half; it prints the per-layer metrics and the tracing overhead.
End-to-end metrics come only from ``--trace 0`` runs.

Outputs are checked outside the timed region (see ``gate.py``), and a
case fails if it raises, fails the gate, or gives different output on a
repetition. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``info ...``) holds machine facts, input facts, output digests and
the output figures (f1, count_mae, failed_ratio).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from tracer import COMPUTED_COUNTS, LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("case_p50_ms", "ms"),
              ("case_p90_ms", "ms"), ("peak_rss_mb", "MB"))
MODULES = ("synth", "cli", "geometry", "matching", "assignment", "metrics",
           "densitymap", "dynconv", "kernels")
EXIT_MISSING = 2


def import_countmatch(root: Path) -> types.SimpleNamespace:
    """Import the package from ``<root>/src``, never from elsewhere."""
    src = root / "src"
    if not (src / "countmatch" / "__init__.py").is_file():
        raise FileNotFoundError(f"no countmatch sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"countmatch.{name}") for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != (src / "countmatch").resolve():
        raise ImportError(f"countmatch was imported from {mods['cli'].__file__}, not {src}")
    return types.SimpleNamespace(**mods)


@dataclass
class Measurement:
    """Timings and outputs of the passes of one measuring phase."""

    times: list = field(default_factory=list)      # per case: seconds of each repetition
    outputs: list = field(default_factory=list)    # per case: output of the first repetition
    digests: list = field(default_factory=list)    # per case: digest of that output
    failed: set = field(default_factory=set)       # (case, repetition) that failed
    errors: list = field(default_factory=list)
    pass_times: list = field(default_factory=list)
    pass_layers: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times)

    def case_times(self) -> list:
        return [statistics.median(t) for t in self.times]

    def pass_s(self) -> float:
        return sum(self.case_times())


def measure(wl, cases, seconds: float, after_pass=None) -> Measurement:
    """Closed loop: passes over ``cases`` until the next would overrun.

    ``after_pass`` (untimed) returns the per-layer metrics of the pass just run.
    """
    clock = time.perf_counter
    m = Measurement(times=[[] for _ in cases], outputs=[None] * len(cases),
                    digests=[None] * len(cases))
    start = clock()
    while True:
        pass_start = clock()
        for i, case in enumerate(cases):
            rep = len(m.times[i])
            t0 = clock()
            try:
                out = wl.run(case)
            except Exception as exc:  # a failing case is counted, the run goes on
                m.times[i].append(clock() - t0)
                m.failed.add((i, rep))
                m.errors.append(f"{case.label}: {type(exc).__name__}: {exc}")
                continue
            m.times[i].append(clock() - t0)
            d = workloads.digest([wl.fingerprint(case, out)])
            if m.digests[i] is None:
                m.outputs[i], m.digests[i] = out, d
            elif d != m.digests[i]:
                m.failed.add((i, rep))
                m.errors.append(f"{case.label}: output changed on repetition {rep}")
        m.pass_times.append(clock() - pass_start)
        if after_pass is not None:
            m.pass_layers.append(after_pass())
        if clock() - start + statistics.median(m.pass_times) > seconds:
            return m


def quantile(values: list, q: int) -> float:
    """The q-th percentile of the values (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__}


def run_workload(args) -> int:
    try:
        cm = import_countmatch(ROOT)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    wl = workloads.WORKLOADS[args.workload](cm, smoke=args.smoke)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    # Target count at which radii switch to the grid index, for
    # geometry.grid_share; a later version may drop the constant.
    grid_threshold = getattr(cm.geometry, "GRID_BACKEND_THRESHOLD", 256)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cases, warm = wl.setup(args.seed, workdir)
            wl.run(warm)
            setup_times.append(time.perf_counter() - t0)

        budget = args.seconds / 2 if args.trace else args.seconds
        plain = measure(wl, cases, budget)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = [plain]
        layers = {}
        if args.trace:
            tracer = Tracer({name: getattr(cm, name) for name in MODULES})
            with tracer:
                wl.setup(args.seed, workdir)
                setup_layers = layer_metrics(tracer.take(), grid_threshold)
                traced = measure(wl, cases, budget,
                                 lambda: layer_metrics(tracer.take(), grid_threshold))
            phases.append(traced)
            layers = per_layer(traced, setup_layers, plain)
            if traced.digests != plain.digests:
                traced.failed.update((i, r) for i, t in enumerate(traced.times)
                                     for r in range(len(t)))
                traced.errors.append("traced outputs differ from untraced outputs")

        complete = None not in plain.outputs  # else some case never succeeded
        gate_errors = wl.check(cases, plain.outputs) if complete else {}
        for phase in phases:
            for i in gate_errors:
                phase.failed.update((i, r) for r in range(len(phase.times[i])))
        attempted = sum(p.attempted for p in phases)
        failed = sum(len(p.failed) for p in phases)
        errors = [f"{cases[i].label}: {e}" for i, e in gate_errors.items()]
        errors += [e for p in phases for e in p.errors]

        if args.trace:
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit, _ in LAYER_METRICS}
        else:
            case_ms = [t * 1000.0 for t in plain.case_times()]
            values = {"setup_s": statistics.median(setup_times), "pass_s": plain.pass_s(),
                      "case_p50_ms": quantile(case_ms, 50), "case_p90_ms": quantile(case_ms, 90),
                      "peak_rss_mb": rss_mb}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

        figures = wl.quality(cases, plain.outputs) if complete else {}
        info = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "machine": machine_facts(),
            "inputs": wl.describe(cases, plain.outputs) if complete else {},
            "cases": len(cases), "passes": [len(p.pass_times) for p in phases],
            # Wall time of each whole pass, digest work included, per phase.
            "pass_times_s": [p.pass_times for p in phases],
            "setup_runs_s": setup_times,
            "digest": workloads.digest(d.encode() for d in plain.digests if d),
            "figures": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
            "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
            "computed_counts": {k: layers[k] for k in COMPUTED_COUNTS} if layers else {},
            "errors": errors[:20],
        }
        print("info " + json.dumps(info, sort_keys=True))
        print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def per_layer(traced: Measurement, setup_layers: dict, plain: Measurement) -> dict:
    """Per-layer metrics of the traced passes; counts must repeat exactly."""
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name.startswith("trace."):
            continue
        if name.startswith("synth."):
            out[name] = setup_layers[name]
            continue
        values = [p[name] for p in traced.pass_layers]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if name in COMPUTED_COUNTS and any(v != values[0] for v in values):
                traced.errors.append(f"computed count {name} differs between passes: {values}")
                traced.failed.update((i, r) for i, t in enumerate(traced.times)
                                     for r in range(len(t)))
    out["trace.pass_s"] = traced.pass_s()
    out["trace.overhead_s"] = traced.pass_s() - plain.pass_s()
    return out


def run_all(args) -> int:
    """Run every workload, each in its own process, and print a table."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        info = json.loads(lines[-2][len("info "):])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        shown = dict(result["metrics"], **info["figures"], failed_ratio=info["failed_ratio"])
        for metric, v in shown.items():
            print(f"{name:<15} {metric:<26} {v['value']:<22.6g} {v['unit']}")
            if metric in result["metrics"]:
                merged[f"{name}.{metric}"] = v
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of the run (halved per phase with --trace 1)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
