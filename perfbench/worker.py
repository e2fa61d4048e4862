"""One child process of the benchmark. `run.py` starts it with BLAS and
OpenMP threads pinned to 1, so every mode sees a fresh interpreter.

Modes:
  warmup  import eikstab once, so later imports read compiled bytecode
  setup   time the import and each command's curve, inscribed disk and field
  timed   run the workload's commands through eikstab.cli.run, repeatedly,
          within the given seconds, checking every report
  traced  as timed, but every second repetition runs with layer spans on

The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Optional

from workloads import RATES, WORKLOADS, Pin

ROOT = Path(__file__).resolve().parent.parent


def _import_cli():
    import eikstab.cli as cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"eikstab was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def _machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _run_command(cli, cmd, out: str, reference: Optional[str]):
    """Run one command through the CLI; return its wall time, its report
    (None when unreadable) and what is wrong with it."""
    t0 = time.perf_counter()
    try:
        rc = cli.run(list(cmd.argv) + ["--out", out])
        problems = [] if rc == 0 else [f"exit code {rc}"]
    except Exception as exc:  # a crash is a failed operation
        problems = [f"raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    try:
        with open(out) as fh:
            report = json.load(fh)
        os.remove(out)
    except (OSError, ValueError) as exc:
        return wall, None, problems + [f"no readable report: {exc}"]
    if report.get("passed") is not True:
        problems.append("report says passed: false")
    problems += [p for p in (pin.check(report.get("results", {}))
                             for pin in cmd.pins) if p]
    if reference is not None and _canonical(report) != reference:
        problems.append("report differs from the first run with the same seed")
    return wall, report, problems


def _canonical(report: dict) -> str:
    report = dict(report)
    report.pop("timing_s", None)
    return json.dumps(report, sort_keys=True)


def setup(args, workload) -> dict:
    t0 = time.perf_counter()
    cli = _import_cli()
    from eikstab.geometry import max_inscribed_disk

    for cmd in workload.commands(args.size, args.seed):
        if cmd.setup_curve is not None:
            curve = cli.parse_curve_spec(cmd.setup_curve)
            max_inscribed_disk(curve)
            cli.build_field(curve, None)
    return {"setup_s": time.perf_counter() - t0}


def run_reps(args, workload) -> dict:
    """Repeat the workload within --seconds (at least twice) and check each
    command's report against its pins and its first run."""
    cli = _import_cli()
    commands = workload.commands(args.size, args.seed)
    if args.corrupt_pin:
        pin = commands[0].pins[0]
        bad = Pin(pin.key, pin.hi + 1.0, pin.hi + 2.0)
        commands[0] = dataclasses.replace(
            commands[0], pins=(bad,) + commands[0].pins[1:])
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, layer_metrics
        tracer = Tracer()

    reference = {}
    attempted = failed = 0
    failures = []
    walls, traced_walls, layers = [], [], []
    rates = defaultdict(list)  # command throughput per untraced repetition
    start = time.perf_counter()
    rep = 0
    while True:
        traced = tracer is not None and rep % 2 == 1
        if traced:
            tracer.run_id = f"{workload.name}-{args.seed}-rep{rep}"
            tracer.install()
        wall = 0.0
        work = defaultdict(lambda: [0.0, 0.0])  # rate name -> [units, seconds]
        try:
            for j, cmd in enumerate(commands):
                out = os.path.join(args.outdir, f"rep{rep}_cmd{j}.json")
                seconds, report, problems = _run_command(
                    cli, cmd, out, reference.get(j))
                wall += seconds
                attempted += 1
                if report is not None:
                    reference.setdefault(j, _canonical(report))
                    if cmd.rate is not None and not problems:
                        name, units = cmd.rate
                        work[name][0] += units(report)
                        work[name][1] += seconds
                if problems:
                    failed += 1
                    failures.append({"rep": rep, "argv": list(cmd.argv),
                                     "problems": problems})
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, tracer.run_id))
        else:
            walls.append(wall)
            for name, (units, seconds) in work.items():
                rates[name].append(units / seconds)
        rep += 1
        # stop before a repetition that would likely end past the window
        elapsed = time.perf_counter() - start
        if rep >= 2 and elapsed * (rep + 1) / rep > args.seconds:
            break

    result = {"attempted": attempted, "failed": failed,
              "failures": failures[:20], "walls": walls,
              "rates": {k: statistics.median(v) for k, v in rates.items()},
              "machine": _machine(),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        for name in RATES:
            metrics[name] = result["rates"].get(name, 0.0)
        result.update(traced_walls=traced_walls, layers=metrics,
                      n_spans=len(tracer.spans))
        tracer.dump(args.spans)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=("warmup", "setup", "timed", "traced"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--corrupt-pin", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "warmup":
        _import_cli()
        result = {}
    elif args.mode == "setup":
        result = setup(args, workload)
    else:
        result = run_reps(args, workload)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
