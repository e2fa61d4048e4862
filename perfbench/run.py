"""eikstab benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload trace_sharpness --seed 1 \
        --seconds 50 --trace 0

One closed-loop client: each CLI command starts when the previous one has
returned. Every child process runs with BLAS/OpenMP threads pinned to 1 and
`--workers 1`, and writes its reports to a temporary directory under
`.perfbench_out/`, which is removed at the end.

With `--trace 0` the run
  1. imports eikstab once in a throw-away process (compiled bytecode, file
     cache);
  2. repeats the workload through `eikstab.cli.run` in one fresh process as
     often as fits in `--seconds` (at least twice), and reports the median
     repetition (`run_s`) and that process's peak resident memory
     (`peak_rss_mb`);
  3. measures set-up in three fresh processes, two before step 2 and one
     after it, and reports the median (`setup_s`): the import plus, for each
     command, the curve parse, the inscribed disk and the field.

With `--trace 1` there is no step 3, and step 2 alternates untraced and
traced repetitions. The traced ones give the per-layer metrics (medians
over traced repetitions), the untraced ones the commands' throughputs
(`cli.*_per_s`), and `trace.overhead_s` is the traced minus the untraced
median. The spans of the run are written to
`.perfbench_out/spans_<workload>_<size>.jsonl`.

Every report is checked: exit code 0, `passed: true`, the workload's pinned
results, and the same bytes as the first run of that command (ignoring
`timing_s`). A failing command counts in `failed`. The last line of
standard output is the result object; the line before it records the
machine and the raw samples.

`--smoke` runs the toy sizes of the benchmark's own test; `--corrupt-pin`
moves one pinned range off its value, so the run must report a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0
SETUP_REPEATS = 3
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_call", "_ratio")):
        return "ratio"
    return "count"


class Run:
    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.n = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        EIKSTAB_OUTDIR=str(tmp), **PINNED_THREADS)

    def child(self, mode: str, *extra: str) -> dict:
        self.n += 1
        result = self.tmp / f"{mode}-{self.n}.json"
        argv = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
                "--workload", self.args.workload,
                "--seed", str(self.args.seed),
                "--size", self.args.size,
                "--outdir", str(self.tmp), "--result", str(result), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for the {mode} step")
        try:
            proc = subprocess.run(argv, env=self.env, cwd=str(ROOT),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"the {mode} step ran past the deadline")
        if proc.returncode != 0:
            raise BenchError(f"the {mode} step exited with "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(result) as fh:
            return json.load(fh)


def measure(args, tmp: Path) -> dict:
    run = Run(args, tmp)
    run.child("warmup")
    extra = ["--seconds", str(args.seconds)]
    if args.corrupt_pin:
        extra.append("--corrupt-pin")
    if args.trace:
        spans = OUT / f"spans_{args.workload}_{args.size}.jsonl"
        timed = run.child("traced", *extra, "--spans", str(spans))
        metrics = {k: (v, layer_unit(k)) for k, v in timed["layers"].items()}
        setups = []
    else:
        # set-up samples before and after the repetitions, so that their
        # median spans the run rather than one moment of the machine's load
        setups = [run.child("setup")["setup_s"]
                  for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        timed = run.child("timed", *extra)
        setups += [run.child("setup")["setup_s"]
                   for _ in range(SETUP_REPEATS // 2)]
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "run_s": (statistics.median(timed["walls"]), "s"),
                   "peak_rss_mb": (timed["peak_rss_mb"], "MB")}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size,
              "rates": timed["rates"],
              "machine": timed["machine"], "setup_samples": setups,
              "walls": timed["walls"],
              "traced_walls": timed.get("traced_walls", []),
              "n_spans": timed.get("n_spans", 0),
              "failures": timed["failures"]}
    result = {"correct": timed["failed"] == 0 and timed["attempted"] > 0,
              "attempted": timed["attempted"], "failed": timed["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return {"detail": detail, "result": result}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-pin", action="store_true")
    args = ap.parse_args()
    args.size = "smoke" if args.smoke else "full"
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "eikstab" / "__init__.py").is_file():
        print(f"error: no eikstab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        out = measure(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    name = (f"result_{args.workload}_{args.size}_seed{args.seed}"
            f"_trace{args.trace}.json")
    with open(OUT / name, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
