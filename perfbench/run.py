"""covrough benchmark: one run of one workload.

    python3 perfbench/run.py --workload exhaustive-n4 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (covrough is imported from
``src/``).  With ``--trace 0`` it runs the workload for ``--seconds`` in
one worker process, times ``SETUP_RUNS`` set-ups in fresh processes
around it, and reports the end-to-end metrics.  With ``--trace 1`` the worker
alternates untraced and traced cycles and reports the per-layer metrics.

Prints a detail line (provenance, input statistics, sample counts and
tail percentiles), then, as its last line, the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 1 without a result when a worker fails, for instance because
``src/covrough`` is missing.  Work files go to ``.perfbench-out/<scale>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("exhaustive-n4", "large-irreducible", "large-reducible")
SETUP_RUNS = 6  # half before the main worker, half after it
DEADLINE_S = 170  # a run must finish within 180 s

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "verify_cov_per_s": "1/s",
    "census_cov_per_s": "1/s",
    "preimages_s": "s",
    "analyze_s": "s",
    "reduce_s": "s",
    "cov_s": "s",
    "peak_rss_mib": "MiB",
}


def layer_units() -> dict[str, str]:
    units = {}
    for module, functions in spans.LAYERS.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
    units.update({name: "count" for name in spans.COUNTERS})
    units["reduction.reducible_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


def tail(values: list[float], higher_is_better: bool) -> dict:
    """Median, and the highest percentile with at least ten samples
    beyond it on the slow side (none below eleven samples), with the
    sample count."""
    ordered = sorted(values, reverse=higher_is_better)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if n else None,
           "tail_percentile": None, "tail_value": None}
    if n > 10:
        out["tail_percentile"] = round(100 * (n - 10) / n, 1)
        out["tail_value"] = ordered[n - 11]
    return out


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, if it has one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def worker(args: argparse.Namespace, *extra: str, timeout: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--outdir", os.path.join(OUTDIR, args.scale),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the smoke test")
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")

    start = time.perf_counter()
    os.makedirs(os.path.join(OUTDIR, args.scale), exist_ok=True)

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    def set_up(times: int) -> list[dict]:
        return [worker(args, "--setup-only", timeout=left())
                for _ in range(times)]

    try:
        setups = []
        if not args.trace:
            set_up(1)  # compiles the bytecode; not counted
            setups += set_up(SETUP_RUNS // 2)
        run = worker(args, timeout=left())
        if not args.trace:
            setups += set_up(SETUP_RUNS - SETUP_RUNS // 2)
        setups.append(run)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for error in run["errors"]:
        print(f"failed: {error}", file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "inputs": run["inputs"],
        "error_rate": run["failed"] / run["attempted"],
    }
    if args.trace:
        units = layer_units()
        values = run["layer"]
        detail.update({k: run[k] for k in ("traced_cycles", "untraced_cycles",
                                           "counts_repeat", "span_file", "spans")})
    else:
        units = END_TO_END
        samples = dict(run["samples"], setup_s=[s["setup_s"] for s in setups])
        raw = dict(run["raw"], setup_s=[s["setup_wall_s"] for s in setups])
        empty = [name for name, s in samples.items() if not s]
        if empty:
            print(f"benchmark failed: no samples for {empty}", file=sys.stderr)
            return 1
        values = {name: statistics.median(s) for name, s in samples.items()}
        values["peak_rss_mib"] = run["peak_rss_mib"]
        detail["complete_cycles"] = run["complete_cycles"]
        detail["samples"] = {name: tail(s, name.endswith("_per_s"))
                             for name, s in samples.items()}
        detail["wall_median"] = {name: statistics.median(s)
                                 for name, s in raw.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
