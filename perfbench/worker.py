"""One benchmark run of one workload, in one process with no threads.

Started by ``run.py``.  With ``--setup-only`` it imports covrough, builds
and writes the inputs and reports how long that took.  Otherwise it also
runs the workload as a closed loop (one call at a time) for ``--seconds``,
checks every output against the references in ``reference.py``, and
prints one JSON line: the raw samples, or with ``--trace 1`` the per-layer
spans and counts.

Every workload repeats the same cycle: ``verify_laws(n)``, a drained
``census(n)``, ``preimages`` of each target, then ``covrough analyze
--lambda --json``, ``reduce`` and ``cov`` on each covering file.  The
workloads differ in where the size sits; see README.md.  Times are in
reference seconds; see ``Clock``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter, deque

import inputs
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exhaustive-n4", "large-irreducible", "large-reducible")
# Operation -> the end-to-end metric its calls are samples of.
METRIC = {"verify": "verify_cov_per_s", "census": "census_cov_per_s",
          "preimages": "preimages_s", "analyze": "analyze_s",
          "reduce": "reduce_s", "cov": "cov_s"}

# Fixed input of the calibration loop: 3000 small frozensets, over 1 MB,
# more than a core's private caches hold.
CALIBRATION_SETS = [frozenset((i * 7919 + j * 104729) % 997 for j in range(6))
                    for i in range(3000)]
# What one calibration_work() takes on the reference machine (x86-64,
# 2 vCPUs, Python 3.11.7) when nothing else loads it.
REFERENCE_CALIBRATION_S = 0.00185
TICK_S = 0.04  # calibration period inside a timed batch
MIN_CALIBRATIONS = 20  # calibrations behind each batch's scale factor
PARTS = 4  # see Runner.ops


def calibration_work() -> int:
    """Fixed pure-Python work of the kind covrough does: hashing, lookup
    and sorting of small sets spread over more memory than a core's
    private caches hold.  Such memory-bound work slows more than
    register-bound work when another tenant shares the core, as
    covrough's does."""
    index = {s: len(s) for s in CALIBRATION_SETS}
    total = 0
    for s in CALIBRATION_SETS:
        total += index[s] + sorted(s)[0]
    return total


class Clock:
    """Times calls in reference seconds.

    The machine is shared with other tenants, which slow it by tens of
    percent for seconds at a time; CPU time moves as much as wall time.
    So ``calibration_work`` runs right before and right after each batch
    of timed calls, and every ``TICK_S`` during it from a SIGALRM handler,
    in the same thread.  Each call's wall time, less the calibrations
    inside it, is scaled by ``REFERENCE_CALIBRATION_S`` over the mean
    calibration: of the batch's own, topped up with the latest earlier
    ones to ``MIN_CALIBRATIONS`` when the batch is short.  A slow spell
    stretches the calls and the calibrations alike and cancels; a change
    to covrough moves only the calls and shows in full.

    With ``ticks=False`` the calibrations run only around the batch; the
    traced run uses that, so that no calibration lands inside a span.
    """

    def __init__(self, ticks: bool = True) -> None:
        self.ticks = ticks
        self.recent: deque[float] = deque(maxlen=MIN_CALIBRATIONS)
        self.batch: list[float] = []  # calibration seconds, current batch
        self.spent = 0.0  # their sum

    def calibrate(self, *_signal) -> None:
        t0 = time.perf_counter()
        calibration_work()
        seconds = time.perf_counter() - t0
        self.batch.append(seconds)
        self.spent += seconds

    def time(self, run, calls: int) -> tuple[list, list[float], float]:
        """Call ``run()`` ``calls`` times back to back.  Returns the
        results, with the exception in place of a call that raised; each
        call's wall time; and the factor from wall to reference seconds."""
        self.batch, self.spent = [], 0.0
        results, walls = [], []
        self.calibrate()
        if self.ticks:
            previous = signal.signal(signal.SIGALRM, self.calibrate)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            for _ in range(calls):
                spent = self.spent
                t0 = time.perf_counter()
                try:
                    results.append(run())
                except Exception as exc:  # the caller's check reports it
                    results.append(exc)
                walls.append(time.perf_counter() - t0 - (self.spent - spent))
        finally:
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.calibrate()
        short = MIN_CALIBRATIONS - len(self.batch)
        basis = self.batch + (list(self.recent)[-short:] if short > 0 else [])
        self.recent.extend(self.batch)
        return results, walls, REFERENCE_CALIBRATION_S * len(basis) / sum(basis)


def build(workload: str, seed: int, scale: dict, outdir: str) -> dict:
    """Import covrough, generate the workload's inputs and write the
    covering files.  This is what ``setup_s`` times."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import covrough
    import covrough.cli

    if not covrough.__file__.startswith(src + os.sep):
        raise RuntimeError(f"covrough imported from {covrough.__file__}, not {src}")

    rng = inputs.rng_for(workload, seed)
    if workload == "exhaustive-n4":
        n = scale["exhaustive_n"]
        targets = inputs.preimage_targets(rng, n, scale["fixed_targets"])
        # Only these two targets have the same shape for every seed.
        files = [{"name": t["kind"], "n": n, "family": t["family"]}
                 for t in targets if t["kind"] in ("discrete", "chain")]
    else:
        n = scale["probe_n"]
        targets = inputs.probe_targets(rng, n)
        big_n, sizes = scale["elements"], scale["block_sizes"]
        if workload == "large-irreducible":
            family = inputs.irreducible_family(
                rng, big_n, scale["irreducible_blocks"], sizes)
        else:
            family, _ = inputs.planted_family(
                rng, big_n, scale["reducible_base"], scale["planted"], sizes)
        files = [{"name": workload, "n": big_n, "family": family}]
    for f in files:
        f["path"] = os.path.join(outdir, f"{workload}-{f['name']}.json")
        inputs.write_family(f["path"], inputs.universe(f["n"]), f["family"])
    u = covrough.default_universe(n)
    for t in targets:
        t["covering"] = covrough.make_covering(
            u, inputs.family_labels(list(u.names), t["family"]))
    # Calls that take milliseconds repeat within a cycle, so that their
    # medians rest on enough samples.
    repeat = dict.fromkeys(METRIC, scale["repeat"])
    if workload == "exhaustive-n4":
        repeat.update(verify=1, census=1, preimages=1)
    else:
        # A pass over the probe's 30 targets takes about 15 ms.
        repeat.update(analyze=1, reduce=1, preimages=max(1, scale["repeat"] // 4))
    return {"covrough": covrough, "n": n, "targets": targets, "files": files,
            "repeat": repeat}


def file_reference(f: dict) -> dict:
    """Expected answers for one covering file, from reference.py alone."""
    n, family = f["n"], f["family"]
    nbh = reference.neighborhoods(n, family)
    image = reference.cov(n, family)
    red = reference.reducible(n, family)
    fixed = image == tuple(family)
    return {
        "names": inputs.universe(n), "family": set(family), "nbh": nbh,
        "cov": image, "reducible": red, "partition": reference.is_partition(family),
        "fixed": fixed, "cored": all(m in set(family) for m in nbh),
        "lambda": reference.pair_degrees(n, family),
    }


class Check(Exception):
    """An output disagreed with the reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Check(what)


def parse_family(names: list[str], data: dict) -> list[int]:
    expect(data["universe"] == names, "universe changed")
    return reference.bits_of(names, data["blocks"])


class Runner:
    """Runs and checks the operations of one workload cycle."""

    def __init__(self, setup: dict, clock: Clock) -> None:
        self.cr = setup["covrough"]
        self.n = setup["n"]
        self.targets = setup["targets"]
        self.files = setup["files"]
        self.repeat = setup["repeat"]
        self.tally = reference.image_tally(self.n)
        self.summary = reference.SUMMARY[self.n]
        expect(sum(self.tally.values()) == self.summary["total"]
               and len(self.tally) == self.summary["fixed_points"],
               "reference enumeration disagrees with the summary table")
        known = {"discrete": reference.DISCRETE_PREIMAGES[self.n],
                 "chain": 1, "non-fixed": 0}
        for t in self.targets:
            t["expected"] = self.tally[tuple(t["family"])]
            expect(t["expected"] == known.get(t["kind"], max(t["expected"], 1)),
                   f"reference preimage count of the {t['kind']} target")
        for f in self.files:
            f["ref"] = file_reference(f)
        # Metric -> per-call samples in reference seconds, and unscaled.
        self.samples: dict[str, list[float]] = {m: [] for m in METRIC.values()}
        self.raw: dict[str, list[float]] = {m: [] for m in METRIC.values()}
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ops(self):
        """The cycle, as (label, run, check, calls) batches.  ``run`` makes
        one call; ``check`` raises on a wrong result and otherwise returns
        the work it accounts for (coverings or rows; 1 for a timed call).

        The cycle has ``PARTS`` parts.  An operation called once per cycle
        goes into one part, and a repeated one is split evenly over all
        of them, so that the samples of the short calls see the machine at
        several moments of the cycle, between the long calls."""
        each = [("verify", lambda: self.cr.verify_laws(self.n), self.check_verify),
                ("census", self.drain_census, self.check_census),
                ("preimages", self.all_preimages, self.check_preimages)]
        for f in self.files:
            for command in ("analyze", "reduce", "cov"):
                each.append((command, lambda f=f, c=command: self.call_cli(c, f),
                             lambda out, f=f, c=command: self.check_cli(c, f, out)))
        once = [op for op in each if self.repeat[op[0]] == 1]
        for part in range(PARTS):
            for op in once[part::PARTS]:
                yield *op, 1
            for op in each:
                total = self.repeat[op[0]]
                calls = total * (part + 1) // PARTS - total * part // PARTS
                if total > 1 and calls:
                    yield *op, calls

    def _attempt(self, label: str, fn):
        """Run one check; returns what ``fn`` returns, or None when it
        raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def sample(self, label: str, run, check, calls: int) -> float:
        """Time ``calls`` calls of ``run`` back to back, then check
        each result as an operation of its own.  Records one sample per
        call and returns the batch's reference seconds (0 when a check
        failed)."""

        def checked(result):
            if isinstance(result, Exception):
                raise result
            return check(result)

        results, walls, scale = self.clock.time(run, calls)
        work = [self._attempt(label, lambda r=r: checked(r)) for r in results]
        if None in work:
            return 0.0
        metric = METRIC[label]
        for w, wall in zip(work, walls):
            if metric.endswith("_per_s"):
                self.samples[metric].append(w / (wall * scale))
                self.raw[metric].append(w / wall)
            else:
                self.samples[metric].append(wall * scale)
                self.raw[metric].append(wall)
        return sum(walls) * scale

    def check_verify(self, s) -> int:
        got = {"total": s.total_coverings, "partitions": s.partitions,
               "irreducible": s.irreducible, "invariable": s.invariable,
               "fixed_points": s.fixed_points, "violations": len(s.violations)}
        expect(got == self.summary, f"verify_laws summary {got}")
        return s.total_coverings

    def drain_census(self) -> tuple[Counter, Counter]:
        images: Counter = Counter()
        flags: Counter = Counter()
        for row in self.cr.census(self.n):
            images[tuple(b.bits for b in row.cov_image.blocks)] += 1
            flags["partitions"] += row.is_partition
            flags["irreducible"] += row.is_irreducible
            flags["invariable"] += row.is_invariable
            flags["fixed_points"] += row.is_cov_fixed_point
        return images, flags

    def check_census(self, drained: tuple[Counter, Counter]) -> int:
        images, flags = drained
        rows = sum(images.values())
        for key in ("partitions", "irreducible", "invariable", "fixed_points"):
            expect(flags[key] == self.summary[key], f"census {key} {flags[key]}")
        expect(rows == self.summary["total"], f"census rows {rows}")
        expect(images == self.tally, "census images differ from the reference")
        return rows

    def all_preimages(self) -> list:
        """One pass over the whole target set."""
        return [self.cr.preimages(t["covering"]) for t in self.targets]

    def check_preimages(self, found_per_target: list) -> int:
        for t, found in zip(self.targets, found_per_target):
            expect(len(found) == t["expected"],
                   f"{len(found)} preimages of the {t['kind']} target")
            want = tuple(t["family"])
            seen = set()
            for c in found:
                masks = tuple(b.bits for b in c.blocks)
                expect(reference.cov(self.n, masks) == want, "wrong preimage")
                seen.add(masks)
            expect(len(seen) == len(found), "repeated preimage")
        return 1

    def call_cli(self, command: str, f: dict) -> tuple[int, str]:
        argv = [command, f["path"]]
        if command == "analyze":
            argv[1:1] = ["--lambda", "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cr.cli.run(argv)
        return code, out.getvalue()

    def check_cli(self, command: str, f: dict, output: tuple[int, str]) -> int:
        code, text = output
        expect(code == 0, f"exit code {code}")
        ref = f["ref"]
        data = json.loads(text)
        if command == "cov":
            got = parse_family(ref["names"], data)
            expect(tuple(got) == ref["cov"], "cov output")
        elif command == "reduce":
            got = parse_family(ref["names"], data)
            expect(set(got) <= ref["family"], "reduct is not a subfamily")
            expect(len(ref["family"]) - len(got) == len(ref["reducible"]),
                   f"reduct removed {len(ref['family']) - len(got)} blocks")
            expect(not reference.reducible(f["n"], got), "reduct is reducible")
            expect(reference.cov(f["n"], got) == ref["cov"],
                   "reduct changed the neighborhoods")
        else:
            self._check_analysis(ref, data)
        return 1

    @staticmethod
    def _check_analysis(ref: dict, data: dict) -> None:
        names = ref["names"]
        expect(set(parse_family(names, data["covering"])) == ref["family"],
               "analyze covering")
        expect(tuple(parse_family(names, data["cov"])) == ref["cov"], "analyze cov")
        for row, nbh in zip(data["elements"], ref["nbh"]):
            expect(row["neighborhood"] == reference.labels_of(names, nbh),
                   f"neighborhood of {row['element']}")
        reducible = {reference.bits_of(names, [b["block"]])[0]
                     for b in data["blocks"] if b["reducible"]}
        expect(reducible == ref["reducible"], "analyze reducible blocks")
        expect(data["lambda"]["matrix"] == ref["lambda"], "analyze lambda")
        irreducible = not ref["reducible"]
        want = {"partition": ref["partition"], "irreducible": irreducible,
                "invariable": irreducible and ref["cored"],
                "cov_fixed_point": ref["fixed"]}
        expect(data["classification"] == want,
               f"classification {data['classification']}")
        expect(data["cov_equals_covering"] == ref["fixed"], "cov_equals_covering")

    def cycle(self, deadline: float | None) -> float | None:
        """One pass over the ops; returns the summed timed seconds, or
        None when the deadline cut the cycle short."""
        total = 0.0
        for op in self.ops():
            if deadline is not None and time.perf_counter() > deadline:
                return None
            total += self.sample(*op)
        return total


def timed_run(runner: Runner, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    cycles = [runner.cycle(None)]  # the first cycle always completes
    while time.perf_counter() <= deadline:
        cycles.append(runner.cycle(deadline))
    return {"samples": runner.samples, "raw": runner.raw,
            "complete_cycles": sum(c is not None for c in cycles)}


def traced_run(runner: Runner, seconds: float, span_file: str) -> dict:
    """Alternate untraced and traced cycles; per-layer figures come from
    the traced ones, the overhead from comparing the two."""
    import spans

    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() <= deadline:
        plain.append(runner.cycle(None))
        with tracer.installed():
            mark = tracer.mark()
            wall = runner.cycle(None)
        self_s, calls, counts = tracer.since(mark)
        traced.append({"wall": wall, "self_s": self_s, "calls": calls,
                       "counts": counts})
    tracer.write_csv(span_file)
    first = traced[0]
    layer: dict[str, float] = {}
    for module, functions in spans.LAYERS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            layer[f"{name}.calls"] = first["calls"][name]
            layer[f"{name}.self_s"] = statistics.median(
                c["self_s"].get(name, 0.0) for c in traced)
    for name in spans.COUNTERS:
        layer[name] = first["counts"][name]
    tested = first["counts"]["reduction.blocks_tested"]
    layer["reduction.reducible_share"] = (
        first["counts"]["reduction.reducible_blocks"] / tested if tested else 0.0)
    base = statistics.median(plain)
    layer["trace.overhead_s"] = statistics.median(c["wall"] for c in traced) - base
    layer["trace.overhead_share"] = layer["trace.overhead_s"] / base
    repeat = all(c["calls"] == first["calls"] and c["counts"] == first["counts"]
                 for c in traced)
    return {"layer": layer, "traced_cycles": len(traced),
            "untraced_cycles": len(plain), "counts_repeat": repeat,
            "span_file": os.path.relpath(span_file, ROOT),
            "spans": len(tracer.start)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(inputs.SCALES), default="full")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    [setup], [setup_wall], scale = Clock().time(
        lambda: build(args.workload, args.seed, inputs.SCALES[args.scale],
                      args.outdir), 1)
    if isinstance(setup, Exception):
        raise setup
    setup_s = setup_wall * scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0

    runner = Runner(setup, Clock(ticks=not args.trace))
    if args.trace:
        span_file = os.path.join(args.outdir, f"spans-{args.workload}.csv")
        result = traced_run(runner, args.seconds, span_file)
    else:
        result = timed_run(runner, args.seconds)
    result.update(
        setup_s=setup_s,
        setup_wall_s=setup_wall,
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        inputs={
            "preimage_targets": [
                {"kind": t["kind"], "n": runner.n,
                 "blocks": inputs.family_labels(inputs.universe(runner.n), t["family"]),
                 "expected": t["expected"]}
                for t in runner.targets
            ],
            "files": [
                {"name": f["name"], "elements": f["n"], "blocks": len(f["family"]),
                 "reducible": len(f["ref"]["reducible"]),
                 "distinct_neighborhoods": len(f["ref"]["cov"])}
                for f in runner.files
            ],
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
