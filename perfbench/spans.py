"""Spans around the calls into covrough's public functions.

``Tracer.installed()`` wraps each function in ``LAYERS`` and rebinds the
wrapper in every covrough module namespace holding the original, because
``report``, ``oracle``, ``cli`` and ``reduction`` bind their imports by name
(``from .x import y``).  Each call, and each ``next()`` on a generator the
function returns, records a span: name, start, end and the enclosing span.
Spans stay in memory until ``write_csv``; counters record work done at the
same boundaries.

Not visible from outside yet: the internals of ``oracle.verify_laws``
(the law groups of ``_check_covering`` and the ``_mask_families`` walk)
appear as one span; they need counters inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

# Public functions traced, by covrough module.
LAYERS = {
    "oracle": ("verify_laws", "census", "enumerate_coverings", "preimages"),
    "neighborhoods": ("cov", "is_cov_fixed_point", "neighborhood_map"),
    "degrees": ("core_block_assignment", "degree_profile"),
    "reduction": ("is_invariable", "reducibility_report",
                  "is_reducible_element", "reduct"),
    "setsys": ("read_covering", "covering_to_json", "is_partition"),
    "report": ("analyze", "report_to_dict"),
    "cli": ("run",),
}
GENERATORS = {"oracle.census", "oracle.enumerate_coverings"}
COUNTERS = (
    "oracle.enumerate_coverings.yielded",
    "oracle.preimages.found",
    "reduction.blocks_tested",
    "reduction.reducible_blocks",
    "reduction.reduct.removed",
)


def _count_result(counts: Counter, name: str, args: tuple, result) -> None:
    if name == "oracle.preimages":
        counts["oracle.preimages.found"] += len(result)
    elif name == "reduction.is_reducible_element":
        counts["reduction.blocks_tested"] += 1
        counts["reduction.reducible_blocks"] += result is not None
    elif name == "reduction.is_invariable":
        counts["reduction.blocks_tested"] += len(args[0].blocks)
        counts["reduction.reducible_blocks"] += len(result.reducible_blocks)
    elif name == "reduction.reduct":
        counts["reduction.reduct.removed"] += len(args[0].blocks) - len(result.blocks)


class Tracer:
    """Spans and counters of one traced run, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._wrappers: list[tuple] = []

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        calls, counts = self.calls, self.counts

        if name in GENERATORS:
            yielded = name + ".yielded"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    sid = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    counts[yielded] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            _count_result(counts, name, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function to its wrapper, restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "covrough" or key.startswith("covrough.")]
        if not self._wrappers:
            for module_name, functions in LAYERS.items():
                home = sys.modules["covrough." + module_name]
                for fn_name in functions:
                    original = getattr(home, fn_name)
                    name = f"{module_name}.{fn_name}"
                    self._wrappers.append((original, self._wrap(name, original)))
        saved = []
        for original, wrapper in self._wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def mark(self) -> tuple[int, Counter, Counter]:
        return len(self.start), Counter(self.calls), Counter(self.counts)

    def since(self, mark) -> tuple[dict[str, float], Counter, Counter]:
        """Self time per function, calls and counts after ``mark``.

        A span's self time is its duration minus the durations of its
        direct children; spans of one thread never overlap otherwise.
        """
        first, calls0, counts0 = mark
        last = len(self.start)
        child = [0.0] * (last - first)
        for sid in range(first, last):
            p = self.parent[sid]
            if p >= first:
                child[p - first] += self.end[sid] - self.start[sid]
        self_s: dict[str, float] = {}
        for sid in range(first, last):
            name = self.names[self.name_of[sid]]
            dur = self.end[sid] - self.start[sid] - child[sid - first]
            self_s[name] = self_s.get(name, 0.0) + dur
        return self_s, self.calls - calls0, self.counts - counts0

    def write_csv(self, path: str) -> None:
        """All spans: id, parent id (-1 at top level), name, start, end;
        times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name_of[sid]]},"
                    f"{self.start[sid] - t0:.9f},{self.end[sid] - t0:.9f}\n"
                )
