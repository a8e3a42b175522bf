"""Function-level tracing of the photon_transistor layers from outside the
package.

A ``Tracer`` replaces chosen functions by timing wrappers, by rebinding
every module attribute of the package that refers to them (``runner``
imports ``run_experiment`` by name, so patching ``engine`` alone would
miss those calls), and puts the originals back when its ``with`` block
ends.

Two kinds of target:

* ``SPAN``: every call is recorded as a span (id, name, start, end,
  parent span, self time).
* ``AGGREGATE``: calls are summed per enclosing span into one record
  (calls, inclusive time, self time, failures, tally), so per-shot
  functions cost a dictionary update instead of a span each and memory
  stays bounded by the number of sweep points.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  An optional observer turns a call's result into a number
summed into the record's tally, e.g. the scattering events of one source
window.

With ``worker_dir`` set, the tracer also counts process pools and
collects the aggregates of forked pool workers: a worker inherits the
installed wrappers, sums its calls under the span that created its pool
and writes them to ``worker_dir`` when it exits; the parent merges them
at pool shutdown.  Spans themselves are recorded in the parent only.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import multiprocessing.util
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

PACKAGE = "photon_transistor"
SPAN = "span"
AGGREGATE = "aggregate"

# the installed tracer, reached by the fork hook below
_active: "Tracer | None" = None


def _after_fork_in_child() -> None:
    if _active is not None:
        _active._become_worker()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Tracer:
    """Context manager installing timing wrappers on ``targets``.

    ``targets`` holds tuples ``(module, function, kind)`` or
    ``(module, function, kind, observer)``, with ``module`` relative to
    the package.  Names in the results are ``"<module>.<function>"``.
    """

    def __init__(self, targets, worker_dir: str | Path | None = None):
        self.targets = list(targets)
        self.worker_dir = Path(worker_dir) if worker_dir is not None else None
        self.spans: list[dict] = []
        # (span id, name) -> [calls, total_s, self_s, failures, tally]
        self.aggregates: dict[tuple, list] = {}
        self.worker_aggregates: dict[tuple, list] = {}
        self.pools_created = 0
        self.worker_pids: set[int] = set()
        self._patches: list[tuple] = []
        # frames of the calls in progress: [child time, id of the span in charge]
        self._stack: list[list] = [[0.0, None]]
        self._origin = 0.0
        self._worker_pending = False

    # -- install / restore ----------------------------------------------

    def __enter__(self) -> "Tracer":
        global _active
        if _active is not None:
            raise RuntimeError("another Tracer is already installed")
        replacements = {}
        for target in self.targets:
            module, func, kind = target[:3]
            observer = target[3] if len(target) > 3 else None
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
            replacements[id(original)] = (original, self._wrap(
                original, f"{module}.{func}", kind, observer))
        if self.worker_dir is not None:
            self.worker_dir.mkdir(parents=True, exist_ok=True)
            replacements[id(ProcessPoolExecutor)] = (
                ProcessPoolExecutor, self._counting_pool())
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._origin = time.perf_counter()
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = None
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str, observer):
        tracer = self
        perf_counter = time.perf_counter

        if kind == SPAN:
            @functools.wraps(fn)
            def span_wrapper(*args, **kwargs):
                parent = tracer._stack[-1]
                span = {"id": len(tracer.spans), "name": name, "parent": parent[1],
                        "start": perf_counter() - tracer._origin, "failed": True,
                        "tally": 0}
                tracer.spans.append(span)
                frame = [0.0, span["id"]]
                tracer._stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - t0
                    tracer._stack.pop()
                    parent[0] += duration
                    span["end"] = span["start"] + duration
                    span["self_s"] = duration - frame[0]
                span["failed"] = False
                if observer:
                    span["tally"] = observer(result)
                return result
            return span_wrapper

        if kind != AGGREGATE:
            raise ValueError(f"unknown target kind {kind!r}")

        @functools.wraps(fn)
        def aggregate_wrapper(*args, **kwargs):
            if tracer._worker_pending:
                tracer._start_worker()
            parent = tracer._stack[-1]
            frame = [0.0, parent[1]]
            tracer._stack.append(frame)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                duration = perf_counter() - t0
                tracer._stack.pop()
                parent[0] += duration
                key = (parent[1], name)
                record = tracer.aggregates.get(key)
                if record is None:
                    record = tracer.aggregates[key] = [0, 0.0, 0.0, 0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                record[3] += failed
            if observer:
                record[4] += observer(result)
            return result
        return aggregate_wrapper

    # -- pools and forked workers ------------------------------------------

    def _counting_pool(self):
        tracer = self

        class CountingProcessPoolExecutor(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.pools_created += 1

            def shutdown(self, wait=True, *, cancel_futures=False):
                pids = {p.pid for p in multiprocessing.active_children()}
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
                tracer.worker_pids |= pids
                tracer._collect_workers(pids)

        return CountingProcessPoolExecutor

    def _become_worker(self) -> None:
        """Runs in a forked child: start from empty records, summed under
        the span that was open in the parent at the fork."""
        self._stack = [[0.0, self._stack[-1][1]]]
        self.spans, self.aggregates = [], {}
        self._worker_pending = self.worker_dir is not None

    def _start_worker(self) -> None:
        # registered at the first call, after multiprocessing has reset the
        # child's finalizers, so that it runs when the worker exits
        self._worker_pending = False
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=0)

    def _dump_worker(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([[*key, *record]
                                   for key, record in self.aggregates.items()]))
        os.replace(tmp, path)

    def _collect_workers(self, pids) -> None:
        for pid in pids:
            path = self.worker_dir / f"worker-{pid}.json"
            if not path.exists():
                continue
            for span_id, name, *values in json.loads(path.read_text()):
                record = self.worker_aggregates.setdefault((span_id, name), [0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(values):
                    record[i] += v
            path.unlink()

    # -- queries ------------------------------------------------------------

    def _records(self, name: str):
        for table in (self.aggregates, self.worker_aggregates):
            for (_, n), record in table.items():
                if n == name:
                    yield record

    def calls(self, name: str) -> int:
        return (sum(1 for s in self.spans if s["name"] == name)
                + sum(r[0] for r in self._records(name)))

    def total_s(self, name: str) -> float:
        """Inclusive time of ``name``, summed over parent and workers."""
        return (sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)
                + sum(r[1] for r in self._records(name)))

    def self_s(self, name: str) -> float:
        return (sum(s["self_s"] for s in self.spans if s["name"] == name)
                + sum(r[2] for r in self._records(name)))

    def failures(self, name: str) -> int:
        return (sum(1 for s in self.spans if s["name"] == name and s["failed"])
                + sum(r[3] for r in self._records(name)))

    def tally(self, name: str) -> float:
        return (sum(s["tally"] for s in self.spans if s["name"] == name)
                + sum(r[4] for r in self._records(name)))

    def layer_self_s(self, layer: str) -> float:
        """Self time of every wrapped function of module ``layer`` in the
        parent process.  Worker time runs in parallel with the parent's
        wait for it, so it is left out here and counted by ``total_s``."""
        prefix = layer + "."
        return (sum(s["self_s"] for s in self.spans if s["name"].startswith(prefix))
                + sum(r[2] for (_, n), r in self.aggregates.items()
                      if n.startswith(prefix)))

    def dump(self) -> dict:
        """Spans and aggregates as plain JSON data."""
        def rows(table):
            return [{"span": s, "name": n, "calls": r[0], "total_s": r[1],
                     "self_s": r[2], "failures": r[3], "tally": r[4]}
                    for (s, n), r in table.items()]
        return {"spans": self.spans, "aggregates": rows(self.aggregates),
                "worker_aggregates": rows(self.worker_aggregates),
                "pools_created": self.pools_created,
                "worker_processes": len(self.worker_pids)}
