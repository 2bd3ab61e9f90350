"""Traced run: per-layer calls, self time and work counts.

Layers are the modules of ``bethpal``.  The traced run wraps the public
functions listed in ``LAYERS`` (and ``lab._semantic_reps`` as ``lab.dedup``)
in every ``bethpal`` module namespace where the function object is bound, so
calls through names imported with ``from ... import`` are seen too.

Each outermost call of a wrapped function opens a span; a call made while
the same function is already running (recursion, or an announcement nested
inside an announcement) counts as a call but opens no span.  A span's self
time is its duration minus the durations of the spans it directly
contains.  Spans are kept in memory, up to ``MAX_SPANS``, and written to one
JSON file when the run ends; the per-layer totals cover every span, kept or
not.  Metrics are per operation of the traced phase.

After one untraced warm-up round the run alternates traced and untraced
rounds; ``trace.overhead_pct`` compares their mean operation times.  Like
the end-to-end timings, self times and operation times are scaled to the
reference host (``calibrate.py``), here by the calibration units run just
before and just after each round.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from bethpal import beth, dynamic, formula, lab, modeldoc

import calibrate

MAX_SPANS = 100_000
CALIBRATION_UNITS = 5           # run before and after each round

# (module, attribute, layer metric prefix)
LAYERS = [
    (formula, "parse_formula", "formula.parse_formula"),
    (formula, "print_formula", "formula.print_formula"),
    (formula, "substitute", "formula.substitute"),
    (modeldoc, "parse_model_document", "modeldoc.parse_model_document"),
    (modeldoc, "serialize_model", "modeldoc.serialize_model"),
    (beth, "validate_beth", "beth.validate_beth"),
    (beth, "maximal_paths", "beth.maximal_paths"),
    (beth, "is_bar", "beth.is_bar"),
    (beth, "forces_prop", "beth.forces_prop"),
    (dynamic, "satisfies", "dynamic.satisfies"),
    (dynamic, "forces", "dynamic.forces"),
    (dynamic, "announce", "dynamic.announce"),
    (dynamic, "restrict_world", "dynamic.restrict_world"),
    (dynamic, "render_trace", "dynamic.render_trace"),
    (lab, "random_model", "lab.random_model"),
    (lab, "propositional_pool", "lab.propositional_pool"),
    (lab, "_semantic_reps", "lab.dedup"),
    (lab, "test_validity", "lab.test_validity"),
]

COUNTS = ["beth.maximal_paths.paths", "dynamic.announce.models_built",
          "lab.dedup.pool", "lab.dedup.reps", "lab.test_validity.instances"]


def _count_paths(tr: "Tracer", args, result) -> None:
    tr.counts["beth.maximal_paths.paths"] += len(result)


def _count_announce(tr: "Tracer", args, result) -> None:
    tr.op_models.setdefault(id(result), result)


def _count_dedup(tr: "Tracer", args, result) -> None:
    tr.counts["lab.dedup.pool"] += len(args[1])
    tr.counts["lab.dedup.reps"] += len(result)


def _count_instance(tr: "Tracer", args, result) -> None:
    if tr.depth["lab.test_validity"]:
        tr.counts["lab.test_validity.instances"] += 1


HOOKS = {"beth.maximal_paths": _count_paths, "dynamic.announce": _count_announce,
         "lab.dedup": _count_dedup, "formula.substitute": _count_instance}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.scaled_self_ns: Counter = Counter()   # self_ns at the reference host's speed
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()
        self.stack: list[list] = []          # open spans: [span id, start ns, child ns]
        self.spans: list[tuple] = []         # (op, span id, parent id, name, start ns, end ns)
        self.dropped = 0
        self.next_id = 0
        self.ops = 0
        self.op_models: dict[int, object] = {}   # announcement results of the current op
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        tr = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.calls[name] += 1
            if tr.depth[name]:
                result = fn(*args, **kwargs)
            else:
                tr.depth[name] += 1
                frame = [tr.next_id, time.perf_counter_ns(), 0]
                tr.next_id += 1
                tr.stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    tr.stack.pop()
                    tr.depth[name] -= 1
                    duration = end - frame[1]
                    tr.self_ns[name] += duration - frame[2]
                    parent = tr.stack[-1] if tr.stack else None
                    if parent is not None:
                        parent[2] += duration
                    if len(tr.spans) < MAX_SPANS:
                        tr.spans.append((tr.ops, frame[0], parent[0] if parent else None,
                                         name, frame[1], end))
                    else:
                        tr.dropped += 1
            if hook:
                hook(tr, args, result)
            return result
        return wrapper

    def install(self) -> list[str]:
        """Wrap every layer function; returns the names of missing ones."""
        missing = []
        modules = [m for n, m in sys.modules.items()
                   if n == "bethpal" or n.startswith("bethpal.")]
        for module, attr, name in LAYERS:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            wrapper = self.wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, fn))
        return missing

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._restore):
            setattr(m, key, fn)
        self._restore.clear()

    def next_op(self) -> None:
        self.end_op()
        self.ops += 1

    def end_op(self) -> None:
        self.counts["dynamic.announce.models_built"] += len(self.op_models)
        self.op_models.clear()

    def metrics(self) -> dict:
        ops = max(self.ops, 1)
        out = {}
        for _, _, name in LAYERS:
            out[f"{name}.calls"] = {"value": self.calls[name] / ops, "unit": "count"}
            out[f"{name}.self_ms"] = {"value": self.scaled_self_ns[name] / 1e6 / ops,
                                      "unit": "ms"}
        for name in COUNTS:
            out[name] = {"value": self.counts[name] / ops, "unit": "count"}
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, ops=self.ops, spans_kept=len(self.spans),
                       spans_dropped=self.dropped,
                       fields=["op", "span", "parent", "name", "start_ns", "end_ns"],
                       spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _host_scale() -> float:
    """The host's speed-up over the reference host, from a few calibration
    units."""
    times = calibrate.unit_times(CALIBRATION_UNITS)
    return calibrate.REFERENCE_UNIT_S / statistics.median(times)


def traced_run(workload, seconds: float, results: list, run_rounds, spans_path: Path):
    """One untraced warm-up round, then traced and untraced rounds in turn
    until ``seconds`` have passed.  Returns (per-layer metrics, attempted,
    failed, mismatch messages)."""
    start = time.perf_counter()
    warmup, failed, mismatches = run_rounds(workload, 0, results)
    attempted = len(warmup)
    tr = Tracer()
    phases: dict[bool, list[float]] = {False: [], True: []}
    while time.perf_counter() - start < seconds or not phases[True]:
        for traced in (True, False):
            if traced:
                for name in tr.install():
                    if not phases[True]:
                        print(f"perfbench: {name} not found; its layer metrics read 0",
                              file=sys.stderr)
            self_ns = Counter(tr.self_ns)
            before = _host_scale()
            try:
                latencies, f, m = run_rounds(workload, 0, results,
                                             on_op=tr.next_op if traced else None)
            finally:
                tr.uninstall()
            scale = (before + _host_scale()) / 2
            for name, ns in (tr.self_ns - self_ns).items():
                tr.scaled_self_ns[name] += ns * scale
            phases[traced] += [lat * scale for lat in latencies]
            attempted += len(latencies)
            failed += f
            mismatches += m
    tr.end_op()
    metrics = tr.metrics()
    overhead = statistics.mean(phases[True]) / statistics.mean(phases[False]) - 1
    metrics["trace.overhead_pct"] = {"value": overhead * 100, "unit": "%"}
    tr.write(spans_path, {"workload": workload.name})
    return metrics, attempted, failed, mismatches
