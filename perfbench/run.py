"""Seeded, stdlib-only benchmark for bethpal.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload check-docs --seed 1 --seconds 20 --trace 0

One client in one process issues one operation at a time (a closed loop)
for ``--seconds``, repeating the workload's fixed round of operations and
finishing the round it is in.  Between operations it runs calibration units
(``calibrate.py``) and scales every timing to the speed of a reference
host, since the speed of a shared host changes several-fold from one minute
to the next; standard error gets the unscaled figures too.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run (see ``tracer.py``).  Every
output is checked against the oracles in ``checks.py`` after the timed
region.  The program is imported from ``src/`` of the checkout and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 100
MIN_ROUNDS = 4
CALIBRATE_EVERY_S = 0.025
CALIBRATION_WINDOW = 5


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "bethpal" / "__init__.py").is_file():
        print(f"perfbench: no bethpal sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bethpal
    if Path(bethpal.__file__).resolve().parent != src / "bethpal":
        print(f"perfbench: imported bethpal from {bethpal.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def run_rounds(workload, seconds: float, results: list,
               on_op=None) -> tuple[list[float], int, list[str]]:
    """Run whole rounds until ``seconds`` have passed and at least MIN_OPS
    operations completed.  ``on_op`` runs, untimed, before each operation.

    Returns the op latencies (s), the number of operations that raised, and
    a message for each output of a later round that differs from the first
    round's.  The first round's outputs are appended to ``results`` (None for
    an operation that raised) for the oracles to check."""
    key = workload.key or (lambda out: out)
    latencies: list[float] = []
    failed = 0
    mismatches: list[str] = []
    first_round = not results
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        for i, op in enumerate(workload.ops):
            if on_op:
                on_op()
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # an operation that raises is a failed operation
                latencies.append(time.perf_counter() - t0)
                failed += 1
                if first_round:
                    results.append(None)
                print(f"perfbench: op {i} failed: {exc!r}", file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - t0)
            if first_round:
                results.append(out)
            elif results[i] is None or key(out) != key(results[i]):
                mismatches.append(f"op {i}: output differs from the first round's")
        first_round = False
    return latencies, failed, mismatches


@dataclass
class Round:
    setup_s: float
    setup_units: list[float]                            # calibration around the set-up
    latencies: list[float] = field(default_factory=list)
    units: list[float] = field(default_factory=list)    # calibration unit times (s)
    unit_at: list[int] = field(default_factory=list)    # units run before each operation

    def scaled_latencies(self) -> list[float]:
        """Each latency times the host's speed-up over the reference around
        it: the median of the CALIBRATION_WINDOW units before it and as many
        after it."""
        w = CALIBRATION_WINDOW
        scale = [calibrate.REFERENCE_UNIT_S / statistics.median(self.units[max(0, k - w):k + w])
                 for k in range(len(self.units) + 1)]
        return [lat * scale[k] for lat, k in zip(self.latencies, self.unit_at)]

    def scaled_setup_s(self) -> float:
        return self.setup_s * calibrate.REFERENCE_UNIT_S / statistics.median(self.setup_units)


def timed_run(workload, seconds: float, results: list) -> tuple[list[Round], int, list[str]]:
    """Set-up, then one round, repeated until ``seconds`` have passed and at
    least MIN_ROUNDS rounds ran.  Calibration units run just before and
    after each set-up, and before an operation whenever CALIBRATE_EVERY_S
    have passed since the last unit."""
    rounds: list[Round] = []
    failed = 0
    mismatches: list[str] = []
    last = [0.0]

    def calibrate_now() -> None:
        r = rounds[-1]
        if time.perf_counter() - last[0] >= CALIBRATE_EVERY_S:
            r.units += calibrate.unit_times(1)
            last[0] = time.perf_counter()
        r.unit_at.append(len(r.units))

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds) < MIN_ROUNDS:
        before = calibrate.unit_times(CALIBRATION_WINDOW)
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        rounds.append(Round(setup_s, before + calibrate.unit_times(CALIBRATION_WINDOW)))
        last[0] = 0.0
        latencies, f, m = run_rounds(workload, 0, results, on_op=calibrate_now)
        rounds[-1].latencies = latencies
        failed += f
        mismatches += m
    return rounds, failed, mismatches


def end_to_end(rounds: list[Round], scaled: bool = True) -> dict:
    """Each operation's latency is the median of its repetitions, one per
    round, each scaled to the reference host by the calibration units run
    around it; set-up time is the median of its scaled repetitions."""
    if scaled:
        reps = [r.scaled_latencies() for r in rounds]
        setups = [r.scaled_setup_s() for r in rounds]
    else:
        reps = [r.latencies for r in rounds]
        setups = [r.setup_s for r in rounds]
    per_op = [statistics.median(op) for op in zip(*reps)]
    return {
        "ops_per_s": {"value": len(per_op) / sum(per_op), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(per_op, n=10)[8] * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import checks
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    # The benchmark's own inputs would otherwise be traversed by every full
    # collection during an operation, a cost no user of the program pays.
    gc.collect()
    gc.freeze()
    results: list = []
    if args.trace:
        metrics, attempted, failed, mismatches = tracer.traced_run(
            workload, args.seconds, results, run_rounds,
            OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        rounds, failed, mismatches = timed_run(workload, args.seconds, results)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = sum(len(r.latencies) for r in rounds)
        metrics = end_to_end(rounds)
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        raw = end_to_end(rounds, scaled=False)
        print("perfbench: unscaled " + ", ".join(f"{k} {v['value']:.4g}" for k, v in raw.items())
              + f"; {len(rounds)} rounds; calibration unit median "
              + ", ".join(f"{statistics.median(r.units) * 1e3:.3f}" for r in rounds) + " ms",
              file=sys.stderr)
    errors = mismatches + checks.check_round(workload, results)
    for message in errors[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
