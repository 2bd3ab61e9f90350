"""The timing arithmetic of ``run.py``: calibration scaling and per-operation
medians.  Run with ``python3 -m pytest perfbench/test_run.py``."""
from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import run  # noqa: E402

REF = calibrate.REFERENCE_UNIT_S


def test_calibration_unit_is_fixed_work():
    assert calibrate.unit() == calibrate.unit() > 0


def test_timings_scale_by_the_calibration_around_them():
    # The host runs at half the reference speed for the first 20 units and
    # at the reference speed after them.
    r = run.Round(0.3, [2 * REF] * 10, latencies=[0.01] * 4,
                  units=[2 * REF] * 20 + [REF] * 20, unit_at=[1, 2, 39, 40])
    assert r.scaled_latencies() == pytest.approx([0.005, 0.005, 0.01, 0.01])
    assert r.scaled_setup_s() == pytest.approx(0.15)


def test_an_operation_slowed_in_one_round_keeps_its_median():
    ops = [0.001 * (1 + i % 10) for i in range(100)]
    rounds = []
    for slow in (1, 3, 1):
        lat = [t * (slow if i == 7 else 1) for i, t in enumerate(ops)]
        rounds.append(run.Round(0.2, [REF] * 10, lat, [REF] * 10, [1] * 100))
    m = run.end_to_end(rounds)
    assert m["ops_per_s"]["value"] == pytest.approx(100 / sum(ops))
    assert m["op_p50_ms"]["value"] == pytest.approx(5.5)
    assert m["op_p90_ms"]["value"] == pytest.approx(statistics.quantiles(ops, n=10)[8] * 1e3)
    assert m["setup_s"]["value"] == pytest.approx(0.2)
