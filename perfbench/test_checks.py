"""Each correctness check accepts the program's answers and rejects a wrong
one.  Run with ``python3 -m pytest perfbench/test_checks.py``."""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bethpal import formula as fm, lab, modeldoc  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _first(ops, pred):
    return next(op for op in ops if pred(op))


def test_checks_accept_the_program_outputs():
    for make in workloads.WORKLOADS.values():
        wl = make(SEED)
        ops = wl.ops[:12] + wl.ops[-12:]
        outs = [wl.run(op) for op in ops]
        assert checks.check_round(workloads.Workload(wl.name, ops, wl.run, wl.setup), outs) == []


def test_flipped_doc_verdict_is_rejected():
    wl = workloads.check_docs(SEED)
    for explain in (False, True):
        req = _first(wl.ops, lambda r: r.kind == "check" and r.explain == explain)
        kind, value, trace = wl.run(req)
        assert checks.check_doc_output(req, (kind, value, trace)) is None
        assert checks.check_doc_output(req, (kind, not value, trace)) is not None


def test_flipped_ladder_verdict_is_rejected():
    wl = workloads.check_ladder(SEED)
    for req in (wl.ops[0], wl.ops[-1]):
        kind, value, trace = wl.run(req)
        assert checks.check_ladder_output(req, (kind, value, trace)) is None
        assert checks.check_ladder_output(req, (kind, not value, None)) is not None


def test_trace_opening_with_the_wrong_verdict_is_rejected():
    wl = workloads.check_ladder(SEED)
    req = _first(wl.ops, lambda r: r.explain)
    kind, value, trace = wl.run(req)
    flipped = ("false" if value else "true ") + trace[5:]
    assert checks.check_ladder_output(req, (kind, value, flipped)) is not None


def test_wrong_surviving_node_set_is_rejected():
    wl = workloads.check_docs(SEED)

    def drops_some_node(req):
        if req.kind != "announce":
            return False
        _, document = wl.run(req)
        if not document:
            return False
        updated = modeldoc.parse_model_document(document)
        kept = sum(len(w.node_order) for w in updated.worlds.values())
        return kept < sum(len(w.nodes) for w in req.spec.worlds.values())

    req = _first(wl.ops, drops_some_node)
    out = wl.run(req)
    assert checks.check_doc_output(req, out) is None
    # An update that drops nothing keeps nodes that force the negation.
    unchanged = modeldoc.serialize_model(modeldoc.parse_model_document(req.text))
    assert checks.check_doc_output(req, ("announce", unchanged)) is not None
    # An update that drops everything loses surviving worlds.
    assert checks.check_doc_output(req, ("announce", "")) is not None


def test_lost_semantic_class_in_dedup_is_rejected(monkeypatch):
    """A dedup that loses the classes of the refuting instances hides the
    counterexample; the naive sweep over the full instance space finds it."""
    trials = [t for t in workloads.lab_axioms(SEED).ops if not t.s5]
    trial = _first(trials, lambda t: isinstance(workloads.run_lab_trial(t), lab.Counterexample))
    assert checks.check_lab_trial(trial, workloads.run_lab_trial(trial)) is None

    semantic_reps = lab._semantic_reps

    def lossy(m, pool):
        return [x for x in semantic_reps(m, pool)
                if all(lab.naive_forces(m, s, m.world(s).root, fm.Imp(fm.Know(i, x), x))
                       for i in m.agents for s in m.world_order)]

    monkeypatch.setattr(lab, "_semantic_reps", lossy)
    verdict = workloads.run_lab_trial(trial)
    assert isinstance(verdict, lab.NoCounterexample)
    assert checks.check_lab_trial(trial, verdict) is not None


def test_counterexample_that_holds_is_rejected():
    trials = workloads.lab_axioms(SEED).ops
    trial = _first([t for t in trials if not t.s5],
                   lambda t: isinstance(workloads.run_lab_trial(t), lab.Counterexample))
    cx = workloads.run_lab_trial(trial)
    holds = lab.Counterexample(cx.model, cx.world, fm.Imp(cx.instance, cx.instance))
    assert checks.check_lab_trial(trial, holds) is not None
    s5 = _first(trials, lambda t: t.s5)
    assert checks.check_lab_trial(s5, cx) is not None
