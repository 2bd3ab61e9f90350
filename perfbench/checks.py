"""Correctness oracles, run after the timed region.

None of them uses the memoized evaluator (``dynamic.forces`` and the
``beth`` bar machinery behind it) or the program's parsers:

* ``check-docs`` verdicts and announcement updates are recomputed with
  ``lab.naive_forces`` on a model built straight from the generator's own
  description of the document;
* ``check-ladder`` verdicts follow from the leaf characterization of
  forcing on finite Beth models, computed here from the generator's
  description;
* ``lab-axioms`` verdicts are re-derived by sweeping the full,
  un-deduplicated instance space with ``lab.naive_forces``.

Each ``check_*`` function returns None when the output is right and a
message saying what is wrong otherwise.
"""
from __future__ import annotations

from typing import Optional

from bethpal import beth, formula as fm, lab, modeldoc
from bethpal.dynamic import BethKripkeModel

from workloads import DocRequest, DocSpec, LabTrial, Workload, classical

_BINARY = {"and": fm.And, "or": fm.Or, "imp": fm.Imp}
_ANNOUNCE = {"box": fm.Announce, "dia": fm.Diamond}


def to_formula(f: tuple) -> fm.Formula:
    """The program's AST for a generator formula, built without its parser."""
    tag = f[0]
    if tag == "atom":
        return fm.Atom(f[1])
    if tag == "top":
        return fm.TOP
    if tag == "bot":
        return fm.BOT
    if tag == "not":
        return fm.Neg(to_formula(f[1]))
    if tag == "K":
        return fm.Know(f[1], to_formula(f[2]))
    if tag in _ANNOUNCE:
        return _ANNOUNCE[tag](to_formula(f[1]), to_formula(f[2]))
    return _BINARY[tag](to_formula(f[1]), to_formula(f[2]))


def to_model(spec: DocSpec) -> BethKripkeModel:
    """The program's model for a generator document, built without the
    document parser and with fresh (empty) caches."""
    worlds = {s: beth.validate_beth(w.nodes, w.edges, w.root, w.val)
              for s, w in spec.worlds.items()}
    return BethKripkeModel(worlds, spec.agents, {a: frozenset(p) for a, p in spec.access.items()})


def _trace_agrees(trace: Optional[str], value: bool, explain: bool) -> Optional[str]:
    if not explain:
        return None if trace is None else "trace printed without --explain"
    if not trace or trace.split(None, 1)[0] != ("true" if value else "false"):
        return "trace does not open with the verdict"
    return None


# ---------------------------------------------------------------------------
# check-docs

def check_doc_verdict(req: DocRequest, value: bool, trace: Optional[str]) -> Optional[str]:
    m = to_model(req.spec)
    expected = lab.naive_forces(m, req.world, m.world(req.world).root, to_formula(req.formula))
    if value != expected:
        return f"{req.formula_text} at {req.world}: got {value}, oracle says {expected}"
    return _trace_agrees(trace, value, req.explain)


def check_announcement(req: DocRequest, document: str) -> Optional[str]:
    """A node survives exactly when it does not force ~phi and its world's
    root survives; accessibility keeps the pairs between surviving worlds;
    the emitted document re-parses and re-serializes byte-identically."""
    m = to_model(req.spec)
    neg = fm.Neg(to_formula(req.formula))
    expected: dict[str, set[str]] = {}
    for s, w in req.spec.worlds.items():
        keep = {n for n in w.nodes if not lab.naive_forces(m, s, n, neg)}
        if w.root in keep:
            expected[s] = keep
    if not document:
        return None if not expected else f"announcing {req.formula_text}: empty result, " \
                                          f"but worlds {sorted(expected)} survive"
    updated = modeldoc.parse_model_document(document)
    got = {s: set(w.node_order) for s, w in updated.worlds.items()}
    if got != expected:
        return f"announcing {req.formula_text}: surviving nodes {got}, oracle says {expected}"
    for agent, pairs in req.spec.access.items():
        kept = {(a, b) for a, b in pairs if a in expected and b in expected}
        if set(updated.access[agent]) != kept:
            return f"announcing {req.formula_text}: access of {agent} not restricted"
    if modeldoc.serialize_model(updated) != document:
        return f"announcing {req.formula_text}: emitted document does not round-trip"
    return None


def check_doc_output(req: DocRequest, out: tuple) -> Optional[str]:
    if req.kind == "announce":
        return check_announcement(req, out[1])
    return check_doc_verdict(req, out[1], out[2])


# ---------------------------------------------------------------------------
# check-ladder

def leaf_forces(spec: DocSpec, world: str, f: tuple) -> bool:
    """Forcing at the root of ``world`` by the leaf characterization: a
    propositional formula is forced at a node iff it holds classically at
    every leaf above it; K{i}phi iff phi holds at every leaf of every
    i-accessible world."""
    if f[0] == "K":
        return all(leaf_forces(spec, t, f[2])
                   for s, t in spec.access[f[1]] if s == world)
    w = spec.worlds[world]
    return all(classical(f, w.val[leaf]) for leaf in w.leaves)


def check_ladder_output(req: DocRequest, out: tuple) -> Optional[str]:
    value, trace = out[1], out[2]
    expected = leaf_forces(req.spec, req.world, req.formula)
    if value != expected:
        return f"{req.formula_text} on a ladder: got {value}, leaf characterization says {expected}"
    return _trace_agrees(trace, value, req.explain)


# ---------------------------------------------------------------------------
# lab-axioms

def _instance_space() -> list[fm.Formula]:
    """Every propositional formula of depth <= 1 over the space's atoms:
    the instance space before semantic deduplication."""
    base = [fm.Atom(a) for a in lab.SchemaInstanceSpace(fm.TOP).atoms] + [fm.TOP, fm.BOT]
    pool = base + [fm.Neg(f) for f in base]
    pool += [ctor(a, b) for ctor in (fm.And, fm.Or, fm.Imp) for a in base for b in base]
    return pool


def _naively_false(m: BethKripkeModel, s: str, f: fm.Formula) -> bool:
    return not lab.naive_forces(m, s, m.world(s).root, f)


def check_lab_trial(trial: LabTrial, verdict) -> Optional[str]:
    if isinstance(verdict, lab.Counterexample) and not _naively_false(
            verdict.model, verdict.world, verdict.instance):
        return (f"{trial.schema} seed {trial.seed}: counterexample "
                f"{fm.print_formula(verdict.instance)} holds under naive_forces")
    found = isinstance(verdict, lab.Counterexample)
    if trial.s5:
        if found:
            return f"{trial.schema} seed {trial.seed}: counterexample on an S5 model"
        return None
    if trial.schema != "A3":
        raise ValueError(f"no oracle for {trial.schema} on non-S5 models")
    # The trial's model, as test_validity draws it for trial 0.
    m = lab.random_model(lab.GenParams(seed=lab.split_seed(trial.seed, 0), s5=False))
    exists = any(_naively_false(m, s, fm.Imp(fm.Know(agent, x), x))
                 for agent in sorted(m.agents) for x in _instance_space()
                 for s in m.world_order)
    if found != exists:
        return (f"A3 seed {trial.seed}: counterexample {'returned' if found else 'missed'}, "
                f"naive sweep {'finds one' if exists else 'finds none'}")
    return None


# ---------------------------------------------------------------------------

def check_round(workload: Workload, results: list) -> list[str]:
    """Check the first round's outputs; ops that raised (None) are skipped."""
    check = {"lab-axioms": check_lab_trial, "check-docs": check_doc_output,
             "check-ladder": check_ladder_output}[workload.name]
    errors = []
    for i, (op, out) in enumerate(zip(workload.ops, results)):
        if out is not None:
            message = check(op, out)
            if message:
                errors.append(f"op {i}: {message}")
    return errors
