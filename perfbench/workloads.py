"""Seeded inputs and operations of the benchmark's workloads.

Inputs come from the benchmark's own generators, driven by
``random.Random(seed)``; the program receives only document text, formula
text and lab generator parameters.  Each generator also keeps its own
description of what it generated (the ``*Spec`` objects and formulas as
nested tuples), which is what the oracles in ``checks.py`` read, so no
oracle depends on the program's parsers.

A workload is one fixed *round* of operations.  The benchmark repeats the
round, so every run attempts the same operations in the same proportions
whatever its length.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from bethpal import dynamic, formula, lab, modeldoc
from bethpal.proofkit import SCHEMAS

ATOMS = ("p", "q", "r")

# ---------------------------------------------------------------------------
# Formulas as nested tuples: ("atom", name), ("top",), ("bot",), ("not", f),
# ("and" | "or" | "imp", f, g), ("K", agent, f), ("box" | "dia", ann, body).

_BINARY = {"and": "&", "or": "|", "imp": "->"}


def formula_text(f: tuple) -> str:
    """Concrete syntax with every binary connective parenthesized."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag in ("top", "bot"):
        return tag
    if tag == "not":
        return "~" + formula_text(f[1])
    if tag == "K":
        return f"K{{{f[1]}}} " + formula_text(f[2])
    if tag == "box":
        return f"[{formula_text(f[1])}]" + formula_text(f[2])
    if tag == "dia":
        return f"<{formula_text(f[1])}>" + formula_text(f[2])
    return f"({formula_text(f[1])} {_BINARY[tag]} {formula_text(f[2])})"


def classical(f: tuple, true_atoms: frozenset[str]) -> bool:
    """Classical truth of a propositional formula under a valuation."""
    tag = f[0]
    if tag == "atom":
        return f[1] in true_atoms
    if tag in ("top", "bot"):
        return tag == "top"
    if tag == "not":
        return not classical(f[1], true_atoms)
    x, y = classical(f[1], true_atoms), classical(f[2], true_atoms)
    return {"and": x and y, "or": x or y, "imp": (not x) or y}[tag]


def _leaf(rng: random.Random) -> tuple:
    r = rng.random()
    if r < 0.86:
        return ("atom", rng.choice(ATOMS))
    return ("top",) if r < 0.93 else ("bot",)


def _random_formula(rng: random.Random, depth: int, agents: tuple[str, ...],
                    kinds: tuple[str, ...]) -> tuple:
    if depth == 0 or rng.random() < 0.2:
        return _leaf(rng)
    kind = rng.choice(kinds)
    if kind == "not":
        return ("not", _random_formula(rng, depth - 1, agents, kinds))
    if kind == "K":
        return ("K", rng.choice(agents), _random_formula(rng, depth - 1, agents, kinds))
    if kind in ("box", "dia"):
        # Announced formulas stay shallow: nested updates multiply the cost.
        ann = _random_formula(rng, min(1, depth - 1), agents, ("not", "and", "or", "K"))
        return (kind, ann, _random_formula(rng, depth - 1, agents, kinds))
    return (kind, _random_formula(rng, depth - 1, agents, kinds),
            _random_formula(rng, depth - 1, agents, kinds))


_PROP = ("not", "and", "or", "imp")
_MODAL = _PROP + ("K", "box", "dia")


def _doc_formula(rng: random.Random, top: str, agents: tuple[str, ...]) -> tuple:
    """A depth-3 formula whose main connective is ``top``."""
    if top == "prop":
        return (rng.choice(("and", "or", "imp")),
                _random_formula(rng, 2, agents, _PROP), _random_formula(rng, 2, agents, _PROP))
    if top == "K":
        return ("K", rng.choice(agents), _random_formula(rng, 2, agents, _PROP + ("K",)))
    ann = _random_formula(rng, 1, agents, ("not", "and", "or", "K"))
    return (top, ann, _random_formula(rng, 2, agents, _MODAL))


# ---------------------------------------------------------------------------
# Model documents

@dataclass(frozen=True)
class WorldSpec:
    root: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    val: dict
    leaves: tuple[str, ...]


@dataclass(frozen=True)
class DocSpec:
    agents: tuple[str, ...]
    worlds: dict
    access: dict

    def text(self) -> str:
        lines = ["agents: " + ", ".join(self.agents)]
        for name, w in self.worlds.items():
            lines.append(f"world {name} {{")
            lines.append(f"  root: {w.root};")
            lines.append("  nodes: " + ", ".join(w.nodes) + ";")
            if w.edges:
                lines.append("  order: " + ", ".join(f"{a} < {b}" for a, b in w.edges) + ";")
            for n in w.nodes:
                if w.val[n]:
                    lines.append(f"  val {n}: {{" + ", ".join(sorted(w.val[n])) + "};")
            lines.append("}")
        for agent in self.agents:
            pairs = self.access[agent]
            if pairs:
                lines.append(f"access {agent}: " + ", ".join(f"({a}, {b})" for a, b in pairs))
        return "\n".join(lines) + "\n"


def _random_world(rng: random.Random, size: int) -> WorldSpec:
    """Rooted poset on ``size`` nodes (a random tree plus a few extra edges
    between earlier and later nodes) with a monotone valuation."""
    nodes = tuple(f"n{i}" for i in range(size))
    edges = []
    for j in range(1, size):
        edges.append((nodes[rng.randrange(j)], nodes[j]))
        if j >= 2 and rng.random() < 0.25:
            i = rng.randrange(1, j)
            if (nodes[i], nodes[j]) not in edges:
                edges.append((nodes[i], nodes[j]))
    val: dict[str, frozenset[str]] = {}
    for n in nodes:  # indices are topological, so inheriting along edges is monotone
        inherited = set().union(*(val[a] for a, b in edges if b == n))
        val[n] = frozenset(inherited | {x for x in ATOMS if rng.random() < 0.25})
    has_succ = {a for a, _ in edges}
    return WorldSpec(nodes[0], nodes, tuple(edges), val,
                     tuple(n for n in nodes if n not in has_succ))


def _random_doc(rng: random.Random) -> DocSpec:
    agents = ("a", "b", "c")[:rng.choice((2, 3))]
    names = [f"w{i}" for i in range(rng.randint(2, 4))]
    worlds = {s: _random_world(rng, rng.randint(1, 8)) for s in names}
    access = {
        agent: tuple((s, t) for s in names for t in names
                     if rng.random() < (0.7 if s == t else 0.35))
        for agent in agents
    }
    return DocSpec(agents, worlds, access)


def _ladder_world(rng: random.Random, levels: int,
                  leaf_vals: tuple[frozenset[str], frozenset[str]]) -> WorldSpec:
    """Width-2 ladder: a root, then ``levels`` levels of two nodes each, every
    node covered by both nodes of the next level (2**levels maximal paths).
    The two leaves carry ``leaf_vals``; an atom of both leaves holds from a
    random level up, an atom of one leaf only at that leaf."""
    rows = [("r",)] + [(f"a{i}", f"b{i}") for i in range(1, levels + 1)]
    nodes = tuple(n for row in rows for n in row)
    edges = tuple((x, y) for lo, hi in zip(rows, rows[1:]) for x in lo for y in hi)
    start = {x: rng.randint(0, levels) for x in leaf_vals[0] & leaf_vals[1]}
    val = {n: frozenset(x for x, lv in start.items() if lv <= i)
           for i, row in enumerate(rows[:-1]) for n in row}
    val.update(zip(rows[-1], leaf_vals))
    return WorldSpec("r", nodes, edges, val, rows[-1])


def _ladder_request(rng: random.Random, levels: int, shape: str, leaves: str) -> "DocRequest":
    x, y, z = rng.sample(ATOMS, 3)
    body = {"atom": ("atom", x), "or": ("or", ("atom", x), ("atom", y)),
            "imp": ("imp", ("atom", x), ("atom", y)), "K{a}": ("or", ("atom", x), ("atom", y)),
            "K{b}": ("atom", x)}[shape]
    f = ("K", shape[2], body) if shape.startswith("K") else body
    roles = leaves.split("|")
    if len(roles) == 2:
        roles += [rng.choice(("", "x", "y", "xy")) for _ in range(2)]
    vals = [frozenset({"x": x, "y": y}[c] for c in r) | ({z} if rng.random() < 0.5 else set())
            for r in roles]
    worlds = {"u": _ladder_world(rng, levels, (vals[0], vals[1])),
              "v": _ladder_world(rng, 3, (vals[2], vals[3]))}
    access = {"a": (("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")),
              "b": (("u", "u"), ("v", "v"))}
    spec = DocSpec(("a", "b"), worlds, access)
    return DocRequest("check", spec, spec.text(), "u", f, formula_text(f),
                      shape in LADDER_EXPLAINED)


# ---------------------------------------------------------------------------
# Operations

@dataclass(frozen=True)
class DocRequest:
    """One ``check`` or ``announce`` request against one document."""
    kind: str                   # "check" or "announce"
    spec: DocSpec
    text: str
    world: Optional[str]
    formula: tuple
    formula_text: str
    explain: bool = False


def run_doc_request(req: DocRequest):
    """The public calls ``bethpal check`` and ``bethpal announce`` make,
    without the argparse front end."""
    model = modeldoc.parse_model_document(req.text)
    f = formula.parse_formula(req.formula_text)
    if req.kind == "announce":
        updated = dynamic.announce(model, f)
        return ("announce", "" if updated.is_empty else modeldoc.serialize_model(updated))
    result = dynamic.satisfies(model, req.world, f, explain=req.explain)
    trace = dynamic.render_trace(result.trace) if result.trace is not None else None
    return ("check", result.value, trace)


def load_documents(texts: list[str]) -> None:
    for text in texts:
        modeldoc.parse_model_document(text)


@dataclass(frozen=True)
class LabTrial:
    """One ``lab.test_validity`` trial: one random model against every
    deduplicated instance of one schema."""
    schema: str
    s5: bool
    seed: int

    @property
    def gen(self) -> lab.GenParams:
        return lab.GenParams(seed=self.seed, s5=self.s5)

    @property
    def space(self) -> lab.SchemaInstanceSpace:
        return lab.SchemaInstanceSpace(SCHEMAS[self.schema].pattern)


def run_lab_trial(trial: LabTrial):
    return lab.test_validity(trial.space, trial.gen, 1)


def lab_key(verdict) -> tuple:
    """Comparable summary of a verdict, to match repeated rounds."""
    if isinstance(verdict, lab.Counterexample):
        return ("counterexample", verdict.world, verdict.instance)
    return ("none", verdict.trials)


def generate_lab_models(trials: list[LabTrial]) -> None:
    """The lab's own generation work for a round: every model its trials
    draw, and the instance pool."""
    for t in trials:
        lab.random_model(lab.GenParams(seed=lab.split_seed(t.seed, 0), s5=t.s5))
    space = trials[0].space
    lab.propositional_pool(space.atoms, space.depth)


# ---------------------------------------------------------------------------
# Workloads

@dataclass
class Workload:
    name: str
    ops: list
    run: object                 # op -> output
    setup: object               # () -> None, the program's own set-up work
    key: object = None          # output -> comparable value; None for identity


LAB_S5_SCHEMAS = ("A2", "A3", "A4", "A5", "A6")
LAB_PER_GROUP = 200             # trials per S5 schema, and A3 trials on non-S5 models
LAB_SHAPE_SEED = 0

DOCS = 600
LADDER_LEVELS = (12, 13, 14, 15)
# Per formula shape, four leaf valuations over the formula's atoms x and y:
# the atoms at the leaves (a_k, b_k) of world u, then (for K{a}) of world v.
# Every seed gets the same valuations up to the naming of atoms, so the
# verdicts and the evaluator's short-circuits, which set the cost, are the
# same mix in every round.  Implications are all forced: a refuted one stops
# at the first witness in the iteration order of a frozenset of node names,
# which changes with the process's string-hash seed.
LADDER_CELLS = {
    "atom": ["x|x", "x|", "|x", "|"],
    "or": ["x|y", "xy|x", "|y", "y|"],
    "imp": ["xy|xy", "|y", "xy|", "y|xy"],
    "K{a}": ["x|y|y|xy", "x|x|x|", "xy||x|y", "|y||"],
    "K{b}": ["x|x", "x|", "|x", "|"],
}
LADDER_EXPLAINED = {"atom", "imp"}
LADDER_DOCS_PER_CELL = 2


def _model_shape(trial: LabTrial) -> tuple[int, int, int]:
    """(worlds, nodes, distinct leaf valuations) of the model the trial
    draws.  A propositional formula is forced at a node iff it holds at every
    leaf above it, so the distinct leaf valuations fix how many semantic
    classes the instance dedup keeps, and a schema with two formula
    variables costs about the square of that."""
    m = lab.random_model(lab.GenParams(seed=lab.split_seed(trial.seed, 0), s5=trial.s5))
    worlds = [m.world(s) for s in m.world_order]
    leaf_vals = {frozenset(w.val[n]) for w in worlds for n in w.leaves}
    return len(worlds), sum(len(w.node_order) for w in worlds), len(leaf_vals)


def _stratified_trials(rng: random.Random, schema: str, s5: bool,
                       shapes: Counter) -> list[LabTrial]:
    """Trials whose models have exactly the given shapes: draw trial seeds
    from ``rng`` and keep a trial while its shape's quota is open."""
    quota = Counter(shapes)
    wanted = sum(shapes.values())
    trials: list[LabTrial] = []
    for _ in range(1000 * wanted):
        trial = LabTrial(schema, s5, rng.getrandbits(64))
        shape = _model_shape(trial)
        if quota[shape] > 0:
            quota[shape] -= 1
            trials.append(trial)
            if len(trials) == wanted:
                return trials
    raise RuntimeError(f"no {schema} trial models of shapes {sorted(+quota)}")


def lab_axioms(seed: int) -> Workload:
    # The models' shapes set most of a trial's cost, so every seed gets the
    # same shapes: those of the trials drawn from LAB_SHAPE_SEED.
    ref = random.Random(LAB_SHAPE_SEED)
    shapes = Counter(_model_shape(LabTrial("A2", True, ref.getrandbits(64)))
                     for _ in range(LAB_PER_GROUP))
    rng = random.Random(seed)
    groups = [(sid, True) for sid in LAB_S5_SCHEMAS] + [("A3", False)]
    trials = [t for sid, s5 in groups for t in _stratified_trials(rng, sid, s5, shapes)]
    return Workload("lab-axioms", trials, run_lab_trial,
                    lambda: generate_lab_models(trials), lab_key)


def check_docs(seed: int) -> Workload:
    rng = random.Random(seed)
    requests: list[DocRequest] = []
    texts: list[str] = []
    for _ in range(DOCS):
        spec = _random_doc(rng)
        texts.append(spec.text())
        plan = [(rng.choice(("prop", "K")), False), (rng.choice(("box", "dia")), False),
                (rng.choice(("prop", "K", "box", "dia")), True)]
        for top, explain in plan:
            f = _doc_formula(rng, top, spec.agents)
            requests.append(DocRequest("check", spec, texts[-1], rng.choice(tuple(spec.worlds)),
                                       f, formula_text(f), explain))
        ann = _random_formula(rng, 2, spec.agents, ("not", "and", "or", "imp", "K"))
        requests.append(DocRequest("announce", spec, texts[-1], None, ann, formula_text(ann)))
    return Workload("check-docs", requests, run_doc_request,
                    lambda: load_documents(texts))


def check_ladder(seed: int) -> Workload:
    rng = random.Random(seed)
    requests = [_ladder_request(rng, levels, shape, pattern)
                for levels in LADDER_LEVELS
                for shape, cells in LADDER_CELLS.items()
                for pattern in cells * LADDER_DOCS_PER_CELL]
    texts = [r.text for r in requests]
    return Workload("check-ladder", requests, run_doc_request,
                    lambda: load_documents(texts))


WORKLOADS = {"lab-axioms": lab_axioms, "check-docs": check_docs,
             "check-ladder": check_ladder}
