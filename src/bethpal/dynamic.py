"""Beth-Kripke models: worlds are pointed Beth models, knowledge quantifies
over accessible worlds, and announcements update the whole model.

Announcing φ removes the nodes of each world where φ can never become
settled (the nodes forcing ¬φ), drops worlds whose root already forces ¬φ,
and restricts the accessibility relations to the surviving worlds.  The
announcement operators are root-anchored: every node of a world agrees on
[φ]ψ and <φ>ψ, which refer to the world's root before and after the update.

Evaluation labels each subformula once per model with its extension, the
(world, node) points forcing it, as an int bitmask (the labeling algorithm
of CTL model checking).  Every formula is persistent (the valuation is
monotone; K, [φ] and <φ> hold at all nodes of a world or at none), so on
finite models a bar for it exists exactly when every leaf above forces it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from . import beth
from .beth import BethModel
from .formula import (
    And, Announce, Atom, Bot, Diamond, Formula, Imp, Know, Neg, Or, Top,
    print_formula,
)


class UnknownWorld(beth.ModelError):
    def __init__(self, world: str):
        super().__init__(f"unknown world {world!r}")
        self.world = world


class UnknownAgent(beth.ModelError):
    def __init__(self, agent: str):
        super().__init__(f"unknown agent {agent!r}")
        self.agent = agent


class BethKripkeModel:
    """Named pointed Beth models plus per-agent accessibility between world
    names.  Immutable; extensions are memoized per instance, so a
    restricted model never shares caches with its parent."""

    def __init__(self, worlds: Mapping[str, BethModel], agents: Iterable[str],
                 access: Mapping[str, Iterable[tuple[str, str]]]):
        self.worlds = dict(sorted(worlds.items()))
        self.world_order = tuple(self.worlds)
        self.agents = frozenset(agents)
        self.access: dict[str, frozenset[tuple[str, str]]] = {a: frozenset() for a in self.agents}
        for agent, pairs in access.items():
            if agent not in self.agents:
                raise UnknownAgent(agent)
            pairs = frozenset(pairs)
            stray = [(s, t) for s, t in pairs if s not in self.worlds or t not in self.worlds]
            if stray:
                s, t = min(stray)
                raise UnknownWorld(s if s not in self.worlds else t)
            self.access[agent] = pairs
        self._succ: dict[str, dict[str, tuple[str, ...]]] = {}     # agent -> world -> successors
        self._points: Optional[_Points] = None      # built on first evaluation
        self._labels: dict[Formula, int] = {}
        self._announce: dict[Formula, "BethKripkeModel"] = {}
        self._s5: Optional[bool] = None

    def world(self, s: str) -> BethModel:
        try:
            return self.worlds[s]
        except KeyError:
            raise UnknownWorld(s) from None

    def successors(self, agent: str, s: str) -> tuple[str, ...]:
        """The worlds ``agent`` considers possible at ``s``, sorted.  The
        first call for an agent indexes all its pairs in one pass."""
        index = self._succ.get(agent)
        if index is None:
            if agent not in self.agents:
                raise UnknownAgent(agent)
            grouped: dict[str, list[str]] = {}
            for u, t in self.access[agent]:
                grouped.setdefault(u, []).append(t)
            index = self._succ[agent] = {u: tuple(sorted(ts)) for u, ts in grouped.items()}
        return index.get(s, ())

    @property
    def is_empty(self) -> bool:
        return not self.worlds

    @property
    def is_s5(self) -> bool:
        """Every agent's accessibility is an equivalence relation."""
        if self._s5 is None:
            self._s5 = all(report.equivalence for report in check_s5(self).values())
        return self._s5

    def __repr__(self) -> str:
        return f"BethKripkeModel(worlds={self.world_order!r}, agents={sorted(self.agents)!r})"


@dataclass
class Trace:
    """One evaluation step: which clause fired, where, and with what outcome.
    ``note`` carries the exhibited bar/path/up-set evidence."""
    world: str
    node: str
    formula: Formula
    rule: str
    value: bool
    note: str = ""
    children: tuple["Trace", ...] = ()


@dataclass
class EvalResult:
    value: bool
    trace: Optional[Trace] = None

    def __bool__(self) -> bool:
        return self.value


class _Points:
    """The masks the labeling reads; point i, the i-th of ``world_order`` ×
    ``node_order``, is bit i of every extension."""

    def __init__(self, m: BethKripkeModel):
        self.bit: dict[tuple[str, str], int] = {}
        self.world: dict[str, int] = {}     # all points of the world
        self.root: dict[str, int] = {}      # the world's root point
        self.up: list[tuple[int, int]] = []         # (point, its up-set)
        self.leaves: list[tuple[int, int]] = []     # (point, leaves above it)
        self.atoms: dict[str, int] = {}     # leaves carrying the atom
        for s in m.world_order:
            w = m.worlds[s]
            local: dict[str, int] = {}
            for n in w.node_order:
                self.bit[s, n] = len(self.bit)
                local[n] = 1 << self.bit[s, n]
            for n in w.node_order:
                self.up.append((local[n], sum(local[b] for b in w.up[n])))
                self.leaves.append((local[n], sum(local[b] for b in w.up[n] & w.leaves)))
            for leaf in w.leaves:
                for atom in w.val[leaf]:
                    self.atoms[atom] = self.atoms.get(atom, 0) | local[leaf]
            self.world[s] = sum(local.values())
            self.root[s] = local[w.root]
        self.all = (1 << len(self.bit)) - 1


def _layout(m: BethKripkeModel) -> _Points:
    if m._points is None:
        m._points = _Points(m)
    return m._points


def _avoiding(masks: list[tuple[int, int]], x: int) -> int:
    """The points whose mask shares no point with ``x``."""
    out = 0
    for point, mask in masks:
        if not mask & x:
            out |= point
    return out


def _ext(m: BethKripkeModel, f: Formula) -> int:
    """The points of ``m`` that force ``f``, as a bitmask (see :class:`_Points`),
    memoized per model."""
    hit = m._labels.get(f)
    if hit is not None:
        return hit
    value = m._labels[f] = _label(m, f, _ext)
    return value


def _label(m: BethKripkeModel, f: Formula,
           ext: Callable[[BethKripkeModel, Formula], int]) -> int:
    """The clauses of the labeling: the extension of ``f`` in ``m`` from the
    extensions ``ext`` gives its arguments.  Atoms and ∨ hold where every
    leaf above is in the set, → and ¬ where the up-set avoids the
    counterexamples, K and the announcement operators world by world."""
    pts = _layout(m)
    match f:
        case Top():
            return pts.all
        case Bot():
            return 0
        case Atom(name):
            return _avoiding(pts.leaves, ~pts.atoms.get(name, 0))
        case And(x, y):
            return ext(m, x) & ext(m, y)
        case Or(x, y):
            return _avoiding(pts.leaves, ~(ext(m, x) | ext(m, y)))
        case Imp(x, y):
            return _avoiding(pts.up, ext(m, x) & ~ext(m, y))
        case Neg(x):
            return _avoiding(pts.up, ext(m, x))
        case Know(agent, body):
            missing = ~ext(m, body)
            value = 0
            for s in m.world_order:
                if not any(pts.world[t] & missing for t in m.successors(agent, s)):
                    value |= pts.world[s]
            return value
        case Announce(ann, body) | Diamond(ann, body):
            updated = announce(m, ann)
            executable = updated.world_order
            value = 0 if isinstance(f, Diamond) else (
                pts.all - sum(pts.world[s] for s in executable))
            if executable:
                holds = ext(updated, body)
                roots = _layout(updated).root
                value |= sum(pts.world[s] for s in executable if roots[s] & holds)
            return value
    raise TypeError(f"not a formula: {f!r}")


def _eval(m: BethKripkeModel, s: str, node: str, f: Formula) -> bool:
    m.world(s).ensure_node(node)
    return bool(_ext(m, f) >> _layout(m).bit[s, node] & 1)


def forces(m: BethKripkeModel, s: str, node: str, f: Formula,
           explain: bool = False, max_items: int = 8) -> EvalResult:
    """Node-level satisfaction; with ``explain`` the result carries an
    evaluation tree justifying the verdict."""
    value = _eval(m, s, node, f)
    trace = _explain(m, s, node, f, max_items) if explain else None
    return EvalResult(value, trace)


def satisfies(m: BethKripkeModel, s: str, f: Formula,
              explain: bool = False, max_items: int = 8) -> EvalResult:
    """Model-level satisfaction: forcing at the world's root."""
    return forces(m, s, m.world(s).root, f, explain=explain, max_items=max_items)


def restrict_world(m: BethKripkeModel, s: str, ann: Formula) -> Optional[BethModel]:
    """World ``s`` of the updated model :func:`announce` builds; None when
    the announcement drops it."""
    m.world(s)
    return announce(m, ann).worlds.get(s)


def announce(m: BethKripkeModel, ann: Formula) -> BethKripkeModel:
    """The updated model: each world keeps the nodes that do not force ¬ann
    (in ``m``) and is dropped when its root forces ¬ann; accessibility is
    intersected with the surviving worlds.  An empty result is a value, not
    an error; evaluating anything on it raises UnknownWorld.

    ¬ann is persistent, so the kept nodes form a down-set that contains the
    root.  Restricted to them, the order is still a partial order with the
    root below every node and the valuation is still monotone, so a kept
    world needs no re-validation."""
    cached = m._announce.get(ann)
    if cached is not None:
        return cached
    refuted = _ext(m, Neg(ann))
    bit = _layout(m).bit
    survivors: dict[str, BethModel] = {}
    for s in m.world_order:
        w = m.worlds[s]
        if refuted >> bit[s, w.root] & 1:
            continue
        keep = tuple(n for n in w.node_order if not refuted >> bit[s, n] & 1)
        kept = frozenset(keep)
        leq = frozenset((a, b) for (a, b) in w.leq_pairs if a in kept and b in kept)
        survivors[s] = BethModel(keep, leq, w.root, {n: w.val[n] for n in keep}, w.atoms)
    access = {
        agent: frozenset((a, b) for (a, b) in pairs if a in survivors and b in survivors)
        for agent, pairs in m.access.items()
    }
    updated = BethKripkeModel(survivors, m.agents, access)
    m._announce[ann] = updated
    return updated


@dataclass
class RelationReport:
    """Per-agent accessibility diagnosis; each failed property carries a
    witness pair."""
    reflexive: bool
    transitive: bool
    euclidean: bool
    equivalence: bool
    witnesses: dict[str, tuple[str, str]] = field(default_factory=dict)


def check_s5(m: BethKripkeModel) -> dict[str, RelationReport]:
    """Each failed property's witness is the first missing pair in the
    order of world names, then of sorted successors."""
    reports: dict[str, RelationReport] = {}
    for agent in sorted(m.agents):
        rel = m.access[agent]
        succ = {s: m.successors(agent, s) for s in m.world_order}
        gaps = {
            "reflexive": ((s, s) for s in m.world_order),
            "transitive": ((a, c) for a in m.world_order for b in succ[a] for c in succ[b]),
            "euclidean": ((b, c) for a in m.world_order for b in succ[a] for c in succ[a]),
        }
        witnesses: dict[str, tuple[str, str]] = {}
        for prop, pairs in gaps.items():
            gap = next((pair for pair in pairs if pair not in rel), None)
            if gap is not None:
                witnesses[prop] = gap
        reflexive, transitive, euclidean = (prop not in witnesses for prop in gaps)
        reports[agent] = RelationReport(
            reflexive, transitive, euclidean,
            reflexive and transitive and euclidean, witnesses,
        )
    return reports


# ---------------------------------------------------------------------------
# Explanation traces

def _fmt_nodes(nodes: Iterable[str], max_items: int) -> str:
    """Sorted node listing, cut after ``max_items`` nodes; a cap below 1
    lists every node rather than an empty or shortened set."""
    nodes = sorted(nodes)
    if 0 < max_items < len(nodes):
        return "{" + ", ".join(nodes[:max_items]) + ", ...}"
    return "{" + ", ".join(nodes) + "}"


def _first_above(m: BethKripkeModel, s: str, node: str, points: int) -> Optional[str]:
    """The first node in ``node_order`` of world ``s`` that is above ``node``
    and whose point is in ``points``; None when there is none."""
    pts = _layout(m)
    hits = pts.up[pts.bit[s, node]][1] & points
    if not hits:
        return None
    w = m.worlds[s]
    lowest = (hits & -hits).bit_length() - 1
    return w.node_order[lowest - pts.bit[s, w.node_order[0]]]


def _explain(m: BethKripkeModel, s: str, node: str, f: Formula, max_items: int) -> Trace:
    w = m.world(s)
    value = _eval(m, s, node, f)

    def sub(n: str, g: Formula) -> Trace:
        return _explain(m, s, n, g, max_items)

    match f:
        case Top() | Bot():
            return Trace(s, node, f, "constant", value)
        case Atom(name):
            candidate = {b for b in w.up[node] if name in w.val[b]}
            if value:
                note = f"bar {_fmt_nodes(candidate, max_items)} settles the atom"
            else:
                miss = beth.avoiding_path(w, node, candidate)
                note = f"path {list(miss)} never carries the atom"
            return Trace(s, node, f, "atom-bar", value, note)
        case And(x, y):
            return Trace(s, node, f, "and", value, children=(sub(node, x), sub(node, y)))
        case Or(x, y):
            candidate = {b for b in w.up[node]
                         if _eval(m, s, b, x) or _eval(m, s, b, y)}
            if value:
                note = f"bar {_fmt_nodes(candidate, max_items)} settles a disjunct"
            else:
                miss = beth.avoiding_path(w, node, candidate)
                note = f"path {list(miss)} settles neither disjunct"
            return Trace(s, node, f, "or-bar", value, note,
                         children=(sub(node, x), sub(node, y)))
        case Imp(x, y):
            b = _first_above(m, s, node, _ext(m, x) & ~_ext(m, y))
            if b is not None:
                return Trace(s, node, f, "implies", value,
                             f"fails above at {b!r}", (sub(b, x), sub(b, y)))
            return Trace(s, node, f, "implies", value,
                         f"holds at every node of {_fmt_nodes(w.up[node], max_items)}")
        case Neg(x):
            b = _first_above(m, s, node, _ext(m, x))
            if b is not None:
                return Trace(s, node, f, "not", value,
                             f"body forced above at {b!r}", (sub(b, x),))
            return Trace(s, node, f, "not", value,
                         f"body fails at every node of {_fmt_nodes(w.up[node], max_items)}")
        case Know(agent, body):
            succ = m.successors(agent, s)
            for t in succ:
                for b in m.world(t).node_order:
                    if not _eval(m, t, b, body):
                        return Trace(s, node, f, "knows", value,
                                     f"fails in accessible world {t!r} at {b!r}",
                                     (_explain(m, t, b, body, max_items),))
            return Trace(s, node, f, "knows", value,
                         f"holds at every node of accessible worlds {_fmt_nodes(succ, max_items)}"
                         if succ else "no accessible worlds")
        case Announce(ann, body) | Diamond(ann, body):
            rule = "diamond" if isinstance(f, Diamond) else "announce"
            updated = announce(m, ann)
            if s not in updated.worlds:
                note = "announcement not executable: root forces the negation"
                return Trace(s, node, f, rule, value, note,
                             (sub(w.root, Neg(ann)),))
            dropped = sorted(set(w.node_order) - set(updated.world(s).node_order))
            note = (f"announcement executable; dropped nodes {_fmt_nodes(dropped, max_items)}"
                    if dropped else "announcement executable; no node dropped")
            return Trace(s, node, f, rule, value, note,
                         (_explain(updated, s, updated.world(s).root, body, max_items),))
    raise TypeError(f"not a formula: {f!r}")


def render_trace(trace: Trace, indent: int = 0) -> str:
    pad = "  " * indent
    head = (f"{pad}{'true ' if trace.value else 'false'} {trace.rule:<9} "
            f"{print_formula(trace.formula)}  @ {trace.world}/{trace.node}")
    if trace.note:
        head += f"  [{trace.note}]"
    lines = [head]
    for child in trace.children:
        lines.append(render_trace(child, indent + 1))
    return "\n".join(lines)
