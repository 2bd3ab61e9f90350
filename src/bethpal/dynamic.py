"""Beth-Kripke models: worlds are pointed Beth models, knowledge quantifies
over accessible worlds, and announcements update the whole model.

Announcing φ removes the nodes of each world where φ can never become
settled (the nodes forcing ¬φ), drops worlds whose root already forces ¬φ,
and restricts the accessibility relations to the surviving worlds.  The
announcement operators are root-anchored: every node of a world agrees on
[φ]ψ and <φ>ψ, which refer to the world's root before and after the update.

Every formula is persistent (K, [φ] and <φ> hold at all nodes of a world or
at none) and every path of a finite model ends in a leaf, so a node forces a
formula exactly when every leaf above it does.  Evaluation labels the leaves
(the labeling algorithm of CTL model checking): a subformula's extension is
the int bitmask of the leaves forcing it, and at a leaf the connectives are
classical.  An update keeps the leaves where φ holds and creates none, so it
is a mask of live leaves; only :func:`announce` builds the updated model.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from . import beth
from .beth import BethModel
from .formula import (
    And, Announce, Atom, Bot, Diamond, Formula, Imp, Know, Neg, Or, Top,
    is_propositional, print_formula,
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
        self._labels: dict[tuple[Optional[int], Formula], int] = {}    # see _ext
        self._announce: dict[Formula, "BethKripkeModel"] = {}

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
        return all(report.equivalence for report in check_s5(self).values())

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
    """The masks the labeling reads.  Point i is the i-th of ``world_order``
    × ``node_order``, bit i of every extension; only leaf points are ever
    set.  A world's points are its nodes' bits shifted by the world's
    offset, so its masks are its own bitmasks shifted likewise."""

    def __init__(self, worlds: Mapping[str, BethModel]):
        self.offset: dict[str, int] = {}    # the world's first point
        self.world: dict[str, int] = {}     # the world's leaves
        self.atoms: dict[str, int] = {}     # leaves carrying the atom
        offset = 0
        for s, w in worlds.items():
            self.offset[s] = offset
            self.world[s] = w.leaf_mask << offset
            for leaf in w.leaves:
                for atom in w.val[leaf]:
                    self.atoms[atom] = self.atoms.get(atom, 0) | 1 << offset + w.index[leaf]
            offset += len(w.node_order)
        self.size = offset                  # the point count
        self.all = sum(self.world.values())
        self._knows: dict[str, list[tuple[int, int]]] = {}

    def knows(self, m: BethKripkeModel, agent: str) -> list[tuple[int, int]]:
        """(a world's leaves, its successors' leaves) for each world of
        ``m``, the masks the K clause reads; built on first use per agent."""
        masks = self._knows.get(agent)
        if masks is None:
            masks = self._knows[agent] = [
                (self.world[s], sum(self.world[t] for t in m.successors(agent, s)))
                for s in m.world_order]
        return masks


def _layout(m: BethKripkeModel) -> _Points:
    if m._points is None:
        m._points = _Points(m.worlds)
    return m._points


class _Copies:
    """Disjoint unions of copies of ``m``, one copy per binding of a schema's
    metavariables, each labeled by :func:`_ext` as a model.  Copy b holds
    the points of ``m`` shifted by b·P, P being ``m``'s point count.  In a
    union built from ``leaves`` and ``agents``, formula metavariable X is an
    atom whose leaves in copy b are ``leaves[X][b]``, and agent
    metavariable i is an agent with the pairs of agent ``agents[i][b]`` in
    copy b; the model's own atoms hold in every copy.

    K reads pairs within a copy and an update keeps or drops each world on
    its own, so copy b of a schema's extension is the extension of its
    instance under binding b, when ``leaves[X][b]`` is the extension of a
    propositional formula bound to X: under the live leaves ``alive`` that
    formula holds on ``alive & leaves[X][b]``, as the atom X does.

    The unions of one model repeat their copy count and, mostly, the agents
    each agent metavariable takes, so those masks are built once."""

    def __init__(self, m: BethKripkeModel):
        self.model = m
        self.base = _layout(m)
        self._masks: dict = {}      # copy count or agent sequence -> masks
        self._points: Optional[_Points] = None      # the union labeled last
        self._labels: dict[tuple[Optional[int], Formula], int] = {}

    def extension(self, f: Formula, copies: int, leaves: Mapping[str, Sequence[int]],
                  agents: Mapping[str, tuple[str, ...]]) -> int:
        """The extension of ``f`` in the union of ``copies`` copies."""
        base, masks = self.base, self._masks
        shifts = range(0, copies * base.size, base.size)
        spread = sum(1 << shift for shift in shifts)
        pts = _Points({})       # given the fields _label reads
        pts.world = masks.get(copies)
        if pts.world is None:
            pts.world = masks[copies] = dict(enumerate(
                world << shift for shift in shifts for world in base.world.values()))
        pts.all = base.all * spread
        pts.atoms = {atom: mask * spread for atom, mask in base.atoms.items()}
        for var, column in leaves.items():
            pts.atoms[var] = sum(mask << shift for shift, mask in zip(shifts, column))
        for var, chosen in agents.items():
            knows = masks.get(chosen)
            if knows is None:
                knows = masks[chosen] = [(world << shift, succ << shift)
                                         for shift, agent in zip(shifts, chosen)
                                         for world, succ in base.knows(self.model, agent)]
            pts._knows[var] = knows
        self._points, self._labels = pts, {}
        return _ext(self, f)

    def first_failure(self, holds: int) -> Optional[tuple[int, str]]:
        """The copy and the world of the lowest leaf outside ``holds``, an
        extension in the union labeled last: the first copy with a world
        whose root does not force the formula, and the first such world in
        ``world_order``.  None when every leaf is in ``holds``."""
        failed = self._points.all & ~holds
        if not failed:
            return None
        copy, point = divmod((failed & -failed).bit_length() - 1, self.base.size)
        return copy, next(s for s in self.model.world_order if self.base.world[s] >> point & 1)


def _ext(m: BethKripkeModel, f: Formula, alive: Optional[int] = None) -> int:
    """The leaves forcing ``f`` in ``m`` updated to the leaves ``alive`` (None:
    every leaf), as a bitmask (see :class:`_Points`), memoized per model.
    ``m`` may also be a bare model labeled by :func:`leaf_extension`."""
    key = (alive, f)
    hit = m._labels.get(key)
    if hit is None:
        hit = m._labels[key] = _label(m, f, alive)
    return hit


def _label(m: BethKripkeModel, f: Formula, alive: Optional[int]) -> int:
    """The clauses of the labeling: the extension of ``f`` in the update of
    ``m`` to the leaves ``alive``, from the extensions :func:`_ext` gives its
    arguments.  At a leaf the connectives are classical; K and the
    announcement operators hold on all live leaves of a world or on none."""
    pts = _layout(m)
    live = pts.all if alive is None else alive
    match f:
        case Top():
            return live
        case Bot():
            return 0
        case Atom(name):
            return live & pts.atoms.get(name, 0)
        case And(x, y):
            return _ext(m, x, alive) & _ext(m, y, alive)
        case Or(x, y):
            return _ext(m, x, alive) | _ext(m, y, alive)
        case Imp(x, y):
            return live & ~_ext(m, x, alive) | _ext(m, y, alive)
        case Neg(x):
            return live & ~_ext(m, x, alive)
        case Know(agent, body):
            missing = live & ~_ext(m, body, alive)
            return live & sum(world for world, succ in pts.knows(m, agent)
                              if not succ & missing)
        case Announce(ann, body) | Diamond(ann, body):
            # A world without kept leaves is dropped, where [φ] holds and <φ>
            # does not; a kept world's updated root forces the body when
            # every kept leaf does.  With no kept leaf the body is not read.
            kept = _ext(m, ann, alive)
            failed = kept & ~_ext(m, body, kept) if kept else 0
            return live & sum(world for world in pts.world.values()
                              if not world & failed
                              and (world & kept or isinstance(f, Announce)))
    raise TypeError(f"not a formula: {f!r}")


def leaf_extension(w: BethModel, f: Formula) -> int:
    """The leaves of the bare model ``w`` forcing the propositional formula
    ``f``, as a bitmask over ``w.node_order``: ``w`` is labeled as the one
    world of a model without agents.  The propositional clauses read only
    the memo and the point layout, which ``w`` keeps, so no model is built
    around ``w``.  The memo holds propositional formulas only, so ``f`` is
    checked on a miss alone."""
    hit = w._labels.get((None, f))
    if hit is None:
        if not is_propositional(f):
            raise beth.NonPropositionalFormula(f)
        if w._points is None:
            w._points = _Points({"w": w})
        hit = _ext(w, f)
    return hit


def _lift(w: BethModel, leaves: int) -> int:
    """The nodes of ``w`` whose leaves above all lie in ``leaves``, both over
    ``node_order``: the nodes forcing a formula with that leaf extension."""
    missing = w.leaf_mask & ~leaves
    return sum(1 << i for i, up in enumerate(w.up_mask) if not up & missing)


def _eval(m: BethKripkeModel, s: str, node: str, f: Formula) -> bool:
    w = m.world(s)
    w.ensure_node(node)
    leaves = (w.up_mask[w.index[node]] & w.leaf_mask) << _layout(m).offset[s]
    return not leaves & ~_ext(m, f)


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
    (in ``m``), those with a leaf above that forces ann, and is dropped when
    it keeps no leaf; accessibility is intersected with the surviving
    worlds.  An empty result is a value, not an error; evaluating anything
    on it raises UnknownWorld.

    ¬ann is persistent, so the kept nodes form a down-set that contains the
    root.  Restricted to them, the order is still a partial order with the
    root below every node and the valuation is still monotone, so a kept
    world needs no re-validation."""
    cached = m._announce.get(ann)
    if cached is not None:
        return cached
    kept = _ext(m, ann)
    pts = _layout(m)
    survivors: dict[str, BethModel] = {}
    for s in m.world_order:
        w = m.worlds[s]
        leaves = kept >> pts.offset[s] & w.leaf_mask
        if leaves:
            survivors[s] = beth.restrict(
                w, sum(1 << i for i, up in enumerate(w.up_mask) if up & leaves))
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
    order of world names, then of sorted successors.

    Successor sets are bitmasks over ``world_order``: (a, b) misses a pair
    (a, c) for transitivity where ``succ[b] & ~succ[a]`` has a bit, and
    (b, c) for euclideanness where ``succ[a] & ~succ[b]`` has one; the
    lowest bit is the first such c, since ``world_order`` is sorted."""
    order = m.world_order
    bit = {s: 1 << i for i, s in enumerate(order)}
    reports: dict[str, RelationReport] = {}
    for agent in sorted(m.agents):
        succ = {s: m.successors(agent, s) for s in order}
        mask = {s: sum(bit[t] for t in ts) for s, ts in succ.items()}
        gaps = {    # (first world of the missing pair, the second worlds it misses)
            "reflexive": ((s, bit[s] & ~mask[s]) for s in order),
            "transitive": ((a, mask[b] & ~mask[a]) for a in order for b in succ[a]),
            "euclidean": ((b, mask[a] & ~mask[b]) for a in order for b in succ[a]),
        }
        witnesses: dict[str, tuple[str, str]] = {}
        for prop, misses in gaps.items():
            gap = next(((s, order[(c & -c).bit_length() - 1]) for s, c in misses if c), None)
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


def _explain(m: BethKripkeModel, s: str, node: str, f: Formula, max_items: int) -> Trace:
    """The evaluation tree of ``f`` at ``node`` of world ``s``.  Its evidence
    is read off the extensions the labeling computed: the nodes of a world
    forcing a subformula are :func:`_lift` of its extension there."""
    w = m.world(s)
    value = _eval(m, s, node, f)
    up = w.up_mask[w.index[node]]

    def sub(n: str, g: Formula) -> Trace:
        return _explain(m, s, n, g, max_items)

    def nodes(t: str, g: Formula) -> int:
        return _lift(m.world(t), _ext(m, g) >> _layout(m).offset[t])

    def lowest(t: str, mask: int) -> str:
        return m.world(t).node_order[(mask & -mask).bit_length() - 1]

    def settles(bar: Iterable[str], what: str, escape: str) -> str:
        """The bar above ``node`` that settles the value, or the first path
        that misses it."""
        if value:
            return f"bar {_fmt_nodes(bar, max_items)} settles {what}"
        return f"path {list(beth.avoiding_path(w, node, frozenset(bar)))} {escape}"

    match f:
        case Top() | Bot():
            return Trace(s, node, f, "constant", value)
        case Atom(name):
            note = settles((b for b in w.names(up) if name in w.val[b]),
                           "the atom", "never carries the atom")
            return Trace(s, node, f, "atom-bar", value, note)
        case And(x, y):
            return Trace(s, node, f, "and", value, children=(sub(node, x), sub(node, y)))
        case Or(x, y):
            note = settles(w.names(up & (nodes(s, x) | nodes(s, y))),
                           "a disjunct", "settles neither disjunct")
            return Trace(s, node, f, "or-bar", value, note,
                         children=(sub(node, x), sub(node, y)))
        case Imp(x, y):
            fails = up & nodes(s, x) & ~nodes(s, y)
            if fails:
                b = lowest(s, fails)
                return Trace(s, node, f, "implies", value,
                             f"fails above at {b!r}", (sub(b, x), sub(b, y)))
            return Trace(s, node, f, "implies", value,
                         f"holds at every node of {_fmt_nodes(w.names(up), max_items)}")
        case Neg(x):
            forced = up & nodes(s, x)
            if forced:
                b = lowest(s, forced)
                return Trace(s, node, f, "not", value,
                             f"body forced above at {b!r}", (sub(b, x),))
            return Trace(s, node, f, "not", value,
                         f"body fails at every node of {_fmt_nodes(w.names(up), max_items)}")
        case Know(agent, body):
            succ = m.successors(agent, s)
            for t in succ:
                fails = (1 << len(m.world(t).node_order)) - 1 & ~nodes(t, body)
                if fails:
                    b = lowest(t, fails)
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
