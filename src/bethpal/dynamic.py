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
is a mask of live leaves, which verdicts and traces read alike; only
:func:`announce` and :func:`restrict_world` build an updated model.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from . import beth
from .beth import BethModel
from .formula import (
    And, Announce, Atom, Bot, Diamond, Formula, Imp, Know, Neg, Or, Top, TOP,
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
    names.  Immutable; extensions are memoized on its layout, so a
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
    """A layout: the masks the labeling reads, and the memo of the
    extensions labeled on it (see :func:`_ext`).  A layout is a base of
    ``width`` points repeated over the copies in ``spread``: copy b holds
    bits b·width to b·width + width - 1, and bit b·width of ``spread`` is
    set.  A model's own layout is one copy (``spread == 1``).  Only leaf
    points are ever set.  It refers to no model, so it keeps none alive."""

    def __init__(self, width: int, spread: int, world: dict, atoms: dict, knows: dict):
        self.width = width      # the base's point count
        self.spread = spread
        self.world = world      # the world's leaves in the base; the worlds hold consecutive points
        self.atoms = atoms      # leaves carrying the atom, in every copy
        self.knows = knows      # agent -> [(copies, [(worlds' leaves, their successors' leaves)])]
        self.all = sum(world.values()) * spread
        self.labels: dict[tuple[Optional[int], Formula], int] = {}

    def empty(self, x: int, copies: int) -> int:
        """The copies of ``copies`` (a part of ``spread``) where the mask
        ``x`` has no bit, all at once: within each of their fields the bits
        below the top one carry into it when any is set, and no carry leaves
        a field."""
        top = self.width - 1
        low = copies * ((1 << top) - 1)
        return copies & ~(((x & low) + low | x) >> top)


def _lay_out(worlds: Mapping[str, BethModel], access: Mapping) -> _Points:
    """The layout of ``worlds`` in their order, a world's points being its
    nodes in ``node_order``, with the K masks of the relations ``access``."""
    world, atoms, size = {}, {}, 0
    for s, w in worlds.items():
        world[s] = w.leaf_mask << size
        for i in beth._bits(w.leaf_mask):
            for atom in w.val[w.node_order[i]]:
                atoms[atom] = atoms.get(atom, 0) | 1 << size + i
        size += len(w.node_order)
    return _Points(size, 1, world, atoms, _Knows(world, access))


class _Knows(dict):
    """The K masks of a layout's ``world`` masks under the relations
    ``access``, built per agent on first read: one pair per distinct
    successor set (one per block of an equivalence), in the one copy."""

    def __init__(self, world: dict, access: Mapping):
        self.world, self.access = world, access

    def __missing__(self, agent: str) -> list[tuple[int, list[tuple[int, int]]]]:
        if agent not in self.access:
            raise UnknownAgent(agent)
        succ = dict.fromkeys(self.world, 0)
        for s, t in self.access[agent]:
            succ[s] |= self.world[t]
        owners: dict[int, int] = {}      # successors' leaves -> the worlds' leaves
        for s, leaves in succ.items():
            owners[leaves] = owners.get(leaves, 0) | self.world[s]
        masks = self[agent] = [(1, [(own, leaves) for leaves, own in owners.items()])]
        return masks


def _layout(m: BethKripkeModel) -> _Points:
    if m._points is None:
        m._points = _lay_out(m.worlds, m.access)
    return m._points


def _leaves(m: BethKripkeModel, s: str, f: Formula, alive: Optional[int] = None) -> int:
    """The leaves of world ``s`` forcing ``f`` under the live leaves ``alive``
    (see :func:`_ext`), over its ``node_order``."""
    pts, w = _layout(m), m.worlds[s]
    shift = pts.world[s].bit_length() - w.leaf_mask.bit_length()    # the world's first point
    return _ext(pts, f, alive) >> shift & w.leaf_mask


def _spread(n: int, width: int) -> int:
    """Bit b·``width`` set for each b < ``n``."""
    return ((1 << n * width) - 1) // ((1 << width) - 1)


def _union(base: _Points, copies: int, leaves: Mapping[str, int],
           agents: Mapping[str, Mapping[str, int]]) -> _Points:
    """The union of ``copies`` copies of the one-copy layout ``base``, one
    per binding of a schema's metavariables: copy b holds the points of
    ``base`` shifted by b·``base.width``.  Formula metavariable X is an atom
    holding on the leaves ``leaves[X]``, over every copy, and agent
    metavariable i an agent with the K masks of agent a in the copies
    ``agents[i][a]`` (bit b·``base.width`` for copy b; an agent no copy
    chooses is left out).  The atoms of ``base`` hold in every copy.

    K reads pairs within a copy and an update keeps or drops each world on
    its own, so copy b of a schema's extension is the extension of its
    instance under binding b, when copy b of ``leaves[X]`` is the extension
    of a propositional formula bound to X: under the live leaves ``alive``
    that formula holds on ``alive`` and those leaves, as the atom X does."""
    width = base.width
    spread = _spread(copies, width)
    atoms = {atom: mask * spread for atom, mask in base.atoms.items()}
    atoms.update(leaves)
    knows = {var: [(copies_a, pairs) for agent, copies_a in choosing.items()
                   for _, pairs in base.knows[agent]]
             for var, choosing in agents.items()}
    return _Points(width, spread, base.world, atoms, knows)


def _first_failure(pts: _Points, f: Formula) -> Optional[tuple[int, str]]:
    """The first copy of ``pts`` and its first world, in order, whose root
    does not force ``f``: the copy and point of the lowest failing leaf."""
    failed = pts.all & ~_ext(pts, f)
    if not failed:
        return None
    copy, point = divmod((failed & -failed).bit_length() - 1, pts.width)
    return copy, next(s for s, world in pts.world.items() if world >> point & 1)


def _ext(pts: _Points, f: Formula, alive: Optional[int] = None) -> int:
    """The leaves forcing ``f`` on the layout ``pts`` updated to the leaves
    ``alive`` (None: every leaf), as a bitmask, memoized on the layout."""
    key = (alive, f)
    hit = pts.labels.get(key)
    if hit is None:
        hit = pts.labels[key] = _label(pts, f, alive)
    return hit


def _label(pts: _Points, f: Formula, alive: Optional[int]) -> int:
    """The clauses of the labeling: the extension of ``f`` on the layout
    ``pts`` updated to the leaves ``alive``, from the extensions :func:`_ext`
    gives its arguments.  At a leaf the connectives are classical; K and the
    announcement operators hold on all live leaves of a world or on none."""
    live = pts.all if alive is None else alive
    match f:
        case Top():
            return live
        case Bot():
            return 0
        case Atom(name):
            return live & pts.atoms.get(name, 0)
        case And(x, y):
            return _ext(pts, x, alive) & _ext(pts, y, alive)
        case Or(x, y):
            return _ext(pts, x, alive) | _ext(pts, y, alive)
        case Imp(x, y):
            return live & ~_ext(pts, x, alive) | _ext(pts, y, alive)
        case Neg(x):
            return live & ~_ext(pts, x, alive)
        case Know(agent, body):
            # A world knows the body in the copies where no successor misses it.
            missing = live & ~_ext(pts, body, alive)
            return live & sum(own * pts.empty(missing & succ * pts.spread, copies)
                              for copies, pairs in pts.knows[agent] for own, succ in pairs)
        case Announce(ann, body) | Diamond(ann, body):
            # A world without kept leaves is dropped, where [φ] holds and <φ>
            # does not; a kept world's updated root forces the body when
            # every kept leaf does.  With no kept leaf the body is not read.
            kept = _ext(pts, ann, alive)
            failed = kept & ~_ext(pts, body, kept) if kept else 0
            spread, holds = pts.spread, 0
            for world in pts.world.values():
                copies = pts.empty(failed & world * spread, spread)
                if isinstance(f, Diamond):
                    copies &= ~pts.empty(kept & world * spread, spread)
                holds |= world * copies
            return live & holds
    raise TypeError(f"not a formula: {f!r}")


def leaf_extension(w: BethModel, f: Formula) -> int:
    """The leaves of the bare model ``w`` forcing the propositional formula
    ``f``, as a bitmask over ``w.node_order``: ``w`` is labeled on the layout
    of a model without agents whose one world it is, which ``w`` keeps.  The
    memo holds propositional formulas only, so ``f`` is checked on a miss."""
    if w._points is None:
        w._points = _lay_out({"w": w}, {})
    hit = w._points.labels.get((None, f))
    if hit is None:
        if not is_propositional(f):
            raise beth.NonPropositionalFormula(f)
        hit = _ext(w._points, f)
    return hit


def _lift(w: BethModel, leaves: int, live: int) -> int:
    """The nodes of ``w`` with a leaf of ``live`` above whose leaves of
    ``live`` above all lie in ``leaves``, all over ``node_order``: the nodes
    an update to the leaves ``live`` keeps that force a formula with the
    leaf extension ``leaves``."""
    missing = live & ~leaves
    return sum(1 << i for i, up in enumerate(w.up_mask) if up & live and not up & missing)


def _eval(m: BethKripkeModel, s: str, node: str, f: Formula, alive: Optional[int] = None) -> bool:
    w = m.world(s)
    w.ensure_node(node)
    return not w.up_mask[w.index[node]] & _leaves(m, s, TOP, alive) & ~_leaves(m, s, f, alive)


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
    w = m.world(s)
    leaves = _leaves(m, s, ann)
    return beth.restrict(w, _lift(w, leaves, leaves)) if leaves else None


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
    survivors = {s: w for s in m.world_order if (w := restrict_world(m, s, ann)) is not None}
    access = {
        agent: frozenset((a, b) for (a, b) in pairs if a in survivors and b in survivors)
        for agent, pairs in m.access.items()
    }
    return BethKripkeModel(survivors, m.agents, access)


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


def _explain(m: BethKripkeModel, s: str, node: str, f: Formula, max_items: int,
             alive: Optional[int] = None) -> Trace:
    """The evaluation tree of ``f`` at ``node`` of world ``s`` under the live
    leaves ``alive`` (see :func:`_ext`).  Its evidence is read off the
    extensions the labeling computed for the verdict: the update to
    ``alive`` keeps the nodes with a live leaf above, and the kept nodes of
    a world forcing a subformula are :func:`_lift` of its extension there."""
    w = m.world(s)
    value = _eval(m, s, node, f, alive)
    up = w.up_mask[w.index[node]]
    live = _leaves(m, s, TOP, alive)

    def sub(n: str, g: Formula) -> Trace:
        return _explain(m, s, n, g, max_items, alive)

    def nodes(t: str, g: Formula) -> int:
        return _lift(m.world(t), _leaves(m, t, g, alive), _leaves(m, t, TOP, alive))

    def lowest(t: str, mask: int) -> str:
        return m.world(t).node_order[(mask & -mask).bit_length() - 1]

    def settles(bar: Iterable[str], what: str, escape: str) -> str:
        """The bar above ``node`` that settles the value, or the first path
        that misses it: a path of the kept nodes ends in a live leaf."""
        if value:
            return f"bar {_fmt_nodes(bar, max_items)} settles {what}"
        avoid = frozenset(bar).union(w.names(w.leaf_mask & ~live))
        return f"path {list(beth.avoiding_path(w, node, avoid))} {escape}"

    match f:
        case Top() | Bot():
            return Trace(s, node, f, "constant", value)
        case Atom(name):
            note = settles((b for b in w.names(up)
                            if name in w.val[b] and w.up_mask[w.index[b]] & live),
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
            return Trace(s, node, f, "implies", value, "holds at every node of "
                         f"{_fmt_nodes(w.names(up & nodes(s, TOP)), max_items)}")
        case Neg(x):
            forced = up & nodes(s, x)
            if forced:
                b = lowest(s, forced)
                return Trace(s, node, f, "not", value,
                             f"body forced above at {b!r}", (sub(b, x),))
            return Trace(s, node, f, "not", value, "body fails at every node of "
                         f"{_fmt_nodes(w.names(up & nodes(s, TOP)), max_items)}")
        case Know(agent, body):
            succ = [t for t in m.successors(agent, s) if _leaves(m, t, TOP, alive)]
            for t in succ:
                fails = nodes(t, TOP) & ~nodes(t, body)
                if fails:
                    b = lowest(t, fails)
                    return Trace(s, node, f, "knows", value,
                                 f"fails in accessible world {t!r} at {b!r}",
                                 (_explain(m, t, b, body, max_items, alive),))
            return Trace(s, node, f, "knows", value,
                         f"holds at every node of accessible worlds {_fmt_nodes(succ, max_items)}"
                         if succ else "no accessible worlds")
        case Announce(ann, body) | Diamond(ann, body):
            rule = "diamond" if isinstance(f, Diamond) else "announce"
            kept = _leaves(m, s, ann, alive)
            if not kept:
                note = "announcement not executable: root forces the negation"
                return Trace(s, node, f, rule, value, note,
                             (sub(w.root, Neg(ann)),))
            dropped = w.names(nodes(s, TOP) & ~_lift(w, kept, kept))
            note = (f"announcement executable; dropped nodes {_fmt_nodes(dropped, max_items)}"
                    if dropped else "announcement executable; no node dropped")
            return Trace(s, node, f, rule, value, note,
                         (_explain(m, s, w.root, body, max_items, _ext(_layout(m), ann, alive)),))


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
