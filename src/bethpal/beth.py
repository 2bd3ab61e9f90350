"""Finite rooted Beth models: poset machinery, bars, and propositional forcing.

A model is a finite poset with a designated root below every node and a
monotone valuation (atoms true at a node stay true above it).  Truth at a
node is *forcing*: an atom or disjunction holds when a bar (a set of nodes
met by every maximal ascending path) settles it.  On finite models every
path ends in a leaf, where forcing is classical over the leaf's valuation;
consequently a node forces an atom iff every leaf above it carries the atom,
even when the node itself does not.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Hashable, Iterable, Iterator, Mapping, Optional

from .formula import And, Atom, Formula, Imp, Neg, Or, BOT, TOP, is_propositional


class ModelError(ValueError):
    pass


class NotAPartialOrder(ModelError):
    def __init__(self, witness: tuple[str, str]):
        super().__init__(f"order has a cycle through {witness[0]!r} and {witness[1]!r}")
        self.witness = witness


class NoRoot(ModelError):
    def __init__(self, witness: tuple[str, str]):
        super().__init__(f"declared root {witness[0]!r} is not below node {witness[1]!r}")
        self.witness = witness


class NonMonotoneValuation(ModelError):
    def __init__(self, lower: str, upper: str, atom: str):
        super().__init__(f"atom {atom!r} holds at {lower!r} but not at {upper!r} above it")
        self.witness = (lower, upper, atom)


class UnknownNode(ModelError):
    def __init__(self, node: str):
        super().__init__(f"unknown node {node!r}")
        self.node = node


class NodeOutsideUpSet(ModelError):
    def __init__(self, node: str, anchor: str):
        super().__init__(f"node {node!r} is not above the anchor {anchor!r}")


class NonPropositionalFormula(ModelError):
    def __init__(self, f: Formula):
        super().__init__(f"formula is not propositional: {f}")


class BoundTooLarge(ValueError):
    pass


def transitive_closure(nodes: Iterable[str], pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Reflexive-transitive closure of a relation over the given nodes."""
    nodes = list(nodes)
    reach: dict[str, set[str]] = {a: {a} for a in nodes}
    for a, b in pairs:
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in nodes:
            extra = set()
            for b in reach[a]:
                extra |= reach[b]
            if not extra <= reach[a]:
                reach[a] |= extra
                changed = True
    return frozenset((a, b) for a in nodes for b in reach[a])


class BethModel:
    """Validated finite rooted Beth model.  Immutable after construction;
    build instances through :func:`validate_beth`."""

    def __init__(self, nodes: tuple[str, ...], leq: frozenset[tuple[str, str]],
                 root: str, val: Mapping[str, frozenset[str]], atoms: frozenset[str]):
        self.node_order = nodes                      # sorted, deterministic iteration
        self.nodes = frozenset(nodes)
        self.leq_pairs = leq                         # reflexive-transitive closure
        self.root = root
        self.val = dict(val)
        self.atoms = atoms
        self.up: dict[str, frozenset[str]] = {
            a: frozenset(b for b in nodes if (a, b) in leq) for a in nodes
        }
        self.covers: dict[str, tuple[str, ...]] = {}
        for a in nodes:
            above = [b for b in self.up[a] if b != a]
            self.covers[a] = tuple(sorted(
                b for b in above
                if not any(c != b and (c, b) in leq for c in above)
            ))
        self.leaves = frozenset(a for a in nodes if not self.covers[a])
        self._kripke = None         # this model as a one-world BethKripkeModel

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.leq_pairs

    def ensure_node(self, a: str) -> None:
        if a not in self.nodes:
            raise UnknownNode(a)

    def __repr__(self) -> str:
        return f"BethModel(nodes={self.node_order!r}, root={self.root!r})"


@dataclass(frozen=True)
class PointedBeth:
    model: BethModel
    point: str

    def __post_init__(self):
        self.model.ensure_node(self.point)


def validate_beth(nodes: Iterable[str], order: Iterable[tuple[str, str]], root: str,
                  val: Mapping[str, Iterable[str]] | None = None,
                  atoms: Iterable[str] = ()) -> BethModel:
    """Check a raw model description and return the validated model.

    ``order`` may list covering edges only; the stored relation is the
    reflexive-transitive closure.  Raises NotAPartialOrder, NoRoot,
    NonMonotoneValuation, or UnknownNode.
    """
    node_tuple = tuple(sorted(set(nodes)))
    if not node_tuple:
        raise ModelError("a model needs at least one node")
    node_set = set(node_tuple)
    order = list(order)
    for a, b in order:
        if a not in node_set:
            raise UnknownNode(a)
        if b not in node_set:
            raise UnknownNode(b)
    if root not in node_set:
        raise UnknownNode(root)
    closed = transitive_closure(node_tuple, order)
    for a, b in closed:
        if a != b and (b, a) in closed:
            raise NotAPartialOrder((a, b))
    for b in node_tuple:
        if (root, b) not in closed:
            raise NoRoot((root, b))
    valuation: dict[str, frozenset[str]] = {a: frozenset() for a in node_tuple}
    if val:
        for a, atoms_at in val.items():
            if a not in node_set:
                raise UnknownNode(a)
            valuation[a] = frozenset(atoms_at)
    for a, b in closed:
        if a != b:
            missing = valuation[a] - valuation[b]
            if missing:
                raise NonMonotoneValuation(a, b, sorted(missing)[0])
    universe = frozenset(atoms) | frozenset().union(*valuation.values())
    return BethModel(node_tuple, closed, root, valuation, universe)


def up_set(m: BethModel, a: str) -> frozenset[str]:
    m.ensure_node(a)
    return m.up[a]


def maximal_paths(m: BethModel, a: str) -> tuple[tuple[str, ...], ...]:
    """All maximal ascending chains starting at ``a`` (each ends in a leaf),
    depth-first over the sorted covers.  Their number can be exponential in
    the size of the model, so this is for tests and small models only; bars
    are checked by :func:`avoiding_path`."""
    m.ensure_node(a)
    out: list[tuple[str, ...]] = []
    path = [a]
    branches = [iter(m.covers[a])]
    while branches:
        nxt = next(branches[-1], None)
        if nxt is None:
            if not m.covers[path[-1]]:
                out.append(tuple(path))
            path.pop()
            branches.pop()
        else:
            path.append(nxt)
            branches.append(iter(m.covers[nxt]))
    return tuple(out)


def avoiding_path(m: BethModel, a: str, bar: AbstractSet[str]) -> Optional[tuple[str, ...]]:
    """The first maximal path from ``a``, in :func:`maximal_paths` order, that
    misses ``bar``; None when every maximal path meets it.

    A depth-first walk over the sorted covers that never enters ``bar`` and
    never re-enters a dead node (one from which no walk reaches a leaf
    outside ``bar``), so each node and covering edge is visited at most once.
    """
    m.ensure_node(a)
    if a in bar:
        return None
    path = [a]
    branches = [iter(m.covers[a])]
    dead: set[str] = set()
    while branches:
        if not m.covers[path[-1]]:
            return tuple(path)
        for nxt in branches[-1]:
            if nxt not in bar and nxt not in dead:
                path.append(nxt)
                branches.append(iter(m.covers[nxt]))
                break
        else:
            dead.add(path.pop())
            branches.pop()
    return None


def is_bar(m: BethModel, a: str, bar: Iterable[str]) -> bool:
    """True iff every maximal path from ``a`` meets ``bar`` (bar must sit
    inside the anchor's up-set)."""
    bar = frozenset(bar)
    outside = bar - up_set(m, a)
    if outside:
        raise NodeOutsideUpSet(sorted(outside)[0], a)
    return avoiding_path(m, a, bar) is None


def extension(m: BethModel, f: Formula) -> int:
    """The nodes of ``m`` forcing the propositional formula ``f``, as a
    bitmask (bit i is ``m.node_order[i]``), read from the labeling of
    :mod:`bethpal.dynamic` on ``m`` as a world of its own."""
    if not is_propositional(f):
        raise NonPropositionalFormula(f)
    from .dynamic import BethKripkeModel, _ext     # dynamic builds on this module
    if m._kripke is None:
        m._kripke = BethKripkeModel({"w": m}, (), {})
    return _ext(m._kripke, f)


def forces_prop(m: BethModel, a: str, f: Formula) -> bool:
    """Propositional forcing at a node: atoms and ∨ through bars, → and ¬ by
    quantifying over the up-set."""
    m.ensure_node(a)
    return bool(extension(m, f) >> m.node_order.index(a) & 1)


MAX_LAYER = 100_000


def fingerprint_classes(fingerprint: Callable[[Formula], Hashable],
                        atoms: Iterable[str], max_depth: int) -> Iterator[Formula]:
    """The propositional formulas of depth <= ``max_depth`` over ``atoms``,
    the first of each ``fingerprint`` value in breadth-first order: atoms,
    top and bot, then layer by layer the negations and binary combinations
    of the classes found so far.  A layer without fresh classes cannot seed
    a fresh deeper one, so it ends the search.  Raises BoundTooLarge rather
    than build a layer of more than MAX_LAYER formulas."""
    seen: set[Hashable] = set()
    reps: list[Formula] = []
    frontier: list[Formula] = [Atom(a) for a in atoms] + [TOP, BOT]
    for level in range(max_depth + 1):
        fresh: list[Formula] = []
        for f in frontier:
            fp = fingerprint(f)
            if fp not in seen:
                seen.add(fp)
                fresh.append(f)
                yield f
        reps.extend(fresh)
        if level == max_depth or not fresh:
            return
        size = len(reps) + 3 * len(reps) ** 2
        if size > MAX_LAYER:
            raise BoundTooLarge(f"depth {level + 1} needs a layer of {size:,} formulas, "
                                f"more than {MAX_LAYER:,}")
        frontier = [Neg(r) for r in reps]
        frontier += [ctor(a, b) for ctor in (And, Or, Imp) for a in reps for b in reps]


def equivalent_up_to_depth(x: PointedBeth, y: PointedBeth, d: int,
                           atoms: Iterable[str]) -> Optional[Formula]:
    """Search for a propositional formula of depth <= d over ``atoms`` whose
    forcing differs between the two pointed models; None if the models agree
    on every such formula.

    Candidates are explored breadth-first by depth with duplicate pruning by
    semantic fingerprint (see :func:`fingerprint_classes`), so the search
    space stays small even at generous depths.
    """
    classes = fingerprint_classes(lambda f: (extension(x.model, f), extension(y.model, f)),
                                  sorted(set(atoms)), d)
    return next((f for f in classes
                 if forces_prop(x.model, x.point, f) != forces_prop(y.model, y.point, f)),
                None)
