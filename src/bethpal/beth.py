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

import functools
from dataclasses import dataclass
from typing import AbstractSet, Callable, Hashable, Iterable, Iterator, Mapping, Optional

from .formula import And, Atom, Formula, Imp, Neg, Or, BOT, TOP


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


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _up_masks(succ: list[set[int]]) -> Optional[list[int]]:
    """Each node's up-set as a bitmask (bit j of entry i is set iff j is
    reachable from i), given each node's successors; None when the edges
    have a cycle.  Kahn's algorithm finds a topological order, and in reverse
    of it every node ORs its successors' masks into its own, one OR per edge
    (Purdom, "A transitive closure algorithm", BIT 1970)."""
    indegree = [0] * len(succ)
    for targets in succ:
        for j in targets:
            indegree[j] += 1
    order = [i for i, d in enumerate(indegree) if not d]
    for i in order:                     # the list grows as nodes are freed
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < len(succ):
        return None
    up = [0] * len(succ)
    for i in reversed(order):
        mask = 1 << i
        for j in succ[i]:
            mask |= up[j]
        up[i] = mask
    return up


class BethModel:
    """Finite rooted Beth model, immutable after construction.  Every
    builder ends in this constructor, which checks nothing: it reads each
    node's sorted covers and the leaves off ``succ``, the listed successors
    by index, and ``up_mask``, the up-sets of their closure.  A cover is
    always listed: a longer path to it would pass through a node in between.

    The order is kept as bitmasks over ``node_order``: bit j of
    ``up_mask[i]`` is set iff node i is below or equal to node j, and bit i of
    ``leaf_mask`` iff node i is a leaf.  ``up`` and ``leq_pairs`` spell the
    same relation out as sets; they take space quadratic in the number of
    nodes, so they are built on first use."""

    def __init__(self, nodes: tuple[str, ...], index: dict[str, int], succ: list[set[int]],
                 up_mask: list[int], root: str, val: dict[str, frozenset[str]],
                 atoms: frozenset[str]):
        covers: dict[str, tuple[str, ...]] = {}
        leaf_mask = 0
        for i, targets in enumerate(succ):
            if not targets:
                leaf_mask |= 1 << i
            through = 0         # reached through another listed successor
            for j in targets:
                through |= up_mask[j] ^ 1 << j
            covers[nodes[i]] = tuple(nodes[j] for j in sorted(targets) if not through >> j & 1)
        self.node_order = nodes                      # sorted, deterministic iteration
        self.nodes = frozenset(nodes)
        self.index = index                           # position in node_order
        self.up_mask = tuple(up_mask)
        self.covers = covers                         # sorted immediate successors
        self.leaf_mask = leaf_mask
        self.leaves = frozenset(self.names(leaf_mask))
        self.root = root
        self.val = val
        self.atoms = atoms
        self._points = None     # the layout dynamic.leaf_extension labels it on

    def names(self, mask: int) -> tuple[str, ...]:
        """The nodes whose bits are set in ``mask``, in ``node_order``."""
        nodes = self.node_order
        return tuple(nodes[i] for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")

    @functools.cached_property
    def up(self) -> dict[str, frozenset[str]]:
        return {a: frozenset(self.names(u)) for a, u in zip(self.node_order, self.up_mask)}

    @functools.cached_property
    def leq_pairs(self) -> frozenset[tuple[str, str]]:
        """The reflexive-transitive order as pairs."""
        return frozenset((a, b) for a, u in zip(self.node_order, self.up_mask)
                         for b in self.names(u))

    def leq(self, a: str, b: str) -> bool:
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and bool(self.up_mask[i] >> j & 1)

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
    NonMonotoneValuation, or UnknownNode, each naming the first witness in
    the order of node names.

    The closure takes one OR per listed edge (see :func:`_up_masks`), and
    the covers are read off the listed edges (see :class:`BethModel`).
    """
    node_tuple = tuple(sorted(set(nodes)))
    if not node_tuple:
        raise ModelError("a model needs at least one node")
    index = {a: i for i, a in enumerate(node_tuple)}
    succ: list[set[int]] = [set() for _ in node_tuple]     # self-loops add nothing
    try:
        for a, b in order:
            i = index[a]
            j = index[b]
            if i != j:
                succ[i].add(j)
    except KeyError as e:       # the first unknown node: a, then b, pair by pair
        raise UnknownNode(e.args[0]) from None
    if root not in index:
        raise UnknownNode(root)
    up = _up_masks(succ)
    if up is None:
        closed = transitive_closure(node_tuple, ((node_tuple[i], node_tuple[j])
                                                 for i, targets in enumerate(succ)
                                                 for j in targets))
        raise NotAPartialOrder(min((a, b) for a, b in closed if a != b and (b, a) in closed))
    missing = ((1 << len(node_tuple)) - 1) & ~up[index[root]]
    if missing:
        raise NoRoot((root, node_tuple[next(_bits(missing))]))
    valuation: dict[str, frozenset[str]] = dict.fromkeys(node_tuple, frozenset())
    if val:
        for a, atoms_at in val.items():
            if a not in index:
                raise UnknownNode(a)
            valuation[a] = frozenset(atoms_at)
    vals = list(valuation.values())
    # Inclusion is transitive, so the listed edges decide monotonicity; the
    # witness is the first lost pair of the whole order.
    if not all(vals[i] <= vals[j] for i, targets in enumerate(succ) for j in targets):
        a, b = next((i, j) for i in range(len(node_tuple)) for j in _bits(up[i])
                    if not vals[i] <= vals[j])
        raise NonMonotoneValuation(node_tuple[a], node_tuple[b], min(vals[a] - vals[b]))
    universe = frozenset(atoms) | frozenset().union(*vals)
    return BethModel(node_tuple, index, succ, up, root, valuation, universe)


def restrict(m: BethModel, keep: int) -> BethModel:
    """The sub-model of ``m`` on the nodes of the bitmask ``keep`` (over
    ``node_order``), a down-set that contains the root.

    Every node below a kept node is kept, so the kept covers of ``m`` are
    the covers of the sub-model, the root stays below every node and the
    valuation stays monotone: the sub-model needs no re-validation."""
    nodes = m.names(keep)
    index = {a: i for i, a in enumerate(nodes)}
    succ = [{index[b] for b in m.covers[a] if b in index} for a in nodes]
    return BethModel(nodes, index, succ, _up_masks(succ), m.root,
                     {a: m.val[a] for a in nodes}, m.atoms)


def up_set(m: BethModel, a: str) -> frozenset[str]:
    m.ensure_node(a)
    return frozenset(m.names(m.up_mask[m.index[a]]))


def _walk(m: BethModel, a: str, bar: AbstractSet[str]) -> Iterator[tuple[str, ...]]:
    """The maximal paths from ``a`` that miss ``bar``, depth-first over the
    sorted covers.  A node the walk leaves without having found a path
    through it is dead: no path from it misses ``bar``, whatever led to it,
    so the walk never enters it again.  Up to the first path every node and
    covering edge is visited at most once."""
    if a in bar:
        return
    path = [a]
    branches = [iter(m.covers[a])]
    found = 0           # the nodes of path[:found] lie on a path yielded
    dead: set[str] = set()
    while branches:
        if not m.covers[path[-1]]:
            found = len(path)
            yield tuple(path)
        for nxt in branches[-1]:
            if nxt not in bar and nxt not in dead:
                path.append(nxt)
                branches.append(iter(m.covers[nxt]))
                break
        else:
            if len(path) > found:
                dead.add(path[-1])
            path.pop()
            branches.pop()
            found = min(found, len(path))


def maximal_paths(m: BethModel, a: str) -> tuple[tuple[str, ...], ...]:
    """All maximal ascending chains starting at ``a`` (each ends in a leaf),
    depth-first over the sorted covers.  Their number can be exponential in
    the size of the model, so this is for tests and small models only; bars
    are checked by :func:`avoiding_path`."""
    m.ensure_node(a)
    return tuple(_walk(m, a, frozenset()))


def avoiding_path(m: BethModel, a: str, bar: AbstractSet[str]) -> Optional[tuple[str, ...]]:
    """The first maximal path from ``a``, in :func:`maximal_paths` order, that
    misses ``bar``; None when every maximal path meets it.  The walk stops
    at that path, so each node and covering edge is visited at most once."""
    m.ensure_node(a)
    return next(_walk(m, a, bar), None)


def is_bar(m: BethModel, a: str, bar: Iterable[str]) -> bool:
    """True iff every maximal path from ``a`` meets ``bar`` (bar must sit
    inside the anchor's up-set).  Raises UnknownNode for the anchor, then
    for the first member of ``bar`` that is not a node, before
    NodeOutsideUpSet."""
    bar = frozenset(bar)
    outside = sorted(bar - up_set(m, a))
    if outside:
        for b in outside:
            m.ensure_node(b)
        raise NodeOutsideUpSet(outside[0], a)
    return avoiding_path(m, a, bar) is None


def forces_prop(m: BethModel, a: str, f: Formula) -> bool:
    """Propositional forcing at a node: atoms and ∨ through bars, → and ¬ by
    quantifying over the up-set.  On a finite model that is: every leaf
    above ``a`` forces ``f``."""
    from .dynamic import leaf_extension     # dynamic builds on this module
    m.ensure_node(a)
    return not m.up_mask[m.index[a]] & m.leaf_mask & ~leaf_extension(m, f)


MAX_LAYER = 100_000


def fingerprint_classes(fingerprint: Callable[[Formula], Hashable],
                        atoms: Iterable[str], max_depth: int) -> Iterator[Formula]:
    """The propositional formulas of depth <= ``max_depth`` over ``atoms``,
    the first of each ``fingerprint`` value in breadth-first order: atoms,
    top and bot, then layer by layer the negations and binary combinations
    of the classes found so far.  A layer without fresh classes cannot seed
    a fresh deeper one, so it ends the search.  Raises BoundTooLarge rather
    than build a layer of more than MAX_LAYER formulas, and ValueError for
    a negative ``max_depth``, which no formula meets."""
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, not {max_depth}")
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
    from .dynamic import leaf_extension
    classes = fingerprint_classes(
        lambda f: (leaf_extension(x.model, f), leaf_extension(y.model, f)),
        sorted(set(atoms)), d)
    return next((f for f in classes
                 if forces_prop(x.model, x.point, f) != forces_prop(y.model, y.point, f)),
                None)
