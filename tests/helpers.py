"""Independent reference implementations used as oracles by the tests.

These deliberately avoid the library's own poset/forcing machinery: chains
are enumerated from subsets, classical truth is a direct table walk.
"""
from __future__ import annotations

import itertools
import re
from typing import Iterable

from bethpal.formula import And, Atom, Bot, Formula, Imp, Neg, Or, Top
from bethpal.modeldoc import _COMMENT, _PUNCT, DocumentError


def brute_maximal_chains(nodes, leq_pairs, anchor):
    """All maximal linearly ordered subsets of the anchor's up-set that
    contain the anchor, found by filtering every subset."""
    up = [b for b in nodes if (anchor, b) in leq_pairs]
    chains = []
    for r in range(1, len(up) + 1):
        for combo in itertools.combinations(up, r):
            if anchor not in combo:
                continue
            if all((a, b) in leq_pairs or (b, a) in leq_pairs
                   for a, b in itertools.combinations(combo, 2)):
                chains.append(frozenset(combo))
    maximal = [c for c in chains if not any(c < d for d in chains)]
    return {
        tuple(sorted(c, key=lambda x: sum((x, b) in leq_pairs for b in c), reverse=True))
        for c in maximal
    }


def every_valuation_model(atoms):
    """One world: a root below one leaf per valuation of ``atoms``."""
    from bethpal.beth import validate_beth
    from bethpal.dynamic import BethKripkeModel
    leaves = [f"l{k}" for k in range(1 << len(atoms))]
    val = {leaf: {a for i, a in enumerate(atoms) if k >> i & 1}
           for k, leaf in enumerate(leaves)}
    world = validate_beth(["r", *leaves], [("r", v) for v in leaves], "r", val)
    return BethKripkeModel({"w": world}, (), {})


def reference_semantic_reps(m, search):
    """``lab._semantic_reps`` as it read the leaf valuations through the
    node names: the set of every leaf's atoms among ``atoms``, world by
    world, and its classes searched afresh, uncached, on a root below one
    leaf per valuation (sorted), labeled as the one world of a model."""
    from bethpal.beth import fingerprint_classes, validate_beth
    from bethpal.dynamic import BethKripkeModel, _ext, _layout
    atoms, depth = search
    keep = frozenset(atoms)
    valuations = frozenset(w.val[leaf] & keep for w in m.worlds.values()
                           for leaf in w.names(w.leaf_mask))
    leaves = [f"v{i}" for i in range(len(valuations))]
    world = validate_beth(["root", *leaves], [("root", v) for v in leaves], "root",
                          dict(zip(leaves, sorted(valuations, key=sorted))))
    pts = _layout(BethKripkeModel({"w": world}, (), {}))
    return list(fingerprint_classes(lambda f: _ext(pts, f), atoms, depth))


def reference_classes(atoms, depth, codes):
    """``lab._classes`` as it searched a fan: the valuations of the codes
    whose bits ``codes`` sets, sorted, each on its own leaf above a root,
    and a built world labeled as the one world of a model, at offset 0;
    each code's representatives read back through its valuation's leaf."""
    from bethpal.beth import _bits, fingerprint_classes, validate_beth
    from bethpal.dynamic import BethKripkeModel, _ext, _layout
    valuation = {code: frozenset(a for k, a in enumerate(atoms) if code >> k & 1)
                 for code in _bits(codes)}
    order = sorted(valuation.values(), key=sorted)
    leaves = [f"v{i}" for i in range(len(order))]
    world = validate_beth(["root", *leaves], [("root", v) for v in leaves], "root",
                          dict(zip(leaves, order)))
    pts = _layout(BethKripkeModel({"w": world}, (), {}))
    reps = tuple(fingerprint_classes(lambda f: _ext(pts, f), atoms, depth))
    ext = [_ext(pts, f) for f in reps]
    leaf = {v: 1 << world.index[name] for v, name in zip(order, leaves)}
    return reps, tuple((code, tuple(k for k, mask in enumerate(ext) if mask & leaf[v]))
                       for code, v in valuation.items())


def per_copy_masks(width, columns, choices):
    """The masks of a union of model copies (see ``dynamic._union``), built
    one copy at a time: formula metavariable X holds on ``columns[X][b]``
    in copy b, and agent metavariable i maps each agent to the copies b
    with ``choices[i][b]`` that agent, bit b·``width`` per copy; an agent
    no copy chooses is left out."""
    leaves = {var: sum(mask << b * width for b, mask in enumerate(column))
              for var, column in columns.items()}
    knows = {}
    for var, chosen in choices.items():
        choosing = knows[var] = {}
        for b, agent in enumerate(chosen):
            choosing[agent] = choosing.get(agent, 0) | 1 << b * width
    return leaves, knows


def classical_eval(true_atoms: frozenset[str] | set[str], f: Formula) -> bool:
    """Truth-table evaluation, for the single-node collapse."""
    match f:
        case Atom(name):
            return name in true_atoms
        case Top():
            return True
        case Bot():
            return False
        case Neg(x):
            return not classical_eval(true_atoms, x)
        case And(x, y):
            return classical_eval(true_atoms, x) and classical_eval(true_atoms, y)
        case Or(x, y):
            return classical_eval(true_atoms, x) or classical_eval(true_atoms, y)
        case Imp(x, y):
            return (not classical_eval(true_atoms, x)) or classical_eval(true_atoms, y)
    raise TypeError(f"not propositional: {f!r}")


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


def reference_beth(nodes, order, root, val=None, atoms=()):
    """The set-based construction of a Beth model that ``validate_beth``
    used before the order became bitmasks: a fixpoint closure over sets, the
    up-sets and covers by testing every pair and triple, the leaves as the
    nodes without covers.  Cubic in the number of nodes.  Returns the model's
    fields as a dict; raises the errors ``validate_beth`` raises, with the
    same witnesses."""
    from bethpal.beth import (
        ModelError, NoRoot, NonMonotoneValuation, NotAPartialOrder, UnknownNode,
    )
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
    cycle = [(a, b) for a, b in closed if a != b and (b, a) in closed]
    if cycle:
        raise NotAPartialOrder(min(cycle))
    for b in node_tuple:
        if (root, b) not in closed:
            raise NoRoot((root, b))
    valuation = {a: frozenset() for a in node_tuple}
    for a, atoms_at in (val or {}).items():
        if a not in node_set:
            raise UnknownNode(a)
        valuation[a] = frozenset(atoms_at)
    lost = [(a, b) for a, b in closed if not valuation[a] <= valuation[b]]
    if lost:
        a, b = min(lost)
        raise NonMonotoneValuation(a, b, min(valuation[a] - valuation[b]))
    up = {a: frozenset(b for b in node_tuple if (a, b) in closed) for a in node_tuple}
    covers = {}
    for a in node_tuple:
        above = [b for b in up[a] if b != a]
        covers[a] = tuple(sorted(b for b in above
                                 if not any(c != b and (c, b) in closed for c in above)))
    return {
        "node_order": node_tuple,
        "leq_pairs": closed,
        "up": up,
        "covers": covers,
        "leaves": frozenset(a for a in node_tuple if not covers[a]),
        "root": root,
        "val": valuation,
        "atoms": frozenset(atoms) | frozenset().union(*valuation.values()),
    }


def reference_random_beth(rng, max_nodes, atoms):
    """``lab.random_beth`` as it was built before it built its model itself:
    the same draws, then the named edges and valuation through
    ``validate_beth``."""
    from bethpal.beth import validate_beth
    atoms = tuple(atoms)
    extra = rng.randint(0, max_nodes - 1)
    names = [f"m{i}" for i in range(extra + 1)]
    edges = [("m0", names[j]) for j in range(1, extra + 1)]
    for i in range(1, extra + 1):
        for j in range(i + 1, extra + 1):
            if rng.random() < 0.4:
                edges.append((names[i], names[j]))
    val = {name: {atom for atom in atoms if rng.random() < 0.3} for name in names}
    for a, b in edges:
        val[b] |= val[a]
    return validate_beth(names, edges, "m0", val, atoms)


_TOKEN = re.compile(r"\w+|\S")


def reference_tokenize(text: str) -> list[str]:
    """``modeldoc._tokenize`` as one regular expression over the text:
    every run of word characters and every other non-space character is a
    token, and the first token that is neither punctuation nor a word that
    starts with a letter or ``_`` is a stray character, named on its line.
    Returns the tokens ended by ``""``."""
    toks = _TOKEN.findall(_COMMENT.sub("", text))
    stray = {t for t in set(toks) if not (t[0].isalpha() or t[0] == "_" or t in _PUNCT)}
    if stray:
        k = next(k for k, t in enumerate(toks) if t in stray)
        raise DocumentError(f"stray character {toks[k][0]!r}", reference_line(text, k))
    toks.append("")
    return toks


def reference_line(text: str, k: int) -> int:
    """The line of token ``k`` of ``reference_tokenize(text)``, counted
    line by line; the end marker is on the line of the last token, or on
    line 1 if there is none."""
    line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        n = len(_TOKEN.findall(_COMMENT.sub("", raw)))
        if n:
            if k < n:
                return lineno
            k -= n
            line = lineno
    return line
