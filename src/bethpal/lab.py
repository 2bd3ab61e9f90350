"""Randomized validity lab: model generators, exhaustive small-model
enumeration, schema validity trials, the announcement-reduction experiment,
a cache-free reference evaluator, and the non-translatability witness.

Everything here is reproducible: a generator consumes one seeded RNG in a
fixed order, and per-trial seeds are split deterministically, so the model
of trial t depends only on ``split_seed(seed, t)``.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import beth, dynamic, modeldoc
from .beth import BethModel, BoundTooLarge, fingerprint_classes, validate_beth
from .dynamic import BethKripkeModel
from .formula import (
    And, Announce, Atom, Bot, Diamond, Formula, Imp, Know, Neg, Or, Top,
    TOP, is_metavariable, print_formula, subformulas, substitute,
)

ATOM_NAMES = ("p", "q", "r", "s", "u", "v", "w", "x", "y", "z")
AGENT_NAMES = ("a", "b", "c", "d", "e", "f")

_M64 = (1 << 64) - 1


def split_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit stream split (splitmix64 step)."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


# random_beth draws an edge between every pair of nodes, so a world costs
# time and memory in the square of its nodes; an S5 relation costs the same
# in the square of the worlds.
MAX_NODES_PER_WORLD = 1000
MAX_WORLDS = 1000


@dataclass(frozen=True)
class GenParams:
    max_nodes_per_world: int = 4
    max_worlds: int = 3
    num_agents: int = 2
    atom_count: int = 2
    seed: int = 0
    s5: bool = True

    def __post_init__(self):
        if min(self.max_nodes_per_world, self.max_worlds, self.num_agents, self.atom_count) < 1:
            raise ValueError("all generation bounds must be >= 1")
        if self.max_nodes_per_world > MAX_NODES_PER_WORLD:
            raise ValueError(f"at most {MAX_NODES_PER_WORLD} nodes per world, "
                             f"not {self.max_nodes_per_world}")
        if self.max_worlds > MAX_WORLDS:
            raise ValueError(f"at most {MAX_WORLDS} worlds, not {self.max_worlds}")
        nodes = self.max_nodes_per_world * self.max_worlds
        if nodes > modeldoc.MAX_DOCUMENT_NODES:
            # A counterexample is printed as a document, which must load back.
            raise BoundTooLarge(f"{self.max_worlds} worlds of up to {self.max_nodes_per_world} "
                                f"nodes may make a model of {nodes:,} nodes, more than "
                                f"the {modeldoc.MAX_DOCUMENT_NODES:,} a document may list")
        if self.atom_count > len(ATOM_NAMES) or self.num_agents > len(AGENT_NAMES):
            raise ValueError(f"at most {len(ATOM_NAMES)} atoms and "
                             f"{len(AGENT_NAMES)} agents can be named")


@functools.lru_cache(maxsize=1)
def _world_names() -> tuple[str, ...]:
    """The name of the world :func:`random_model` draws i-th, for every i
    it may draw; built on the first draw, not at import."""
    return tuple(f"w{i}" for i in range(MAX_WORLDS))


@functools.lru_cache(maxsize=64)
def _drawn_order(n: int) -> tuple[tuple[str, ...], tuple[int, ...], dict[str, int]]:
    """The sorted names m{i} of n drawn nodes, each drawn node's position
    among them (sorting puts m10 before m2), and the index of the names."""
    drawn = [f"m{i}" for i in range(n)]
    nodes = tuple(sorted(drawn))
    index = {a: i for i, a in enumerate(nodes)}
    return nodes, tuple(index[a] for a in drawn), index


@functools.lru_cache(maxsize=len(ATOM_NAMES))
def _atom_sets(atoms: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    """The set of atoms of every bitmask over ``atoms`` (bit k for
    ``atoms[k]``); the last is the set of all of them."""
    sets = [frozenset()]
    for atom in atoms:
        sets += [s | {atom} for s in sets]
    return tuple(sets)


def random_beth(rng: random.Random, max_nodes: int, atoms: Iterable[str]) -> BethModel:
    """Random rooted poset (random DAG plus a fresh root below everything)
    with a random monotone valuation.

    Node m{i} is drawn i-th and every edge goes from an earlier node to a
    later one, so the model is valid as drawn: it is built from its
    successor sets the way :func:`validate_beth` builds a model, without the
    checks.  The reverse of the drawn order is a topological order, so one
    pass over it ORs each node's up-mask from its successors'.  Valuations
    are drawn as bitmasks over ``atoms`` and inherited by OR."""
    atoms = tuple(atoms)
    if not 1 <= max_nodes <= MAX_NODES_PER_WORLD:
        raise ValueError(f"max_nodes must be between 1 and {MAX_NODES_PER_WORLD}, "
                         f"not {max_nodes}")
    if len(atoms) > len(ATOM_NAMES):
        raise ValueError(f"at most {len(ATOM_NAMES)} atoms, not {len(atoms)}")
    draw = rng.random
    n = rng.randint(0, max_nodes - 1) + 1
    nodes, at, index = _drawn_order(n)
    succ: list[set[int]] = [set(at[1:])]
    succ += [set() for _ in at[1:]]
    for i in range(1, n - 1):
        add = succ[at[i]].add
        for j in at[i + 1:]:
            if draw() < 0.4:
                add(j)
    # In the order drawn, a node has inherited all it will before it draws
    # its own atoms and passes them on, so the valuation is monotone.
    val = [0] * n
    for i in at:
        mask = val[i]
        bit = 1
        for _ in atoms:
            if draw() < 0.3:
                mask |= bit
            bit <<= 1
        if mask:
            val[i] = mask
            for j in succ[i]:
                val[j] |= mask
    up = [0] * n
    for i in reversed(at):
        mask = 1 << i
        for j in succ[i]:
            mask |= up[j]
        up[i] = mask
    sets = _atom_sets(atoms)
    return BethModel(nodes, index.copy(), succ, up, "m0",
                     dict(zip(nodes, [sets[mask] for mask in val])), sets[-1])


def random_model(p: GenParams, seed: Optional[int] = None) -> BethKripkeModel:
    """Reproducible random Beth-Kripke model; s5=True draws each agent's
    relation directly as a random partition of the worlds, s5=False draws a
    random irreflexive relation.  A given ``seed`` replaces ``p.seed``, so a
    trial draws from ``p``'s bounds and its own seed without new parameters."""
    rng = random.Random(p.seed if seed is None else seed)
    atoms = ATOM_NAMES[:p.atom_count]
    agents = AGENT_NAMES[:p.num_agents]
    world_names = _world_names()[:rng.randint(1, p.max_worlds)]
    worlds = {name: random_beth(rng, p.max_nodes_per_world, atoms) for name in world_names}
    access: dict[str, frozenset[tuple[str, str]]] = {}
    for agent in agents:
        if p.s5:
            blocks: list[list[str]] = []
            for name in world_names:
                k = rng.randrange(len(blocks) + 1)
                if k == len(blocks):
                    blocks.append([name])
                else:
                    blocks[k].append(name)
            access[agent] = frozenset(
                (x, y) for blk in blocks for x in blk for y in blk)
        else:
            access[agent] = frozenset(
                (x, y) for x in world_names for y in world_names
                if x != y and rng.random() < 0.35)
    return BethKripkeModel(worlds, agents, access)


_WEIGHTS = {And: 3, Announce: 1, Atom: 5, Bot: 1, Diamond: 1,
            Imp: 3, Know: 3, Neg: 3, Or: 3, Top: 1}
"""Draw weight of each node class, in the order of the class names."""


def random_formula(rng: random.Random, max_depth: int, atoms: Iterable[str],
                   agents: Iterable[str] = (), allow_announce: bool = False) -> Formula:
    """Grammar-directed sampling with per-connective weights and a hard
    depth cap: depth 0 draws an atom, top or bot.  ``K`` is drawn when
    ``agents`` are given.  An atom and ``K`` draw a name; every other
    connective draws its arguments left to right."""
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, not {max_depth}")
    atoms = tuple(atoms)
    agents = tuple(agents)
    weights = dict(_WEIGHTS)
    if not agents:
        del weights[Know]
    if not allow_announce:
        del weights[Announce], weights[Diamond]
    leaf = ((Atom, Top, Bot), [weights[Atom], weights[Top], weights[Bot]])
    inner = (list(weights), list(weights.values()))

    def gen(d: int) -> Formula:
        kind = rng.choices(*(inner if d else leaf))[0]
        if kind is Atom:
            return Atom(rng.choice(atoms))
        if kind is Know:
            return Know(rng.choice(agents), gen(d - 1))
        return kind(*[gen(d - 1) for _ in kind.__match_args__])

    return gen(max_depth)


# ---------------------------------------------------------------------------
# Exhaustive small-model enumeration

@functools.cache
def _shapes(n: int) -> tuple[tuple[list[set[int]], list[int], list[int]], ...]:
    """The strict orders on 0..n-1 with 0 below everything, one per
    isomorphism class, in a deterministic order.  Each is given as every
    node's successors in the order, their up-masks (see
    :func:`beth._up_masks`) and the masks of its up-sets, lowest first."""
    upper = range(1, n)
    optional = [(i, j) for i in upper for j in upper if i < j]
    seen: set[tuple] = set()
    shapes = []
    for bits in range(1 << len(optional)):
        succ = [set(upper)] + [set() for _ in upper]
        for k, (i, j) in enumerate(optional):
            if bits >> k & 1:
                succ[i].add(j)
        up = beth._up_masks(succ)
        succ = [set(beth._bits(u ^ 1 << i)) for i, u in enumerate(up)]
        canon = min(tuple(sorted((perm[a], perm[b]) for a, targets in enumerate(succ)
                                 for b in targets))
                    for p in itertools.permutations(upper) for perm in [(0, *p)])
        if canon not in seen:
            seen.add(canon)
            upsets = [s for s in range(1 << n) if not any(up[i] & ~s for i in beth._bits(s))]
            shapes.append((succ, up, upsets))
    return tuple(shapes)


MAX_ENUMERATED_NODES = 4
MAX_ENUMERATED = 100_000


def count_small_beth(max_nodes: int, atoms: Iterable[str]) -> int:
    """The number of models :func:`enumerate_small_beth` yields, counted
    without building any: each atom holds on an up-set of a poset, so a
    poset with u up-sets has u ** k valuations over k atoms.  Raises
    BoundTooLarge beyond MAX_ENUMERATED_NODES nodes or MAX_ENUMERATED models."""
    if not 1 <= max_nodes <= MAX_ENUMERATED_NODES:
        raise BoundTooLarge(f"can enumerate up to {MAX_ENUMERATED_NODES} nodes, not {max_nodes}")
    k = len(set(atoms))
    count = sum(len(upsets) ** k
                for n in range(1, max_nodes + 1) for _, _, upsets in _shapes(n))
    if count > MAX_ENUMERATED:
        raise BoundTooLarge(f"{count:,} models up to {max_nodes} nodes over {k} atoms, "
                            f"more than {MAX_ENUMERATED:,}")
    return count


def enumerate_small_beth(max_nodes: int, atoms: Iterable[str]) -> Iterator[BethModel]:
    """All non-isomorphic rooted posets up to ``max_nodes`` nodes, each paired
    with every monotone valuation over ``atoms``, in a deterministic order.
    The bounds of :func:`count_small_beth` are checked before any model is
    built.  Every atom holds on an up-set, so each model is valid as built:
    node n{i} is node i of its shape (at most four nodes, so the names sort
    in that order) and lists every node above it as a successor."""
    atoms = tuple(sorted(set(atoms)))
    count_small_beth(max_nodes, atoms)
    for n in range(1, max_nodes + 1):
        names = tuple(f"n{i}" for i in range(n))
        for succ, up, upsets in _shapes(n):
            for combo in itertools.product(upsets, repeat=len(atoms)):
                val = {a: frozenset(atom for atom, s in zip(atoms, combo) if s >> i & 1)
                       for i, a in enumerate(names)}
                yield BethModel(names, {a: i for i, a in enumerate(names)}, succ, up, "n0",
                                val, frozenset(atoms))


# ---------------------------------------------------------------------------
# Validity trials

@dataclass(frozen=True)
class NoCounterexample:
    trials: int


@dataclass
class Counterexample:
    model: BethKripkeModel
    world: str
    instance: Formula

    def verify(self) -> bool:
        """A counterexample must re-check false at the world's root under the
        cache-free oracle :func:`naive_forces`, not under the evaluator that
        found it."""
        root = self.model.world(self.world).root
        return not naive_forces(self.model, self.world, root, self.instance)


Verdict = Union[NoCounterexample, Counterexample]


@dataclass(frozen=True)
class SchemaInstanceSpace:
    """Instantiation space for a schema: propositional formulas up to
    ``depth`` over ``atoms`` (a class constant, not a field) for the formula
    metavariables, the model's own agents for the agent metavariables."""
    schema: Formula
    depth: int = 1
    atoms = ("p", "q")


def propositional_pool(atoms: Iterable[str], depth: int) -> list[Formula]:
    """Every propositional formula up to the given depth, deterministic order."""
    return list(fingerprint_classes(lambda f: f, sorted(set(atoms)), depth))


CLASS_CACHE_SIZE = 128


def _semantic_reps(m: BethKripkeModel,
                   search: tuple[tuple[str, ...], int]) -> list[Formula]:
    """One representative per extension in the model, among the
    propositional formulas over ``atoms`` up to ``depth`` (``search`` is
    ``(atoms, depth)``): the first of its class in the order of
    :func:`propositional_pool`.

    Every formula is persistent and holds at a node iff it holds at every
    leaf above it, so two formulas have the same extension iff they agree
    classically on every leaf valuation of the model: the classes depend
    only on the set of distinct leaf valuations restricted to ``atoms``, and
    are searched once per atoms, depth and set (see :func:`_classes`).

    The set is read off the atom masks of the model's layout, as codes: a
    leaf's code has bit k set iff it carries ``atoms[k]``.  Splitting the
    leaves by each atom's mask in turn leaves one nonempty part per code
    present, and the set is the int with those codes' bits set.  A
    representative holds on the parts of the codes whose valuations it
    holds on, so its leaves on the layout are read off the parts too, and
    returned with it (see :class:`_Reps`).

    Sound in every context, announcements included: a node survives an
    update only if some leaf above it survives, and an update never creates
    a leaf.  A propositional instance's extension in any updated model is
    therefore fixed by its classical values at the original leaves, which
    formulas of one class share."""
    atoms, depth = search
    pts = dynamic._layout(m)
    parts = {0: pts.all}     # code so far -> the leaves with it
    bit = 1
    for atom in atoms:
        carry = pts.atoms.get(atom, 0)
        split = {}
        for code, leaves in parts.items():
            if leaves & ~carry:
                split[code] = leaves & ~carry
            if leaves & carry:
                split[code | bit] = leaves & carry
        parts, bit = split, bit << 1
    reps, holders = _classes(atoms, depth, sum(1 << code for code in parts))
    ext = [0] * len(reps)
    for code, holding in holders:
        for k in holding:
            ext[k] |= parts[code]
    return _Reps(reps, pts, ext)


class _Reps(list):
    """The representatives :func:`_semantic_reps` returns: a list of
    formulas that also keeps ``ext``, the leaves of the layout ``pts``
    forcing each, so that :func:`_first_counterexample` need not label
    them again.  A filtered copy is a plain list, whose representatives
    are labeled; editing this list in place would leave ``ext`` behind."""

    def __init__(self, reps: Iterable[Formula], pts: dynamic._Points, ext: list[int]):
        super().__init__(reps)
        self.pts, self.ext = pts, ext


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def _classes(atoms: tuple[str, ...], depth: int, codes: int
             ) -> tuple[tuple[Formula, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """The first formula of each class on the codes whose bits ``codes``
    sets (see :func:`_semantic_reps`), labeled on one world whose points
    are those codes, all leaves, where the connectives are classical: point
    c carries ``atoms[k]`` iff bit k of c is set.  A connective's extension
    depends only on its arguments' extensions, so the class search meets
    the same first formulas as a sweep of :func:`propositional_pool`.  With
    the formulas come, for each code, the indices of those holding on it."""
    present = list(beth._bits(codes))
    carry = {atom: sum(1 << code for code in present if code >> k & 1)
             for k, atom in enumerate(atoms)}
    pts = dynamic._Points(codes.bit_length(), 1, {"": codes}, carry, {})
    reps = tuple(fingerprint_classes(lambda f: dynamic._ext(pts, f), atoms, depth))
    ext = [dynamic._ext(pts, f) for f in reps]
    return reps, tuple((code, tuple(k for k, mask in enumerate(ext) if mask >> code & 1))
                       for code in present)


UNION_BITS = 1024
"""Widest union of model copies :func:`test_validity` labels in one pass (see
:func:`_first_counterexample`).  The clauses label all copies at once, with
a few big-int operations per world of the model for K and the announcement
operators, so a pass costs about linearly in its width; a union holds at
least one copy, whatever the model's size."""


DIGIT_CACHE_SIZE = 1024
"""Digit shapes :func:`_digit_copies` remembers.  A ``lab-axioms`` round asks
for 141 shapes and ``axioms --trials 500`` for 477; ``axioms --schema A2
--depth 2 --trials 5 --max-worlds 200 --agents 6`` asks for 3,465, more
than it holds."""

BINDINGS_CACHE_SIZE = 64
"""Binding numberings :func:`_bindings` remembers.  A ``lab-axioms`` round
numbers 8 and ``axioms --trials 500`` 16."""


@functools.lru_cache(maxsize=DIGIT_CACHE_SIZE)
def _digit_copies(start: int, count: int, run: int, radix: int,
                  width: int) -> tuple[tuple[int, int], ...]:
    """Each value that a digit of run ``run`` and radix ``radix`` takes on
    the bindings ``start`` to ``start + count - 1``, with the copies taking
    it: bit b·``width`` for binding ``start + b``.  The masks are sums of
    the runs that meet the bindings, over at most one cycle of ``radix``
    runs, repeated by one multiply; a run is the copies from its first
    binding on less those from the next run's.

    The pairs depend on the digit's shape alone, never on a model's
    labels, so they are memoized, as a tuple that no caller can change.
    They depend on ``start`` only through ``start % run`` and ``start //
    run % radix``, so :meth:`_Bindings.masks` passes ``start % (run *
    radix)``, and unions that start at the same place in the digit's cycle
    share an entry."""
    span = min(count, run * radix)
    ones = dynamic._spread(span, width)
    copies: dict[int, int] = {}
    digit, skip = divmod(start, run)
    head = ones     # the copies from the current run's first binding on
    for end in range(run - skip, span + run, run):
        rest = ones >> end * width << end * width
        copies[digit % radix] = copies.get(digit % radix, 0) | head ^ rest
        head, digit = rest, digit + 1
    if count > span:
        repeat = dynamic._spread(-(-count // span), span * width)
        low = (1 << count * width) - 1
        return tuple((digit, mask * repeat & low) for digit, mask in copies.items())
    return tuple(copies.items())


class _Bindings:
    """The bindings of a schema's agent metavariables ``avars`` to
    ``agents`` and formula metavariables ``fvars`` to ``reps``
    representatives, in the order of ``itertools.product(product(agents,
    ...), product(reps, ...))``.  Binding t, for t < ``total``, is a
    mixed-radix number, the agent digits first: ``digits`` lists each
    metavariable with its digit's run and radix and whether it binds a
    formula, and binding t gives it value ``t // run % radix``.  The
    numbering depends on the numbers of values alone, so :func:`_bindings`
    memoizes it; :meth:`binding` decodes a failing binding to a trial's
    own representatives, and alone wraps an agent name in its atom."""

    def __init__(self, avars: Sequence[str], fvars: Sequence[str],
                 agents: Sequence[str], reps: int):
        self.agents = agents
        digits, run = [], 1
        for v, radix, formula in reversed([(v, len(agents), False) for v in avars]
                                          + [(v, reps, True) for v in fvars]):
            digits.append((v, run, radix, formula))
            run *= radix
        self.digits, self.total = tuple(reversed(digits)), run

    def binding(self, t: int, reps: Sequence[Formula]) -> dict[str, Formula]:
        """Binding ``t`` to ``reps``, agents bound to the atoms naming them."""
        binding: dict[str, Formula] = {}
        for v, run, radix, formula in self.digits:
            k = t // run % radix
            binding[v] = reps[k] if formula else Atom(self.agents[k])
        return binding

    def masks(self, ext: Sequence[int], width: int, start: int,
              count: int) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
        """The masks :func:`dynamic._union` takes for the bindings ``start``
        to ``start + count - 1``, copy b for binding ``start + b``, from the
        copies taking each value of each digit: each formula metavariable's
        leaves, ``ext[k]`` in the copies binding it to ``reps[k]``, and each
        agent metavariable's copies choosing each agent that some copy
        chooses."""
        leaves: dict[str, int] = {}
        knows: dict[str, dict[str, int]] = {}
        for v, run, radix, formula in self.digits:
            copies = _digit_copies(start % (run * radix), count, run, radix, width)
            if formula:
                leaves[v] = sum(ext[k] * mask for k, mask in copies)
            else:
                knows[v] = {self.agents[k]: mask for k, mask in copies}
        return leaves, knows


@functools.lru_cache(maxsize=BINDINGS_CACHE_SIZE)
def _bindings(avars: tuple[str, ...], fvars: tuple[str, ...], agents: tuple[str, ...],
              reps: int) -> _Bindings:
    """The :class:`_Bindings` numbering for ``reps`` representatives, built
    once per key: it depends on the counts alone, so the key hashes no formula."""
    return _Bindings(avars, fvars, agents, reps)


@functools.lru_cache(maxsize=64)
def _schema_variables(schema: Formula) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The formula and the agent metavariables of ``schema``, each sorted;
    memoized, since every trial of :func:`test_validity` asks for them."""
    nodes = list(subformulas(schema))
    fvars = {f.name for f in nodes if isinstance(f, Atom) and is_metavariable(f.name)}
    avars = {f.agent for f in nodes if isinstance(f, Know)}
    return tuple(sorted(fvars)), tuple(sorted(avars))


def _first_counterexample(m: BethKripkeModel, schema: Formula,
                          reps: list[Formula]) -> Optional[Counterexample]:
    """The first instance of ``schema`` that fails at the root of a world of
    ``m``, with its formula metavariables bound to ``reps`` and its agent
    metavariables to ``m``'s agents: bindings in the order of
    :class:`_Bindings`, and the failing worlds in ``world_order``.

    Consecutive bindings are labeled at once, as the copies of one
    :func:`dynamic._union` of at most about ``UNION_BITS`` points (at least
    one copy), built from the runs of each metavariable's digit; the
    failing binding is decoded from its number, and the instance is built
    only then.  The representatives' leaves come with them when
    :func:`_semantic_reps` found them on this layout, and are labeled
    otherwise."""
    base = dynamic._layout(m)
    if isinstance(reps, _Reps) and reps.pts is base:
        ext = reps.ext
    else:
        ext = [dynamic._ext(base, rep) for rep in reps]
    fvars, avars = _schema_variables(schema)
    bindings = _bindings(avars, fvars, tuple(sorted(m.agents)), len(reps))
    per_union = max(1, UNION_BITS // base.width)
    for start in range(0, bindings.total, per_union):
        count = min(per_union, bindings.total - start)
        union = dynamic._union(base, count, *bindings.masks(ext, base.width, start, count))
        failure = dynamic._first_failure(union, schema)
        if failure is not None:
            copy, world = failure
            binding = bindings.binding(start + copy, reps)
            return Counterexample(m, world, substitute(schema, binding))
    return None


def test_validity(space: SchemaInstanceSpace, gen: GenParams, trials: int) -> Verdict:
    """Draw ``trials`` models; check every (deduplicated) schema instance at
    the root of every world.  First failure wins.

    The candidate formulas are one per semantic class of the model (see
    :func:`_semantic_reps`), and all instances are labeled together (see
    :func:`_first_counterexample`)."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, not {trials}")
    search = (space.atoms, space.depth)
    for t in range(trials):
        m = random_model(gen, split_seed(gen.seed, t))
        found = _first_counterexample(m, space.schema, _semantic_reps(m, search))
        if found is not None:
            return found
    return NoCounterexample(trials)


# ---------------------------------------------------------------------------
# Announcement-reduction experiment
#
# Whether [phi]psi <-> (phi -> psi) is valid over finite S5 models is an open
# hypothesis here, not a regression: the experiment reports whatever it finds.

@dataclass
class HypothesisReport:
    """Line-delimited experiment log plus a summary block.

    Each record is ``trial=<n> seed=<n> model=<digest> world=<name>
    phi=<text> psi=<text> box=<bool> imp=<bool> bicond=<bool>`` where
    ``bicond`` is whether the world forces [phi]psi <-> (phi -> psi).
    Identical inputs render byte-identical reports.
    """
    verdict: Verdict
    records: tuple[str, ...]
    trials: int
    instances: int
    divergent: int
    seed: int
    depth: int
    include_announcements: bool

    def render(self) -> str:
        lines = list(self.records)
        lines.append("-- announcement-hypothesis summary --")
        lines.append("schema: [phi]psi <-> (phi -> psi)")
        lines.append(
            f"trials={self.trials} instances={self.instances} "
            f"divergent={self.divergent} seed={self.seed} depth={self.depth} "
            f"nested_announcements={str(self.include_announcements).lower()}")
        if isinstance(self.verdict, NoCounterexample):
            lines.append("verdict: NO-COUNTEREXAMPLE")
        else:
            lines.append(
                f"verdict: COUNTEREXAMPLE world={self.verdict.world} "
                f"instance={print_formula(self.verdict.instance)}")
            lines.append("counterexample model:")
            lines.append(modeldoc.serialize_model(self.verdict.model).rstrip())
        return "\n".join(lines) + "\n"


MAX_HYPOTHESIS_DEPTH = 32
"""Deepest formulas the announcement experiment samples.  Sampled formulas
double in size about every eight levels (20 trials: 0.5 s at depth 32, 7 s at
64), and a depth in the thousands exceeds the recursion limit."""


HYPOTHESIS_INSTANCES_PER_TRIAL = 4
"""(phi, psi) pairs the announcement experiment samples per model."""


def test_announcement_hypothesis(gen: GenParams, trials: int, depth: int = 2,
                                 include_announcements: bool = False) -> HypothesisReport:
    """Sample (phi, psi) pairs of bounded depth and test whether every world
    forces the biconditional [phi]psi <-> (phi -> psi)."""
    if not gen.s5:
        raise ValueError("the hypothesis is about S5 models; set s5=True")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, not {trials}")
    if not 0 <= depth <= MAX_HYPOTHESIS_DEPTH:
        raise ValueError(f"depth must be between 0 and {MAX_HYPOTHESIS_DEPTH}, not {depth}")
    records: list[str] = []
    divergent = 0
    instances = 0
    first: Optional[Counterexample] = None
    for t in range(trials):
        seed_t = split_seed(gen.seed, t)
        m = random_model(gen, seed_t)
        digest = modeldoc.model_digest(m)
        rng = random.Random(split_seed(gen.seed ^ 0xA11CE, t))
        agents = sorted(m.agents)
        for _ in range(HYPOTHESIS_INSTANCES_PER_TRIAL):
            phi = random_formula(rng, depth, ATOM_NAMES[:gen.atom_count], agents,
                                 allow_announce=include_announcements)
            psi = random_formula(rng, depth, ATOM_NAMES[:gen.atom_count], agents,
                                 allow_announce=include_announcements)
            box = Announce(phi, psi)
            cond = Imp(phi, psi)
            bicond = And(Imp(box, cond), Imp(cond, box))
            instances += 1
            for s in m.world_order:
                lhs = dynamic.satisfies(m, s, box).value
                rhs = dynamic.satisfies(m, s, cond).value
                holds = dynamic.satisfies(m, s, bicond).value
                records.append(
                    f"trial={t} seed={seed_t} model={digest} world={s} "
                    f"phi={print_formula(phi)!r} psi={print_formula(psi)!r} "
                    f"box={lhs} imp={rhs} bicond={holds}")
                if not holds:
                    divergent += 1
                    if first is None:
                        first = Counterexample(m, s, bicond)
    verdict: Verdict = first if first is not None else NoCounterexample(trials)
    return HypothesisReport(verdict, tuple(records), trials, instances,
                            divergent, gen.seed, depth, include_announcements)


# ---------------------------------------------------------------------------
# Cache-free reference evaluator (independent oracle)

def _naive_up(w: BethModel, node: str) -> list[str]:
    return [b for b in w.node_order if (node, b) in w.leq_pairs]


def _naive_paths(w: BethModel, node: str) -> list[tuple[str, ...]]:
    strict = [b for b in _naive_up(w, node) if b != node]
    minimal = [b for b in strict
               if not any(c != b and (c, b) in w.leq_pairs for c in strict)]
    if not minimal:
        return [(node,)]
    return [(node,) + rest for b in minimal for rest in _naive_paths(w, b)]


def _naive_bar(w: BethModel, node: str, members: set[str]) -> bool:
    return all(members.intersection(path) for path in _naive_paths(w, node))


def naive_forces(m: BethKripkeModel, s: str, node: str, f: Formula) -> bool:
    """Same semantics as dynamic.forces, recomputed from scratch on every call
    (no memo tables, paths enumerated at each step)."""
    w = m.world(s)
    w.ensure_node(node)
    match f:
        case Top():
            return True
        case Bot():
            return False
        case Atom(name):
            return _naive_bar(w, node, {b for b in _naive_up(w, node) if name in w.val[b]})
        case And(x, y):
            return naive_forces(m, s, node, x) and naive_forces(m, s, node, y)
        case Or(x, y):
            return _naive_bar(w, node, {
                b for b in _naive_up(w, node)
                if naive_forces(m, s, b, x) or naive_forces(m, s, b, y)})
        case Imp(x, y):
            return all(naive_forces(m, s, b, y)
                       for b in _naive_up(w, node) if naive_forces(m, s, b, x))
        case Neg(x):
            return not any(naive_forces(m, s, b, x) for b in _naive_up(w, node))
        case Know(agent, body):
            return all(
                naive_forces(m, t, b, body)
                for t in m.successors(agent, s)
                for b in m.world(t).node_order)
        case Announce(ann, body):
            if naive_forces(m, s, w.root, Neg(ann)):
                return True
            updated = _naive_announce(m, ann)
            return naive_forces(updated, s, updated.world(s).root, body)
        case Diamond(ann, body):
            if naive_forces(m, s, w.root, Neg(ann)):
                return False
            updated = _naive_announce(m, ann)
            return naive_forces(updated, s, updated.world(s).root, body)
    raise TypeError(f"not a formula: {f!r}")


def _naive_announce(m: BethKripkeModel, ann: Formula) -> BethKripkeModel:
    neg = Neg(ann)
    survivors: dict[str, BethModel] = {}
    for s in m.world_order:
        w = m.worlds[s]
        keep = [n for n in w.node_order if not naive_forces(m, s, n, neg)]
        if w.root not in keep:
            continue
        kept = set(keep)
        order = [(a, b) for (a, b) in w.leq_pairs if a != b and a in kept and b in kept]
        survivors[s] = validate_beth(keep, order, w.root,
                                     {n: w.val[n] for n in keep}, w.atoms)
    access = {
        agent: frozenset((a, b) for (a, b) in pairs if a in survivors and b in survivors)
        for agent, pairs in m.access.items()
    }
    return BethKripkeModel(survivors, m.agents, access)


# ---------------------------------------------------------------------------
# Non-translatability witness

@dataclass
class WitnessReport:
    diamond_at_root: bool          # expected True
    bare_leaf_forces_atom: bool    # expected False
    models_checked: int
    classes_checked: int
    max_depth: int
    equivalent: Optional[Formula]

    def render(self) -> str:
        lines = [
            "witness model: root below one leaf carrying p and one bare leaf",
            f"root forces <p>top: {self.diamond_at_root}",
            f"bare leaf forces p: {self.bare_leaf_forces_atom}",
            f"searched propositional formulas over {{p}} up to depth {self.max_depth}: "
            f"{self.classes_checked} semantic classes over {self.models_checked} models",
        ]
        if self.equivalent is None:
            lines.append("no propositional equivalent of <p>top found")
        else:
            lines.append(f"UNEXPECTED equivalent found: {print_formula(self.equivalent)}")
        return "\n".join(lines) + "\n"


def nontranslatability_witness(max_depth: int = 4) -> WitnessReport:
    """Materialize the witness model for '<p>top has no propositional
    equivalent' and search the depth-bounded propositional fragment over {p}
    for an equivalent, deduplicating by semantic fingerprint."""
    witness = validate_beth(
        ("a", "b", "c"), (("a", "b"), ("a", "c")), "a", {"b": {"p"}}, ("p",))
    wrapped = BethKripkeModel({"w": witness}, (), {})
    diamond = Diamond(Atom("p"), TOP)
    diamond_at_root = dynamic.satisfies(wrapped, "w", diamond).value
    bare_leaf = dynamic.forces(wrapped, "w", "c", Atom("p")).value

    models = list(enumerate_small_beth(3, ("p",)))
    target = tuple(dynamic.satisfies(BethKripkeModel({"w": m}, (), {}), "w", diamond).value
                   for m in models)
    equivalent: Optional[Formula] = None
    classes = 0
    for f in fingerprint_classes(lambda f: tuple(dynamic.leaf_extension(m, f) for m in models),
                                 ("p",), max_depth):
        classes += 1
        if equivalent is None and target == tuple(
                beth.forces_prop(m, m.root, f) for m in models):
            equivalent = f
    return WitnessReport(diamond_at_root, bare_leaf, len(models), classes,
                         max_depth, equivalent)
