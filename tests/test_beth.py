import ast
import gc
import itertools
import random
import time

import pytest

from bethpal.beth import (
    BethModel, NoRoot, NodeOutsideUpSet, NonMonotoneValuation,
    NonPropositionalFormula, NotAPartialOrder, PointedBeth, UnknownNode,
    avoiding_path, equivalent_up_to_depth, forces_prop, is_bar,
    maximal_paths, up_set, validate_beth,
)
from bethpal.cli import main
from bethpal.dynamic import BethKripkeModel, announce, forces, satisfies
from bethpal.formula import And, Atom, Imp, Neg, Or, BOT, TOP, parse_formula
from bethpal import beth, lab, modeldoc
from bethpal.lab import GenParams, enumerate_small_beth, random_beth, random_model
from bethpal.proofkit import SCHEMAS
from bethpal.formula import substitute

from helpers import brute_maximal_chains, classical_eval, reference_beth

p, q = Atom("p"), Atom("q")


class TestValidation:
    def test_fork_is_valid(self, fork_pq):
        assert fork_pq.root == "a"
        assert fork_pq.leq("a", "b") and fork_pq.leq("a", "c")
        assert not fork_pq.leq("b", "c")

    def test_no_root(self):
        with pytest.raises(NoRoot):
            validate_beth(("a", "b"), (), "a", {})

    def test_non_monotone(self):
        with pytest.raises(NonMonotoneValuation) as exc:
            validate_beth(("a", "b"), (("a", "b"),), "a", {"a": {"p"}})
        assert exc.value.witness == ("a", "b", "p")

    def test_cycle(self):
        with pytest.raises(NotAPartialOrder):
            validate_beth(("a", "b"), (("a", "b"), ("b", "a")), "a", {})

    def test_unknown_node_in_order(self):
        with pytest.raises(UnknownNode):
            validate_beth(("a",), (("a", "z"),), "a", {})

    def test_order_closed_transitively(self):
        m = validate_beth(("a", "b", "c"), (("a", "b"), ("b", "c")), "a", {})
        assert m.leq("a", "c")

    @pytest.mark.parametrize("order, first", [
        ([("x", "y")], "x"),
        ([("a", "y"), ("x", "a")], "y"),
        ([("a", "a"), ("a", "b"), ("z", "y")], "z"),
        ([("a", "b"), ("b", "a"), ("b", "y")], "y"),
    ])
    def test_first_unknown_node_comes_before_the_root(self, order, first):
        # The pairs are read in order, a before b, and the unknown root
        # "r" only after them, before any other check.
        with pytest.raises(UnknownNode) as exc:
            validate_beth(("a", "b"), order, "r", {"q": {"p"}})
        assert exc.value.node == first
        with pytest.raises(UnknownNode) as exc:
            validate_beth(("a", "b"), [pair for pair in order if {*pair} <= {"a", "b"}], "r",
                          {"q": {"p"}})
        assert exc.value.node == "r"

    def test_restrict_matches_validation(self):
        # A sub-model from restrict has the attributes validate_beth gives
        # the same description.
        rng = random.Random(44)
        models = list(enumerate_small_beth(4, ("p", "q")))[::5] + [_ladder(5)]
        for m in models:
            for _ in range(3):
                keep = 1 << m.index[m.root]
                for i in range(len(m.node_order)):
                    if rng.random() < 0.4:
                        keep |= sum(1 << j for j, u in enumerate(m.up_mask) if u >> i & 1)
                sub = beth.restrict(m, keep)
                names = m.names(keep)
                built = validate_beth(
                    names, [(a, b) for a in names for b in m.covers[a] if keep >> m.index[b] & 1],
                    m.root, {a: m.val[a] for a in names}, m.atoms)
                for name in ("node_order", "index", "up_mask", "covers", "leaf_mask", "leaves",
                             "up", "leq_pairs", "root", "val", "atoms"):
                    assert getattr(sub, name) == getattr(built, name), name


class TestPosetMachinery:
    def test_up_set_fork(self, fork_pq):
        assert up_set(fork_pq, "a") == {"a", "b", "c"}
        assert up_set(fork_pq, "b") == {"b"}

    def test_up_set_chain_middle(self):
        m = validate_beth(("a", "b", "c"), (("a", "b"), ("b", "c")), "a", {})
        assert up_set(m, "b") == {"b", "c"}

    def test_up_set_unknown_node(self, fork_pq):
        with pytest.raises(UnknownNode):
            up_set(fork_pq, "zz")

    def test_paths_fork(self, fork_pq):
        assert set(maximal_paths(fork_pq, "a")) == {("a", "b"), ("a", "c")}

    def test_paths_singleton(self, world_p):
        assert maximal_paths(world_p, "a") == (("a",),)

    def test_paths_diamond(self):
        m = validate_beth(("a", "b", "c", "d"),
                          (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")), "a", {})
        assert set(maximal_paths(m, "a")) == {("a", "b", "d"), ("a", "c", "d")}

    def test_paths_match_brute_chains(self):
        rng = random.Random(99)
        for i in range(60):
            m = random_beth(rng, 5, ("p", "q"))
            for node in m.node_order:
                expected = brute_maximal_chains(m.node_order, m.leq_pairs, node)
                assert set(maximal_paths(m, node)) == expected

    def test_is_bar_fork(self, fork_pq):
        assert is_bar(fork_pq, "a", {"b", "c"})
        assert not is_bar(fork_pq, "a", {"b"})
        assert is_bar(fork_pq, "a", {"a"})

    def test_is_bar_outside_up_set(self, fork_pq):
        with pytest.raises(NodeOutsideUpSet):
            is_bar(fork_pq, "b", {"c"})

    def test_is_bar_names_the_first_unknown_member(self, fork_pq):
        # An unknown member is reported as such, before any member that is
        # a node outside the anchor's up-set ("a" is below "b").
        with pytest.raises(UnknownNode) as err:
            is_bar(fork_pq, "b", {"zz", "a", "yy"})
        assert err.value.node == "yy"
        assert str(err.value) == "unknown node 'yy'"
        with pytest.raises(UnknownNode) as err:
            is_bar(fork_pq, "zz", {"b"})
        assert err.value.node == "zz"


def _posets_up_to_5_nodes():
    """Every rooted poset with up to 5 nodes, without valuation: the
    enumerator's up-to-4-node models plus the 5-node posets it stops short of."""
    yield from enumerate_small_beth(4, ())
    names = [f"n{i}" for i in range(5)]
    for succ, _, _ in lab._shapes(5):
        yield validate_beth(names, [(names[a], names[b]) for a, targets in enumerate(succ)
                                    for b in targets], "n0")


def _ladder_input(levels: int, x: str = "x", y: str = "y"):
    """The arguments of ``validate_beth`` for a width-2 ladder: root r, then
    levels of two nodes each, every node covered by both nodes of the next
    level (2**levels maximal paths).  x holds at the leaf a<levels>, y at
    the leaf b<levels>."""
    rows = [("r",)] + [(f"a{i:03d}", f"b{i:03d}") for i in range(1, levels + 1)]
    edges = [(lo, hi) for below, above in zip(rows, rows[1:])
             for lo in below for hi in above]
    top_a, top_b = rows[-1]
    return ([n for row in rows for n in row], edges, "r",
            {top_a: {x}, top_b: {y}}, (x, y))


def _ladder(levels: int):
    return validate_beth(*_ladder_input(levels))


class TestAvoidingPath:
    def test_agrees_with_paths_and_naive_bar(self):
        models = list(_posets_up_to_5_nodes())
        assert len(models) == 1 + 1 + 2 + 5 + 16
        for m in models:
            for node in m.node_order:
                paths = maximal_paths(m, node)
                up = sorted(m.up[node])
                for r in range(len(up) + 1):
                    for bar in map(frozenset, itertools.combinations(up, r)):
                        first_miss = next((path for path in paths
                                           if not bar.intersection(path)), None)
                        assert avoiding_path(m, node, bar) == first_miss
                        assert is_bar(m, node, bar) == lab._naive_bar(m, node, set(bar))

    def test_ladder_of_201_nodes(self):
        # 2**100 maximal paths from the root: only a walk that never
        # enumerates them finishes.
        m = _ladder(100)
        assert len(m.nodes) == 201
        assert not is_bar(m, "r", {"a100"})
        assert is_bar(m, "r", {"a100", "b100"})
        assert is_bar(m, "r", {"a050", "b050"})
        bk = BethKripkeModel({"u": m}, ("i",), {"i": {("u", "u")}})
        assert not satisfies(bk, "u", parse_formula("x")).value
        assert satisfies(bk, "u", parse_formula("x | y")).value
        assert not satisfies(bk, "u", parse_formula("x -> y")).value
        trace = satisfies(bk, "u", parse_formula("x"), explain=True).trace
        assert trace.note.endswith(" never carries the atom")
        path = ast.literal_eval(trace.note[len("path "):-len(" never carries the atom")])
        assert path[0] == "r" and path[-1] in m.leaves and len(path) == 101
        assert all(hi in m.covers[lo] for lo, hi in zip(path, path[1:]))
        assert path == ["r"] + [f"a{i:03d}" for i in range(1, 100)] + ["b100"]

    def test_maximal_paths_leaves_no_cyclic_garbage(self, fork_pq):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert len(maximal_paths(fork_pq, "a")) == 2
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestForcing:
    def test_fork_root(self, fork_pq):
        assert forces_prop(fork_pq, "a", parse_formula("p|q"))
        assert not forces_prop(fork_pq, "a", p)
        assert not forces_prop(fork_pq, "a", Neg(p))
        assert forces_prop(fork_pq, "a", parse_formula("~(p&q)"))

    def test_single_node(self, world_p):
        assert forces_prop(world_p, "a", p)
        assert forces_prop(world_p, "a", Neg(q))

    def test_negation_settles_only_off_branch(self, fork_pq):
        assert not forces_prop(fork_pq, "a", Neg(p))
        assert forces_prop(fork_pq, "c", Neg(p))

    def test_atom_forced_by_inevitability(self):
        m = validate_beth(("a", "b"), (("a", "b"),), "a", {"b": {"p"}})
        assert forces_prop(m, "a", p)

    def test_undeclared_atom_false(self, fork_pq):
        assert not forces_prop(fork_pq, "a", Atom("nope"))
        assert forces_prop(fork_pq, "a", Neg(Atom("nope")))

    def test_rejects_modal(self, fork_pq):
        # Formulas labeled first must not let a modal one past the check.
        assert not forces_prop(fork_pq, "a", p)
        assert forces_prop(fork_pq, "a", Or(p, q))
        with pytest.raises(NonPropositionalFormula):
            forces_prop(fork_pq, "a", parse_formula("K{a}p"))
        with pytest.raises(NonPropositionalFormula):
            forces_prop(fork_pq, "a", parse_formula("<p>top"))

    def test_unknown_node_before_modal(self, fork_pq):
        with pytest.raises(UnknownNode):
            forces_prop(fork_pq, "zz", parse_formula("K{a}p"))

    def test_open_fork_forces_excluded_middle(self, fork_pq):
        # Finite models settle every disjunction at their leaves, so p|~p is
        # forced even where neither p nor ~p is; openness shows up at the
        # atoms, not at excluded middle.
        assert forces_prop(fork_pq, "a", parse_formula("p|~p"))
        assert not forces_prop(fork_pq, "a", p)
        assert not forces_prop(fork_pq, "a", Neg(p))


def _oracle(m: BethModel, node: str, f) -> bool:
    """The path-based oracle on ``m`` as a world of its own."""
    return lab.naive_forces(BethKripkeModel({"w": m}, (), {}), "w", node, f)


class TestShortcutAgreement:
    """forces_prop, which decides bars by the leaves above a node, against
    the path-based oracle."""

    def test_on_random_models(self):
        rng = random.Random(5)
        for i in range(1000):
            m = random_beth(rng, 6, ("p", "q"))
            for _ in range(3):
                f = _random_prop(rng, 3)
                for node in m.node_order:
                    assert forces_prop(m, node, f) == _oracle(m, node, f)

    def test_shortcut_examples(self, fork_pq, world_p):
        f = parse_formula("p|q")
        assert forces_prop(fork_pq, "a", f) and _oracle(fork_pq, "a", f)
        chain = validate_beth(("a", "b"), (("a", "b"),), "a", {"b": {"p"}})
        assert forces_prop(chain, "a", p) and _oracle(chain, "a", p)
        empty = validate_beth(("a",), (), "a", {}, ("p",))
        assert not forces_prop(empty, "a", p) and not _oracle(empty, "a", p)


def _random_prop(rng, max_depth, atoms=("p", "q")):
    from bethpal.lab import random_formula
    return random_formula(rng, max_depth, atoms)


class TestTheoremProperties:
    """Bar/path characterizations and persistence, on random models."""

    def test_persistence(self):
        rng = random.Random(11)
        for i in range(200):
            m = random_beth(rng, 6, ("p", "q"))
            f = _random_prop(rng, 3)
            for a in m.node_order:
                if forces_prop(m, a, f):
                    assert all(forces_prop(m, b, f) for b in m.up[a])

    def test_bar_characterization(self):
        rng = random.Random(12)
        for i in range(200):
            m = random_beth(rng, 6, ("p", "q"))
            f = _random_prop(rng, 3)
            for a in m.node_order:
                bar = {b for b in m.up[a] if forces_prop(m, b, f)}
                assert forces_prop(m, a, f) == is_bar(m, a, bar)

    def test_path_characterization(self):
        rng = random.Random(13)
        for i in range(200):
            m = random_beth(rng, 6, ("p", "q"))
            f = _random_prop(rng, 3)
            for a in m.node_order:
                missed = any(
                    not any(forces_prop(m, b, f) for b in path)
                    for path in maximal_paths(m, a))
                assert (not forces_prop(m, a, f)) == missed

    def test_classical_collapse_on_single_nodes(self):
        rng = random.Random(14)
        for atoms_true in ({}, {"p"}, {"q"}, {"p", "q"}):
            m = validate_beth(("a",), (), "a", {"a": set(atoms_true)}, ("p", "q"))
            for _ in range(50):
                f = _random_prop(rng, 3)
                assert forces_prop(m, "a", f) == classical_eval(atoms_true, f)
                assert forces_prop(m, "a", Neg(f)) == (not forces_prop(m, "a", f))

    def test_intuitionistic_axioms_forced_everywhere(self):
        rng = random.Random(15)
        a1 = [sid for sid in SCHEMAS if sid.startswith("A1.")]
        for i in range(100):
            m = random_beth(rng, 5, ("p", "q"))
            binding = {v: _random_prop(rng, 3) for v in ("X", "Y", "Z")}
            for sid in a1:
                instance = substitute(SCHEMAS[sid].pattern, binding)
                for a in m.node_order:
                    assert forces_prop(m, a, instance), (sid, instance)


def _forces_whole_chain_bars(m: BethModel, a: str, f) -> bool:
    """Alternative reading: bars may sit anywhere in the model, paths are
    maximal chains of the whole poset containing the node (so they extend
    below it too)."""
    chains = brute_maximal_chains(m.node_order, m.leq_pairs, a)
    full_chains = []
    for chain in chains:
        below = [b for b in m.node_order if m.leq(b, a) and b != a]
        below.sort(key=lambda x: sum(m.leq(x, y) for y in below), reverse=True)
        full_chains.append(tuple(below) + chain)

    def bar_exists(members: set[str]) -> bool:
        return all(members.intersection(chain) for chain in full_chains)

    match f:
        case Atom(name):
            return bar_exists({b for b in m.node_order if name in m.val[b]})
        case x if x == TOP:
            return True
        case x if x == BOT:
            return False
        case And(x, y):
            return (_forces_whole_chain_bars(m, a, x)
                    and _forces_whole_chain_bars(m, a, y))
        case Or(x, y):
            return bar_exists({
                b for b in m.node_order
                if _forces_whole_chain_bars(m, b, x) or _forces_whole_chain_bars(m, b, y)})
        case Imp(x, y):
            return all(_forces_whole_chain_bars(m, b, y)
                       for b in m.up[a] if _forces_whole_chain_bars(m, b, x))
        case Neg(x):
            return not any(_forces_whole_chain_bars(m, b, x) for b in m.up[a])
    raise TypeError(f)


class TestBarReadingExperiment:
    """The bar definition admits a reading where paths run through the whole
    model rather than the anchor's up-set.  With monotone valuations the two
    readings agree; this documents that they never diverged on random models."""

    def test_readings_agree(self):
        rng = random.Random(16)
        for i in range(150):
            m = random_beth(rng, 5, ("p", "q"))
            f = _random_prop(rng, 2)
            for a in m.node_order:
                assert _forces_whole_chain_bars(m, a, f) == forces_prop(m, a, f)


class TestEquivalence:
    def test_settled_vs_open(self, world_p, fork_pq):
        found = equivalent_up_to_depth(
            PointedBeth(world_p, "a"), PointedBeth(fork_pq, "a"), 0, ("p", "q"))
        assert found == p

    def test_negative_depth_is_an_error(self, world_p, world_q):
        # No formula has a negative depth, so "agree on every formula" would
        # be vacuous.
        with pytest.raises(ValueError):
            equivalent_up_to_depth(
                PointedBeth(world_p, "a"), PointedBeth(world_q, "a"), -1, ("p", "q"))

    def test_identical_models(self, world_p):
        other = validate_beth(("a",), (), "a", {"a": {"p"}}, ("p", "q"))
        assert equivalent_up_to_depth(
            PointedBeth(world_p, "a"), PointedBeth(other, "a"), 3, ("p", "q")) is None

    def test_settled_p_vs_settled_q(self, world_p, world_q):
        found = equivalent_up_to_depth(
            PointedBeth(world_p, "a"), PointedBeth(world_q, "a"), 0, ("p", "q"))
        assert found in (p, q)

    def test_depth_zero_can_be_insufficient(self, fork_pq):
        # Swap the two leaf valuations: atoms alone cannot tell the forks
        # apart at the root, but they are literally the same model, so no
        # formula ever will.
        mirrored = validate_beth(("a", "b", "c"), (("a", "b"), ("a", "c")), "a",
                                 {"b": {"q"}, "c": {"p"}}, ("p", "q"))
        assert equivalent_up_to_depth(
            PointedBeth(fork_pq, "a"), PointedBeth(mirrored, "a"), 2, ("p", "q")) is None


_FIELDS = ("node_order", "leq_pairs", "up", "covers", "leaves", "root", "val", "atoms")


def _noisy_input(rng: random.Random, m: BethModel):
    """Arguments of ``validate_beth`` that describe ``m`` again: its covering
    edges plus redundant pairs of the order (self-loops among them), a
    self-loop at the root and duplicated edges, all shuffled."""
    covering = [(a, b) for a in m.node_order for b in m.covers[a]]
    redundant = [pair for pair in sorted(m.leq_pairs) if rng.random() < 0.3]
    order = covering + redundant + [(m.root, m.root)] + rng.sample(covering, len(covering) // 2)
    rng.shuffle(order)
    nodes = list(m.node_order)
    rng.shuffle(nodes)
    return nodes, order, m.root, {a: v for a, v in m.val.items() if v}, m.atoms


def _assert_matches_reference(args):
    ref = reference_beth(*args)
    m = validate_beth(*args)
    for name in _FIELDS:
        assert getattr(m, name) == ref[name], name
    assert m.up_mask == tuple(sum(1 << m.node_order.index(b) for b in ref["up"][a])
                              for a in m.node_order)
    assert m.leaf_mask == sum(1 << m.node_order.index(a) for a in ref["leaves"])


class TestConstructionMatchesReference:
    """The bitmask construction against the set-based one it replaced."""

    def test_small_models(self):
        rng = random.Random(41)
        models = list(enumerate_small_beth(4, ("p", "q")))
        assert len(models) == 281
        for m in models:
            _assert_matches_reference(_noisy_input(rng, m))

    def test_random_model_worlds(self):
        rng = random.Random(42)
        worlds = []
        seed = 0
        while len(worlds) < 600:
            gen = GenParams(max_nodes_per_world=7, atom_count=3, seed=seed)
            worlds.extend(random_model(gen).worlds.values())
            seed += 1
        for w in worlds[:600]:
            _assert_matches_reference(_noisy_input(rng, w))

    def test_ladder_of_201_nodes(self):
        args = _ladder_input(100)
        _assert_matches_reference(args)
        nodes, order, root, val, atoms = args
        noisy = order + [("r", "a050"), ("a010", "b090"), ("b020", "b020"), order[7]]
        _assert_matches_reference((nodes, noisy, root, val, atoms))


def _outcome(build, args):
    try:
        m = build(*args)
    except beth.ModelError as e:
        return type(e), str(e), getattr(e, "witness", getattr(e, "node", None))
    if isinstance(m, dict):
        return {name: m[name] for name in _FIELDS}
    return {name: getattr(m, name) for name in _FIELDS}


_ERROR_CORPUS = [
    # cycles of two, three and five nodes
    (("a", "b"), [("a", "b"), ("b", "a")], "a", {}),
    (("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")], "a", {}),
    (("a", "b", "c", "d", "e"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
     "a", {}),
    (("e", "d", "c", "b", "a"), [("c", "d"), ("d", "e"), ("e", "a"), ("a", "b"), ("b", "c")],
     "c", {}),
    # a cycle the root does not reach, one above the root, one with a self-loop
    (("r", "x", "y"), [("x", "y"), ("y", "x")], "r", {}),
    (("r", "x", "y", "z"), [("r", "x"), ("z", "y"), ("y", "z")], "r", {"x": {"p"}}),
    (("r", "a", "b", "c"), [("r", "a"), ("a", "b"), ("b", "c"), ("c", "b")], "r", {}),
    (("a", "b"), [("a", "a"), ("a", "b"), ("b", "a")], "a", {}),
    # no root
    (("a", "b"), [], "a", {}),
    (("a", "b", "c"), [("a", "c")], "a", {}),
    (("a", "b", "c"), [("b", "a"), ("b", "c")], "a", {}),
    # monotonicity: on an edge, and on a chain; the first lost pair (a, b) is
    # transitive, through z, though only the edge a < z loses an atom
    (("a", "b"), [("a", "b")], "a", {"a": {"p"}}),
    (("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d")], "a", {"a": {"p", "q", "r"}}),
    (("a", "b", "z"), [("a", "z"), ("z", "b")], "a", {"a": {"p"}, "b": {"q"}}),
    (("a", "b", "c", "z"), [("a", "z"), ("z", "b"), ("z", "c")], "a",
     {"a": {"q"}, "z": {"q"}, "b": {"p"}, "c": {"p", "q"}}),
    # unknown nodes, and no nodes
    (("a",), [("a", "z")], "a", {}),
    (("a",), [("z", "a")], "a", {}),
    (("a",), [], "z", {}),
    (("a",), [], "a", {"z": {"p"}}),
    ((), [], "a", {}),
]


def _cyclic_orders(n: int):
    """Three orders on ``n`` nodes (``n`` prime to 7), each with one cycle:
    through every node, at the end of a chain, and ahead of a tail.  Node i
    of the edges is named x<7i mod n>, so name order is not edge order.
    Yields each order with the nodes of its cycle."""
    names = [f"x{7 * i % n:04d}" for i in range(n)]
    half = n // 2
    chain = [(names[i], names[i + 1]) for i in range(n - 1)]
    yield chain + [(names[-1], names[0])], names
    yield chain + [(names[-1], names[half])], names[half:]
    yield chain + [(names[half - 1], names[0])], names[:half]


class TestErrorsMatchReference:
    """Every error and its witness are those of the set-based construction."""

    @pytest.mark.parametrize("args", _ERROR_CORPUS)
    def test_corpus(self, args):
        expected = _outcome(reference_beth, args)
        assert isinstance(expected, tuple)
        assert _outcome(validate_beth, args) == expected

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 12, 13])
    def test_cyclic_shapes(self, n):
        for order, cycle in _cyclic_orders(n):
            args = (sorted({a for pair in order for a in pair}), order, "x0000", {})
            expected = _outcome(reference_beth, args)
            assert expected[0] is NotAPartialOrder
            assert expected[2] == tuple(sorted(cycle)[:2])
            assert _outcome(validate_beth, args) == expected

    def test_documents_of_the_hash_seed_test(self, monkeypatch):
        from test_cli import CYCLE_DOC, FIVE_LEAVES_DOC, NON_MONOTONE_DOC
        calls = []

        def record(*args):
            calls.append(args)
            return validate_beth(*args)

        monkeypatch.setattr(modeldoc, "validate_beth", record)
        for text in (FIVE_LEAVES_DOC, CYCLE_DOC, NON_MONOTONE_DOC):
            try:
                modeldoc.parse_model_document(text)
            except beth.ModelError:
                pass
        assert len(calls) == 3
        outcomes = [_outcome(validate_beth, args) for args in calls]
        assert outcomes == [_outcome(reference_beth, args) for args in calls]
        assert [type(o) for o in outcomes] == [dict, tuple, tuple]

    def test_random_descriptions(self):
        rng = random.Random(43)
        kinds = set()
        for _ in range(3000):
            names = [f"n{i}" for i in range(rng.randint(1, 6))]
            order = [(rng.choice(names), rng.choice(names))
                     for _ in range(rng.randint(0, 8))]
            if rng.random() < 0.05:
                order.append((rng.choice(names), "zz"))
            val = {a: {x for x in ("p", "q") if rng.random() < 0.4}
                   for a in names if rng.random() < 0.5}
            args = (names, order, rng.choice(names), val, ())
            expected = _outcome(reference_beth, args)
            assert _outcome(validate_beth, args) == expected
            kinds.add(expected[0] if isinstance(expected, tuple) else dict)
        assert kinds == {dict, NotAPartialOrder, NoRoot, NonMonotoneValuation, UnknownNode}


def _ladder_document(levels: int) -> str:
    nodes, edges, root, val, _ = _ladder_input(levels, "p", "q")
    return "\n".join([
        "agents: a",
        "world u {",
        f"  root: {root};",
        "  nodes: " + ", ".join(nodes) + ";",
        "  order: " + ", ".join(f"{lo} < {hi}" for lo, hi in edges) + ";",
        *(f"  val {n}: {{{', '.join(sorted(atoms))}}};" for n, atoms in sorted(val.items())),
        "}",
        "access a: (u, u)",
        "",
    ])


class TestScale:
    """An 801-node ladder loads, and is checked and updated, in time close
    to linear in its size."""

    def test_validation_of_801_nodes(self):
        args = _ladder_input(400)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            m = validate_beth(*args)
            times.append(time.perf_counter() - start)
        assert len(m.nodes) == 801 and m.leaves == {"a400", "b400"}
        assert min(times) < 0.05

    def test_first_knowledge_check(self):
        m = BethKripkeModel({"u": _ladder(400)}, ("a",), {"a": {("u", "u")}})
        start = time.perf_counter()
        assert satisfies(m, "u", parse_formula("K{a}(x | y)")).value
        assert time.perf_counter() - start < 0.05

    def test_cli_check_and_announce(self, tmp_path, capsys):
        doc = tmp_path / "ladder.model"
        doc.write_text(_ladder_document(400))
        start = time.perf_counter()
        assert main(["check", str(doc), "u", "K{a}(p | q)"]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out.startswith("true")
        start = time.perf_counter()
        assert main(["announce", str(doc), "~q"]) == 0
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out
        assert "b400" not in out and "a400" in out

    def test_cli_names_the_cycle_of_3000_nodes(self, tmp_path, capsys):
        doc = tmp_path / "cycle.model"
        for order, cycle in _cyclic_orders(3000):
            nodes = sorted({a for pair in order for a in pair})
            doc.write_text("agents:\nworld s {\n  root: x0000;\n"
                           f"  nodes: {', '.join(nodes)};\n"
                           f"  order: {', '.join(f'{a} < {b}' for a, b in order)};\n}}\n")
            start = time.perf_counter()
            assert main(["check", str(doc), "s", "p"]) == 2
            assert time.perf_counter() - start < 0.5
            first, second = sorted(cycle)[:2]
            assert f"cycle through {first!r} and {second!r}" in capsys.readouterr().err

    def test_announcement_on_801_nodes(self):
        m = BethKripkeModel({"u": _ladder(400)}, ("a",), {"a": {("u", "u")}})
        start = time.perf_counter()
        updated = announce(m, parse_formula("~y"))
        assert time.perf_counter() - start < 1
        w = updated.worlds["u"]
        assert len(w.nodes) == 800 and w.leaves == {"a400"}
        assert w.covers["b399"] == ("a400",)


_DERIVED = {"covers", "leaves", "nodes"}


def _document_models(count: int):
    """Parsed documents of the shape the check-docs benchmark loads: up to
    four worlds of up to eight nodes over three atoms, up to three agents,
    half of them S5; then a 29-node ladder."""
    for seed in range(count):
        gen = GenParams(max_nodes_per_world=8, max_worlds=4, num_agents=1 + seed % 3,
                        atom_count=3, seed=seed, s5=seed % 2 == 0)
        yield modeldoc.parse_model_document(modeldoc.serialize_model(random_model(gen)))
    yield modeldoc.parse_model_document(_ladder_document(14))


def _formulas(rng: random.Random, m: BethKripkeModel, count: int):
    atoms = sorted(set().union(*(w.atoms for w in m.worlds.values()))) or ["p"]
    return [lab.random_formula(rng, 3, atoms, sorted(m.agents), allow_announce=True)
            for _ in range(count)]


def _assert_derived_match_reference(w: BethModel):
    pairs = [(a, b) for a, up in zip(w.node_order, w.up_mask) for b in w.names(up)]
    ref = reference_beth(w.node_order, pairs, w.root, w.val, w.atoms)
    assert w.covers == ref["covers"]
    assert w.leaves == ref["leaves"]
    assert w.nodes == frozenset(ref["node_order"])


class TestDerivedOnFirstUse:
    """The constructor builds ``leaf_mask`` only: a check never derives the
    covers, leaves or node set, and the readers that do (``--explain``,
    announcements, serialization) get the values of the set-based
    construction, for every builder of a model."""

    def test_a_check_derives_none(self):
        rng = random.Random(45)
        for m in _document_models(150):
            for f in _formulas(rng, m, 4):
                satisfies(m, rng.choice(m.world_order), f)
            if "u" in m.worlds:     # the ladder
                for f in ("x | y", "x -> y", "K{a}(x | y)", "[x]K{a}y", "<~y>x"):
                    satisfies(m, "u", parse_formula(f))
            assert all(not _DERIVED & set(vars(w)) for w in m.worlds.values())

    @staticmethod
    def _read_and_compare(models, rng):
        for m in models:
            assert all(not _DERIVED & set(vars(w)) for w in m.worlds.values())
            updated = []
            for f in _formulas(rng, m, 2):
                for s in m.world_order:
                    forces(m, s, m.worlds[s].root, f, explain=True)
                after = announce(m, f)
                modeldoc.serialize_model(after)
                updated.append(after)
            modeldoc.serialize_model(m)
            for w in m.worlds.values():
                _assert_derived_match_reference(w)
            for after in updated:
                for w in after.worlds.values():
                    if w not in m.worlds.values():      # a restricted model
                        _assert_derived_match_reference(w)

    def test_validated_models(self):
        self._read_and_compare(_document_models(60), random.Random(46))

    def test_random_beth_draws(self):
        models = (random_model(GenParams(max_nodes_per_world=7, max_worlds=3, atom_count=3,
                                         seed=seed, s5=seed % 2 == 0))
                  for seed in range(120))
        self._read_and_compare(models, random.Random(47))

    def test_enumerated_models(self):
        models = (BethKripkeModel({"w": w}, ("a",), {"a": {("w", "w")}})
                  for w in enumerate_small_beth(4, ("p", "q")))
        self._read_and_compare(models, random.Random(48))

    def test_restricted_models_of_a_ladder(self):
        m = BethKripkeModel({"u": _ladder(30)}, ("a",), {"a": {("u", "u")}})
        for text in ("~y", "~x", "x | y", "top"):
            w = announce(m, parse_formula(text)).worlds["u"]
            assert not _DERIVED & set(vars(w))
            modeldoc.serialize_beth(w)
            _assert_derived_match_reference(w)


def test_extension_leaves_no_cyclic_garbage(fork_pq):
    m = validate_beth(fork_pq.node_order, [("a", "b"), ("a", "c")], "a", fork_pq.val)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert forces_prop(m, "a", parse_formula("p | q"))
        assert equivalent_up_to_depth(PointedBeth(m, "a"), PointedBeth(fork_pq, "b"), 1,
                                      ("p", "q")) == p
        assert lab.nontranslatability_witness(2).equivalent is None
        del m
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
