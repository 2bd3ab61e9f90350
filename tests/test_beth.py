import ast
import gc
import itertools
import random

import pytest

from bethpal.beth import (
    BethModel, NoRoot, NodeOutsideUpSet, NonMonotoneValuation,
    NonPropositionalFormula, NotAPartialOrder, PointedBeth, UnknownNode,
    avoiding_path, equivalent_up_to_depth, forces_prop, is_bar,
    maximal_paths, up_set, validate_beth,
)
from bethpal.dynamic import BethKripkeModel, satisfies
from bethpal.formula import And, Atom, Imp, Neg, Or, BOT, TOP, parse_formula
from bethpal import lab
from bethpal.lab import enumerate_small_beth, random_beth
from bethpal.proofkit import A1_IDS, SCHEMAS
from bethpal.formula import substitute

from helpers import brute_maximal_chains, classical_eval

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


def _posets_up_to_5_nodes():
    """Every rooted poset with up to 5 nodes, without valuation: the
    enumerator's up-to-4-node models plus the 5-node posets it stops short of."""
    yield from enumerate_small_beth(4, ())
    names = [f"n{i}" for i in range(5)]
    for rel in lab._rooted_posets(5):
        yield validate_beth(names, [(names[a], names[b]) for a, b in rel], "n0")


def _ladder(levels: int):
    """Width-2 ladder: root r, then levels of two nodes each, every node
    covered by both nodes of the next level (2**levels maximal paths).  x holds
    at the leaf a<levels>, y at the leaf b<levels>."""
    rows = [("r",)] + [(f"a{i:03d}", f"b{i:03d}") for i in range(1, levels + 1)]
    edges = [(lo, hi) for below, above in zip(rows, rows[1:])
             for lo in below for hi in above]
    top_a, top_b = rows[-1]
    return validate_beth([n for row in rows for n in row], edges, "r",
                         {top_a: {"x"}, top_b: {"y"}}, ("x", "y"))


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
        with pytest.raises(NonPropositionalFormula):
            forces_prop(fork_pq, "a", parse_formula("K{a}p"))
        with pytest.raises(NonPropositionalFormula):
            forces_prop(fork_pq, "a", parse_formula("<p>top"))

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
        for i in range(100):
            m = random_beth(rng, 5, ("p", "q"))
            binding = {v: _random_prop(rng, 3) for v in ("X", "Y", "Z")}
            for sid in A1_IDS:
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
