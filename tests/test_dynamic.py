import ast
import gc
import random
import re
import time
import weakref

import pytest

from bethpal.dynamic import (
    BethKripkeModel, RelationReport, UnknownAgent, UnknownWorld, announce,
    check_s5, forces, render_trace, restrict_world, satisfies,
)
from bethpal.formula import (
    And, Announce, Atom, Diamond, Imp, Know, Neg, Or, BOT, TOP, agent_names,
    metavariables, parse_formula,
)
from bethpal.beth import forces_prop, validate_beth
from bethpal import lab
from bethpal.lab import (
    GenParams, enumerate_small_beth, naive_forces, propositional_pool,
    random_formula, random_model, split_seed,
)
from bethpal.proofkit import SCHEMAS
from bethpal.sep import build_sep

from helpers import brute_maximal_chains

p, q = Atom("p"), Atom("q")


class TestAnnouncementExamples:
    def test_both_p_and_not_p_announceable(self, fork_model):
        assert satisfies(fork_model, "s", parse_formula("<p>top")).value
        assert satisfies(fork_model, "s", parse_formula("<~p>top")).value
        assert satisfies(fork_model, "s", parse_formula("<p>top & <~p>top")).value

    def test_box_after_each_branch(self, fork_model):
        assert satisfies(fork_model, "s", parse_formula("[p]~q")).value
        assert satisfies(fork_model, "s", parse_formula("[~p]q")).value

    def test_announcement_truth_is_root_anchored(self, fork_model):
        # Every node of a world agrees on announcement formulas.
        for text in ("<p>top", "<~p>top", "[p]~q", "[q]p"):
            f = parse_formula(text)
            values = {forces(fork_model, "s", n, f).value for n in ("a", "b", "c")}
            assert len(values) == 1

    def test_restrict_keeps_undecided_and_supporting(self, fork_model):
        restricted = restrict_world(fork_model, "s", p)
        assert restricted is not None
        assert restricted.node_order == ("a", "b")
        assert restricted.root == "a"

    def test_restrict_by_top_is_identity(self, fork_model):
        restricted = restrict_world(fork_model, "s", TOP)
        assert restricted.node_order == fork_model.worlds["s"].node_order

    def test_restricted_world_satisfies_negated_other_atom(self, fork_model):
        updated = announce(fork_model, p)
        assert updated.worlds["s"].node_order == ("a", "b")
        assert satisfies(updated, "s", Neg(q)).value

    def test_announce_bottom_empties_the_model(self, fork_model):
        updated = announce(fork_model, BOT)
        assert updated.is_empty
        with pytest.raises(UnknownWorld):
            satisfies(updated, "s", TOP)

    def test_announce_top_is_identity(self, fork_model):
        updated = announce(fork_model, TOP)
        assert updated.world_order == fork_model.world_order
        for s in updated.world_order:
            assert updated.worlds[s].node_order == fork_model.worlds[s].node_order

    def test_announce_drops_refuting_worlds(self, fork_pq, world_q):
        m = BethKripkeModel({"s": fork_pq, "t": world_q}, ("i",),
                            {"i": {("s", "s"), ("s", "t"), ("t", "t"), ("t", "s")}})
        updated = announce(m, p)
        assert updated.world_order == ("s",)
        assert updated.access["i"] == {("s", "s")}

    def test_evaluation_builds_no_updated_model(self, fork_model):
        assert satisfies(fork_model, "s", parse_formula("[p]K{i}p")).value
        assert satisfies(fork_model, "s", parse_formula("<~p>top")).value
        assert fork_model._announce == {}

    def test_nested_announcements_materialize(self, fork_model):
        # <p><q>top fails: after announcing p the q-branch is gone.
        assert not satisfies(fork_model, "s", parse_formula("<p><q>top")).value
        assert satisfies(fork_model, "s", parse_formula("<p><p>top")).value


class TestKnowledge:
    def test_knowledge_requires_all_nodes_of_accessible_worlds(self, fork_model):
        assert satisfies(fork_model, "s", parse_formula("K{i}(p|q)")).value
        assert not satisfies(fork_model, "s", parse_formula("K{i}p")).value
        assert satisfies(fork_model, "s", parse_formula("~K{i}p")).value

    def test_unknown_agent(self, fork_model):
        with pytest.raises(UnknownAgent):
            satisfies(fork_model, "s", parse_formula("K{nobody}p"))

    def test_unknown_agent_under_a_false_conjunct(self, fork_model):
        with pytest.raises(UnknownAgent):
            satisfies(fork_model, "s", parse_formula("bot & K{zz}p"))

    def test_nested_unknown_agents_name_the_inner_one(self, fork_model):
        # The body is labeled before the agent's successors are read.
        with pytest.raises(UnknownAgent) as err:
            satisfies(fork_model, "s", parse_formula("K{zz}K{yy}p"))
        assert err.value.agent == "yy"

    def test_unknown_world(self, fork_model):
        with pytest.raises(UnknownWorld):
            satisfies(fork_model, "zz", p)

    def test_successors_of_an_unknown_agent(self, fork_model):
        with pytest.raises(UnknownAgent) as err:
            fork_model.successors("zz", "s")
        assert err.value.agent == "zz"
        assert fork_model.successors("i", "s") == ("s",)

    def test_constructor_rejects_an_undeclared_agent(self, fork_pq):
        with pytest.raises(UnknownAgent) as err:
            BethKripkeModel({"s": fork_pq}, ("i",), {"i": {("s", "s")}, "j": set()})
        assert err.value.agent == "j"

    def test_constructor_names_the_smallest_stray_pair(self, fork_pq):
        # ("s", "y") is the smallest pair naming a world that is not there,
        # so "y" is the witness, not "x" or "z".
        with pytest.raises(UnknownWorld) as err:
            BethKripkeModel({"s": fork_pq, "t": fork_pq}, ("i",),
                            {"i": {("t", "x"), ("z", "s"), ("s", "y"), ("s", "t")}})
        assert err.value.world == "y"
        with pytest.raises(UnknownWorld) as err:
            BethKripkeModel({"s": fork_pq}, ("i",), {"i": {("y", "x")}})
        assert err.value.world == "y"

    def test_no_successors_means_vacuous_knowledge(self, fork_pq):
        m = BethKripkeModel({"s": fork_pq}, ("i",), {"i": set()})
        assert satisfies(m, "s", Know("i", BOT)).value

    def test_two_worlds_distinguish(self, fork_pq, world_p):
        m = BethKripkeModel(
            {"s": world_p, "t": fork_pq}, ("i",),
            {"i": {("s", "s"), ("s", "t"), ("t", "s"), ("t", "t")}})
        # The agent cannot rule out the open world, so p is not known.
        assert not satisfies(m, "s", Know("i", p)).value
        # After announcing p the open world keeps only its p-branch.
        updated = announce(m, p)
        assert set(updated.world_order) == {"s", "t"}
        assert satisfies(updated, "s", Know("i", p)).value


class TestSepWorld:
    def test_every_stage_of_the_announcement_sequence_is_executable(self):
        m = build_sep().model
        sequence = ("<p1>top & <~p1>top & <~p1><p2>top & <~p1><~p2>top "
                    "& <~p1><~p2><p3>top")
        assert satisfies(m, "s", parse_formula(sequence)).value

    def test_root_knows_nothing_specific(self):
        m = build_sep().model
        assert not satisfies(m, "s", parse_formula("K{student}p3")).value
        assert satisfies(m, "s", parse_formula("~K{student}p3")).value
        assert satisfies(m, "s", parse_formula("K{student}(p1|p2|p3)")).value

    def test_restrict_drops_wednesday(self):
        m = build_sep().model
        restricted = restrict_world(m, "s", parse_formula("~p1"))
        assert restricted.node_order == ("fri", "now", "thu")

    def test_two_announcements_force_friday(self):
        m = build_sep().model
        m1 = announce(m, parse_formula("~p1"))
        m2 = announce(m1, parse_formula("~p2"))
        assert m2.worlds["s"].node_order == ("fri", "now")
        assert satisfies(m2, "s", parse_formula("K{student}p3")).value


class TestS5Check:
    def test_sep_relation_is_equivalence(self):
        report = check_s5(build_sep().model)["student"]
        assert report.reflexive and report.transitive and report.euclidean
        assert report.equivalence
        assert build_sep().model.is_s5

    def test_empty_relation_not_reflexive(self, fork_pq):
        m = BethKripkeModel({"s": fork_pq}, ("i",), {"i": set()})
        report = check_s5(m)["i"]
        assert not report.reflexive
        assert report.witnesses["reflexive"] == ("s", "s")

    def test_single_cross_pair(self, fork_pq, world_p):
        m = BethKripkeModel({"s": world_p, "t": fork_pq}, ("i",), {"i": {("s", "t")}})
        report = check_s5(m)["i"]
        assert not report.reflexive
        assert not report.euclidean
        assert report.witnesses["euclidean"] == ("t", "t")
        assert report.transitive  # vacuously
        assert not report.equivalence
        assert not m.is_s5

    def test_first_witness_of_each_failure(self, world_p):
        rel = {("s", "t"), ("t", "t"), ("t", "u"), ("u", "s")}
        m = BethKripkeModel({w: world_p for w in "stu"}, ("i",), {"i": rel})
        report = check_s5(m)["i"]
        assert not (report.reflexive or report.transitive or report.euclidean)
        assert report.witnesses == {"reflexive": ("s", "s"), "transitive": ("s", "u"),
                                    "euclidean": ("u", "t")}

    def test_large_universal_relation(self, world_p):
        # Re-sorting the relation inside the pair loops took seconds here.
        names = [f"w{i:02d}" for i in range(40)]
        m = BethKripkeModel({w: world_p for w in names}, ("i",),
                            {"i": {(a, b) for a in names for b in names}})
        start = time.perf_counter()
        assert check_s5(m)["i"].equivalence
        assert time.perf_counter() - start < 1.0

    def test_witnesses_match_the_pair_scan(self, world_p):
        """Against the construction that found each world's successors by
        scanning all of the agent's pairs."""
        rng = random.Random(17)
        for _ in range(500):
            names = [f"w{i}" for i in range(rng.randint(1, 5))]
            density = rng.random()
            rel = {(a, b) for a in names for b in names if rng.random() < density}
            m = BethKripkeModel({w: world_p for w in names}, ("i",), {"i": rel})
            assert check_s5(m)["i"] == _scanning_check_s5(m, "i")

    def test_first_knowledge_check_on_320_worlds(self, world_p):
        # Scanning every pair for every world took over a second here.
        names = [f"w{i:03d}" for i in range(320)]
        m = BethKripkeModel({w: world_p for w in names}, ("i",),
                            {"i": {(a, b) for a in names for b in names}})
        start = time.perf_counter()
        assert satisfies(m, names[0], parse_formula("K{i}p")).value
        assert time.perf_counter() - start < 0.5

    def test_160_world_universal_relation(self, world_p):
        # Walking every (a, b, c) triple took about 1.5 s here.
        names = [f"w{i:03d}" for i in range(160)]
        pairs = {(a, b) for a in names for b in names}
        times = []
        for _ in range(3):
            m = BethKripkeModel({w: world_p for w in names}, ("i",), {"i": pairs})
            start = time.perf_counter()
            assert check_s5(m)["i"].equivalence
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05


def _scanning_check_s5(m, agent):
    rel = m.access[agent]
    succ = {s: tuple(sorted(t for (u, t) in rel if u == s)) for s in m.world_order}
    gaps = {
        "reflexive": ((s, s) for s in m.world_order),
        "transitive": ((a, c) for a in m.world_order for b in succ[a] for c in succ[b]),
        "euclidean": ((b, c) for a in m.world_order for b in succ[a] for c in succ[a]),
    }
    witnesses = {}
    for prop, pairs in gaps.items():
        gap = next((pair for pair in pairs if pair not in rel), None)
        if gap is not None:
            witnesses[prop] = gap
    reflexive, transitive, euclidean = (prop not in witnesses for prop in gaps)
    return RelationReport(reflexive, transitive, euclidean,
                          reflexive and transitive and euclidean, witnesses)


def _models(seed, count, **kw):
    for t in range(count):
        params = GenParams(seed=split_seed(seed, t), **kw)
        yield random_model(params)


class TestModelProperties:
    def test_knowledge_is_world_global(self):
        rng = random.Random(21)
        for m in _models(21, 150):
            agents = sorted(m.agents)
            f = Know(rng.choice(agents),
                     random_formula(rng, 2, ("p", "q"), agents, allow_know=True))
            for s in m.world_order:
                values = {forces(m, s, n, f).value for n in m.worlds[s].node_order}
                assert len(values) == 1

    def test_knowing_is_decidable(self):
        rng = random.Random(22)
        for m in _models(22, 150):
            agents = sorted(m.agents)
            phi = random_formula(rng, 3, ("p", "q"), agents, allow_know=True)
            i = rng.choice(agents)
            f = Or(Know(i, phi), Neg(Know(i, phi)))
            for s in m.world_order:
                assert satisfies(m, s, f).value

    def test_persistence_without_announcements(self):
        rng = random.Random(23)
        for m in _models(23, 150):
            agents = sorted(m.agents)
            f = random_formula(rng, 3, ("p", "q"), agents, allow_know=True)
            for s in m.world_order:
                w = m.worlds[s]
                for a in w.node_order:
                    if forces(m, s, a, f).value:
                        assert all(forces(m, s, b, f).value for b in w.up[a])

    def test_announcement_success_propositional(self):
        rng = random.Random(24)
        for m in _models(24, 150):
            ann = random_formula(rng, 2, ("p", "q"))
            updated = announce(m, ann)
            for s in updated.world_order:
                w = updated.worlds[s]
                assert all(forces(updated, s, b, ann).value for b in w.node_order)

    def test_epistemic_announcement_can_fail_success(self, fork_model):
        # The self-defeating announcement: p holds but you do not know it.
        moore = parse_formula("p & ~K{i}p")
        updated = announce(fork_model, moore)
        w = updated.worlds["s"]
        assert w.node_order == ("a", "b")
        assert not all(forces(updated, "s", b, moore).value for b in w.node_order)

    def test_restriction_downward_closed(self):
        rng = random.Random(25)
        for m in _models(25, 150):
            ann = random_formula(rng, 2, ("p", "q"))
            for s in m.world_order:
                w = m.worlds[s]
                restricted = restrict_world(m, s, ann)
                if restricted is None:
                    continue
                kept = restricted.nodes
                for b in kept:
                    assert all(a in kept for a in w.node_order if w.leq(a, b))

    @pytest.mark.parametrize("s5", [True, False])
    def test_restriction_matches_validation(self, s5):
        # announce builds each kept world without re-validating it; the
        # validated model of the same nodes, order, valuation and atoms is
        # the reference.
        rng = random.Random(28)
        shrunk = 0
        for m in _models(28, 150, s5=s5):
            agents = sorted(m.agents)
            ann = random_formula(rng, 2, ("p", "q"), agents,
                                 allow_know=True, allow_announce=True)
            for s in m.world_order:
                w = m.worlds[s]
                keep = [n for n in w.node_order if not naive_forces(m, s, n, Neg(ann))]
                restricted = restrict_world(m, s, ann)
                if w.root not in keep:
                    assert restricted is None
                    continue
                order = [(a, b) for (a, b) in w.leq_pairs if a in keep and b in keep]
                ref = validate_beth(keep, order, w.root, {n: w.val[n] for n in keep}, w.atoms)
                for attr in ("node_order", "leq_pairs", "up", "root", "val", "atoms",
                             "covers", "leaves", "up_mask", "leaf_mask"):
                    assert getattr(restricted, attr) == getattr(ref, attr), attr
                shrunk += len(keep) < len(w.node_order)
        assert shrunk > 10

    def test_diamond_box_duality(self):
        rng = random.Random(26)
        for m in _models(26, 100):
            agents = sorted(m.agents)
            phi = random_formula(rng, 2, ("p", "q"), agents, allow_know=True)
            psi = random_formula(rng, 2, ("p", "q"), agents, allow_know=True)
            for s in m.world_order:
                dia = satisfies(m, s, Diamond(phi, psi)).value
                box = satisfies(m, s, Announce(phi, psi)).value
                executable = not satisfies(m, s, Neg(phi)).value
                assert dia == (executable and box)


class TestClosedTheory:
    def test_known_formulas_closed_under_mp_and_conjunction(self):
        # The universe is the depth <= 2 fragment over {p, q}, deduplicated to
        # one representative per truth vector on the model; closure steps are
        # only required when the composed formula stays inside the universe.
        from bethpal.formula import depth
        from bethpal.lab import propositional_pool

        m = random_model(GenParams(seed=779, max_worlds=3, max_nodes_per_world=4))
        agent = sorted(m.agents)[0]
        s = m.world_order[0]

        def known(f):
            return satisfies(m, s, Know(agent, f)).value

        reps = {}
        for f in propositional_pool(("p", "q"), 2):
            vec = tuple(forces(m, w, n, f).value
                        for w in m.world_order for n in m.worlds[w].node_order)
            reps.setdefault(vec, f)
        universe = list(reps.values())
        shallow = [f for f in universe if depth(f) <= 1]
        assert len(universe) > 4
        for a in shallow:
            for b in shallow:
                if known(a) and known(Imp(a, b)):
                    assert known(b)
                if known(a) and known(b):
                    assert known(And(a, b))


class TestTraces:
    def test_explained_result_matches_value(self, fork_model):
        f = parse_formula("[p]~q & K{i}(p|q)")
        res = forces(fork_model, "s", "a", f, explain=True)
        assert res.value
        assert res.trace is not None
        text = render_trace(res.trace)
        assert "announce" in text and "knows" in text

    def test_trace_shows_failing_path(self, fork_model):
        res = forces(fork_model, "s", "a", p, explain=True)
        assert not res.value
        assert "never carries the atom" in res.trace.note

    def test_trace_truncation(self):
        from bethpal.beth import validate_beth
        nodes = ["r"] + [f"l{i}" for i in range(12)]
        m_beth = validate_beth(
            nodes, [("r", leaf) for leaf in nodes[1:]], "r",
            {leaf: {"p"} for leaf in nodes[1:]})
        m = BethKripkeModel({"s": m_beth}, (), {})
        res = forces(m, "s", "r", p, explain=True, max_items=4)
        assert res.value
        assert "..." in res.trace.note

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_lists_the_whole_bar(self, fork_model, cap):
        res = forces(fork_model, "s", "a", parse_formula("p | q"), explain=True,
                     max_items=cap)
        assert res.trace.note == "bar {b, c} settles a disjunct"

    def test_failing_paths_are_the_first_in_path_order(self, fork_model):
        atom = forces(fork_model, "s", "a", p, explain=True)
        assert atom.trace.note == "path ['a', 'c'] never carries the atom"
        either = forces(fork_model, "s", "a", parse_formula("q | q"), explain=True)
        assert either.trace.note == "path ['a', 'b'] settles neither disjunct"
        unknown = forces(fork_model, "s", "a", parse_formula("r | bot"), explain=True)
        assert unknown.trace.note == "path ['a', 'b'] settles neither disjunct"

    def test_memoization_consistent_across_calls(self, fork_model):
        f = parse_formula("[p](q | ~q)")
        first = satisfies(fork_model, "s", f).value
        second = satisfies(fork_model, "s", f).value
        assert first == second

    @pytest.mark.parametrize("explain", [False, True])
    def test_not_a_formula(self, fork_model, explain):
        with pytest.raises(TypeError, match=r"^not a formula: 'p'$"):
            satisfies(fork_model, "s", "p", explain=explain)


def _check_notes(m, trace):
    """Assert that the note of ``trace`` and of every trace below it is
    true in the model it is about, by the path-based oracle; the notes of
    an executable announcement's sub-trace are about the updated model.
    Returns the number of notes checked."""
    s, node, f, note = trace.world, trace.node, trace.formula, trace.note
    w = m.world(s)
    assert trace.value == naive_forces(m, s, node, f), (s, node, f)
    checked = 1
    if hit := re.fullmatch(r"fails above at '([^']*)'", note):
        b = hit[1]
        assert w.leq(node, b)
        assert naive_forces(m, s, b, f.left) and not naive_forces(m, s, b, f.right)
    elif hit := re.fullmatch(r"body forced above at '([^']*)'", note):
        assert w.leq(node, hit[1]) and naive_forces(m, s, hit[1], f.body)
    elif hit := re.fullmatch(r"fails in accessible world '([^']*)' at '([^']*)'", note):
        t, b = hit[1], hit[2]
        assert t in m.successors(f.agent, s)
        assert not naive_forces(m, t, b, f.body)
    elif hit := re.fullmatch(r"bar \{(.*)\} settles (the atom|a disjunct)", note):
        bar = set(hit[1].split(", ")) if hit[1] else set()
        for b in bar:
            assert w.leq(node, b)
            if isinstance(f, Atom):
                assert f.name in w.val[b]
            else:
                assert naive_forces(m, s, b, f.left) or naive_forces(m, s, b, f.right)
        assert all(bar & set(path)
                   for path in brute_maximal_chains(w.node_order, w.leq_pairs, node))
    elif hit := re.fullmatch(r"path (\[.*\]) (never carries the atom|settles neither disjunct)",
                             note):
        path = tuple(ast.literal_eval(hit[1]))
        assert path in brute_maximal_chains(w.node_order, w.leq_pairs, node)
        for b in path:
            if isinstance(f, Atom):
                assert f.name not in w.val[b]
            else:
                assert not naive_forces(m, s, b, f.left)
                assert not naive_forces(m, s, b, f.right)
    else:
        checked = 0
    inner = announce(m, f.announced) if note.startswith("announcement executable") else m
    return checked + sum(_check_notes(inner, child) for child in trace.children)


class TestTraceNotes:
    """The evidence a trace shows is true: every node, world and path a
    note names has the property the note claims, on random models and
    formulas with knowledge and announcements.  Bars are listed in full."""

    @pytest.mark.parametrize("s5", [True, False])
    def test_notes_on_random_models(self, s5):
        rng = random.Random(31)
        kinds = set()
        checked = 0
        for m in _models(31, 100, s5=s5):
            agents = sorted(m.agents)
            for _ in range(3):
                f = random_formula(rng, 3, ("p", "q"), agents,
                                   allow_know=True, allow_announce=True)
                for s in m.world_order:
                    for node in m.worlds[s].node_order:
                        trace = forces(m, s, node, f, explain=True, max_items=0).trace
                        checked += _check_notes(m, trace)
                        kinds.add(trace.rule)
        assert checked > 1000
        assert {"atom-bar", "or-bar", "implies", "not", "knows"} <= kinds


class TestLabelingAgainstOracle:
    """The labeling evaluator behind forces_prop and forces against the
    path-based oracle lab.naive_forces, at every node; the oracle, too,
    forces at a node exactly what every leaf above it forces."""

    def test_on_all_small_beth_models(self):
        pool = propositional_pool(("p", "q"), 1)
        count = 0
        for m in enumerate_small_beth(4, ("p", "q")):
            wrapped = BethKripkeModel({"w": m}, (), {})
            for f in pool:
                naive = {node: naive_forces(wrapped, "w", node, f) for node in m.node_order}
                for node in m.node_order:
                    assert forces_prop(m, node, f) == naive[node]
                    assert naive[node] == all(naive[b] for b in m.up[node] & m.leaves)
            count += 1
        assert count == 281

    @pytest.mark.parametrize("s5", [True, False])
    def test_on_random_models(self, s5):
        rng = random.Random(11)
        for t in range(300):
            m = random_model(GenParams(seed=split_seed(11, t), s5=s5))
            agents = sorted(m.agents)
            for _ in range(4):
                f = random_formula(rng, 3, ("p", "q"), agents,
                                   allow_know=True, allow_announce=True)
                for s in m.world_order:
                    w = m.worlds[s]
                    naive = {node: naive_forces(m, s, node, f) for node in w.node_order}
                    for node in w.node_order:
                        assert forces(m, s, node, f).value == naive[node], (t, s, node, f)
                        assert naive[node] == all(naive[b] for b in w.up[node] & w.leaves)


class TestFreedByReferenceCounting:
    """A layout refers to no model, so a model is freed when its last
    reference goes, without the cyclic garbage collector."""

    @staticmethod
    def freed(make, use) -> bool:
        """Whether the model ``make()`` builds dies with its one reference,
        after ``use`` has run on it."""
        gc.disable()
        try:
            model = make()
            use(model)
            ref = weakref.ref(model)
            del model
            return ref() is None
        finally:
            gc.enable()

    def test_kripke_model_after_explained_checks(self):
        formulas = [parse_formula(text) for text in
                    ("K{a}p -> [p]K{b}q", "<~q>K{a}(p | q)", "[K{b}p]~K{a}q")]

        def use(m):
            for s in m.world_order:
                for f in formulas:
                    assert satisfies(m, s, f, explain=True).trace is not None

        assert self.freed(lambda: random_model(GenParams(seed=5, max_worlds=3)), use)

    def test_bare_model_after_forcing(self):
        def make():
            return validate_beth(("a", "b", "c"), (("a", "b"), ("a", "c")), "a",
                                 {"b": {"p"}, "c": {"q"}}, ("p", "q"))

        def use(w):
            assert forces_prop(w, "a", parse_formula("p | q"))
            assert not forces_prop(w, "a", parse_formula("~p"))

        assert self.freed(make, use)

    def test_trial_model_after_a_counterexample(self):
        schema = SCHEMAS["A3"].pattern

        def use(m):
            found = lab._first_counterexample(
                m, schema, sorted(metavariables(schema)), sorted(agent_names(schema)),
                lab._semantic_reps(m, (("p", "q"), 1)))
            assert found is not None and found.model is m

        assert self.freed(lambda: random_model(GenParams(seed=split_seed(7, 0), s5=False)), use)
