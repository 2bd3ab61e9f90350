import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bethpal.beth import fingerprint_classes, forces_prop, validate_beth
from bethpal.dynamic import BethKripkeModel, check_s5, forces, satisfies
from bethpal.formula import (
    TOP, Atom, Know, is_metavariable, parse_formula, print_formula, subformulas, substitute,
)
from bethpal import lab
from bethpal.lab import (
    BoundTooLarge, Counterexample, GenParams, NoCounterexample,
    SchemaInstanceSpace, enumerate_small_beth, naive_forces,
    nontranslatability_witness, propositional_pool, random_formula,
    random_model, split_seed,
)
from bethpal.modeldoc import model_digest, serialize_model
from bethpal.proofkit import SCHEMAS

from helpers import (
    every_valuation_model, per_copy_masks, reference_classes, reference_random_beth,
    reference_semantic_reps,
)


class TestGenerators:
    def test_reproducible(self):
        p = GenParams(seed=12345)
        assert serialize_model(random_model(p)) == serialize_model(random_model(p))

    def test_different_seeds_differ_somewhere(self):
        docs = {serialize_model(random_model(GenParams(seed=s))) for s in range(12)}
        assert len(docs) > 1

    @pytest.mark.parametrize("max_nodes", [1, 4, 12])
    def test_random_beth_builds_what_validation_builds(self, max_nodes):
        # Twelve nodes name m10 and m11, which sort before m2.
        fields = ("node_order", "index", "up_mask", "covers", "leaf_mask", "leaves",
                  "root", "val", "atoms")
        for seed in range(2000):
            atoms = lab.ATOM_NAMES[:1 + seed % 3]
            rng, ref_rng = random.Random(seed), random.Random(seed)
            built = lab.random_beth(rng, max_nodes, atoms)
            expected = reference_random_beth(ref_rng, max_nodes, atoms)
            for name in fields:
                got, want = getattr(built, name), getattr(expected, name)
                assert got == want, (seed, name)
                if isinstance(want, dict):
                    assert list(got) == list(want), (seed, name)
            assert rng.getstate() == ref_rng.getstate(), seed

    def test_random_beth_at_the_bounds(self):
        # Every atom name, and forty nodes, whose names m10 to m39 sort out of
        # the order they are drawn in.
        fields = ("node_order", "index", "up_mask", "covers", "leaf_mask", "leaves",
                  "root", "val", "atoms")
        for seed in range(300):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            built = lab.random_beth(rng, 40, lab.ATOM_NAMES)
            expected = reference_random_beth(ref_rng, 40, lab.ATOM_NAMES)
            for name in fields:
                got, want = getattr(built, name), getattr(expected, name)
                assert got == want, (seed, name)
                if isinstance(want, dict):
                    assert list(got) == list(want), (seed, name)
            assert rng.getstate() == ref_rng.getstate(), seed

    def test_import_builds_no_name_table(self):
        # The node and world names are built on the first draw, in the
        # process that draws; a fresh import of the lab has drawn nothing.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(lab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
        code = ("import bethpal.lab as lab; print(lab._drawn_order.cache_info().misses, "
                "lab._world_names.cache_info().misses)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.split() == ["0", "0"]

    def test_name_tables_cover_the_bounds(self):
        random_model(GenParams(seed=1))
        n = lab.MAX_NODES_PER_WORLD
        nodes, at, index = lab._drawn_order(n)
        assert [nodes[i] for i in at] == [f"m{i}" for i in range(n)]
        assert list(nodes) == sorted(nodes) and index == {a: i for i, a in enumerate(nodes)}
        assert lab._world_names() == tuple(f"w{i}" for i in range(lab.MAX_WORLDS))
        assert lab._world_names.cache_info().currsize == 1
        assert lab._drawn_order.cache_info().maxsize == 64

    def test_random_beth_models_own_their_index(self):
        rng = random.Random(0)
        first, second = (lab.random_beth(rng, 1, ("p",)) for _ in range(2))
        assert first.node_order == second.node_order == ("m0",)
        assert first.index == second.index and first.index is not second.index

    @pytest.mark.parametrize("max_nodes, atoms, message", [
        (0, ("p",), "max_nodes must be between 1 and 1000, not 0"),
        (lab.MAX_NODES_PER_WORLD + 1, ("p",), "max_nodes must be between 1 and 1000, not 1001"),
        (4, lab.ATOM_NAMES + ("t",), "at most 10 atoms, not 11"),
    ])
    def test_random_beth_bounds_named(self, max_nodes, atoms, message):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"^{message}$"):
            lab.random_beth(rng, max_nodes, atoms)
        assert rng.getstate() == state      # refused before any draw

    def test_worlds_validate_and_s5_holds(self):
        for t in range(40):
            m = random_model(GenParams(seed=split_seed(1, t), s5=True))
            for s in m.world_order:
                w = m.worlds[s]
                rebuilt = validate_beth(
                    w.node_order,
                    [(a, b) for (a, b) in w.leq_pairs if a != b],
                    w.root, w.val, w.atoms)
                assert rebuilt.leq_pairs == w.leq_pairs
            assert all(rep.equivalence for rep in check_s5(m).values())

    def test_no_s5_is_irreflexive(self):
        for t in range(40):
            m = random_model(GenParams(seed=split_seed(2, t), s5=False))
            for agent in m.agents:
                assert all(a != b for (a, b) in m.access[agent])

    def test_degenerate_bounds(self):
        m = random_model(GenParams(max_nodes_per_world=1, max_worlds=1, seed=3))
        assert m.world_order == ("w0",)
        assert m.worlds["w0"].node_order == ("m0",)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            GenParams(max_worlds=0)

    def test_node_bound_rejected(self):
        GenParams(max_nodes_per_world=lab.MAX_NODES_PER_WORLD)
        with pytest.raises(ValueError):
            GenParams(max_nodes_per_world=lab.MAX_NODES_PER_WORLD + 1)

    def test_world_bound_rejected(self):
        GenParams(max_worlds=lab.MAX_WORLDS)
        with pytest.raises(ValueError, match="at most 1000 worlds"):
            GenParams(max_worlds=lab.MAX_WORLDS + 1)

    def test_document_bound_rejected(self):
        # Every model drawn must fit in a document that check can load.
        GenParams(max_nodes_per_world=20, max_worlds=lab.MAX_WORLDS)
        with pytest.raises(lab.BoundTooLarge, match="model of 21,000 nodes"):
            GenParams(max_nodes_per_world=21, max_worlds=lab.MAX_WORLDS)
        with pytest.raises(lab.BoundTooLarge, match="model of 90,000 nodes"):
            GenParams(max_nodes_per_world=300, max_worlds=300)

    @pytest.mark.parametrize("nodes, seed, digest", [
        (4, 1, "7e7b9f4043df"), (12, 2, "2b6488ef1a0a"),
        (40, 3, "fd7139081b42"), (200, 4, "687b7cca7678"),
    ])
    def test_models_are_pinned(self, nodes, seed, digest):
        # The generator's draws, and so every lab report, stay as they were.
        p = GenParams(seed=split_seed(seed, 0), max_nodes_per_world=nodes, atom_count=3)
        assert model_digest(random_model(p)) == digest

    @pytest.mark.parametrize("params, digest", [
        (dict(seed=split_seed(5, 0), max_nodes_per_world=12, atom_count=10, num_agents=6,
              s5=False), "133cb9fe7190"),
        (dict(seed=split_seed(6, 0), max_nodes_per_world=40, max_worlds=30, atom_count=10),
         "e09b369d8047"),
        (dict(seed=split_seed(7, 0), max_nodes_per_world=1000, max_worlds=2, atom_count=10),
         "a089a3647fc9"),
    ])
    def test_wide_models_are_pinned(self, params, digest):
        # Every atom name, and node names drawn out of their sorted order.
        assert model_digest(random_model(GenParams(**params))) == digest

    def test_unnameable_bounds_rejected(self):
        with pytest.raises(ValueError):
            GenParams(atom_count=len(lab.ATOM_NAMES) + 1)
        with pytest.raises(ValueError):
            GenParams(num_agents=len(lab.AGENT_NAMES) + 1)

    def test_random_formula_depth_cap(self):
        rng = random.Random(4)
        from bethpal.formula import depth
        for _ in range(200):
            f = random_formula(rng, 3, ("p", "q"), ("a",),
                               allow_announce=True)
            assert depth(f) <= 3

    def test_random_formula_draws_k_only_when_allowed(self):
        drawn = set()
        for seed in range(300):
            rng = random.Random(seed)
            for agents in ((), ("a", "b")):
                f = random_formula(rng, 3, ("p", "q"), agents, allow_announce=seed % 2 == 1)
                _, avars = lab._schema_variables(f)
                if not agents:
                    assert avars == (), (seed, f)
                drawn.update(avars)
        assert drawn == {"a", "b"}

    def test_random_formula_draws_are_pinned(self):
        # A change in the order or weights of the draws changes these.
        rng = random.Random(24)
        drawn = [print_formula(random_formula(rng, 2, ("p", "q"), ("a", "b"),
                                              allow_announce=True))
                 for _ in range(6)]
        assert drawn == ["~(p | p)", "K{a} ~p", "<bot | p>(top | q)", "top -> K{b} top",
                         "[q](p & bot)", "p"]

    def test_negative_formula_depth_rejected(self):
        # Below depth 0 the generator would only stop drawing by chance.
        with pytest.raises(ValueError):
            random_formula(random.Random(0), -1, ("p", "q"))

    def test_split_seed_spreads(self):
        outs = {split_seed(0, i) for i in range(1000)}
        assert len(outs) == 1000


class TestEnumeration:
    def test_single_node_count(self):
        assert len(list(enumerate_small_beth(1, ("p",)))) == 2

    def test_two_node_count(self):
        models = list(enumerate_small_beth(2, ("p",)))
        assert len(models) == 5
        two_chains = [m for m in models if len(m.nodes) == 2]
        vals = {tuple(sorted((n, tuple(sorted(m.val[n]))) for n in m.nodes))
                for m in two_chains}
        assert len(vals) == 3

    def test_contains_the_open_fork(self):
        for m in enumerate_small_beth(3, ("p", "q")):
            if (len(m.nodes) == 3 and len(m.covers[m.root]) == 2
                    and sorted(map(tuple, (sorted(m.val[n]) for n in m.node_order)))
                    == [(), ("p",), ("q",)]):
                break
        else:
            pytest.fail("open fork with one p-leaf and one q-leaf not enumerated")

    def test_deterministic_order(self):
        a = [serialize_model(BethKripkeModel({"w": m}, (), {}))
             for m in enumerate_small_beth(3, ("p",))]
        b = [serialize_model(BethKripkeModel({"w": m}, (), {}))
             for m in enumerate_small_beth(3, ("p",))]
        assert a == b

    def test_bound_too_large(self):
        with pytest.raises(BoundTooLarge):
            list(enumerate_small_beth(5, ("p",)))

    def test_models_are_built_as_validation_builds(self):
        fields = ("node_order", "index", "up_mask", "covers", "leaf_mask", "leaves",
                  "root", "val", "atoms")
        models = list(enumerate_small_beth(4, ("p", "q")))
        assert len(models) == 281
        for m in models:
            order = sorted((a, b) for a, b in m.leq_pairs if a != b)
            expected = validate_beth(m.node_order, order, m.root, m.val, ("p", "q"))
            for name in fields:
                got, want = getattr(m, name), getattr(expected, name)
                assert got == want, (m, name)
                if isinstance(want, dict):
                    assert list(got) == list(want), (m, name)

    @pytest.mark.parametrize("max_nodes", [1, 2, 3, 4])
    def test_count_is_the_number_of_models(self, max_nodes):
        for atoms in (("p",), ("p", "q"), ("q", "p", "r")):
            assert lab.count_small_beth(max_nodes, atoms) == sum(
                1 for _ in enumerate_small_beth(max_nodes, atoms))

    def test_model_bound(self):
        assert lab.count_small_beth(1, lab.ATOM_NAMES) == 2 ** len(lab.ATOM_NAMES)
        assert lab.count_small_beth(4, lab.ATOM_NAMES[:5]) == 98_957 <= lab.MAX_ENUMERATED
        with pytest.raises(BoundTooLarge, match="778,541 models"):
            lab.count_small_beth(4, lab.ATOM_NAMES[:6])
        with pytest.raises(BoundTooLarge, match="778,541 models"):
            next(enumerate_small_beth(4, iter(lab.ATOM_NAMES[:6])))

    def test_pool_size(self):
        assert len(propositional_pool(("p", "q"), 0)) == 4
        assert len(propositional_pool(("p", "q"), 1)) == 56
        assert len(propositional_pool(("p", "q"), 2)) == 9468

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_pool_is_the_shared_search(self, depth):
        search = list(fingerprint_classes(lambda f: f, ("p", "q"), depth))
        assert propositional_pool(("p", "q"), depth) == search
        assert propositional_pool(("q", "p", "q"), depth) == search

    def test_pool_copies_are_independent(self):
        first = propositional_pool(("p", "q"), 1)
        expected = list(first)
        first.clear()
        assert propositional_pool(("p", "q"), 1) == expected

    def test_pool_bound_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(BoundTooLarge):
                propositional_pool(("p", "q"), 3)


class TestValidityTrials:
    def test_factivity_on_s5(self):
        verdict = lab.test_validity(
            SchemaInstanceSpace(SCHEMAS["A3"].pattern), GenParams(seed=5), 100)
        assert verdict == NoCounterexample(100)

    def test_decidability_on_s5(self):
        verdict = lab.test_validity(
            SchemaInstanceSpace(SCHEMAS["A6"].pattern), GenParams(seed=6), 100)
        assert verdict == NoCounterexample(100)

    def test_factivity_fails_without_reflexivity(self):
        verdict = lab.test_validity(
            SchemaInstanceSpace(SCHEMAS["A3"].pattern),
            GenParams(seed=7, s5=False), 100)
        assert isinstance(verdict, Counterexample)
        assert verdict.verify()

    def test_verify_rechecks_with_the_oracle(self, monkeypatch):
        verdict = lab.test_validity(
            SchemaInstanceSpace(SCHEMAS["A3"].pattern),
            GenParams(seed=7, s5=False), 100)
        # A lying evaluator must not change what verify() says.
        monkeypatch.setattr(lab.dynamic, "satisfies",
                            lambda *args, **kwargs: lab.dynamic.EvalResult(True))
        assert verdict.verify()
        assert not Counterexample(verdict.model, verdict.world, TOP).verify()

    def test_schema_variables_are_read_once_per_schema(self):
        # Every trial binds the schema's metavariables; a bounded memo reads
        # them on the first trial of the first run only.
        assert lab._schema_variables.cache_info().maxsize is not None
        space = SchemaInstanceSpace(parse_formula("K{i}X -> X"))
        lab._schema_variables.cache_clear()
        for _ in range(2):
            assert lab.test_validity(space, GenParams(seed=5), 3) == NoCounterexample(3)
        info = lab._schema_variables.cache_info()
        assert (info.misses, info.hits) == (1, 5)

    def test_counterexample_is_replayable(self):
        verdict = lab.test_validity(
            SchemaInstanceSpace(SCHEMAS["A3"].pattern),
            GenParams(seed=7, s5=False), 100)
        from bethpal.modeldoc import parse_model_document
        replayed = parse_model_document(serialize_model(verdict.model))
        assert not satisfies(replayed, verdict.world, verdict.instance).value


class TestFiniteModelsAreClassical:
    """Every path of a finite model ends in a classical leaf, so every
    classical tautology is forced and a lab NoCounterexample speaks for
    soundness only."""

    TAUTOLOGIES = ["~~p -> p", "((p -> q) -> p) -> p", "p | ~p", "(p -> q) | (q -> p)"]

    def test_tautologies_hold_on_all_small_models(self):
        formulas = [parse_formula(text) for text in self.TAUTOLOGIES]
        for m in enumerate_small_beth(4, ("p", "q")):
            for f in formulas:
                assert all(forces_prop(m, node, f) for node in m.node_order), (m, f)

    @pytest.mark.parametrize("s5", [True, False])
    @pytest.mark.parametrize("schema", ["~~X -> X", "((X -> Y) -> X) -> X"])
    def test_lab_finds_no_counterexample(self, schema, s5):
        verdict = lab.test_validity(SchemaInstanceSpace(parse_formula(schema)),
                                    GenParams(seed=12, s5=s5), 300)
        assert verdict == NoCounterexample(300)


class TestInstanceLabeling:
    """Labeling a schema on the union of one model copy per binding gives, in
    every copy, the extension of the instance that substitution builds."""

    EXTRA = ("[X]Y -> (X -> Y)", "<X>Y -> Y", "K{i}[X]Y -> [X]K{i}Y",
             "[K{i}X]K{j}Y -> K{j}X", "K{i}(p | X) -> [X]K{i}q")

    @staticmethod
    def bindings(m, schema, reps, rng):
        """Every agent choice with every pair of representatives for the
        first two formula metavariables, the others drawn from ``rng``."""
        fvars, avars = lab._schema_variables(schema)
        out = []
        for agents in itertools.product(sorted(m.agents), repeat=len(avars)):
            for pair in itertools.product(reps, repeat=min(2, len(fvars))):
                chosen = pair + tuple(rng.choice(reps) for _ in fvars[2:])
                binding = dict(zip(avars, map(Atom, agents)))
                binding.update(zip(fvars, chosen))
                out.append(binding)
        return out

    @staticmethod
    def check_copies(m, schema, bindings, oracle=False):
        """Label ``schema`` on the union of one copy per binding and compare
        every copy with the instance built and labeled on ``m``.  With
        ``oracle``, the built instance is also checked at every leaf with
        :func:`naive_forces`, since a fault in a clause shared by both
        layouts labels both alike."""
        base = lab.dynamic._layout(m)
        fvars, avars = lab._schema_variables(schema)
        holds = lab.dynamic._ext(lab.dynamic._union(
            base, len(bindings), *per_copy_masks(
                base.width,
                {v: [lab.dynamic._ext(base, b[v]) for b in bindings] for v in fvars},
                {i: [b[i].name for b in bindings] for i in avars})), schema)
        for copy, binding in enumerate(bindings):
            instance = substitute(schema, binding)
            labeled = holds >> copy * base.width & (1 << base.width) - 1
            assert labeled == lab.dynamic._ext(base, instance), (schema, copy, binding)
            for s in m.world_order if oracle else ():
                w = m.worlds[s]
                assert lab.dynamic._leaves(m, s, instance) == sum(
                    1 << w.index[leaf] for leaf in w.leaves
                    if naive_forces(m, s, leaf, instance)), (schema, copy, binding, s)

    @pytest.mark.parametrize("s5", [True, False])
    def test_matches_the_built_instance(self, s5):
        schemas = [a.pattern for a in SCHEMAS.values()]
        schemas += [parse_formula(text) for text in self.EXTRA]
        rng = random.Random(43)
        for t in range(150):
            m = random_model(GenParams(seed=split_seed(43, t), s5=s5))
            reps = lab._semantic_reps(m, (("p", "q"), 1))
            for schema in schemas:
                bindings = self.bindings(m, schema, reps, rng)
                for width in (len(bindings), 3):
                    for start in range(0, len(bindings), width):
                        self.check_copies(m, schema, bindings[start:start + width])

    @pytest.mark.parametrize("s5", [True, False])
    def test_one_point_copies(self, s5):
        # A one-node world is one leaf, so a copy of a one-world model is one
        # bit wide and the fields have no bits below their top one.
        schemas = [a.pattern for a in SCHEMAS.values()]
        schemas += [parse_formula(text) for text in self.EXTRA]
        rng = random.Random(5)
        widths = set()
        for t in range(40):
            m = random_model(GenParams(max_nodes_per_world=1, max_worlds=1,
                                       seed=split_seed(5, t), s5=s5))
            widths.add(lab.dynamic._layout(m).width)
            reps = lab._semantic_reps(m, (("p", "q"), 1))
            for schema in schemas:
                self.check_copies(m, schema, self.bindings(m, schema, reps, rng), oracle=True)
        assert widths == {1}

    @pytest.mark.parametrize("s5", [True, False])
    def test_copies_that_mix_agent_choices(self, s5):
        # The bindings take the agent choices in turn, so neighbouring copies
        # choose differently, and the agents' relations differ.
        schemas = [parse_formula(text) for text in
                   ("K{i}X -> X", "K{i}X -> K{i}K{i}X", "[K{i}X]K{j}Y -> K{j}X",
                    "~K{i}X -> K{i}~K{i}X")]
        rng = random.Random(8)
        mixed = 0
        for t in range(60):
            m = random_model(GenParams(seed=split_seed(8, t), s5=s5))
            if m.access["a"] == m.access["b"]:
                continue
            mixed += 1
            reps = lab._semantic_reps(m, (("p", "q"), 1))
            for schema in schemas:
                _, avars = lab._schema_variables(schema)
                runs = {}
                for b in self.bindings(m, schema, reps, rng):
                    runs.setdefault(tuple(b[i] for i in avars), []).append(b)
                bindings = [b for row in itertools.zip_longest(*runs.values())
                            for b in row if b is not None]
                assert [bindings[0][i] for i in avars] != [bindings[1][i] for i in avars]
                self.check_copies(m, schema, bindings, oracle=True)
        assert mixed >= 20

    def test_diamond_where_a_world_keeps_no_leaf(self):
        # In some copies X holds on no leaf of w1 (the world is dropped, so
        # <X>Y fails there) and on a leaf of w0; the other copies keep both.
        w0 = validate_beth(("r", "x", "y"), (("r", "x"), ("r", "y")), "r",
                           {"x": {"p"}, "y": {"q"}}, ("p", "q"))
        w1 = validate_beth(("r", "z"), (("r", "z"),), "r", {"z": {"q"}}, ("p", "q"))
        m = BethKripkeModel({"w0": w0, "w1": w1}, ("a",),
                            {"a": [(s, t) for s in ("w0", "w1") for t in ("w0", "w1")]})
        reps = [Atom("p"), Atom("q"), TOP, parse_formula("~q"), parse_formula("p | q")]
        schemas = [parse_formula(text) for text in
                   ("<X>Y", "<X>Y -> Y", "[X]Y", "<X>K{i}Y", "K{i}<X>Y", "<X><Y>X")]
        p = Atom("p")
        assert not lab.dynamic._leaves(m, "w1", p) and lab.dynamic._leaves(m, "w0", p)
        for schema in schemas:
            fvars, _ = lab._schema_variables(schema)
            bindings = [dict(zip(fvars, choice), i=Atom("a"))
                        for choice in itertools.product(reps, repeat=len(fvars))]
            self.check_copies(m, schema, bindings, oracle=True)


class TestUnionWidth:
    """Bindings are labeled in unions of at most about ``UNION_BITS`` points;
    how they are split must not change which counterexample is found."""

    CASES = [("A3", False), ("A1.2", True), ("A1.2", False),
             ("[K{i}X]K{j}Y -> K{j}X", True)]

    @staticmethod
    def schema(sid):
        return SCHEMAS[sid].pattern if sid in SCHEMAS else parse_formula(sid)

    @staticmethod
    def first_failures(schema, s5, bits):
        """The first failing (world, instance) of each of 60 trial models,
        with ``UNION_BITS`` set to ``bits(P)`` for a model of P points, and
        the copy counts of the unions built for each model."""
        found, copies = [], []

        union = lab.dynamic._union

        def counted(base, n, *args):
            copies[-1].append(n)
            return union(base, n, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lab.dynamic, "_union", counted)
            for t in range(60):
                m = random_model(GenParams(seed=split_seed(9, t), s5=s5))
                mp.setattr(lab, "UNION_BITS", bits(lab.dynamic._layout(m).width))
                copies.append([])
                v = lab._first_counterexample(m, schema, lab._semantic_reps(m, (("p", "q"), 1)))
                found.append(v and (v.world, v.instance))
        return found, copies

    @pytest.mark.parametrize("sid,s5", CASES)
    @pytest.mark.parametrize("per_union", [1, 3])
    def test_split_keeps_the_first_failure(self, sid, s5, per_union):
        schema = self.schema(sid)
        default, _ = self.first_failures(schema, s5, lambda size: lab.UNION_BITS)
        split, copies = self.first_failures(schema, s5, lambda size: per_union * size)
        assert split == default
        for counts in copies:
            assert set(counts[:-1]) <= {per_union} and 1 <= counts[-1] <= per_union
        if sid != "A1.2":   # A1.2 is valid; the others fail past a first union
            assert any(failure and len(counts) > 1 for failure, counts in zip(split, copies))

    @pytest.mark.parametrize("sid,s5", CASES)
    def test_split_keeps_the_verdict(self, sid, s5, monkeypatch):
        space = SchemaInstanceSpace(self.schema(sid))

        def verdict():
            v = lab.test_validity(space, GenParams(seed=17, s5=s5), 40)
            if isinstance(v, NoCounterexample):
                return v
            return model_digest(v.model), v.world, v.instance

        default = verdict()
        monkeypatch.setattr(lab, "UNION_BITS", 1)
        assert verdict() == default

    def test_unions_stay_within_the_bound_on_a_wide_model(self, monkeypatch):
        m = random_model(GenParams(seed=23, max_worlds=200))
        size = lab.dynamic._layout(m).width
        assert len(m.worlds) == 200
        widths = []

        union = lab.dynamic._union

        def measured(*args):
            pts = union(*args)
            widths.append(max(pts.all, *pts.atoms.values(), *pts.world.values()).bit_length())
            return pts

        monkeypatch.setattr(lab.dynamic, "_union", measured)
        schema = SCHEMAS["A2"].pattern
        assert lab._first_counterexample(
            m, schema, lab._semantic_reps(m, (("p", "q"), 1))) is None
        assert widths and max(widths) <= lab.UNION_BITS + size


class TestBindingRuns:
    """A union's masks are built from the runs of each metavariable's digit
    in the binding numbers, and a failing copy decodes to its binding; both
    must match the bindings in ``itertools.product`` order, built one copy
    at a time."""

    # (representatives, formula metavariables, agent metavariables, agents)
    SHAPES = [(r, nf, na, a) for r in range(1, 18) for nf in range(4) for na in range(3)
              for a in (1, 2, 3, 6) if a ** na * r ** nf <= 300]

    @staticmethod
    def space(reps, nf, na, agents):
        fvars = ["X", "Y", "Z"][:nf]
        avars = ["i", "j"][:na]
        names = list(lab.AGENT_NAMES[:agents])
        return fvars, avars, names, [Atom(f"r{k}") for k in range(reps)]

    def test_shapes_cover_the_ranges(self):
        assert {r for r, *_ in self.SHAPES} == set(range(1, 18))
        assert {nf for _, nf, _, _ in self.SHAPES} == {0, 1, 2, 3}
        assert {na for _, _, na, _ in self.SHAPES} == {0, 1, 2}
        assert {a for *_, a in self.SHAPES} == {1, 2, 3, 6}

    def test_decoding_follows_the_product(self):
        for shape in self.SHAPES:
            fvars, avars, names, reps = self.space(*shape)
            bindings = lab._Bindings(avars, fvars, names, len(reps))
            product = list(itertools.product(itertools.product(names, repeat=len(avars)),
                                             itertools.product(reps, repeat=len(fvars))))
            assert bindings.total == len(product)
            for t, (agents, choice) in enumerate(product):
                expected = dict(zip(avars, map(Atom, agents)))
                expected.update(zip(fvars, choice))
                assert bindings.binding(t, reps) == expected, (shape, t)

    @pytest.mark.parametrize("width", [1, 5, 64])
    def test_masks_match_the_copies(self, width):
        rng = random.Random(width)
        for shape in self.SHAPES:
            fvars, avars, names, reps = self.space(*shape)
            ext = [rng.getrandbits(width) for _ in reps]
            bindings = lab._Bindings(avars, fvars, names, len(reps))
            decoded = [bindings.binding(t, reps) for t in range(bindings.total)]
            for per_union in {1, 2, 3, 7, bindings.total}:
                for start in range(0, bindings.total, per_union):
                    batch = decoded[start:start + per_union]
                    expected = per_copy_masks(
                        width, {v: [ext[reps.index(b[v])] for b in batch] for v in fvars},
                        {i: [b[i].name for b in batch] for i in avars})
                    masks = bindings.masks(ext, width, start, len(batch))
                    assert masks == expected, (shape, width, per_union, start)

    @pytest.mark.parametrize("per_union", [1, 2, 5])
    def test_unchosen_agents_are_left_out(self, per_union, monkeypatch):
        # Three agents, and unions of a few copies each: a union lists the
        # K pairs of the agents its copies choose, and of no other, each
        # pair's successors spread over the union's copies; an agent that
        # both metavariables choose has its pairs spread once.
        m = random_model(GenParams(seed=split_seed(61, 0), num_agents=3))
        base = lab.dynamic._layout(m)
        schema = parse_formula("K{i}X -> K{i}K{j}X | X")
        fvars, avars = lab._schema_variables(schema)
        reps = lab._semantic_reps(m, (("p", "q"), 1))
        bindings = lab._bindings(avars, fvars, tuple(sorted(m.agents)), len(reps))
        unions = []
        union = lab.dynamic._union

        def recorded(base, n, *args):
            unions.append(union(base, n, *args))
            return unions[-1]

        monkeypatch.setattr(lab.dynamic, "_union", recorded)
        monkeypatch.setattr(lab, "UNION_BITS", per_union * base.width)
        assert lab._first_counterexample(m, schema, reps) is None
        assert len(unions) == -(-bindings.total // per_union) > 1
        left_out = shared = 0
        for k, pts in enumerate(unions):
            batch = [bindings.binding(t, reps) for t in
                     range(k * per_union, min((k + 1) * per_union, bindings.total))]
            _, choosing = per_copy_masks(base.width, {}, {
                var: [b[var].name for b in batch] for var in avars})
            spread = sum(1 << b * base.width for b in range(len(batch)))
            low = (1 << base.width - 1) - 1
            assert pts.low == low * spread, k
            spread_pairs = {}
            for var in avars:
                assert {(copies, tuple(pairs)) for copies, pairs in pts.knows[var]} == {
                    (copies, tuple((own, succ * spread) for own, succ in pairs))
                    for a, copies in choosing[var].items()
                    for _, pairs in base.knows[a]}, (k, var)
                for a, (_, pairs) in zip(choosing[var], pts.knows[var]):
                    assert spread_pairs.setdefault(a, pairs) is pairs, (k, var, a)
                left_out += len(choosing[var]) < len(m.agents)
            shared += len(spread_pairs) < sum(len(choosing[var]) for var in avars)
        assert left_out and shared

    def test_one_pass_over_the_schema(self):
        schemas = [a.pattern for a in SCHEMAS.values()]
        schemas += [parse_formula(text) for text in TestInstanceLabeling.EXTRA]
        rng = random.Random(67)
        schemas += [random_formula(rng, rng.randint(0, 5), ("X", "Y", "p"), ("i", "j"),
                                   allow_announce=True) for _ in range(2000)]
        both = 0
        for f in schemas:
            nodes = list(subformulas(f))
            fvars = sorted({g.name for g in nodes if isinstance(g, Atom) and is_metavariable(g.name)})
            avars = sorted({g.agent for g in nodes if isinstance(g, Know)})
            assert lab._schema_variables(f) == (tuple(fvars), tuple(avars)), f
            both += bool(avars) and len(fvars) == 2
        assert both


class TestMaskMemos:
    """A union's digit copies and binding numberings are memoized on their
    shapes: whatever the memos hold, every trial gets the masks it would
    build afresh, and the memos stay within their bounds."""

    MEMOS = (lab._digit_copies, lab._bindings)

    @staticmethod
    def verdicts(memo):
        """The verdict of one trial per seed 0-49 and schema A2-A6, on S5
        and non-S5 models of 1-3 agents (every pairing over six seeds).  The
        memos are bypassed if ``memo`` is "none", cleared before every trial
        if it is "cold", and left as they are if it is "warm"."""
        found = []
        with pytest.MonkeyPatch.context() as mp:
            if memo == "none":
                for f in TestMaskMemos.MEMOS:
                    mp.setattr(lab, f.__wrapped__.__name__, f.__wrapped__)
            for seed in range(50):
                gen = GenParams(seed=seed, num_agents=1 + seed % 3, s5=seed % 6 < 3)
                for sid in ("A2", "A3", "A4", "A5", "A6"):
                    if memo == "cold":
                        for f in TestMaskMemos.MEMOS:
                            f.cache_clear()
                    v = lab.test_validity(SchemaInstanceSpace(SCHEMAS[sid].pattern), gen, 1)
                    found.append(v if isinstance(v, NoCounterexample)
                                 else (model_digest(v.model), v.world, v.instance))
        return found

    @pytest.mark.parametrize("bits", [lab.UNION_BITS, 16, 45])
    def test_memos_change_no_verdict(self, bits, monkeypatch):
        # A few copies per union start most unions in the middle of a run.
        monkeypatch.setattr(lab, "UNION_BITS", bits)
        built = self.verdicts("none")
        assert self.verdicts("cold") == built
        assert self.verdicts("warm") == built
        assert lab._digit_copies.cache_info().hits > len(built)  # the warm run read the memo
        assert any(isinstance(v, NoCounterexample) for v in built)
        assert not all(isinstance(v, NoCounterexample) for v in built)

    def test_memos_stay_within_their_bounds(self):
        # 200-world models of six agents at depth 2: the unions start at
        # many places in the digits' cycles, and the digit memo misses far
        # more often than it can hold.
        for memo in self.MEMOS:
            memo.cache_clear()
        space = SchemaInstanceSpace(SCHEMAS["A2"].pattern, depth=2)
        assert lab.test_validity(space, GenParams(max_worlds=200, num_agents=6, seed=3), 2) \
            == NoCounterexample(2)
        for memo, bound in zip(self.MEMOS, (lab.DIGIT_CACHE_SIZE, lab.BINDINGS_CACHE_SIZE)):
            info = memo.cache_info()
            assert info.maxsize == bound
            assert info.currsize <= bound
        assert lab._digit_copies.cache_info().misses > lab.DIGIT_CACHE_SIZE

    def test_unions_in_mid_cycle_hit_the_digit_memo(self):
        # axioms --schema A2 --depth 2 --trials 5 --max-worlds 200 --agents 6:
        # the unions start mid-run on every digit, at places that recur in
        # the digits' cycles, so the memo keyed by those places hits, and
        # every union gets the masks it would build afresh.
        space = SchemaInstanceSpace(SCHEMAS["A2"].pattern, depth=2)
        gen = GenParams(max_worlds=200, num_agents=6)

        def run():
            masks = []
            union = lab.dynamic._union

            def recorded(base, n, leaves, agents):
                masks.append((n, leaves, agents))
                return union(base, n, leaves, agents)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lab.dynamic, "_union", recorded)
                return lab.test_validity(space, gen, 5), masks

        lab._digit_copies.cache_clear()
        memoized = run()
        info = lab._digit_copies.cache_info()
        assert info.hits > info.misses > lab.DIGIT_CACHE_SIZE
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lab, "_digit_copies", lab._digit_copies.__wrapped__)
            assert run() == memoized
        assert memoized[0] == NoCounterexample(5)

    def test_a_numbering_decodes_every_list_of_its_length(self):
        # The numbering is memoized on the counts alone: a repeated key gets
        # the same object, which decodes whichever representatives a trial
        # passes, in the order of itertools.product.
        key = (("i",), ("X", "Y"), ("a", "b"), 3)
        bindings = lab._bindings(*key)
        assert lab._bindings(*key) is bindings
        for reps in ([Atom("p"), Atom("q"), TOP], [parse_formula("~p"), parse_formula("p & r"),
                                                    Atom("q")]):
            assert [bindings.binding(t, reps) for t in range(bindings.total)] == [
                {"i": Atom(a), "X": x, "Y": y}
                for a, x, y in itertools.product(("a", "b"), reps, reps)]

    def test_copies_cannot_be_changed(self):
        copies = lab._digit_copies(3, 5, 2, 3, 4)
        assert isinstance(copies, tuple) and all(isinstance(c, tuple) for c in copies)
        assert lab._digit_copies(3, 5, 2, 3, 4) is copies

    @pytest.mark.parametrize("start, values", [(0, 1), (7, 1), (10 ** 6 - 1, 2)])
    def test_a_long_run_builds_no_run(self, start, values):
        """A union of three copies meets at most two runs of a digit whose
        run is 10**6 bindings; building its copies takes a few masks of the
        union's width, not a mask of a run's (about 37 MB at 300 points a
        copy)."""
        build = lab._digit_copies.__wrapped__
        tracemalloc.start()
        try:
            copies = build(start, 3, 10 ** 6, 6, 300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [value for value, _ in copies] == list(range(values))
        assert sum(mask for _, mask in copies) == lab.dynamic._spread(3, 300)
        assert peak < 32 * 1024


class TestNegativeBounds:
    """A negative depth or trial count is an error, not a vacuous verdict."""

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            list(fingerprint_classes(lambda f: f, ("p",), -1))
        with pytest.raises(ValueError):
            propositional_pool(["p"], -1)
        with pytest.raises(ValueError):
            lab.test_validity(SchemaInstanceSpace(parse_formula("X & ~X"), depth=-1),
                              GenParams(seed=1), 5)
        assert isinstance(lab.test_validity(SchemaInstanceSpace(parse_formula("X & ~X"), depth=0),
                                            GenParams(seed=1), 5), Counterexample)

    def test_negative_trials(self):
        space = SchemaInstanceSpace(parse_formula("X & ~X"))
        with pytest.raises(ValueError):
            lab.test_validity(space, GenParams(seed=1), -3)
        with pytest.raises(ValueError):
            lab.test_announcement_hypothesis(GenParams(seed=1), -2)
        assert lab.test_validity(space, GenParams(seed=1), 0) == NoCounterexample(0)


class TestDedupSoundness:
    """Instance dedup keeps one formula per extension; announcements inside
    a schema do not split those classes, since an update never creates a
    leaf and a propositional formula's extension is fixed by its values at
    the leaves."""

    @pytest.mark.parametrize("s5", [True, False])
    def test_classes_survive_updates(self, s5):
        rng = random.Random(31)
        pool = propositional_pool(("p", "q"), 1)
        for t in range(100):
            m = random_model(GenParams(seed=split_seed(31, t), s5=s5))
            agents = sorted(m.agents)
            classes: dict[int, list] = {}
            for f in pool:
                classes.setdefault(lab.dynamic._ext(lab.dynamic._layout(m), f), []).append(f)
            for _ in range(3):
                ann = random_formula(rng, 2, ("p", "q"), agents,
                                     allow_announce=True)
                updated = lab.dynamic.announce(m, ann)
                for s in updated.world_order:
                    assert updated.worlds[s].leaves <= m.worlds[s].leaves
                for members in classes.values():
                    assert len({lab.dynamic._ext(lab.dynamic._layout(updated), f)
                                for f in members}) == 1

    @pytest.mark.parametrize("s5", [True, False])
    @pytest.mark.parametrize("schema", ["[X]Y -> (X -> Y)", "<X>Y -> Y"])
    def test_dedup_matches_full_sweep(self, schema, s5, monkeypatch):
        space = SchemaInstanceSpace(parse_formula(schema))
        gen = GenParams(seed=3, s5=s5)

        def verdict():
            v = lab.test_validity(space, gen, 1)
            return (type(v), getattr(v, "world", None), getattr(v, "instance", None))

        deduplicated = verdict()
        monkeypatch.setattr(lab, "_semantic_reps", lambda m, search: propositional_pool(*search))
        assert verdict() == deduplicated


def _extension_dedup(m, pool):
    """The reference: label every pool formula on the model itself and keep
    the first formula of each extension."""
    reps = {}
    for f in pool:
        reps.setdefault(lab.dynamic._ext(lab.dynamic._layout(m), f), f)
    return list(reps.values())


class TestClassesByValuations:
    """The dedup reads classes searched once per atoms, depth and set of leaf
    valuations; they must be those the model's own extensions give to the
    whole pool."""

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_matches_extension_dedup_on_small_models(self, depth):
        pool = propositional_pool(("p", "q"), depth)
        for w in enumerate_small_beth(4, ("p", "q")):
            m = BethKripkeModel({"w": w}, (), {})
            assert lab._semantic_reps(m, (("p", "q"), depth)) == _extension_dedup(m, pool)

    @pytest.mark.parametrize("s5", [True, False])
    def test_matches_extension_dedup_on_random_models(self, s5):
        # With three atoms the valuations carry r, which the search never reads.
        pool = propositional_pool(("p", "q"), 1)
        for t in range(150):
            gen = GenParams(seed=split_seed(53, t), s5=s5, atom_count=1 + t % 3)
            m = random_model(gen)
            assert lab._semantic_reps(m, (("p", "q"), 1)) == _extension_dedup(m, pool)

    def test_matches_the_name_based_dedup(self):
        """The classes read off the layout's codes are those of the leaf
        valuations read through the node names, and the leaves read off the
        codes for each are those labeling gives it: on random models, S5
        and not, of 1-10 atoms and 1-6 agents, over the instance atoms, one
        atom, atoms in another order, and atoms the models may lack."""
        searches = [(("p", "q"), 1), (("p",), 2), (("q", "p"), 1), (("p", "t"), 1),
                    (("t",), 0), (("z", "y"), 1)]
        rng = random.Random(73)
        drawn = set()
        for t in range(500):
            gen = GenParams(seed=split_seed(73, t), s5=rng.random() < 0.5,
                            atom_count=rng.randint(1, 10), num_agents=rng.randint(1, 6))
            drawn.add((gen.s5, gen.atom_count, gen.num_agents))
            m = random_model(gen)
            base = lab.dynamic._layout(m)
            for search in searches:
                reps = lab._semantic_reps(m, search)
                assert reps == reference_semantic_reps(m, search), (t, search)
                assert reps.pts is base
                assert reps.ext == [lab.dynamic._ext(base, f) for f in reps], (t, search)
        assert {s5 for s5, _, _ in drawn} == {True, False}
        assert {atoms for _, atoms, _ in drawn} == set(range(1, 11))
        assert {agents for _, _, agents in drawn} == set(range(1, 7))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_codes_give_the_classes_of_their_fan(self, count):
        """Labeled on the codes themselves, the class search finds the
        representatives, and each code the indices of those holding on it,
        that it finds on a fan of the codes' valuations: for every nonempty
        set of codes over one to three atoms, at depths 0-2."""
        atoms = lab.ATOM_NAMES[:count]
        for depth in (0, 1, 2):
            for codes in range(1, 1 << (1 << count)):
                assert lab._classes.__wrapped__(atoms, depth, codes) == \
                    reference_classes(atoms, depth, codes), (depth, codes)

    def test_codes_build_no_world(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a world was built")

        monkeypatch.setattr(lab.beth.BethModel, "__init__", built)
        reps, holders = lab._classes.__wrapped__(("p", "q"), 2, 0b1011)
        assert len(reps) == 8 and [code for code, _ in holders] == [0, 1, 3]

    @pytest.mark.parametrize("atoms", [("p",), ("p", "q"), ("p", "q", "r")])
    def test_matches_the_name_based_dedup_on_every_valuation(self, atoms):
        m = every_valuation_model(atoms)
        base = lab.dynamic._layout(m)
        for search in [(atoms, 1), (atoms, 2), (atoms[::-1], 1), ((*atoms, "t"), 1),
                       (atoms[:1], 2), ((*atoms, *atoms), 1)]:
            reps = lab._semantic_reps(m, search)
            assert reps == reference_semantic_reps(m, search), search
            assert reps.ext == [lab.dynamic._ext(base, f) for f in reps], search

    def test_depth_three_finds_every_class(self):
        """Over p, q a formula of depth 3 can pick out any set of leaf
        valuations (exclusive or is the deepest), so the search finds
        2 ** k classes on a model with k distinct leaf valuations."""
        models = list(enumerate_small_beth(4, ("p", "q")))
        assert len(models) == 281
        for w in models:
            k = len({w.val[leaf] for leaf in w.leaves})
            m = BethKripkeModel({"w": w}, (), {})
            assert len(lab._semantic_reps(m, (("p", "q"), 3))) == 2 ** k, w
        shallower = 0
        for t in range(300):
            m = random_model(GenParams(seed=split_seed(59, t)))
            k = len({w.val[leaf] for w in m.worlds.values() for leaf in w.leaves})
            assert len(lab._semantic_reps(m, (("p", "q"), 50))) == 2 ** k
            shallower += len(lab._semantic_reps(m, (("p", "q"), 2))) < 2 ** k
        assert shallower > 0

    def test_too_many_classes_raise(self):
        """Every valuation of four atoms on its own leaf: 65,536 classes, and
        the third layer of the search would hold 714,920 formulas."""
        atoms = ("p", "q", "r", "s")
        with pytest.raises(BoundTooLarge, match="714,920 formulas"):
            lab._semantic_reps(every_valuation_model(atoms), (atoms, 3))

    def test_same_valuations_hit_the_cache(self):
        fork = validate_beth(("a", "b", "c"), (("a", "b"), ("a", "c")), "a",
                             {"b": {"p"}, "c": {"q"}})
        chain = validate_beth(("x", "y", "z"), (("x", "y"), ("y", "z")), "x",
                              {"z": {"q"}})
        lab._classes.cache_clear()
        first = lab._semantic_reps(BethKripkeModel({"u": fork}, (), {}), (("p", "q"), 1))
        # A different model whose leaves carry the same two valuations.
        second = lab._semantic_reps(
            BethKripkeModel({"u": chain, "v": fork}, ("i",), {"i": {("u", "v")}}),
            (("p", "q"), 1))
        info = lab._classes.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert first == second

    def test_cache_is_bounded(self):
        atoms = ("p", "q", "r", "s")
        lab._classes.cache_clear()
        for bits in range(lab.CLASS_CACHE_SIZE + 10):
            # One world, one leaf per set bit of ``bits``; leaf k carries the
            # atoms of the bits of k.
            leaves = [f"l{k}" for k in range(16) if bits >> k & 1] or ["l"]
            val = {f"l{k}": {a for i, a in enumerate(atoms) if k >> i & 1}
                   for k in range(16) if bits >> k & 1}
            w = validate_beth(["r", *leaves], [("r", v) for v in leaves], "r", val)
            lab._semantic_reps(BethKripkeModel({"w": w}, (), {}), (atoms, 0))
        info = lab._classes.cache_info()
        assert info.maxsize == lab.CLASS_CACHE_SIZE
        assert info.currsize == lab.CLASS_CACHE_SIZE

    def test_cache_hit_hashes_no_formula(self, monkeypatch):
        """The class cache keys on atoms, depth and valuations, so a call
        that hits it hashes no formula."""
        m = BethKripkeModel({"u": validate_beth(("a", "b", "c"), (("a", "b"), ("a", "c")),
                                                 "a", {"b": {"p"}, "c": {"q"}})}, (), {})
        first = lab._semantic_reps(m, (("p", "q"), 1))
        calls = []
        for cls in {type(f) for f in propositional_pool(("p", "q"), 1)}:
            monkeypatch.setattr(cls, "__hash__",
                                lambda f, h=cls.__hash__: calls.append(f) or h(f))
        assert lab._semantic_reps(m, (("p", "q"), 1)) == first
        assert lab._semantic_reps(m, (("p", "q"), 1)) == first
        assert calls == []


class TestHypothesisExperiment:
    def test_known_consistent_instance(self, fork_model):
        # On the fork, announcing p and concluding ~q matches the conditional.
        box = parse_formula("[p]~q")
        cond = parse_formula("p -> ~q")
        assert satisfies(fork_model, "s", box).value
        assert satisfies(fork_model, "s", cond).value
        bicond = parse_formula("([p]~q) <-> (p -> ~q)")
        assert satisfies(fork_model, "s", bicond).value

    def test_announcing_top_reduces_to_the_body(self, fork_model):
        for text in ("p", "~q", "p|q", "K{i}p", "bot"):
            body = parse_formula(text)
            boxed = parse_formula(f"[top]({text})")
            assert (satisfies(fork_model, "s", boxed).value
                    == satisfies(fork_model, "s", body).value)

    def test_report_is_deterministic(self):
        gen = GenParams(seed=8)
        a = lab.test_announcement_hypothesis(gen, 40)
        b = lab.test_announcement_hypothesis(gen, 40)
        assert a.render() == b.render()

    def test_requires_s5(self):
        with pytest.raises(ValueError):
            lab.test_announcement_hypothesis(GenParams(seed=8, s5=False), 5)

    @pytest.mark.parametrize("depth", [33, 3000])
    def test_depth_beyond_the_bound_is_refused(self, depth):
        with pytest.raises(ValueError, match=f"not {depth}"):
            lab.test_announcement_hypothesis(GenParams(seed=0), 1, depth=depth)

    def test_divergence_is_reported_not_asserted(self):
        report = lab.test_announcement_hypothesis(GenParams(seed=8), 40)
        assert report.divergent >= 0
        assert "verdict:" in report.render()
        if isinstance(report.verdict, Counterexample):
            assert report.verdict.verify()

    def test_nested_announcements_flag(self):
        gen = GenParams(seed=8)
        report = lab.test_announcement_hypothesis(
            gen, 10, include_announcements=True)
        assert "nested_announcements=true" in report.render()
        again = lab.test_announcement_hypothesis(
            gen, 10, include_announcements=True)
        assert report.render() == again.render()


class TestNaiveOracle:
    def test_agrees_on_fork(self, fork_model):
        for text in ("<p>top", "<~p>top", "[p]~q", "K{i}(p|q)", "~K{i}p",
                     "p|~p", "[p]K{i}p", "p & ~K{i}p"):
            f = parse_formula(text)
            for node in fork_model.worlds["s"].node_order:
                assert (naive_forces(fork_model, "s", node, f)
                        == forces(fork_model, "s", node, f).value)

    def test_agrees_on_random_models(self):
        rng = random.Random(9)
        for t in range(40):
            m = random_model(GenParams(seed=split_seed(9, t)))
            agents = sorted(m.agents)
            for _ in range(3):
                f = random_formula(rng, 2, ("p", "q"), agents,
                                   allow_announce=True)
                for s in m.world_order:
                    got = satisfies(m, s, f).value
                    assert naive_forces(m, s, m.worlds[s].root, f) == got

    def test_top_everywhere(self, fork_model):
        assert naive_forces(fork_model, "s", "a", TOP)

    def test_not_a_formula(self, fork_model):
        with pytest.raises(TypeError, match=r"^not a formula: 'p'$"):
            naive_forces(fork_model, "s", "a", "p")

    def test_agrees_on_the_exam_world(self):
        from bethpal.sep import build_sep
        bundle = build_sep()
        m = bundle.model
        for f in (bundle.phi0, bundle.phi1, bundle.phi2, bundle.phi3):
            for node in m.worlds["s"].node_order:
                assert (naive_forces(m, "s", node, f)
                        == forces(m, "s", node, f).value)


class TestWitness:
    def test_witness_facts(self):
        report = nontranslatability_witness(2)
        assert report.diamond_at_root
        assert not report.bare_leaf_forces_atom
        assert report.equivalent is None
        assert report.models_checked == 14
        assert "no propositional equivalent" in report.render()


class TestClassCache:
    def test_few_small_entries_on_extra_atoms(self):
        """The class cache keys on the leaf valuations restricted to the
        searched atoms: an atom the search never reads (``r`` on three-atom
        models, under a p, q search) makes no new entry, and an entry holds
        only the representatives of its classes."""
        space = SchemaInstanceSpace(SCHEMAS["A3"].pattern, depth=2)
        gen = GenParams(atom_count=3, seed=7)
        lab.test_validity(space, gen, 1)          # warms up outside the traced run
        lab._classes.cache_clear()
        tracemalloc.start()
        try:
            verdict = lab.test_validity(space, gen, 400)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict == NoCounterexample(400)
        assert lab._classes.cache_info().misses <= 15
        assert held < 1_000_000
