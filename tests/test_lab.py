import itertools
import random

import pytest

from bethpal.beth import fingerprint_classes, validate_beth
from bethpal.dynamic import BethKripkeModel, check_s5, forces, satisfies
from bethpal.formula import TOP, Atom, metavariables, parse_formula, substitute
from bethpal import lab
from bethpal.lab import (
    BoundTooLarge, Counterexample, GenParams, NoCounterexample,
    SchemaInstanceSpace, enumerate_small_beth, naive_forces,
    nontranslatability_witness, propositional_pool, random_formula,
    random_model, split_seed,
)
from bethpal.modeldoc import serialize_model
from bethpal.proofkit import SCHEMAS


class TestGenerators:
    def test_reproducible(self):
        p = GenParams(seed=12345)
        assert serialize_model(random_model(p)) == serialize_model(random_model(p))

    def test_different_seeds_differ_somewhere(self):
        docs = {serialize_model(random_model(GenParams(seed=s))) for s in range(12)}
        assert len(docs) > 1

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
                               allow_know=True, allow_announce=True)
            assert depth(f) <= 3

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

    def test_counterexample_is_replayable(self):
        verdict = lab.test_validity(
            SchemaInstanceSpace(SCHEMAS["A3"].pattern),
            GenParams(seed=7, s5=False), 100)
        from bethpal.modeldoc import parse_model_document
        replayed = parse_model_document(serialize_model(verdict.model))
        assert not satisfies(replayed, verdict.world, verdict.instance).value


class TestInstanceLabeling:
    """Labeling a schema under a binding gives the extension of the instance
    that substitution builds."""

    EXTRA = ("[X]Y -> (X -> Y)", "<X>Y -> Y", "K{i}[X]Y -> [X]K{i}Y",
             "[K{i}X]K{j}Y -> K{j}X")

    @pytest.mark.parametrize("s5", [True, False])
    def test_matches_the_built_instance(self, s5):
        schemas = [a.pattern for a in SCHEMAS.values()]
        schemas += [parse_formula(text) for text in self.EXTRA]
        pool = propositional_pool(("p", "q"), 1)
        rng = random.Random(43)
        for t in range(150):
            m = random_model(GenParams(seed=split_seed(43, t), s5=s5))
            reps = lab._semantic_reps(m, pool)
            for schema in schemas:
                fvars = sorted(metavariables(schema))
                avars = lab._agent_metavariables(schema)
                for agents in itertools.product(sorted(m.agents), repeat=len(avars)):
                    for pair in itertools.product(reps, repeat=min(2, len(fvars))):
                        chosen = pair + tuple(rng.choice(reps) for _ in fvars[2:])
                        binding = dict(zip(avars, map(Atom, agents)))
                        binding.update(zip(fvars, chosen))
                        labeled = lab._instance_ext(m, schema, binding)
                        built = lab.dynamic._ext(m, substitute(schema, binding))
                        assert labeled == built, (t, schema, binding)


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
                classes.setdefault(lab.dynamic._ext(m, f), []).append(f)
            for _ in range(3):
                ann = random_formula(rng, 2, ("p", "q"), agents,
                                     allow_know=True, allow_announce=True)
                updated = lab.dynamic.announce(m, ann)
                for s in updated.world_order:
                    assert updated.worlds[s].leaves <= m.worlds[s].leaves
                for members in classes.values():
                    assert len({lab.dynamic._ext(updated, f) for f in members}) == 1

    @pytest.mark.parametrize("s5", [True, False])
    @pytest.mark.parametrize("schema", ["[X]Y -> (X -> Y)", "<X>Y -> Y"])
    def test_dedup_matches_full_sweep(self, schema, s5, monkeypatch):
        space = SchemaInstanceSpace(parse_formula(schema))
        gen = GenParams(seed=3, s5=s5)

        def verdict():
            v = lab.test_validity(space, gen, 1)
            return (type(v), getattr(v, "world", None), getattr(v, "instance", None))

        deduplicated = verdict()
        monkeypatch.setattr(lab, "_semantic_reps", lambda m, pool: list(pool))
        assert verdict() == deduplicated


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
                                   allow_know=True, allow_announce=True)
                for s in m.world_order:
                    got = satisfies(m, s, f).value
                    assert naive_forces(m, s, m.worlds[s].root, f) == got

    def test_top_everywhere(self, fork_model):
        assert naive_forces(fork_model, "s", "a", TOP)

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
