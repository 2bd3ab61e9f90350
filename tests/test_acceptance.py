"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Seeds are pinned; every randomized suite is deterministic.
"""
import functools
import json
import random
import time
from pathlib import Path

from bethpal import lab
from bethpal.beth import (
    PointedBeth, equivalent_up_to_depth, forces_prop, is_bar, maximal_paths,
    validate_beth,
)
from bethpal.cli import main
from bethpal.dynamic import (
    BethKripkeModel, announce, forces, restrict_world, satisfies,
)
from bethpal.formula import (
    And, Announce, Atom, Diamond, Imp, Know, Neg, Or, BOT, TOP,
    depth as formula_depth, parse_formula,
)
from bethpal.lab import (
    Counterexample, GenParams, NoCounterexample, SchemaInstanceSpace,
    enumerate_small_beth, naive_forces, nontranslatability_witness,
    random_beth, random_formula, random_model, split_seed,
)
from bethpal.proofkit import SCHEMAS, check_proof, parse_proof

SEED = 20260811
PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"

p, q = Atom("p"), Atom("q")


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label} ({time.monotonic() - started:.1f}s)")
        return run
    return wrap


@criterion("criterion 1: three possible worlds for {p|q, ~(p&q)}")
def test_criterion_1_three_possibilities():
    settled_p = validate_beth(("a",), (), "a", {"a": {"p"}}, ("p", "q"))
    settled_q = validate_beth(("a",), (), "a", {"a": {"q"}}, ("p", "q"))
    fork = validate_beth(("a", "b", "c"), (("a", "b"), ("a", "c")), "a",
                         {"b": {"p"}, "c": {"q"}}, ("p", "q"))
    constraints = (parse_formula("p|q"), parse_formula("~(p&q)"))
    for m in (settled_p, settled_q, fork):
        for f in constraints:
            assert forces_prop(m, "a", f) is True
    for f in (p, Neg(p), q, Neg(q)):
        assert forces_prop(fork, "a", f) is False
    pairs = [(settled_p, settled_q), (settled_p, fork), (settled_q, fork)]
    for x, y in pairs:
        found = equivalent_up_to_depth(
            PointedBeth(x, "a"), PointedBeth(y, "a"), 1, ("p", "q"))
        assert found is not None
        assert formula_depth(found) <= 1
        assert forces_prop(x, "a", found) != forces_prop(y, "a", found)


@criterion("criterion 2: announce-ability of both p and ~p")
def test_criterion_2_announcement_example():
    fork = validate_beth(("a", "b", "c"), (("a", "b"), ("a", "c")), "a",
                         {"b": {"p"}, "c": {"q"}})
    m = BethKripkeModel({"s": fork}, ("i",), {"i": {("s", "s")}})
    assert satisfies(m, "s", parse_formula("<p>top & <~p>top")).value is True
    assert satisfies(m, "s", parse_formula("[p]~q")).value is True
    assert satisfies(m, "s", parse_formula("[~p]q")).value is True
    updated = announce(m, p)
    assert updated.worlds["s"].node_order == ("a", "b")


@criterion("criterion 3: <p>top has no propositional equivalent (depth <= 4)")
def test_criterion_3_nontranslatability():
    started = time.monotonic()
    report = nontranslatability_witness(4)
    elapsed = time.monotonic() - started
    assert report.diamond_at_root is True
    assert report.bare_leaf_forces_atom is False
    assert report.equivalent is None
    assert elapsed < 30.0


@criterion("criterion 4: surprise exam walkthrough")
def test_criterion_4_sep(capsys):
    assert main(["--format", "json", "sep"]) == 0
    steps = {s["step"]: s for s in json.loads(capsys.readouterr().out)["steps"]}
    assert steps[0]["facts"]["phi0 & (phi1 | phi2 | phi3)"] is True
    assert steps[0]["facts"]["p3"] is False
    assert steps[0]["facts"]["~p3"] is False
    assert steps[0]["facts"]["phi3"] is False
    assert steps[2]["world_nodes"] == ["fri", "now"]
    assert steps[2]["facts"]["K{student}p3"] is True


# --- criterion 5: theorem property suites, >= 500 random models each -------

def _random_prop(rng, max_depth=3):
    return random_formula(rng, max_depth, ("p", "q"))


@criterion("criterion 5a: bar/path characterizations and persistence")
def test_criterion_5_beth_characterizations():
    rng = random.Random(SEED)
    for t in range(500):
        m = random_beth(rng, 6, ("p", "q"))
        f = _random_prop(rng)
        for a in m.node_order:
            value = forces_prop(m, a, f)
            bar = {b for b in m.up[a] if forces_prop(m, b, f)}
            assert value == is_bar(m, a, bar)
            missed = any(not any(forces_prop(m, b, f) for b in path)
                         for path in maximal_paths(m, a))
            assert (not value) == missed
            if value:
                assert all(forces_prop(m, b, f) for b in m.up[a])


@criterion("criterion 5b: knowledge is world-global")
def test_criterion_5_k_globality():
    rng = random.Random(SEED + 1)
    for t in range(500):
        m = random_model(GenParams(seed=split_seed(SEED + 1, t)))
        agents = sorted(m.agents)
        f = Know(rng.choice(agents),
                 random_formula(rng, 2, ("p", "q"), agents))
        for s in m.world_order:
            values = {forces(m, s, n, f).value for n in m.worlds[s].node_order}
            assert len(values) == 1


@criterion("criterion 5c: knowing is decidable on S5 models")
def test_criterion_5_decidability():
    rng = random.Random(SEED + 2)
    for t in range(500):
        m = random_model(GenParams(seed=split_seed(SEED + 2, t), s5=True))
        agents = sorted(m.agents)
        phi = random_formula(rng, 3, ("p", "q"), agents)
        i = rng.choice(agents)
        f = Or(Know(i, phi), Neg(Know(i, phi)))
        for s in m.world_order:
            assert satisfies(m, s, f).value is True


@criterion("criterion 5d: propositional announcements succeed")
def test_criterion_5_announcement_success():
    rng = random.Random(SEED + 3)
    for t in range(500):
        m = random_model(GenParams(seed=split_seed(SEED + 3, t)))
        ann = _random_prop(rng, 2)
        updated = announce(m, ann)
        for s in updated.world_order:
            w = updated.worlds[s]
            assert all(forces(updated, s, b, ann).value for b in w.node_order)


@criterion("criterion 5e: restriction is downward closed")
def test_criterion_5_downward_closure():
    rng = random.Random(SEED + 4)
    for t in range(500):
        m = random_model(GenParams(seed=split_seed(SEED + 4, t)))
        ann = _random_prop(rng, 2)
        for s in m.world_order:
            w = m.worlds[s]
            restricted = restrict_world(m, s, ann)
            if restricted is None:
                continue
            for b in restricted.nodes:
                assert all(a in restricted.nodes
                           for a in w.node_order if w.leq(a, b))


@criterion("criterion 5f: A2-A6 valid on S5 models")
def test_criterion_5_axiom_validity():
    for sid in ("A2", "A3", "A4", "A5", "A6"):
        verdict = lab.test_validity(
            SchemaInstanceSpace(SCHEMAS[sid].pattern),
            GenParams(seed=SEED + 5, s5=True), 500)
        assert verdict == NoCounterexample(500), sid


@criterion("criterion 5g: factivity refuted without reflexivity")
def test_criterion_5_factivity_counterexample():
    verdict = lab.test_validity(
        SchemaInstanceSpace(SCHEMAS["A3"].pattern),
        GenParams(seed=SEED + 6, s5=False), 100)
    assert isinstance(verdict, Counterexample)
    assert verdict.verify()


@criterion("criterion 6: evaluator agrees with the cache-free oracle")
def test_criterion_6_oracle_equivalence():
    disagreements = 0
    checked = 0
    for m in enumerate_small_beth(3, ("p", "q")):
        bk = BethKripkeModel({"w": m}, ("a",), {"a": {("w", "w")}})

        def joint(f):
            dyn = tuple(forces(bk, "w", n, f).value for n in m.node_order)
            nai = tuple(naive_forces(bk, "w", n, f) for n in m.node_order)
            return dyn, nai

        seen = set()
        reps = []
        frontier = [p, q, TOP, BOT]
        for level in range(4):       # depths 0..3
            fresh = []
            for f in frontier:
                dyn, nai = joint(f)
                checked += 1
                if dyn != nai:
                    disagreements += 1
                if (dyn, nai) in seen:
                    continue
                seen.add((dyn, nai))
                fresh.append(f)
            reps.extend(fresh)
            if level == 3 or not fresh:
                break
            frontier = [Neg(r) for r in reps] + [Know("a", r) for r in reps]
            frontier += [ctor(a, b)
                         for ctor in (And, Or, Imp, Announce, Diamond)
                         for a in reps for b in reps]
    assert disagreements == 0
    assert checked > 1000


@criterion("criterion 7: announcement-reduction experiment is reproducible")
def test_criterion_7_hypothesis_determinism(capsys, tmp_path):
    gen = GenParams(seed=SEED + 7, s5=True)
    first = lab.test_announcement_hypothesis(gen, 500, depth=2)
    second = lab.test_announcement_hypothesis(gen, 500, depth=2)
    assert first.render() == second.render()
    out = tmp_path / "experiment.log"
    code = main(["--seed", str(SEED + 7), "axioms", "--schema", "A6",
                 "--trials", "500", "--hypothesis", "--hyp-depth", "2",
                 "--hyp-out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_text() == first.render()
    # The verdict itself is a finding, not an assertion; it must only be
    # internally consistent.
    if isinstance(first.verdict, Counterexample):
        assert first.verdict.verify()


@criterion("criterion 8: proof corpus verdicts")
def test_criterion_8_proof_corpus():
    expected = {
        "a1_1_weakening.pf": True,
        "a1_2_distribution.pf": True,
        "a1_3_pairing.pf": True,
        "a1_4_left_projection.pf": True,
        "a1_5_right_projection.pf": True,
        "a1_6_left_injection.pf": True,
        "a1_7_right_injection.pf": True,
        "a1_8_case_split.pf": True,
        "a1_9_negation_intro.pf": True,
        "a1_10_explosion.pf": True,
        "a2_chain.pf": True,
        "nec_factivity.pf": True,
        "broken_mp_not_implication.pf": False,
        "broken_forward_reference.pf": False,
    }
    names = sorted(f.name for f in PROOF_DIR.glob("*.pf"))
    assert names == sorted(expected)
    for name, ok in expected.items():
        script = parse_proof((PROOF_DIR / name).read_text())
        assert check_proof(script).accepted is ok, name
