import random
from pathlib import Path

import pytest

from bethpal.dynamic import satisfies
from bethpal.formula import (
    Atom, Know, parse_formula, substitute,
)
from bethpal import lab
from bethpal.lab import GenParams, random_formula, random_model, split_seed
from bethpal.proofkit import (
    AxiomRef, AxiomSchema, NecRef, ProofLine, ProofParseError, ProofResult,
    ProofScript, SCHEMAS, check_proof, match_schema, parse_proof,
)

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"

EXPECTED_VERDICTS = {
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


class TestMatchSchema:
    def test_decidability_instance(self):
        binding = match_schema(SCHEMAS["A6"], parse_formula("~K{a}(p&q) | K{a}(p&q)"))
        assert binding == {"X": parse_formula("p&q"), "i": Atom("a")}

    def test_agent_mismatch(self):
        assert match_schema(SCHEMAS["A4"], parse_formula("K{a}p -> K{b}K{a}p")) is None

    def test_distribution_instance(self):
        binding = match_schema(
            SCHEMAS["A2"], parse_formula("(K{a}p & K{a}(p->q)) -> K{a}q"))
        assert binding == {"X": Atom("p"), "Y": Atom("q"), "i": Atom("a")}

    def test_most_general_consistency(self):
        # X has to match the same subformula in both positions.
        assert match_schema(SCHEMAS["A3"], parse_formula("K{a}p -> q")) is None

    def test_every_pattern_matches_itself_renamed(self):
        for sid, schema in SCHEMAS.items():
            binding = match_schema(schema, schema.pattern)
            assert binding is not None, sid


    def test_match_inverts_substitute(self):
        """Matching an instance gives back the binding that built it, for
        every schema and for a pattern with every other connective, under
        bindings that contain announcements and knowledge."""
        schemas = list(SCHEMAS.values())
        schemas.append(AxiomSchema("local", parse_formula("[X]~(Y | K{i}<Y>X) -> top & bot")))
        rng = random.Random(11)
        for schema in schemas:
            for _ in range(40):
                fvars, avars = lab._schema_variables(schema.pattern)
                binding = {v: Atom(rng.choice("ab")) for v in avars}
                binding.update(
                    (v, random_formula(rng, 2, ("p", "q"), ("a", "b"),
                                       allow_announce=True))
                    for v in fvars)
                instance = substitute(schema.pattern, binding)
                assert match_schema(schema, instance) == binding, (schema.id, instance)


class TestCheckProof:
    def test_axiom_one_liner(self):
        script = parse_proof("1. p -> q -> p ; A1.1")
        assert check_proof(script).accepted

    def test_necessitation(self):
        script = parse_proof(
            "1. K{a}p -> p ; A3\n"
            "2. K{a}(K{a}p -> p) ; NEC 1 a\n")
        assert check_proof(script).accepted

    def test_mp_major_not_implication(self):
        script = parse_proof(
            "1. ~K{a}p | K{a}p ; A6\n"
            "2. p -> q -> p ; A1.1\n"
            "3. q -> p ; MP 2 1\n")
        result = check_proof(script)
        assert not result.accepted
        assert result.line == 3
        assert result.reason == "major premise not an implication"

    def test_forward_reference(self):
        script = parse_proof(
            "1. p -> q -> p ; A1.1\n"
            "2. q -> p ; MP 3 1\n"
            "3. p -> q -> p ; A1.1\n")
        result = check_proof(script)
        assert not result.accepted
        assert result.line == 2
        assert result.reason == "cited index not smaller"

    def test_not_an_instance(self):
        result = check_proof(parse_proof("1. p -> q ; A1.1"))
        assert not result.accepted and "not an instance" in result.reason

    def test_binding_mismatch(self):
        result = check_proof(parse_proof("1. p -> q -> p ; A1.1 [X=q, Y=p]"))
        assert not result.accepted and "binding yields" in result.reason

    def test_unbound_binding(self):
        result = check_proof(parse_proof("1. p -> q -> p ; A1.1 [X=p]"))
        assert not result.accepted and "unbound metavariable" in result.reason

    def test_agent_bound_to_a_compound_formula(self):
        # i is bound, to a formula that names no agent: not an unbound name.
        result = check_proof(parse_proof("1. K{a}p -> p ; A3 [X=p, i=p&q]"))
        assert result == ProofResult(
            False, 1, "agent 'i' in A3 is bound to 'p & q', which names no agent")

    @pytest.mark.parametrize("line, name, schema_id", [
        ("1. p -> q -> p ; A1.1 [X=p, Y=q, W=r, j=s&t]", "W", "A1.1"),
        ("1. K{a}p -> p ; A3 [X=p, i=a, Z=q]", "Z", "A3"),
        ("1. p -> q -> p ; A1.1 [X=p, Y=q, x=r]", "x", "A1.1"),
    ])
    def test_binding_of_a_name_the_schema_lacks(self, line, name, schema_id):
        # The instance is the stated formula, yet the binding names more:
        # the first such name, in binding order.
        assert check_proof(parse_proof(line)) == ProofResult(
            False, 1, f"binding names {name!r}, which {schema_id} does not have")

    def test_mp_antecedent_mismatch(self):
        script = parse_proof(
            "1. p & q -> p ; A1.4\n"
            "2. p -> q -> p ; A1.1\n"
            "3. q -> p ; MP 1 2\n")
        result = check_proof(script)
        assert not result.accepted
        assert "antecedent" in result.reason

    def test_nec_wrong_agent(self):
        script = parse_proof(
            "1. K{a}p -> p ; A3\n"
            "2. K{b}(K{a}p -> p) ; NEC 1 a\n")
        result = check_proof(script)
        assert not result.accepted

    def test_indices_must_increase(self):
        lines = (
            ProofLine(2, parse_formula("p -> q -> p"), AxiomRef("A1.1", None)),
            ProofLine(2, parse_formula("p -> q -> p"), AxiomRef("A1.1", None)),
        )
        result = check_proof(ProofScript(lines, parse_formula("p -> q -> p")))
        assert not result.accepted and "increase" in result.reason

    def test_goal_mismatch(self):
        lines = (ProofLine(1, parse_formula("p -> q -> p"), AxiomRef("A1.1", None)),)
        result = check_proof(ProofScript(lines, parse_formula("q")))
        assert not result.accepted and "goal" in result.reason

    @pytest.mark.parametrize("text, line, reason", [
        ("1. p -> q -> p ; A1.1\n3. q -> p ; MP 2 1", 3, "cited line 2 does not exist"),
        ("1. p -> q -> p ; A1.1\n"
         "2. (p -> q -> p) -> r -> p -> q -> p ; A1.1\n"
         "3. s -> p -> q -> p ; MP 1 2", 3, "conclusion does not match the consequent"),
        ("1. K{a}p -> p ; A3\n2. K{a}(K{a}p -> p) ; NEC 3 a", 2, "cited index not smaller"),
    ])
    def test_rejected_with_line_and_reason(self, text, line, reason):
        assert check_proof(parse_proof(text)) == ProofResult(False, line, reason)

    def test_empty_script_object(self):
        assert check_proof(ProofScript((), parse_formula("p"))) == \
            ProofResult(False, None, "empty proof")

    def test_unknown_schema_in_a_built_reference(self):
        f = parse_formula("p -> q -> p")
        result = check_proof(ProofScript((ProofLine(1, f, AxiomRef("A9")),), f))
        assert result == ProofResult(False, 1, "unknown axiom schema 'A9'")


class TestParseProof:
    def test_round_trip_structure(self):
        script = parse_proof(
            "# comment\n"
            "\n"
            "1. p & q -> p ; A1.4 [X=p, Y=q]\n"
            "2. K{a}(p & q -> p) ; NEC 1 a\n")
        assert script.goal == Know("a", parse_formula("p & q -> p"))
        assert script.lines[0].justification == AxiomRef(
            "A1.4", (("X", Atom("p")), ("Y", Atom("q"))))
        assert script.lines[1].justification == NecRef(1, "a")

    def test_missing_semicolon(self):
        with pytest.raises(ProofParseError):
            parse_proof("1. p -> p MP 1 1")

    def test_unknown_justification(self):
        with pytest.raises(ProofParseError):
            parse_proof("1. p ; BOGUS")

    def test_empty_script(self):
        with pytest.raises(ProofParseError):
            parse_proof("# nothing here\n")

    @pytest.mark.parametrize("text, message", [
        ("1. p -> q -> p ; A1.1 X=p, Y=q", "malformed binding 'X=p, Y=q'"),
        ("1. p -> q -> p ; A1.1 [X=p, Y]", "malformed binding entry 'Y'"),
        ("1. p -> q -> p ; A1.1 [X=p, X=r, Y=q]", "'X' is bound twice"),
        ("1. p -> q -> p ;  ", "missing justification"),
        ("1. q -> p ; MP 1", "MP needs two line numbers"),
        ("1. q -> p ; MP 1 x", "MP needs two line numbers"),
        ("1. K{a}p ; NEC a 1", "NEC needs a line number and an agent"),
        ("1. K{a}p ; NEC 1", "NEC needs a line number and an agent"),
        ("1. p & ; A1.1", "unexpected end of input at position 5 "
                          "(expected ~, K{...}, [, <, (, top, bot, ident)"),
        ("1. p -> q -> p ; A1.1 [X=p &, Y=q]", "unexpected end of input at position 3 "
                                               "(expected ~, K{...}, [, <, (, top, bot, ident)"),
    ])
    def test_message_and_line(self, text, message):
        with pytest.raises(ProofParseError) as exc:
            parse_proof("# header\n\n" + text)
        assert str(exc.value) == f"line 3: {message}"
        assert exc.value.lineno == 3


class TestCorpus:
    def test_corpus_is_shipped(self):
        assert len(EXPECTED_VERDICTS) >= 10
        assert sorted(f.name for f in PROOF_DIR.glob("*.pf")) == sorted(EXPECTED_VERDICTS)

    @pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
    def test_corpus_verdict(self, name):
        script = parse_proof((PROOF_DIR / name).read_text())
        assert check_proof(script).accepted == EXPECTED_VERDICTS[name]


class TestSoundnessBridge:
    def test_accepted_goals_hold_on_random_s5_models(self):
        goals = [
            parse_proof((PROOF_DIR / name).read_text()).goal
            for name, ok in EXPECTED_VERDICTS.items() if ok
        ]
        for t in range(500):
            m = random_model(GenParams(seed=split_seed(31, t), atom_count=3))
            for goal in goals:
                for s in m.world_order:
                    assert satisfies(m, s, goal).value, (t, goal)
