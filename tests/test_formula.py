import copy
import dataclasses
import pickle
import typing

import pytest
from hypothesis import given, strategies as st

from bethpal import formula
from bethpal.formula import (
    And, Announce, Atom, Diamond, Imp, Know, Neg, Or,
    BOT, MAX_NESTING, TOP, ParseError, UnboundMetavariable, UnknownToken,
    Formula, children, classify, depth, is_metavariable, parse_formula, print_formula,
    substitute,
)
from bethpal import lab
from bethpal.lab import propositional_pool

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParsing:
    def test_precedence_mix(self):
        assert parse_formula("~p & q -> K{a} p") == Imp(And(Neg(p), q), Know("a", p))

    def test_announcement_chain(self):
        assert parse_formula("[~p1]<p2>top") == Announce(
            Neg(Atom("p1")), Diamond(Atom("p2"), TOP))

    def test_exactly_one_of_three(self):
        text = "(p1|p2|p3) & ~(p1&p2) & ~(p1&p3) & ~(p2&p3)"
        p1, p2, p3 = Atom("p1"), Atom("p2"), Atom("p3")
        expected = And(
            And(And(Or(Or(p1, p2), p3), Neg(And(p1, p2))), Neg(And(p1, p3))),
            Neg(And(p2, p3)))
        assert parse_formula(text) == expected

    def test_imp_right_associative(self):
        assert parse_formula("p -> q -> r") == Imp(p, Imp(q, r))

    def test_and_binds_tighter_than_or(self):
        assert parse_formula("p | q & r") == Or(p, And(q, r))

    def test_unary_binds_tightest(self):
        assert parse_formula("~K{a} p & q") == And(Neg(Know("a", p)), q)
        assert parse_formula("[p]q & r") == And(Announce(p, q), r)

    def test_iff_is_sugar(self):
        f = parse_formula("p <-> q")
        assert f == And(Imp(p, q), Imp(q, p))

    def test_unicode_aliases(self):
        assert parse_formula("¬p ∧ q → ⊤") == parse_formula("~p & q -> top")
        assert parse_formula("p ∨ ⊥") == Or(p, BOT)
        assert parse_formula("p ↔ q") == parse_formula("p <-> q")

    def test_constants(self):
        assert parse_formula("top") == TOP
        assert parse_formula("bot") == BOT

    def test_uppercase_is_metavariable(self):
        f = parse_formula("X -> Y -> X")
        assert lab._schema_variables(f) == (("X", "Y"), ())

    def test_stray_character(self):
        with pytest.raises(UnknownToken):
            parse_formula("p $ q")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("p & & q")
        assert exc.value.position == 4

    def test_nesting_limit(self):
        assert depth(parse_formula("~" * MAX_NESTING + "p")) == MAX_NESTING
        assert parse_formula("(" * MAX_NESTING + "p" + ")" * MAX_NESTING) == p
        with pytest.raises(ParseError) as exc:
            parse_formula("~" * (MAX_NESTING + 1) + "p")
        assert exc.value.position == MAX_NESTING
        with pytest.raises(ParseError):
            parse_formula("(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1))
        with pytest.raises(ParseError):
            parse_formula(" & ".join(["p"] * (MAX_NESTING + 2)))
        # a <-> b stands for (a -> b) & (b -> a): two levels.
        n = MAX_NESTING - 2
        assert depth(parse_formula("(" * n + "p <-> q" + ")" * n)) == 2
        with pytest.raises(ParseError):
            parse_formula("(" * (n + 1) + "p <-> q" + ")" * (n + 1))

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(formula, "MAX_SIZE", 7)
        assert parse_formula("p <-> q") == parse_formula("(p -> q) & (q -> p)")
        with pytest.raises(ParseError, match="more than 7 nodes") as exc:
            parse_formula("p <-> ~q")
        assert exc.value.position == 2
        with pytest.raises(ParseError, match="more than 7 nodes"):
            parse_formula("p & q & p & q & p")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_formula("p q")

    def test_unterminated_know(self):
        with pytest.raises(ParseError):
            parse_formula("K{a p")

    @pytest.mark.parametrize("text, cls, message, position, expected", [
        ("K{", ParseError, "missing agent name after 'K{'", 2, ("ident",)),
        ("K{1a}", ParseError, "missing agent name after 'K{'", 2, ("ident",)),
        ("K{_a}", ParseError, "missing agent name after 'K{'", 2, ("ident",)),
        ("K{a b}", ParseError, "unterminated agent name", 3, ("}",)),
        ("K{a p", ParseError, "unterminated agent name", 3, ("}",)),
        ("K {a}p", UnknownToken, "stray character '{'", 2, ()),
        ("_x", UnknownToken, "stray character '_'", 0, ()),
        ("0p", UnknownToken, "stray character '0'", 0, ()),
        ("<-p", UnknownToken, "stray character '-'", 1, ()),
        ("p $ q", UnknownToken, "stray character '$'", 2, ()),
        # Every str.isspace character separates tokens.
        ("p q", ParseError, "trailing input 'q'", 2, ()),
        ("p q", ParseError, "trailing input 'q'", 2, ()),
        # A lexer error anywhere wins over a parse error before it.
        ("p p $", UnknownToken, "stray character '$'", 4, ()),
        # A missing closing symbol is named as written.
        ("(p", ParseError, "unexpected end of input", 2, (")",)),
        ("(p q)", ParseError, "unexpected 'q'", 3, (")",)),
        ("[p q", ParseError, "unexpected 'q'", 3, ("]",)),
        ("<p q", ParseError, "unexpected 'q'", 3, (">",)),
    ])
    def test_lexer_errors(self, text, cls, message, position, expected):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert type(exc.value) is cls
        hint = f" (expected {', '.join(expected)})" if expected else ""
        assert str(exc.value) == f"{message} at position {position}{hint}"
        assert exc.value.position == position
        assert exc.value.expected == expected

    @pytest.mark.parametrize("text, tree", [
        ("topx", Atom("topx")),
        ("Kx", Atom("Kx")),
        ("a_1", Atom("a_1")),
        ("K", Atom("K")),
        ("x²", Atom("x²")),
        ("K{é}p", Know("é", p)),
        ("p & q", And(p, q)),
        ("top&bot", And(TOP, BOT)),
    ])
    def test_identifier_trees(self, text, tree):
        assert parse_formula(text) == tree


class TestPrinting:
    def test_negated_atom(self):
        assert print_formula(Neg(p)) == "~p"

    def test_right_assoc_without_parens(self):
        assert print_formula(Imp(p, Imp(q, p))) == "p -> q -> p"

    def test_left_nested_imp_needs_parens(self):
        assert print_formula(Imp(Imp(p, q), p)) == "(p -> q) -> p"

    def test_know(self):
        assert print_formula(Know("student", Atom("p3"))) == "K{student} p3"

    def test_unary_over_weaker_child(self):
        assert print_formula(Neg(And(p, q))) == "~(p & q)"
        assert print_formula(Know("a", Or(p, q))) == "K{a} (p | q)"

    def test_announcements_tight(self):
        f = Announce(Neg(Atom("p1")), Diamond(Atom("p2"), TOP))
        assert print_formula(f) == "[~p1]<p2>top"

    def test_not_a_formula(self):
        with pytest.raises(TypeError, match=r"^not a formula: 'p'$"):
            print_formula("p")


ATOMS = st.sampled_from(["p", "q", "r", "p1"]).map(Atom)
AGENTS = st.sampled_from(["a", "b", "student"])
FORMULAS = st.recursive(
    ATOMS | st.just(TOP) | st.just(BOT),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(Know, AGENTS, sub),
        st.builds(Announce, sub, sub),
        st.builds(Diamond, sub, sub),
    ),
    max_leaves=40,
)


class TestRoundTrip:
    @given(FORMULAS)
    def test_print_parse_round_trip(self, f):
        assert parse_formula(print_formula(f)) == f

    @given(FORMULAS, FORMULAS)
    def test_iff_never_survives_parsing(self, a, b):
        text = f"({print_formula(a)}) <-> ({print_formula(b)})"
        assert parse_formula(text) == And(Imp(a, b), Imp(b, a))


class TestSubstitute:
    def test_simple_binding(self):
        schema = parse_formula("X -> Y -> X")
        out = substitute(schema, {"X": p, "Y": And(q, r)})
        assert out == parse_formula("p -> q & r -> p")

    def test_agent_binding(self):
        schema = parse_formula("K{i}X -> X")
        out = substitute(schema, {"X": Atom("p3"), "i": Atom("student")})
        assert out == parse_formula("K{student}p3 -> p3")

    def test_decidability_instance(self):
        schema = parse_formula("~K{i}X | K{i}X")
        out = substitute(schema, {"X": p, "i": Atom("a")})
        assert out == parse_formula("~K{a}p | K{a}p")

    def test_unbound_metavariable(self):
        with pytest.raises(UnboundMetavariable):
            substitute(parse_formula("X -> Y"), {"X": p})

    def test_agent_bound_to_a_compound_formula(self):
        with pytest.raises(UnboundMetavariable) as exc:
            substitute(parse_formula("K{i}X"), {"X": p, "i": Neg(p)})
        assert exc.value.name == "i"

    def test_unbound_agents_stay(self):
        out = substitute(parse_formula("K{i}X"), {"X": p})
        assert out == Know("i", p)


class TestAttributes:
    def test_classify(self):
        assert classify(parse_formula("p | q")) == "propositional"
        assert classify(parse_formula("K{a}p")) == "epistemic"
        assert classify(parse_formula("<p>top")) == "announcement"
        assert classify(parse_formula("K{a}[p]q")) == "announcement"

    def test_depth(self):
        assert depth(p) == 0
        assert depth(parse_formula("~p & q")) == 2
        assert depth(parse_formula("[p]<q>top")) == 2

    def test_atom_and_agent_names(self):
        f = parse_formula("K{a}(X -> q) & [Y]K{b}X")
        assert lab._schema_variables(f) == (("X", "Y"), ("a", "b"))

    def test_is_metavariable(self):
        assert is_metavariable("X")
        assert not is_metavariable("x")


class TestHashing:
    TEXTS = ("p", "~p", "bot -> top", "K{a}(p -> q)", "[p | q]<~r>K{b}top", "p <-> q")

    def test_equal_trees_hash_equal(self):
        for text in self.TEXTS:
            a, b = parse_formula(text), parse_formula(text)
            assert a is not b
            assert a == b and hash(a) == hash(b)
        assert hash(And(Atom("p"), Neg(Atom("q")))) == hash(parse_formula("p & ~q"))

    def test_connectives_do_not_collide(self):
        binary = [ctor(p, q) for ctor in (And, Or, Imp, Announce, Diamond)]
        assert len({hash(f) for f in binary}) == len(binary)
        pool = propositional_pool(("p", "q"), 2)
        assert len({hash(f) for f in pool}) == len(pool)

    def test_pickle_round_trip(self):
        for f in [TOP, BOT, *map(parse_formula, self.TEXTS)]:
            h = hash(f)
            data = pickle.dumps(f)
            assert b"_hash" not in data
            back = pickle.loads(data)
            assert back == f and hash(back) == h

    def test_copies_do_not_carry_the_hash(self):
        f = parse_formula("K{a}(p -> [q]~r)")
        hash(f)
        for c in (copy.copy(f), copy.deepcopy(f)):
            assert "_hash" not in vars(c)
            assert c == f and hash(c) == hash(f)

    def test_repr_fields_and_match_unchanged(self):
        f = parse_formula("K{a}(p -> q)")
        hash(f)
        assert repr(f) == ("Know(agent='a', body=Imp(left=Atom(name='p'), "
                           "right=Atom(name='q')))")
        assert [x.name for x in dataclasses.fields(f)] == ["agent", "body"]
        match f:
            case Know(agent, Imp(x, y)):
                assert (agent, x, y) == ("a", p, q)
            case _:
                pytest.fail("no match")
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.agent = "b"


class TestChildren:
    # One instance of every class in Formula.
    INSTANCES = (p, TOP, BOT, Neg(p), And(p, q), Or(p, q), Imp(p, q), Know("a", p),
                 Announce(p, q), Diamond(p, q))

    def test_one_instance_per_class(self):
        assert [type(f) for f in self.INSTANCES] == list(typing.get_args(Formula))

    def test_str_is_print_formula(self):
        for f in self.INSTANCES:
            assert str(f) == print_formula(f)
        assert (str(TOP), str(BOT)) == ("top", "bot")

    def test_children_are_the_formula_fields(self):
        for f in self.INSTANCES:
            fields = [getattr(f, x.name) for x in dataclasses.fields(f)]
            assert children(f) == tuple(v for v in fields if not isinstance(v, str))
            assert all(isinstance(g, typing.get_args(Formula)) for g in children(f))
        assert children(Know("a", p)) == (p,)
        assert children(Announce(p, q)) == (p, q)
        assert children(p) == children(TOP) == ()

    def test_depth_and_subformulas_follow_children(self):
        f = parse_formula("K{a}(p -> [q]~r) | <p>top")
        assert depth(f) == 5
        assert [print_formula(g) for g in formula.subformulas(f)] == [
            "K{a} (p -> [q]~r) | <p>top", "K{a} (p -> [q]~r)", "p -> [q]~r", "p",
            "[q]~r", "q", "~r", "r", "<p>top", "p", "top"]
