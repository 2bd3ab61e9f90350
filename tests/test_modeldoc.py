import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bethpal import modeldoc
from bethpal.beth import NonMonotoneValuation, validate_beth
from bethpal.cli import main
from bethpal.dynamic import BethKripkeModel
from bethpal.lab import GenParams, random_model, split_seed
from bethpal.modeldoc import (
    MAX_DOCUMENT_NODES, DocumentError, model_digest, parse_model_document,
    serialize_beth, serialize_model,
)

from helpers import reference_line, reference_tokenize

FORK_DOC = """\
# one undecided world
agents: i
world s {
  root: a;
  nodes: a, b, c;
  order: a < b, a < c;
  val b: {p};
  val c: {q};
}
access i: (s, s)
"""


class TestParsing:
    def test_basic_document(self):
        m = parse_model_document(FORK_DOC)
        assert m.world_order == ("s",)
        assert m.worlds["s"].node_order == ("a", "b", "c")
        assert m.worlds["s"].val["b"] == {"p"}
        assert m.access["i"] == {("s", "s")}

    def test_whitespace_and_comments_are_free(self):
        squashed = ("agents: i\nworld s { root: a; nodes: a,b,c; "
                    "order: a<b, a<c; val b: {p}; val c: {q}; }\n"
                    "access i: (s,s)")
        assert serialize_model(parse_model_document(squashed)) == \
            serialize_model(parse_model_document(FORK_DOC))

    def test_empty_agents(self):
        m = parse_model_document("agents:\nworld s { root: a; nodes: a; }")
        assert m.agents == frozenset()

    def test_empty_val_is_empty(self):
        m = parse_model_document("agents:\nworld s { root: a; nodes: a; val a: {}; }")
        assert m.worlds["s"].val["a"] == frozenset()

    def test_omitted_val_is_empty(self):
        m = parse_model_document("agents:\nworld s { root: a; nodes: a; }")
        assert m.worlds["s"].val["a"] == frozenset()

    def test_covering_edges_closed(self):
        m = parse_model_document(
            "agents:\nworld s { root: a; nodes: a, b, c; order: a < b, b < c; }")
        assert m.worlds["s"].leq("a", "c")

    def test_missing_agents(self):
        with pytest.raises(DocumentError):
            parse_model_document("world s { root: a; nodes: a; }")

    def test_duplicate_world(self):
        with pytest.raises(DocumentError):
            parse_model_document(
                "agents:\nworld s { root: a; nodes: a; }\n"
                "world s { root: a; nodes: a; }")

    def test_access_for_undeclared_agent(self):
        with pytest.raises(DocumentError):
            parse_model_document(
                "agents: i\nworld s { root: a; nodes: a; }\naccess j: (s, s)")

    def test_access_to_unknown_world(self):
        with pytest.raises(DocumentError):
            parse_model_document(
                "agents: i\nworld s { root: a; nodes: a; }\naccess i: (s, t)")

    def test_world_without_root(self):
        with pytest.raises(DocumentError):
            parse_model_document("agents:\nworld s { nodes: a; }")

    def test_stray_character(self):
        with pytest.raises(DocumentError) as exc:
            parse_model_document("agents: i\nworld s { root: a; nodes: a; % }")
        assert exc.value.line == 2

    @pytest.mark.parametrize("name", ["top", "bot", "_x"])
    def test_unnameable_atom_rejected(self, name):
        with pytest.raises(DocumentError) as exc:
            parse_model_document(
                f"agents:\nworld s {{ root: a; nodes: a, b; order: a < b;\n"
                f"val b: {{p, {name}}}; }}")
        assert exc.value.line == 3
        assert repr(name) in str(exc.value)

    def test_validation_errors_propagate(self):
        with pytest.raises(NonMonotoneValuation):
            parse_model_document(
                "agents:\nworld s { root: a; nodes: a, b; order: a < b; "
                "val a: {p}; }")


WORLD = "world s { root: a; nodes: a; }"
# Every line boundary of str.splitlines.  A comment ends at each of them.
BOUNDARIES = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestErrorLines:
    """Each ``DocumentError`` raise site in ``modeldoc``: its message and the
    line it names."""

    @pytest.mark.parametrize("text, line, message", [
        ("agents:\n" + WORLD + "\n  %", 3, "stray character '%'"),
        ("agents:\nworld s {\n root: a;\n# trailing comment\n", 3,
         "unexpected end of document"),
        ("agents:\nworld s\n root", 3, "expected '{', found 'root'"),
        ("agents:\nworld {", 2, "expected world name, found '{'"),
        ("agents:\n" + WORLD + "\nagents: i", 3, "duplicate agents declaration"),
        ("agents:\n" + WORLD + "\n" + WORLD, 3, "duplicate world 's'"),
        ("agents:\n" + WORLD + "\nworlds", 3,
         "expected 'agents', 'world', or 'access', found 'worlds'"),
        ("\n" + WORLD, 1, "missing agents declaration"),
        ("agents: i\n", 1, "a model needs at least one world"),
        ("agents: i\n" + WORLD + "\n\naccess j: (s, s)", 4,
         "access for undeclared agent 'j'"),
        ("agents: i\n" + WORLD + "\naccess i: (s, s)\naccess i: (s, t)", 3,
         "access pair names unknown world 't'"),
        ("agents:\nworld s {\n root: a;\n root: b; nodes: a; }", 4,
         "duplicate root declaration"),
        ("agents:\nworld s {\n nodes: a;\n nodes: a; root: a; }", 4,
         "duplicate nodes declaration"),
        ("agents:\nworld s { root: a; nodes: a;\n val a: {p};\n val a: {q}; }", 4,
         "duplicate valuation for node 'a'"),
        ("agents:\nworld s { root: a; nodes: a;\n val a: {p, top}; }", 3,
         "atom 'top' cannot be named in a formula"),
        # Each atom name is checked once per world: a bad name fails at its
        # first occurrence, after good names met on earlier lines.
        ("agents:\nworld s { root: a; nodes: a, b; order: a < b;\n val a: {p};\n"
         " val b: {p, q, _x, _x}; }", 4, "atom '_x' cannot be named in a formula"),
        ("agents:\nworld s { root: a; nodes: a, b; order: a < b;\n val a: {_x};\n"
         " val b: {_x}; }", 3, "atom '_x' cannot be named in a formula"),
        ("agents:\nworld s { root: a;\n edges: a; }", 3, "unknown world entry 'edges'"),
        ("agents:\nworld s { nodes: a;\n}", 3, "world 's' has no root"),
        ("agents:\nworld s { root: a;\n}", 3, "world 's' has no nodes"),
        ("agents: i\n" + WORLD + "\naccess i:\n (,", 4, "expected world name, found ','"),
        ("agents: i\n" + WORLD + "\naccess i: (s\n s)", 4, "expected ',', found 's'"),
        ("agents: i\n" + WORLD + "\naccess i: (s,\n )", 4,
         "expected world name, found ')'"),
        ("agents: i\n" + WORLD + "\naccess i: (s, s\n (", 4, "expected ')', found '('"),
        ("agents:\nworld s { root: a; nodes: a;\n val : {p}; }", 3,
         "expected node name, found ':'"),
        ("agents:\nworld s { root: a; nodes: a;\n val a {p}; }", 3, "expected ':', found '{'"),
        ("agents:\nworld s { root: a; nodes: a; val a: {p\n; }", 3,
         "expected '}', found ';'"),
        ("agents:\nworld s { root: a; nodes: a, b;\n order a < b; }", 3,
         "expected ':', found 'a'"),
        ("agents:\nworld s { root: a; nodes: a, b; order: a\n b; }", 3,
         "expected '<', found 'b'"),
        ("agents:\nworld s { root: a; nodes: a, b; order: a <\n ; }", 3,
         "expected node name, found ';'"),
        ("agents:\nworld s { root: a;\n nodes a; }", 3, "expected ':', found 'a'"),
        ("agents:\nworld s {\n root a; nodes: a; }", 3, "expected ':', found 'a'"),
        ("agents:\nworld s { root:\n ; nodes: a; }", 3, "expected node name, found ';'"),
        ("agents:\nworld s { root: a\n nodes: a; }", 3, "expected ';', found 'nodes'"),
        # Several agents fail at once: the first failing access statement
        # is reported, and a stray pair is named by the smallest such pair.
        ("agents: i\n" + WORLD + "\naccess j: (s, s)\naccess i: (s, t)", 3,
         "access for undeclared agent 'j'"),
        ("agents: i\n" + WORLD + "\naccess i: (s, t)\naccess j: (s, s)", 3,
         "access pair names unknown world 't'"),
        # An agent's pairs from all its statements are checked together, at
        # its first statement, before the next agent's.
        ("agents: i, j\n" + WORLD + "\naccess i: (s, s)\naccess j: (s, t)\naccess i: (u, s)",
         3, "access pair names unknown world 'u'"),
        ("agents: i, j\n" + WORLD + "\naccess i: (s, s)\naccess j: (s, t)", 4,
         "access pair names unknown world 't'"),
        ("agents: i, j\n" + WORLD + "\naccess i: (s, t)\naccess j: (t, s)", 3,
         "access pair names unknown world 't'"),
        ("agents: i\n" + WORLD + "\naccess i: (y, x), (s, s), (x, z)", 3,
         "access pair names unknown world 'x'"),
        # A comma after an access pair is followed by another pair.
        ("agents: i\n" + WORLD + "\naccess i: (s, s),\n" + WORLD.replace("s {", "t {"), 4,
         "expected '(', found 'world'"),
        ("agents: i\n" + WORLD + "\naccess i: (s, s),\n", 3, "unexpected end of document"),
        # A word is a letter or _ followed by word characters; any other
        # character, inside a word or at its start, is stray.
        ("agents: a-b\n" + WORLD, 1, "stray character '-'"),
        ("agents:\nworld s { root: n1%; nodes: n1; }", 2, "stray character '%'"),
        ("agents:\nworld s { root: a;\n nodes: a, 1a; }", 3, "stray character '1'"),
        ("\ufeffagents:\n" + WORLD, 1, "stray character '\\ufeff'"),
        # Inside one chunk: the stray character after a word's first
        # character, a word character that cannot start a word, and a
        # combining mark after a letter.
        ("agents:\nworld s { root: ab$c; nodes: a; }", 2, "stray character '$'"),
        ("agents:\n" + WORLD + "\naccess 1ab: (s, s)", 3, "stray character '1'"),
        ("agents: a\u0301\n" + WORLD, 1, "stray character '\u0301'"),
        # x² is a word: the error comes after it.
        ("agents: x²\nworld s { root: x²; nodes: x²; }\naccess x²: (s, t)", 3,
         "access pair names unknown world 't'"),
        # A stray character on its own line, after each line boundary.
        *(("agents: i" + nl + WORLD + nl + "%", 3, "stray character '%'")
          for nl in [*BOUNDARIES, "\r\n"]),
    ])
    def test_message_and_line(self, text, line, message):
        with pytest.raises(DocumentError) as exc:
            parse_model_document(text)
        assert str(exc.value) == f"line {line}: {message}"
        assert exc.value.line == line

    def test_access_errors_name_the_first_access_statement(self):
        with pytest.raises(DocumentError) as exc:
            parse_model_document("agents: i\n" + WORLD + "\n\naccess j: (s, s)\n"
                                 "access i: (s, s)\naccess j: (s, s)")
        assert exc.value.line == 4
        with pytest.raises(DocumentError) as exc:
            parse_model_document("agents: i\n" + WORLD + "\naccess i:\n  (s, s),\n  (s, t)")
        assert exc.value.line == 3


def _outcome(tokenize, text):
    """The tokens of ``text``, or the message and line of its error."""
    try:
        return tokenize(text)
    except DocumentError as e:
        return str(e), e.line


# Every code point of the BMP, and every one above it that is whitespace or
# numeric: the classes in which str methods and the regular expression of
# the reference could part.
_CODE_POINTS = [c for c in map(chr, range(0x110000))
                if ord(c) < 0x10000 or c.isspace() or c.isnumeric()]

# Document pieces, stray characters and word characters that are not
# letters, for documents that mix them.
_PIECES = st.sampled_from([
    "agents", "world", "access", "root", "nodes", "order", "val", "{", "}", "(", ")",
    ":", ";", ",", "<", "s", "a", "p1", "_x", "x²", "é", "٣", "1", "²", "_", "%", "-",
    "#", "\ufeff", " ", "\t", "\xa0", "\u3000", *BOUNDARIES, "\r\n",
])


class TestTokenizer:
    """``modeldoc._tokenize`` gives the tokens of the regular-expression
    reference, or the same error on the same line, and ``_line`` counts the
    same tokens as the reference."""

    @pytest.mark.parametrize("context", ["a{c}b", "{c}x", "x {c}", "a,{c}<b", "{c}{c}",
                                         "p\n{c}1"])
    def test_every_code_point_in_context(self, context):
        for c in _CODE_POINTS:
            text = context.replace("{c}", c)
            assert _outcome(modeldoc._tokenize, text) == _outcome(reference_tokenize, text), \
                hex(ord(c))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_PIECES, st.characters()), max_size=40).map("".join))
    def test_mixed_documents(self, text):
        got = _outcome(modeldoc._tokenize, text)
        assert got == _outcome(reference_tokenize, text)
        if isinstance(got, list):
            assert [modeldoc._line(text, k) for k in range(len(got))] == \
                [reference_line(text, k) for k in range(len(got))]


def _star(name: str, size: int) -> str:
    """World ``name`` of ``size`` nodes, a root below the others, on five
    lines; its ``nodes`` entry is on the third."""
    leaves = [f"l{k}" for k in range(1, size)]
    return (f"world {name} {{\n  root: r;\n  nodes: {', '.join(['r', *leaves])};\n"
            f"  order: {', '.join(f'r < {x}' for x in leaves)};\n}}\n")


class TestNodeBound:
    """A document lists at most MAX_DOCUMENT_NODES node names across its
    worlds; the ``nodes`` entry that crosses the bound is refused before its
    world is built."""

    def test_a_document_at_the_bound_loads(self):
        half = MAX_DOCUMENT_NODES // 2
        m = parse_model_document(
            "agents:\n" + _star("s", half) + _star("t", MAX_DOCUMENT_NODES - half))
        assert sum(len(w.node_order) for w in m.worlds.values()) == MAX_DOCUMENT_NODES

    def test_one_node_over_is_refused_at_the_entry_that_crosses(self, monkeypatch):
        built = []

        def record(nodes, *args):
            built.append(len(nodes))
            return validate_beth(nodes, *args)

        monkeypatch.setattr(modeldoc, "validate_beth", record)
        half = MAX_DOCUMENT_NODES // 2
        with pytest.raises(DocumentError) as exc:
            parse_model_document("agents:\n" + _star("s", half)
                                 + _star("t", MAX_DOCUMENT_NODES - half + 1) + _star("u", 2))
        assert str(exc.value) == "line 9: more than 20,000 nodes in the document"
        assert exc.value.line == 9
        assert built == [half]

    def test_one_world_over_the_bound(self):
        with pytest.raises(DocumentError) as exc:
            parse_model_document("agents:\n" + _star("s", MAX_DOCUMENT_NODES + 1))
        assert str(exc.value) == "line 4: more than 20,000 nodes in the document"

    def test_cli_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "star.model"
        doc.write_text("agents:\n" + _star("s", MAX_DOCUMENT_NODES + 1))
        assert main(["check", str(doc), "s", "p"]) == 2
        assert "more than 20,000 nodes in the document" in capsys.readouterr().err


@pytest.mark.parametrize("nl", BOUNDARIES)
class TestBoundaryLines:
    """Lines are counted only for an error; each line boundary counts as one
    line break, and ends a comment."""

    @pytest.mark.parametrize("lines, line, message", [
        (["agents: # i", "world {"], 2, "expected world name, found '{'"),
        (["agents: i", WORLD + " # % ", "", "%"], 4, "stray character '%'"),
        (["agents:", "world s {", " root: a;", "# one", "", "# two", ""], 3,
         "unexpected end of document"),
        (["agents: i", WORLD, "# access i: (s, s)", "access j: (s, s)"], 4,
         "access for undeclared agent 'j'"),
        (["agents: i", WORLD, "access i: # (s, s)", " (s, s)", "access i: (s, t)"], 3,
         "access pair names unknown world 't'"),
    ])
    def test_message_and_line(self, nl, lines, line, message):
        with pytest.raises(DocumentError) as exc:
            parse_model_document(nl.join(lines))
        assert str(exc.value) == f"line {line}: {message}"
        assert exc.value.line == line


class TestSerialization:
    def test_round_trip_fixed_point(self):
        once = serialize_model(parse_model_document(FORK_DOC))
        twice = serialize_model(parse_model_document(once))
        assert once == twice

    def test_round_trip_on_generated_models(self):
        for t in range(40):
            m = random_model(GenParams(seed=split_seed(17, t)))
            doc = serialize_model(m)
            assert serialize_model(parse_model_document(doc)) == doc

    def test_agents_named_like_statements_round_trip(self):
        # An agent list may start with ``world`` or ``access``, and a world
        # may be named ``world``: the agents line is followed by that world.
        names = ("world", "access", "agents", "b")
        w = validate_beth(["r", "x"], [("r", "x")], "r", {"x": {"p"}})
        for worlds in (("world",), ("s", "world"), ("access", "world")):
            for k in range(len(names) + 1):
                for agents in itertools.combinations(names, k):
                    access = {a: [(s, s) for s in worlds] for a in agents[::2]}
                    m = BethKripkeModel(dict.fromkeys(worlds, w), agents, access)
                    doc = serialize_model(m)
                    again = parse_model_document(doc)
                    assert again.agents == frozenset(agents), doc
                    assert serialize_model(again) == doc

    @pytest.mark.parametrize("text, agents", [
        ("agents: world\nworld world { root: a; nodes: a; }", {"world"}),
        ("agents:\nworld world { root: a; nodes: a; }", set()),
        ("agents: access\n" + WORLD + "\naccess access: (s, s)", {"access"}),
        ("agents:\n" + WORLD, set()),
        ("agents: access, world\n" + WORLD, {"access", "world"}),
    ])
    def test_agent_or_statement(self, text, agents):
        assert parse_model_document(text).agents == agents

    def test_cli_announce_then_check(self, tmp_path):
        doc, out = tmp_path / "zz.model", tmp_path / "out.model"
        doc.write_text("agents: zz, access\n" + WORLD + "\naccess zz: (s, s)\n")
        assert main(["announce", str(doc), "top", "--out", str(out)]) == 0
        assert out.read_text().startswith("agents: access, zz\n")
        assert main(["check", str(out), "s", "top"]) == 0

    def test_serializer_emits_covering_edges_only(self):
        doc = serialize_model(parse_model_document(
            "agents:\nworld s { root: a; nodes: a, b, c; "
            "order: a < b, b < c, a < c; }"))
        assert "a < c" not in doc

    def test_digest_stability(self):
        m1 = parse_model_document(FORK_DOC)
        m2 = parse_model_document(FORK_DOC)
        assert model_digest(m1) == model_digest(m2)
        assert len(model_digest(m1)) == 12

    def test_serialize_bare_beth(self, fork_pq):
        doc = serialize_beth(fork_pq)
        m = parse_model_document(doc)
        assert m.worlds["w"].node_order == ("a", "b", "c")
