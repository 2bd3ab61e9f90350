"""Text format for Beth-Kripke models.

UTF-8, ``#`` line comments.  Example::

    agents: student
    world s {
      root: now;
      nodes: now, wed, thu, fri;
      order: now < wed, now < thu, now < fri;
      val wed: {p1};
      val thu: {p2};
      val fri: {p3};
    }
    access student: (s, s)

``order`` may list covering edges only; the transitive closure is computed on
load.  A node without a ``val`` entry has the empty valuation.  Atom names
start with a letter and are neither ``top`` nor ``bot``, so that a formula
can name every atom.  A document lists at most ``MAX_DOCUMENT_NODES`` node
names in its ``nodes`` entries, counted across worlds; a model's order takes
memory quadratic in its nodes, so a larger document is refused before any
model is built.  Serialization is canonical (sorted names, covering edges
only), so serialize-parse-serialize is byte identical.
"""
from __future__ import annotations

import hashlib
import re
from typing import NoReturn

from .beth import BethModel, validate_beth
from .dynamic import BethKripkeModel, UnknownAgent, UnknownWorld


MAX_DOCUMENT_NODES = 20_000


class DocumentError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_PUNCT = "{}():;,<"


def is_atom_name(name: str) -> bool:
    """Whether ``name`` can name an atom: a letter, then letters, digits and
    ``_``, and neither ``top`` nor ``bot``, so that a formula can name it."""
    return (name[:1].isalpha() and name.replace("_", "").isalnum()
            and name not in ("top", "bot"))


# A comment runs to the end of its line, and a line ends at every boundary
# of str.splitlines.
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def _chunks(text: str) -> list[str]:
    """The whitespace-separated chunks of ``text`` once each punctuation
    mark is spaced apart: every mark is a chunk of its own."""
    for c in _PUNCT:
        text = text.replace(c, f" {c} ")
    return text.split()


def _tokenize(text: str) -> list[str]:
    """The words and punctuation marks of ``text`` outside comments, ended
    by a ``""`` marker.  A word is a letter or ``_`` followed by letters,
    digits and ``_``; any other character is refused, on its line.  Lines
    are not recorded: an error finds the line of its token with
    :func:`_located`."""
    toks = _chunks(_COMMENT.sub("", text))
    refused = {t for t in set(toks)
               if not (t in _PUNCT or (t[0].isalpha() or t[0] == "_")
                       and (t.replace("_", "") or "a").isalnum())}
    if refused:
        # The first refused chunk holds the first stray character: its first
        # character, unless that starts a word, else its first non-word one.
        lineno, t = next(chunk for chunk in _located(text) if chunk[1] in refused)
        word = t[0].isalpha() or t[0] == "_"
        c = next(c for c in t if not (c.isalnum() or c == "_")) if word else t[0]
        raise DocumentError(f"stray character {c!r}", lineno)
    toks.append("")
    return toks


def _located(text: str) -> list[tuple[int, str]]:
    """Each chunk of ``text`` outside comments, in order, with its line;
    only errors ask for lines."""
    return [(lineno, t) for lineno, raw in enumerate(text.splitlines(), start=1)
            for t in _chunks(_COMMENT.sub("", raw))]


def _line(text: str, k: int) -> int:
    """The line of token ``k`` of ``_tokenize(text)``; the end marker is on
    the line of the last token, or on line 1 if there is none."""
    located = _located(text)
    return located[min(k, len(located) - 1)][0] if located else 1


def _fail(text: str, toks: list[str], k: int, what: str) -> NoReturn:
    """Raise the error for token ``k``, found where ``what`` was expected."""
    found = toks[k]
    message = f"expected {what}, found {found!r}" if found else "unexpected end of document"
    raise DocumentError(message, _line(text, k))


# The parser reads the token list by index.  ``tok in _PUNCT`` also holds for
# the end marker, so that one test rejects both a missing name and the end
# of the document, and a token that passes it is never the marker.

def _names(text: str, toks: list[str], i: int, what: str) -> tuple[list[str], int]:
    """The comma-separated names from token ``i`` on, and the index of the
    token after them."""
    start = i
    while True:
        if toks[i] in _PUNCT:
            _fail(text, toks, i, what)
        if toks[i + 1] != ",":
            return toks[start:i + 1:2], i + 1
        i += 2


def parse_model_document(text: str) -> BethKripkeModel:
    toks = _tokenize(text)
    i = 0
    agents: list[str] | None = None
    worlds: dict[str, BethModel] = {}
    access: dict[str, set[tuple[str, str]]] = {}
    access_at: dict[str, int] = {}      # each agent's first access statement
    declared = 0                        # node names listed so far, across worlds

    while toks[i]:
        head = toks[i]
        at = i
        i += 1
        if head == "agents":
            if agents is not None:
                raise DocumentError("duplicate agents declaration", _line(text, at))
            if toks[i] != ":":
                _fail(text, toks, i, "':'")
            i += 1
            # ``world`` or ``access`` here starts the next statement, unless a
            # comma or a statement head follows it: then it names an agent.
            after = toks[i + 1:i + 4]
            if toks[i] in ("", "world", "access") and not (
                    after[:1] == [","] or len(after) == 3 and after[1] not in _PUNCT
                    and (after[0], after[2]) in (("world", "{"), ("access", ":"))):
                agents = []
            else:
                agents, i = _names(text, toks, i, "agent name")
        elif head == "world":
            name = toks[i]
            if name in _PUNCT:
                _fail(text, toks, i, "world name")
            if name in worlds:
                raise DocumentError(f"duplicate world {name!r}", _line(text, at))
            worlds[name], i, declared = _parse_world(text, toks, i + 1, name, declared)
        elif head == "access":
            agent = toks[i]
            if agent in _PUNCT:
                _fail(text, toks, i, "agent name")
            if toks[i + 1] != ":":
                _fail(text, toks, i + 1, "':'")
            i += 2
            pairs = access.setdefault(agent, set())
            access_at.setdefault(agent, at)
            while toks[i] == "(":
                a = toks[i + 1]
                if a in _PUNCT:
                    _fail(text, toks, i + 1, "world name")
                if toks[i + 2] != ",":
                    _fail(text, toks, i + 2, "','")
                b = toks[i + 3]
                if b in _PUNCT:
                    _fail(text, toks, i + 3, "world name")
                if toks[i + 4] != ")":
                    _fail(text, toks, i + 4, "')'")
                pairs.add((a, b))
                i += 5
                if toks[i] != ",":
                    break
                i += 1
                if toks[i] != "(":
                    _fail(text, toks, i, "'('")
        else:
            raise DocumentError(
                f"expected 'agents', 'world', or 'access', found {head!r}", _line(text, at))

    if agents is None:
        raise DocumentError("missing agents declaration", 1)
    if not worlds:
        raise DocumentError("a model needs at least one world", 1)
    # The constructor checks agents in statement order, so the first agent
    # whose pairs name an unknown world is the one that failed.
    try:
        return BethKripkeModel(worlds, agents, access)
    except UnknownAgent as e:
        raise DocumentError(f"access for undeclared agent {e.agent!r}",
                            _line(text, access_at[e.agent])) from None
    except UnknownWorld as e:
        agent = next(a for a, ps in access.items() if any(e.world in p for p in ps))
        raise DocumentError(f"access pair names unknown world {e.world!r}",
                            _line(text, access_at[agent])) from None


def _parse_world(text: str, toks: list[str], i: int, name: str,
                 declared: int) -> tuple[BethModel, int, int]:
    """The world ``name`` whose body starts at token ``i``, the index of the
    token after it, and ``declared`` (the node names listed before it) plus
    its own.  A ``nodes`` entry that takes the count past MAX_DOCUMENT_NODES
    is refused before any model is built."""
    if toks[i] != "{":
        _fail(text, toks, i, "'{'")
    i += 1
    root: str | None = None
    nodes: list[str] | None = None
    order: list[tuple[str, str]] = []
    val: dict[str, set[str]] = {}
    named: set[str] = set()     # atom names found nameable
    while toks[i] != "}":
        key = toks[i]
        at = i
        if key in _PUNCT:
            _fail(text, toks, i, "'root', 'nodes', 'order', or 'val'")
        if key == "val":
            node = toks[i + 1]
            if node in _PUNCT:
                _fail(text, toks, i + 1, "node name")
            if toks[i + 2] != ":":
                _fail(text, toks, i + 2, "':'")
            if toks[i + 3] != "{":
                _fail(text, toks, i + 3, "'{'")
            if node in val:
                raise DocumentError(f"duplicate valuation for node {node!r}", _line(text, at))
            i += 4
            if toks[i] == "}":
                atoms = []
            else:
                atoms, i = _names(text, toks, i, "atom name")
                for atom in atoms:
                    if atom not in named:
                        if not is_atom_name(atom):
                            raise DocumentError(f"atom {atom!r} cannot be named in a formula",
                                                _line(text, at))
                        named.add(atom)
            val[node] = set(atoms)
            if toks[i] != "}":
                _fail(text, toks, i, "'}'")
            i += 1
        elif key == "order":
            if toks[i + 1] != ":":
                _fail(text, toks, i + 1, "':'")
            i += 2
            while True:
                a = toks[i]
                if a in _PUNCT:
                    _fail(text, toks, i, "node name")
                if toks[i + 1] != "<":
                    _fail(text, toks, i + 1, "'<'")
                b = toks[i + 2]
                if b in _PUNCT:
                    _fail(text, toks, i + 2, "node name")
                order.append((a, b))
                i += 3
                if toks[i] != ",":
                    break
                i += 1
        elif key == "nodes":
            if toks[i + 1] != ":":
                _fail(text, toks, i + 1, "':'")
            if nodes is not None:
                raise DocumentError("duplicate nodes declaration", _line(text, at))
            nodes, i = _names(text, toks, i + 2, "node name")
            declared += len(nodes)
            if declared > MAX_DOCUMENT_NODES:
                raise DocumentError(f"more than {MAX_DOCUMENT_NODES:,} nodes in the document",
                                    _line(text, at))
        elif key == "root":
            if toks[i + 1] != ":":
                _fail(text, toks, i + 1, "':'")
            if root is not None:
                raise DocumentError("duplicate root declaration", _line(text, at))
            root = toks[i + 2]
            if root in _PUNCT:
                _fail(text, toks, i + 2, "node name")
            i += 3
        else:
            raise DocumentError(f"unknown world entry {key!r}", _line(text, at))
        if toks[i] != ";":
            _fail(text, toks, i, "';'")
        i += 1
    if root is None:
        raise DocumentError(f"world {name!r} has no root", _line(text, i))
    if nodes is None:
        raise DocumentError(f"world {name!r} has no nodes", _line(text, i))
    return validate_beth(nodes, order, root, val), i + 1, declared


def serialize_model(m: BethKripkeModel) -> str:
    lines = ["agents: " + ", ".join(sorted(m.agents)) if m.agents else "agents:"]
    for s in m.world_order:
        w = m.worlds[s]
        lines.append(f"world {s} {{")
        lines.append(f"  root: {w.root};")
        lines.append("  nodes: " + ", ".join(w.node_order) + ";")
        covering = sorted((a, b) for a in w.node_order for b in w.covers[a])
        if covering:
            lines.append("  order: " + ", ".join(f"{a} < {b}" for a, b in covering) + ";")
        for n in w.node_order:
            if w.val[n]:
                lines.append(f"  val {n}: {{" + ", ".join(sorted(w.val[n])) + "};")
        lines.append("}")
    for agent in sorted(m.agents):
        pairs = sorted(m.access[agent])
        if pairs:
            lines.append(f"access {agent}: " + ", ".join(f"({a}, {b})" for a, b in pairs))
    return "\n".join(lines) + "\n"


def model_digest(m: BethKripkeModel) -> str:
    """Stable short identifier for report records."""
    return hashlib.sha256(serialize_model(m).encode()).hexdigest()[:12]


def serialize_beth(w: BethModel) -> str:
    """Render a bare Beth model as a document of one world ``w`` and no
    agents."""
    return serialize_model(BethKripkeModel({"w": w}, (), {}))
