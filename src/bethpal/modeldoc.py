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
can name every atom.  Serialization is canonical (sorted names, covering
edges only), so serialize-parse-serialize is byte identical.
"""
from __future__ import annotations

import hashlib
import re

from .beth import BethModel, validate_beth
from .dynamic import BethKripkeModel


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


_TOKEN = re.compile(r"\w+|\S")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Words and single characters with their line numbers, ended by a
    ``("", line)`` marker on the line of the last token."""
    toks: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for tok in _TOKEN.findall(raw.split("#", 1)[0]):
            if not (tok[0].isalpha() or tok[0] == "_" or tok in _PUNCT):
                raise DocumentError(f"stray character {tok[0]!r}", lineno)
            toks.append((tok, lineno))
    toks.append(("", toks[-1][1] if toks else 1))
    return toks


class _DocParser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.last = 1           # line of the last token taken

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def take(self) -> str:
        tok, self.last = self.toks[self.pos]
        if not tok:
            raise DocumentError("unexpected end of document", self.last)
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise DocumentError(f"expected {tok!r}, found {got!r}", self.last)

    def ident(self, what: str) -> str:
        got = self.take()
        if got in _PUNCT:
            raise DocumentError(f"expected {what}, found {got!r}", self.last)
        return got

    def ident_list(self, what: str) -> list[str]:
        items = [self.ident(what)]
        while self.peek() == ",":
            self.take()
            items.append(self.ident(what))
        return items


def parse_model_document(text: str) -> BethKripkeModel:
    p = _DocParser(text)
    agents: list[str] | None = None
    worlds: dict[str, BethModel] = {}
    access: dict[str, set[tuple[str, str]]] = {}
    access_line: dict[str, int] = {}    # each agent's first access statement

    while p.peek():
        head = p.take()
        lineno = p.last
        if head == "agents":
            if agents is not None:
                raise DocumentError("duplicate agents declaration", lineno)
            p.expect(":")
            agents = p.ident_list("agent name") if p.peek() not in ("", "world", "access") else []
        elif head == "world":
            name = p.ident("world name")
            if name in worlds:
                raise DocumentError(f"duplicate world {name!r}", lineno)
            worlds[name] = _parse_world(p, name)
        elif head == "access":
            agent = p.ident("agent name")
            p.expect(":")
            pairs = access.setdefault(agent, set())
            access_line.setdefault(agent, lineno)
            while p.peek() == "(":
                p.take()
                a = p.ident("world name")
                p.expect(",")
                b = p.ident("world name")
                p.expect(")")
                pairs.add((a, b))
                if p.peek() == ",":
                    p.take()
                else:
                    break
        else:
            raise DocumentError(
                f"expected 'agents', 'world', or 'access', found {head!r}", lineno)

    if agents is None:
        raise DocumentError("missing agents declaration", 1)
    if not worlds:
        raise DocumentError("a model needs at least one world", 1)
    declared = set(agents)
    for agent, pairs in access.items():
        if agent not in declared:
            raise DocumentError(f"access for undeclared agent {agent!r}", access_line[agent])
        for a, b in sorted(pairs):
            if a not in worlds or b not in worlds:
                missing = a if a not in worlds else b
                raise DocumentError(f"access pair names unknown world {missing!r}",
                                    access_line[agent])
    return BethKripkeModel(worlds, agents, {a: frozenset(ps) for a, ps in access.items()})


def _parse_world(p: _DocParser, name: str) -> BethModel:
    p.expect("{")
    root: str | None = None
    nodes: list[str] | None = None
    order: list[tuple[str, str]] = []
    val: dict[str, set[str]] = {}
    while p.peek() != "}":
        key = p.ident("'root', 'nodes', 'order', or 'val'")
        lineno = p.last
        if key == "root":
            p.expect(":")
            if root is not None:
                raise DocumentError("duplicate root declaration", lineno)
            root = p.ident("node name")
        elif key == "nodes":
            p.expect(":")
            if nodes is not None:
                raise DocumentError("duplicate nodes declaration", lineno)
            nodes = p.ident_list("node name")
        elif key == "order":
            p.expect(":")
            while True:
                a = p.ident("node name")
                p.expect("<")
                b = p.ident("node name")
                order.append((a, b))
                if p.peek() == ",":
                    p.take()
                else:
                    break
        elif key == "val":
            node = p.ident("node name")
            p.expect(":")
            p.expect("{")
            if node in val:
                raise DocumentError(f"duplicate valuation for node {node!r}", lineno)
            atoms = p.ident_list("atom name") if p.peek() != "}" else []
            for atom in atoms:
                if not is_atom_name(atom):
                    raise DocumentError(f"atom {atom!r} cannot be named in a formula", lineno)
            val[node] = set(atoms)
            p.expect("}")
        else:
            raise DocumentError(f"unknown world entry {key!r}", lineno)
        p.expect(";")
    p.expect("}")
    lineno = p.last
    if root is None:
        raise DocumentError(f"world {name!r} has no root", lineno)
    if nodes is None:
        raise DocumentError(f"world {name!r} has no nodes", lineno)
    return validate_beth(nodes, order, root, val)


def _covering_pairs(w: BethModel) -> list[tuple[str, str]]:
    return sorted((a, b) for a in w.node_order for b in w.covers[a])


def serialize_model(m: BethKripkeModel) -> str:
    lines = ["agents: " + ", ".join(sorted(m.agents)) if m.agents else "agents:"]
    for s in m.world_order:
        w = m.worlds[s]
        lines.append(f"world {s} {{")
        lines.append(f"  root: {w.root};")
        lines.append("  nodes: " + ", ".join(w.node_order) + ";")
        covering = _covering_pairs(w)
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
