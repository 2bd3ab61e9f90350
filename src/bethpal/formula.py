"""AST, concrete syntax, and schema substitution for knowledge/announcement formulas.

Grammar (ASCII; unicode aliases accepted on input):

    formula := imp ( "<->" imp )?
    imp     := or ( "->" imp )?            # right associative
    or      := and ( "|" and )*
    and     := unary ( "&" unary )*
    unary   := "~" unary | "K{" ident "}" unary | "[" formula "]" unary
             | "<" formula ">" unary | "(" formula ")" | "top" | "bot" | ident

``a <-> b`` is surface sugar for ``(a -> b) & (b -> a)`` and never appears in
the AST.  Identifiers starting with a lowercase letter are object atoms or
agent names; identifiers starting with an uppercase letter are metavariables
and only appear in axiom schemas.  Unicode aliases: ¬ ∧ ∨ → ↔ ⊤ ⊥.

:func:`children` is the one structural walk: ``str``, :func:`subformulas`,
:func:`depth`, :func:`substitute` and ``proofkit.match_schema`` treat every
connective alike through it.  Only the printer and the evaluators spell
out a clause per connective; the random generator builds every connective
but ``K`` from its class and its arguments.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Mapping, Union


class ParseError(ValueError):
    """Malformed formula text; carries the offending position and, when known,
    the concrete syntax that would have been acceptable there."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{hint}")
        self.position = position
        self.expected = expected


class UnknownToken(ParseError):
    """A character that cannot start any token."""


class UnboundMetavariable(KeyError):
    """A schema metavariable without a binding during substitution."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Neg:
    body: Formula


@dataclass(frozen=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Know:
    agent: str
    body: Formula


@dataclass(frozen=True)
class Announce:
    announced: Formula
    body: Formula


@dataclass(frozen=True)
class Diamond:
    announced: Formula
    body: Formula


Formula = Union[Atom, Top, Bot, Neg, And, Or, Imp, Know, Announce, Diamond]


def _cached_hash(self) -> int:
    """The hash of the node's class name and fields, computed once per node,
    since memo tables hash the same formulas over and over.  The class name
    keeps ``p & q``, ``p | q`` and ``p -> q`` apart; a hash of the fields
    alone gives about 27 formulas of the depth-2 instance pool each hash
    value, and every memo lookup then compares them all."""
    value = self._hash
    if value is None:
        value = hash((type(self).__name__,
                      *(getattr(self, name) for name in self.__match_args__)))
        # Set as an attribute, not through ``__dict__``: reading ``__dict__``
        # would give every node a dict object of its own.
        object.__setattr__(self, "_hash", value)
    return value


def _fields_only(self) -> dict:
    """Pickle and copy state without the cached hash: string hashes differ
    between processes, so it must not travel."""
    return {k: v for k, v in self.__dict__.items() if k != "_hash"}


for _node in (Atom, Top, Bot, Neg, And, Or, Imp, Know, Announce, Diamond):
    _node._hash = None          # until the node's first hash shadows it
    _node.__hash__ = _cached_hash
    _node.__getstate__ = _fields_only
    _node.__str__ = lambda self: print_formula(self)    # the printer is defined below
    # The fields that hold subformulas: all but an atom's name and K's agent.
    _node._children = tuple(n for n in _node.__match_args__
                            if _node.__annotations__[n] == "Formula")

TOP = Top()
BOT = Bot()

PROPOSITIONAL = "propositional"
EPISTEMIC = "epistemic"
ANNOUNCEMENT = "announcement"


def is_metavariable(name: str) -> bool:
    return name[:1].isupper()


def children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of ``f``, left to right.  An atom's name and
    K's agent are strings, not subformulas."""
    return tuple(map(f.__getattribute__, f._children))


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield f and every proper subformula, preorder."""
    yield f
    for g in children(f):
        yield from subformulas(g)


def depth(f: Formula) -> int:
    return 1 + max(map(depth, children(f)), default=-1)


def classify(f: Formula) -> str:
    """Tag a formula: announcement > epistemic > propositional."""
    tag = PROPOSITIONAL
    for g in subformulas(f):
        if isinstance(g, (Announce, Diamond)):
            return ANNOUNCEMENT
        if isinstance(g, Know):
            tag = EPISTEMIC
    return tag


def is_propositional(f: Formula) -> bool:
    return classify(f) == PROPOSITIONAL


# ---------------------------------------------------------------------------
# Lexer

_TOKEN = re.compile(r"<->|->|K\{(\w*)(\}?)|\w+|\S")
"""One token per match, skipping whitespace.  A word character is
``str.isalnum`` or ``_``; a ``K{`` match captures the agent name and the
closing brace, if present."""

_KINDS = {
    "&": "AND", "∧": "AND",
    "|": "OR", "∨": "OR",
    "~": "NOT", "¬": "NOT",
    "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK",
    "<": "LT", ">": "GT",
    "->": "IMP", "→": "IMP",
    "<->": "IFF", "↔": "IFF",
    "top": "TOP", "⊤": "TOP",
    "bot": "BOT", "⊥": "BOT",
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks: list[tuple[str, str, int]] = []
    for m in _TOKEN.finditer(text):
        tok, at = m.group(), m.start()
        agent, close = m.group(1, 2)
        if agent is not None:
            if not agent[:1].isalpha():
                raise ParseError("missing agent name after 'K{'", m.start(1), ("ident",))
            if not close:
                raise ParseError("unterminated agent name", m.end(1), ("}",))
            toks.append(("KNOW", agent, at))
        elif tok in _KINDS:
            toks.append((_KINDS[tok], tok, at))
        elif tok[0].isalpha():
            toks.append(("IDENT", tok, at))
        else:
            raise UnknownToken(f"stray character {tok[0]!r}", at)
    toks.append(("EOF", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# Parser (recursive descent, one token lookahead)

MAX_NESTING = 100
"""Deepest nesting the parser accepts: operators and parentheses inside one
another (``(p)`` and ``~p`` nest one level, ``a <-> b`` two).  The parser,
printer and evaluators recurse a few frames per level, so every accepted
formula stays within Python's default recursion limit."""

MAX_SIZE = 10_000
"""Most nodes the parser accepts in the formula tree it returns.  ``a <-> b``
expands to ``(a -> b) & (b -> a)``, which shares ``a`` and ``b`` but counts
each twice, so nested biconditionals double the tree per level; hashing,
printing and explaining a formula walk the whole tree."""


class _Parser:
    """Each rule returns the parsed formula, its nesting level and its tree
    size (node count)."""

    def __init__(self, toks: list[tuple[str, str, int]]):
        self.toks = toks
        self.pos = 0
        self.open = 0           # nested rules currently being parsed

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.pos]

    def take(self) -> tuple[str, str, int]:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, symbol: str) -> tuple[str, str, int]:
        t = self.peek()
        if t[0] != _KINDS[symbol]:
            raise ParseError(f"unexpected {t[1]!r}" if t[0] != "EOF" else "unexpected end of input",
                             t[2], (symbol,))
        return self.take()

    def level(self, n: int, at: int) -> int:
        if n > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", at)
        return n

    def built(self, f: Formula, n: int, size: int, at: int) -> tuple[Formula, int, int]:
        """Check a freshly built formula against both limits."""
        self.level(n, at)
        if size > MAX_SIZE:
            raise ParseError(f"formula expands to more than {MAX_SIZE} nodes", at)
        return f, n, size

    def inner(self, rule, at: int) -> tuple[Formula, int, int]:
        """Parse ``rule`` one level down.  Every open rule adds a level to the
        result, so deeper input is rejected here, before recursing further."""
        self.level(self.open + 1, at)
        self.open += 1
        result = rule()
        self.open -= 1
        return result

    def formula(self) -> tuple[Formula, int, int]:
        left, n, a = self.imp()
        if self.peek()[0] == "IFF":
            at = self.take()[2]
            right, m, b = self.imp()
            return self.built(And(Imp(left, right), Imp(right, left)),
                              2 + max(n, m), 3 + 2 * (a + b), at)
        return left, n, a

    def imp(self) -> tuple[Formula, int, int]:
        left, n, a = self.chain("OR", Or, partial(self.chain, "AND", And, self.unary))
        if self.peek()[0] == "IMP":
            at = self.take()[2]
            right, m, b = self.inner(self.imp, at)
            return self.built(Imp(left, right), 1 + max(n, m), 1 + a + b, at)
        return left, n, a

    def chain(self, kind: str, ctor, operand) -> tuple[Formula, int, int]:
        """The left-associative ``or`` and ``and`` rules: ``operand`` joined
        by tokens of ``kind`` into ``ctor`` nodes."""
        f, n, a = operand()
        while self.peek()[0] == kind:
            at = self.take()[2]
            g, m, b = operand()
            f, n, a = self.built(ctor(f, g), 1 + max(n, m), 1 + a + b, at)
        return f, n, a

    def unary(self) -> tuple[Formula, int, int]:
        kind, text, pos = self.peek()
        if kind == "NOT":
            self.take()
            body, n, a = self.inner(self.unary, pos)
            return self.built(Neg(body), n + 1, a + 1, pos)
        if kind == "KNOW":
            self.take()
            body, n, a = self.inner(self.unary, pos)
            return self.built(Know(text, body), n + 1, a + 1, pos)
        if kind in ("LBRACK", "LT"):
            self.take()
            ann, n, a = self.inner(self.formula, pos)
            self.expect("]" if kind == "LBRACK" else ">")
            body, m, b = self.inner(self.unary, pos)
            ctor = Announce if kind == "LBRACK" else Diamond
            return self.built(ctor(ann, body), 1 + max(n, m), 1 + a + b, pos)
        if kind == "LPAREN":
            self.take()
            f, n, a = self.inner(self.formula, pos)
            self.expect(")")
            return f, self.level(n + 1, pos), a
        if kind == "TOP":
            self.take()
            return TOP, 0, 1
        if kind == "BOT":
            self.take()
            return BOT, 0, 1
        if kind == "IDENT":
            self.take()
            return Atom(text), 0, 1
        raise ParseError(f"unexpected {text!r}" if kind != "EOF" else "unexpected end of input",
                         pos, ("~", "K{...}", "[", "<", "(", "top", "bot", "ident"))


def parse_formula(text: str) -> Formula:
    p = _Parser(_tokenize(text))
    f, _, _ = p.formula()
    kind, text_, pos = p.peek()
    if kind != "EOF":
        raise ParseError(f"trailing input {text_!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Printer

_LEVEL_IMP = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4


def print_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; round-trips through
    parse_formula to a structurally equal AST."""
    return _print(f, 0)


def _print(f: Formula, level: int) -> str:
    match f:
        case Atom(name):
            return name
        case Top():
            return "top"
        case Bot():
            return "bot"
        case Neg(body):
            return "~" + _print(body, _LEVEL_UNARY)
        case Know(agent, body):
            return f"K{{{agent}}} " + _print(body, _LEVEL_UNARY)
        case Announce(ann, body):
            return "[" + _print(ann, 0) + "]" + _print(body, _LEVEL_UNARY)
        case Diamond(ann, body):
            return "<" + _print(ann, 0) + ">" + _print(body, _LEVEL_UNARY)
        case And(a, b):
            s = _print(a, _LEVEL_AND) + " & " + _print(b, _LEVEL_AND + 1)
            return f"({s})" if level > _LEVEL_AND else s
        case Or(a, b):
            s = _print(a, _LEVEL_OR) + " | " + _print(b, _LEVEL_OR + 1)
            return f"({s})" if level > _LEVEL_OR else s
        case Imp(a, b):
            s = _print(a, _LEVEL_IMP + 1) + " -> " + _print(b, _LEVEL_IMP)
            return f"({s})" if level > _LEVEL_IMP else s
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Schema substitution

def substitute(schema: Formula, binding: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace every metavariable atom (uppercase-initial) by
    its bound formula.  Agent names bound in the mapping are replaced too; the
    bound value must then be an Atom naming the concrete agent."""

    def walk(f: Formula) -> Formula:
        match f:
            case Atom(name) if is_metavariable(name):
                try:
                    return binding[name]
                except KeyError:
                    raise UnboundMetavariable(name) from None
            case Know(agent, body):
                bound = binding.get(agent, Atom(agent))
                if not isinstance(bound, Atom):
                    raise UnboundMetavariable(agent)
                return Know(bound.name, walk(body))
        kids = children(f)
        return type(f)(*map(walk, kids)) if kids else f

    return walk(schema)
