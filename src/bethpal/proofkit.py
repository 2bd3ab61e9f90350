"""Hilbert-style derivation checker for the IS6 axiom system.

Schemas: ten intuitionistic propositional axioms (A1.1-A1.10), knowledge
distribution (A2), factivity (A3), positive and negative introspection
(A4, A5), and decidability of knowing (A6).  Rules: modus ponens (MP) and
necessitation (NEC).  Checking only; there is no proof search.

Proof script files are line oriented::

    <index>. <formula> ; <justification>

where the justification is an axiom id with an optional explicit binding
(``A1.1 [X=p, Y=q]``, agent slots bound like ``[X=p, i=a]``), ``MP <i> <j>``
citing minor premise i and major premise j, or ``NEC <i> <agent>``.
``#`` starts a comment; blank lines are skipped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .formula import (
    Atom, Formula, Imp, Know, ParseError, UnboundMetavariable, children,
    is_metavariable, parse_formula, print_formula, substitute,
)


@dataclass(frozen=True)
class AxiomSchema:
    id: str
    pattern: Formula


_PATTERN_TEXT = {
    "A1.1": "X -> Y -> X",
    "A1.2": "(X -> Y -> Z) -> (X -> Y) -> X -> Z",
    "A1.3": "X -> Y -> X & Y",
    "A1.4": "X & Y -> X",
    "A1.5": "X & Y -> Y",
    "A1.6": "X -> X | Y",
    "A1.7": "Y -> X | Y",
    "A1.8": "(X -> Z) -> (Y -> Z) -> X | Y -> Z",
    "A1.9": "(X -> Y) -> (X -> ~Y) -> ~X",
    "A1.10": "~X -> X -> Y",
    "A2": "K{i}X & K{i}(X -> Y) -> K{i}Y",
    "A3": "K{i}X -> X",
    "A4": "K{i}X -> K{i}K{i}X",
    "A5": "~K{i}X -> K{i}~K{i}X",
    "A6": "~K{i}X | K{i}X",
}

SCHEMAS: dict[str, AxiomSchema] = {
    sid: AxiomSchema(sid, parse_formula(text)) for sid, text in _PATTERN_TEXT.items()
}


def match_schema(schema: AxiomSchema, f: Formula) -> Optional[dict[str, Formula]]:
    """Most general binding making the pattern equal ``f``, or None.  Agent
    names in patterns are agent metavariables; they come back bound to the
    Atom naming the concrete agent."""
    binding: dict[str, Formula] = {}

    def unify(pat: Formula, g: Formula) -> bool:
        match pat:
            case Atom(name) if is_metavariable(name):
                return binding.setdefault(name, g) == g
            case Atom():
                return pat == g
            case Know(agent, _) if isinstance(g, Know):
                if binding.setdefault(agent, Atom(g.agent)) != Atom(g.agent):
                    return False
        return type(pat) is type(g) and all(map(unify, children(pat), children(g)))

    return binding if unify(schema.pattern, f) else None


@dataclass(frozen=True)
class AxiomRef:
    schema_id: str
    binding: Optional[tuple[tuple[str, Formula], ...]] = None


@dataclass(frozen=True)
class MPRef:
    minor: int
    major: int


@dataclass(frozen=True)
class NecRef:
    premise: int
    agent: str


Justification = Union[AxiomRef, MPRef, NecRef]


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class ProofScript:
    lines: tuple[ProofLine, ...]
    goal: Formula


@dataclass(frozen=True)
class ProofResult:
    """A rejection names the first offending line and why; an acceptance
    names the goal proved, in printed form."""
    accepted: bool
    line: Optional[int] = None
    reason: Optional[str] = None
    goal: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted


class ProofParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_binding(text: str, lineno: int) -> tuple[tuple[str, Formula], ...]:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ProofParseError(lineno, f"malformed binding {text!r}")
    items: dict[str, Formula] = {}
    for part in body[1:-1].split(","):
        if "=" not in part:
            raise ProofParseError(lineno, f"malformed binding entry {part.strip()!r}")
        name, value = part.split("=", 1)
        name = name.strip()
        if name in items:
            raise ProofParseError(lineno, f"{name!r} is bound twice")
        items[name] = _parse_formula(value, lineno)
    return tuple(items.items())


def _parse_formula(text: str, lineno: int) -> Formula:
    """``text`` parsed; a malformed formula is an error on its line."""
    try:
        return parse_formula(text)
    except ParseError as e:
        raise ProofParseError(lineno, str(e)) from None


def _parse_justification(text: str, lineno: int) -> Justification:
    words = text.strip().split(None, 1)
    if not words:
        raise ProofParseError(lineno, "missing justification")
    head = words[0]
    rest = words[1] if len(words) > 1 else ""
    if head == "MP":
        parts = rest.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ProofParseError(lineno, "MP needs two line numbers")
        return MPRef(int(parts[0]), int(parts[1]))
    if head == "NEC":
        parts = rest.split()
        if len(parts) != 2 or not parts[0].isdigit():
            raise ProofParseError(lineno, "NEC needs a line number and an agent")
        return NecRef(int(parts[0]), parts[1])
    if head in SCHEMAS:
        binding = _parse_binding(rest, lineno) if rest.strip() else None
        return AxiomRef(head, binding)
    raise ProofParseError(lineno, f"unknown justification {head!r}")


def parse_proof(text: str) -> ProofScript:
    lines: list[ProofLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ";" not in stripped:
            raise ProofParseError(lineno, "missing ';' before the justification")
        body, just = stripped.rsplit(";", 1)
        head, _, formula_text = body.partition(".")
        if not head.strip().isdigit():
            raise ProofParseError(lineno, "expected '<index>. <formula> ; <justification>'")
        lines.append(ProofLine(
            int(head), _parse_formula(formula_text, lineno), _parse_justification(just, lineno),
        ))
    if not lines:
        raise ProofParseError(1, "empty proof script")
    return ProofScript(tuple(lines), lines[-1].formula)


def check_proof(script: ProofScript) -> ProofResult:
    """Accept iff every line is a schema instance, a correct MP step, or a
    correct NEC step, and the last line is the goal.  Rejection is a value
    carrying the first offending line and a reason."""
    if not script.lines:
        return ProofResult(False, None, "empty proof")
    proved: dict[int, Formula] = {}
    last_index = 0
    for line in script.lines:
        if line.index <= last_index:
            return ProofResult(False, line.index, "line indices must increase")
        last_index = line.index

        def cited(i: int) -> tuple[Optional[Formula], Optional[str]]:
            if i >= line.index:
                return None, "cited index not smaller"
            if i not in proved:
                return None, f"cited line {i} does not exist"
            return proved[i], None

        match line.justification:
            case AxiomRef(schema_id, binding):
                schema = SCHEMAS.get(schema_id)
                if schema is None:
                    return ProofResult(False, line.index, f"unknown axiom schema {schema_id!r}")
                if binding is None:
                    if match_schema(schema, line.formula) is None:
                        return ProofResult(False, line.index,
                                           f"not an instance of {schema_id}")
                else:
                    bound = dict(binding)
                    try:
                        instance = substitute(schema.pattern, bound)
                    except UnboundMetavariable as e:
                        reason = f"unbound metavariable {e.name!r} in {schema_id}"
                        if e.name in bound:     # an agent bound to a formula naming none
                            reason = (f"agent {e.name!r} in {schema_id} is bound to "
                                      f"{print_formula(bound[e.name])!r}, which names no agent")
                        return ProofResult(False, line.index, reason)
                    if instance != line.formula:
                        return ProofResult(
                            False, line.index,
                            f"binding yields {print_formula(instance)!r}, not the stated formula")
            case MPRef(minor, major):
                minor_f, err = cited(minor)
                if err is None:
                    major_f, err = cited(major)
                if err is not None:
                    return ProofResult(False, line.index, err)
                if not isinstance(major_f, Imp):
                    return ProofResult(False, line.index, "major premise not an implication")
                if major_f.left != minor_f:
                    return ProofResult(False, line.index,
                                       "minor premise does not match the antecedent")
                if major_f.right != line.formula:
                    return ProofResult(False, line.index,
                                       "conclusion does not match the consequent")
            case NecRef(premise, agent):
                premise_f, err = cited(premise)
                if err is not None:
                    return ProofResult(False, line.index, err)
                if line.formula != Know(agent, premise_f):
                    return ProofResult(False, line.index,
                                       f"not K{{{agent}}} applied to line {premise}")
        proved[line.index] = line.formula
    if script.lines[-1].formula != script.goal:
        return ProofResult(False, script.lines[-1].index, "last line does not match the goal")
    return ProofResult(True, goal=print_formula(script.goal))
