"""The surprise exam puzzle, three-day version.

The teacher likes exactly one of Wednesday, Thursday, Friday and announces
day by day whether they like it; the students should never know the liked
day in advance.  The world has one open root ("now") and one leaf per day,
so none of p1, p2, p3 is settled at the root: the teacher's choice is still
free.  The backward argument the students attempt needs "p3 is not satisfied"
to entail "not-p3 is satisfied", which fails here: both p3 and ~p3 are
unsettled at the root.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .beth import validate_beth
from .dynamic import BethKripkeModel, announce, satisfies
from .formula import And, Formula, Or, parse_formula


@dataclass(frozen=True)
class SepBundle:
    model: BethKripkeModel
    p1: Formula
    p2: Formula
    p3: Formula
    phi0: Formula
    phi1: Formula
    phi2: Formula
    phi3: Formula


def build_sep() -> SepBundle:
    world = validate_beth(
        nodes=("now", "wed", "thu", "fri"),
        order=(("now", "wed"), ("now", "thu"), ("now", "fri")),
        root="now",
        val={"wed": {"p1"}, "thu": {"p2"}, "fri": {"p3"}},
    )
    model = BethKripkeModel({"s": world}, ("student",), {"student": {("s", "s")}})
    return SepBundle(
        model=model,
        p1=parse_formula("p1"),
        p2=parse_formula("p2"),
        p3=parse_formula("p3"),
        phi0=parse_formula("(p1|p2|p3) & ~(p1&p2) & ~(p1&p3) & ~(p2&p3)"),
        phi1=parse_formula("<p1>top & ~K{student}p1"),
        phi2=parse_formula("<~p1><p2>top & <~p1>~K{student}p2"),
        phi3=parse_formula("<~p1><~p2><p3>top & <~p1><~p2>~K{student}p3"),
    )


@dataclass
class SepStep:
    step: int
    title: str
    facts: dict[str, bool]
    world_nodes: tuple[str, ...]
    commentary: tuple[str, ...]


def run_sep(step: Optional[int] = None) -> list[SepStep]:
    """Evaluate the puzzle; ``step`` limits the report to one stage."""
    bundle = build_sep()
    m = bundle.model
    m1 = announce(m, parse_formula("~p1"))
    m2 = announce(m1, parse_formula("~p2"))
    teacher = "phi0 & (phi1 | phi2 | phi3)"
    named = vars(bundle) | {
        teacher: And(bundle.phi0, Or(Or(bundle.phi1, bundle.phi2), bundle.phi3))}

    def facts(model: BethKripkeModel, *texts: str) -> dict[str, bool]:
        """Whether each text holds at world s, keyed by the text: the name of
        a bundle formula or the teacher's announcement, else a formula."""
        return {text: satisfies(model, "s", named[text] if text in named
                                else parse_formula(text)).value for text in texts}

    steps = [
        SepStep(
            0, "the teacher's announcement holds, yet nothing is settled",
            facts(m, teacher, "phi0", "phi1", "phi2", "phi3", "p3", "~p3"),
            m.worlds["s"].node_order,
            (
                "The announcement phi0 & (phi1 | phi2 | phi3) is satisfied.",
                "Neither p3 nor ~p3 is satisfied at the root: the exam day is "
                "not predetermined.",
                "The backward argument needs 'p3 fails' to yield '~p3 holds'; "
                "here both fail, so it cannot start.",
            ),
        ),
        SepStep(
            1, "after announcing ~p1: Thursday still open, still unknown",
            facts(m1, "<p2>top", "~K{student}p2", "K{student}p2"),
            m1.worlds["s"].node_order,
            (
                "Announcing ~p1 removes the Wednesday branch.",
                "p2 is still announce-able and still not known in advance.",
            ),
        ),
        SepStep(
            2, "after announcing ~p2: Friday is forced and known",
            facts(m2, "K{student}p3", "~K{student}p3") | facts(m, "phi3"),
            m2.worlds["s"].node_order,
            (
                "Only the root and the Friday leaf survive, so every "
                "remaining node forces p3 and the student knows it.",
                "Hence the in-advance-surprise claim phi3 is false in the "
                "original model, but that never made p3's negation true "
                "there, so the students' regress never gets going.",
            ),
        ),
    ]
    return [st for st in steps if step in (None, st.step)]
