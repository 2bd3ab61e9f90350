"""Relations between runs: verdicts that a round trip through a document, or
an announcement made first, must keep (ROADMAP direction 20, relations 2
and 4).  Each relation is checked on seeded random models, S5 and not, of
up to 4 worlds of up to 5 nodes, and on random formulas with K and the
announcement operators; one CLI case per relation runs on document text."""
import random

import pytest

from bethpal import dynamic
from bethpal.cli import main
from bethpal.formula import Announce, Diamond, print_formula
from bethpal.lab import GenParams, random_formula, random_model, split_seed
from bethpal.modeldoc import parse_model_document, serialize_model

MODELS = 200        # per relation and per kind of relation (S5 or not)
# Agent names that are also statement heads of a document, and one that
# sorts last: the models of odd index get two of them.
RENAMED_AGENTS = ("zz", "access", "world", "agents")


def _models(seed: int):
    """Seeded random models with the generator of their formulas."""
    for k in range(MODELS):
        for s5 in (True, False):
            gen = GenParams(max_nodes_per_world=5, max_worlds=4, seed=split_seed(seed, k), s5=s5)
            m = random_model(gen)
            rng = random.Random(gen.seed)
            if k % 2:
                names = dict(zip(sorted(m.agents), rng.sample(RENAMED_AGENTS, len(m.agents))))
                m = dynamic.BethKripkeModel(m.worlds, names.values(),
                                            {names[a]: ps for a, ps in m.access.items()})
            yield m, rng, ("p", "q"), sorted(m.agents)


def _shuffled(text: str, rng: random.Random) -> str:
    """``text``, a serialized document, with its world blocks and access
    lines in a random order, and each world's entries too."""
    lines = text.splitlines()
    statements, i = [], 1
    while i < len(lines):
        if lines[i].startswith("world "):
            end = lines.index("}", i)
            entries = lines[i + 1:end]
            rng.shuffle(entries)
            statements.append("\n".join([lines[i], *entries, "}"]))
            i = end + 1
        else:
            statements.append(lines[i])
            i += 1
    rng.shuffle(statements)
    return "\n".join([lines[0], *statements]) + "\n"


def _roots(m, f):
    return [dynamic.satisfies(m, s, f).value for s in m.world_order]


def test_round_trips_keep_every_root_verdict():
    checked = moved = 0
    for m, rng, atoms, agents in _models(71):
        text = serialize_model(m)
        again = parse_model_document(text)
        for _ in range(10):
            f = random_formula(rng, 3, atoms, agents, allow_announce=True)
            assert _roots(again, f) == _roots(m, f), (text, print_formula(f))
            checked += len(m.world_order)
        shuffled = _shuffled(text, rng)
        assert serialize_model(parse_model_document(shuffled)) == text, shuffled
        moved += shuffled != text
    assert checked > 2 * MODELS * 10 and moved > MODELS


def test_announcing_first_agrees_with_the_announcement_operators():
    kept = dropped = 0
    for m, rng, atoms, agents in _models(73):
        for _ in range(8):
            ann = random_formula(rng, 2, atoms, agents, allow_announce=True)
            body = random_formula(rng, 2, atoms, agents, allow_announce=True)
            updated = dynamic.announce(m, ann)
            box, dia = _roots(m, Announce(ann, body)), _roots(m, Diamond(ann, body))
            for s, holds, possible in zip(m.world_order, box, dia):
                if s in updated.worlds:
                    verdict = dynamic.satisfies(updated, s, body).value
                    assert holds == possible == verdict, (serialize_model(m), s, ann, body)
                    kept += 1
                else:
                    assert holds and not possible, (serialize_model(m), s, ann, body)
                    dropped += 1
    assert kept and dropped


DOC = """\
agents: i
world s { root: a; nodes: a, b, c; order: a < b, a < c; val b: {p}; val c: {q}; }
world t { root: x; nodes: x; val x: {p}; }
access i: (s, s), (s, t), (t, t)
"""


def _document(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_reads_a_shuffled_document_as_its_serialization(tmp_path, capsys):
    text = serialize_model(parse_model_document(DOC))
    path = _document(tmp_path, "shuffled.model", _shuffled(text, random.Random(79)))
    assert main(["announce", path, "top"]) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("ann, body", [("p", "K{i}q"), ("~q", "K{i}p"), ("q", "p | q")])
def test_cli_announce_then_check_agrees_with_the_operators(tmp_path, capsys, ann, body):
    path = _document(tmp_path, "doc.model", DOC)
    assert main(["announce", path, ann]) == 0
    text = capsys.readouterr().out
    updated = _document(tmp_path, "updated.model", text)
    kept = parse_model_document(text).worlds
    for s in ("s", "t"):
        box = main(["check", path, s, f"[{ann}]({body})"])
        dia = main(["check", path, s, f"<{ann}>({body})"])
        if s in kept:
            assert box == dia == main(["check", updated, s, body]), s
        else:
            assert (box, dia) == (0, 1), s
