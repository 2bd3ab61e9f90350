import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bethpal.cli import main
from bethpal.formula import MAX_NESTING, MAX_SIZE
from bethpal import lab
from bethpal.lab import MAX_HYPOTHESIS_DEPTH, MAX_NODES_PER_WORLD, MAX_WORLDS
from bethpal.modeldoc import parse_model_document, serialize_beth

from helpers import every_valuation_model

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

FORK_DOC = """\
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


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "fork.model"
    path.write_text(FORK_DOC)
    return str(path)


class TestCheck:
    def test_true_exits_zero(self, model_file, capsys):
        assert main(["check", model_file, "s", "<p>top & <~p>top"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_exits_one(self, model_file, capsys):
        assert main(["check", model_file, "s", "p"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_module_run_exits_with_the_verdict(self, model_file):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "bethpal.cli", "check", model_file, "s", "p"],
                              env=env, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"false\n", b"")

    def test_parse_error_exits_two(self, model_file, capsys):
        assert main(["check", model_file, "s", "p &"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "no-such-file", "s", "p"]) == 2

    def test_unknown_world_exits_two(self, model_file):
        assert main(["check", model_file, "zz", "p"]) == 2

    def test_explain_prints_trace(self, model_file, capsys):
        assert main(["check", model_file, "s", "[p]~q", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "announce" in out

    def test_json_format(self, model_file, capsys):
        assert main(["--format", "json", "check", model_file, "s", "top"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] is True

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_max_witness_below_one_exits_two(self, model_file, capsys, cap):
        assert main(["check", model_file, "s", "p | q", "--explain",
                     "--max-witness", cap]) == 2
        captured = capsys.readouterr()
        assert "--max-witness" in captured.err
        assert captured.out == ""


def _nested(shape: str, n: int) -> str:
    """A formula nested ``n`` levels deep in the given shape."""
    return {
        "neg": "~" * n + "p",
        "parens": "(" * n + "p" + ")" * n,
        "and-chain": " & ".join(["p"] * (n + 1)),
        "imp-chain": " -> ".join(["q"] * (n + 1)),
        "know": "K{i}" * n + "p",
        "announced": "[" * n + "p" + "]q" * n,
        "neg-or": "~(p | " * (n // 3) + "q" + ")" * (n // 3) + " | p" * (n % 3),
    }[shape]


SHAPES = ["neg", "parens", "and-chain", "imp-chain", "know", "announced", "neg-or"]


class TestDeepFormulas:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_at_the_limit_checks_explains_and_prints(self, model_file, capsys, shape):
        text = _nested(shape, MAX_NESTING)
        code = main(["check", model_file, "s", text, "--explain"])
        assert code in (0, 1)
        assert capsys.readouterr().out.splitlines()[0] == ("true" if code == 0 else "false")
        assert main(["--format", "json", "check", model_file, "s", text,
                     "--explain"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] is (code == 0) and payload["trace"]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_past_the_limit_exits_two(self, model_file, capsys, shape):
        text = _nested(shape, MAX_NESTING + 1)
        assert main(["check", model_file, "s", text]) == 2
        assert f"nested deeper than {MAX_NESTING} levels" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000])
    def test_far_past_the_limit_exits_two(self, model_file, capsys, text):
        assert main(["check", model_file, "s", text, "--explain"]) == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_nested_biconditionals_exit_two_quickly(self, model_file, capsys):
        # 145 characters whose expansion has about 1.5 million nodes.
        text = "(" * 18 + "p" + " <-> q)" * 18
        start = time.perf_counter()
        assert main(["check", model_file, "s", text, "--explain"]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"more than {MAX_SIZE} nodes" in capsys.readouterr().err

    def test_corpus_within_the_size_limit(self):
        from bethpal.formula import parse_formula, print_formula
        from bethpal.proofkit import SCHEMAS, parse_proof
        from bethpal.sep import build_sep
        for schema in SCHEMAS.values():
            assert parse_formula(print_formula(schema.pattern)) == schema.pattern
        scripts = sorted(PROOF_DIR.glob("*.pf"))
        assert scripts
        for path in scripts:
            parse_proof(path.read_text())
        assert main(["sep"]) == 0


_FORMULA_PIECES = [
    "p", "q", "P", "top", "bot", "K{i}", "K{zz}", "K{", "K", "~", "&", "|", "->",
    "<->", "<", ">", "[", "]", "(", ")", "{", "}", " ",
    "¬", "∧", "∨", "→", "↔", "⊤", "⊥",
    "%", "$", "_", "0", "-", "\\", "\n", "é", "\x00",
]
_noise = st.lists(st.sampled_from(_FORMULA_PIECES), max_size=40).map("".join)
_well_formed = st.recursive(
    st.sampled_from(["p", "q", "P", "top", "bot", "⊤", "⊥"]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["~", "¬", "K{i}", "K{zz}"]), sub).map("".join),
        st.tuples(sub, st.sampled_from(["&", "∧", "|", "∨", "->", "→", "<->", "↔"]), sub)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["[{}]{}", "<{}>{}"]), sub, sub)
        .map(lambda t: t[0].format(t[1], t[2])),
    ),
    max_leaves=8,
)
_DOC_PIECES = [
    "agents", "world", "access", "root", "nodes", "order", "val", "{", "}", "(",
    ")", ":", ";", ",", "<", "s", "t", "a", "b", "p", "i", "top", "_x", "#",
    "\n", " ", "%", "1", "é",
]
# Documents as bytes, so that invalid UTF-8 can be spliced in.
_doc_noise = st.lists(st.sampled_from([piece.encode() for piece in _DOC_PIECES]
                                      + [b"\xff", b"\xe9"]), max_size=60).map(b"".join)
_FORK_BYTES = FORK_DOC.encode()


@pytest.fixture(scope="module")
def shared_model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "fork.model"
    path.write_text(FORK_DOC)
    return str(path)


class TestTotality:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_noise, _well_formed, st.tuples(_well_formed, _noise).map("".join)))
    def test_any_formula_string_exits_zero_one_or_two(self, shared_model_file, text):
        for argv in (["check", shared_model_file, "s", text],
                     ["check", "--explain", shared_model_file, "s", text],
                     ["announce", shared_model_file, text]):
            assert main(argv) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        _doc_noise,
        st.tuples(st.integers(0, len(_FORK_BYTES)), _doc_noise)
        .map(lambda t: _FORK_BYTES[:t[0]] + t[1] + _FORK_BYTES[t[0]:]),
    ))
    def test_any_document_exits_zero_one_or_two(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("doc") / "m.model"
        path.write_bytes(data)
        assert main(["check", str(path), "s", "p"]) in (0, 1, 2)
        assert main(["prove", str(path)]) in (0, 1, 2)

    @pytest.mark.parametrize("argv", [["check", "{}", "s", "p"], ["announce", "{}", "p"],
                                      ["prove", "{}"]])
    def test_file_not_utf8_exits_two(self, tmp_path, capsys, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes(FORK_DOC.encode() + b"# caf\xe9\n")
        assert main([arg.format(path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert f"error: {path} is not UTF-8 text" in captured.err
        assert captured.out == ""


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file is not part of its
    text; anywhere else it is a stray character."""

    def test_model_document(self, tmp_path, capsys):
        path = tmp_path / "bom.model"
        path.write_bytes(b"\xef\xbb\xbf" + FORK_DOC.encode())
        assert main(["check", str(path), "s", "<p>top & <~p>top"]) == 0
        assert capsys.readouterr() == ("true\n", "")

    def test_proof_script(self, tmp_path, capsys):
        path = tmp_path / "bom.pf"
        path.write_bytes(b"\xef\xbb\xbf" + (PROOF_DIR / "nec_factivity.pf").read_bytes())
        assert main(["prove", str(path)]) == 0
        assert "accepted" in capsys.readouterr().out

    @pytest.mark.parametrize("data, line", [
        (b"\xef\xbb\xbf\xef\xbb\xbf" + FORK_DOC.encode(), 1),
        (FORK_DOC.encode().replace(b"world", b"\xef\xbb\xbfworld"), 2),
    ])
    def test_elsewhere_it_is_a_stray_character(self, tmp_path, capsys, data, line):
        path = tmp_path / "bom.model"
        path.write_bytes(data)
        assert main(["check", str(path), "s", "p"]) == 2
        assert capsys.readouterr().err == f"error: line {line}: stray character '\\ufeff'\n"


class TestAtomNames:
    def test_uppercase_atom_checks(self, tmp_path, capsys):
        path = tmp_path / "m.model"
        path.write_text("agents:\nworld s { root: a; nodes: a; val a: {P}; }\n")
        assert main(["check", str(path), "s", "P"]) == 0
        assert main(["check", str(path), "s", "p"]) == 1


class TestAnnounce:
    def test_updated_document_reparses(self, model_file, capsys, tmp_path):
        out = tmp_path / "updated.model"
        assert main(["announce", model_file, "p", "--out", str(out)]) == 0
        updated = parse_model_document(out.read_text())
        assert updated.worlds["s"].node_order == ("a", "b")
        assert "dropped nodes c" in capsys.readouterr().err

    def test_composes_like_in_process(self, model_file, tmp_path, capsys):
        first = tmp_path / "first.model"
        assert main(["announce", model_file, "~p", "--out", str(first)]) == 0
        assert main(["check", str(first), "s", "q"]) == 0

    def test_two_step_composition_matches_in_process(self, tmp_path, capsys):
        from bethpal.dynamic import announce
        from bethpal.formula import parse_formula
        from bethpal.modeldoc import serialize_model
        from bethpal.sep import build_sep
        model = build_sep().model
        start = tmp_path / "exam.model"
        start.write_text(serialize_model(model))
        mid = tmp_path / "after1.model"
        end = tmp_path / "after2.model"
        assert main(["announce", str(start), "~p1", "--out", str(mid)]) == 0
        assert main(["announce", str(mid), "~p2", "--out", str(end)]) == 0
        composed = announce(announce(model, parse_formula("~p1")),
                            parse_formula("~p2"))
        assert end.read_text() == serialize_model(composed)

    def test_empty_result_exits_one(self, model_file, capsys):
        assert main(["announce", model_file, "bot"]) == 1
        assert "not executable anywhere" in capsys.readouterr().err

    def test_json_payload(self, model_file, capsys):
        assert main(["--format", "json", "announce", model_file, "p"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dropped_nodes"] == {"s": ["c"]}
        assert payload["empty"] is False

    def test_json_writes_the_out_file(self, model_file, capsys, tmp_path):
        assert main(["--format", "json", "announce", model_file, "p"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "updated.model"
        assert main(["--format", "json", "announce", model_file, "p", "--out", str(out)]) == 0
        assert capsys.readouterr().out == printed
        assert out.read_text() == json.loads(printed)["document"]


class TestAxioms:
    def test_factivity_clean_run(self, capsys):
        assert main(["axioms", "--schema", "A3", "--trials", "30"]) == 0
        assert "no counterexample" in capsys.readouterr().out

    def test_counterexample_without_reflexivity(self, capsys):
        code = main(["--seed", "7", "axioms", "--schema", "A3",
                     "--trials", "100", "--no-s5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "counterexample at world" in out
        assert "world" in out  # replayable document included

    def test_unknown_schema(self, capsys):
        assert main(["axioms", "--schema", "A99"]) == 2

    def test_hypothesis_without_s5_exits_two_before_any_trial(self, capsys):
        assert main(["axioms", "--no-s5", "--hypothesis"]) == 2
        captured = capsys.readouterr()
        assert "not allowed with argument --no-s5" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("option", [["--hyp-depth", "5"], ["--hyp-announcements"],
                                        ["--hyp-out", "r.log"]])
    def test_experiment_options_need_the_experiment(self, tmp_path, monkeypatch, capsys, option):
        monkeypatch.chdir(tmp_path)
        assert main(["axioms", "--trials", "2", *option]) == 2
        assert capsys.readouterr() == ("", f"error: {option[0]} needs --hypothesis\n")
        assert not (tmp_path / "r.log").exists()

    def test_hypothesis_report_file(self, tmp_path, capsys):
        out = tmp_path / "hyp.log"
        assert main(["--seed", "3", "axioms", "--schema", "A6", "--trials", "10",
                     "--hypothesis", "--hyp-out", str(out)]) == 0
        text = out.read_text()
        assert "announcement-hypothesis summary" in text
        assert "verdict:" in text

    def test_json_format(self, capsys):
        assert main(["--format", "json", "axioms", "--schema", "A6",
                     "--trials", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schemas"]["A6"]["verdict"] == "no-counterexample"

    def test_hypothesis_json_writes_the_report_file(self, tmp_path, capsys):
        argv = ["--format", "json", "--seed", "3", "axioms", "--schema", "A6",
                "--trials", "5", "--hypothesis"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "hyp.log"
        assert main(argv + ["--hyp-out", str(out)]) == 0
        assert capsys.readouterr().out == printed
        assert out.read_text().splitlines() == json.loads(printed)["hypothesis"]

    def test_hypothesis_json(self, capsys):
        assert main(["--format", "json", "--seed", "3", "axioms", "--schema", "A6",
                     "--trials", "5", "--hypothesis"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schemas"] == {"A6": {"verdict": "no-counterexample", "trials": 5}}
        report = lab.test_announcement_hypothesis(lab.GenParams(seed=3), 5)
        assert payload["hypothesis"] == report.render().splitlines()


class TestCounts:
    @pytest.mark.parametrize("argv", [
        ["axioms", "--agents", "0"],
        ["axioms", "--agents", "7"],
        ["axioms", "--atoms", "20"],
        ["axioms", "--trials", "-1"],
        ["axioms", "--trials", "0"],
        ["axioms", "--depth", "-1"],
        ["axioms", "--max-nodes", "0"],
        ["axioms", "--max-nodes", str(MAX_NODES_PER_WORLD + 1)],
        ["axioms", "--max-worlds", "0"],
        ["axioms", "--max-worlds", str(MAX_WORLDS + 1)],
        ["axioms", "--hypothesis", "--hyp-depth", "-1"],
        ["axioms", "--hypothesis", "--hyp-depth", str(MAX_HYPOTHESIS_DEPTH + 1)],
        ["axioms", "--hypothesis", "--hyp-depth", "3000"],
        ["witness", "--depth", "-2"],
        ["enumerate", "--max-nodes", "0"],
        ["enumerate", "--max-nodes", "-3"],
        ["enumerate", "--max-nodes", "5"],
    ])
    def test_out_of_range_count_exits_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"argument {argv[-2]}: must be at" in captured.err
        assert captured.out == ""

    def test_largest_counts_accepted(self, capsys):
        assert main(["axioms", "--schema", "A3", "--trials", "1",
                     "--atoms", "10", "--agents", "6"]) == 0
        assert main(["axioms", "--schema", "A3", "--trials", "1",
                     "--max-nodes", str(MAX_NODES_PER_WORLD)]) == 0
        assert main(["axioms", "--schema", "A3", "--trials", "1",
                     "--max-worlds", str(MAX_WORLDS)]) == 0
        assert main(["axioms", "--schema", "A3", "--trials", "1", "--hypothesis",
                     "--hyp-depth", str(MAX_HYPOTHESIS_DEPTH)]) == 0
        assert main(["witness", "--depth", "0"]) == 0

    def test_models_a_document_cannot_hold_exit_two(self, capsys):
        # A counterexample is printed as a document, which check must load.
        assert main(["--seed", "2", "axioms", "--no-s5", "--schema", "A3", "--trials", "1",
                     "--max-nodes", "300", "--max-worlds", "300"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: 300 worlds of up to 300 nodes may make a model of "
                                "90,000 nodes, more than the 20,000 a document may list\n")
        assert captured.out == ""

    def test_models_a_document_can_hold_accepted(self, capsys):
        assert main(["axioms", "--schema", "A3", "--trials", "1",
                     "--max-nodes", "20", "--max-worlds", "1000"]) == 0

    @pytest.mark.parametrize("depth", ["3", "50"])
    def test_deep_instances_stop_at_the_classes(self, depth, capsys):
        # Over p, q a model has at most 16 classes, however deep the search.
        start = time.perf_counter()
        assert main(["axioms", "--depth", depth, "--trials", "5"]) == 0
        assert time.perf_counter() - start < 2.0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.endswith(": no counterexample in 5 trials") for line in lines)

    def test_too_many_classes_exit_two(self, monkeypatch, capsys):
        # A search over four atoms on a model with every valuation of them.
        atoms = ("p", "q", "r", "s")
        monkeypatch.setattr(lab.SchemaInstanceSpace, "atoms", atoms)
        monkeypatch.setattr(lab, "random_model",
                            lambda gen, seed=None: every_valuation_model(atoms))
        assert main(["axioms", "--schema", "A3", "--depth", "3", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert "714,920 formulas, more than 100,000" in captured.err
        assert captured.out == ""

    def test_semantic_search_stops_at_its_classes(self, capsys):
        assert main(["witness", "--depth", "50"]) == 0
        assert "4 semantic classes" in capsys.readouterr().out


class TestProve:
    def test_accepted(self, capsys):
        assert main(["prove", str(PROOF_DIR / "nec_factivity.pf")]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_rejected(self, capsys):
        assert main(["prove", str(PROOF_DIR / "broken_forward_reference.pf")]) == 1
        out = capsys.readouterr().out
        assert "rejected at line 2" in out

    @pytest.mark.parametrize("name, code, accepted, line, reason, goal", [
        ("nec_factivity.pf", 0, True, None, None, "K{a} (K{a} p -> p)"),
        ("a2_chain.pf", 0, True, None, None, "r -> K{a} p & K{a} (p -> q) -> K{a} q"),
        ("broken_forward_reference.pf", 1, False, 2, "cited index not smaller", None),
    ])
    def test_json(self, capsys, name, code, accepted, line, reason, goal):
        assert main(["--format", "json", "prove", str(PROOF_DIR / name)]) == code
        assert capsys.readouterr().out == json.dumps(
            {"accepted": accepted, "line": line, "reason": reason, "goal": goal},
            indent=2) + "\n"

    def test_json_names_what_was_proved(self, capsys):
        """Every accepted script proves its own goal, so no two print the
        same JSON."""
        outputs = []
        for script in sorted(PROOF_DIR.glob("*.pf")):
            if main(["--format", "json", "prove", str(script)]) == 0:
                outputs.append(capsys.readouterr().out)
            else:
                capsys.readouterr()
        assert len(outputs) == 12
        assert len(set(outputs)) == len(outputs)

    def test_malformed_script_exits_two(self, tmp_path):
        bad = tmp_path / "bad.pf"
        bad.write_text("1. p -> p\n")
        assert main(["prove", str(bad)]) == 2

    @pytest.mark.parametrize("line, code, out, err", [
        ("1. p -> q -> p ; A1.1 [X=p, X=r, Y=q]", 2, "", "error: line 1: 'X' is bound twice\n"),
        ("1. K{a}p -> p ; A3 [X=p, i=p&q]", 1, "rejected at line 1: agent 'i' in A3 is bound "
                                               "to 'p & q', which names no agent\n", ""),
    ])
    def test_binding_errors(self, tmp_path, capsys, line, code, out, err):
        script = tmp_path / "binding.pf"
        script.write_text(line + "\n")
        assert main(["prove", str(script)]) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_empty_script_is_an_error_on_line_one(self, tmp_path, capsys, text):
        empty = tmp_path / "empty.pf"
        empty.write_text(text)
        assert main(["prove", str(empty)]) == 2
        assert capsys.readouterr().err == "error: line 1: empty proof script\n"


SEP_STEPS = [
    {"step": 0, "title": "the teacher's announcement holds, yet nothing is settled",
     "facts": {"phi0 & (phi1 | phi2 | phi3)": True, "phi0": True, "phi1": True,
               "phi2": True, "phi3": False, "p3": False, "~p3": False},
     "world_nodes": ["fri", "now", "thu", "wed"],
     "commentary": [
         "The announcement phi0 & (phi1 | phi2 | phi3) is satisfied.",
         "Neither p3 nor ~p3 is satisfied at the root: the exam day is not predetermined.",
         "The backward argument needs 'p3 fails' to yield '~p3 holds'; here both fail, "
         "so it cannot start."]},
    {"step": 1, "title": "after announcing ~p1: Thursday still open, still unknown",
     "facts": {"<p2>top": True, "~K{student}p2": True, "K{student}p2": False},
     "world_nodes": ["fri", "now", "thu"],
     "commentary": ["Announcing ~p1 removes the Wednesday branch.",
                    "p2 is still announce-able and still not known in advance."]},
    {"step": 2, "title": "after announcing ~p2: Friday is forced and known",
     "facts": {"K{student}p3": True, "~K{student}p3": False, "phi3": False},
     "world_nodes": ["fri", "now"],
     "commentary": [
         "Only the root and the Friday leaf survive, so every remaining node forces p3 "
         "and the student knows it.",
         "Hence the in-advance-surprise claim phi3 is false in the original model, but "
         "that never made p3's negation true there, so the students' regress never "
         "gets going."]},
]


class TestSep:
    def test_full_story(self, capsys):
        assert main(["sep"]) == 0
        out = capsys.readouterr().out
        assert "step 0" in out and "step 1" in out and "step 2" in out
        assert "p3: false" in out and "~p3: false" in out

    def test_single_step_json(self, capsys):
        assert main(["--format", "json", "sep", "--step", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (step,) = payload["steps"]
        assert step["facts"]["K{student}p3"] is True
        assert step["world_nodes"] == ["fri", "now"]

    @pytest.mark.parametrize("argv, steps", [([], SEP_STEPS), (["--step", "1"], SEP_STEPS[1:2])])
    def test_json_bytes(self, capsys, argv, steps):
        assert main(["--format", "json", "sep", *argv]) == 0
        assert capsys.readouterr().out == json.dumps({"steps": steps}, indent=2) + "\n"


class TestEnumerateAndWitness:
    def test_enumerate_counts(self, capsys):
        assert main(["enumerate", "--max-nodes", "2", "--atoms", "p"]) == 0
        out = capsys.readouterr().out
        assert "# 5 models" in out

    def test_enumerate_json(self, capsys):
        assert main(["--format", "json", "enumerate", "--max-nodes", "1",
                     "--atoms", "p,q"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 4

    @pytest.mark.parametrize("max_nodes,atoms", [(3, "p,q"), (1, "p")])
    def test_enumerate_json_is_one_document(self, capsys, max_nodes, atoms):
        # The documents are written one at a time, in the layout json.dumps
        # gives the whole listing.
        assert main(["--format", "json", "enumerate", "--max-nodes", str(max_nodes),
                     "--atoms", atoms]) == 0
        models = [serialize_beth(m) for m in lab.enumerate_small_beth(max_nodes, atoms.split(","))]
        expected = json.dumps({"count": len(models), "models": models}, indent=2) + "\n"
        assert capsys.readouterr().out == expected

    def test_enumerate_bound_error(self, capsys):
        assert main(["enumerate", "--max-nodes", "9"]) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_enumerate_over_the_model_bound_fails_fast(self, capsys, fmt):
        start = time.perf_counter()
        assert main(["--format", fmt, "enumerate", "--max-nodes", "4",
                     "--atoms", "p,q,r,s,u,v"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 778,541 models")

    @pytest.mark.parametrize("fmt,first", [
        ("text", [b"# 98957 models (up to 4 nodes, atoms {p, q, r, s, u})\n", b"# model 0\n"]),
        ("json", [b"{\n", b'  "count": 98957,\n'])])
    def test_reader_that_stops_early_ends_quietly(self, fmt, first):
        # The listing is far longer than the pipe holds, so the closed pipe
        # stops it; exit 1 is Python's status for EPIPE.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "from bethpal.cli import main_entry; main_entry()",
             "--format", fmt, "enumerate", "--max-nodes", "4", "--atoms", "p,q,r,s,u"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            head = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert head == first
        assert err == b""

    @pytest.mark.parametrize("atoms", ["p", "p,q", "q, p,p", "P,x_1"])
    def test_enumerated_documents_parse_back(self, capsys, atoms):
        assert main(["enumerate", "--max-nodes", "3", "--atoms", atoms]) == 0
        header, *chunks = capsys.readouterr().out.split("# model ")
        names = sorted({a.strip() for a in atoms.split(",")})
        assert header.endswith(f"atoms {{{', '.join(names)}}})\n")
        for chunk in chunks:
            parse_model_document(chunk.split("\n", 1)[1])
        assert main(["--format", "json", "enumerate", "--max-nodes", "2",
                     "--atoms", atoms]) == 0
        for document in json.loads(capsys.readouterr().out)["models"]:
            parse_model_document(document)

    @pytest.mark.parametrize("atoms", ["top", "p q", "1p", "p-q", "p,bot"])
    def test_enumerate_rejects_unnameable_atoms(self, capsys, atoms):
        assert main(["enumerate", "--max-nodes", "2", "--atoms", atoms]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot be named in a formula" in captured.err

    def test_witness_report(self, capsys):
        assert main(["witness", "--depth", "3"]) == 0
        out = capsys.readouterr().out
        assert "root forces <p>top: True" in out
        assert "no propositional equivalent" in out

    def test_witness_json(self, capsys):
        assert main(["--format", "json", "witness", "--depth", "2"]) == 0
        assert capsys.readouterr().out == json.dumps({
            "diamond_at_root": True, "bare_leaf_forces_atom": False,
            "models_checked": 14, "classes_checked": 4, "max_depth": 2,
            "equivalent": None}, indent=2) + "\n"

    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2


FIVE_LEAVES_DOC = """\
agents: i
world s {
  root: r;
  nodes: r, b, c, d, e, f;
  order: r < b, r < c, r < d, r < e, r < f;
  val b: {p}; val c: {p}; val d: {p}; val e: {p};
}
access i: (s, s)
"""

CYCLE_DOC = """\
agents:
world s { root: a; nodes: a, b, c, d, e; order: a < b, b < c, c < d, d < e, e < a; }
"""

NON_MONOTONE_DOC = """\
agents:
world s { root: a; nodes: a, b, c, d; order: a < b, b < c, c < d; val a: {p, q, r}; }
"""

# Runs each argument list through cli.main and prints exit code, standard
# output and standard error; then one API error that names a world.
_RUN_ALL = """\
import contextlib, io, json, sys
from bethpal.beth import validate_beth
from bethpal.cli import main
from bethpal.dynamic import BethKripkeModel, UnknownWorld
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(code, out.getvalue(), err.getvalue(), sep="\\n")
try:
    BethKripkeModel({"s": validate_beth(("a",), (), "a")}, ("i",),
                    {"i": {("s", t) for t in "vwxyz"}})
except UnknownWorld as e:
    print(e)
"""


class TestHashSeedIndependence:
    """Witnesses and error messages are the first in a fixed order, so the
    output bytes do not depend on PYTHONHASHSEED."""

    def test_same_bytes_under_every_hash_seed(self, tmp_path):
        docs = {"five.model": FIVE_LEAVES_DOC, "cycle.model": CYCLE_DOC,
                "chain.model": NON_MONOTONE_DOC}
        for name, text in docs.items():
            (tmp_path / name).write_text(text)
        five = str(tmp_path / "five.model")
        runs = [
            ["check", five, "s", "~p", "--explain"],
            ["check", five, "s", "p -> q", "--explain"],
            ["--format", "json", "check", five, "s", "~~p -> q", "--explain"],
            ["check", five, "s", "[p]K{i}p", "--explain"],
            ["check", five, "s", "<~p>top", "--explain"],
            ["announce", five, "p"],
            ["check", str(tmp_path / "cycle.model"), "s", "p"],
            ["check", str(tmp_path / "chain.model"), "s", "p"],
            ["sep"],
            ["witness", "--depth", "3"],
            ["--seed", "3", "axioms", "--schema", "A6", "--trials", "30",
             "--hypothesis", "--hyp-depth", "2"],
            # Counterexamples decoded from the lab's unions, with their models.
            ["--seed", "3", "axioms", "--no-s5", "--trials", "50"],
            ["--format", "json", "--seed", "3", "axioms", "--no-s5", "--trials", "50"],
            # Valuations over every atom name, printed with the counterexample.
            ["--seed", "5", "axioms", "--no-s5", "--atoms", "10", "--max-nodes", "12",
             "--agents", "6", "--trials", "50"],
        ]
        outputs = set()
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(runs)],
                                  env=env, capture_output=True, timeout=120, check=True)
            outputs.add(done.stdout)
        (text,) = {out.decode() for out in outputs}
        assert "body forced above at 'b'" in text
        assert "fails above at 'b'" in text
        assert "cycle through 'a' and 'b'" in text
        assert "atom 'p' holds at 'a' but not at 'b'" in text
        assert "schema A3: counterexample at world w1, instance K{a} p -> p" in text
        assert '"verdict": "counterexample"' in text
        assert "schema A3: counterexample at world w0, instance K{a} q -> q" in text
        assert "val m3: {p, s, u, v, w, x, y, z};" in text
        assert text.endswith("unknown world 'v'\n")
