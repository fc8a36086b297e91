"""Tests for the command-line interface, via main(argv)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meadowacp
from meadowacp import BasicTerm, axioms
from meadowacp.cli import main


class TestNormalize:
    def test_text_output(self, sample_spec_path, capsys):
        rc = main(["normalize", "--spec", sample_spec_path, "a || b"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "a . b + b . a + c"

    def test_json_output(self, sample_spec_path, capsys):
        rc = main(["normalize", "--spec", sample_spec_path, "a + delta", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d == {"term": "a + delta", "normal_form": "a"}

    def test_debug_guard_chain_flag(self, sample_spec_path, capsys):
        rc = main([
            "normalize", "--spec", sample_spec_path,
            "a(2) | b(2)", "--debug-guard-chain",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "c(2)"

    @pytest.mark.parametrize("n", [300, 500])
    def test_a_guard_chain_mismatch_is_short_and_exits_2(
        self, sample_spec_path, capsys, monkeypatch, n
    ):
        # a guard chain that lost its outer guard lets a(1) | b(2) through
        normalize = importlib.import_module("meadowacp.normalize")
        real = normalize.guard_chain
        monkeypatch.setattr(normalize, "guard_chain", lambda *args: real(*args).body)
        term = "(a(1) . " + " . ".join(["b"] * n) + ") | b(2)"
        rc = main(["normalize", "--spec", sample_spec_path, "--debug-guard-chain", term])
        assert rc == 2
        residual = " . ".join(["b"] * 30)[:60]
        assert capsys.readouterr().err == (
            "internal disagreement: a(1) | b(2): direct route {} vs "
            f"guard chain {{c(1) . {residual}}}\n"
        )

    def test_parse_error_exits_1(self, sample_spec_path, capsys):
        rc = main(["normalize", "--spec", sample_spec_path, "a +"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file_exits_1(self, capsys):
        rc = main(["normalize", "--spec", "/nonexistent.acpm", "a"])
        assert rc == 1

    def test_too_deep_a_term_exits_1(self, sample_spec_path, capsys):
        # past the interpreter's recursion limit in the normaliser; a term
        # this deep becomes legal once hnf and normal forms are stack-safe
        term = " . ".join(["a"] * 2000)
        for argv in (["normalize", term], ["equiv", term, term]):
            assert main([argv[0], "--spec", sample_spec_path, *argv[1:]]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: term nested too deeply")

    def test_1000_deep_parentheses(self, sample_spec_path, capsys):
        # the parser keeps its own stack
        term = "(" * 1000 + "a" + ")" * 1000
        assert main(["normalize", "--spec", sample_spec_path, term]) == 0
        assert capsys.readouterr().out == "a\n"
        assert main(["equiv", "--spec", sample_spec_path, term, "a"]) == 0
        assert capsys.readouterr().out.startswith("equivalent\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    def test_running_out_of_memory_exits_1(self, tmp_path):
        # 374 distinct nodes, but about 35M when its text is written out
        import resource

        spec = tmp_path / "f3.acpm"
        spec.write_text("act a, b, c;\ncomm a | b = c;\nmeadow F 3;\n")
        a12 = " . ".join(["a"] * 12)
        cap = 400 * 2**20
        run = subprocess.run(
            [sys.executable, "-m", "meadowacp.cli", "normalize", "--spec", str(spec),
             f"({a12}) || ({a12} . c)"],
            env=dict(os.environ, PYTHONPATH=str(Path(meadowacp.__file__).parent.parent)),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
        assert "Traceback" not in run.stderr

    def test_a_900_action_sequence(self, tmp_path, capsys):
        spec = tmp_path / "f3.acpm"
        spec.write_text("act a, b, c;\ncomm a | b = c;\nmeadow F 3;\n")
        term = " . ".join(["a"] * 900)
        assert main(["normalize", "--spec", str(spec), term]) == 0
        assert capsys.readouterr().out == term + "\n"
        assert main(["equiv", "--spec", str(spec), term, term]) == 0
        out = capsys.readouterr().out
        assert out == f"equivalent\n  {term}  ~>  {term}\n  {term}  ~>  {term}\n"

    def test_a_900_action_sequence_in_a_spec_with_a_definition(self, tmp_path, capsys):
        # inlining definitions walks the term on a stack of its own
        spec = tmp_path / "f3.acpm"
        spec.write_text("act a, b, c;\ncomm a | b = c;\nmeadow F 3;\nproc P = a . b;\n")
        term = " . ".join(["a"] * 900)
        assert main(["normalize", "--spec", str(spec), term]) == 0
        assert capsys.readouterr().out == term + "\n"
        assert main(["equiv", "--spec", str(spec), term, term]) == 0
        out = capsys.readouterr().out
        assert out == f"equivalent\n  {term}  ~>  {term}\n  {term}  ~>  {term}\n"
        assert main(["equiv", "--spec", str(spec), f"{term} . P", f"{term} . a . b"]) == 0
        assert capsys.readouterr().out.startswith("equivalent\n")

    def test_the_sum_of_two_900_action_sequences(self, tmp_path, capsys):
        spec = tmp_path / "f3.acpm"
        spec.write_text("act a, b, c;\ncomm a | b = c;\nmeadow F 3;\n")
        run = " . ".join(["a"] * 900)
        nf, swapped = f"{run} . b + {run} . c", f"{run} . c + {run} . b"
        assert main(["normalize", "--spec", str(spec), swapped]) == 0
        assert capsys.readouterr().out == nf + "\n"
        assert main(["equiv", "--spec", str(spec), nf, swapped]) == 0
        out = capsys.readouterr().out
        assert out == f"equivalent\n  {nf}  ~>  {nf}\n  {swapped}  ~>  {nf}\n"


class TestEquiv:
    def test_equivalent_exits_0(self, sample_spec_path, capsys):
        rc = main(["equiv", "--spec", sample_spec_path, "a + a", "a"])
        assert rc == 0
        assert "equivalent" in capsys.readouterr().out

    def test_not_equivalent_exits_1(self, sample_spec_path, capsys):
        rc = main(["equiv", "--spec", sample_spec_path, "a . b", "b . a"])
        assert rc == 1
        assert "not equivalent" in capsys.readouterr().out

    def test_json_output(self, sample_spec_path, capsys):
        # P = a . b + delta, which normalizes to a . b
        rc = main(["equiv", "--spec", sample_spec_path, "P", "a . b", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["verdict"] == "equivalent"
        assert d["normal_form_1"] == d["normal_form_2"] == "a . b"


    def test_disagreement_of_the_routes_exits_2(self, sample_spec_path, capsys, monkeypatch):
        # a normal-form route that loses every summand of the left side
        real = axioms.normal_forms
        lossy = lambda ts, ctx: (BasicTerm.of(()), real(ts, ctx)[1])
        monkeypatch.setattr(axioms, "normal_forms", lossy)
        assert main(["equiv", "--spec", sample_spec_path, "a + a", "a"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal disagreement: ")


class TestLts:
    def test_text_output(self, sample_spec_path, capsys):
        rc = main(["lts", "--spec", sample_spec_path, "a"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "states: 2" in out
        assert "--a-->" in out

    def test_json_output(self, sample_spec_path, capsys):
        rc = main(["lts", "--spec", sample_spec_path, "a || b", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["states"] == 4
        assert d["initial"] == 0
        assert len(d["transitions"]) == 5

    def test_dot_output(self, sample_spec_path, capsys):
        rc = main(["lts", "--spec", sample_spec_path, "a", "--dot"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "doublecircle" in out

    def test_state_numbering_does_not_depend_on_the_string_hash(self, sample_spec_path):
        src = str(Path(meadowacp.__file__).parent.parent)
        for flag in ("--json", "--dot"):
            outputs = set()
            for seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                argv = ["lts", "--spec", sample_spec_path, "a . b || b . c || c(1)", flag]
                run = subprocess.run(
                    [sys.executable, "-m", "meadowacp.cli", *argv],
                    env=env, capture_output=True, text=True, check=True,
                )
                outputs.add(run.stdout)
            assert len(outputs) == 1, flag


class TestAxioms:
    def test_the_report_does_not_depend_on_earlier_queries(self, tmp_path, capsys):
        # the suites meet nodes that these queries marked closed and ground
        spec = tmp_path / "f3.acpm"
        spec.write_text("act a, b, c;\ncomm a | b = c;\nmeadow F 3;\n")
        for argv in (
            ["normalize", "(a + b) . c || a . (b + c)"],
            ["normalize", "[1 + 2] -> a(1) + [0] -> b(2) . a(0) + b(1) . c"],
            ["equiv", "a . (b + c)", "a . b + a . c"],
            ["equiv", "a || b", "a . b + b . a + c"],
            ["lts", "a . b || b . c || c(1)", "--dot"],
        ):
            main([argv[0], "--spec", str(spec), *argv[1:]])
        capsys.readouterr()
        argv = ["axioms", "--spec", str(spec), "--samples", "94", "--seed", "0", "--json"]
        assert main(argv) == 0
        golden = Path(__file__).parent.parent / "perfbench" / "golden" / "axioms-spec.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_meadow_only_f3(self, capsys):
        rc = main(["axioms", "--meadow", "f3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        assert out.count("PASS t1.") == 10

    def test_trivial_meadow_lenient_vs_strict(self, capsys):
        assert main(["axioms", "--meadow", "trivial"]) == 0
        out = capsys.readouterr().out
        assert "FAIL separation" in out
        assert "RESULT: PASS" in out
        assert main(["axioms", "--meadow", "trivial", "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["meadow"] == "trivial"
        assert report["separation"] == "fail"
        assert main(["axioms", "--meadow", "trivial", "--strict-separation"]) == 1
        assert "RESULT: FAIL" in capsys.readouterr().out

    def test_q0_random_mode(self, capsys):
        rc = main(["axioms", "--meadow", "q0", "--samples", "50", "--seed", "2"])
        assert rc == 0
        assert "random(50" in capsys.readouterr().out

    def test_spec_runs_all_four_suites(self, sample_spec_path, capsys):
        rc = main([
            "axioms", "--spec", sample_spec_path, "--samples", "5", "--json",
        ])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["suite"] for r in reports] == ["meadow", "acp", "enriched", "derived"]
        assert all(
            a["status"] == "pass" for r in reports for a in r["axioms"]
        )

    def test_repeated_runs_are_byte_identical(self, sample_spec_path, capsys):
        argv = ["axioms", "--spec", sample_spec_path, "--samples", "5", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_unknown_meadow_exits_1(self, tmp_path, capsys):
        assert main(["axioms", "--meadow", "f4"]) == 1
        assert main(["axioms", "--meadow", "zz"]) == 1
        spec = tmp_path / "bad.acpm"
        spec.write_text("act a;\nmeadow zz;\n")
        capsys.readouterr()
        assert main(["axioms", "--spec", str(spec)]) == 1
        assert f"error: {spec}:2:8: unknown meadow 'zz'" in capsys.readouterr().err

    def test_requires_spec_or_meadow(self):
        with pytest.raises(SystemExit):
            main(["axioms"])

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(SystemExit):
            main(["axioms", "--meadow", "f3", "--samples", "0"])


def test_the_parser_is_reused_without_leaking_arguments(sample_spec_path, capsys):
    assert main(["normalize", "--spec", sample_spec_path, "--json", "a || b"]) == 0
    assert json.loads(capsys.readouterr().out)["normal_form"] == "a . b + b . a + c"
    with pytest.raises(SystemExit) as exc:
        main(["axioms"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["normalize", "--spec", sample_spec_path, "a . b"]) == 0
    assert capsys.readouterr().out == "a . b\n"
