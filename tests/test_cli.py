"""Tests for the command-line interface, via main(argv)."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import meadowacp
from meadowacp import AxiomReport, BasicTerm, TermGen, axioms, cli, default_context, pretty_term
from meadowacp.cli import main
from test_golden import BINARY, MUTATED_SPEC, Q0_TERMS, SPEC_TEXTS, mutate, random_process


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
        # the message names the two actions, however long the residual
        assert capsys.readouterr().err == (
            "internal disagreement: a(1) | b(2): direct route {} vs guard chain {c(1)}\n"
        )

    @pytest.mark.parametrize("op", ["|", "||"])
    def test_a_guard_chain_mismatch_in_a_merge_exits_2(
        self, sample_spec_path, capsys, monkeypatch, op
    ):
        # | and the merge of normal forms share one synchronization decision
        normalize = importlib.import_module("meadowacp.normalize")
        real = normalize.guard_chain
        monkeypatch.setattr(normalize, "guard_chain", lambda *args: real(*args).body)
        term = f"a(1) {op} b(2)"
        assert main(["normalize", "--spec", sample_spec_path, "--debug-guard-chain", term]) == 2
        assert capsys.readouterr().err == (
            "internal disagreement: a(1) | b(2): direct route {} vs guard chain {c(1)}\n"
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

    def test_a_right_nested_sequence_before_an_action(self, sample_spec_path, capsys):
        # (a . (a . ... . a)) . b steps right-nested, one frame an action
        run = " . (".join(["a"] * 700) + ")" * 699
        assert main(["normalize", "--spec", sample_spec_path, f"({run}) . b"]) == 0
        assert capsys.readouterr().out == " . ".join(["a"] * 700 + ["b"]) + "\n"

    def test_1000_deep_parentheses(self, sample_spec_path, capsys):
        # the parser keeps its own stack
        term = "(" * 1000 + "a" + ")" * 1000
        assert main(["normalize", "--spec", sample_spec_path, term]) == 0
        assert capsys.readouterr().out == "a\n"
        assert main(["equiv", "--spec", sample_spec_path, term, "a"]) == 0
        assert capsys.readouterr().out.startswith("equivalent\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    def test_running_out_of_memory_exits_1(self, tmp_path):
        # 431 distinct nodes (209 basic terms, 222 summands), but about 135M
        # when its text is written out; printing keeps a node's text only
        # until its last use, so a^12 (374 and 35M) prints under this cap
        import resource

        spec = tmp_path / "f3.acpm"
        spec.write_text("act a, b, c;\ncomm a | b = c;\nmeadow F 3;\n")
        a13 = " . ".join(["a"] * 13)
        cap = 400 * 2**20
        run = subprocess.run(
            [sys.executable, "-m", "meadowacp.cli", "normalize", "--spec", str(spec),
             f"({a13}) || ({a13} . c)"],
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
        lossy = lambda ts, ctx: (BasicTerm(frozenset()), real(ts, ctx)[1])
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

    def test_a_reader_that_closes_the_pipe_gets_no_message(self, sample_spec_path):
        # about 250 kB of transitions: far more than the pipe holds when the reader closes it
        term = "a . b || b . c || c . a || a . c || b . a || c . b"
        proc = subprocess.Popen(
            [sys.executable, "-m", "meadowacp.cli", "lts", "--spec", sample_spec_path, term],
            env=dict(os.environ, PYTHONPATH=str(Path(meadowacp.__file__).parent.parent)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline().startswith("states: ")
        proc.stdout.close()
        with proc.stderr:
            assert proc.stderr.read() == ""
        assert proc.wait(timeout=60) == 1


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

    def test_a_spec_without_comm_checks_no_data_communication(self, tmp_path, capsys):
        spec = tmp_path / "no-comm.acpm"
        spec.write_text("act a, b;\nmeadow F 3;\n")
        assert main(["axioms", "--spec", str(spec), "--samples", "5", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        (t312,) = [a for r in reports for a in r["axioms"] if a["id"] == "t3.12"]
        assert (t312["status"], t312["checked"]) == ("pass", 0)

    def test_a_spec_without_actions_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "no-act.acpm"
        spec.write_text("meadow F 3;\n")
        assert main(["axioms", "--spec", str(spec), "--samples", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the alphabet is empty: declare at least one action with act\n"

    def test_unknown_meadow_exits_1(self, tmp_path, capsys):
        assert main(["axioms", "--meadow", "f4"]) == 1
        assert main(["axioms", "--meadow", "zz"]) == 1
        spec = tmp_path / "bad.acpm"
        spec.write_text("act a;\nmeadow zz;\n")
        capsys.readouterr()
        assert main(["axioms", "--spec", str(spec)]) == 1
        assert f"error: {spec}:2:8: unknown meadow 'zz'" in capsys.readouterr().err

    def test_a_large_prime_field_is_sampled(self, tmp_path):
        # its p^3 cube of assignments would never finish
        env = dict(os.environ, PYTHONPATH=str(Path(meadowacp.__file__).parent.parent))
        axioms_cmd = [sys.executable, "-m", "meadowacp.cli", "axioms"]
        run = subprocess.run([*axioms_cmd, "--meadow", "f10000000000000061", "--json"],
                             env=env, capture_output=True, text=True, timeout=2)
        assert run.returncode == 0, run.stderr
        (report,) = json.loads(run.stdout)
        assert report["meadow"] == "F10000000000000061"
        assert report["mode"] == "random(200, seed=0)"
        spec = tmp_path / "large.acpm"
        spec.write_text("act a, b, c;\ncomm a | b = c;\nmeadow F 10000000000000061;\n")
        run = subprocess.run([*axioms_cmd, "--spec", str(spec), "--samples", "3"],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.endswith("RESULT: PASS\n")

    def test_the_meadow_suite_is_exhaustive_up_to_64_elements(self, monkeypatch, capsys):
        modes = []

        def check(m, mode, samples, seed):
            modes.append((str(m), mode))
            return AxiomReport("meadow", str(m), mode)

        monkeypatch.setattr(cli, "check_meadow_axioms", check)
        for name in ("trivial", "f2", "f61", "f67", "q0"):
            assert main(["axioms", "--meadow", name]) == 0
        assert modes == [("trivial", "exhaustive"), ("F2", "exhaustive"), ("F61", "exhaustive"),
                         ("F67", "random"), ("Q0", "random")]

    def test_requires_spec_or_meadow(self):
        with pytest.raises(SystemExit):
            main(["axioms"])

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(SystemExit):
            main(["axioms", "--meadow", "f3", "--samples", "0"])


@pytest.mark.parametrize("argv", [["axioms", "--spec", "SPEC", "--meadow", "f5"],
                                  ["lts", "--spec", "SPEC", "--dot", "--json", "a"]])
def test_flags_that_would_be_ignored_exit_2(argv, sample_spec_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sample_spec_path if arg == "SPEC" else arg for arg in argv])
    assert exc.value.code == 2
    assert sum("error:" in line for line in capsys.readouterr().err.splitlines()) == 1


def test_importing_the_cli_loads_no_typing_inspect_or_dataclasses():
    # -S: a .pth file that site reads may import typing itself; -W error: a deprecation in the
    # stdlib, or in how a Python version keeps what interned() reads, fails the import
    src = str(Path(meadowacp.__file__).parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r}); import meadowacp.cli; "
              "print(sorted({'typing', 'inspect', 'dataclasses'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-S", "-W", "error", "-c", script],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/spans.py rebinds meadowacp names by attribute: renaming or
    deleting one of them fails here, naming it.  The benchmark also reads
    normal forms: spans.nf_sizes walks their summands' continuations, and
    the cli-large check reads each head summand's action."""
    src = str(Path(meadowacp.__file__).parent.parent)
    perfbench = str(Path(__file__).parent.parent / "perfbench")
    script = (f"import sys; sys.path[:0] = [{src!r}, {perfbench!r}]; import meadowacp.cli, spans; "
              "tracer = spans.Tracer(); tracer.enable(); tracer.disable(); "
              "from meadowacp import default_context, normalize, parse_term; "
              "ctx = default_context(); "
              "nf = normalize(parse_term('a . (b + c) + b . (b + c)', ctx), ctx); "
              "print(spans.nf_sizes(nf), sorted({str(s.action) for s in nf.summands}))")
    run = subprocess.run([sys.executable, "-I", "-B", "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr.strip().rpartition("\n")[2]
    assert run.stdout == "(6, 9) ['a', 'b']\n"


def test_the_parser_is_reused_without_leaking_arguments(sample_spec_path, capsys):
    assert main(["normalize", "--spec", sample_spec_path, "--json", "a || b"]) == 0
    assert json.loads(capsys.readouterr().out)["normal_form"] == "a . b + b . a + c"
    with pytest.raises(SystemExit) as exc:
        main(["axioms"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["normalize", "--spec", sample_spec_path, "a . b"]) == 0
    assert capsys.readouterr().out == "a . b\n"


def cli_call(seed: int):
    """A spec text and the argv of one `meadowacp` command over it (the spec
    as SPEC), drawn from the grammar of test_golden's corpora: a golden spec
    or a mutated one; TermGen terms, Q0 terms joined by an operator, or
    random terms of the parse corpus, some of them mutated; each command's
    flags; and now and then an argument that the command does not take."""
    rng = random.Random(seed)
    spec = rng.choice([*SPEC_TEXTS.values(), None])
    if spec is None:
        lines = MUTATED_SPEC.splitlines(keepends=True)
        k = rng.randrange(len(lines))
        spec = "".join(lines[:k] + [mutate(rng, lines[k])] + lines[k + 1:])

    def term():
        r = rng.random()
        if r < 0.4:
            text = pretty_term(TermGen(default_context(), rng, max_depth=3).term())
        elif r < 0.6:
            text = rng.choice(Q0_TERMS) + rng.choice(BINARY) + rng.choice(Q0_TERMS)
        else:
            text = random_process(rng, 3)
        return mutate(rng, text) if rng.random() < 0.2 else text

    def flags(*names):
        return [name for name in names if rng.random() < 0.4]

    command = rng.choice(["normalize", "equiv", "lts", "axioms", "meadow"])
    if command == "normalize":
        argv = ["normalize", "--spec", "SPEC", term(), *flags("--json", "--debug-guard-chain")]
    elif command == "equiv":
        argv = ["equiv", "--spec", "SPEC", term(), term(), *flags("--json")]
    elif command == "lts":
        argv = ["lts", "--spec", "SPEC", term(), *flags("--json", "--dot")]
    else:
        source = (["--spec", "SPEC"] if command == "axioms" else
                  ["--meadow", rng.choice(["q0", "f3", "f5", "trivial", "f4", "zz"])])
        argv = ["axioms", *source, "--samples", str(rng.randint(1, 3)),
                "--seed", str(rng.randrange(10)), *flags("--json", "--strict-separation")]
    return spec, argv + rng.choice([[]] * 8 + [["--bogus"], ["--samples", "0"]])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_fuzzed_cli_calls_exit_cleanly(tmp_path_factory, seed):
    """Whatever the spec, terms and flags: exit 0, 1 or 2, at most one
    error line, and never a traceback."""
    import resource

    spec, argv = cli_call(seed)
    path = tmp_path_factory.mktemp("fuzz") / "spec.acpm"
    path.write_text(spec)
    argv = [str(path) if arg == "SPEC" else arg for arg in argv]
    cap = 512 * 2**20
    run = subprocess.run(
        [sys.executable, "-m", "meadowacp.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(Path(meadowacp.__file__).parent.parent)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode in (0, 1, 2), (argv, run.stderr)
    assert sum("error:" in line for line in run.stderr.splitlines()) <= 1, (argv, run.stderr)
    assert "Traceback" not in run.stderr, (argv, run.stderr)
