"""The CLI's output bytes on a fixed corpus, pinned by golden/cli-outputs.txt.

Each entry of the file is one command line, as `$ <exit code> <argv as a
JSON list>`, followed by the exact text that `meadowacp` printed for it.
The corpus is about 50 terms: seeded depth-3 `TermGen` terms over the F3
default spec and hand-written terms over a Q0 spec with a set, two
definitions, data actions and `encap`. Each term is run through `lts`,
`lts --json`, `lts --dot` and `normalize --json`, and each pair of
consecutive terms of one spec through `equiv --json`.

golden/meadow-reports.json pins the meadow suite: the outputs of
`axioms --meadow M --json` for q0 (300 samples, seed 7), f17, trivial and
f3, one after another.

The files are the reference: regenerate them, with

    PYTHONPATH=src python tests/test_golden.py

only for a change that is meant to alter the output, and say so.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from meadowacp.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli-outputs.txt"
MEADOW_GOLDEN = Path(__file__).parent / "golden" / "meadow-reports.json"
MEADOWS = (["q0", "--samples", "300", "--seed", "7"], ["f17"], ["trivial"], ["f3"])

SPECS = {
    "f3.acpm": "act a, b, c;\ncomm a | b = c;\nmeadow F 3;\n",
    "q0.acpm": (
        "act send, recv, comm, done;\n"
        "comm send | recv = comm;\n"
        "meadow Q0;\n"
        "set H = {send, recv};\n"
        "proc Sender = send(1/2) . send(3) + done;\n"
        "proc Link = encap(H, Sender || recv(1/2) . recv(3));\n"
    ),
}

Q0_TERMS = [
    "Link",
    "encap(H, Sender || recv(1/2) . recv(3))",
    "Sender || recv(1/2) . recv(3)",
    "encap({send}, Sender) + done",
    "Sender . Sender",
    "(send(1) + done) |_ recv(1)",
    "send(1 + 1) | recv(2)",
    "send(2, 1/3) | recv(2, 1/3)",
    "send(1) | recv(2)",
    "send(2, 1) | recv(2)",
    "[1/2 - 1/2] -> send(2) + [1] -> recv(2)",
    "[inv(0)] -> done . Sender",
    "encap(H, send(1) || recv(1) || done)",
]

F3_TERMS = 40
COMMANDS = (["lts"], ["lts", "--json"], ["lts", "--dot"], ["normalize", "--json"])


def corpus():
    """Distinct (spec, term) pairs: seeded TermGen terms over F3, then the
    Q0 terms."""
    from meadowacp import TermGen, default_context, pretty_term

    gen = TermGen(default_context(), random.Random(13), max_depth=3)
    f3: dict = {}
    while len(f3) < F3_TERMS:
        f3[pretty_term(gen.term())] = None
    return [("f3.acpm", t) for t in f3] + [("q0.acpm", t) for t in Q0_TERMS]


def command_lines(terms):
    """Every command line of the corpus, in file order."""
    lines = []
    for (spec, term) in terms:
        for cmd in COMMANDS:
            lines.append(cmd[:1] + ["--spec", spec] + cmd[1:] + [term])
    for (spec1, t1), (spec2, t2) in zip(terms, terms[1:]):
        if spec1 == spec2:
            lines.append(["equiv", "--spec", spec1, "--json", t1, t2])
    return lines


def run(argv, spec_dir: Path):
    """The exit code and standard output of `meadowacp argv`, with the spec
    name resolved in spec_dir."""
    argv = list(argv)
    i = argv.index("--spec") + 1
    argv[i] = str(spec_dir / argv[i])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert err.getvalue() == "", (argv, err.getvalue())
    return rc, out.getvalue()


def write_specs(spec_dir: Path) -> None:
    for name, text in SPECS.items():
        (spec_dir / name).write_text(text)


def read_golden():
    """The (argv, exit code, output) entries of the golden file."""
    entries = []
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            rc, argv = line[2:].split(" ", 1)
            entries.append((json.loads(argv), int(rc), []))
        else:
            entries[-1][2].append(line)
    return [(argv, rc, "".join(out)) for argv, rc, out in entries]


def meadow_reports() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for args in MEADOWS:
            assert main(["axioms", "--meadow", *args, "--json"]) == 0, args
    return out.getvalue()


def test_meadow_reports_match_the_golden_file():
    assert meadow_reports() == MEADOW_GOLDEN.read_text()


def test_cli_outputs_match_the_golden_file(tmp_path):
    write_specs(tmp_path)
    for argv, rc, expected in read_golden():
        assert run(argv, tmp_path) == (rc, expected), argv


def test_the_golden_file_covers_every_command_on_every_term():
    entries = read_golden()
    terms = list(dict.fromkeys((argv[2], argv[-1]) for argv, _, _ in entries if argv[0] == "lts"))
    assert len(terms) >= 50
    assert [argv for argv, _, _ in entries] == command_lines(terms)
    assert GOLDEN.stat().st_size < 100_000


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        write_specs(Path(d))
        with open(GOLDEN, "w") as fh:
            for argv in command_lines(corpus()):
                rc, out = run(argv, Path(d))
                assert not any(line.startswith("$ ") for line in out.splitlines()), argv
                fh.write(f"$ {rc} {json.dumps(argv)}\n{out}")
    MEADOW_GOLDEN.write_text(meadow_reports())
    for path in (GOLDEN, MEADOW_GOLDEN):
        print(f"wrote {path} ({path.stat().st_size} bytes)", file=sys.stderr)
