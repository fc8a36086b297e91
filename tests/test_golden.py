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

golden/parse-errors.txt pins the parser: one line per input, the input as
a JSON list [where, text] and then what parsing it gives, `ok <text>` or
the exact `SpecError` string. `where` is "spec" for `parse_spec`, or the
spec of SPECS (or "default" for `default_context()`) that `parse_term`
reads the term against. The inputs are seeded: valid, truncated and mutated
terms and specs, and hand-written cases for every message the parser has.

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
PARSE_GOLDEN = Path(__file__).parent / "golden" / "parse-errors.txt"
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
# the specs that the terms of golden/parse-errors.txt are read against
SPEC_TEXTS = dict(SPECS, **{"sample.acpm": (
    "act a, b, c;\ncomm a | b = c;\nmeadow F 3;\nset H = {a, b};\nproc P = a . b + delta;\n"
)})

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


# hand-written inputs, at least one for every message the parser can give
PARSE_CASES = [
    ("spec", "act a;\n\tproc P = a @ b;"),
    ("spec", "act a;\r\nproc P = a . \r\n  zz;\r\n"),
    ("spec", "# comment\nact a, b; # more\n\tproc P = a . b\n"),
    ("spec", "act a, b\ncomm a | b = a;"),
    ("spec", "act a, b, c;\ncomm a b = c;"),
    ("spec", "act a, b, c;\ncomm a | b c;"),
    ("spec", "act a, b, c;\ncomm a | z = c;"),
    ("spec", "act a, b, c, d;\ncomm a | b = c;\ncomm b | a = d;"),
    ("spec", "act a, b, c, d;\ncomm a | b = c;\ncomm a | b = c;"),
    ("spec", "act a, b, c, d, e; comm a | b = c; comm c | d = e;"),
    ("spec", "act a;\nmeadow F 3;\n\nmeadow Q0;"),
    ("spec", "act a;\nmeadow F4;"),
    ("spec", "act a;\nmeadow zz;"),
    ("spec", "act a;\nmeadow F;"),
    ("spec", "act a;\nmeadow 3;"),
    ("spec", "act a;\nmeadow f 7;\nproc P = [inv(7)] -> a;"),
    ("spec", "act a; meadow Trivial; proc P = a(1);"),
    ("spec", "act a, b;\nset H = {a};\nset H = {b};"),
    ("spec", "act a, b;\nset a = {b};"),
    ("spec", "act b;\nset a = {b};\nact a;"),
    ("spec", "act a;\nset H = a;"),
    ("spec", "act a;\nset H = {a b};"),
    ("spec", "act a;\nset H = {a,};"),
    ("spec", "act a;\nset H = {,};"),
    ("spec", "act a;\nset H = {};\nproc P = encap(H, a);"),
    ("spec", "act a;\nset H {a};"),
    ("spec", "act a; set H = {a, z};"),
    ("spec", "act a;\nproc P = delta;\nact b, P;"),
    ("spec", "act a;\nproc P = a;\nproc P = a;"),
    ("spec", "act a;\nproc a = a;"),
    ("spec", "act a;\nproc P a;"),
    ("spec", "act a;\nproc P = P;"),
    ("spec", "act a;\nproc P = a;\nproc Q = P . P + a;"),
    ("spec", "act a;\nproc = a;"),
    ("spec", "act a;\nprocess P = a;"),
    ("spec", "act a;\n;"),
    ("spec", "act ;"),
    ("spec", "act a,;"),
    ("spec", "act a"),
    ("spec", ""),
    ("spec", "  \t\r\n# only a comment"),
    ("spec", "act a, b, c;\ncomm a | b = c;\nmeadow F 3;\nset H = {a, b};\nproc P = a . b + delta;\n"),
    # a proc body sees only the actions, sets and processes declared before it
    ("spec", "act a; proc P = b; act b;"),
    ("spec", "act a;\nproc P = b(1);\nact b;"),
    ("spec", "act a;\nproc P = encap(H, a);\nset H = {a};"),
    ("spec", "act a;\nproc P = encap(b, a);\nact b;"),
    ("spec", "act a;\nproc P = encap({b}, a);\nact b;"),
    ("spec", "act a;\nproc P = Q;\nproc Q = a;"),
    ("spec", "act a;\nproc P = a;\nact b;\nproc Q = P . b;\nset H = {a, b};"),
    ("spec", "act a, b, c;\nproc P = a || b;\ncomm b | a = c;\nmeadow F 3;\nset H = {a};\n"
             "proc Q = [inv(2)] -> encap(H, P) . b(2);"),
    ("default", "a || b |_ c"),
    ("default", "a | b || c"),
    ("default", "a |_ b | c"),
    ("default", "(a || b) |_ c"),
    ("default", "a || b + c |_ d"),
    ("default", "a || b + c |_ a | b"),
    ("default", "[0] -> a || b |_ c"),
    ("default", "zz(1)"),
    ("default", "7(1)"),
    ("default", "7"),
    ("default", "a(1, 2"),
    ("default", "a(1 2)"),
    ("default", "a()"),
    ("default", "a( )"),
    ("default", "a(,)"),
    ("default", "a(1,)"),
    ("default", "a (u)"),
    ("default", "delta(1)"),
    ("default", "delta . a"),
    ("default", "a + zz"),
    ("default", "a b"),
    ("default", "a ]"),
    ("default", "a )"),
    ("default", "(a"),
    ("default", "(a ]"),
    ("default", "(a - b)"),
    ("default", "()"),
    ("default", ""),
    ("default", "a +"),
    ("default", "a . "),
    ("default", "[1 -> a"),
    ("default", "[1] a"),
    ("default", "[1]"),
    ("default", "[] -> a"),
    ("default", "[1, 2] -> a"),
    ("default", "[(1] -> a"),
    ("default", "[1 . 2] -> a"),
    ("default", "[1 + ] -> a"),
    ("default", "[-] -> a"),
    ("default", "[--1 - -u * -(v / 2)] -> a"),
    ("default", "[1 - 2 - 3 / 4 / u * inv(v)] -> [u] -> a . b"),
    ("default", "[inv 1] -> a"),
    ("default", "[inv(1, 2)] -> a"),
    ("default", "[inv(1] -> a"),
    ("default", "[delta + encap] -> a"),
    ("default", "encap H, a)"),
    ("default", "encap(H a)"),
    ("default", "encap(zz, a)"),
    ("default", "encap({a, zz}, a)"),
    ("default", "encap({a}, a"),
    ("default", "encap({a}, a]"),
    ("default", "encap({}, a) . encap(a, b)"),
    ("default", "encap(7, a)"),
    ("default", "a $ b"),
    ("default", "a\n+\tb\n  ~"),
    ("default", "a + b . c || d"),
    ("default", "a . b + c . (a + b) . c"),
    ("default", "a . b || c |d"),
    ("q0.acpm", "Link . Sender + encap(H, done)"),
    ("q0.acpm", "encap(H, send(1/2, u) || recv(-3))"),
    ("q0.acpm", "encap(Sender, done)"),
    ("q0.acpm", "Sender(1)"),
    ("q0.acpm", "H"),
    ("q0.acpm", "encap(H, Link) |_ done | comm"),
    ("q0.acpm", "send(\u0663)"),
    ("q0.acpm", "send(1) \u00e9"),
]

OPERANDS = ["a", "b", "c", "delta", "a(1)", "b(u, 2)", "P", "(a)"]
BINARY = [" + ", " . ", " || ", " |_ ", " | "]
QBINARY = [" + ", " - ", " * ", " / "]
NOISE = ["(", ")", "[", "]", "->", ",", ";", "+", ".", "|", "||", "|_", "-", "*", "/",
         "a", "u", "1", "0", "inv", "encap", "delta", "{", "}", "@", " ", "\n", "\t"]


def random_quantity(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice(["0", "1", "2", "7", "u", "v"])
    if r < 0.45:
        return "-" + random_quantity(rng, depth - 1)
    if r < 0.55:
        return f"inv({random_quantity(rng, depth - 1)})"
    if r < 0.65:
        return f"({random_quantity(rng, depth - 1)})"
    lhs, rhs = random_quantity(rng, depth - 1), random_quantity(rng, depth - 1)
    return lhs + rng.choice(QBINARY) + rhs


def random_process(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth <= 0 or r < 0.25:
        atom = rng.choice(OPERANDS)
        if atom == "a(1)":
            atom = f"a({random_quantity(rng, 2)})"
        return atom
    if r < 0.35:
        return f"[{random_quantity(rng, 2)}] -> " + random_process(rng, depth - 1)
    if r < 0.42:
        hide = rng.choice(["{a}", "{}", "{a, b}", "H", "c"])
        return f"encap({hide}, {random_process(rng, depth - 1)})"
    if r < 0.52:
        return f"({random_process(rng, depth - 1)})"
    lhs, rhs = random_process(rng, depth - 1), random_process(rng, depth - 1)
    return lhs + rng.choice(BINARY) + rhs


def mutate(rng: random.Random, text: str) -> str:
    """text with one random edit: a cut, a deletion, an insertion or a swap."""
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.randint(1, 3))
    r = rng.random()
    if r < 0.25:
        return text[:i]
    if r < 0.5:
        return text[:i] + text[j:]
    if r < 0.8:
        return text[:i] + rng.choice(NOISE) + text[i:]
    return text[:i] + text[j:j + 3] + text[i:j] + text[j + 3:]


MUTATED_SPEC = (
    "act a, b, c;\n"
    "comm a | b = c;\n"
    "meadow F 3;\n"
    "set H = {a, b};\n"
    "proc P = [u - 1] -> a(u) . b + delta;\n"
    "proc Q = encap(H, P || b |_ c);\n"
)


def parse_corpus():
    """The inputs of golden/parse-errors.txt, seeded: valid, truncated and
    mutated terms over the sample spec and over F3, mutated spec lines, and
    the hand-written cases."""
    from meadowacp import TermGen, default_context, pretty_term

    rng = random.Random(16)
    entries = list(PARSE_CASES)
    gen = TermGen(default_context(), random.Random(17), max_depth=3)
    for i in range(60):
        text = pretty_term(gen.term())
        entries.append(("default", text if i % 3 == 0 else mutate(rng, text)))
    for i in range(90):
        text = random_process(rng, 3)
        entries.append(("sample.acpm", text if i % 3 == 0 else mutate(rng, text)))
    for i in range(30):
        text = f"[{random_quantity(rng, 4)}] -> a"
        entries.append(("sample.acpm", text if i % 3 == 0 else mutate(rng, text)))
    lines = MUTATED_SPEC.splitlines(keepends=True)
    for i in range(40):
        edited = list(lines)
        k = rng.randrange(len(edited))
        edited[k] = mutate(rng, edited[k])
        if i % 4 == 1:
            edited = [line.replace("\n", "\r\n") for line in edited]
        elif i % 4 == 2:
            edited = [line.replace(" ", "\t", 1) for line in edited]
        elif i % 4 == 3:
            edited.insert(rng.randrange(len(edited) + 1), "# note; proc Z = @\n")
        entries.append(("spec", "".join(edited)))
    return list(dict.fromkeys(entries))


def describe(ctx) -> str:
    """A specification context as declarations, in a fixed order."""
    from meadowacp import pretty_term

    decls = [f"act {', '.join(sorted(ctx.alphabet))}"]
    decls += [f"comm {a} | {b} = {c}" for (a, b), c in sorted(ctx.comm.items())]
    decls.append(f"meadow {ctx.meadow}")
    decls += [f"set {n} = {{{', '.join(sorted(h))}}}" for n, h in sorted(ctx.sets.items())]
    decls += [f"proc {n} = {pretty_term(t)}" for n, t in ctx.definitions.items()]
    return "; ".join(decls)


def parse_outcome(where: str, text: str) -> str:
    """`ok ` and the parsed spec or term as text, or the SpecError."""
    from meadowacp import SpecError, default_context, parse_spec, parse_term, pretty_term

    try:
        if where == "spec":
            return "ok " + describe(parse_spec(text))
        if where == "default":
            ctx = default_context()
        else:
            ctx = parse_spec(SPEC_TEXTS[where])
        return "ok " + pretty_term(parse_term(text, ctx))
    except SpecError as exc:
        return str(exc)


def read_parse_golden():
    """The (where, text, outcome) lines of golden/parse-errors.txt."""
    decoder = json.JSONDecoder()
    entries = []
    for line in PARSE_GOLDEN.read_text(encoding="utf-8").splitlines():
        (where, text), end = decoder.raw_decode(line)
        entries.append((where, text, line[end + 1:]))
    return entries


def test_parse_outcomes_match_the_golden_file():
    entries = read_parse_golden()
    assert len(entries) >= 300
    for where, text, expected in entries:
        assert parse_outcome(where, text) == expected, (where, text)


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
    with open(PARSE_GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        for where, text in parse_corpus():
            outcome = parse_outcome(where, text)
            assert "\n" not in outcome, (where, text)
            fh.write(f"{json.dumps([where, text])} {outcome}\n")
    for path in (GOLDEN, MEADOW_GOLDEN, PARSE_GOLDEN):
        print(f"wrote {path} ({path.stat().st_size} bytes)", file=sys.stderr)
