"""The four benchmark workloads.

Each workload makes its inputs from the benchmark seed alone, so every
pass of a run, and every run with that seed, measures the same work on
fresh objects.  It runs them through meadowacp from one closed-loop
caller and checks every output.  ``run_pass`` is the timed part; input
generation and the checks that need extra library calls happen outside
it.  Times are read from a :class:`meter.Meter`, which is given a chance
to calibrate (``lap``) between operations.

An operation is one axiom instance (axioms-spec), one term pair
(random-pairs), one CLI command (cli-large) or one meadow check, that is
one (axiom, assignment) pair or one quantity evaluation (meadow-suite).
"""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import meadowacp as M
from meadowacp import axioms as axioms_mod
from meadowacp import cli
from spans import quantity_nodes


# a fresh interpreter's set-up for the CLI workloads: import the CLI and
# parse the workload's spec file (argv[2])
CLI_SETUP = (
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "import meadowacp.cli\n"
    "from meadowacp.speclang import parse_spec\n"
    "with open(sys.argv[2], encoding='utf-8') as fh:\n"
    "    parse_spec(fh.read(), filename=sys.argv[2])\n"
)


class PassResult:
    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.latencies = []  # (start, end) meter readings, one per timed operation
        self.output_bytes = 0
        self.notes = []  # one line per failure

    def fail(self, note: str):
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout, stderr).  An
    exception escaping main is returned as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # any escape from main is a failed operation
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    tail_percentile = 99.0
    op_unit = "operation"

    # Python source a fresh interpreter runs to import meadowacp and build
    # this workload's spec or context; argv[2:] are setup_args()
    setup_code = CLI_SETUP

    def __init__(self, seed: int, work_dir: Path):
        """``work_dir`` holds files the workload writes, such as specs."""
        self.seed = seed

    def setup_args(self):
        return []

    def pass_inputs(self):
        """The seed's inputs, as fresh objects on every call."""
        raise NotImplementedError

    def run_pass(self, inputs, call, meter) -> PassResult:
        raise NotImplementedError

    def check_pass(self, inputs, result: PassResult) -> None:
        """Checks that need extra library work, outside the timed pass."""

    def warmup(self):
        pass

    def probes(self):
        """(name, ok, note) for fixed robustness probes, run once per run."""
        return []

    def notes(self):
        """Lines about the inputs, printed with each run."""
        return []


# ---------------------------------------------------------------------------
# axioms-spec


class AxiomsSpec(Workload):
    """``meadowacp axioms --spec <F3 spec> --json`` through cli.main.

    The benchmark seed draws the action names of the spec, keeping their
    sorted order and roles, so every seed checks the same instances up to
    renaming.  The CLI sampling seed stays 0 and the sample count 94,
    which keeps the two heavy t2.15 instances (#66 and #93) in every run.
    The report names no action, so its JSON must match the stored output
    of the seed commit byte for byte.
    """

    name = "axioms-spec"
    samples = 94
    golden = Path(__file__).with_name("golden") / "axioms-spec.json"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(f"{seed}:axioms-spec")
        pool = [f"{c}{i}" for c in "abcdefghkmnpqrsuvwxyz" for i in range(10)]
        a, b, c = sorted(rng.sample(pool, 3))
        self.spec_path = work_dir / f"axioms-spec-{seed}.acpm"
        self.spec_path.write_text(
            f"act {a}, {b}, {c};\ncomm {a} | {b} = {c};\nmeadow F 3;\n", encoding="utf-8"
        )
        self.expected = self.golden.read_text(encoding="utf-8")
        self._orig = {}

    def setup_args(self):
        return [str(self.spec_path)]

    def _hook_instances(self, latencies, call, meter):
        """Time each dual-checked instance (one clock pair per instance),
        make it one operation of its own for the tracer, and let the meter
        calibrate between instances."""
        for attr in ("_check_eq_instance", "_check_isact_instance"):
            fn = self._orig.setdefault(attr, getattr(axioms_mod, attr))

            def timed(*args, _fn=fn):
                t0 = meter.now()
                try:
                    return call(lambda: _fn(*args), "axioms.instance")
                finally:
                    latencies.append((t0, meter.now()))
                    meter.lap()

            setattr(axioms_mod, attr, timed)

    def _unhook_instances(self):
        for attr, fn in self._orig.items():
            setattr(axioms_mod, attr, fn)

    def pass_inputs(self):
        return [
            "axioms", "--spec", str(self.spec_path), "--json",
            "--samples", str(self.samples), "--seed", "0",
        ]

    def run_pass(self, argv, call, meter):
        result = PassResult()
        self._hook_instances(result.latencies, call, meter)
        try:
            code, out, err = call(lambda: run_cli(argv))
        finally:
            self._unhook_instances()
        result.output_bytes = len(out)
        try:
            axioms = [r for rep in json.loads(out) for r in rep["axioms"]]
        except (ValueError, KeyError, TypeError):
            axioms = []
        result.ops = sum(r.get("checked", 0) for r in axioms) or 1
        for r in axioms:
            if r.get("status") != "pass":
                result.fail(f"axiom {r.get('id')} failed: {r.get('counterexample')}")
        if code != 0 or out != self.expected:
            result.fail(f"axioms --spec: exit {code}, output differs from golden: {err[:200]}")
        result.failed = min(result.failed, result.ops)
        return result


# ---------------------------------------------------------------------------
# random-pairs


_OP_WEIGHTS = (("alt", 0.30), ("seq", 0.25), ("par", 0.15), ("guard", 0.10), ("atom", 0.20))


class PairGen:
    """Random closed ground terms in the shape of acceptance criterion 7:
    depth 4, actions a, b, c with gamma(a, b) = c, data from F3.  Written
    here, not taken from meadowacp, so the inputs do not change when the
    program's own generator does."""

    def __init__(self, rng: random.Random, names, carrier, max_depth: int = 4):
        self.rng = rng
        self.names = names
        self.carrier = carrier
        self.max_depth = max_depth

    def quantity(self):
        return M.quantity_literal(Fraction(self.rng.choice(self.carrier)))

    def atom(self):
        r = self.rng.random()
        if r < 0.15:
            return M.Deadlock()
        name = self.rng.choice(self.names)
        if r < 0.60:
            return M.Action(name)
        return M.DataAction(name, (self.quantity(),))

    def term(self, depth=None):
        depth = self.max_depth if depth is None else depth
        if depth <= 0:
            return self.atom()
        r = self.rng.random()
        acc = 0.0
        for op, w in _OP_WEIGHTS:
            acc += w
            if r < acc:
                break
        if op == "alt":
            return M.Alt(self.term(depth - 1), self.term(depth - 1))
        if op == "seq":
            return M.Seq(self.term(depth - 1), self.term(depth - 1))
        if op == "par":
            return M.Par(self.term(depth - 1), self.term(depth - 1))
        if op == "guard":
            return M.Guard(self.quantity(), self.term(depth - 1))
        return self.atom()


def trace_estimate(t) -> int:
    """Total length of the maximal traces of a PairGen term, counting every
    interleaving of a merge and ignoring communication and deadlock: an
    estimate of the size of its normal form unfolded into a tree, made
    from the term alone."""

    def traces(t):  # {trace length: number of maximal traces}
        if isinstance(t, (M.Alt, M.Seq, M.Par)):
            a, b = traces(t.lhs), traces(t.rhs)
            if isinstance(t, M.Alt):
                return {n: a.get(n, 0) + b.get(n, 0) for n in a.keys() | b.keys()}
            out = {}
            for i, x in a.items():
                for j, y in b.items():
                    ways = comb(i + j, i) if isinstance(t, M.Par) else 1
                    out[i + j] = out.get(i + j, 0) + x * y * ways
            return out
        if isinstance(t, M.Guard):
            return traces(t.body)
        return {1: 1}

    return sum(n * count for n, count in traces(t).items())


class RandomPairs(Workload):
    """Library equivalence queries: equal_terms and bisimilar(build_lts ...)
    on the seed's pairs; both routes must agree on every pair.

    A pair's cost varies by more than a thousand times and follows its
    trace estimate (the sum of its terms' trace_estimate), so a plain
    draw of 1500 pairs costs up to 1.7 times as much for one seed as for
    another.  The pairs are therefore drawn in a fixed number per decade
    of the estimate (``per_decade``, in the shares a plain draw gives), and
    only the pairs within each decade vary with the seed.  For the same
    reason the tail latency is p90: the costs beyond it vary too much
    from seed to seed.  A pair whose estimate exceeds ``set_aside_above``
    (4 to 8 in 1000) is drawn but not timed, and each run prints how many
    it set aside: such a pair can take from 0.1 s to seconds (the README
    gives one that takes about 20 s), so a few of them would decide the
    whole run.  The normal-form growth behind them is what axioms-spec
    measures."""

    name = "random-pairs"
    per_decade = (360, 1230, 890, 340, 120, 40)
    tail_percentile = 90.0
    set_aside_above = 10**6
    op_unit = "term pair"
    setup_code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import meadowacp\n"
        "meadowacp.default_context()\n"
    )

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.ctx = M.default_context()
        gen = PairGen(random.Random(f"{seed}:random-pairs"), ["a", "b", "c"], [0, 1, 2])
        wanted = list(self.per_decade)
        pairs = []
        self.set_aside = self.drawn = 0
        while any(wanted):
            pair = gen.term(), gen.term()
            self.drawn += 1
            estimate = trace_estimate(pair[0]) + trace_estimate(pair[1])
            if estimate > self.set_aside_above:
                self.set_aside += 1
                continue
            decade = min(len(str(estimate)) - 1, len(wanted) - 1)
            if wanted[decade]:
                wanted[decade] -= 1
                pairs.append(pair)
        # unpickling gives fresh objects, with none of the program's memo slots
        self._pickled = pickle.dumps(pairs)

    def pass_inputs(self):
        return pickle.loads(self._pickled)

    def warmup(self):
        gen = PairGen(random.Random(f"{self.seed}:random-pairs:warmup"), ["a", "b", "c"], [0, 1, 2])
        for _ in range(20):
            t1, t2 = gen.term(), gen.term()
            M.equal_terms(t1, t2, self.ctx)
            M.bisimilar(M.build_lts(t1, self.ctx), M.build_lts(t2, self.ctx))

    def run_pass(self, pairs, call, meter):
        result = PassResult()
        ctx = self.ctx
        lat = result.latencies
        for i, (t1, t2) in enumerate(pairs):

            def query():
                by_nf = M.equal_terms(t1, t2, ctx)
                by_oracle = M.bisimilar(M.build_lts(t1, ctx), M.build_lts(t2, ctx))
                return by_nf, by_oracle

            t0 = meter.now()
            try:
                by_nf, by_oracle = call(query)
            except Exception as exc:  # counted, not fatal
                by_nf, by_oracle = exc, None
            lat.append((t0, meter.now()))
            meter.lap()
            if isinstance(by_nf, Exception):
                result.fail(f"pair {i}: {type(by_nf).__name__}: {by_nf}")
            elif by_nf != by_oracle:
                result.fail(f"pair {i}: normal forms say {by_nf}, bisimulation {by_oracle}")
        result.ops = len(pairs)
        return result

    def notes(self):
        return [f"{sum(self.per_decade)} pairs kept of {self.drawn} drawn; {self.set_aside} set aside "
                f"(trace estimate above {self.set_aside_above:.0e}), not timed"]


# ---------------------------------------------------------------------------
# cli-large

CLI_SPEC = """\
act a, b, c, d, e, s, r, k;
comm a | b = c;
comm s | r = k;
meadow Q0;
set H = {s, r};
"""


class CliLarge(Workload):
    """Large terms through cli.main over a Q0 spec: normalize, equiv and
    lts --dot/--json.  The same seeded command list runs every pass."""

    name = "cli-large"
    tail_percentile = 90.0
    op_unit = "CLI command"
    max_merge_actions = 9  # the printed normal form grows with the interleavings
    max_lts_actions = 12  # the LTS only grows with the product of the parts
    max_seq_len = 120  # the CLI raises RecursionError from about 180

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.spec_path = work_dir / "cli-large.acpm"
        self.spec_path.write_text(CLI_SPEC, encoding="utf-8")
        self.ctx = M.parse_spec(CLI_SPEC)
        self.commands = self._commands(random.Random(f"{seed}:cli-large"))
        self.first_outputs = None

    def setup_args(self):
        return [str(self.spec_path)]

    # -- input generation -------------------------------------------------------

    @staticmethod
    def _q(rng):
        num = rng.randint(-9, 9)
        den = rng.choice((1, 1, 2, 3, 4))
        if den == 1:
            return f"({num})" if num < 0 else str(num)
        return f"({num}/{den})"

    def _data_action(self, rng, names, pool):
        return f"{rng.choice(names)}({rng.choice(pool)})"

    def _component(self, rng, length, names, pool):
        return " . ".join(self._data_action(rng, names, pool) for _ in range(length))

    def _merge(self, rng, parts, actions):
        """A merge of ``parts`` data-carrying components of near-equal
        length (the size of the result depends most on the lengths, so they
        are not drawn); a shared small data pool lets a | b and s | r
        synchronise sometimes."""
        pool = [self._q(rng) for _ in range(2)]
        names = ["a", "b", "d", "e", "s", "r"]
        lengths = [actions // parts + (i < actions % parts) for i in range(parts)]
        return " || ".join(self._component(rng, n, names, pool) for n in lengths)

    def _encap_merge(self, rng):
        pool = [self._q(rng) for _ in range(2)]
        left = self._component(rng, 3, ["s", "a", "d"], pool)
        right = self._component(rng, 3, ["r", "b", "e"], pool)
        return f"encap(H, {left} || {right})"

    def _sequence(self, rng, n):
        return " . ".join(rng.choice(("a", "b", "d", "e")) for _ in range(n))

    def _equiv_pair(self, rng, i):
        """A pair whose verdict is known by construction."""
        pool = [self._q(rng) for _ in range(2)]
        names = ["a", "b", "d", "e"]
        x = self._component(rng, rng.randint(3, 4), names, pool)
        y = self._component(rng, rng.randint(3, 4), names, pool)
        z = self._component(rng, 2, names, pool)
        kind = i % 4
        if kind == 0:  # commutativity of merge
            return f"{x} || {y}", f"{y} || {x}", True
        if kind == 1:  # t2.15: a . x |_ y = a . (x || y)
            head = self._data_action(rng, names, pool)
            return f"({head} . {x}) |_ ({y})", f"{head} . ({x} || {y})", True
        if kind == 2:  # right distributivity of . over +
            return f"({x} + {y}) . {z}", f"{x} . {z} + {y} . {z}", True
        # k occurs nowhere in the merge, so the extra summand is new
        return f"{x} || {y}", f"{x} || {y} + k", False

    def _commands(self, rng):
        spec = str(self.spec_path)
        cmds = []
        for round_ in range(3):
            for i in range(6):
                merge = self._merge(rng, 2 + i % 2, self.max_merge_actions)
                cmds.append((["normalize", "--spec", spec, merge], None))
            for _ in range(4):
                cmds.append((["normalize", "--spec", spec, "--json", self._encap_merge(rng)], None))
            for i in range(4):
                # lengths spread evenly over 40..max_seq_len, the same for
                # every seed: sequence cost grows faster than its length
                n = 40 + (self.max_seq_len - 40) * (round_ * 4 + i) // 11
                cmds.append((["normalize", "--spec", spec, self._sequence(rng, n)], None))
            for i in range(8):
                t1, t2, verdict = self._equiv_pair(rng, i)
                flags = ["--json"] if i % 2 else []
                cmds.append((["equiv", "--spec", spec, *flags, t1, t2], verdict))
            for _ in range(4):
                merge = self._merge(rng, 4, self.max_lts_actions)
                cmds.append((["lts", "--spec", spec, "--json", merge], None))
            for _ in range(4):
                cmds.append((["lts", "--spec", spec, "--dot", self._encap_merge(rng)], None))
        return cmds

    def pass_inputs(self):
        return self.commands

    def warmup(self):
        run_cli(["normalize", "--spec", str(self.spec_path), "a(1) || b(1)"])

    # -- timed pass ------------------------------------------------------------------

    def run_pass(self, commands, call, meter):
        result = PassResult()
        outputs = []
        for i, (argv, verdict) in enumerate(commands):
            t0 = meter.now()
            code, out, err = call(lambda: run_cli(argv))
            result.latencies.append((t0, meter.now()))
            meter.lap()
            result.output_bytes += len(out)
            outputs.append(out)
            expected_code = 0 if verdict in (None, True) else 1
            if code != expected_code:
                result.fail(f"command {i} ({argv[0]}): exit {code}, expected {expected_code}: {err[:200]}")
            elif verdict is not None:
                lines = out.splitlines() or [""]
                said = json.loads(out)["verdict"] if "--json" in argv[:4] else lines[0]
                if said != ("equivalent" if verdict else "not equivalent"):
                    result.fail(f"command {i}: verdict {said!r}, constructed {verdict}")
        result.ops = len(commands)
        self._outputs = outputs
        return result

    # -- checks outside the timed pass --------------------------------------------

    def check_pass(self, commands, result):
        outputs = self._outputs
        if self.first_outputs is None:
            self.first_outputs = outputs
            for i, ((argv, _), out) in enumerate(zip(commands, outputs)):
                try:
                    note = self._check_output(argv, out)
                except (ValueError, KeyError, IndexError) as exc:
                    note = f"unreadable output: {type(exc).__name__}: {exc}"
                if note:
                    result.fail(f"command {i} ({argv[0]}): {note}")
            return
        for i, ((argv, _), out, first) in enumerate(zip(commands, outputs, self.first_outputs)):
            # lts state numbering may differ from call to call (see
            # README), so lts output is compared by its numbering-free
            # signature; normalize and equiv must repeat byte for byte
            if argv[0] != "lts" and out != first:
                result.fail(f"command {i} ({argv[0]}): stdout differs from pass 0")
            elif argv[0] == "lts" and _lts_signature(argv, out) != _lts_signature(argv, first):
                result.fail(f"command {i} (lts): counts or labels differ from pass 0")

    def _check_output(self, argv, out):
        ctx = self.ctx
        term = M.parse_term(argv[-1], ctx) if argv[0] != "equiv" else None
        if argv[0] == "normalize":
            nf_text = json.loads(out)["normal_form"] if "--json" in argv else out.rstrip("\n")
            # a canonical form is a fixed point: normalising it reprints it
            again = str(M.normalize(M.parse_term(nf_text, ctx), ctx))
            if again != nf_text:
                return "printed normal form is not a fixed point of normalize"
            if again != str(M.normalize(term, ctx)):
                return "CLI output differs from library normalize"
        elif argv[0] == "equiv":
            lines = out.splitlines()
            if "--json" in argv:
                doc = json.loads(out)
                nfs = [doc["normal_form_1"], doc["normal_form_2"]]
            else:
                nfs = [line.split("  ~>  ", 1)[1] for line in lines[1:3]]
            for text, nf in zip(argv[-2:], nfs):
                if str(M.normalize(M.parse_term(text, ctx), ctx)) != nf:
                    return "equiv printed a normal form that normalize does not give"
        elif argv[0] == "lts":
            lts = M.build_lts(term, ctx)
            expected = (
                lts.num_states,
                len(lts.transitions),
                sorted(str(a) for _, a, _ in lts.transitions),
            )
            if _lts_signature(argv, out) != expected:
                return "state/transition counts or label multiset differ from build_lts"
            # the initial state offers exactly the head actions of the normal form
            heads = sorted({str(s.action) for s in M.normalize(term, ctx).summands})
            initial = sorted({str(a) for p, a, _ in lts.transitions if p == lts.initial})
            if heads != initial:
                return "initial transitions differ from the normal form's head actions"
            if "--dot" in argv and any(str(a).split("(")[0] in ("s", "r") for _, a, _ in lts.transitions):
                return "encapsulated action escaped encap"
        return None

    # -- deep-input probes --------------------------------------------------------

    def probes(self):
        seq = " . ".join
        ctx, spec = self.ctx, str(self.spec_path)

        def cli_seq200():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["normalize", "--spec", spec, seq(["a"] * 200)])
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue()}")

        return [
            _probe("cli normalize, 200-action sequence", cli_seq200),
            _probe("library normalize, 400-action sequence",
                   lambda: M.normalize(M.parse_term(seq(["a"] * 400), ctx), ctx)),
            _probe("parse, parentheses nested 1000 deep",
                   lambda: M.parse_term("(" * 1000 + "a" + ")" * 1000, ctx)),
        ]


def _probe(name, fn):
    try:
        fn()
    except Exception as exc:  # a probe that raises has failed
        return name, False, f"{type(exc).__name__}: {str(exc)[:80]}"
    return name, True, ""


def _lts_signature(argv, out):
    """(states, transitions, sorted labels) of lts --json or --dot output."""
    if "--json" in argv:
        doc = json.loads(out)
        labels = sorted(label for _, label, _ in doc["transitions"])
        return doc["states"], len(doc["transitions"]), labels
    states = len(_DOT_NODE.findall(out))
    labels = sorted(_DOT_EDGE.findall(out))
    return states, len(labels), labels


_DOT_NODE = re.compile(r"^  n\d+ \[shape=", re.M)
_DOT_EDGE = re.compile(r'^  n\d+ -> n\d+ \[label="([^"]*)"\];$', re.M)


# ---------------------------------------------------------------------------
# meadow-suite


def ref_eval(t, env, p):
    """Plain reference evaluator: Fraction arithmetic when ``p`` is None,
    else residues mod p; the inverse of zero is zero in both."""
    stack = [(t, False)]
    values = []
    while stack:
        node, done = stack.pop()
        kind = type(node).__name__
        if not done:
            if kind in ("QAdd", "QMul"):
                stack += [(node, True), (node.rhs, False), (node.lhs, False)]
            elif kind in ("QNeg", "QInv"):
                stack += [(node, True), (node.arg, False)]
            elif kind == "QZero":
                values.append(Fraction(0) if p is None else 0)
            elif kind == "QOne":
                values.append(Fraction(1) if p is None else 1)
            elif kind == "QConst":
                v = node.value
                if p is None:
                    values.append(Fraction(v))
                else:
                    den = v.denominator % p
                    values.append(v.numerator * (pow(den, p - 2, p) if den else 0) % p)
            elif kind == "QVar":
                values.append(env[node.name])
            else:
                raise TypeError(kind)
            continue
        if kind == "QAdd":
            y, x = values.pop(), values.pop()
            values.append(x + y if p is None else (x + y) % p)
        elif kind == "QMul":
            y, x = values.pop(), values.pop()
            values.append(x * y if p is None else (x * y) % p)
        elif kind == "QNeg":
            x = values.pop()
            values.append(-x if p is None else (-x) % p)
        else:
            x = values.pop()
            if p is None:
                values.append(1 / x if x else Fraction(0))
            else:
                values.append(pow(x, p - 2, p) if x else 0)
    return values[0]


def _size_class(nodes: int) -> int:
    """Exact below 16 nodes, 8 wide below 128, 32 wide above."""
    if nodes < 16:
        return nodes
    if nodes < 128:
        return 16 + (nodes - 16) // 8
    return 30 + (nodes - 128) // 32


class MeadowSuite(Workload):
    """``axioms --meadow`` for q0 (random samples), F17 (exhaustive) and
    trivial, plus eval_quantity on seeded depth-8 quantity terms in Q0 and
    F17, checked against ref_eval.

    The size of a depth-8 term varies from 1 to about 250 nodes, and the
    median size of a plain draw of 150 terms from 64 to 82 nodes between
    seeds, which would move the latency metrics with the seed.  So the
    terms of every seed have the sizes of one fixed reference draw, to
    within a _size_class: the seed's generator is drawn from until each
    size class of the reference is filled."""

    name = "meadow-suite"
    prime = 17
    q0_samples = 300
    evals_per_meadow = 150
    op_unit = "meadow check"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.q0 = M.MeadowKind.rationals()
        self.fp = M.MeadowKind.prime_field(self.prime)
        rng = random.Random(f"{seed}:meadow-suite")
        reference = random.Random("meadow-suite:reference")
        drawn = []
        for _ in range(2):  # Q0, then F17
            wanted = Counter(
                _size_class(quantity_nodes(self._qterm(reference, 8)))
                for _ in range(self.evals_per_meadow)
            )
            terms = []
            while any(wanted.values()):
                t = self._qterm(rng, 8)
                raw = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for n in "uvw"}
                size = _size_class(quantity_nodes(t))
                if wanted[size] > 0:
                    wanted[size] -= 1
                    terms.append((t, raw))
            drawn.append(terms)
        self.q0_seed = rng.randrange(10**6)
        # unpickling gives fresh objects, with none of the program's memo slots
        self._pickled = pickle.dumps(drawn)

    setup_code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import meadowacp.cli\n"
        "from meadowacp.meadow import MeadowKind\n"
        "MeadowKind.rationals(); MeadowKind.prime_field(17); MeadowKind.trivial()\n"
    )

    def _qterm(self, rng, depth):
        if depth == 0 or rng.random() < 0.12:
            r = rng.random()
            if r < 0.3:
                return M.QVar(rng.choice("uvw"))
            if r < 0.4:
                return M.QZero()
            if r < 0.5:
                return M.QOne()
            return M.quantity_literal(Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
        r = rng.random()
        if r < 0.35:
            return M.QAdd(self._qterm(rng, depth - 1), self._qterm(rng, depth - 1))
        if r < 0.7:
            return M.QMul(self._qterm(rng, depth - 1), self._qterm(rng, depth - 1))
        if r < 0.85:
            return M.QNeg(self._qterm(rng, depth - 1))
        return M.QInv(self._qterm(rng, depth - 1))

    def pass_inputs(self):
        evals = []
        meadows = ((self.q0, None), (self.fp, self.prime))
        for (m, p), terms in zip(meadows, pickle.loads(self._pickled)):
            for t, raw in terms:
                env = {n: m.from_fraction(v) for n, v in raw.items()}
                ref_env = {n: (v if p is None else env[n].value) for n, v in raw.items()}
                evals.append((t, env, m, p, ref_env))
        commands = [
            (["axioms", "--meadow", "q0", "--json", "--samples", str(self.q0_samples),
              "--seed", str(self.q0_seed)], self.q0_samples, "pass"),
            (["axioms", "--meadow", f"f{self.prime}", "--json"], self.prime ** 3, "pass"),
            (["axioms", "--meadow", "trivial", "--json"], 1, "fail"),
        ]
        return commands, evals

    def warmup(self):
        run_cli(["axioms", "--meadow", "f3", "--json"])

    def run_pass(self, inputs, call, meter):
        commands, evals = inputs
        result = PassResult()
        self._outputs = []
        for argv, per_axiom, _ in commands:
            code, out, err = call(lambda: run_cli(argv))
            meter.lap()
            result.output_bytes += len(out)
            self._outputs.append((code, out, err))
            result.ops += 10 * per_axiom  # ten axioms; check_pass checks the counts
        self._values = []
        for t, env, m, _, _ in evals:
            t0 = meter.now()
            try:
                v = call(lambda: M.eval_quantity(t, env, m))
            except Exception as exc:  # counted, not fatal
                v = exc
            result.latencies.append((t0, meter.now()))
            meter.lap()
            self._values.append(v)
        result.ops += len(evals)
        return result

    def check_pass(self, inputs, result):
        commands, evals = inputs
        for (argv, per_axiom, separation), (code, out, err) in zip(commands, self._outputs):
            try:
                (report,) = json.loads(out)
                ok = (
                    code == 0
                    and len(report["axioms"]) == 10
                    and all(r["checked"] == per_axiom for r in report["axioms"])
                    and all(r["status"] == "pass" for r in report["axioms"])
                    and report["separation"] == separation
                    and report["cancellation"] == report["general_inverse"] == "pass"
                )
            except (ValueError, KeyError):
                ok = False
            if not ok:
                result.fail(f"{' '.join(argv[:3])}: exit {code}, report wrong: {err[:200]}")
        for i, ((t, _, m, p, ref_env), v) in enumerate(zip(evals, self._values)):
            want = ref_eval(t, ref_env, p)
            if isinstance(v, Exception) or v.value != want:
                result.fail(f"eval {i} in {m}: got {v}, reference {want}")


WORKLOADS = {w.name: w for w in (AxiomsSpec, RandomPairs, CliLarge, MeadowSuite)}
