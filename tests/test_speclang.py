"""Tests for the .acpm specification parser and pretty printer."""

import random
import sys
from fractions import Fraction

import pytest

from meadowacp import (
    Action,
    Alt,
    CommMerge,
    DataAction,
    Deadlock,
    Encap,
    Guard,
    LeftMerge,
    MeadowKind,
    Par,
    QAdd,
    QConst,
    QInv,
    QMul,
    QNeg,
    QOne,
    QVar,
    QZero,
    Seq,
    SpecContext,
    SpecError,
    TermGen,
    default_context,
    equal_terms,
    parse_spec,
    parse_term,
    pretty_term,
)


class TestParseSpec:
    def test_full_spec(self, sample_spec_text):
        ctx = parse_spec(sample_spec_text)
        assert ctx.alphabet == frozenset({"a", "b", "c"})
        assert ctx.comm.get(("a", "b")) == "c"
        assert ctx.comm.get(("b", "a")) == "c"
        assert ctx.meadow == MeadowKind.prime_field(3)
        assert ctx.sets["H"] == frozenset({"a", "b"})
        # definitions are stored unevaluated
        assert ctx.definitions["P"] == Alt(Seq(Action("a"), Action("b")), Deadlock())

    def test_meadow_variants(self):
        # the names of --meadow, in any case; the spec also reads "F 5"
        for name, meadow in [
            ("Q0", MeadowKind.rationals()),
            ("q0", MeadowKind.rationals()),
            ("trivial", MeadowKind.trivial()),
            ("Trivial", MeadowKind.trivial()),
            ("F5", MeadowKind.prime_field(5)),
            ("f5", MeadowKind.prime_field(5)),
        ]:
            assert parse_spec(f"act a; meadow {name};").meadow == meadow
            assert MeadowKind.from_name(name) == meadow
        assert parse_spec("act a; meadow F 5;").meadow == MeadowKind.prime_field(5)
        assert parse_spec("act a; meadow f 5;").meadow == MeadowKind.prime_field(5)

    def test_default_meadow_is_rationals(self):
        assert parse_spec("act a;").meadow == MeadowKind.rationals()

    def test_comments_are_ignored(self):
        ctx = parse_spec("# a comment\nact a; # trailing\n")
        assert ctx.alphabet == frozenset({"a"})

    def test_errors_carry_location(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("act a;\ncomm a | z = a;", filename="demo.acpm")
        assert "demo.acpm:2:" in str(exc.value)
        assert "unknown action 'z'" in str(exc.value)
        for name, message in [("F4", "modulus 4 is not prime"), ("zz", "unknown meadow 'zz'")]:
            with pytest.raises(SpecError) as exc:
                parse_spec(f"act a;\nmeadow {name};", filename="demo.acpm")
            assert str(exc.value).startswith(f"demo.acpm:2:8: {message}")

    def test_non_prime_modulus_reported_at_declaration(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("act a; meadow F4;")
        assert "not prime" in str(exc.value)

    def test_asymmetry_cannot_arise_but_associativity_can(self):
        # comm declarations are symmetrized automatically, so the only
        # rejectable shape is an associativity clash
        with pytest.raises(SpecError) as exc:
            parse_spec("act a, b, c, d, e; comm a | b = c; comm c | d = e;")
        assert "associativity" in str(exc.value)

    def test_duplicate_process_rejected(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("act a; proc P = a; proc P = a;")
        assert "already defined" in str(exc.value)

    def test_set_must_be_subset_of_alphabet(self):
        with pytest.raises(SpecError):
            parse_spec("act a; set H = {a, z};")

    def test_duplicate_set_rejected(self):
        # a second set H would otherwise replace the first without a word
        with pytest.raises(SpecError) as exc:
            parse_spec("act a, b;\nset H = {a};\nset H = {b};", filename="demo.acpm")
        assert str(exc.value) == "demo.acpm:3:5: set 'H' already defined"

    def test_set_and_action_names_clash_in_either_order(self):
        # encap(a, P) would read a as the set and hide the action
        for spec, where in [
            ("act a, b;\nset a = {b};", "2:5: set name 'a' clashes with an action"),
            ("act b;\nset a = {b};\nact a;", "3:5: action name 'a' clashes with a set"),
        ]:
            with pytest.raises(SpecError) as exc:
                parse_spec(spec, filename="demo.acpm")
            assert str(exc.value) == f"demo.acpm:{where}"

    def test_encap_reads_a_name_as_an_action_before_a_set(self):
        # a context built in Python escapes the clash check of parse_spec
        ctx = SpecContext(frozenset({"a", "b"}), sets={"a": frozenset({"b"})})
        t = parse_term("encap(a, a)", ctx)
        assert t is Encap(frozenset({"a"}), Action("a"))
        assert equal_terms(t, Deadlock(), ctx)

    def test_a_set_may_be_empty(self):
        ctx = parse_spec("act a;\nset H = {};\nproc P = encap(H, a);")
        assert ctx.sets["H"] == frozenset()
        with pytest.raises(SpecError) as exc:
            parse_spec("act a;\nset H = {a,};", filename="demo.acpm")
        assert str(exc.value) == "demo.acpm:2:12: expected a name, found '}'"

    def test_action_declared_after_a_process_of_its_name_rejected(self):
        # P would otherwise parse as the action and hide the definition
        with pytest.raises(SpecError) as exc:
            parse_spec("act a;\nproc P = delta;\nact b, P;", filename="demo.acpm")
        assert str(exc.value) == "demo.acpm:3:8: action name 'P' clashes with a process"

    def test_second_meadow_rejected(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("act a;\nmeadow F 3;\nmeadow Q0;", filename="demo.acpm")
        assert str(exc.value) == "demo.acpm:3:1: meadow already declared at line 2"

    def test_comm_pair_redeclared_with_another_result_rejected(self):
        for second in ("comm a | b = d;", "comm b | a = d;"):
            with pytest.raises(SpecError) as exc:
                parse_spec(f"act a, b, c, d;\ncomm a | b = c;\n{second}", filename="demo.acpm")
            assert str(exc.value).startswith("demo.acpm:3:1: communication ")
            assert str(exc.value).endswith(" already declared as 'c'")
        # the same result again, in either orientation, changes nothing
        for second in ("comm a | b = c;", "comm b | a = c;"):
            ctx = parse_spec(f"act a, b, c, d; comm a | b = c; {second}")
            assert ctx.comm.get(("a", "b")) == ctx.comm.get(("b", "a")) == "c"


class TestParseTerm:
    def test_precedence_alt_weakest_seq_strongest(self, ctx):
        a, b, c = Action("a"), Action("b"), Action("c")
        assert parse_term("a + b . c", ctx) == Alt(a, Seq(b, c))
        assert parse_term("a . b + c", ctx) == Alt(Seq(a, b), c)
        assert parse_term("a || b . c", ctx) == Par(a, Seq(b, c))
        assert parse_term("a + b || c", ctx) == Alt(a, Par(b, c))
        assert parse_term("(a + b) . c", ctx) == Seq(Alt(a, b), c)

    def test_guard_body_is_a_factor(self, ctx):
        a, b = Action("a"), Action("b")
        assert parse_term("[0] -> a . b", ctx) == Seq(Guard(QZero(), a), b)
        assert parse_term("[0] -> (a . b)", ctx) == Guard(QZero(), Seq(a, b))

    def test_parallel_operators_do_not_mix(self, ctx):
        with pytest.raises(SpecError) as exc:
            parse_term("a || b |_ c", ctx)
        assert "parentheses" in str(exc.value)
        # parenthesized mixing is fine
        parse_term("(a || b) |_ c", ctx)

    def test_left_and_comm_merge(self, ctx):
        a, b = Action("a"), Action("b")
        assert parse_term("a |_ b", ctx) == LeftMerge(a, b)
        assert parse_term("a | b", ctx) == CommMerge(a, b)

    def test_guard_and_encap(self, ctx):
        t = parse_term("[u - u] -> a", ctx)
        assert t == Guard(QAdd(QVar("u"), QNeg(QVar("u"))), Action("a"))
        t = parse_term("encap({a, b}, a + c)", ctx)
        assert t == Encap(frozenset({"a", "b"}), Alt(Action("a"), Action("c")))

    def test_quantity_sugar(self, ctx):
        t = parse_term("a(2/2)", ctx)
        assert t == DataAction(
            "a", (QMul(QConst(Fraction(2)), QInv(QConst(Fraction(2)))),)
        )
        assert parse_term("a(0, 1)", ctx) == DataAction("a", (QZero(), QOne()))
        assert parse_term("a(-1)", ctx) == DataAction("a", (QNeg(QOne()),))

    def test_named_references_resolve(self, sample_spec_text):
        from meadowacp import ProcVar

        ctx = parse_spec(sample_spec_text)
        term = parse_term("encap(H, P)", ctx)
        assert term == Encap(frozenset({"a", "b"}), ProcVar("P"))

    def test_unknown_name_reported(self, ctx):
        with pytest.raises(SpecError) as exc:
            parse_term("a + zz", ctx)
        assert "unknown action or process 'zz'" in str(exc.value)

    def test_trailing_input_rejected(self, ctx):
        with pytest.raises(SpecError):
            parse_term("a b", ctx)


class TestRoundTrip:
    def test_pretty_parse_identity_on_random_terms(self, ctx):
        rng = random.Random(5)
        gen = TermGen(ctx, rng, max_depth=4)
        for i in range(300):
            t = gen.term()
            if i % 5 == 0:
                t = Encap(frozenset({"a"}), t)
            elif i % 5 == 1:
                t = Encap(frozenset(), t)
            assert parse_term(pretty_term(t), ctx) == t

    def test_an_empty_encapsulation_reparses(self, ctx):
        # the h and h-e samplers of the axiom suites draw empty sets
        t = Encap(frozenset(), Seq(Action("a"), Action("b")))
        assert pretty_term(t) == "encap({}, a . b)"
        assert parse_term(pretty_term(t), ctx) is t

    def test_pretty_examples(self, ctx):
        assert pretty_term(parse_term("a + b . c", ctx)) == "a + b . c"
        assert pretty_term(parse_term("(a + b) . c", ctx)) == "(a + b) . c"
        assert pretty_term(parse_term("[0] -> a(2)", ctx)) == "[0] -> a(2)"

    def test_a_5000_action_sequence_renders(self, ctx):
        src = " . ".join(["a", "b(1)"] * 2500)
        assert pretty_term(parse_term(src, ctx)) == src


class TestDeepTerms:
    """The parser and the printer keep their own stacks."""

    N = 10_000

    @pytest.mark.parametrize("src", [
        "(" * N + "a" + ")" * N,
        "[0] -> " * N + "a",
        "encap({a}, " * N + "b" + ")" * N,
        "a(" + "-" * N + "1)",
        "a(" + "inv(" * N + "1" + ")" * N + ")",
        "[" + "(" * N + "u" + ")" * N + "] -> a",
    ], ids=["parentheses", "guards", "encaps", "minuses", "invs", "quantity parentheses"])
    def test_10000_deep_nesting_parses_and_round_trips(self, ctx, src):
        assert sys.getrecursionlimit() < self.N
        t = parse_term(src, ctx)
        assert parse_term(pretty_term(t), ctx) is t

    def test_what_deep_nesting_parses_to(self, ctx):
        n = self.N
        assert parse_term("(" * n + "a" + ")" * n, ctx) is Action("a")
        t = parse_term("a(" + "-" * n + "1)", ctx).args[0]
        for _ in range(n):
            t = t.arg
        assert t is QOne()
        assert pretty_term(parse_term("[0] -> " * 3 + "a", ctx)) == "[0] -> [0] -> [0] -> a"
