"""Tests for canonical normal forms and the equational theory."""

import itertools
import random
import weakref
from fractions import Fraction

import pytest

from meadowacp import (
    Action,
    ActionLiteral,
    Alt,
    BasicTerm,
    CommMerge,
    DataAction,
    Deadlock,
    Encap,
    Engine,
    Guard,
    LeftMerge,
    OpenTerm,
    Par,
    ProcVar,
    QAdd,
    QConst,
    QNeg,
    QOne,
    QVar,
    QZero,
    Seq,
    TermGen,
    build_lts,
    default_context,
    equal_terms,
    normal_forms,
    normalize,
    parse_spec,
    parse_term,
)
from meadowacp.lts import bisimilar_terms
from meadowacp.normalize import _hnf, guard_chain


a, b, c = Action("a"), Action("b"), Action("c")


class TestNormalForms:
    def test_action_plus_deadlock(self, ctx):
        nf = normalize(Alt(a, Deadlock()), ctx)
        assert str(nf) == "a"
        assert nf == normalize(a, ctx)

    def test_deadlock_prefix_absorbs(self, ctx):
        assert str(normalize(Seq(Deadlock(), a), ctx)) == "delta"
        assert normalize(Seq(Deadlock(), a), ctx).is_deadlock

    def test_idempotence_of_alternative(self, ctx):
        assert normalize(Alt(a, a), ctx) == normalize(a, ctx)

    def test_summands_are_sorted(self, ctx):
        assert str(normalize(Alt(b, a), ctx)) == "a + b"
        assert normalize(Alt(b, a), ctx) == normalize(Alt(a, b), ctx)

    def test_merge_expansion(self, ctx):
        # gamma(a, b) = c, so a || b = a.b + b.a + c
        nf = normalize(Par(a, b), ctx)
        assert str(nf) == "a . b + b . a + c"

    def test_left_merge_first_step_from_left(self, ctx):
        nf = normalize(LeftMerge(a, b), ctx)
        assert str(nf) == "a . b"

    def test_comm_merge_of_atoms(self, ctx):
        assert str(normalize(CommMerge(a, b), ctx)) == "c"
        assert normalize(CommMerge(a, c), ctx).is_deadlock

    def test_guard_enabled_iff_zero(self, ctx):
        # 0 plays the role of "true"
        assert normalize(Guard(QConst(Fraction(0)), a), ctx) == normalize(a, ctx)
        assert normalize(Guard(QConst(Fraction(5)), a), ctx).is_deadlock
        # in F3, the literal 3 evaluates to 0: guard enabled
        assert normalize(Guard(QConst(Fraction(3)), a), ctx) == normalize(a, ctx)

    def test_encapsulation(self, ctx):
        nf = normalize(Encap(frozenset({"a", "b"}), Par(a, b)), ctx)
        assert str(nf) == "c"
        assert normalize(Encap(frozenset({"a"}), a), ctx).is_deadlock

    def test_data_action_args_are_evaluated(self, ctx):
        # 4 = 1 in F3, so send(4) and send(1) coincide
        t1 = DataAction("a", (QConst(Fraction(4)),))
        t2 = DataAction("a", (QConst(Fraction(1)),))
        assert equal_terms(t1, t2, ctx)

    def test_data_comm_requires_matching_tuples(self, ctx):
        d1 = DataAction("a", (QConst(Fraction(2)),))
        d2 = DataAction("b", (QConst(Fraction(2)),))
        d3 = DataAction("b", (QConst(Fraction(1)),))
        assert str(normalize(CommMerge(d1, d2), ctx)) == "c(2)"
        assert normalize(CommMerge(d1, d3), ctx).is_deadlock

    def test_data_comm_arity_mismatch_is_deadlock(self, ctx):
        d1 = DataAction("a", (QConst(Fraction(2)),))
        d2 = DataAction("b", (QConst(Fraction(2)), QConst(Fraction(2))))
        assert normalize(CommMerge(d1, d2), ctx).is_deadlock

    def test_open_terms_rejected(self, ctx):
        with pytest.raises(OpenTerm):
            normalize(ProcVar("P"), ctx)
        with pytest.raises(OpenTerm):
            normalize(Guard(QVar("u"), a), ctx)

    def test_printed_normal_form_round_trip_is_fixed_point(self, ctx):
        rng = random.Random(3)
        gen = TermGen(ctx, rng, max_depth=4)
        for _ in range(200):
            nf = normalize(gen.term(), ctx)
            assert normalize(parse_term(str(nf), ctx), ctx) == nf


class TestEqualTerms:
    def test_commutativity_and_associativity(self, ctx):
        assert equal_terms(Alt(a, b), Alt(b, a), ctx)
        assert equal_terms(Alt(Alt(a, b), c), Alt(a, Alt(b, c)), ctx)

    def test_sequence_does_not_commute(self, ctx):
        assert not equal_terms(Seq(a, b), Seq(b, a), ctx)

    def test_distribution_is_right_only(self, ctx):
        # (a + b) . c = a . c + b . c holds ...
        assert equal_terms(
            Seq(Alt(a, b), c), Alt(Seq(a, c), Seq(b, c)), ctx
        )
        # ... but a . (b + c) != a . b + a . c in bisimulation semantics
        assert not equal_terms(
            Seq(a, Alt(b, c)), Alt(Seq(a, b), Seq(a, c)), ctx
        )


class TestIsAtomic:
    def test_atoms(self, ctx):
        assert normalize(a, ctx).is_atomic
        assert normalize(DataAction("b", (QConst(Fraction(2)),)), ctx).is_atomic

    def test_non_atoms(self, ctx):
        assert not normalize(Deadlock(), ctx).is_atomic
        assert not normalize(Seq(a, b), ctx).is_atomic
        assert not normalize(Alt(a, b), ctx).is_atomic

    def test_comm_merge_of_atoms_is_atomic_when_defined(self, ctx):
        assert normalize(CommMerge(a, b), ctx).is_atomic  # synchronizes into c
        assert not normalize(CommMerge(a, c), ctx).is_atomic  # gamma undefined: delta

    def test_collapsing_alternative_is_atomic(self, ctx):
        assert normalize(Alt(a, a), ctx).is_atomic


class TestGuardAlgebra:
    def test_double_guard_is_conjunction(self, ctx):
        from meadowacp import enumerate_carrier

        for u in enumerate_carrier(ctx.meadow):
            for v in enumerate_carrier(ctx.meadow):
                nested = Guard(u.literal(), Guard(v.literal(), a))
                expect_enabled = u.is_zero and v.is_zero
                assert normalize(nested, ctx).is_deadlock != expect_enabled

    def test_guard_distributes_over_alternative(self, ctx):
        from meadowacp import enumerate_carrier

        for u in enumerate_carrier(ctx.meadow):
            q = u.literal()
            assert equal_terms(
                Guard(q, Alt(a, b)), Alt(Guard(q, a), Guard(q, b)), ctx
            )

    def test_guard_chain_spells_out_t3_12(self, ctx):
        # a(2, 1) | b(2, 0) over F3 = [2 - 2] -> ([1 - 0] -> c(2, 1))
        f3 = ctx.meadow
        us = (f3.from_int(2), f3.one())
        vs = (f3.from_int(2), f3.zero())
        two = QConst(Fraction(2))
        core = DataAction("c", (two, QOne()))
        chain = Guard(QAdd(two, QNeg(two)), Guard(QAdd(QOne(), QNeg(QZero())), core))
        assert guard_chain("c", us, vs) == chain
        residual = Par(a, b)
        with_residual = guard_chain("c", us, vs, residual)
        assert with_residual.body.body == Seq(core, residual)

    def test_guard_chain_refuses_unequal_arities(self, ctx):
        u, v = ctx.meadow.one(), ctx.meadow.zero()
        with pytest.raises(ValueError):
            guard_chain("c", (u,), (u, v))

    def test_data_actions_of_unequal_arities_do_not_communicate(self, ctx):
        # the arity test comes before the guard-chain cross-check
        one, two = QConst(Fraction(1)), QConst(Fraction(2))
        for args in ((one, two), (two, two)):
            t = CommMerge(DataAction("a", (one,)), DataAction("b", args))
            assert str(normalize(t, ctx, debug_guard_chain=True)) == "delta"


def _reachable_nodes(nf):
    """Every distinct BasicTerm and Summand object reachable from nf."""
    seen = {}
    stack = [nf]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for s in node.summands:
            if id(s) not in seen:
                seen[id(s)] = s
                if s.continuation is not None:
                    stack.append(s.continuation)
    return list(seen.values())


class TestHashConsing:
    def test_reachable_nodes_are_pairwise_unequal(self, ctx):
        # (a + b) . c || a . (b + c)
        t = Par(Seq(Alt(a, b), c), Seq(a, Alt(b, c)))
        nodes = _reachable_nodes(normalize(t, ctx))
        assert len(nodes) == len(set(nodes)) == 24

    def test_equal_terms_gets_one_object_from_one_engine(self, ctx, monkeypatch):
        calls = []
        original = Engine.normalize

        def spy(engine, t):
            nf = original(engine, t)
            calls.append((engine, nf))
            return nf

        monkeypatch.setattr(Engine, "normalize", spy)
        assert equal_terms(Seq(Alt(a, b), c), Alt(Seq(b, c), Seq(a, c)), ctx)
        (engine1, nf1), (engine2, nf2) = calls
        assert engine1 is engine2
        assert nf1 is nf2

    def test_normal_forms_of_two_live_queries_are_one_object(self, ctx):
        t = Par(Alt(a, b), c)
        nf1, nf2 = normalize(t, ctx), normalize(t, ctx)
        assert nf1 is nf2

    def test_no_table_outlives_its_query(self, ctx):
        t = Par(Seq(Alt(a, b), c), Seq(a, Alt(b, c)))
        nf = normalize(t, ctx)
        pair = normal_forms((t, Alt(t, t)), ctx)
        refs = [weakref.ref(nf), weakref.ref(pair[0]), weakref.ref(next(iter(pair[0].summands)))]
        del nf, pair
        assert all(ref() is None for ref in refs)


class TestUnorderedNormalForms:
    def test_queries_never_order_summands(self, ctx, monkeypatch):
        gen = TermGen(ctx, random.Random(11), max_depth=4)
        pairs = [(gen.term(), gen.term()) for _ in range(100)]
        pairs += [(x, Alt(y, x)) for x, y in pairs[:50]]

        def refuse(literal):
            raise AssertionError(f"{literal} was ordered")

        # action keys order summands only when a normal form is printed
        monkeypatch.setattr(ActionLiteral, "sort_key", refuse)
        verdicts = []
        for x, y in pairs:
            nf_x, nf_y = normal_forms((x, y), ctx)
            verdict = equal_terms(x, y, ctx)
            assert verdict == (nf_x is nf_y) == bisimilar_terms(x, y, ctx)
            verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)

    def test_a_basic_term_is_the_set_of_its_summands(self, ctx):
        # by action, then termination first, then a prefix first
        nf = normalize(parse_term("c . a + a . (c + b) + c + a . b", ctx), ctx)
        summands = list(nf.summands)
        assert nf.summands == frozenset(summands) and len(summands) == 4
        for permutation in itertools.permutations(summands):
            built = BasicTerm.of(permutation)
            assert built is nf
            assert str(built) == "a . b + a . (b + c) + c + c . a"

    def test_printed_order_is_the_order_of_nested_keys(self, ctx):
        # the order of the summands' nested key tuples, the lexicographic
        # order of the whole normal form, on terms small enough to recurse
        keys, texts = {}, {}

        def key(s):
            if s not in keys:
                cont = s.continuation
                rest = (0, ()) if cont is None else (1, tuple(sorted(map(key, cont.summands))))
                keys[s] = (s.action.sort_key(), *rest)
            return keys[s]

        def text(bt):
            if bt not in texts:
                parts = []
                for s in sorted(bt.summands, key=key):
                    cont = s.continuation
                    if cont is None:
                        parts.append(str(s.action))
                    else:
                        inner = text(cont) if len(cont.summands) == 1 else f"({text(cont)})"
                        parts.append(f"{s.action} . {inner}")
                texts[bt] = " + ".join(parts) or "delta"
            return texts[bt]

        gen = TermGen(ctx, random.Random(3), max_depth=4)
        for _ in range(150):
            x, y = gen.term(), gen.term()
            nf = normalize(Par(x, y) if gen.rng.random() < 0.3 else Alt(x, y), ctx)
            assert str(nf) == text(nf)


class TestDeepTerms:
    def test_a_parsed_900_action_sequence(self, ctx):
        # hashing and == never recurse, and a normal form renders on a stack
        src = " . ".join(["a"] * 900)
        t = parse_term(src, ctx)
        nf = normalize(t, ctx)
        assert str(nf) == src
        lts = build_lts(t, ctx)
        assert (lts.num_states, len(lts.transitions)) == (901, 900)
        assert equal_terms(t, parse_term(src, ctx), ctx)
        assert not equal_terms(t, parse_term(src + " . b", ctx), ctx)

    def test_the_sum_of_two_900_action_sequences(self, ctx):
        # ordering the two summands for printing walks 900 levels in a loop
        run = " . ".join(["a"] * 900)
        left = parse_term(f"{run} . b + {run} . c", ctx)
        right = parse_term(f"{run} . c + {run} . b", ctx)
        assert str(normalize(right, ctx)) == f"{run} . b + {run} . c"
        assert equal_terms(left, right, ctx)
        assert not equal_terms(left, parse_term(f"{run} . b + {run} . a", ctx), ctx)


class TestSequencesModuloAssociativity:
    def test_a_varied_sequence_is_linear_in_the_normal_form_route(self, ctx):
        rng = random.Random(18)
        actions = [rng.choice((a, b, c)) for _ in range(400)]
        left, right = actions[0], actions[-1]
        for x in actions[1:]:
            left = Seq(left, x)
        for x in reversed(actions[:-1]):
            right = Seq(x, right)
        engine = Engine(ctx)
        nf = engine.normalize(left)
        assert len(engine.hnf_cache) <= 2 * len(actions) + 10
        assert nf is normalize(right, ctx)
        assert str(nf) == " . ".join(x.name for x in actions)

    def test_the_oracle_steps_the_sequence_as_written(self):
        ctx = parse_spec("act a, b, c, d;\n")
        lts = build_lts(parse_term("a . b . c . d", ctx), ctx)
        assert lts.terms[1] is Seq(Seq(Action("b"), Action("c")), Action("d"))


class TestMergeRule:
    def test_merge_hnf_is_cm1(self, ctx):
        # x || y = x |_ y + y |_ x + x | y, at the level of head normal forms
        gen = TermGen(ctx, random.Random(5), max_depth=3)
        for _ in range(200):
            x, y = gen.term(), gen.term()
            expanded = Engine(ctx)
            assert _hnf(Engine(ctx), Par(x, y)) == (
                _hnf(expanded, LeftMerge(x, y))
                | _hnf(expanded, LeftMerge(y, x))
                | _hnf(expanded, CommMerge(x, y))
            )

    def test_merge_builds_no_merge_operator_terms(self, ctx):
        engine = Engine(ctx)
        engine.normalize(parse_term("a . b || b . c || c . a", ctx))
        assert not any(isinstance(k, (LeftMerge, CommMerge)) for k in engine.hnf_cache)
