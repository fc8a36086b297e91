"""Tests for LTS construction and the bisimulation oracle."""

import importlib
import random
import time
from functools import partial

import pytest

from meadowacp import (
    LTS,
    Action,
    ActionLiteral,
    Alt,
    CommMerge,
    Deadlock,
    Encap,
    LeftMerge,
    Par,
    Seq,
    TermGen,
    bisimilar,
    build_lts,
    default_context,
    equal_terms,
    parse_term,
    to_dot,
)
from meadowacp import lts as lts_module
from meadowacp import speclang
from meadowacp.lts import bisimilar_terms
from test_normalize import differential_terms


a, b, c = Action("a"), Action("b"), Action("c")
normalize_module = importlib.import_module("meadowacp.normalize")


def operator_terms(ctx, seed: int):
    """A seeded maker of terms over every operator, encap among them, with
    data actions that synchronize with equal and with unequal data."""
    rng = random.Random(seed)
    gen = TermGen(ctx, rng, max_depth=2)
    data = [parse_term(src, ctx) for src in ("a(1)", "b(1)", "b(2)", "a(1 + 1) . c", "b(2) . a")]
    hides = [frozenset(), frozenset({"a"}), frozenset({"b", "c"})]

    def term(depth):
        if depth == 0:
            return rng.choice(data) if rng.random() < 0.4 else gen.term()
        op = rng.randrange(6)
        if op == 5:
            return Encap(rng.choice(hides), term(depth - 1))
        return (Alt, Seq, Par, LeftMerge, CommMerge)[op](term(depth - 1), term(depth - 1))

    return term


class TestBuildLts:
    def test_single_action(self, ctx):
        lts = build_lts(a, ctx)
        assert lts.num_states == 2
        assert lts.done is not None
        (src, label, dst), = lts.transitions
        assert (src, str(label), dst) == (0, "a", lts.done)

    def test_deadlock_has_no_transitions(self, ctx):
        lts = build_lts(Deadlock(), ctx)
        assert lts.num_states == 1
        assert lts.transitions == set()
        assert lts.done is None

    def test_done_state_is_shared_and_absorbing(self, ctx):
        lts = build_lts(Alt(a, b), ctx)
        assert lts.num_states == 2  # initial + done
        targets = {q for (_, _, q) in lts.transitions}
        assert targets == {lts.done}
        assert all(p != lts.done for p, _, _ in lts.transitions)

    def test_merge_of_two_actions(self, ctx):
        # a || b: initial state, residuals a and b, and Done; the
        # synchronized step c jumps straight to Done
        lts = build_lts(Par(a, b), ctx)
        assert lts.num_states == 4
        assert lts.done is not None
        labels_from_initial = sorted(
            str(act) for (p, act, _) in lts.transitions if p == 0
        )
        assert labels_from_initial == ["a", "b", "c"]

    def test_sequence_chains_states(self, ctx):
        lts = build_lts(Seq(a, Seq(b, c)), ctx)
        assert lts.num_states == 4  # abc, bc, c, done
        assert len(lts.transitions) == 3

    def test_states_and_transitions_are_the_steps_of_step(self, ctx):
        # the states are the terms that _step reaches from t, and Done if
        # a step reaches it; a state's transitions are its _step pairs
        gen, term = TermGen(ctx, random.Random(27), max_depth=4), operator_terms(ctx, 27)
        terms = [gen.term() for _ in range(300)] + [term(2) for _ in range(300)]
        table = {}
        for t in terms + differential_terms(ctx):
            lts = build_lts(t, ctx)
            reachable, work = {t}, [t]
            while work:
                for _, k in lts_module._step(ctx, table, work.pop()):
                    if k is not None and k not in reachable:
                        reachable.add(k)
                        work.append(k)
            assert lts.terms[0] == t and len(set(lts.terms)) == lts.num_states
            assert set(lts.terms) - {None} == reachable
            assert (lts.done is None) == (None not in lts.terms)
            number = {s: i for i, s in enumerate(lts.terms)}
            assert lts.transitions == {(number[s], a, number[k]) for s in reachable
                                       for a, k in lts_module._step(ctx, table, s)}, t


class TestBisimilar:
    def test_idempotence(self, ctx):
        assert bisimilar(build_lts(Alt(a, a), ctx), build_lts(a, ctx))

    def test_termination_distinguished_from_deadlock(self, ctx):
        assert not bisimilar(build_lts(a, ctx), build_lts(Seq(a, Deadlock()), ctx))

    def test_left_distribution_fails(self, ctx):
        # the classic non-law: a.(b + c) is not bisimilar to a.b + a.c
        lhs = build_lts(Seq(a, Alt(b, c)), ctx)
        rhs = build_lts(Alt(Seq(a, b), Seq(a, c)), ctx)
        assert not bisimilar(lhs, rhs)

    def test_merge_expansion_law(self, ctx):
        lhs = build_lts(Par(a, b), ctx)
        rhs = build_lts(Alt(Alt(Seq(a, b), Seq(b, a)), c), ctx)
        assert bisimilar(lhs, rhs)

    def test_shares_no_rule_with_the_normal_forms(self, ctx, monkeypatch):
        # criterion 7 plays equal_terms against bisimilar(build_lts ...):
        # with the normal forms' step and merge rules refused, the oracle
        # still decides pairs with data communications and encap, as the
        # normal forms do
        term = operator_terms(ctx, 27)
        pairs = [(term(2), term(2)) for _ in range(300)]
        pairs += [(CommMerge(x, y), CommMerge(y, x)) for x, y in pairs[:100]]
        by_nf = [equal_terms(x, y, ctx) for x, y in pairs]
        assert 0 < sum(by_nf) < len(pairs)

        def refuse(*args):
            raise AssertionError("a rule of the normal forms was called")

        for name in ("_hnf", "_merge", "_sync"):
            monkeypatch.setattr(normalize_module, name, refuse)
        by_lts = [bisimilar(build_lts(x, ctx), build_lts(y, ctx)) for x, y in pairs]
        assert by_lts == by_nf

    def test_equivalence_relation_on_random_terms(self, ctx):
        rng = random.Random(11)
        gen = TermGen(ctx, rng, max_depth=3)
        for _ in range(60):
            x = build_lts(gen.term(), ctx)
            y = build_lts(gen.term(), ctx)
            z = build_lts(gen.term(), ctx)
            assert bisimilar(x, x)  # reflexive
            assert bisimilar(x, y) == bisimilar(y, x)  # symmetric
            if bisimilar(x, y) and bisimilar(y, z):  # transitive
                assert bisimilar(x, z)


class TestBisimilarTerms:
    """The oracle's verdict on two terms, on their one joint state space."""

    def test_agrees_with_bisimilar_on_the_two_lts(self, ctx):
        rng = random.Random(4)
        gen = TermGen(ctx, rng, max_depth=4)
        for _ in range(1000):
            t1, t2 = gen.term(), gen.term()
            for lhs, rhs in ((t1, t2), (t1, t1), (t1, Alt(t1, t1))):
                by_lts = bisimilar(build_lts(lhs, ctx), build_lts(rhs, ctx))
                assert bisimilar_terms(lhs, rhs, ctx) == by_lts

    def test_each_term_reachable_from_either_side_is_stepped_once(self, ctx, monkeypatch):
        # every state is handed to _classes's steps once, and _step computes
        # the transitions of each term once, in the one table of the query
        states, computed = [], []
        real_classes, real_step = lts_module._classes, lts_module._step

        def classes(roots, steps, *tables):
            return real_classes(roots, lambda s: states.append(s) or steps(s), *tables)

        def step(ctx, table, t):
            if t not in table:
                computed.append((id(table), t))
            return real_step(ctx, table, t)

        monkeypatch.setattr(lts_module, "_classes", classes)
        monkeypatch.setattr(lts_module, "_step", step)
        rng = random.Random(5)
        gen = TermGen(ctx, rng, max_depth=3)
        for _ in range(20):
            x, y = gen.term(), gen.term()
            lhs, rhs = Alt(x, y), Alt(y, x)
            states.clear()
            computed.clear()
            assert bisimilar_terms(lhs, rhs, ctx)
            assert len(states) == len(set(states))
            assert len(computed) == len(set(computed))
            assert len({table for table, _ in computed}) == 1
            # the states are the terms reachable from either side by _step
            reachable, work, table = set(), [lhs, rhs], {}
            while work:
                t = work.pop()
                if t is not None and t not in reachable:
                    reachable.add(t)
                    work += [k for _, k in real_step(ctx, table, t)]
            assert set(states) == reachable

    def test_a_right_step_of_a_merge_keeps_the_operand_order(self, ctx):
        # on (a . b . c) || (b . c . a) the oracle classes the 16 pairs of
        # the operands' states, 15 besides Done; build_lts, stepping by the
        # same rules, numbers those 15 and Done, and meets no state with the
        # operands swapped
        for src, oracle, numbered in (("(a . b . c) || (b . c . a)", 15, 16),
                                      ("(a . a . a) || (b . b . b) || (c . c . c)", 63, 64)):
            t = parse_term(src, ctx)
            cls = {None: -1}
            lts_module._classes([t], partial(lts_module._step, ctx, {}), cls, {})
            assert (len(cls) - 1, build_lts(t, ctx).num_states) == (oracle, numbered), src

    def test_a_step_reached_twice_is_kept_once(self):
        # P40 = P39 + P39 = ... = a: the definitions share P_i, so a step
        # kept once per path to it would make 2^40 steps of P40
        src = "act a, b;\nproc P0 = a;\n" + "".join(
            f"proc P{i + 1} = P{i} + P{i};\n" for i in range(40))
        ctx = speclang.parse_spec(src)
        table = {}  # P12 first, so that a regression fails before it hangs
        lts_module._step(ctx, table, lts_module.closed_ground_term(parse_term("P12", ctx), ctx))
        assert max(len(steps) for steps in table.values()) == 1
        assert bisimilar_terms(parse_term("P40", ctx), a, ctx)
        assert bisimilar_terms(parse_term("P40 || P40", ctx), Par(a, a), ctx)
        assert not bisimilar_terms(parse_term("P40 || P40", ctx), a, ctx)

    def test_agrees_with_bisimilar_on_merges_encapsulations_and_data(self, ctx):
        # each pair also as x | y against y | x, whose residuals the rules
        # build in two orders
        term = operator_terms(ctx, 26)
        bisimilar_pairs = 0
        for _ in range(1000):
            x, y = term(2), term(2)
            for lhs, rhs in ((CommMerge(x, y), CommMerge(y, x)), (x, y)):
                by_lts = bisimilar(build_lts(lhs, ctx), build_lts(rhs, ctx))
                assert bisimilar_terms(lhs, rhs, ctx) == by_lts, (lhs, rhs)
            bisimilar_pairs += by_lts  # the verdict on x and y
        assert 0 < bisimilar_pairs < 1000


def _chain(n: int) -> LTS:
    """n states in a line, each one step from the next; the last is Done."""
    step = ActionLiteral("a")
    return LTS(n, 0, {(i, step, i + 1) for i in range(n - 1)}, done=n - 1)


class TestBisimilarOnHandBuiltLts:
    def test_a_cycle_is_refused(self):
        step = ActionLiteral("a")
        for transitions in ({(0, step, 0)}, {(0, step, 1), (1, step, 2), (2, step, 1)}):
            cyclic = LTS(3, 0, transitions)
            with pytest.raises(ValueError, match="the LTS has a cycle"):
                bisimilar(cyclic, _chain(2))

    def test_a_long_chain_is_decided_in_one_pass(self):
        # a round per level of depth would make this quadratic, and a
        # recursive walk would raise RecursionError
        start = time.perf_counter()
        assert bisimilar(_chain(2000), _chain(2000))
        assert not bisimilar(_chain(2000), _chain(1999))
        assert time.perf_counter() - start < 1.0

    def test_an_edge_to_a_lower_numbered_state(self, ctx):
        # build_lts numbers a state when it is first reached, so a later
        # state can step to an earlier one; here 2 -> 1
        lit = {name: ActionLiteral(name) for name in "abc"}
        lts = LTS(4, 0, {(0, lit["a"], 2), (2, lit["b"], 1), (1, lit["c"], 3)}, done=3)
        assert bisimilar(lts, build_lts(parse_term("a . b . c", ctx), ctx))
        assert not bisimilar(lts, build_lts(parse_term("a . c . b", ctx), ctx))
        assert not bisimilar(lts, build_lts(parse_term("a . b . c . delta", ctx), ctx))


class TestDot:
    def test_dot_output(self, ctx):
        dot = to_dot(build_lts(a, ctx))
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "doublecircle" in dot  # the Done state
        assert '[label="a"]' in dot

    def test_dot_is_deterministic(self, ctx):
        t = Par(a, b)
        assert to_dot(build_lts(t, ctx)) == to_dot(build_lts(t, ctx))

    def test_dot_of_a_single_path_term(self, ctx):
        t = parse_term("a . (b + c(1)) . [0] -> c", ctx)
        assert to_dot(build_lts(t, ctx)) == "\n".join([
            "digraph lts {",
            "  rankdir=LR;",
            '  n0 [shape=circle, label="a . (b + c(1)) . [0] -> c"];',
            '  n1 [shape=circle, label="(b + c(1)) . [0] -> c"];',
            '  n2 [shape=circle, label="[0] -> c"];',
            '  n3 [shape=doublecircle, label="done"];',
            '  n0 -> n1 [label="a"];',
            '  n1 -> n2 [label="b"];',
            '  n1 -> n2 [label="c(1)"];',
            '  n2 -> n3 [label="c"];',
            "}",
        ])

    def test_dot_of_a_hand_built_lts_numbers_its_states(self):
        lts = LTS(num_states=2, initial=0, transitions={(0, ActionLiteral("a"), 1)}, done=1)
        assert '  n0 [shape=circle, label="0"];' in to_dot(lts)
        assert '  n1 [shape=doublecircle, label="1"];' in to_dot(lts)

    def test_labels_are_rendered_only_by_to_dot(self, ctx, monkeypatch):
        t = parse_term("a . b || b . c", ctx)
        calls = []

        def refuse(term, *args):
            calls.append(term)
            raise AssertionError("pretty_term called")

        monkeypatch.setattr(speclang, "pretty_term", refuse)
        monkeypatch.setattr(speclang, "pretty_prefix", refuse)
        lts = build_lts(t, ctx)
        assert bisimilar(lts, build_lts(t, ctx))
        assert calls == []

    def test_labels_are_pretty_term_cut_to_60_characters(self, ctx):
        rng = random.Random(7)
        gen = TermGen(ctx, rng, max_depth=4)
        terms = [gen.term() for _ in range(150)]
        terms += [parse_term(" . ".join(["a", "b(1)", "c"] * 30), ctx),
                  parse_term("encap({a}, " + " || ".join(["a . b"] * 8) + ")", ctx)]
        long_labels = 0
        for t in terms:
            lts = build_lts(t, ctx)
            lines = to_dot(lts).split("\n")
            for s, term in enumerate(lts.terms):
                if term is None:
                    continue
                text = speclang.pretty_term(term)
                label = text if len(text) <= 60 else text[:57] + "..."
                long_labels += len(text) > 60
                shape = "doublecircle" if s == lts.done else "circle"
                assert lines[2 + s] == f'  n{s} [shape={shape}, label="{label}"];'
        assert long_labels > 100

    def test_labels_of_a_long_sequence_cost_linear_time(self, ctx, monkeypatch):
        # each state's label renders only its first 60 characters, and the
        # states share their subterms: three layouts an action
        layout, calls = speclang._layout, []

        def counting(*args):
            calls.append(args)
            return layout(*args)

        monkeypatch.setattr(speclang, "_layout", counting)
        for n in (450, 900):
            lts = build_lts(parse_term(" . ".join(["a"] * n), ctx), ctx)
            calls.clear()
            to_dot(lts)
            assert len(calls) == 3 * n
