"""Tests for LTS construction and the bisimulation oracle."""

import random
import time

import pytest

from meadowacp import (
    LTS,
    Action,
    ActionLiteral,
    Alt,
    Deadlock,
    Par,
    Seq,
    TermGen,
    bisimilar,
    build_lts,
    default_context,
    parse_term,
    to_dot,
)
from meadowacp import lts as lts_module
from meadowacp import speclang
from meadowacp.lts import bisimilar_terms


a, b, c = Action("a"), Action("b"), Action("c")


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
        stepped = []
        real = lts_module._hnf
        monkeypatch.setattr(
            lts_module, "_hnf", lambda engine, t: stepped.append((engine, t)) or real(engine, t)
        )
        rng = random.Random(5)
        gen = TermGen(ctx, rng, max_depth=3)
        for _ in range(20):
            x, y = gen.term(), gen.term()
            lhs, rhs = Alt(x, y), Alt(y, x)
            states = {t for side in (lhs, rhs) for t in build_lts(side, ctx).terms} - {None}
            stepped.clear()
            assert bisimilar_terms(lhs, rhs, ctx)
            terms = [t for _, t in stepped]
            assert len({engine for engine, _ in stepped}) == 1
            assert len(terms) == len(set(terms))
            assert set(terms) == states


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
