"""Tests for canonical normal forms and the equational theory."""

import importlib
import itertools
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction
from functools import partial

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
    closed_ground_term,
    default_context,
    equal_terms,
    normal_forms,
    normalize,
    parse_spec,
    parse_term,
    pretty_term,
)
from meadowacp import lts as lts_module
from meadowacp import terms as terms_module
from meadowacp.axioms import _check_eq_instance
from meadowacp.lts import bisimilar_terms
from meadowacp.normalize import _hnf, guard_chain

# the package's own `normalize` attribute is the function of that name
normalize_module = importlib.import_module("meadowacp.normalize")


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
    """Every distinct BasicTerm object reachable from nf, and every distinct
    summand of them, summands compared by equality."""
    seen, summands = {}, set()
    stack = [nf]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for s in node.summands:
            summands.add(s)
            if s.continuation is not None:
                stack.append(s.continuation)
    return list(seen.values()), summands


class TestHashConsing:
    def test_reachable_nodes_are_pairwise_unequal(self, ctx):
        # (a + b) . c || a . (b + c)
        t = Par(Seq(Alt(a, b), c), Seq(a, Alt(b, c)))
        basic_terms, summands = _reachable_nodes(normalize(t, ctx))
        assert len(basic_terms) == len(set(basic_terms))
        assert len(basic_terms) + len(summands) == 24

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
        cont = next(iter(pair[0].summands)).continuation
        refs = [weakref.ref(nf), weakref.ref(pair[0]), weakref.ref(cont)]
        del nf, pair, cont
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
            built = BasicTerm(frozenset(permutation))
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


    def test_a_900_action_sequence_merged_with_b(self, ctx):
        # the merge of normal forms recurses from plain loops, one frame a level
        assert sys.getrecursionlimit() == 1000
        run = parse_term(" . ".join(["a"] * 900), ctx)
        nf = normalize(Par(run, b), ctx)
        tail = normalize(parse_term(" . ".join(["a"] * 899), ctx), ctx)
        rest = {s.action.name: s.continuation for s in nf.summands if s.action.name != "a"}
        same = rest == {"b": normalize(run, ctx), "c": tail}
        assert same
        equivalent, nf_lhs, nf_rhs = _check_eq_instance(Par(run, b), Par(b, run), ctx)
        same = nf_lhs is nf_rhs is nf
        assert equivalent and same

    def test_printing_keeps_a_node_text_only_until_its_last_use(self, ctx):
        # the text of a^400 || b is quadratic in 400; the text of every
        # node of its chain together would be cubic
        nf = normalize(Par(parse_term(" . ".join(["a"] * 400), ctx), b), ctx)
        tracemalloc.start()
        try:
            text = str(nf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 645_599
        assert peak < 8 * len(text)


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

    def test_a_sequence_under_encap_is_linear_in_the_normal_form_route(self, ctx):
        # A5 is a rule of the hnf step, so the residuals of a sequence are
        # right-nested under any operator: each action adds one sequence and
        # one encap to the table, not a whole left spine
        n = 400
        rng = random.Random(31)
        seq = " . ".join(rng.choice("ab") for _ in range(n))
        engine = Engine(ctx)
        nf = engine.normalize(parse_term(f"encap({{c}}, {seq})", ctx))
        assert len(engine.hnf_cache) <= 2 * n + 1
        assert str(nf) == seq

    def test_the_oracle_steps_the_sequence_as_written(self):
        ctx = parse_spec("act a, b, c, d;\n")
        t = parse_term("a . b . c . d", ctx)
        rest = Seq(Seq(Action("b"), Action("c")), Action("d"))
        assert build_lts(t, ctx).terms[1] is rest
        assert list(lts_module._step(ctx, {}, t)) == [(ActionLiteral("a"), rest)]


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


# The hnf rules as they were written before the step kernel dispatched on
# the exact class and read the table before recursing: isinstance tests,
# a call for every operand, heads built by dict.fromkeys. Kept verbatim as
# the reference that the kernel must match, but for the guard-chain
# cross-check, which compares the actions of the bare chain's hnf, as `_sync`
# does.
REFERENCE_STEPPER = '''
def _left_merge(head: Hnf, rhs: ProcessTerm) -> Hnf:
    """The hnf of x |_ rhs, given the hnf of x."""
    return dict.fromkeys((a, rhs if k is None else Par(k, rhs)) for a, k in head)


def _comm_merge(engine: "Engine", left: Hnf, right: Hnf) -> Hnf:
    """The hnf of x | y, given the hnfs of x and y: two head summands
    synchronize when gamma is defined on their names and their data are
    equal (t3.12); every other pair is dropped."""
    comm = engine.ctx.comm
    acc: Hnf = {}
    for a1, k1 in left:
        for a2, k2 in right:
            name = comm.get((a1.name, a2.name))
            if name is None or len(a1.args) != len(a2.args):
                continue
            residual = k2 if k1 is None else k1 if k2 is None else Par(k1, k2)
            direct: Hnf = {}
            if a1.args == a2.args:
                direct[(ActionLiteral(name, a1.args), residual)] = None
            if engine.debug_guard_chain and a1.args:
                # the chain holds no communication merge, so the cross-check cannot recurse
                chain = [a for a, _ in _hnf(engine, guard_chain(name, a1.args, a2.args))]
                if chain != [a for a, _ in direct]:
                    raise GuardChainMismatch(
                        f"{a1} | {a2}: direct route {{{', '.join(str(a) for a, _ in direct)}}} "
                        f"vs guard chain {{{', '.join(map(str, chain))}}}"
                    )
            acc |= direct
    return acc


def _hnf(engine: "Engine", t: ProcessTerm) -> Hnf:
    cache = engine.hnf_cache
    hit = cache.get(t)
    if hit is not None:
        return hit

    ctx = engine.ctx
    if isinstance(t, Deadlock):
        out: Hnf = {}
    elif isinstance(t, Action):
        out = {(ActionLiteral(t.name), None): None}
    elif isinstance(t, DataAction):
        vals = tuple(eval_quantity(q, {}, ctx.meadow) for q in t.args)
        out = {(ActionLiteral(t.name, vals), None): None}
    elif isinstance(t, Alt):
        out = _hnf(engine, t.lhs) | _hnf(engine, t.rhs)
    elif isinstance(t, Seq):
        out = dict.fromkeys(
            (a, t.rhs if k is None else Seq(k, t.rhs)) for a, k in _hnf(engine, t.lhs)
        )
    elif isinstance(t, Par):
        # x || y = x |_ y + y |_ x + x | y, from one hnf of each operand
        left = _hnf(engine, t.lhs)
        right = _hnf(engine, t.rhs)
        out = (
            _left_merge(left, t.rhs)
            | _left_merge(right, t.lhs)
            | _comm_merge(engine, left, right)
        )
    elif isinstance(t, LeftMerge):
        out = _left_merge(_hnf(engine, t.lhs), t.rhs)
    elif isinstance(t, CommMerge):
        out = _comm_merge(engine, _hnf(engine, t.lhs), _hnf(engine, t.rhs))
    elif isinstance(t, Encap):
        out = dict.fromkeys(
            (a, k if k is None else Encap(t.hide, k))
            for a, k in _hnf(engine, t.body)
            if a.name not in t.hide
        )
    elif isinstance(t, Guard):
        cond = eval_quantity(t.cond, {}, ctx.meadow)
        out = _hnf(engine, t.body) if cond.is_zero else {}
    elif isinstance(t, ProcVar):
        raise OpenTerm(f"free process variable: {t.name}")
    else:
        raise TypeError(f"not a process term: {t!r}")

    cache[t] = out
    return out
'''


def reference_hnf():
    """The reference `_hnf`, compiled in a copy of the normalize module's
    namespace, so that it recurses into itself and its own merge rules."""
    namespace = dict(vars(normalize_module))
    exec(REFERENCE_STEPPER, namespace)
    return namespace["_hnf"]


def differential_terms(ctx):
    """3000 seeded TermGen terms, then hand-built left and communication
    merges, encapsulations, guards and data terms over them."""
    gen = TermGen(ctx, random.Random(22), max_depth=3)
    base = [gen.term() for _ in range(3000)]
    one, two = QOne(), QAdd(QOne(), QOne())
    data = [DataAction("a", (two,)), DataAction("b", (QConst(Fraction(2)),)),
            DataAction("b", (one,)), DataAction("a", (one, two)), DataAction("b", (two, two))]
    hand = list(itertools.product(data, data))
    hand = [CommMerge(x, y) for x, y in hand] + [Par(x, y) for x, y in hand]
    for x, y in zip(base[:200:2], base[1:200:2]):
        hand += [
            LeftMerge(x, y),
            CommMerge(x, y),
            CommMerge(Alt(x, y), y),
            LeftMerge(CommMerge(x, y), y),
            Encap(frozenset({"a"}), Par(x, y)),
            Encap(frozenset(), Seq(x, y)),
            Guard(QAdd(one, QNeg(one)), Alt(x, y)),
            Guard(two, Par(x, y)),
            Seq(Guard(QZero(), x), CommMerge(y, x)),
        ]
    return base + hand


class TestLeanStepKernel:
    """The step kernel against the reference stepper: the same head actions,
    in the same order, and the same normal form for each residual and for
    the term. The kernel steps a sequence right-nested (A5) and the
    reference as it is written, so their residuals differ as terms."""

    @pytest.mark.parametrize("debug", [False, True], ids=["plain", "guard-chain"])
    def test_heads_and_normal_forms_match_the_reference(self, ctx, monkeypatch, debug):
        reference = reference_hnf()
        kernel = normalize_module._hnf
        for t in differential_terms(ctx):
            engines = []
            for hnf in (kernel, reference):
                monkeypatch.setattr(normalize_module, "_hnf", hnf)
                engine = Engine(ctx, debug_guard_chain=debug)
                heads = list(hnf(engine, t))
                engines.append(([a for a, _ in heads],
                                [k if k is None else engine.normalize(k) for _, k in heads],
                                engine.normalize(t)))
            assert engines[0] == engines[1], t


# Engine._normalize as it was before a merge became the merge of its
# operands' normal forms: every operator, the merge too, stepped through
# _hnf over its syntactic residuals. Kept verbatim as the reference that
# the normal-form route must match.
REFERENCE_NORMALIZE = '''
    def _normalize(self, t: ProcessTerm) -> BasicTerm:
        nf = self._nf
        hit = nf.get(t)
        if hit is not None:
            return hit
        if type(t) is Seq and type(t.lhs) is Seq:
            # A5: (x . y) . z has the normal form of x . (y . z); stepping the
            # whole left spine right-nested keeps a sequence linear, while
            # the oracle still steps t as it is written
            x, rest = t.lhs, t.rhs
            while type(x) is Seq:
                x, rest = x.lhs, Seq(x.rhs, rest)
            out = nf[t] = self._normalize(Seq(x, rest))
            return out
        summands = []
        for a, k in self.hnf_cache.get(t) or _hnf(self, t):
            summands.append(Summand(a, k if k is None else nf.get(k) or self._normalize(k)))
        out = nf[t] = BasicTerm(frozenset(summands))
        return out
'''


def reference_engine():
    """An Engine whose `_normalize` is the reference, compiled in a copy of
    the normalize module's namespace."""
    namespace = dict(vars(normalize_module))
    exec("class ReferenceEngine(Engine):" + REFERENCE_NORMALIZE, namespace)
    return namespace["ReferenceEngine"]


FIVE_WAY_MERGE = " || ".join(["((a . b + c . a) . (b + c))"] * 5)


class TestMergeOfNormalForms:
    """A merge's normal form is the merge of its operands' normal forms: the
    same object as stepping the merge through _hnf gives."""

    @pytest.mark.parametrize("debug", [False, True], ids=["plain", "guard-chain"])
    def test_normal_forms_match_the_reference(self, ctx, debug):
        reference = reference_engine()
        gen = TermGen(ctx, random.Random(23), max_depth=5)
        # the first term that differs, not the normal forms: the repr of a
        # normal form unfolds its DAG
        differs = next((t for t in differential_terms(ctx) + [gen.term() for _ in range(1000)]
                        if Engine(ctx, debug_guard_chain=debug).normalize(t)
                        is not reference(ctx, debug_guard_chain=debug).normalize(t)), None)
        assert differs is None, pretty_term(differs)

    def test_a_five_way_merge_merges_each_pair_of_normal_forms_once(self, ctx):
        t = parse_term(FIVE_WAY_MERGE, ctx)
        stepped = reference_engine()(ctx)
        engine = Engine(ctx)
        same = engine.normalize(t) is stepped.normalize(t)
        assert same
        assert len(stepped.hnf_cache) == 5210
        assert len(engine.hnf_cache) <= 20 and len(engine._merges) <= 600


# Terms whose part X can never act: random axiom instances carry such parts,
# and an eager route that normalised them raised axioms-spec p50 by 17-32%.
LAZY_SPEC = "act a, b, c;\ncomm a | b = c;\nproc X = " + " || ".join(["(a . b . c)"] * 8) + ";\n"
LAZY_TERMS = ["encap({b}, b . X)", "delta . X", "a(1) | b(2) . X", "(a(1) | b(2)) . X",
              "[1] -> X", "delta |_ X", "encap({a, b}, a . X || b(1) . X)"]


def test_both_routes_leave_a_part_that_cannot_act_unstepped():
    ctx = parse_spec(LAZY_SPEC)
    x = closed_ground_term(parse_term("X", ctx), ctx)
    for src in LAZY_TERMS:
        t = closed_ground_term(parse_term(src, ctx), ctx)
        engine, table = Engine(ctx), {}
        engine.normalize(t)
        # the oracle's pass, as `bisimilar_terms` makes it, in a table of our own
        lts_module._classes([t], partial(lts_module._step, ctx, table), {None: -1}, {})
        assert x not in engine.hnf_cache and x not in engine._nf, src
        assert x not in table, src


PROCESS_TERM_EXAMPLES = {
    Deadlock: Deadlock(),
    Action: a,
    DataAction: DataAction("a", (QOne(),)),
    Alt: Alt(a, b),
    Seq: Seq(a, b),
    Par: Par(a, b),
    LeftMerge: LeftMerge(a, b),
    CommMerge: CommMerge(a, b),
    Encap: Encap(frozenset({"a"}), a),
    Guard: Guard(QZero(), a),
    ProcVar: ProcVar("X"),
}


def test_every_process_term_class_reaches_a_rule(ctx):
    # _hnf dispatches on the exact class, so no node class may be subclassed
    classes = {v for v in vars(terms_module).values()
               if isinstance(v, type) and issubclass(v, terms_module.ProcessTerm)}
    assert classes - {terms_module.ProcessTerm} == set(PROCESS_TERM_EXAMPLES)
    for cls, t in PROCESS_TERM_EXAMPLES.items():
        assert type(t) is cls and not cls.__subclasses__()
        if cls is ProcVar:
            with pytest.raises(OpenTerm):
                _hnf(Engine(ctx), t)
        else:
            assert isinstance(_hnf(Engine(ctx), t), dict)
    with pytest.raises(TypeError):
        _hnf(Engine(ctx), QOne())
