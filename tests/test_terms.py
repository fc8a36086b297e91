"""Tests for the process-term syntax layer and communication functions."""

import copy
import gc
import inspect
import itertools
import os
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

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
    Guard,
    LeftMerge,
    MeadowKind,
    OpenTerm,
    Par,
    ProcVar,
    ProcessError,
    ProcessTerm,
    QAdd,
    QConst,
    QInv,
    QMul,
    QNeg,
    QOne,
    QuantityTerm,
    QVar,
    QZero,
    Seq,
    SpecContext,
    Summand,
    TermGen,
    build_lts,
    closed_ground_term,
    free_process_vars,
    free_quantity_vars,
    inline_definitions,
    normalize,
    validate_comm_spec,
)
from meadowacp import meadow, terms
from meadowacp.terms import free_vars


def _chain(n, tail):
    """a . a . ... . a . tail with n actions, built without recursion."""
    t = tail
    for _ in range(n):
        t = Seq(Action("a"), t)
    return t


def _quantity_sum(n, bottom):
    """bottom + 1 + ... + 1 with n ones, built without recursion."""
    q = bottom
    for _ in range(n):
        q = QAdd(q, QOne())
    return q


def _visited(monkeypatch):
    """The objects that the walks of terms test by isinstance, from now on:
    a node the walks skip as marked does not show."""
    seen = []
    monkeypatch.setattr(
        terms, "isinstance", lambda obj, cls: seen.append(obj) or isinstance(obj, cls),
        raising=False,
    )
    return seen


class TestCommSpec:
    """gamma is a plain map in the context, made symmetric once."""

    def test_the_context_holds_every_pair_in_both_orders(self):
        given = {("a", "b"): "c"}
        ctx = SpecContext(frozenset("abc"), given)
        assert ctx.comm == {("a", "b"): "c", ("b", "a"): "c"}
        assert ctx.comm.get(("a", "c")) is None
        assert given == {("a", "b"): "c"}  # the caller's map is left as it was

    def test_a_pair_given_with_two_results_is_rejected(self):
        with pytest.raises(ValueError, match=r"^communication a \| b given as 'c' and as 'd'$"):
            SpecContext(frozenset("abcd"), {("a", "b"): "c", ("b", "a"): "d"})
        both = {("a", "b"): "c", ("b", "a"): "c"}
        assert SpecContext(frozenset("abc"), both).comm == both

    def test_validate_symmetric_spec(self):
        ctx = SpecContext(frozenset("abc"), {("a", "b"): "c"})
        assert validate_comm_spec(ctx.comm, ctx.alphabet) == []

    def test_validate_detects_associativity_violation(self):
        # gamma(gamma(a,b),d) = gamma(c,d) = e but gamma(a,gamma(b,d)) = delta
        ctx = SpecContext(frozenset("abcde"), {("a", "b"): "c", ("c", "d"): "e"})
        violations = validate_comm_spec(ctx.comm, ctx.alphabet)
        assert violations
        assert all(v.startswith("associativity violation at ") for v in violations)

    def test_validation_is_idempotent(self):
        ctx = SpecContext(frozenset("abc"), {("a", "b"): "c"})
        before = dict(ctx.comm)
        r1 = validate_comm_spec(ctx.comm, ctx.alphabet)
        r2 = validate_comm_spec(ctx.comm, ctx.alphabet)
        assert ctx.comm == before
        assert r1 == r2 == []


def _violations_of_every_triple(comm, alphabet):
    """The reference for validate_comm_spec: every triple over the alphabet."""
    names = sorted(alphabet)
    violations = []
    for a, b, c in itertools.product(names, repeat=3):
        ab, bc = comm.get((a, b)), comm.get((b, c))
        left = comm.get((ab, c)) if ab is not None else None
        right = comm.get((a, bc)) if bc is not None else None
        if left != right:
            violations.append(f"associativity violation at ({a},{b},{c}): "
                              f"{left or 'delta'} != {right or 'delta'}")
    return violations


class TestCommValidation:
    """validate_comm_spec checks only the triples that can fail."""

    @pytest.mark.parametrize("seed", range(40))
    def test_it_agrees_with_the_check_of_every_triple(self, seed):
        rng = random.Random(seed)
        alphabet = [f"a{i}" for i in range(rng.randint(1, 7))]
        names = alphabet + ["x", "y"]  # pairs and results outside the alphabet too
        comm = {}
        for _ in range(rng.randint(0, 12)):
            comm[(rng.choice(names), rng.choice(names))] = rng.choice(names)
        if rng.random() < 0.5:
            comm.update({(b, a): c for (a, b), c in list(comm.items())})
        assert validate_comm_spec(comm, alphabet) == _violations_of_every_triple(comm, alphabet)

    def test_lookups_are_bounded_by_the_defined_pairs_times_the_alphabet(self):
        class Counting(dict):
            lookups = 0

            def get(self, key, default=None):
                Counting.lookups += 1
                return super().get(key, default)

            def __getitem__(self, key):
                Counting.lookups += 1
                return super().__getitem__(key)

            def __contains__(self, key):
                Counting.lookups += 1
                return super().__contains__(key)

        alphabet = [f"a{i:03}" for i in range(200)]
        ctx = SpecContext(frozenset(alphabet), {("a000", "a001"): "a002", ("a002", "a003"): "a004"})
        comm = Counting(ctx.comm)
        assert validate_comm_spec(comm, alphabet) == [
            f"associativity violation at ({a},{b},{c}): {left} != {right}"
            for a, b, c, left, right in [("a000", "a001", "a003", "a004", "delta"),
                                         ("a001", "a000", "a003", "a004", "delta"),
                                         ("a003", "a000", "a001", "delta", "a004"),
                                         ("a003", "a001", "a000", "delta", "a004")]]
        assert 0 < Counting.lookups <= 8 * len(comm) * len(alphabet)


class TestFreeVariables:
    def test_free_process_vars(self):
        t = Alt(Seq(ProcVar("P"), Action("a")), Par(ProcVar("Q"), Deadlock()))
        assert free_process_vars(t) == frozenset({"P", "Q"})
        assert free_process_vars(Action("a")) == frozenset()

    def test_free_quantity_vars(self):
        t = Guard(QVar("u"), DataAction("a", (QVar("v"), QZero())))
        assert free_quantity_vars(t) == frozenset({"u", "v"})
        assert free_quantity_vars(Action("a")) == frozenset()

    def test_deep_terms_do_not_exhaust_the_stack(self):
        t = _chain(10_000, Par(ProcVar("P"), Guard(QVar("u"), DataAction("a", (QVar("v"),)))))
        assert free_process_vars(t) == frozenset({"P"})
        assert free_quantity_vars(t) == frozenset({"u", "v"})

    def test_each_distinct_node_is_visited_once(self, monkeypatch):
        # over 2**40 nodes when unfolded, 45 distinct ones
        leaf = Guard(QVar("u"), DataAction("shared", (QVar("v"),)))
        t = leaf
        for _ in range(40):
            t = Par(t, ProcVar("P") if t is leaf else t)
        visited = _visited(monkeypatch)
        assert free_vars(t) == (frozenset({"P"}), frozenset({"u", "v"}))
        nodes = {leaf, leaf.cond, leaf.body, leaf.body.args[0], ProcVar("P")}
        node = t
        while node is not leaf:
            nodes.add(node)
            node = node.lhs
        assert set(visited) == nodes and len(nodes) == 45
        assert len(visited) < 10 * len(nodes)


class TestDefinitions:
    def _ctx(self):
        return SpecContext(
            alphabet=frozenset({"a", "b"}),
            definitions={
                "P": Seq(Action("a"), ProcVar("Q")),
                "Q": Alt(Action("b"), Deadlock()),
            },
        )

    def test_inline_chain(self):
        t = inline_definitions(ProcVar("P"), self._ctx())
        assert t == Seq(Action("a"), Alt(Action("b"), Deadlock()))
        hide = frozenset({"a"})
        t = inline_definitions(Encap(hide, Guard(QZero(), ProcVar("Q"))), self._ctx())
        assert t == Encap(hide, Guard(QZero(), Alt(Action("b"), Deadlock())))

    def test_inline_non_strict_keeps_unknown(self):
        t = inline_definitions(Alt(ProcVar("R"), ProcVar("Q")), self._ctx())
        assert t == Alt(ProcVar("R"), Alt(Action("b"), Deadlock()))

    def test_inline_without_definitions_returns_the_term(self):
        ctx = SpecContext(alphabet=frozenset({"a"}))
        t = Alt(Seq(Action("a"), ProcVar("R")), Deadlock())
        assert inline_definitions(t, ctx) is t

    def test_inline_without_references_returns_the_term(self):
        t = Par(Seq(Action("a"), Action("b")), Guard(QZero(), Encap(frozenset({"a"}), Deadlock())))
        assert inline_definitions(t, self._ctx()) is t

    def test_cyclic_definitions_raise_naming_the_cycle(self):
        ctx = SpecContext(
            alphabet=frozenset({"a"}),
            definitions={
                "P": Seq(Action("a"), ProcVar("Q")),
                "Q": ProcVar("P"),
                "S": ProcVar("S"),
            },
        )
        for query in (inline_definitions, normalize, build_lts):
            with pytest.raises(ProcessError, match=r"^cyclic definitions: P -> Q -> P$"):
                query(Alt(Action("a"), ProcVar("P")), ctx)
        with pytest.raises(ProcessError, match=r"^cyclic definitions: Q -> P -> Q$"):
            inline_definitions(ProcVar("Q"), ctx)
        with pytest.raises(ProcessError, match=r"^cyclic definitions: S -> S$"):
            inline_definitions(Seq(Action("a"), ProcVar("S")), ctx)

    def test_a_definition_used_twice_is_no_cycle(self):
        ctx = SpecContext(
            alphabet=frozenset({"a"}),
            definitions={"P": Action("a"), "Q": Par(ProcVar("P"), ProcVar("P"))},
        )
        assert inline_definitions(ProcVar("Q"), ctx) == Par(Action("a"), Action("a"))


class TestGate:
    """closed_ground_term: the one check every query makes of its term."""

    _ctx = TestDefinitions._ctx

    def test_gate_rejects_an_undefined_name(self):
        with pytest.raises(OpenTerm, match=r"^free process variables: \['R'\]$"):
            closed_ground_term(Seq(ProcVar("P"), ProcVar("R")), self._ctx())

    def test_gate_rejects_an_undefined_name_without_definitions(self):
        ctx = SpecContext(alphabet=frozenset({"a"}))
        with pytest.raises(OpenTerm, match=r"^free process variables: \['R'\]$"):
            closed_ground_term(Seq(Action("a"), ProcVar("R")), ctx)

    def test_gate_rejects_a_free_quantity_variable(self):
        t = Guard(QVar("u"), DataAction("a", (QVar("v"),)))
        with pytest.raises(OpenTerm, match=r"^free quantity variables: \['u', 'v'\]$"):
            closed_ground_term(t, self._ctx())

    def test_gate_inlines_and_records_the_result(self, monkeypatch):
        ctx = self._ctx()
        t = Par(ProcVar("P"), Action("b"))
        g = closed_ground_term(t, ctx)
        assert g == Par(Seq(Action("a"), Alt(Action("b"), Deadlock())), Action("b"))
        assert g._closed and g.lhs.rhs._closed
        assert not (t._closed or ProcVar("P")._closed or ctx.definitions["P"]._closed)
        # again, only the nodes that hold a reference are walked
        visited = _visited(monkeypatch)
        assert closed_ground_term(t, ctx) is g
        assert set(visited) == {t, ProcVar("P"), ctx.definitions["P"], ProcVar("Q")}
        # the mark is not the context's, so t is inlined in each context
        for body in (Action("a"), Action("b")):
            other = SpecContext(alphabet=frozenset({"a", "b"}), definitions={"P": body})
            assert closed_ground_term(t, other) is Par(body, Action("b"))

    def test_a_new_root_over_gated_children_visits_one_node(self, monkeypatch):
        ctx = self._ctx()  # with definitions, so inlining walks too
        lhs = closed_ground_term(Seq(Action("new-root-a"), ProcVar("P")), ctx)
        rhs = closed_ground_term(Guard(QAdd(QOne(), QOne()), DataAction("b", (QOne(),))), ctx)
        root = Alt(lhs, rhs)
        visited = _visited(monkeypatch)
        assert closed_ground_term(root, ctx) is root
        assert set(visited) == {root}
        assert root._closed

    def test_a_100k_term_quantity_sum_passes_the_gate(self):
        t = Guard(_quantity_sum(100_000, QOne()), Action("a"))
        assert closed_ground_term(t, self._ctx()) is t
        t = Guard(_quantity_sum(100_000, QVar("u")), Action("a"))
        with pytest.raises(OpenTerm, match=r"^free quantity variables: \['u'\]$"):
            closed_ground_term(t, self._ctx())

    def test_nothing_of_an_open_term_is_marked(self):
        leaf = Action("open-a")
        t = Seq(leaf, Guard(QNeg(QVar("u")), Alt(DataAction("open-b", (QOne(),)), leaf)))
        with pytest.raises(OpenTerm, match=r"^free quantity variables: \['u'\]$"):
            closed_ground_term(t, self._ctx())
        guard = t.rhs
        nodes = [t, leaf, guard, guard.cond, guard.cond.arg, guard.body, guard.body.lhs]
        assert not any(node._closed for node in nodes)

    def test_an_open_term_over_marked_subterms_gives_the_same_message(self):
        ctx = self._ctx()
        closed = closed_ground_term(Seq(Action("a"), ProcVar("P")), ctx)
        assert closed._closed
        with pytest.raises(OpenTerm, match=r"^free process variables: \['R'\]$"):
            closed_ground_term(Alt(closed, ProcVar("R")), ctx)
        with pytest.raises(OpenTerm, match=r"^free process variables: \['R'\]$"):
            closed_ground_term(Alt(closed, Guard(QVar("u"), ProcVar("R"))), ctx)
        with pytest.raises(OpenTerm, match=r"^free quantity variables: \['v'\]$"):
            closed_ground_term(Par(closed, DataAction("a", (QVar("v"),))), ctx)

    def test_a_term_without_references_passes_as_itself(self):
        t = Seq(Action("a"), Action("b"))
        ctx = self._ctx()
        assert closed_ground_term(t, ctx) is t
        assert closed_ground_term(t, ctx) is t


class TestContextDefaults:
    def test_default_meadow_is_rationals(self):
        ctx = SpecContext(alphabet=frozenset({"a"}))
        assert ctx.meadow == MeadowKind.rationals()
        assert ctx.comm == {}


def _one_node_of_each_class():
    """A fresh node of each of the 21 syntax classes, from fresh fields."""
    a, q = Action("a"), QVar("u")
    lit = ActionLiteral("a", (MeadowKind.prime_field(3).from_int(2),))
    summand = Summand(lit, BasicTerm(frozenset({Summand(ActionLiteral("b"))})))
    return [
        Deadlock(), a, DataAction("b", (QConst(Fraction(2)), q)), Alt(a, Deadlock()),
        Seq(a, a), Par(a, ProcVar("P")), LeftMerge(a, a), CommMerge(a, a),
        Encap(frozenset({"a"}), a), Guard(q, a), ProcVar("P"),
        QZero(), QOne(), QConst(Fraction(1, 3)), q, QAdd(q, QOne()), QMul(q, q),
        QNeg(q), QInv(q), lit, BasicTerm(frozenset({summand})),
    ]


class TestInterning:
    def test_equal_fields_give_the_same_node_in_every_class(self):
        first, second = _one_node_of_each_class(), _one_node_of_each_class()
        classes = {type(node) for node in first}
        syntax = set(ProcessTerm.__subclasses__()) | set(QuantityTerm.__subclasses__())
        assert classes == syntax | {ActionLiteral, BasicTerm}
        assert len(classes) == 21
        for x, y in zip(first, second):
            assert x is y
            assert x == y and hash(x) == hash(y)
        assert Seq(Action("a"), Action("b")) != Seq(Action("b"), Action("a"))

    def test_unpickled_nodes_are_the_live_ones(self):
        nodes = _one_node_of_each_class()
        for node in nodes:
            assert pickle.loads(pickle.dumps(node)) is node
        assert pickle.loads(pickle.dumps(nodes)) == nodes

    def test_an_action_literal_keeps_its_text(self):
        f3 = MeadowKind.prime_field(3)
        lit = ActionLiteral("kept-text", (f3.from_int(2), f3.from_int(0)))
        assert str(lit) == "kept-text(2,0)"
        assert lit.__dict__["_str"] == "kept-text(2,0)"
        assert pickle.loads(pickle.dumps(lit)) is lit
        assert str(pickle.loads(pickle.dumps(lit))) == "kept-text(2,0)"
        assert str(ActionLiteral("kept-text")) == "kept-text"

    def test_keywords_and_replace_intern_or_raise(self):
        a, b = Action("a"), Action("b")
        assert Seq(lhs=a, rhs=b) is Seq(a, rhs=b) is Seq(a, b)
        # a node with one field replaced is a constructor call
        node, guard = Seq(a, b), Guard(QZero(), a)
        assert Seq(node.lhs, rhs=a) is Seq(a, a)
        assert Guard(guard.cond, body=b) is Guard(QZero(), b)
        match node:  # class patterns bind the fields in __match_args__ order
            case Seq(first, second):
                assert (first, second) == (a, b)
            case _:
                pytest.fail("a Seq does not match Seq(first, second)")
        assert ActionLiteral("a") is ActionLiteral("a", ()) is ActionLiteral(name="a")
        for bad in (lambda: Seq(a), lambda: Seq(a, b, a), lambda: Seq(a, lhs=b)):
            with pytest.raises(TypeError):
                bad()
        with pytest.raises(AttributeError):
            Seq(a, b).lhs = b

    def test_a_summand_is_a_pair_and_only_its_basic_term_is_interned(self, ctx):
        gen = TermGen(ctx, random.Random(25), max_depth=4)
        nfs = [normalize(gen.term(), ctx) for _ in range(100)]
        assert any(nf.summands for nf in nfs)
        assert not [key for key in meadow._NODES if key[0] is Summand]
        a, b = ActionLiteral("a"), ActionLiteral("b")
        leaf = BasicTerm(frozenset({Summand(b)}))
        assert Summand(a) == (a, None) and Summand(a, leaf) == (a, leaf)
        assert (Summand(a).action, Summand(a).continuation) == (a, None)
        assert Summand(a, leaf).continuation is leaf
        for nf in (*nfs, BasicTerm(frozenset({Summand(a, leaf), Summand(b)}))):
            assert pickle.loads(pickle.dumps(nf)) is nf
            assert copy.copy(nf) is nf and copy.deepcopy(nf) is nf

    def test_the_table_keeps_no_node_alive(self):
        gc.collect()
        before = len(meadow._NODES)
        t = _chain(9_998, Action("b"))  # 10 000 distinct nodes
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None
        assert len(meadow._NODES) <= before

    def test_a_wrong_arity_raises_with_or_without_defaults(self):
        for bad in (lambda: ActionLiteral(), lambda: ActionLiteral("a", (), 1),
                    lambda: Summand(), lambda: Deadlock(Action("a"))):
            with pytest.raises(TypeError):
                bad()

    def test_an_entry_goes_with_its_node_without_a_collection(self):
        t = Seq(Action("interning-x"), Action("interning-y"))
        key = (Seq, t.lhs, t.rhs)
        assert meadow._NODES[key]() is t
        del t
        assert key not in meadow._NODES

    def test_a_node_made_again_after_its_death_is_interned_again(self):
        t = Par(Action("interning-z"), Deadlock())
        dead = weakref.ref(t)
        del t
        assert dead() is None
        again = Par(Action("interning-z"), Deadlock())
        assert again is Par(Action("interning-z"), Deadlock())
        assert meadow._NODES[(Par, Action("interning-z"), Deadlock())]() is again

    def test_a_late_callback_keeps_the_entry_of_a_new_node(self):
        # a callback of a dead node's reference may run after a new node
        # took the key, for example when a collection clears a cycle
        t = Action("interning-w")
        key = (Action, "interning-w")
        stale = meadow._Ref(Deadlock())
        stale.key = key
        meadow._forget(stale)
        assert meadow._NODES[key]() is t

    def test_exit_with_live_and_dropped_nodes_prints_nothing(self):
        # the table's callbacks run at interpreter shutdown too
        script = (
            "from meadowacp import Action, Seq, normalize, parse_spec, parse_term\n"
            "ctx = parse_spec('act a, b;\\nproc P = a . b;\\nproc Q = P . a;\\n')\n"
            "for src in ('P', 'Q', 'P . Q', 'a . b || b'):\n"
            "    normalize(parse_term(src, ctx), ctx)\n"
            "kept = [Seq(Action(f'k{i}'), Action('a')) for i in range(200)]\n"
        )
        src = str(Path(meadow.__file__).parent.parent)
        run = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert run.stderr == ""

    def test_every_node_class_shares_its_methods_and_has_no_init(self):
        for node in _one_node_of_each_class():
            cls = type(node)
            assert cls.__repr__ is meadow._node_repr
            assert cls.__setattr__ is cls.__delattr__ is meadow._frozen
            assert "__init__" not in vars(cls) and cls.__init__ is object.__init__
            assert cls.__match_args__ == tuple(vars(cls).get("__annotations__", ()))

    def test_declaring_a_class_without_a_docstring_calls_no_signature(self, monkeypatch):
        calls = []
        signature = inspect.signature
        monkeypatch.setattr(inspect, "signature", lambda *a, **k: calls.append(a) or signature(*a, **k))

        @meadow.interned
        class Pair:
            first: int
            second: str = "b"

        assert calls == []
        assert Pair(1) is Pair(1, "b")
        assert repr(Pair(1)).endswith(".<locals>.Pair(first=1, second='b')")

    def test_the_repr_is_the_dataclass_text(self):
        # the reprs of the dataclass-generated __repr__, before the shared one
        assert [repr(node) for node in _one_node_of_each_class()] == [
            "Deadlock()",
            "Action(name='a')",
            "DataAction(name='b', args=(QConst(value=Fraction(2, 1)), QVar(name='u')))",
            "Alt(lhs=Action(name='a'), rhs=Deadlock())",
            "Seq(lhs=Action(name='a'), rhs=Action(name='a'))",
            "Par(lhs=Action(name='a'), rhs=ProcVar(name='P'))",
            "LeftMerge(lhs=Action(name='a'), rhs=Action(name='a'))",
            "CommMerge(lhs=Action(name='a'), rhs=Action(name='a'))",
            "Encap(hide=frozenset({'a'}), body=Action(name='a'))",
            "Guard(cond=QVar(name='u'), body=Action(name='a'))",
            "ProcVar(name='P')",
            "QZero()",
            "QOne()",
            "QConst(value=Fraction(1, 3))",
            "QVar(name='u')",
            "QAdd(lhs=QVar(name='u'), rhs=QOne())",
            "QMul(lhs=QVar(name='u'), rhs=QVar(name='u'))",
            "QNeg(arg=QVar(name='u'))",
            "QInv(arg=QVar(name='u'))",
            "ActionLiteral(name='a', args=(MeadowValue(meadow=MeadowKind(modulus=3), value=2),))",
            "BasicTerm(summands=frozenset({Summand(action=ActionLiteral(name='a', args=(MeadowValue("
            "meadow=MeadowKind(modulus=3), value=2),)), continuation=BasicTerm(summands=frozenset("
            "{Summand(action=ActionLiteral(name='b', args=()), continuation=None)})))}))",
        ]

    def test_a_field_cannot_be_deleted(self):
        node = Seq(Action("a"), Action("b"))
        with pytest.raises(AttributeError, match="^cannot delete field 'lhs'$"):
            del node.lhs
        with pytest.raises(AttributeError, match="^cannot assign to field 'lhs'$"):
            node.lhs = Action("b")
        assert node.lhs is Action("a")

    @pytest.mark.parametrize("node", _one_node_of_each_class(), ids=lambda n: type(n).__name__)
    def test_every_way_of_building_a_node_returns_the_live_one(self, node):
        cls = type(node)
        names = cls.__match_args__
        values = [getattr(node, n) for n in names]
        keywords = dict(zip(names, values))
        assert cls(*values) is node
        assert cls(**keywords) is node
        if values:
            assert cls(*values[:1], **dict(list(keywords.items())[1:])) is node
            assert cls(*values[:-1], **{names[-1]: values[-1]}) is node
        defaults = [vars(cls)[n] for n in names if n in vars(cls)]  # from the class body
        required = values[:len(values) - len(defaults)]
        assert cls(*required) is cls(*required, *defaults)
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node

    @pytest.mark.parametrize("node", _one_node_of_each_class(), ids=lambda n: type(n).__name__)
    def test_every_wrong_call_raises_a_type_error_naming_the_class(self, node):
        cls = type(node)
        names = cls.__match_args__
        values = [getattr(node, n) for n in names]
        calls = [lambda: cls(*values, None), lambda: cls(*values, unknown=None)]
        if names:  # a class with fields has a required one
            calls += [lambda: cls(), lambda: cls(*values, **{names[0]: values[0]})]
        for call in calls:
            with pytest.raises(TypeError, match=rf"\b{cls.__qualname__}\.__new__\(\)"):
                call()

    def test_a_constructor_call_runs_one_python_frame(self):
        a, b, lit = Action("one-frame-a"), Action("one-frame-b"), ActionLiteral("one-frame-c")
        frames = []

        def profile(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code.co_name)

        gc.disable()  # a collection could run the table's callbacks
        sys.setprofile(profile)
        try:
            fresh = Seq(a, b)
            hit = Seq(a, b)
            fresh_with_default = ActionLiteral("one-frame-d")
            hit_with_default = ActionLiteral("one-frame-c")
        finally:
            sys.setprofile(None)
            gc.enable()
        assert frames == ["__new__"] * 4
        assert fresh is hit and hit_with_default is lit
        assert fresh_with_default is ActionLiteral("one-frame-d", ())
