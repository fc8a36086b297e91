"""A mutation table for the operator rules of both routes of the dual check
and the meadow operations behind guards and data.

Each entry edits one rule in the source text of `normalize._hnf`, `_sync`,
`_merge` or `Engine._normalize`, of `lts._step` or `_classes`, or of
`meadow._columns` or `eval_quantity`, compiles the edited copy in memory in
its module's namespace (the source file is never written), and binds it,
with `monkeypatch`, on `Engine` for a method, else wherever `normalize`,
`lts`, `meadow`, `axioms` and the package look the function up. The dual check
then runs on `default_context()`: on 40 seeded pairs of inequivalent
`TermGen` terms, so that an oracle that says "bisimilar" too often is
caught, and through the ACP, enriched and derived axiom suites at 40
samples, seed 0. A mutant is killed when an axiom fails or the two routes
of the dual check disagree (`OracleDisagreement`). A meadow mutant is also
killed by the meadow suites (F3 exhaustive, Q0 at 40 random samples), where
a failed cancellation or general-inverse property counts too, or by a
direct check of a computed quantity. Two more `_columns` mutants must each
fail one of those two properties on F5 exhaustive.

Each route keeps the ground action of an atom on the atom node, in a memo
of its own (`_nf_lit` for `_hnf`, `_lts_lit` for `_step`). Live nodes, the
atoms of `INEQUIVALENT` among them, outlast a test, so `mutate` deletes
both memos from every live node when it binds a mutant and again when
`monkeypatch` undoes it: a memo filled before the binding would hide the
mutant, and one the mutant filled would leak into later tests.

The two routes share no rule or memo. The normal-form route
(`Engine._normalize`) gives a merge `x || y` the `_merge` of its operands'
normal forms and steps the rest with `_hnf`, whose sequence rule steps a
left-nested sequence as its right-nested rotation (A5) under any operator;
both synchronize by `_sync`. The oracle steps every term by its own SOS
rules, `lts._step`, and classes the states with `_classes`. So a mutant of
either route must be killed by an `OracleDisagreement`.
"""

import importlib
import inspect
import random
import textwrap
from fractions import Fraction

import pytest

import meadowacp
from meadowacp import MeadowKind, MixedMeadow, QAdd, QConst, QInv, QNeg, QOne, QVar, QZero
from meadowacp import TermGen, axioms, default_context, lts, meadow, parse_term
from meadowacp.axioms import (
    OracleDisagreement,
    _check_eq_instance,
    check_acp_axioms,
    check_derived,
    check_enriched_axioms,
)

# the package's own `normalize` attribute is the function of that name
normalize = importlib.import_module("meadowacp.normalize")

# (function, rule broken, text of the rule, its replacement)
KILLED = [
    ("_hnf", "Alt keeps only its left hnf",
     "out = left | (cache.get(t.rhs) or _hnf(engine, t.rhs))", "out = left"),
    ("_hnf", "Seq's residual drops its rhs",
     "else Seq(k, rhs)", "else k"),
    ("_hnf", "a merge loses its communication part",
     "if action is not None:", "if False:"),
    ("_hnf", "Par loses y |_ x",
     "out |= {(a, x if l is None else Par(l, x)): None for a, l in right}", "pass"),
    ("_hnf", "x |_ y drops y from the residual",
     "y if k is None else Par(k, y)", "y if k is None else k"),
    ("_hnf", "communication drops k2 from the residual",
     "else k if l is None else Par(k, l)", "else k"),
    ("_hnf", "Encap loses its filter",
     "if a.name not in hide", ""),
    ("_hnf", "Encap does not re-wrap the residual",
     "k if k is None else Encap(hide, k)", "k"),
    ("_hnf", "a guard is enabled when its condition is nonzero",
     "if cond.is_zero else", "if not cond.is_zero else"),
    ("_hnf", "data action arguments are dropped",
     "vals = tuple([eval_quantity(q, {}, m) for q in t.args]) if kind is DataAction else ()",
     "vals = ()"),
    ("_sync", "communication ignores data equality",
     " if a1.args == a2.args else None", ""),
    ("_merge", "X || Y drops its synchronizations",
     "if action is not None:", "if False:"),
    ("_merge", "X || Y drops the mirror half",
     "for s in y.summands:", "for s in ():"),
    ("_merge", "a terminating summand of X ends without Y",
     "Summand(s.action, y if k is None", "Summand(s.action, None if k is None"),
    ("_merge", "K || Y drops Y",
     "memo.get((k, y)) or _merge(engine, k, y)", "k"),
    ("_merge", "a synchronization drops L",
     "Summand(action, l if k is None", "Summand(action, None if k is None"),
    ("_hnf", "the A5 rotation drops the middle operand",
     "Seq(x.rhs, rhs)", "rhs"),
    ("_hnf", "the A5 rotation swaps the middle operand",
     "Seq(x.rhs, rhs)", "Seq(rhs, x.rhs)"),
    ("_normalize", "a merge is its left operand",
     "self._merges.get((x, y)) or _merge(self, x, y)", "x"),
    ("_normalize", "a summand forgets its continuation",
     "Summand(a, k if k is None else nf.get(k) or self._normalize(k))", "Summand(a)"),
    ("_step", "Alt keeps only its left side",
     "out = left | (table.get(t.rhs) or _step(ctx, table, t.rhs))", "out = left"),
    ("_step", "Seq drops its rhs",
     "else Seq(k, y)", "else k"),
    ("_step", "Par loses its right steps",
     "out |= {(a, x if l is None else Par(x, l)): None for a, l in right}", "pass"),
    ("_step", "communication ignores data",
     " and a.args == b.args", ""),
    ("_step", "communication drops k2",
     "else k if l is None else Par(k, l)", "else k"),
    ("_step", "encap loses its filter",
     " if a.name not in hide", ""),
    ("_step", "encap does not re-wrap the residual",
     "k if k is None else Encap(hide, k)", "k"),
    ("_step", "guard polarity",
     "if enabled else {}", "if not enabled else {}"),
    ("_step", "the data of an action are dropped",
     "args = tuple([eval_quantity(q, {}, m) for q in t.args]) if kind is DataAction else ()",
     "args = ()"),
    ("_classes", "signature drops the action",
     "frozenset([(a, cls[q]) for a, q in edges])", "frozenset([cls[q] for a, q in edges])"),
]

# The functions of each route; no function is in both.
NORMAL_FORM_ROUTE = {"_hnf", "_sync", "_merge", "_normalize"}
ORACLE = {"_step", "_classes"}

# Equivalent: swapping the operands of a merge is a bisimulation, since the
# context holds gamma in both orders.
ORIENTATION = ("_step", "a right step of a merge is written y' || x",
               "else Par(x, l)", "else Par(l, x)")

# Equivalent without --debug-guard-chain: tuples of unequal length never
# compare equal, so the data test alone drops such pairs.
ARITY = ("_sync", "communication ignores arity",
         "name is None or len(a1.args) != len(a2.args)", "name is None")

# Every data argument that the suites sample is a literal, so only a direct
# check on a computed argument kills this one.
UNEVALUATED = ("_hnf", "data action arguments stay unevaluated",
               "vals = tuple([eval_quantity(q, {}, m) for q in t.args]) if",
               "vals = tuple(t.args) if")

# A semantically neutral edit: the harness must report it as a survivor.
NOOP = ("_hnf", "no change", "elif kind is Alt:", "elif kind is Alt:  # no-op")

# Equivalent: rotating one level at a time gives the same normal forms, and
# costs only a frame per level of the left spine.
ONE_ROTATION = ("_hnf", "the A5 rotation moves one level per call",
                "while type(x) is Seq:", "if type(x) is Seq:")

SURVIVORS = [ARITY, NOOP, ORIENTATION, ONE_ROTATION]

# The order in which `_render` prints a normal form's summands: by action, a
# terminating summand first, then by the continuations' ordered summands,
# a prefix first. Both routes compare interned normal forms, not their
# text, so no disagreement can show these; a printed normal form does.
RENDER = [
    ("_render", "summands print in reverse action order",
     "return -1 if s.action.sort_key() < t.action.sort_key() else 1",
     "return 1 if s.action.sort_key() < t.action.sort_key() else -1"),
    ("_render", "a terminating summand prints last",
     "return -1 if c is None else 1", "return 1 if c is None else -1"),
    ("_render", "a continuation that is a prefix of the other prints last",
     "return -1 if len(order[c]) < len(order[d]) else 1",
     "return 1 if len(order[c]) < len(order[d]) else -1"),
]


# (function of `meadow`, rule broken, text of the rule, its replacement)
MEADOW_KILLED = [
    ("_columns", "the inverse of zero is one", "if x else 0", "if x else 1"),
    ("_columns", "a Z/pZ sum is not reduced", "(x + y) % p", "x + y"),
    ("_columns", "a negation is not reduced", "-x % p", "-x"),
    ("eval_quantity", "a variable's meadow is not checked", "_require_member(v, m)", "pass"),
]

MEADOW_NOOP = ("_columns", "no change", "p = m.modulus", "p = m.modulus  # no-op")

# (rule of `_columns` broken, its text, its replacement, the property of the
# F5 exhaustive report that must fail); x^-1 = x holds in F3, so F3 cannot
# show the first one
MEADOW_PROPERTIES = [
    ("the inverse is the identity", "pow(x, p - 2, p) if x else 0", "x", "general_inverse"),
    ("a Z/pZ product is zero", "x * y % p", "0", "cancellation"),
]


# the memo of each route, kept on an atom node: (meadow, ground action)
MEMOS = ("_nf_lit", "_lts_lit")


def forget_memos() -> None:
    """Delete both routes' memos from every live node."""
    for ref in list(meadow._NODES.values()):
        for memo in MEMOS:
            getattr(ref(), "__dict__", {}).pop(memo, None)


class _Forgetting:
    """Setting its ``memos`` forgets both routes' memos, so a `monkeypatch`
    of it forgets them when it binds and again when it undoes."""

    memos = property(lambda self: None, lambda self, _: forget_memos())


FORGETTING = _Forgetting()


def mutate(monkeypatch, name: str, old: str, new: str, module=None) -> None:
    """Bind a copy of module.<name> with old replaced by new; the module is
    `normalize` when it has the function, else `lts`.  A method of `Engine`
    is set on `Engine`.  Both routes' memos are forgotten when the copy is
    bound and again after `monkeypatch` has undone the binding."""
    monkeypatch.setattr(FORGETTING, "memos", None)
    method = module is None and hasattr(normalize.Engine, name)
    module = module or (normalize if method or hasattr(normalize, name) else lts)
    fn = getattr(normalize.Engine if method else module, name)
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"{old!r} does not occur once in {name}"
    copy: dict = {}
    exec(compile(src.replace(old, new), module.__file__, "exec"), vars(module), copy)
    if method:
        monkeypatch.setattr(normalize.Engine, name, copy[name])
        return
    for owner in (normalize, lts, meadow, axioms, meadowacp):
        if getattr(owner, name, None) is fn:
            monkeypatch.setattr(owner, name, copy[name])


def _inequivalent_pairs() -> list:
    gen = TermGen(default_context(), random.Random(0), max_depth=3)
    return [(gen.term(), gen.term()) for _ in range(40)]


# The suites check true equations only; on these pairs the routes must both
# say "not equal".
INEQUIVALENT = _inequivalent_pairs()


def killed() -> str:
    """How the dual check kills the bound mutant: "axiom" for a failed
    axiom, "disagreement" for an `OracleDisagreement`, "" when it
    survives."""
    ctx = default_context()
    try:
        for lhs, rhs in INEQUIVALENT:
            _check_eq_instance(lhs, rhs, ctx)
        for check in (check_acp_axioms, check_enriched_axioms, check_derived):
            if check(ctx, samples=40, seed=0).failures():
                return "axiom"
    except OracleDisagreement:
        return "disagreement"
    return ""


def test_the_pairs_are_inequivalent():
    ctx = default_context()
    assert not any(_check_eq_instance(lhs, rhs, ctx)[0] for lhs, rhs in INEQUIVALENT)


@pytest.mark.parametrize("name, rule, old, new", KILLED, ids=[m[1] for m in KILLED])
def test_mutant_is_killed(monkeypatch, name, rule, old, new):
    mutate(monkeypatch, name, old, new)
    assert killed() == "disagreement", f"{name}: {rule} is not killed by a disagreement"


def test_the_mutants_killed_by_a_disagreement_are_those_of_one_route():
    assert not NORMAL_FORM_ROUTE & ORACLE
    assert {m[0] for m in KILLED} == NORMAL_FORM_ROUTE | ORACLE
    # the oracle's rules call none of the normal-form route's
    for name in ORACLE | {"bisimilar_terms"}:
        assert not NORMAL_FORM_ROUTE & set(getattr(lts, name).__code__.co_names), name


def test_an_oracle_that_always_says_bisimilar_is_killed(monkeypatch):
    monkeypatch.setattr(axioms, "bisimilar_terms", lambda *args: True)
    assert killed() == "disagreement"


@pytest.mark.parametrize("name, rule, old, new", SURVIVORS, ids=[m[1] for m in SURVIVORS])
def test_equivalent_mutant_survives(monkeypatch, name, rule, old, new):
    mutate(monkeypatch, name, old, new)
    assert not killed(), f"{name}: {rule} is killed"


def test_the_seq_mutant_is_killed_by_a_disagreement_of_the_routes(monkeypatch):
    name, _, old, new = next(m for m in KILLED if m[1] == "Seq's residual drops its rhs")
    mutate(monkeypatch, name, old, new)
    with pytest.raises(OracleDisagreement, match=r"^t2\.04, sample 19, seed 0: "):
        check_acp_axioms(default_context(), samples=40, seed=0)


def test_the_arity_mutant_is_killed_under_the_guard_chain_check(monkeypatch):
    name, _, old, new = ARITY
    mutate(monkeypatch, name, old, new)
    ctx = default_context()
    t = parse_term("a(1) | b(1, 2)", ctx)
    assert normalize.normalize(t, ctx).is_deadlock
    with pytest.raises(ValueError):
        normalize.normalize(t, ctx, debug_guard_chain=True)


F2, F3, F5 = MeadowKind.prime_field(2), MeadowKind.prime_field(3), MeadowKind.prime_field(5)
Q0 = MeadowKind.rationals()


def quantities_evaluate() -> bool:
    """Direct checks of computed quantities: canonical residues, the total
    inverse, and a variable's meadow."""
    ev = meadow.eval_quantity
    try:
        ev(QVar("u"), {"u": F2.one()}, F3)
        return False
    except MixedMeadow:
        pass
    return (
        ev(QNeg(QOne()), {}, F3).value == 2
        and ev(QAdd(QConst(Fraction(2)), QConst(Fraction(2))), {}, F3).value == 1
        and ev(QInv(QZero()), {}, F3).value == 0
    )


def meadow_killed() -> bool:
    for m, mode in ((F3, "exhaustive"), (Q0, "random")):
        report = meadow.check_meadow_axioms(m, mode, samples=40, seed=0)
        if report.failures() or "fail" in (report.cancellation, report.general_inverse):
            return True
    return killed() or not quantities_evaluate()


@pytest.mark.parametrize("name, rule, old, new", MEADOW_KILLED, ids=[m[1] for m in MEADOW_KILLED])
def test_meadow_mutant_is_killed(monkeypatch, name, rule, old, new):
    assert quantities_evaluate()
    mutate(monkeypatch, name, old, new, module=meadow)
    assert meadow_killed(), f"{name}: {rule} survives"


@pytest.mark.parametrize("rule, old, new, prop", MEADOW_PROPERTIES,
                         ids=[m[0] for m in MEADOW_PROPERTIES])
def test_a_meadow_property_fails_on_its_mutant(monkeypatch, rule, old, new, prop):
    assert getattr(meadow.check_meadow_axioms(F5), prop) == "pass"
    mutate(monkeypatch, "_columns", old, new, module=meadow)
    assert getattr(meadow.check_meadow_axioms(F5), prop) == "fail", f"{rule}: {prop} passes"


def test_a_meadow_noop_survives(monkeypatch):
    name, _, old, new = MEADOW_NOOP
    mutate(monkeypatch, name, old, new, module=meadow)
    assert not meadow_killed()


def data_arguments_are_evaluated() -> bool:
    ctx = default_context()
    nf = lambda src: normalize.normalize(parse_term(src, ctx), ctx)
    return nf("a(1 + 1)") is nf("a(2)") and nf("a(1 + 1) | b(2)") is nf("c(2)")


def test_the_unevaluated_arguments_mutant_is_killed_by_a_computed_argument(monkeypatch):
    assert data_arguments_are_evaluated()
    name, _, old, new = UNEVALUATED
    mutate(monkeypatch, name, old, new)
    assert not data_arguments_are_evaluated()


def test_a_memo_neither_hides_a_mutant_nor_outlives_it(monkeypatch):
    ctx = default_context()
    t = parse_term("a(2) || b(2)", ctx)
    before = normalize.normalize(t, ctx)  # fills the memos of t's live atoms
    assert str(before) == "a(2) . b(2) + b(2) . a(2) + c(2)"
    name, _, old, new = next(m for m in KILLED if m[1] == "data action arguments are dropped")
    mutate(monkeypatch, name, old, new)
    assert str(normalize.normalize(t, ctx)) == "a . b + b . a + c"
    monkeypatch.undo()
    assert normalize.normalize(t, ctx) is before


def prints_in_order() -> bool:
    """Direct checks of the printed order of summands."""
    ctx = default_context()
    text = lambda src: str(normalize.normalize(parse_term(src, ctx), ctx))
    return (text("b + a") == "a + b" and text("a . b + a") == "a + a . b"
            and text("a . (b + c) + a . b") == "a . b + a . (b + c)")


@pytest.mark.parametrize("name, rule, old, new", RENDER, ids=[m[1] for m in RENDER])
def test_a_summand_order_mutant_is_killed_by_a_printed_normal_form(
        monkeypatch, name, rule, old, new):
    assert prints_in_order()
    mutate(monkeypatch, name, old, new)
    assert not killed()  # the dual check does not print
    assert not prints_in_order(), f"{name}: {rule} survives"
