"""Tests for the process-term syntax layer and communication functions."""

import pytest

from meadowacp import (
    Action,
    Alt,
    CommSpec,
    DataAction,
    Deadlock,
    Encap,
    Guard,
    MeadowKind,
    Par,
    ProcVar,
    QVar,
    QZero,
    Seq,
    SpecContext,
    UndefinedName,
    free_process_vars,
    free_quantity_vars,
    inline_definitions,
    validate_comm_spec,
)
from meadowacp.terms import iter_subterms


def _chain(n, tail):
    """a . a . ... . a . tail with n actions, built without recursion."""
    t = tail
    for _ in range(n):
        t = Seq(Action("a"), t)
    return t


class TestCommSpec:
    def test_symmetric_constructor(self):
        g = CommSpec.symmetric({("a", "b"): "c"})
        assert g.gamma("a", "b") == "c"
        assert g.gamma("b", "a") == "c"
        assert g.gamma("a", "c") is None

    def test_validate_symmetric_spec(self):
        g = CommSpec.symmetric({("a", "b"): "c"})
        assert validate_comm_spec(g, {"a", "b", "c"}).valid

    def test_validate_detects_asymmetry(self):
        g = CommSpec({("a", "b"): "c"})  # one orientation only
        report = validate_comm_spec(g, {"a", "b", "c"})
        assert not report.valid
        assert any("asymmetric" in v for v in report.violations)

    def test_validate_detects_associativity_violation(self):
        # gamma(gamma(a,b),d) = gamma(c,d) = e but gamma(a,gamma(b,d)) = delta
        g = CommSpec.symmetric({("a", "b"): "c", ("c", "d"): "e"})
        report = validate_comm_spec(g, {"a", "b", "c", "d", "e"})
        assert not report.valid
        assert any("associativity" in v for v in report.violations)

    def test_validation_is_idempotent(self):
        g = CommSpec.symmetric({("a", "b"): "c"})
        before = dict(g.mapping)
        r1 = validate_comm_spec(g, {"a", "b", "c"})
        r2 = validate_comm_spec(g, {"a", "b", "c"})
        assert g.mapping == before
        assert r1.valid == r2.valid == True  # noqa: E712


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

    def test_subterms_in_preorder(self):
        a, b, c, p = Action("a"), Action("b"), Action("c"), ProcVar("P")
        enc = Encap(frozenset({"a"}), b)
        par = Par(c, p)
        guard = Guard(QZero(), par)
        seq = Seq(a, enc)
        t = Alt(seq, guard)
        assert list(iter_subterms(t)) == [t, seq, a, enc, b, guard, par, c, p]


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

    def test_inline_strict_raises_on_undefined(self):
        with pytest.raises(UndefinedName):
            inline_definitions(ProcVar("R"), self._ctx(), strict=True)

    def test_inline_non_strict_keeps_unknown(self):
        t = inline_definitions(Alt(ProcVar("R"), ProcVar("Q")), self._ctx(), strict=False)
        assert t == Alt(ProcVar("R"), Alt(Action("b"), Deadlock()))

    def test_inline_without_definitions_returns_the_term(self):
        ctx = SpecContext(alphabet=frozenset({"a"}))
        t = Alt(Seq(Action("a"), ProcVar("R")), Deadlock())
        assert inline_definitions(t, ctx, strict=False) is t

    def test_inline_without_references_returns_the_term(self):
        t = Par(Seq(Action("a"), Action("b")), Guard(QZero(), Encap(frozenset({"a"}), Deadlock())))
        assert inline_definitions(t, self._ctx()) is t

    def test_inline_strict_raises_without_definitions(self):
        ctx = SpecContext(alphabet=frozenset({"a"}))
        with pytest.raises(UndefinedName):
            inline_definitions(Seq(Action("a"), ProcVar("R")), ctx, strict=True)


class TestContextDefaults:
    def test_default_meadow_is_rationals(self):
        ctx = SpecContext(alphabet=frozenset({"a"}))
        assert ctx.meadow == MeadowKind.rationals()
        assert ctx.comm.gamma("a", "a") is None
