"""Tests for exact meadow arithmetic and quantity-term evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from meadowacp import (
    InfiniteCarrier,
    MeadowKind,
    MixedMeadow,
    NonPrimeModulus,
    QAdd,
    QConst,
    QInv,
    QMul,
    QNeg,
    QOne,
    QVar,
    QZero,
    UnboundVariable,
    check_meadow_axioms,
    enumerate_carrier,
    eval_quantity,
    meadow_add,
    meadow_inv,
    meadow_mul,
    meadow_neg,
    quantity_literal,
)

Q0 = MeadowKind.rationals()
F2 = MeadowKind.prime_field(2)
F3 = MeadowKind.prime_field(3)
TRIVIAL = MeadowKind.trivial()


class TestOperations:
    def test_rational_arithmetic(self):
        half = Q0.from_fraction(Fraction(1, 2))
        third = Q0.from_fraction(Fraction(1, 3))
        assert meadow_add(half, third, Q0) == Q0.from_fraction(Fraction(5, 6))
        assert meadow_mul(half, third, Q0) == Q0.from_fraction(Fraction(1, 6))
        assert meadow_neg(half, Q0) == Q0.from_fraction(Fraction(-1, 2))
        assert meadow_inv(half, Q0) == Q0.from_int(2)

    def test_zero_inverse_is_zero_in_every_meadow(self):
        for m in (Q0, F2, F3, TRIVIAL):
            assert meadow_inv(m.zero(), m) == m.zero()

    def test_prime_field_reduction(self):
        assert F3.from_int(5) == F3.from_int(2)
        assert F3.from_fraction(Fraction(1, 2)) == F3.from_int(2)  # 2*2 = 4 = 1
        assert meadow_inv(F3.from_int(2), F3) == F3.from_int(2)

    def test_prime_field_zero_denominator_is_totalized(self):
        # 1/3 in F3 has a vanishing denominator: inverse-of-zero = 0
        assert F3.from_fraction(Fraction(1, 3)) == F3.zero()

    def test_trivial_meadow_collapses(self):
        # the trivial meadow is Z/1Z: one element, which every op returns
        assert TRIVIAL.modulus == 1
        assert str(TRIVIAL) == "trivial"
        assert TRIVIAL.zero() == TRIVIAL.one()
        (z,) = enumerate_carrier(TRIVIAL)
        assert z == TRIVIAL.zero()
        assert TRIVIAL.from_int(17) == z
        assert TRIVIAL.from_fraction(Fraction(2, 3)) == z
        assert meadow_add(z, z, TRIVIAL) == meadow_mul(z, z, TRIVIAL) == z
        assert meadow_neg(z, TRIVIAL) == meadow_inv(z, TRIVIAL) == z

    def test_inverse_against_brute_force(self):
        # oracle: search the carrier for a genuine multiplicative inverse
        for m in (F2, F3, MeadowKind.prime_field(5)):
            for u in enumerate_carrier(m):
                if u.is_zero:
                    continue
                inverses = [
                    v for v in enumerate_carrier(m)
                    if meadow_mul(u, v, m) == m.one()
                ]
                assert inverses == [meadow_inv(u, m)]

    def test_mixed_meadow_rejected(self):
        with pytest.raises(MixedMeadow):
            meadow_add(F2.one(), F3.one(), F3)
        with pytest.raises(MixedMeadow):
            meadow_inv(Q0.one(), F3)

    def test_non_prime_modulus_rejected(self):
        with pytest.raises(NonPrimeModulus):
            MeadowKind.prime_field(4)
        with pytest.raises(NonPrimeModulus):
            MeadowKind.prime_field(1)

    def test_enumerate_carrier(self):
        assert [v.value for v in enumerate_carrier(F3)] == [0, 1, 2]
        assert len(list(enumerate_carrier(TRIVIAL))) == 1
        with pytest.raises(InfiniteCarrier):
            list(enumerate_carrier(Q0))

    @given(st.fractions())
    def test_canonical_form_of_rationals(self, q):
        v = Q0.from_fraction(q)
        assert v.value == q
        assert v.value.denominator > 0
        # structural equality coincides with numeric equality
        assert v == Q0.from_fraction(Fraction(q.numerator * 3, q.denominator * 3))

    @given(st.integers(), st.integers())
    def test_field_ops_match_modular_arithmetic(self, a, b):
        x, y = F3.from_int(a), F3.from_int(b)
        assert meadow_add(x, y, F3).value == (a + b) % 3
        assert meadow_mul(x, y, F3).value == (a * b) % 3


class TestEvalQuantity:
    def test_literals(self):
        assert eval_quantity(QZero(), {}, Q0) == Q0.zero()
        assert eval_quantity(QOne(), {}, Q0) == Q0.one()
        assert eval_quantity(QConst(Fraction(7, 2)), {}, Q0).value == Fraction(7, 2)

    def test_inverse_of_zero_term(self):
        assert eval_quantity(QInv(QZero()), {}, Q0) == Q0.zero()
        assert eval_quantity(QInv(QZero()), {}, F3) == F3.zero()

    def test_u_times_u_inverse(self):
        t = QMul(QVar("u"), QInv(QVar("u")))
        assert eval_quantity(t, {"u": Q0.from_int(5)}, Q0) == Q0.one()
        assert eval_quantity(t, {"u": Q0.zero()}, Q0) == Q0.zero()

    def test_compound(self):
        # (1 + 1) * inv(2) = 1 in Q0
        t = QMul(QAdd(QOne(), QOne()), QInv(QConst(Fraction(2))))
        assert eval_quantity(t, {}, Q0) == Q0.one()
        # -(1) + 1 = 0
        assert eval_quantity(QAdd(QNeg(QOne()), QOne()), {}, F3) == F3.zero()

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_quantity(QVar("u"), {}, Q0)

    def test_quantity_literal_canonical_nodes(self):
        assert quantity_literal(Fraction(0)) == QZero()
        assert quantity_literal(Fraction(1)) == QOne()
        assert quantity_literal(Fraction(2)) == QConst(Fraction(2))


class TestMeadowAxioms:
    def test_exhaustive_f2_f3(self):
        for m in (F2, F3):
            report = check_meadow_axioms(m, mode="exhaustive")
            assert report.passed(strict_separation=True)
            assert len(report.axioms) == 10
            assert report.separation == "pass"
            assert report.cancellation == "pass"
            assert report.general_inverse == "pass"
            carrier = 2 if m == F2 else 3
            assert all(r.checked == carrier ** 3 for r in report.axioms)

    def test_random_rationals(self):
        report = check_meadow_axioms(Q0, mode="random", samples=1000, seed=0)
        assert report.passed(strict_separation=True)
        assert all(r.checked == 1000 for r in report.axioms)

    def test_trivial_meadow_fails_only_separation(self):
        report = check_meadow_axioms(TRIVIAL, mode="exhaustive")
        assert not report.failures()
        assert report.separation == "fail"
        assert report.passed(strict_separation=False)
        assert not report.passed(strict_separation=True)

    def test_exhaustive_on_rationals_rejected(self):
        with pytest.raises(InfiniteCarrier):
            check_meadow_axioms(Q0, mode="exhaustive")

    def test_report_shape(self):
        report = check_meadow_axioms(F2, mode="exhaustive")
        d = report.to_dict()
        assert d["suite"] == "meadow"
        assert d["meadow"] == "F2"
        assert {r["status"] for r in d["axioms"]} == {"pass"}
        assert [r["id"] for r in d["axioms"]] == [
            f"t1.{i:02d}" for i in range(1, 11)
        ]

    def test_random_sampler_is_deterministic(self):
        r1 = check_meadow_axioms(Q0, mode="random", samples=50, seed=7)
        r2 = check_meadow_axioms(Q0, mode="random", samples=50, seed=7)
        assert r1.to_dict() == r2.to_dict()
