"""Tests for exact meadow arithmetic and quantity-term evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meadowacp import (
    Action,
    Deadlock,
    Guard,
    InfiniteCarrier,
    MeadowKind,
    MeadowValue,
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
    equal_terms,
    eval_quantity,
    meadow_add,
    meadow_inv,
    meadow_mul,
    meadow_neg,
    normalize,
    parse_term,
    pretty_quantity,
    quantity_literal,
)
from meadowacp import meadow
from meadowacp.cli import main

Q0 = MeadowKind.rationals()
F2 = MeadowKind.prime_field(2)
F3 = MeadowKind.prime_field(3)
F17 = MeadowKind.prime_field(17)
TRIVIAL = MeadowKind.trivial()
MEADOWS = [Q0, F2, F3, F17, TRIVIAL]


def reference(t, env, p):
    """A plain recursive evaluator, independent of the package's walk: raw
    Fractions when p is None, else int residues mod p.  env maps each
    variable to a raw value."""
    if isinstance(t, (QZero, QOne, QConst)):
        q = Fraction(0) if isinstance(t, QZero) else Fraction(1) if isinstance(t, QOne) else t.value
        if p is None:
            return q
        den = q.denominator % p
        return q.numerator * pow(den, -1, p) % p if den else 0
    if isinstance(t, QVar):
        return env[t.name]
    if isinstance(t, (QAdd, QMul)):
        a, b = reference(t.lhs, env, p), reference(t.rhs, env, p)
        v = a + b if isinstance(t, QAdd) else a * b
        return v if p is None else v % p
    a = reference(t.arg, env, p)
    if isinstance(t, QNeg):
        return -a if p is None else -a % p
    if not a:
        return a
    return 1 / a if p is None else pow(a, -1, p)


def quantity_terms(depth, names="uvw"):
    leaf = st.one_of(
        st.sampled_from([QZero(), QOne()]),
        st.fractions(min_value=-9, max_value=9, max_denominator=6).map(quantity_literal),
        st.sampled_from(names).map(QVar),
    )
    if depth == 0:
        return leaf
    sub = quantity_terms(depth - 1, names)
    return st.one_of(
        leaf,
        st.builds(QAdd, sub, sub),
        st.builds(QMul, sub, sub),
        st.builds(QNeg, sub),
        st.builds(QInv, sub),
    )


QTERMS = quantity_terms(8)
RAW = {
    m: st.fractions(min_value=-20, max_value=20, max_denominator=9)
    if m.modulus is None else st.integers(0, m.modulus - 1)
    for m in MEADOWS
}


def variables_in_order(t):
    """The variable names of t, left to right as printed."""
    if isinstance(t, QVar):
        return [t.name]
    if isinstance(t, (QAdd, QMul)):
        return variables_in_order(t.lhs) + variables_in_order(t.rhs)
    if isinstance(t, (QNeg, QInv)):
        return variables_in_order(t.arg)
    return []


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

    def test_primality_agrees_with_trial_division_below_100_000(self):
        def trial_division(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(100_000) if meadow._is_prime(n)] == \
            [n for n in range(100_000) if trial_division(n)]

    def test_strong_pseudoprimes_are_composite(self):
        # the smallest strong pseudoprime to the first 1, 2, ... prime bases;
        # the last one passes every base up to 37, so 41 must be tested too
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051, 318665857834031151167461):
            assert not meadow._is_prime(n), n
            with pytest.raises(NonPrimeModulus, match=f"^modulus {n} is not prime$"):
                MeadowKind.prime_field(n)

    def test_large_primes_in_bounded_time(self):
        assert MeadowKind.prime_field(2**61 - 1).modulus == 2**61 - 1
        assert str(MeadowKind.from_name("F10000000000000061")) == "F10000000000000061"
        for n in (2**89 - 1, meadow._PRIME_BOUND):
            with pytest.raises(meadow.MeadowError, match=(
                    f"^modulus {n} is too large: primality is decided below "
                    f"{meadow._PRIME_BOUND}$")):
                MeadowKind.prime_field(n)

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
        # a raw value, an int residue or a reduced Fraction, gives its Fraction's node
        for raw in (0, 1, 2, 16, Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 2)):
            node = QZero() if raw == 0 else QOne() if raw == 1 else QConst(Fraction(raw))
            assert quantity_literal(raw) is node and type(node.value) is Fraction
        for m in (Q0, F3, F17, TRIVIAL):
            for v in (*map(m.from_int, (0, 1, -2)), m.from_fraction(Fraction(3, 4))):
                assert v.literal() is quantity_literal(Fraction(v.value))


class TestPrettyQuantity:
    @pytest.mark.parametrize("t, text", [
        (QMul(QConst(Fraction(-1, 2)), QVar("u")), "(-1/2) * u"),
        (QMul(QVar("u"), QConst(Fraction(1, 2))), "u * (1/2)"),
        (QAdd(QVar("u"), QConst(Fraction(-3))), "u + (-3)"),
        (QNeg(QConst(Fraction(-3))), "-(-3)"),
    ])
    def test_a_negative_or_fractional_literal_under_an_operator_is_bracketed(self, ctx, t, text):
        assert pretty_quantity(t) == text
        cond = parse_term(f"[{text}] -> a", ctx).cond
        for u in (Fraction(0), Fraction(5, 7), Fraction(-4)):
            env = {"u": Q0.from_fraction(u)}
            assert eval_quantity(cond, env, Q0) == eval_quantity(t, env, Q0)


class TestColumnEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_eval_quantity_agrees_with_a_plain_evaluator(self, data):
        m = data.draw(st.sampled_from(MEADOWS))
        t = data.draw(QTERMS)
        raw = {x: data.draw(RAW[m]) for x in "uvw"}
        env = {x: MeadowValue(m, v) for x, v in raw.items()}
        got = eval_quantity(t, env, m)
        assert got.meadow is m
        assert got.value == reference(t, raw, m.modulus)
        # canonical: a Fraction in Q0, a residue in [0, p) in Z/pZ
        if m.modulus is None:
            assert type(got.value) is Fraction
        else:
            assert type(got.value) is int and 0 <= got.value < m.modulus

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_walk_over_n_assignments_is_n_evaluations(self, data):
        m = data.draw(st.sampled_from(MEADOWS))
        t = data.draw(QTERMS)
        rows = data.draw(st.lists(st.tuples(*[RAW[m]] * 3), max_size=12))
        columns = {x: [row[i] for row in rows] for i, x in enumerate("uvw")}
        one_walk = meadow._columns(t, columns.__getitem__, m, len(rows))
        singly = [
            eval_quantity(t, {x: MeadowValue(m, v) for x, v in zip("uvw", row)}, m).value
            for row in rows
        ]
        assert one_walk == singly

    @settings(max_examples=100, deadline=None)
    @given(quantity_terms(6, names="abcde"), st.sets(st.sampled_from("abcde")))
    def test_the_first_unbound_variable_is_named(self, t, bound):
        env = {x: F3.one() for x in bound}
        unbound = [x for x in variables_in_order(t) if x not in bound]
        if not unbound:
            eval_quantity(t, env, F3)
            return
        with pytest.raises(UnboundVariable) as exc:
            eval_quantity(t, env, F3)
        assert exc.value.args == (unbound[0],)

    def test_a_foreign_value_is_rejected_only_where_it_is_used(self):
        env = {"u": F2.one(), "v": F3.one()}
        with pytest.raises(MixedMeadow, match="value from F2 used in F3"):
            eval_quantity(QAdd(QVar("v"), QVar("u")), env, F3)
        assert eval_quantity(QAdd(QVar("v"), QOne()), env, F3) == F3.from_int(2)
        assert eval_quantity(QOne(), env, F3) == F3.one()

    def test_a_non_quantity_node_is_a_type_error(self):
        with pytest.raises(TypeError, match=r"^not a quantity term: Action\(name='a'\)$"):
            eval_quantity(Action("a"), {}, F3)
        with pytest.raises(TypeError, match=r"^not a quantity term: 'x'$"):
            eval_quantity(QAdd(QOne(), "x"), {}, F3)

    def test_a_meadow_is_one_object_per_modulus(self):
        assert MeadowKind.prime_field(3) is F3
        assert MeadowKind.from_name("Q0") is Q0
        assert MeadowKind(1) is TRIVIAL


class TestDeepQuantities:
    """A quantity of any depth is evaluated on the walk's own stack."""

    @staticmethod
    def ones(n):
        return "[" + " + ".join(["1"] * n) + "] -> a"

    def test_a_100k_deep_negation(self):
        t = QOne()
        for _ in range(100_000):
            t = QNeg(t)
        assert eval_quantity(t, {}, F3) == F3.one()
        assert eval_quantity(QNeg(t), {}, Q0) == Q0.from_int(-1)

    def test_normalize_a_guard_of_100k_ones(self, ctx):
        # the tree the parser builds for [1 + ... + 1] -> a, built directly
        total = QOne()
        for n in range(2, 100_001):
            total = QAdd(total, QOne())
            if n == 99_999:
                t99999 = Guard(total, Action("a"))
        # 100 000 = 1 and 99 999 = 0 in F3: the guard is off, then on
        t100000 = Guard(total, Action("a"))
        assert normalize(t100000, ctx).is_deadlock
        assert equal_terms(t100000, Deadlock(), ctx)
        assert str(normalize(t99999, ctx)) == "a"
        assert equal_terms(t99999, Action("a"), ctx)

    def test_the_cli_on_a_guard_of_100k_ones(self, sample_spec_path, capsys):
        # in-process: the term is longer than the OS allows for one argument
        assert main(["normalize", "--spec", sample_spec_path, self.ones(100_000)]) == 0
        assert capsys.readouterr().out == "delta\n"
        assert main(["equiv", "--spec", sample_spec_path, self.ones(99_999), "a"]) == 0
        assert capsys.readouterr().out.startswith("equivalent\n")

    def test_the_dot_graph_of_a_guard_of_100k_ones(self, sample_spec_path, capsys):
        # a state's label is the first 60 characters of its text
        assert main(["lts", "--spec", sample_spec_path, "--dot", self.ones(100_000)]) == 0
        label = "[" + "1 + " * 14 + "..."
        assert capsys.readouterr().out == (
            f'digraph lts {{\n  rankdir=LR;\n  n0 [shape=circle, label="{label}"];\n}}\n'
        )

    def test_a_10000_deep_right_nested_sum(self, ctx):
        src = "[" + "1 + (" * 9_998 + "1 + 1" + ")" * 9_998 + "] -> a"
        t = parse_term(src, ctx)
        assert pretty_quantity(t.cond) == src[1:-6]
        # 10 000 = 1 in F3: the guard is off
        assert normalize(t, ctx).is_deadlock
        assert str(normalize(parse_term("[1 + 1 + " + src[1:], ctx), ctx)) == "a"


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

    @pytest.mark.parametrize("samples", [0, -5])
    def test_a_random_check_over_no_sample_is_refused(self, samples):
        # else every axiom would pass with checked 0; exhaustive mode ignores samples
        with pytest.raises(ValueError, match=rf"^samples must be >= 1, got {samples}$"):
            check_meadow_axioms(Q0, mode="random", samples=samples)
        assert all(r.checked == 27 for r in check_meadow_axioms(F3, samples=samples).axioms)

    def test_trivial_meadow_fails_only_separation(self):
        report = check_meadow_axioms(TRIVIAL, mode="exhaustive")
        assert not report.failures()
        assert report.separation == "fail"
        assert report.passed(strict_separation=False)
        assert not report.passed(strict_separation=True)

    @pytest.mark.parametrize("mode", ["exhastive", "Random", ""])
    def test_an_unknown_mode_is_refused(self, mode):
        # else a misspelt mode silently runs the random suite
        with pytest.raises(ValueError, match="^mode must be"):
            check_meadow_axioms(F3, mode=mode)

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

    @pytest.mark.parametrize("m, mode, samples, seed", [(F3, "exhaustive", 0, 0), (Q0, "random", 40, 3)])
    def test_a_false_equation_reports_its_first_counterexample(self, monkeypatch, m, mode, samples, seed):
        u, v, w = QVar("u"), QVar("v"), QVar("w")
        axioms = [
            ("t1.02", QAdd(u, v), QAdd(v, u)),
            ("bad1", QAdd(u, v), u),
            ("bad2", QMul(QInv(u), w), QNeg(w)),
        ]
        monkeypatch.setattr(meadow, "MEADOW_AXIOMS", axioms)
        report = check_meadow_axioms(m, mode, samples, seed)
        # one assignment at a time, as the suite ran before it took columns
        for (_, lhs, rhs), r in zip(axioms, report.axioms):
            want = ("pass", None, 0)
            for i, uvw in enumerate(meadow._sample_assignments(m, mode, samples, seed)):
                env = dict(zip("uvw", uvw))
                if eval_quantity(lhs, env, m) != eval_quantity(rhs, env, m):
                    want = ("fail", {x: str(a) for x, a in env.items()}, i + 1)
                    break
                want = ("pass", None, i + 1)
            assert (r.status, r.counterexample, r.checked) == want
        assert [r.status for r in report.axioms] == ["pass", "fail", "fail"]

    def test_random_draws_on_a_finite_meadow(self):
        # the draws of the parent commit, which built the carrier per sample
        drawn = meadow._sample_assignments(F17, "random", 6, 1)
        assert [tuple(a.value for a in uvw) for uvw in drawn] == [
            (4, 2, 8), (3, 15, 14), (15, 12, 6), (3, 15, 0), (12, 13, 0), (14, 8, 7)
        ]

    def test_random_sampler_is_deterministic(self):
        r1 = check_meadow_axioms(Q0, mode="random", samples=50, seed=7)
        r2 = check_meadow_axioms(Q0, mode="random", samples=50, seed=7)
        assert r1.to_dict() == r2.to_dict()
