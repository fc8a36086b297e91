"""Acceptance suite: the ten pinned criteria, with tolerances and timings.

Each test prints a single PASS line (visible with ``pytest -s`` / in
captured output on failure) so a run doubles as a checklist.
"""

import random
import time
from fractions import Fraction

from meadowacp import (
    CommMerge,
    DataAction,
    MeadowKind,
    TermGen,
    bisimilar,
    build_lts,
    check_acp_axioms,
    check_derived,
    check_enriched_axioms,
    check_meadow_axioms,
    default_context,
    enumerate_carrier,
    equal_terms,
    meadow_inv,
    meadow_mul,
    normalize,
    parse_term,
    pretty_term,
    random_rational,
)

Q0 = MeadowKind.rationals()
F2 = MeadowKind.prime_field(2)
F3 = MeadowKind.prime_field(3)
TRIVIAL = MeadowKind.trivial()


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_meadow_axioms():
    """All 10 meadow equations, exhaustive over F2/F3 and 1000 random
    rational triples; under 1 second."""
    start = time.monotonic()
    for m, expect_checked in ((F2, 8), (F3, 27)):
        report = check_meadow_axioms(m, mode="exhaustive")
        assert not report.failures()
        assert len(report.axioms) == 10
        assert all(r.checked == expect_checked for r in report.axioms)
    report = check_meadow_axioms(Q0, mode="random", samples=1000, seed=0)
    assert not report.failures()
    assert all(r.checked >= 1000 for r in report.axioms)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"meadow axiom suite took {elapsed:.2f}s"
    _report(1, f"10 axioms x (F2 exhaustive, F3 exhaustive, Q0 x1000) in {elapsed:.2f}s")


def test_criterion_02_zero_inverse_is_zero():
    """0^-1 = 0 in Q0, F2, F3 and the trivial meadow."""
    for m in (Q0, F2, F3, TRIVIAL):
        assert meadow_inv(m.zero(), m) == m.zero()
    _report(2, "0^-1 = 0 in Q0, F2, F3, trivial")


def test_criterion_03_cancellation():
    """u * u^-1 = 1 for all nonzero u (exhaustive F2/F3, 1000 random
    rationals) and 0 * 0^-1 = 0."""
    for m in (F2, F3):
        for u in enumerate_carrier(m):
            if not u.is_zero:
                assert meadow_mul(u, meadow_inv(u, m), m) == m.one()
    rng = random.Random(0)
    checked = 0
    while checked < 1000:
        u = random_rational(rng)
        if u.is_zero:
            continue
        assert meadow_mul(u, meadow_inv(u, Q0), Q0) == Q0.one()
        checked += 1
    for m in (Q0, F2, F3, TRIVIAL):
        assert meadow_mul(m.zero(), meadow_inv(m.zero(), m), m) == m.zero()
    _report(3, "u/u = 1 for nonzero u (F2, F3 exhaustive; Q0 x1000); 0/0 = 0")


def test_criterion_04_acp_axiom_suite():
    """All 24 process-algebra formulas, >=100 instantiations each, verified
    by normal forms AND bisimulation; under 30 seconds."""
    start = time.monotonic()
    ctx = default_context()
    report = check_acp_axioms(ctx, samples=100, seed=0)
    elapsed = time.monotonic() - start
    assert len(report.axioms) == 24
    assert not report.failures(), [r.to_dict() for r in report.failures()]
    assert all(r.checked >= 100 for r in report.axioms)
    assert elapsed < 30.0, f"ACP suite took {elapsed:.2f}s"
    _report(4, f"24 formulas x 100 dual-checked instantiations in {elapsed:.2f}s")


def test_criterion_05_enriched_suite():
    """All 17 enrichment formulas with quantity variables exhausted over F3,
    including arity-mismatch deadlock and data encapsulation; zero failures."""
    ctx = default_context()
    assert ctx.meadow == F3
    report = check_enriched_axioms(ctx, samples=100, seed=0)
    assert len(report.axioms) == 17
    assert not report.failures(), [r.to_dict() for r in report.failures()]
    by_id = {r.id: r for r in report.axioms}
    # the mixed-radix sampler walks every quantity assignment: 100 samples
    # cover the 3-element carrier (and its 9-element square) many times over
    assert by_id["t3.03"].checked >= 100
    assert by_id["t3.14"].checked >= 100  # arity mismatch
    assert by_id["t3.15"].checked >= 100 and by_id["t3.16"].checked >= 100  # data encap
    _report(5, "17 formulas x >=100 instantiations over F3, zero failures")


def test_criterion_06_derived_equations():
    """The three derived communication-merge equations, >=100 each."""
    report = check_derived(default_context(), samples=100, seed=0)
    assert len(report.axioms) == 3
    assert not report.failures()
    assert all(r.checked >= 100 for r in report.axioms)
    _report(6, "3 derived equations x 100 instantiations, zero failures")


def test_criterion_07_normalizer_oracle_agreement():
    """equal_terms and bisimilar agree on 1000 random closed term pairs
    (depth <= 4, 3 actions, one symmetric communication, data from F3);
    under 60 seconds."""
    start = time.monotonic()
    ctx = default_context()
    rng = random.Random(0)
    gen = TermGen(ctx, rng, max_depth=4)
    agreements = 0
    for _ in range(1000):
        t1, t2 = gen.term(), gen.term()
        by_nf = equal_terms(t1, t2, ctx)
        by_oracle = bisimilar(build_lts(t1, ctx), build_lts(t2, ctx))
        assert by_nf == by_oracle, (pretty_term(t1), pretty_term(t2))
        agreements += 1
    elapsed = time.monotonic() - start
    assert agreements == 1000
    assert elapsed < 60.0, f"agreement check took {elapsed:.2f}s"
    _report(7, f"1000/1000 verdicts agree in {elapsed:.2f}s")


def test_criterion_08_guard_chain_cross_check():
    """The direct data-equality route and the guard-chain route produce
    identical normal forms on 1000 random data comm merges."""
    ctx = default_context()
    rng = random.Random(0)
    carrier = list(enumerate_carrier(ctx.meadow))
    pairs = [("a", "b"), ("b", "a")]
    for i in range(1000):
        e, e2 = pairs[i % 2]
        n = 1 + i % 3
        us = tuple(rng.choice(carrier) for _ in range(n))
        vs = us if rng.random() < 0.5 else tuple(rng.choice(carrier) for _ in range(n))
        t = CommMerge(
            DataAction(e, tuple(u.literal() for u in us)),
            DataAction(e2, tuple(v.literal() for v in vs)),
        )
        # debug_guard_chain raises GuardChainMismatch if the routes differ
        assert normalize(t, ctx, debug_guard_chain=True) == normalize(t, ctx)
    _report(8, "1000 comm-merge instances: both routes identical")


def test_criterion_09_separation_witness():
    """The trivial meadow satisfies all 10 equations yet fails 0 != 1."""
    report = check_meadow_axioms(TRIVIAL, mode="exhaustive")
    assert len(report.axioms) == 10
    assert not report.failures()
    assert report.separation == "fail"
    _report(9, "trivial meadow: 10/10 equations pass, separation fails")


def test_criterion_10_parser_round_trip():
    """parse(pretty_print(t)) == t for 1000 generated terms, plus the
    precedence conventions."""
    ctx = default_context()
    rng = random.Random(0)
    gen = TermGen(ctx, rng, max_depth=4)
    for i in range(1000):
        t = gen.term()
        if i % 7 == 0:
            from meadowacp import Encap

            t = Encap(frozenset({"a", "b"}), t)
        assert parse_term(pretty_term(t), ctx) == t
    from meadowacp import Action, Alt, Par, Seq

    a, b, c = Action("a"), Action("b"), Action("c")
    assert parse_term("a + b . c", ctx) == Alt(a, Seq(b, c))
    assert parse_term("a || b . c", ctx) == Par(a, Seq(b, c))
    assert parse_term("a + b || c", ctx) == Alt(a, Par(b, c))
    _report(10, "1000/1000 round trips; precedence: '.' > parallel > '+'")
