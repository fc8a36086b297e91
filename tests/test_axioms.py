"""Tests for the axiom-suite harness: coverage, determinism, report shape."""

import json

import pytest

from meadowacp import (
    ACP_AXIOM_IDS,
    DERIVED_AXIOM_IDS,
    ENRICHED_AXIOM_IDS,
    Action,
    Alt,
    CommSpec,
    MeadowKind,
    Seq,
    SpecContext,
    check_acp_axioms,
    check_derived,
    check_enriched_axioms,
    default_context,
)
from meadowacp.axioms import AxiomSchema, _run_schema


class TestCoverageManifest:
    def test_acp_suite_covers_all_24_formulas(self):
        assert len(ACP_AXIOM_IDS) == 24
        assert ACP_AXIOM_IDS == [f"t2.{i:02d}" for i in range(1, 25)]

    def test_enriched_suite_covers_all_17_formulas(self):
        assert len(ENRICHED_AXIOM_IDS) == 17
        assert ENRICHED_AXIOM_IDS == [f"t3.{i:02d}" for i in range(1, 18)]

    def test_derived_suite_covers_all_3_equations(self):
        assert DERIVED_AXIOM_IDS == ["d.01", "d.02", "d.03"]

    def test_reports_list_every_id(self, ctx):
        assert check_acp_axioms(ctx, samples=2).axiom_ids() == ACP_AXIOM_IDS
        assert check_enriched_axioms(ctx, samples=2).axiom_ids() == ENRICHED_AXIOM_IDS
        assert check_derived(ctx, samples=2).axiom_ids() == DERIVED_AXIOM_IDS


class TestSmallRuns:
    def test_acp_small_sample_passes(self, ctx):
        report = check_acp_axioms(ctx, samples=10, seed=1)
        assert report.passed()
        assert all(r.checked >= 1 for r in report.axioms)

    def test_enriched_small_sample_passes(self, ctx):
        report = check_enriched_axioms(ctx, samples=10, seed=1)
        assert report.passed()

    def test_derived_small_sample_passes(self, ctx):
        report = check_derived(ctx, samples=10, seed=1)
        assert report.passed()

    def test_runs_are_deterministic(self, ctx):
        r1 = check_acp_axioms(ctx, samples=5, seed=3)
        r2 = check_acp_axioms(ctx, samples=5, seed=3)
        assert r1.to_json() == r2.to_json()

    def test_invalid_comm_spec_rejected(self):
        ctx = SpecContext(
            alphabet=frozenset({"a", "b", "c"}),
            comm=CommSpec({("a", "b"): "c"}),  # asymmetric
            meadow=MeadowKind.prime_field(3),
        )
        with pytest.raises(ValueError):
            check_acp_axioms(ctx, samples=1)


class TestReportShape:
    def test_json_schema(self, ctx):
        report = check_enriched_axioms(ctx, samples=3)
        d = json.loads(report.to_json())
        assert d["suite"] == "enriched"
        assert d["meadow"] == "F3"
        assert d["mode"].startswith("random(")
        for r in d["axioms"]:
            assert set(r) >= {"id", "name", "lhs", "rhs", "status", "checked"}
            assert r["status"] in ("pass", "fail")
        # meadow-only fields stay absent from process suites
        assert "separation" not in d


class TestFailureReport:
    a, b = Action("a"), Action("b")

    def _fixed(self, i, rng, gen, ctx):
        return {"i": i}

    def test_failing_equation_reports_instance_and_normal_forms(self, ctx):
        schema = AxiomSchema("x.01", "a . b = b . a", "eq", [],
                             lambda s: (Seq(self.a, self.b), Seq(self.b, self.a)),
                             sample=self._fixed)
        result = _run_schema(schema, ctx, samples=5, seed=0)
        assert result.status == "fail"
        assert result.checked == 1
        assert result.counterexample == {
            "instance": "a . b = b . a",
            "lhs_normal_form": "a . b",
            "rhs_normal_form": "b . a",
        }

    def test_failing_isact_reports_instance(self, ctx):
        schema = AxiomSchema("x.02", "isact(a + b)", "isact", [],
                             lambda s: (Alt(self.a, self.b), True), sample=self._fixed)
        result = _run_schema(schema, ctx, samples=5, seed=0)
        assert result.status == "fail"
        assert result.counterexample == {"instance": "a + b"}
