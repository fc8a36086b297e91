"""Tests for the axiom-suite harness: coverage, determinism, report shape."""

import importlib
import inspect
import itertools
import json
import random
import re

import pytest

from meadowacp import (
    ACP_AXIOM_IDS,
    DERIVED_AXIOM_IDS,
    ENRICHED_AXIOM_IDS,
    Action,
    Alt,
    Deadlock,
    Encap,
    Guard,
    MeadowKind,
    OracleDisagreement,
    Par,
    ProcessTerm,
    Seq,
    SpecContext,
    check_acp_axioms,
    check_derived,
    check_enriched_axioms,
    default_context,
    free_process_vars,
    free_quantity_vars,
    parse_term,
    pretty_quantity,
    pretty_term,
)
from meadowacp import axioms, lts, terms
from meadowacp.axioms import (
    ACP_AXIOMS,
    DERIVED_AXIOMS,
    ENRICHED_AXIOMS,
    AxiomSchema,
    TermGen,
    _check_eq_instance,
    _run_schema,
    _std_sample,
)

# the package's own name normalize is the function
normalize = importlib.import_module("meadowacp.normalize")


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
        def ids(report):
            return [r.id for r in report.axioms]

        assert ids(check_acp_axioms(ctx, samples=2)) == ACP_AXIOM_IDS
        assert ids(check_enriched_axioms(ctx, samples=2)) == ENRICHED_AXIOM_IDS
        assert ids(check_derived(ctx, samples=2)) == DERIVED_AXIOM_IDS


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

    @pytest.mark.parametrize("samples", [0, -5])
    def test_a_suite_over_no_sample_is_refused(self, ctx, samples):
        # else every axiom would pass with checked 0
        for check in (check_acp_axioms, check_enriched_axioms, check_derived):
            with pytest.raises(ValueError, match=rf"^samples must be >= 1, got {samples}$"):
                check(ctx, samples=samples)

    def test_runs_are_deterministic(self, ctx):
        r1 = check_acp_axioms(ctx, samples=5, seed=3)
        r2 = check_acp_axioms(ctx, samples=5, seed=3)
        assert r1.to_dict() == r2.to_dict()

    def test_invalid_comm_spec_rejected(self):
        ctx = SpecContext(
            alphabet=frozenset("abcde"),
            comm={("a", "b"): "c", ("c", "d"): "e"},  # not associative
            meadow=MeadowKind.prime_field(3),
        )
        with pytest.raises(ValueError, match="^invalid communication function: associativity"):
            check_acp_axioms(ctx, samples=1)

    def test_a_comm_given_in_one_order_merges_commutatively(self):
        ctx = SpecContext(frozenset("abc"), {("a", "b"): "c"}, MeadowKind.prime_field(3))
        a, b = Action("a"), Action("b")
        assert normalize.normalize(Par(a, b), ctx) == normalize.normalize(Par(b, a), ctx)
        assert str(normalize.normalize(Par(b, a), ctx)) == "a . b + b . a + c"
        assert check_acp_axioms(ctx, samples=2).passed()


class TestReportShape:
    def test_json_schema(self, ctx):
        report = check_enriched_axioms(ctx, samples=3)
        d = json.loads(json.dumps(report.to_dict()))
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


def _process_nodes(t):
    """Every process node of t, on an explicit stack."""
    stack, out = [t], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack += [v for v in vars(node).values() if isinstance(v, ProcessTerm)]
    return out


class TestDualCheck:
    """Each route checks the other: a fault in one shows as a disagreement,
    a fault in a rule both share as a failing axiom (tests/test_mutants.py)."""

    def test_each_term_passes_the_gate_once(self, ctx, monkeypatch):
        # one list per walk of the gate, of the objects it tests by isinstance
        walks = []
        free_vars = terms.free_vars
        monkeypatch.setattr(terms, "free_vars", lambda t: walks.append([]) or free_vars(t))
        monkeypatch.setattr(
            terms, "isinstance",
            lambda obj, cls: walks[-1].append(obj) or isinstance(obj, cls), raising=False,
        )
        a, b = Action("gate-once-a"), Action("gate-once-b")  # marked by no other test
        assert _check_eq_instance(Par(a, b), Par(b, a), ctx)[0]
        walked = [set(w) for w in walks]
        # every node is walked, and by one walk only: the others find it marked
        assert set().union(*walked) == {Par(a, b), Par(b, a), a, b}
        assert sum(map(len, walked)) == 4

    def test_a_wrong_normal_form_route_disagrees_with_the_oracle(self, ctx, monkeypatch):
        # a normal-form route that loses every summand of the left side
        real = axioms.normal_forms
        lossy = lambda ts, ctx: (normalize.BasicTerm(frozenset()), real(ts, ctx)[1])
        monkeypatch.setattr(axioms, "normal_forms", lossy)
        a = Action("a")
        with pytest.raises(OracleDisagreement):
            _check_eq_instance(Alt(a, a), a, ctx)

    def test_a_disagreement_in_a_suite_names_the_instance_to_rerun(self, ctx, monkeypatch):
        # the normal-form route turns lossy from its fourth query on
        real = axioms.normal_forms
        queries = itertools.count()
        lossy = lambda ts, ctx: (
            (normalize.BasicTerm(frozenset()), real(ts, ctx)[1]) if next(queries) >= 3 else real(ts, ctx)
        )
        monkeypatch.setattr(axioms, "normal_forms", lossy)
        rerun = r"^t2\.01, sample 3, seed 7: normal forms say False, bisimulation says True"
        with pytest.raises(OracleDisagreement, match=rerun):
            check_acp_axioms(ctx, samples=10, seed=7)

    def test_an_oracle_without_done_disagrees_with_the_normal_forms(self, ctx, monkeypatch):
        # without its Done state, termination looks like deadlock to the
        # oracle; the fault is in the oracle's steps only
        real = lts._hnf
        monkeypatch.setattr(
            lts,
            "_hnf",
            lambda engine, t: {(a, Deadlock() if k is None else k): None
                               for a, k in real(engine, t)},
        )
        a = Action("a")
        with pytest.raises(OracleDisagreement):
            _check_eq_instance(a, Seq(a, Deadlock()), ctx)

    T2_13 = "a || b = (a |_ b + b |_ a) + a | b"  # an instance of t2.13

    def test_a_merge_of_normal_forms_without_synchronizations_disagrees(self, ctx, monkeypatch):
        # the fault is in the normal-form route's merge only
        src = inspect.getsource(normalize._merge)
        assert src.count("if action is not None:") == 1
        namespace = dict(vars(normalize))
        exec(src.replace("if action is not None:", "if False:"), namespace)
        monkeypatch.setattr(normalize, "_merge", namespace["_merge"])
        lhs, rhs = self.T2_13.split(" = ")
        with pytest.raises(OracleDisagreement, match="normal forms say False, bisimulation says"):
            _check_eq_instance(parse_term(lhs, ctx), parse_term(rhs, ctx), ctx)

    def test_an_oracle_par_rule_without_communication_disagrees(self, ctx, monkeypatch):
        # the fault is in the oracle's Par rule only
        real = lts._hnf

        def hnf_without_communication(engine, t):
            if type(t) is Par:
                left, right = real(engine, t.lhs), real(engine, t.rhs)
                return normalize._left_merge(left, t.rhs) | normalize._left_merge(right, t.lhs)
            return real(engine, t)

        monkeypatch.setattr(lts, "_hnf", hnf_without_communication)
        lhs, rhs = self.T2_13.split(" = ")
        with pytest.raises(OracleDisagreement, match="normal forms say True, bisimulation says"):
            _check_eq_instance(parse_term(lhs, ctx), parse_term(rhs, ctx), ctx)


ALL_SCHEMAS = ACP_AXIOMS + ENRICHED_AXIOMS + DERIVED_AXIOMS
PARSED = [sc for sc in ALL_SCHEMAS if sc.build is None]


class TestSchemasParsedFromNames:
    """An equation schema checks the equation its name states: the name is
    what the report prints, so the two must not drift apart."""

    def test_which_schemas_are_parsed(self):
        kept_as_code = ["t2.23", "t2.24", "t3.08", "t3.12", "t3.13", "t3.14",
                        "t3.15", "t3.16", "t3.17"]
        assert len(PARSED) == 35
        assert [sc.id for sc in ALL_SCHEMAS if sc.build is not None] == kept_as_code

    @staticmethod
    def _substituted(side: str, specs, s: dict) -> str:
        """side with each metavariable replaced by the text of its value;
        H is left in place, for a context that declares it."""
        kinds = dict(specs)

        def text(m):
            name = m.group()
            kind, v = kinds[name], s[name]
            if kind == "p":
                return f"({pretty_term(v)})"
            if kind == "lit":
                return f"({pretty_term(v.term())})"
            if kind == "q":
                return f"({pretty_quantity(v.literal())})"
            return v  # an action name
        return re.sub(r"\b[xyzabeuv]\b", text, side)

    def test_each_instance_is_the_parse_of_its_name(self, ctx):
        # the textual route: substitute into the name, then parse the text
        for schema in PARSED:
            rng = random.Random(schema.id)
            gen = TermGen(ctx, rng, max_depth=2)
            for i in range(6):
                s = _std_sample(schema.specs, i, rng, gen, ctx)
                inst = SpecContext(ctx.alphabet, ctx.comm, ctx.meadow,
                                   sets={"H": s.get("H", frozenset())})
                equation = schema.name.split("  if ")[0]
                expected = tuple(parse_term(self._substituted(side, schema.specs, s), inst)
                                 for side in equation.split(" = "))
                assert schema.instance(s) == expected, (schema.id, i)

    def test_metavariables_are_the_sampled_names(self):
        for schema in PARSED:
            names = set()
            for side in schema.sides:
                names |= free_process_vars(side) | free_quantity_vars(side)
                for node in _process_nodes(side):
                    if isinstance(node, Action):
                        names.add(node.name)
                    elif isinstance(node, Encap):
                        names.add("H")
            assert names == {nm for nm, _ in schema.specs}, schema.id

    def test_no_parsed_schema_is_a_tautology(self):
        for schema in PARSED:
            lhs, rhs = schema.sides
            assert lhs != rhs, schema.id

    def test_t3_08_guards_the_whole_sequence(self, ctx):
        # its name's left side would parse as ([u] -> x) . y, its right side
        (schema,) = [sc for sc in ENRICHED_AXIOMS if sc.id == "t3.08"]
        u = ctx.meadow.from_int(2)
        x, y = Action("a"), Seq(Action("b"), Action("c"))
        lhs, rhs = schema.instance({"u": u, "x": x, "y": y})
        assert lhs == Guard(u.literal(), Seq(x, y))
        assert rhs == Seq(Guard(u.literal(), x), y)
