"""Machine-checkable renditions of the full axiom systems.

Every process-algebra axiom (24 formulas), every data-enrichment axiom
(17 formulas) and the three derived communication-merge equations are
represented as schemas.  The harness instantiates process variables with
random closed ground terms, action variables with atomic-action literals
(enumerated from a pool), quantity variables with meadow elements
(exhaustively for finite meadows) and constant schemas with every action
name, then verifies each instance twice: by canonical-normal-form
equality and by the bisimulation oracle.  Any disagreement between the
two routes is a hard failure.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import accumulate

from .lts import bisimilar_terms
from .meadow import (
    MeadowKind,
    MeadowValue,
    QInv,
    QNeg,
    QuantityTerm,
    QVar,
    _LITERALS,
    random_rational,
)
from .normalize import BasicTerm, guard_chain, normal_forms, normalize
from .report import AxiomReport, AxiomResult
from .speclang import parse_term, pretty_term
from .terms import (
    Action,
    ActionLiteral,
    Alt,
    CommMerge,
    DataAction,
    Deadlock,
    Encap,
    Guard,
    Par,
    ProcessTerm,
    ProcVar,
    Seq,
    SpecContext,
    data_action,
    validate_comm_spec,
)


class OracleDisagreement(Exception):
    """Normal-form equality and the bisimulation oracle returned different
    verdicts for the same instance; one of them is wrong."""


def default_context(meadow: MeadowKind | None = None) -> SpecContext:
    """Three actions with one symmetric communication, data over F3."""
    return SpecContext(
        alphabet=frozenset({"a", "b", "c"}),
        comm={("a", "b"): "c"},
        meadow=meadow or MeadowKind.prime_field(3),
    )


# ---------------------------------------------------------------------------
# Random closed term generation

# term()'s bounds: the running sums of the weights of alt, seq, par, guard (atom: 0.20)
_ALT, _SEQ, _PAR, _GUARD = accumulate((0.30, 0.25, 0.15, 0.10))


class TermGen:
    """Random closed, ground process terms: shallow and wide, biased away
    from deadlock so the merge laws get exercised.  One seed gives one
    stream of draws; each drawn value has one literal node per generator."""

    def __init__(self, ctx: SpecContext, rng: random.Random, max_depth: int = 4):
        self.ctx = ctx
        self.rng = rng
        self.max_depth = max_depth
        self.names = sorted(ctx.alphabet)
        m = ctx.meadow
        # the data literals' argument: the largest residue of a finite carrier, else 1
        data_arg = MeadowValue(m, m.modulus - 1) if m.is_finite else m.from_int(1)
        self.lit_pool = [ActionLiteral(n) for n in self.names]
        self.lit_pool += [ActionLiteral(n, (data_arg,)) for n in self.names]
        self.literals: dict[MeadowValue, QuantityTerm] = {}

    def quantity_value(self) -> MeadowValue:
        """A carrier element drawn uniformly, or a random rational in Q0."""
        m = self.ctx.meadow
        if m.is_finite:
            return MeadowValue(m, self.rng.randrange(m.modulus))
        return random_rational(self.rng)

    def quantity(self) -> QuantityTerm:
        """The literal of a quantity_value() draw."""
        value = self.quantity_value()
        lit = self.literals.get(value)
        if lit is None:
            lit = self.literals[value] = value.literal()
        return lit

    def term(self, depth: int | None = None) -> ProcessTerm:
        depth = self.max_depth if depth is None else depth
        if depth > 0:
            r = self.rng.random()
            if r < _ALT:
                return Alt(self.term(depth - 1), self.term(depth - 1))
            if r < _SEQ:
                return Seq(self.term(depth - 1), self.term(depth - 1))
            if r < _PAR:
                return Par(self.term(depth - 1), self.term(depth - 1))
            if r < _GUARD:
                return Guard(self.quantity(), self.term(depth - 1))
        r = self.rng.random()  # an atom
        if r < 0.15:
            return Deadlock()
        name = self.rng.choice(self.names)
        if r < 0.60:
            return Action(name)
        return DataAction(name, (self.quantity(),))


# ---------------------------------------------------------------------------
# Axiom schemas

# variable kinds for the standard sampler:
#   "p"     random closed ground term
#   "lit"   atomic-action literal, enumerated from the pool
#   "q"     meadow element, exhaustive over finite carriers
#   "const" action name, enumerated over the alphabet
#   "h"     random subset of the alphabet
#   "h+e"   random subset forced to contain s["e"]
#   "h-e"   random subset forced to avoid s["e"]
VarSpec = tuple[str, str]


class AxiomSchema:
    """An axiom, written once as its name, and how to sample its instances."""

    def __init__(self, id: str, name: str, kind: str, specs: list[VarSpec],
                 build=None, sample=None):
        self.id = id
        self.name = name
        self.kind = kind  # "eq" | "isact"
        self.specs = specs
        self.build = build  # for a name that does not parse: s -> the sides
        self.sample = sample  # overrides the standard sampler

    @cached_property
    def sides(self) -> tuple[ProcessTerm, ...]:
        """The sides of the name, before any "  if" condition, parsed in
        _SCHEMA_CTX on first use, not at import, which every CLI call pays."""
        equation = self.name.split("  if ")[0]
        return tuple(parse_term(side, _SCHEMA_CTX) for side in equation.split(" = "))

    def instance(self, s: dict) -> tuple:
        if self.build is not None:
            return self.build(s)
        return tuple(_instantiate(t, s) for t in self.sides)


def _std_sample(specs: list[VarSpec], i: int, rng, gen: TermGen, ctx: SpecContext) -> dict:
    s: dict = {}
    idx = i
    for nm, kd in specs:
        if kd == "p":
            s[nm] = gen.term()
        elif kd == "lit":
            pool = gen.lit_pool
            s[nm] = pool[idx % len(pool)]
            idx //= len(pool)
        elif kd == "q":
            p = ctx.meadow.modulus
            if p is not None:  # enumerated over the carrier
                s[nm] = MeadowValue(ctx.meadow, idx % p)
                idx //= p
            else:
                s[nm] = random_rational(rng)
        elif kd == "const":
            s[nm] = gen.names[idx % len(gen.names)]
            idx //= len(gen.names)
        elif kd in ("h", "h+e", "h-e"):
            h = {n for n in gen.names if rng.random() < 0.5}
            if kd == "h+e":
                h.add(s["e"])
            elif kd == "h-e":
                h.discard(s["e"])
            s[nm] = frozenset(h)
        else:
            raise ValueError(kd)
    return s


def _sample_data_comm(i: int, rng, gen: TermGen, ctx: SpecContext) -> dict:
    """Pick a communicating name pair, an arity in {1, 2} and data tuples."""
    pairs = sorted(ctx.comm.items())
    if not pairs:
        return {}
    (e, e2), e3 = pairs[i % len(pairs)]
    n = 1 + (i // len(pairs)) % 2
    us = tuple(gen.quantity_value() for _ in range(n))
    # make matching tuples common enough to exercise the synchronizing branch
    vs = us if rng.random() < 0.5 else tuple(gen.quantity_value() for _ in range(n))
    return {"e": e, "e2": e2, "e3": e3, "us": us, "vs": vs}


def _sample_dead_comm(i: int, rng, gen: TermGen, ctx: SpecContext) -> dict:
    pairs = sorted(
        (a, b)
        for a in ctx.alphabet
        for b in ctx.alphabet
        if (a, b) not in ctx.comm
    )
    if not pairs:
        return {}
    e, e2 = pairs[i % len(pairs)]
    n = 1 + (i // len(pairs)) % 2
    return {
        "e": e,
        "e2": e2,
        "us": tuple(gen.quantity_value() for _ in range(n)),
        "vs": tuple(gen.quantity_value() for _ in range(n)),
    }


def _sample_mixed_arity(i: int, rng, gen: TermGen, ctx: SpecContext) -> dict:
    names = gen.names
    e = names[i % len(names)]
    e2 = names[(i // len(names)) % len(names)]
    n = (i // (len(names) ** 2)) % 3  # 0-ary constant is a legal operand
    m = n + 1 + i % 2
    return {
        "e": e,
        "e2": e2,
        "us": tuple(gen.quantity_value() for _ in range(n)),
        "vs": tuple(gen.quantity_value() for _ in range(m)),
    }


# An equation schema is written once, as its name.  x, y, z are process
# variables (placeholder definitions), a, b action literals, e an action
# name, u, v quantities and H the encapsulated set.
_SCHEMA_CTX = SpecContext(frozenset({"a", "b", "e"}), definitions=dict.fromkeys("xyz"),
                          sets={"H": frozenset()})


def _instantiate(t: ProcessTerm, s: dict) -> ProcessTerm:
    """A schema side (no DataAction), or a guard's condition, with s
    substituted, by exact class."""
    kind = type(t)
    if kind is ProcVar:
        return s[t.name]
    if kind is QVar:
        return s[t.name].literal()
    if kind is Action:
        return Action(s["e"]) if t.name == "e" else s[t.name].term()
    if kind is Guard:
        return Guard(_instantiate(t.cond, s), _instantiate(t.body, s))
    if kind is Encap:
        return Encap(s["H"], _instantiate(t.body, s))
    if kind is QNeg or kind is QInv:
        return kind(_instantiate(t.arg, s))
    if kind is Deadlock or kind in _LITERALS:
        return t
    return kind(_instantiate(t.lhs, s), _instantiate(t.rhs, s))


def _data_comm(s: dict) -> CommMerge:
    """e(u1..un) | e'(v1..vm), the left side of t3.12-t3.14."""
    return CommMerge(data_action(s["e"], s["us"]), data_action(s["e2"], s["vs"]))


def _eq(id: str, name: str, specs: list[VarSpec]) -> AxiomSchema:
    return AxiomSchema(id, name, "eq", specs)


ACP_AXIOMS: list[AxiomSchema] = [
    _eq("t2.01", "x + y = y + x", [("x", "p"), ("y", "p")]),
    _eq("t2.02", "(x + y) + z = x + (y + z)", [("x", "p"), ("y", "p"), ("z", "p")]),
    _eq("t2.03", "x + x = x", [("x", "p")]),
    _eq("t2.04", "(x + y) . z = x . z + y . z", [("x", "p"), ("y", "p"), ("z", "p")]),
    _eq("t2.05", "(x . y) . z = x . (y . z)", [("x", "p"), ("y", "p"), ("z", "p")]),
    _eq("t2.06", "x + delta = x", [("x", "p")]),
    _eq("t2.07", "delta . x = delta", [("x", "p")]),
    _eq("t2.08", "encap(H, e) = e  if e notin H", [("e", "const"), ("H", "h-e")]),
    _eq("t2.09", "encap(H, e) = delta  if e in H", [("e", "const"), ("H", "h+e")]),
    _eq("t2.10", "encap(H, delta) = delta", [("H", "h")]),
    _eq("t2.11", "encap(H, x + y) = encap(H, x) + encap(H, y)",
        [("x", "p"), ("y", "p"), ("H", "h")]),
    _eq("t2.12", "encap(H, x . y) = encap(H, x) . encap(H, y)",
        [("x", "p"), ("y", "p"), ("H", "h")]),
    _eq("t2.13", "x || y = (x |_ y + y |_ x) + x | y", [("x", "p"), ("y", "p")]),
    _eq("t2.14", "a |_ x = a . x", [("a", "lit"), ("x", "p")]),
    _eq("t2.15", "a . x |_ y = a . (x || y)", [("a", "lit"), ("x", "p"), ("y", "p")]),
    _eq("t2.16", "(x + y) |_ z = x |_ z + y |_ z", [("x", "p"), ("y", "p"), ("z", "p")]),
    _eq("t2.17", "a | b . x = (a | b) . x", [("a", "lit"), ("b", "lit"), ("x", "p")]),
    _eq("t2.18", "a . x | b . y = (a | b) . (x || y)",
        [("a", "lit"), ("b", "lit"), ("x", "p"), ("y", "p")]),
    _eq("t2.19", "(x + y) | z = x | z + y | z", [("x", "p"), ("y", "p"), ("z", "p")]),
    _eq("t2.20", "x | y = y | x", [("x", "p"), ("y", "p")]),
    _eq("t2.21", "(x | y) | z = x | (y | z)", [("x", "p"), ("y", "p"), ("z", "p")]),
    _eq("t2.22", "delta | x = delta", [("x", "p")]),
    # isact is a predicate, not an equation
    AxiomSchema("t2.23", "isact(e)", "isact", [("e", "const")],
                lambda s: (Action(s["e"]), True)),
    AxiomSchema("t2.24", "isact(x) & isact(y) => isact(x | y)", "isact",
                [("a", "lit"), ("b", "lit")],
                lambda s: (CommMerge(s["a"].term(), s["b"].term()), None)),
]


ENRICHED_AXIOMS: list[AxiomSchema] = [
    _eq("t3.01", "[0] -> x = x", [("x", "p")]),
    _eq("t3.02", "[1] -> x = delta", [("x", "p")]),
    _eq("t3.03", "[u] -> x = [u/u] -> x", [("u", "q"), ("x", "p")]),
    _eq("t3.04", "[u] -> ([v] -> x) = [1 - (1 - u/u)*(1 - v/v)] -> x",
        [("u", "q"), ("v", "q"), ("x", "p")]),
    _eq("t3.05", "[u] -> x + [v] -> x = [u/u * v/v] -> x",
        [("u", "q"), ("v", "q"), ("x", "p")]),
    _eq("t3.06", "[u] -> delta = delta", [("u", "q")]),
    _eq("t3.07", "[u] -> (x + y) = [u] -> x + [u] -> y", [("u", "q"), ("x", "p"), ("y", "p")]),
    # a guard's body is a factor, so the name's left side parses as its right side
    AxiomSchema("t3.08", "[u] -> x . y = ([u] -> x) . y", "eq",
                [("u", "q"), ("x", "p"), ("y", "p")],
                lambda s: (Guard(s["u"].literal(), Seq(s["x"], s["y"])),
                           Seq(Guard(s["u"].literal(), s["x"]), s["y"]))),
    _eq("t3.09", "([u] -> x) |_ y = [u] -> (x |_ y)", [("u", "q"), ("x", "p"), ("y", "p")]),
    _eq("t3.10", "([u] -> x) | y = [u] -> (x | y)", [("u", "q"), ("x", "p"), ("y", "p")]),
    _eq("t3.11", "encap(H, [u] -> x) = [u] -> encap(H, x)",
        [("u", "q"), ("x", "p"), ("H", "h")]),
    # t3.12-t3.14: n-ary operands with their own samplers, and primed names
    AxiomSchema("t3.12",
                "e | e' = e'' => e(u1..un) | e'(v1..vn) = "
                "(u1 - v1) -> (... -> ((un - vn) -> e''(u1..un)))",
                "eq", [],
                lambda s: (_data_comm(s), guard_chain(s["e3"], s["us"], s["vs"])),
                sample=_sample_data_comm),
    AxiomSchema("t3.13", "e | e' = delta => e(u1..un) | e'(v1..vn) = delta",
                "eq", [],
                lambda s: (_data_comm(s), Deadlock()),
                sample=_sample_dead_comm),
    AxiomSchema("t3.14", "e(u1..un) | e'(v1..vm) = delta  if n != m", "eq", [],
                lambda s: (_data_comm(s), Deadlock()),
                sample=_sample_mixed_arity),
    # t3.15, t3.16: the argument list u1..un does not parse
    AxiomSchema("t3.15", "encap(H, e(u1..un)) = e(u1..un)  if e notin H", "eq",
                [("e", "const"), ("u", "q"), ("H", "h-e")],
                lambda s: (Encap(s["H"], data_action(s["e"], (s["u"],))),
                           data_action(s["e"], (s["u"],)))),
    AxiomSchema("t3.16", "encap(H, e(u1..un)) = delta  if e in H", "eq",
                [("e", "const"), ("u", "q"), ("H", "h+e")],
                lambda s: (Encap(s["H"], data_action(s["e"], (s["u"],))), Deadlock())),
    # isact is a predicate, not an equation
    AxiomSchema("t3.17", "isact(e(u1..un))", "isact",
                [("e", "const"), ("u", "q")],
                lambda s: (data_action(s["e"], (s["u"],)), True)),
]


DERIVED_AXIOMS: list[AxiomSchema] = [
    _eq("d.01", "a . x | b = (a | b) . x", [("a", "lit"), ("b", "lit"), ("x", "p")]),
    _eq("d.02", "x | (y + z) = x | y + x | z", [("x", "p"), ("y", "p"), ("z", "p")]),
    _eq("d.03", "x | ([u] -> y) = [u] -> (x | y)", [("u", "q"), ("x", "p"), ("y", "p")]),
]

ACP_AXIOM_IDS = [a.id for a in ACP_AXIOMS]
ENRICHED_AXIOM_IDS = [a.id for a in ENRICHED_AXIOMS]
DERIVED_AXIOM_IDS = [a.id for a in DERIVED_AXIOMS]


# ---------------------------------------------------------------------------
# Checking


def _check_eq_instance(
    lhs: ProcessTerm, rhs: ProcessTerm, ctx: SpecContext
) -> tuple[bool, BasicTerm, BasicTerm]:
    """The verdict on lhs = rhs, with both normal forms."""
    nf_lhs, nf_rhs = normal_forms((lhs, rhs), ctx)
    by_normal_form = nf_lhs is nf_rhs
    by_oracle = bisimilar_terms(lhs, rhs, ctx)
    if by_normal_form != by_oracle:
        raise OracleDisagreement(
            f"normal forms say {by_normal_form}, bisimulation says {by_oracle} "
            f"for {pretty_term(lhs)} = {pretty_term(rhs)}"
        )
    return by_normal_form, nf_lhs, nf_rhs


def _check_isact_instance(schema: AxiomSchema, s: dict, ctx: SpecContext) -> bool:
    term, expected = schema.build(s)
    nf = normalize(term, ctx)
    if expected is None:
        # comm merge of two atomic actions: atomic whenever the
        # synchronization exists; a failed synchronization is deadlock,
        # which the least atomic-action predicate excludes (vacuous here)
        return nf.is_deadlock or nf.is_atomic
    return nf.is_atomic == expected


def _run_schema(
    schema: AxiomSchema,
    ctx: SpecContext,
    samples: int,
    seed: int,
) -> AxiomResult:
    rng = random.Random(f"{seed}:{schema.id}")
    gen = TermGen(ctx, rng, max_depth=3)
    status = "pass"
    counterexample = None
    checked = 0
    for i in range(samples):
        if schema.sample is not None:
            s = schema.sample(i, rng, gen, ctx)
            if not s:
                continue
        else:
            s = _std_sample(schema.specs, i, rng, gen, ctx)
        checked += 1
        # instances are rendered only when they fail
        if schema.kind == "isact":
            if _check_isact_instance(schema, s, ctx):
                continue
            counterexample = {"instance": pretty_term(schema.build(s)[0])}
        else:
            lhs, rhs = schema.instance(s)
            try:
                ok, nf_lhs, nf_rhs = _check_eq_instance(lhs, rhs, ctx)
            except OracleDisagreement as exc:
                # name the instance, so that it can be rerun
                raise OracleDisagreement(f"{schema.id}, sample {i}, seed {seed}: {exc}") from exc
            if ok:
                continue
            counterexample = {
                "instance": f"{pretty_term(lhs)} = {pretty_term(rhs)}",
                "lhs_normal_form": str(nf_lhs),
                "rhs_normal_form": str(nf_rhs),
            }
        status = "fail"
        break
    return AxiomResult(
        id=schema.id,
        name=schema.name,
        lhs=schema.name.split(" = ")[0] if " = " in schema.name else schema.name,
        rhs=schema.name.split(" = ")[1] if " = " in schema.name else "",
        status=status,
        counterexample=counterexample,
        checked=checked,
    )


def _run_suite(
    suite: str,
    schemas: list[AxiomSchema],
    ctx: SpecContext,
    samples: int,
    seed: int,
) -> AxiomReport:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not ctx.alphabet:
        raise ValueError("the alphabet is empty: declare at least one action with act")
    violations = validate_comm_spec(ctx.comm, ctx.alphabet)
    if violations:
        raise ValueError("invalid communication function: " + "; ".join(violations))
    results = [_run_schema(sc, ctx, samples, seed) for sc in schemas]
    return AxiomReport(
        suite=suite,
        meadow=str(ctx.meadow),
        mode=f"random({samples}, seed={seed})",
        axioms=results,
    )


def check_acp_axioms(ctx: SpecContext, samples: int = 100, seed: int = 0) -> AxiomReport:
    """Verify every process-algebra axiom on random instantiations."""
    return _run_suite("acp", ACP_AXIOMS, ctx, samples, seed)


def check_enriched_axioms(ctx: SpecContext, samples: int = 100, seed: int = 0) -> AxiomReport:
    """Verify every data-enrichment axiom; quantity variables run through
    the whole carrier when the meadow is finite."""
    return _run_suite("enriched", ENRICHED_AXIOMS, ctx, samples, seed)


def check_derived(ctx: SpecContext, samples: int = 100, seed: int = 0) -> AxiomReport:
    """Verify the three equations that the streamlined axiom set derives
    from commutativity of the communication merge."""
    return _run_suite("derived", DERIVED_AXIOMS, ctx, samples, seed)
