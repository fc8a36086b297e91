"""Canonical normal forms for closed, ground process terms.

A term is rewritten into a *basic term*: a set of summands, each a ground
action literal optionally followed by a basic term, ordered only when it
is printed.  The empty set is deadlock.  Two closed ground terms are equal
in the equational theory exactly when their basic terms coincide, which is
what :func:`equal_terms` decides.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .meadow import MeadowValue, QAdd, QNeg, eval_quantity, interned
from .speclang import pretty_prefix
from .terms import (
    Action,
    ActionLiteral,
    Alt,
    CommMerge,
    DataAction,
    Deadlock,
    Encap,
    Guard,
    LeftMerge,
    OpenTerm,
    Par,
    ProcessTerm,
    ProcVar,
    Seq,
    SpecContext,
    closed_ground_term,
    data_action,
)


class GuardChainMismatch(Exception):
    """Debug-mode disagreement between the direct data-equality route and
    the guard-chain route in a data communication merge."""


@interned
class Summand:
    """One alternative of a basic term; continuation None means successful
    termination."""

    action: ActionLiteral
    continuation: Optional["BasicTerm"] = None

    def __str__(self) -> str:
        return _render(BasicTerm.of((self,)))


@interned
class BasicTerm:
    """A canonical normal form: the set of its summands, ordered only when
    it is printed.  Interned like every term node, so equal normal forms
    are one object, whichever engine built them."""

    summands: FrozenSet[Summand]

    @staticmethod
    def of(summands) -> "BasicTerm":
        return BasicTerm(frozenset(summands))

    @property
    def is_deadlock(self) -> bool:
        return not self.summands

    @property
    def is_atomic(self) -> bool:
        """A single summand that terminates immediately."""
        return len(self.summands) == 1 and next(iter(self.summands)).continuation is None

    def __str__(self) -> str:
        return _render(self)


def _render(root: BasicTerm) -> str:
    """The text of a normal form, on an explicit stack, so deep ones do not
    exhaust the interpreter's; each distinct node is ordered and rendered
    once, after its continuations."""
    text: Dict[object, str] = {}
    order: Dict[BasicTerm, List[Summand]] = {}

    def compare(s: Summand, t: Summand) -> int:
        # by action, termination first, then the continuations' ordered
        # summands lexicographically: a loop down the first pair that differs
        while True:
            c, d = s.continuation, t.continuation
            if s.action is not t.action:
                return -1 if s.action.sort_key() < t.action.sort_key() else 1
            if c is None or d is None:
                return -1 if c is None else 1
            for s, t in zip(order[c], order[d]):
                if s is not t:
                    break
            else:  # one is a prefix of the other
                return -1 if len(order[c]) < len(order[d]) else 1

    stack = [root]
    while stack:
        bt = stack[-1]
        todo = [s.continuation for s in bt.summands
                if s.continuation is not None and s.continuation not in order]
        if todo:
            stack += todo
            continue
        stack.pop()
        if bt in order:  # pushed twice before it was rendered
            continue
        order[bt] = summands = sorted(bt.summands, key=cmp_to_key(compare))
        for s in summands:
            if s not in text:
                cont = s.continuation
                if cont is None:
                    text[s] = str(s.action)
                else:
                    inner = text[cont] if len(cont.summands) == 1 else f"({text[cont]})"
                    text[s] = f"{s.action} . {inner}"
        text[bt] = " + ".join(text[s] for s in summands) or "delta"
    return text[root]


# ---------------------------------------------------------------------------
# Head normal forms

# A head summand is (ActionLiteral, residual process term or None for
# successful termination).  An hnf keeps its head summands as the keys of
# an insertion-ordered dict, not a set, so the order in which they are met
# follows the term and not the string hash of this process.
HeadSummand = Tuple[ActionLiteral, Optional[ProcessTerm]]
Hnf = Dict[HeadSummand, None]


def guard_chain(
    name: str,
    us: Sequence[MeadowValue],
    vs: Sequence[MeadowValue],
    residual: Optional[ProcessTerm] = None,
) -> ProcessTerm:
    """The guard chain (u1 - v1) -> (... -> ((un - vn) -> e''(u1..un)))
    that axiom t3.12 gives for e(u1..un) | e'(v1..vn) when e | e' = e'';
    with a residual r the innermost body is e''(u1..un) . r."""
    term = data_action(name, us)
    if residual is not None:
        term = Seq(term, residual)
    for u, v in reversed(list(zip(us, vs, strict=True))):
        term = Guard(QAdd(u.literal(), QNeg(v.literal())), term)
    return term


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
                chain = _hnf(engine, guard_chain(name, a1.args, a2.args, residual))
                if chain != direct:
                    raise GuardChainMismatch(
                        f"{a1} | {a2}: direct route {_show(direct)} vs "
                        f"guard chain {_show(chain)}"
                    )
            acc |= direct
    return acc


def _show(head: Hnf) -> str:
    """The head summands of an hnf for a message, each residual cut to 60
    characters, so that the text stays short however deep the residual."""
    memo: dict = {}
    shown = (str(a) if k is None else f"{a} . {pretty_prefix(k, 60, memo)}" for a, k in head)
    return "{" + ", ".join(sorted(shown)) + "}"


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


class Engine:
    """The state of one query: its head normal forms and normal forms.
    Normal forms are interned like every node, so all engines share them;
    create one engine per query, as its tables hold every term it met."""

    def __init__(self, ctx: SpecContext, debug_guard_chain: bool = False):
        self.ctx = ctx
        self.debug_guard_chain = debug_guard_chain
        self.hnf_cache: dict = {}
        self._nf: dict = {}

    def normalize(self, t: ProcessTerm) -> BasicTerm:
        """The canonical basic term of a closed, ground term."""
        return self._normalize(closed_ground_term(t, self.ctx))

    def _normalize(self, t: ProcessTerm) -> BasicTerm:
        hit = self._nf.get(t)
        if hit is not None:
            return hit
        if isinstance(t, Seq) and isinstance(t.lhs, Seq):
            # A5: (x . y) . z has the normal form of x . (y . z); stepping the
            # whole left spine right-nested keeps a sequence linear, while
            # the oracle still steps t as it is written
            x, rest = t.lhs, t.rhs
            while isinstance(x, Seq):
                x, rest = x.lhs, Seq(x.rhs, rest)
            out = self._nf[t] = self._normalize(Seq(x, rest))
            return out
        summands = []
        for a, k in _hnf(self, t):
            cont = None if k is None else self._normalize(k)
            summands.append(Summand(a, cont))
        out = BasicTerm.of(summands)
        self._nf[t] = out
        return out


def normalize(
    t: ProcessTerm, ctx: SpecContext, debug_guard_chain: bool = False
) -> BasicTerm:
    """Rewrite a closed, ground term to its canonical basic term."""
    return Engine(ctx, debug_guard_chain).normalize(t)


def normal_forms(
    terms: Sequence[ProcessTerm], ctx: SpecContext
) -> Tuple[BasicTerm, ...]:
    """The canonical basic terms of several terms, built in one engine, so
    that they share its hnf and normal-form tables."""
    engine = Engine(ctx)
    return tuple(engine.normalize(t) for t in terms)


def equal_terms(t1: ProcessTerm, t2: ProcessTerm, ctx: SpecContext) -> bool:
    """Decide equality of two closed ground terms via canonical forms."""
    nf1, nf2 = normal_forms((t1, t2), ctx)
    return nf1 is nf2
