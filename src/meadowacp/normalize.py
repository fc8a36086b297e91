"""Canonical normal forms for closed, ground process terms.

A term is rewritten into a *basic term*: a set of summands, each a ground
action literal optionally followed by a basic term, ordered only when it
is printed.  The empty set is deadlock.  Two closed ground terms are equal
in the equational theory exactly when their basic terms coincide, which is
what :func:`equal_terms` decides.

A merge's basic term is the merge of its operands' basic terms (`_merge`);
every other operator, and a merge under any of them, is stepped through its
head normal form (`_hnf`), which steps a sequence right-nested (A5), so a
sequence under any operator normalises in linear time.  The LTS and the
oracle have rules of their own, and step a sequence as it is written.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key

from .meadow import MeadowValue, QAdd, QNeg, eval_quantity, interned
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


class Summand(namedtuple("Summand", "action continuation", defaults=(None,))):
    """One alternative of a basic term, a pair; continuation None means
    successful termination."""

    __slots__ = ()


@interned
class BasicTerm:
    """A canonical normal form: the set of its summands, ordered only when
    it is printed.  Interned like every term node, so equal normal forms
    are one object, whichever engine built them."""

    summands: frozenset[Summand]

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
    once, after its continuations, and its text dropped after its last use."""
    text: dict[BasicTerm, str] = {}
    order: dict[BasicTerm, list[Summand]] = {}
    uses, stack = {}, [root]  # node -> summands of distinct nodes that continue with it
    while stack:
        for _, k in stack.pop().summands:
            if k is not None:
                if k not in uses:
                    stack.append(k)
                uses[k] = uses.get(k, 0) + 1

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
                if s != t:
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
        text[bt] = " + ".join(
            str(s.action) if (k := s.continuation) is None
            else f"{s.action} . {text[k]}" if len(k.summands) == 1
            else f"{s.action} . ({text[k]})" for s in summands) or "delta"
        for _, k in summands:
            if k is not None:
                uses[k] -= 1
                if not uses[k]:
                    del text[k]
    return text[root]


# ---------------------------------------------------------------------------
# Head normal forms

# A head summand is (ActionLiteral, residual process term or None for
# successful termination).  An hnf keeps its head summands as the keys of
# an insertion-ordered dict, not a set, so that their order follows the term
# and not the string hash of this process: it fixes the order in which
# `Engine._normalize` explores the residuals, and which guard-chain mismatch
# is reported first.
HeadSummand = tuple[ActionLiteral, ProcessTerm | None]
Hnf = dict[HeadSummand, None]


def guard_chain(
    name: str, us: tuple[MeadowValue, ...], vs: tuple[MeadowValue, ...]
) -> ProcessTerm:
    """The guard chain (u1 - v1) -> (... -> ((un - vn) -> e''(u1..un)))
    that axiom t3.12 gives for e(u1..un) | e'(v1..vn) when e | e' = e''."""
    term = data_action(name, us)
    for u, v in reversed(list(zip(us, vs, strict=True))):
        term = Guard(QAdd(u.literal(), QNeg(v.literal())), term)
    return term


def _sync(engine: "Engine", a1: ActionLiteral, a2: ActionLiteral):
    """The action a1 | a2, or None, for the normal-form route: gamma must be
    defined on the names and the data equal (t3.12).  Under --debug-guard-chain
    it is checked against the actions of the bare guard chain's hnf: that hnf
    would carry a residual r through unchanged, as e''(u1..un) . r."""
    name = engine.ctx.comm.get((a1.name, a2.name))
    if name is None or len(a1.args) != len(a2.args):
        return None
    action = ActionLiteral(name, a1.args) if a1.args == a2.args else None
    if engine.debug_guard_chain and a1.args:
        direct = [] if action is None else [action]
        # the chain holds no communication merge, so the cross-check cannot recurse
        chain = [a for a, _ in _hnf(engine, guard_chain(name, a1.args, a2.args))]
        if chain != direct:
            direct, chain = (", ".join(map(str, heads)) for heads in (direct, chain))
            raise GuardChainMismatch(f"{a1} | {a2}: direct route {{{direct}}} vs "
                                     f"guard chain {{{chain}}}")
    return action


def _hnf(engine: "Engine", t: ProcessTerm) -> Hnf:
    """The hnf of t, kept in ``engine.hnf_cache``.

    A rule reads an operand's hnf from the table before it recurses, and
    never recurses from inside a comprehension (a frame of its own before
    Python 3.12), so each level of nesting costs one frame; a sequence's
    left spine is walked in a loop and costs none.  Dispatch is on
    the exact class, most frequent first: node classes are never
    subclassed.  An atom's ground action is kept on the atom node, as
    (meadow, literal) under ``_nf_lit``, a name the oracle does not read."""
    cache = engine.hnf_cache
    hit = cache.get(t)
    if hit is not None:
        return hit

    kind = type(t)
    if kind is Par or kind is LeftMerge or kind is CommMerge:
        # x || y = x |_ y + y |_ x + x | y, from one hnf of each operand; x |_ y
        # never steps y
        x, y = t.lhs, t.rhs
        left = cache.get(x) or _hnf(engine, x)
        out = {} if kind is CommMerge else {(a, y if k is None else Par(k, y)): None
                                            for a, k in left}
        if kind is not LeftMerge:
            right = cache.get(y) or _hnf(engine, y)
            if kind is Par:
                out |= {(a, x if l is None else Par(l, x)): None for a, l in right}
            for a, k in left:
                for b, l in right:
                    action = _sync(engine, a, b)
                    if action is not None:
                        out[action, l if k is None else k if l is None else Par(k, l)] = None
    elif kind is Seq:
        # A5: (x . y) . z steps as x . (y . z), so every residual is right-nested
        x, rhs = t.lhs, t.rhs
        while type(x) is Seq:
            x, rhs = x.lhs, Seq(x.rhs, rhs)
        head = cache.get(x) or _hnf(engine, x)
        out = {(a, rhs if k is None else Seq(k, rhs)): None for a, k in head}
    elif kind is Alt:
        left = cache.get(t.lhs) or _hnf(engine, t.lhs)
        out = left | (cache.get(t.rhs) or _hnf(engine, t.rhs))
    elif kind is DataAction or kind is Action:
        m, lit = t.__dict__.get("_nf_lit") or (None, None)
        if m is not engine.ctx.meadow:
            m = engine.ctx.meadow
            vals = tuple([eval_quantity(q, {}, m) for q in t.args]) if kind is DataAction else ()
            lit = ActionLiteral(t.name, vals)
            object.__setattr__(t, "_nf_lit", (m, lit))
        out = {(lit, None): None}
    elif kind is Guard:
        cond = eval_quantity(t.cond, {}, engine.ctx.meadow)
        out = (cache.get(t.body) or _hnf(engine, t.body)) if cond.is_zero else {}
    elif kind is Deadlock:
        out = {}
    elif kind is Encap:
        hide = t.hide
        body = cache.get(t.body) or _hnf(engine, t.body)
        out = {(a, k if k is None else Encap(hide, k)): None
               for a, k in body if a.name not in hide}
    elif kind is ProcVar:
        raise OpenTerm(f"free process variable: {t.name}")
    else:
        raise TypeError(f"not a process term: {t!r}")

    cache[t] = out
    return out


def _merge(engine: "Engine", x: BasicTerm, y: BasicTerm) -> BasicTerm:
    """The normal form of X || Y: a . Y or a . (K || Y) for each summand a
    or a . K of X, the same for each summand of Y, and one for each pair
    that synchronizes.  Kept in ``engine._merges`` under both orders of the
    pair; it recurses only from plain loops, so a level costs one frame."""
    memo, summands = engine._merges, []
    add = summands.append
    for s in x.summands:
        k = s.continuation
        add(Summand(s.action, y if k is None else memo.get((k, y)) or _merge(engine, k, y)))
    for s in y.summands:
        k = s.continuation
        add(Summand(s.action, x if k is None else memo.get((x, k)) or _merge(engine, x, k)))
    for s in x.summands:
        for r in y.summands:
            action = _sync(engine, s.action, r.action)
            if action is not None:
                k, l = s.continuation, r.continuation
                add(Summand(action, l if k is None else k if l is None
                            else memo.get((k, l)) or _merge(engine, k, l)))
    out = memo[(x, y)] = memo[(y, x)] = BasicTerm(frozenset(summands))
    return out


class Engine:
    """The state of one query: its tables of hnfs, normal forms and merges
    of normal forms.  Normal forms are interned like every node, so all
    engines share them; create one engine per query, as its tables hold
    every term it met."""

    def __init__(self, ctx: SpecContext, debug_guard_chain: bool = False):
        self.ctx = ctx
        self.debug_guard_chain = debug_guard_chain
        self.hnf_cache: dict = {}
        self._nf: dict = {}
        self._merges: dict = {}

    def normalize(self, t: ProcessTerm) -> BasicTerm:
        """The canonical basic term of a closed, ground term."""
        return self._normalize(closed_ground_term(t, self.ctx))

    def _normalize(self, t: ProcessTerm) -> BasicTerm:
        nf = self._nf
        hit = nf.get(t)
        if hit is not None:
            return hit
        if type(t) is Par:
            # the merge of the operands' normal forms; the oracle steps t instead
            x = nf.get(t.lhs) or self._normalize(t.lhs)
            y = nf.get(t.rhs) or self._normalize(t.rhs)
            out = nf[t] = self._merges.get((x, y)) or _merge(self, x, y)
            return out
        summands = []
        for a, k in self.hnf_cache.get(t) or _hnf(self, t):
            summands.append(Summand(a, k if k is None else nf.get(k) or self._normalize(k)))
        out = nf[t] = BasicTerm(frozenset(summands))
        return out


def normalize(
    t: ProcessTerm, ctx: SpecContext, debug_guard_chain: bool = False
) -> BasicTerm:
    """Rewrite a closed, ground term to its canonical basic term."""
    return Engine(ctx, debug_guard_chain).normalize(t)


def normal_forms(
    terms: tuple[ProcessTerm, ...], ctx: SpecContext
) -> tuple[BasicTerm, ...]:
    """The canonical basic terms of several terms, built in one engine, so
    that they share its hnf and normal-form tables."""
    engine = Engine(ctx)
    return tuple(engine.normalize(t) for t in terms)


def equal_terms(t1: ProcessTerm, t2: ProcessTerm, ctx: SpecContext) -> bool:
    """Decide equality of two closed ground terms via canonical forms."""
    nf1, nf2 = normal_forms((t1, t2), ctx)
    return nf1 is nf2
