"""Operational semantics: labelled transition systems and strong bisimilarity.

Terms are stepped by the SOS rules of ACP with data (Plotkin 1981), in
`_step`; successful termination is a transition into a distinguished
absorbing Done state.  Every step makes the term strictly smaller, so the
LTS is acyclic; bisimilarity is decided in one pass over it (Dovier,
Piazza & Policriti 2004), which raises ValueError on a cycle.  The
oracle's verdict on two terms takes the same pass over the terms reachable
from either, stepped by the same rules; it builds no LTS.  Nothing here
shares a function with the normal forms of `normalize`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

from .meadow import eval_quantity
from .speclang import pretty_prefix
from .terms import (Action, ActionLiteral, Alt, CommMerge, DataAction, Deadlock, Encap, Guard,
                    LeftMerge, Par, ProcessTerm, Seq, SpecContext, closed_ground_term)


class LTS(namedtuple("LTS", "num_states initial transitions done terms", defaults=(None, ()))):
    """States are indexed 0..n-1; state 0 is initial.  ``transitions`` is a
    set of (source, ActionLiteral, target) triples.  ``done`` is the index
    of the distinguished successful-termination state, if reachable.
    ``terms[s]`` is the process term of state s (None for ``done``)."""

    __slots__ = ()


def build_lts(t: ProcessTerm, ctx: SpecContext) -> LTS:
    """Explore all terms reachable from t by the steps of `_step`."""
    t = closed_ground_term(t, ctx)
    # Done is the residual None, numbered when it is first reached; the
    # index's keys, in insertion order, are the terms of the states
    index: dict[ProcessTerm | None, int] = {t: 0}
    transitions: set[tuple[int, ActionLiteral, int]] = set()
    table: dict = {}
    work = [t]
    while work:
        term = work.pop()
        src = index[term]
        for action, residual in _step(ctx, table, term):
            dst = index.get(residual)
            if dst is None:
                dst = index[residual] = len(index)
                if residual is not None:
                    work.append(residual)
            transitions.add((src, action, dst))
    return LTS(len(index), 0, transitions, done=index.get(None), terms=list(index))


def _classes(roots, steps, cls: dict, classes: dict[frozenset, int]) -> list:
    """The bisimulation classes of roots, in one bottom-up pass (Dovier,
    Piazza & Policriti 2004): on an acyclic state space a state's class is
    the set of its (action, successor class) pairs, interned in ``classes``
    and computed once, after its successors', on an explicit stack.

    ``steps(s)`` is the collection of (action, successor) pairs of state s;
    it is called once per state and read twice.  ``cls`` maps each finished state to its class;
    seed it with Done's class -1, so that termination is distinguished from
    deadlock.  A state on the current path has the class None, so a step
    back to it is a cycle and raises ValueError."""
    for root in roots:
        # (state, None) visits a state; (state, its steps) finishes it
        stack = [(root, None)]
        while stack:
            s, edges = stack.pop()
            if edges is not None:
                signature = frozenset([(a, cls[q]) for a, q in edges])
                cls[s] = classes.setdefault(signature, len(classes))
            elif s not in cls:
                cls[s] = None
                edges = steps(s)
                stack.append((s, edges))
                for _, q in edges:
                    if q not in cls:
                        stack.append((q, None))
                    elif cls[q] is None:
                        raise ValueError("the LTS has a cycle")
    return [cls[root] for root in roots]


def bisimilar(l1: LTS, l2: LTS) -> bool:
    """Strong bisimilarity of initial states, classed in one table both
    LTSs share."""
    classes: dict[frozenset, int] = {}
    initial = []
    for lts in (l1, l2):
        succ: list[list[tuple[ActionLiteral, int]]] = [[] for _ in range(lts.num_states)]
        for p, a, q in lts.transitions:
            succ[p].append((a, q))
        cls = {} if lts.done is None else {lts.done: -1}
        initial += _classes([lts.initial], succ.__getitem__, cls, classes)
    return initial[0] == initial[1]


def _step(ctx: SpecContext, table: dict, t: ProcessTerm) -> dict:
    """The (action, residual) pairs of t, Done the residual None, by the SOS
    rules of ACP with data (Plotkin 1981), as the keys of a dict kept in
    ``table``: a step reached twice, as in x + x, is kept once, and the
    steps keep the order the rules make them in, not an order of hashes, so
    that `build_lts` numbers its states alike under every PYTHONHASHSEED.
    A right step of a merge keeps the order, x || y'; two steps synchronize
    when gamma is defined on their names and their data are equal.  A level
    costs a frame.  An atom's ground action is kept on the atom node, as
    (meadow, literal) under ``_lts_lit``, a name `normalize` does not read."""
    if t in table:
        return table[t]
    kind = type(t)
    if kind is Par or kind is LeftMerge or kind is CommMerge:
        x, y = t.lhs, t.rhs
        left = table.get(x) or _step(ctx, table, x)
        out = {} if kind is CommMerge else {(a, y if k is None else Par(k, y)): None
                                            for a, k in left}
        if kind is not LeftMerge:
            right = table.get(y) or _step(ctx, table, y)
            if kind is Par:
                out |= {(a, x if l is None else Par(x, l)): None for a, l in right}
            for a, k in left:
                for b, l in right:
                    name = ctx.comm.get((a.name, b.name))
                    if name is not None and a.args == b.args:
                        out[ActionLiteral(name, a.args),
                            l if k is None else k if l is None else Par(k, l)] = None
    elif kind is Seq:
        left, y = table.get(t.lhs) or _step(ctx, table, t.lhs), t.rhs
        out = {(a, y if k is None else Seq(k, y)): None for a, k in left}
    elif kind is Alt:
        left = table.get(t.lhs) or _step(ctx, table, t.lhs)
        out = left | (table.get(t.rhs) or _step(ctx, table, t.rhs))
    elif kind is DataAction or kind is Action:
        m, lit = t.__dict__.get("_lts_lit") or (None, None)
        if m is not ctx.meadow:
            m = ctx.meadow
            args = tuple([eval_quantity(q, {}, m) for q in t.args]) if kind is DataAction else ()
            lit = ActionLiteral(t.name, args)
            object.__setattr__(t, "_lts_lit", (m, lit))
        out = {(lit, None): None}
    elif kind is Guard:
        enabled = eval_quantity(t.cond, {}, ctx.meadow).is_zero
        out = (table.get(t.body) or _step(ctx, table, t.body)) if enabled else {}
    elif kind is Encap:
        hide = t.hide
        body = table.get(t.body) or _step(ctx, table, t.body)
        out = {(a, k if k is None else Encap(hide, k)): None for a, k in body if a.name not in hide}
    elif kind is Deadlock:
        out = {}
    else:
        raise TypeError(f"not a closed process term: {t!r}")
    table[t] = out
    return out


def bisimilar_terms(t1: ProcessTerm, t2: ProcessTerm, ctx: SpecContext) -> bool:
    """Strong bisimilarity of two closed ground terms, decided on the one
    state space of the terms reachable from either: each is stepped by
    `_step` in one table and classed once, and no LTS is built.  Done is
    the residual None."""
    roots = [closed_ground_term(t, ctx) for t in (t1, t2)]
    c1, c2 = _classes(roots, partial(_step, ctx, {}), {None: -1}, {})
    return c1 == c2


def ordered_transitions(lts: LTS) -> list[tuple[int, ActionLiteral, int]]:
    """The transitions in printed order: by source, action, then target."""
    return sorted(lts.transitions, key=lambda e: (e[0], e[1].sort_key(), e[2]))


def to_dot(lts: LTS) -> str:
    """Graphviz rendering; the Done state is double-circled.  A state's
    label is its term's text, cut to 60 characters."""
    lines = ["digraph lts {", "  rankdir=LR;"]
    memo: dict = {}  # the memo of pretty_prefix, shared by the states
    for s in range(lts.num_states):
        shape = "doublecircle" if s == lts.done else "circle"
        if s >= len(lts.terms):
            label = str(s)
        elif lts.terms[s] is None:
            label = "done"
        else:
            label = pretty_prefix(lts.terms[s], 61, memo)
            if len(label) > 60:
                label = label[:57] + "..."
        label = label.replace('"', '\\"')
        lines.append(f'  n{s} [shape={shape}, label="{label}"];')
    for p, a, q in ordered_transitions(lts):
        lines.append(f'  n{p} -> n{q} [label="{a}"];')
    lines.append("}")
    return "\n".join(lines)
