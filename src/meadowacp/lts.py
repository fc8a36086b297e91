"""Operational semantics: labelled transition systems and strong bisimilarity.

The LTS of a closed ground term is built by repeatedly taking head normal
forms; successful termination is a transition into a distinguished
absorbing Done state.  Every step makes the term strictly smaller, so the
LTS is acyclic; bisimilarity is decided in one pass over it (Dovier,
Piazza & Policriti 2004), which raises ValueError on a cycle, and never
compares normal forms, so it is an independent oracle for the normalizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .normalize import Engine, _hnf
from .terms import ActionLiteral, ProcessTerm, SpecContext, closed_ground_term


@dataclass
class LTS:
    """States are indexed 0..n-1; state 0 is initial.  ``done`` is the index
    of the distinguished successful-termination state, if reachable.
    ``terms[s]`` is the process term of state s (None for ``done``)."""

    num_states: int
    initial: int
    transitions: Set[Tuple[int, ActionLiteral, int]]
    done: Optional[int] = None
    terms: List[Optional[ProcessTerm]] = field(default_factory=list)


def build_lts(t: ProcessTerm, ctx: SpecContext) -> LTS:
    """Explore all terms reachable from t by head-normal-form steps."""
    t = closed_ground_term(t, ctx)

    # an engine of its own: the oracle shares no cached result with the
    # normal forms it checks
    engine = Engine(ctx)
    index: Dict[ProcessTerm, int] = {t: 0}
    terms: List[Optional[ProcessTerm]] = [t]
    transitions: Set[Tuple[int, ActionLiteral, int]] = set()
    done: Optional[int] = None
    work = [t]
    while work:
        term = work.pop()
        src = index[term]
        for action, residual in _hnf(engine, term):
            if residual is None:
                if done is None:
                    done = len(terms)
                    terms.append(None)
                dst = done
            elif residual in index:
                dst = index[residual]
            else:
                dst = len(terms)
                index[residual] = dst
                terms.append(residual)
                work.append(residual)
            transitions.add((src, action, dst))
    return LTS(
        num_states=len(terms),
        initial=0,
        transitions=transitions,
        done=done,
        terms=terms,
    )


def _short_label(t: ProcessTerm, memo: dict) -> str:
    """pretty_term(t), cut to 60 characters; memo as in pretty_prefix."""
    from .speclang import pretty_prefix

    s = pretty_prefix(t, 61, memo)
    return s if len(s) <= 60 else s[:57] + "..."


def bisimilar(l1: LTS, l2: LTS) -> bool:
    """Strong bisimilarity of initial states, in one bottom-up pass: on an
    acyclic LTS a state's class is the set of its (action, successor class)
    pairs, interned in one table both LTSs share and computed once, after
    its successors', on an explicit stack.  Done has a class of its own, so
    termination is distinguished from deadlock."""
    classes: Dict[frozenset, int] = {}
    initial = []
    for lts in (l1, l2):
        succ: List[List[Tuple[ActionLiteral, int]]] = [[] for _ in range(lts.num_states)]
        for p, a, q in lts.transitions:
            succ[p].append((a, q))
        # a state on the current path has the class None
        cls: Dict[int, Optional[int]] = {}
        if lts.done is not None:
            cls[lts.done] = -1
        stack = [lts.initial]
        while stack:
            s = stack[-1]
            if s not in cls:
                cls[s] = None
                for _, q in succ[s]:
                    if q in cls and cls[q] is None:
                        raise ValueError("the LTS has a cycle")
                    stack.append(q)
            else:
                stack.pop()
                if cls[s] is None:
                    signature = frozenset((a, cls[q]) for a, q in succ[s])
                    cls[s] = classes.setdefault(signature, len(classes))
        initial.append(cls[lts.initial])
    return initial[0] == initial[1]


def to_dot(lts: LTS) -> str:
    """Graphviz rendering; the Done state is double-circled."""
    lines = ["digraph lts {", "  rankdir=LR;"]
    labels: dict = {}  # the memo of _short_label, shared by the states
    for s in range(lts.num_states):
        shape = "doublecircle" if s == lts.done else "circle"
        if s >= len(lts.terms):
            label = str(s)
        elif lts.terms[s] is None:
            label = "done"
        else:
            label = _short_label(lts.terms[s], labels)
        label = label.replace('"', '\\"')
        lines.append(f'  n{s} [shape={shape}, label="{label}"];')
    for p, a, q in sorted(
        lts.transitions, key=lambda e: (e[0], e[1].sort_key(), e[2])
    ):
        lines.append(f'  n{p} -> n{q} [label="{a}"];')
    lines.append("}")
    return "\n".join(lines)
