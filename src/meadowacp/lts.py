"""Operational semantics: labelled transition systems and strong bisimilarity.

The LTS of a closed ground term is built by repeatedly taking head normal
forms; successful termination is a transition into a distinguished
absorbing Done state.  Bisimilarity is decided by partition refinement and
never compares normal forms, so it serves as an independent oracle for
the normalizer.
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


def _short_label(t: ProcessTerm) -> str:
    from .speclang import pretty_term

    try:
        s = pretty_term(t)
    except Exception:
        s = repr(t)
    return s if len(s) <= 60 else s[:57] + "..."


def bisimilar(l1: LTS, l2: LTS) -> bool:
    """Strong bisimilarity of initial states, by partition refinement on the
    disjoint union.  Done states (successful termination) start in their own
    block, so termination capability is distinguished from deadlock."""
    offset = l1.num_states
    n = l1.num_states + l2.num_states
    succ: List[List[Tuple[ActionLiteral, int]]] = [[] for _ in range(n)]
    for p, a, q in l1.transitions:
        succ[p].append((a, q))
    for p, a, q in l2.transitions:
        succ[p + offset].append((a, q + offset))

    done = set()
    if l1.done is not None:
        done.add(l1.done)
    if l2.done is not None:
        done.add(l2.done + offset)

    block = [1 if s in done else 0 for s in range(n)]
    while True:
        signatures = [
            (block[s], frozenset((a, block[q]) for a, q in succ[s])) for s in range(n)
        ]
        renumber: Dict[tuple, int] = {}
        new_block = []
        for sig in signatures:
            if sig not in renumber:
                renumber[sig] = len(renumber)
            new_block.append(renumber[sig])
        if new_block == block:
            break
        block = new_block
    return block[l1.initial] == block[l2.initial + offset]


def to_dot(lts: LTS) -> str:
    """Graphviz rendering; the Done state is double-circled."""
    lines = ["digraph lts {", "  rankdir=LR;"]
    for s in range(lts.num_states):
        shape = "doublecircle" if s == lts.done else "circle"
        if s >= len(lts.terms):
            label = str(s)
        elif lts.terms[s] is None:
            label = "done"
        else:
            label = _short_label(lts.terms[s])
        label = label.replace('"', '\\"')
        lines.append(f'  n{s} [shape={shape}, label="{label}"];')
    for p, a, q in sorted(
        lts.transitions, key=lambda e: (e[0], e[1].sort_key(), e[2])
    ):
        lines.append(f'  n{p} -> n{q} [label="{a}"];')
    lines.append("}")
    return "\n".join(lines)
