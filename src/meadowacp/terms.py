"""Process-term syntax over the two-sorted, data-enriched process signature.

Terms are immutable and interned (:func:`meadow.interned`): equal terms are
one object.  Atomic actions may carry a tuple of quantity terms
(data-handling actions); a plain named action is the 0-ary case.  Parallel
composition comes in three flavours: full merge, left merge (first step from
the left operand) and communication merge (synchronized first step, mediated
by the communication function gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .meadow import (
    MeadowKind,
    MeadowValue,
    QAdd,
    QInv,
    QMul,
    QNeg,
    QuantityTerm,
    QVar,
    interned,
)


class ProcessError(Exception):
    pass


class OpenTerm(ProcessError):
    """An operation requiring a closed, ground term met a free variable."""


class ProcessTerm:
    __slots__ = ()
    _closed = False  # set on a node once free_vars finds it closed and ground


@interned
class Deadlock(ProcessTerm):
    pass


@interned
class Action(ProcessTerm):
    name: str


@interned
class DataAction(ProcessTerm):
    name: str
    args: Tuple[QuantityTerm, ...]


@interned
class Alt(ProcessTerm):
    lhs: ProcessTerm
    rhs: ProcessTerm


@interned
class Seq(ProcessTerm):
    lhs: ProcessTerm
    rhs: ProcessTerm


@interned
class Par(ProcessTerm):
    lhs: ProcessTerm
    rhs: ProcessTerm


@interned
class LeftMerge(ProcessTerm):
    lhs: ProcessTerm
    rhs: ProcessTerm


@interned
class CommMerge(ProcessTerm):
    lhs: ProcessTerm
    rhs: ProcessTerm


@interned
class Encap(ProcessTerm):
    hide: FrozenSet[str]
    body: ProcessTerm


@interned
class Guard(ProcessTerm):
    cond: QuantityTerm
    body: ProcessTerm


@interned
class ProcVar(ProcessTerm):
    name: str


def data_action(name: str, values: Sequence[MeadowValue]) -> DataAction:
    """The data action ``name(v1, ..., vn)`` with each value as a literal."""
    return DataAction(name, tuple(v.literal() for v in values))


@interned
class ActionLiteral:
    """A ground atomic action: a name plus evaluated data arguments."""

    name: str
    args: Tuple[MeadowValue, ...] = ()

    def sort_key(self):
        """(name, arity, argument values), kept in the instance's ``_key`` slot."""
        key = self.__dict__.get("_key")
        if key is None:
            key = (self.name, len(self.args), tuple(v.sort_key() for v in self.args))
            object.__setattr__(self, "_key", key)
        return key

    def term(self) -> ProcessTerm:
        """The process term denoting this literal: a plain action when 0-ary."""
        return data_action(self.name, self.args) if self.args else Action(self.name)

    def __str__(self) -> str:
        """The literal's text, kept in the instance's ``_str`` slot."""
        text = self.__dict__.get("_str")
        if text is None:
            text = self.name
            if self.args:
                text += f"({','.join(str(v) for v in self.args)})"
            object.__setattr__(self, "_str", text)
        return text


# ---------------------------------------------------------------------------
# Communication function and specification context


def validate_comm_spec(comm: Mapping[Tuple[str, str], str], alphabet: Iterable[str]) -> List[str]:
    """The associativity violations of gamma over the alphabet.

    Undefined pairs are deadlock and deadlock is absorbing, so
    gamma*(gamma*(a,b),c) must equal gamma*(a,gamma*(b,c)) for all triples.
    """
    names = sorted(alphabet)
    violations = []
    for a in names:
        for b in names:
            for c in names:
                ab = comm.get((a, b))
                left = comm.get((ab, c)) if ab is not None else None
                bc = comm.get((b, c))
                right = comm.get((a, bc)) if bc is not None else None
                if left != right:
                    violations.append(
                        f"associativity violation at ({a},{b},{c}): "
                        f"{left or 'delta'} != {right or 'delta'}"
                    )
    return violations


@dataclass
class SpecContext:
    """A declared alphabet, communication function, meadow, named process
    definitions (non-recursive) and named encapsulation sets.

    The communication function gamma is the partial map ``comm`` from
    action-name pairs to names; absent pairs do not synchronize.  gamma is
    commutative (t2.20), so the context holds every pair in both orders,
    and a pair given with two results is a ValueError.
    """

    alphabet: FrozenSet[str]
    comm: Dict[Tuple[str, str], str] = field(default_factory=dict)
    meadow: MeadowKind = field(default_factory=MeadowKind.rationals)
    definitions: Dict[str, ProcessTerm] = field(default_factory=dict)
    sets: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def __post_init__(self):
        comm = dict(self.comm)
        for (a, b), c in self.comm.items():
            if comm.setdefault((b, a), c) != c:
                raise ValueError(
                    f"communication {a} | {b} given as {c!r} and as {comm[(b, a)]!r}"
                )
        self.comm = comm


_BINARY = (Alt, Seq, Par, LeftMerge, CommMerge)
_PAIRS = (*_BINARY, QAdd, QMul)  # the nodes with an lhs and an rhs


def free_vars(t: ProcessTerm) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """t's free process and quantity variables, by one walk on an explicit
    stack over its distinct nodes that skips marked ones.  When nothing is
    free it marks each node it passed: being closed and ground does not
    depend on the context, so the shared node keeps it (as in ATerm)."""
    procs, quants, passed = set(), set(), set()
    stack = [t]
    while stack:
        node = stack.pop()
        if node._closed or node in passed:
            continue
        passed.add(node)
        if isinstance(node, _PAIRS):
            stack += (node.rhs, node.lhs)
        elif isinstance(node, Encap):
            stack.append(node.body)
        elif isinstance(node, Guard):
            stack += (node.body, node.cond)
        elif isinstance(node, DataAction):
            stack += node.args
        elif isinstance(node, (QNeg, QInv)):
            stack.append(node.arg)
        elif isinstance(node, ProcVar):
            procs.add(node.name)
        elif isinstance(node, QVar):
            quants.add(node.name)
    if not (procs or quants):
        for node in passed:
            object.__setattr__(node, "_closed", True)
    return frozenset(procs), frozenset(quants)


def free_process_vars(t: ProcessTerm) -> FrozenSet[str]:
    return free_vars(t)[0]


def free_quantity_vars(t: ProcessTerm) -> FrozenSet[str]:
    return free_vars(t)[1]


def _map_children(t: ProcessTerm, f) -> ProcessTerm:
    """t with f applied to its children; t itself (interned) if f changes none."""
    if isinstance(t, (Deadlock, Action, DataAction, ProcVar)):
        return t
    if isinstance(t, _BINARY):
        return type(t)(f(t.lhs), f(t.rhs))
    if isinstance(t, Encap):
        return Encap(t.hide, f(t.body))
    if isinstance(t, Guard):
        return Guard(t.cond, f(t.body))
    raise TypeError(f"not a process term: {t!r}")


def inline_definitions(t: ProcessTerm, ctx: SpecContext) -> ProcessTerm:
    """Replace every reference to a named definition by its (inlined) body.

    A ProcVar without a definition stays in place: it is a free process
    variable, as in the axiom schemas.  Returns t itself when there is
    nothing to inline.  Definitions that refer to themselves, directly or
    through others, raise a ProcessError naming the cycle.

    The walk is a post-order on an explicit stack, so deep terms do not
    exhaust the interpreter's.  Nodes are interned, so each distinct node is
    inlined once per call; a node inlined without error reaches no cycle,
    so its result does not depend on the definitions being expanded.  A
    node that free_vars marked holds no ProcVar and stays as it is.
    """
    defs = ctx.definitions
    if not defs:
        return t
    done: Dict[ProcessTerm, ProcessTerm] = {}
    path: List[str] = []  # the definitions being expanded, outermost first
    stack: List[Tuple[ProcessTerm, bool]] = [(t, False)]
    while stack:
        node, children_done = stack.pop()
        if children_done:
            if isinstance(node, ProcVar) and node.name in defs:
                path.pop()
                done[node] = done[defs[node.name]]
            else:
                done[node] = _map_children(node, done.__getitem__)
        elif node._closed:
            done[node] = node
        elif node not in done:
            stack.append((node, True))
            if isinstance(node, ProcVar) and node.name in defs:
                if node.name in path:
                    cycle = path[path.index(node.name):] + [node.name]
                    raise ProcessError("cyclic definitions: " + " -> ".join(cycle))
                path.append(node.name)
                stack.append((defs[node.name], False))
            elif isinstance(node, _BINARY):
                stack.append((node.rhs, False))
                stack.append((node.lhs, False))
            elif isinstance(node, (Encap, Guard)):
                stack.append((node.body, False))
    return done[t]


def closed_ground_term(t: ProcessTerm, ctx: SpecContext) -> ProcessTerm:
    """The gate of every query: t with its definitions inlined, checked to
    be closed and ground (else OpenTerm)."""
    g = inline_definitions(t, ctx)
    fv, qv = free_vars(g)
    if fv:
        raise OpenTerm(f"free process variables: {sorted(fv)}")
    if qv:
        raise OpenTerm(f"free quantity variables: {sorted(qv)}")
    return g
