"""Textual specification format (".acpm") and term expression parser.

A specification is a sequence of semicolon-terminated declarations::

    act a, b, c;
    comm a | b = c;
    meadow F 3;
    set H = {a, b};
    proc P = a . b + delta;

Process expressions use ASCII operators: "+" (alternative), "." (sequence),
"||" (merge), "|_" (left merge), "|" (communication merge),
"encap(H, P)" (encapsulation) and "[q] -> P" (guarded command, enabled
when q evaluates to 0).  "+" binds weakest, "." strongest; the three
parallel operators sit in between and may not be mixed without
parentheses.  A guard's body is a factor, so "[q] -> P . Q" is
"([q] -> P) . Q".  In quantity expressions "p - q" and "p / q" are sugar for
"p + (-q)" and "p * inv(q)"; numerals become rational literals.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .meadow import (
    MeadowError,
    MeadowKind,
    QAdd,
    QInv,
    QMul,
    QNeg,
    QVar,
    QuantityTerm,
    _qlayout,
    quantity_literal,
    unfold,
)
from .terms import (
    Action,
    Alt,
    CommMerge,
    DataAction,
    Deadlock,
    Encap,
    Guard,
    LeftMerge,
    Par,
    ProcessTerm,
    ProcVar,
    Seq,
    SpecContext,
    validate_comm_spec,
)


class SpecError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0, filename: str = "<spec>"):
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(f"{filename}:{line}:{col}: {message}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym>\|\||\|_|->|[;,(){}=+.\[\]*/|-])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# binary operators and prefixes as (precedence, constructor); a prefix's
# constructor takes the placeholder it put below its operand first
_PROC_OPS = {"+": (0, Alt), "||": (1, Par), "|_": (1, LeftMerge), "|": (1, CommMerge), ".": (2, Seq)}
_QTY_OPS = {
    "+": (0, QAdd), "-": (0, lambda p, q: QAdd(p, QNeg(q))),
    "*": (1, QMul), "/": (1, lambda p, q: QMul(p, QInv(q))),
}
_NEG = (2, lambda _, q: QNeg(q))
_GUARD = (3, Guard)
# the constructors of the groups that build a node
_INV = lambda _, q: QInv(q)
_DATA = lambda name, *args: DataAction(name, args)


class _Parser:
    """Tokens are (kind, text, offset) tuples, where a symbol's kind is its
    own text; the whole input is scanned first, so that a bad character is
    reported before any syntax error."""

    def __init__(self, src: str, filename: str, ctx: SpecContext | None = None):
        self.src, self.filename, self.ctx = src, filename, ctx
        self.tokens = [
            (m.group() if kind == "sym" else kind, m.group(), m.start())
            for m in _TOKEN_RE.finditer(src) if (kind := m.lastgroup) != "ws"
        ]
        for tok in self.tokens:
            if tok[0] == "bad":
                self.error(f"unexpected character {tok[1]!r}", tok)
        self.tokens.append(("eof", "", len(src)))
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def line_col(self, tok) -> tuple[int, int]:
        offset = tok[2]
        return self.src.count("\n", 0, offset) + 1, offset - self.src.rfind("\n", 0, offset)

    def error(self, message: str, tok=None):
        raise SpecError(message, *self.line_col(tok or self.tokens[self.pos]), self.filename)

    def take(self, kind: str) -> bool:
        """Consume the current token if it is of this kind."""
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            wanted = "a name" if kind == "ident" else repr(kind)
            self.error(f"expected {wanted}, found {tok[1]!r}")
        self.pos += 1
        return tok

    # -- spec declarations -------------------------------------------------

    def parse_spec(self) -> SpecContext:
        """Fill one context as the declarations come, so that a proc body
        sees only what was declared before it."""
        ctx = self.ctx = SpecContext(frozenset())
        meadow_tok = None
        while self.tokens[self.pos][0] != "eof":
            tok = self.expect("ident")
            keyword = tok[1]
            if keyword == "act":
                taken = {"a set": ctx.sets, "a process": ctx.definitions}
                for name_tok in self._name_list():
                    self._no_clash(name_tok, "action", taken)
                    ctx.alphabet |= {name_tok[1]}
            elif keyword == "comm":
                a = self._comm_name()
                self.expect("|")
                b = self._comm_name()
                self.expect("=")
                c = self._comm_name()
                old = ctx.comm.get((a, b))
                if old not in (None, c):
                    self.error(f"communication {a} | {b} already declared as {old!r}", tok)
                ctx.comm[(a, b)] = ctx.comm[(b, a)] = c
            elif keyword == "meadow":
                if meadow_tok is not None:
                    line = self.line_col(meadow_tok)[0]
                    self.error(f"meadow already declared at line {line}", tok)
                ctx.meadow, meadow_tok = self._meadow_decl(), tok
            elif keyword == "set":
                name_tok = self.expect("ident")
                if name_tok[1] in ctx.sets:
                    self.error(f"set {name_tok[1]!r} already defined", name_tok)
                self._no_clash(name_tok, "set", {"an action": ctx.alphabet})
                self.expect("=")
                ctx.sets[name_tok[1]] = frozenset(self._name_set())
            elif keyword == "proc":
                name_tok = self.expect("ident")
                if name_tok[1] in ctx.definitions:
                    self.error(f"process {name_tok[1]!r} already defined", name_tok)
                self._no_clash(name_tok, "process", {"an action": ctx.alphabet})
                self.expect("=")
                ctx.definitions[name_tok[1]] = self.parse_pexpr()
            else:
                self.error(f"unknown declaration {keyword!r}", tok)
            self.expect(";")
        violations = validate_comm_spec(ctx.comm, ctx.alphabet)
        if violations:
            self.error("invalid communication function: " + "; ".join(violations))
        for name, members in ctx.sets.items():
            extra = members - ctx.alphabet
            if extra:
                self.error(f"set {name!r} mentions unknown actions {sorted(extra)}")
        return ctx

    def _comm_name(self) -> str:
        tok = self.expect("ident")
        if tok[1] not in self.ctx.alphabet:
            self.error(f"unknown action {tok[1]!r} in comm declaration", tok)
        return tok[1]

    def _meadow_decl(self) -> MeadowKind:
        tok = self.expect("ident")
        text = tok[1]
        if text in ("F", "f") and self.tokens[self.pos][0] == "int":
            text += self.expect("int")[1]
        try:
            return MeadowKind.from_name(text)
        except MeadowError as exc:
            self.error(str(exc), tok)

    def _no_clash(self, tok, kind: str, taken: dict) -> None:
        """An action shares its name with no set and no process: where both
        readings parse, the one looked up first would hide the other."""
        for other, names in taken.items():
            if tok[1] in names:
                self.error(f"{kind} name {tok[1]!r} clashes with {other}", tok)

    def _name_list(self) -> list:
        names = [self.expect("ident")]
        while self.take(","):
            names.append(self.expect("ident"))
        return names

    def _name_set(self) -> set:
        """`{a, b}`, or `{}` for the empty set."""
        self.expect("{")
        names = set() if self.tokens[self.pos][0] == "}" else {t[1] for t in self._name_list()}
        self.expect("}")
        return names

    def _encap_set(self):
        if self.tokens[self.pos][0] == "{":
            names = self._name_set()
            extra = names - self.ctx.alphabet
            if extra:
                self.error(f"encapsulation set mentions unknown actions {sorted(extra)}")
            return frozenset(names)
        # an action before a set, as parse_pexpr reads an action before a process
        tok = self.expect("ident")
        if tok[1] in self.ctx.alphabet:
            return frozenset({tok[1]})
        if tok[1] in self.ctx.sets:
            return self.ctx.sets[tok[1]]
        self.error(f"unknown set or action {tok[1]!r}", tok)

    # -- expressions of both sorts ------------------------------------------

    def parse_pexpr(self) -> ProcessTerm:
        """One process expression, up to the first token that cannot continue
        it, by operator precedence on explicit stacks (a shunting yard).

        In operand position come prefixes and opening brackets, then one
        atom; in operator position a binary operator, or the close of the
        innermost group.  ``vals`` holds operands, and every constructor
        takes two: a prefix or group first puts its own left one there (a
        data action's name, an encap's set, None for "-" and "inv("), and a
        guard's condition stays there when its "]" closes.  ``ops`` holds operators
        and prefixes as (precedence, constructor), and each open group as
        [-1, its closer, whether it holds quantities, its constructor, where
        its operands start in ``vals``, the parallel operator seen in it
        since its last "+", the enclosing group].  A group is "(", "[" (a
        guard's condition), "encap(", "inv(" or a data action's arguments.
        """
        tokens, ctx = self.tokens, self.ctx
        vals: list = []
        group = [-1, None, False, None, 0, None, None]  # the top level
        ops: list = [group]
        operand = True
        while True:
            kind, text, _ = tok = tokens[self.pos]
            self.pos += 1
            quantity = group[2]
            if operand:
                closer = make = None
                if kind == "(":
                    closer = ")"
                elif kind == "[" and not quantity:
                    closer, quantity = "]", True
                elif kind == "-" and quantity:
                    vals.append(None)
                    ops.append(_NEG)
                    continue
                elif kind == "int" and quantity:
                    vals.append(quantity_literal(Fraction(int(text))))
                elif kind != "ident":
                    self.error(f"expected a name, found {text!r}", tok)
                elif quantity and text == "inv":
                    self.expect("(")
                    vals.append(None)
                    closer, make = ")", _INV
                elif quantity:
                    vals.append(QVar(text))
                elif text == "delta":
                    vals.append(Deadlock())
                elif text == "encap":
                    self.expect("(")
                    vals.append(self._encap_set())
                    self.expect(",")
                    closer, make = ")", Encap
                elif self.take("("):
                    if text not in ctx.alphabet:
                        self.error(f"unknown action {text!r}", tok)
                    vals.append(text)
                    if self.take(")"):
                        vals[-1] = DataAction(text, ())
                    else:
                        closer, make, quantity = ")", _DATA, True
                elif text in ctx.alphabet:
                    vals.append(Action(text))
                elif text in ctx.definitions:
                    vals.append(ProcVar(text))
                else:
                    self.error(f"unknown action or process {text!r}", tok)
                if closer is None:
                    operand = False
                else:
                    group = [-1, closer, quantity, make, len(vals), None, group]
                    ops.append(group)
                continue
            op = (_QTY_OPS if quantity else _PROC_OPS).get(kind)
            prec = 0 if op is None else op[0]
            if op is not None and not quantity and prec < 2:
                if prec and group[5] not in (None, kind):
                    self.error(f"mixing {group[5]!r} and {kind!r} requires parentheses", tok)
                group[5] = kind if prec else None
            while ops[-1][0] >= prec:
                rhs = vals.pop()
                vals[-1] = ops.pop()[1](vals[-1], rhs)
            if op is not None:
                ops.append(op)
                operand = True
            elif kind == "," and group[3] is _DATA:
                operand = True
            elif kind == group[1]:
                ops.pop()
                if group[3] is not None:
                    start = group[4] - 1
                    vals[start:] = [group[3](*vals[start:])]
                group = group[6]
                if kind == "]":
                    self.expect("->")
                    ops.append(_GUARD)
                    operand = True
            elif group[1] is not None:
                self.error(f"expected {group[1]!r}, found {text!r}", tok)
            else:
                self.pos -= 1
                return vals[0]


def parse_spec(src: str, filename: str = "<spec>") -> SpecContext:
    """Parse and validate a full specification."""
    return _Parser(src, filename).parse_spec()


def parse_term(src: str, ctx: SpecContext, filename: str = "<term>") -> ProcessTerm:
    """Parse a standalone process expression against a specification context."""
    parser = _Parser(src, filename, ctx)
    term = parser.parse_pexpr()
    if not parser.take("eof"):
        parser.error(f"trailing input {parser.tokens[parser.pos][1]!r}")
    return term


# ---------------------------------------------------------------------------
# Pretty printing (inverse of parse_term on the constructors it can reach)

_PAR_SYMBOL = {Par: "||", LeftMerge: "|_", CommMerge: "|"}

# levels: 0 alternative, 1 parallel, 2 sequential, 3 factor


def _layout(t, level: int) -> tuple:
    """How a process or quantity term t prints at a level: its text in
    order, as strings and the (subterm, level) pairs that print in their
    place."""
    if isinstance(t, QuantityTerm):
        return _qlayout(t, level)
    if isinstance(t, Deadlock):
        return ("delta",)
    if isinstance(t, (Action, ProcVar)):
        return (t.name,)
    if isinstance(t, DataAction):
        args = [piece for q in t.args for piece in (", ", (q, 0))]
        return (f"{t.name}(", *args[1:], ")")
    if isinstance(t, Guard):
        return ("[", (t.cond, 0), "] -> ", (t.body, 3))
    if isinstance(t, Encap):
        return (f"encap({{{', '.join(sorted(t.hide))}}}, ", (t.body, 0), ")")
    if isinstance(t, Alt):
        parts, bracket = ((t.lhs, 0), " + ", (t.rhs, 1)), level > 0
    elif isinstance(t, Seq):
        parts, bracket = ((t.lhs, 2), " . ", (t.rhs, 3)), level > 2
    elif isinstance(t, (Par, LeftMerge, CommMerge)):
        lhs = (t.lhs, 1 if isinstance(t.lhs, type(t)) else 2)
        parts, bracket = (lhs, f" {_PAR_SYMBOL[type(t)]} ", (t.rhs, 2)), level > 1
    else:
        raise TypeError(f"not a process term: {t!r}")
    return ("(", *parts, ")") if bracket else parts


def pretty_term(t: ProcessTerm) -> str:
    """The text of t, produced as pieces from an explicit stack."""
    return unfold(t, _layout)


def pretty_prefix(t: ProcessTerm, limit: int, memo: dict) -> str:
    """pretty_term(t)[:limit], without rendering the rest.

    ``memo`` maps (subterm, level) to the same cut of the subterm's text.
    Callers that cut many terms to one limit share it, so that each
    distinct subterm is rendered once: the states of an LTS share most of
    their subterms.  A post-order on an explicit stack that renders a
    subterm only while the text before it is shorter than the limit.
    """
    stack = [(t, 0)]
    while stack:
        key = stack[-1]
        text, missing = "", None
        for part in _layout(*key):
            if not isinstance(part, str):
                if part not in memo:
                    missing = part
                    break
                part = memo[part]
            text += part
            if len(text) >= limit:
                break
        if missing is None:
            memo[key] = text[:limit]
            stack.pop()
        else:
            stack.append(missing)
    return memo[(t, 0)]
