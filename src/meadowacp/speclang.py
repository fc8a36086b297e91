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
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .meadow import (
    MeadowError,
    MeadowKind,
    QAdd,
    QConst,
    QInv,
    QMul,
    QNeg,
    QOne,
    QVar,
    QZero,
    QuantityTerm,
    pretty_quantity,
)
from .terms import (
    Action,
    Alt,
    CommMerge,
    CommSpec,
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


@dataclass
class Token:
    kind: str  # "ident" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym>\|\||\|_|->|[;,(){}=+.\[\]*/|-])
    """,
    re.VERBOSE,
)


def _tokenize(src: str, filename: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise SpecError(f"unexpected character {src[pos]!r}", line, col, filename)
        text = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src: str, filename: str, ctx: Optional[SpecContext] = None):
        self.tokens = _tokenize(src, filename)
        self.pos = 0
        self.filename = filename
        self.ctx = ctx

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.cur
        raise SpecError(message, tok.line, tok.col, self.filename)

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def at_sym(self, *texts: str) -> bool:
        return self.cur.kind == "sym" and self.cur.text in texts

    def at_ident(self, *names: str) -> bool:
        return self.cur.kind == "ident" and (not names or self.cur.text in names)

    def eat_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            self.error(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

    def eat_ident(self) -> Token:
        if self.cur.kind != "ident":
            self.error(f"expected a name, found {self.cur.text!r}")
        return self.advance()

    # -- spec declarations -------------------------------------------------

    def parse_spec(self) -> SpecContext:
        alphabet: set = set()
        comm_pairs = {}
        meadow, meadow_tok = MeadowKind.rationals(), None
        definitions = {}
        sets = {}
        self.ctx = SpecContext(frozenset(), CommSpec(), meadow, definitions, sets)
        while not self.cur.kind == "eof":
            tok = self.eat_ident()
            if tok.text == "act":
                taken = {"a set": sets, "a process": definitions}
                for name_tok in self._name_list():
                    self._no_clash(name_tok, "action", taken)
                    alphabet.add(name_tok.text)
            elif tok.text == "comm":
                a = self._comm_name(alphabet)
                self.eat_sym("|")
                b = self._comm_name(alphabet)
                self.eat_sym("=")
                c = self._comm_name(alphabet)
                old = comm_pairs.get((a, b), comm_pairs.get((b, a)))
                if old not in (None, c):
                    self.error(f"communication {a} | {b} already declared as {old!r}", tok)
                comm_pairs[(a, b)] = c
            elif tok.text == "meadow":
                if meadow_tok is not None:
                    self.error(f"meadow already declared at line {meadow_tok.line}", tok)
                meadow, meadow_tok = self._meadow_decl(), tok
            elif tok.text == "set":
                name_tok = self.eat_ident()
                if name_tok.text in sets:
                    self.error(f"set {name_tok.text!r} already defined", name_tok)
                self._no_clash(name_tok, "set", {"an action": alphabet})
                self.eat_sym("=")
                sets[name_tok.text] = frozenset(self._name_set())
            elif tok.text == "proc":
                name_tok = self.eat_ident()
                if name_tok.text in definitions:
                    self.error(f"process {name_tok.text!r} already defined", name_tok)
                self._no_clash(name_tok, "process", {"an action": alphabet})
                self.eat_sym("=")
                self.ctx = SpecContext(
                    frozenset(alphabet), CommSpec.symmetric(comm_pairs), meadow,
                    definitions, sets,
                )
                definitions[name_tok.text] = self.parse_pexpr()
            else:
                self.error(f"unknown declaration {tok.text!r}", tok)
            self.eat_sym(";")
        ctx = SpecContext(
            frozenset(alphabet), CommSpec.symmetric(comm_pairs), meadow,
            definitions, sets,
        )
        report = validate_comm_spec(ctx.comm, ctx.alphabet)
        if not report.valid:
            self.error("invalid communication function: " + "; ".join(report.violations))
        for name, members in sets.items():
            extra = members - ctx.alphabet
            if extra:
                self.error(f"set {name!r} mentions unknown actions {sorted(extra)}")
        return ctx

    def _comm_name(self, alphabet) -> str:
        tok = self.eat_ident()
        if tok.text not in alphabet:
            self.error(f"unknown action {tok.text!r} in comm declaration", tok)
        return tok.text

    def _meadow_decl(self) -> MeadowKind:
        tok = self.eat_ident()
        text = tok.text
        if text in ("F", "f") and self.cur.kind == "int":
            text += self.advance().text
        try:
            return MeadowKind.from_name(text)
        except MeadowError as exc:
            self.error(str(exc), tok)

    def _no_clash(self, tok: Token, kind: str, taken: dict) -> None:
        """An action shares its name with no set and no process: where both
        readings parse, the one looked up first would hide the other."""
        for other, names in taken.items():
            if tok.text in names:
                self.error(f"{kind} name {tok.text!r} clashes with {other}", tok)

    def _name_list(self) -> List[Token]:
        names = [self.eat_ident()]
        while self.at_sym(","):
            self.advance()
            names.append(self.eat_ident())
        return names

    def _name_set(self) -> set:
        self.eat_sym("{")
        names = {tok.text for tok in self._name_list()}
        self.eat_sym("}")
        return names

    # -- process expressions -----------------------------------------------

    def parse_pexpr(self) -> ProcessTerm:
        term = self._parse_par()
        while self.at_sym("+"):
            self.advance()
            term = Alt(term, self._parse_par())
        return term

    _PAR_OPS = {"||": Par, "|_": LeftMerge, "|": CommMerge}

    def _parse_par(self) -> ProcessTerm:
        term = self._parse_seq()
        op_seen = None
        while self.at_sym("||", "|_", "|"):
            tok = self.advance()
            if op_seen is not None and tok.text != op_seen:
                self.error(
                    f"mixing {op_seen!r} and {tok.text!r} requires parentheses", tok
                )
            op_seen = tok.text
            term = self._PAR_OPS[tok.text](term, self._parse_seq())
        return term

    def _parse_seq(self) -> ProcessTerm:
        term = self._parse_pfac()
        while self.at_sym("."):
            self.advance()
            term = Seq(term, self._parse_pfac())
        return term

    def _parse_pfac(self) -> ProcessTerm:
        if self.at_sym("("):
            self.advance()
            term = self.parse_pexpr()
            self.eat_sym(")")
            return term
        if self.at_sym("["):
            self.advance()
            cond = self.parse_qexpr()
            self.eat_sym("]")
            self.eat_sym("->")
            return Guard(cond, self._parse_pfac())
        if self.at_ident("delta"):
            self.advance()
            return Deadlock()
        if self.at_ident("encap"):
            self.advance()
            self.eat_sym("(")
            hide = self._encap_set()
            self.eat_sym(",")
            body = self.parse_pexpr()
            self.eat_sym(")")
            return Encap(hide, body)
        tok = self.eat_ident()
        if self.at_sym("("):
            if tok.text not in self.ctx.alphabet:
                self.error(f"unknown action {tok.text!r}", tok)
            self.advance()
            args: Tuple[QuantityTerm, ...] = ()
            if not self.at_sym(")"):
                parts = [self.parse_qexpr()]
                while self.at_sym(","):
                    self.advance()
                    parts.append(self.parse_qexpr())
                args = tuple(parts)
            self.eat_sym(")")
            return DataAction(tok.text, args)
        if tok.text in self.ctx.alphabet:
            return Action(tok.text)
        if tok.text in self.ctx.definitions:
            return ProcVar(tok.text)
        self.error(f"unknown action or process {tok.text!r}", tok)

    def _encap_set(self):
        if self.at_sym("{"):
            names = self._name_set()
            extra = names - self.ctx.alphabet
            if extra:
                self.error(f"encapsulation set mentions unknown actions {sorted(extra)}")
            return frozenset(names)
        # an action before a set, as _parse_pfac reads an action before a process
        tok = self.eat_ident()
        if tok.text in self.ctx.alphabet:
            return frozenset({tok.text})
        if tok.text in self.ctx.sets:
            return self.ctx.sets[tok.text]
        self.error(f"unknown set or action {tok.text!r}", tok)

    # -- quantity expressions ----------------------------------------------

    def parse_qexpr(self) -> QuantityTerm:
        term = self._parse_qmul()
        while self.at_sym("+", "-"):
            op = self.advance().text
            rhs = self._parse_qmul()
            term = QAdd(term, QNeg(rhs) if op == "-" else rhs)
        return term

    def _parse_qmul(self) -> QuantityTerm:
        term = self._parse_qunary()
        while self.at_sym("*", "/"):
            op = self.advance().text
            rhs = self._parse_qunary()
            term = QMul(term, QInv(rhs) if op == "/" else rhs)
        return term

    def _parse_qunary(self) -> QuantityTerm:
        if self.at_sym("-"):
            self.advance()
            return QNeg(self._parse_qunary())
        return self._parse_qatom()

    def _parse_qatom(self) -> QuantityTerm:
        if self.at_sym("("):
            self.advance()
            term = self.parse_qexpr()
            self.eat_sym(")")
            return term
        if self.cur.kind == "int":
            n = int(self.advance().text)
            if n == 0:
                return QZero()
            if n == 1:
                return QOne()
            return QConst(Fraction(n))
        if self.at_ident("inv"):
            self.advance()
            self.eat_sym("(")
            term = self.parse_qexpr()
            self.eat_sym(")")
            return QInv(term)
        tok = self.eat_ident()
        return QVar(tok.text)


def parse_spec(src: str, filename: str = "<spec>") -> SpecContext:
    """Parse and validate a full specification."""
    return _Parser(src, filename).parse_spec()


def parse_term(src: str, ctx: SpecContext, filename: str = "<term>") -> ProcessTerm:
    """Parse a standalone process expression against a specification context."""
    parser = _Parser(src, filename, ctx)
    term = parser.parse_pexpr()
    if parser.cur.kind != "eof":
        parser.error(f"trailing input {parser.cur.text!r}")
    return term


# ---------------------------------------------------------------------------
# Pretty printing (inverse of parse_term on the constructors it can reach)

_PAR_SYMBOL = {Par: "||", LeftMerge: "|_", CommMerge: "|"}

# levels: 0 alternative, 1 parallel, 2 sequential, 3 factor


def pretty_term(t: ProcessTerm) -> str:
    return _pp(t, 0)


def _pp(t: ProcessTerm, level: int) -> str:
    if isinstance(t, Deadlock):
        return "delta"
    if isinstance(t, Action):
        return t.name
    if isinstance(t, ProcVar):
        return t.name
    if isinstance(t, DataAction):
        return f"{t.name}({', '.join(pretty_quantity(q) for q in t.args)})"
    if isinstance(t, Alt):
        s = f"{_pp(t.lhs, 0)} + {_pp(t.rhs, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, (Par, LeftMerge, CommMerge)):
        op = _PAR_SYMBOL[type(t)]
        lhs = _pp(t.lhs, 1) if isinstance(t.lhs, type(t)) else _pp(t.lhs, 2)
        s = f"{lhs} {op} {_pp(t.rhs, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(t, Seq):
        s = f"{_pp(t.lhs, 2)} . {_pp(t.rhs, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(t, Guard):
        return f"[{pretty_quantity(t.cond)}] -> {_pp(t.body, 3)}"
    if isinstance(t, Encap):
        hide = ", ".join(sorted(t.hide))
        return f"encap({{{hide}}}, {_pp(t.body, 0)})"
    raise TypeError(f"not a process term: {t!r}")
