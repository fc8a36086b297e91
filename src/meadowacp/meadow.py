"""Exact arithmetic for concrete meadows.

A meadow is a commutative ring with identity together with a *total*
multiplicative inverse operation; the inverse of zero is zero.  Three
concrete meadows are provided:

* ``Q0``      -- the rational numbers with zero-totalized inverse,
* ``F_p``     -- the prime field Z/pZ with inverse-of-zero = 0,
* ``trivial`` -- the one-element meadow Z/1Z (0 = 1), useful as a witness
  that the separation property 0 != 1 is independent of the defining
  equations.  Its arithmetic is the residue arithmetic with modulus 1.

Quantity terms are small syntax trees over {0, 1, +, *, -, inv} with
variables.  One walk, :func:`_columns`, evaluates them on an explicit
stack, over the meadow's raw values (a Fraction in Q0, an int residue in
Z/pZ) and over a column of n assignments at once; it is the only code that
adds, multiplies, negates or inverts a meadow value.  :func:`eval_quantity`
is its one-column case, and ``meadow_add`` and its kin, the scalar
operations on :class:`MeadowValue`, evaluate a one-operator term with it.
The meadow suite is all columns: it evaluates each side of an axiom, and
the terms behind cancellation and the general inverse, once over all its
assignments.

They, the process terms, the normal forms and :class:`MeadowKind` are
declared with :func:`interned`, so equal terms are one object and a meadow
is one object per modulus: one dict maps each node's class and fields to a
slotted weak reference to it, and the reference's callback removes the
entry when the node dies, unless a new node holds it.
"""

from __future__ import annotations

import itertools
import random
import weakref
from collections import namedtuple
from fractions import Fraction

from .report import AxiomReport, AxiomResult


_NODES = {}  # (class, *fields) -> a _Ref to the live node


class _Ref(weakref.ref):
    """A weak reference to a node that knows the node's key in _NODES."""

    __slots__ = ("key",)


def _forget(ref, nodes=_NODES):
    """Drop a dead node's entry, unless a new node has taken its key.  The
    table is a default argument, so the callbacks that run at interpreter
    shutdown still find it."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _constructor(names):
    """A ``__new__`` for a node class with these fields (at most two):
    ``__new__(klass, a, b)`` returns the live node keyed ``(klass, a, b)``,
    or makes one, sets its fields and enters it in the table.  What it
    calls is held in cells of the closure, so a call looks up no global,
    and it runs no other Python frame."""
    get, nodes, new, put = _NODES.get, _NODES, object.__new__, object.__setattr__
    ref_to, forget = _Ref, _forget
    if not names:
        def __new__(klass):
            key = (klass,)
            ref = get(key)
            if ref is not None and (node := ref()) is not None:
                return node
            node = new(klass)
            nodes[key] = ref = ref_to(node, forget)
            ref.key = key
            return node
    elif len(names) == 1:
        (n1,) = names

        def __new__(klass, a):
            key = (klass, a)
            ref = get(key)
            if ref is not None and (node := ref()) is not None:
                return node
            node = new(klass)
            put(node, n1, a)
            nodes[key] = ref = ref_to(node, forget)
            ref.key = key
            return node
    else:
        n1, n2 = names

        def __new__(klass, a, b):
            key = (klass, a, b)
            ref = get(key)
            if ref is not None and (node := ref()) is not None:
                return node
            node = new(klass)
            put(node, n1, a)
            put(node, n2, b)
            nodes[key] = ref = ref_to(node, forget)
            ref.key = key
            return node
    return __new__


def _node_repr(self):
    """``Cls(field=value, ...)``, the text a dataclass ``__repr__`` writes."""
    values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({values})"


def _frozen(self, name, *value):
    """A node's ``__setattr__`` and ``__delattr__``: its fields are set once."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def interned(cls):
    """Declare a syntax node: an immutable class whose constructor returns
    the live node with the same class and fields, if there is one.

    This is the maximal sharing of the ATerm library (van den Brand et al.,
    2000): equal nodes are one object, so ``==`` and ``hash`` are identity,
    constant-time and never recursive.  The table is a plain dict of slotted
    weak references, so it keeps no node alive, and a hit costs one lookup
    and one call of the reference; each reference's callback removes its
    entry when its node dies.

    The fields are the names the class body annotates, in order, recorded
    as ``__match_args__``; a field's default is its value in the class body.
    The constructor is ``__new__`` with the class's own signature: its
    parameters are the fields, with their defaults, so the interpreter binds
    positional, keyword and default arguments, and raises the ``TypeError``
    of a wrong call, naming ``Cls.__new__``.  A call, hit or fresh, runs
    this one Python frame: ``__new__`` sets the fields of a node once, when
    it is made, and the class has no ``__init__``.  Copies and unpickling
    go through the constructor, so they return the live node too.  Every
    node class shares the functions above; none is generated.
    """
    names = cls.__match_args__ = tuple(cls.__annotations__)
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _node_repr, _frozen, _frozen
    __new__ = _constructor(names)
    # one template per arity: rename its parameters after the fields
    code = __new__.__code__
    __new__.__code__ = code.replace(
        co_varnames=("klass", *names, *code.co_varnames[len(names) + 1:]))
    __new__.__defaults__ = tuple(vars(cls)[n] for n in names if n in vars(cls))
    __new__.__qualname__ = f"{cls.__qualname__}.__new__"
    cls.__new__ = __new__
    cls.__reduce__ = lambda self: (cls, tuple(getattr(self, n) for n in names))
    return cls


class MeadowError(Exception):
    pass


class MixedMeadow(MeadowError):
    """Operands from different meadows were combined."""


class InfiniteCarrier(MeadowError):
    """Exhaustive enumeration was requested for an infinite meadow."""


class UnboundVariable(MeadowError):
    """A quantity term mentions a variable missing from the environment."""


class NonPrimeModulus(MeadowError):
    """A finite meadow was requested with a composite modulus."""


# The smallest strong pseudoprime to all the prime bases up to 41
# (Sorenson and Webster, Math. Comp. 2017); to the bases up to 37 alone it is
# 318665857834031151167461, which is why 41 is among them.
_PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the bases up to 41, which decides
    every n below ``_PRIME_BOUND``; a larger n is a MeadowError."""
    if n >= _PRIME_BOUND:
        raise MeadowError(f"modulus {n} is too large: primality is decided below {_PRIME_BOUND}")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@interned
class MeadowKind:
    """Identifies one of the concrete meadows: the rationals when
    ``modulus`` is None, else Z/pZ.  Modulus 1 is the trivial meadow.
    Interned, so each meadow is one object and membership is identity."""

    modulus: int | None = None

    @staticmethod
    def rationals() -> "MeadowKind":
        return MeadowKind()

    @staticmethod
    def prime_field(p: int) -> "MeadowKind":
        if not _is_prime(p):
            raise NonPrimeModulus(f"modulus {p} is not prime")
        return MeadowKind(p)

    @staticmethod
    def trivial() -> "MeadowKind":
        return MeadowKind(1)

    @staticmethod
    def from_name(name: str) -> "MeadowKind":
        """The meadow called ``q0``, ``trivial`` or ``fP``, in any case."""
        name = name.lower()
        if name == "q0":
            return MeadowKind.rationals()
        if name == "trivial":
            return MeadowKind.trivial()
        if name.startswith("f") and name[1:].isdigit():
            return MeadowKind.prime_field(int(name[1:]))
        raise MeadowError(f"unknown meadow {name!r} (expected q0, fP or trivial)")

    @property
    def is_finite(self) -> bool:
        return self.modulus is not None

    def zero(self) -> "MeadowValue":
        return self.from_int(0)

    def one(self) -> "MeadowValue":
        return self.from_int(1)

    def from_int(self, n: int) -> "MeadowValue":
        return self.from_fraction(Fraction(n))

    def from_fraction(self, q: Fraction) -> "MeadowValue":
        return MeadowValue(self, _raw(q, self.modulus))

    def __str__(self) -> str:
        if self.modulus is None:
            return "Q0"
        if self.modulus == 1:
            return "trivial"
        return f"F{self.modulus}"


class MeadowValue(namedtuple("MeadowValue", "meadow value")):
    """An element of a concrete meadow, always in canonical form.

    Rationals are held as gcd-reduced :class:`Fraction` values (positive
    denominator); residues as ints in [0, p).  Equality is structural.
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def sort_key(self):
        return self.value

    def literal(self) -> "QuantityTerm":
        """The canonical quantity literal denoting this value."""
        return quantity_literal(Fraction(self.value))

    def __str__(self) -> str:
        return str(self.value)


def _raw(q: Fraction, p: int | None) -> Fraction | int:
    """The rational q as a raw value of the meadow with modulus p: q itself
    in Q0, else its residue num * den^-1 mod p."""
    if p is None:
        return q
    den = q.denominator % p
    # zero-totalized: a denominator that vanishes mod p has inverse 0
    return q.numerator * pow(den, p - 2, p) % p if den else 0


def _require_member(a: MeadowValue, m: MeadowKind) -> None:
    if a.meadow is not m:
        raise MixedMeadow(f"value from {a.meadow} used in {m}")


def enumerate_carrier(m: MeadowKind):
    """Yield each carrier element exactly once (finite meadows only)."""
    if not m.is_finite:
        raise InfiniteCarrier("the rational meadow has an infinite carrier")
    for r in range(m.modulus):
        yield MeadowValue(m, r)


# ---------------------------------------------------------------------------
# Quantity terms


class QuantityTerm:
    """Base class for quantity syntax trees."""

    __slots__ = ()
    _closed = False  # set on a node once terms.free_vars finds it ground


@interned
class QZero(QuantityTerm):
    value = Fraction(0)  # not a field: the literal's value, as in QConst


@interned
class QOne(QuantityTerm):
    value = Fraction(1)


@interned
class QConst(QuantityTerm):
    """A numeral / rational literal (numerals collapse here at parse time)."""

    value: Fraction


@interned
class QVar(QuantityTerm):
    name: str


@interned
class QAdd(QuantityTerm):
    lhs: QuantityTerm
    rhs: QuantityTerm


@interned
class QMul(QuantityTerm):
    lhs: QuantityTerm
    rhs: QuantityTerm


@interned
class QNeg(QuantityTerm):
    arg: QuantityTerm


@interned
class QInv(QuantityTerm):
    arg: QuantityTerm


def quantity_literal(q: Fraction) -> QuantityTerm:
    """Canonical literal node for a rational: 0 and 1 use their own node
    kinds so printed terms re-parse to identical trees."""
    if q == 0:
        return QZero()
    if q == 1:
        return QOne()
    return QConst(q)


_LITERALS = (QConst, QZero, QOne)


def _columns(t: QuantityTerm, column, m: MeadowKind, n: int) -> list:
    """The values of ``t`` in ``m`` under n assignments, as a list of n raw
    values (a Fraction in Q0, an int residue in Z/pZ); ``column(name)``
    gives a variable's list of n raw values.

    One walk of the tree on an explicit stack, so any depth is evaluated:
    an operator node's class is pushed after its operands, as the mark that
    combines their two (or one) columns on the ``out`` stack.  Left operands
    are walked first, so the first unbound variable in the text is named."""
    p = m.modulus
    stack, out = [t], []
    while stack:
        t = stack.pop()
        k = type(t)
        if k in _LITERALS:
            out.append([_raw(t.value, p)] * n)
        elif k is QVar:
            out.append(column(t.name))
        elif k is QAdd or k is QMul:
            stack += (k, t.rhs, t.lhs)
        elif k is QNeg or k is QInv:
            stack += (k, t.arg)
        elif t is QAdd:
            b = out.pop()
            out[-1] = ([x + y for x, y in zip(out[-1], b)] if p is None
                       else [(x + y) % p for x, y in zip(out[-1], b)])
        elif t is QMul:
            b = out.pop()
            out[-1] = ([x * y for x, y in zip(out[-1], b)] if p is None
                       else [x * y % p for x, y in zip(out[-1], b)])
        elif t is QNeg:
            out[-1] = [-x for x in out[-1]] if p is None else [-x % p for x in out[-1]]
        elif t is QInv:
            out[-1] = ([1 / x if x else x for x in out[-1]] if p is None
                       else [pow(x, p - 2, p) if x else 0 for x in out[-1]])
        else:
            raise TypeError(f"not a quantity term: {t!r}")
    return out[0]


def eval_quantity(
    t: QuantityTerm, env: dict[str, MeadowValue], m: MeadowKind
) -> MeadowValue:
    """Homomorphic evaluation of a quantity term in the meadow ``m``: the
    one-column case of :func:`_columns`, with one :class:`MeadowValue`, for
    the result.  A variable's value is checked to belong to ``m`` (an
    identity test, as meadows are interned) where the term uses it; unused
    entries of ``env`` are not looked at."""
    if type(t) in _LITERALS:  # most guard and data arguments are literals
        p = m.modulus
        return MeadowValue(m, t.value if p is None else _raw(t.value, p))

    def column(name):
        try:
            v = env[name]
        except KeyError:
            raise UnboundVariable(name) from None
        _require_member(v, m)
        return [v.value]

    return MeadowValue(m, _columns(t, column, m, 1)[0])


_X, _Y = QVar("x"), QVar("y")


def meadow_add(a: MeadowValue, b: MeadowValue, m: MeadowKind) -> MeadowValue:
    return eval_quantity(QAdd(_X, _Y), {"x": a, "y": b}, m)


def meadow_mul(a: MeadowValue, b: MeadowValue, m: MeadowKind) -> MeadowValue:
    return eval_quantity(QMul(_X, _Y), {"x": a, "y": b}, m)


def meadow_neg(a: MeadowValue, m: MeadowKind) -> MeadowValue:
    return eval_quantity(QNeg(_X), {"x": a}, m)


def meadow_inv(a: MeadowValue, m: MeadowKind) -> MeadowValue:
    """Total multiplicative inverse; maps 0 to 0."""
    return eval_quantity(QInv(_X), {"x": a}, m)


def pretty_quantity(t: QuantityTerm) -> str:
    """Render a quantity term in the concrete syntax (round-trips via the parser)."""
    return unfold(t, _qlayout)


def unfold(t, layout) -> str:
    """The text of t, where layout(u, level) gives the text of a node u at a
    precedence level in order, as strings and the (subterm, level) pairs
    that print in their place.  Produced from an explicit stack, so deep
    terms do not exhaust the interpreter's."""
    pieces = []
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
        else:
            stack.extend(reversed(layout(*item)))
    return "".join(pieces)


# precedence levels: 0 additive, 1 multiplicative, 2 unary, 3 atom
def _qlayout(t: QuantityTerm, level: int) -> tuple:
    if isinstance(t, (QZero, QOne, QConst)):
        s = str(t.value)
        if (t.value.denominator != 1 and level > 1) or (t.value < 0 and level > 0):
            return (f"({s})",)
        return (s,)
    if isinstance(t, QVar):
        return (t.name,)
    if isinstance(t, QInv):
        return ("inv(", (t.arg, 0), ")")
    if isinstance(t, QAdd):
        parts, bracket = ((t.lhs, 0), " + ", (t.rhs, 1)), level > 0
    elif isinstance(t, QMul):
        parts, bracket = ((t.lhs, 1), " * ", (t.rhs, 2)), level > 1
    elif isinstance(t, QNeg):
        parts, bracket = ("-", (t.arg, 2)), level > 2
    else:
        raise TypeError(f"not a quantity term: {t!r}")
    return ("(", *parts, ")") if bracket else parts


# ---------------------------------------------------------------------------
# Axiom verification

_U, _V, _W = QVar("u"), QVar("v"), QVar("w")

#: The ten defining equations of a meadow, as (id, lhs, rhs) quantity terms.
MEADOW_AXIOMS = [
    ("t1.01", QAdd(QAdd(_U, _V), _W), QAdd(_U, QAdd(_V, _W))),
    ("t1.02", QAdd(_U, _V), QAdd(_V, _U)),
    ("t1.03", QAdd(_U, QZero()), _U),
    ("t1.04", QAdd(_U, QNeg(_U)), QZero()),
    ("t1.05", QMul(QMul(_U, _V), _W), QMul(_U, QMul(_V, _W))),
    ("t1.06", QMul(_U, _V), QMul(_V, _U)),
    ("t1.07", QMul(_U, QOne()), _U),
    ("t1.08", QMul(_U, QAdd(_V, _W)), QAdd(QMul(_U, _V), QMul(_U, _W))),
    ("t1.09", QInv(QInv(_U)), _U),
    ("t1.10", QMul(_U, QMul(_U, QInv(_U))), _U),
]


def random_rational(rng: random.Random) -> MeadowValue:
    m = MeadowKind.rationals()
    num = rng.randint(-50, 50)
    den = rng.randint(1, 20)
    return m.from_fraction(Fraction(num, den))


def _sample_assignments(m: MeadowKind, mode: str, samples: int, seed: int):
    """Yield (u, v, w) assignments: the whole cube when exhaustive, else random."""
    if mode == "exhaustive":
        yield from itertools.product(enumerate_carrier(m), repeat=3)
        return
    rng = random.Random(seed)
    p = m.modulus
    for _ in range(samples):
        if p is None:
            yield random_rational(rng), random_rational(rng), random_rational(rng)
        else:  # draws as rng.choice over the carrier would, without listing it
            yield (MeadowValue(m, rng.randrange(p)), MeadowValue(m, rng.randrange(p)),
                   MeadowValue(m, rng.randrange(p)))


def check_meadow_axioms(
    m: MeadowKind, mode: str = "exhaustive", samples: int = 1000, seed: int = 0
) -> AxiomReport:
    """Verify the defining meadow equations plus the separation, cancellation
    and general-inverse properties for a concrete meadow.

    ``mode`` is "exhaustive" (finite meadows only) or "random".  Each side
    of an equation is evaluated once, over the columns of all the drawn
    assignments; ``checked`` counts them up to the first that differs.
    Cancellation and the general inverse are read from the same columns.
    """
    if mode not in ("exhaustive", "random"):
        raise ValueError(f'mode must be "exhaustive" or "random", got {mode!r}')
    if mode == "exhaustive" and not m.is_finite:
        raise InfiniteCarrier("exhaustive check requested on the rational meadow")
    if mode != "exhaustive" and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    drawn = list(_sample_assignments(m, mode, samples, seed))
    columns = {x: [uvw[i].value for uvw in drawn] for i, x in enumerate("uvw")}
    results = []
    for axiom_id, lhs, rhs in MEADOW_AXIOMS:
        sides = zip(_columns(lhs, columns.__getitem__, m, len(drawn)),
                    _columns(rhs, columns.__getitem__, m, len(drawn)))
        bad = next((i for i, (a, b) in enumerate(sides) if a != b), None)
        results.append(
            AxiomResult(
                id=axiom_id,
                name=f"{pretty_quantity(lhs)} = {pretty_quantity(rhs)}",
                lhs=pretty_quantity(lhs),
                rhs=pretty_quantity(rhs),
                status="pass" if bad is None else "fail",
                counterexample=None if bad is None else {x: str(c[bad]) for x, c in columns.items()},
                checked=len(drawn) if bad is None else bad + 1,
            )
        )

    separation = "pass" if m.zero() != m.one() else "fail"

    # cancellation and the general inverse, on the rows where u != 0
    inverse, uv, uw = (_columns(t, columns.__getitem__, m, len(drawn))
                       for t in (QMul(_U, QInv(_U)), QMul(_U, _V), QMul(_U, _W)))
    u, v, w = columns.values()
    rows = [i for i, x in enumerate(u) if x]
    one = m.one().value
    general_inverse = "pass" if all(inverse[i] == one for i in rows) else "fail"
    cancellation = "pass" if all(uv[i] != uw[i] or v[i] == w[i] for i in rows) else "fail"
    return AxiomReport(
        suite="meadow",
        meadow=str(m),
        mode=mode if mode == "exhaustive" else f"random({samples}, seed={seed})",
        axioms=results,
        separation=separation,
        cancellation=cancellation,
        general_inverse=general_inverse,
    )
