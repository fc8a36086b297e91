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
variables; :func:`eval_quantity` interprets them in a concrete meadow.
They, the process terms and the normal forms are declared with
:func:`interned`, so equal terms are one object: one dict maps each node's
class and fields to a slotted weak reference to it, and the reference's
callback removes the entry when the node dies, unless a new node holds it.
"""

from __future__ import annotations

import inspect
import random
import weakref
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

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


def interned(cls):
    """Declare a syntax node: a frozen dataclass whose constructor returns
    the live node with the same class and fields, if there is one.

    This is the maximal sharing of the ATerm library (van den Brand et al.,
    2000): equal nodes are one object, so ``==`` and ``hash`` are identity,
    constant-time and never recursive.  The table is a plain dict of slotted
    weak references, so it keeps no node alive, and a hit costs one lookup
    and one call of the reference; each reference's callback removes its
    entry when its node dies.  Unpickling goes through the constructor, so
    unpickled nodes are shared.
    """
    cls = dataclass(frozen=True, eq=False)(cls)
    init = cls.__init__
    del cls.__init__  # __new__ initialises a node once, when it is made
    signature = inspect.signature(init)
    names = tuple(f.name for f in fields(cls))
    defaults = tuple(f.default for f in fields(cls) if f.default is not MISSING)
    arity = len(names)
    required = arity - len(defaults)
    get = _NODES.get

    def __new__(klass, *args, **kwargs):
        if kwargs or len(args) != arity:
            if not kwargs and required <= len(args) < arity:
                args += defaults[len(args) - required:]
            else:  # keywords, or the TypeError of a wrong arity
                bound = signature.bind(None, *args, **kwargs)
                bound.apply_defaults()
                args = tuple(bound.arguments.values())[1:]
        key = (klass, *args)
        ref = get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(klass)
        init(node, *args)
        ref = _Ref(node, _forget)
        ref.key = key
        _NODES[key] = ref
        return node

    cls.__new__ = __new__
    cls.__reduce__ = lambda self: (cls, tuple(getattr(self, n) for n in names))
    return cls


def memo_attr(obj, name, compute):
    """Per-instance memo slot on a frozen dataclass."""
    v = obj.__dict__.get(name)
    if v is None:
        v = compute()
        object.__setattr__(obj, name, v)
    return v


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class MeadowKind:
    """Identifies one of the concrete meadows: the rationals when
    ``modulus`` is None, else Z/pZ.  Modulus 1 is the trivial meadow."""

    modulus: Optional[int] = None

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
        p = self.modulus
        if p is None:
            return MeadowValue(self, q)
        num = q.numerator % p
        den = q.denominator % p
        # zero-totalized: a denominator that vanishes mod p has inverse 0
        inv_den = pow(den, p - 2, p) if den else 0
        return MeadowValue(self, (num * inv_den) % p)

    def __str__(self) -> str:
        if self.modulus is None:
            return "Q0"
        if self.modulus == 1:
            return "trivial"
        return f"F{self.modulus}"


@dataclass(frozen=True)
class MeadowValue:
    """An element of a concrete meadow, always in canonical form.

    Rationals are held as gcd-reduced :class:`Fraction` values (positive
    denominator); residues as ints in [0, p).  Equality is structural.
    """

    meadow: MeadowKind
    value: Union[Fraction, int]

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


def _require_member(a: MeadowValue, m: MeadowKind) -> None:
    if a.meadow != m:
        raise MixedMeadow(f"value from {a.meadow} used in {m}")


def _residue(v: Union[Fraction, int], m: MeadowKind) -> MeadowValue:
    """v as an element of m: unchanged in Q0, reduced mod p in Z/pZ."""
    return MeadowValue(m, v if m.modulus is None else v % m.modulus)


def meadow_add(a: MeadowValue, b: MeadowValue, m: MeadowKind) -> MeadowValue:
    _require_member(a, m)
    _require_member(b, m)
    return _residue(a.value + b.value, m)


def meadow_mul(a: MeadowValue, b: MeadowValue, m: MeadowKind) -> MeadowValue:
    _require_member(a, m)
    _require_member(b, m)
    return _residue(a.value * b.value, m)


def meadow_neg(a: MeadowValue, m: MeadowKind) -> MeadowValue:
    _require_member(a, m)
    return _residue(-a.value, m)


def meadow_inv(a: MeadowValue, m: MeadowKind) -> MeadowValue:
    """Total multiplicative inverse; maps 0 to 0."""
    _require_member(a, m)
    if a.is_zero:
        return a
    p = m.modulus
    return MeadowValue(m, 1 / a.value if p is None else pow(a.value, p - 2, p))


def enumerate_carrier(m: MeadowKind) -> Iterator[MeadowValue]:
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
    pass


@interned
class QOne(QuantityTerm):
    pass


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


def eval_quantity(
    t: QuantityTerm, env: Mapping[str, MeadowValue], m: MeadowKind
) -> MeadowValue:
    """Homomorphic evaluation of a quantity term in the meadow ``m``."""
    if isinstance(t, QZero):
        return m.zero()
    if isinstance(t, QOne):
        return m.one()
    if isinstance(t, QConst):
        return m.from_fraction(t.value)
    if isinstance(t, QVar):
        try:
            v = env[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None
        _require_member(v, m)
        return v
    if isinstance(t, QAdd):
        return meadow_add(eval_quantity(t.lhs, env, m), eval_quantity(t.rhs, env, m), m)
    if isinstance(t, QMul):
        return meadow_mul(eval_quantity(t.lhs, env, m), eval_quantity(t.rhs, env, m), m)
    if isinstance(t, QNeg):
        return meadow_neg(eval_quantity(t.arg, env, m), m)
    if isinstance(t, QInv):
        return meadow_inv(eval_quantity(t.arg, env, m), m)
    raise TypeError(f"not a quantity term: {t!r}")


def pretty_quantity(t: QuantityTerm) -> str:
    """Render a quantity term in the concrete syntax (round-trips via the parser)."""
    return _pq(t, 0)


# precedence levels: 0 additive, 1 multiplicative, 2 unary, 3 atom
def _pq(t: QuantityTerm, level: int) -> str:
    if isinstance(t, QZero):
        return "0"
    if isinstance(t, QOne):
        return "1"
    if isinstance(t, QConst):
        s = str(t.value)
        if t.value.denominator != 1 and level > 1:
            return f"({s})"
        if t.value < 0 and level > 0:
            return f"({s})"
        return s
    if isinstance(t, QVar):
        return t.name
    if isinstance(t, QAdd):
        s = f"{_pq(t.lhs, 0)} + {_pq(t.rhs, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, QMul):
        s = f"{_pq(t.lhs, 1)} * {_pq(t.rhs, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(t, QNeg):
        s = f"-{_pq(t.arg, 2)}"
        return f"({s})" if level > 2 else s
    if isinstance(t, QInv):
        return f"inv({_pq(t.arg, 0)})"
    raise TypeError(f"not a quantity term: {t!r}")


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
        carrier = list(enumerate_carrier(m))
        for u in carrier:
            for v in carrier:
                for w in carrier:
                    yield u, v, w
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            if not m.is_finite:
                yield random_rational(rng), random_rational(rng), random_rational(rng)
            else:
                carrier = list(enumerate_carrier(m))
                yield (rng.choice(carrier), rng.choice(carrier), rng.choice(carrier))


def check_meadow_axioms(
    m: MeadowKind, mode: str = "exhaustive", samples: int = 1000, seed: int = 0
) -> AxiomReport:
    """Verify the defining meadow equations plus the separation, cancellation
    and general-inverse properties for a concrete meadow.

    ``mode`` is "exhaustive" (finite meadows only) or "random".
    """
    if mode == "exhaustive" and not m.is_finite:
        raise InfiniteCarrier("exhaustive check requested on the rational meadow")
    results = []
    for axiom_id, lhs, rhs in MEADOW_AXIOMS:
        status = "pass"
        counterexample = None
        checked = 0
        for u, v, w in _sample_assignments(m, mode, samples, seed):
            checked += 1
            env = {"u": u, "v": v, "w": w}
            if eval_quantity(lhs, env, m) != eval_quantity(rhs, env, m):
                status = "fail"
                counterexample = {"u": str(u), "v": str(v), "w": str(w)}
                break
        results.append(
            AxiomResult(
                id=axiom_id,
                name=f"{pretty_quantity(lhs)} = {pretty_quantity(rhs)}",
                lhs=pretty_quantity(lhs),
                rhs=pretty_quantity(rhs),
                status=status,
                counterexample=counterexample,
                checked=checked,
            )
        )

    separation = "pass" if m.zero() != m.one() else "fail"

    cancellation = "pass"
    general_inverse = "pass"
    for u, v, w in _sample_assignments(m, mode, samples, seed + 1):
        if not u.is_zero:
            if meadow_mul(u, meadow_inv(u, m), m) != m.one():
                general_inverse = "fail"
            if meadow_mul(u, v, m) == meadow_mul(u, w, m) and v != w:
                cancellation = "fail"
    return AxiomReport(
        suite="meadow",
        meadow=str(m),
        mode=mode if mode == "exhaustive" else f"random({samples}, seed={seed})",
        axioms=results,
        separation=separation,
        cancellation=cancellation,
        general_inverse=general_inverse,
    )
