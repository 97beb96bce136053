"""Bicomplex and hyperbolic number arithmetic in idempotent coordinates.

A bicomplex number Z = a + jb (a, b complex, j a second imaginary unit
commuting with i, j^2 = -1) decomposes uniquely as

    Z = z1*e1 + z2*e2,   e1 = (1 + ij)/2,  e2 = (1 - ij)/2,

with z1 = a - ib and z2 = a + ib.  The idempotents satisfy e1+e2 = 1,
e1*e2 = 0, e1^2 = e1, e2^2 = e2, so every ring operation acts
componentwise on (z1, z2).  That makes the idempotent pair the right
internal representation; the cartesian (a, b) form is a derived view.

Zero divisors are exactly the nonzero elements with one idempotent
component equal to zero.  Hyperbolic numbers are the subring with both
components real; they carry the partial order `leq_h` and host norms,
exponent weights and convergence radii.

Both types derive from `_IdempotentPair`, which holds the componentwise
ring operations once; its `of` embeds a scalar argument of an entry
point.  Every bicomplex routine of the package is the complex routine
run on each idempotent component; `componentwise` is that construction,
used by the bicomplex Fox-Wright series, gamma, states, nu and measure.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from typing import Union

from .errors import DomainError, FWError, SingularElement, ValidationError

Scalar = Union[int, float, complex]


def _check_number(value, what: str):
    """value itself, refused unless a numbers.Number: a str, which complex()
    would parse, None or a list is not."""
    # float, int and complex first, as in _check_real: Bicomplex checks each component
    if not (isinstance(value, (float, int, complex)) or isinstance(value, numbers.Number)):
        raise ValidationError(f"{what} must be a complex number, got {value!r}")
    return value


def _check_finite_complex(value: complex, what: str) -> complex:
    try:
        z = complex(_check_number(value, what))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a complex number, got {value!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{what} must be finite, got {z!r}")
    return z


def _check_finite_real(value: float, what: str) -> float:
    x = float(_check_real(value, what))
    if not math.isfinite(x):
        raise ValidationError(f"{what} must be finite, got {x!r}")
    return x


def _check_real(value, what: str):
    """value itself, refused unless a numbers.Real: numpy's real scalars are, a str,
    None or a complex (numpy's too, which numpy orders) is not."""
    # float and int first: the numbers.Real test alone costs about 0.4 us a call
    if not (isinstance(value, (float, int)) or isinstance(value, numbers.Real)):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    return value


def _squared_modulus(z: complex, what: str) -> float:
    """|z|^2 of a finite z; OverflowError naming z where it passes the float range."""
    try:
        return abs(z) ** 2
    except OverflowError:
        raise OverflowError(f"|{what}|^2 is past the float range, {what} = {z!r}") from None


def _log_squared_modulus(z: complex, zeta: float) -> float:
    """log zeta of zeta = |z|^2, or 2 log|z| where zeta is subnormal or 0 for a nonzero z."""
    return math.log(zeta) if zeta >= sys.float_info.min else 2.0 * math.log(abs(z))


def _rsub(a, b):
    return b - a


class _IdempotentPair:
    """An element stored as its two idempotent components.

    Every ring operation acts on each component, so + - * and negation,
    equality, hashing and repr live here once.  A subclass names the two
    slots, checks its components in __init__, and sets _coerce, which
    turns the other operand into its own type or None.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._pair = operator.attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_scalar(cls, c: Scalar):
        """Embed a scalar diagonally: the same value in both components."""
        return cls(c, c)

    @classmethod
    def of(cls, x):
        """x itself if it is of this type, else the scalar x embedded."""
        return x if isinstance(x, cls) else cls.from_scalar(x)

    def decompose(self) -> tuple:
        """The idempotent components."""
        return self._pair(self)

    def _combine(self, other, op):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        (a1, a2), (b1, b2) = self._pair(self), self._pair(w)
        return type(self)(op(a1, b1), op(a2, b2))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._combine(other, _rsub)

    def __mul__(self, other):
        return self._combine(other, operator.mul)

    __rmul__ = __mul__

    def __neg__(self):
        a1, a2 = self._pair(self)
        return type(self)(-a1, -a2)

    def __eq__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self._pair(self) == self._pair(w)

    def __hash__(self):
        return hash(self._pair(self))

    def __repr__(self):
        a1, a2 = self._pair(self)
        return f"{type(self).__name__}({a1!r}, {a2!r})"


class Bicomplex(_IdempotentPair):
    """Bicomplex number stored as the idempotent pair (z1, z2)."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1: Scalar, z2: Scalar):
        object.__setattr__(self, "z1", _check_finite_complex(z1, "z1"))
        object.__setattr__(self, "z2", _check_finite_complex(z2, "z2"))

    @classmethod
    def from_cartesian(cls, a: Scalar, b: Scalar = 0) -> "Bicomplex":
        """Build from the a + jb form."""
        a = complex(a)
        b = complex(b)
        return cls(a - 1j * b, a + 1j * b)

    @property
    def cartesian(self) -> tuple[complex, complex]:
        """The (a, b) pair with Z = a + jb."""
        return ((self.z1 + self.z2) / 2, 0.5j * (self.z1 - self.z2))

    def _coerce(self, other) -> "Bicomplex | None":
        if isinstance(other, Bicomplex):
            return other
        if isinstance(other, (int, float, complex)):
            return Bicomplex.from_scalar(other)
        if isinstance(other, Hyperbolic):
            return other.as_bicomplex()
        return None

    def inverse(self) -> "Bicomplex":
        """Multiplicative inverse; zero divisors (and zero) have none."""
        if self.z1 == 0 or self.z2 == 0:
            raise SingularElement(
                f"cannot invert singular element (z1={self.z1}, z2={self.z2})"
            )
        return Bicomplex(1.0 / self.z1, 1.0 / self.z2)

    def conj(self) -> "Bicomplex":
        """Componentwise conjugate, the involution with conj(Z)*Z = |Z|_h^2."""
        return Bicomplex(self.z1.conjugate(), self.z2.conjugate())

    def is_zero_divisor(self) -> bool:
        """True iff exactly one idempotent component vanishes."""
        return (self.z1 == 0) != (self.z2 == 0)

    def hyper_norm(self) -> "Hyperbolic":
        """Hyperbolic norm |Z|_h = |z1| e1 + |z2| e2, always in D+."""
        return Hyperbolic(abs(self.z1), abs(self.z2))

    def to_json(self) -> dict:
        return {
            "z1": [self.z1.real, self.z1.imag],
            "z2": [self.z2.real, self.z2.imag],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Bicomplex":
        try:
            z1 = complex(obj["z1"][0], obj["z1"][1])
            z2 = complex(obj["z2"][0], obj["z2"][1])
        except (KeyError, TypeError, IndexError) as exc:
            raise ValidationError(f"bad bicomplex encoding {obj!r}") from exc
        return cls(z1, z2)


class Hyperbolic(_IdempotentPair):
    """Hyperbolic number: both idempotent components real."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1: float, c2: float):
        object.__setattr__(self, "c1", _check_finite_real(c1, "c1"))
        object.__setattr__(self, "c2", _check_finite_real(c2, "c2"))

    @classmethod
    def from_cartesian(cls, x1: float, x4: float = 0.0) -> "Hyperbolic":
        """Build from x1 + ij*x4 form."""
        return cls(x1 + x4, x1 - x4)

    @property
    def cartesian(self) -> tuple[float, float]:
        return ((self.c1 + self.c2) / 2, (self.c1 - self.c2) / 2)

    def as_bicomplex(self) -> Bicomplex:
        return Bicomplex(self.c1, self.c2)

    def _coerce(self, other) -> "Hyperbolic | None":
        if isinstance(other, Hyperbolic):
            return other
        if isinstance(other, (int, float)):
            return Hyperbolic.from_scalar(other)
        return None

    def in_dplus(self) -> bool:
        """Membership in D+ (both components nonnegative)."""
        return self.c1 >= 0 and self.c2 >= 0

    def strictly_positive(self) -> bool:
        """Membership in D+ minus the zero divisors (both components > 0)."""
        return self.c1 > 0 and self.c2 > 0

    def to_json(self) -> dict:
        return {"c1": self.c1, "c2": self.c2}

    @classmethod
    def from_json(cls, obj: dict) -> "Hyperbolic":
        try:
            return cls(float(obj["c1"]), float(obj["c2"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad hyperbolic encoding {obj!r}") from exc


# unit constants
E1 = Bicomplex(1.0, 0.0)
E2 = Bicomplex(0.0, 1.0)
ONE = Bicomplex(1.0, 1.0)
ZERO = Bicomplex(0.0, 0.0)


def componentwise(fn, *args) -> tuple:
    """The pair (fn on component 1, fn on component 2).

    Arguments with a `decompose()` method (Bicomplex, Hyperbolic,
    BCFWParams, BCCoherentModel) are split into their idempotent
    components; any other argument goes to both calls unchanged.  A
    package error or overflow in component p is re-raised as the same
    type with a "component p: " prefix.
    """
    parts = zip(*[a.decompose() if hasattr(a, "decompose") else (a, a) for a in args])
    out = []
    for p, part in enumerate(parts, start=1):
        try:
            out.append(fn(*part))
        except (FWError, OverflowError) as exc:
            raise type(exc)(f"component {p}: {exc}") from exc
    return tuple(out)


def compose_idempotent(z1: Scalar, z2: Scalar) -> Bicomplex:
    """Assemble Z = z1*e1 + z2*e2 from its idempotent components."""
    return Bicomplex(z1, z2)


def decompose(Z: Bicomplex) -> tuple[complex, complex]:
    """Idempotent components (z1, z2) of Z."""
    return Z.decompose()


def leq_h(P: Hyperbolic, Q: Hyperbolic) -> bool:
    """Partial order: P <=_h Q iff Q - P lies in D+ (componentwise)."""
    return Q.c1 - P.c1 >= 0 and Q.c2 - P.c2 >= 0


def lt_h(P: Hyperbolic, Q: Hyperbolic) -> bool:
    """Strict variant: componentwise strict inequality."""
    return Q.c1 - P.c1 > 0 and Q.c2 - P.c2 > 0


def pow_real(P: Hyperbolic, t: Union[Hyperbolic, float]) -> Hyperbolic:
    """Componentwise real power (c1^t1, c2^t2); base must be strictly positive."""
    t = Hyperbolic.of(t)
    if not P.strictly_positive():
        raise DomainError(f"pow_real base must be strictly positive, got {P!r}")
    return Hyperbolic(P.c1 ** t.c1, P.c2 ** t.c2)
