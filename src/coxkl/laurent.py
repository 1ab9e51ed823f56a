"""
Exact integer Laurent polynomials in one variable.

A polynomial is stored sparsely as a map from integer exponent to nonzero
integer coefficient; the zero polynomial has an empty map.  Coefficients are
plain Python ints, so they never overflow.  The same type serves both the
Hecke-algebra variable ``v`` and the Kazhdan-Lusztig variable ``q``; which
letter the exponent tracks is contextual and only matters for display.

>>> v = LaurentPoly.monomial(1)
>>> (v + v**-1) * (v + v**-1)
LaurentPoly('v^-2 + 2 + v^2')
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

__all__ = ["LaurentPoly"]


CoeffSource = Union[Mapping[int, int], Iterable[tuple[int, int]]]


def _acc(dst: dict[int, int], src: Mapping[int, int], shift: int = 0, factor: int = 1) -> None:
    # dst += factor * v^shift * src over raw {exponent: coefficient} maps,
    # dropping zeros.  The one coefficient loop of the package: the LaurentPoly
    # constructor, + and *, the Hecke steps and the audit's IP_x sums add through it.
    for e, c in src.items():
        k = e + shift
        n = dst.get(k, 0) + c * factor
        if n:
            dst[k] = n
        else:
            dst.pop(k, None)


def _mac(dst: dict[int, int], a: Mapping[int, int], b: Mapping[int, int], factor: int = 1) -> None:
    # dst += factor * a * b.
    for e, c in b.items():
        _acc(dst, a, e, c * factor)


class LaurentPoly:
    """An integer Laurent polynomial, immutable after construction."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: CoeffSource = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self._c: dict[int, int] = {}
        for e, a in items:
            if not (isinstance(e, int) and isinstance(a, int)) or isinstance(e, bool) or isinstance(a, bool):
                raise TypeError(f"exponents and coefficients must be ints, got ({e!r}, {a!r})")
            _acc(self._c, {e: a})

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls.monomial(0)

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> LaurentPoly:
        """The monomial ``coeff * v^exp``; the constructor checks both and drops a zero."""
        return cls({exp: coeff})

    @classmethod
    def _raw(cls, c: dict[int, int]) -> LaurentPoly:
        # Trusted constructor: `c` must be normalized and never mutated again.
        p = cls.__new__(cls)
        p._c = c
        return p

    # -- inspection ----------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All (exponent, coefficient) pairs, sorted by exponent.

        This is also the JSON serialization of a polynomial (a list of
        two-element lists).
        """
        return tuple(sorted(self._c.items()))

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> int:
        """Lowest exponent with nonzero coefficient; raises on zero."""
        if not self._c:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        """Highest exponent with nonzero coefficient; raises on zero."""
        if not self._c:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs())

    # -- ring structure ------------------------------------------------

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.monomial(0, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        _acc(c, other._c)
        return LaurentPoly._raw(c)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({e: -a for e, a in self._c.items()})

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, bool):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        # A bool is no int operand here, as for + and the constructor.
        if isinstance(other, int) and not isinstance(other, bool):
            if not other:
                return LaurentPoly._raw({})
            return LaurentPoly._raw({e: a * other for e, a in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, int] = {}
        _mac(c, self._c, other._c)
        return LaurentPoly._raw(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            if len(self._c) == 1:
                ((e, a),) = self._c.items()
                if a in (1, -1):
                    return LaurentPoly._raw({e * n: a if n % 2 else 1})
            raise ValueError("negative powers exist only for unit monomials")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by ``v^k`` (exponent shift)."""
        if not k:
            return self
        return LaurentPoly._raw({e + k: a for e, a in self._c.items()})

    def bar(self) -> LaurentPoly:
        """The substitution ``v -> v^-1`` (negate every exponent)."""
        return LaurentPoly._raw({-e: a for e, a in self._c.items()})

    def eval_at_one(self) -> int:
        """Sum of all coefficients, i.e. the value at ``v = 1``."""
        return sum(self._c.values())

    # -- predicates ----------------------------------------------------

    def is_palindromic(self, center: int | Fraction) -> bool:
        """True iff ``coeff(center + j) == coeff(center - j)`` for all ``j``.

        ``center`` must be an integer or half-integer (pass a ``Fraction``
        for half-integral centers).
        """
        c2 = 2 * Fraction(center)
        if c2.denominator != 1:
            raise ValueError(f"center must be an integer or half-integer, got {center!r}")
        c2 = int(c2)
        return all(a == self._c.get(c2 - e, 0) for e, a in self._c.items())

    # -- comparison and display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            return self._c == ({0: other} if other else {})
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its int, so it must hash like it.
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(tuple(sorted(self._c.items())))

    def format(self, var: str = "v") -> str:
        """Render with ascending exponents, e.g. ``1 + 2q + q^3``."""
        if not self._c:
            return "0"
        parts: list[str] = []
        for e, a in sorted(self._c.items()):
            sign = "-" if a < 0 else "+"
            mag = abs(a)
            if e == 0:
                body = str(mag)
            else:
                pw = var if e == 1 else f"{var}^{e}"
                body = pw if mag == 1 else f"{mag}{pw}"
            if not parts:
                parts.append(body if a > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"LaurentPoly('{self.format()}')"
