"""Exact bivariate integer polynomials in the weight parameters m and n.

Every coefficient that appears in the identities handled by this package is
an element of Z[m, n].  A polynomial is stored as a dict mapping exponent
pairs (i, j) -- meaning m^i * n^j -- to nonzero Python ints, so arithmetic is
exact at any size.  The zero polynomial is the empty dict.

Instances are immutable by convention: no method mutates ``terms`` after
construction, which makes ScalarPoly values safe to share and to use as set
members (hashing is supported).  The arithmetic relies on it: a product with
the constant 1 returns the other factor itself, not a copy, so ``terms``
must never be mutated by any caller either.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, Tuple

Exponent = Tuple[int, int]


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be remainder-free is not."""


class PowerSizeError(ValueError):
    """An expansion or a number above a size bound: a product of more than
    ``freealg.MAX_PRODUCT_PAIRS`` pairs of terms, a power whose exponent is
    above ``parsing.MAX_EXPONENT``, or an integer of more decimal digits
    than Python reads or prints (``sys.get_int_max_str_digits()``).  It is
    a size limit, not a malformed input.  It lives here, below ``freealg``
    (which re-exports it), so that printing a coefficient can raise it."""


def _deglex_key(e: Exponent) -> Tuple[int, int, int]:
    return (e[0] + e[1], e[0], e[1])


class ScalarPoly:
    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Dict[Exponent, int] | None = None):
        clean: Dict[Exponent, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[(int(e[0]), int(e[1]))] = int(c)
        self.terms = clean
        self._hash: int | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "ScalarPoly":
        return ScalarPoly()

    @staticmethod
    def const(c: int) -> "ScalarPoly":
        return ScalarPoly({(0, 0): c})

    @staticmethod
    def var(name: str) -> "ScalarPoly":
        if name == "m":
            return ScalarPoly({(1, 0): 1})
        if name == "n":
            return ScalarPoly({(0, 1): 1})
        raise ValueError(f"unknown scalar variable {name!r}")

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get((0, 0)) == 1

    def is_unit(self) -> bool:
        """True for the constants +1 and -1."""
        return self.terms in ({(0, 0): 1}, {(0, 0): -1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self.terms.items())))
        return self._hash  # type: ignore[return-value]

    def __iter__(self) -> Iterator[Tuple[Exponent, int]]:
        return iter(self.terms.items())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ScalarPoly") -> "ScalarPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = ScalarPoly.__new__(ScalarPoly)
        res.terms = out
        res._hash = None
        return res

    def __neg__(self) -> "ScalarPoly":
        res = ScalarPoly.__new__(ScalarPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        res._hash = None
        return res

    def __sub__(self, other: "ScalarPoly") -> "ScalarPoly":
        return self + (-other)

    def __mul__(self, other: "ScalarPoly | int") -> "ScalarPoly":
        if isinstance(other, int):
            other = ScalarPoly.const(other)
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        t1, t2 = self.terms, other.terms
        # is_one, inlined: most products in a replay have a factor 1
        if len(t1) == 1 and t1.get((0, 0)) == 1:
            return other
        if len(t2) == 1 and t2.get((0, 0)) == 1:
            return self
        out: Dict[Exponent, int] = {}
        for (i1, j1), c1 in t1.items():
            for (i2, j2), c2 in t2.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = ScalarPoly.__new__(ScalarPoly)
        res.terms = out
        res._hash = None
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ScalarPoly":
        if k < 0:
            raise ValueError("negative power of a scalar polynomial")
        acc = ScalarPoly.const(1)
        for _ in range(k):
            acc = acc * self
        return acc

    # -- division ------------------------------------------------------------

    def leading(self) -> Tuple[Exponent, int]:
        e = max(self.terms, key=_deglex_key)
        return e, self.terms[e]

    def exact_div(self, d: "ScalarPoly") -> "ScalarPoly":
        """Quotient self / d when d divides self exactly in Z[m, n].

        Monomial-ordered long division; any nonzero remainder (including a
        leading term whose integer coefficient is not divisible) raises
        ExactDivisionError.
        """
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        (fe, fc) = d.leading()
        rem = self
        quo: Dict[Exponent, int] = {}
        while not rem.is_zero():
            (e, c) = rem.leading()
            if e[0] < fe[0] or e[1] < fe[1] or c % fc != 0:
                raise ExactDivisionError(
                    f"{self} is not divisible by {d} (stuck at term {_term_text(e, c)})"
                )
            qe = (e[0] - fe[0], e[1] - fe[1])
            qc = c // fc
            quo[qe] = quo.get(qe, 0) + qc
            rem = rem - ScalarPoly({qe: qc}) * d
        return ScalarPoly(quo)

    def divides(self, other: "ScalarPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except ExactDivisionError:
            return False

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, m_value: int, n_value: int) -> int:
        return sum(c * m_value**i * n_value**j for (i, j), c in self.terms.items())

    # -- printing ------------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_deglex_key, reverse=True):
            c = self.terms[e]
            t = _term_text(e, abs(c))
            if not parts:
                parts.append(t if c > 0 else "-" + t)
            else:
                parts.append(("+ " if c > 0 else "- ") + t)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"ScalarPoly({self.to_text()})"


def _term_text(e: Exponent, c: int) -> str:
    i, j = e
    factors = []
    if c != 1 or (i == 0 and j == 0):
        try:
            factors.append(str(c))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise PowerSizeError(
                f"a coefficient of more than {sys.get_int_max_str_digits()} digits "
                "is above the limit for printing an integer"
            ) from None
    if i == 1:
        factors.append("m")
    elif i > 1:
        factors.append(f"m^{i}")
    if j == 1:
        factors.append("n")
    elif j > 1:
        factors.append(f"n^{j}")
    return "*".join(factors)


ZERO = ScalarPoly.zero()
ONE = ScalarPoly.const(1)
M = ScalarPoly.var("m")
N = ScalarPoly.var("n")
