"""Text grammar for polynomials and the pieces proof scripts are made of.

Grammar sketch::

    expr    :=  term (('+' | '-') term)*
    term    :=  ['-'] factor ('*' ['-'] factor)*
    factor  :=  primary ('^' INT)*
    primary :=  INT | 'm' | 'n' | 'x' | 'y' | MAP '[' expr ']' | '(' expr ')'
             |  '[' LABEL ('|' GEN '->' expr (';' GEN '->' expr)*)? ']'

with MAP one of T, T0, D, F, Fc.  Multiplication is always written with
``*``.  Scalars (integer polynomials in m, n) and ring-valued polynomials
are kept apart while evaluating; adding a nonzero scalar to a ring element
is an error because the algebra has no unit monomial.

The last primary, a citation, is read only by :func:`parse_combination`,
which evaluates the witness list of a proof-script ``combine`` step, e.g.
``(m+n)*[b1] - m*x*[b2 | x -> x*y]*y``.  A citation stands for the cited
identity with the substitution applied.  Each top-level term is scalars and
single monomials times exactly one citation; no citation stands inside
parentheses, a map argument or a substitution body, or under ``^``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import freealg
from .freealg import GENERATORS, MAP_KINDS, App, Gen, NCPoly
from .scalars import ScalarPoly, _term_text


class ParseError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at column {pos + 1})")


MAX_EXPONENT = 16
"""The largest exponent ``P^N`` may carry, for ring and scalar powers alike.

Expanding a power multiplies out N copies of P, so its cost grows
exponentially with N: ``(x+y)^N`` has 2^N words, ``(x+y)^16`` already
65 536.  Even a single monomial costs work quadratic in N (each product
copies the word).  Proof steps need small exponents, at most 4 in the
shipped scripts, so a larger one is refused before anything is expanded;
the refusal is a size limit, not a malformed text, so it is a
``freealg.PowerSizeError``, not a :class:`ParseError`.  The exponent bound
does not bound an expansion (``((x+y)^4)^5`` has 2^20 words);
``freealg.MAX_PRODUCT_PAIRS``, on every product, does.
"""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<arrow>->)|(?P<op>[-+*^()\[\];|,]))"
)

_TOKEN_KIND = {"int": "int", "name": "name", "arrow": "op", "op": "op"}


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
            break
        kind = m.lastgroup
        # a token's column is where the token starts, after the blanks before it
        tokens.append((_TOKEN_KIND[kind], m[kind], m.start(kind)))
        pos = m.end()
    return tokens


# A value during evaluation: exactly one of scalar / poly is set.  A cited
# value is a ring polynomial that contains exactly one citation per term.
@dataclass(slots=True)
class _Val:
    scalar: Optional[ScalarPoly] = None
    poly: Optional[NCPoly] = None
    cited: bool = False


def _mul_val(a: _Val, b: _Val, pos: int) -> _Val:
    if a.scalar is not None and b.scalar is not None:
        return _Val(scalar=a.scalar * b.scalar)
    if a.cited or b.cited:
        if a.cited and b.cited:
            raise ParseError("a term cites more than one identity", pos)
        context = b.poly if a.cited else a.poly
        # a zero context contributes nothing, whatever it is written as
        if context is not None and len(context.terms) > 1:
            raise ParseError("the context of a citation must be a single monomial", pos)
    if a.scalar is not None:
        poly = freealg.scale(a.scalar, b.poly)
    elif b.scalar is not None:
        poly = freealg.scale(b.scalar, a.poly)
    else:
        poly = freealg.mul(a.poly, b.poly)
    return _Val(poly=poly, cited=a.cited or b.cited)


def _add_val(a: _Val, b: _Val, pos: int) -> _Val:
    if a.cited != b.cited:
        raise ParseError("a witness list mixes terms with and without a citation", pos)
    if a.scalar is not None and b.scalar is not None:
        return _Val(scalar=a.scalar + b.scalar)
    if a.scalar is not None and a.scalar.is_zero():
        return b
    if b.scalar is not None and b.scalar.is_zero():
        return a
    if a.poly is not None and b.poly is not None:
        return _Val(poly=a.poly + b.poly, cited=a.cited)
    raise ParseError("cannot add a scalar to a ring polynomial (no unit element)", pos)


def _neg_val(a: _Val) -> _Val:
    if a.scalar is not None:
        return _Val(scalar=-a.scalar)
    return _Val(poly=-a.poly, cited=a.cited)


def _uncited(val: _Val, where: str, pos: int) -> _Val:
    if val.cited:
        raise ParseError(f"a citation cannot stand {where}", pos)
    return val


# cite(label, substitution) -> the cited identity with the substitution applied
Cite = Callable[[str, Dict[str, NCPoly]], NCPoly]


class _Parser:
    def __init__(self, text: str, cite: Optional[Cite] = None):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.cite = cite

    def peek(self) -> Tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    # -- expression grammar ------------------------------------------------

    def parse_expr(self) -> _Val:
        val = self.parse_term()
        while True:
            tok = self.peek()
            if tok and tok[1] in "+-":
                self.next()
                rhs = self.parse_term()
                if tok[1] == "-":
                    rhs = _neg_val(rhs)
                val = _add_val(val, rhs, tok[2])
            else:
                return val

    def parse_term(self) -> _Val:
        val = self.parse_signed_factor()
        while True:
            tok = self.peek()
            if tok and tok[1] == "*":
                self.next()
                val = _mul_val(val, self.parse_signed_factor(), tok[2])
            else:
                return val

    def parse_signed_factor(self) -> _Val:
        tok = self.peek()
        if tok and tok[1] == "-":
            self.next()
            return _neg_val(self.parse_signed_factor())
        return self.parse_factor()

    def parse_factor(self) -> _Val:
        val = self.parse_primary()
        while True:
            tok = self.peek()
            if tok and tok[1] == "^":
                self.next()
                _uncited(val, "under '^'", tok[2])
                etok = self.next()
                if etok[0] != "int":
                    raise ParseError("exponent must be an integer", etok[2])
                k = int(etok[1])
                if k > MAX_EXPONENT:
                    raise freealg.PowerSizeError(
                        f"exponent {k} at column {etok[2] + 1} is above the bound "
                        f"{MAX_EXPONENT} on powers"
                    )
                if val.scalar is not None:
                    val = _Val(scalar=val.scalar**k)
                else:
                    if k < 1:
                        raise ParseError(
                            "ring polynomials cannot be raised to power 0", etok[2]
                        )
                    acc = val.poly
                    for _ in range(k - 1):
                        acc = freealg.mul(acc, val.poly)
                    val = _Val(poly=acc)
            else:
                return val

    def parse_primary(self) -> _Val:
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return _Val(scalar=ScalarPoly.const(int(value)))
        if kind == "name":
            if value in ("m", "n"):
                return _Val(scalar=ScalarPoly.var(value))
            if value in GENERATORS:
                return _Val(poly=freealg.gen(value))
            if value in MAP_KINDS:
                self.expect("[")
                arg = _uncited(self.parse_expr(), "inside a map argument", pos)
                self.expect("]")
                if arg.poly is None:
                    raise ParseError(
                        f"{value}[...] needs a ring-valued argument", pos
                    )
                return _Val(poly=freealg.app(value, arg.poly))
            raise ParseError(f"unknown symbol {value!r}", pos)
        if value == "(":
            inner = _uncited(self.parse_expr(), "inside parentheses", pos)
            self.expect(")")
            return inner
        if value == "[" and self.cite is not None:
            return self.parse_citation()
        raise ParseError(f"unexpected token {value!r}", pos)

    def parse_citation(self) -> _Val:
        tok = self.next()
        if tok[0] != "name":
            raise ParseError("expected an identity label", tok[2])
        subst: Dict[str, NCPoly] = {}
        sep = self.next()
        if sep[1] == "|":
            while True:
                gtok = self.next()
                if gtok[0] != "name" or gtok[1] not in GENERATORS:
                    raise ParseError("substitution target must be a generator", gtok[2])
                self.expect("->")
                body = _uncited(self.parse_expr(), "inside a substitution body", gtok[2])
                if body.poly is None:
                    raise ParseError("substitution body must be ring-valued", gtok[2])
                subst[gtok[1]] = body.poly
                sep = self.next()
                if sep[1] != ";":
                    break
        if sep[1] != "]":
            raise ParseError(f"expected ']', found {sep[1]!r}", sep[2])
        return _Val(poly=self.cite(tok[1], subst), cited=True)

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)


def parse_value(text: str, cite: Optional[Cite] = None) -> _Val:
    p = _Parser(text, cite)
    val = p.parse_expr()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return val


def parse_poly(text: str) -> NCPoly:
    """Parse a ring polynomial; the literal ``0`` is the zero polynomial."""
    val = parse_value(text)
    if val.poly is not None:
        return val.poly
    if val.scalar is not None and val.scalar.is_zero():
        return NCPoly.zero()
    raise ParseError(f"{text!r} is a scalar, not a ring polynomial")


def parse_scalar(text: str) -> ScalarPoly:
    val = parse_value(text)
    if val.scalar is None:
        raise ParseError(f"{text!r} is not a scalar polynomial")
    return val.scalar


def parse_monomial(text: str) -> Tuple[ScalarPoly, Tuple]:
    """Parse a single-term polynomial, returning (coefficient, word)."""
    poly = parse_poly(text)
    if len(poly.terms) != 1:
        raise ParseError(f"{text!r} is not a single monomial")
    ((w, c),) = poly.terms.items()
    return c, w


def parse_combination(text: str, cite: Cite) -> NCPoly:
    """The sum a combine witness list stands for, each citation resolved by
    ``cite``."""
    val = parse_value(text, cite)
    if not val.cited:
        raise ParseError("a witness list must cite an identity in [brackets]")
    return val.poly


def cited_labels(text: str) -> List[str]:
    """The labels a witness list cites, in order, read from its tokens: as in
    the grammar, a '[' that does not follow a map symbol opens a citation."""
    tokens = tokenize(text)
    labels = []
    for i, (kind, label, _) in enumerate(tokens[1:], start=1):
        opens = tokens[i - 1][1] == "[" and (i == 1 or tokens[i - 2][1] not in MAP_KINDS)
        if opens and kind == "name":
            labels.append(label)
    return labels


# -- printing ---------------------------------------------------------------------


# word -> its printed text; words are immutable, so the text never goes stale
_word_text: Dict[Tuple, str] = {}
# the terms of a multi-term coefficient -> its parenthesized text
_coeff_text: Dict[Tuple, str] = {}


def word_to_text(w) -> str:
    text = _word_text.get(w)
    if text is None:
        text = _word_text[w] = _print_word(w)
    return text


def _print_word(w) -> str:
    parts = []
    i = 0
    while i < len(w):
        a = w[i]
        run = 1
        while i + run < len(w) and w[i + run] == a:
            run += 1
        if isinstance(a, Gen):
            base = a.name
        else:
            base = f"{a.sym}[{word_to_text(a.arg)}]"
        parts.append(base if run == 1 else f"{base}^{run}")
        i += run
    return "*".join(parts)


def poly_to_text(p: NCPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for w, c in p.sorted_terms():
        if len(c.terms) == 1:
            ((e, k),) = c.terms.items()
            sign = 1 if k > 0 else -1
            ctext = "" if e == (0, 0) and abs(k) == 1 else _term_text(e, abs(k))
        else:
            sign = 1
            key = tuple(c.terms.items())
            ctext = _coeff_text.get(key)
            if ctext is None:
                ctext = _coeff_text[key] = "(" + c.to_text() + ")"
        body = word_to_text(w)
        if ctext:
            body = ctext + "*" + body
        if not parts:
            parts.append(body if sign > 0 else "-" + body)
        else:
            parts.append(("+ " if sign > 0 else "- ") + body)
    return " ".join(parts)
