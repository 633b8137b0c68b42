"""Text grammar for polynomials and the pieces proof scripts are made of.

Grammar sketch::

    expr    :=  term (('+' | '-') term)*
    term    :=  ['-'] factor ('*' ['-'] factor)*
    factor  :=  primary ('^' INT)*
    primary :=  INT | 'm' | 'n' | 'x' | 'y' | MAP '[' expr ']' | '(' expr ')'

with MAP one of T, T0, D, F, Fc.  Multiplication is always written with
``*``.  Scalars (integer polynomials in m, n) and ring-valued polynomials
are kept apart while evaluating; adding a nonzero scalar to a ring element
is an error because the algebra has no unit monomial.

The same tokenizer also serves the proof-script Combine witness syntax,
``coeff * left * [label | x -> poly ; ...] * right``, handled in
:func:`parse_witnesses`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import freealg
from .freealg import GENERATORS, MAP_KINDS, App, Gen, NCPoly
from .scalars import ScalarPoly, _term_text


class ParseError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at column {pos + 1})")


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
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        kind = m.lastgroup
        tokens.append((_TOKEN_KIND[kind], m[kind], m.start()))
        pos = m.end()
    return tokens


# A value during evaluation: exactly one of scalar / poly is set.
@dataclass
class _Val:
    scalar: Optional[ScalarPoly] = None
    poly: Optional[NCPoly] = None


def _mul_val(a: _Val, b: _Val) -> _Val:
    if a.scalar is not None and b.scalar is not None:
        return _Val(scalar=a.scalar * b.scalar)
    if a.scalar is not None:
        return _Val(poly=freealg.scale(a.scalar, b.poly))
    if b.scalar is not None:
        return _Val(poly=freealg.scale(b.scalar, a.poly))
    return _Val(poly=freealg.mul(a.poly, b.poly))


def _add_val(a: _Val, b: _Val, pos: int) -> _Val:
    if a.scalar is not None and b.scalar is not None:
        return _Val(scalar=a.scalar + b.scalar)
    if a.scalar is not None and a.scalar.is_zero():
        return b
    if b.scalar is not None and b.scalar.is_zero():
        return a
    if a.poly is not None and b.poly is not None:
        return _Val(poly=a.poly + b.poly)
    raise ParseError("cannot add a scalar to a ring polynomial (no unit element)", pos)


def _neg_val(a: _Val) -> _Val:
    if a.scalar is not None:
        return _Val(scalar=-a.scalar)
    return _Val(poly=-a.poly)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

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
                val = _mul_val(val, self.parse_signed_factor())
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
                etok = self.next()
                if etok[0] != "int":
                    raise ParseError("exponent must be an integer", etok[2])
                k = int(etok[1])
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
                arg = self.parse_expr()
                self.expect("]")
                if arg.poly is None:
                    raise ParseError(
                        f"{value}[...] needs a ring-valued argument", pos
                    )
                return _Val(poly=freealg.app(value, arg.poly))
            raise ParseError(f"unknown symbol {value!r}", pos)
        if value == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)


def parse_value(text: str) -> _Val:
    p = _Parser(text)
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


# -- Combine witness syntax -----------------------------------------------------


@dataclass
class Witness:
    """One summand ``coeff * left * [label | subst] * right`` of a Combine."""

    coeff: ScalarPoly
    left: Optional[Tuple] = None  # monomial word or None
    label: str = ""
    subst: Dict[str, NCPoly] = field(default_factory=dict)
    right: Optional[Tuple] = None


def parse_witnesses(text: str) -> List[Witness]:
    p = _Parser(text)
    out: List[Witness] = []
    sign = 1
    tok = p.peek()
    if tok and tok[1] == "-":
        p.next()
        sign = -1
    while True:
        out.append(_parse_one_witness(p, sign))
        tok = p.peek()
        if tok is None:
            return out
        if tok[1] not in "+-":
            raise ParseError(f"expected '+' or '-' between witnesses, found {tok[1]!r}", tok[2])
        p.next()
        sign = 1 if tok[1] == "+" else -1


def _parse_one_witness(p: _Parser, sign: int) -> Witness:
    # At factor position a bare '[' always opens a reference: map brackets
    # only ever follow a map symbol and are consumed inside parse_primary.
    coeff = ScalarPoly.const(sign)
    left: Optional[Tuple] = None
    right: Optional[Tuple] = None
    label: Optional[str] = None
    subst: Dict[str, NCPoly] = {}
    while True:
        tok = p.peek()
        if tok is None:
            break
        if tok[1] == "-":
            p.next()
            coeff = -coeff
            continue
        if tok[1] == "[":
            if label is not None:
                raise ParseError("witness cites more than one identity", tok[2])
            label, subst = _parse_reference(p)
        else:
            val = p.parse_factor()
            if val.scalar is not None:
                coeff = coeff * val.scalar
            else:
                side = val.poly
                if len(side.terms) != 1:
                    raise ParseError("witness context must be a single monomial", tok[2])
                ((w, c),) = side.terms.items()
                coeff = coeff * c
                if label is None:
                    left = w if left is None else left + w
                else:
                    right = w if right is None else right + w
        tok = p.peek()
        if tok and tok[1] == "*":
            p.next()
            continue
        break
    if label is None:
        raise ParseError("witness must cite an identity in [brackets]")
    return Witness(coeff=coeff, left=left, label=label, subst=subst, right=right)


def _parse_reference(p: _Parser) -> Tuple[str, Dict[str, NCPoly]]:
    p.expect("[")
    tok = p.next()
    if tok[0] != "name":
        raise ParseError("expected an identity label", tok[2])
    label = tok[1]
    subst: Dict[str, NCPoly] = {}
    nxt = p.peek()
    if nxt and nxt[1] == "|":
        p.next()
        while True:
            gtok = p.next()
            if gtok[0] != "name" or gtok[1] not in GENERATORS:
                raise ParseError("substitution target must be a generator", gtok[2])
            p.expect("->")
            val = _parse_subst_body(p)
            subst[gtok[1]] = val
            nxt = p.peek()
            if nxt and nxt[1] == ";":
                p.next()
                continue
            break
    p.expect("]")
    return label, subst


def _parse_subst_body(p: _Parser) -> NCPoly:
    # an expression, but stopping at ';' or ']' on depth 0
    start = p.i
    depth = 0
    while p.i < len(p.tokens):
        tok = p.tokens[p.i]
        if tok[1] in "([":
            depth += 1
        elif tok[1] in ")]":
            if depth == 0:
                break
            depth -= 1
        elif tok[1] == ";" and depth == 0:
            break
        p.i += 1
    sub = _Parser("")
    sub.text = p.text
    sub.tokens = p.tokens[start : p.i]
    sub.i = 0
    val = sub.parse_expr()
    if not sub.at_end():
        tok = sub.peek()
        raise ParseError(f"trailing input in substitution {tok[1]!r}", tok[2])
    if val.poly is None:
        raise ParseError("substitution body must be ring-valued")
    return val.poly


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
