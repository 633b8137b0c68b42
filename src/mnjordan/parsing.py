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

A text is scanned once into its tokens (one ``findall``, plus one search for
a character that starts no token).  A product of one word is read as a
monomial (coefficient, word): the coefficient is a dict {(i, j): c} for the
sum of c*m^i*n^j, with no zero c, and the word a tuple of atoms, () for a
scalar; a zero keeps its word, so ``0*x`` is still ring-valued.  Factors
multiply as coefficients and join as words, and each sum adds its terms in
place into one dict {word: coefficient}.  Only a citation or a value of
several words becomes a ``_Val`` and is multiplied by ``_Parser.mul``.

The last primary, a citation, is read only by :func:`parse_combination`,
which evaluates the witness list of a proof-script ``combine`` step, e.g.
``(m+n)*[b1] - m*x*[b2 | x -> x*y]*y``.  A citation stands for the cited
identity with the substitution applied.  Each top-level term is scalars and
single monomials times exactly one citation; no citation stands inside
parentheses, a map argument or a substitution body, or under ``^``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Dict, List, Optional, Tuple

from . import freealg
from .freealg import GENERATORS, MAP_KINDS, App, Gen, NCPoly, _wrap
from .scalars import ONE, ScalarPoly, _term_text, mul_terms


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


# Every token of a text, in order, with the blanks between them skipped.
_TOKEN_RE = re.compile(r"[+*^()\[\];|,]|->|-|[A-Za-z_][A-Za-z0-9_]*|\d+")
# A character that starts no token: one outside the token alphabet, or a '>'
# that does not end '->'.
_BAD_RE = re.compile(r"[^\s\dA-Za-z_+*^()\[\];|,-](?<!->)")

# the token after the last one; equal to no token the scan makes
_END = ""


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, token, column) of every token, kind one of int, name and op."""
    bad = _BAD_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok = m[0]
        kind = "int" if tok.isdigit() else "name" if tok.isidentifier() else "op"
        tokens.append((kind, tok, m.start()))
    return tokens


def _scan(text: str) -> Tuple[str, ...]:
    """The tokens of text followed by ``_END``; columns are left to
    :func:`tokenize`, which only an error needs."""
    if _BAD_RE.search(text):
        tokenize(text)  # raises at the first character that starts no token
    return (*_TOKEN_RE.findall(text), _END)


# A value during evaluation: exactly one of scalar / poly is set.  A cited
# value is a ring polynomial that contains exactly one citation per term.
@dataclass(slots=True)
class _Val:
    scalar: Optional[ScalarPoly] = None
    poly: Optional[NCPoly] = None
    cited: bool = False


# The monomials of the constant primaries.  Only a dict that a sum made for
# itself is ever changed, so these are shared.
_UNIT = {(0, 0): 1}
_CONSTANTS = {g: (_UNIT, (Gen(g),)) for g in GENERATORS}
_CONSTANTS.update(m=({(1, 0): 1}, ()), n=({(0, 1): 1}, ()))
_CONSTANTS["1"] = (_UNIT, ())


def _add_into(acc: dict, val, sign: int) -> bool:
    """acc += sign * val in place; whether val is ring-valued.  acc maps each
    word to a coefficient that it owns."""
    pairs = (val,) if type(val) is tuple else [(k.terms, w) for w, k in val.poly.terms.items()]
    for c, w in pairs:
        s = acc.get(w)
        if s is None:
            if c:
                acc[w] = {e: sign * k for e, k in c.items()}
            continue
        for e, k in c.items():
            k = s.get(e, 0) + sign * k
            if k:
                s[e] = k
            else:
                del s[e]
        if not s:
            del acc[w]
    return type(val) is _Val or bool(val[1])


def _scalar(c: dict) -> ScalarPoly:
    """The ScalarPoly of coefficient c, which it shares; the unit is ``ONE``."""
    if len(c) == 1 and c.get((0, 0)) == 1:
        return ONE
    s = ScalarPoly.__new__(ScalarPoly)
    s.terms, s._hash = c, None
    return s


def _as_val(v) -> _Val:
    if type(v) is _Val:
        return v
    c, w = v
    return _Val(poly=_wrap({w: _scalar(c)} if c else {})) if w else _Val(scalar=_scalar(c))


# cite(label, substitution) -> the cited identity with the substitution applied
Cite = Callable[[str, Dict[str, NCPoly]], NCPoly]


class _Parser:
    """Recursive descent over the token tuple of one text.  ``i`` indexes
    the next token; reading at the end gives ``_END``, which no rule
    accepts.  An error names a token by its index, and its column is found
    only then.  A rule returns a monomial (a tuple) or, for a citation or
    a value of several words, a ``_Val``."""

    __slots__ = ("text", "toks", "i", "cite")

    def __init__(self, text: str, cite: Optional[Cite] = None):
        self.text = text
        self.toks = _scan(text)
        self.i = 0
        self.cite = cite

    def column(self, i: int) -> int:
        """The column of token i; the end of the text for ``_END``."""
        return len(self.text) if self.toks[i] == _END else tokenize(self.text)[i][2]

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at token i; at ``_END`` the text ended too soon."""
        if self.toks[i] == _END:
            message = "unexpected end of expression"
        return ParseError(message, self.column(i))

    def expect(self, value: str) -> None:
        i = self.i
        tok = self.toks[i]
        if tok != value:
            raise self.error(f"expected {value!r}, found {tok!r}", i)
        self.i = i + 1

    # -- expression grammar ------------------------------------------------

    def parse_expr(self):
        """A sum.  Its terms add in place into one dict {word: coefficient}.
        At each operator, a citation in one term but not in the other is an
        error first, then a nonzero scalar against a ring value."""
        toks = self.toks
        val = self.parse_term()
        tok = toks[self.i]
        if tok != "+" and tok != "-":
            return val
        acc: Dict[Tuple, dict] = {}
        cited = type(val) is _Val and val.cited
        ring = _add_into(acc, val, 1)
        while tok == "+" or tok == "-":
            i = self.i
            self.i = i + 1
            rhs = self.parse_term()
            if (type(rhs) is _Val and rhs.cited) != cited:
                raise self.error("a witness list mixes terms with and without a citation", i)
            rhs_ring = type(rhs) is _Val or bool(rhs[1])
            # a zero scalar adds to a value of either kind
            if rhs_ring != ring and (acc if rhs_ring else rhs[0]):
                raise self.error("cannot add a scalar to a ring polynomial (no unit element)", i)
            ring = _add_into(acc, rhs, 1 if tok == "+" else -1) or ring
            tok = toks[self.i]
        if len(acc) == 1 and not cited:
            ((w, c),) = acc.items()
            return c, w
        if not ring:
            return {}, ()
        return _Val(poly=_wrap({w: _scalar(c) for w, c in acc.items()}), cited=cited)

    def parse_term(self):
        """A product.  Its signs are counted and applied last; monomial factors
        multiply as coefficients and words, and a citation or a value of
        several words goes through ``mul``."""
        toks = self.toks
        c, w = _UNIT, ()
        val = None  # the product so far, once it is a _Val
        neg = False
        star = None  # the '*' before the factor
        while True:
            i = self.i
            tok = toks[i]
            while tok == "-":
                neg = not neg
                i += 1
                tok = toks[i]
            f = _CONSTANTS.get(tok)
            if f is None or toks[i + 1] == "^":
                self.i = i
                f = self.parse_factor()
            else:
                self.i = i + 1
            if type(f) is tuple and val is None:
                if f[0] is not _UNIT:
                    c = f[0] if c is _UNIT else mul_terms(c, f[0])
                w += f[1]
            elif star is None:
                val = f
            else:
                val = self.mul(_as_val((c, w)) if val is None else val, _as_val(f), star)
            star = self.i
            if toks[star] != "*":
                break
            self.i = star + 1
        if val is not None:
            return _Val(poly=-val.poly, cited=val.cited) if neg else val
        return ({e: -k for e, k in c.items()} if neg else c), w

    def parse_factor(self):
        """primary ('^' INT)*"""
        toks = self.toks
        val = self.parse_primary()
        while toks[self.i] == "^":
            i = self.i
            self.uncited(val, "under '^'", i)
            etok = toks[i + 1]
            if not etok.isdigit():
                raise self.error("exponent must be an integer", i + 1)
            self.i = i + 2
            k = int(etok)
            if k > MAX_EXPONENT:
                raise freealg.PowerSizeError(
                    f"exponent {k} at column {self.column(i + 1) + 1} is above "
                    f"the bound {MAX_EXPONENT} on powers"
                )
            if k < 1 and (type(val) is _Val or val[1]):
                raise self.error("ring polynomials cannot be raised to power 0", i + 1)
            if type(val) is _Val:
                val = _Val(poly=reduce(freealg.mul, [val.poly] * k))
            elif val[0] is _UNIT:
                val = _UNIT, val[1] * k
            else:
                val = reduce(mul_terms, [val[0]] * k, _UNIT), val[1] * k
        return val

    def parse_primary(self):
        i = self.i
        tok = self.toks[i]
        self.i = i + 1
        val = _CONSTANTS.get(tok)
        if val is not None:
            return val
        if tok in MAP_KINDS:
            self.expect("[")
            arg = self.uncited(self.parse_expr(), "inside a map argument", i)
            self.expect("]")
            if type(arg) is _Val:
                return _Val(poly=freealg.app(tok, arg.poly))
            if not arg[1]:
                raise self.error(f"{tok}[...] needs a ring-valued argument", i)
            return arg[0], (App(tok, arg[1]),)
        if tok.isdigit():
            try:
                k = int(tok)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise freealg.PowerSizeError(
                    f"an integer of {len(tok)} digits at column {self.column(i) + 1} is "
                    f"above the limit of {sys.get_int_max_str_digits()} digits"
                ) from None
            return {(0, 0): k} if k else {}, ()
        if tok == "(":
            inner = self.uncited(self.parse_expr(), "inside parentheses", i)
            self.expect(")")
            return inner
        if tok == "[" and self.cite is not None:
            return self.parse_citation()
        if tok.isidentifier():
            raise self.error(f"unknown symbol {tok!r}", i)
        raise self.error(f"unexpected token {tok!r}", i)

    def parse_citation(self) -> _Val:
        toks = self.toks
        i = self.i
        label = toks[i]
        if not label.isidentifier():
            raise self.error("expected an identity label", i)
        subst: Dict[str, NCPoly] = {}
        self.i = i + 2
        sep = toks[i + 1]
        if sep == "|":
            while True:
                g = self.i
                target = toks[g]
                if target not in GENERATORS:
                    raise self.error("substitution target must be a generator", g)
                self.i = g + 1
                self.expect("->")
                body = _as_val(self.uncited(self.parse_expr(), "inside a substitution body", g))
                if body.poly is None:
                    raise self.error("substitution body must be ring-valued", g)
                subst[target] = body.poly
                sep = toks[self.i]
                self.i += 1
                if sep != ";":
                    break
        if sep != "]":
            raise self.error(f"expected ']', found {sep!r}", self.i - 1)
        return _Val(poly=self.cite(label, subst), cited=True)

    # -- the product rule for a citation or a value of several words ----------

    def mul(self, a: _Val, b: _Val, i: int) -> _Val:
        """a*b, where a or b is ring-valued."""
        if a.cited or b.cited:
            if a.cited and b.cited:
                raise self.error("a term cites more than one identity", i)
            context = b.poly if a.cited else a.poly
            # a zero context contributes nothing, whatever it is written as
            if context is not None and len(context.terms) > 1:
                raise self.error("the context of a citation must be a single monomial", i)
        if a.scalar is not None:
            poly = freealg.scale(a.scalar, b.poly)
        elif b.scalar is not None:
            poly = freealg.scale(b.scalar, a.poly)
        else:
            poly = freealg.mul(a.poly, b.poly)
        return _Val(poly=poly, cited=a.cited or b.cited)

    def uncited(self, val, where: str, i: int):
        if type(val) is _Val and val.cited:
            raise self.error(f"a citation cannot stand {where}", i)
        return val


def parse_value(text: str, cite: Optional[Cite] = None) -> _Val:
    p = _Parser(text, cite)
    val = p.parse_expr()
    tok = p.toks[p.i]
    if tok != _END:
        raise p.error(f"trailing input {tok!r}", p.i)
    return _as_val(val)


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
    toks = _scan(text)
    return [toks[i] for i in range(1, len(toks))
            if toks[i - 1] == "[" and (i == 1 or toks[i - 2] not in MAP_KINDS)
            and toks[i].isidentifier()]


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
