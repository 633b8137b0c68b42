"""Noncommutative polynomials over ring generators and opaque additive maps.

A monomial is an ordered word of atoms.  An atom is either a generator
(``x`` or ``y``) or the application of one of a fixed set of additive map
symbols to a word, e.g. ``T[x*y*x]``.  Polynomials map monomials to exact
Z[m, n] coefficients (see :mod:`mnjordan.scalars`); there is deliberately no
unit monomial because the rings under study need not be unital.

Map symbols carry a rewriting kind:

* ``T``, ``F``, ``Fc`` are opaque -- nothing is known beyond additivity;
* ``T0`` is a two-sided centralizer -- a monomial ``u*T0[w]*v`` collapses to
  ``T0[u*w*v]``;
* ``D`` is a derivation into the center -- ``D[w]`` expands by the Leibniz
  rule and ``D[...]`` atoms commute past everything.

:func:`normalize` applies these rules to a fixpoint and is the canonical
form behind polynomial equality tests.  The centralizer/derivation rules can
be switched off individually, which the proof checker uses to model the fact
that they are licensed by external theorems rather than free.

Atoms are hash-consed: ``Gen(name)`` and ``App(sym, arg)`` return the one
instance for their content, so structurally equal atoms are the same object
and equality is identity.  Atoms, and the word tuples built from them, hash
and compare without calling back into Python.  Build atoms only through
``Gen(...)`` and ``App(...)`` (``copy`` and ``pickle`` go through them too);
an atom made any other way would compare unequal to its interned twin.

Every object here is immutable, and the hot paths rely on it.
``scale(ONE, p)`` returns ``p`` itself, and :func:`normalize` returns its
argument when every word is already in normal form and hands out the
polynomials it caches, so one ``NCPoly`` may be shared by many callers:
``NCPoly.terms`` (like ``ScalarPoly.terms``) must never be mutated after
construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Set, Tuple, Union

from .scalars import ONE, ExactDivisionError, ScalarPoly

GENERATORS = ("x", "y")

# kind per map symbol; fixed alphabet for the whole package
MAP_KINDS: Dict[str, str] = {
    "T": "opaque",
    "T0": "two-sided-centralizer",
    "D": "central-derivation",
    "F": "opaque",
    "Fc": "opaque",
}

RULE_TWO_SIDED = "t0-two-sided"
RULE_CENTRAL_DERIVATION = "d-central-derivation"
ALL_RULES: FrozenSet[str] = frozenset({RULE_TWO_SIDED, RULE_CENTRAL_DERIVATION})
NO_RULES: FrozenSet[str] = frozenset()


class NormalizeError(ValueError):
    """A rewrite rule was applied to a nested shape it is not defined for."""


class NestingError(ValueError):
    """A substitution would nest a generator inside a map applied to it."""


class PowerSizeError(ValueError):
    """An expansion above a size bound: a product of more than
    ``MAX_PRODUCT_PAIRS`` pairs of terms, or a power whose exponent is above
    ``parsing.MAX_EXPONENT``.  It is a size limit, not a malformed input."""


MAX_PRODUCT_PAIRS = 2**16
"""The most pairs of terms :func:`mul` multiplies out in one product.

Products nest (a power of a power, a substitution into a square, a power
written out as a product), so the number of words can grow without any
single exponent being large: ``((x+y)^4)^5`` has 2^20 words.  The largest
product the shipped scripts and the 2 300 one-term mutations of them that
the replay workload (``bench/workloads.py``) draws at seeds 1-20 multiply is
13 pairs; ``(x+y)^16``, the largest power ``parsing.MAX_EXPONENT`` admits,
takes 2^16 (2^15 words times the two terms of its last factor), and is
still admitted.
"""


# content -> atom: a generator's name, or (sym, arg) for a map atom
_atoms: Dict[object, "Atom"] = {}


class Gen:
    """A generator letter."""

    __slots__ = ("name", "key")

    def __new__(cls, name: str) -> "Gen":
        a = _atoms.get(name)
        if a is None:
            a = object.__new__(cls)
            a.name = name
            a.key = (0, name)  # see word_key
            # setdefault is atomic, so racing threads agree on one instance
            a = _atoms.setdefault(name, a)
        return a

    def __reduce__(self):
        return (Gen, (self.name,))

    def __repr__(self) -> str:
        return f"Gen(name={self.name!r})"


class App:
    """A map symbol applied to a word."""

    __slots__ = ("sym", "arg", "key")

    def __new__(cls, sym: str, arg: "Monomial") -> "App":
        a = _atoms.get((sym, arg))
        if a is None:
            a = object.__new__(cls)
            a.sym = sym
            a.arg = arg
            a.key = (1, sym, word_key(arg))
            a = _atoms.setdefault((sym, arg), a)
        return a

    def __reduce__(self):
        return (App, (self.sym, self.arg))

    def __repr__(self) -> str:
        return f"App(sym={self.sym!r}, arg={self.arg!r})"


Atom = Union[Gen, App]
Monomial = Tuple[Atom, ...]

# word -> its sort key, built once per word
_word_keys: Dict[Monomial, tuple] = {}


def atom_key(a: Atom):
    return a.key


def word_key(w: Monomial):
    """Sort key of a word: shorter words first, then atom by atom, with
    generators before map atoms."""
    key = _word_keys.get(w)
    if key is None:
        key = _word_keys[w] = (len(w), tuple(a.key for a in w))
    return key


class NCPoly:
    """Finite map from monomials to nonzero ScalarPoly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, ScalarPoly] | None = None):
        clean: Dict[Monomial, ScalarPoly] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[w] = c
        self.terms = clean

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def word(w: Iterable[Atom], coeff: ScalarPoly = ONE) -> "NCPoly":
        return _wrap({tuple(w): coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        _add_into(out, other)
        return _wrap(out)

    def __neg__(self) -> "NCPoly":
        return _wrap({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other: "NCPoly | ScalarPoly | int") -> "NCPoly":
        if isinstance(other, int):
            other = ScalarPoly.const(other)
        if isinstance(other, ScalarPoly):
            return scale(other, self)
        return mul(self, other)

    def __rmul__(self, other: "ScalarPoly | int") -> "NCPoly":
        if isinstance(other, int):
            other = ScalarPoly.const(other)
        return scale(other, self)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: word_key(t[0]))

    def to_text(self) -> str:
        from .parsing import poly_to_text

        return poly_to_text(self)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"NCPoly({self.to_text()})"


def _wrap(terms: Dict[Monomial, ScalarPoly]) -> NCPoly:
    """An NCPoly owning ``terms``, whose coefficients are all nonzero."""
    res = NCPoly.__new__(NCPoly)
    res.terms = terms
    return res


def _add_into(out: Dict[Monomial, ScalarPoly], p: NCPoly, c: ScalarPoly = ONE) -> None:
    """out += c * p, in place on a terms dict; c must be nonzero."""
    one = c.is_one()
    for w, k in p.terms.items():
        if not one:
            k = c * k
        s = out.get(w)
        if s is None:
            out[w] = k
        else:
            s = s + k
            if s:
                out[w] = s
            else:
                del out[w]


# -- constructors -------------------------------------------------------------


def gen(name: str) -> NCPoly:
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    return NCPoly.word((Gen(name),))


def app(sym: str, arg: NCPoly) -> NCPoly:
    """Apply a map symbol to a polynomial, expanding by additivity."""
    if sym not in MAP_KINDS:
        raise ValueError(f"unknown map symbol {sym!r}")
    # distinct words give distinct atoms, so no two terms merge
    return _wrap({(App(sym, w),): c for w, c in arg.terms.items()})


# -- ring operations -----------------------------------------------------------


def scale(c: ScalarPoly, p: NCPoly) -> NCPoly:
    if not c:
        return NCPoly.zero()
    if c.is_one():
        return p
    # Z[m, n] has no zero divisors, so no product vanishes
    return _wrap({w: c * k for w, k in p.terms.items()})


def mul(p: NCPoly, q: NCPoly) -> NCPoly:
    """p*q; more than ``MAX_PRODUCT_PAIRS`` pairs of terms raise
    ``PowerSizeError`` before any pair is multiplied."""
    if len(p.terms) * len(q.terms) > MAX_PRODUCT_PAIRS:
        raise PowerSizeError(
            f"a product of {len(p.terms)} by {len(q.terms)} terms is above the bound "
            f"{MAX_PRODUCT_PAIRS} on pairs of terms"
        )
    out: Dict[Monomial, ScalarPoly] = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            w = w1 + w2
            c = c1 * c2
            s = out.get(w)
            if s is None:
                out[w] = c
            else:
                s = s + c
                if s:
                    out[w] = s
                else:
                    del out[w]
    return _wrap(out)


def commutator(p: NCPoly, q: NCPoly) -> NCPoly:
    return mul(p, q) - mul(q, p)


# -- degree bookkeeping --------------------------------------------------------


def atom_gen_degree(a: Atom, g: str) -> int:
    if isinstance(a, Gen):
        return 1 if a.name == g else 0
    return word_gen_degree(a.arg, g)


def word_gen_degree(w: Monomial, g: str) -> int:
    return sum(atom_gen_degree(a, g) for a in w)


# -- substitution ---------------------------------------------------------------


def _check_no_nesting(w: Monomial, g: str) -> None:
    for a in w:
        if isinstance(a, App):
            if word_gen_degree(a.arg, g) > 0:
                raise NestingError(
                    f"replacement contains {a.sym}[...] with {g} inside its argument"
                )
            _check_no_nesting(a.arg, g)


def substitute_multi(p: NCPoly, mapping: Mapping[str, NCPoly]) -> NCPoly:
    """Simultaneously replace generators by polynomials, everywhere.

    Occurrences inside map arguments are replaced too; maps distribute over
    the resulting sums by additivity and scalars pull out by homogeneity.
    """
    for g, r in mapping.items():
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r}")
        for w in r.terms:
            _check_no_nesting(w, g)
    out: Dict[Monomial, ScalarPoly] = {}
    for w, c in p.terms.items():
        _add_into(out, _sub_word(w, mapping), c)
    return _wrap(out)


def _sub_word(w: Monomial, mapping: Mapping[str, NCPoly]) -> NCPoly:
    poly: NCPoly | None = None
    for a in w:
        if isinstance(a, Gen):
            ap = mapping.get(a.name)
            if ap is None:
                ap = NCPoly.word((a,))
        else:
            ap = app(a.sym, _sub_word(a.arg, mapping))
        poly = ap if poly is None else mul(poly, ap)
    assert poly is not None
    return poly


def substitute(p: NCPoly, g: str, r: NCPoly) -> NCPoly:
    return substitute_multi(p, {g: r})


# -- parity filter ---------------------------------------------------------------


def polarize_even(p: NCPoly, g: str) -> NCPoly:
    """Half of p + p[g -> -g]: keep the monomials of even total g-degree."""
    return NCPoly(
        {w: c for w, c in p.terms.items() if word_gen_degree(w, g) % 2 == 0}
    )


# -- normalization ----------------------------------------------------------------

_norm_cache: Dict[Tuple[Monomial, FrozenSet[str]], NCPoly] = {}
# rules -> the words seen by _norm_word whose normal form is the word itself
_normal_words: Dict[FrozenSet[str], Set[Monomial]] = {}


def normalize(p: NCPoly, rules: FrozenSet[str] = ALL_RULES) -> NCPoly:
    """Canonical form under the rewrite rules enabled in ``rules``.

    Rules: two-sided collapse for T0 atoms, Leibniz expansion plus
    centrality for D atoms.  Opaque atoms are untouched apart from
    recursive normalization of their arguments.
    """
    normal = _normal_words.get(rules)
    if normal is not None and normal.issuperset(p.terms):
        # rebuilding would give the same terms in the same order
        return p
    out: Dict[Monomial, ScalarPoly] = {}
    for w, c in p.terms.items():
        _add_into(out, _norm_word(w, rules), c)
    return _wrap(out)


def _norm_word(w: Monomial, rules: FrozenSet[str]) -> NCPoly:
    cached = _norm_cache.get((w, rules))
    if cached is not None:
        return cached
    poly: NCPoly | None = None
    for a in w:
        ap = _norm_atom(a, rules)
        poly = ap if poly is None else mul(poly, ap)
    assert poly is not None
    terms: Dict[Monomial, ScalarPoly] = {}
    for w2, c in poly.terms.items():
        _add_into(terms, _post_word(w2, rules), c)
    if len(terms) == 1 and w in terms and terms[w].is_one():
        _normal_words.setdefault(rules, set()).add(w)
    out = _norm_cache[(w, rules)] = _wrap(terms)
    return out


def _norm_atom(a: Atom, rules: FrozenSet[str]) -> NCPoly:
    if isinstance(a, Gen):
        return NCPoly.word((a,))
    argpoly = _norm_word(a.arg, rules)
    kind = MAP_KINDS[a.sym]
    out: Dict[Monomial, ScalarPoly] = {}
    for w, c in argpoly.terms.items():
        if kind == "central-derivation" and RULE_CENTRAL_DERIVATION in rules:
            if any(isinstance(b, App) for b in w):
                raise NormalizeError(
                    f"no rule for {a.sym} applied to a word containing a map atom: "
                    f"{a.sym}[{NCPoly.word(w).to_text()}]"
                )
            if len(w) > 1:
                for i in range(len(w)):
                    piece = w[:i] + (App(a.sym, (w[i],)),) + w[i + 1 :]
                    _add_into(out, _post_word(piece, rules), c)
                continue
        _add_into(out, NCPoly.word((App(a.sym, w),)), c)
    return _wrap(out)


def _is_central(a: Atom) -> bool:
    return isinstance(a, App) and MAP_KINDS[a.sym] == "central-derivation"


def _post_word(w: Monomial, rules: FrozenSet[str]) -> NCPoly:
    if RULE_TWO_SIDED in rules and len(w) > 1:
        for i, a in enumerate(w):
            if isinstance(a, App) and MAP_KINDS[a.sym] == "two-sided-centralizer":
                collapsed = App(a.sym, w[:i] + a.arg + w[i + 1 :])
                return _norm_word((collapsed,), rules)
    if RULE_CENTRAL_DERIVATION in rules and len(w) > 1:
        central = [a for a in w if _is_central(a)]
        if central:
            rest = [a for a in w if not _is_central(a)]
            # A derivation into the center kills commutators:
            # D(a)*[a,b] = D(a*[a,b]) = D([a, a*b]) = 0, so with alphabet
            # {x, y} generator letters commute in any monomial carrying a
            # D factor.  Only runs between opaque atoms may sort;
            # generators do not commute past opaque map values.
            sorted_rest = []
            run = []
            for a in rest:
                if isinstance(a, Gen):
                    run.append(a)
                else:
                    sorted_rest.extend(sorted(run, key=atom_key))
                    run = []
                    sorted_rest.append(a)
            sorted_rest.extend(sorted(run, key=atom_key))
            w = tuple(sorted_rest) + tuple(sorted(central, key=atom_key))
    return NCPoly.word(w)


# -- exact division ----------------------------------------------------------------


def exact_divide(p: NCPoly, c: ScalarPoly) -> NCPoly:
    """q with scale(c, q) == p; exact in every coefficient or an error."""
    if not c:
        raise ZeroDivisionError("division of an NCPoly by the zero scalar")
    out: Dict[Monomial, ScalarPoly] = {}
    for w, k in sorted(p.terms.items(), key=lambda t: word_key(t[0])):
        try:
            out[w] = k.exact_div(c)
        except ExactDivisionError as exc:
            raise ExactDivisionError(
                f"coefficient of monomial {NCPoly.word(w).to_text()} "
                f"is not divisible by {c}: {exc}"
            ) from None
    return NCPoly(out)
