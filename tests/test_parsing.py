import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnjordan import freealg as fa
from mnjordan.freealg import PowerSizeError
from mnjordan.parsing import (
    MAX_EXPONENT,
    ParseError,
    cited_labels,
    parse_combination,
    parse_monomial,
    parse_poly,
    parse_scalar,
    _END,
    _scan,
    parse_value,
    tokenize,
)
from mnjordan.proofcheck import parse_script
from mnjordan.scalars import ONE, ScalarPoly
from tests.util import group_by_group_tokenize, peeking_parse_value, shipped_script


def test_grammar_examples():
    p = parse_poly("(m+n)*T[x^2] - m*T[x]*x - n*x*T0[x]")
    assert len(p.terms) == 3
    assert parse_poly("0").is_zero()
    assert parse_poly("Fc[x*y]*D[x]") == fa.mul(
        fa.app("Fc", parse_poly("x*y")), fa.app("D", parse_poly("x"))
    )


def test_map_arguments_expand_additively():
    assert parse_poly("T[x + y]") == parse_poly("T[x] + T[y]")
    assert parse_poly("T[2*x]") == parse_poly("2*T[x]")
    assert parse_poly("T[x*(y+x)]") == parse_poly("T[x*y] + T[x^2]")


def test_no_unit_element():
    with pytest.raises(ParseError):
        parse_poly("1 + x")
    with pytest.raises(ParseError):
        parse_poly("x^0")
    with pytest.raises(ParseError):
        parse_poly("T[m]")


def test_errors():
    with pytest.raises(ParseError):
        parse_poly("z")
    with pytest.raises(ParseError):
        parse_poly("T[x")
    with pytest.raises(ParseError):
        parse_poly("x *")
    with pytest.raises(ParseError):
        parse_scalar("x")
    with pytest.raises(ParseError):
        parse_monomial("x + y")


@pytest.mark.parametrize("text, message", [
    ("x +   ]", "unexpected token ']' (at column 7)"),
    ("  T[x] ^ y", "exponent must be an integer (at column 10)"),
    ("x \t $", "unexpected character '$' (at column 5)"),
    ("x +  ", "unexpected end of expression (at column 6)"),
])
def test_an_error_names_the_column_of_its_token(text, message):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert str(exc.value) == message


SCRIPTS = ("theorem_centralizer.steps", "theorem_derivation.steps")


def test_powers_above_the_bound_are_a_size_error():
    shipped = max(int(e) for name in SCRIPTS for e in re.findall(r"\^(\d+)", shipped_script(name)))
    assert shipped == 4 and 4 * shipped <= MAX_EXPONENT
    assert len(parse_poly(f"(x+y)^{MAX_EXPONENT}").terms) == 2**MAX_EXPONENT
    assert parse_scalar(f"m^{MAX_EXPONENT}") == ScalarPoly.var("m") ** MAX_EXPONENT
    for text in (f"x^{MAX_EXPONENT + 1}", "T[x]*y^100000000", "m^200000", "(m+n)^2^17"):
        with pytest.raises(PowerSizeError) as exc:
            parse_value(text)
        assert not isinstance(exc.value, ParseError)
    assert str(exc.value) == "exponent 17 at column 9 is above the bound 16 on powers"


def test_round_trip_is_canonical():
    texts = [
        "(m+n)*T[x^2] - m*T[x]*x - n*x*T0[x]",
        "2*(m+n)^3*T[x^2*y*x + x*y*x^2] - m*n*(m+n)*T[x]*x^2*y",
        "T[x*T0[y]*x] - Fc[y]*D[x]*F[x]",
        "-x*y^3 + (m - n)*y*x",
    ]
    for text in texts:
        p = parse_poly(text)
        assert parse_poly(p.to_text()) == p


# bodies of the identities the witness lists below cite
BODIES = {label: parse_poly(text) for label, text in {
    "a": "T[x]*y - x*T0[y]",
    "b": "m*x*y*T[x]",
    "b0": "T[x^2] - n*x*T[x]",
    "b1": "D[x*y] - x*D[y]",
    "b2": "(m+n)*T[x]*x - x*T[x]",
    "e14": "F[x]*y*F[x]",
}.items()}


def _cite(calls):
    """A dict-backed ``cite`` that records the labels it is asked for."""
    def cite(label, subst):
        calls.append(label)
        return fa.substitute_multi(BODIES[label], subst) if subst else BODIES[label]
    return cite


def _witness(coeff, left, label, right, subst=None):
    """coeff * left * (cited body, substituted) * right, built by hand."""
    body = BODIES[label]
    if subst:
        body = fa.substitute_multi(body, {g: parse_poly(t) for g, t in subst.items()})
    poly = fa.scale(parse_scalar(coeff), body)
    if left:
        poly = fa.mul(parse_poly(left), poly)
    if right:
        poly = fa.mul(poly, parse_poly(right))
    return poly


def _combination(text):
    calls = []
    total = parse_combination(text, _cite(calls))
    assert calls == cited_labels(text)
    return total, calls


def test_witness_parsing():
    total, calls = _combination(
        "(m+n)*[b1] + m*[b2]*x - (m+n)*[b2 | x -> x*x] - m*x*[b0]*y")
    assert calls == ["b1", "b2", "b2", "b0"]
    assert total == (
        _witness("m+n", "", "b1", "")
        + _witness("m", "", "b2", "x")
        + _witness("-(m+n)", "", "b2", "", {"x": "x*x"})
        + _witness("-m", "x", "b0", "y")
    )
    total, _ = _combination("-[a | x -> y; y -> x + y*x] + --2*x^2*[b]*-y")
    assert total == (
        _witness("-1", "", "a", "", {"x": "y", "y": "x + y*x"})
        + _witness("-2", "x^2", "b", "y")
    )


def test_witness_with_map_contexts():
    total, calls = _combination("-2*m*[e14]*y*F[x]*x")
    assert calls == ["e14"]
    assert total == _witness("-2*m", "", "e14", "y*F[x]*x")
    rejected = [
        "m*x + n*y",  # no identity reference
        "(x+y)*[a]",  # context is not a monomial
        "[a]*[b]",  # two citations in one term
        "[a]^2",
        "([a])*x",
        "T[[a]]",
        "[a | x -> [b]]",
        "[a] + x",  # a term without a citation
        "[a] x",
        "[a | T -> x]",  # substitution target is not a generator
        "[a | x -> 0]",  # substitution body is a scalar
        "[2]",
    ]
    for text in rejected:
        with pytest.raises(ParseError):
            parse_combination(text, _cite([]))
    # without a cite callback a bracket is no primary
    with pytest.raises(ParseError, match="unexpected token '\\['"):
        parse_poly("[a]")


@pytest.mark.parametrize("script", ["theorem_centralizer.steps", "theorem_derivation.steps"])
def test_label_reader_matches_the_citations_the_grammar_makes(script):
    combines = [s for s in parse_script(shipped_script(script)).steps if s.kind == "combine"]
    assert combines
    for step in combines:
        calls = []
        parse_combination(step.args[""], lambda label, subst: calls.append(label) or BODIES["a"])
        assert cited_labels(step.args[""]) == calls, step.label


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as exc:
        return ("error", str(exc), exc.pos)


def _tokenizer_corpus(script):
    """Malformed texts, arrows and near-arrows, a Unicode digit and space,
    and every line of a shipped script with its two sides."""
    texts = ["x $ y", "T[x] @", "x*y @", "", "   ", "x ->y;", "  12 -> m_1|[,]",
             "x->y", "x- >y", "x>y", "x->>y", "-->", "2*x*\u0663", "x\u2003+ y", "é", "x²"]
    for line in shipped_script(script).splitlines():
        # a whole line stops at '=>'; its two sides tokenize in full
        head, _, claim = line.split("#", 1)[0].partition("=>")
        texts += [line, head, claim]
    return texts


@pytest.mark.parametrize("script", ["theorem_centralizer.steps", "theorem_derivation.steps"])
def test_tokenizer_matches_the_group_by_group_oracle(script):
    for text in _tokenizer_corpus(script):
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(group_by_group_tokenize, text)
    assert _tokens_or_error(tokenize, "x $ y") == ("error", "unexpected character '$' (at column 3)", 2)


@pytest.mark.parametrize("script", ["theorem_centralizer.steps", "theorem_derivation.steps"])
def test_scan_is_tokenize_without_columns(script):
    for text in _tokenizer_corpus(script):
        tokens = _tokens_or_error(tokenize, text)
        if isinstance(tokens, tuple):  # the error
            assert _tokens_or_error(_scan, text) == tokens, text
        else:
            assert _scan(text) == (*(tok for _, tok, _ in tokens), _END), text
    # a '>' starts no token unless it ends '->'
    assert _scan("x->y") == ("x", "->", "y", _END)
    assert _scan("-->") == ("-", "->", _END)
    for text, column in [("x- >y", 4), ("x>y", 2), ("x->>y", 4), ("x²", 2)]:
        assert _tokens_or_error(_scan, text)[2] == column - 1, text


# -- the one-scan parser against the parser that peeked at each token -------------


def _parsed(parse, text, cite=None):
    """A value as (scalar, poly, cited), or an error as (type, message, pos)."""
    try:
        val = parse(text, cite)
    except (ValueError, KeyError) as exc:  # KeyError: cite met an unknown label
        return type(exc).__name__, str(exc), getattr(exc, "pos", None)
    return val.scalar, val.poly, val.cited


def _assert_same_parse(text, cite=None):
    got = _parsed(parse_value, text, cite)
    assert got == _parsed(peeking_parse_value, text, cite), text
    return got


_PRIMARIES = ["x", "y", "m", "n", "0", "1", "2", "3", "12", "007", "z", "T0", "()"]


def _grammar_texts():
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", "-", "*", " * -", "+-", "  ", "\t*"]),
                      inner).map("".join),
            st.tuples(st.sampled_from(["T", "T0", "D", "F", "Fc", "z", ""]),
                      inner).map(lambda t: f"{t[0]}[{t[1]}]"),
            inner.map(lambda s: f"({s})"),
            st.tuples(inner, st.sampled_from(["0", "1", "2", "3", "17", "x", ""])
                      ).map(lambda t: f"{t[0]}^{t[1]}"),
            inner.map(lambda s: "-" + s),
            st.tuples(st.sampled_from(list(BODIES) + ["2", ""]), inner,
                      st.sampled_from(["x", "y", "T"])
                      ).map(lambda t: f"[{t[0]} | {t[2]} -> {t[1]}]"),
            st.sampled_from(list(BODIES)).map(lambda label: f"[{label}]"),
            st.tuples(inner, st.sampled_from(list(BODIES))
                      ).map(lambda t: f"{t[0]}*[{t[1]}]*x - [{t[1]}]"),
        )
    return st.recursive(st.sampled_from(_PRIMARIES), extend, max_leaves=8)


_CORRUPTIONS = list("$@>{ ()[]^-+*;|,0129xyTmn_")


def _corrupted(text, rng):
    """text with one character replaced, inserted or deleted."""
    i = rng.randrange(len(text) + 1)
    how = rng.randrange(3)
    c = rng.choice(_CORRUPTIONS)
    if how == 0 or i == len(text):
        return text[:i] + c + text[i:]
    if how == 1:
        return text[:i] + c + text[i + 1:]
    return text[:i] + text[i + 1:]


@settings(max_examples=400, deadline=None)
@given(_grammar_texts(), st.booleans(), st.randoms(use_true_random=False))
def test_one_scan_parser_matches_the_peeking_parser(text, corrupt, rng):
    if corrupt:
        text = _corrupted(text, rng)
    _assert_same_parse(text)
    _assert_same_parse(text, _cite([]))


POLYNOMIAL_ARGS = ("with", "by", "factor", "w", "a", "b", "c")


@pytest.mark.parametrize("script", SCRIPTS)
def test_one_scan_parser_matches_on_corrupted_script_texts(script):
    """Every step argument and claim of a shipped script, and seeded
    one-character corruptions of each, parse alike under both parsers."""
    rng = random.Random(script)
    steps = parse_script(shipped_script(script)).steps
    # (text, a combine witness list, a polynomial); the other arguments are
    # names, which parse as generators or fail as unknown symbols
    texts = [(text, step.kind == "combine" and key == "",
              key in POLYNOMIAL_ARGS or step.kind == "combine")
             for step in steps for key, text in step.args.items()]
    texts += [(step.claimed_text, False, True) for step in steps]
    errors = 0
    for text, cites, polynomial in texts:
        cite = (lambda label, subst: BODIES["a"]) if cites else None
        parsed = _assert_same_parse(text, cite)
        assert not polynomial or not isinstance(parsed[0], str), parsed
        for _ in range(4):
            errors += isinstance(_assert_same_parse(_corrupted(text, rng), cite)[0], str)
    assert len(texts) > 100 and errors > 100


# text -> its value (scalar, or ring polynomial) or the start of its error,
# with a cite callback; without one, a citation is an unexpected '['.
TERM_READER_TABLE = {
    "0*x + 1": "cannot add a scalar to a ring polynomial",
    "m - m + x": "x",
    "x - x + 1": "cannot add a scalar to a ring polynomial",
    "--x": "x",
    "x*-y": "-x*y",
    "-(m+n)*x": "(-m - n)*x",
    "(2*m*n^2)^3*x": "8*m^3*n^6*x",
    "(m+n)^2*T[x]": "(m^2 + 2*m*n + n^2)*T[x]",
    "0^0": "1",
    "2^0*x": "x",
    "(x)^0": "ring polynomials cannot be raised to power 0",
    "T[0*x]": "0",
    "T[(m+n)*x*y]": "(m + n)*T[x*y]",
    "[a] + x": "a witness list mixes terms with and without a citation",
    "x + [a]": "a witness list mixes terms with and without a citation",
    "m*[a]*x - (m+n)*y*[a | x -> x*y]":
        "-m*x*T0[y]*x + (-m - n)*y*T[x*y]*y + m*T[x]*y*x + (m + n)*y*x*y*T0[y]",
}


@pytest.mark.parametrize("text", TERM_READER_TABLE)
def test_term_reader_matches_the_peeking_parser(text):
    for cite in (None, _cite([])):
        got = _assert_same_parse(text, cite)
        expected = TERM_READER_TABLE[text]
        if cite is None and "[a" in text:
            expected = "unexpected token '['"
        if isinstance(got[0], str):
            assert got[1].startswith(expected), got
        else:
            scalar, poly, _ = got
            assert (scalar.to_text() if poly is None else poly.to_text()) == expected


def test_the_literal_one_and_one_term_products_keep_the_unit_object():
    assert parse_scalar("1") is ONE
    ((_, c),) = parse_poly("x*1*y").terms.items()
    assert c is ONE
    ((_, c),) = fa.mul(parse_poly("T[x]"), parse_poly("y*x")).terms.items()
    assert c is ONE
    for text in ("x*y + 2*T[x]", "--x - y", "1*x^2", "(m - m + 1)*x", "T[x]^2 - 3*y",
                 "(x - y + y)*T[y]"):
        units = [c for c in parse_poly(text).terms.values() if c == ONE]
        assert units and all(c is ONE for c in units), text
    two_x = parse_poly("2*x")
    assert fa.scale(ONE, two_x) is two_x
    ((_, c),) = fa.scale(ScalarPoly.const(3), parse_poly("y")).terms.items()
    assert c == ScalarPoly.const(3)
