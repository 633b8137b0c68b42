import re

import pytest

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
    parse_value,
    tokenize,
)
from mnjordan.proofcheck import parse_script
from mnjordan.scalars import ScalarPoly
from tests.util import group_by_group_tokenize, shipped_script


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


@pytest.mark.parametrize("script", ["theorem_centralizer.steps", "theorem_derivation.steps"])
def test_tokenizer_matches_the_group_by_group_oracle(script):
    malformed = ["x $ y", "T[x] @", "x*y @", "", "   ", "x ->y;", "  12 -> m_1|[,]"]
    texts = list(malformed)
    for line in shipped_script(script).splitlines():
        # a whole line stops at '=>'; its two sides tokenize in full
        head, _, claim = line.split("#", 1)[0].partition("=>")
        texts += [line, head, claim]
    for text in texts:
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(group_by_group_tokenize, text)
    assert _tokens_or_error(tokenize, "x $ y") == ("error", "unexpected character '$' (at column 3)", 2)
