import pytest

from mnjordan import freealg as fa
from mnjordan.parsing import (
    ParseError,
    parse_monomial,
    parse_poly,
    parse_scalar,
    parse_witnesses,
    tokenize,
)
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


def test_witness_parsing():
    ws = parse_witnesses("(m+n)*[b1] + m*[b2]*x - (m+n)*[b2 | x -> x*x] - m*x*[b0]*y")
    assert [w.label for w in ws] == ["b1", "b2", "b2", "b0"]
    assert ws[0].coeff == parse_scalar("m+n")
    assert ws[1].right == parse_monomial("x")[1]
    assert ws[2].coeff == parse_scalar("-(m+n)")
    assert "x" in ws[2].subst and ws[2].subst["x"] == parse_poly("x*x")
    assert ws[3].left == parse_monomial("x")[1]
    assert ws[3].right == parse_monomial("y")[1]


def test_witness_with_map_contexts():
    (w,) = parse_witnesses("-2*m*[e14]*y*F[x]*x")
    assert w.coeff == parse_scalar("-2*m")
    assert w.right == parse_monomial("y*F[x]*x")[1]
    with pytest.raises(ParseError):
        parse_witnesses("m*x + n*y")  # no identity reference
    with pytest.raises(ParseError):
        parse_witnesses("(x+y)*[a]")  # context is not a monomial


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
    assert _tokens_or_error(tokenize, "x $ y") == ("error", "unexpected character '$' (at column 2)", 1)
