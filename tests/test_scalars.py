import pytest

from mnjordan.scalars import ExactDivisionError, ScalarPoly


def S(text):
    from mnjordan.parsing import parse_scalar

    return parse_scalar(text)


def test_zero_is_empty_map():
    assert ScalarPoly.zero().terms == {}
    assert not ScalarPoly({(0, 0): 0})
    assert S("m - m").is_zero()


def test_arithmetic_is_exact_at_scale():
    big = S("m+n") ** 40
    back = big.exact_div(S("m+n") ** 39)
    assert back == S("m+n")
    assert big.evaluate(1, 1) == 2**40


def test_exact_division_and_failure():
    assert S("n*(2*m+n)*m").exact_div(S("n*(2*m+n)")) == S("m")
    assert S("m^2 - n^2").exact_div(S("m-n")) == S("m+n")
    with pytest.raises(ExactDivisionError):
        S("m + n").exact_div(S("m - n"))
    with pytest.raises(ExactDivisionError):
        S("4*m").exact_div(S("3"))
    with pytest.raises(ExactDivisionError) as exc:
        S("m^2 + 1").exact_div(S("m - n"))
    assert str(exc.value) == "m^2 + 1 is not divisible by m - n (stuck at term n^2)"


@pytest.mark.parametrize("num, den", [
    ("n*(2*m+n)*m", "n*(2*m+n)"), ("m^2 - n^2", "m-n"), ("m + n", "m - n"), ("4*m", "3"),
    ("6*m*n", "2*n"), ("m^2 + 1", "m - n"), ("0", "m"), ("(m+n)^5", "(m+n)^3"), ("m", "-1"),
])
def test_quotient_is_exact_div_without_raising(num, den):
    try:
        expected = S(num).exact_div(S(den))
    except ExactDivisionError:
        expected = None
    assert S(num).quotient(S(den)) == expected
    assert S(den).divides(S(num)) == (expected is not None)
    with pytest.raises(ZeroDivisionError):
        S(num).quotient(S("0"))


def test_evaluate():
    assert S("m*n*(m+n)*(2*m+n)").evaluate(1, 2) == 24
    assert S("m*n*(m+n)*(m+2*n)").evaluate(1, 2) == 30


def test_units_and_hash():
    assert S("1").is_unit() and S("-1").is_unit()
    assert not S("2").is_unit() and not S("m").is_unit()
    assert hash(S("m+n")) == hash(S("n+m"))
    assert len({S("m"), S("m"), S("n")}) == 2


def test_text_round_trip():
    for text in ("m", "-3*m^2*n + 2", "(m+n)*(m+2*n)", "0", "m - n"):
        p = S(text)
        assert S(p.to_text()) == p
