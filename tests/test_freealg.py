import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnjordan import freealg as fa
from mnjordan.parsing import parse_poly as P
from mnjordan.parsing import poly_to_text
from mnjordan.parsing import parse_scalar as S
from mnjordan.scalars import ExactDivisionError
from tests.util import rebuilding_normalize
from tests.util import word_key as recursive_word_key

N = fa.normalize


# -- random polynomial machinery shared with the acceptance suite -------------

ATOM_POOL = ["x", "y", "T[x]", "T[y]", "T0[x]", "T0[y]", "F[x]", "D[x]", "D[y]"]
COEFF_POOL = ["1", "-1", "2", "m", "n", "m+n", "-3", "m*n", "2*m-n"]
# map arguments beyond bare generators, and the nesting D[x*T[x]] that the
# derivation rules reject
ROUND_TRIP_POOL = ATOM_POOL + ["T[x*y]", "T0[x^2*y]", "D[y*x]", "F[x*T[y]]", "Fc[x]", "D[x*T[x]]"]
RULE_SETS = {
    "none": fa.NO_RULES,
    "two-sided": frozenset({fa.RULE_TWO_SIDED}),
    "central-derivation": frozenset({fa.RULE_CENTRAL_DERIVATION}),
    "all": fa.ALL_RULES,
}


def random_poly(rng, max_terms=4, max_len=4, pool=ATOM_POOL):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        word = "*".join(rng.choice(pool) for _ in range(rng.randint(1, max_len)))
        coeff = rng.choice(COEFF_POOL)
        terms.append(f"({coeff})*{word}")
    return P(" + ".join(terms))


# -- atoms ---------------------------------------------------------------------


def _word():
    x, y = fa.Gen("x"), fa.Gen("y")
    return (x, fa.App("T", (x, fa.App("D", (y,)))), y)


def test_atoms_built_separately_are_equal_dict_keys():
    w1, w2 = _word(), _word()
    assert w1[1] is w2[1]
    assert w1 == w2 and hash(w1) == hash(w2)
    assert {w1: "found"}[w2] == "found"
    assert P("T[x*D[y]]*x").terms.keys() == P("T[x*D[y]]*x").terms.keys()


def test_copied_and_unpickled_atoms_are_the_interned_ones():
    w = _word()
    assert P("x*T[x*D[y]]*y").terms.keys() == {w}
    for twin in (copy.deepcopy(w), copy.copy(w), pickle.loads(pickle.dumps(w))):
        assert twin == w and hash(twin) == hash(w)
        assert all(a is b for a, b in zip(twin, w))
        assert twin[1].arg[1] is w[1].arg[1]


def test_atoms_differ_by_kind_symbol_and_argument():
    w = (fa.Gen("x"),)
    assert fa.App("T", w) != fa.App("T0", w)
    assert fa.App("T", w) != fa.App("T", (fa.Gen("y"),))
    assert fa.Gen("x") != fa.App("T", w) and fa.App("T", w) != fa.Gen("x")
    assert fa.Gen("x") != fa.Gen("y")
    assert len({fa.Gen("x"), fa.Gen("x"), fa.App("T", w), fa.App("T", w)}) == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(RULE_SETS)))
def test_sorted_terms_order_matches_the_recursive_keys(seed, rule_set):
    p = random_poly(random.Random(seed), max_terms=8, pool=ROUND_TRIP_POOL)
    try:
        p = N(p, RULE_SETS[rule_set])
    except fa.NormalizeError:
        pass
    assert [w for w, _ in p.sorted_terms()] == sorted(p.terms, key=recursive_word_key)


# -- the spec'd operation examples ---------------------------------------------


def test_additive_inverse_and_free_mul():
    p = random_poly(random.Random(0))
    assert (p + (-p)).is_zero()
    assert fa.mul(P("x"), P("y")) == P("x*y")


def test_a_product_above_the_pair_bound_is_a_size_error():
    wide = P("(x+y)^8")  # 256 terms
    assert len(fa.mul(wide, wide).terms) == fa.MAX_PRODUCT_PAIRS  # at the bound
    wider = wide + P("T[x]")
    for p, q in [(wide, wider), (wider, wide)]:
        with pytest.raises(fa.PowerSizeError) as exc:
            fa.mul(p, q)
        assert str(exc.value) == (f"a product of {len(p.terms)} by {len(q.terms)} terms "
                                  f"is above the bound {fa.MAX_PRODUCT_PAIRS} on pairs of terms")


def test_defining_law_assembles():
    law = fa.scale(S("m+n"), fa.app("T", fa.mul(P("x"), P("x")))) - P(
        "m*T[x]*x + n*x*T0[x]"
    )
    assert law == P("(m+n)*T[x^2] - m*T[x]*x - n*x*T0[x]")


def test_substitute_renaming_and_binomial():
    assert fa.substitute(P("T[x]"), "x", P("y")) == P("T[y]")
    expanded = fa.substitute(P("T[x*y*x]"), "x", P("x+y"))
    # brute-force oracle: choose x or y for each of the two x positions
    words = sorted(
        "*".join([a, "y", b]) for a in "xy" for b in "xy"
    )
    expected = fa.NCPoly.zero()
    for w in words:
        expected = expected + P(f"T[{w}]")
    assert expanded == expected


def test_substitute_nesting_guard():
    with pytest.raises(fa.NestingError):
        fa.substitute(P("T[x]"), "x", P("y*T[x]"))
    # the same replacement is fine for the other generator
    assert fa.substitute(P("T[y]*y"), "y", P("y*T[x]")) == P("T[y*T[x]]*y*T[x]")


def test_linearization_of_the_law():
    law = P("(m+n)*T[x^2] - m*T[x]*x - n*x*T0[x]")
    lin = N(
        fa.substitute(law, "x", P("x+y")) - law - fa.substitute(law, "x", P("y"))
    )
    assert lin == N(P("(m+n)*T[x*y+y*x] - m*T[x]*y - m*T[y]*x - n*T0[x*y+y*x]"))


def test_polarize_examples():
    assert fa.polarize_even(P("x*y + x*x"), "x") == P("x^2")
    assert fa.polarize_even(P("T[x*y*x]"), "x") == P("T[x*y*x]")
    # degree counting includes occurrences inside map arguments
    assert fa.polarize_even(P("T[x]*y + T[x*x]*y"), "x") == P("T[x*x]*y")


def test_normalize_two_sided_collapse():
    assert N(P("2*m*n*x*T0[y]*x - 2*m*n*T0[x*y*x]")).is_zero()
    assert N(P("T0[x*y] - T0[x]*y")).is_zero()
    assert N(P("T0[x*y] - x*T0[y]")).is_zero()
    # opaque atoms are absorbed as context but never rewritten themselves
    assert N(P("T[x]*T0[y]")) == P("T0[T[x]*y]")


def test_normalize_derivation_rules():
    assert N(P("D[x*y] - D[x]*y - x*D[y]")).is_zero()
    assert N(P("y*D[x] - D[x]*y")).is_zero()
    # a central-valued derivation kills commutators
    assert N(P("x*y*D[x] - y*x*D[x]")).is_zero()
    assert N(P("D[x^2*y] - D[x*y*x]")).is_zero()


def test_normalize_rejects_undefined_nesting():
    with pytest.raises(fa.NormalizeError):
        N(P("D[x*T[x]]"))


def test_normalize_respects_rule_licensing():
    p = P("x*T0[y] - T0[x*y]")
    assert N(p).is_zero()
    assert not N(p, fa.NO_RULES).is_zero()
    q = P("D[x*y] - x*D[y] - y*D[x]")
    assert N(q).is_zero()
    assert not N(q, fa.NO_RULES).is_zero()


def test_exact_divide_examples():
    w = P("n*(2*m+n)*T[x]*y*T[x]")
    assert fa.exact_divide(w, S("n*(2*m+n)")) == P("T[x]*y*T[x]")
    with pytest.raises(ExactDivisionError):
        fa.exact_divide(P("m*x + n*y"), S("m-n"))


def test_commutator_examples():
    x, y = P("x"), P("y")
    assert fa.commutator(x, x).is_zero()
    assert fa.commutator(x, y) == P("x*y - y*x")
    tx = P("T[x]")
    lhs = fa.commutator(tx, fa.mul(x, x))
    rhs = fa.mul(fa.commutator(tx, x), x) + fa.mul(x, fa.commutator(tx, x))
    assert N(lhs - rhs).is_zero()


# -- property tests ---------------------------------------------------------------

polys = st.integers(0, 10**6).map(lambda seed: random_poly(random.Random(seed)))


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert fa.mul(fa.mul(p, q), r) == fa.mul(p, fa.mul(q, r))
    assert fa.mul(p, q + r) == fa.mul(p, q) + fa.mul(p, r)
    assert fa.mul(p + q, r) == fa.mul(p, r) + fa.mul(q, r)
    assert (p - p).is_zero()
    assert p + fa.NCPoly.zero() == p


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(RULE_SETS)))
def test_normalize_idempotent(seed, rule_set):
    # every stored identity is normalized under the rules in force, and
    # proofcheck normalizes it again when it is cited: that must not move it
    rules = RULE_SETS[rule_set]
    try:
        one_pass = N(random_poly(random.Random(seed), pool=ROUND_TRIP_POOL), rules)
    except fa.NormalizeError:
        return
    assert N(one_pass, rules) == one_pass


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(RULE_SETS)))
def test_normalize_matches_the_rebuilding_oracle(seed, rule_set):
    # normalize returns its argument when every word is a recorded fixed
    # point; the oracle rebuilds every word
    rules = RULE_SETS[rule_set]
    p = random_poly(random.Random(seed), max_terms=6, pool=ROUND_TRIP_POOL)
    try:
        expected = rebuilding_normalize(p, rules)
    except fa.NormalizeError:
        with pytest.raises(fa.NormalizeError):
            N(p, rules)
        return
    assert list(N(p, rules).terms.items()) == list(expected.terms.items())
    # the first pass over an already normal polynomial records its words
    assert list(N(expected, rules).terms.items()) == list(expected.terms.items())
    assert N(expected, rules) is expected


@settings(max_examples=150, deadline=None)
@given(polys, polys)
def test_substitute_is_additive(p, q):
    r = P("x*y + y*x")
    assert fa.substitute(p + q, "y", r) == fa.substitute(p, "y", r) + fa.substitute(
        q, "y", r
    )
    assert fa.substitute(p, "x", P("x")) == p


@settings(max_examples=150, deadline=None)
@given(polys, st.sampled_from(["2", "m", "n", "m+n", "m-n", "m*n"]))
def test_exact_divide_round_trip(p, ctext):
    c = S(ctext)
    assert fa.exact_divide(fa.scale(c, p), c) == p


@settings(max_examples=150, deadline=None)
@given(polys, st.sampled_from(["x", "y"]))
def test_polarize_matches_sign_flip_oracle(p, g):
    flipped = fa.substitute(p, g, fa.scale(S("-1"), fa.gen(g)))
    assert fa.scale(S("2"), fa.polarize_even(p, g)) == p + flipped


@settings(max_examples=100, deadline=None)
@given(polys, st.sampled_from(["x", "y"]))
def test_degree_bookkeeping(p, g):
    def brute_count(word, name):
        total = 0
        for atom in word:
            if isinstance(atom, fa.Gen):
                total += int(atom.name == name)
            else:
                total += brute_count(atom.arg, name)
        return total

    for word in p.terms:
        assert fa.word_gen_degree(word, g) == brute_count(word, g)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(RULE_SETS)))
def test_printed_normal_form_round_trips(seed, rule_set):
    # proofcheck accepts a claim that reads exactly as the printed computed
    # polynomial without parsing it; this is what makes that sound
    rules = RULE_SETS[rule_set]
    try:
        p = N(random_poly(random.Random(seed), pool=ROUND_TRIP_POOL), rules)
    except fa.NormalizeError:
        return
    assert N(P(poly_to_text(p)), rules) == p
