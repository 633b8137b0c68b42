"""The two engines checked against each other.

Every claimed identity in the shipped centralizer script is a universally
quantified statement about any generalized weighted Jordan centralizer on a
ring satisfying the hypotheses.  Instantiating the map symbols with an
actual solution on a concrete finite ring and evaluating at every pair of
elements must therefore produce zero, for every step of the certificate.
"""

import gc
import math
import random

import numpy as np
import pytest

from mnjordan import finring as fr
from mnjordan import proofcheck as pc
from mnjordan.parsing import parse_poly
from tests.util import (
    all_pairs_first_violation,
    all_pairs_mul_table,
    element_array,
    pointwise_value,
    random_add_map,
    shipped_script,
    upper_triangular,
)


def test_centralizer_script_identities_hold_on_a_finite_model():
    R = fr.MatRing(2, 5)
    m, n = 1, 1  # torsion product 6, coprime to the characteristic
    spec = fr.LawSpec("gen-centralizer", m, n)
    pairs = fr.solve_identity(R, spec).maps()
    # pick a nonzero solution so the later identities are not vacuous
    T, T0 = next(p for p in pairs if np.any(p[0].matrix))
    F = fr.AddMap(R, T.matrix - T0.matrix)
    bound = {"T": T, "T0": T0, "F": F}

    script = pc.parse_script(shipped_script("theorem_centralizer.steps"))
    ev = fr.PairEvaluator(R)
    checked = 0
    for step in script.steps:
        poly = parse_poly(step.claimed_text)
        if poly.is_zero():
            continue
        violation = ev.first_violation(poly, bound, m, n)
        assert violation is None, (step.label, violation)
        checked += 1
    assert checked > 50


def test_derivation_script_identities_hold_on_a_finite_model():
    # F_7[t]/(t^2) on the basis 1, t; F = D = t*d/dt, which fixes t and
    # kills 1, is one of the 7 solutions (c*t*d/dt, c*t*d/dt)
    R = fr.FinRing([7, 7], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], name="F7[t]/(t^2)")
    m, n = 1, 2
    spec = fr.LawSpec("gen-derivation", m, n)
    pairs = fr.solve_identity(R, spec).maps()
    assert len(pairs) == 7
    t_ddt = np.array([[0, 0], [0, 1]])
    F, D = next(p for p in pairs if np.array_equal(p[0].matrix, t_ddt))
    assert np.any(F.matrix) and np.any(D.matrix)
    Fc = fr.AddMap(R, F.matrix - D.matrix)
    bound = {"F": F, "D": D, "Fc": Fc}

    script = pc.parse_script(shipped_script("theorem_derivation.steps"))
    ev = fr.PairEvaluator(R)
    for step in script.steps:
        poly = parse_poly(step.claimed_text)
        if poly.is_zero():
            continue
        violation = ev.first_violation(poly, bound, m, n)
        assert violation is None, (step.label, violation)


def test_a_wrong_map_breaks_mid_proof_identities():
    # sanity of the method: a non-solution must violate some claimed identity
    R = fr.MatRing(2, 5)
    T = fr.AddMap(R, np.diag([1, 1, 0, 0]))
    bound = {"T": T, "T0": fr.AddMap.zero(R), "F": T}
    script = pc.parse_script(shipped_script("theorem_centralizer.steps"))
    ev = fr.PairEvaluator(R)
    broken = 0
    for step in script.steps:
        poly = parse_poly(step.claimed_text)
        if poly.is_zero():
            continue
        if ev.first_violation(poly, bound, 1, 1) is not None:
            broken += 1
    assert broken > 0


def test_both_engines_state_the_same_law():
    """The solver's law rows and the proof checker's law text agree on maps.

    For generalized laws the solver also imposes the plain law on the base
    map, so the text side checks that too.
    """
    rng = random.Random(7)
    rings = [fr.MatRing(2, 3), fr.DirectProduct(fr.Zn(4), fr.Zn(2)), fr.Zn(6)]
    agree = holds = 0
    for R in rings:
        ev = fr.PairEvaluator(R)
        for law in fr.LAWS:
            generalized = law.startswith("gen-")
            for m, n in [(1, 1), (1, 2), (2, 1), (2, 3)]:
                spec = fr.LawSpec(law, m, n)
                texts = [pc.LAW_TEMPLATES[law].format(M="T", M0="T0")]
                if generalized:
                    plain = law.removeprefix("gen-")
                    texts.append(pc.LAW_TEMPLATES[plain].format(M="T0"))
                polys = [parse_poly(t) for t in texts]
                candidates = [
                    entry if generalized else (entry,)
                    for entry in fr.solve_identity(R, spec).maps()[:3]
                ]
                for _ in range(3):
                    candidates.append(tuple(random_add_map(R, rng)
                                            for _ in range(2 if generalized else 1)))
                for maps in candidates:
                    bound = {"T": maps[0], "T0": maps[-1]}
                    by_text = all(ev.first_violation(p, bound, m, n) is None for p in polys)
                    by_rows = fr._law_residual(R, spec, list(maps))
                    assert by_text == by_rows, (R.name, law, m, n, maps)
                    agree += 1
                    holds += by_rows
    assert agree == 267 and 0 < holds < agree


def test_mul_table_matches_einsum_rows():
    rings = [
        fr.MatRing(2, 3),
        fr.DirectProduct(fr.Zn(8), fr.Zn(4)),
        fr.DirectProduct(fr.Zn(9), fr.Zn(3)),
        fr.DirectProduct(fr.Zn(5), fr.MatRing(2, 3)),
        upper_triangular(2),
    ]
    for R in rings:
        E = element_array(R)
        full = (E.shape[0],) * 2 + (R.k,)
        radix = np.array([math.prod(R.moduli[i + 1 :]) for i in range(R.k)], dtype=np.int64)
        ev = fr.PairEvaluator(R)
        a, b = E[:, None, :], E[None, :, :]
        # the left operand is expanded when it is no larger, else the right;
        # products come back unreduced
        for left, right in ((a, b), (a, np.broadcast_to(b, full)), (np.broadcast_to(a, full), b)):
            product = ev._mul(left, right) % R._mods
            assert np.array_equal(product @ radix, all_pairs_mul_table(R)), R.name


def _nonzero_solution(R, spec):
    """The sum of the solution group's generators: nonzero whenever the
    group is, since each solution has one coefficient vector."""
    sols = fr.solve_identity(R, spec)
    vec = sum(g for g, _ in sols.generators) % sols.slot_mods
    k2 = R.k * R.k
    return fr.AddMap(R, vec[:k2]), fr.AddMap(R, vec[k2:])


LARGE_RINGS = [fr.MatRing(2, 11), fr.DirectProduct(fr.Zn(5), fr.MatRing(2, 7))]
SCRIPTS = [  # (law, script, (main, base, main - base))
    ("gen-centralizer", "theorem_centralizer.steps", ("T", "T0", "F")),
    ("gen-derivation", "theorem_derivation.steps", ("F", "D", "Fc")),
]


@pytest.mark.parametrize("R", LARGE_RINGS, ids=lambda R: R.name)
def test_script_identities_hold_on_rings_beyond_an_element_scan(R):
    m, n = 1, 2  # torsion product 6, coprime to 5, 7 and 11
    for law, script, (main, base, diff) in SCRIPTS:
        M, M0 = _nonzero_solution(R, fr.LawSpec(law, m, n))
        # the derivation law's solutions meet its conclusion here: D is a
        # central derivation and F = D, and these rings have none but 0
        assert M.matrix.any() == (law == "gen-centralizer")
        bound = {main: M, base: M0, diff: fr.AddMap(R, M.matrix - M0.matrix)}
        for poly in _claims(script):
            assert R.pair_evaluator().first_violation(poly, bound, m, n) is None, (law, str(poly))
    # the evaluator formed fewer points than the ring has elements
    assert all(len(P) < R.order for P in R.pair_evaluator()._point_sets.values())


@pytest.mark.parametrize("R", LARGE_RINGS, ids=lambda R: R.name)
def test_a_non_solution_breaks_the_law_step_at_a_genuine_pair(R):
    m, n = 1, 2
    rng = random.Random(13)
    for law, script, (main, base, diff) in SCRIPTS:
        zero = fr.AddMap.zero(R)
        M = random_add_map(R, rng)
        assert not fr._law_residual(R, fr.LawSpec(law, m, n), [M, zero])
        bound = {main: M, base: zero, diff: M}
        step = next(s for s in pc.parse_script(shipped_script(script)).steps if s.label == "law")
        poly = parse_poly(step.claimed_text)
        x, y = R.pair_evaluator().first_violation(poly, bound, m, n)
        assert pointwise_value(R, poly, bound, m, n, x, y) != R.zero(), (law, x, y)


def _claims(script_name):
    script = pc.parse_script(shipped_script(script_name))
    polys = [parse_poly(step.claimed_text) for step in script.steps]
    return [p for p in polys if not p.is_zero()]


def _outcome(evaluate):
    try:
        return evaluate()
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_first_violation_matches_all_pairs_oracle():
    """The polarization-point scan returns what the all-pairs scan returns.

    Every claim of both scripts and every xyx lemma is evaluated under both
    symbol sets, so a lemma in the other set's symbols checks the unbound-map
    error too.
    """
    m, n = 1, 2
    rng = random.Random(11)
    lemmas = [parse_poly(text) for text in fr.LEMMA_TEXTS.values()]
    symbol_sets = [  # (law, script, (main, base, main - base))
        ("gen-centralizer", "theorem_centralizer.steps", ("T", "T0", "F")),
        ("gen-derivation", "theorem_derivation.steps", ("F", "D", "Fc")),
    ]
    rings = [
        fr.MatRing(2, 3),
        fr.DirectProduct(fr.Zn(4), fr.Zn(2)),
        fr.DirectProduct(fr.Zn(8), fr.Zn(4)),
        fr.DirectProduct(fr.Zn(9), fr.Zn(3)),
        fr.Zn(6),
        upper_triangular(2),
    ]
    calls = violations = errors = 0
    for R in rings:
        ev = fr.PairEvaluator(R)
        table = all_pairs_mul_table(R)
        for law, script, (main, base, diff) in symbol_sets:
            polys = _claims(script) + lemmas
            sols = [s for s in fr.solve_identity(R, fr.LawSpec(law, m, n)).maps()
                    if s[0].matrix.any() or s[1].matrix.any()]
            pairs = sols[:2] + [(random_add_map(R, rng), random_add_map(R, rng))
                                for _ in range(3)]
            for M, M0 in pairs:
                bound = {main: M, base: M0, diff: fr.AddMap(R, M.matrix - M0.matrix)}
                for poly in polys:
                    got = _outcome(lambda: ev.first_violation(poly, bound, m, n))
                    want = _outcome(lambda: all_pairs_first_violation(
                        R, poly, bound, m, n, mul_table=table))
                    assert got == want, (R.name, law, str(poly), bound)
                    calls += 1
                    violations += isinstance(got, tuple)
                    errors += isinstance(got, str)
    assert calls > 1500 and 0 < errors and 0 < violations < calls - errors


def test_first_violation_reads_the_weights_modulo_the_moduli():
    # integers act on R+ through Z/exponent; a weight beyond int64 raised
    # OverflowError in the coefficient products
    R = fr.DirectProduct(fr.Zn(4), fr.Zn(3))
    ev = fr.PairEvaluator(R)
    rng = random.Random(5)
    huge = 12 * 2**64  # a multiple of the exponent 12
    found = 0
    for text in fr.LEMMA_TEXTS.values():
        poly = parse_poly(text)
        for _ in range(3):
            bound = {sym: random_add_map(R, rng) for sym in ("T", "T0", "F", "D", "Fc")}
            for m, n in ((1, 2), (3, 1), (2, 5)):
                want = ev.first_violation(poly, bound, m, n)
                assert ev.first_violation(poly, bound, m + huge, n) == want
                assert ev.first_violation(poly, bound, m, n + 7 * huge) == want
                found += want is not None
    assert found


def test_first_violation_leaves_no_reference_cycle():
    # a cycle would keep the (|R|, P) index arrays of every gathered word
    # alive until the cyclic collector happened to run
    R = fr.MatRing(2, 3)
    ev = fr.PairEvaluator(R)
    rng = random.Random(3)
    poly = parse_poly(fr.LEMMA_TEXTS["gen-centralizer"])
    bound = {"T": random_add_map(R, rng), "T0": random_add_map(R, rng)}
    gc.collect()
    gc.disable()
    try:
        assert ev.first_violation(poly, bound, 1, 1) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()
