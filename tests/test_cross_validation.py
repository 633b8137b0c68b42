"""The two engines checked against each other.

Every claimed identity in the shipped centralizer script is a universally
quantified statement about any generalized weighted Jordan centralizer on a
ring satisfying the hypotheses.  Instantiating the map symbols with an
actual solution on a concrete finite ring and evaluating at every pair of
elements must therefore produce zero, for every step of the certificate.
"""

import random

import numpy as np
import pytest

from mnjordan import finring as fr
from mnjordan import proofcheck as pc
from mnjordan.parsing import parse_poly
from tests.util import random_add_map, shipped_script


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
    R = fr.MatRing(2, 3)
    m, n = 1, 2
    spec = fr.LawSpec("gen-derivation", m, n)
    F, D = fr.solve_identity(R, spec).maps()[0]
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
