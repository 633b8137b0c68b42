import itertools
import json
import math
import random
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from mnjordan import finring as fr
from mnjordan import intsolve
from mnjordan.freealg import word_gen_degree
from mnjordan.parsing import parse_poly
from tests.util import (
    all_add_maps,
    all_element_law_rows,
    all_element_residual,
    all_pairs_central,
    all_pairs_derivation,
    all_pairs_two_sided,
    all_x_center,
    all_x_is_prime,
    all_x_is_semiprime,
    all_x_torsion_free,
    check_dict_form,
    dense_hom_rows,
    dense_separability_rows,
    densify,
    enumerated_solutions,
    exact_value,
    operator_conclusion_rows,
    operator_law_rows,
    per_map_violations,
    random_add_map,
    upper_triangular,
)


def shipped_rings():
    out = []
    for entry in resources.files("mnjordan").joinpath("rings").iterdir():
        if entry.name.endswith(".json"):
            out.append(fr.from_spec(json.loads(entry.read_text())))
    assert out
    return out


def oracle_solutions(R, spec):
    """Brute force over every additive map (or pair), filtering by the law
    imposed at every element."""
    maps = all_add_maps(R)
    out = set()
    pool = itertools.product(maps, maps) if spec.pair else maps
    for entry in pool:
        group = list(entry) if spec.pair else [entry]
        if all_element_residual(R, spec, group):
            out.add(tuple(fr._vector_of_maps(group)))
    return out


# -- construction -------------------------------------------------------------


def test_constructors():
    assert fr.Zn(6).order == 6
    assert fr.MatRing(2, 5).order == 625
    P = fr.DirectProduct(fr.Zn(5), fr.Zn(5))
    assert P.order == 25 and P.moduli == (5, 5)


def test_non_associative_table_is_rejected():
    # e0*e0 = e1, e0*e1 = e0 over Z2+Z2 breaks associativity on (e0,e0,e0)
    with pytest.raises(fr.RingConstructionError) as err:
        fr.FromTable([2, 2], [[[0, 1], [1, 0]], [[0, 0], [0, 0]]])
    assert "basis triple" in str(err.value)


def test_incompatible_table_is_rejected():
    with pytest.raises(fr.RingConstructionError):
        fr.FromTable([2, 4], [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])


def test_builtin_constructors_build_rings_that_pass_the_table_check():
    # Zn, MatRing and DirectProduct skip _validate: their axioms hold by
    # construction, and only FromTable checks a table
    built = [fr.Zn(n) for n in range(2, 31)]
    built += [fr.MatRing(k, p) for k in range(1, 5) for p in (2, 3, 4, 9)]
    for R in built + [fr.DirectProduct(R, T) for R in built for T in shipped_rings()]:
        R._validate()


BAD_TABLES = [
    # e0*e0 = e1, e0*e1 = e0 over Z2+Z2 breaks associativity on (e0,e0,e0)
    ({"moduli": [2, 2], "mult": [[[0, 1], [1, 0]], [[0, 0], [0, 0]]]},
     "associativity fails on basis triple (e0, e0, e0)"),
    # e0*e0 = e1 over Z2+Z4 has order 2, not a multiple of 4
    ({"moduli": [2, 4], "mult": [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]},
     "product e0*e0 is incompatible with the moduli"),
]


@pytest.mark.parametrize("table, message", BAD_TABLES, ids=["non-associative", "incompatible"])
@pytest.mark.parametrize("where", ["alone", "first-factor", "second-factor"])
def test_a_bad_table_is_refused_through_from_spec(table, message, where):
    zn = {"kind": "Zn", "n": 3}
    spec = {"alone": table,
            "first-factor": {"kind": "product", "of": [table, zn]},
            "second-factor": {"kind": "product", "of": [zn, table]}}[where]
    with pytest.raises(fr.RingConstructionError) as err:
        fr.from_spec(spec)
    assert str(err.value) == message


def test_moduli_too_wide_for_int64_are_refused():
    # 3k(d-1)^2 >= 2^63: a conclusion row applied to a map could overflow
    for build in (lambda: fr.MatRing(2, 1099511627791), lambda: fr.Zn(2**61 - 1),
                  lambda: fr.DirectProduct(fr.Zn(5), fr.Zn(2**31 - 1))):
        with pytest.raises(fr.RingConstructionError, match="64-bit"):
            build()
    assert fr.Zn(2**30).order == 2**30


def test_from_spec_shorthand():
    assert fr.from_spec({"kind": "Zn", "n": 6}).order == 6
    assert fr.from_spec({"kind": "Mat", "k": 2, "p": 7}).order == 2401
    prod = fr.from_spec(
        {"kind": "product", "of": [{"kind": "Zn", "n": 5}, {"kind": "Mat", "k": 2, "p": 7}]}
    )
    assert prod.order == 5 * 2401


@pytest.mark.parametrize("spec", [
    {"kind": "Mat", "k": True, "p": 5},
    {"kind": "Mat", "k": 2, "p": True},
    {"kind": "Zn", "n": True},
    {"moduli": [2], "mult": [[[True]]]},
    {"moduli": [True], "mult": [[[1]]]},
    {"kind": "product", "of": [{"kind": "Zn", "n": 3}, {"kind": "Zn", "n": False}]},
], ids=["k", "p", "n", "mult", "moduli", "factor"])
def test_from_spec_refuses_a_boolean_as_an_integer(spec):
    """JSON true and false load as bools, which Python counts as ints."""
    with pytest.raises(fr.RingConstructionError):
        fr.from_spec(spec)


# -- hypothesis predicates ------------------------------------------------------


def test_semiprime_examples():
    assert not fr.is_semiprime(fr.Zn(4))
    assert fr.is_semiprime(fr.Zn(6))
    P = fr.DirectProduct(fr.Zn(5), fr.Zn(5))
    assert fr.is_semiprime(P) and not fr.is_prime(P)
    assert fr.is_prime(fr.MatRing(2, 3))


def test_semiprime_matches_squarefree_for_zn():
    def squarefree(n):
        return all(e == 1 for e in fr.intsolve.factorize(n).values())

    for n in range(2, 31):
        assert fr.is_semiprime(fr.Zn(n)) == squarefree(n), n


def test_torsion_free():
    assert fr.is_torsion_free(fr.Zn(5), 24)
    assert not fr.is_torsion_free(fr.Zn(6), 2)
    assert fr.is_torsion_free(fr.MatRing(2, 7), 24)
    for n in range(2, 31):
        for t in range(2, 31):
            assert fr.is_torsion_free(fr.Zn(n), t) == (math.gcd(t, n) == 1)
    for R in [fr.Zn(12), fr.DirectProduct(fr.Zn(8), fr.Zn(9)), fr.MatRing(2, 5)] + shipped_rings():
        for t in range(2, 13):
            assert fr.is_torsion_free(R, t) == all_x_torsion_free(R, t), (R.name, t)


def test_center():
    assert len(fr.center(fr.Zn(6))) == 6
    M5 = fr.MatRing(2, 5)
    cen = fr.center(M5)
    assert len(cen) == 5
    assert all(v == (c, 0, 0, c) for c, v in zip((0, 1, 2, 3, 4), sorted(cen)))
    zero_ring = fr.FromTable([2, 2], np.zeros((2, 2, 2)), name="zero")
    assert len(fr.center(zero_ring)) == 4


def test_hypothesis_predicates_match_element_scans():
    rings = [fr.Zn(n) for n in range(2, 31)]
    rings += [fr.DirectProduct(fr.Zn(a), fr.Zn(b)) for a in range(2, 7) for b in range(a, 7)]
    rings += shipped_rings()
    rings += [fr.MatRing(2, p) for p in (2, 3, 4)]
    rings += [
        fr.DirectProduct(fr.Zn(8), fr.Zn(4)),
        fr.DirectProduct(fr.Zn(9), fr.Zn(3)),
        fr.DirectProduct(fr.Zn(4), fr.Zn(4), fr.Zn(4)),
        fr.FromTable([2, 2], np.zeros((2, 2, 2)), name="zero"),
        fr.DirectProduct(fr.Zn(3), upper_triangular(2)),
        fr.DirectProduct(fr.MatRing(2, 2), fr.Zn(3)),
        fr.DirectProduct(fr.Zn(6), fr.MatRing(2, 3)),
    ]
    # UT2 has an identity, so only the separability system rejects it:
    # e12 * R * e12 = 0
    rings += [upper_triangular(p) for p in (2, 3)]
    for R in rings:
        assert fr.is_semiprime(R) == all_x_is_semiprime(R), R.name
        assert fr.is_prime(R) == all_x_is_prime(R), R.name
        assert fr.center(R) == all_x_center(R), R.name
    for R in (upper_triangular(2), upper_triangular(3)):
        assert not fr.is_semiprime(R) and not fr.is_prime(R)
    F4 = fr.from_spec(json.loads(
        resources.files("mnjordan").joinpath("rings", "z2z2_f4.json").read_text()))
    assert fr.is_prime(F4) and len(fr.center(F4)) == 4  # F_4 is its own center


def test_hypotheses_decided_at_any_order():
    for R in (fr.MatRing(3, 5), fr.MatRing(3, 7), fr.MatRing(2, 11)):
        assert fr.is_semiprime(R) and fr.is_prime(R), R.name
        assert len(fr.center(R)) == R.moduli[0], R.name
    R = fr.DirectProduct(fr.Zn(5), fr.MatRing(2, 7))
    assert fr.is_semiprime(R) and not fr.is_prime(R)
    assert len(fr.center(R)) == 35
    R = fr.DirectProduct(fr.Zn(7), fr.MatRing(2, 49))
    assert not fr.is_semiprime(R) and not fr.is_prime(R)


def test_size_bounds_raise():
    R = fr.MatRing(2, 11)  # 14 641 elements, none of them enumerated
    T = fr.AddMap.scalar(R, 3)
    assert fr.cross_check_lemma(R, fr.LawSpec("gen-centralizer", 1, 1), (T, T))
    assert R._elements is None
    # x-degree 6 and y-degree 1 on 16 generators: 74 613 * 17 * 16 cells
    R = fr.MatRing(4, 3)
    claim = parse_poly("x^2*T[x]*y*x*T[x]*x - x*T[x]*x*y*x^2*T[x]")
    ev = fr.PairEvaluator(R)
    with pytest.raises(fr.RingSizeError, match=f"above the pair bound {fr.PAIR_CELLS}$"):
        ev.first_violation(claim, {"T": fr.AddMap.identity(R)}, 1, 1)
    assert not ev._point_sets and R._elements is None  # refused before any point
    # every additive map of the zero ring on Z2^5 is a centralizer: 2^25
    zero = fr.FromTable([2] * 5, np.zeros((5, 5, 5)), name="zero")
    sols = fr.solve_identity(zero, fr.LawSpec("centralizer", 1, 2))
    assert sols.count == 2**25 > fr.MAX_SOLUTIONS
    with pytest.raises(fr.RingSizeError):
        sols.maps()
    with pytest.raises(fr.RingSizeError):
        fr.center(fr.FromTable([2] * 21, np.zeros((21, 21, 21)), name="zero"))


# -- additive maps ----------------------------------------------------------------


def test_addmap_well_definedness():
    R = fr.DirectProduct(fr.Zn(4), fr.Zn(2))
    fr.AddMap(R, [[1, 2], [1, 1]])  # e1 -> 2e0 + e1 is fine: 2*2 = 0 mod 4
    with pytest.raises(ValueError):
        fr.AddMap(R, [[0, 1], [0, 0]])  # e1 has order 2 but maps to order-4 e0


def test_addmap_is_additive():
    R = fr.MatRing(2, 5)
    T = fr.AddMap.scalar(R, 3)
    for a in [R.basis(0), (1, 2, 3, 4)]:
        for b in [R.basis(2), (4, 4, 0, 1)]:
            assert T(R.add(a, b)) == R.add(T(a), T(b))


# -- the solver against the exhaustive oracle ---------------------------------------


@pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1)])
def test_solver_matches_oracle_small_rings(mn):
    m, n = mn
    for R in shipped_rings():
        for law in fr.LAWS:
            spec = fr.LawSpec(law, m, n)
            sols = fr.solve_identity(R, spec)
            assert set(sols.explicit) == oracle_solutions(R, spec), (R.name, law)
            assert sols.count == len(sols.explicit)


def test_solver_prime_power_moduli():
    for R in (fr.Zn(4), fr.Zn(8), fr.Zn(9), fr.DirectProduct(fr.Zn(4), fr.Zn(2))):
        for law in ("centralizer", "gen-derivation"):
            spec = fr.LawSpec(law, 1, 2)
            sols = fr.solve_identity(R, spec)
            assert set(sols.explicit) == oracle_solutions(R, spec), (R.name, law)


def test_polarized_rows_agree_with_all_element_rows():
    rng = random.Random(11)
    rings = [
        fr.MatRing(2, 3),
        fr.DirectProduct(fr.Zn(4), fr.Zn(2)),
        fr.DirectProduct(fr.Zn(8), fr.Zn(4)),
        fr.DirectProduct(fr.Zn(9), fr.Zn(3)),
        fr.Zn(6),
    ]
    for R in rings:
        for law in fr.LAWS:
            for m, n in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]:
                spec = fr.LawSpec(law, m, n)
                rows, mods = all_element_law_rows(R, spec)
                sols = np.array(fr.solve_identity(R, spec).explicit, dtype=np.int64)
                assert np.all((rows @ sols.T) % mods[:, None] == 0), (R.name, law, m, n)
                for _ in range(3):
                    maps = [random_add_map(R, rng) for _ in range(2 if spec.pair else 1)]
                    assert fr._law_residual(R, spec, maps) == all_element_residual(
                        R, spec, maps
                    ), (R.name, law, m, n)


def test_law_residual_is_exact_near_the_int64_guard():
    # Z_p with e*e = -e and p = 10 000 019 passes the guard 3k(d - 1)^2 <
    # 2^63, but its law rows reach about 5p^2, and their products with a map
    # vector used to leave int64: maps that meet the law were refused
    p = 10_000_019
    R = fr.FromTable([p], [[[p - 1]]])
    T, zero = fr.AddMap.scalar(R, p - 2), fr.AddMap.zero(R)
    for law, maps in [("centralizer", T), ("gen-centralizer", (T, T))]:
        spec = fr.LawSpec(law, 1, 2)
        assert fr._law_residual(R, spec, list(maps) if spec.pair else [maps])
        assert R.pair_evaluator().first_violation(
            fr._lemma_poly(law), dict(zip(spec.rule.symbols, [T, T])), 1, 2) is None
        assert fr.cross_check_lemma(R, spec, maps)
    # and (T, 0) does not meet the generalized law
    assert not fr._law_residual(R, fr.LawSpec("gen-centralizer", 1, 2), [T, zero])


OPERATOR_RINGS = [
    fr.Zn(5),
    fr.Zn(12),
    fr.DirectProduct(fr.Zn(2), fr.Zn(3)),
    fr.DirectProduct(fr.Zn(4), fr.Zn(6)),
    fr.DirectProduct(fr.Zn(8), fr.Zn(4)),
    fr.DirectProduct(fr.Zn(9), fr.Zn(3)),
    fr.MatRing(2, 3),
    fr.MatRing(2, 4),
    fr.MatRing(2, 9),
    fr.MatRing(3, 2),
    fr.DirectProduct(fr.Zn(5), fr.MatRing(2, 7)),
]


def test_rows_and_conclusions_match_the_product_operators():
    # the law rows are array-equal to the former operator sums, so the
    # kernel generators cannot move; each conclusion value is the former
    # row applied to the map
    rng = random.Random(17)
    rings = OPERATOR_RINGS
    for R in rings:
        for law in fr.LAWS:
            for m, n in [(1, 2), (2, 3), (3, 1)]:
                spec = fr.LawSpec(law, m, n)
                sparse, mods = fr._law_row_blocks(R, spec)
                check_dict_form(sparse)
                assert all(type(d) is int for d in mods)
                rows = densify(sparse)
                want_rows, want_mods = operator_law_rows(R, spec)
                assert np.array_equal(rows, want_rows), (R.name, law, m, n)
                assert np.array_equal(mods, want_mods), (R.name, law, m, n)
                G = [g for g, _ in fr.solve_identity(R, spec).generators]
                G += [fr._vector_of_maps([random_add_map(R, rng)
                                          for _ in range(2 if spec.pair else 1)])
                      for _ in range(4)]
                G = np.array(G, dtype=np.int64)
                blocks = fr._conclusion_blocks(R, spec.rule, G)
                oracle = operator_conclusion_rows(R, spec.rule)
                assert [b[0] for b in blocks] == [b[0] for b in oracle]
                for (reason, values, v_mods), (_, o_rows, o_mods) in zip(blocks, oracle):
                    assert np.array_equal(v_mods, o_mods), (R.name, law, reason)
                    assert np.array_equal(values % v_mods, (o_rows @ G.T).T % o_mods), (
                        R.name, law, m, n, reason)


def test_hom_and_separability_rows_match_the_dense_builders(monkeypatch):
    # the sparse systems, densified, are the dense arrays the former
    # builders gave, integer for integer: the hom rows for one and two
    # maps, and the separability rows of the structure constants (any
    # integer tensor) and of each p-part, as _is_separable hands them over
    systems = []
    solve = intsolve.gf_nullspace

    def recording(rows, q):
        systems.append(rows)
        return solve(rows, q)

    monkeypatch.setattr(intsolve, "gf_nullspace", recording)
    for R in OPERATOR_RINGS:
        for n_maps in (1, 2):
            sparse, mods = fr._hom_rows(R, n_maps)
            check_dict_form(sparse)
            assert all(type(d) is int for d in mods)
            rows, want_mods = dense_hom_rows(R, n_maps)
            assert np.array_equal(densify(sparse), rows), (R.name, n_maps)
            assert np.array_equal(mods, want_mods), (R.name, n_maps)
        for p, c in [(2, R.constants)] + (fr._prime_parts(R) or []):
            systems.clear()
            fr._is_separable(c, p)
            check_dict_form(systems[0])
            assert np.array_equal(densify(systems[0]), dense_separability_rows(c)), R.name


def test_solution_sets_are_groups():
    for R in (fr.Zn(6), fr.MatRing(2, 3)):
        spec = fr.LawSpec("gen-centralizer", 1, 2)
        sols = fr.solve_identity(R, spec)
        vecs = set(sols.explicit)
        assert tuple([0] * len(sols.slot_mods)) in vecs
        for a in itertools.islice(vecs, 20):
            for b in itertools.islice(vecs, 20):
                s = tuple(
                    (x + y) % int(d) for x, y, d in zip(a, b, sols.slot_mods)
                )
                assert s in vecs


def test_zero_map_always_solves():
    for law in fr.LAWS:
        sols = fr.solve_identity(fr.Zn(7), fr.LawSpec(law, 2, 3))
        zero = tuple([0] * len(sols.slot_mods))
        assert zero in set(sols.explicit)


def test_z5_centralizer_solutions_are_scalars():
    sols = fr.solve_identity(fr.Zn(5), fr.LawSpec("centralizer", 1, 1))
    assert sols.count == 5
    assert sorted(m.matrix[0][0] for m in sols.maps()) == [0, 1, 2, 3, 4]


def test_mat7_gen_centralizer_solutions_two_sided():
    R = fr.MatRing(2, 7)
    sols = fr.solve_identity(R, fr.LawSpec("gen-centralizer", 1, 2))
    assert sols.count == 7
    for T, T0 in sols.maps():
        assert T == T0
        assert fr.verify_two_sided(R, T)


def test_centralizer_law_solutions_under_hypotheses_are_two_sided():
    for R in (fr.Zn(5), fr.Zn(7), fr.MatRing(2, 5), fr.DirectProduct(fr.Zn(5), fr.Zn(7))):
        for (m, n) in [(1, 1), (1, 2)]:
            spec = fr.LawSpec("centralizer", m, n)
            if not (fr.is_semiprime(R) and fr.is_torsion_free(R, spec.torsion_product())):
                continue
            for T in fr.solve_identity(R, spec).maps():
                assert fr.verify_two_sided(R, T)


def test_gen_derivation_solutions_under_hypotheses():
    for R in (fr.Zn(5), fr.MatRing(2, 5)):
        spec = fr.LawSpec("gen-derivation", 1, 2)
        assert fr.is_semiprime(R) and fr.is_torsion_free(R, spec.torsion_product())
        for F, D in fr.solve_identity(R, spec).maps():
            assert F == D
            assert fr.verify_derivation(R, F)
            assert fr.maps_into_center(R, F)


# -- conclusion checks ---------------------------------------------------------------


def test_verify_two_sided_examples():
    Z6 = fr.Zn(6)
    assert fr.verify_two_sided(Z6, fr.AddMap.identity(Z6))
    assert all_pairs_two_sided(Z6, fr.AddMap.identity(Z6))
    M5 = fr.MatRing(2, 5)
    assert fr.verify_two_sided(M5, fr.AddMap.scalar(M5, 2))
    not_two_sided = fr.AddMap(M5, np.diag([1, 1, 0, 0]))
    assert not fr.verify_two_sided(M5, not_two_sided)


def test_inner_derivation():
    M5 = fr.MatRing(2, 5)
    a = (0, 1, 0, 0)
    mat = np.zeros((4, 4), dtype=np.int64)
    for j in range(4):
        e = M5.basis(j)
        mat[:, j] = M5.add(M5.mul(a, e), M5.neg(M5.mul(e, a)))
    inner = fr.AddMap(M5, mat)
    assert fr.verify_derivation(M5, inner)
    assert not fr.maps_into_center(M5, inner)


def test_tensor_checks_agree_with_exhaustive_scan():
    for R in (fr.DirectProduct(fr.Zn(2), fr.Zn(3)), fr.DirectProduct(fr.Zn(2), fr.Zn(2))):
        for M in all_add_maps(R):
            assert fr.verify_two_sided(R, M) == all_pairs_two_sided(R, M)
            assert fr.verify_derivation(R, M) == all_pairs_derivation(R, M)
            assert fr.maps_into_center(R, M) == all_pairs_central(R, M)
    rng = random.Random(3)
    for R in [fr.MatRing(2, 2)] + shipped_rings():
        for _ in range(8):
            M = random_add_map(R, rng)
            assert fr.verify_two_sided(R, M) == all_pairs_two_sided(R, M), R.name
            assert fr.verify_derivation(R, M) == all_pairs_derivation(R, M), R.name
            assert fr.maps_into_center(R, M) == all_pairs_central(R, M), R.name
    # maps into the scalars, the center of Mat2, and each with one entry
    # moved, which puts a non-scalar value in its image
    for p in (2, 3):
        R = fr.MatRing(2, p)
        scalar = np.array([1, 0, 0, 1], dtype=np.int64)
        for _ in range(8):
            M = np.outer(scalar, [rng.randrange(p) for _ in range(4)])
            assert fr.maps_into_center(R, fr.AddMap(R, M))
            assert all_pairs_central(R, fr.AddMap(R, M))
            M[rng.randrange(4), rng.randrange(4)] += 1
            assert not fr.maps_into_center(R, fr.AddMap(R, M))
            assert not all_pairs_central(R, fr.AddMap(R, M))


# -- lemma cross-check ----------------------------------------------------------------


def test_lemma_holds_for_z5_solutions():
    Z5 = fr.Zn(5)
    spec = fr.LawSpec("centralizer", 1, 1)
    T = fr.AddMap(Z5, [[2]])
    assert fr.cross_check_lemma(Z5, spec, T)
    assert fr.cross_check_lemma(Z5, spec, fr.AddMap.zero(Z5))


def test_lemma_precondition_rejects_non_solutions():
    Z5 = fr.Zn(5)
    one, zero = fr.AddMap.identity(Z5), fr.AddMap.zero(Z5)
    with pytest.raises(ValueError, match="do not satisfy the defining law"):
        fr.cross_check_lemma(Z5, fr.LawSpec("derivation", 1, 2), one)
    with pytest.raises(ValueError, match="do not satisfy the defining law"):
        fr.cross_check_lemma(Z5, fr.LawSpec("gen-derivation", 1, 2), (one, zero))
    with pytest.raises(ValueError, match="arity"):
        fr.cross_check_lemma(Z5, fr.LawSpec("centralizer", 1, 1), (one, one))
    with pytest.raises(ValueError, match="arity"):
        fr.cross_check_lemma(Z5, fr.LawSpec("gen-centralizer", 1, 1), one)


def test_lemma_gen_derivation_on_small_matrix_ring():
    R = fr.MatRing(2, 3)
    spec = fr.LawSpec("gen-derivation", 1, 2)
    sols = fr.solve_identity(R, spec)
    for pair in sols.maps():
        assert fr.cross_check_lemma(R, spec, pair)


# -- pair evaluation ------------------------------------------------------------------


def test_first_violation_reaches_every_polarization_point():
    # y^2 - y vanishes at y = 0 and y = e1 on Z4 and first fails at y = 2*e1
    Z4 = fr.Zn(4)
    assert fr.PairEvaluator(Z4).first_violation(parse_poly("x*y^2 - x*y"), {}, 1, 1) == (
        (1,), (2,))
    # with T swapping the two factors, e_i * T(e_i) = 0, so the only bad y
    # is e1 + e2
    R = fr.DirectProduct(fr.Zn(2), fr.Zn(2))
    T = fr.AddMap(R, [[0, 1], [1, 0]])
    assert fr.PairEvaluator(R).first_violation(parse_poly("x*y*T[y]"), {"T": T}, 1, 1) == (
        (0, 1), (1, 1))


def test_first_violation_reaches_every_x_point():
    # x^2 - x vanishes at x = 0 and x = e1 on Z4 and first fails at x = 2*e1
    Z4 = fr.Zn(4)
    assert fr.PairEvaluator(Z4).first_violation(parse_poly("x*x*y - x*y"), {}, 1, 1) == (
        (2,), (1,))
    # with T swapping the two factors, e_i * T(e_i) = 0, so the only bad x
    # is e1 + e2
    R = fr.DirectProduct(fr.Zn(2), fr.Zn(2))
    T = fr.AddMap(R, [[0, 1], [1, 0]])
    assert fr.PairEvaluator(R).first_violation(parse_poly("x*T[x]*y"), {"T": T}, 1, 1) == (
        (1, 1), (0, 1))


def test_first_violation_reduces_each_coefficient_per_modulus():
    # m*T[x]*y + y*T[x] = (m + 1)*T[x]*y on a commutative ring; m = lcm - 1
    # times a residue near 10^9 wraps int64 unless m is reduced per modulus
    p, q = 1_000_000_007, 998_244_353
    R = fr.DirectProduct(fr.Zn(p), fr.Zn(q))
    T = fr.AddMap(R, [[p - 2, 0], [0, q - 2]])
    ev = fr.PairEvaluator(R)
    poly = parse_poly("m*T[x]*y + y*T[x]")
    assert ev.first_violation(poly, {"T": T}, p * q - 1, 1) is None
    assert ev.first_violation(poly, {"T": T}, p * q - 2, 1) == ((0, 1), (0, 1))


def _at_the_guard(k):
    """The largest modulus d with 3k(d - 1)^2 < 2^63."""
    return math.isqrt((2**63 - 1) // (3 * k)) + 1


def test_first_violation_reduces_before_an_int64_sum_could_overflow():
    """Sums of many terms whose entries sit near sqrt(2^63 / 3k): each
    reduction of the total and of a product must come in time.  The answer
    must be the first pair of Px x Py where an exact evaluation in Python
    ints is nonzero."""
    d1, d2, d3 = _at_the_guard(1), _at_the_guard(2), _at_the_guard(3)
    rings = [fr.Zn(d1), fr.DirectProduct(fr.Zn(d2), fr.Zn(d2 - 2)), upper_triangular(d3),
             fr.Zn(2**20 + 7)]  # the last one skips some product reductions
    assert 3 * (d1 - 1) ** 2 < 2**63 <= 3 * d1**2
    words = ["x", "y", "x*y", "y*x", "x^2", "x*y*x", "y*x*y", "y^2*x", "x*T[y]", "T[x*y]*x",
             "T[x]*y^2", "y*T[y*x]*x"]
    rng = random.Random(19)
    for R in rings:
        ev = fr.PairEvaluator(R)
        top = max(R.moduli) - 1
        c = top - 1
        # with T = c * id this vanishes on every ring, term by term, but
        # every coefficient and value is near the top of its modulus
        vanishing = " + ".join(f"(n-{i})*T[{w}] - (n-{i})*m*{w}" for i, w in enumerate(words))
        assert len(vanishing.split(" + ")) * 2 > 3 * R.k
        for text in (vanishing, vanishing + f" + {top}*x*y*x", vanishing + " - n*y^2*x"):
            poly = parse_poly(text)
            for T in (fr.AddMap.scalar(R, c), random_add_map(R, rng)):
                m, n = c, top - rng.randrange(3)
                xs, ys = (ev._points(max(word_gen_degree(w, g) for w in poly.terms)) for g in "xy")
                want = next(((tuple(map(int, x)), tuple(map(int, y)))
                             for x in xs for y in ys
                             if any(exact_value(R, poly, {"T": T}, m, n, tuple(map(int, x)),
                                                tuple(map(int, y))))), None)
                assert ev.first_violation(poly, {"T": T}, m, n) == want, (R.name, text)
                if text == vanishing and T.matrix[0, 0] == c:
                    assert want is None


def test_first_violation_binds_only_the_terms_it_evaluates():
    ev = fr.PairEvaluator(fr.Zn(3))
    with pytest.raises(ValueError, match="^no concrete map bound to T$"):
        ev.first_violation(parse_poly("x*T[y]"), {}, 1, 1)
    # 3 == 0 in Z3: the term is skipped, and x*y - y*x vanishes
    assert ev.first_violation(parse_poly("3*x*T[y] + x*y - y*x"), {}, 1, 1) is None
    ev = fr.PairEvaluator(fr.DirectProduct(fr.Zn(2), fr.Zn(3)))
    assert ev.first_violation(parse_poly("(m+5)*x*T[y]"), {}, 1, 1) is None
    with pytest.raises(ValueError, match="^no concrete map bound to T$"):
        ev.first_violation(parse_poly("2*x*T[y]"), {}, 1, 1)


# -- theorem reports -------------------------------------------------------------------


def test_counts_match_the_enumerating_oracle():
    # solution and violation counts come from two group orders; the oracle
    # enumerates every solution and checks the conclusion map by map
    rings = [fr.Zn(n) for n in range(2, 13)]
    rings += [fr.DirectProduct(fr.Zn(a), fr.Zn(b)) for a in range(2, 7) for b in range(a, 7)]
    rings += [fr.MatRing(2, p) for p in (2, 3, 5)] + shipped_rings()
    rings += [fr.DirectProduct(fr.Zn(8), fr.Zn(4)), fr.DirectProduct(fr.Zn(9), fr.Zn(3))]
    cases = [(R, law, m, n) for R in rings for law in fr.LAWS
             for m, n in [(1, 2), (2, 1), (2, 3), (3, 2)]]
    # 3 | m - n: inner derivations of Mat2(Z3) solve the derivation laws, so
    # "values not central" is the reason there
    cases += [(fr.MatRing(2, 3), law, 1, 4) for law in ("derivation", "gen-derivation")]
    compared = 0
    for R, law, m, n in cases:
        spec = fr.LawSpec(law, m, n)
        solutions = enumerated_solutions(R, spec)
        if solutions is None:
            continue
        report = fr.check_theorem(R, spec)
        bad = per_map_violations(R, spec, solutions)
        case = (R.name, law, m, n)
        assert report.solution_count == len(solutions), case
        assert report.violation_count == len(bad), case
        holds = "conclusion-verified" if report.applicable else (
            "hypotheses-not-met; conclusion holds anyway")
        fails = "COUNTEREXAMPLE" if report.applicable else (
            "hypotheses-not-met; conclusion fails")
        assert report.verdict == (fails if bad else holds), case
        # the example is a solution that breaks the conclusion, for
        # the reason the per-map check gives
        assert len(report.violations) == min(1, len(bad)), case
        for example in report.violations:
            flat = [v for row in example["map"] for v in row]
            if spec.pair:
                flat += [v for row in example.get("base", example["map"]) for v in row]
            assert tuple(flat) in set(solutions), case
            assert per_map_violations(R, spec, [flat])[0][2] == example["reason"], case
        compared += 1
    assert compared == len(cases)


def test_check_theorem_examples():
    rep = fr.check_theorem(fr.MatRing(2, 7), fr.LawSpec("gen-centralizer", 1, 2))
    assert rep.applicable and rep.verdict == "conclusion-verified"
    rep = fr.check_theorem(fr.Zn(4), fr.LawSpec("gen-centralizer", 1, 1))
    assert rep.hypotheses["semiprime"] is False
    assert not rep.applicable
    rep = fr.check_theorem(fr.MatRing(2, 5), fr.LawSpec("derivation", 1, 2))
    assert rep.verdict == "conclusion-verified"
    assert rep.solution_count == 1  # only the zero map


def test_mat5_z2_is_decided_within_300_mb():
    # k = 25: the dense k^3 x k^2 product operators once put the traced
    # peak at 547 MB; the separability system now sets it, at 245 MB
    tracemalloc.start()
    try:
        report = fr.check_theorem(fr.MatRing(5, 2), fr.LawSpec("centralizer", 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 10**6
    assert report.solution_count == 33_554_432
    assert report.violation_count == 33_554_430
    assert report.verdict == "hypotheses-not-met; conclusion fails"


def test_check_theorem_rejects_equal_weights_for_derivations():
    with pytest.raises(ValueError):
        fr.check_theorem(fr.Zn(5), fr.LawSpec("derivation", 2, 2))


def test_search_family():
    rows = fr.search_family(fr.family_zn(12), fr.LawSpec("gen-centralizer", 1, 1))
    assert len(rows) == 11
    rows = fr.search_family(fr.family_mat2([3, 5, 7]), fr.LawSpec("gen-centralizer", 1, 2))
    flagged = [r for r in rows if not r.hypotheses["torsion_free"]]
    assert [r.ring for r in flagged] == ["Mat2(Z3)", "Mat2(Z5)"]
    assert fr.search_family([], fr.LawSpec("centralizer", 1, 1)) == []
