import itertools
import math
import random

import numpy as np
import pytest

from mnjordan import finring as fr
from mnjordan import intsolve
from mnjordan.laws import TABLE
from tests.util import (check_dict_form, check_sparse_form, dense_kernel_mod, densify,
                        eager_gf_nullspace, euclid_kernel_mod, numpy_kernel)


def check_row_form(rows, modulus):
    """A system in one of the two sparse row formats, with its invariant."""
    assert isinstance(rows, (intsolve.SparseRows, intsolve.DictRows)), type(rows)
    if isinstance(rows, intsolve.DictRows):
        check_dict_form(rows, modulus)
    else:
        check_sparse_form(rows)


def brute_kernel(rows, modulus, n_cols):
    out = set()
    for u in itertools.product(range(modulus), repeat=n_cols):
        if all(sum(c * v for c, v in zip(row, u)) % modulus == 0 for row in rows):
            out.add(u)
    return out


def test_factorize():
    assert intsolve.factorize(1) == {}
    assert intsolve.factorize(12) == {2: 2, 3: 1}
    assert intsolve.factorize(97) == {97: 1}


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_gf_nullspace_matches_brute_force(q):
    rng = random.Random(q)
    for _ in range(20):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
        rows = np.array(
            [[rng.randrange(q) for _ in range(n_cols)] for _ in range(n_rows)],
            dtype=np.int64,
        )
        basis = intsolve.gf_nullspace(rows, q)
        spanned = set()
        dim = basis.shape[0]
        for coeffs in itertools.product(range(q), repeat=dim):
            v = np.zeros(n_cols, dtype=np.int64)
            for c, b in zip(coeffs, basis):
                v = (v + c * b) % q
            spanned.add(tuple(int(x) for x in v))
        assert spanned == brute_kernel(rows.tolist(), q, n_cols)


def test_gf_nullspace_empty_rows():
    basis = intsolve.gf_nullspace(np.zeros((0, 3), dtype=np.int64), 5)
    assert basis.shape == (3, 3)


# the largest prime q with 3(q-1)^2 < 2^63, the widest modulus FinRing admits;
# (q-1)^2 passes 2^61, so a full reduction follows every pivot
WIDEST_PRIME = 1753413037


def _random_system(rng, q):
    """A random system of up to 120 x 40 entries in one of five shapes:
    uniform, low rank, repeated rows, zero rows and columns, or wide; or,
    as a sixth shape, a sparse system (``_sparse_system``)."""
    n_rows, n_cols = int(rng.integers(0, 121)), int(rng.integers(0, 41))
    shape = rng.integers(6)
    if shape == 4:
        n_rows = n_cols // 3
    A = rng.integers(0, q, size=(n_rows, n_cols), dtype=np.int64)
    if shape == 1 and n_cols:
        rank = int(rng.integers(1, min(n_rows, n_cols) + 1)) if n_rows else 0
        A = A[:, :rank] % 5 @ rng.integers(0, 5, size=(rank, n_cols)) % q
    elif shape == 2 and n_rows:
        A = A[rng.integers(0, max(1, n_rows // 4), size=n_rows)]
    elif shape == 3:
        A[rng.random(n_rows) < 0.4] = 0
        A[:, rng.random(n_cols) < 0.2] = 0
    elif shape == 5:
        A = _sparse_system(rng, q)
    if rng.random() < 0.3:
        A = A - q * rng.integers(-3, 4, size=A.shape)  # any representatives
    return A


def _sparse_system(rng, q):
    """Up to 300 x 80 entries at a density of at most 1% mod q, the shape of
    the law and separability systems: at least half of the rows hold a
    single entry, some rows repeat, a fifth of the columns are zero, and
    the other rows hold 2 to 4 entries."""
    n_rows, n_cols = int(rng.integers(8, 301)), int(rng.integers(70, 81))
    live = rng.permutation(n_cols)[: n_cols * 4 // 5]
    A = np.zeros((n_rows, n_cols), dtype=np.int64)
    half = (n_rows + 1) // 2
    A[np.arange(half), rng.choice(live, half)] = rng.integers(1, q, half)
    A[1:half:4] = A[0:half:4][: len(range(1, half, 4))]  # repeated single entries
    budget = n_rows * n_cols // 100 - half  # 70 columns make this >= 0
    for r in range(half, n_rows):
        if r > half and rng.random() < 0.2 and np.count_nonzero(A[r - 1]) <= budget:
            A[r] = A[r - 1]  # a repeated longer row
        elif budget >= 2:
            k = int(rng.integers(2, min(4, budget) + 1))
            A[r, rng.choice(live, k, replace=False)] = rng.integers(1, q, k)
        budget -= np.count_nonzero(A[r])
    return A[rng.permutation(n_rows)]


def test_widest_prime_is_the_largest_prime_finring_admits():
    widest = math.isqrt((2**63 - 1) // 3) + 1  # the largest q with 3(q-1)^2 < 2^63
    assert 3 * (widest - 1) ** 2 < 2**63 <= 3 * widest**2
    primes = [c for c in range(WIDEST_PRIME, widest + 1) if intsolve.factorize(c) == {c: 1}]
    assert primes == [WIDEST_PRIME]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 101, WIDEST_PRIME])
def test_gf_nullspace_matches_the_eager_oracle(q):
    rng = np.random.default_rng(q)
    for _ in range(60):
        A = _random_system(rng, q)
        before = A.copy()
        basis = intsolve.gf_nullspace(A, q)
        assert np.array_equal(A, before)
        expected = eager_gf_nullspace(A, q)
        assert basis.dtype == np.int64 and np.array_equal(basis, expected), A.shape


def test_sparse_systems_are_sparse():
    rng = np.random.default_rng(0)
    for q in (2, 3, 7, WIDEST_PRIME):
        for _ in range(20):
            A = _sparse_system(rng, q)
            entries = np.count_nonzero(A, axis=1)
            assert A.shape[0] <= 300 and A.shape[1] <= 80
            assert np.count_nonzero(A) <= A.size // 100
            assert 2 * np.count_nonzero(entries == 1) >= A.shape[0]
            assert len(np.unique(A, axis=0)) < A.shape[0]
            assert not A.any(axis=0).all()


@pytest.mark.parametrize("q", [2, 3, 7, WIDEST_PRIME])
def test_gf_nullspace_ignores_row_order_and_repeated_rows(q):
    """The basis is read off the RREF, which is unique, so the order in
    which the elimination meets the rows, and so its pivot rows, cannot
    change it."""
    rng = np.random.default_rng(100 + q)
    for _ in range(40):
        A = _sparse_system(rng, q) if rng.random() < 0.5 else _random_system(rng, q)
        basis = intsolve.gf_nullspace(A, q)
        shuffled = A[rng.permutation(A.shape[0])]
        assert np.array_equal(intsolve.gf_nullspace(shuffled, q), basis)
        if A.shape[0]:
            repeated = np.vstack([A, A[rng.integers(0, A.shape[0], size=A.shape[0])]])
            assert np.array_equal(intsolve.gf_nullspace(repeated[::-1], q), basis)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 101, WIDEST_PRIME])
def test_gf_nullspace_is_kernel_mod_at_a_prime(q):
    """One elimination behind both: at a prime, kernel_mod's generators are
    the basis vectors, in order, each of order q."""
    rng = np.random.default_rng(200 + q)
    for _ in range(60):
        A = _random_system(rng, q)
        gens = intsolve.kernel_mod(A, q, A.shape[1])
        assert all(order == q for _, order in gens)
        vectors = np.array([vec for vec, _ in gens], dtype=np.int64).reshape(len(gens), A.shape[1])
        assert np.array_equal(intsolve.gf_nullspace(A, q), vectors), A.shape


def test_gf_nullspace_refuses_a_modulus_too_wide_for_int64():
    with pytest.raises(OverflowError):
        intsolve.gf_nullspace(np.ones((2, 2), dtype=np.int64), 2**31 + 11)


def _record_gf_nullspace(monkeypatch):
    """Route intsolve.gf_nullspace through a recorder; returns the list of
    (rows, q, basis) it fills, each system densified."""
    calls = []
    solve = intsolve.gf_nullspace

    def recording(rows, q):
        # the benchmark's tracer reads rows.shape[0], the live rows handed
        # over, so every caller passes its system in a sparse row format:
        # kernel one prime's part as DictRows, _is_separable a SparseRows
        check_row_form(rows, q)
        before = densify(rows)
        basis = solve(rows, q)
        assert np.array_equal(densify(rows), before)  # the system is not modified
        calls.append((before, q, basis))
        return basis

    monkeypatch.setattr(intsolve, "gf_nullspace", recording)
    return calls


@pytest.mark.parametrize(
    "ring",
    [fr.MatRing(2, p) for p in (3, 5, 7, 11, 13)]
    + [fr.DirectProduct(fr.Zn(5), fr.MatRing(2, 7))],
    ids=lambda R: R.name,
)
def test_gf_nullspace_matches_the_oracle_on_every_theorem_system(monkeypatch, ring):
    """Every system check_theorem solves, hypothesis scans included."""
    calls = _record_gf_nullspace(monkeypatch)
    for law in TABLE:
        for m, n in [(1, 2), (2, 1), (2, 3)]:
            fr.check_theorem(ring, fr.LawSpec(law, m, n))
    assert calls
    for rows, q, basis in calls:
        assert np.array_equal(basis, eager_gf_nullspace(rows, q))


def test_gf_nullspace_on_the_large_theorem_systems(monkeypatch):
    """Mat3(Z7) gen-derivation and Mat4(Z3) gen-centralizer at (1, 2).  The
    2860 x 512 law system of Mat4(Z3) takes the oracle several seconds, so it
    is checked directly: its basis solves it, is the identity on the free
    columns, and has the 17 vectors the dense kernel gave."""
    calls = _record_gf_nullspace(monkeypatch)
    fr.check_theorem(fr.MatRing(3, 7), fr.LawSpec("gen-derivation", 1, 2))
    fr.check_theorem(fr.MatRing(4, 3), fr.LawSpec("gen-centralizer", 1, 2))
    shapes = [rows.shape for rows, _, _ in calls]
    assert shapes == [(900, 91), (738, 162), (4624, 273), (2860, 512), (960, 17)]
    for rows, q, basis in calls:
        if rows.shape != (2860, 512):
            assert np.array_equal(basis, eager_gf_nullspace(rows, q)), rows.shape
            continue
        assert basis.shape == (17, 512) and basis.dtype == np.int64
        assert not (rows @ basis.T % q).any()
        free = [int(np.flatnonzero(b)[-1]) for b in basis]  # 1 at its free column
        assert free == sorted(set(free))
        assert np.array_equal(basis[:, free], np.eye(17, dtype=np.int64))


@pytest.mark.parametrize("modulus", [4, 8, 9, 27])
def test_kernel_mod_matches_brute_force(modulus):
    rng = random.Random(modulus)
    for _ in range(15):
        n_rows, n_cols = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randrange(modulus) for _ in range(n_cols)] for _ in range(n_rows)]
        gens = intsolve.kernel_mod(rows, modulus, n_cols)
        elems = set(intsolve.enumerate_group(gens, modulus, n_cols, 10**6))
        assert elems == brute_kernel(rows, modulus, n_cols), (rows, modulus)


@pytest.mark.parametrize("modulus", [1, 6, 12, 100])
def test_kernel_mod_refuses_a_modulus_that_is_not_a_prime_power(modulus):
    with pytest.raises(ValueError):
        intsolve.kernel_mod([[1, 2]], modulus, 2)


PRIME_POWERS = [4, 8, 9, 16, 25, 27, 32, 49, 81, 125]


def _random_prime_power_system(rng, modulus):
    """Up to 40 x 12 entries mod q^e: uniform, or multiples of q and q^2,
    with zero rows and zero columns mixed in."""
    (q, _), = intsolve.factorize(modulus).items()
    n_rows, n_cols = rng.randint(0, 40), rng.randint(1, 12)
    if rng.random() < 0.3:
        n_cols = rng.randint(1, 3)  # small enough to enumerate by brute force
    scales = [1, q, q * q, 0]
    A = [[rng.randrange(modulus) * rng.choice(scales) % modulus for _ in range(n_cols)]
         for _ in range(n_rows)]
    for c in range(n_cols):
        if rng.random() < 0.15:
            for row in A:
                row[c] = 0
    return [[0] * n_cols if rng.random() < 0.15 else row for row in A]


def _check_generators(rows, modulus, n_cols, gens):
    (q, _), = intsolve.factorize(modulus).items()
    for vec, order in gens:
        assert len(vec) == n_cols and order > 1 and modulus % order == 0
        assert all(sum(a * x for a, x in zip(row, vec)) % modulus == 0 for row in rows)
        assert not any(order * x % modulus for x in vec)
        assert any(order // q * x % modulus for x in vec)


@pytest.mark.parametrize("modulus", PRIME_POWERS)
def test_kernel_mod_matches_the_euclidean_oracle(modulus):
    rng = random.Random(modulus)
    for _ in range(40):
        rows = _random_prime_power_system(rng, modulus)
        n_cols = len(rows[0]) if rows else rng.randint(1, 12)
        gens = intsolve.kernel_mod(rows, modulus, n_cols)
        expected = euclid_kernel_mod(rows, modulus, n_cols)
        assert math.prod(o for _, o in gens) == math.prod(o for _, o in expected), rows
        _check_generators(rows, modulus, n_cols, gens)
        if modulus**n_cols <= 20_000:  # n_cols <= 3, or 2 for moduli above 27
            elems = intsolve.enumerate_group(gens, modulus, n_cols, 10**6)
            assert len(elems) == len(set(elems))
            assert set(elems) == brute_kernel(rows, modulus, n_cols), rows


@pytest.mark.parametrize("modulus", PRIME_POWERS)
def test_kernel_mod_matches_the_dense_oracle(modulus):
    """The sparse elimination keeps the dense one's pivot sequence, so the
    generators are the same, in the same order; rows are given with any
    representatives, and some repeat."""
    rng = random.Random(1000 + modulus)
    for _ in range(60):
        rows = _random_prime_power_system(rng, modulus)
        n_cols = len(rows[0]) if rows else rng.randint(1, 12)
        if rows and rng.random() < 0.5:
            rows += [list(rng.choice(rows)) for _ in range(rng.randint(1, 5))]
            rng.shuffle(rows)
        rows = [[a + modulus * rng.randint(-3, 3) for a in row] for row in rows]
        assert intsolve.kernel_mod(rows, modulus, n_cols) == dense_kernel_mod(rows, modulus, n_cols), rows


@pytest.mark.parametrize("ring, laws", [
    pytest.param(R, laws, id=R.name) for R, laws in
    [(fr.DirectProduct(*map(fr.Zn, mods)), TABLE)
     for mods in [(8, 4), (9, 3), (8, 8, 4), (4, 2, 2), (25, 5)]]
    + [(fr.MatRing(2, 4), TABLE), (fr.MatRing(2, 9), TABLE), (fr.MatRing(3, 4), ["centralizer"])]
])
def test_kernel_mod_matches_the_oracle_on_every_theorem_system(monkeypatch, ring, laws):
    """Every prime-power system check_theorem solves."""
    calls = []
    solve = intsolve.kernel_mod

    def recording(rows, modulus, n_cols):
        check_row_form(rows, modulus)
        gens = solve(rows, modulus, n_cols)
        calls.append((densify(rows).tolist(), modulus, n_cols, gens))
        return gens

    monkeypatch.setattr(intsolve, "kernel_mod", recording)
    for law in laws:
        for m, n in [(1, 2), (2, 1), (2, 3)]:
            fr.check_theorem(ring, fr.LawSpec(law, m, n))
    assert calls
    for rows, modulus, n_cols, gens in calls:
        expected = euclid_kernel_mod(rows, modulus, n_cols)
        assert math.prod(o for _, o in gens) == math.prod(o for _, o in expected)
        _check_generators(rows, modulus, n_cols, gens)
        assert gens == dense_kernel_mod(rows, modulus, n_cols)


def test_enumerate_group_is_duplicate_free():
    gens = intsolve.kernel_mod([[2, 0], [0, 2]], 4, 2)
    elems = intsolve.enumerate_group(gens, 4, 2, 100)
    assert len(elems) == len(set(elems))


def test_enumerate_group_limit():
    gens = [((1, 0), 10**4), ((0, 1), 10**4)]
    with pytest.raises(OverflowError):
        intsolve.enumerate_group(gens, 10**4, 2, 1000)


def test_kernel_matches_brute_force_on_mixed_moduli():
    rng = random.Random(7)
    for _ in range(60):
        col_mods = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(1, 3))]
        row_mods = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(0, 3))]
        # entry (r, s) must be a multiple of M_r / gcd(M_r, d_s) to be well defined
        rows = [[rng.randrange(0, mr, mr // math.gcd(mr, d)) for d in col_mods]
                for mr in row_mods]
        A = np.array(rows, dtype=np.int64).reshape(len(rows), len(col_mods))
        gens = intsolve.kernel(A, row_mods, col_mods)
        assert_same_generators(gens, numpy_kernel(A, row_mods, col_mods))
        elems = intsolve.enumerate_group(gens, col_mods, len(col_mods), 10**6)
        brute = {
            u for u in itertools.product(*(range(d) for d in col_mods))
            if all(sum(a * x for a, x in zip(row, u)) % mr == 0 for row, mr in zip(rows, row_mods))
        }
        assert len(elems) == len(set(elems)) == math.prod(o for _, o in gens)
        assert set(elems) == brute, (rows, row_mods, col_mods)


def assert_same_generators(gens, expected):
    """Array-identical generators, int64 and in the same order, with the
    same orders."""
    assert [order for _, order in gens] == [order for _, order in expected]
    for (vec, _), (want, _) in zip(gens, expected):
        assert vec.dtype == np.int64 and np.array_equal(vec, want), (vec, want)


def _zn_sum(*mods):
    return fr.DirectProduct(*map(fr.Zn, mods)) if len(mods) > 1 else fr.Zn(mods[0])


@pytest.mark.parametrize("ring", [
    pytest.param(R, id=R.name) for R in
    [_zn_sum(n) for n in range(2, 31)]
    + [_zn_sum(a, b) for a in range(2, 7) for b in range(a, 7)]
    + [_zn_sum(*mods) for mods in [(8, 4), (9, 3), (25, 5), (8, 8, 4), (12, 18), (4, 6, 9)]]
    + [fr.MatRing(2, p) for p in (2, 3, 4, 5, 7, 9, 11, 13)] + [fr.MatRing(3, 4)]
])
def test_kernel_matches_the_numpy_oracle_on_every_theorem_system(monkeypatch, ring):
    """Every kernel call check_theorem makes, under all four laws at four
    weights: the one pass per prime gives the generators of the former
    array set-up, in order.  Z12+Z18 and Z4+Z6+Z9 have two primes with
    e > 1 in one system."""
    calls = []
    solve = intsolve.kernel

    def recording(rows, row_mods, col_mods):
        gens = solve(rows, row_mods, col_mods)
        assert_same_generators(gens, numpy_kernel(rows, row_mods, col_mods))
        calls.append(len(gens))
        return gens

    monkeypatch.setattr(intsolve, "kernel", recording)
    for law in TABLE:
        for m, n in [(1, 2), (2, 1), (2, 3), (3, 2)]:
            fr.check_theorem(ring, fr.LawSpec(law, m, n))
    assert calls


def test_kernel_lifts_exactly_above_int64():
    """The CRT lift of a part of Z_d multiplies entries below q by factors
    below d; with d = 7 (2^31 - 1) that passes 2^63, and an int64 lift
    returned [6442450936, 12884901883], which does not solve x + y == 0."""
    d = 7 * (2**31 - 1)
    gens = intsolve.kernel([[1, 1]], [d], [d, d])
    assert [order for _, order in gens] == [7, 2**31 - 1]  # coprime: they generate Z_d
    for vec, order in gens:
        x, y = (int(a) for a in vec)
        assert vec.dtype == np.int64 and 0 < x < d and 0 < y < d
        assert (x + y) % d == 0 and x * order % d == 0


def test_kernel_refuses_a_row_that_is_not_well_defined():
    # x_0 in Z_2 times 1 is not defined modulo 4
    for solve in (intsolve.kernel, numpy_kernel):
        with pytest.raises(ValueError, match="not well defined"):
            solve(np.array([[1, 0]]), [4], [2, 4])


def test_kernel_keeps_the_width_check_of_gf_nullspace():
    q = 2**31 + 11
    with pytest.raises(OverflowError):
        intsolve.kernel(np.array([[1, 1]]), [q], [q, q])
