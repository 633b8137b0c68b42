import itertools
import math
import random

import numpy as np
import pytest

from mnjordan import intsolve


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


@pytest.mark.parametrize("modulus", [4, 8, 9, 12])
def test_kernel_mod_matches_brute_force(modulus):
    rng = random.Random(modulus)
    for _ in range(15):
        n_rows, n_cols = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randrange(modulus) for _ in range(n_cols)] for _ in range(n_rows)]
        gens = intsolve.kernel_mod(rows, modulus, n_cols)
        elems = set(intsolve.enumerate_group(gens, modulus, n_cols, 10**6))
        assert elems == brute_kernel(rows, modulus, n_cols), (rows, modulus)


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
        gens = intsolve.kernel(np.array(rows, dtype=np.int64).reshape(len(rows), len(col_mods)),
                               row_mods, col_mods)
        elems = intsolve.enumerate_group(gens, col_mods, len(col_mods), 10**6)
        brute = {
            u for u in itertools.product(*(range(d) for d in col_mods))
            if all(sum(a * x for a, x in zip(row, u)) % mr == 0 for row, mr in zip(rows, row_mods))
        }
        assert len(elems) == len(set(elems)) == math.prod(o for _, o in gens)
        assert set(elems) == brute, (rows, row_mods, col_mods)
