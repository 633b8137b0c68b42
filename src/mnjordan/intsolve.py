"""Kernels of integer linear systems over mixed-modulus abelian groups.

The functional-identity solver reduces to: find the group of u in Z_{d(0)} x
... x Z_{d(N-1)} with sum_s A[r,s] * u[s] == 0 (mod M[r]) for every row r.
``kernel`` splits the system by primes and returns independent generators
with their orders, so the group's order is the product of the orders and
nothing is enumerated.  A prime appearing to the first power everywhere is
handled by sparse Gaussian elimination over GF(q) (``gf_nullspace``); a
prime power q^e by an elimination over Z_{q^e} in Python ints
(``kernel_mod``).

Z_{q^e} is a local principal ideal ring: a nonzero entry is u * q^v with u
a unit, so an entry of least valuation v divides every other entry.
``kernel_mod`` takes such an entry as its pivot, scales its row by u^-1 and
clears its column by row operations and its row by column operations, all
exact; no Euclidean step is needed.  This is the Smith form over Z/NZ
(Storjohann, Algorithms for Matrix Canonical Forms, 2000; Cohen, GTM 138,
section 2.4).

The GF(q) elimination (``gf_nullspace``) is sparse (structured Gaussian
elimination; LaMacchia and Odlyzko, "Solving large sparse linear systems
over finite fields", CRYPTO 1990).  The systems the ring checks build are
a few percent nonzero or less, so each row is a dict {column: entry mod q}
in Python ints, and an index lists, per column, the rows with a nonzero
there.  Columns are taken left to right.  The pivot for column c is the
shortest unused row holding c (ties to the lowest row index), and it is
subtracted from exactly the rows listed under c, earlier pivot rows
included, so the result is the full reduced row echelon form.  Which row
is the pivot changes only the fill-in: the RREF of a matrix is unique and
its pivot columns are still found left to right, so the basis does not
depend on that choice, nor on the order of the rows or on repeated rows.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple, Union

import numpy as np


def factorize(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def gf_nullspace(rows: np.ndarray, q: int) -> np.ndarray:
    """Basis of {u : rows @ u == 0 mod q} for prime q; shape (dim, N).

    Basis vector i is 1 at the i-th free column f of the reduced row echelon
    form, 0 at the other free columns, and -RREF[j, f] mod q at the pivot
    column of RREF row j.  The RREF is unique, so the basis depends neither
    on the order of the rows, nor on repeated rows, nor on the pivot rows
    the sparse elimination picks (see the module docstring).  ``rows`` is
    not modified.
    """
    # The elimination is exact in Python ints, but the basis is returned as
    # int64 and ``kernel`` multiplies it by CRT factors in int64.
    if (q - 1) * q > 2**62:
        raise OverflowError(f"modulus {q} is too wide for int64 elimination")
    A = np.asarray(rows, dtype=np.int64)
    n_cols = A.shape[1]
    if A.size == 0:
        return np.eye(n_cols, dtype=np.int64)
    R: Dict[int, Dict[int, int]] = {}  # row index -> {column: entry}
    holders: List[Set[int]] = [set() for _ in range(n_cols)]
    nz_rows, nz_cols = A.nonzero()
    for i, c, a in zip(nz_rows.tolist(), nz_cols.tolist(),
                       (A[nz_rows, nz_cols] % q).tolist()):
        if a:
            R.setdefault(i, {})[c] = a
            holders[c].add(i)
    pivots: Dict[int, int] = {}  # pivot column -> its row index
    used: Set[int] = set()
    for c in range(n_cols):
        rows_at_c = holders[c]
        unused = [i for i in rows_at_c if i not in used]
        if not unused:
            continue
        p = min(unused, key=lambda i: (len(R[i]), i)) if len(unused) > 1 else unused[0]
        used.add(p)
        pivots[c] = p
        row = R[p]
        inv = pow(row.pop(c), q - 2, q)
        if inv != 1:
            for j in row:
                row[j] = row[j] * inv % q
        rest = list(row.items())  # the pivot row off column c
        row[c] = 1
        holders[c] = {p}
        for i in rows_at_c:
            if i == p:
                continue
            target = R[i]
            f = target.pop(c)
            for j, b in rest:
                a = (target.get(j, 0) - f * b) % q
                if a:
                    target[j] = a
                    holders[j].add(i)
                else:  # j was in target, since f * b != 0 mod q
                    del target[j]
                    holders[j].discard(i)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    index = {f: b for b, f in enumerate(free)}
    at = [(index[f], c, q - a) for c, p in pivots.items()
          for f, a in R[p].items() if f != c]
    if at:
        b, c, a = zip(*at)
        basis[b, c] = a
    return basis


def kernel_mod(rows: Sequence[Sequence[int]], modulus: int, n_cols: int
               ) -> List[Tuple[List[int], int]]:
    """Generators of {u in Z_M^n : rows @ u == 0 mod M} for a prime power
    M = q^e; any other modulus raises ``ValueError``.

    Returns independent generators as (vector, order) pairs; every kernel
    element is a unique combination sum c_g * g with 0 <= c_g < order_g.
    The elimination (see the module docstring) brings the rows to
    U * rows * V = diag(q^v_i) with U and V invertible mod M, so u = V x is
    in the kernel exactly when q^v_i * x_i == 0: column i of V times
    q^(e - v_i) generates a part of order q^v_i, and a column that never
    holds a pivot has v_i = e.
    """
    factors = factorize(modulus)
    if len(factors) != 1:
        raise ValueError(f"modulus {modulus} is not a prime power")
    (q, e), = factors.items()
    A = [[int(a) % modulus for a in row] for row in rows]
    # V[c]: the column of V for the c-th column of A that has no pivot yet
    V = [[int(i == c) for i in range(n_cols)] for c in range(n_cols)]
    gens: List[Tuple[List[int], int]] = []
    while True:
        A = [row for row in A if any(row)]
        if not A:
            break
        # the first entry that q^(v+1) does not divide, for the least such v
        v, i, j = next((v, i, j) for v in range(e) for i, row in enumerate(A)
                       for j, a in enumerate(row) if a % q ** (v + 1))
        d = q**v  # divides every entry of A, before and after this step
        pivot = A.pop(i)
        inv = pow(pivot[j] // d, -1, modulus)
        pivot = [a * inv % modulus for a in pivot]  # now pivot[j] == d
        for r, row in enumerate(A):  # clear column j by row operations
            f = row[j] // d
            if f:
                A[r] = [(a - f * b) % modulus for a, b in zip(row, pivot)]
            del A[r][j]
        del pivot[j]
        col = V.pop(j)
        for c, a in enumerate(pivot):  # clear the pivot row by column operations
            f = a // d
            if f:
                V[c] = [(x - f * y) % modulus for x, y in zip(V[c], col)]
        if v:
            gens.append(([x * q ** (e - v) % modulus for x in col], q**v))
    return gens + [(vec, modulus) for vec in V]


def enumerate_group(gens: Sequence[Tuple[Sequence[int], int]],
                    modulus: Union[int, Sequence[int]], n_cols: int,
                    limit: int) -> List[Tuple[int, ...]]:
    """All elements generated by independent (vector, order) pairs.

    ``modulus`` is one modulus for every coordinate, or one per coordinate.
    """
    total = math.prod(order for _, order in gens)
    if total > limit:
        raise OverflowError(f"kernel has {total} elements, above the limit {limit}")
    mods = np.broadcast_to(np.asarray(modulus, dtype=np.int64), (n_cols,))
    elems = np.zeros((1, n_cols), dtype=np.int64)
    for vec, order in gens:
        steps = np.arange(order, dtype=np.int64)[:, None] * np.asarray(vec, dtype=np.int64) % mods
        elems = ((elems[:, None, :] + steps[None, :, :]) % mods).reshape(-1, n_cols)
    return [tuple(int(v) for v in row) for row in elems]


def _valuation(n: int, q: int) -> int:
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def kernel(rows, row_mods: Sequence[int], col_mods: Sequence[int]
           ) -> List[Tuple[np.ndarray, int]]:
    """Independent generators of {u in prod_s Z_{col_mods[s]} : rows @ u ==
    0 mod row_mods[r] for every r}, as (vector, order) pairs.

    Every kernel element is a unique combination sum c_g * g with 0 <= c_g <
    order_g, so the kernel has prod(order_g) elements.  Each row must be well
    defined on the group: rows[r, s] * col_mods[s] == 0 mod row_mods[r].

    The group is the direct sum of its q-parts.  On the q-part, coordinate s
    is Z_{q^v_s} and row r is an equation modulo q^w_r; with e the largest
    exponent it is solved over Z_{q^e}, where Z_{q^v} embeds as
    q^{e-v} Z_{q^e}: u_s = q^{e-v_s} x_s turns row r into the row
    rows[r, s] * q^{v_s - w_r} modulo q^e, and the relations q^v_s * u_s ==
    0 cut the embedded subgroup out.  The generators are then lifted back
    by the Chinese remainder theorem.
    """
    rows = np.asarray(rows, dtype=np.int64)
    row_mods = np.asarray(row_mods, dtype=np.int64)
    col_mods = [int(d) for d in col_mods]
    distinct = sorted(set(row_mods.tolist()))  # a few values: ring moduli
    row_at = np.searchsorted(distinct, row_mods)
    primes = sorted({q for d in set(col_mods) for q in factorize(d)})
    gens: List[Tuple[np.ndarray, int]] = []
    for q in primes:
        cols = [s for s, d in enumerate(col_mods) if d % q == 0]
        v = [_valuation(col_mods[s], q) for s in cols]
        w = np.array([_valuation(d, q) for d in distinct], dtype=np.int64)[row_at]
        keep = np.flatnonzero(w)
        w = w[keep]
        # the q-part, selected in two plain steps, each skipped when it
        # keeps everything: on a large system a copy costs as much as the
        # reduction, and ``%`` makes the one copy ``sub`` needs
        sub = rows if len(keep) == len(rows) else rows[keep]
        if len(cols) < len(col_mods):
            sub = sub[:, cols]
        sub = sub % (q**w)[:, None]
        live = (sub != 0).any(axis=1)  # rows that vanish on the q-part go
        sub, w = sub[live], w[live]
        e = max(v + w.tolist())
        if e == 1:
            local = gf_nullspace(sub, q)
            orders = [q] * len(local)
        else:
            pairs = _prime_power_kernel(sub, w.tolist(), v, q, e)
            local = np.array([vec for vec, _ in pairs], dtype=np.int64).reshape(-1, len(cols))
            orders = [order for _, order in pairs]
        # CRT: the q-part of Z_d is (d / q^v) Z_d, and x maps to x * lam
        # with lam == 1 mod q^v and lam == 0 mod d / q^v
        lam = np.array([(col_mods[s] // q**vs) * pow(col_mods[s] // q**vs, -1, q**vs)
                        for s, vs in zip(cols, v)], dtype=np.int64)
        mods = np.array([col_mods[s] for s in cols], dtype=np.int64)
        full = np.zeros((len(orders), len(col_mods)), dtype=np.int64)
        full[:, cols] = local * lam % mods
        gens.extend(zip(full, orders))
    return gens


def _prime_power_kernel(sub: np.ndarray, w: List[int], v: List[int], q: int, e: int
                        ) -> List[Tuple[List[int], int]]:
    """kernel() on the q-part: coordinates Z_{q^v_s}, rows (reduced, none
    zero) modulo q^w_r."""
    M = q**e
    scaled = []
    for row, wr in zip(sub.tolist(), w):
        out = []
        for a, vs in zip(row, v):
            num = a * q**vs
            if num % q**wr:
                raise ValueError("a row is not well defined on the coordinate group")
            out.append(num // q**wr % M)
        scaled.append(out)
    n = len(v)
    scaled += [[q**vs if j == s else 0 for j in range(n)] for s, vs in enumerate(v) if vs < e]
    return [([u // q ** (e - vs) for u, vs in zip(vec, v)], order)
            for vec, order in kernel_mod(scaled, M, n)]
