"""Kernels of integer linear systems over mixed-modulus abelian groups.

The functional-identity solver reduces to: find the group of u in Z_{d(0)} x
... x Z_{d(N-1)} with sum_s A[r,s] * u[s] == 0 (mod M[r]) for every row r.
``kernel`` splits the system by primes and returns independent generators
with their orders, so the group's order is the product of the orders and
nothing is enumerated.  Each prime's part is a system over Z_{q^e}, and one
sparse elimination (``_smith_kernel``) solves it for every e: a prime that
appears to the first power everywhere enters it through ``gf_nullspace``,
a prime power through ``kernel_mod``.

Z_{q^e} is a local principal ideal ring: a nonzero entry is u * q^v with u
a unit, so an entry of least valuation v divides every other entry.  The
elimination takes such an entry as its pivot: the least valuation v, then
the first live row, in the original order, that holds an entry of
valuation v, then that row's first such column.  It scales the pivot row
by u^-1, clears the pivot column by row operations and the pivot row by
column operations on V, all exact; no Euclidean step is needed.  This is
the Smith form over Z/NZ (Storjohann, Algorithms for Matrix Canonical
Forms, 2000; Cohen, GTM 138, section 2.4).  Row operations only ever
subtract multiples of q^v from multiples of q^v, so the least valuation
never falls and no row without an entry of valuation v ever gains one:
one pass over the rows per valuation finds every pivot.

The elimination is sparse (structured Gaussian elimination; LaMacchia and
Odlyzko, "Solving large sparse linear systems over finite fields", CRYPTO
1990).  The systems the ring checks build are a few percent nonzero or
less, so each row is a dict {column: entry mod q^e} in Python ints, an
index lists, per column, the rows with a nonzero there, and each column of
V is a dict too.  A pivot is subtracted from exactly the rows listed under
its column.

A system travels in one format from the builder that writes it to the
elimination, ``SparseRows``: its shape and its nonzero entries as
(row, column, value) in three int64 arrays, row by row in ascending order,
each cell at most once.  ``kernel`` selects and reduces each prime's part
on those entries, and the elimination reads them as they are.  A dense
system, one that is dense by nature or a test's, enters through
``SparseRows.from_dense``; ``gf_nullspace``, ``kernel_mod`` and ``kernel``
call it on their input, so each takes either form.

For e = 1 the result is the basis read off the reduced row echelon form,
vector for vector.  Every entry has valuation 0, so the pivot is the
leftmost entry of the first live row.  The column operations never touch a
column to the left of the pivot, because the pivot row is 0 there, so V is
unit upper triangular.  The elimination ends at U A V = D with U invertible
and D holding one 1 per pivot column, each in its own row, and zeros
elsewhere.  So the first c columns of A have the rank of the first c
columns of D, the number of pivot columns among them, and the pivot
columns are the RREF's: the columns not in the span of the columns to
their left.  V's column for a free column f is a kernel vector that is 1 at
f and 0 at every other free column (it is e_f plus multiples of earlier
pivot columns' vectors, each of which is its own column plus pivot
columns).  The pivot columns are independent, so that kernel vector is
unique, and it is the RREF basis vector.  The basis therefore depends
neither on the order of the rows nor on repeated rows.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple, Union

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


class SparseRows(NamedTuple):
    """A system of linear rows by its nonzero entries: ``shape`` is (rows,
    columns), and entry i is ``vals[i]`` at (``rows[i]``, ``cols[i]``), three
    int64 arrays, row by row in ascending order and each cell at most once.
    Every system a ring check builds travels in this form from its builder
    to the elimination."""

    shape: Tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_dense(cls, A, n_cols: int) -> "SparseRows":
        """The nonzero entries of a dense system: an array, or a sequence
        of rows of n_cols integers each, that fits int64.  A SparseRows is
        returned as it is."""
        if isinstance(A, cls):
            return A
        A = np.asarray(A, dtype=np.int64).reshape(len(A), n_cols)
        return cls(A.shape, *(at := A.nonzero()), A[at])

    def above(self, other: "SparseRows") -> "SparseRows":
        """These rows, then the rows of ``other``: a row offset, no copy of
        a dense system."""
        return SparseRows((self.shape[0] + other.shape[0], self.shape[1]), *map(
            np.concatenate, zip(self[1:], other._replace(rows=self.shape[0] + other.rows)[1:])))


def _smith_kernel(A: SparseRows, q: int, e: int) -> List[Tuple[Dict[int, int], int]]:
    """Generators of {u in Z_M^n : A @ u == 0 mod M}, M = q^e for a prime q,
    as (sparse vector, order) pairs: the elimination of the module
    docstring brings A to U * A * V = diag(q^v_i) with U and V invertible
    mod M, so u = V x is in the kernel exactly when q^v_i * x_i == 0.
    Column i of V times q^(e - v_i) generates a part of order q^v_i, for
    each pivot with v_i > 0 in pivot order, and then each column that never
    holds a pivot (v_i = e) generates a part of order M, in column order.
    Vectors are {coordinate: entry}, entries in [0, M), absent ones 0."""
    M = q**e
    R: Dict[int, Dict[int, int]] = {}  # row index -> {column: entry}
    holders: List[Set[int]] = [set() for _ in range(A.shape[1])]
    for i, c, a in zip(A.rows.tolist(), A.cols.tolist(), (A.vals % M).tolist()):
        if a:
            R.setdefault(i, {})[c] = a
            holders[c].add(i)
    V = {c: {c: 1} for c in range(A.shape[1])}  # columns of V not yet pivots
    gens: List[Tuple[Dict[int, int], int]] = []
    order = list(R)  # ascending, as A lists its entries row by row
    for v in range(e):
        d = q**v  # divides every entry from here on
        for p in order:
            row = R.get(p)
            if row is None:
                continue
            if v == e - 1:  # the last valuation: every live entry has it
                j = min(row)
            else:
                j = min((c for c, a in row.items() if a % (d * q)), default=None)
            if j is None:
                continue
            del R[p]
            for c in row:
                holders[c].discard(p)
            inv = pow(row.pop(j) // d, -1, M)
            rest = [(c, a * inv % M) for c, a in row.items()]  # the pivot row off j
            for i in holders[j]:  # clear column j by row operations
                target = R[i]
                f = target.pop(j) // d
                for c, b in rest:
                    a = (target.get(c, 0) - f * b) % M
                    if a:
                        target[c] = a
                        holders[c].add(i)
                    elif c in target:
                        del target[c]
                        holders[c].discard(i)
                if not target:
                    del R[i]
            col = V.pop(j)
            for c, a in rest:  # clear the pivot row by column operations
                f, vec = a // d, V[c]
                for x, y in col.items():
                    b = (vec.get(x, 0) - f * y) % M
                    if b:
                        vec[x] = b
                    else:
                        vec.pop(x, None)
            if v:
                scale = q ** (e - v)
                gens.append(({x: y * scale % M for x, y in col.items()}, d))
    return gens + [(V[c], M) for c in sorted(V)]


def gf_nullspace(rows: Union[SparseRows, np.ndarray], q: int) -> np.ndarray:
    """Basis of {u : rows @ u == 0 mod q} for prime q; shape (dim, N).

    Basis vector i is 1 at the i-th free column f of the reduced row echelon
    form, 0 at the other free columns, and -RREF[j, f] mod q at the pivot
    column of RREF row j.  The RREF is unique, so the basis depends neither
    on the order of the rows nor on repeated rows (see the module
    docstring).  ``rows`` is not modified.
    """
    # The elimination is exact in Python ints, but the basis is returned as
    # int64 and ``kernel`` multiplies it by CRT factors in int64.
    if (q - 1) * q > 2**62:
        raise OverflowError(f"modulus {q} is too wide for int64 elimination")
    gens = _smith_kernel(SparseRows.from_dense(rows, rows.shape[1]), q, 1)
    basis = np.zeros((len(gens), rows.shape[1]), dtype=np.int64)
    for b, (vec, _) in enumerate(gens):
        basis[b, list(vec)] = list(vec.values())
    return basis


def kernel_mod(rows: Union[SparseRows, Sequence[Sequence[int]]], modulus: int, n_cols: int
               ) -> List[Tuple[List[int], int]]:
    """Generators of {u in Z_M^n : rows @ u == 0 mod M} for a prime power
    M = q^e; any other modulus raises ``ValueError``.

    Returns independent generators as (vector, order) pairs; every kernel
    element is a unique combination sum c_g * g with 0 <= c_g < order_g.
    See ``_smith_kernel`` for the order of the generators.  The entries of
    dense ``rows`` must fit int64.
    """
    factors = factorize(modulus)
    if len(factors) != 1:
        raise ValueError(f"modulus {modulus} is not a prime power")
    (q, e), = factors.items()
    return [([vec.get(x, 0) for x in range(n_cols)], order)
            for vec, order in _smith_kernel(SparseRows.from_dense(rows, n_cols), q, e)]


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


def kernel(rows, row_mods: Sequence[int], col_mods: Sequence[int]
           ) -> List[Tuple[np.ndarray, int]]:
    """Independent generators of {u in prod_s Z_{col_mods[s]} : rows @ u ==
    0 mod row_mods[r] for every r}, as (vector, order) pairs.

    Every kernel element is a unique combination sum c_g * g with 0 <= c_g <
    order_g, so the kernel has prod(order_g) elements.  Each row must be well
    defined on the group: rows[r, s] * col_mods[s] == 0 mod row_mods[r].
    ``rows`` is a SparseRows or a dense system.

    The group is the direct sum of its q-parts.  On the q-part, coordinate s
    is Z_{q^v_s} and row r is an equation modulo q^w_r; with e the largest
    exponent it is solved over Z_{q^e}, where Z_{q^v} embeds as
    q^{e-v} Z_{q^e}: u_s = q^{e-v_s} x_s turns row r into the row
    rows[r, s] * q^{v_s - w_r} modulo q^e, and the relations q^v_s * u_s ==
    0 cut the embedded subgroup out; an entry below q^w_r <= q^e times
    q^v_s <= q^e fits int64 wherever the CRT lift does.  Where e = 1 every
    v_s and w_r is 1: the rows are the q-part's, and there is no relation.  The generators
    are then lifted back by the Chinese remainder theorem.
    """
    col_mods = [int(d) for d in col_mods]
    A = SparseRows.from_dense(rows, len(col_mods))
    distinct = sorted(set(np.asarray(row_mods).tolist()))  # a few values: ring moduli
    row_at = np.asarray(distinct, dtype=np.int64).searchsorted(row_mods)[A.rows]  # per entry
    powers = {d: factorize(d) for d in set(col_mods).union(distinct)}
    gens: List[Tuple[np.ndarray, int]] = []
    for q in sorted({q for d in set(col_mods) for q in powers[d]}):
        inq = np.array([d % q == 0 for d in col_mods])
        cols = inq.nonzero()[0]  # the columns of the q-part
        v = [powers[col_mods[s]][q] for s in cols]
        # the q-part: the entries on its columns, each reduced modulo q^w_r
        # (to 0 where w_r = 0); the rows that keep one stay, in order
        w = np.array([powers[d].get(q, 0) for d in distinct], dtype=np.int64)[row_at]
        a = A.vals % q**w * inq[A.cols]
        keep = a.nonzero()[0]
        r, w, j = A.rows[keep], w[keep], cols.searchsorted(A.cols[keep])  # column j of the part
        opens = np.concatenate([[True], r[1:] != r[:-1]])[:len(r)]  # each live row's first entry
        part = SparseRows((int(opens.sum()), len(cols)), opens.cumsum() - 1, j, a[keep])
        e = max(v + w.tolist())
        if e > 1:  # over Z_{q^e}: the entries times q^v_s / q^w_r, and the relations
            qv = q ** np.array(v, dtype=np.int64)
            vals, rest = np.divmod(part.vals * qv[part.cols], q**w)
            if rest.any():
                raise ValueError("a row is not well defined on the coordinate group")
            short = np.flatnonzero(qv < q**e)  # a row q^v_s * u_s == 0 for each v_s < e
            part = SparseRows(part.shape, part.rows, part.cols, vals).above(
                SparseRows((len(short), len(v)), np.arange(len(short)), short, qv[short]))
            pairs = kernel_mod(part, q**e, len(v))
            local = np.array([vec for vec, _ in pairs], dtype=np.int64).reshape(len(pairs), len(v))
            local, orders = local // (q**e // qv), [order for _, order in pairs]
        else:
            local = gf_nullspace(part, q)
            orders = [q] * len(local)
        # CRT: the q-part of Z_d is (d / q^v) Z_d, and x maps to x * lam
        # with lam == 1 mod q^v and lam == 0 mod d / q^v
        lam = np.array([(col_mods[s] // q**vs) * pow(col_mods[s] // q**vs, -1, q**vs)
                        for s, vs in zip(cols, v)], dtype=np.int64)
        full = np.zeros((len(orders), len(col_mods)), dtype=np.int64)
        full[:, cols] = local * lam % np.array(col_mods)[cols]
        gens.extend(zip(full, orders))
    return gens
