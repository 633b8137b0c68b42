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

A system travels in one format from the builder that writes it to
``kernel``, ``SparseRows``: its shape and its nonzero entries as
(row, column, value) in three int64 arrays, row by row in ascending order,
each cell at most once.  ``kernel`` reads the entries into Python lists
once and makes one pass over them per prime, which writes that prime's
part as ``DictRows``, the rows {column: entry} the elimination reads.
``gf_nullspace`` and ``kernel_mod`` take DictRows as they are and read a
SparseRows or a dense system into them (``DictRows.of``); a dense system,
one that is dense by nature or a test's, enters through
``SparseRows.from_dense``.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

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


class DictRows(NamedTuple):
    """A system as its nonzero rows, each a dict {column: entry} with the
    entry reduced modulo the elimination's modulus and not 0, in order:
    the form in which ``kernel`` writes each prime's part and the one the
    elimination reads.  ``shape`` is (rows, columns)."""

    rows: List[Dict[int, int]]
    n_cols: int

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.rows), self.n_cols

    @classmethod
    def of(cls, A, n_cols: int, M: int) -> "DictRows":
        """A system in any of the three forms, modulo M: a DictRows is
        returned as it is, a SparseRows or a dense system is read once."""
        if isinstance(A, cls):
            return A
        A = SparseRows.from_dense(A, n_cols)
        R: Dict[int, Dict[int, int]] = {}
        for i, c, a in zip(A.rows.tolist(), A.cols.tolist(), (A.vals % M).tolist()):
            if a:
                R.setdefault(i, {})[c] = a
        return cls(list(R.values()), A.shape[1])


def _smith_kernel(A: DictRows, q: int, e: int) -> List[Tuple[Dict[int, int], int]]:
    """Generators of {u in Z_M^n : A @ u == 0 mod M}, M = q^e for a prime q,
    as (sparse vector, order) pairs: the elimination of the module
    docstring brings A to U * A * V = diag(q^v_i) with U and V invertible
    mod M, so u = V x is in the kernel exactly when q^v_i * x_i == 0.
    Column i of V times q^(e - v_i) generates a part of order q^v_i, for
    each pivot with v_i > 0 in pivot order, and then each column that never
    holds a pivot (v_i = e) generates a part of order M, in column order.
    Vectors are {coordinate: entry}, entries in [0, M), absent ones 0.
    ``A`` is not modified."""
    M = q**e
    R: Dict[int, Dict[int, int]] = {}  # row index -> {column: entry}
    holders: List[Set[int]] = [set() for _ in range(A.n_cols)]
    for i, row in enumerate(A.rows):
        R[i] = dict(row)
        for c in row:
            holders[c].add(i)
    V = {c: {c: 1} for c in range(A.n_cols)}  # columns of V not yet pivots
    gens: List[Tuple[Dict[int, int], int]] = []
    for v in range(e):
        d = q**v  # divides every entry from here on
        for p in range(len(A.rows)):
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


def gf_nullspace(rows: Union[DictRows, SparseRows, np.ndarray], q: int) -> np.ndarray:
    """Basis of {u : rows @ u == 0 mod q} for prime q; shape (dim, N).

    Basis vector i is 1 at the i-th free column f of the reduced row echelon
    form, 0 at the other free columns, and -RREF[j, f] mod q at the pivot
    column of RREF row j.  The RREF is unique, so the basis depends neither
    on the order of the rows nor on repeated rows (see the module
    docstring).  ``rows`` is not modified.
    """
    # The elimination is exact in Python ints, but the basis is returned as
    # int64, and its users multiply its entries modulo q in int64.
    if (q - 1) * q > 2**62:
        raise OverflowError(f"modulus {q} is too wide for int64 elimination")
    gens = _smith_kernel(DictRows.of(rows, rows.shape[1], q), q, 1)
    basis = np.zeros((len(gens), rows.shape[1]), dtype=np.int64)
    for b, (vec, _) in enumerate(gens):
        basis[b, list(vec)] = list(vec.values())
    return basis


def kernel_mod(rows: Union[DictRows, SparseRows, Sequence[Sequence[int]]], modulus: int,
               n_cols: int) -> List[Tuple[List[int], int]]:
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
            for vec, order in _smith_kernel(DictRows.of(rows, n_cols, modulus), q, e)]


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
    0 cut the embedded subgroup out.  Where e = 1 every v_s and w_r is 1:
    the rows are the q-part's, and there is no relation.

    Each prime takes one pass over the entries, in Python ints: it keeps
    the entries on the q-part's columns, reduces each modulo q^w_r, drops
    the zeros and scales the rest by q^(v_s - w_r), writing the part's
    live rows, in order, as the DictRows the elimination reads.  The
    generators are lifted back by the Chinese remainder theorem in Python
    ints too, and each prime's come out as one int64 array.
    """
    col_mods = [int(d) for d in col_mods]
    A = SparseRows.from_dense(rows, len(col_mods))
    row_mods = np.asarray(row_mods, dtype=np.int64)
    entries = list(zip(A.rows.tolist(), A.cols.tolist(), A.vals.tolist(),
                       row_mods[A.rows].tolist()))  # (row, column, entry, row modulus)
    powers = {d: factorize(d) for d in set(col_mods).union(row_mods.tolist())}
    gens: List[Tuple[np.ndarray, int]] = []
    for q in sorted({q for d in set(col_mods) for q in powers[d]}):
        cols = [s for s, d in enumerate(col_mods) if d % q == 0]
        at: List[Optional[int]] = [None] * len(col_mods)  # column s -> column of the part
        for j, s in enumerate(cols):
            at[s] = j
        qv = [q ** powers[col_mods[s]][q] for s in cols]
        qw = {m: q ** f.get(q, 0) for m, f in powers.items()}  # modulus -> its q-part
        M = max(qv)  # q^e: e is the largest v_s, or w_r of a kept entry if larger
        part: Dict[int, Dict[int, int]] = {}
        for r, s, a, m in entries:
            j = at[s]
            if j is None:
                continue
            m = qw[m]
            a %= m
            if a:
                if m > M:
                    M = m
                if m != qv[j]:  # times q^v_s / q^w_r, which must be exact
                    a, rest = divmod(a * qv[j], m)
                    if rest:
                        raise ValueError("a row is not well defined on the coordinate group")
                part.setdefault(r, {})[j] = a
        live = list(part.values())
        if M > q:  # over Z_{q^e}: a row q^v_s * u_s == 0 for each v_s < e
            live += [{j: x} for j, x in enumerate(qv) if x < M]
            pairs = kernel_mod(DictRows(live, len(cols)), M, len(cols))
            local = [[x // (M // y) for x, y in zip(vec, qv)] for vec, _ in pairs]
            orders = [order for _, order in pairs]
        else:
            local = gf_nullspace(DictRows(live, len(cols)), q).tolist()
            orders = [q] * len(local)
        # CRT: the q-part of Z_d is (d / q^v) Z_d, and x maps to x * lam
        # with lam == 1 mod q^v and lam == 0 mod d / q^v
        lift = []
        for s, x in zip(cols, qv):
            d = col_mods[s]
            lift.append((s, d // x * pow(d // x, -1, x), d))
        full = [[0] * len(col_mods) for _ in orders]
        for row, vec in zip(full, local):
            for (s, lam, d), x in zip(lift, vec):
                row[s] = x * lam % d
        gens.extend(zip(np.array(full, dtype=np.int64).reshape(len(orders), len(col_mods)), orders))
    return gens
