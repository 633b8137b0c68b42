"""Shared helpers for the test suite."""

import itertools
import math
import re
from importlib import resources
from typing import Dict, List, Tuple

import numpy as np

from mnjordan import finring as fr
from mnjordan import freealg
from mnjordan import freealg as fa
from mnjordan import intsolve
from mnjordan.freealg import GENERATORS, MAP_KINDS, NCPoly
from mnjordan.parsing import MAX_EXPONENT, ParseError, _Val, parse_poly
from mnjordan.scalars import ScalarPoly


def shipped_script(name: str) -> str:
    return resources.files("mnjordan").joinpath("proofs", name).read_text()


def mutate_script(text: str, rng, label: str | None = None):
    """Bump one coefficient of one claimed identity; return (text, step label).

    Assume steps are skipped: their claims are unverified by design, so a
    corruption there surfaces at the first step that uses them instead.
    """
    lines = text.splitlines()
    candidates = []
    for i, line in enumerate(lines):
        stripped = line.split("#", 1)[0].strip()
        if not stripped.startswith("step ") or "=>" not in stripped:
            continue
        head, _, claimed = stripped.partition("=>")
        parts = head.split()
        if parts[2] == "assume":
            continue
        poly = parse_poly(claimed.strip())
        if poly.is_zero():
            continue
        if label is not None and parts[1] != label:
            continue
        candidates.append((i, parts[1], head.strip(), poly))
    i, step_label, head, poly = rng.choice(candidates)
    word = rng.choice(sorted(poly.terms, key=fa.word_key))
    bumped = poly + fa.NCPoly.word(word, ScalarPoly.const(1))
    lines[i] = f"{head} => {bumped.to_text()}"
    return "\n".join(lines) + "\n", step_label


# -- the recursive sort keys that Gen.key and App.key now store ----------------


def atom_key(a):
    if isinstance(a, fa.Gen):
        return (0, a.name)
    return (1, a.sym, word_key(a.arg))


def word_key(w):
    return (len(w), tuple(atom_key(a) for a in w))


def rebuilding_normalize(p, rules=fa.ALL_RULES):
    """freealg.normalize before normal words passed through: every word is
    rebuilt from its normal form."""
    out = {}
    for w, c in p.terms.items():
        fa._add_into(out, fa._norm_word(w, rules), c)
    return fa._wrap(out)


# -- the parser that peeked at each token, the oracle for parsing._Parser ------


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<arrow>->)|(?P<op>[-+*^()\[\];|,]))"
)

_TOKEN_KIND = {"int": "int", "name": "name", "arrow": "op", "op": "op"}


def peeking_tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
            break
        kind = m.lastgroup
        # a token's column is where the token starts, after the blanks before it
        tokens.append((_TOKEN_KIND[kind], m[kind], m.start(kind)))
        pos = m.end()
    return tokens


def _mul_val(a: _Val, b: _Val, pos: int) -> _Val:
    if a.scalar is not None and b.scalar is not None:
        return _Val(scalar=a.scalar * b.scalar)
    if a.cited or b.cited:
        if a.cited and b.cited:
            raise ParseError("a term cites more than one identity", pos)
        context = b.poly if a.cited else a.poly
        # a zero context contributes nothing, whatever it is written as
        if context is not None and len(context.terms) > 1:
            raise ParseError("the context of a citation must be a single monomial", pos)
    if a.scalar is not None:
        poly = freealg.scale(a.scalar, b.poly)
    elif b.scalar is not None:
        poly = freealg.scale(b.scalar, a.poly)
    else:
        poly = freealg.mul(a.poly, b.poly)
    return _Val(poly=poly, cited=a.cited or b.cited)


def _add_val(a: _Val, b: _Val, pos: int) -> _Val:
    if a.cited != b.cited:
        raise ParseError("a witness list mixes terms with and without a citation", pos)
    if a.scalar is not None and b.scalar is not None:
        return _Val(scalar=a.scalar + b.scalar)
    if a.scalar is not None and a.scalar.is_zero():
        return b
    if b.scalar is not None and b.scalar.is_zero():
        return a
    if a.poly is not None and b.poly is not None:
        return _Val(poly=a.poly + b.poly, cited=a.cited)
    raise ParseError("cannot add a scalar to a ring polynomial (no unit element)", pos)


def _neg_val(a: _Val) -> _Val:
    if a.scalar is not None:
        return _Val(scalar=-a.scalar)
    return _Val(poly=-a.poly, cited=a.cited)


def _uncited(val: _Val, where: str, pos: int) -> _Val:
    if val.cited:
        raise ParseError(f"a citation cannot stand {where}", pos)
    return val


class PeekingParser:
    def __init__(self, text: str, cite=None):
        self.text = text
        self.tokens = peeking_tokenize(text)
        self.i = 0
        self.cite = cite

    def peek(self) -> Tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    # -- expression grammar ------------------------------------------------

    def parse_expr(self) -> _Val:
        val = self.parse_term()
        while True:
            tok = self.peek()
            if tok and tok[1] in "+-":
                self.next()
                rhs = self.parse_term()
                if tok[1] == "-":
                    rhs = _neg_val(rhs)
                val = _add_val(val, rhs, tok[2])
            else:
                return val

    def parse_term(self) -> _Val:
        val = self.parse_signed_factor()
        while True:
            tok = self.peek()
            if tok and tok[1] == "*":
                self.next()
                val = _mul_val(val, self.parse_signed_factor(), tok[2])
            else:
                return val

    def parse_signed_factor(self) -> _Val:
        tok = self.peek()
        if tok and tok[1] == "-":
            self.next()
            return _neg_val(self.parse_signed_factor())
        return self.parse_factor()

    def parse_factor(self) -> _Val:
        val = self.parse_primary()
        while True:
            tok = self.peek()
            if tok and tok[1] == "^":
                self.next()
                _uncited(val, "under '^'", tok[2])
                etok = self.next()
                if etok[0] != "int":
                    raise ParseError("exponent must be an integer", etok[2])
                k = int(etok[1])
                if k > MAX_EXPONENT:
                    raise freealg.PowerSizeError(
                        f"exponent {k} at column {etok[2] + 1} is above the bound "
                        f"{MAX_EXPONENT} on powers"
                    )
                if val.scalar is not None:
                    val = _Val(scalar=val.scalar**k)
                else:
                    if k < 1:
                        raise ParseError(
                            "ring polynomials cannot be raised to power 0", etok[2]
                        )
                    acc = val.poly
                    for _ in range(k - 1):
                        acc = freealg.mul(acc, val.poly)
                    val = _Val(poly=acc)
            else:
                return val

    def parse_primary(self) -> _Val:
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return _Val(scalar=ScalarPoly.const(int(value)))
        if kind == "name":
            if value in ("m", "n"):
                return _Val(scalar=ScalarPoly.var(value))
            if value in GENERATORS:
                return _Val(poly=freealg.gen(value))
            if value in MAP_KINDS:
                self.expect("[")
                arg = _uncited(self.parse_expr(), "inside a map argument", pos)
                self.expect("]")
                if arg.poly is None:
                    raise ParseError(
                        f"{value}[...] needs a ring-valued argument", pos
                    )
                return _Val(poly=freealg.app(value, arg.poly))
            raise ParseError(f"unknown symbol {value!r}", pos)
        if value == "(":
            inner = _uncited(self.parse_expr(), "inside parentheses", pos)
            self.expect(")")
            return inner
        if value == "[" and self.cite is not None:
            return self.parse_citation()
        raise ParseError(f"unexpected token {value!r}", pos)

    def parse_citation(self) -> _Val:
        tok = self.next()
        if tok[0] != "name":
            raise ParseError("expected an identity label", tok[2])
        subst: Dict[str, NCPoly] = {}
        sep = self.next()
        if sep[1] == "|":
            while True:
                gtok = self.next()
                if gtok[0] != "name" or gtok[1] not in GENERATORS:
                    raise ParseError("substitution target must be a generator", gtok[2])
                self.expect("->")
                body = _uncited(self.parse_expr(), "inside a substitution body", gtok[2])
                if body.poly is None:
                    raise ParseError("substitution body must be ring-valued", gtok[2])
                subst[gtok[1]] = body.poly
                sep = self.next()
                if sep[1] != ";":
                    break
        if sep[1] != "]":
            raise ParseError(f"expected ']', found {sep[1]!r}", sep[2])
        return _Val(poly=self.cite(tok[1], subst), cited=True)

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)


def peeking_parse_value(text, cite=None):
    p = PeekingParser(text, cite)
    val = p.parse_expr()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return val


# -- the tokenizer that tested each named group in turn ------------------------


def group_by_group_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
            break
        if m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("arrow"):
            tokens.append(("op", "->", m.start("arrow")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


# -- the GF(q) elimination that reduced every entry at every pivot ----------------


def eager_gf_nullspace(rows, q):
    """A dense GF(q) elimination, the oracle for the sparse
    intsolve.gf_nullspace: tall systems are deduplicated, the first row
    holding a column is its pivot, the whole matrix is reduced mod q after
    every pivot and the basis is filled in entry by entry."""
    A = np.array(rows, dtype=np.int64) % q
    if A.size == 0:
        n_cols = A.shape[1] if A.ndim == 2 else 0
        return np.eye(n_cols, dtype=np.int64)
    A = A[A.any(axis=1)]
    if A.shape[0] > A.shape[1]:
        A = np.unique(A, axis=0)
    n_rows, n_cols = A.shape
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, c]), q - 2, q)
        A[r] = (A[r] * inv) % q
        col = A[:, c].copy()
        col[r] = 0
        A -= np.outer(col, A[r])
        A %= q
        pivots.append(c)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = (-A[ri, fc]) % q
    return basis


# -- the Euclidean kernel over Z_modulus: Hermite form, then diagonalization ---


def _hnf_rows(mat):
    """Row Hermite form (echelon over Z) by Euclidean row operations."""
    mat = [row[:] for row in mat if any(row)]
    if not mat:
        return []
    n_cols = len(mat[0])
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            while mat[i][c]:
                quot = mat[r][c] // mat[i][c]
                mat[r] = [a - quot * b for a, b in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            quot = mat[i][c] // mat[r][c]
            if quot:
                mat[i] = [a - quot * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r] if any(row)]


def _diagonalize_with_cols(mat):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (diag, V) with U * mat * V diagonal for some unimodular U; only
    the column transform V is needed to describe kernels, and the kernel
    computation does not require the Smith divisibility chain.  diag is
    padded with zeros up to the column count.
    """
    A = [row[:] for row in mat]
    n_rows = len(A)
    n_cols = len(A[0]) if A else 0
    V = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]

    def col_combine(c1, c2, quot):
        # column c1 -= quot * column c2
        for row in A:
            row[c1] -= quot * row[c2]
        for row in V:
            row[c1] -= quot * row[c2]

    def col_swap(c1, c2):
        for row in A:
            row[c1], row[c2] = row[c2], row[c1]
        for row in V:
            row[c1], row[c2] = row[c2], row[c1]

    diag = []
    t = 0
    while t < min(n_rows, n_cols):
        piv = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                if A[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        A[t], A[piv[0]] = A[piv[0]], A[t]
        if piv[1] != t:
            col_swap(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            # clear column t below the pivot.  When the pivot divides the
            # entry, eliminate into that row (no other entries of column t
            # change); otherwise run a Euclid step, which shrinks the pivot.
            for i in range(t + 1, n_rows):
                while A[i][t]:
                    if A[t][t] and A[i][t] % A[t][t] == 0:
                        quot = A[i][t] // A[t][t]
                        A[i] = [a - quot * b for a, b in zip(A[i], A[t])]
                    else:
                        quot = A[t][t] // A[i][t]
                        A[t] = [a - quot * b for a, b in zip(A[t], A[i])]
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            # clear row t right of the pivot, same discipline
            for j in range(t + 1, n_cols):
                while A[t][j]:
                    if A[t][t] and A[t][j] % A[t][t] == 0:
                        col_combine(j, t, A[t][j] // A[t][t])
                    else:
                        col_combine(t, j, A[t][t] // A[t][j])
                        col_swap(t, j)
                        dirty = True
        if A[t][t] < 0:
            for row in A:
                row[t] = -row[t]
            for row in V:
                row[t] = -row[t]
        diag.append(A[t][t])
        t += 1
    while len(diag) < n_cols:
        diag.append(0)
    return diag, V


def euclid_kernel_mod(rows, modulus, n_cols):
    """intsolve.kernel_mod before elimination over Z_{q^e}: generators of
    {u in Z_modulus^n : rows @ u == 0 mod modulus}, for any modulus, from a
    Hermite form of the rows padded with modulus * I, a diagonalization and
    a gcd with the modulus on each diagonal entry.

    Returns independent generators as (vector, order) pairs; every kernel
    element is a unique combination sum c_g * g with 0 <= c_g < order_g.
    """
    mat = [list(map(int, r)) for r in rows]
    mat += [[modulus if j == i else 0 for j in range(n_cols)] for i in range(n_cols)]
    H = _hnf_rows(mat)
    diag, V = _diagonalize_with_cols(H)
    gens = []
    for i in range(n_cols):
        d = diag[i] if i < len(diag) else 0
        g = int(np.gcd(d, modulus)) if d else modulus
        order = g
        if order == 1:
            continue
        scale = modulus // g
        vec = [(V[r][i] * scale) % modulus for r in range(n_cols)]
        gens.append((vec, order))
    return gens


def dense_kernel_mod(rows, modulus, n_cols):
    """intsolve.kernel_mod before the sparse elimination: the same pivot
    rule on dense lists of Python ints, the whole matrix scanned for every
    pivot.  The sparse elimination must give these generators, in order."""
    factors = intsolve.factorize(modulus)
    if len(factors) != 1:
        raise ValueError(f"modulus {modulus} is not a prime power")
    (q, e), = factors.items()
    A = [[int(a) % modulus for a in row] for row in rows]
    # V[c]: the column of V for the c-th column of A that has no pivot yet
    V = [[int(i == c) for i in range(n_cols)] for c in range(n_cols)]
    gens = []
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


# -- intsolve.kernel with its per-prime set-up on numpy arrays ------------------


def numpy_kernel(rows, row_mods, col_mods):
    """intsolve.kernel before the one pass per prime: each prime's part is
    selected, reduced and scaled with array operations on the system's
    nonzero entries, and the generators are lifted by CRT in int64 (which
    wraps where a column modulus d has d * q >= 2^63).  The part goes to
    gf_nullspace or kernel_mod as a dense array.  The production kernel
    must give these generators, in order, on every system the oracle lifts
    exactly."""
    col_mods = [int(d) for d in col_mods]
    A = densify(rows) if isinstance(rows, intsolve.DictRows) else np.asarray(rows, dtype=np.int64)
    A = A.reshape(len(A), len(col_mods))
    A_rows, A_cols = A.nonzero()
    A_vals = A[A_rows, A_cols]
    distinct = sorted(set(np.asarray(row_mods).tolist()))  # a few values: ring moduli
    row_at = np.asarray(distinct, dtype=np.int64).searchsorted(row_mods)[A_rows]  # per entry
    powers = {d: intsolve.factorize(d) for d in set(col_mods).union(distinct)}
    gens = []
    for q in sorted({q for d in set(col_mods) for q in powers[d]}):
        inq = np.array([d % q == 0 for d in col_mods])
        cols = inq.nonzero()[0]  # the columns of the q-part
        v = [powers[col_mods[s]][q] for s in cols]
        # the q-part: the entries on its columns, each reduced modulo q^w_r
        # (to 0 where w_r = 0); the rows that keep one stay, in order
        w = np.array([powers[d].get(q, 0) for d in distinct], dtype=np.int64)[row_at]
        a = A_vals % q**w * inq[A_cols]
        keep = a.nonzero()[0]
        r, w, j = A_rows[keep], w[keep], cols.searchsorted(A_cols[keep])  # column j of the part
        opens = np.concatenate([[True], r[1:] != r[:-1]])[:len(r)]  # each live row's first entry
        part, live = np.zeros((int(opens.sum()), len(cols)), dtype=np.int64), opens.cumsum() - 1
        part[live, j] = a[keep]
        e = max(v + w.tolist())
        if e > 1:  # over Z_{q^e}: the entries times q^v_s / q^w_r, and the relations
            qv = q ** np.array(v, dtype=np.int64)
            vals, rest = np.divmod(a[keep] * qv[j], q**w)
            if rest.any():
                raise ValueError("a row is not well defined on the coordinate group")
            part[live, j] = vals
            short = np.flatnonzero(qv < q**e)  # a row q^v_s * u_s == 0 for each v_s < e
            relations = np.zeros((len(short), len(v)), dtype=np.int64)
            relations[np.arange(len(short)), short] = qv[short]
            pairs = intsolve.kernel_mod(np.vstack([part, relations]), q**e, len(v))
            local = np.array([vec for vec, _ in pairs], dtype=np.int64).reshape(len(pairs), len(v))
            local, orders = local // (q**e // qv), [order for _, order in pairs]
        else:
            local = intsolve.gf_nullspace(part, q)
            orders = [q] * len(local)
        # CRT: the q-part of Z_d is (d / q^v) Z_d, and x maps to x * lam
        # with lam == 1 mod q^v and lam == 0 mod d / q^v
        lam = np.array([(col_mods[s] // q**vs) * pow(col_mods[s] // q**vs, -1, q**vs)
                        for s, vs in zip(cols, v)], dtype=np.int64)
        full = np.zeros((len(orders), len(col_mods)), dtype=np.int64)
        full[:, cols] = local * lam % np.array(col_mods)[cols]
        gens.extend(zip(full, orders))
    return gens


# -- the dense systems the sparse builders replaced ------------------------------


def check_dict_form(rows, modulus=None):
    """The DictRows invariant: a list of dict rows, each column inside the
    shape, every column and entry an int.  With a modulus, also the form
    of the prime's part that intsolve.kernel writes: every row holds an
    entry, and each entry is in [1, modulus)."""
    assert isinstance(rows, intsolve.DictRows) and isinstance(rows.rows, list), type(rows)
    assert all(type(c) is int and 0 <= c < rows.n_cols and type(a) is int
               for row in rows.rows for c, a in row.items())
    if modulus is not None:
        assert all(row for row in rows.rows)
        assert all(0 < a < modulus for row in rows.rows for a in row.values())


def densify(rows):
    """A DictRows as the dense int64 array it stands for."""
    A = np.zeros(rows.shape, dtype=np.int64)
    for i, row in enumerate(rows.rows):
        A[i, list(row)] = list(row.values())
    return A


def dense_hom_rows(R, n_maps):
    """finring._hom_rows as a dense array: a row per slot (map, i, j) with
    d_i not dividing d_j, d_j at the slot, read modulo d_i."""
    d, k = R._mods, R.k
    slots = np.flatnonzero(np.tile(d[None, :] % d[:, None] != 0, (n_maps, 1, 1)))
    rows = np.zeros((slots.size, n_maps * k * k), dtype=np.int64)
    rows[np.arange(slots.size), slots] = d[slots % k]
    return rows, d[slots // k % k]


def dense_separability_rows(c):
    """The system of finring._is_separable from two einsums of d^5 entries:
    columns u, E_ab, lam; rows u f_i = lam f_i, f_i u = lam f_i, mu(e) = u
    and f_i e = e f_i."""
    d = c.shape[0]
    dd = d * d
    eye = np.eye(d, dtype=np.int64)
    A = np.zeros((2 * dd + d + d**3, d + dd + 1), dtype=np.int64)
    A[:dd, :d] = c.transpose(1, 2, 0).reshape(dd, d)
    A[dd:2 * dd, :d] = c.transpose(0, 2, 1).reshape(dd, d)
    A[:2 * dd, -1] = np.tile(-eye.ravel(), 2)
    A[2 * dd:2 * dd + d, :d] = -eye
    A[2 * dd:2 * dd + d, d:-1] = c.reshape(dd, d).T
    A[2 * dd + d:, d:-1] = (np.einsum("iax,yb->ixyab", c, eye)
                            - np.einsum("xa,biy->ixyab", eye, c)).reshape(d**3, dd)
    return A


# -- all-element oracles for the finite-ring solver and scans ------------------


def all_element_law_rows(R, spec):
    """The law's equation rows imposed at every ring element, not only at the
    polarization points the solver uses; same layout as
    ``finring._law_row_blocks``."""
    k = R.k
    X = R.element_array()
    C = R.constants
    eye = np.eye(k, dtype=np.int64)
    X2 = np.einsum("ri,rj,ijt->rt", X, X, C) % R._mods
    EX = np.einsum("rj,ijt->rit", X, C)  # e_i * x
    XE = np.einsum("rj,jit->rit", X, C)  # x * e_i
    of_x2 = np.einsum("ti,rj->rtij", eye, X2)      # coeff of M(x^2)
    mx_x = np.einsum("rj,rit->rtij", X, EX)        # coeff of M(x)*x
    x_mx = np.einsum("rj,rit->rtij", X, XE)        # coeff of x*M(x)

    def flat(block):
        return block.reshape(X.shape[0] * k, k * k)

    a, b, c = spec.rule.coefficients(spec.m, spec.n)
    main = flat(a * of_x2 + b * mx_x)
    base = flat(c * x_mx)
    if spec.pair:
        # the law on (M, M0), and the plain law on M0 alone
        rows = np.block([[main, base], [np.zeros_like(main), main + base]])
    else:
        rows = main + base
    reps = rows.shape[0] // k
    row_mods = np.tile(R._mods, reps)
    return rows, row_mods


def all_element_residual(R, spec, maps) -> bool:
    """True when the maps satisfy the law at every ring element."""
    rows, row_mods = all_element_law_rows(R, spec)
    vec = np.array([v for M in maps for v in M.matrix.ravel()], dtype=np.int64)
    return bool(np.all((rows @ vec) % row_mods == 0))


def all_x_is_semiprime(R) -> bool:
    """No nonzero a with a*x*a == 0, x running over every element."""
    E = R.element_array()
    cand = E[1:]
    for x in E:
        if cand.shape[0] == 0:
            return True
        ax = np.einsum("ci,j,ijt->ct", cand, x, R.constants) % R._mods
        axa = np.einsum("ct,ci,tiu->cu", ax, cand, R.constants) % R._mods
        cand = cand[~np.any(axa != 0, axis=1)]
    return cand.shape[0] == 0


def all_x_is_prime(R) -> bool:
    """No nonzero a, b with a*x*b == 0, x running over every element."""
    E = R.element_array()
    for a in E[1:]:
        cand = E[1:]
        for x in E:
            if cand.shape[0] == 0:
                break
            ax = np.einsum("i,j,ijt->t", a, x, R.constants) % R._mods
            axb = np.einsum("t,ci,tiu->cu", ax, cand, R.constants) % R._mods
            cand = cand[np.all(axb == 0, axis=1)]
        if cand.shape[0]:
            return False
    return True


def all_x_center(R):
    """Every z with z*e_i == e_i*z for each basis element, scanning every
    element of R; in element (lexicographic) order."""
    E = R.element_array()
    mask = np.ones(E.shape[0], dtype=bool)
    for i in range(R.k):  # one basis element at a time keeps memory at |R|*k
        ze = (E @ R.constants[:, i, :]) % R._mods  # z * e_i
        ez = (E @ R.constants[i, :, :]) % R._mods  # e_i * z
        mask &= np.all(ze == ez, axis=1)
    return [tuple(int(v) for v in row) for row in E[mask]]


def all_x_torsion_free(R, t) -> bool:
    """No nonzero element killed by t, scanning every element."""
    E = R.element_array()
    return not np.any(np.all((t * E) % R._mods == 0, axis=1)[1:])


def all_pairs_two_sided(R, T) -> bool:
    """T(xy) = T(x)y = xT(y), checked at every pair of elements."""
    E = R.elements()
    return all(T(R.mul(x, y)) == R.mul(T(x), y) == R.mul(x, T(y)) for x in E for y in E)


def all_pairs_derivation(R, D) -> bool:
    """D(xy) = D(x)y + xD(y), checked at every pair of elements."""
    E = R.elements()
    return all(D(R.mul(x, y)) == R.add(R.mul(D(x), y), R.mul(x, D(y))) for x in E for y in E)


def all_pairs_central(R, D) -> bool:
    """D(x)y = yD(x), checked at every pair of elements."""
    E = R.element_array()
    V = D.apply_rows(E)
    vy = np.einsum("xi,yj,ijt->xyt", V, E, R.constants) % R._mods
    yv = np.einsum("yi,xj,ijt->xyt", E, V, R.constants) % R._mods
    return np.array_equal(vy, yv)


def random_add_map(R, rng):
    # entry (i, j) must be a multiple of d_i / gcd(d_i, d_j)
    M = [[rng.randrange(0, di, di // math.gcd(di, dj)) for dj in R.moduli] for di in R.moduli]
    return fr.AddMap(R, M)


def upper_triangular(p):
    """Upper-triangular 2x2 matrices over Z_p on the basis e11, e12, e22."""
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 2, 1] = mult[2, 2, 2] = 1
    return fr.FromTable([p] * 3, mult, name=f"UT2(Z{p})")


# -- all-pairs oracle for PairEvaluator -----------------------------------------


def all_pairs_mul_table(R):
    """Index table of every product a*b, built one einsum row per a."""
    E = R.element_array()
    num = E.shape[0]
    radix = np.array([math.prod(R.moduli[i + 1 :]) for i in range(R.k)], dtype=np.int64)
    mul_table = np.empty((num, num), dtype=np.int64)
    for a in range(num):
        prods = np.einsum("i,rj,ijt->rt", E[a], E, R.constants) % R._mods
        mul_table[a] = prods @ radix
    return mul_table


def all_pairs_first_violation(R, poly, maps, m, n, mul_table=None):
    """PairEvaluator.first_violation evaluated at all |R|^2 pairs at once."""
    E = R.element_array()
    num = E.shape[0]
    radix = np.array([math.prod(R.moduli[i + 1 :]) for i in range(R.k)], dtype=np.int64)
    if mul_table is None:
        mul_table = all_pairs_mul_table(R)
    tables = {sym: M.apply_rows(E) @ radix for sym, M in maps.items()}
    base = {"x": np.repeat(np.arange(num, dtype=np.int64), num),
            "y": np.tile(np.arange(num, dtype=np.int64), num)}

    def eval_word(word) -> np.ndarray:
        acc = None
        for atom in word:
            if isinstance(atom, fa.Gen):
                idx = base[atom.name]
            else:
                if atom.sym not in tables:
                    raise ValueError(f"no concrete map bound to {atom.sym}")
                idx = tables[atom.sym][eval_word(atom.arg)]
            acc = idx if acc is None else mul_table[acc, idx]
        return acc

    total = np.zeros((num * num, R.k), dtype=np.int64)
    for word, coeff in poly.terms.items():
        c = coeff.evaluate(m, n)
        if all(c % d == 0 for d in R.moduli):
            continue
        total += c * E[eval_word(word)]
    total %= R._mods
    bad = np.nonzero(np.any(total != 0, axis=1))[0]
    if bad.size == 0:
        return None
    b = int(bad[0])
    return (
        tuple(int(v) for v in E[b // num]),
        tuple(int(v) for v in E[b % num]),
    )


def pointwise_value(R, poly, maps, m, n, x, y):
    """poly at the single pair (x, y), through FinRing.mul and AddMap.__call__."""
    point = {"x": x, "y": y}

    def word_value(word):
        acc = None
        for atom in word:
            if isinstance(atom, fa.Gen):
                v = point[atom.name]
            else:
                v = maps[atom.sym](word_value(atom.arg))
            acc = v if acc is None else R.mul(acc, v)
        return acc

    total = R.zero()
    for word, coeff in poly.terms.items():
        total = R.add(total, R.smul(coeff.evaluate(m, n), word_value(word)))
    return total


def exact_value(R, poly, maps, m, n, x, y):
    """poly at the single pair (x, y) in Python ints, reduced once per
    product, map image and sum, so no step can overflow."""
    C, mods, k = R.constants.tolist(), R.moduli, R.k
    point = {"x": x, "y": y}

    def mul(a, b):
        return tuple(sum(a[i] * b[j] * C[i][j][t] for i in range(k) for j in range(k)) % mods[t]
                     for t in range(k))

    def word_value(word):
        acc = None
        for atom in word:
            if isinstance(atom, fa.Gen):
                v = point[atom.name]
            else:
                M, arg = maps[atom.sym].matrix.tolist(), word_value(atom.arg)
                v = tuple(sum(M[t][j] * arg[j] for j in range(k)) % mods[t] for t in range(k))
            acc = v if acc is None else mul(acc, v)
        return acc

    total = [0] * k
    for word, coeff in poly.terms.items():
        c, v = coeff.evaluate(m, n), word_value(word)
        total = [s + c * vt for s, vt in zip(total, v)]
    return tuple(s % d for s, d in zip(total, mods))


# -- the dense product operators the law rows and conclusions were built from ----


def product_operators(R):
    """The linear maps M -> M(e_i e_j), M(e_i) e_j, e_i M(e_j), each a
    (k^3, k^2) integer matrix acting on M flattened row-major."""
    k, C = R.k, R.constants
    eye = np.eye(k, dtype=np.int64)
    ops = (
        np.einsum("ta,ijb->ijtab", eye, C),  # sum_b M[t, b] C[i, j, b]
        np.einsum("bi,ajt->ijtab", eye, C),  # sum_a M[a, i] C[a, j, t]
        np.einsum("bj,iat->ijtab", eye, C),  # sum_a M[a, j] C[i, a, t]
    )
    return tuple(op.reshape(k**3, k * k) for op in ops)


def _product_mods(R, rows):
    return np.tile(R._mods, rows.shape[0] // R.k)


def operator_law_rows(R, spec):
    """finring._law_row_blocks summed from the product operators at the
    polarization points: the same (rows, row_mods), unreduced."""
    k = R.k
    i, j = np.triu_indices(k, 1)

    def at_points(op: np.ndarray) -> np.ndarray:
        """(Q, k, k*k): the (i, j, t) rows of op summed at each point."""
        pairs = op.reshape(k, k, k, k * k)
        diag = pairs[np.arange(k), np.arange(k)]
        return np.concatenate([diag, diag[i] + diag[j] + pairs[i, j] + pairs[j, i]])

    of_x2, mx_x, x_mx = (at_points(op) for op in product_operators(R))
    of_x2 %= np.tile(R._mods, k)  # slot (t, j) reads coordinate j of x^2

    # row (r, t) is read modulo d_t, so each coefficient is reduced there in
    # Python ints first: exact at any weight, and below d_t like the entries
    a, b, c = (
        np.array([v % d for d in R.moduli], dtype=np.int64)[:, None]
        for v in spec.rule.coefficients(spec.m, spec.n)
    )
    main = (a * of_x2 + b * mx_x).reshape(-1, k * k)
    base = (c * x_mx).reshape(-1, k * k)
    if spec.pair:
        # the law on (M, M0), and the plain law on M0 alone
        rows = np.block([[main, base], [np.zeros_like(main), main + base]])
    else:
        rows = main + base
    reps = rows.shape[0] // k
    row_mods = np.tile(R._mods, reps)
    return rows, row_mods


def operator_conclusion_rows(R, law):
    """The law's conclusion as (reason, rows, row moduli) blocks on the slot
    vector, in the order their reasons are reported: the row form of
    finring._conclusion_blocks, whose values on a slot vector u are
    rows @ u."""
    k = R.k
    of_xy, mx_y, x_my = product_operators(R)
    if law.conclusion == fr.TWO_SIDED:
        # T(e_i e_j) - T(e_i) e_j and T(e_i e_j) - e_i T(e_j)
        blocks = [("not two-sided", np.vstack([of_xy - mx_y, of_xy - x_my]))]
    else:
        # D(e_i e_j) - D(e_i) e_j - e_i D(e_j), and row (i, j, t) of
        # D(e_j) e_i - e_i D(e_j)
        y_mx = mx_y.reshape(k, k, k, k * k).transpose(1, 0, 2, 3).reshape(k**3, k * k)
        blocks = [("not a derivation", of_xy - mx_y - x_my),
                  ("values not central", y_mx - x_my)]
    blocks = [(reason, rows, _product_mods(R, rows)) for reason, rows in blocks]
    if not law.generalized:
        return blocks
    eye = np.eye(k * k, dtype=np.int64)
    return [(f"{law.symbols[0]} differs from its base map", np.hstack([eye, -eye]),
             np.repeat(R._mods, k))] + [
        (reason, np.hstack([rows, np.zeros_like(rows)]), mods) for reason, rows, mods in blocks
    ]


# -- enumerating oracle for the solver and the conclusion count ------------------


def all_add_maps(R, limit=10**6):
    """Every additive endomorphism; feasible only for tiny rings."""
    choices = []
    for i in range(R.k):
        for j in range(R.k):
            di, dj = R.moduli[i], R.moduli[j]
            step = di // math.gcd(di, dj)
            choices.append(list(range(0, di, step)))
    total = math.prod(len(c) for c in choices)
    if total > limit:
        raise fr.RingSizeError(f"{total} additive maps is too many to enumerate")
    out = []
    for combo in itertools.product(*choices):
        out.append(fr.AddMap(R, np.array(combo, dtype=np.int64).reshape(R.k, R.k)))
    return out


def _vq(n, q):
    v = 0
    while n % q == 0 and n:
        n //= q
        v += 1
    return v


def enumerated_solutions(R, spec, max_solutions=10**6):
    """Every solution as a slot vector, sorted, or None above max_solutions.

    The solver's former path: each prime power's kernel is enumerated over
    Z_{q^e} and projected element by element onto the slot moduli, and the
    primes are combined by CRT.
    """
    n_maps = 2 if spec.pair else 1
    k = R.k
    n_slots = n_maps * k * k
    law_rows, law_mods = operator_law_rows(R, spec)
    hom_rows, hom_mods = dense_hom_rows(R, n_maps)
    rows = np.vstack([law_rows, hom_rows])
    row_mods = np.concatenate([law_mods, hom_mods])
    slot_mods = [R.moduli[i] for _ in range(n_maps) for i in range(k) for _ in range(k)]
    primes = {}
    for d in R.moduli:
        for q, e in intsolve.factorize(d).items():
            primes[q] = max(primes.get(q, 0), e)
    per_prime = []
    try:
        for q, e in sorted(primes.items()):
            slots_q = [s for s in range(n_slots) if slot_mods[s] % q == 0]
            keep = row_mods % q == 0
            sub = rows[np.ix_(keep, slots_q)]
            if e == 1:
                basis = eager_gf_nullspace(sub, q)
                elements_q = intsolve.enumerate_group(
                    [(b.tolist(), q) for b in basis], q, len(slots_q), max_solutions
                )
            else:
                M = q**e
                scale = np.array([M // q ** _vq(int(mq), q) for mq in row_mods[keep]],
                                 dtype=np.int64)
                scaled = (sub * scale[:, None]) % M
                gens = euclid_kernel_mod(scaled.tolist(), M, len(slots_q))
                raw = intsolve.enumerate_group(gens, M, len(slots_q), max_solutions * 64)
                elements_q = sorted({
                    tuple(int(u[a]) % q ** _vq(slot_mods[s], q) for a, s in enumerate(slots_q))
                    for u in raw
                })
            per_prime.append((q, slots_q, elements_q))
    except OverflowError:
        return None
    if math.prod(len(p[2]) for p in per_prime) > max_solutions:
        return None
    lists = []
    for q, slots_q, elements_q in per_prime:
        lifted = []
        for u in elements_q:
            full = [0] * n_slots
            for a, s in enumerate(slots_q):
                d = slot_mods[s]
                qe = q ** _vq(d, q)
                rest = d // qe
                # CRT lift: congruent to u[a] mod the q-part of d, 0 elsewhere
                full[s] = (u[a] * rest * pow(rest, -1, qe)) % d
            lifted.append(tuple(full))
        lists.append(lifted)
    out = set()
    for combo in itertools.product(*lists):
        out.add(tuple(sum(col) % d for col, d in zip(zip(*combo), slot_mods)))
    return sorted(out)


def per_map_violations(R, spec, solutions):
    """The conclusion checked on each solution by the einsum tensors of the
    basis-pair identities; one (map, base, reason) per failing solution."""
    C, mods = R.constants, R._mods
    k2 = R.k * R.k
    law = spec.rule
    out = []
    for vec in solutions:
        M = np.array(vec[:k2], dtype=np.int64).reshape(R.k, R.k)
        M0 = np.array(vec[-k2:], dtype=np.int64).reshape(R.k, R.k)
        m_of_xy = np.einsum("ts,ijs->ijt", M, C)
        mx_y = np.einsum("si,sjt->ijt", M, C)
        x_my = np.einsum("sj,ist->ijt", M, C)
        if not np.array_equal(M, M0):
            reason = f"{law.symbols[0]} differs from its base map"
        elif law.conclusion == fr.TWO_SIDED:
            if np.any((m_of_xy - mx_y) % mods) or np.any((m_of_xy - x_my) % mods):
                reason = "not two-sided"
            else:
                continue
        elif np.any((m_of_xy - mx_y - x_my) % mods):
            reason = "not a derivation"
        elif np.any((np.einsum("sj,sit->jit", M, C) - np.einsum("sj,ist->jit", M, C)) % mods):
            reason = "values not central"
        else:
            continue
        out.append((M.tolist(), M0.tolist(), reason))
    return out
