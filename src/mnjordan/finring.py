"""Finite rings, additive maps, and exhaustive verification of the theorems.

A finite ring is an additive group Z_{d1} + ... + Z_{dk} with structure
constants c[i][j] giving the basis products e_i * e_j.  Elements are residue
tuples.  Additive maps are integer matrices M with M[i][j] * d_j == 0 mod
d_i, acting columnwise on residue tuples.

The four defining laws (weighted Jordan centralizer / derivation and their
generalized versions, stated in :mod:`mnjordan.laws`) are linear in the
unknown map(s) once the ring element is fixed, and quadratic in the ring
element, so imposing a law at the k(k+1)/2 polarization points e_i and
e_i + e_j is a finite linear system over the mixed-modulus group of matrix
entries that is equivalent to imposing it everywhere.  solve_identity
builds that system and solves it exactly, prime by prime, as independent
generators of the solution group S.  Each theorem's conclusion is linear in
the maps too, so the solutions that meet it form a subgroup C, and the
verdict needs only the two orders |S| and |S & C|; no verdict enumerates S.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import intsolve
from .freealg import Gen, word_gen_degree
from .laws import TABLE, TWO_SIDED, Law

MAX_SOLUTIONS = 10**6          # bound on SolutionSet.maps() and center(); no verdict reads it
PAIR_CELLS = 2**20             # bound on C(k+Dx, Dx) * C(k+Dy, Dy) * k in PairEvaluator
INT64_MAX = 2**63 - 1

LAWS = tuple(TABLE)

Element = Tuple[int, ...]


class RingConstructionError(ValueError):
    """Structure constants that do not define an associative ring."""


class RingSizeError(ValueError):
    """An enumeration or a pair check was asked for above its size bound."""


class FinRing:
    """A ring on Z_{d1} + ... + Z_{dk} with structure constants c[i][j][t],
    the e_t coordinate of e_i * e_j.

    The constructor checks the moduli, the int64 guard and that the
    constants fit in int64, but not the ring axioms: a table that enters
    from outside goes through ``FromTable``, which does.  ``Zn``,
    ``MatRing`` and ``DirectProduct`` build rings whose axioms hold by
    construction ([[[1]]], the matrix units, block-diagonal products of
    rings), so they skip that check.
    """

    def __init__(self, moduli: Sequence[int], constants, name: str = ""):
        self.moduli = tuple(int(d) for d in moduli)
        if not self.moduli:
            raise RingConstructionError("a ring needs at least one additive generator")
        if any(d < 2 for d in self.moduli):
            raise RingConstructionError("additive moduli must be at least 2")
        k = len(self.moduli)
        # The widest int64 sum over ring data is a conclusion value of a
        # map: at most 3k products of two residues.  The other sums (the
        # validation, mul, AddMap, the GF(p) systems) have at most k.
        if 3 * k * (max(self.moduli) - 1) ** 2 >= 2**63:
            raise RingConstructionError(
                f"a modulus of {max(self.moduli)} with k = {k} generators overflows "
                "64-bit arithmetic (3k(d - 1)^2 must stay below 2^63)"
            )
        try:
            self.constants = np.array(constants, dtype=np.int64).reshape(k, k, k)
        except OverflowError:
            raise RingConstructionError(
                "structure constants must fit in a signed 64-bit integer"
            ) from None
        self._mods = np.array(self.moduli, dtype=np.int64)
        self.constants %= self._mods
        self.name = name or f"ring{self.moduli}"
        self._pairs: Optional["PairEvaluator"] = None

    # -- construction checks -------------------------------------------------

    def _validate(self) -> None:
        C, mods = self.constants, self._mods
        # e_i has order d_i, so d_i * (e_i e_j) and d_j * (e_i e_j) vanish
        bad = np.any((mods[:, None, None] * C) % mods, axis=2) | np.any(
            (mods[None, :, None] * C) % mods, axis=2)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise RingConstructionError(f"product e{i}*e{j} is incompatible with the moduli")
        left = np.einsum("ijt,tlu->ijlu", C, C) % mods    # (e_i e_j) e_l
        right = np.einsum("jlt,itu->ijlu", C, C) % mods   # e_i (e_j e_l)
        bad = np.any(left != right, axis=3)
        if bad.any():
            i, j, l = np.argwhere(bad)[0]
            raise RingConstructionError(
                f"associativity fails on basis triple (e{i}, e{j}, e{l})"
            )

    # -- basic structure -------------------------------------------------------

    @property
    def k(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    def zero(self) -> Element:
        return (0,) * self.k

    def basis(self, i: int) -> Element:
        return tuple(1 if j == i else 0 for j in range(self.k))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.moduli))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % d for x, d in zip(a, self.moduli))

    def smul(self, c: int, a: Element) -> Element:
        return tuple((c * x) % d for x, d in zip(a, self.moduli))

    def mul(self, a: Element, b: Element) -> Element:
        # reduce after each contraction so every sum has at most k terms
        a_times = np.tensordot(np.array(a, dtype=np.int64), self.constants, 1) % self._mods
        acc = np.array(b, dtype=np.int64) @ a_times % self._mods
        return tuple(int(v) for v in acc)

    def pair_evaluator(self) -> "PairEvaluator":
        """The ring's PairEvaluator, built on first use."""
        if self._pairs is None:
            self._pairs = PairEvaluator(self)
        return self._pairs

    def __repr__(self) -> str:
        return f"FinRing({self.name}, order={self.order})"


# -- constructors ----------------------------------------------------------------


def Zn(n: int) -> FinRing:
    return FinRing([n], [[[1]]], name=f"Z{n}")


def MatRing(k: int, n: int) -> FinRing:
    """k x k matrices over Z_n with the matrix-unit basis E_ab."""
    if k < 1:
        raise RingConstructionError(f"the matrix size k must be at least 1, not {k}")
    kk = k * k
    constants = np.zeros((kk, kk, kk), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                for d in range(k):
                    if b == c:
                        constants[a * k + b, c * k + d, a * k + d] = 1
    return FinRing([n] * kk, constants, name=f"Mat{k}(Z{n})")


def DirectProduct(*rings: FinRing) -> FinRing:
    moduli: List[int] = []
    offsets = []
    for R in rings:
        offsets.append(len(moduli))
        moduli.extend(R.moduli)
    k = len(moduli)
    constants = np.zeros((k, k, k), dtype=np.int64)
    for R, off in zip(rings, offsets):
        kk = R.k
        constants[off : off + kk, off : off + kk, off : off + kk] = R.constants
    name = "+".join(R.name for R in rings)
    return FinRing(moduli, constants, name=name)


def FromTable(moduli: Sequence[int], constants, name: str = "") -> FinRing:
    """A ring from a multiplication table given from outside: each product
    e_i e_j must be compatible with the moduli, and the table associative on
    basis triples; otherwise ``RingConstructionError``.  This is the one
    place a table is checked (see ``FinRing``)."""
    R = FinRing(moduli, constants, name=name)
    R._validate()
    return R


def from_spec(spec: Union[dict, str]) -> FinRing:
    """Build a ring from a JSON spec dict or a path to one."""
    if isinstance(spec, str):
        with open(spec) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise RingConstructionError(f"a ring spec is a JSON object, not {type(spec).__name__}")
    if "kind" in spec:
        kind = spec["kind"]
        if kind == "Zn":
            return Zn(_spec_field(spec, "n", int))
        if kind == "Mat":
            return MatRing(_spec_field(spec, "k", int, 2), _spec_field(spec, "p", int))
        if kind == "product":
            return DirectProduct(*(from_spec(sub) for sub in _spec_field(spec, "of", list)))
        raise RingConstructionError(f"unknown ring kind {kind!r}")
    moduli, mult = _spec_field(spec, "moduli", list), _spec_field(spec, "mult", list)
    if not _nested_ints(moduli, 1):
        raise RingConstructionError("ring spec field 'moduli' must be a list of integers")
    if not _nested_ints(mult, 3):
        raise RingConstructionError(
            "ring spec field 'mult' must be a list of lists of lists of integers"
        )
    return FromTable(moduli, mult, name=_spec_field(spec, "name", str, ""))


def _nested_ints(value, depth: int) -> bool:
    if depth == 0:  # a JSON true or false is a bool, which is an int to Python
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_nested_ints(v, depth - 1) for v in value)


def _spec_field(spec: dict, key: str, kind: type, default=None):
    if key not in spec:
        if default is None:
            raise RingConstructionError(f"ring spec has no {key!r}")
        return default
    value = spec[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise RingConstructionError(
            f"ring spec field {key!r} must be {kind.__name__}, not {type(value).__name__}"
        )
    return value


# -- hypothesis predicates ---------------------------------------------------------


def _prime_parts(R: FinRing) -> Optional[List[Tuple[int, np.ndarray]]]:
    """The p-parts of R as F_p-algebras: (p, structure constants mod p) for
    each prime p dividing a modulus; None when a modulus has a square factor.

    With squarefree moduli the p-torsion of R is an ideal A_p with basis
    f_i = s_i e_i, s_i = d_i / p, over the i with p | d_i; R is the direct
    sum of its p-parts as rings.  f_a f_b = s_a s_b e_a e_b has e_t
    coordinate x = s_a s_b C[a, b, t] mod d_t, a multiple s_t y of s_t, and
    its f_t coefficient is y = x / s_t, which is x * s_t^-1 mod p.
    """
    factors = {d: intsolve.factorize(d) for d in set(R.moduli)}
    if any(e > 1 for f in factors.values() for e in f.values()):
        return None
    parts = []
    for p in sorted({q for f in factors.values() for q in f}):
        idx = [i for i, d in enumerate(R.moduli) if d % p == 0]
        s = [R.moduli[i] // p % p for i in idx]
        c = R.constants if len(idx) == R.k else R.constants[idx][:, idx][:, :, idx]
        if any(x != 1 for x in s):  # c[a, b, t] s_a s_b s_t^-1, reduced after each product
            ab = np.array([[x * y % p for y in s] for x in s], dtype=np.int64)
            c = c % p * ab[:, :, None] % p * np.array([pow(x, -1, p) for x in s], dtype=np.int64)
        parts.append((p, c % p))
    return parts


def _commutator_rows(C: np.ndarray) -> np.ndarray:
    """Row (i, t), column a: coordinate t of e_a e_i - e_i e_a, so z
    commutes with every basis element exactly when the rows vanish on z."""
    k = C.shape[0]
    return (C.transpose(1, 2, 0) - C.transpose(0, 2, 1)).reshape(k * k, k)


def _is_separable(c: np.ndarray, p: int) -> bool:
    """Whether the F_p-algebra with structure constants c (f_a f_b =
    sum_t c[a, b, t] f_t) has an identity u and a separability element
    e = sum E_ab f_a (x) f_b: sum E_ab f_a f_b = u and f_i e = e f_i.

    Homogenized with a scalar lam (u f_i = f_i u = lam f_i, mu(e) = u), the
    conditions are one linear system in (u, E, lam); it has a solution with
    lam = 1 exactly when some nullspace vector has lam != 0.  Row (i, x, y)
    of the commuting block compares the f_x (x) f_y coefficients of f_i e,
    sum_a c[i, a, x] E_ay, and of e f_i, sum_b c[b, i, y] E_xb.  The rows
    are written from the nonzero c[a, b, t].
    """
    d = c.shape[0]
    dd, lam = d * d, d * d + d  # columns: u, then E_ab at d + a*d + b, then lam
    base = 2 * dd + d  # row (i, x, y) of the commuting block: base + i*dd + x*d + y
    rows: List[Dict[int, int]] = [{} for _ in range(base + d**3)]
    for i in range(d):  # u f_i = lam f_i and f_i u = lam f_i at rows (i, i), mu(e) = u
        rows[i * d + i][lam] = rows[dd + i * d + i][lam] = rows[2 * dd + i][i] = -1
    for (a, b, t), v in zip(np.argwhere(c).tolist(), c[c != 0].tolist()):  # v = c[a, b, t]
        rows[b * d + t][a] = rows[dd + a * d + t][b] = v
        rows[2 * dd + t][d + a * d + b] = v
        for y in range(d):  # c[i, a, x] E_ay, -c[b, i, y] E_xb at (i, a, x) = (b, i, y) = (a, b, t)
            first, col = rows[base + a * dd + t * d + y], d + b * d + y
            first[col] = first.get(col, 0) + v
            second, col = rows[base + b * dd + y * d + t], d + y * d + a  # meets first at (x, y)
            second[col] = second.get(col, 0) - v
    return bool(np.any(intsolve.gf_nullspace(intsolve.DictRows(rows, lam + 1), p)[:, -1]))


def _algebra_mul(c: np.ndarray, p: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-by-row products of two (r, d) arrays of F_p-algebra elements."""
    d = c.shape[0]
    XC = (X @ c.reshape(d, d * d) % p).reshape(-1, d, d)
    return np.einsum("gb,gbt->gt", Y, XC) % p


def _center_is_field(c: np.ndarray, p: int) -> bool:
    """Whether the center Z of a semisimple F_p-algebra is a field.

    Z is a product of finite fields F_{p^r}, one per simple factor, and
    Frobenius z -> z^p is F_p-linear on Z with fixed space the product of
    the prime fields, so Z is a field exactly when that fixed space has
    dimension 1.
    """
    Z = intsolve.gf_nullspace(_commutator_rows(c), p)
    power, base, e = None, Z, p
    while e:
        if e & 1:
            power = base if power is None else _algebra_mul(c, p, power, base)
        e >>= 1
        if e:
            base = _algebra_mul(c, p, base, base)
    return intsolve.gf_nullspace((power - Z).T, p).shape[0] == 1


def is_semiprime(R: FinRing) -> bool:
    """No nonzero a with a*x*a == 0 for every x, decided by linear algebra.

    A finite ring is Artinian, and a semiprime Artinian ring has zero
    Jacobson radical, so it is semisimple: it has an identity and is a
    product of matrix rings over finite fields (Wedderburn-Artin for rings
    without an assumed identity; Herstein, Noncommutative Rings, 1968,
    ch. 1-2).  So a modulus with a square factor (an element of order p^2)
    rules it out, and otherwise R is semiprime exactly when each p-part
    A_p is a semisimple F_p-algebra.  F_p is perfect, so that holds exactly
    when A_p is separable: it has an identity and a separability element
    (Pierce, Associative Algebras, GTM 88, section 10).  Each p-part costs
    one GF(p) nullspace; no element is enumerated.
    """
    parts = _prime_parts(R)
    return parts is not None and all(_is_separable(c, p) for p, c in parts)


def is_prime(R: FinRing) -> bool:
    """No nonzero a, b with a*x*b == 0 for every x, decided by linear algebra.

    A prime ring is semiprime, and a semisimple ring is prime exactly when
    it is simple, a single matrix ring over a field (Herstein, ch. 1-2):
    then R has a single p-part, and its center, a product of one finite
    field per simple factor, is a field.  R is nonzero, since every
    modulus is at least 2.
    """
    parts = _prime_parts(R)
    if parts is None or len(parts) != 1:
        return False
    p, c = parts[0]
    return _is_separable(c, p) and _center_is_field(c, p)


def is_torsion_free(R: FinRing, t: int) -> bool:
    """Multiplication by t is injective on the additive group."""
    if t < 2:
        raise ValueError("torsion factors start at 2")
    return all(math.gcd(t, d) == 1 for d in R.moduli)


def center(R: FinRing) -> List[Element]:
    """All z commuting with every element, in lexicographic order.

    z commutes with everything exactly when it commutes with the basis, so
    the center is the kernel of z -> (z e_i - e_i z)_i, row (i, t) read
    modulo d_t.  It is listed from its generators, and refused above
    MAX_SOLUTIONS elements.
    """
    gens = intsolve.kernel(_commutator_rows(R.constants), np.tile(R._mods, R.k), R.moduli)
    size = math.prod(order for _, order in gens)
    if size > MAX_SOLUTIONS:
        raise RingSizeError(
            f"the center has {size} elements, above the enumeration bound {MAX_SOLUTIONS}"
        )
    return sorted(intsolve.enumerate_group(gens, R._mods, R.k, MAX_SOLUTIONS))


# -- additive maps ------------------------------------------------------------------


class AddMap:
    """Additive endomorphism given by an integer matrix: column j is the
    image of the basis element e_j, rows reduced mod the target moduli."""

    __slots__ = ("ring", "matrix")

    def __init__(self, ring: FinRing, matrix):
        self.ring = ring
        M = np.array(matrix, dtype=np.int64).reshape(ring.k, ring.k)
        M %= np.array(ring.moduli, dtype=np.int64)[:, None]
        for i in range(ring.k):
            for j in range(ring.k):
                if (M[i, j] * ring.moduli[j]) % ring.moduli[i]:
                    raise ValueError(
                        f"entry ({i},{j}) violates the additive-map condition"
                    )
        self.matrix = M

    @staticmethod
    def zero(ring: FinRing) -> "AddMap":
        return AddMap(ring, np.zeros((ring.k, ring.k), dtype=np.int64))

    @staticmethod
    def identity(ring: FinRing) -> "AddMap":
        return AddMap(ring, np.eye(ring.k, dtype=np.int64))

    @staticmethod
    def scalar(ring: FinRing, c: int) -> "AddMap":
        return AddMap(ring, c * np.eye(ring.k, dtype=np.int64))

    def __call__(self, a: Element) -> Element:
        v = (self.matrix @ np.array(a, dtype=np.int64)) % self.ring._mods
        return tuple(int(x) for x in v)

    def apply_rows(self, A: np.ndarray) -> np.ndarray:
        return (A @ self.matrix.T) % self.ring._mods

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AddMap)
            and self.ring.moduli == other.ring.moduli
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self) -> int:
        return hash((self.ring.moduli, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"AddMap({self.matrix.tolist()})"


# -- the defining laws ---------------------------------------------------------------


@dataclass(frozen=True)
class LawSpec:
    law: str
    m: int
    n: int

    def __post_init__(self):
        if self.law not in LAWS:
            raise ValueError(f"unknown law {self.law!r}; expected one of {LAWS}")
        if self.m < 1 or self.n < 1:
            raise ValueError("the weights m, n must be positive")

    @property
    def rule(self) -> Law:
        return TABLE[self.law]

    @property
    def pair(self) -> bool:
        return self.rule.generalized

    def torsion_product(self) -> int:
        return self.rule.torsion_product(self.m, self.n)


def _law_row_blocks(R: FinRing, spec: LawSpec) -> Tuple[intsolve.DictRows, List[int]]:
    """Equation rows for the law imposed at the polarization points.

    Each law is a quadratic form L(x) = B(x, x) with B(x, y) = a M(xy) +
    b M(x)y + c xM0(y) biadditive, so L(sum c_i e_i) = sum c_i^2 L(e_i) +
    sum_{i<j} c_i c_j [L(e_i+e_j) - L(e_i) - L(e_j)] with integer c_i: the
    law holds at every element exactly when it holds at the k basis
    elements e_i and the k(k-1)/2 sums e_i + e_j, on any mixed-modulus
    group.  Row e_i is B(e_i, e_i), and row e_i + e_j is B(e_i, e_i) +
    B(e_j, e_j) + B(e_i, e_j) + B(e_j, e_i).

    At point x, row t and slot (a, b), the coefficient of M[a, b] is
    delta_ta (x^2)_b in M(x^2), with x^2 reduced mod d_b, x_b (e_a x)_t in
    M(x)x and x_b (x e_a)_t in xM(x).  x_b is 1 on the one or two
    coordinates y of x and 0 elsewhere, and (e_a x)_t and (x e_a)_t are
    sums of the C[a, y, t] and the C[y, a, t].  So each row's dict is
    written from the nonzero structure constants, indexed by their left
    and by their right factor, in Python ints.  Every coefficient and
    constant is in [0, d), so a term is 0 only when a factor is, and such
    a term is never written: no entry is 0.  A generalized law's top rows
    are the law on (M, M0), its xM0(x) terms at the second map's slots;
    its bottom rows are the plain law on M0 alone.

    Returns (rows, row_mods): rows has shape (Q, n_maps*k*k) with slot
    ordering (map, i, j), the rows (x, t) of the e_i and then of the
    e_i + e_j for i < j, in row-major order; row r states sum_s rows[r,
    s]*u_s == 0 modulo row_mods[r], a Python int.
    """
    k, mods, C = R.k, R.moduli, R.constants
    # row (x, t) is read modulo d_t, so each coefficient is reduced there in
    # Python ints first: exact at any weight, and below d_t like the entries
    a, b, c = ([v % d for d in mods] for v in spec.rule.coefficients(spec.m, spec.n))
    # the nonzero C[p, q, t], as sq[p]: (q, t, C[p, q, t]), and as the terms
    # ex[q]: (t, p k, b_t C[p, q, t]) and xe[p]: (t, q k, c_t C[p, q, t])
    sq, ex, xe = ([[] for _ in range(k)] for _ in range(3))
    for (p, q, t), v in zip(np.argwhere(C).tolist(), C[C != 0].tolist()):
        sq[p].append((q, t, v))
        if b[t]:
            ex[q].append((t, p * k, b[t] * v))
        if c[t]:
            xe[p].append((t, q * k, c[t] * v))
    at_sq = [(t, t * k, a_t) for t, a_t in enumerate(a) if a_t]

    def point_rows(ys, main, base):
        """The k rows (x, t) at the point x with coordinates ys: the M(x^2)
        and M(x)x terms at their slots plus main, the xM0(x) terms plus
        base."""
        rows: List[Dict[int, int]] = [{} for _ in range(k)]
        for terms, shift in ((ex, main), (xe, base)):
            for y in ys:
                for t, fk, w in terms[y]:  # b_t (e_f x)_t or c_t (x e_f)_t at slot (f, z)
                    row = rows[t]
                    for z in ys:
                        s = shift + fk + z
                        row[s] = row.get(s, 0) + w
        x2: Dict[int, int] = {}
        for p in ys:
            for q, u, v in sq[p]:
                if q in ys:
                    x2[u] = x2.get(u, 0) + v
        for u, v in x2.items():  # a_t (x^2)_u at slot (t, u)
            v %= mods[u]
            if v:
                for t, tk, a_t in at_sq:
                    row, s = rows[t], main + tk + u
                    row[s] = row.get(s, 0) + a_t * v
        return rows

    points = [(i,) for i in range(k)] + list(itertools.combinations(range(k), 2))
    base = k * k if spec.pair else 0  # a generalized law's xM0(x) terms are on M0
    rows = [r for ys in points for r in point_rows(ys, 0, base)]
    if spec.pair:  # the plain law on M0 alone
        rows += [r for ys in points for r in point_rows(ys, base, base)]
    return intsolve.DictRows(rows, k * k + base), list(mods) * (len(rows) // k)


def _hom_rows(R: FinRing, n_maps: int) -> Tuple[intsolve.DictRows, List[int]]:
    """Row per slot (map, i, j) with d_i not dividing d_j: d_j M[i, j] == 0
    modulo d_i, the additive-map condition."""
    d, k = R._mods, R.k
    slots = np.flatnonzero(np.tile(d[None, :] % d[:, None] != 0, (n_maps, 1, 1)))
    return (intsolve.DictRows([{s: v} for s, v in zip(slots.tolist(), d[slots % k].tolist())],
                              n_maps * k * k), d[slots // k % k].tolist())


@dataclass
class SolutionSet:
    """The solutions of a law as a group: independent generators, each a
    slot vector (ordering (map, i, j), as in _law_row_blocks) with its
    order.  Every solution is a unique combination sum c_g * g with
    0 <= c_g < order_g, so ``count`` is exact without enumeration."""

    ring: FinRing
    n_maps: int
    slot_mods: np.ndarray
    generators: List[Tuple[np.ndarray, int]]

    @property
    def count(self) -> int:
        return math.prod(order for _, order in self.generators)

    @functools.cached_property
    def explicit(self) -> List[Tuple[int, ...]]:
        """Every solution as a slot vector, in lexicographic order."""
        if self.count > MAX_SOLUTIONS:
            raise RingSizeError(
                f"solution set has {self.count} elements, above the enumeration "
                f"bound {MAX_SOLUTIONS}"
            )
        return sorted(intsolve.enumerate_group(
            self.generators, self.slot_mods, len(self.slot_mods), MAX_SOLUTIONS
        ))

    def maps(self) -> List:
        """Solutions as AddMap objects (pairs for generalized laws)."""
        k = self.ring.k
        out = []
        for vec in self.explicit:
            mats = [
                np.array(vec[b * k * k : (b + 1) * k * k], dtype=np.int64).reshape(k, k)
                for b in range(self.n_maps)
            ]
            maps = [AddMap(self.ring, M) for M in mats]
            out.append(maps[0] if self.n_maps == 1 else tuple(maps))
        return out


def _vector_of_maps(maps: Sequence[AddMap]) -> Tuple[int, ...]:
    return tuple(int(v) for M in maps for v in M.matrix.ravel())


def solve_identity(R: FinRing, spec: LawSpec) -> SolutionSet:
    """All additive maps (or pairs) satisfying the law at every element."""
    n_maps = 2 if spec.pair else 1
    law, law_mods = _law_row_blocks(R, spec)
    hom, hom_mods = _hom_rows(R, n_maps)
    slot_mods = np.tile(np.repeat(R._mods, R.k), n_maps)
    generators = intsolve.kernel(intsolve.DictRows(law.rows + hom.rows, law.n_cols),
                                 law_mods + hom_mods, slot_mods)
    return SolutionSet(ring=R, n_maps=n_maps, slot_mods=slot_mods, generators=generators)


# -- conclusion checks ---------------------------------------------------------------
#
# Each conclusion is evaluated on a batch of slot vectors: both sides are
# biadditive in (x, y), so checking it on basis pairs is the same as checking
# it everywhere.  Product values are ordered (i, j, t), and value (i, j, t) is
# coordinate t, read modulo d_t.


def _conclusion_blocks(R: FinRing, law: Law, G: np.ndarray
                       ) -> List[Tuple[str, np.ndarray, np.ndarray]]:
    """The law's conclusion evaluated on the slot vectors G, shape (g,
    n_slots), as (reason, values, moduli) blocks in the order their reasons
    are reported: values has shape (g, len(moduli)), and a map meets a block
    when its values vanish modulo moduli."""
    k, C = R.k, R.constants
    g, k2 = G.shape[0], k * k
    M = G[:, :k2].reshape(g, k, k)
    of_xy = np.einsum("gtb,ijb->gijt", M, C)  # M(e_i e_j)
    mx_y = np.einsum("gai,ajt->gijt", M, C)   # M(e_i) e_j
    x_my = np.einsum("gaj,iat->gijt", M, C)   # e_i M(e_j)
    if law.conclusion == TWO_SIDED:
        blocks = [("not two-sided", [of_xy - mx_y, of_xy - x_my])]
    else:
        # value (i, j, t) of the second block is D(e_j) e_i - e_i D(e_j)
        blocks = [("not a derivation", [of_xy - mx_y - x_my]),
                  ("values not central", [mx_y.transpose(0, 2, 1, 3) - x_my])]
    blocks = [(reason, np.concatenate([v.reshape(g, -1) for v in vals], axis=1),
               np.tile(R._mods, len(vals) * k2)) for reason, vals in blocks]
    if not law.generalized:
        return blocks
    return [(f"{law.symbols[0]} differs from its base map", G[:, :k2] - G[:, k2:],
             np.repeat(R._mods, k))] + blocks


def _meets(R: FinRing, law: str, block: int, M: AddMap) -> bool:
    """M satisfies conclusion block ``block`` of the plain law ``law``."""
    _, values, mods = _conclusion_blocks(R, TABLE[law], M.matrix.reshape(1, -1))[block]
    return not np.any(values % mods)


def verify_two_sided(R: FinRing, T: AddMap) -> bool:
    """T(xy) = T(x)y = xT(y) for all x, y.

    Both sides are biadditive in (x, y), so the condition holds everywhere
    exactly when it holds on basis pairs; that tensor identity is what is
    checked.
    """
    return _meets(R, "centralizer", 0, T)


def verify_derivation(R: FinRing, D: AddMap) -> bool:
    """D(xy) = D(x)y + xD(y) for all x, y (checked on basis pairs)."""
    return _meets(R, "derivation", 0, D)


def maps_into_center(R: FinRing, D: AddMap) -> bool:
    """Every value D(x) commutes with every ring element."""
    return _meets(R, "derivation", 1, D)


def _law_residual(R: FinRing, spec: LawSpec, maps: Sequence[AddMap]) -> bool:
    """True when the maps satisfy the defining law at every element."""
    rows, row_mods = _law_row_blocks(R, spec)
    vec = _vector_of_maps(maps)  # in Python ints: no product or sum can overflow
    return all(sum(a * vec[s] for s, a in row.items()) % d == 0
               for row, d in zip(rows.rows, row_mods))


# -- the xyx expansion, checked numerically -------------------------------------------

LEMMA_TEXTS = {name: law.lemma() for name, law in TABLE.items()}


@functools.lru_cache(maxsize=None)
def _lemma_poly(law: str):
    """The parsed xyx lemma of a law, parsed once per law."""
    from .parsing import parse_poly

    return parse_poly(LEMMA_TEXTS[law])


_GENERATOR_WORDS = ((Gen("x"),), (Gen("y"),))


class PairEvaluator:
    """Evaluate polynomial identities in x and y at finitely many pairs of
    ring elements that decide them on all of R x R.

    The maps are additive and the product is biadditive, so for fixed y a
    monomial of x-degree d (T[x] counts 1, T[x*x] counts 2) is the diagonal
    of a d-additive map in x, and an identity P of x-degree at most Dx is a
    polynomial map of degree at most Dx on the additive group.  Writing
    x = sum c_i e_i with integers c_i >= 0, Newton interpolation on Z^k
    gives P(x, y) = sum_{|a| <= Dx} C(c, a) * Delta^a P(0, y), each
    difference an integer combination of the values at the points
    sum b_i e_i with b <= a.  So P(., y) vanishes everywhere exactly when it
    vanishes on Px, the points sum c_i e_i with c_i >= 0 and sum c_i <= Dx
    reduced mod the moduli, on any mixed-modulus group; likewise in y on Py
    for the y-degree Dy.  Hence P vanishes on R x R exactly when it vanishes
    on Px x Py: then P(x, .) vanishes everywhere for each x in Px, so each
    P(., y) vanishes on Px, and so everywhere.

    x is bound as a (|Px|, 1, k) array of coordinate vectors and y as
    (1, |Py|, k); no element is enumerated.  An identity is refused when
    C(k+Dx, Dx) * C(k+Dy, Dy) * k exceeds PAIR_CELLS, whatever the moduli.
    """

    def __init__(self, R: FinRing):
        self.ring = R
        self.num = R.order  # read by the pairs counter in bench/tracing.py
        k = R.k
        # row j of a @ _tables[0] is a * e_j, row i of a @ _tables[1] is
        # e_i * a, both before reduction mod _mods_kk
        self._tables = (R.constants.reshape(k, k * k),
                        R.constants.transpose(1, 0, 2).reshape(k, k * k))
        self._mods_kk = np.tile(R._mods, k)
        self._top = max(R.moduli) - 1
        # Entries are never negative.  A value whose entries are at most
        # _limit survives a contraction (k products with a reduced entry,
        # at most _top) and, times a reduced coefficient, a place in the
        # running total; FinRing's guard 3k(d - 1)^2 < 2^63 puts _limit at
        # or above _top, so a reduced value always qualifies.
        self._limit = INT64_MAX // (3 * k * self._top)
        self._point_sets: Dict[int, np.ndarray] = {}

    def _points(self, degree: int) -> np.ndarray:
        """The points sum c_i e_i, c_i >= 0, sum c_i <= degree, reduced mod
        the moduli, deduplicated, as rows in lexicographic order."""
        if degree not in self._point_sets:
            R = self.ring
            points = {tuple(combo.count(i) % d for i, d in enumerate(R.moduli))
                      for size in range(degree + 1)
                      for combo in itertools.combinations_with_replacement(range(R.k), size)}
            self._point_sets[degree] = np.array(sorted(points), dtype=np.int64)
        return self._point_sets[degree]

    def _mul(self, a: np.ndarray, b: np.ndarray, words=(None, None),
             expanded: Optional[Dict[tuple, np.ndarray]] = None) -> np.ndarray:
        """Products a*b of broadcast arrays of coordinate vectors with
        entries at most _limit, not reduced: each entry is at most k *
        _top times the larger operand bound.  The operand with fewer
        entries is expanded into reduced k x k matrices; when it is a
        generator (``words`` holds the operands' words), its expansion is
        kept in ``expanded`` and reused."""
        if a.size <= b.size:
            small, word, big, side = a, words[0], b, 0
        else:
            small, word, big, side = b, words[1], a, 1
        keep = expanded is not None and word in _GENERATOR_WORDS
        mat = expanded.get((word, side)) if keep else None
        if mat is None:
            k = self.ring.k
            mat = (small @ self._tables[side] % self._mods_kk).reshape(small.shape[:-1] + (k, k))
            if keep:
                expanded[(word, side)] = mat
        if small.shape[1] == 1:  # an x-side array: one matrix per x point
            return big @ mat[:, 0]
        return (big[..., None, :] @ mat)[..., 0, :]

    def _value(self, word, maps: Dict[str, AddMap], memo: Dict[tuple, tuple],
               expanded: Dict[tuple, np.ndarray]) -> Tuple[np.ndarray, int]:
        """A word's values, left to right, and a bound on their entries, at
        most _limit: a product is reduced mod the moduli only when its bound
        would pass _limit.  Each prefix and each map application is
        evaluated once per memo."""
        if word not in memo:
            if len(word) > 1:
                head, last = word[:-1], word[-1:]
                a, bound_a = self._value(head, maps, memo, expanded)
                b, bound_b = self._value(last, maps, memo, expanded)
                value = self._mul(a, b, (head, last), expanded)
                bound = self.ring.k * self._top * max(bound_a, bound_b)
                if bound > self._limit:
                    value, bound = value % self.ring._mods, self._top
                memo[word] = value, bound
            else:
                atom = word[0]  # the generator words are seeded
                if atom.sym not in maps:
                    raise ValueError(f"no concrete map bound to {atom.sym}")
                arg, _ = self._value(atom.arg, maps, memo, expanded)
                memo[word] = maps[atom.sym].apply_rows(arg), self._top
        return memo[word]

    def first_violation(
        self, poly, maps: Dict[str, AddMap], m: int, n: int
    ) -> Optional[Tuple[Element, Element]]:
        """The first pair (x, y) of Px x Py, x-major with both point sets in
        lexicographic order, where poly is nonzero; None when it vanishes
        there, and so at every pair of R x R."""
        R = self.ring
        # integers act on coordinate t through Z/d_t, so reducing there in
        # Python ints is exact at any weight and keeps c * value within
        # _top times the value's bound
        weights = [coeff.evaluate(m, n) for coeff in poly.terms.values()]
        cvs = np.array([[c % d for d in R.moduli] for c in weights],
                       dtype=np.int64).reshape(len(weights), R.k)
        terms = [(word, cv) for word, cv, live in zip(poly.terms, cvs, cvs.any(axis=1)) if live]
        dx, dy = (max((word_gen_degree(w, g) for w, _ in terms), default=0) for g in "xy")
        cells = math.comb(R.k + dx, dx) * math.comb(R.k + dy, dy) * R.k
        if cells > PAIR_CELLS:
            raise RingSizeError(
                f"x-degree {dx} and y-degree {dy} on {R.k} generators need "
                f"C(k+Dx, Dx) * C(k+Dy, Dy) * k = {cells} cells, above the pair "
                f"bound {PAIR_CELLS}"
            )
        xs, ys = self._points(dx), self._points(dy)
        memo = {word: (points, self._top) for word, points in
                zip(_GENERATOR_WORDS, (xs[:, None, :], ys[None, :, :]))}
        # left and right product matrices of the generator arrays, built on
        # first use and dropped with this call
        expanded: Dict[tuple, np.ndarray] = {}
        total = np.zeros((len(xs), len(ys), R.k), dtype=np.int64)
        # each term adds at most _top * _limit <= (2^63 - 1) / 3k, so after
        # a reduction of the total the next term always fits
        bound = 0
        for word, cv in terms:
            value, value_bound = self._value(word, maps, memo, expanded)
            step = self._top * value_bound
            if bound + step > INT64_MAX:
                total %= R._mods
                bound = self._top
            total += cv * value
            bound += step
        total %= R._mods
        bad = total.any(axis=2)
        if not bad.any():
            return None
        i, j = divmod(int(np.argmax(bad)), len(ys))
        return tuple(int(v) for v in xs[i]), tuple(int(v) for v in ys[j])


def cross_check_lemma(
    R: FinRing,
    spec: LawSpec,
    maps: Union[AddMap, Tuple[AddMap, AddMap]],
) -> bool:
    """Check the xyx-expansion identity at every pair for given solutions.

    Precondition: the maps satisfy the defining law (raises otherwise).
    This validates numerically the expansion the proof checker uses.
    """
    pair = isinstance(maps, tuple)
    map_list = list(maps) if pair else [maps]
    if pair != spec.pair:
        raise ValueError("map arity does not match the law")
    if not _law_residual(R, spec, map_list):
        raise ValueError("the given maps do not satisfy the defining law")
    main, base = spec.rule.symbols
    bound = {main: map_list[0], base: map_list[-1]}
    violation = R.pair_evaluator().first_violation(
        _lemma_poly(spec.law), bound, spec.m, spec.n
    )
    return violation is None


# -- theorem-level reports ------------------------------------------------------------


@dataclass
class TheoremReport:
    ring: str
    law: str
    m: int
    n: int
    hypotheses: Dict[str, object]
    applicable: bool
    solution_count: int
    violation_count: int    # solutions that break the conclusion
    violations: List[dict]  # at most one: the first generator among them
    verdict: str

    def to_json(self) -> dict:
        """The fields in declaration order, the keys ``asdict`` would give,
        without its deep copy: the dict shares ``hypotheses`` and
        ``violations`` with the report."""
        return dict(vars(self))


def _conclusion_violations(R: FinRing, spec: LawSpec, sols: SolutionSet
                           ) -> Tuple[int, List[dict]]:
    """How many solutions break the conclusion, and one that does.

    The solutions that meet the conclusion form a subgroup S & C, the kernel
    of the conclusion values of the generators of S, so the count is |S| -
    |S & C|.  The example is the first generator outside C, with the first
    reason it fails.
    """
    if not sols.generators:
        return 0, []
    G = np.array([g for g, _ in sols.generators], dtype=np.int64)
    blocks = _conclusion_blocks(R, spec.rule, G)
    mods = np.concatenate([b[2] for b in blocks])
    on_gens = np.concatenate([b[1] for b in blocks], axis=1).T % mods[:, None]
    outside = np.nonzero(on_gens.any(axis=0))[0]
    if outside.size == 0:
        return 0, []
    broken = on_gens.any(axis=1)  # the other rows hold no entry
    kept = intsolve.kernel(on_gens[broken], mods[broken], [order for _, order in sols.generators])
    g = outside[0]
    reason = next(r for r, values, mods_r in blocks if np.any(values[g] % mods_r))
    vec = G[g]
    k2 = R.k * R.k
    example = {"map": vec[:k2].reshape(R.k, R.k).tolist()}
    if spec.pair and reason == blocks[0][0]:
        example["base"] = vec[k2:].reshape(R.k, R.k).tolist()
    example["reason"] = reason
    return sols.count - math.prod(order for _, order in kept), [example]


def check_theorem(R: FinRing, spec: LawSpec) -> TheoremReport:
    """Evaluate the theorem hypotheses and decide its conclusion on every
    solution."""
    product = spec.torsion_product()
    if product == 0:  # |m-n| is in the derivation budgets
        raise ValueError("the derivation theorems need distinct weights m and n")
    hyp: Dict[str, object] = {"torsion_product": product, "semiprime": is_semiprime(R)}
    hyp["torsion_free"] = is_torsion_free(R, product) if product > 1 else True
    applicable = bool(hyp["semiprime"]) and bool(hyp["torsion_free"])
    sols = solve_identity(R, spec)
    violation_count, violations = _conclusion_violations(R, spec, sols)
    if applicable:
        verdict = "conclusion-verified" if not violation_count else "COUNTEREXAMPLE"
    else:
        verdict = (
            "hypotheses-not-met; conclusion holds anyway"
            if not violation_count
            else "hypotheses-not-met; conclusion fails"
        )
    return TheoremReport(
        ring=R.name,
        law=spec.law,
        m=spec.m,
        n=spec.n,
        hypotheses=hyp,
        applicable=applicable,
        solution_count=sols.count,
        violation_count=violation_count,
        violations=violations,
        verdict=verdict,
    )


def search_family(rings: Iterable[FinRing], spec: LawSpec) -> List[TheoremReport]:
    """check_theorem rows over a family of rings."""
    return [check_theorem(R, spec) for R in rings]


def family_zn(max_n: int) -> List[FinRing]:
    return [Zn(n) for n in range(2, max_n + 1)]


def family_mat2(primes: Sequence[int]) -> List[FinRing]:
    return [MatRing(2, p) for p in primes]


def family_products(max_n: int) -> List[FinRing]:
    out = []
    for a in range(2, max_n + 1):
        for b in range(a, max_n + 1):
            out.append(DirectProduct(Zn(a), Zn(b)))
    return out
