"""Known answers for the benchmark, computed without the program under test.

Nothing here imports ``mnjordan``.  Hypothesis values come from ring
structure (Zn is semiprime iff n is squarefree, Mat2(Zp) is prime with a
center of p elements, a product is semiprime iff every factor is), and the
tiny rings (|R| <= 6) are checked by plain-Python brute force over all
elements and all additive maps.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

LAWS = ("centralizer", "gen-centralizer", "derivation", "gen-derivation")

# The CLI enumerates and checks at most this many solutions; a larger set
# gets a verdict without any map being checked.
ENUMERATION_CUTOFF = 10**6

BRUTE_FORCE_ORDER = 6


def torsion_product(law: str, m: int, n: int) -> int:
    """The torsion hypothesis of each theorem, as a product of factors."""
    if law == "centralizer":
        return m * n * (m + n)
    if law == "gen-centralizer":
        return m * n * (m + n) * (m + 2 * n)
    return m * n * (m + n) * abs(m - n)


def squarefree(n: int) -> bool:
    return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


def is_prime_number(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# -- rings described by their structure -------------------------------------------


class Ring:
    """A finite ring given by additive moduli and basis products.

    ``mult[i][j]`` is the coordinate vector of e_i * e_j.  ``factors`` holds
    the structural description ("Z", n) or ("Mat2", p), p prime, of each
    direct factor when the ring was built from one; tables have none.
    """

    def __init__(self, moduli: Sequence[int], mult, factors=None):
        self.moduli = tuple(int(d) for d in moduli)
        self.mult = [[[int(v) for v in cell] for cell in row] for row in mult]
        self.factors = factors
        self.k = len(self.moduli)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def characteristic(self) -> int:
        return math.lcm(*self.moduli)

    def elements(self) -> List[Tuple[int, ...]]:
        return list(itertools.product(*(range(d) for d in self.moduli)))

    def mul(self, a, b) -> Tuple[int, ...]:
        out = [0] * self.k
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for t, c in enumerate(self.mult[i][j]):
                    out[t] += ai * bj * c
        return tuple(v % d for v, d in zip(out, self.moduli))

    def add(self, *terms) -> Tuple[int, ...]:
        return tuple(sum(col) % d for col, d in zip(zip(*terms), self.moduli))

    def smul(self, c: int, a) -> Tuple[int, ...]:
        return tuple((c * v) % d for v, d in zip(a, self.moduli))

    def apply(self, M, a) -> Tuple[int, ...]:
        """Image of a under the additive map whose column j is the image of e_j."""
        return tuple(
            sum(M[i][j] * a[j] for j in range(self.k)) % self.moduli[i]
            for i in range(self.k)
        )


def zn_ring(n: int) -> Ring:
    return Ring([n], [[[1]]], factors=[("Z", n)])


def mat2_ring(p: int) -> Ring:
    mult = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for a, b, c, d in itertools.product(range(2), repeat=4):
        if b == c:
            mult[a * 2 + b][c * 2 + d][a * 2 + d] = 1
    return Ring([p] * 4, mult, factors=[("Mat2", p)])


def product_ring(*rings: Ring) -> Ring:
    moduli: List[int] = []
    for R in rings:
        moduli.extend(R.moduli)
    k = len(moduli)
    mult = [[[0] * k for _ in range(k)] for _ in range(k)]
    off = 0
    for R in rings:
        for i in range(R.k):
            for j in range(R.k):
                for t in range(R.k):
                    mult[off + i][off + j][off + t] = R.mult[i][j][t]
        off += R.k
    factors = None
    if all(R.factors is not None for R in rings):
        factors = [f for R in rings for f in R.factors]
    return Ring(moduli, mult, factors=factors)


def ring_from_spec(spec: dict) -> Ring:
    """The same JSON ring descriptions the CLI reads with ``--spec``."""
    if "kind" in spec:
        if spec["kind"] == "Zn":
            return zn_ring(int(spec["n"]))
        if spec["kind"] == "Mat":
            if int(spec.get("k", 2)) != 2:
                raise ValueError("the benchmark only knows Mat2 rings")
            return mat2_ring(int(spec["p"]))
        if spec["kind"] == "product":
            return product_ring(*(ring_from_spec(s) for s in spec["of"]))
        raise ValueError(f"unknown ring kind {spec['kind']!r}")
    return Ring(spec["moduli"], spec["mult"])


# -- hypotheses --------------------------------------------------------------------


def brute_semiprime(R: Ring) -> bool:
    E = R.elements()
    zero = (0,) * R.k
    return not any(
        a != zero and all(R.mul(R.mul(a, x), a) == zero for x in E) for a in E
    )


def brute_prime(R: Ring) -> bool:
    E = R.elements()
    zero = (0,) * R.k
    nonzero = [a for a in E if a != zero]
    return not any(
        all(R.mul(R.mul(a, x), b) == zero for x in E) for a in nonzero for b in nonzero
    )


def brute_center_size(R: Ring) -> int:
    E = R.elements()
    return sum(all(R.mul(z, x) == R.mul(x, z) for x in E) for z in E)


def semiprime(R: Ring) -> bool:
    if R.factors is None:
        return brute_semiprime(R)
    return all(kind == "Mat2" or squarefree(n) for kind, n in R.factors)


def prime(R: Ring) -> bool:
    if R.factors is None:
        return brute_prime(R)
    if len(R.factors) != 1:
        return False  # (a, 0) R (0, b) = 0 in any product of two nonzero rings
    kind, n = R.factors[0]
    return kind == "Mat2" or is_prime_number(n)


def center_size(R: Ring) -> int:
    """Zn is commutative (n central elements); the center of Mat2(Zp) is
    the p scalar matrices."""
    if R.factors is None:
        return brute_center_size(R)
    return math.prod(n for _, n in R.factors)


def torsion_free(R: Ring, law: str, m: int, n: int) -> bool:
    return math.gcd(torsion_product(law, m, n), R.characteristic) == 1


def expected_hypotheses(R: Ring, law: str, m: int, n: int) -> Dict[str, bool]:
    return {"semiprime": semiprime(R), "torsion_free": torsion_free(R, law, m, n)}


# -- the defining laws, by brute force ----------------------------------------------


def _law_holds(R: Ring, law: str, m: int, n: int, M, M0) -> bool:
    """The law at every element for the map M (and base map M0)."""
    two = 2 if law.endswith("derivation") else 1
    for x in R.elements():
        x2 = R.mul(x, x)
        lhs = R.add(
            R.smul(m + n, R.apply(M, x2)),
            R.smul(-two * m, R.mul(R.apply(M, x), x)),
            R.smul(-two * n, R.mul(x, R.apply(M0, x))),
        )
        if any(lhs):
            return False
    return True


def law_holds(R: Ring, law: str, m: int, n: int, maps) -> bool:
    if law.startswith("gen-"):
        M, M0 = maps
        base = law[len("gen-"):]
        return _law_holds(R, law, m, n, M, M0) and _law_holds(R, base, m, n, M0, M0)
    return _law_holds(R, law, m, n, maps, maps)


def additive_maps(R: Ring) -> List[Tuple[Tuple[int, ...], ...]]:
    """Every additive endomorphism as a k x k matrix (tuple of rows)."""
    choices = []
    for i in range(R.k):
        for j in range(R.k):
            di, dj = R.moduli[i], R.moduli[j]
            choices.append(range(0, di, di // math.gcd(di, dj)))
    out = []
    for combo in itertools.product(*choices):
        out.append(tuple(tuple(combo[i * R.k : (i + 1) * R.k]) for i in range(R.k)))
    return out


def brute_solutions(R: Ring, law: str, m: int, n: int) -> set:
    """All solutions as flat tuples of matrix entries, map after map."""
    maps = additive_maps(R)
    flat = lambda *Ms: tuple(v for M in Ms for row in M for v in row)
    if law.startswith("gen-"):
        base = law[len("gen-"):]
        bases = [M0 for M0 in maps if _law_holds(R, base, m, n, M0, M0)]
        return {
            flat(M, M0) for M0 in bases for M in maps if _law_holds(R, law, m, n, M, M0)
        }
    return {flat(M) for M in maps if _law_holds(R, law, m, n, M, M)}


def solution_count_mat2_family(R: Ring, law: str) -> Optional[int]:
    """Exact solution count on products of Zp and Mat2(Zp), p prime, when
    the theorem applies: the centralizer laws are solved exactly by the
    multiplications by a central element, the derivation laws only by 0."""
    if R.factors is None or not all(
        kind == "Mat2" or is_prime_number(n) for kind, n in R.factors
    ):
        return None
    if law.endswith("derivation"):
        return 1
    return center_size(R)


def mat2_is_scalar(M: Sequence[Sequence[int]], p: int) -> Optional[int]:
    """c when the 4x4 matrix M is c times the identity, else None."""
    c = M[0][0] % p
    for i in range(4):
        for j in range(4):
            if M[i][j] % p != (c if i == j else 0):
                return None
    return c
