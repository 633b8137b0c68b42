"""The four defining (m,n) laws, stated once for both engines.

Every law reads

    (m+n)M(x^2) - s*m*M(x)x - s*n*xM0(x) = 0

with weight s = 1 for centralizers and s = 2 for derivations.  A plain law is
the diagonal M0 = M of its generalized form.  The proof checker reads the law
text from here (``template``), and the finite-ring solver reads the
coefficients, the torsion budget, the xyx lemma and the conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

TWO_SIDED = "two-sided"
CENTRAL_DERIVATION = "derivation into the center"

# the xyx expansion of each family, in the (main, base) map symbols
_CENTRALIZER_LEMMA = (
    "2*(m+n)^2*{M}[x*y*x] - m*n*{M}[x]*x*y - m*(2*m+n)*{M}[x]*y*x + m*n*{M}[y]*x^2"
    " - 2*m*n*x*{M0}[y]*x + m*n*x^2*{M0}[y] - n*(m+2*n)*x*y*{M0}[x] - m*n*y*x*{M0}[x]"
)
_DERIVATION_LEMMA = (
    "(m+n)^2*{M}[x*y*x] - m*(n-m)*{M}[x]*x*y - m*(m-n)*{M}[y]*x^2 - n*(n-m)*x^2*{M0}[y]"
    " - n*(m-n)*y*x*{M0}[x] - m*(3*m+n)*{M}[x]*y*x - 4*m*n*x*{M0}[y]*x"
    " - n*(3*n+m)*x*y*{M0}[x]"
)


@dataclass(frozen=True)
class Law:
    name: str
    s: int                              # weight of the M(x)x and xM0(x) terms
    generalized: bool
    extra_torsion: Callable[[int, int], int]  # factor on top of mn(m+n)
    symbols: Tuple[str, str]            # (main, base) maps in the lemma text
    lemma_template: str
    conclusion: str

    def coefficients(self, m: int, n: int) -> Tuple[int, int, int]:
        """Coefficients of M(x^2), M(x)x and xM0(x)."""
        return m + n, -self.s * m, -self.s * n

    def template(self) -> str:
        """The law as polynomial text in the placeholders {M} and {M0}."""
        w = "" if self.s == 1 else f"{self.s}*"
        base = "{M0}" if self.generalized else "{M}"
        return f"(m+n)*{{M}}[x^2] - {w}m*{{M}}[x]*x - {w}n*x*{base}[x]"

    def lemma(self) -> str:
        main, base = self.symbols
        return self.lemma_template.format(M=main, M0=base)

    def torsion_product(self, m: int, n: int) -> int:
        return m * n * (m + n) * self.extra_torsion(m, n)


# The replayed centralizer proof consumes {2, m, n, m+n, m+2n}, and m+2n is
# needed: on F_p[t] with p | m+2n, T = d/dt and T0 = 0 satisfy the generalized
# law, yet T(t*t) = 2t != T(t)*t (see the README).
TABLE: Dict[str, Law] = {
    law.name: law
    for law in (
        Law("centralizer", 1, False, lambda m, n: 1, ("T", "T"), _CENTRALIZER_LEMMA,
            TWO_SIDED),
        Law("gen-centralizer", 1, True, lambda m, n: m + 2 * n, ("T", "T0"),
            _CENTRALIZER_LEMMA, TWO_SIDED),
        Law("derivation", 2, False, lambda m, n: abs(m - n), ("F", "D"),
            _DERIVATION_LEMMA, CENTRAL_DERIVATION),
        Law("gen-derivation", 2, True, lambda m, n: abs(m - n), ("F", "D"),
            _DERIVATION_LEMMA, CENTRAL_DERIVATION),
    )
}
