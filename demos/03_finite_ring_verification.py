"""Verify the theorems exhaustively on concrete finite rings.

For a finite ring the defining laws are linear systems in the entries of
the unknown additive maps, so the FULL solution set is computable.  The
theorems then become finite statements: every solution must be two-sided
(centralizer case) or a derivation into the center (derivation case).
"""

from mnjordan import finring as fr

print("== hypotheses on small rings ==")
for n in (4, 5, 6, 12):
    R = fr.Zn(n)
    print(f"Z{n}: semiprime={fr.is_semiprime(R)}")
P = fr.DirectProduct(fr.Zn(5), fr.Zn(5))
print(f"Z5+Z5: prime={fr.is_prime(P)}, semiprime={fr.is_semiprime(P)}")

print("\n== all weighted Jordan centralizers on Z5, weights (1,1) ==")
sols = fr.solve_identity(fr.Zn(5), fr.LawSpec("centralizer", 1, 1))
print(f"{sols.count} solutions:", [M.matrix[0][0] for M in sols.maps()],
      "(the scalar multiplications)")

print("\n== generalized centralizers on Mat2(Z7), weights (1,2) ==")
R = fr.MatRing(2, 7)
spec = fr.LawSpec("gen-centralizer", 1, 2)
sols = fr.solve_identity(R, spec)
print(f"{sols.count} solution pairs (T, T0)")
for T, T0 in sols.maps():
    assert T == T0 and fr.verify_two_sided(R, T)
print("every pair has T = T0 and T two-sided: the theorem's conclusion")

print("\n== the xyx expansion, cross-checked numerically ==")
M5 = fr.MatRing(2, 5)
spec5 = fr.LawSpec("gen-centralizer", 1, 1)
pair = fr.solve_identity(M5, spec5).maps()[1]
print("expansion holds at all 625^2 pairs:",
      fr.cross_check_lemma(M5, spec5, pair))

print("\n== a full theorem report ==")
rep = fr.check_theorem(R, spec)
print(f"{rep.ring}: hypotheses={rep.hypotheses}")
print(f"verdict: {rep.verdict} over {rep.solution_count} solutions")
