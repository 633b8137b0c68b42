"""Sweep ring families to probe how sharp the torsion hypotheses are.

Rings where the hypotheses fail are flagged; for each one the sweep also
records whether the conclusion nevertheless holds or a genuine violating
solution exists.  Matrix rings whose characteristic divides m+n give the
cleanest violations: there the defining law degenerates and admits many
maps that are far from two-sided.
"""

from mnjordan import finring as fr

spec = fr.LawSpec("gen-centralizer", 1, 2)

print("== cyclic rings Z2 .. Z12, weights (1, 2) ==")
for row in fr.search_family(fr.family_zn(12), spec):
    flag = "" if row.applicable else "   [hypotheses fail]"
    print(f"  {row.ring:6s} solutions={row.solution_count:<4d} {row.verdict}{flag}")

print("\n== 2x2 matrix rings over Z3, Z5, Z7, weights (1, 2) ==")
for row in fr.search_family(fr.family_mat2([3, 5, 7]), spec):
    print(f"  {row.ring:10s} torsion_free={row.hypotheses['torsion_free']} "
          f"solutions={row.solution_count:<6d} {row.verdict}")
    for v in row.violations:
        print(f"      {row.violation_count} violating maps, e.g. {v['map']}  ({v['reason']})")

print("\n== weights (2, 3) on Mat2(Z5): m+n vanishes mod 5 ==")
row = fr.check_theorem(fr.MatRing(2, 5), fr.LawSpec("gen-centralizer", 2, 3))
print(f"  solutions={row.solution_count}, verdict: {row.verdict}")
print(f"  violations found: {row.violation_count}")
