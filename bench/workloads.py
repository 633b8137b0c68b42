"""The four workloads: seeded inputs, how each task runs, and its check.

``prepare`` writes a workload's inputs and returns its cycle, a list of
rounds of tasks.  A traced run makes one pass over the cycle, so its counts
repeat exactly; an untraced run repeats the cycle until its time is up,
stopping only between rounds.  Each round has the same mix of work (the
seed draws weights, picks, mutations and order, not how much of each kind
of task there is), so throughput does not depend on how many rounds fit.

Tasks reach the program the way users do, through ``cli.main(argv)`` with
``--format json``; the cross-check and the ring profile are library calls.
Every check compares against ``oracle``, never against the program.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import oracle

SCRIPTS = ("theorem_centralizer.steps", "theorem_derivation.steps")

# Torsion factors each shipped script consumes in its cancel and polarize
# steps, as polynomials in m and n (compared by value, not by spelling).
SHIPPED_FACTORS = {
    "theorem_centralizer.steps": ["m*n", "2", "m+n", "n*(m+2*n)", "m+n"],
    "theorem_derivation.steps": ["2", "n-m", "-m", "2", "m+n", "2*n*(n-m)", "m+n"],
}


@dataclass
class Task:
    kind: str                      # "cli", "profile" or "identity"
    label: str                     # short description for reports
    argv: Optional[List[str]] = None
    expect: Dict = field(default_factory=dict)


def run_cli(cli, argv: List[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    return {"code": code, "stdout": out.getvalue()}


def _poly_values(text: str) -> tuple:
    """A polynomial in m and n, given as text, at three sample points."""
    expr = text.replace("^", "**")
    if set(expr) - set("mn0123456789+-*() "):
        raise ValueError(f"not a polynomial in m, n: {text!r}")
    return tuple(eval(expr, {"__builtins__": {}}, {"m": m, "n": n})  # charset checked above
                 for m, n in ((2, 3), (5, 7), (11, 4)))


def _claimed_steps(text: str):
    """(line index, label, kind, claimed text) of every step line."""
    for i, line in enumerate(text.splitlines()):
        body = line.split("#", 1)[0].strip()
        if body.startswith("step ") and "=>" in body:
            head, _, claimed = body.partition("=>")
            parts = head.split()
            yield i, parts[1], parts[2], claimed.strip()


# -- replay -------------------------------------------------------------------------


def _top_level_terms(text: str) -> List[tuple]:
    """(sign, term) pairs of a claimed polynomial, split at top-level + and -."""
    parts, depth, start, sign = [], 0, 0, "+"
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch in "+-" and depth == 0 and text[i - 1: i + 2] in (" + ", " - "):
            parts.append((sign, text[start:i].strip()))
            sign, start = ch, i + 1
    parts.append((sign, text[start:].strip()))
    flip = {"+": "-", "-": "+"}
    return [(flip[s], t[1:].strip()) if t.startswith("-") else (s, t) for s, t in parts]


def mutate(text: str, line_index: int, rng: random.Random) -> str:
    """Double one top-level term of the claim on one step line."""
    lines = text.splitlines()
    head, _, claimed = lines[line_index].split("#", 1)[0].partition("=>")
    sign, term = rng.choice(_top_level_terms(claimed.strip()))
    lines[line_index] = f"{head.rstrip()} => {claimed.strip()} {sign} {term}"
    return "\n".join(lines) + "\n"


class Replay:
    """A round replays every one-term mutation of both shipped scripts (each
    stops at its mutated step) and each shipped script once per two of its
    mutations; the seed draws the doubled terms and the order."""

    name = "replay"

    def prepare(self, root: Path, work: Path, seed: int, mods) -> List[List[Task]]:
        rng = random.Random(f"replay:{seed}")
        proofs = root / "src" / "mnjordan" / "proofs"
        tasks = []
        for name in SCRIPTS:
            text = (proofs / name).read_text()
            # assume steps are skipped: their claims are unverified by design
            steps = [(i, label) for i, label, kind, claimed in _claimed_steps(text)
                     if kind != "assume" and claimed != "0"]
            for i, label in steps:
                path = work / f"{name[:-len('.steps')]}-{label}.steps"
                path.write_text(mutate(text, i, rng))
                tasks.append(Task("cli", f"{name} mutated at {label}",
                                  ["prove", str(path), "--format", "json"], {"mutated": label}))
            shipped = Task("cli", name, ["prove", str(proofs / name), "--format", "json"],
                           {"script": name})
            tasks += [shipped] * ((len(steps) + 1) // 2)
        rng.shuffle(tasks)
        return [tasks]

    def execute(self, task: Task, mods) -> dict:
        return run_cli(mods.cli, task.argv)

    def check(self, task: Task, out: dict, mods) -> Optional[str]:
        report = json.loads(out["stdout"])
        if "mutated" in task.expect:
            if out["code"] != 1 or report["overall"] != "FAILED":
                return f"mutation not rejected: exit {out['code']}, {report['overall']}"
            if report["failed_step"] != task.expect["mutated"]:
                return f"mutation rejected at {report['failed_step']}, not at {task.expect['mutated']}"
            return None
        if out["code"] != 2 or report["overall"] != "VERIFIED-WITH-ASSUMPTIONS":
            return f"shipped script: exit {out['code']}, {report['overall']}"
        got = sorted(map(_poly_values, report["consumed_factors"]))
        if got != sorted(map(_poly_values, SHIPPED_FACTORS[task.expect["script"]])):
            return f"consumed factors {report['consumed_factors']}"
        return None


# -- crosscheck ---------------------------------------------------------------------


def _crosscheck_weights(p: int) -> List[tuple]:
    """Weights coprime to p.  On Mat2(Z5) the torsion product is coprime to 5,
    so the theorem makes every solution a central scalar.  On Mat2(Z3) no
    weights do that; there m = n (mod 3) is used, and the check asks that
    the picked solution be a scalar that satisfies the law."""
    ws = [(m, n) for m in range(1, 7) for n in range(1, 7) if m % p and n % p]
    if p == 3:
        return [(m, n) for m, n in ws if (m - n) % 3 == 0]
    return [(m, n) for m, n in ws
            if math.gcd(oracle.torsion_product("gen-centralizer", m, n), p) == 1]


class Crosscheck:
    """For T = T0 = c*id every claimed identity of the centralizer script
    vanishes in the free algebra (each step is exact there), so it must hold
    at every pair of any ring; the xyx expansion also holds for every
    solution.  A non-solution must break the step that states the law."""

    name = "crosscheck"
    # per ring: identities for the solution group (None: every one), and for
    # the non-solution group besides the law step.  Mat2(Z3) stays a minority
    # so that the median task is a Mat2(Z5) identity.
    IDENTITIES = {5: (None, 2), 3: (20, 2)}

    def __init__(self):
        self._law_checked: Dict[tuple, bool] = {}
        self._live: Dict[int, dict] = {}  # per p: the ring, evaluator and maps in use

    def prepare(self, root: Path, work: Path, seed: int, mods) -> List[List[Task]]:
        rng = random.Random(f"crosscheck:{seed}")
        text = (root / "src" / "mnjordan" / "proofs" / SCRIPTS[0]).read_text()
        identities = [(label, claimed) for _, label, _, claimed in _claimed_steps(text)
                      if claimed != "0"]
        identities.append(("xyx-lemma", mods.finring.LEMMA_TEXTS["gen-centralizer"]))
        law_step = next(i for i, (label, _) in enumerate(identities) if label == "law")
        tasks = []
        for p, (k_sol, k_bad) in self.IDENTITIES.items():
            m, n = rng.choice(_crosscheck_weights(p))
            every = list(range(len(identities)))
            rng.shuffle(every)
            others = [i for i in every if i != law_step][:k_bad]
            groups = (("solution", every[:k_sol], {"pick": rng.randrange(1 << 30)}),
                      ("non-solution", [law_step] + others,
                       {"map": self._non_solution(oracle.mat2_ring(p), p, m, n, rng)}))
            for kind, ids, extra_expect in groups:
                for j, i in enumerate(ids):
                    label, claim = identities[i]
                    tasks.append(Task("identity", f"Mat2(Z{p}) {kind} {label}", expect=dict(
                        extra_expect, p=p, m=m, n=n, kind=kind, text=claim,
                        law_step=i == law_step, first=j == 0)))
        return [tasks]

    @staticmethod
    def _non_solution(ring, p, m, n, rng) -> List[List[int]]:
        """A seeded map T that breaks the law with T0 = 0."""
        zero = [[0] * 4 for _ in range(4)]
        while True:
            T = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
            if not oracle.law_holds(ring, "gen-centralizer", m, n, (T, zero)):
                return T

    def execute(self, task: Task, mods) -> dict:
        fr, e = mods.finring, task.expect
        g = self._live.setdefault(e["p"], {})
        if e["first"]:
            if e["kind"] == "solution":  # runs first in each round: builds the ring
                g["ring"] = fr.MatRing(2, e["p"])
                g["evaluator"] = fr.PairEvaluator(g["ring"])
                sols = fr.solve_identity(g["ring"], fr.LawSpec("gen-centralizer", e["m"], e["n"]))
                nonzero = [s for s in sols.maps() if s[0].matrix.any() or s[1].matrix.any()]
                T, T0 = nonzero[e["pick"] % len(nonzero)]
                g["count"] = sols.count
            else:
                T, T0 = fr.AddMap(g["ring"], e["map"]), fr.AddMap.zero(g["ring"])
            g["bound"] = {"T": T, "T0": T0, "F": fr.AddMap(g["ring"], T.matrix - T0.matrix)}
        poly = mods.parsing.parse_poly(e["text"])
        bound = g["bound"]
        return {"violation": g["evaluator"].first_violation(poly, bound, e["m"], e["n"]),
                "T": bound["T"].matrix.tolist(), "T0": bound["T0"].matrix.tolist(),
                "count": g.get("count")}

    def check(self, task: Task, out: dict, mods) -> Optional[str]:
        e = task.expect
        if e["kind"] == "non-solution":
            if e["law_step"] and out["violation"] is None:
                return "a non-solution satisfies the step that states the law"
            return None
        p = e["p"]
        c = oracle.mat2_is_scalar(out["T"], p)
        if not c or oracle.mat2_is_scalar(out["T0"], p) != c:
            return "picked solution is not a nonzero central scalar T = T0"
        if p == 5 and out["count"] != p:
            return f"{out['count']} solutions, expected the {p} central scalars"
        key = (p, e["m"], e["n"], c)
        if key not in self._law_checked:
            M = [[c if i == j else 0 for j in range(4)] for i in range(4)]
            self._law_checked[key] = oracle.law_holds(
                oracle.mat2_ring(p), "gen-centralizer", e["m"], e["n"], (M, M))
        if not self._law_checked[key]:
            return "picked solution does not satisfy the law"
        if out["violation"] is not None:
            return f"identity fails at {out['violation']} for a two-sided centralizer"
        return None


# -- finite rings -------------------------------------------------------------------


def _ring_report_reason(R, law, m, n, report, code) -> Optional[str]:
    """One ``mnjordan ring`` report (or search row) against the known answer."""
    got = report["hypotheses"]
    if got.get("semiprime") is None:
        return "defect:semiprime-unknown"
    want = oracle.expected_hypotheses(R, law, m, n)
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key} is {got.get(key)}, expected {value}"
    verdict, count = report["verdict"], report["solution_count"]
    if count > oracle.ENUMERATION_CUTOFF and (
            verdict == "conclusion-verified" or verdict.endswith("holds anyway")):
        return "defect:unchecked-verdict"
    if all(want.values()):
        if verdict != "conclusion-verified" or code != 0:
            return f"exit {code}, verdict {verdict!r} where the theorem applies"
        known = oracle.solution_count_mat2_family(R, law)
        if known is not None and count != known:
            return f"{count} solutions, expected {known}"
    elif not verdict.startswith("hypotheses-not-met") or code != 0:
        return f"exit {code}, verdict {verdict!r} where a hypothesis fails"
    return None


def _spec(work: Path, name: str, spec: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _product(*ns) -> dict:
    return {"kind": "product", "of": [{"kind": "Zn", "n": n} for n in ns]}


def _coprime_weights(law: str, characteristic: int) -> List[tuple]:
    return [(m, n) for m in range(1, 7) for n in range(1, 7)
            if not (law.endswith("derivation") and m == n)
            and math.gcd(oracle.torsion_product(law, m, n), characteristic) == 1]


class RingsLarge:
    """Every ring meets the hypotheses for the drawn weights, so each report
    must say conclusion-verified with |center| (centralizer laws) or 1
    (derivation laws) solutions.  A round runs each ring under each law, then
    one search with a plain and one with a generalized law, in a fixed order:
    the seed draws the weights, the two search laws and the prime order."""

    name = "rings-large"
    PRIMES = (5, 7, 11)

    def prepare(self, root: Path, work: Path, seed: int, mods) -> List[List[Task]]:
        rng = random.Random(f"rings-large:{seed}")
        product = {"kind": "product", "of": [{"kind": "Zn", "n": 5}, {"kind": "Mat", "k": 2, "p": 7}]}
        rings = [(f"Mat2(Z{p})", ["--kind", "Mat", "--k", "2", "--p", str(p)], oracle.mat2_ring(p))
                 for p in self.PRIMES]
        rings.append(("Z5+Mat2(Z7)", ["--spec", _spec(work, "z5_mat2z7", product)],
                      oracle.ring_from_spec(product)))
        tasks = []
        for name, ring_args, R in rings:
            for law in oracle.LAWS:
                m, n = rng.choice(_coprime_weights(law, R.characteristic))
                tasks.append(Task("cli", f"ring {name} {law} ({m},{n})",
                                  ["ring", *ring_args, "--law", law, "--m", str(m), "--n", str(n),
                                   "--format", "json"],
                                  {"rings": [R], "law": law, "m": m, "n": n}))
        for law in (rng.choice(oracle.LAWS[0::2]), rng.choice(oracle.LAWS[1::2])):
            m, n = rng.choice(_coprime_weights(law, math.prod(self.PRIMES)))
            primes = list(self.PRIMES)
            rng.shuffle(primes)
            tasks.append(Task("cli", f"search mat2 {law} ({m},{n})",
                              ["search", "--family", "mat2", "--primes", ",".join(map(str, primes)),
                               "--law", law, "--m", str(m), "--n", str(n), "--format", "json"],
                              {"rings": [oracle.mat2_ring(p) for p in primes],
                               "law": law, "m": m, "n": n, "search": True}))
        return [tasks]

    def execute(self, task: Task, mods) -> dict:
        return run_cli(mods.cli, task.argv)

    def check(self, task: Task, out: dict, mods) -> Optional[str]:
        e = task.expect
        payload = json.loads(out["stdout"])
        reports = payload if e.get("search") else [payload]
        if len(reports) != len(e["rings"]):
            return f"{len(reports)} rows for {len(e['rings'])} rings"
        reasons = [_ring_report_reason(R, e["law"], e["m"], e["n"], rep, out["code"])
                   for R, rep in zip(e["rings"], reports)]
        reasons = [x for x in reasons if x]
        real = [x for x in reasons if not x.startswith("defect:")]
        return (real or reasons or [None])[0]


class RingsSmall:
    """Every ring meets every law at every weight pair of ``WEIGHTS`` once
    per round, in seeded order, plus one profile task per ring and the
    overflow cases of the seed commit."""

    name = "rings-small"
    WEIGHTS = ((1, 2), (2, 1), (2, 3), (3, 2))
    PRIME_POWER = ((8, 4), (8, 8), (9, 3), (9, 9), (4, 4, 4), (8, 8, 4), (16, 16))
    # m + n = 4 on these 2-power products: the kernel is enumerated before it
    # is projected and overflows (ROADMAP Baseline); kept so the defect shows.
    OVERFLOW = (((8, 8, 4), "gen-derivation", 1, 3), ((8, 8, 4), "gen-derivation", 3, 1),
                ((8, 8, 4), "gen-centralizer", 1, 3), ((4, 4, 4), "gen-derivation", 1, 3))

    # 2048 solutions each; on the seed commit they take 2.6-4 s with a run-to-run
    # spread of 15%, so alone they would set the workload's throughput
    SLOW = {("Z8+Z8+Z4", "gen-centralizer", 1, 2), ("Z8+Z8+Z4", "gen-centralizer", 3, 2)}

    def rings(self, root: Path) -> List[tuple]:
        out = [(f"Z{n}", {"kind": "Zn", "n": n}) for n in range(2, 13)]
        out += [(f"Z{a}+Z{b}", _product(a, b)) for a in range(2, 7) for b in range(a, 7)]
        out += [(p.stem, p) for p in sorted((root / "src" / "mnjordan" / "rings").glob("*.json"))]
        out += [("+".join(f"Z{n}" for n in ns), _product(*ns)) for ns in self.PRIME_POWER]
        return out

    def prepare(self, root: Path, work: Path, seed: int, mods) -> List[List[Task]]:
        rng = random.Random(f"rings-small:{seed}")
        rings = {}
        for name, spec in self.rings(root):
            if isinstance(spec, Path):  # a shipped table, read where it lies
                rings[name] = (str(spec), oracle.ring_from_spec(json.loads(spec.read_text())))
            else:
                rings[name] = (_spec(work, name.replace("+", "_"), spec), oracle.ring_from_spec(spec))
        cases = [(name, law, m, n) for name in rings for law in oracle.LAWS for m, n in self.WEIGHTS
                 if (name, law, m, n) not in self.SLOW]
        cases += [("+".join(f"Z{k}" for k in ns), law, m, n) for ns, law, m, n in self.OVERFLOW]
        tasks = []
        for name, law, m, n in cases:
            path, R = rings[name]
            tasks.append(Task("cli", f"ring {name} {law} ({m},{n})",
                              ["ring", "--spec", path, "--law", law, "--m", str(m), "--n", str(n),
                               "--format", "json"],
                              {"ring": R, "path": path, "law": law, "m": m, "n": n}))
        tasks += [Task("profile", f"profile {name}", expect={"ring": R, "path": path})
                  for name, (path, R) in rings.items()]
        rng.shuffle(tasks)
        return [tasks]

    def execute(self, task: Task, mods) -> dict:
        if task.kind == "cli":
            return run_cli(mods.cli, task.argv)
        fr = mods.finring
        R = fr.from_spec(task.expect["path"])
        return {"semiprime": fr.is_semiprime(R), "prime": fr.is_prime(R), "center": len(fr.center(R))}

    def check(self, task: Task, out: dict, mods) -> Optional[str]:
        e = task.expect
        R = e["ring"]
        if task.kind == "profile":
            want = {"semiprime": oracle.semiprime(R), "prime": oracle.prime(R),
                    "center": oracle.center_size(R)}
            got = {k: out[k] for k in want}
            return None if got == want else f"profile {got}, expected {want}"
        report = json.loads(out["stdout"])
        reason = _ring_report_reason(R, e["law"], e["m"], e["n"], report, out["code"])
        if reason or R.order > oracle.BRUTE_FORCE_ORDER:
            return reason
        want = oracle.brute_solutions(R, e["law"], e["m"], e["n"])
        if report["solution_count"] != len(want):
            return f"{report['solution_count']} solutions, brute force finds {len(want)}"
        fr = mods.finring
        sols = fr.solve_identity(fr.from_spec(e["path"]), fr.LawSpec(e["law"], e["m"], e["n"]))
        got = set()
        for entry in sols.maps():
            maps = entry if isinstance(entry, tuple) else (entry,)
            got.add(tuple(int(v) for M in maps for v in M.matrix.ravel()))
        return None if got == want else "solution set differs from brute force"


WORKLOADS = {w.name: w for w in (Replay(), Crosscheck(), RingsLarge(), RingsSmall())}
