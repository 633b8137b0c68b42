"""Certificate checker for equational proof scripts.

A proof script is a line-oriented file::

    theorem <name>
    budget <factor> <factor> ...
    step <label> <kind> <args...> => <claimed polynomial>
    goal <label>

Each step cites previously verified identities and claims the polynomial
resulting from one primitive move.  The checker recomputes that move with
the free-algebra engine and accepts the step only if the claimed polynomial
is exactly the computed one (after normalization under the currently
licensed rewrite rules).  No search happens anywhere: the script carries
every witness.

Every step takes one path: compute the polynomial it must claim, then
compare.  The claim is first compared, as a string, with the printed normal
form of the computed polynomial (``poly_to_text``); only when the texts
differ is it parsed and normalized, to accept an equal claim spelled
differently or to report the difference.  This is sound because printing
round-trips: ``normalize(parse_poly(poly_to_text(p)), rules) == p`` for
every ``p`` normalized under ``rules``.  An ``assume`` step and the two
license steps compute their polynomial by parsing their claim, so theirs
needs no compare.  A step parses its claim at most once.

Step kinds
----------

define        claimed is an instance of one of the four defining laws, or a
              map-difference introduction (``diff=F,T,T0`` meaning F = T - T0).
substitute    ``use=L gen=g with=P``: replace g by P in identity L.
polarize      ``use=L gen=g``: even part in g; consumes the factor 2.
mulleft /     ``use=L by=TERM``: multiply by a single term from that side.
mulright
combine       witness list ``c1*u1*[L1 | x -> P]*v1 + c2*[L2] + ...``, a
              polynomial expression in which each term is scalars and single
              monomials times one citation (see ``parsing``); claimed =
              normalize of the sum.  The list is parsed when its step runs,
              so a malformed one fails that step; its citations are checked
              against the labels before replay starts.
cancel        ``use=L factor=C``: exact division by C; C must factor over
              the script's torsion budget.
patternabc    ``use=L gen=g a=A b=B c=C``: L must read A*g*B + B*g*C = 0;
              emits (A+C)*g*B = 0 (semiprimeness of the coefficient lemma).
squash        ``use=L gen=g w=W``: L must read W*g*W = 0; emits W = 0
              (semiprimeness).
external      one of the named audited theorems:
              ``commuting use=L map=M``   from [[M(x),x],x] = 0 emit [M(x),x] = 0
              ``t0-two-sided use=L``      license the two-sided collapse rule
              ``d-central-derivation use=L``  license the derivation rules
assume        emits the claimed identity unverified (flagged in the report).

``gen=`` must name a generator, ``x`` or ``y``.  A missing or malformed step
argument (``use``, ``gen``, ``with``, ``by``, ``factor``, a witness) fails its
step, like a wrong claim: the replay reports FAILED and ``prove`` exits 1.
A parse error in an argument is reported with the argument's name
(``by=: ...``).  An expansion above a size bound (an exponent above
``parsing.MAX_EXPONENT``, or a product of more than
``freealg.MAX_PRODUCT_PAIRS`` pairs of terms), and an integer of more
digits than Python reads or prints (a literal in the script, or a
coefficient of a result), are size limits, not failed steps: their
``freealg.PowerSizeError`` ends the replay, and ``prove`` exits 3.
"""

from __future__ import annotations

import functools
import json
import re
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import freealg
from .freealg import MAP_KINDS, NO_RULES, NCPoly
from .laws import TABLE
from .parsing import (
    ParseError,
    cited_labels,
    parse_combination,
    parse_monomial,
    parse_poly,
    parse_scalar,
    poly_to_text,
)
from .scalars import ExactDivisionError, ScalarPoly


class ScriptError(ValueError):
    """Malformed proof script (syntax, unknown kinds, undefined labels)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class CheckError(ValueError):
    """A step failed verification."""


# what a failing step raises; replay reports each as that step's FAIL
STEP_ERRORS = (
    CheckError,
    ParseError,
    ExactDivisionError,
    freealg.NormalizeError,
    freealg.NestingError,
)


# step kind -> the label of a claim that differs from the computed polynomial;
# assume and the licenses compute their polynomial from the claim, so they
# never compare
MISMATCH = {
    "define": "definition instance mismatch",
    "substitute": "substitution result mismatch",
    "polarize": "even-part mismatch",
    "mulleft": "product mismatch",
    "mulright": "product mismatch",
    "combine": "combination mismatch",
    "cancel": "quotient mismatch",
    "patternabc": "emitted identity mismatch",
    "squash": "emitted identity mismatch",
    "external": "emitted identity mismatch",
    "assume": "",
}

EXTERNAL_THEOREMS = {
    "commuting": "an additive map with [[M(x),x],x] = 0 on a 2-torsion free "
                 "semiprime ring is commuting",
    "t0-two-sided": "a weighted Jordan centralizer on an mn(m+n)-torsion free "
                    "semiprime ring is a two-sided centralizer",
    "d-central-derivation": "a weighted Jordan derivation on an mn(m+n)|m-n|-"
                            "torsion free semiprime ring is a derivation into "
                            "the center",
}

# license theorem, which is also the rewrite rule it licenses ->
# (law of the cited define, map kind)
LICENSES = {
    "t0-two-sided": ("centralizer", "two-sided-centralizer"),
    "d-central-derivation": ("derivation", "central-derivation"),
}

LAW_TEMPLATES = {name: law.template() for name, law in TABLE.items()}


@dataclass
class Identity:
    body: NCPoly
    law: Optional[Tuple[str, str]] = None  # (law, map) of a define step


@dataclass
class Step:
    label: str
    kind: str
    args: Dict[str, str]
    claimed_text: str
    line: int


@dataclass
class ProofScript:
    name: str
    budget: List[ScalarPoly]
    steps: List[Step]
    goals: List[str]


@dataclass
class StepRecord:
    step: str
    kind: str
    verdict: str
    factors: List[str] = field(default_factory=list)
    axioms: List[str] = field(default_factory=list)
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "kind": self.kind,
            "verdict": self.verdict,
            "factors": self.factors,
            "axioms": self.axioms,
        }


@dataclass
class AuditReport:
    script: str
    overall: str
    records: List[StepRecord]
    consumed_factors: List[str]
    external_theorems: List[str]
    assumptions: List[str]
    failed_step: Optional[str] = None
    error: str = ""
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "script": self.script,
            "overall": self.overall,
            "failed_step": self.failed_step,
            "error": self.error,
            "consumed_factors": self.consumed_factors,
            "external_theorems": self.external_theorems,
            "assumptions": self.assumptions,
            "seconds": round(self.seconds, 3),
            "steps": [r.to_json() for r in self.records],
        }

    def to_text(self) -> str:
        lines = [f"script: {self.script}"]
        for r in self.records:
            extra = ""
            if r.factors:
                extra += "  factors: " + ", ".join(r.factors)
            if r.axioms:
                extra += "  axioms: " + ", ".join(r.axioms)
            if "assumption" in r.axioms:
                extra += "  ASSUMED"
            lines.append(f"  {r.verdict:4s}  {r.step:10s} {r.kind}{extra}")
            if r.detail and r.verdict == "FAIL":
                lines.append(f"        {r.detail}")
        lines.append(f"consumed torsion factors: {', '.join(self.consumed_factors) or 'none'}")
        lines.append(f"external theorems: {', '.join(self.external_theorems) or 'none'}")
        lines.append(f"assumptions: {', '.join(self.assumptions) or 'none'}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines)


# -- script parsing ---------------------------------------------------------------

_KEY_RE = re.compile(r"(\w[\w-]*)=")


def _split_args(rest: str, line: int) -> Dict[str, str]:
    """Split ``key=value key=value`` where values run to the next key; a key
    given twice is a ScriptError at that line."""
    out: Dict[str, str] = {}
    matches = list(_KEY_RE.finditer(rest))
    head = rest[: matches[0].start()].strip() if matches else rest.strip()
    if head:
        out[""] = head
    for i, m in enumerate(matches):
        if m.group(1) in out:
            raise ScriptError(f"step argument {m.group(1)!r} given twice", line)
        end = matches[i + 1].start() if i + 1 < len(matches) else len(rest)
        out[m.group(1)] = rest[m.end() : end].strip()
    return out


def parse_script(text: str, name: str = "<script>") -> ProofScript:
    theorem = name
    budget: List[ScalarPoly] = []
    budget_line = None
    steps: List[Step] = []
    goals: List[str] = []
    labels = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "theorem":
            theorem = rest or theorem
        elif head == "budget":
            if budget_line is not None:
                raise ScriptError(f"a second 'budget' line; the first is line {budget_line}",
                                  line_no)
            budget_line = line_no
            try:
                budget = [parse_scalar(tok) for tok in rest.split()]
            except ParseError as exc:
                raise ScriptError(f"bad budget entry: {exc}", line_no) from None
            if any(b.is_zero() for b in budget):
                raise ScriptError("budget entry 0: every torsion factor must be nonzero", line_no)
        elif head == "goal":
            goals.append(rest)
        elif head == "step":
            body, sep, claimed = rest.partition("=>")
            if not sep:
                raise ScriptError("step has no '=>' claimed polynomial", line_no)
            parts = body.strip().split(None, 2)
            if len(parts) < 2:
                raise ScriptError("step needs a label and a kind", line_no)
            label, kind = parts[0], parts[1]
            argtext = parts[2] if len(parts) > 2 else ""
            if kind not in MISMATCH:
                raise ScriptError(f"unknown step kind {kind!r}", line_no)
            if label in labels:
                raise ScriptError(f"duplicate label {label!r}", line_no)
            labels.add(label)
            steps.append(Step(label, kind, _split_args(argtext, line_no), claimed.strip(), line_no))
        else:
            raise ScriptError(f"unknown directive {head!r}", line_no)
    script = ProofScript(theorem, budget, steps, goals)
    _check_references(script)
    return script


def _check_references(script: ProofScript) -> None:
    """Every citation must follow its target.  A combine's citations are read
    from the tokens of its witness list, which is parsed when its step runs."""
    seen = set()
    for step in script.steps:
        refs = [step.args["use"]] if "use" in step.args else []
        if step.kind == "combine":
            try:
                refs += cited_labels(step.args.get("", ""))
            except ParseError as exc:
                raise ScriptError(f"bad combine witnesses: {exc}", step.line) from None
        for ref in refs:
            if ref not in seen:
                raise ScriptError(
                    f"step {step.label!r} cites {ref!r} before it is defined", step.line
                )
        seen.add(step.label)
    for goal in script.goals:
        if goal not in seen:
            raise ScriptError(f"goal {goal!r} is not a step label")


# -- the checker -------------------------------------------------------------------


class _Env:
    def __init__(self, budget: List[ScalarPoly]):
        self.identities: Dict[str, Identity] = {}
        self.rules: FrozenSet[str] = NO_RULES
        self.budget = budget

    def body(self, label: str) -> NCPoly:
        """The identity under the rules in force."""
        return freealg.normalize(self.identities[label].body, self.rules)


def _difference_text(claimed: NCPoly, computed: NCPoly) -> str:
    diff = claimed - computed
    terms = []
    for w, c in diff.sorted_terms():
        terms.append(f"({c}) * {NCPoly.word(w).to_text()}")
    return "claimed - computed = " + "  +  ".join(terms)


def _require_match(claimed: NCPoly, computed: NCPoly, what: str) -> None:
    if claimed != computed:
        raise CheckError(f"{what}: {_difference_text(claimed, computed)}")


def _budget_factor_check(factor: ScalarPoly, budget: List[ScalarPoly]) -> None:
    """factor must be a unit times a product of budget members."""
    if not budget:
        raise CheckError("cancel used but the script declares no torsion budget")
    if factor.is_zero():
        raise CheckError("torsion factor 0 cannot be cancelled")
    rem = factor
    while not rem.is_unit():
        # a division by a non-unit shrinks rem, so the loop ends
        for b in budget:
            if b.is_unit():
                continue
            q = rem.quotient(b)
            if q is not None:
                rem = q
                break
        else:
            raise CheckError(
                f"factor {factor} does not lie in the multiplicative closure "
                f"of the budget {{{', '.join(str(b) for b in budget)}}}; stuck at {rem}"
            )


def _parse_claim(step: Step, rules: FrozenSet[str]) -> NCPoly:
    try:
        return freealg.normalize(parse_poly(step.claimed_text), rules)
    except (ParseError, freealg.NormalizeError) as exc:
        raise CheckError(f"bad claimed polynomial: {exc}") from None


def check_step(env: _Env, step: Step) -> Tuple[Identity, StepRecord]:
    record = StepRecord(step.label, step.kind, "ok")
    # an assume or license step computes its polynomial by parsing its claim
    licenses = step.kind == "external" and step.args.get("") in LICENSES
    claim = _parse_claim(step, env.rules) if step.kind == "assume" or licenses else None
    try:
        computed, law = _compute(env, step, record, claim)
    except STEP_ERRORS:
        if claim is None:
            _parse_claim(step, env.rules)  # a malformed claim is reported first
        raise
    # normalize(parse(poly_to_text(p))) == p for every normalized p, so a
    # claim that reads exactly as the printed result needs no parsing
    if claim is None and step.claimed_text != poly_to_text(computed):
        _require_match(_parse_claim(step, env.rules), computed, MISMATCH[step.kind])
    if step.kind == "polarize":
        # keeping only the doubled even part silently halves, which needs
        # 2-torsion freeness
        _budget_factor_check(ScalarPoly.const(2), env.budget)
    return Identity(computed, law), record


def _compute(
    env: _Env, step: Step, record: StepRecord, claim: Optional[NCPoly]
) -> Tuple[NCPoly, Optional[Tuple[str, str]]]:
    """The polynomial a step must claim, and the (law, map) pair of a define
    step that instantiates a law.  ``claim`` is the parsed claim of a step
    that computes its polynomial from it.  A branch that builds a polynomial
    falls through to the one normalize at the end; define, assume, the
    licenses and squash return one that is already normal."""
    kind = step.kind
    args = step.args

    def need(key: str, placeholder: str) -> str:
        value = args.get(key)
        if value is None:
            raise CheckError(f"{kind} needs {key}=<{placeholder}>")
        return value

    def parsed(key: str, placeholder: str, parse):
        """A step argument read by ``parse``; a parse error names the argument."""
        try:
            return parse(need(key, placeholder))
        except ParseError as exc:
            raise CheckError(f"{key}=: {exc}") from None

    def cited() -> NCPoly:
        return env.body(need("use", "label"))

    def generator() -> str:
        g = args.get("gen")
        if g not in freealg.GENERATORS:
            raise CheckError(f"{kind} needs gen=x or gen=y, got {g!r}")
        return g

    def witnesses(g: str, *names: str) -> List[NCPoly]:
        out = []
        for name in names:
            p = freealg.normalize(parsed(name, "polynomial", parse_poly), env.rules)
            if any(freealg.word_gen_degree(w, g) for w in p.terms):
                raise CheckError(f"{kind} witness {name} must not contain {g}")
            out.append(p)
        return out

    if kind == "define":
        return _define_body(env, args)

    if kind == "assume":
        record.axioms.append("assumption")
        return claim, None

    if kind == "external" and args.get("") in LICENSES:
        name = args[""]
        # the claim parses, cites the right define and is 0; only then is
        # the rule licensed
        record.axioms.append(name)
        _require_license_input(env, args, *LICENSES[name])
        if not claim.is_zero():
            raise CheckError("license steps claim 0")
        env.rules = env.rules | {name}
        return claim, None

    if kind == "squash":
        g = generator()
        (w,) = witnesses(g, "w")
        gpoly = freealg.gen(g)
        shape = freealg.normalize(w * gpoly * w, env.rules)
        _require_match(cited(), shape, "cited identity is not of the W*g*W shape")
        record.axioms.append("semiprime-squash")
        return w, None

    if kind == "substitute":
        g = generator()
        repl = parsed("with", "polynomial", parse_poly)
        computed = freealg.substitute(cited(), g, repl)

    elif kind == "polarize":
        g = generator()
        computed = freealg.polarize_even(cited(), g)
        record.factors.append("2")

    elif kind in ("mulleft", "mulright"):
        coeff, word = parsed("by", "term", parse_monomial)
        factor = NCPoly.word(word, coeff)
        base = cited()
        computed = freealg.mul(factor, base) if kind == "mulleft" else freealg.mul(base, factor)

    elif kind == "combine":

        def cite(label: str, subst: Dict[str, NCPoly]) -> NCPoly:
            body = env.body(label)
            return freealg.substitute_multi(body, subst) if subst else body

        try:
            computed = parse_combination(args.get("", ""), cite)
        except ParseError as exc:
            raise CheckError(f"line {step.line}: bad combine witnesses: {exc}") from None

    elif kind == "cancel":
        factor = parsed("factor", "scalar", parse_scalar)
        _budget_factor_check(factor, env.budget)
        try:
            computed = freealg.exact_divide(cited(), factor)
        except ExactDivisionError as exc:
            raise CheckError(f"torsion cancellation is not exact: {exc}") from None
        record.factors.append(str(factor))

    elif kind == "patternabc":
        g = generator()
        a, b, c = witnesses(g, "a", "b", "c")
        gpoly = freealg.gen(g)
        shape = freealg.normalize(a * gpoly * b + b * gpoly * c, env.rules)
        _require_match(cited(), shape, "cited identity is not of the a*g*b + b*g*c shape")
        computed = (a + c) * gpoly * b
        record.axioms.append("pattern-lemma[semiprime]")

    else:  # external: commuting is the one theorem that licenses no rule
        name = args.get("", "")
        if name != "commuting":
            raise CheckError(f"unknown external theorem {name!r}")
        record.axioms.append(name)
        sym = args.get("map", "")
        if sym not in MAP_KINDS:
            raise CheckError(f"commuting needs map=<symbol>, got {sym!r}")
        mx = freealg.app(sym, freealg.gen("x"))
        x = freealg.gen("x")
        double = freealg.commutator(freealg.commutator(mx, x), x)
        _require_match(
            cited(),
            freealg.normalize(double, env.rules),
            "cited identity is not the double commutator [[M(x),x],x]",
        )
        computed = freealg.commutator(mx, x)

    return freealg.normalize(computed, env.rules), None


def _define_body(env: _Env, args: Dict[str, str]) -> Tuple[NCPoly, Optional[Tuple[str, str]]]:
    if "diff" in args:
        names = [s.strip() for s in args["diff"].split(",")]
        if len(names) != 3 or any(s not in MAP_KINDS for s in names):
            raise CheckError(f"diff needs three map symbols, got {args['diff']!r}")
        f, t, t0 = names
        body = parse_poly(f"{f}[x] - {t}[x] + {t0}[x]")
        return freealg.normalize(body, env.rules), None
    law = args.get("law")
    if law not in TABLE:
        raise CheckError(f"unknown law {law!r}")
    if TABLE[law].generalized:
        names = [s.strip() for s in args.get("maps", "").split(",")]
        if len(names) != 2:
            raise CheckError("generalized laws need maps=<M>,<M0>")
        main, base = names
    else:
        main = base = args.get("map", "").strip()
    if main not in MAP_KINDS or base not in MAP_KINDS:
        raise CheckError(f"unknown map symbol in {args!r}")
    return freealg.normalize(_law_poly(law, main, base), env.rules), (law, main)


@functools.lru_cache(maxsize=None)
def _law_poly(law: str, main: str, base: str) -> NCPoly:
    """The parsed template of a law on the maps main and base, parsed once
    per law and pair of map symbols (at most 4 x 25)."""
    return parse_poly(LAW_TEMPLATES[law].format(M=main, M0=base))


def _require_license_input(env: _Env, args: Dict[str, str], law: str, kind: str) -> None:
    label = args.get("use")
    if label is None:
        raise CheckError("license steps cite the defining law with use=<label>")
    defined = env.identities[label].law
    if defined is None or defined[0] != law:
        raise CheckError(f"cited identity {label!r} is not a define of the {law} law")
    sym = defined[1]
    if MAP_KINDS.get(sym) != kind:
        raise CheckError(f"map {sym!r} does not carry the {kind} kind")


def replay(script: ProofScript) -> AuditReport:
    t0 = time.monotonic()
    env = _Env(script.budget)
    records: List[StepRecord] = []
    consumed: List[str] = []
    externals: List[str] = []
    assumptions: List[str] = []
    overall = "VERIFIED"
    failed = None
    error = ""
    for step in script.steps:
        try:
            ident, record = check_step(env, step)
        except STEP_ERRORS as exc:
            record = StepRecord(step.label, step.kind, "FAIL", detail=str(exc))
            records.append(record)
            overall = "FAILED"
            failed = step.label
            error = str(exc)
            break
        env.identities[step.label] = ident
        records.append(record)
        consumed.extend(record.factors)
        for ax in record.axioms:
            if ax in EXTERNAL_THEOREMS and ax not in externals:
                externals.append(ax)
        if step.kind == "assume":
            assumptions.append(step.label)
    if overall != "FAILED":
        missing = [g for g in script.goals if g not in env.identities]
        if missing or not script.goals:
            overall = "FAILED"
            error = (
                f"goal {missing[0]!r} was never verified" if missing else "script declares no goal"
            )
        elif assumptions:
            overall = "VERIFIED-WITH-ASSUMPTIONS"
    return AuditReport(
        script=script.name,
        overall=overall,
        records=records,
        consumed_factors=consumed,
        external_theorems=externals,
        assumptions=assumptions,
        failed_step=failed,
        error=error,
        seconds=time.monotonic() - t0,
    )


def replay_text(text: str, name: str = "<script>") -> AuditReport:
    return replay(parse_script(text, name))


def report_to_json_text(report: AuditReport) -> str:
    return json.dumps(report.to_json(), indent=2)
