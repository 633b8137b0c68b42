import random
import re

import pytest

from mnjordan import freealg as fa
from mnjordan import parsing
from mnjordan import proofcheck as pc
from mnjordan.parsing import parse_poly as P
from tests.util import mutate_script, shipped_script


def replay_lines(*lines):
    return pc.replay_text("\n".join(lines))


def test_parse_script_structure():
    script = pc.parse_script(
        "theorem demo\n"
        "budget 2 m\n"
        "# comment\n"
        "step a define law=centralizer map=T0 => (m+n)*T0[x^2] - m*T0[x]*x - n*x*T0[x]\n"
        "goal a\n"
    )
    assert script.name == "demo"
    assert [str(b) for b in script.budget] == ["2", "m"]
    assert [s.label for s in script.steps] == ["a"]
    assert script.goals == ["a"]


def test_parse_errors():
    with pytest.raises(pc.ScriptError):
        pc.parse_script("step a frobnicate => 0")
    with pytest.raises(pc.ScriptError):
        pc.parse_script("step a define law=centralizer map=T0\n")  # no =>
    with pytest.raises(pc.ScriptError):
        pc.parse_script("step a substitute use=new99 gen=x with=y => 0")
    with pytest.raises(pc.ScriptError):
        pc.parse_script("unknown_directive hello")
    with pytest.raises(pc.ScriptError):
        pc.parse_script(
            "step a assume => T[x]\nstep a assume => T[x]\n"
        )  # duplicate label


def test_empty_script_fails_cleanly():
    report = pc.replay(pc.parse_script(""))
    assert report.overall == "FAILED"
    assert not report.records
    assert "goal" in report.error


def test_goal_must_be_a_verified_step():
    with pytest.raises(pc.ScriptError):
        pc.parse_script("goal nowhere\n")


def test_define_and_license_flow():
    report = replay_lines(
        "budget 2 m n m+n",
        "step d define law=derivation map=D => (m+n)*D[x^2] - 2*m*D[x]*x - 2*n*x*D[x]",
        "step lic external d-central-derivation use=d => 0",
        "step leib assume => D[x*y] - x*D[y] - y*D[x]",
        "goal leib",
    )
    # after the license the assumed body normalizes to zero, so three steps pass
    assert report.overall == "VERIFIED-WITH-ASSUMPTIONS"


def test_define_rejects_wrong_instance():
    report = replay_lines(
        "step d define law=derivation map=D => (m+n)*D[x^2] - 2*m*D[x]*x - n*x*D[x]",
        "goal d",
    )
    assert report.overall == "FAILED"
    assert report.failed_step == "d"
    assert "claimed - computed" in report.error


def test_license_requires_the_right_define():
    report = replay_lines(
        "step w define law=centralizer map=T => (m+n)*T[x^2] - m*T[x]*x - n*x*T[x]",
        "step lic external t0-two-sided use=w => 0",
        "goal lic",
    )
    assert report.overall == "FAILED"
    assert "kind" in report.error


T0_LAW = "step t0law define law=centralizer map=T0 => (m+n)*T0[x^2] - m*T0[x]*x - n*x*T0[x]"


@pytest.mark.parametrize("lines, prefix", [
    (["step a assume => T[x"], "bad claimed polynomial"),
    # the malformed claim is reported before the cited assume
    (["step a assume => T[x]", "step lic external t0-two-sided use=a => T[x"],
     "bad claimed polynomial"),
    (["step a assume => T[x]", "step lic external t0-two-sided use=a => 0"],
     "cited identity 'a' is not a define of the centralizer law"),
    ([T0_LAW, "step lic external t0-two-sided => 0"],
     "license steps cite the defining law with use=<label>"),
    ([T0_LAW, "step lic external t0-two-sided use=t0law => T0[x]"], "license steps claim 0"),
    ([T0_LAW, "step lic external frobnicate use=t0law => 0"],
     "unknown external theorem 'frobnicate'"),
], ids=["assume-malformed", "license-malformed-over-bad-use", "license-cites-assume",
        "license-without-use", "license-nonzero", "external-unknown"])
def test_assume_and_license_errors(lines, prefix):
    label = lines[-1].split()[1]
    report = replay_lines(*lines, f"goal {label}")
    assert report.overall == "FAILED"
    assert report.failed_step == label
    assert report.error.startswith(prefix), report.error
    assert report.records[-1].verdict == "FAIL"
    # a failed assume step is not reported as an assumption
    fail_line = next(line for line in report.to_text().splitlines() if "FAIL " in line)
    assert "ASSUMED" not in fail_line and label not in report.assumptions


@pytest.mark.parametrize("step, message", [
    ("substitute gen=x with=y => 0", "substitute needs use=<label>"),
    ("substitute use=a gen=x => 0", "substitute needs with=<polynomial>"),
    ("mulright use=a => 0", "mulright needs by=<term>"),
    ("cancel use=a => 0", "cancel needs factor=<scalar>"),
    ("patternabc use=a gen=y a=x b=x => 0", "patternabc needs c=<polynomial>"),
    ("squash use=a gen=y w=T[y] => T[y]", "squash witness w must not contain y"),
    ("external commuting map=T => 0", "external needs use=<label>"),
    ("mulleft use=a by= => 0", "by=: unexpected end of expression (at column 1)"),
    ("substitute use=a gen=x with=T[ => 0", "with=: unexpected end of expression (at column 3)"),
    ("substitute use=a gen=x with=x +   ] => 0", "with=: unexpected token ']' (at column 7)"),
    ("cancel use=a factor=x => 0", "factor=: 'x' is not a scalar polynomial"),
    ("patternabc use=a gen=y a= b=x c=x => 0", "a=: unexpected end of expression (at column 1)"),
], ids=["use", "with", "by", "factor", "witness", "witness-with-gen", "commuting-use",
        "empty-by", "open-with", "with-column", "factor-not-scalar", "empty-witness"])
def test_a_missing_or_bad_argument_fails_its_step(step, message):
    report = replay_lines("budget 2", "step a assume => T[x]*y*x", f"step s {step}", "goal s")
    assert report.failed_step == "s"
    assert report.error == message


def test_cancel_respects_budget_and_exactness():
    base = [
        "budget m",
        "step a assume => 2*m*T[x]*y",
    ]
    ok = replay_lines(*base, "step b cancel use=a factor=m => 2*T[x]*y", "goal b")
    assert ok.overall == "VERIFIED-WITH-ASSUMPTIONS"
    out_of_budget = replay_lines(
        *base, "step b cancel use=a factor=2*m => T[x]*y", "goal b"
    )
    assert out_of_budget.overall == "FAILED"
    assert "closure" in out_of_budget.error
    inexact = replay_lines(
        "budget 2 m", *base[1:], "step b cancel use=a factor=2*m^2 => T[x]*y", "goal b"
    )
    assert inexact.overall == "FAILED"
    assert "not exact" in inexact.error


def test_patternabc_and_squash_shapes():
    lines = [
        "budget 2",
        "step a assume => T[x]*y*x - x*y*T[x]",
        "step b patternabc use=a gen=y a=T[x] b=x c=-T[x] => 0",
    ]
    report = replay_lines(*lines, "goal b")
    # T[x]*y*x + x*y*(-T[x]) matches the shape; emits (T[x]-T[x])*y*x = 0
    assert report.records[-1].verdict == "ok"

    bad = replay_lines(
        "step a assume => T[x]*y*x",
        "step b patternabc use=a gen=y a=T[x] b=x c=-T[x] => 0",
        "goal b",
    )
    assert bad.overall == "FAILED"

    squash = replay_lines(
        "step a assume => T[x]*y*T[x]",
        "step w squash use=a gen=y w=T[x] => T[x]",
        "goal w",
    )
    assert squash.records[-1].verdict == "ok"
    bad_squash = replay_lines(
        "step a assume => T[x]*y*T[y]",
        "step w squash use=a gen=y w=T[x] => T[x]",
        "goal w",
    )
    assert bad_squash.overall == "FAILED"


def test_pattern_witnesses_must_avoid_the_middle_generator():
    report = replay_lines(
        "step a assume => T[y]*y*x + x*y*T[y]",
        "step b patternabc use=a gen=y a=T[y] b=x c=T[y] => 2*T[y]*y*x",
        "goal b",
    )
    assert report.overall == "FAILED"
    assert "must not contain" in report.error


def test_commuting_external_shape():
    dd = fa.normalize(
        fa.commutator(fa.commutator(P("T[x]"), P("x")), P("x")), fa.NO_RULES
    )
    report = replay_lines(
        "step a assume => " + dd.to_text(),
        "step c external commuting use=a map=T => T[x]*x - x*T[x]",
        "goal c",
    )
    assert report.records[-1].verdict == "ok"
    report = replay_lines(
        "step a assume => T[x]*x - x*T[x]",
        "step c external commuting use=a map=T => T[x]*x - x*T[x]",
        "goal c",
    )
    assert report.overall == "FAILED"


def test_combine_soundness_forward_random():
    rng = random.Random(7)
    from mnjordan.parsing import parse_scalar
    from tests.test_freealg import random_poly

    substitutions = [{}, {"x": "x*y"}, {"y": "x + y"}, {"x": "y", "y": "x"},
                     {"x": "2*x^2", "y": "y*x - x"}]
    for _ in range(25):
        bodies = [random_poly(rng) for _ in range(3)]
        coeffs = [rng.choice(["1", "-1", "m", "n", "m+n", "2"]) for _ in range(3)]
        contexts = [rng.choice(["", "x", "y", "x*y"]) for _ in range(3)]
        rights = [rng.choice(["", "y", "x^2", "T[y]*x"]) for _ in range(3)]
        substs = [rng.choice(substitutions) for _ in range(3)]
        witness_text = []
        total = fa.NCPoly.zero()
        for i, (body, c, u, v, sub) in enumerate(zip(bodies, coeffs, contexts, rights, substs)):
            left = f"{u}*" if u else ""
            right = f"*{v}" if v else ""
            bar = " | " + "; ".join(f"{g} -> {t}" for g, t in sub.items()) if sub else ""
            witness_text.append(f"({c})*{left}[a{i}{bar}]{right}")
            part = fa.scale(parse_scalar(c), body)
            if sub:
                part = fa.substitute_multi(part, {g: P(t) for g, t in sub.items()})
            if u:
                part = fa.mul(P(u), part)
            if v:
                part = fa.mul(part, P(v))
            total = total + part
        # no license steps appear in this synthetic script
        total = fa.normalize(total, fa.NO_RULES)
        lines = [f"step a{i} assume => {b.to_text()}" for i, b in enumerate(bodies)]
        lines.append(
            "step c combine " + " + ".join(witness_text) + " => " + total.to_text()
        )
        lines.append("goal c")
        good = replay_lines(*lines)
        assert good.overall == "VERIFIED-WITH-ASSUMPTIONS", good.error

        # perturb one coefficient of the claimed polynomial: must be rejected
        perturbed = total + P("x*y")
        lines[-2] = (
            "step c combine " + " + ".join(witness_text) + " => " + perturbed.to_text()
        )
        bad = replay_lines(*lines)
        assert bad.overall == "FAILED"
        assert bad.failed_step == "c"


# -- witness lists, parsed when their step runs ----------------------------------


def _with_witnesses(text, label, witnesses):
    """The script with the witness list of combine step ``label`` replaced."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"step {label} combine "):
            lines[i] = f"step {label} combine {witnesses} =>" + line.split("=>", 1)[1]
            return "\n".join(lines) + "\n", i + 1
    raise AssertionError(f"no combine step {label}")


def test_a_malformed_witness_list_fails_its_step(capsys, tmp_path):
    from mnjordan import cli

    text, line = _with_witnesses(shipped_script("theorem_centralizer.steps"), "e5_raw",
                                 "[e4] - [e3]^2")
    report = pc.replay_text(text)
    assert report.failed_step == "e5_raw"
    assert report.error.startswith(f"line {line}: bad combine witnesses: ")
    assert re.search(r"\(at column \d+\)$", report.error), report.error
    assert [r.verdict for r in report.records[:-1]] == ["ok"] * (len(report.records) - 1)
    path = tmp_path / "broken.steps"
    path.write_text(text)
    assert cli.main(["prove", str(path)]) == cli.EXIT_FAILED
    assert capsys.readouterr().err == ""
    # an earlier failing step is reported first: the list is never parsed
    earlier = _with_claim(text, "lin", "2*T[x*y]")
    report = pc.replay_text(earlier)
    assert report.failed_step == "lin"
    assert report.error.startswith("combination mismatch")


@pytest.mark.parametrize("witnesses, message", [
    ("[e3] + [e5]", "cites 'e5' before it is defined"),
    ("[e4] - ([nowhere])", "cites 'nowhere' before it is defined"),
    ("[e4] - T[[nowhere]]", "cites 'nowhere' before it is defined"),
    ("[e4] - [e3] $ x", "bad combine witnesses: unexpected character '$'"),
])
def test_citations_and_tokens_of_witness_lists_are_checked_before_replay(witnesses, message):
    text, line = _with_witnesses(shipped_script("theorem_centralizer.steps"), "e5_raw",
                                 witnesses)
    with pytest.raises(pc.ScriptError, match=re.escape(f"line {line}: ") + ".*" + re.escape(message)):
        pc.parse_script(text)


def test_replay_is_deterministic():
    text = shipped_script("theorem_derivation.steps")
    r1 = pc.replay_text(text)
    r2 = pc.replay_text(text)
    assert r1.to_json()["steps"] == r2.to_json()["steps"]
    assert r1.consumed_factors == r2.consumed_factors


def test_shipped_scripts_verify_with_one_assumption():
    for name in ("theorem_centralizer.steps", "theorem_derivation.steps"):
        report = pc.replay_text(shipped_script(name), name)
        assert report.overall == "VERIFIED-WITH-ASSUMPTIONS"
        assert len(report.assumptions) == 1
        assert "commuting" in report.external_theorems


def test_torsion_accounting_stays_inside_the_declared_budget():
    from mnjordan.parsing import parse_scalar

    for name in ("theorem_centralizer.steps", "theorem_derivation.steps"):
        script = pc.parse_script(shipped_script(name), name)
        report = pc.replay(script)
        for factor in report.consumed_factors:
            rem = parse_scalar(factor)
            while not rem.is_unit():
                for b in script.budget:
                    if b.divides(rem):
                        rem = rem.exact_div(b)
                        break
                else:
                    raise AssertionError(f"{factor} escapes the budget of {name}")


def test_final_steps_reach_the_squash_conclusions():
    # the step before the final squash derives F(x)*y*F(x) = 0 in both scripts
    cent = pc.parse_script(shipped_script("theorem_centralizer.steps"))
    deri = pc.parse_script(shipped_script("theorem_derivation.steps"))
    cent_claims = {s.label: s.claimed_text for s in cent.steps}
    deri_claims = {s.label: s.claimed_text for s in deri.steps}
    assert P(cent_claims["fsq_pre"]) == P("F[x]*y*F[x]")
    assert P(deri_claims["fcsq_pre"]) == P("Fc[x]*y*Fc[x]")


MISMATCH_LABELS = [
    ("define", "definition instance mismatch"),
    ("substitute", "substitution result mismatch"),
    ("polarize", "even-part mismatch"),
    ("mulleft", "product mismatch"),
    ("mulright", "product mismatch"),
    ("combine", "combination mismatch"),
    ("cancel", "quotient mismatch"),
    ("patternabc", "emitted identity mismatch"),
    ("squash", "emitted identity mismatch"),
    ("commuting", "emitted identity mismatch"),
]


@pytest.mark.parametrize("name", ["theorem_centralizer.steps", "theorem_derivation.steps"])
@pytest.mark.parametrize("kind, mismatch", MISMATCH_LABELS, ids=[k for k, _ in MISMATCH_LABELS])
def test_each_kind_reports_its_mismatch_label(name, kind, mismatch):
    text = shipped_script(name)
    # the first step of that kind (external steps by theorem) with a term to bump
    label = next(s.label for s in pc.parse_script(text).steps
                 if kind in (s.kind, s.args.get("")) and not P(s.claimed_text).is_zero())
    mutated, _ = mutate_script(text, random.Random(kind), label=label)
    report = pc.replay_text(mutated)
    assert report.failed_step == label
    assert report.error.startswith(f"{mismatch}: claimed - computed = "), report.error


def test_each_license_names_the_rule_it_licenses():
    assert set(pc.LICENSES) == fa.ALL_RULES


def test_corrupting_a_script_fails_at_that_step():
    rng = random.Random(3)
    text = shipped_script("theorem_centralizer.steps")
    mutated, label = mutate_script(text, rng)
    report = pc.replay_text(mutated)
    assert report.overall == "FAILED"
    assert report.failed_step == label


# -- claims compared as printed text, parsed only on a mismatch -----------------

SCRIPTS = ("theorem_centralizer.steps", "theorem_derivation.steps")


def _report(text, name):
    report = pc.replay_text(text, name)
    payload = report.to_json()
    del payload["seconds"]
    return report.to_text(), payload


def _with_claim(text, label, claim):
    """The script with the claim of step ``label`` replaced."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"step {label} "):
            head = line.split("=>", 1)[0].rstrip()
            lines[i] = f"{head} => {claim}"
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no step {label}")


def _variants(name):
    """(description, script text) pairs: the script, one doubled term per
    step, and malformed claims."""
    text = shipped_script(name)
    steps = [s for s in pc.parse_script(text).steps if s.kind != "assume"]
    out = [("unmodified", text)]
    for step in steps:
        poly = P(step.claimed_text)
        if poly.is_zero():  # the license claims: no term to double
            continue
        word, coeff = poly.sorted_terms()[0]
        doubled = poly + fa.NCPoly.word(word, coeff)
        out.append((f"{step.label} doubled", _with_claim(text, step.label, doubled.to_text())))
    # whitespace inside a token of a claim written in printed form: equal to
    # the printed text once whitespace is folded, yet malformed
    printed = [s for s in steps if P(s.claimed_text).to_text() == s.claimed_text]
    for kind, token in (("number", r"\d\d"), ("T0", r"T0\["), ("Fc", r"Fc\[")):
        for step in printed:
            found = re.search(token, step.claimed_text)
            if found:
                cut = found.start() + 1
                broken = step.claimed_text[:cut] + " " + step.claimed_text[cut:]
                out.append((f"{step.label} split {kind}", _with_claim(text, step.label, broken)))
                break
    last = steps[-1]
    for desc, claim in (("unbalanced", last.claimed_text + "*T[x"),
                        ("unknown symbol", "G[x]*" + last.claimed_text)):
        out.append((f"{last.label} {desc}", _with_claim(text, last.label, claim)))
    return out


def test_text_match_and_parse_paths_give_identical_reports(monkeypatch):
    variants = [(name, desc, text) for name in SCRIPTS for desc, text in _variants(name)]
    fast = {(name, desc): _report(text, name) for name, desc, text in variants}
    # no printed text equals None, so every claim takes the parse path
    monkeypatch.setattr(pc, "poly_to_text", lambda poly: None)
    for name, desc, text in variants:
        assert _report(text, name) == fast[name, desc], (name, desc)
    malformed = ("split number", "split T0", "split Fc", "unbalanced", "unknown symbol")
    for (name, desc), (_, payload) in fast.items():
        if desc == "unmodified":
            assert payload["overall"] == "VERIFIED-WITH-ASSUMPTIONS", name
        elif desc.endswith(malformed):
            assert payload["error"].startswith("bad claimed polynomial"), (name, desc)
        else:
            assert payload["failed_step"] == desc.split()[0], (name, desc)
    found = {m for _, desc in fast for m in malformed if desc.endswith(m)}
    assert found == set(malformed)


def test_malformed_claim_is_reported_before_a_failing_computation(monkeypatch):
    text = shipped_script("theorem_centralizer.steps")
    # the factor lies outside the budget and the claim does not parse
    text = text.replace("cancel use=e5_raw factor=m*n =>", "cancel use=e5_raw factor=7*m*n =>")
    text = _with_claim(text, "e5", "(-m - n)*T0[x^3*y")
    fast = _report(text, "broken")
    assert fast[1]["failed_step"] == "e5"
    assert fast[1]["error"].startswith("bad claimed polynomial")
    monkeypatch.setattr(pc, "poly_to_text", lambda poly: None)
    assert _report(text, "broken") == fast


def test_only_claims_that_differ_from_the_printed_form_are_parsed(monkeypatch):
    parsed = []
    parse_claim = pc._parse_claim

    def record(step, rules):
        parsed.append(step.label)
        return parse_claim(step, rules)

    monkeypatch.setattr(pc, "_parse_claim", record)
    for name in SCRIPTS:
        parsed.clear()
        report = pc.replay_text(shipped_script(name), name)
        assert report.overall == "VERIFIED-WITH-ASSUMPTIONS"
        # the law line is spelled "(m+n)", the printer writes "(m + n)";
        # license and assume steps compute their polynomial by parsing the claim
        kinds = {s.label: s.kind for s in pc.parse_script(shipped_script(name)).steps}
        assert sorted(kinds[label] for label in parsed) == ["assume", "define", "external"]


@pytest.mark.parametrize("lines", [
    # the claim is not in printed form, so it is compared after the parse
    ["step a assume => x*T[x] + 0*y"],
    # the license fails after its claim parsed: it cites an assume
    ["step b assume => T[x]", "step a external t0-two-sided use=b => 0"],
], ids=["assume-not-printed", "license-bad-use"])
def test_each_claim_is_parsed_at_most_once(monkeypatch, lines):
    parsed = []
    parse_claim = pc._parse_claim

    def record(step, rules):
        parsed.append(step.label)
        return parse_claim(step, rules)

    monkeypatch.setattr(pc, "_parse_claim", record)
    replay_lines(*lines, "goal a")
    assert parsed.count("a") == 1


# -- citations under the rules in force ------------------------------------------

# t0law is cited once before its license and once after, where its body
# normalizes to 0: a body kept from before the license fails the shape check
CITED_ACROSS_A_LICENSE = "\n".join([
    "step t0law define law=centralizer map=T0 => (m+n)*T0[x^2] - m*T0[x]*x - n*x*T0[x]",
    "step pre mulleft use=t0law by=x => (m+n)*x*T0[x^2] - m*x*T0[x]*x - n*x^2*T0[x]",
    "step t0lic external t0-two-sided use=t0law => 0",
    "step post external commuting use=t0law map=T0 => 0",
    "goal post",
]) + "\n"


def test_citations_use_the_rules_in_force_and_memos_stop_growing():
    assert pc.replay_text(CITED_ACROSS_A_LICENSE).overall == "VERIFIED"
    # a second replay of the shipped scripts adds nothing to the memos
    # kept for the life of the process
    def sizes():
        memos = (fa._norm_cache, fa._atoms, fa._word_keys, parsing._word_text,
                 parsing._coeff_text)
        return [len(memo) for memo in memos] + [len(s) for s in fa._normal_words.values()]

    for name in SCRIPTS:
        pc.replay_text(shipped_script(name), name)
    before = sizes()
    for name in SCRIPTS:
        pc.replay_text(shipped_script(name), name)
    assert sizes() == before
