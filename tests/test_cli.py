import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mnjordan import cli
from tests.util import mutate_script, shipped_script


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def script_on_disk(tmp_path, name, text=None):
    path = tmp_path / name
    path.write_text(text if text is not None else shipped_script(name))
    return str(path)


def test_prove_shipped_scripts(capsys, tmp_path):
    for name in ("theorem_centralizer.steps", "theorem_derivation.steps"):
        code, out, _ = run(capsys, "prove", script_on_disk(tmp_path, name))
        assert code == cli.EXIT_ASSUMPTIONS
        assert "VERIFIED-WITH-ASSUMPTIONS" in out


def test_prove_missing_file(capsys):
    code, _, err = run(capsys, "prove", "no_such_file.steps")
    assert code == cli.EXIT_ERROR
    assert "cannot read" in err


def test_prove_corrupted_script(capsys, tmp_path):
    import random

    text, label = mutate_script(shipped_script("theorem_centralizer.steps"), random.Random(1))
    code, out, _ = run(capsys, "prove", script_on_disk(tmp_path, "bad.steps", text))
    assert code == cli.EXIT_FAILED
    assert label in out and "FAILED" in out


def test_prove_json_format(capsys, tmp_path):
    path = script_on_disk(tmp_path, "theorem_derivation.steps")
    code, out, _ = run(capsys, "prove", path, "--format", "json")
    assert code == cli.EXIT_ASSUMPTIONS
    payload = json.loads(out)
    assert payload["overall"] == "VERIFIED-WITH-ASSUMPTIONS"
    assert {"step", "kind", "verdict", "factors", "axioms"} <= set(payload["steps"][0])


@pytest.mark.parametrize("budget, line", [
    ("2", "step b substitute use=a gen=y with=x^100000000 => 0"),
    ("2", "step b assume => T[x]*y^17"),
    ("2 m^200000", "step b assume => T[x]"),
], ids=["step-argument", "claim", "budget"])
def test_prove_refuses_a_power_above_the_bound_with_exit_3(capsys, tmp_path, budget, line):
    text = f"budget {budget}\nstep a assume => T[x]*y*x\n{line}\ngoal b\n"
    code, out, err = run(capsys, "prove", script_on_disk(tmp_path, "big.steps", text))
    assert code == cli.EXIT_ERROR
    assert out == "" and err.startswith("error: exponent ") and "above the bound" in err


def test_ring_verified(capsys):
    code, out, _ = run(
        capsys, "ring", "--kind", "Mat", "--k", "2", "--p", "7",
        "--law", "gen-centralizer", "--m", "1", "--n", "2",
    )
    assert code == cli.EXIT_OK
    assert "conclusion-verified" in out


def test_ring_above_the_old_scan_bound(capsys):
    # |Mat2(Z11)| = 14641: the semiprime scan used to give up above 10^4
    code, out, _ = run(
        capsys, "ring", "--kind", "Mat", "--k", "2", "--p", "11",
        "--law", "centralizer", "--m", "1", "--n", "1", "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["hypotheses"]["semiprime"] is True
    assert payload["solution_count"] == 11
    assert payload["verdict"] == "conclusion-verified"


def test_ring_mat3_z7_is_decided(capsys):
    # |Mat3(Z7)| = 7^9: the element scans reported semiprime null here
    code, out, _ = run(
        capsys, "ring", "--kind", "Mat", "--k", "3", "--p", "7",
        "--law", "centralizer", "--m", "1", "--n", "2", "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["hypotheses"]["semiprime"] is True
    assert payload["verdict"] == "conclusion-verified"


def test_ring_mat4_z3_end_to_end():
    # separability 4624 x 273 and laws 2860 x 512 over GF(3): the largest
    # systems any test solves, in a fresh process as a user runs it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mnjordan.cli", "ring", "--kind", "Mat", "--k", "4", "--p", "3",
         "--law", "gen-centralizer", "--m", "1", "--n", "2", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["solution_count"] == 129_140_163
    assert payload["verdict"] == "hypotheses-not-met; conclusion fails"


@pytest.mark.parametrize(
    "ring_args",
    [
        ["--kind", "Mat", "--k", "2", "--p", "1099511627791", "--n", "1"],
        ["--kind", "Zn", "--n", str(2**61 - 1), "--n", "1"],
    ],
    ids=["mat2-40-bit-prime", "zn-mersenne-61"],
)
def test_ring_too_wide_for_int64_exits_3(capsys, ring_args):
    # the first overflowed gf_nullspace silently; the second stalled in factorize
    code, out, err = run(capsys, "ring", *ring_args, "--law", "centralizer", "--m", "1")
    assert code == cli.EXIT_ERROR
    assert out == "" and err.startswith("error: ") and "64-bit" in err


def test_ring_out_of_memory_exits_3():
    # Mat100(Z2) has k = 10^4 generators; its structure constants alone
    # need 8 TB, so the child's 2 GiB address space runs out at once
    resource = pytest.importorskip("resource")
    limit = 2 * 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mnjordan.cli", "ring", "--kind", "Mat", "--k", "100", "--p", "2",
         "--law", "centralizer", "--m", "1", "--n", "2"],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap_memory, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_ERROR, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_ring_decides_mat6_z2_gen_centralizer_within_1_gib():
    # the law system is 47 952 x 2 592 with 57 672 nonzero entries; written
    # densely it was 948 MB, and the separability einsums needed a
    # (36, 36, 36, 36, 36) array of 461 MiB, so the child ran out of memory
    resource = pytest.importorskip("resource")
    limit = 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mnjordan.cli", "ring", "--kind", "Mat", "--k", "6", "--p", "2",
         "--law", "gen-centralizer", "--m", "1", "--n", "2", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap_memory, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["solution_count"] == 4722366482869645213696
    assert payload["verdict"] == "hypotheses-not-met; conclusion fails"


def test_law_rows_of_mat8_z2_gen_centralizer_within_384_mib():
    # the rows held a (2080, 64, 64) int64 array per block on their way
    # out, and the child ran out of memory at 256, 384 and 512 MiB
    resource = pytest.importorskip("resource")
    limit = 384 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("from mnjordan import finring as fr; "
             "rows, mods = fr._law_row_blocks(fr.MatRing(8, 2), fr.LawSpec('gen-centralizer', 1, 2)); "
             "print(len(rows.rows), len(mods), sum(map(len, rows.rows)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=cap_memory, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["266240", "266240", "249216"]


def test_ring_counts_violations_without_enumerating(capsys):
    path = Path(__file__).resolve().parents[1] / "src" / "mnjordan" / "rings" / "z2z2_zero.json"
    code, out, _ = run(
        capsys, "ring", "--spec", str(path), "--law", "gen-centralizer", "--m", "1", "--n", "2",
        "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["solution_count"] == 256 and payload["violation_count"] == 240
    assert payload["verdict"] == "hypotheses-not-met; conclusion fails"
    assert len(payload["violations"]) == 1


def test_ring_prime_power_above_the_enumeration_bound(capsys, tmp_path):
    # 2^27 solutions: the enumerating solver raised OverflowError here
    spec = tmp_path / "z8z8z4.json"
    spec.write_text(json.dumps({"kind": "product", "of": [
        {"kind": "Zn", "n": 8}, {"kind": "Zn", "n": 8}, {"kind": "Zn", "n": 4}]}))
    code, out, err = run(
        capsys, "ring", "--spec", str(spec), "--law", "gen-derivation", "--m", "1", "--n", "3",
        "--format", "json",
    )
    assert code == cli.EXIT_OK and "Traceback" not in err
    payload = json.loads(out)
    assert payload["solution_count"] == 134217728
    assert payload["verdict"] == "hypotheses-not-met; conclusion fails"


@pytest.mark.parametrize(
    "huge, reduced",
    [
        (["--kind", "Zn", "--n", "5", "--n", str(2**63 - 1), "--law", "centralizer", "--m", "1"],
         ["--kind", "Zn", "--n", "5", "--n", "2", "--law", "centralizer", "--m", "1"]),
        (["--kind", "Mat", "--k", "2", "--p", "5", "--n", "1", "--law", "gen-centralizer",
          "--m", str(5 * 2**64 + 4)],
         ["--kind", "Mat", "--k", "2", "--p", "5", "--n", "1", "--law", "gen-centralizer",
          "--m", "4"]),
    ],
    ids=["huge-n", "huge-m"],
)
def test_ring_huge_weight_matches_the_reduced_weight(capsys, huge, reduced):
    # integers act on R+ through Z/exponent, so only a weight's residue
    # matters; the huge weights raised OverflowError in the law rows
    reports = []
    for argv in (huge, reduced):
        code, out, err = run(capsys, "ring", *argv, "--format", "json")
        assert code == cli.EXIT_OK and err == ""
        payload = json.loads(out)
        del payload["m"], payload["n"], payload["hypotheses"]["torsion_product"]
        reports.append(payload)
    assert reports[0] == reports[1]


def test_ring_zn_overloaded_n(capsys):
    code, out, _ = run(
        capsys, "ring", "--kind", "Zn", "--n", "4",
        "--law", "gen-centralizer", "--m", "1", "--n", "1",
    )
    assert code == cli.EXIT_OK
    assert "semiprime: False" in out


def test_ring_malformed_spec(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"moduli": [2, 2], "mult": [[[0,1],[1,0]],[[0,0],[0,0]]]}')
    code, _, err = run(
        capsys, "ring", "--spec", str(bad), "--law", "centralizer", "--m", "1", "--n", "1"
    )
    assert code == cli.EXIT_ERROR
    assert "error" in err


@pytest.mark.parametrize(
    "spec",
    [
        "[1, 2]",
        '"Zn"',
        '{"moduli": [2]}',
        '{"mult": [[[1]]]}',
        '{"kind": "Zn"}',
        '{"kind": "Mat", "k": 2}',
        '{"kind": "product"}',
        '{"kind": "Zn", "n": [6]}',
        '{"kind": "Mat", "k": "2", "p": 7}',
        '{"kind": "product", "of": 5}',
        '{"kind": "product", "of": [3]}',
        '{"moduli": 2, "mult": [[[1]]]}',
        '{"moduli": [[2]], "mult": [[[1]]]}',
        '{"moduli": [2], "mult": [[[null]]]}',
        '{"moduli": [2], "mult": [[[1.5]]]}',
        '{"kind": "Mat", "k": -1, "p": 7}',
        '{"kind": "Mat", "k": 0, "p": 7}',
        '{"kind": "product", "of": []}',
        '{"moduli": [99999999999999999999], "mult": [[[1]]]}',
        '{"kind": "Zn", "n": 99999999999999999999}',
        '{"moduli": [2], "mult": [[[99999999999999999999]]]}',
        '{"kind": "Mat", "k": true, "p": 5}',
        '{"kind": "Zn", "n": false}',
        '{"moduli": [true], "mult": [[[1]]]}',
        '{"moduli": [2], "mult": [[[true]]]}',
    ],
    ids=["list", "string", "no-mult", "no-moduli", "no-n", "no-p", "no-of", "n-list",
         "k-string", "of-int", "of-entry-int", "moduli-int", "moduli-nested", "mult-null",
         "mult-float", "k-negative", "k-zero", "of-empty", "moduli-above-int64",
         "n-above-int64", "mult-above-int64", "k-true", "n-false", "moduli-true",
         "mult-true"],
)
def test_ring_spec_shapes_exit_3(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code, out, err = run(
        capsys, "ring", "--spec", str(path), "--law", "centralizer", "--m", "1", "--n", "1"
    )
    assert code == cli.EXIT_ERROR
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_prove_imports_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, mnjordan.cli, mnjordan.proofcheck; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_search_family(capsys):
    code, out, _ = run(
        capsys, "search", "--family", "zn", "--max-n", "12",
        "--law", "gen-centralizer", "--m", "1", "--n", "1",
    )
    assert code == cli.EXIT_OK
    assert len(out.strip().splitlines()) == 11
    code, out, _ = run(
        capsys, "search", "--family", "mat2", "--primes", "3,5,7",
        "--law", "gen-centralizer", "--m", "1", "--n", "2", "--format", "json",
    )
    assert code == cli.EXIT_OK
    rows = json.loads(out)
    assert [r["ring"] for r in rows] == ["Mat2(Z3)", "Mat2(Z5)", "Mat2(Z7)"]
    assert rows[0]["hypotheses"]["torsion_free"] is False


@pytest.mark.parametrize("primes", ["", "5,,7", "5,x"])
def test_search_rejects_a_malformed_prime_list(capsys, primes):
    # an explicit empty list does not fall back to the default primes
    code, out, err = run(
        capsys, "search", "--family", "mat2", "--primes", primes,
        "--law", "centralizer", "--m", "1", "--n", "2",
    )
    assert code == cli.EXIT_ERROR
    assert out == "" and err.startswith("error: ")


def test_ring_and_search_exit_1_on_a_counterexample_row(capsys, monkeypatch):
    # search exited 0 whatever its rows said
    from mnjordan import finring as fr

    def counterexample(R, spec):
        return fr.TheoremReport(ring=R.name, law=spec.law, m=spec.m, n=spec.n,
                                hypotheses={"semiprime": True, "torsion_free": True},
                                applicable=True, solution_count=2, violation_count=1,
                                violations=[], verdict="COUNTEREXAMPLE")

    monkeypatch.setattr(fr, "check_theorem", counterexample)
    code, out, _ = run(capsys, "ring", "--kind", "Mat", "--p", "5", "--law", "centralizer",
                       "--m", "1", "--n", "2")
    assert code == cli.EXIT_FAILED and "COUNTEREXAMPLE" in out
    code, out, _ = run(capsys, "search", "--family", "mat2", "--primes", "5,7",
                       "--law", "centralizer", "--m", "1", "--n", "2")
    assert code == cli.EXIT_FAILED
    assert out.count("COUNTEREXAMPLE") == 2


@pytest.mark.parametrize("family", ["zn", "products"])
@pytest.mark.parametrize("max_n", ["1", "-5"])
def test_search_of_an_empty_family_exits_3(capsys, family, max_n):
    # it checked no ring, printed nothing and exited 0
    code, out, err = run(capsys, "search", "--family", family, "--max-n", max_n,
                         "--law", "centralizer", "--m", "1", "--n", "2")
    assert code == cli.EXIT_ERROR
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


def test_exit_codes_depend_only_on_the_verdict(capsys, tmp_path):
    path = script_on_disk(tmp_path, "theorem_centralizer.steps")
    first = run(capsys, "prove", path)
    second = run(capsys, "prove", path)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["ring", "--kind", "Mat", "--p", "7", "--law", "bogus", "--m", "1", "--n", "1"],
        ["ring", "--kind", "Mat", "--p", "7", "--m", "1", "--n", "1"],
        ["ring", "--kind", "Mat", "--p", "7", "--law", "centralizer", "--m", "x", "--n", "1"],
        ["prove"],
        ["ring", "--kind", "Mat", "--p", "7", "--law", "centralizer", "--m", "1", "--n", "2",
         "--jobs", "2"],
        ["ring", "--kind", "Mat", "--p", "7", "--law", "centralizer", "--m", "1", "--n", "2",
         "--max-solutions", "1"],
        ["ring", "--kind", "Mat", "--p", "7", "--law", "centralizer", "--m", "1", "--n", "2",
         "--max-size", "1000"],
    ],
    ids=["unknown-law", "missing-law", "non-integer-weight", "bare-prove", "removed-jobs",
         "removed-max-solutions", "removed-max-size"],
)
def test_usage_errors_exit_3(capsys, argv):
    # argparse's own status 2 would read as "verified with assumptions"
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_ERROR
    assert out == "" and "usage:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ring", "--help"])
    assert exc.value.code == 0
    assert "--law" in capsys.readouterr().out


def prove_in_subprocess(tmp_path, text, *options):
    path = tmp_path / "script.steps"
    path.write_text(text)
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "mnjordan.cli", "prove", str(path), *options],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=10)


CANCEL_TWO_M = "step a assume => 2*m*T[x]*y\nstep b cancel use=a factor={} => {}\ngoal b\n"


@pytest.mark.parametrize("text, code", [
    ("budget 2 m\n" + CANCEL_TWO_M.format("0", "T[x]*y"), cli.EXIT_FAILED),
    ("budget 1 m\n" + CANCEL_TWO_M.format("2", "m*T[x]*y"), cli.EXIT_FAILED),
    ("budget -1 2\nstep a assume => 6*T[x]*y\nstep b cancel use=a factor=3 => 2*T[x]*y\n"
     "goal b\n", cli.EXIT_FAILED),
    ("budget 1\nstep a assume => T[x]*x + x*T[x]\n"
     "step b polarize use=a gen=x => T[x]*x + x*T[x]\ngoal b\n", cli.EXIT_FAILED),
    ("budget 0 m\n" + CANCEL_TWO_M.format("2", "m*T[x]*y"), cli.EXIT_ERROR),
], ids=["zero-factor", "unit-entry", "negative-unit-entry", "unit-budget-polarize",
        "zero-entry"])
def test_torsion_budget_checks_end_without_a_traceback(tmp_path, text, code):
    # a subprocess with a timeout, so that a budget check that never ends
    # fails the test instead of hanging it
    proc = prove_in_subprocess(tmp_path, text)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr


def _lin_sub_with(power):
    return shipped_script("theorem_centralizer.steps").replace(
        "step lin_sub substitute use=law gen=x with=x+y ",
        f"step lin_sub substitute use=law gen=x with=(x+y)^{power} ")


@pytest.mark.parametrize("text", [
    "budget 2\nstep a assume => ((x+y)^4)^5\ngoal a\n",
    "budget 2\nstep a assume => ((x+y)^16)^16\ngoal a\n",
    _lin_sub_with(10),
    _lin_sub_with(16),
], ids=["power-of-power", "power-of-widest-power", "lin-sub-10", "lin-sub-16"])
def test_prove_refuses_an_expansion_above_the_pair_bound_with_exit_3(tmp_path, text):
    # every exponent is within parsing.MAX_EXPONENT, but a product is above
    # freealg.MAX_PRODUCT_PAIRS; the subprocess timeout catches a run that
    # expands instead
    proc = prove_in_subprocess(tmp_path, text)
    assert proc.returncode == cli.EXIT_ERROR, proc.stdout + proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: a product of ") and "on pairs of terms" in proc.stderr


CENTRALIZER_LAW = "(m+n)*T[x^2] - m*T[x]*x - n*x*T[x]"
GEN_STEPS = {
    "substitute": "with=y => 0",
    # at gen=z the even part is the whole law, so a check that ignores gen
    # accepts this claim
    "polarize": f"=> {CENTRALIZER_LAW}",
    "patternabc": "a=x b=x c=x => 0",
    "squash": "w=x => x",
}


@pytest.mark.parametrize("gen", ["gen=z", ""], ids=["gen-z", "no-gen"])
@pytest.mark.parametrize("kind", sorted(GEN_STEPS))
def test_a_bad_generator_fails_its_step(tmp_path, kind, gen):
    text = (f"budget 2 m n m+n\n"
            f"step law define law=centralizer map=T => {CENTRALIZER_LAW}\n"
            f"step s {kind} use=law {gen} {GEN_STEPS[kind]}\n"
            f"goal s\n")
    proc = prove_in_subprocess(tmp_path, text, "--format", "json")
    assert proc.returncode == cli.EXIT_FAILED, proc.stdout + proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["overall"] == "FAILED" and report["failed_step"] == "s"
    assert report["error"].startswith(f"{kind} needs gen=x or gen=y"), report["error"]


_LONG = "1" * 5000  # above Python's default limit of 4 300 digits for int <-> str


@pytest.mark.parametrize("old, new, message", [
    ("factor=m*n", f"factor={_LONG}*m*n", "an integer of 5000 digits"),
    ("budget 2 m n", f"budget {_LONG} 2 m n", "an integer of 5000 digits"),
    ("gen=x with=x+y ", f"gen=x with=({'7' * 300})^16*x+y ", "a coefficient of more than"),
], ids=["literal-in-factor", "literal-in-budget", "coefficient-of-a-power"])
def test_prove_refuses_an_integer_too_long_for_python_with_exit_3(tmp_path, old, new, message):
    # the first two are literals int() cannot read, the third a 4 800-digit
    # coefficient of lin_sub's result that str() cannot print
    text = shipped_script("theorem_centralizer.steps")
    assert old in text
    proc = prove_in_subprocess(tmp_path, text.replace(old, new, 1))
    assert proc.returncode == cli.EXIT_ERROR, proc.stdout + proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1


def test_ring_refuses_a_report_integer_too_long_to_print_with_exit_3():
    # a 4 000-digit weight is read, but the torsion product has more digits
    # than json.dumps can write
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mnjordan.cli", "ring", "--kind", "Zn", "--n", "5", "--n", "2",
         "--law", "centralizer", "--m", "9" * 4000, "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=30)
    assert proc.returncode == cli.EXIT_ERROR, proc.stdout + proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: the report holds an integer of more than")
    assert proc.stderr.count("\n") == 1


def test_prove_refuses_a_script_that_is_not_utf8_with_exit_3(tmp_path):
    path = tmp_path / "script.steps"
    path.write_bytes(b"budget 2\nstep a assume => T[x]*y\xff\ngoal a\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "mnjordan.cli", "prove", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == cli.EXIT_ERROR, proc.stdout + proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot read script: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("claim", ["(" * 300 + "x" + ")" * 300, "T[" * 300 + "x" + "]" * 300],
                         ids=["parentheses", "maps"])
def test_prove_refuses_a_claim_nested_too_deeply_with_exit_3(tmp_path, claim):
    proc = prove_in_subprocess(tmp_path, f"budget 2\nstep a assume => {claim}\ngoal a\n")
    assert proc.returncode == cli.EXIT_ERROR, proc.stdout + proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: maximum recursion depth exceeded")
    assert proc.stderr.count("\n") == 1


def test_ring_refuses_a_spec_nested_too_deeply_with_exit_3(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("[" * 1000 + "]" * 1000)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mnjordan.cli", "ring", "--spec", str(path), "--n", "2",
         "--law", "centralizer", "--m", "1"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=30)
    assert proc.returncode == cli.EXIT_ERROR, proc.stdout + proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: maximum recursion depth exceeded")
    assert proc.stderr.count("\n") == 1
