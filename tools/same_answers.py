"""Print digests of mnjordan's answers on two fixed corpora.

    python tools/same_answers.py --src path/to/tree/src

Runs ``mnjordan.cli.main`` in-process, from the given source tree, on every
case of each corpus and prints, per corpus, the number of runs and one
SHA-256 over the runs.  Two trees give the same answers when they print the
same lines.

The ring corpus is ``mnjordan ring --format json`` on Zn (n <= 30), Za+Zb
(a <= b <= 6), the shipped tables, six prime-power products, Mat2(Z_p)
(p <= 13), Mat2(Z4), Mat2(Z9), Mat3(Z4), Mat3(Z7), Mat3(Z8) and Z5+Mat2(Z7)
under all four laws at (1,2), (2,1), (2,3) and (3,2); Mat4(Z3) under all
four laws at (1,2); Mat4(Z4) under the generalized centralizer law at
(1,2); Mat5(Z2) under the centralizer and the generalized centralizer law
at (1,2); and ``mnjordan search --family mat2 --primes 3,5,7,11,13`` under
all four laws at (1,2).  The prime powers are there because the generators of
a kernel over Z/q^e depend on the order of the rows and on the pivots, so
a reordered row or another pivot changes an answer on those rings; in
Z12+Z18 and Z4+Z6+Z9 two primes have a square in one system, and Mat3
and Mat4 over Z4 and Z8 give systems of hundreds to thousands of rows with
many pivots of positive valuation.  Mat5(Z2) gives GF(2) law and
separability systems of thousands of rows.  Construction errors are in it too: a
non-associative and an incompatible multiplication table, each alone and as
a factor of a product, and ``Mat`` with k = 0.  A spec file enters the
digest as its JSON text, not its path, and each run as (argv, exit code,
stdout, stderr).

The prove corpus is ``mnjordan prove --format json`` on both shipped scripts;
on each script with one top-level term of one non-``assume`` claim doubled,
for every such claim; and on each script with one polynomial step argument
made malformed (a character that starts no token, an unbalanced bracket, a
power ``^17`` and a citation inside parentheses), for every such argument.
Each run enters the digest as (script, change, exit code, stdout, stderr),
with the report's ``seconds`` dropped.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

LAWS = ("centralizer", "gen-centralizer", "derivation", "gen-derivation")
WEIGHTS = ((1, 2), (2, 1), (2, 3), (3, 2))


def _zn(n):
    return {"kind": "Zn", "n": n}


def _mat(k, p):
    return {"kind": "Mat", "k": k, "p": p}


def _product(*specs):
    return {"kind": "product", "of": list(specs)}


# over Z2+Z2, e0*e0 = e1 and e0*e1 = e0 break associativity on (e0, e0, e0);
# over Z2+Z4, e0*e0 = e1 has order 2, not a multiple of 4
BAD_TABLES = ({"moduli": [2, 2], "mult": [[[0, 1], [1, 0]], [[0, 0], [0, 0]]]},
              {"moduli": [2, 4], "mult": [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]})


def corpus(src: Path):
    """(ring spec, law, m, n) for every ``ring`` run."""
    rings = [_zn(n) for n in range(2, 31)]
    rings += [_product(_zn(a), _zn(b)) for a in range(2, 7) for b in range(a, 7)]
    rings += [json.loads(p.read_text()) for p in sorted((src / "mnjordan" / "rings").glob("*.json"))]
    rings += [_product(*map(_zn, ns))
              for ns in ((8, 4), (9, 3), (25, 5), (8, 8, 4), (12, 18), (4, 6, 9))]
    rings += [_mat(2, p) for p in (2, 3, 5, 7, 11, 13)] + [_mat(2, 4), _mat(2, 9), _mat(3, 7)]
    rings += [_mat(3, 4), _mat(3, 8)]
    rings.append(_product(_zn(5), _mat(2, 7)))
    rings += [table for bad in BAD_TABLES for table in (bad, _product(_zn(3), bad))]
    rings.append(_mat(0, 5))
    cases = [(spec, law, m, n) for spec in rings for law in LAWS for m, n in WEIGHTS]
    cases += [(_mat(4, 3), law, 1, 2) for law in LAWS] + [(_mat(4, 4), "gen-centralizer", 1, 2)]
    return cases + [(_mat(5, 2), law, 1, 2) for law in ("centralizer", "gen-centralizer")]


# step arguments that are polynomials; a combine's witness list is the
# unnamed one
POLYNOMIAL_ARGS = ("with", "by", "factor", "w", "a", "b", "c")
_KEY_RE = re.compile(r"(\w[\w-]*)=")
_STEP_RE = re.compile(r"step\s+(\S+)\s+(\S+)\s*(.*?)\s*=>")


def _top_level_terms(claim: str):
    """(start, end) of each top-level term of a claim, split at ' + ' and
    ' - ' outside brackets."""
    spans, depth, start = [], 0, 0
    for i, ch in enumerate(claim):
        depth += (ch in "([") - (ch in ")]")
        if depth == 0 and claim[i - 1: i + 2] in (" + ", " - "):
            spans.append((start, i - 1))
            start = i + 2
    return spans + [(start, len(claim))]


def _doubled(line: str, index: int) -> str:
    """A step line with one top-level term of its claim doubled: the term
    at ``index`` modulo the number of terms, appended with its sign."""
    head, _, claim = line.partition("=>")
    claim = claim.strip()
    spans = _top_level_terms(claim)
    start, end = spans[index % len(spans)]
    sign = "-" if start >= 2 and claim[start - 2] == "-" else "+"
    term = claim[start:end].strip()
    if term.startswith("-"):
        sign, term = "+" if sign == "-" else "-", term[1:].strip()
    return f"{head.rstrip()} => {claim} {sign} {term}"


def _polynomial_args(body: str):
    """(key, start, end) of each polynomial argument of a step line; the key
    of a combine's witness list is ''."""
    step = _STEP_RE.match(body)
    rest, offset = step.group(3), step.start(3)
    keys = list(_KEY_RE.finditer(rest))
    ends = [k.start() for k in keys[1:]] + [len(rest)]
    spans = [(k.group(1), k.end(), end) for k, end in zip(keys, ends)
             if k.group(1) in POLYNOMIAL_ARGS]
    if step.group(2) == "combine":
        spans.insert(0, ("", 0, keys[0].start() if keys else len(rest)))
    return [(key, offset + a, offset + a + len(rest[a:b].rstrip())) for key, a, b in spans]


MALFORMED = (
    ("bad character", lambda arg: arg[:1] + " $" + arg[1:]),
    ("unbalanced bracket", lambda arg: "(" + arg),
    ("power 17", lambda arg: f"({arg})^17"),
    ("citation in parentheses", lambda arg: f"{arg} + ([law])"),
)


def prove_corpus(src: Path):
    """(script name, change, script text) for every ``prove`` run."""
    for path in sorted((src / "mnjordan" / "proofs").glob("*.steps")):
        text = path.read_text()
        lines = text.splitlines()
        yield path.name, "shipped", text
        for i, line in enumerate(lines):
            body = line.split("#", 1)[0].strip()
            if not body.startswith("step ") or "=>" not in body:
                continue
            label, kind = body.split()[1:3]
            if kind != "assume":
                changed = lines[:i] + [_doubled(body, i)] + lines[i + 1:]
                yield path.name, f"{label}: doubled term", "\n".join(changed) + "\n"
            for key, start, end in _polynomial_args(body):
                for what, malform in MALFORMED:
                    bad = body[:start] + malform(body[start:end]) + body[end:]
                    changed = lines[:i] + [bad] + lines[i + 1:]
                    yield path.name, f"{label} {key or 'witnesses'}: {what}", \
                        "\n".join(changed) + "\n"


def _without_seconds(stdout: str) -> str:
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    report.pop("seconds", None)
    return json.dumps(report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src/ directory of the tree to run")
    src = parser.parse_args().src.resolve()
    sys.path.insert(0, str(src))
    from mnjordan import cli

    if Path(cli.__file__).resolve().parent != src / "mnjordan":
        print(f"error: imported {cli.__file__}, not the tree under {src}", file=sys.stderr)
        return 2

    digest = hashlib.sha256()
    runs = 0

    def run(label, argv, path=None):
        nonlocal runs
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        stderr = err.getvalue().replace(path, "<spec>") if path else err.getvalue()
        digest.update(json.dumps([label, code, out.getvalue(), stderr]).encode() + b"\n")
        runs += 1

    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work) / "ring.json")
        for spec, law, m, n in corpus(src):
            Path(path).write_text(json.dumps(spec))
            tail = ["--law", law, "--m", str(m), "--n", str(n), "--format", "json"]
            run(["ring", "--spec", json.dumps(spec, sort_keys=True)] + tail,
                ["ring", "--spec", path] + tail, path)
    for law in LAWS:
        argv = ["search", "--family", "mat2", "--primes", "3,5,7,11,13",
                "--law", law, "--m", "1", "--n", "2", "--format", "json"]
        run(argv, argv)
    print(f"ring:  {runs} runs  sha256 {digest.hexdigest()}")

    digest = hashlib.sha256()
    runs = 0
    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work) / "script.steps")
        for name, change, text in prove_corpus(src):
            Path(path).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["prove", path, "--format", "json"])
            record = [name, change, code, _without_seconds(out.getvalue()),
                      err.getvalue().replace(path, "<script>")]
            digest.update(json.dumps(record).encode() + b"\n")
            runs += 1
    print(f"prove: {runs} runs  sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
