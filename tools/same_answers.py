"""Print one digest of mnjordan's answers on a fixed corpus of rings.

    python tools/same_answers.py --src path/to/tree/src

Runs ``mnjordan.cli.main`` in-process, from the given source tree, on every
case of the corpus and prints the number of runs and one SHA-256 over each
run's (argv, exit code, stdout).  Two trees give the same answers when they
print the same line.

The corpus is ``mnjordan ring --format json`` on Zn (n <= 30), Za+Zb
(a <= b <= 6), the shipped tables, four prime-power products, Mat2(Z_p)
(p <= 13), Mat2(Z4), Mat2(Z9), Mat3(Z7) and Z5+Mat2(Z7) under all four laws
at (1,2), (2,1), (2,3) and (3,2); Mat4(Z3) under all four laws at (1,2); and
``mnjordan search --family mat2 --primes 3,5,7,11,13`` under all four laws
at (1,2).  The prime powers are there because the generators of a kernel
over Z/q^e depend on the order of the rows, so a reordered row changes an
answer on those rings.  A spec file enters the digest as its JSON text, not
its path.
"""

import argparse
import contextlib
import hashlib
import io
import json
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


def corpus(src: Path):
    """(ring spec, law, m, n) for every ``ring`` run."""
    rings = [_zn(n) for n in range(2, 31)]
    rings += [_product(_zn(a), _zn(b)) for a in range(2, 7) for b in range(a, 7)]
    rings += [json.loads(p.read_text()) for p in sorted((src / "mnjordan" / "rings").glob("*.json"))]
    rings += [_product(*map(_zn, ns)) for ns in ((8, 4), (9, 3), (25, 5), (8, 8, 4))]
    rings += [_mat(2, p) for p in (2, 3, 5, 7, 11, 13)] + [_mat(2, 4), _mat(2, 9), _mat(3, 7)]
    rings.append(_product(_zn(5), _mat(2, 7)))
    cases = [(spec, law, m, n) for spec in rings for law in LAWS for m, n in WEIGHTS]
    return cases + [(_mat(4, 3), law, 1, 2) for law in LAWS]


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

    def run(label, argv):
        nonlocal runs
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest.update(json.dumps([label, code, out.getvalue()]).encode() + b"\n")
        runs += 1

    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work) / "ring.json")
        for spec, law, m, n in corpus(src):
            Path(path).write_text(json.dumps(spec))
            tail = ["--law", law, "--m", str(m), "--n", str(n), "--format", "json"]
            run(["ring", "--spec", json.dumps(spec, sort_keys=True)] + tail,
                ["ring", "--spec", path] + tail)
    for law in LAWS:
        argv = ["search", "--family", "mat2", "--primes", "3,5,7,11,13",
                "--law", law, "--m", "1", "--n", "2", "--format", "json"]
        run(argv, argv)
    print(f"{runs} runs  sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
