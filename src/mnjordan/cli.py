"""Command-line driver: proof replay and finite-ring verification.

Subcommands::

    mnjordan prove <script.steps> [--format text|json]
    mnjordan ring (--kind Zn --n 6 | --kind Mat --k 2 --p 7 | --spec file.json)
                  --law gen-centralizer --m 1 --n 2 [--format ...]
    mnjordan search --family zn|mat2|products ... --law ... --m ... --n ...

Exit codes: 0 verified (or hypotheses unmet, reported); 1 failed replay or a
hypothesis-satisfying counterexample; 2 verified with assumptions; 3 bad
input (usage errors included), I/O trouble, a size bound, or a ring too
large for the memory at hand.

Only ``ring`` and ``search`` import :mod:`mnjordan.finring` (and numpy with
it), so ``prove`` starts without them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources

from . import proofcheck
from .laws import TABLE
from .freealg import PowerSizeError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ASSUMPTIONS = 2
EXIT_ERROR = 3


def shipped_script_path(name: str):
    """Path to a proof script shipped inside the package."""
    return resources.files("mnjordan").joinpath("proofs", name)


def cmd_prove(args) -> int:
    try:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        print(f"cannot read script: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        # bare names fall back to the scripts shipped with the package
        shipped = shipped_script_path(args.script.split("/")[-1])
        if shipped.is_file():
            text = shipped.read_text()
        else:
            print(f"cannot read script: {exc}", file=sys.stderr)
            return EXIT_ERROR
    try:
        report = proofcheck.replay(proofcheck.parse_script(text, args.script))
    except proofcheck.ScriptError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (PowerSizeError, RecursionError) as exc:  # a claim nested past the recursion limit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.format == "json":
        print(proofcheck.report_to_json_text(report))
    else:
        print(report.to_text())
    if report.overall == "VERIFIED":
        return EXIT_OK
    if report.overall == "VERIFIED-WITH-ASSUMPTIONS":
        return EXIT_ASSUMPTIONS
    return EXIT_FAILED


def _ring_from_args(args) -> tuple:
    """Ring plus the law weight n.

    ``--n`` is overloaded the way the examples use it: with ``--kind Zn`` the
    first occurrence is the modulus and the second the weight of the law.
    """
    from . import finring

    ns = args.n_values or []
    if args.spec:
        if len(ns) != 1:
            raise finring.RingConstructionError("--spec needs exactly one --n (the weight)")
        return finring.from_spec(args.spec), ns[0]
    if args.kind == "Zn":
        if len(ns) != 2:
            raise finring.RingConstructionError(
                "--kind Zn needs --n twice: the modulus, then the law weight"
            )
        return finring.Zn(ns[0]), ns[1]
    if args.kind == "Mat":
        if args.p is None or len(ns) != 1:
            raise finring.RingConstructionError("--kind Mat needs --p and one --n")
        return finring.MatRing(args.k, args.p), ns[0]
    raise finring.RingConstructionError("give --spec FILE or --kind Zn|Mat")


def cmd_ring(args) -> int:
    from . import finring

    try:
        ring, weight_n = _ring_from_args(args)
        spec = finring.LawSpec(args.law, args.m, weight_n)
        report = finring.check_theorem(ring, spec)
    except (ValueError, OSError, RecursionError) as exc:  # RingConstructionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not _print_rendered(lambda: _ring_lines(report, args.format)):
        return EXIT_ERROR
    if report.applicable and report.violation_count:
        return EXIT_FAILED
    return EXIT_OK


def cmd_search(args) -> int:
    from . import finring

    try:
        if args.family == "zn":
            rings = finring.family_zn(args.max_n)
        elif args.family == "mat2":
            # an explicit empty list is a usage error, not the default primes
            primes = [3, 5, 7] if args.primes is None else [int(p) for p in args.primes.split(",")]
            rings = finring.family_mat2(primes)
        else:  # "products": argparse admits only the three families
            rings = finring.family_products(args.max_n)
        spec = finring.LawSpec(args.law, args.m, args.n)
        rows = finring.search_family(rings, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not _print_rendered(lambda: _search_lines(rows, args.format)):
        return EXIT_ERROR
    return EXIT_OK


def _ring_lines(report, fmt: str) -> list:
    if fmt == "json":
        return [json.dumps(report.to_json(), indent=2)]
    return ([f"ring: {report.ring}   law: {report.law}   (m, n) = ({report.m}, {report.n})"]
            + [f"  {key}: {val}" for key, val in report.hypotheses.items()]
            + [f"  solutions: {report.solution_count}",
               f"  violations: {report.violation_count}",
               f"  verdict: {report.verdict}"]
            + [f"  example: {v}" for v in report.violations])


def _search_lines(rows, fmt: str) -> list:
    if fmt == "json":
        return [json.dumps([r.to_json() for r in rows], indent=2)]
    return [f"{r.ring:14s} solutions={r.solution_count:<8d} {r.verdict}"
            + ("" if r.applicable else "  [hypotheses fail]") for r in rows]


def _print_rendered(render) -> bool:
    """Print the lines render() returns, once all are built; False, after a
    one-line error, when one holds an integer of more digits than Python
    prints (a torsion product of very large weights)."""
    try:
        lines = render()
    except ValueError:  # int -> str past sys.get_int_max_str_digits()
        print(f"error: the report holds an integer of more than "
              f"{sys.get_int_max_str_digits()} digits, above the limit for printing one",
              file=sys.stderr)
        return False
    for line in lines:
        print(line)
    return True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than a parse, and a process may call main() many times."""
    parser = argparse.ArgumentParser(
        prog="mnjordan",
        description="replay equational proof certificates and verify the "
        "corresponding theorems on finite rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="replay a proof script")
    p.add_argument("script")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_prove)

    r = sub.add_parser("ring", help="check a theorem on one finite ring")
    r.add_argument("--spec", help="JSON ring description")
    r.add_argument("--kind", choices=("Zn", "Mat"))
    r.add_argument("--n", dest="n_values", type=int, action="append",
                   help="for --kind Zn: the modulus, then the law weight; "
                   "otherwise the law weight")
    r.add_argument("--k", type=int, default=2, help="matrix size for --kind Mat")
    r.add_argument("--p", type=int, help="base modulus for --kind Mat")
    r.add_argument("--law", required=True, choices=tuple(TABLE))
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--format", choices=("text", "json"), default="text")
    r.set_defaults(func=cmd_ring)

    s = sub.add_parser("search", help="sweep a family of rings")
    s.add_argument("--family", required=True, choices=("zn", "mat2", "products"))
    s.add_argument("--max-n", type=int, default=12)
    s.add_argument("--primes", help="comma list for --family mat2")
    s.add_argument("--law", required=True, choices=tuple(TABLE))
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True, help="the law weight n")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        # argparse exits 2 on a usage error, which here means EXIT_ASSUMPTIONS
        return EXIT_ERROR
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
