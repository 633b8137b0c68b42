"""What the benchmark's tracer needs from the program.

``bench/tracing.py`` wraps named functions of six modules and reads
``PairEvaluator.num``; ``bench/run.py --trace 1`` breaks if any of them is
renamed or deleted.  The tracer is imported from ``bench/`` as it is.
"""

import sys
from pathlib import Path

from mnjordan import cli, finring, freealg, intsolve, parsing, proofcheck

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (owner, attribute) of every boundary the tracer wraps
BOUNDARIES = [
    (cli, "main"),
    (proofcheck, "parse_script"),
    (proofcheck, "replay"),
    (proofcheck, "parse_poly"),
    (parsing, "parse_poly"),
    (freealg, "normalize"),
    *((finring, ctor) for ctor in ("Zn", "MatRing", "DirectProduct", "FromTable", "from_spec")),
    *((finring, scan) for scan in ("is_semiprime", "is_prime", "center")),
    (finring, "solve_identity"),
    (finring.SolutionSet, "maps"),
    (finring, "_conclusion_violations"),
    (finring.PairEvaluator, "__init__"),
    (finring.PairEvaluator, "first_violation"),
    (intsolve, "gf_nullspace"),
    (intsolve, "kernel_mod"),
    (intsolve, "enumerate_group"),
]


def test_the_tracer_wraps_every_boundary_and_puts_each_back(monkeypatch):
    # read-only: no bytecode is written under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    assert len(BOUNDARIES) == 22
    originals = [getattr(owner, attr) for owner, attr in BOUNDARIES]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, [cli, proofcheck, parsing, freealg, finring, intsolve])
        assert len(tracer._patched) == len(BOUNDARIES)
        for (owner, attr), original in zip(BOUNDARIES, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(BOUNDARIES, originals):
        assert getattr(owner, attr) is original, attr


def test_the_pair_evaluator_exposes_the_ring_order():
    # the tracer's pairs counter reads it
    assert finring.PairEvaluator(finring.MatRing(2, 3)).num == 81
