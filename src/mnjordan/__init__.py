"""Equational certificates and finite-ring verification for weighted Jordan
centralizer and derivation identities on semiprime rings.

The package has two engines:

* :mod:`mnjordan.freealg` / :mod:`mnjordan.proofcheck` replay the two main
  theorems as step-by-step certificates over an exact noncommutative
  polynomial algebra (scripts ship in ``mnjordan/proofs/``);
* :mod:`mnjordan.finring` solves the defining functional identities for all
  additive maps on concrete finite rings and verifies the theorems'
  conclusions exhaustively.

The package root re-exports the replay engine only; import
``mnjordan.finring`` for the finite-ring one, which needs numpy.
"""

from .scalars import ExactDivisionError, ScalarPoly
from .freealg import (
    NCPoly,
    NormalizeError,
    NestingError,
    app,
    commutator,
    exact_divide,
    gen,
    mul,
    normalize,
    polarize_even,
    scale,
    substitute,
    substitute_multi,
)
from .parsing import ParseError, parse_poly, parse_scalar
from .proofcheck import AuditReport, ProofScript, parse_script, replay, replay_text

__version__ = "0.1.0"
