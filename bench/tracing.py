"""Outside-in tracing: spans around the public functions of each layer.

Each listed function is replaced, at the module or class attribute where its
caller looks it up, by a wrapper that records a span (name, start, end,
parent span, task id) and bumps the counters of that boundary.  Spans stay
in memory and are written out when the run ends.  Nothing inside the
program changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (metric, unit, better, end-to-end metric it should move, workloads)
PER_LAYER = [
    ("cli.main.self_s", "s", "lower", "task_s.p50 (should not move)", "replay, rings-small"),
    ("proofcheck.parse_script.s", "s", "lower", "tasks_per_s", "replay"),
    ("proofcheck.replay.self_s", "s", "lower", "tasks_per_s", "replay"),
    ("proofcheck.steps", "count", "higher", "tasks_per_s", "replay"),
    ("parsing.parse_poly.s", "s", "lower", "tasks_per_s, task_s.p50", "replay (major), crosscheck (minor)"),
    ("parsing.parse_poly.calls", "count", "lower", "tasks_per_s, task_s.p50", "replay (major), crosscheck (minor)"),
    ("freealg.normalize.s", "s", "lower", "tasks_per_s", "replay"),
    ("freealg.normalize.calls", "count", "lower", "tasks_per_s", "replay"),
    ("freealg.normalize.terms_in", "count", "lower", "tasks_per_s", "replay"),
    ("freealg.norm_cache.entries", "count", "lower", "peak_rss_mb", "replay"),
    ("finring.ring_build.s", "s", "lower", "tasks_per_s", "rings-small"),
    ("finring.is_semiprime.s", "s", "lower", "task_s.p50", "rings-small, rings-large"),
    ("finring.is_prime.s", "s", "lower", "task_s.p50", "rings-small, rings-large"),
    ("finring.center.s", "s", "lower", "task_s.p50", "rings-small, rings-large"),
    ("finring.solve_identity.self_s", "s", "lower", "tasks_per_s", "rings-small (major), rings-large (minor)"),
    ("finring.law_rows", "count", "lower", "peak_rss_mb, tasks_per_s", "rings-large"),
    ("finring.solutions", "count", "lower", "none (correctness fingerprint)", "rings-large, rings-small"),
    ("finring.SolutionSet.maps.s", "s", "lower", "tasks_per_s", "rings-small"),
    ("finring.conclusion.s", "s", "lower", "tasks_per_s", "rings-small"),
    ("finring.conclusion.maps_checked", "count", "lower", "tasks_per_s", "rings-small"),
    ("finring.PairEvaluator.build_s", "s", "lower", "tasks_per_s, task_s.p50", "crosscheck"),
    ("finring.PairEvaluator.first_violation.s", "s", "lower", "tasks_per_s, task_s.p50", "crosscheck"),
    ("finring.PairEvaluator.pairs", "count", "lower", "tasks_per_s, task_s.p50", "crosscheck"),
    ("intsolve.gf_nullspace.s", "s", "lower", "tasks_per_s, peak_rss_mb", "rings-large"),
    ("intsolve.gf_nullspace.calls", "count", "lower", "tasks_per_s, peak_rss_mb", "rings-large"),
    ("intsolve.gf_nullspace.rows_in", "count", "lower", "tasks_per_s, peak_rss_mb", "rings-large"),
    ("intsolve.kernel_mod.s", "s", "lower", "tasks_per_s, failed_frac", "rings-small"),
    ("intsolve.enumerate_group.s", "s", "lower", "tasks_per_s, failed_frac", "rings-small"),
    ("intsolve.enumerate_group.elements", "count", "lower", "tasks_per_s, failed_frac", "rings-small"),
    ("intsolve.enumerate_group.errors", "count", "lower", "tasks_per_s, failed_frac", "rings-small"),
    ("traced.tasks_per_s", "1/s", "higher", "tasks_per_s (tracing overhead)", "all"),
    ("traced.coverage", "ratio", "higher", "none (share of task time inside spans)", "all"),
]

LAYERS = ("cli", "proofcheck", "parsing", "freealg", "finring", "intsolve")


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, task id]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.task = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable[[dict, tuple, object, Optional[BaseException]], None]] = None):
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, tracer.task]
            spans.append(span)
            stack.append(index)
            result, error = None, None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if count is not None:
                    count(counts, args, result, error)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> List[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def outer_time(self, name: str) -> float:
        """Time inside spans of ``name`` that have no ``name`` ancestor."""
        total = 0.0
        for s in self.spans:
            if s[0] != name:
                continue
            parent = s[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += s[2] - s[1]
        return total

    def self_time(self, name: str, own: List[float]) -> float:
        return sum(t for s, t in zip(self.spans, own) if s[0] == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _inc(key: str, amount: Callable):
    def count(counts, args, result, error):
        if error is None:
            counts[key] += amount(args, result)
    return count


def _calls(key: str):
    def count(counts, args, result, error):
        counts[key] += 1
    return count


def _rows_to_kernel(counts, args, result, error):
    rows = args[0]
    n_rows = int(getattr(rows, "shape", (len(rows),))[0])
    counts["finring.law_rows"] += n_rows


def _gf_nullspace(counts, args, result, error):
    _rows_to_kernel(counts, args, result, error)
    counts["intsolve.gf_nullspace.calls"] += 1
    counts["intsolve.gf_nullspace.rows_in"] += int(args[0].shape[0])


def _enumerate_group(counts, args, result, error):
    if isinstance(error, OverflowError):
        counts["intsolve.enumerate_group.errors"] += 1
    elif error is None:
        counts["intsolve.enumerate_group.elements"] += len(result)


def _conclusion(counts, args, result, error):
    sols = args[2]
    counts["finring.conclusion.maps_checked"] += int(sols.count)


def _normalize(counts, args, result, error):
    counts["freealg.normalize.calls"] += 1
    counts["freealg.normalize.terms_in"] += len(args[0].terms)


def install(tracer: Tracer, mnjordan_modules) -> None:
    """Wrap every boundary the per-layer metrics are measured at."""
    cli, proofcheck, parsing, freealg, finring, intsolve = mnjordan_modules
    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(proofcheck, "parse_script", "proofcheck.parse_script")
    w(proofcheck, "replay", "proofcheck.replay",
      _inc("proofcheck.steps", lambda args, report: len(report.records)))
    # proofcheck imported parse_poly by name; finring and the benchmark use
    # the parsing module attribute
    w(proofcheck, "parse_poly", "parsing.parse_poly", _calls("parsing.parse_poly.calls"))
    w(parsing, "parse_poly", "parsing.parse_poly", _calls("parsing.parse_poly.calls"))
    w(freealg, "normalize", "freealg.normalize", _normalize)
    for ctor in ("Zn", "MatRing", "DirectProduct", "FromTable", "from_spec"):
        w(finring, ctor, "finring.ring_build")
    for scan in ("is_semiprime", "is_prime", "center"):
        w(finring, scan, f"finring.{scan}")
    w(finring, "solve_identity", "finring.solve_identity",
      _inc("finring.solutions", lambda args, sols: int(sols.count)))
    w(finring.SolutionSet, "maps", "finring.SolutionSet.maps")
    w(finring, "_conclusion_violations", "finring.conclusion", _conclusion)
    w(finring.PairEvaluator, "__init__", "finring.PairEvaluator.build")
    w(finring.PairEvaluator, "first_violation", "finring.PairEvaluator.first_violation",
      _inc("finring.PairEvaluator.pairs", lambda args, result: int(args[0].num) ** 2))
    w(intsolve, "gf_nullspace", "intsolve.gf_nullspace", _gf_nullspace)
    w(intsolve, "kernel_mod", "intsolve.kernel_mod", _rows_to_kernel)
    w(intsolve, "enumerate_group", "intsolve.enumerate_group", _enumerate_group)


def per_layer_metrics(tracer: Tracer, freealg, task_seconds: float, tasks: int) -> Dict[str, float]:
    own = tracer.self_times()
    values: Dict[str, float] = {}
    for name, unit, *_ in PER_LAYER:
        if name in tracer.counts or unit == "count":
            values[name] = tracer.counts.get(name, 0)
        elif name.endswith(".self_s"):
            values[name] = tracer.self_time(name[: -len(".self_s")], own)
        elif name.endswith(".build_s"):
            values[name] = tracer.outer_time(name[: -len("_s")])
        elif name.endswith(".s"):
            values[name] = tracer.outer_time(name[: -len(".s")])
    values["freealg.norm_cache.entries"] = len(getattr(freealg, "_norm_cache", {}))
    values["traced.tasks_per_s"] = tasks / task_seconds if task_seconds else 0.0
    values["traced.coverage"] = sum(own) / task_seconds if task_seconds else 0.0
    return values


def layer_shares(tracer: Tracer, task_seconds: float) -> Dict[str, float]:
    """Share of traced task time spent (self time) in each layer."""
    own = tracer.self_times()
    shares = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(tracer.spans, own):
        shares[s[0].split(".", 1)[0]] += t
    return {k: v / task_seconds for k, v in shares.items()} if task_seconds else shares
