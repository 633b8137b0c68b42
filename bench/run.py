"""Benchmark runner for mnjordan.

One workload, as a closed loop with one client:

    python3 bench/run.py --workload replay --seed 1 --seconds 20 --trace 0

Every workload, each in its own fresh process, with a summary table:

    python3 bench/run.py --all --seed 1 --seconds 20 [--trace 1]

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads() -> None:
    """At most nproc BLAS/OpenMP threads; must run before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


cap_threads()

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
HARD_LIMIT_S = 150.0  # stop between tasks past this, to exit well within 180 s
MODULES = ("cli", "proofcheck", "parsing", "freealg", "finring", "intsolve")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mnjordan.cli; print(time.perf_counter() - t)"
)


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def import_program() -> SimpleNamespace:
    if not (SRC / "mnjordan" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'mnjordan'}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"mnjordan.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC not in where.parents:
        raise SetupError(f"mnjordan was imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


def fresh_import_seconds() -> float:
    """Import time of the program in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    mods = import_program()
    work = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    try:
        # set-up: a fresh import plus generating every seeded input, repeated
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            rounds = workload.prepare(ROOT, work, seed, mods)
            setups.append(fresh_import_seconds() + time.perf_counter() - t0)

        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, [getattr(mods, m) for m in MODULES])
        done = []      # (task label, seconds, failure reason or None)
        pending = []   # outputs not yet checked: untraced runs check them after
        checking = 0.0  # each round, off the clock; traced runs after the loop
        start = time.perf_counter()
        try:
            for r in range(1 << 30):
                for task in rounds[r % len(rounds)]:
                    if tracer is not None:
                        tracer.task = len(done) + len(pending)
                    t0 = time.perf_counter()
                    try:
                        out, err = workload.execute(task, mods), None
                    except Exception as exc:  # the program raised: a failed task
                        out, err = None, "".join(traceback.format_exception_only(type(exc), exc)).strip()
                    pending.append((task, time.perf_counter() - t0, out, err))
                    if time.perf_counter() - start > HARD_LIMIT_S:
                        break
                if not trace:
                    t1 = time.perf_counter()
                    done += [(task.label, dt, judge(workload, task, out, err, mods))
                             for task, dt, out, err in pending]
                    pending.clear()
                    checking += time.perf_counter() - t1
                elapsed = time.perf_counter() - start - checking
                # traced: one pass over the cycle; untraced: until the time is up
                if (r + 1 == len(rounds) if trace else elapsed >= seconds) or elapsed > HARD_LIMIT_S:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start - checking
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done += [(task.label, dt, judge(workload, task, out, err, mods)) for task, dt, out, err in pending]

        failures = {}
        for label, _, reason in done:
            if reason is not None:
                failures.setdefault(_classify(reason), []).append((label, reason))
        durations = [dt for _, dt, _ in done]
        result = {
            "workload": name, "seed": seed, "tasks": len(done), "wall_s": wall,
            "setup_s": statistics.median(setups), "tasks_per_s": len(done) / wall,
            "task_s.p50": percentile(durations, 0.5),
            "task_s.p90": percentile(durations, 0.9) if len(durations) >= 100 else None,
            "failed": sum(len(v) for v in failures.values()), "failures": failures,
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            task_seconds = sum(durations)
            result["layers"] = tracing.per_layer_metrics(tracer, mods.freealg, task_seconds, len(done))
            result["layer_shares"] = tracing.layer_shares(tracer, task_seconds)
            out_dir = BENCH / ".out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def judge(workload, task, out, err, mods):
    """None when the task's output matches the known answer, else why not."""
    if err is not None:
        return err
    try:
        return workload.check(task, out, mods)
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _classify(reason: str) -> str:
    if reason.startswith("OverflowError"):
        return "defect:overflow"
    return reason if reason.startswith("defect:") else "unexpected"


def print_report(res: dict, trace: bool) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  tasks {res['tasks']}  "
          f"wall {res['wall_s']:.2f} s  (closed loop, one client)")
    n = res["tasks"]
    print(f"  setup_s      {res['setup_s']:.4f} s   (median of {SETUP_REPEATS})")
    print(f"  tasks_per_s  {res['tasks_per_s']:.4f} 1/s")
    print(f"  task_s.p50   {res['task_s.p50']:.6f} s   (n={n})")
    if res["task_s.p90"] is not None:
        print(f"  task_s.p90   {res['task_s.p90']:.6f} s   (n={n}, {n - int(0.9 * n)} beyond)")
    else:
        print(f"  task_s.p90   undefined: fewer than 100 tasks (n={n})")
    print(f"  failed_frac  {res['failed'] / n:.4f} ratio ({res['failed']}/{n})")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
    for kind, items in sorted(res["failures"].items()):
        print(f"  failed [{kind}] x{len(items)}: e.g. {items[0][0]}: {items[0][1][:160]}")
    if trace:
        print("  per-layer (traced run):")
        by_name = {row[0]: row for row in tracing.PER_LAYER}
        for key, value in res["layers"].items():
            _, unit, _, moves, where = by_name[key]
            print(f"    {key:42s} {value:14.6f} {unit:6s} moves {moves} on {where}")
        covered = sum(res["layer_shares"].values())
        shares = "  ".join(f"{k} {v:.1%}" for k, v in res["layer_shares"].items())
        print(f"  share of traced task time in the named layers: {covered:.1%} ({shares})")


def result_line(res: dict, trace: bool) -> str:
    if trace:
        metrics = {row[0]: {"value": res["layers"][row[0]], "unit": row[1]} for row in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "tasks_per_s": {"value": res["tasks_per_s"], "unit": "1/s"},
            "task_s.p50": {"value": res["task_s.p50"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    correct = "unexpected" not in res["failures"]
    return json.dumps({"correct": correct, "attempted": res["tasks"], "failed": res["failed"],
                       "metrics": metrics})


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; with tracing, an untraced and a traced one."""
    rows = []
    for name in WORKLOADS:
        modes = (False, True) if trace else (False,)
        row = {"name": name}
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(mode))]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return 1
            row["traced" if mode else "untraced"] = json.loads(lines[-1])
        rows.append(row)
    print("\nworkload       setup_s  tasks_per_s  task_s.p50  peak_rss_mb  failed/attempted  correct"
          + ("  traced tasks_per_s (tracing overhead)" if trace else ""))
    for row in rows:
        u = row["untraced"]
        m = {k: v["value"] for k, v in u["metrics"].items()}
        line = (f"{row['name']:13s} {m['setup_s']:8.4f} {m['tasks_per_s']:12.4f} {m['task_s.p50']:11.6f} "
                f"{m['peak_rss_mb']:12.1f} {u['failed']:8d}/{u['attempted']:<8d} {str(u['correct']):>7s}")
        if trace:
            t = row["traced"]["metrics"]["traced.tasks_per_s"]["value"]
            line += f"  {t:.4f} ({1 - t / m['tasks_per_s']:+.1%})"
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if not args.workload:
        parser.error("give --workload NAME or --all")
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(res, bool(args.trace))
    print(result_line(res, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
