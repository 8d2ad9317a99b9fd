"""End-to-end benchmark of the bhamsys CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 50 --trace 0

Generates the workload's JSON configs from ``--seed``, then repeats passes
over the workload's CLI invocations until ``--seconds`` have elapsed.  Every
invocation is a fresh interpreter (``perfbench/child.py``, which calls
``bhamsys.cli.main``) with BLAS/OpenMP threads pinned to 1; the benchmark
itself is one process with no extra threads.  After each invocation its
artifacts are checked against closed forms (``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, medians over the run's passes (see
``median_pass``); with ``--trace 1`` passes alternate untraced and traced,
and the metrics are the per-layer ones from the traced passes plus
``trace.overhead_s``.  ``correct`` is false when an operation fails outside
the two known faults named in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Pinned before numpy is imported, here and in every child.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".bench_work"
CHILD = os.path.join(HERE, "child.py")
# Every child still running this long after the run began is killed, so the
# run ends within its 180 s allowance even if an invocation hangs.
RUN_LIMIT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "orbits_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.parse_s": "s", "cli.self_s": "s", "cli.bytes": "bytes",
    "integrate.write_csv_s": "s", "integrate.csv_rows": "count",
    "integrate.calls": "count", "integrate.steps": "count", "integrate.self_s": "s",
    "integrate.us_per_step": "us", "integrate.evals_per_step": "evals/step",
    "geometry.field_evals": "count", "geometry.self_s": "s", "geometry.us_per_eval": "us",
    "hamiltonians.gradient_calls": "count", "hamiltonians.self_s": "s",
    "orbits.classify_calls": "count", "orbits.periodic": "count", "orbits.self_s": "s",
    "timescale.runs": "count", "timescale.self_s": "s", "timescale.reconstruct_s": "s",
    "liftcheck.calls": "count", "liftcheck.pairs": "count", "liftcheck.self_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark cannot run here: there is no program to measure."""


@dataclass
class Outcome:
    """One finished invocation."""

    wall: float
    setup: float
    post: float
    rss_kb: int
    orbits: int
    stats: dict
    failures: list  # one list of failed checks per operation


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    first_failure: dict = field(default_factory=dict)  # label -> (checks, fault)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, WORK_DIR, "pycache")
    # Bytecode is cached under WORK_DIR, as an installed package has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("BHAMSYS_LOG", None)
    return env


def _spawn_and_reap(argv, env, root, log_path, deadline):
    """Run ``argv`` to completion; returns (start, end, exit code, rusage).

    A SIGALRM watchdog kills the child at the monotonic time ``deadline``.
    """
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=root)

        def kill(signum, frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.alarm(max(1, math.ceil(deadline - start)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage


def run_invocation(inv, pass_dir, trace, env, root, deadline):
    out_dir = os.path.join(pass_dir, inv.name)
    config_path = out_dir + ".json"
    stats_path = out_dir + ".stats.json"
    with open(config_path, "w") as fh:
        json.dump(inv.config, fh)
    argv = [sys.executable, CHILD, stats_path, "1" if trace else "0",
            inv.command, "--config", config_path, "--out", out_dir]
    start, end, code, usage = _spawn_and_reap(argv, env, root, out_dir + ".log", deadline)
    try:
        stats = checks.read_json(stats_path)
    except (OSError, ValueError):
        stats = {}
    # A child that never validated its config spent its whole life in set-up.
    parsed_at = stats.get("parsed_at", end)
    failures = inv.check(out_dir)
    if code not in (0, 1):
        failures = [f + [f"cli.exit ({code})"] for f in failures]
    records = checks.manifest_records(out_dir) or []
    orbits = 0 if inv.command == "liftcheck" else sum(r.get("status") == "ok" for r in records)
    return Outcome(wall=end - start,
                   setup=parsed_at - start, post=end - parsed_at,
                   rss_kb=usage.ru_maxrss, orbits=orbits, stats=stats, failures=failures)


def artifact_bytes(path):
    """Bytes the CLI wrote: every file under the invocations' output dirs."""
    total = 0
    for dirpath, _, files in os.walk(path):
        if dirpath != path:
            total += sum(os.path.getsize(os.path.join(dirpath, name)) for name in files)
    return total


def run_pass(invocations, pass_dir, trace, env, root, tally, deadline):
    """All invocations once; returns the pass's outcomes and artifact bytes."""
    os.makedirs(pass_dir)
    outcomes = []
    for inv in invocations:
        outcome = run_invocation(inv, pass_dir, trace, env, root, deadline)
        outcomes.append(outcome)
        for label, failed in zip(inv.labels, outcome.failures):
            tally.attempted += 1
            if failed:
                tally.failed += 1
                tally.unexpected += inv.known_fault is None
                tally.first_failure.setdefault(label, (failed, inv.known_fault))
    size = artifact_bytes(pass_dir)
    shutil.rmtree(pass_dir)
    return outcomes, size


def median_pass(passes):
    """The medians over the passes of each pass's wall time and orbit rate,
    and the median set-up time over every invocation of every pass.  The
    host's speed drifts by 10-40% over seconds to minutes (see README.md);
    a median over the whole run is the figure those drifts move least."""
    orbits = sum(o.orbits for o in passes[0])
    return {"wall": statistics.median(sum(o.wall for o in p) for p in passes),
            "rate": statistics.median(orbits / sum(o.post for o in p) for p in passes),
            "setup": statistics.median(o.setup for p in passes for o in p)}


def layer_metrics(outcomes, size):
    """Per-layer metrics of one traced pass."""
    calls, total, self_time, counts = {}, {}, {}, {}
    for o in outcomes:
        for name, (n, tot, own) in o.stats.get("spans", {}).items():
            calls[name] = calls.get(name, 0) + n
            total[name] = total.get(name, 0.0) + tot
            self_time[name] = self_time.get(name, 0.0) + own
        for name, value in o.stats.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counts.get("integrate.steps", 0)
    evals = calls.get("geometry.field", 0)
    return {
        "cli.import_s": statistics.median(o.stats.get("import_s", 0.0) for o in outcomes),
        "cli.parse_s": statistics.median(o.stats.get("parse_s", 0.0) for o in outcomes),
        "cli.self_s": self_time.get("cli.run", 0.0),
        "cli.bytes": size,
        "integrate.write_csv_s": total.get("integrate.write_csv", 0.0),
        "integrate.csv_rows": counts.get("integrate.csv_rows", 0),
        "integrate.calls": calls.get("integrate", 0),
        "integrate.steps": steps,
        "integrate.self_s": self_time.get("integrate", 0.0),
        "integrate.us_per_step": 1e6 * ratio(total.get("integrate", 0.0), steps),
        "integrate.evals_per_step": ratio(counts.get("integrate.field_evals", 0), steps),
        "geometry.field_evals": evals,
        "geometry.self_s": self_time.get("geometry.field", 0.0),
        "geometry.us_per_eval": 1e6 * ratio(total.get("geometry.field", 0.0), evals),
        "hamiltonians.gradient_calls": calls.get("hamiltonians.gradient", 0),
        "hamiltonians.self_s": self_time.get("hamiltonians.gradient", 0.0),
        "orbits.classify_calls": calls.get("orbits.classify", 0),
        "orbits.periodic": counts.get("orbits.periodic", 0),
        "orbits.self_s": self_time.get("orbits.classify", 0.0)
        + self_time.get("orbits.portrait", 0.0),
        "timescale.runs": calls.get("timescale.run", 0),
        "timescale.self_s": self_time.get("timescale.run", 0.0)
        + self_time.get("timescale.reconstruct", 0.0),
        "timescale.reconstruct_s": total.get("timescale.reconstruct", 0.0),
        "liftcheck.calls": calls.get("liftcheck.test", 0),
        "liftcheck.pairs": counts.get("liftcheck.pairs", 0),
        "liftcheck.self_s": self_time.get("liftcheck.test", 0.0),
    }


def warm_up(env, root):
    """Compile the library's bytecode once, as an installed package would
    have it, so the first timed invocation does not pay for it."""
    probe = [sys.executable, "-c", "import bhamsys.cli"]
    if subprocess.run(probe, env=env, cwd=root, stdin=subprocess.DEVNULL,
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode:
        raise HarnessError("cannot import bhamsys.cli from src/")


def run_workload(workload, seed, seconds, trace, root, sizes=None):
    """Measure one workload; returns (result, tally, untraced passes, traced
    passes)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(root, "src", "bhamsys", "cli.py")):
        raise HarnessError(f"no program to measure: {root}/src/bhamsys/cli.py is missing")
    invocations = workloads.build(workload, seed, sizes)
    env = child_env(root)
    work = os.path.join(root, WORK_DIR, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    warm_up(env, root)

    tally = Tally()
    untraced, traced = [], []
    start = time.monotonic()
    index = 0
    while True:
        if time.monotonic() - start >= seconds and untraced and (traced or not trace):
            break
        use_trace = trace and index % 2 == 1
        outcomes, size = run_pass(invocations, os.path.join(work, f"pass{index:03d}"),
                                  use_trace, env, root, tally, deadline)
        (traced if use_trace else untraced).append((outcomes, size))
        index += 1
    shutil.rmtree(work, ignore_errors=True)

    plain = [outcomes for outcomes, _ in untraced]
    medians = median_pass(plain)
    if trace:
        layers = [layer_metrics(outcomes, size) for outcomes, size in traced]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = (median_pass([o for o, _ in traced])["wall"]
                                       - medians["wall"])
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": medians["setup"],
            "wall_s": medians["wall"],
            "orbits_per_s": medians["rate"],
            "peak_rss_mb": max(o.rss_kb for p in plain for o in p) / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, tally, len(untraced), len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        result, tally, n_untraced, n_traced = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), root)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload}: seed {args.seed}, {n_untraced} untraced and {n_traced} traced "
          f"passes; attempted {tally.attempted}, failed {tally.failed}")
    for label, (failed, fault) in sorted(tally.first_failure.items()):
        tag = f"known fault: {fault}" if fault else "UNEXPECTED"
        print(f"  FAILED {label} [{tag}]: {'; '.join(failed)}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
