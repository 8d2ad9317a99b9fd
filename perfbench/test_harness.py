"""Self-check of the benchmark harness: ``python3 -m pytest -q perfbench``.

The checkers must accept exact artifacts written from the closed forms and
reject each deliberately wrong one; every workload must run to its end at a
tiny size, failing only the operations of the two known faults; and the
benchmark must refuse to run where there is no program.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def out_dir(request):
    path = os.path.join(ROOT, run.WORK_DIR, "selfcheck", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _write_csv(path, header, rows, event=None):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    if event is not None:
        lines.append(f"# event: {event[0]} at t={event[1]:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _failed_checks(results):
    return [f.split(" ")[0] for failures in results for f in failures]


# ---------------------------------------------------------------------------
# exact artifacts pass, perturbed ones fail

BOX = dict(q0=0.4, p0=-1.1, lam=1.0, eps=1e-4, dt=1e-2)


def _box_artifacts(out_dir, perturb_row=None):
    q0, p0, lam, eps, dt = BOX.values()
    files = []
    for direction, name in ((1, "fwd.csv"), (-1, "bwd.csv")):
        t_z = checks.box_arrival(q0, p0, lam, eps, direction)
        t = np.append(np.arange(0.0, t_z, dt), t_z)
        q, p = checks.box_solution(q0, p0, lam, direction * t)
        q[-1] = checks.box_end_q(q0, p0, lam, eps, direction)
        if perturb_row is not None and direction == 1:
            q[perturb_row] += 1e-4
        _write_csv(os.path.join(out_dir, name), ["t", "q1", "p1"], np.c_[t, q, p],
                   ("reached_Z_neighborhood", t_z))
        files.append(name)
    _write_json(os.path.join(out_dir, "manifest.json"), {"records": [
        {"status": "ok", "files": files, "classification": {"kind": "escape_orbit"}}]})


def _check_box(out_dir):
    return checks.check_portrait(out_dir, [(BOX["q0"], BOX["p0"])], BOX["lam"],
                                 BOX["eps"], BOX["dt"])


def test_portrait_checker_rejects_a_perturbed_row(out_dir):
    _box_artifacts(out_dir)
    assert _failed_checks(_check_box(out_dir)) == []
    _box_artifacts(out_dir, perturb_row=100)
    assert _failed_checks(_check_box(out_dir)) == ["box.rows"]


PENDULUM = [(0.3, 3.0), (2.0, 1.5), (1.0, 0.0)]  # rotation, libration, fixed point


def _classify_artifacts(out_dir, period_offset=0.0):
    lam = 4.0
    entries = []
    for q0, p0 in PENDULUM:
        energy = 0.5 * p0 * p0 + 0.5 * lam * math.cos(q0)
        if p0 == 0.0:
            cls = {"kind": "fixed_point"}
        elif 2 * energy > lam:
            cls = {"kind": "periodic",
                   "period": checks.pendulum_period(energy, lam) + period_offset}
        else:
            cls = {"kind": "escape_orbit", "limit_state": {
                "q": [checks.pendulum_limit_angle(q0, energy, lam) + 2 * math.pi], "p": [0.0]}}
        entries.append({"status": "ok", "classification": cls})
    _write_json(os.path.join(out_dir, "classifications.json"), entries)
    return checks.check_classify(out_dir, PENDULUM, lam)


def test_classify_checker_rejects_a_period_off_by_1e_3(out_dir):
    assert _failed_checks(_classify_artifacts(out_dir)) == []
    assert _failed_checks(_classify_artifacts(out_dir, 1e-3)) == ["pendulum.period"]


FIBERS = [0.5, -2.0, 1.25]


def _lift_artifacts(out_dir, verdict="not_projectable", scale=1.0, toric=False):
    c = 1.5
    witness = None
    if verdict == "not_projectable":
        witness = {"state_a": {"q": [0.2], "p": [0.5]}, "state_b": {"q": [0.2], "p": [-2.0]},
                   "difference": scale * (4.0 - 0.25) / c}
    _write_json(os.path.join(out_dir, "verdict.json"), {"verdict": verdict, "witness": witness})
    return checks.check_liftcheck(out_dir, FIBERS, c, toric)


def test_liftcheck_checker_rejects_a_flipped_verdict_and_a_wrong_witness(out_dir):
    assert _failed_checks(_lift_artifacts(out_dir)) == []
    assert _failed_checks(_lift_artifacts(out_dir, "projectable", toric=True)) == []
    assert _failed_checks(_lift_artifacts(out_dir, "projectable")) == ["liftcheck.verdict"]
    assert _failed_checks(_lift_artifacts(out_dir, toric=True)) == ["liftcheck.verdict"]
    assert _failed_checks(_lift_artifacts(out_dir, scale=1 + 1e-6)) == ["liftcheck.witness"]


def _timescale_artifacts(out_dir, perturb=0.0):
    family, lam, gamma, horizon, q0, v0 = "pure_quadratic", 2.0, 2.0, 3.0, [0.5], [-1.0]
    t = np.linspace(0.0, horizon, 50)
    q, v = checks.damped_solution(family, lam, gamma, q0[0], v0[0], t)
    v[20] += perturb
    _write_csv(os.path.join(out_dir, "realtime_000.csv"), ["t", "q1", "v1"], np.c_[t, q, v])
    _write_json(os.path.join(out_dir, "manifest.json"), {"records": [{"status": "ok"}]})
    return checks.check_timescale(out_dir, family, lam, gamma, horizon, q0, v0, 0)


def test_timescale_checker_rejects_a_perturbed_row(out_dir):
    assert _failed_checks(_timescale_artifacts(out_dir)) == []
    assert _failed_checks(_timescale_artifacts(out_dir, 1e-4)) == ["timescale.rows"]


def _stokes_artifacts(out_dir, event_offset=0.0):
    q0, p0, lam, eps, tol = 0.1, 1.0, 1.0, 1e-2, 1e-8
    t_z = 2 * math.log(p0 / eps) / lam
    t = np.append(np.linspace(0.0, t_z, 40, endpoint=False), t_z + event_offset)
    q, p = checks.stokes_solution(q0, p0, lam, t)
    q[-1], p[-1] = q0 + (p0 * p0 - eps * eps) / lam, eps
    _write_csv(os.path.join(out_dir, "traj_000.csv"), ["t", "q1", "p1"], np.c_[t, q, p],
               ("reached_Z_neighborhood", t[-1]))
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"records": [{"status": "ok", "file": "traj_000.csv"}]})
    return checks.check_simulate_stokes(out_dir, q0, p0, lam, eps, tol)


def test_adaptive_checker_rejects_a_late_event(out_dir):
    assert _failed_checks(_stokes_artifacts(out_dir)) == []
    assert _failed_checks(_stokes_artifacts(out_dir, 1e-3)) == ["adaptive.event_time"]


def test_a_failed_record_fails_its_operation(out_dir):
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"records": [{"status": "error: ValueError: boom"}]})
    assert _failed_checks(checks.check_timescale(
        out_dir, "zero", 1.0, 1.0, 1.0, [0.0], [0.0], 0)) == ["cli.status"]


# ---------------------------------------------------------------------------
# every workload runs to its end at a tiny size

def _expected_failures(invocations):
    return {label for inv in invocations if inv.known_fault for label in inv.labels}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_workload_completes_at_tiny_size(workload):
    seed = 7
    invocations = workloads.build(workload, seed, workloads.TINY[workload])
    result, tally, untraced, traced = run.run_workload(
        workload, seed, 0, workload == "single_runs", ROOT, sizes=workloads.TINY[workload])
    ops = sum(len(inv.labels) for inv in invocations)
    assert result["correct"]
    assert result["attempted"] == ops * (untraced + traced)
    assert set(tally.first_failure) == _expected_failures(invocations)
    assert result["failed"] == len(_expected_failures(invocations)) * (untraced + traced)
    names = run.PER_LAYER if traced else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    assert all(m["value"] == m["value"] for m in result["metrics"].values())


def test_the_same_seed_gives_the_same_configs():
    for workload in workloads.GENERATORS:
        a = [inv.config for inv in workloads.build(workload, 3)]
        b = [inv.config for inv in workloads.build(workload, 3)]
        c = [inv.config for inv in workloads.build(workload, 4)]
        assert a == b and a != c


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, run.WORK_DIR, "selfcheck", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "single_runs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
