"""The one CSV writer against a per-value reference formatter.

Every CSV artifact goes through :func:`bhamsys.integrate.write_table`, which
formats a whole file with one ``%`` over a row template.  The reference here
is the per-value ``f"{v:.17g}"`` loop the writers used before; the bytes must
be the same.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bhamsys import cli
from bhamsys.geometry import PhaseStructure, StructureKind
from bhamsys.integrate import Event, EventKind, Trajectory, write_table
from bhamsys.oracles import stokes_exact

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
         1.0, -3.0, 1e16, 1e17, 2.0 ** 53, 0.1, 1.0 / 3.0, np.inf, -np.inf, np.nan]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))
FINITE = st.one_of(st.sampled_from(EDGES[:13]), st.floats(allow_nan=False, allow_infinity=False))


def reference(columns, rows, footer=None, suffix=""):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row) + suffix)
    if footer is not None:
        lines.append(footer)
    return "\n".join(lines) + "\n"


def tables(min_cols=1, max_cols=6, elements=VALUES):
    shape = st.tuples(st.integers(0, 12), st.integers(min_cols, max_cols))
    return shape.flatmap(lambda s: arrays(np.float64, s, elements=elements))


@settings(max_examples=200, deadline=None)
@given(values=tables(), suffix=st.sampled_from(["", ",t", ",s", ",50%"]),
       footer=st.sampled_from([None, "# event: blowup at t=1"]))
def test_write_table_matches_reference(tmp_path_factory, values, suffix, footer):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    columns = [f"c{i}" for i in range(values.shape[1])]
    write_table(path, columns, values, footer, suffix=suffix)
    assert path.read_text() == reference(columns, values, footer, suffix)


def trajectories(n, extended=False):
    d = 2 * n + (2 if extended else 0)
    steps = arrays(np.float64, st.integers(1, 10),
                   elements=st.floats(1e-3, 10.0, allow_nan=False))

    def build(draw_steps, ys, t_event):
        times = np.cumsum(draw_steps) - draw_steps[0]
        kind = StructureKind.EXTENDED_CANONICAL if extended else StructureKind.TWISTED_B
        return Trajectory(times=times, ys=ys[:times.size], events=(Event(t_event,
                          EventKind.BLOWUP),), structure=PhaseStructure(kind, 2 * n),
                          hamiltonian=None)

    return st.builds(build, steps, arrays(np.float64, (10, d), elements=FINITE), FINITE)


@settings(max_examples=60, deadline=None)
@given(traj=st.one_of(trajectories(1), trajectories(2)))
def test_trajectory_csv(tmp_path_factory, traj):
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    traj.write_csv(path)
    n = traj.n
    columns = ["t"] + [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    footer = f"# event: blowup at t={traj.terminal_event.time:.17g}"
    rows = [(t, *y) for t, y in zip(traj.times, traj.ys)]
    assert path.read_text() == reference(columns, rows, footer)


@settings(max_examples=30, deadline=None)
@given(traj=trajectories(1, extended=True), clock=st.sampled_from(["t", "s"]))
def test_extended_csv_has_the_clock_column(tmp_path_factory, traj, clock):
    path = tmp_path_factory.mktemp("csv") / "extended.csv"
    cli._write_extended_csv(path, traj, clock)
    columns = ["t", "q1", "p1", "t_ext", "E", "clock"]
    footer = f"# event: blowup at t={traj.terminal_event.time:.17g}"
    rows = [(t, *y) for t, y in zip(traj.times, traj.ys)]
    assert path.read_text() == reference(columns, rows, footer, suffix="," + clock)


class RealTime:
    def __init__(self, times, q, velocity):
        self.times, self.q, self.velocity = times, q, velocity


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), data=st.data())
def test_realtime_csv(tmp_path_factory, n, data):
    rows = data.draw(st.integers(0, 8))
    block = arrays(np.float64, (rows, n), elements=VALUES)
    rt = RealTime(data.draw(arrays(np.float64, rows, elements=VALUES)), data.draw(block),
                  data.draw(block))
    path = tmp_path_factory.mktemp("csv") / "realtime.csv"
    cli._write_realtime_csv(path, rt)
    columns = ["t"] + [f"q{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)]
    body = [(t, *q, *v) for t, q, v in zip(rt.times, rt.q, rt.velocity)]
    assert path.read_text() == reference(columns, body)


def test_oracle_compare_columns(tmp_path):
    doc = {"structure": {"kind": "twisted_b"}, "potential": {"family": "linear"},
           "initial": [[0.5, -2.0], [0.0, 1.0]], "integrator": {"step": 0.05, "t_max": 2.0}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["oracle-compare", "--config", str(path), "--out", str(tmp_path)]) == 0
    cfg = cli.parse_config(doc, "oracle-compare")
    for i, (initial, traj) in enumerate(zip(cfg.initials, cli._integrate_all(cfg))):
        q_exact, p_exact = stokes_exact(initial.q[0], initial.p[0], 1.0, traj.times)
        rows = zip(traj.times, traj.q[:, 0], traj.p[:, 0], q_exact, p_exact)
        expected = reference(["t", "q_sim", "p_sim", "q_exact", "p_exact"], rows)
        assert (tmp_path / f"compare_{i:03d}.csv").read_text() == expected
