"""CLI config validation, artifact contents, exit codes, and determinism."""

import json
import math

import numpy as np
import pytest

from bhamsys.cli import ConfigError, main, parse_config, run


def stokes_config(**integrator):
    cfg = {
        "structure": {"kind": "twisted_b", "dim": 2},
        "potential": {"family": "linear", "lambda": 1.0},
        "initial": [[0.0, 1.0]],
    }
    if integrator:
        cfg["integrator"] = integrator
    return cfg


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, comments="#")


class TestParseConfig:
    def test_minimal_simulate(self):
        cfg = parse_config(stokes_config(), "simulate")
        assert cfg.structure.kind.value == "twisted_b"
        assert len(cfg.initials) == 1
        assert cfg.integrator.step == 1e-3

    def test_unknown_key_reports_path(self):
        doc = stokes_config()
        doc["structure"]["bogus"] = 1
        with pytest.raises(ConfigError, match="structure.bogus"):
            parse_config(doc, "simulate")

    def test_negative_lambda_names_the_key(self):
        doc = stokes_config()
        doc["potential"]["lambda"] = -1.0
        with pytest.raises(ConfigError, match="potential.lambda"):
            parse_config(doc, "simulate")

    def test_alpha_requires_general_quadratic(self):
        doc = stokes_config()
        doc["potential"]["alpha"] = 0.5
        with pytest.raises(ConfigError, match="potential.alpha"):
            parse_config(doc, "simulate")

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json", "simulate")

    def test_custom_family_rejected(self):
        doc = stokes_config()
        doc["potential"]["family"] = "custom"
        with pytest.raises(ConfigError, match="^potential.family must be one of .*, got 'custom'$"):
            parse_config(doc, "simulate")


class TestSimulate:
    def test_stokes_artifact(self, tmp_path):
        path = write(tmp_path, "run.json",
                     stokes_config(step=1e-3, t_max=20.0, z_epsilon=1e-4))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        data = read_csv(out / "traj_000.csv")
        assert abs(data[-1, 1] - 1.0) < 1e-6  # q limit q0 + p0^2/lam
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["records"][0]["status"] == "ok"
        assert manifest["records"][0]["event"]["kind"] == "reached_Z_neighborhood"
        assert manifest["version"]

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write(tmp_path, "run.json", stokes_config(step=1e-2, t_max=5.0))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
        for name in ("traj_000.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_record_failure_sets_exit_code(self, tmp_path):
        doc = stokes_config(step=1e-2, t_max=5.0)
        doc["initial"] = [[1e400, 1.0], [0.0, 1.0]]  # first state is infinite
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        statuses = [r["status"] for r in manifest["records"]]
        assert statuses[0].startswith("error") and statuses[1] == "ok"

    def test_adaptive_method_via_config(self, tmp_path):
        doc = stokes_config(method="rk_adaptive", step=1e-2, t_max=5.0,
                            rel_tol=1e-10, abs_tol=1e-10)
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        data = read_csv(out / "traj_000.csv")
        q_exact = 1.0 - np.exp(-data[:, 0])
        assert np.max(np.abs(data[:, 1] - q_exact)) < 1e-8
        assert data.shape[0] < 500  # adaptive uses far fewer rows

    def test_config_error_exit_code(self, tmp_path):
        doc = stokes_config()
        doc["unknown_top"] = 1
        path = write(tmp_path, "run.json", doc)
        assert main(["simulate", "--config", path]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


class TestPortrait:
    def test_escape_grid_with_index(self, tmp_path):
        doc = {
            "structure": {"kind": "twisted_b", "dim": 2},
            "potential": {"family": "linear", "lambda": 1.0},
            "initial": [[float(q), p] for q in range(-4, 7) for p in (1.0, -1.0)],
            "integrator": {"step": 0.01, "t_max": 25.0, "z_epsilon": 1e-4},
            "backward": False,
        }
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["portrait", "--config", path, "--out", str(out)]) == 0
        index = json.loads((out / "portrait.json").read_text())
        assert len(index) == 22
        kinds = {entry["classification"]["kind"] for entry in index}
        assert kinds == {"escape_orbit"}
        assert (out / "traj_000_forward.csv").exists()


class TestClassify:
    def test_classifications_json(self, tmp_path):
        doc = {
            "structure": {"kind": "twisted_b", "dim": 2},
            "potential": {"family": "pure_quadratic", "lambda": 1.0},
            "initial": [[0.0, 1.0], [1.0, 0.0]],
            "integrator": {"step": 0.002, "t_max": 40.0, "z_epsilon": 1e-4},
        }
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["classify", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "classifications.json").read_text())
        assert payload[0]["classification"]["kind"] == "escape_orbit"
        assert payload[1]["classification"]["kind"] == "fixed_point"


class TestOracleCompare:
    def test_stokes_errors_reported(self, tmp_path):
        doc = stokes_config(step=1e-3, t_max=5.0)
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary[0]["max_abs_q_error"] < 1e-10
        assert summary[0]["max_abs_p_error"] < 1e-10

    def test_tanh_oracle_on_lower_half_plane(self, tmp_path):
        doc = {
            "structure": {"kind": "twisted_b", "dim": 2},
            "potential": {"family": "pure_quadratic", "lambda": 1.0},
            "initial": [[0.0, -1.0]],
            "integrator": {"step": 1e-3, "t_max": 5.0},
        }
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary[0]["max_abs_q_error"] < 1e-8
        assert summary[0]["max_abs_p_error"] < 1e-8

    @pytest.mark.parametrize("p0", [1e-9, 1e-7])
    def test_tanh_oracle_at_a_small_momentum(self, tmp_path, p0):
        # the closed form's c2 = artanh(q0 / c1) is computed without its
        # cancellation: the artanh argument rounds to -1 and 1 at p0 = 1e-9,
        # and costs the oracle a p error of 4e-11 at p0 = 1e-7
        doc = {
            "structure": {"kind": "twisted_b", "dim": 2},
            "potential": {"family": "pure_quadratic", "lambda": 1.0},
            "initial": [[1.0, p0], [-1.0, p0]],
            "integrator": {"step": 0.01, "t_max": 1.0},
        }
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 2
        for row in summary:
            assert row["max_abs_q_error"] < 1e-13
            assert row["max_abs_p_error"] < 1e-11 * p0

    def test_unsupported_combination(self, tmp_path):
        doc = {
            "structure": {"kind": "canonical", "dim": 2},
            "potential": {"family": "periodic", "lambda": 1.0},
            "initial": [[0.0, 1.0]],
        }
        path = write(tmp_path, "run.json", doc)
        assert main(["oracle-compare", "--config", path]) == 2


class TestTimescale:
    def test_pipeline_artifacts(self, tmp_path):
        doc = {
            "potential": {"family": "zero"},
            "friction": 1.0,
            "clock": "t",
            "horizon": 5.0,
            "initial": [0.0, 1.0],
        }
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["timescale", "--config", path, "--out", str(out)]) == 0
        ext = (out / "extended_000.csv").read_text().splitlines()
        assert ext[0] == "t,q1,p1,t_ext,E,clock"
        assert ext[1].endswith(",t")
        rt = read_csv(out / "realtime_000.csv")
        # dq/dt = exp(-t) for free damped motion with v0 = 1
        assert abs(rt[-1, 2] - math.exp(-rt[-1, 0])) < 1e-6

    FALLING = {"potential": {"family": "linear", "lambda": 1.0}, "friction": 1.0,
               "initial": [1.0, 0.0]}

    def run_timescale(self, tmp_path, name, **doc):
        out = tmp_path / name
        code = main(["timescale", "--config", write(tmp_path, name + ".json", doc),
                     "--out", str(out)])
        return code, out

    @staticmethod
    def csv_files(out):
        return {name: (out / name).read_bytes()
                for name in ("extended_000.csv", "realtime_000.csv")}

    def test_a_section_on_clock_s_reaches_a_horizon_below_the_default_z_epsilon(self,
                                                                                tmp_path):
        # s = exp(-20) at the horizon is far below the integrator's default
        # z_epsilon of 1e-6, which the s chart replaces by half of it
        code, out = self.run_timescale(tmp_path, "s20", **self.FALLING, clock="s",
                                       horizon=20.0,
                                       integrator={"method": "rk_adaptive", "step": 1e-3})
        assert code == 0
        rt = read_csv(out / "realtime_000.csv")
        assert abs(rt[-1, 0] - 20.0) < 1e-5

    def test_a_section_overrides_the_timescale_defaults_key_by_key(self, tmp_path):
        # rel_tol alone keeps the adaptive DOP853 of the section-less run
        doc = dict(self.FALLING, clock="t", horizon=10.0)
        code, bare = self.run_timescale(tmp_path, "bare", **doc)
        assert code == 0
        code, out = self.run_timescale(tmp_path, "rel", **doc, integrator={"rel_tol": 1e-10})
        assert code == 0
        assert self.csv_files(out) == self.csv_files(bare)

    @pytest.mark.parametrize("clock", ["t", "s"])
    def test_a_dp5_section_fits_a_horizon_below_its_first_step(self, tmp_path, clock):
        # the horizon 5e-4 is below the default step 1e-3, which DOP853 clamps
        # to horizon / 10 with a section as without one
        doc = dict(self.FALLING, clock=clock, horizon=5e-4)
        code, bare = self.run_timescale(tmp_path, "bare", **doc)
        assert code == 0
        code, out = self.run_timescale(tmp_path, "rel", **doc, integrator={"rel_tol": 1e-10})
        assert code == 0
        assert self.csv_files(out) == self.csv_files(bare)

    def test_horizon_required(self, tmp_path):
        doc = {"potential": {"family": "zero"}, "friction": 1.0,
               "initial": [0.0, 1.0]}
        path = write(tmp_path, "run.json", doc)
        assert main(["timescale", "--config", path]) == 2


class TestLiftcheck:
    def test_twisted_model_verdict(self, tmp_path, capsys):
        doc = {
            "structure": {"kind": "twisted_b", "dim": 2},
            "potential": {"family": "linear", "lambda": 1.0},
            "base_points": [0.0],
            "fiber_samples": [1.0, 2.0],
            "tol": 1e-9,
        }
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["liftcheck", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "verdict.json").read_text())
        assert payload["verdict"] == "not_projectable"
        assert payload["witness"]["difference"] == 3.0
        assert json.loads(capsys.readouterr().out)["verdict"] == "not_projectable"

    def test_toric_control_verdict(self, tmp_path):
        doc = {
            "structure": {"kind": "twisted_b", "dim": 2},
            "toric": {"c": 1.0},
            "base_points": [0.0, 1.0],
            "fiber_samples": [0.5, 2.0],
        }
        path = write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["liftcheck", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "verdict.json").read_text())
        assert payload["verdict"] == "projectable"
        assert payload["witness"] is None

    def test_potential_and_toric_exclusive(self, tmp_path):
        doc = {
            "structure": {"kind": "twisted_b", "dim": 2},
            "potential": {"family": "linear", "lambda": 1.0},
            "toric": {"c": 1.0},
        }
        path = write(tmp_path, "run.json", doc)
        assert main(["liftcheck", "--config", path]) == 2
