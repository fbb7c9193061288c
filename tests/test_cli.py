"""Command-line interface tests: subcommands, exit codes, artifacts."""

import contextlib
import filecmp
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from etcontrol import cli, verify
from etcontrol.design import design_lti
from etcontrol.feedback import UpdateSchedule
from etcontrol.models import BATCH_A, BATCH_B, BATCH_K, design_scenario, \
    scenario_by_name
from etcontrol.simulate import QUANTILES, SimulationTrace

# Threshold of the first cubic-oscillator sensor at level 2.5, frozen
# from the design path (matches the design-module regression values).
CUBIC_W1_AT_25 = 0.01729268

ZENO_MODEL = {
    "A": [[-1.0]], "B": [[1.0]], "K": [[-1.0]], "Q": [[1.0]],
    "theta": [0.5], "sigma": 1e-6, "x0": [1.0], "xs0": [1.001],
    "horizon": 3.0,
}

# The batch reactor resting at its equilibrium: no sensor ever transmits.
RESTING_BATCH_MODEL = {
    "A": BATCH_A.tolist(), "B": BATCH_B.tolist(), "K": BATCH_K.tolist(),
    "Q": np.eye(4).tolist(), "theta": [0.6, 0.17, 0.08, 0.15], "sigma": 0.95,
    "x0": [0.0] * 4, "xs0": [0.0] * 4, "horizon": 0.2,
}


# Fields of the batch-reactor document that a malformed model replaces.
MALFORMED_FIELDS = [
    ("x0", [float("nan"), 7.0, -4.0, 3.0]), ("xs0", [1e400, 7.2, -4.5, 2.0]),
    ("horizon", 1e400), ("step", 1e400), ("sigma", None), ("horizon", None),
    ("step", [1e-4]), ("B", [1, 2, 3, 4]), ("A", 5.0),
]


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """Artifacts of one short cubic simulation, shared across tests."""
    out = tmp_path_factory.mktemp("sim") / "run"
    code = run_cli(["simulate", "--model", "cubic_oscillator",
                    "--horizon", "1.0", "--out", str(out)])
    assert code == 0
    return out


class TestDesignCommand:
    def test_stdout_document_matches_library(self, capsys):
        assert run_cli(["design", "--model", "batch_reactor"]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = design_scenario(scenario_by_name("batch_reactor"))
        assert len(doc["sensors"]) == 4
        for entry, w, T in zip(doc["sensors"], expected.config.thresholds,
                               expected.config.dwells):
            assert entry["w"] == pytest.approx(w, rel=1e-12)
            assert entry["T"] == pytest.approx(T, rel=1e-12)
        assert doc["W"] == pytest.approx(expected.config.threshold_norm, rel=1e-12)
        assert doc["Q_m"] == 1.0
        assert np.asarray(doc["P"]).shape == (4, 4)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        assert run_cli(["design", "--model", "batch_reactor",
                        "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
        assert doc["sigma"] == 0.95

    def test_level_override_redesigns_cubic(self, capsys):
        assert run_cli(["design", "--model", "cubic_oscillator",
                        "--level", "2.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c"] == 2.5
        assert doc["sensors"][0]["w"] == pytest.approx(CUBIC_W1_AT_25, rel=1e-6)

    def test_sigma_theta_override_changes_lti_design(self, capsys):
        assert run_cli(["design", "--model", "batch_reactor", "--sigma", "0.5",
                        "--theta", "0.25,0.25,0.25,0.25"]) == 0
        changed = json.loads(capsys.readouterr().out)
        assert changed["sigma"] == 0.5
        expected = design_lti(BATCH_A, BATCH_B, BATCH_K, np.eye(4),
                              [0.25] * 4, 0.5)
        for entry, w in zip(changed["sensors"], expected.config.thresholds):
            assert entry["w"] == pytest.approx(w, rel=1e-12)

    def test_unknown_model_fails_validation(self, capsys):
        assert run_cli(["design", "--model", "bogus"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_model_flag_fails_validation(self):
        assert run_cli(["design"]) == 1

    def test_malformed_model_leaves_no_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "design.json"
        assert run_cli(["design", "--model", str(bad), "--out", str(out)]) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", MALFORMED_FIELDS,
                             ids=[f"{f}={v!r}" for f, v in MALFORMED_FIELDS])
    def test_malformed_model_field_is_named(self, tmp_path, capsys, field, value):
        model = tmp_path / "plant.json"
        model.write_text(json.dumps({**RESTING_BATCH_MODEL, field: value}))
        assert run_cli(["design", "--model", str(model)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} must")

    def test_missing_model_file_is_io_failure(self, tmp_path):
        assert run_cli(["design", "--model",
                        str(tmp_path / "absent.json")]) == 3

    def test_level_rejected_for_lti(self, capsys):
        assert run_cli(["design", "--model", "batch_reactor",
                        "--level", "5"]) == 1
        assert "certificate" in capsys.readouterr().err

    def test_sigma_rejected_for_certificate_scenario(self, capsys):
        assert run_cli(["design", "--model", "cubic_oscillator",
                        "--sigma", "0.5"]) == 1
        assert "certificate" in capsys.readouterr().err


class TestArgumentHandling:
    def test_unknown_flag_is_validation_failure(self, capsys):
        assert run_cli(["simulate", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "design" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"modle": "batch_reactor"}')
        assert run_cli(["design", "--config", str(config)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_must_hold_object(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert run_cli(["design", "--config", str(config)]) == 1

    @pytest.mark.parametrize("key, flag, in_config, on_flag, expected", [
        ("mode", "--mode", "centralized", "feedback",
         ("decentralized", "centralized", "feedback")),
        ("scale", "--scale", "2", "3", (1.0, 2.0, 3.0)),
        ("quantiles", "--quantiles", [0.5, 0.9], "0.25",
         (QUANTILES, (0.5, 0.9), (0.25,))),
    ])
    def test_flag_over_config_over_default(self, tmp_path, key, flag, in_config,
                                           on_flag, expected):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: in_config}))
        with_config = ["--config", str(config)]
        for extra, value in zip(([], with_config, with_config + [flag, on_flag]),
                                expected):
            args = cli.build_parser().parse_args(
                ["simulate", "--model", "batch_reactor", *extra])
            cli._settle(args)
            assert getattr(args, key) == value
            assert type(getattr(args, key)) is type(value)

    @pytest.mark.parametrize("flag, value", [
        ("--step", "x"), ("--scale", ""), ("--theta", "a")])
    def test_bad_flag_value_is_named(self, tmp_path, capsys, flag, value):
        assert run_cli(["simulate", "--model", "batch_reactor", flag, value,
                        "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag[2:]} must")

    def test_config_level_redesigns_cubic(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "cubic_oscillator", "level": 2.5}))
        assert run_cli(["design", "--config", str(config)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c"] == 2.5
        assert doc["sensors"][0]["w"] == pytest.approx(CUBIC_W1_AT_25, rel=1e-6)

    def test_config_sigma_theta_redesign_lti(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "batch_reactor", "sigma": 0.5,
                                      "theta": "0.25,0.25,0.25,0.25"}))
        assert run_cli(["design", "--config", str(config)]) == 0
        changed = json.loads(capsys.readouterr().out)
        assert changed["sigma"] == 0.5
        expected = design_lti(BATCH_A, BATCH_B, BATCH_K, np.eye(4),
                              [0.25] * 4, 0.5)
        for entry, w in zip(changed["sensors"], expected.config.thresholds):
            assert entry["w"] == pytest.approx(w, rel=1e-12)

    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": "cubic_oscillator", "horizon": 0.5,
            "out": str(tmp_path / "from-config")}))
        out = tmp_path / "from-flag"
        assert run_cli(["simulate", "--config", str(config),
                        "--horizon", "0.3", "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "cubic_oscillator"
        assert summary["horizon"] == pytest.approx(0.3)
        assert not (tmp_path / "from-config").exists()


class TestSimulateCommand:
    def test_artifacts_consistent(self, sim_dir, capsys):
        summary = json.loads((sim_dir / "summary.json").read_text())
        events = json.loads((sim_dir / "events.json").read_text())["events"]
        counts = [0, 0]
        for record in events:
            assert record["type"] == "transmission"
            counts[record["sensor"]] += 1
        assert [s["count"] for s in summary["sensors"]] == counts
        assert summary["transmissions"] == sum(counts)
        header = (sim_dir / "trace.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,xs1,xs2,V,Vdot"

    def test_summary_durations_in_seconds(self, sim_dir):
        summary = json.loads((sim_dir / "summary.json").read_text())
        first = summary["sensors"][0]
        assert 0.001 < first["min_gap"] < 0.1
        assert set(first["gap_quantiles"]) == {"0.1", "0.25", "0.5", "0.75", "0.9"}

    def test_console_summary_uses_milliseconds(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["simulate", "--model", "cubic_oscillator",
                        "--horizon", "0.3", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ms" in text
        assert "transmissions" in text

    def test_reruns_are_byte_identical(self, sim_dir, tmp_path, capsys):
        again = tmp_path / "again"
        assert run_cli(["simulate", "--model", "cubic_oscillator",
                        "--horizon", "1.0", "--out", str(again)]) == 0
        capsys.readouterr()
        for name in ("trace.csv", "events.json", "summary.json"):
            assert filecmp.cmp(sim_dir / name, again / name, shallow=False), name

    def test_requires_out_directory(self, capsys):
        assert run_cli(["simulate", "--model", "cubic_oscillator"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_quantile_flag_controls_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["simulate", "--model", "cubic_oscillator",
                        "--horizon", "0.3", "--out", str(out),
                        "--quantiles", "0.5"]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["sensors"][0]["gap_quantiles"]) == {"0.5"}

    def test_nonfinite_start_is_validation_failure(self, tmp_path, capsys):
        model = tmp_path / "plant.json"
        model.write_text(json.dumps({**RESTING_BATCH_MODEL,
                                     "x0": [float("nan"), 7.0, -4.0, 3.0]}))
        assert run_cli(["simulate", "--model", str(model),
                        "--out", str(tmp_path / "run")]) == 1
        assert "error: x0" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("step", [1e-4]), ("scale", {}), ("quantiles", {"a": 1})])
    def test_config_value_of_wrong_type_is_named(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        assert run_cli(["simulate", "--model", "batch_reactor", "--config",
                        str(config), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must")

    def test_unallocatable_step_is_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["simulate", "--model", "batch_reactor", "--horizon", "1",
                        "--step", "1e-15", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: horizon 1 at step 1e-15")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_quantiles_refused_before_any_run(self, tmp_path, monkeypatch,
                                                  capsys, command, source):
        def no_run(*args, **kwargs):
            raise AssertionError("run was called")

        monkeypatch.setattr(cli, "run", no_run)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"quantiles": [0.5, float("nan")]}))
        extra = (["--quantiles", "1.5"] if source == "flag"
                 else ["--config", str(config)])
        assert run_cli([command, "--model", "batch_reactor", *extra,
                        "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: quantiles must lie in [0, 1]\n"

    def test_zeno_model_is_numerical_failure(self, tmp_path, capsys):
        model = tmp_path / "zeno.json"
        model.write_text(json.dumps(ZENO_MODEL))
        out = tmp_path / "run"
        assert run_cli(["simulate", "--model", str(model),
                        "--mode", "centralized-nodwell",
                        "--out", str(out)]) == 2
        assert "Zeno" in capsys.readouterr().err

    def test_nonfinite_horizon_or_scale_is_validation_failure(self, tmp_path,
                                                               capsys):
        for flag in ("--horizon", "--scale"):
            out = tmp_path / flag.lstrip("-")
            assert run_cli(["simulate", "--model", "batch_reactor", flag, "inf",
                            "--out", str(out)]) == 1
            assert "finite" in capsys.readouterr().err
            assert not out.exists()

    def test_overflowed_certificate_value_is_null_in_summary(self, tmp_path, capsys):
        # x^T P x overflows at this scale: the trace holds inf, and strict
        # JSON can only write null, which therefore means overflow.
        out = tmp_path / "run"
        assert run_cli(["simulate", "--model", "batch_reactor", "--scale", "1e200",
                        "--horizon", "0.01", "--out", str(out)]) == 0
        assert "inf initial" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["initial_value"] is None and summary["final_value"] is None
        rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()]
        column = rows[0].index("V")
        assert {row[column] for row in rows[1:]} == {"inf"}

    def test_infinite_start_exit_codes(self, tmp_path, capsys):
        # An LTI design covers every start, so an infinite one fails at the
        # first boundary (exit 2); the cubic oscillator's finite level
        # refuses it before the run (exit 1).
        assert run_cli(["simulate", "--model", "batch_reactor", "--scale", "1e308",
                        "--horizon", "0.01", "--out", str(tmp_path / "a")]) == 2
        assert "non-finite at t=" in capsys.readouterr().err
        assert run_cli(["simulate", "--model", "cubic_oscillator", "--scale", "1e308",
                        "--horizon", "0.01", "--out", str(tmp_path / "b")]) == 1
        assert "exceeds the design level" in capsys.readouterr().err

    def test_linear_plant_level_is_null(self, tmp_path):
        # An LTI design's level is inf, which strict JSON writes as null.
        out = tmp_path / "run"
        assert run_cli(["simulate", "--model", "batch_reactor", "--horizon", "0.01",
                        "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["level"] is None and summary["final_level"] is None

    def test_unwritable_out_is_io_failure(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert run_cli(["simulate", "--model", "cubic_oscillator",
                        "--horizon", "0.3",
                        "--out", str(blocker / "run")]) == 3
        capsys.readouterr()

    def test_update_schedule_needs_feedback_mode(self, tmp_path, capsys):
        assert run_cli(["simulate", "--model", "cubic_oscillator",
                        "--horizon", "0.3", "--out", str(tmp_path / "r"),
                        "--update-dwell", "0.2"]) == 1
        assert "feedback" in capsys.readouterr().err

    def test_partial_update_override_keeps_other_default(self):
        for flag, expected in (("--update-dwell", UpdateSchedule(0.2, 0.5)),
                               ("--update-decay", UpdateSchedule(0.5, 0.2))):
            args = cli.build_parser().parse_args(
                ["simulate", "--model", "cubic_oscillator", "--mode", "feedback",
                 flag, "0.2", "--out", "unused"])
            assert cli._run_options(args)["schedule"] == expected

    def test_feedback_run_records_updates(self, tmp_path, capsys):
        out = tmp_path / "fb"
        assert run_cli(["simulate", "--model", "cubic_oscillator",
                        "--mode", "feedback", "--horizon", "1.5",
                        "--update-dwell", "0.2", "--update-decay", "0.8",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["updates"] >= 2
        assert summary["final_level"] < summary["level"]
        updates = [r for r in
                   json.loads((out / "events.json").read_text())["events"]
                   if r["type"] == "param_update"]
        assert len(updates) == summary["updates"]
        for record in updates:
            assert set(record) == {"type", "t", "V_sampled", "w", "T"}


VERIFY_CHECK_NAMES = [
    "riccati.closed_form_vs_numeric", "linalg.lyapunov_residual_random",
    "feedback.sphere_max_vs_grid",
    *(f"batch_reactor.{check}" for check in (
        "design_residual dwell_enforcement certificate_decrease "
        "family_membership_step family_membership_halfstep scale_invariance "
        "centralized_equivalence summary_roundtrip fault_halved_dwell_detected "
        "fault_doubled_threshold_detected").split()),
    *(f"cubic_oscillator.{check}" for check in (
        "dwell_enforcement certificate_decrease family_membership_step "
        "family_membership_halfstep centralized_equivalence summary_roundtrip "
        "fault_halved_dwell_detected fault_doubled_threshold_detected "
        "containment_distance containment_level update_levels_decrease "
        "update_gaps thresholds_nondecreasing dwell_floor").split()),
]


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """Exit code, stdout and --out file of one full ``etcontrol verify``."""
    report_path = tmp_path_factory.mktemp("verify") / "report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_cli(["verify", "--out", str(report_path)])
    return code, stdout.getvalue(), report_path.read_text()


class TestVerifyCommand:
    def test_report_passes_and_is_machine_readable(self, verify_run):
        code, stdout, file_text = verify_run
        assert code == 0
        stdout_report = json.loads(stdout)
        file_report = json.loads(file_text)
        assert stdout_report == file_report
        assert file_report["pass"] is True
        for check in file_report["checks"]:
            assert set(check) >= {"name", "measured", "tolerance", "pass"}
            assert check["pass"] is True

    def test_check_names_in_order(self, verify_run):
        report = json.loads(verify_run[1])
        assert [c["name"] for c in report["checks"]] == VERIFY_CHECK_NAMES

    def test_failed_check_gates_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "_riccati_battery", lambda rng: 1.0)
        monkeypatch.setattr(verify, "_scenario_checks", lambda scenario: [])
        assert run_cli(["verify"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        failed = [c for c in report["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["riccati.closed_form_vs_numeric"]

    def test_silent_plant_fails_only_the_fault_check(self, tmp_path, capsys):
        # With no transmissions the gap floors hold vacuously, and the
        # halved-floor fault cannot be exercised.
        model = tmp_path / "plant.json"
        model.write_text(json.dumps(RESTING_BATCH_MODEL))
        assert run_cli(["verify", "--model", str(model)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["custom_lti.dwell_enforcement"]["measured"] is None
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["custom_lti.fault_halved_dwell_detected"]


class TestSweepCommand:
    def test_scales_agree_with_isolated_outputs(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_cli(["sweep", "--model", "batch_reactor",
                        "--horizon", "0.5", "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "sweep.json").read_text())
        assert report["scales"] == [0.001, 1.0, 1000.0]
        assert report["agreement"]["counts_identical"] is True
        assert report["agreement"]["within_one_step"] is True
        dirs = [out / r["dir"] for r in report["runs"]]
        assert len(set(dirs)) == 3
        for sub in dirs:
            for name in ("trace.csv", "events.json", "summary.json"):
                assert (sub / name).exists()
        traces = [(d / "trace.csv").read_text() for d in dirs]
        assert traces[0] != traces[1]

    def test_swapped_interleaving_matches_per_sensor(self, tmp_path, monkeypatch,
                                                     capsys):
        # Both runs have one event per sensor; the second swaps their order,
        # so each sensor's event moves by exactly one step.
        orders = {1.0: [(0, 0.2), (1, 0.3)], 2.0: [(1, 0.2), (0, 0.3)]}

        def fake_run(scenario, scale=1.0, **kwargs):
            zeros = np.zeros((5, 2))
            sensors, times = zip(*orders[scale])
            events = np.rec.fromarrays([sensors, times, np.zeros(2), times],
                                       names="sensor,time,value,gap")
            return SimulationTrace(
                times=np.linspace(0.0, 0.4, 5), states=zeros, samples=zeros,
                lyapunov=np.zeros(5), events=events,
                meta={"scenario": "synthetic", "step": 0.1, "dwells": [0.05, 0.05]})

        monkeypatch.setattr(cli, "run", fake_run)
        out = tmp_path / "s"
        assert run_cli(["sweep", "--model", "batch_reactor", "--scales", "1,2",
                        "--out", str(out)]) == 0
        assert "agree within one step" in capsys.readouterr().out
        agreement = json.loads((out / "sweep.json").read_text())["agreement"]
        assert agreement["counts_identical"] is True
        assert agreement["within_one_step"] is True
        assert agreement["max_time_delta"] == pytest.approx(0.1)

    def test_needs_two_scales(self, tmp_path, capsys):
        assert run_cli(["sweep", "--model", "batch_reactor", "--horizon", "0.5",
                        "--scales", "1.0", "--out", str(tmp_path / "s")]) == 1
        assert "two scales" in capsys.readouterr().err

    def test_scales_with_one_output_name_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run_cli(["sweep", "--model", "batch_reactor", "--horizon", "0.5",
                        "--scales", "1,1.0000001", "--out", str(out)]) == 1
        assert "distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_scale_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run_cli(["sweep", "--model", "batch_reactor", "--horizon", "0.5",
                        "--scales", "1,-1", "--out", str(out)]) == 1
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "etcontrol", "design", "--model", "batch_reactor"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["sensors"]) == 4
