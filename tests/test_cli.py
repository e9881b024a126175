"""End to end checks of the command line entry points."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from activedesign import cli, harness
from activedesign.cli import cli_main
from activedesign.core import CovariateSet, DesignProblem, NoiseSpec
from activedesign.environment import make_random_instance
from activedesign.harness import write_instance

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def square_instance(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("2 2\n1 0\n0 1\n1.0 4.0\n1.0 4.0\n1.0 -1.0\n")
    return str(path)


@pytest.fixture()
def sweep_config_path(tmp_path):
    cfg = {
        "instance": {
            "covariates": [[1.0, 0.0], [0.0, 1.0]],
            "variances": [1.0, 4.0],
            "beta": [1.0, -1.0],
        },
        "policies": ["uniform"],
        "budgets": [40, 80, 160],
        "seeds": 2,
        "output": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_reports_the_closed_form(square_instance, capsys):
    assert cli_main(["solve", square_instance, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["square"] is True
    np.testing.assert_allclose(report["optimal_weights"], [1 / 3, 2 / 3], rtol=1e-12)
    np.testing.assert_allclose(report["optimal_loss"], 9.0, rtol=1e-12)
    assert report["K"] == 2 and report["d"] == 2
    assert "c_smooth" in report


def test_solve_csv_to_file(square_instance, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert cli_main(["solve", square_instance, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "d", "K", "square", "optimal_loss", "det_gram", "lambda_min",
        "mu", "eta", "c_smooth", "hessian_diag_bound", "optimal_weights",
    ]
    assert "optimal_loss,9.0" in lines
    assert lines[-1].startswith("optimal_weights,")


def test_geometry_certifies_the_optimum(square_instance, capsys):
    assert cli_main(["geometry", square_instance, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certified"] is True
    assert report["dual_feasible"] is True
    assert report["active"] == [0, 1]
    np.testing.assert_allclose(report["level"], 9.0, rtol=1e-9)
    assert abs(report["duality_gap"]) <= 1e-8 * report["primal_value"]


def test_geometry_csv_layout(square_instance, capsys):
    assert cli_main(["geometry", square_instance]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "certified,True"
    assert [line.split(",")[0] for line in lines] == [
        "certified", "level", "dual_value", "primal_value", "duality_gap",
        "dual_feasible", "active", "marks", "weights",
    ]
    assert "active,0 1" in lines


def test_simulate_trace_output(sweep_config_path, capsys):
    code = cli_main(
        ["simulate", sweep_config_path, "--policy", "uniform", "--budget", "64",
         "--seed", "3"]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "t,regret,loss_gap,p_min"
    assert lines[-1].startswith("64,")
    assert "final regret" in captured.err


def test_simulate_json_output(sweep_config_path, capsys):
    code = cli_main(
        ["simulate", sweep_config_path, "--policy", "uniform", "--budget", "64",
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"] == "uniform"
    assert payload["horizon"] == 64
    assert payload["rows"][-1]["t"] == 64


def test_sweep_runs_and_reports(sweep_config_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    assert cli_main(["sweep", sweep_config_path]) == 0
    captured = capsys.readouterr()
    assert "wrote results to" in captured.err
    assert (tmp_path / "results" / "summary_uniform.csv").exists()
    assert (tmp_path / "results" / "slopes.csv").exists()


def test_sweep_quiet_silences_progress(sweep_config_path, capsys, monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    assert cli_main(["sweep", sweep_config_path, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_with_failing_episodes_exits_two(
    tmp_path, capsys, monkeypatch, fail_randomized_at
):
    # an episode that fails at run time, past every check made before it
    # starts, makes the sweep exit 2
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    fail_randomized_at(190)
    cfg = {
        "instance": {
            "covariates": [[1.0, 0.0], [0.0, 1.0]],
            "variances": [1.0, 4.0],
            "beta": [1.0, -1.0],
        },
        "policies": ["randomized"],
        "budgets": [190],
        "seeds": 1,
        "output": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep", str(path), "--quiet"]) == 2
    assert "FAILED randomized T=190" in capsys.readouterr().err


def test_a_budget_the_estimation_phase_cannot_fit_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    cfg = {
        "instance": {
            "covariates": [[1.0, 0.0], [0.0, 1.0]],
            "variances": [1.0, 4.0],
            "beta": [1.0, -1.0],
        },
        "policies": ["randomized"],
        "budgets": [5],
        "seeds": 1,
        "output": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep", str(path), "--quiet"]) == 1
    assert cli_main(["simulate", str(path), "--policy", "gradient_ucb", "--budget", "107"]) == 1
    err = capsys.readouterr().err
    assert "'randomized'" in err and "budget 5;" in err and "'gradient_ucb'" in err
    assert "budget 107;" in err and err.count("is 108") == 2
    assert "FAILED" not in err
    assert not (tmp_path / "results").exists()


# "seeds": [] used to pass: on redundant_arm at 2 workers the sweep exited 2
# with a ZeroDivisionError, at 1 worker it wrote empty summaries
CONFIG_ERRORS = [
    ("empty_seeds", {"seeds": []}, "'seeds' must not be empty"),
    ("estimation_count", {"estimation_count": 10}, "unknown config key 'estimation_count'"),
    ("checkpoints", {"checkpoints": {"ratio": 1.2}}, "unknown config key 'checkpoints'"),
    # the noise is Gaussian, not a setting
    (
        "noise",
        {"instance": {"file": str(ROOT / "instances" / "redundant_arm.txt"), "noise": "gaussian"}},
        "instance with 'file' takes no other keys",
    ),
    # numpy's own message would name neither the key nor the value
    (
        "negative_seed",
        {"instance": {"generator": "random", "seed": -1}},
        "'seed' must be nonnegative, got -1",
    ),
    # no 60x60 draw of seed 0 is well conditioned: the redraws stop at their cap
    (
        "random_60x60",
        {"instance": {"generator": "random", "d": 60, "K": 60}},
        "no random d=60, K=60 covariate set of seed 0",
    ),
    # a path that is not a string used to exit 2 with a TypeError
    ("file_number", {"instance": {"file": 5}}, "'file' must be a path string, got 5"),
    ("file_null", {"instance": {"file": None}}, "'file' must be a path string, got None"),
]


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize(
    "change, message", [c[1:] for c in CONFIG_ERRORS], ids=[c[0] for c in CONFIG_ERRORS]
)
def test_a_config_error_exits_one_before_any_episode(
    tmp_path, capsys, monkeypatch, command, change, message
):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "2")
    cfg = {
        "instance": {"file": str(ROOT / "instances" / "redundant_arm.txt")},
        "policies": ["gradient_ucb"],
        "budgets": [2000],
        "output": str(tmp_path / "results"),
        **change,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    args = ["--quiet"] if command == "sweep" else ["--policy", "gradient_ucb", "--budget", "2000"]
    assert cli_main([command, str(path), *args]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_sweep_and_simulate_reject_a_design_delta_given_as_a_string(
    tmp_path, capsys, monkeypatch
):
    # "0.5" used to pass through float(), and both commands ran and exited 0
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    cfg = {
        "instance": {"generator": "random", "d": 3, "K": 3, "seed": 4},
        "policies": [{"name": "randomized", "design_delta": "0.5"}],
        "budgets": [2000],
        "seeds": 1,
        "output": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep", str(path), "--quiet"]) == 1
    assert cli_main(["simulate", str(path), "--policy", "randomized", "--budget", "2000"]) == 1
    err = capsys.readouterr().err
    assert err.count("design_delta must be a finite number, got '0.5'") == 2
    assert not (tmp_path / "results").exists()


def test_sweep_with_a_budget_kd_presampling_cannot_fit_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    cfg = {
        "instance": {"generator": "random", "d": 6, "K": 12, "seed": 0},
        "policies": ["gradient_ucb"],
        "budgets": [400, 5000],
        "seeds": 2,
        "output": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "'gradient_ucb'" in err and "budget 400" in err and "20749" in err
    assert "FAILED" not in err
    assert not (tmp_path / "results").exists()


def test_sweep_and_simulate_reject_an_instance_without_beta(tmp_path, capsys, monkeypatch):
    # every episode would fail in its environment: rejected before any runs
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    cfg = {
        "instance": {"covariates": [[1.0, 0.0], [0.0, 1.0]], "variances": [1.0, 4.0]},
        "policies": ["uniform"],
        "budgets": [40],
        "seeds": 2,
        "output": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep", str(path), "--quiet"]) == 1
    assert cli_main(["simulate", str(path), "--policy", "uniform", "--budget", "40"]) == 1
    err = capsys.readouterr().err
    assert err.count("truth vector beta") == 2 and "FAILED" not in err
    assert not (tmp_path / "results").exists()


# the oracle always tracks the problem's optimum: it has no target option;
# gradient_ucb's bonus and plug-in variances and thompson's prior are fixed,
# and randomized always reads its variance bounds, so even their old
# defaults are rejected
UNKNOWN_OPTIONS = [
    ("gradient_ucb", "bogus", [0.2, 0.3, 0.5]),
    ("oracle", "p_star", [0.2, 0.3, 0.5]),
    ("gradient_ucb", "bonus_scale", 2.0),
    ("gradient_ucb", "bonus_log_coeff", 3.0),
    ("gradient_ucb", "use_lcb", False),
    ("gradient_ucb", "fixed_variances", [0.2, 0.3, 0.5]),
    ("randomized", "fixed_variances", [0.2, 0.3, 0.5]),
    ("thompson", "prior", [0.0, 1.0, 1.0, 1.0]),
]


@pytest.mark.parametrize(
    "name, option, value", UNKNOWN_OPTIONS, ids=[f"{n}-{o}" for n, o, _ in UNKNOWN_OPTIONS]
)
def test_simulate_rejects_an_unknown_policy_option_as_sweep_does(
    tmp_path, capsys, name, option, value
):
    cfg = {
        "instance": {"generator": "random", "d": 3, "K": 3, "seed": 4},
        "policies": [{"name": name, option: value}],
        "budgets": [200],
        "output": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", str(path), "--policy", name, "--budget", "200"]) == 1
    assert cli_main(["sweep", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.count(f"'{name}' options rejected") == 2 and option in err


@pytest.mark.parametrize("command", ["sweep", "simulate", "solve", "geometry", "verify"])
def test_an_unwritable_output_path_exits_one_before_any_episode(
    tmp_path, capsys, monkeypatch, command
):
    # solve, geometry and verify used to compute their report, then exit 2
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(harness, "_chain_task", no_work)
    for name in ("run_episode", "load_instance", "verify_concentration"):
        monkeypatch.setattr(cli, name, no_work)
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    cfg = {
        "instance": {"covariates": [[1.0, 0.0], [0.0, 1.0]], "variances": [1.0, 4.0], "beta": [1.0, -1.0]},
        "policies": ["uniform"],
        "budgets": [40],
        "output": str(blocker),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    missing = tmp_path / "missing" / "out.csv"
    instance = str(ROOT / "instances" / "redundant_arm.txt")
    args = {
        "sweep": [str(path), "--quiet"],
        "simulate": [str(path), "--policy", "uniform", "--budget", "40", "--out", str(missing)],
        "solve": [instance, "--out", str(missing)],
        "geometry": [instance, "--out", str(missing)],
        "verify": ["--out", str(missing)],
    }[command]
    assert cli_main([command, *args]) == 1
    err = capsys.readouterr().err
    assert (str(blocker) if command == "sweep" else str(missing)) in err
    assert blocker.read_text() == "kept\n"
    assert not missing.parent.exists()


def test_sweep_with_a_fractional_seed_count_exits_one(sweep_config_path, capsys):
    with open(sweep_config_path) as fh:
        cfg = json.load(fh)
    cfg["seeds"] = 2.7
    with open(sweep_config_path, "w") as fh:
        json.dump(cfg, fh)
    assert cli_main(["sweep", sweep_config_path, "--quiet"]) == 1
    assert "'seeds'" in capsys.readouterr().err


def test_verify_coverage(capsys, tmp_path):
    assert cli_main(["verify", "--trials", "300", "--horizon", "50"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("kind,n,delta")
    assert "coverage ok" in captured.err
    out = tmp_path / "conc.json"
    assert (
        cli_main(
            ["verify", "--trials", "200", "--horizon", "50", "--format", "json",
             "--out", str(out)]
        )
        == 0
    )
    assert json.loads(out.read_text())[0]["kind"] == "radius"


@pytest.mark.parametrize(
    "flags, shown",
    [
        (["--trials", "0"], "got 0"),
        (["--trials", "-5"], "got -5"),
        (["--horizon", "1"], "got 1"),
        (["--horizon", "0"], "got 0"),
        (["--horizon", "-3"], "got -3"),
        (["--seed", "-1"], "--seed must be nonnegative, got -1"),
    ],
)
def test_verify_bad_numbers_exit_one_naming_the_value(capsys, flags, shown):
    assert cli_main(["verify", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and shown in err


def test_simulate_with_a_negative_seed_exits_one_naming_the_flag(sweep_config_path, capsys):
    args = ["simulate", sweep_config_path, "--policy", "uniform", "--budget", "100", "--seed", "-1"]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed must be nonnegative, got -1" in err


@pytest.mark.parametrize("flags", [["--noise", "gaussian"], ["--sigma2", "1"]])
def test_verify_takes_no_noise_settings(capsys, flags):
    # the noise is Gaussian, and the rows do not depend on its variance
    assert cli_main(["verify", *flags]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys, tmp_path):
    assert cli_main([]) == 1
    assert cli_main(["frobnicate"]) == 1
    assert cli_main(["simulate", "cfg.json", "--policy", "greedy", "--budget", "10"]) == 1
    assert cli_main(["simulate", "cfg.json", "--policy", "uniform"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_validation_errors_exit_one(tmp_path, capsys):
    assert cli_main(["solve", str(tmp_path / "missing.txt")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli_main(["sweep", str(bad), "--quiet"]) == 1
    inst = tmp_path / "wide.txt"
    write_instance(make_random_instance(2, 3, seed=0), inst)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instance": {"file": str(inst)},
        "policies": ["uniform"],
        "budgets": [10],
    }))
    assert cli_main(["simulate", str(cfg), "--policy", "uniform", "--budget", "0"]) == 1
    # checked before the options probe builds a policy for T = 0
    assert cli_main(["simulate", str(cfg), "--policy", "randomized", "--budget", "0"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 4


def test_non_finite_and_mistyped_values_exit_one_naming_the_file_or_key(tmp_path, capsys):
    inst = tmp_path / "nan.txt"
    inst.write_text("2 2\n1 0\n0 1\n1.0 nan\n")
    assert cli_main(["solve", str(inst)]) == 1
    err = capsys.readouterr().err
    assert "nan.txt" in err and "finite" in err
    # a NaN covariate failed with "SVD did not converge"; a NaN beta loaded
    for body, line in [("1 0\nnan 1\n1.0 1.0\n", 3), ("1 0\n0 1\n1.0 1.0\n1.0 1.0\n1 nan\n", 6)]:
        inst.write_text("2 2\n" + body)
        assert cli_main(["solve", str(inst)]) == 1
        err = capsys.readouterr().err
        assert f"nan.txt: line {line}: 'nan' is not finite" in err

    base = {"policies": ["uniform"], "budgets": [10], "seeds": 1,
            "output": str(tmp_path / "results")}
    cases = [
        ({**base, "instance": {"generator": "hard", "delta": float("nan")}}, "'delta'"),
        # the random generator's variance range and basis are constants
        ({**base, "instance": {"generator": "random", "d": 2, "canonical": "false"}},
         "random instance keys must be in"),
        ({**base, "instance": {"generator": "random", "d": 2, "sigma2_range": "ab"}},
         "random instance keys must be in"),
        ({**base, "instance": {"generator": "hard"}, "output": 5}, "'output'"),
    ]
    cfg = tmp_path / "cfg.json"
    for raw, key in cases:
        cfg.write_text(json.dumps(raw))
        assert cli_main(["sweep", str(cfg), "--quiet"]) == 1, key
        assert key in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def _clone_of_arm_0(split: float = 0.0, angle: float = 0.0) -> DesignProblem:
    """Random 3x3 seed 4 plus a near clone of arm 0: its variance raised by
    the factor 1 + ``split``, its direction turned by ``angle`` radians."""
    base = make_random_instance(3, 3, seed=4)
    x = base.covariates.columns
    u = x[:, 1] - (x[:, 1] @ x[:, 0]) * x[:, 0]
    clone = math.cos(angle) * x[:, 0] + math.sin(angle) * u / np.linalg.norm(u)
    sigma2 = np.append(base.noise.sigma2, base.noise.sigma2[0] * (1.0 + split))
    return DesignProblem(
        CovariateSet(np.column_stack([x, clone])), NoiseSpec(sigma2), beta=base.beta
    )


def _spread_variances() -> DesignProblem:
    base = make_random_instance(3, 6, seed=0)
    return DesignProblem(base.covariates, NoiseSpec(np.logspace(-8.0, 8.0, 6)), beta=base.beta)


# near-degenerate instances whose optimal design still has a finite loss
FINITE_OPTIMUM = {
    # singular at the uniform design, but L* = (1e-4 + 1e4)^2
    "identity_variances_1e-8_1e8": lambda: DesignProblem(
        CovariateSet(np.eye(2)), NoiseSpec(np.array([1e-8, 1e8])), beta=np.ones(2)
    ),
    "clone_split_1e-6": lambda: _clone_of_arm_0(split=1e-6),
    "clone_split_1e-9": lambda: _clone_of_arm_0(split=1e-9),
    "clone_split_1e-13": lambda: _clone_of_arm_0(split=1e-13),
    "clone_turned_1e-4": lambda: _clone_of_arm_0(angle=1e-4),
    "clone_turned_1e-7": lambda: _clone_of_arm_0(angle=1e-7),
    "3x6_variances_1e-8_to_1e8": _spread_variances,
    "1x5_variances_1e-12_apart": lambda: DesignProblem(
        CovariateSet(np.ones((1, 5))),
        NoiseSpec(np.array([1.0, 1.0 + 1e-12, 2.0, 3.0, 4.0])),
        beta=np.ones(1),
    ),
}


@pytest.mark.parametrize("case", sorted(FINITE_OPTIMUM))
def test_near_degenerate_instances_with_a_finite_optimum_load(tmp_path, capsys, case):
    path = tmp_path / "inst.txt"
    write_instance(FINITE_OPTIMUM[case](), path)
    assert cli_main(["solve", str(path), "--format", "json"]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["optimal_loss"])


@pytest.mark.parametrize("command", ["solve", "geometry", "simulate", "sweep"])
def test_an_instance_whose_optimum_has_infinite_loss_exits_one(
    tmp_path, capsys, monkeypatch, command
):
    # arms 1 and 2 are 1e-6 rad apart: the covariates span R^3, but the
    # information matrix is singular at every design, so L* is inf
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    a = 1e-6
    cols = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, math.cos(a)], [0.0, 0.0, math.sin(a)]])
    inst = tmp_path / "near.txt"
    write_instance(DesignProblem(CovariateSet(cols), NoiseSpec(np.ones(3)), beta=np.ones(3)), inst)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "instance": {"file": str(inst)},
        "policies": ["uniform", "gradient_ucb"],
        "budgets": [2000, 4000],
        "seeds": 2,
        "output": str(tmp_path / "results"),
    }))
    argv = {
        "solve": ["solve", str(inst)],
        "geometry": ["geometry", str(inst)],
        "simulate": ["simulate", str(cfg), "--policy", "gradient_ucb", "--budget", "2000"],
        "sweep": ["sweep", str(cfg)],
    }[command]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(inst) in captured.err and "L* is infinite" in captured.err
    assert not (tmp_path / "results").exists()
