"""End to end checks of the command line entry points."""

import json

import numpy as np
import pytest

from activedesign.cli import cli_main
from activedesign.environment import make_random_instance
from activedesign.harness import write_instance


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


def test_sweep_with_failing_episodes_exits_two(tmp_path, capsys, monkeypatch):
    # a K = d estimation phase that cannot fit T = 5 fails at run time
    # (a K > d presampling misfit is rejected before any episode runs)
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
        "estimation_count": 10,
        "output": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep", str(path), "--quiet"]) == 2
    assert "FAILED randomized T=5" in capsys.readouterr().err


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


def test_simulate_rejects_an_unknown_policy_option_as_sweep_does(tmp_path, capsys):
    cfg = {
        "instance": {"generator": "random", "d": 3, "K": 3, "seed": 4},
        "policies": [{"name": "gradient_ucb", "bogus": 1}],
        "budgets": [200],
        "output": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", str(path), "--policy", "gradient_ucb", "--budget", "200"]) == 1
    assert cli_main(["sweep", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.count("'gradient_ucb' options rejected") == 2 and "bogus" in err


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
            ["verify", "--trials", "200", "--horizon", "50", "--noise", "rademacher",
             "--format", "json", "--out", str(out)]
        )
        == 0
    )
    assert json.loads(out.read_text())[0]["kind"] == "radius"


@pytest.mark.parametrize(
    "flags, shown",
    [
        (["--trials", "0"], "got 0"),
        (["--trials", "-5"], "got -5"),
        (["--sigma2", "-1"], "got -1.0"),
        (["--sigma2", "nan"], "got nan"),
    ],
)
def test_verify_bad_numbers_exit_one_naming_the_value(capsys, flags, shown):
    assert cli_main(["verify", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and shown in err


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
        ({**base, "instance": {"generator": "random", "d": 2, "canonical": "false"}},
         "'canonical'"),
        ({**base, "instance": {"generator": "random", "d": 2, "sigma2_range": "ab"}},
         "'sigma2_range'"),
        ({**base, "instance": {"generator": "hard"}, "output": 5}, "'output'"),
    ]
    cfg = tmp_path / "cfg.json"
    for raw, key in cases:
        cfg.write_text(json.dumps(raw))
        assert cli_main(["sweep", str(cfg), "--quiet"]) == 1, key
        assert key in capsys.readouterr().err
    assert not (tmp_path / "results").exists()
