"""Instance files, sweep configs, slope fits, and output files."""

import dataclasses
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from activedesign.core import CovariateSet, DesignProblem, NoiseSpec
from activedesign.environment import make_hard_instance, make_random_instance
from activedesign.harness import (
    ConfigError,
    ExperimentConfig,
    InstanceFormatError,
    build_problem,
    fit_slope,
    load_config,
    load_instance,
    run_sweep,
    verify_concentration,
    write_concentration_report,
    write_instance,
)


# --------------------------------------------------------------------
# instance files


def test_instance_round_trip_is_exact(tmp_path):
    problem = make_random_instance(3, 5, seed=7, model="uniform")
    path = tmp_path / "inst.txt"
    write_instance(problem, path)
    back = load_instance(path)
    np.testing.assert_array_equal(back.covariates.columns, problem.covariates.columns)
    np.testing.assert_array_equal(back.noise.sigma2, problem.noise.sigma2)
    np.testing.assert_array_equal(back.noise.kappa2, problem.noise.kappa2)
    np.testing.assert_array_equal(back.beta, problem.beta)


def test_instance_comments_and_blank_lines(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(
        "# a two arm problem\n"
        "2 2\n"
        "\n"
        "1 0   # first arm\n"
        "0 1\n"
        "1.0 4.0\n"
    )
    problem = load_instance(path)
    assert problem.n_arms == 2
    np.testing.assert_array_equal(problem.noise.sigma2, [1.0, 4.0])
    # no proxy row: proxies default to the variances themselves
    np.testing.assert_array_equal(problem.noise.kappa2, [1.0, 4.0])
    assert problem.beta is None


def test_instance_square_single_extra_row_reads_as_proxies(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("2 2\n1 0\n0 1\n1.0 1.0\n3.0 3.0\n")
    problem = load_instance(path)
    np.testing.assert_array_equal(problem.noise.kappa2, [3.0, 3.0])
    assert problem.beta is None


def test_instance_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"

    path.write_text("2 2\n1 0\n0 x\n1.0 1.0\n")
    with pytest.raises(InstanceFormatError, match="line 3.*'x' is not a number"):
        load_instance(path)

    path.write_text("2\n1 0\n0 1\n1.0 1.0\n")
    with pytest.raises(InstanceFormatError, match="line 1.*header"):
        load_instance(path)

    path.write_text("2 2\n1 0 0\n0 1\n1.0 1.0\n")
    with pytest.raises(InstanceFormatError, match="line 2.*covariate row has 3"):
        load_instance(path)

    path.write_text("2 2\n1 0\n0 1\n1.0 1.0 1.0\n")
    with pytest.raises(InstanceFormatError, match="line 4.*variance row"):
        load_instance(path)

    path.write_text("2 2\n1 0\n0 1\n1.0 1.0\n1.0 1.0\n0 0\n1 1\n")
    with pytest.raises(InstanceFormatError, match="unexpected trailing data"):
        load_instance(path)

    path.write_text("3 2\n1 0 0\n0 1 0\n1.0 1.0\n1 1 1 1\n")
    with pytest.raises(InstanceFormatError, match="expected 2 or 3"):
        load_instance(path)

    path.write_text("")
    with pytest.raises(InstanceFormatError, match="empty"):
        load_instance(path)

    with pytest.raises(InstanceFormatError, match="cannot read"):
        load_instance(tmp_path / "missing.txt")


def test_instance_rejects_deficient_covariates(tmp_path):
    path = tmp_path / "thin.txt"
    path.write_text("2 1\n1 0\n1.0\n")
    with pytest.raises(InstanceFormatError, match="span"):
        load_instance(path)


def test_instance_warns_on_unnormalized_covariates(tmp_path, caplog):
    path = tmp_path / "inst.txt"
    path.write_text("2 2\n2 0\n0 1\n1.0 1.0\n")
    with caplog.at_level(logging.WARNING, logger="activedesign.harness"):
        problem = load_instance(path)
    assert any("renormalizing" in r.message for r in caplog.records)
    np.testing.assert_allclose(np.linalg.norm(problem.covariates.columns, axis=0), 1.0)


# --------------------------------------------------------------------
# slope fits


def test_fit_slope_recovers_exact_power_laws():
    ts = np.array([1e3, 1e4, 1e5, 1e6])
    for expo, scale in ((-1.0, 2.5), (-2.0, 7.0), (-0.5, 0.3)):
        fit = fit_slope(ts, scale * ts**expo)
        assert abs(fit.slope - expo) < 1e-9
        assert abs(fit.intercept - math.log10(scale)) < 1e-9
        assert fit.r_squared > 1.0 - 1e-12
        assert fit.n_points == 4


def test_fit_slope_drops_nonpositive_points(caplog):
    ts = [10.0, 100.0, 1000.0, 10000.0]
    rs = [1.0, 0.1, 0.0, 0.001]
    with caplog.at_level(logging.WARNING, logger="activedesign.harness"):
        fit = fit_slope(ts, rs)
    assert fit.n_points == 3
    assert any("nonpositive" in r.message for r in caplog.records)


def test_fit_slope_input_validation():
    with pytest.raises(ValueError, match="align"):
        fit_slope([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="three positive points"):
        fit_slope([10.0, 100.0, 1000.0], [1.0, 0.0, -1.0])


# --------------------------------------------------------------------
# configuration


def base_config_dict():
    return {
        "instance": {"generator": "random", "d": 2, "K": 2, "seed": 3},
        "policies": ["uniform"],
        "budgets": [50, 100],
    }


def test_config_defaults():
    cfg = ExperimentConfig.from_dict(base_config_dict())
    assert cfg.seeds == tuple(range(25))
    assert cfg.checkpoint_ratio == 1.2
    assert cfg.estimation_count is None
    assert cfg.output == "results"


def test_config_errors_name_the_offending_key():
    cases = [
        ({**base_config_dict(), "budget": [10]}, "unknown config key 'budget'"),
        ({"policies": ["uniform"], "budgets": [10]}, "missing config key 'instance'"),
        ({**base_config_dict(), "policies": []}, "'policies' must not be empty"),
        ({**base_config_dict(), "policies": ["greedy"]}, "unknown policy 'greedy'"),
        ({**base_config_dict(), "policies": ["uniform", "uniform"]}, "listed twice"),
        ({**base_config_dict(), "policies": [{"stride": 2}]}, "needs a name"),
        ({**base_config_dict(), "budgets": []}, "'budgets' must be positive"),
        ({**base_config_dict(), "budgets": [0]}, "'budgets' must be positive"),
        ({**base_config_dict(), "seeds": 0}, "'seeds' count must be positive"),
        ({**base_config_dict(), "seeds": [1, 1]}, "'seeds' must be distinct"),
        ({**base_config_dict(), "checkpoints": {"rate": 2}}, "'checkpoints'"),
        ({**base_config_dict(), "checkpoints": {"ratio": 1.0}}, "must exceed 1"),
        ({**base_config_dict(), "estimation_count": 1}, "'estimation_count'"),
        ({**base_config_dict(), "instance": "hard"}, "'instance' must be an object"),
    ]
    for raw, fragment in cases:
        with pytest.raises(ConfigError, match=fragment.replace("(", "\\(")):
            ExperimentConfig.from_dict(raw)


def test_config_policy_entries_carry_options():
    raw = base_config_dict()
    raw["policies"] = [{"name": "randomized", "design_delta": 0.5}, "uniform"]
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.policies[0] == ("randomized", {"design_delta": 0.5})
    assert cfg.policies[1] == ("uniform", {})


def test_load_config_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_build_problem_variants(tmp_path):
    hard, model = build_problem({"generator": "hard", "delta": 0.5})
    np.testing.assert_allclose(hard.noise.sigma2, [1.0, 1.5])
    assert model == "gaussian"

    rand, model = build_problem(
        {"generator": "random", "d": 2, "K": 4, "seed": 1, "noise": "uniform"}
    )
    assert rand.n_arms == 4
    assert model == "uniform"
    again, _ = build_problem({"generator": "random", "d": 2, "K": 4, "seed": 1})
    np.testing.assert_array_equal(rand.covariates.columns, again.covariates.columns)

    inline, _ = build_problem(
        {
            "covariates": [[1.0, 0.0], [0.0, 1.0]],
            "variances": [1.0, 4.0],
            "beta": [0.5, -0.5],
        }
    )
    assert inline.dimension == 2
    np.testing.assert_array_equal(inline.beta, [0.5, -0.5])

    path = tmp_path / "inst.txt"
    write_instance(make_random_instance(2, 3, seed=0), path)
    from_file, _ = build_problem({"file": str(path)})
    assert from_file.n_arms == 3


def test_build_problem_errors(tmp_path):
    cases = [
        ({"generator": "magic"}, "unknown generator"),
        ({"generator": "hard", "d": 3}, "takes only 'delta'"),
        ({"generator": "random", "delta": 1.0}, "random instance keys"),
        ({"file": "x", "d": 2}, "takes no other keys"),
        ({"covariates": [[1, 0], [0, 1]]}, "needs 'variances'"),
        ({"generator": "hard", "noise": "cauchy"}, "unknown noise model"),
        ({}, "needs one of"),
    ]
    for instance, fragment in cases:
        with pytest.raises(ConfigError, match=fragment.replace("'", "'")):
            build_problem(instance)


# --------------------------------------------------------------------
# sweeps


def sweep_config(tmp_path, **overrides):
    raw = {
        "instance": {
            "covariates": [[1.0, 0.0], [0.0, 1.0]],
            "variances": [1.0, 4.0],
            "beta": [1.0, -1.0],
        },
        "policies": ["uniform", "oracle"],
        "budgets": [40, 80, 160],
        "seeds": 3,
        "output": str(tmp_path / "results"),
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_run_sweep_writes_the_documented_files(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    cfg = sweep_config(tmp_path)
    result = run_sweep(cfg, quiet=True)
    assert not result.failures
    out = result.output_dir

    for name in ("uniform", "oracle"):
        for horizon in (40, 80, 160):
            for seed in range(3):
                assert (out / f"trace_{name}_T{horizon}_seed{seed}.csv").exists()
        summary = (out / f"summary_{name}.csv").read_text().splitlines()
        assert summary[0] == "T,mean_regret,stderr,n_seeds"
        assert len(summary) == 4

    # summary rows recompute from the in-memory traces
    for name in ("uniform", "oracle"):
        for (horizon, mean, stderr, n), expect_t in zip(result.summaries[name], (40, 80, 160)):
            assert horizon == expect_t
            finals = np.array(
                [result.traces[(name, horizon, s)].final_regret for s in range(3)]
            )
            assert n == 3
            np.testing.assert_allclose(mean, finals.mean(), rtol=1e-12)
            np.testing.assert_allclose(stderr, finals.std(ddof=1) / math.sqrt(3), rtol=1e-12)

    slopes = (out / "slopes.csv").read_text().splitlines()
    assert slopes[0] == "policy,slope,intercept,r_squared,n_points"
    assert len(slopes) == 3


def test_run_sweep_is_byte_identical_across_reruns(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    cfg = sweep_config(tmp_path, policies=["uniform"], budgets=[40, 80, 160])
    first = run_sweep(cfg, quiet=True)
    snapshot = {
        p.name: p.read_bytes() for p in sorted(first.output_dir.iterdir())
    }
    second = run_sweep(cfg, quiet=True)
    for path in sorted(second.output_dir.iterdir()):
        assert snapshot[path.name] == path.read_bytes()


def test_quickstart_sweep_reproduces_the_committed_results(tmp_path, monkeypatch):
    # 3x3 gradient_ucb and uniform: a golden guard on the square hot path
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    root = Path(__file__).resolve().parents[1]
    golden = root / "results" / "quickstart"
    cfg = dataclasses.replace(
        load_config(root / "configs" / "quickstart.json"), output=str(tmp_path / "out")
    )
    result = run_sweep(cfg, quiet=True)
    assert not result.failures
    written = sorted(p.name for p in result.output_dir.iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for name in written:
        assert (result.output_dir / name).read_bytes() == (golden / name).read_bytes(), name


def test_run_sweep_json_output(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    cfg = sweep_config(tmp_path, policies=["uniform"], budgets=[40, 80, 160], seeds=2)
    result = run_sweep(cfg, quiet=True, fmt="json")
    payload = json.loads((result.output_dir / "trace_uniform_T40_seed0.json").read_text())
    assert payload["policy"] == "uniform"
    assert payload["rows"][-1]["t"] == 40
    slopes = json.loads((result.output_dir / "slopes.json").read_text())
    assert "uniform" in slopes
    with pytest.raises(ConfigError, match="unknown output format"):
        run_sweep(cfg, quiet=True, fmt="tsv")


def test_run_sweep_collects_per_episode_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    # the estimation phase cannot fit inside T=5, so those episodes fail
    # without sinking the sweep
    cfg = sweep_config(
        tmp_path, policies=["randomized"], budgets=[5], seeds=2, estimation_count=10
    )
    result = run_sweep(cfg, quiet=True)
    assert len(result.failures) == 2
    assert all("exceeds the budget" in msg for (_, _, _, msg) in result.failures)
    assert result.slopes["randomized"] is None
    assert (result.output_dir / "failures.csv").exists()


def test_run_sweep_rejects_bad_policy_options(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    raw = {
        "instance": {"generator": "hard"},
        "policies": [{"name": "randomized", "design_delta": 2.0}],
        "budgets": [100],
        "seeds": 1,
        "output": None,
    }
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(ConfigError, match="options rejected"):
        run_sweep(cfg, quiet=True)


def test_run_sweep_excludes_warm_smallest_budget(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    cfg = sweep_config(
        tmp_path,
        policies=["randomized"],
        budgets=[25, 200, 400, 800],
        seeds=2,
        estimation_count=10,
    )
    with caplog.at_level(logging.WARNING, logger="activedesign.harness"):
        result = run_sweep(cfg, quiet=True)
    assert not result.failures
    assert any("warm budget" in r.message for r in caplog.records)
    assert result.slopes["randomized"].n_points == 3
    # the summary still reports all four budgets
    assert [row[0] for row in result.summaries["randomized"]] == [25, 200, 400, 800]


def test_thread_cap_env_validation(tmp_path, monkeypatch):
    cfg = sweep_config(tmp_path, policies=["uniform"], budgets=[10, 20, 40], seeds=1)
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "abc")
    with pytest.raises(ConfigError, match="ACTIVE_DESIGN_THREADS"):
        run_sweep(cfg, quiet=True)
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "0")
    with pytest.raises(ConfigError, match="must be positive"):
        run_sweep(cfg, quiet=True)


# --------------------------------------------------------------------
# concentration report


def test_verify_concentration_rows(tmp_path):
    rows = verify_concentration(
        trials=400, pairs=((50, 0.05), (200, 0.01)), horizon=50, seed=1
    )
    assert [r["kind"] for r in rows] == ["radius", "radius", "halving"]
    for row in rows:
        assert set(row) == {
            "kind", "n", "delta", "trials", "violation_rate", "bound", "binom_se",
        }
        # the bound is conservative, so observed rates sit well below it
        assert row["violation_rate"] <= row["bound"] + 5.0 * row["binom_se"]

    path = tmp_path / "conc.csv"
    write_concentration_report(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("kind,n,delta")
    assert len(lines) == 4
    write_concentration_report(rows, tmp_path / "conc.json", fmt="json")
    parsed = json.loads((tmp_path / "conc.json").read_text())
    assert parsed[0]["kind"] == "radius"


def test_verify_concentration_rejects_unknown_noise():
    with pytest.raises(ConfigError, match="unknown noise model"):
        verify_concentration(trials=10, noise="cauchy")


def test_run_sweep_warns_about_a_missing_slope_only_when_points_were_lost(
    tmp_path, monkeypatch, caplog
):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    # two configured budgets cannot fit a slope; that is not worth a warning
    cfg = sweep_config(tmp_path, policies=["uniform"], budgets=[40, 80], seeds=2)
    with caplog.at_level(logging.WARNING, logger="activedesign.harness"):
        result = run_sweep(cfg, quiet=True)
    assert result.slopes["uniform"] is None
    assert not any("no slope" in r.message for r in caplog.records)
    # three budgets, one lost to failed episodes: the warning stays
    caplog.clear()
    cfg = sweep_config(
        tmp_path, policies=["randomized"], budgets=[5, 200, 400], seeds=2, estimation_count=10
    )
    with caplog.at_level(logging.WARNING, logger="activedesign.harness"):
        result = run_sweep(cfg, quiet=True)
    assert len(result.failures) == 2
    assert result.slopes["randomized"] is None
    assert any("no slope for randomized" in r.message for r in caplog.records)
