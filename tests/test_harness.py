"""Instance files, sweep configs, slope fits, and output files."""

import dataclasses
import json
import logging
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from activedesign.core import DesignProblem, NoiseSpec
from activedesign.environment import make_env, make_random_instance
from activedesign import harness
from activedesign.harness import (
    ConfigError,
    ExperimentConfig,
    InstanceFormatError,
    build_problem,
    check_reference,
    check_runs,
    fit_slope,
    load_config,
    load_instance,
    run_sweep,
    table_text,
    verify_concentration,
    write_instance,
)
from activedesign.policies import (
    CHECKPOINT_RATIO,
    OracleTrackingPolicy,
    ThompsonPolicy,
    UniformPolicy,
    checkpoint_schedule,
    budget_floor,
    run_episode,
)
from activedesign.solver import reference_optimum

ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------
# instance files


def test_instance_round_trip_is_exact(tmp_path):
    # proxies above the variances, so the proxy row is written and read back
    base = make_random_instance(3, 5, seed=7)
    noise = NoiseSpec(base.noise.sigma2, 3.0 * base.noise.sigma2)
    problem = DesignProblem(base.covariates, noise, beta=base.beta)
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


def test_a_file_instance_without_proxies_takes_the_variances_as_an_inline_one_does(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("2 2\n1 0\n0 1\n1.0 4.0\n")
    from_file, _ = build_problem({"file": str(path)})
    inline, _ = build_problem({"covariates": [[1.0, 0.0], [0.0, 1.0]], "variances": [1.0, 4.0]})
    np.testing.assert_array_equal(from_file.noise.kappa2, [1.0, 4.0])
    np.testing.assert_array_equal(inline.noise.kappa2, [1.0, 4.0])


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
    with pytest.raises(InstanceFormatError, match=r"bad\.txt: line 1.*header"):
        load_instance(path)

    path.write_text("2 2\n1 0 0\n0 1\n1.0 1.0\n")
    with pytest.raises(InstanceFormatError, match=r"bad\.txt: line 2.*covariate row has 3"):
        load_instance(path)

    path.write_text("2 2\n1 0\n0 1\n1.0 1.0 1.0\n")
    with pytest.raises(InstanceFormatError, match=r"bad\.txt: line 4.*variance row"):
        load_instance(path)

    path.write_text("2 2\n1 0\n0 1\n1.0 1.0\n1.0 1.0\n0 0\n1 1\n")
    with pytest.raises(InstanceFormatError, match=r"bad\.txt: line 7: unexpected trailing data"):
        load_instance(path)

    path.write_text("3 2\n1 0 0\n0 1 0\n1.0 1.0\n1 1 1 1\n")
    with pytest.raises(InstanceFormatError, match="expected 2 or 3"):
        load_instance(path)

    path.write_text("")
    with pytest.raises(InstanceFormatError, match="empty"):
        load_instance(path)

    # non-finite variances and proxies used to load; the error names the file
    for body in ("1.0 nan\n", "1.0 inf\n", "1.0 1.0\n1.0 inf\n", "1.0 1.0\nnan 1.0\n"):
        path.write_text("2 2\n1 0\n0 1\n" + body)
        with pytest.raises(InstanceFormatError, match=f"{path.name}.*finite"):
            load_instance(path)

    # a non-finite covariate failed only inside the SVD, and a non-finite
    # beta loaded; the error names the file and the line
    for text, lineno in [
        ("2 2\n1 0\nnan 1\n1.0 1.0\n", 3),
        ("2 2\ninf 0\n0 1\n1.0 1.0\n", 2),
        ("2 2\n1 0\n0 1\n1.0 1.0\n1.0 1.0\nnan 1\n", 6),
        ("3 2\n1 0 0\n0 1 0\n1.0 1.0\n1 -inf 1\n", 5),
    ]:
        path.write_text(text)
        message = f"{path.name}: line {lineno}: .* is not finite"
        with pytest.raises(InstanceFormatError, match=message):
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


def test_fit_slope_drops_infinite_points(caplog):
    # a budget below K leaves some arm unsampled, and its regret is +inf
    with caplog.at_level(logging.WARNING, logger="activedesign.harness"):
        fit = fit_slope([1, 2, 3, 5, 7], [math.inf, 1.0, 0.5, 0.2, 0.1])
    assert fit == fit_slope([2, 3, 5, 7], [1.0, 0.5, 0.2, 0.1])
    assert fit.n_points == 4 and math.isfinite(fit.slope) and fit.r_squared < 1.0
    assert any("infinite" in r.message for r in caplog.records)


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
    assert cfg.output == "results"


@pytest.mark.parametrize(
    "path", sorted((ROOT / "configs").glob("*.json")), ids=lambda path: path.stem
)
def test_shipped_config_passes_every_check_before_a_sweep(monkeypatch, path):
    # a config names its instance file relative to the repository root
    monkeypatch.chdir(ROOT)
    config = load_config(path)
    problem, _ = build_problem(config.instance)
    check_reference(reference_optimum(problem), config.instance)
    check_runs(problem, config.policies, config.budgets)


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
        ({**base_config_dict(), "seeds": []}, "'seeds' must not be empty"),
        ({**base_config_dict(), "checkpoints": {"ratio": 1.2}}, "unknown config key 'checkpoints'"),
        ({**base_config_dict(), "estimation_count": 10}, "unknown config key 'estimation_count'"),
        ({**base_config_dict(), "instance": "hard"}, "'instance' must be an object"),
        ({**base_config_dict(), "output": 5}, "'output' must be a directory path or null"),
        ({**base_config_dict(), "output": ["a"]}, "'output'"),
    ]
    for raw, fragment in cases:
        with pytest.raises(ConfigError, match=fragment.replace("(", "\\(")):
            ExperimentConfig.from_dict(raw)


def test_config_rejects_duplicate_budgets():
    # a repeated budget would run its episodes twice and fit a slope to
    # repeated points
    with pytest.raises(ConfigError, match="'budgets' must be distinct"):
        ExperimentConfig.from_dict({**base_config_dict(), "budgets": [1000, 1000, 2000]})


def test_config_rejects_non_integer_budgets():
    # a fractional budget used to be truncated, so [1000, 1000.5] read as
    # a repeated budget
    for budgets in ([1000.9, 2000], [1000, 1000.5]):
        with pytest.raises(ConfigError, match="'budgets' must be integers"):
            ExperimentConfig.from_dict({**base_config_dict(), "budgets": budgets})
    cfg = ExperimentConfig.from_dict({**base_config_dict(), "budgets": [1000.0, 2000]})
    assert cfg.budgets == (1000, 2000)


def test_config_rejects_non_integer_seeds():
    for seeds in (2.7, "3", [0, 1.5], None):
        with pytest.raises(ConfigError, match="'seeds'"):
            ExperimentConfig.from_dict({**base_config_dict(), "seeds": seeds})
    with pytest.raises(ConfigError, match="'seeds' must be nonnegative"):
        ExperimentConfig.from_dict({**base_config_dict(), "seeds": [0, -1]})


@pytest.mark.parametrize("value", [10.9, "abc", "10", True, [10], None, 10, 10.0])
def test_config_rejects_estimation_count_at_any_value(value):
    # default_estimation_count(T) is the only phase-0 count, so the key is
    # unknown whatever its value, even one it used to accept
    with pytest.raises(ConfigError, match="unknown config key 'estimation_count'"):
        ExperimentConfig.from_dict({**base_config_dict(), "estimation_count": value})


@pytest.mark.parametrize(
    "ratio", [math.nan, math.inf, -math.inf, [2], "2", True, None, {"r": 2}, 1.0, 0.5]
)
def test_config_rejects_a_checkpoint_ratio_that_is_not_a_finite_number_above_1(ratio):
    # the grid ratio is policies.CHECKPOINT_RATIO, so 'checkpoints' is an
    # unknown key; a NaN ratio once collapsed the schedule to {start, T}
    with pytest.raises(ConfigError, match="unknown config key 'checkpoints'"):
        ExperimentConfig.from_dict({**base_config_dict(), "checkpoints": {"ratio": ratio}})


def test_config_reads_a_nan_ratio_from_json_as_an_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base_config_dict(), "checkpoints": {"ratio": math.nan}}))
    assert "NaN" in path.read_text()
    with pytest.raises(ConfigError, match="unknown config key 'checkpoints'"):
        load_config(path)
    # the fixed ratio itself is refused too: no config sets the grid
    path.write_text(json.dumps({**base_config_dict(), "checkpoints": {"ratio": CHECKPOINT_RATIO}}))
    with pytest.raises(ConfigError, match="unknown config key 'checkpoints'"):
        load_config(path)


@pytest.mark.parametrize("policies", ["uniform", 5, {"name": "uniform"}, None])
def test_config_rejects_policies_that_are_not_a_list(policies):
    # "uniform" used to be read letter by letter ("unknown policy 'u'"),
    # and 5 raised a bare TypeError
    with pytest.raises(ConfigError, match="'policies' must be a list"):
        ExperimentConfig.from_dict({**base_config_dict(), "policies": policies})


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

    rand, model = build_problem({"generator": "random", "d": 2, "K": 4, "seed": 1})
    assert rand.n_arms == 4
    assert model == "gaussian"
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
        # sizes and seeds used to be truncated: 3.7 x 5.2 from seed 1.9
        # built a 3 x 5 instance from seed 1, and True built d = 1
        ({"generator": "random", "d": 3.7, "K": 5}, "'d' must be integers"),
        ({"generator": "random", "d": 3, "K": 5.2}, "'K' must be integers"),
        ({"generator": "random", "d": 3, "K": 5, "seed": 1.9}, "'seed' must be integers"),
        ({"generator": "random", "d": True, "K": 5}, "'d' must be integers"),
        ({"generator": "random", "d": 2, "seed": "1"}, "'seed' must be integers"),
        # the variance range and the basis are constants of the generator
        ({"generator": "random", "d": 2, "canonical": False}, "random instance keys"),
        ({"generator": "random", "d": 2, "sigma2_range": [0.5, 2.0]}, "random instance keys"),
        # true built delta = 1
        ({"generator": "hard", "delta": True}, "'delta' must be a number"),
        ({"generator": "hard", "delta": "0.5"}, "'delta' must be a number"),
        ({"generator": "hard", "delta": math.nan}, "'delta' must be a number and must be finite"),
        ({"generator": "hard", "delta": math.inf}, "'delta'"),
        ({"file": "x", "d": 2}, "takes no other keys"),
        # a path that is not a string used to end in a TypeError
        ({"file": 5}, "'file' must be a path string, got 5"),
        ({"file": None}, "'file' must be a path string, got None"),
        ({"covariates": [[1, 0], [0, 1]]}, "needs 'variances'"),
        # the noise is Gaussian, not a setting
        ({"generator": "hard", "noise": "gaussian"}, "hard instance takes only 'delta'"),
        ({}, "needs one of"),
    ]
    for instance, fragment in cases:
        with pytest.raises(ConfigError, match=fragment.replace("'", "'")):
            build_problem(instance)
    inline = {"covariates": [[1, 0], [0, 1]], "variances": [1.0, math.nan]}
    with pytest.raises(ValueError, match="finite"):
        build_problem(inline)
    with pytest.raises(ValueError, match="finite"):
        build_problem({**inline, "variances": [1.0, 1.0], "kappa2": [1.0, math.inf]})
    with pytest.raises(ValueError, match="covariates must be finite"):
        build_problem({**inline, "covariates": [[1, 0], [math.nan, 1]], "variances": [1.0, 1.0]})
    with pytest.raises(ValueError, match="beta must be finite"):
        build_problem({**inline, "variances": [1.0, 1.0], "beta": [1.0, math.nan]})


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


def _assert_sweep_reproduces(tmp_path, config: str) -> None:
    """``configs/<config>.json`` swept again writes ``results/<config>`` byte for byte."""
    root = Path(__file__).resolve().parents[1]
    golden = root / "results" / config
    cfg = dataclasses.replace(
        load_config(root / "configs" / f"{config}.json"), output=str(tmp_path / "out")
    )
    result = run_sweep(cfg, quiet=True)
    assert not result.failures
    written = sorted(p.name for p in result.output_dir.iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for name in written:
        assert (result.output_dir / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("threads", ["1", "2"])
def test_quickstart_sweep_reproduces_the_committed_results(tmp_path, monkeypatch, threads):
    # 3x3 gradient_ucb and uniform: a golden guard on the square hot path,
    # in process and in the pool (uniform runs each seed as one chain)
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", threads)
    _assert_sweep_reproduces(tmp_path, "quickstart")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_square_policies_sweep_reproduces_the_committed_results(tmp_path, monkeypatch, threads):
    # 3x3 thompson, randomized and oracle: the golden guard on the rest of
    # the square step path, in process and in the pool
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", threads)
    _assert_sweep_reproduces(tmp_path, "square_policies")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_kd_baselines_sweep_reproduces_the_committed_results(tmp_path, monkeypatch, threads):
    # K > d uniform and oracle on redundant_arm: the golden guard on the
    # open-loop K > d path, 3-row groups in process, smaller in the pool
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", threads)
    _assert_sweep_reproduces(tmp_path, "kd_baselines")


def test_two_point_configs_are_the_hard_instance_in_both_orientations():
    names = ("two_point.json", "two_point_swapped.json")
    configs = [load_config(ROOT / "configs" / name) for name in names]
    (listed, _), (swapped, _) = (build_problem(cfg.instance) for cfg in configs)
    assert configs[0].instance == {"generator": "hard", "delta": 0.5}
    for field in ("policies", "budgets", "seeds"):
        assert getattr(configs[0], field) == getattr(configs[1], field)
    np.testing.assert_array_equal(swapped.covariates.columns, listed.covariates.columns)
    np.testing.assert_array_equal(swapped.noise.sigma2, listed.noise.sigma2[::-1])
    np.testing.assert_array_equal(swapped.noise.kappa2, listed.noise.kappa2[::-1])
    np.testing.assert_array_equal(swapped.beta, listed.beta)


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


def test_run_sweep_csv_and_json_files_hold_the_same_values(tmp_path, monkeypatch):
    # every CSV float, read back with float(), equals its JSON value exactly
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    written = {}
    for fmt in ("csv", "json"):
        cfg = sweep_config(tmp_path, output=str(tmp_path / fmt))
        out = run_sweep(cfg, quiet=True, fmt=fmt).output_dir
        written[fmt] = {p.stem: p.read_text() for p in out.iterdir()}
        assert all(p.suffix == f".{fmt}" for p in out.iterdir())
    assert sorted(written["csv"]) == sorted(written["json"])
    assert len(written["csv"]) == 2 * 3 * 3 + 2 + 1

    def csv_records(text):
        header, *lines = [line.split(",") for line in text.splitlines()]
        return [dict(zip(header, line)) for line in lines]

    def same(csv_value, json_value):
        if isinstance(json_value, float):
            return float(csv_value) == json_value
        return csv_value == str(json_value)

    for stem, text in written["csv"].items():
        records, payload = csv_records(text), json.loads(written["json"][stem])
        if stem.startswith("trace_"):
            name, horizon, seed = stem[len("trace_"):].rsplit("_", 2)
            assert (payload["policy"], payload["horizon"], payload["seed"]) == (
                name, int(horizon[1:]), int(seed[4:])
            )
            payload = payload["rows"]
        elif stem == "slopes":
            payload = [{"policy": name, **fit} for name, fit in sorted(payload.items())]
        assert len(records) == len(payload) > 0, stem
        for record, expected in zip(records, payload):
            assert set(record) == set(expected), stem
            for key, value in expected.items():
                assert same(record[key], value), (stem, key, record[key], value)


def test_run_sweep_collects_per_episode_failures(tmp_path, monkeypatch, fail_randomized_at):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    # the T=190 episodes fail at run time without sinking the sweep
    fail_randomized_at(190)
    cfg = sweep_config(tmp_path, policies=["randomized"], budgets=[190], seeds=2)
    result = run_sweep(cfg, quiet=True)
    assert len(result.failures) == 2
    assert all("injected failure" in msg for (_, _, _, msg) in result.failures)
    assert result.slopes["randomized"] is None
    assert (result.output_dir / "failures.csv").exists()


@pytest.mark.parametrize("below", [False, True], ids=["a_file", "below_a_file"])
def test_run_sweep_checks_its_output_directory_before_any_episode(tmp_path, monkeypatch, below):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")

    def no_episode(task):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(harness, "_chain_task", no_episode)
    blocker = tmp_path / "results"
    blocker.write_text("kept\n")
    output = blocker / "sweep" if below else blocker
    with pytest.raises(ConfigError) as raised:
        run_sweep(sweep_config(tmp_path, output=str(output)), quiet=True)
    assert str(raised.value).endswith(f"{blocker} is not a directory")
    assert blocker.read_text() == "kept\n"


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


@pytest.mark.parametrize(
    "policy, match",
    [
        ({"name": "randomized", "design_delta": math.nan}, "design_delta must be a finite"),
        ({"name": "randomized", "design_delta": True}, "design_delta must be a finite"),
    ],
)
def test_run_sweep_rejects_non_finite_policy_options(monkeypatch, policy, match):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    raw = {
        "instance": {"generator": "hard"},
        "policies": [policy],
        "budgets": [100],
        "seeds": 1,
        "output": None,
    }
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(ConfigError, match=f"options rejected: .*{match}"):
        run_sweep(cfg, quiet=True)


REMOVED_OPTIONS = [
    ("gradient_ucb", "bonus_scale", 2.0),
    ("gradient_ucb", "bonus_log_coeff", 3.0),
    ("gradient_ucb", "use_lcb", False),
    ("gradient_ucb", "fixed_variances", [1.0, 4.0]),
    ("randomized", "fixed_variances", [1.0, 4.0]),
    ("thompson", "prior", [0.0, 1.0, 1.0, 1.0]),
]


@pytest.mark.parametrize(
    "name, key, value", REMOVED_OPTIONS, ids=[f"{n}-{k}" for n, k, _ in REMOVED_OPTIONS]
)
def test_run_sweep_rejects_a_removed_option_before_any_episode(
    tmp_path, monkeypatch, name, key, value
):
    # each option, even at its old default, is now a constant of its policy
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")

    def no_episode(args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(harness, "_episode_task", no_episode)
    cfg = sweep_config(tmp_path, policies=["uniform", {"name": name, key: value}], budgets=[200])
    with pytest.raises(ConfigError, match=f"policy {name!r} options rejected: .*'{key}'"):
        run_sweep(cfg, quiet=True)
    assert not (tmp_path / "results").exists()


def test_run_sweep_excludes_warm_smallest_budget(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    # at T = 110 each of the 2 arms takes n0 = 54 phase-0 samples, so some
    # arm ends below 2 n0
    cfg = sweep_config(tmp_path, policies=["randomized"], budgets=[110, 400, 800, 1600], seeds=2)
    with caplog.at_level(logging.WARNING, logger="activedesign.harness"):
        result = run_sweep(cfg, quiet=True)
    assert not result.failures
    assert any("warm budget" in r.message for r in caplog.records)
    assert result.slopes["randomized"].n_points == 3
    # the summary still reports all four budgets
    assert [row[0] for row in result.summaries["randomized"]] == [110, 400, 800, 1600]


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

    lines = table_text("csv", harness.CONCENTRATION_COLUMNS, rows).splitlines()
    assert lines[0].startswith("kind,n,delta")
    assert len(lines) == 4
    parsed = json.loads(table_text("json", harness.CONCENTRATION_COLUMNS, rows))
    assert parsed[0]["kind"] == "radius"


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"trials": 0}, "trials must be at least 1, got 0"),
        ({"trials": -5}, "trials must be at least 1, got -5"),
        ({"horizon": 1}, "horizon must be at least 2, got 1"),
        ({"horizon": 0}, "horizon must be at least 2, got 0"),
        ({"horizon": -3}, "horizon must be at least 2, got -3"),
    ],
)
def test_verify_concentration_rejects_bad_trials_and_horizons(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        verify_concentration(**kwargs)


def test_run_sweep_rejects_kd_budgets_that_presampling_cannot_fit(monkeypatch):
    # 12 arms at ceil(T^(3/4)) samples each fit a budget only above 12^4;
    # the sweep used to accept T = 400 and then fail every episode
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    raw = {
        "instance": {"generator": "random", "d": 6, "K": 12, "seed": 0},
        "policies": ["gradient_ucb"],
        "budgets": [400, 5000],
        "seeds": 2,
        "output": None,
    }
    problem, _ = build_problem(raw["instance"])
    assert budget_floor("gradient_ucb", problem, 400) == 20749
    assert budget_floor("gradient_ucb", problem, 20749) is None
    assert budget_floor("thompson", problem, 400) is None
    with pytest.raises(ConfigError, match="'gradient_ucb' .* budget 400; .* is 20749"):
        run_sweep(ExperimentConfig.from_dict(raw), quiet=True)


def test_run_sweep_rejects_square_budgets_the_estimation_phase_cannot_fit(tmp_path):
    # 2 arms at max(2, ceil(10 log(2T))) phase-0 samples each: the smallest
    # budget is 108
    problem, _ = build_problem(sweep_config(tmp_path).instance)
    assert budget_floor("randomized", problem, 5) == 108
    assert budget_floor("gradient_ucb", problem, 108) is None
    assert budget_floor("gradient_ucb", problem, 5) == 108
    assert budget_floor("gradient_ucb", problem, 107) == 108
    assert budget_floor("thompson", problem, 5) is None
    cfg = sweep_config(tmp_path, policies=["uniform", "randomized"], budgets=[5, 200])
    with pytest.raises(ConfigError, match="'randomized' .* budget 5; .* is 108"):
        run_sweep(cfg, quiet=True)
    assert not (tmp_path / "results").exists()


def test_run_sweep_warns_about_a_missing_slope_only_when_points_were_lost(
    tmp_path, monkeypatch, caplog, fail_randomized_at
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
    fail_randomized_at(190)
    cfg = sweep_config(tmp_path, policies=["randomized"], budgets=[190, 2000, 4000], seeds=2)
    with caplog.at_level(logging.WARNING, logger="activedesign.harness"):
        result = run_sweep(cfg, quiet=True)
    assert len(result.failures) == 2
    assert result.slopes["randomized"] is None
    assert any("no slope for randomized" in r.message for r in caplog.records)


# --------------------------------------------------------------------
# horizon-free policies: one episode per seed across the budgets


CHAIN_INSTANCES = {
    "square": {"generator": "random", "d": 3, "K": 3, "seed": 4},
    "redundant": {"file": str(ROOT / "instances" / "redundant_arm.txt")},
    "hard": {"generator": "hard", "delta": 1.0},
}


@pytest.mark.parametrize("proxy", [1.0, 3.0, 10.0])
@pytest.mark.parametrize("instance", sorted(CHAIN_INSTANCES))
def test_chained_traces_equal_separate_episodes(monkeypatch, tmp_path, instance, proxy):
    # above factor 1 every second arm's proxy is raised, through a file's proxy row
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    spec = CHAIN_INSTANCES[instance]
    problem, _ = build_problem(spec)
    if proxy != 1.0:
        raise_by = proxy ** (np.arange(problem.n_arms) % 2)
        noise = NoiseSpec(problem.noise.sigma2, raise_by * problem.noise.kappa2)
        problem = dataclasses.replace(problem, noise=noise)
        spec = {"file": str(tmp_path / "loose.txt")}
        write_instance(problem, spec["file"])
    k = problem.n_arms
    # out of order, one budget off the checkpoint grid, and one below 2K
    # (thompson's warm-up and the first checkpoint depend on it there)
    budgets = [1200, 2 * k - 1, 777, 300]
    assert 777 not in checkpoint_schedule(2 * k, 1200)
    cfg = ExperimentConfig.from_dict(
        {
            "instance": spec,
            "policies": ["uniform", "oracle", "thompson"],
            "budgets": budgets,
            "seeds": [0, 3],
            "output": None,
        }
    )
    result = run_sweep(cfg, quiet=True)
    assert not result.failures
    reference = reference_optimum(problem)
    for name in ("uniform", "oracle", "thompson"):
        for horizon in budgets:
            for seed in (0, 3):
                got = result.traces[(name, horizon, seed)]
                want = run_episode(
                    name, make_env(problem, seed), horizon, reference=reference
                )
                for field in (
                    "policy", "seed", "horizon", "rows", "final_counts",
                    "origin", "presample_end", "estimation_count",
                ):
                    assert getattr(got, field) == getattr(want, field), (name, horizon, field)


@pytest.mark.parametrize(
    "instance",
    [CHAIN_INSTANCES["square"], CHAIN_INSTANCES["redundant"],
     {"generator": "random", "d": 6, "K": 12, "seed": 0}],
    ids=["square", "redundant", "random6x12"],
)
def test_horizon_free_policies_finish_every_small_budget(monkeypatch, instance):
    # below 2K thompson's warm-up of two samples per arm is cut to the budget
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    budgets = [1, 2, 3, 5, 7, 11, 24, 30]
    cfg = ExperimentConfig.from_dict(
        {
            "instance": instance,
            "policies": ["thompson", "uniform", "oracle"],
            "budgets": budgets,
            "seeds": 3,
            "output": None,
        }
    )
    result = run_sweep(cfg, quiet=True)
    assert not result.failures
    assert len(result.traces) == 3 * len(budgets) * 3
    for (name, horizon, seed), trace in result.traces.items():
        assert sum(trace.final_counts) == horizon == trace.rows[-1].t, (name, seed)
        if name == "thompson" and horizon < 2 * len(trace.final_counts):
            assert trace.presample_end == horizon


def test_chained_sweep_runs_each_step_once(monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    calls = {"thompson": 0, "uniform": 0}
    for cls in (ThompsonPolicy, UniformPolicy):
        def counted(self, t, stop, query, _run=cls.run):
            # uniform's run queries the segment's arms as one block
            def counted_query(arm):
                calls[self.name] += len(arm) if self.open_loop else 1
                return query(arm)

            return _run(self, t, stop, counted_query)

        monkeypatch.setattr(cls, "run", counted)
    cfg = ExperimentConfig.from_dict(
        {
            "instance": CHAIN_INSTANCES["square"],
            "policies": ["thompson", "uniform"],
            "budgets": [10_000, 20_000, 50_000],
            "seeds": 2,
            "output": None,
        }
    )
    result = run_sweep(cfg, quiet=True)
    assert not result.failures
    # thompson's warm-up takes 2 of each arm's samples without a step
    assert calls == {"thompson": 2 * (50_000 - 6), "uniform": 2 * 50_000}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_chain_failure_matches_separate_episodes(tmp_path, monkeypatch, threads):
    if threads != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched policy only when forked")
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", threads)

    # keyed to the policy's own round, so an episode reused after the
    # failure would stop at a different step; uniform's run queries the
    # segment's steps round + 1 .. stop as one block
    def failing(self, t, stop, query, _run=UniformPolicy.run):
        first = self.round + 1

        def failing_query(arms):
            if stop > 1500:
                raise RuntimeError(f"stopped at step {max(first, 1501)}")
            return query(arms)

        return _run(self, t, stop, failing_query)

    monkeypatch.setattr(UniformPolicy, "run", failing)
    raw = {
        "instance": CHAIN_INSTANCES["square"],
        "policies": ["uniform", "oracle"],
        "budgets": [5000, 1000, 2000],
        "seeds": 2,
    }
    chained = run_sweep(
        ExperimentConfig.from_dict({**raw, "output": str(tmp_path / "chained")}), quiet=True
    )
    # the same sweep with every (budget, seed) run as its own episode
    monkeypatch.setattr(UniformPolicy, "horizon_free", False)
    monkeypatch.setattr(OracleTrackingPolicy, "horizon_free", False)
    separate = run_sweep(
        ExperimentConfig.from_dict({**raw, "output": str(tmp_path / "separate")}), quiet=True
    )
    assert chained.failures == separate.failures
    assert chained.failures == [
        ("uniform", horizon, seed, "RuntimeError: stopped at step 1501")
        for horizon in (5000, 2000)
        for seed in (0, 1)
    ]
    assert [row[0] for row in chained.summaries["uniform"]] == [1000]
    written = sorted(p.name for p in chained.output_dir.iterdir())
    assert written == sorted(p.name for p in separate.output_dir.iterdir())
    assert "failures.csv" in written
    for name in written:
        assert (chained.output_dir / name).read_bytes() == (
            separate.output_dir / name
        ).read_bytes(), name


def test_episode_task_reports_one_budget_per_call(monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    seen = []
    task = harness._episode_task

    def recorded(job):
        result = task(job)
        seen.append(result[:3])
        assert result[3].horizon == result[1]
        return result

    monkeypatch.setattr(harness, "_episode_task", recorded)
    cfg = sweep_config(
        Path("."), policies=["uniform", "gradient_ucb"], budgets=[800, 300, 500], seeds=2,
        output=None,
    )
    result = run_sweep(cfg, quiet=True)
    assert sorted(seen) == sorted(result.traces)
    assert len(seen) == len(set(seen)) == 12
