"""Experiment harness: instance files, sweep configs, outputs, reports.

The file formats are deliberately plain.  An instance file is whitespace
separated numbers with ``#`` comments:

    d K
    <K rows of d covariate components>
    <K variances sigma_k^2>
    [<K proxies kappa_k^2>]        optional
    [<d components of beta>]       optional

When only one optional row is present it is told apart by length; for
square instances (K = d) that is ambiguous and the row is read as the
proxies, so write both rows to pin beta.  Without a proxy row the
proxies equal the variances, as for an inline instance without ``kappa2``.

A sweep config is a JSON object with keys ``instance``, ``policies``,
``budgets`` and optionally ``seeds`` (count or explicit list, default
25) and ``output`` (directory, default "results").  Outputs are one
trace file per episode (columns t, regret, loss_gap, p_min, at the
checkpoints of ``policies.checkpoint_schedule``), one summary per
policy (T, mean_regret, stderr, n_seeds), and a slope table (policy,
slope, intercept, r_squared, n_points), all written by ``table_text``;
identical configs produce byte-identical files.  As JSON a trace is
{policy, horizon, seed, rows}, a summary is a list of records and the
slopes are {policy: fit}.  When an episode fails, ``failures.csv``
(policy, T, seed, error) is written too, always as CSV.  Budgets must be
distinct integers; fractional budgets and seeds are rejected, not truncated.
``ACTIVE_DESIGN_THREADS`` caps how many worker processes run episodes
concurrently; on K > d a sweep steps a cell's seeds in lock-step groups.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import CovariateSet, DesignProblem, NoiseSpec
from .environment import make_env, make_hard_instance, make_random_instance
from .estimation import halving_sample_count, variance_radius
from .policies import POLICY_NAMES, Episode, RegretTrace, budget_floor, extends_past, make_policy
from .solver import reference_optimum

logger = logging.getLogger(__name__)


class InstanceFormatError(ValueError):
    """Malformed instance file; the message names the file and the offending line."""


class ConfigError(ValueError):
    """Malformed sweep configuration; message names the offending key."""


def _integers(key: str, values) -> tuple[int, ...]:
    """``values`` as ints; integral floats pass, anything else raises."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key!r} must be a list of integers, got {values!r}")
    return tuple(_integer(key, v) for v in values)


def _integer(key: str, value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key!r} must be integers, got {value!r}")
    return int(value)


def _real(key: str, value) -> float:
    """``value`` as a float; bools, non-numbers and NaN or inf raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{key!r} must be a number and must be finite, got {value!r}")
    return float(value)


# --------------------------------------------------------------------
# instance files


def _parse_floats(path: Path, tokens: list[str], lineno: int) -> list[float]:
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            raise InstanceFormatError(f"{path}: line {lineno}: {tok!r} is not a number") from None
        if not math.isfinite(out[-1]):
            raise InstanceFormatError(f"{path}: line {lineno}: {tok!r} is not finite")
    return out


def load_instance(path) -> DesignProblem:
    """Read a design problem from a text instance file; without a proxy row
    the proxies are the variances."""
    path = Path(path)
    rows: list[tuple[int, list[str]]] = []
    try:
        text = path.read_text()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))

    if not rows:
        raise InstanceFormatError(f"{path}: empty instance file")
    lineno, header = rows[0]
    if len(header) != 2:
        raise InstanceFormatError(f"{path}: line {lineno}: header must be 'd K'")
    try:
        d, k = int(header[0]), int(header[1])
    except ValueError:
        raise InstanceFormatError(f"{path}: line {lineno}: header must be two integers") from None
    if d < 1 or k < 1:
        raise InstanceFormatError(f"{path}: line {lineno}: dimensions must be positive")

    body_rows = rows[1:]
    if len(body_rows) < k + 1:
        raise InstanceFormatError(
            f"{path}: expected {k} covariate rows plus a variance row, found {len(body_rows)}"
        )
    cols = np.empty((d, k))
    for arm in range(k):
        lineno, tokens = body_rows[arm]
        if len(tokens) != d:
            raise InstanceFormatError(
                f"{path}: line {lineno}: covariate row has {len(tokens)} entries, expected {d}"
            )
        cols[:, arm] = _parse_floats(path, tokens, lineno)
        norm = float(np.linalg.norm(cols[:, arm]))
        if norm > 0.0 and abs(norm - 1.0) > 1e-6:
            logger.warning("line %d: covariate %d has norm %.6g, renormalizing", lineno, arm, norm)

    lineno, tokens = body_rows[k]
    if len(tokens) != k:
        raise InstanceFormatError(
            f"{path}: line {lineno}: variance row has {len(tokens)} entries, expected {k}"
        )
    sigma2 = np.array(_parse_floats(path, tokens, lineno))

    kappa2 = None
    beta = None
    extras = body_rows[k + 1 :]
    if len(extras) > 2:
        raise InstanceFormatError(f"{path}: line {extras[2][0]}: unexpected trailing data")
    if len(extras) == 2:
        ln1, t1 = extras[0]
        ln2, t2 = extras[1]
        if len(t1) != k:
            raise InstanceFormatError(
                f"{path}: line {ln1}: proxy row has {len(t1)} entries, expected {k}"
            )
        if len(t2) != d:
            raise InstanceFormatError(
                f"{path}: line {ln2}: beta row has {len(t2)} entries, expected {d}"
            )
        kappa2 = np.array(_parse_floats(path, t1, ln1))
        beta = np.array(_parse_floats(path, t2, ln2))
    elif len(extras) == 1:
        ln, tokens = extras[0]
        if len(tokens) == k:
            kappa2 = np.array(_parse_floats(path, tokens, ln))
        elif len(tokens) == d:
            beta = np.array(_parse_floats(path, tokens, ln))
        else:
            raise InstanceFormatError(
                f"{path}: line {ln}: optional row has {len(tokens)} entries, expected {k} or {d}"
            )

    try:
        return DesignProblem(CovariateSet(cols), NoiseSpec(sigma2, kappa2), beta=beta)
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None


def write_instance(problem: DesignProblem, path) -> None:
    """Write an instance file that ``load_instance`` reads back exactly."""
    lines = ["# active sampling design instance"]
    lines.append(f"{problem.dimension} {problem.n_arms}")
    for arm in range(problem.n_arms):
        lines.append(" ".join(repr(float(v)) for v in problem.covariates.columns[:, arm]))
    lines.append(" ".join(repr(float(v)) for v in problem.noise.sigma2))
    lines.append(" ".join(repr(float(v)) for v in problem.noise.kappa2))
    if problem.beta is not None:
        lines.append(" ".join(repr(float(v)) for v in problem.beta))
    Path(path).write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    instance: dict
    policies: tuple
    budgets: tuple
    seeds: tuple
    output: str | None = "results"

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        known = {"instance", "policies", "budgets", "seeds", "output"}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        for key in ("instance", "policies", "budgets"):
            if key not in raw:
                raise ConfigError(f"missing config key {key!r}")

        instance = raw["instance"]
        if not isinstance(instance, dict):
            raise ConfigError("'instance' must be an object")

        if not isinstance(raw["policies"], (list, tuple)):
            raise ConfigError(f"'policies' must be a list, got {raw['policies']!r}")
        policies = []
        seen = set()
        for entry in raw["policies"]:
            if isinstance(entry, str):
                name, options = entry, {}
            elif isinstance(entry, dict) and "name" in entry:
                name = entry["name"]
                options = {k: v for k, v in entry.items() if k != "name"}
            else:
                raise ConfigError(f"'policies' entry {entry!r} needs a name")
            if name not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
            if name in seen:
                raise ConfigError(f"policy {name!r} listed twice")
            seen.add(name)
            policies.append((name, options))
        if not policies:
            raise ConfigError("'policies' must not be empty")

        budgets = _integers("budgets", raw["budgets"])
        if not budgets or any(t < 1 for t in budgets):
            raise ConfigError("'budgets' must be positive integers")
        if len(set(budgets)) != len(budgets):
            raise ConfigError("'budgets' must be distinct")

        seeds_raw = raw.get("seeds", 25)
        if isinstance(seeds_raw, (numbers.Number, str)):
            count = _integer("seeds", seeds_raw)
            if count < 1:
                raise ConfigError("'seeds' count must be positive")
            seeds = tuple(range(count))
        else:
            seeds = _integers("seeds", seeds_raw)
            if not seeds:
                raise ConfigError("'seeds' must not be empty")
            if any(s < 0 for s in seeds):
                raise ConfigError("'seeds' must be nonnegative")
            if len(set(seeds)) != len(seeds):
                raise ConfigError("'seeds' must be distinct")

        output = raw.get("output", "results")
        if output is not None and not isinstance(output, str):
            raise ConfigError(f"'output' must be a directory path or null, got {output!r}")

        return ExperimentConfig(
            instance=instance,
            policies=tuple(policies),
            budgets=budgets,
            seeds=seeds,
            output=output,
        )


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return ExperimentConfig.from_dict(raw)


def build_problem(instance: dict) -> tuple[DesignProblem, str]:
    """Materialize the problem of a config's instance object, paired with
    "gaussian", the only noise, for callers that unpack a pair."""
    return _problem(instance), "gaussian"


def _problem(instance: dict) -> DesignProblem:
    keys = set(instance)

    if "file" in instance:
        if keys - {"file"}:
            raise ConfigError("instance with 'file' takes no other keys")
        if not isinstance(path := instance["file"], str):
            raise ConfigError(f"'file' must be a path string, got {path!r}")
        return load_instance(path)

    if "generator" in instance:
        kind = instance["generator"]
        if kind == "hard":
            if keys - {"generator", "delta"}:
                raise ConfigError("hard instance takes only 'delta'")
            return make_hard_instance(_real("delta", instance.get("delta", 1.0)))
        if kind == "random":
            allowed = {"generator", "d", "K", "seed"}
            if keys - allowed:
                raise ConfigError(f"random instance keys must be in {sorted(allowed)}")
            d = _integer("d", instance.get("d", 3))
            k = _integer("K", instance.get("K", instance.get("d", 3)))
            seed = _integer("seed", instance.get("seed", 0))
            if seed < 0:
                raise ConfigError(f"'seed' must be nonnegative, got {seed}")
            return make_random_instance(d, k, seed)
        raise ConfigError(f"unknown generator {kind!r}; expected 'random' or 'hard'")

    if "covariates" in instance:
        allowed = {"covariates", "variances", "kappa2", "beta"}
        if keys - allowed:
            raise ConfigError(f"inline instance keys must be in {sorted(allowed)}")
        if "variances" not in instance:
            raise ConfigError("inline instance needs 'variances'")
        cols = np.asarray(instance["covariates"], dtype=np.float64).T
        sigma2 = np.asarray(instance["variances"], dtype=np.float64)
        kappa2 = np.asarray(instance["kappa2"], dtype=np.float64) if "kappa2" in instance else None
        beta = np.asarray(instance["beta"], dtype=np.float64) if "beta" in instance else None
        return DesignProblem(CovariateSet(cols), NoiseSpec(sigma2, kappa2), beta=beta)

    raise ConfigError("instance needs one of 'file', 'generator', or 'covariates'")


# --------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_slope(budgets, regrets) -> SlopeFit:
    """Least-squares slope of log10(regret) against log10(T).

    Nonpositive and infinite regret values (an infinite one is a budget
    too small to identify beta) cannot be placed on the log scale and
    are dropped with a warning; fewer than three usable points is an error.
    """
    ts = np.asarray(budgets, dtype=np.float64)
    rs = np.asarray(regrets, dtype=np.float64)
    if ts.shape != rs.shape:
        raise ValueError("budgets and regrets must align")
    keep = (rs > 0.0) & (rs < math.inf)
    if dropped := int((~keep).sum()):
        logger.warning("dropping %d nonpositive or infinite regrets from slope fit", dropped)
    ts, rs = ts[keep], rs[keep]
    if ts.size < 3:
        raise ValueError("need at least three positive points to fit a slope")
    lx, ly = np.log10(ts), np.log10(rs)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / total if total > 0.0 else 1.0
    return SlopeFit(float(slope), float(intercept), r2, int(ts.size))


@dataclass
class SweepResult:
    traces: dict
    summaries: dict
    slopes: dict
    failures: list
    output_dir: Path | None


class _Group:
    """The seeds of one policy that run as one lock-step ``Episode``
    through ``budgets`` (ascending; one budget unless they chain).

    ``run`` holds the sweep's constants (problem, name, options,
    reference); ``outcomes`` the traces and errors that the
    group's jobs have not taken yet.
    """

    def __init__(self, run: tuple, budgets: tuple, seeds: tuple):
        self.run = run
        self.budgets = budgets
        self.seeds = seeds
        self.episode = None
        self.outcomes: dict = {}  # (horizon, seed) -> trace or exception

    def advance(self, horizon: int) -> None:
        """Advance every seed to ``horizon`` and keep each one's outcome.

        The episode is built at the first budget that reaches here.  An
        error from building or advancing it is every seed's; a seed that
        failed keeps its error at the later budgets.
        """
        problem, name, options, reference = self.run
        try:
            if self.episode is None:
                self.episode = Episode(
                    name,
                    [make_env(problem, seed) for seed in self.seeds],
                    horizon,
                    options=options,
                    reference=reference,
                    budgets=tuple(t for t in self.budgets if t > horizon),
                )
            outcomes = self.episode.advance_all(horizon)
        except Exception as exc:
            outcomes = [exc] * len(self.seeds)
        self.outcomes.update(((horizon, seed), out) for seed, out in zip(self.seeds, outcomes))
        if horizon == self.budgets[-1]:
            self.episode = None  # free its environments and policy state


def _episode_task(args) -> tuple:
    """Run one (group, budget, seed) job: (name, horizon, seed, trace).

    The first job of a budget in its group advances the whole group to
    that budget (``_Group.advance``); every job then returns its own
    seed's trace, or raises its own seed's error.
    """
    group, horizon, seed = args
    if (horizon, seed) not in group.outcomes:
        group.advance(horizon)
    outcome = group.outcomes.pop((horizon, seed))
    if isinstance(outcome, Exception):
        raise outcome
    return group.run[1], horizon, seed, outcome


def _chain_task(jobs: list) -> list:
    """Run jobs in order; each gives (trace, None) or (None, error message)."""
    outcomes = []
    for job in jobs:
        try:
            outcomes.append((_episode_task(job)[3], None))
        except Exception as exc:
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
    return outcomes


def _thread_cap() -> int:
    raw = os.environ.get("ACTIVE_DESIGN_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"ACTIVE_DESIGN_THREADS={raw!r} is not an integer") from None
        if cap < 1:
            raise ConfigError("ACTIVE_DESIGN_THREADS must be positive")
        return cap
    return os.cpu_count() or 1


def _seed_groups(seeds: tuple, square: bool, cap: int) -> list:
    """The seeds that run as one lock-step episode, in contiguous groups.

    K = d: one seed per group, as a K = d ``Episode`` has one seed.
    K > d: every seed in one group when episodes run in process, else
    at most ``cap`` groups, so the pool still has work for every worker.
    """
    if square:
        return [(seed,) for seed in seeds]
    n = 1 if cap == 1 else min(cap, len(seeds))
    size, extra = divmod(len(seeds), n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def check_reference(reference: tuple, name) -> tuple:
    """``reference``, the (p*, L*) of ``reference_optimum``, if L* is finite;
    else ``ConfigError`` naming the instance ``name``, since no design of
    it identifies beta and every regret would be inf - inf."""
    if not math.isfinite(reference[1]):
        raise ConfigError(
            f"instance {name}: the optimal design's loss L* is infinite; "
            "its covariates are too close to linearly dependent"
        )
    return reference


def check_runs(problem: DesignProblem, policies, budgets) -> None:
    """Raise ``ConfigError`` if an episode of ``policies``, (name, options)
    pairs, at ``budgets`` could not run: the problem has no ``beta``, a
    policy rejects its options, or a budget is below the floor of its
    presampling (``budget_floor``)."""
    if problem.beta is None:
        raise ConfigError("the instance has no truth vector beta, which simulation needs")
    if min(budgets) < 1:
        raise ConfigError("budgets must be positive")
    probe_rng = np.random.default_rng(0)
    for name, options in policies:
        try:
            make_policy(name, problem, probe_rng, max(budgets), dict(options))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"policy {name!r} options rejected: {exc}") from None
        for horizon in budgets:
            if (floor := budget_floor(name, problem, horizon)) is not None:
                raise ConfigError(
                    f"policy {name!r} cannot presample {problem.n_arms} arms within budget "
                    f"{horizon}; the smallest feasible budget at or above it is {floor}"
                )


def run_sweep(config: ExperimentConfig, quiet: bool = False, fmt: str = "csv") -> SweepResult:
    """Run every (policy, budget, seed) episode and write the result files.

    A horizon-free policy (``uniform``, ``oracle``, ``thompson``) runs
    each seed once, to its largest budget, and cuts the smaller budgets'
    traces from that run, since with the same seed they are exact
    prefixes; budgets below 2K run on their own.  On K > d the seeds of
    a (policy, chain or budget) run as one lock-step ``Episode`` (see the
    README): all seeds in one group in process, else split into at most
    ``ACTIVE_DESIGN_THREADS`` contiguous groups.  K = d runs one seed per
    task.  Grouping leaves every file byte-identical.  Each trace's
    ``elapsed`` counts its own budget's increment (its share of it, in a
    group).  Up to ``ACTIVE_DESIGN_THREADS`` worker processes run the
    tasks in parallel; in process, ``_episode_task`` runs once per
    (policy, budget, seed), and the first job of a group's budget steps
    the whole group.  Failures are collected rather than fatal so a bad
    seed cannot sink a long sweep; callers decide how to surface them.
    A seed that fails a budget drops out of its group and keeps that
    error at the group's later budgets: a chained run does not depend
    on the budget, so a restart would fail again at the same step.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    problem, _ = build_problem(config.instance)
    reference = check_reference(reference_optimum(problem), config.instance)
    check_runs(problem, config.policies, config.budgets)
    if config.output is not None:
        # made with its parents, so the nearest of them that exists must be a directory
        path = Path(config.output)
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output {config.output!r}: {existing} is not a directory")

    def make_task(name, options, budgets, seeds):
        run = (problem, name, options, reference)
        group = _Group(run, budgets, seeds)
        return [(group, horizon, seed) for horizon in budgets for seed in seeds]

    # A horizon-free policy's shorter episodes are prefixes of its longest
    # one, so its chained budgets run in ascending order as one episode;
    # every other budget is its own.  Each task is one seed group.
    cap = _thread_cap()
    groups = _seed_groups(config.seeds, problem.is_square, cap)
    tasks = []
    for name, options in config.policies:
        chained = sorted(t for t in config.budgets if extends_past(name, problem.n_arms, t))
        if len(chained) < 2:
            chained = []
        for seeds in groups:
            if chained:
                tasks.append(make_task(name, options, tuple(chained), seeds))
        tasks.extend(
            make_task(name, options, (horizon,), seeds)
            for horizon in config.budgets
            if horizon not in chained
            for seeds in groups
        )

    workers = min(cap, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_chain_task, task) for task in tasks]
            done = []
            for task, fut in zip(tasks, futures):
                try:
                    done.append(fut.result())
                except Exception as exc:
                    done.append([(None, f"{type(exc).__name__}: {exc}")] * len(task))
    else:
        done = [_chain_task(task) for task in tasks]
    outcomes = {
        (group.run[1], horizon, seed): outcome
        for task, results in zip(tasks, done)
        for (group, horizon, seed), outcome in zip(task, results)
    }

    traces: dict = {}
    failures: list = []
    for name, _ in config.policies:
        for horizon in config.budgets:
            for seed in config.seeds:
                trace, error = outcomes[name, horizon, seed]
                if error is None:
                    traces[(name, horizon, seed)] = trace
                else:
                    failures.append((name, horizon, seed, error))

    summaries: dict = {}
    slopes: dict = {}
    for name, _ in config.policies:
        rows = []
        for horizon in config.budgets:
            finals = [
                traces[(name, horizon, s)].final_regret
                for s in config.seeds
                if (name, horizon, s) in traces
            ]
            if not finals:
                continue
            arr = np.array(finals)
            with np.errstate(invalid="ignore"):  # infinite regrets give a NaN stderr
                stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
            rows.append((horizon, float(arr.mean()), stderr, arr.size))
        summaries[name] = rows

        fit_rows = list(rows)
        if fit_rows:
            # drop the smallest budget when its episodes were still warm:
            # fewer than 2 n0 samples on some arm leaves the variance
            # estimates dominated by the estimation phase
            smallest = min(fit_rows, key=lambda r: r[0])[0]
            warm = [
                min(traces[(name, smallest, s)].final_counts)
                < 2 * max(traces[(name, smallest, s)].estimation_count, 1)
                for s in config.seeds
                if (name, smallest, s) in traces
            ]
            if any(warm) and len(fit_rows) > 3:
                logger.warning("excluding warm budget T=%d from %s slope fit", smallest, name)
                fit_rows = [r for r in fit_rows if r[0] != smallest]
        slopes[name] = None
        if len(config.budgets) >= 3:
            # fewer configured budgets never fit a slope; only warn when
            # failures or nonpositive regrets cost the fit its points
            try:
                slopes[name] = fit_slope([r[0] for r in fit_rows], [r[1] for r in fit_rows])
            except ValueError as exc:
                logger.warning("no slope for %s: %s", name, exc)

        if not quiet:
            spent = sum(
                traces[(name, h, s)].elapsed
                for h in config.budgets
                for s in config.seeds
                if (name, h, s) in traces
            )
            fit = slopes[name]
            line = f"policy {name}: {len(rows)} budgets, wall {spent:.1f}s"
            if fit is not None:
                line += f", slope {fit.slope:+.3f} (r2 {fit.r_squared:.3f})"
            print(line, file=sys.stderr)

    out_dir = None
    if config.output is not None:
        out_dir = Path(config.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_outputs(out_dir, traces, summaries, slopes, failures, fmt)

    return SweepResult(traces, summaries, slopes, failures, out_dir)


# --------------------------------------------------------------------
# output files


TRACE_COLUMNS = ["t", "regret", "loss_gap", "p_min"]


def table_text(fmt: str, header: list[str], records: list[dict], payload=None) -> str:
    """``records`` as CSV under ``header``, floats as ``repr(float(x))``;
    or as JSON ``payload`` (default ``records``), indented and key-sorted.

    The text ends in a newline.
    """
    if fmt != "csv":
        return json.dumps(records if payload is None else payload, indent=1, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        values = (record[h] for h in header)
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in values])
    return buf.getvalue()


def trace_records(trace: RegretTrace) -> list[dict]:
    """The trace's checkpoint rows keyed by ``TRACE_COLUMNS``, for either format."""
    return [{column: getattr(row, column) for column in TRACE_COLUMNS} for row in trace.rows]


def _write_outputs(out_dir, traces, summaries, slopes, failures, fmt) -> None:
    def write(stem, header, records, payload=None, fmt=fmt):
        text = table_text(fmt, header, records, payload)
        (out_dir / f"{stem}.{fmt}").write_text(text, newline="")

    for (name, horizon, seed), trace in sorted(traces.items()):
        rows = trace_records(trace)
        payload = {"policy": name, "horizon": horizon, "seed": seed, "rows": rows}
        write(f"trace_{name}_T{horizon}_seed{seed}", TRACE_COLUMNS, rows, payload)

    header = ["T", "mean_regret", "stderr", "n_seeds"]
    for name, rows in sorted(summaries.items()):
        write(f"summary_{name}", header, [dict(zip(header, row)) for row in rows])

    fits = {name: asdict(fit) for name, fit in sorted(slopes.items()) if fit is not None}
    header = ["policy", "slope", "intercept", "r_squared", "n_points"]
    write("slopes", header, [{"policy": name, **fit} for name, fit in fits.items()], fits)

    if failures:
        header = ["policy", "T", "seed", "error"]
        write("failures", header, [dict(zip(header, f)) for f in sorted(failures)], fmt="csv")


# --------------------------------------------------------------------
# concentration verification


CONCENTRATION_COLUMNS = ["kind", "n", "delta", "trials", "violation_rate", "bound", "binom_se"]


def verify_concentration(
    trials: int = 1000,
    pairs: tuple = ((50, 0.05), (200, 0.01)),
    horizon: int = 100,
    seed: int = 0,
) -> list[dict]:
    """Monte Carlo check of the variance deviation radius and halving count.

    For each (n, delta) pair, draws ``trials`` batches of n standard normal
    samples and measures how often the population variance estimate misses
    the truth 1 by more than the radius at proxy 1; the rate must stay
    below delta (plus binomial noise).  The halving row does the same for
    the sample count that promises a factor-two estimate with probability
    1 - 1/T^2.  Scaling the noise to any sigma^2 scales the estimates, the
    radius and the threshold alike, so unit variance checks them all.
    """
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials!r}")
    if horizon < 2:
        raise ConfigError(f"horizon must be at least 2, got {horizon!r}")
    rng = np.random.default_rng(seed)

    def row(kind: str, n: int, delta: float, threshold: float) -> dict:
        """How often n samples' variance misses 1 by over ``threshold``."""
        var_hat = rng.standard_normal((trials, n)).var(axis=1)  # population convention
        rate = float(np.mean(np.abs(var_hat - 1.0) > threshold))
        se = math.sqrt(delta * (1.0 - delta) / trials)
        return dict(zip(CONCENTRATION_COLUMNS, (kind, n, delta, trials, rate, delta, se)))

    rows = [
        row("radius", int(n), float(delta), variance_radius(int(n), 1.0, float(delta)))
        for n, delta in pairs
    ]
    n_half = halving_sample_count(1.0, 1.0, horizon)
    rows.append(row("halving", n_half, 1.0 / horizon**2, 0.5))
    return rows
