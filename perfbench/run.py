"""Benchmark of the activedesign package: sweeps and reference solves.

Run from the repository root:

    python3 perfbench/run.py --workload square --seed 1 --seconds 55 --trace 0

Each run executes one workload through the package's public entry points
(``harness.run_sweep``, ``solver.reference_optimum``,
``geometry.kkt_certificate``), checks the outputs, prints a readable
report, and ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds one traced in-process pass and reports the
per-layer metrics instead.  The package is imported from ``src/`` of the
working directory; the run fails (exit 2, no result) when it is absent.

A *pass* is one ``run_sweep`` over the workload's fixed (policy, budget)
grid with episode seeds derived from ``--seed``, so every pass of a run
does identical work and must write byte-identical files.  The first pass
runs episodes in the sweep's process pool, with ``ACTIVE_DESIGN_THREADS``
set to the number of usable CPUs; the timed passes after it run them in
this process (``ACTIVE_DESIGN_THREADS=1``), so that one process does all
the timed work.  BLAS is pinned to one thread.  Each policy is a closed
loop (it picks the next arm only after it has seen the previous
response) and there is no arrival rate.  Timed work is measured in CPU
seconds scaled to a nominal host speed (see ``hostclock.py``) and
summarised by its median over the passes.  See ``perfbench/README.md``
for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from hostclock import HostClock
from layers import Tracer, install_layer_probes

BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Timed (in-process) passes per run, at least.
MIN_PASSES = 3
# Episode latency is reported at p50 and p80 over every episode sample of
# the timed passes, so a traced run, which reports them as metrics, goes
# on until at least ten lie beyond p80.
MIN_EPISODE_SAMPLES = 50
# A pass whose sweep solve took less CPU time than this adds cold solves,
# in batches of SOLVE_BATCH_SECONDS, until this much is collected, so that
# a microsecond closed-form solve is not timed from one sample; a slower
# sweep solve is its own sample.
MIN_SOLVE_SECONDS = 0.2
SOLVE_BATCH_SECONDS = 0.02
# Set-up is timed in fresh processes: this many before every pass, so
# the samples span the whole run.
SETUP_SPAWNS_PER_PASS = 2
# Share of --seconds a traced run spends on its untraced passes; the rest
# is left for the traced pass, which runs slower, and the CLI call.
TRACE_PASS_SHARE = 0.4

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


@dataclass(frozen=True)
class Workload:
    why: str
    instance: dict
    policies: tuple
    budgets: tuple
    seeds_per_pass: int
    # miniature used by --smoke: (instance, budgets)
    smoke: tuple

    def config(self, seed: int, output: str, smoke: bool) -> dict:
        instance, budgets = self.smoke if smoke else (self.instance, self.budgets)
        per_pass = 1 if smoke else self.seeds_per_pass
        return {
            "instance": instance,
            "policies": list(self.policies),
            "budgets": list(budgets),
            "seeds": [seed * per_pass + i for i in range(per_pass)],
            "output": output,
        }


# Policies are listed longest-running first: run_sweep submits jobs in
# this order, so the pool starts the long episodes early.  The order does
# not change any output file.
WORKLOADS = {
    "square": Workload(
        why=(
            "Per-step hot path at d=K=3 (square_replication instance), where numpy "
            "per-call overhead dominates and the reference solve is the closed form."
        ),
        instance={"generator": "random", "d": 3, "K": 3, "seed": 4},
        policies=(
            "thompson",
            "gradient_ucb",
            {"name": "randomized", "design_delta": 0.5},
            "oracle",
            "uniform",
        ),
        budgets=(10000, 20000, 50000),
        seeds_per_pass=1,
        smoke=({"generator": "random", "d": 3, "K": 3, "seed": 4}, (300, 600)),
    ),
    "redundant": Workload(
        why=(
            "K=4>d=3, duplicated arm: T^(3/4) presampling via query_block, Frank-Wolfe "
            "reference solve. randomized left out: at T=2000 it ran >60 s or raised on "
            "3 of 7 seeds."
        ),
        instance={"file": "instances/redundant_arm.txt"},
        policies=("thompson", "gradient_ucb", "uniform"),
        budgets=(10000,),
        seeds_per_pass=6,
        smoke=({"file": "instances/redundant_arm.txt"}, (1000,)),
    ),
    "wide": Workload(
        why=(
            "d=20, K=40: flop-bound linear algebra and a cold reference solve "
            "(Frank-Wolfe, active-set polish, multiplicative refine) that dominates the pass."
        ),
        instance={"generator": "random", "d": 20, "K": 40, "seed": 0},
        policies=("thompson", "oracle", "uniform"),
        budgets=(5000,),
        # few seeds, so that the solve is repeated as often as a run allows
        seeds_per_pass=4,
        smoke=({"generator": "random", "d": 6, "K": 12, "seed": 0}, (400,)),
    ),
}

POLICY_ORDER = ("uniform", "randomized", "gradient_ucb", "thompson", "oracle")

END_TO_END_UNITS = {
    "sweep_s": "s",
    "queries_per_s": "1/s",
    "mean_final_regret": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = (
    "import sys\n"
    "from activedesign.harness import build_problem, load_config\n"
    "build_problem(load_config(sys.argv[1]).instance)\n"
)


def say(line: str = "") -> None:
    print(line, flush=True)


@dataclass
class Episode:
    policy: str
    horizon: int
    seed: int
    elapsed: float  # wall s, RegretTrace.elapsed
    regret: float
    cpu: float  # CPU s in this process; nan for pooled episodes

    @property
    def key(self) -> tuple:
        return self.policy, self.horizon, self.seed


@dataclass
class Pass:
    wall: float
    sweep_solve: float
    write: float
    workers: int
    episodes: list
    failures: list
    digest: str
    problem: object
    weights: object
    value: float
    cpu: float  # CPU s of the whole run_sweep in this process
    solve: float  # CPU s per cold solve; nan until timed
    factor: float = math.nan  # host-speed scale of this pass's CPU times

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor


# --------------------------------------------------------------------
# one pass


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(pkg, clock: HostClock, raw: dict, out_dir: Path, workers: int) -> Pass:
    """One run_sweep, timed from outside, then its outputs digested.

    Probes on ``harness.reference_optimum`` and ``harness._write_outputs``
    split the pass wall time into solve, episodes and file writing; they
    add two calls per pass.  The solve and, with one worker, each episode
    are timed in CPU seconds by ``clock``; pooled episodes keep only their
    wall time.
    """
    harness = pkg.harness
    config = harness.ExperimentConfig.from_dict(raw)
    seen, cpu = {}, {}

    def keep_solve(tracer, args, result):
        seen["problem"], seen["answer"] = args[0], result

    probe = Tracer()
    probe.patch(harness, "reference_optimum", "solve", keep_solve)
    probe.patch(harness, "_write_outputs", "write")
    solve, task = harness.reference_optimum, harness._episode_task

    def timed_solve(*args, **kwargs):
        t0 = clock.cpu()
        answer = solve(*args, **kwargs)
        seen["cpu"] = clock.cpu() - t0
        return answer

    def timed_task(job):
        t0 = clock.cpu()
        result = task(job)
        cpu[result[:3]] = clock.cpu() - t0
        return result

    harness.reference_optimum = timed_solve
    if workers == 1:
        harness._episode_task = timed_task  # a closure cannot go to a pool worker
    os.environ["ACTIVE_DESIGN_THREADS"] = str(workers)
    try:
        c0, t0 = clock.cpu(), time.perf_counter()
        result = harness.run_sweep(config, quiet=True)
        wall, sweep_cpu = time.perf_counter() - t0, clock.cpu() - c0
    finally:
        harness.reference_optimum, harness._episode_task = solve, task
        probe.restore()

    episodes = [
        Episode(name, horizon, seed, trace.elapsed, trace.final_regret,
                cpu.get((name, horizon, seed), math.nan))
        for (name, horizon, seed), trace in sorted(result.traces.items())
    ]
    weights, value = seen["answer"]
    done = Pass(
        wall=wall,
        sweep_solve=probe.total["solve"],
        write=probe.total["write"],
        workers=min(workers, len(config.policies) * len(config.budgets) * len(config.seeds)),
        episodes=episodes,
        failures=list(result.failures),
        digest=_digest(out_dir),
        problem=seen["problem"],
        weights=weights,
        value=float(value),
        cpu=sweep_cpu,
        solve=seen["cpu"] if seen["cpu"] >= MIN_SOLVE_SECONDS else math.nan,
    )
    shutil.rmtree(out_dir)
    return done


def cold_solves(pkg, clock: HostClock, instance: dict, done: Pass) -> bool:
    """Time cold reference solves when the sweep's own solve was too quick.

    A sweep solve that took MIN_SOLVE_SECONDS of CPU time or more is the
    pass's solve sample.  Otherwise solves of freshly built problems (so
    that the per-problem cache of ``reference_optimum`` never applies)
    are repeated until that much CPU time is collected, in short batches,
    and the sample is the median over batches of each batch's median
    solve; building the problems is not timed.  Returns whether every
    extra solve reproduced the sweep's reference exactly.
    """
    if not math.isnan(done.solve):
        return True
    np = pkg.np
    same, spent, medians = True, 0.0, []
    while spent < MIN_SOLVE_SECONDS:
        times = []
        while sum(times) < SOLVE_BATCH_SECONDS and len(times) < 500:
            problem, _ = pkg.harness.build_problem(instance)
            t0 = clock.cpu()
            weights, value = pkg.solver.reference_optimum(problem)
            times.append(clock.cpu() - t0)
            same &= value == done.value and bool(
                np.array_equal(np.asarray(weights), np.asarray(done.weights))
            )
        spent += sum(times)
        medians.append(statistics.median(times))
    done.solve = statistics.median(medians)
    return same


def certify(pkg, done: Pass) -> tuple[bool, float]:
    """KKT certificate and dual check at the pass's reference optimum.

    Returns (certified, relative KKT gap (max mark - L) / L).
    """
    cert = pkg.geometry.kkt_certificate(done.problem, done.weights)
    dual = pkg.geometry.dual_feasibility(done.problem, cert)
    gap = (float(cert.marks.max()) - done.value) / done.value
    return bool(cert.certified and dual.feasible), gap


# --------------------------------------------------------------------
# checks and summaries


class Checks:
    """Counts attempted operations and failures for the result line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def check_pass(checks: Checks, done: Pass, certified: bool, first_digest: str) -> None:
    for name, horizon, seed, msg in done.failures:
        checks.check(False, f"episode {name} T={horizon} seed={seed} raised: {msg}")
    for e in done.episodes:
        ok = math.isfinite(e.regret) and e.regret >= 0.0
        checks.check(ok, f"episode {e.policy} T={e.horizon} seed={e.seed} regret {e.regret!r}")
    checks.check(certified, "reference solve did not certify under kkt_certificate")
    checks.check(done.digest == first_digest, "sweep outputs differ between passes")


def quantile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def median_episodes(passes: list) -> dict:
    """Each distinct (policy, budget, seed) episode's median scaled time."""
    samples: dict = {}
    for p in passes:
        for e in p.episodes:
            samples.setdefault(e.key, []).append(p.scaled(e.cpu))
    return {key: statistics.median(times) for key, times in samples.items()}


def policy_shares(per_episode: dict) -> dict:
    spent = {}
    for (policy, _, _), seconds in per_episode.items():
        spent[policy] = spent.get(policy, 0.0) + seconds
    total = sum(spent.values())
    return {name: spent.get(name, 0.0) / total for name in POLICY_ORDER}


def pool_split(p: Pass) -> tuple[float, float]:
    """(pool overhead s, worker busy share) of one pooled pass.

    The episode phase is the pass wall time minus the reference solve and
    the file writes; overhead is what that phase took beyond a perfect
    split of the episode time over the workers.
    """
    busy = sum(e.elapsed for e in p.episodes)
    phase = p.wall - p.sweep_solve - p.write
    return phase - busy / p.workers, busy / (p.workers * phase)


# --------------------------------------------------------------------
# set-up time, memory, machine


class SetupTimer:
    """CPU time of fresh processes that import the package, load the
    config and build the problem (no solve).

    These times are not scaled to the host speed: a fresh process spends
    much of its time in the operating system (exec, page faults, file
    reads), which the slow periods stretch far less than the kernel.  On
    the tuning host, over five runs whose kernel speed differed by 1.55x,
    the raw times spread by 0.14 and the scaled ones by 0.28."""

    def __init__(self, root: Path, config_path: Path):
        self._cmd = [sys.executable, "-c", SETUP_CODE, str(config_path)]
        self._root = root
        self._env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_PINS)
        self._run()  # untimed: the first import may still write bytecode caches

    def _run(self) -> None:
        subprocess.run(self._cmd, cwd=self._root, env=self._env, check=True)

    def spawn(self, count: int) -> list[float]:
        times = []
        for _ in range(count):
            t0 = _children_cpu()
            self._run()
            times.append(_children_cpu() - t0)
        return times


def peak_rss_mb(workers: int) -> float:
    """Parent peak RSS plus ``workers`` times the largest child peak.

    Pool workers are the largest children; the figure is an upper bound
    on the peak of the parent and its workers together.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def machine_report(np, workers: int) -> None:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # numpy builds differ in what they record
        pass
    pins = " ".join(f"{k}={os.environ.get(k)}" for k in BLAS_PINS)
    say(
        f"machine: nproc {len(os.sched_getaffinity(0))}, cpu_count {os.cpu_count()}, "
        f"cpu {cpu!r}, python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas}, {pins}, workers {workers} (pooled pass), 1 (timed passes)"
    )


# --------------------------------------------------------------------
# the run


class Package:
    """The activedesign modules, imported from ``<root>/src``."""

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "activedesign" / "__init__.py").is_file():
            raise FileNotFoundError(f"no activedesign package under {src}")
        sys.path.insert(0, str(src))
        import numpy
        import activedesign
        from activedesign import cli, core, environment, geometry, harness, policies, solver

        if Path(activedesign.__file__).resolve().parent != (src / "activedesign").resolve():
            raise ImportError(f"activedesign imported from {activedesign.__file__}, not {src}")
        self.np = numpy
        self.cli, self.core, self.environment = cli, core, environment
        self.geometry, self.harness, self.policies, self.solver = geometry, harness, policies, solver


def record_digest(workload: str, seed: int, digest: str) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(workload, {})[str(seed)] = digest
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def digest_report(workload: str, seed: int, digest: str, smoke: bool) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = None if smoke else table.get(workload, {}).get(str(seed))
    if recorded is None:
        verdict = "no digest recorded for this workload and seed"
    elif recorded == digest:
        verdict = "matches the recorded digest"
    else:
        verdict = f"DIFFERS from the recorded digest {recorded}"
    say(f"output digest (sha256 of the sweep files): {digest} ({verdict})")


def traced_pass(pkg, clock, raw: dict, out: Path, checks: Checks, digest: str):
    """One in-process pass with every layer probe installed."""
    tracer = Tracer()
    install_layer_probes(tracer, pkg)
    clamps_before = pkg.core.negative_regret_clamps()
    clock.tick()  # sampling is off here: its kernel runs would land inside spans
    try:
        done = run_pass(pkg, clock, raw, out, workers=1)
        certified, gap = certify(pkg, done)
    finally:
        tracer.restore()
    clock.tick()
    done.factor = clock.close_window()
    clamps = pkg.core.negative_regret_clamps() - clamps_before
    check_pass(checks, done, certified, digest)
    return tracer, done, gap, clamps


def layer_metrics(t, pooled, passes, traced, gap, clamps, overhead, cli_s, latency,
                  shares, clock, solve_s) -> dict:
    d, k = traced.problem.dimension, traced.problem.n_arms
    overhead_s, busy_share = pool_split(pooled)
    checkpoints = t.calls["policies.checkpoint.regret"]
    m = {}
    for name in POLICY_ORDER:
        m[f"policies.select_us.{name}"] = (t.per_call_us(f"policies.select.{name}"), "us")
    m["policies.select_calls"] = (sum(t.calls[f"policies.select.{n}"] for n in POLICY_ORDER), "count")
    m["policies.observe_us"] = (t.per_call_us("policies.observe"), "us")
    m["policies.checkpoint_us"] = (
        1e6 * (t.total["policies.checkpoint.loss"] + t.total["policies.checkpoint.regret"])
        / max(checkpoints, 1),
        "us",
    )
    m["policies.checkpoint_calls"] = (checkpoints, "count")
    for name, share in shares.items():
        m[f"policies.episode_share.{name}"] = (share, "share")
    m["environment.query_us"] = (t.per_call_us("environment.query"), "us")
    m["environment.query_calls"] = (t.calls["environment.query"], "count")
    m["environment.query_block_us"] = (t.per_call_us("environment.query_block"), "us")
    m["environment.query_block_draws"] = (t.counts["environment.query_block_draws"], "count")
    m["estimation.lcb_us"] = (t.per_call_us("estimation.lcb"), "us")
    m["estimation.lcb_calls"] = (t.calls["estimation.lcb"], "count")
    m["core.gradient_us"] = (t.per_call_us("core.gradient"), "us")
    m["core.gradient_calls"] = (t.calls["core.gradient"], "count")
    # computed, not measured: Omega build 2d^2K, eigvalsh ~(4/3)d^3,
    # LU (2/3)d^3, K triangular solve pairs 2d^2K, marks 2dK
    m["core.gradient_flops"] = (4 * d * d * k + 2 * d**3 + 2 * d * k, "flop")
    m["core.loss_us"] = (t.per_call_us("core.loss"), "us")
    m["core.loss_calls"] = (t.calls["core.loss"], "count")
    m["core.regret_clamps"] = (clamps, "count")
    m["solver.minimize_calls"] = (t.calls["solver.minimize"], "count")
    m["solver.minimize_iters"] = (t.counts["solver.minimize_iters"], "count")
    m["solver.minimize_unconverged"] = (t.counts["solver.minimize_unconverged"], "count")
    m["solver.minimize_us"] = (t.per_call_us("solver.minimize"), "us")
    m["solver.polish_s"] = (t.total["solver.polish"], "s")
    m["solver.polish_subsets"] = (t.calls["solver.polish_subset"], "count")
    m["solver.polish_certified"] = (t.counts["solver.polish_certified"], "count")
    m["solver.refine_s"] = (t.self_time["solver.reference_optimum"], "s")
    m["solver.solve_s"] = (solve_s, "s")
    m["solver.solve_gap"] = (gap, "1")
    m["geometry.kkt_us"] = (t.per_call_us("geometry.kkt"), "us")
    m["harness.pool_wall_s"] = (pooled.wall, "s")
    m["harness.pool_overhead_s"] = (overhead_s, "s")
    m["harness.worker_busy_share"] = (busy_share, "share")
    m["harness.write_s"] = (statistics.median(p.write for p in passes), "s")
    m["harness.episode_p50_s"] = (latency["p50"], "s")
    m["harness.episode_p80_s"] = (latency["p80"], "s")
    m["cli.geometry_s"] = (cli_s, "s")
    m["bench.host_slowdown"] = (clock.slowdown(), "ratio")
    m["bench.trace_overhead_share"] = (overhead, "share")
    return m


def run_cli_geometry(pkg, problem, work: Path, checks: Checks) -> float:
    """Time ``active-design geometry`` in process on the workload instance."""
    path = work / "instance.txt"
    pkg.harness.write_instance(problem, path)
    out = work / "geometry.json"
    t0 = time.perf_counter()
    code = pkg.cli.cli_main(["geometry", str(path), "--format", "json", "--out", str(out)])
    seconds = time.perf_counter() - t0
    checks.check(code == 0 and json.loads(out.read_text())["certified"], "cli geometry failed")
    return seconds


def measure(args, root: Path, work: Path) -> tuple[Checks, dict]:
    pkg = Package(root)
    spec = WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    machine_report(pkg.np, workers)
    say(f"workload {args.workload}: {spec.why}")
    checks = Checks()
    clock = HostClock(pkg.np)
    budget = args.seconds * (TRACE_PASS_SHARE if args.trace else 1.0)
    started = time.perf_counter()

    def config_for(out: Path) -> dict:
        return spec.config(args.seed, str(out), args.smoke)

    setup, setup_times = None, []
    if not args.trace:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config_for(work / "setup")))
        setup = SetupTimer(root, config_path)

    def one_pass(index: int, pass_workers: int, reference: str | None) -> tuple[Pass, float]:
        """Set-up spawns, a sweep and its cold solves in one clock window."""
        clock.tick()
        spawned = setup.spawn(SETUP_SPAWNS_PER_PASS) if setup is not None else []
        raw = config_for(work / f"pass{index}")
        done = run_pass(pkg, clock, raw, work / f"pass{index}", pass_workers)
        checks.check(cold_solves(pkg, clock, raw["instance"], done),
                     "a cold reference solve did not reproduce the sweep's reference")
        certified, gap = certify(pkg, done)
        check_pass(checks, done, certified, reference or done.digest)
        done.factor = clock.close_window()
        setup_times.extend(spawned)
        return done, gap

    passes: list[Pass] = []
    rounds = []
    clock.start()
    try:
        # The pooled pass runs the sweep as users do; it also warms every
        # code path before the timed passes and fixes the reference digest.
        pooled, gap = one_pass(0, workers, None)
        while True:
            t0 = time.perf_counter()
            done, gap = one_pass(len(passes) + 1, 1, pooled.digest)
            passes.append(done)
            rounds.append(time.perf_counter() - t0)
            if args.smoke or (
                len(passes) >= MIN_PASSES
                and (not args.trace or sum(len(p.episodes) for p in passes) >= MIN_EPISODE_SAMPLES)
                and time.perf_counter() - started + max(rounds) > budget
            ):
                break
    finally:
        clock.stop()

    digest_report(args.workload, args.seed, pooled.digest, args.smoke)
    if args.record_digest and not args.smoke:
        record_digest(args.workload, args.seed, pooled.digest)

    per_episode = median_episodes(passes)
    solves = [p.scaled(p.solve) for p in [pooled] + passes]
    per_policy: dict = {}
    for e in pooled.episodes:
        per_policy.setdefault(e.policy, []).append(e.regret)
    shares = policy_shares(per_episode)
    samples = [p.scaled(e.cpu) for p in passes for e in p.episodes]
    latency = {"p50": quantile(samples, 0.5), "p80": quantile(samples, 0.8)}
    say(
        f"1 pooled pass and {len(passes)} timed in-process passes of {len(pooled.episodes)} "
        f"episodes; each sweep, episode and solve is its median over the passes "
        f"({len(per_episode)} distinct episodes, {len(solves)} solve samples, "
        f"{len(setup_times)} set-up samples)"
    )
    say(
        f"host: the reference kernel ran at {clock.slowdown():.3f}x its nominal time "
        f"(mean of {len(clock.kernel_times)} runs); times are CPU s at nominal speed"
    )
    say(f"{'solver.solve_s':34s} {statistics.median(solves):.6g} s (median cold solve)")
    say(
        f"episode latency over all {len(samples)} timed samples "
        f"({sum(x > latency['p80'] for x in samples)} beyond p80): "
        f"p50 {latency['p50']:.6g} s, p80 {latency['p80']:.6g} s"
    )
    say(f"pooled pass wall time {pooled.wall:.6g} s with {pooled.workers} workers")
    for name in POLICY_ORDER:
        if name in per_policy:
            say(
                f"  {name}: {100 * shares[name]:.1f}% of episode time, mean final regret "
                f"{statistics.fmean(per_policy[name]):.6g} over {len(per_policy[name])} episodes"
            )
    say(f"reference loss {pooled.value!r}; not bounded, usually 0 or rounding-sized:")
    say(f"{'solve_gap':34s} {gap:.6g} 1")
    say(f"{'failed_share':34s} {checks.failed / checks.attempted:.6g} share "
        f"({checks.failed} of {checks.attempted} episodes and checks)")

    metrics = {}
    if args.trace:
        tracer, traced, gap, clamps = traced_pass(
            pkg, clock, config_for(work / "traced"), work / "traced", checks, pooled.digest
        )
        untraced = sum(per_episode.values())
        overhead = sum(traced.scaled(e.cpu) for e in traced.episodes) / untraced - 1.0
        cli_s = run_cli_geometry(pkg, pooled.problem, work, checks)
        for name, value in layer_metrics(
            tracer, pooled, passes, traced, gap, clamps, overhead, cli_s, latency, shares, clock,
            statistics.median(solves),
        ).items():
            metrics[name] = {"value": value[0], "unit": value[1]}
        say(
            f"tracing overhead: traced episode time is {100 * overhead:+.1f}% against the "
            f"untraced medians ({len(traced.episodes)} episodes, {untraced:.3f} s untraced)"
        )
        say("spans (name, calls, total s, self s):")
        for name, calls, total, self_s in tracer.table():
            say(f"  {name:32s} {calls:10d} {total:12.6f} {self_s:12.6f}")
    else:
        values = {
            "sweep_s": statistics.median(p.scaled(p.cpu) for p in passes),
            "queries_per_s": sum(key[1] for key in per_episode) / sum(per_episode.values()),
            "mean_final_regret": statistics.fmean(e.regret for e in pooled.episodes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(pooled.workers),
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
    for name, entry in metrics.items():
        say(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    return checks, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="miniature workload, two passes")
    parser.add_argument(
        "--record-digest",
        action="store_true",
        help="store this run's output digest in perfbench/digests.json",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_PINS)  # before numpy is first imported
    root = Path.cwd()
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
            checks, metrics = measure(args, root, Path(tmp))
    except (ImportError, OSError, ValueError, KeyError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for problem in checks.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not checks.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
