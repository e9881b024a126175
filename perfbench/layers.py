"""Span and counter probes wrapped around the package's functions.

The package itself carries no instrumentation, so every per-layer figure
is taken from outside: a probe replaces a module or class attribute with
a wrapper that times the call, tracks how much of that interval nested
probes covered (so self time is known), and can inspect the result.
Spans are aggregated per name in memory (calls, total, self) rather than
kept one by one, because the per-step layers see millions of calls.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregated spans and counters; ``restore`` undoes every patch."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[float] = []  # time covered by children of each open span
        self._undo: list = []

    def wrap(self, name, fn, on_result=None):
        clock = time.perf_counter
        open_spans = self._open

        def probe(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                covered = open_spans.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - covered
                if open_spans:
                    open_spans[-1] += elapsed
            if on_result is not None:
                on_result(self, args, result)
            return result

        return probe

    def patch(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` by a probe named ``name``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def per_call_us(self, name) -> float:
        n = self.calls[name]
        return 1e6 * self.total[name] / n if n else 0.0

    def table(self) -> list[tuple]:
        """(name, calls, total s, self s) rows, largest self time first."""
        rows = [(n, self.calls[n], self.total[n], self.self_time[n]) for n in self.calls]
        return sorted(rows, key=lambda r: -r[3])


_MISSING = object()


def _count_draws(tracer, args, result):
    tracer.counts["environment.query_block_draws"] += int(args[2])


def _count_iterations(tracer, args, result):
    tracer.counts["solver.minimize_iters"] += int(result.iterations)
    tracer.counts["solver.minimize_unconverged"] += int(not result.converged)


def _count_certified(tracer, args, result):
    tracer.counts["solver.polish_certified"] += int(result is not None)


def install_layer_probes(tracer: Tracer, pkg) -> None:
    """Wrap the layer boundaries of the ``activedesign`` package ``pkg``.

    Functions are patched under every name a caller looks them up by:
    ``policies`` and ``harness`` import solver and core functions into
    their own namespaces, so those names are patched where they live.
    """
    core, solver, geometry = pkg.core, pkg.solver, pkg.geometry
    policies, environment, harness, cli = pkg.policies, pkg.environment, pkg.harness, pkg.cli

    for cls in policies.Policy.__subclasses__():
        tracer.patch(cls, "select", f"policies.select.{cls.name}")
        tracer.patch(cls, "observe", "policies.observe")
    tracer.patch(environment.Environment, "query", "environment.query")
    tracer.patch(environment.Environment, "query_block", "environment.query_block", _count_draws)
    tracer.patch(policies, "lcb_variance", "estimation.lcb")
    # run_episode's checkpoint recorder is a closure; it reaches core
    # through these two names in the policies namespace.
    tracer.patch(policies, "loss", "policies.checkpoint.loss")
    tracer.patch(policies, "regret", "policies.checkpoint.regret")

    tracer.patch(core, "loss", "core.loss")  # regret's internal call
    tracer.patch(solver, "loss", "core.loss")
    tracer.patch(solver, "gradient", "core.gradient")
    for owner in (solver, policies):
        tracer.patch(owner, "minimize", "solver.minimize", _count_iterations)
    tracer.patch(solver, "active_set_polish", "solver.polish", _count_certified)
    tracer.patch(solver, "_certify_subset", "solver.polish_subset")
    for owner in (solver, harness, policies, cli):
        tracer.patch(owner, "reference_optimum", "solver.reference_optimum")
    for owner in (geometry, cli):
        tracer.patch(owner, "kkt_certificate", "geometry.kkt")
