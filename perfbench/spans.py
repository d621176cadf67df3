"""In-memory span recorder wrapped around the public functions of each hippi layer.

The benchmark never edits hippi: :func:`traced` swaps the module attributes
that ``hippi solve`` looks up for timing wrappers, and puts the originals back
when the ``with`` block ends.  Spans nest, so every span knows how much of its
interval its children covered; its self time is the rest.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class SpanTotals:
    """What one span name added up to over one recorded call."""

    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0


@dataclass
class Recorder:
    """A stack of open spans plus per-name totals for the current solve."""

    totals: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    missing: set = field(default_factory=set)  # patch points the program no longer has
    _open: list = field(default_factory=list)  # seconds covered by children, per open span

    def reset(self) -> None:
        self.totals = {}
        self.counters = {}
        self._open = []

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        tic = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - tic
            covered = self._open.pop()
            if self._open:
                self._open[-1] += elapsed
            t = self.totals.setdefault(name, SpanTotals())
            t.seconds += elapsed
            t.self_seconds += elapsed - covered
            t.calls += 1

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args)`` may record counters."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper


def _patch_points(rec: Recorder):
    """(owner, attribute, span name, after-hook) for every wrapped function.

    The names are those ``hippi.cli.cmd_solve`` resolves at call time: the
    functions bound in ``hippi.cli`` and ``hippi.io``, the two operator methods,
    the projection bound in ``hippi.solver``, the LAP and ``expand`` as the
    assignment and metrics modules see them.
    """
    from hippi import assignment, cli, core, io, metrics, solver

    last = {"assignment": None}

    def on_apply(_result, args):
        # Counted after the span so the bookkeeping is not part of it.
        op, u = args
        m, d = op.index.m, u.d
        rec.count("applies")
        if last["assignment"] is None or not _same(last["assignment"], u.assignment):
            rec.count("useful_applies")
        last["assignment"] = u.assignment
        # Wb U = W (A (W U)): W is read twice; W U is m^2 adds for a one-hot U,
        # the W multiply 2 m^2 d flops, the block-diagonal A 2 d sum(m_i^2).
        rec.count("w_bytes", 2 * 8 * m * m)
        rec.count("w_flops", m * m + 2 * m * m * d + 2 * d * sum(s * s for s in op.index.sizes))

    def on_psd(report, _args):
        rec.count("psd_repairs", len(report.flagged))

    def on_solve(result, _args):
        rec.count("iterations", result[1].iterations)
        last["assignment"] = None

    return [
        (cli, "main", "cli", None),
        (io, "load_problem", "io.load_problem", None),
        (io, "save_assignment", "io.save", None),
        (io, "save_trace", "io.save", None),
        (io, "save_report", "io.save", None),
        (cli, "build_similarity", "kernels.build_similarity", None),
        (cli, "build_adjacency", "kernels.build_adjacency", None),
        (cli, "assert_psd", "kernels.assert_psd", on_psd),
        (cli, "random_init", "baselines.init", None),
        (cli, "greedy_init", "baselines.init", None),
        (solver.WbarOperator, "from_kernels", "solver.operator_build", None),
        (cli, "hippi_solve", "solver.hippi_solve", on_solve),
        (solver.WbarOperator, "times_assignment", "solver.times_assignment", on_apply),
        (core.MultiAdjacency, "matmul", "core.adjacency_matmul", None),
        (solver, "project_to_universe", "assignment.project_to_universe", None),
        (assignment, "lap_exact", "assignment.lap_exact", None),
        (cli, "fscore", "metrics.fscore", None),
        (metrics, "expand", "core.expand", None),
    ]


def _same(a, b) -> bool:
    return a.shape == b.shape and bool((a == b).all())


@contextlib.contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block, then restore.

    A function the program no longer has is left out and named in
    ``rec.missing``; its span then reads 0 and its time counts as its caller's.
    """
    saved = []
    try:
        for owner, attr, name, after in _patch_points(rec):
            original = owner.__dict__.get(attr)
            if original is None:
                rec.missing.add(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                fn = original.__func__
                setattr(owner, attr, classmethod(rec.wrap(name, fn, after)))
            else:
                setattr(owner, attr, rec.wrap(name, original, after))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metric name -> unit, in report order.  Spans are named after the
# layer and function; ``_s`` is a span's whole time, ``.self_s`` its self time.
UNITS = {
    "io.load_problem_s": "s",
    "io.save_s": "s",
    "kernels.build_similarity_s": "s",
    "kernels.build_adjacency_s": "s",
    "kernels.assert_psd_s": "s",
    "kernels.psd_repairs": "count",
    "baselines.init_s": "s",
    "baselines.init.self_s": "s",
    "solver.operator_build_s": "s",
    "solver.hippi_solve_s": "s",
    "solver.hippi_solve.self_s": "s",
    "solver.times_assignment.self_s": "s",
    "solver.times_assignment.calls": "count",
    "solver.iterations": "count",
    "solver.iter_s": "s",
    "solver.useful_apply_ratio": "ratio",
    "solver.w_bytes_computed": "B",
    "solver.w_flops_computed": "flop",
    "core.adjacency_matmul_s": "s",
    "core.expand_s": "s",
    "assignment.project_to_universe.self_s": "s",
    "assignment.lap_exact_s": "s",
    "assignment.lap_exact.calls": "count",
    "metrics.fscore.self_s": "s",
    "cli.self_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}

# Self times of every recorded span; they add up to the root span, cli.main.
SELF_TIMES = (
    "io.load_problem_s",
    "io.save_s",
    "kernels.build_similarity_s",
    "kernels.build_adjacency_s",
    "kernels.assert_psd_s",
    "baselines.init.self_s",
    "solver.operator_build_s",
    "solver.hippi_solve.self_s",
    "solver.times_assignment.self_s",
    "core.adjacency_matmul_s",
    "core.expand_s",
    "assignment.project_to_universe.self_s",
    "assignment.lap_exact_s",
    "metrics.fscore.self_s",
    "cli.self_s",
)


def layer_metrics(rec: Recorder, solve_seconds: float) -> dict:
    """Per-layer numbers of one traced solve that took ``solve_seconds``."""
    totals, counters = rec.totals, rec.counters
    empty = SpanTotals()

    def whole(name):
        return totals.get(name, empty).seconds

    def own(name):
        return totals.get(name, empty).self_seconds

    def calls(name):
        return totals.get(name, empty).calls

    iterations = counters.get("iterations", 0)
    return {
        "io.load_problem_s": whole("io.load_problem"),
        "io.save_s": whole("io.save"),
        "kernels.build_similarity_s": whole("kernels.build_similarity"),
        "kernels.build_adjacency_s": whole("kernels.build_adjacency"),
        "kernels.assert_psd_s": whole("kernels.assert_psd"),
        "kernels.psd_repairs": counters.get("psd_repairs", 0),
        "baselines.init_s": whole("baselines.init"),
        "baselines.init.self_s": own("baselines.init"),
        "solver.operator_build_s": whole("solver.operator_build"),
        "solver.hippi_solve_s": whole("solver.hippi_solve"),
        "solver.hippi_solve.self_s": own("solver.hippi_solve"),
        "solver.times_assignment.self_s": own("solver.times_assignment"),
        "solver.times_assignment.calls": calls("solver.times_assignment"),
        "solver.iterations": iterations,
        "solver.iter_s": whole("solver.hippi_solve") / max(iterations, 1),
        "solver.useful_apply_ratio": counters.get("useful_applies", 0)
        / max(counters.get("applies", 0), 1),
        "solver.w_bytes_computed": counters.get("w_bytes", 0),
        "solver.w_flops_computed": counters.get("w_flops", 0),
        "core.adjacency_matmul_s": whole("core.adjacency_matmul"),
        "core.expand_s": whole("core.expand"),
        "assignment.project_to_universe.self_s": own("assignment.project_to_universe"),
        "assignment.lap_exact_s": whole("assignment.lap_exact"),
        "assignment.lap_exact.calls": calls("assignment.lap_exact"),
        "metrics.fscore.self_s": own("metrics.fscore"),
        "cli.self_s": own("cli"),
        "trace.solve_s": solve_seconds,
    }
