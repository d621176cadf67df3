"""Command-line surface: generate, solve, eval, bench, verify.

Every run is driven by one :class:`RunConfig`, assembled from an optional
JSON config file (sections "kernel", "solver", "generate", "run") whose
fields are overridden by the command-line flags of the same argparse
``dest``.  All randomness flows through the single seed (0 unless set),
and the data outputs (problem/assignment JSON, trace CSV) are
byte-identical across reruns of the same configuration; wall-clock numbers
appear only in report rows and logs.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, invalid
configuration, failed strict PSD check, inconsistent matchings under
``verify``, an array too large for memory), 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from hippi import io
from hippi.baselines import greedy_init, pairwise_lap_matchings, random_init, spectral_sync
from hippi.core import ProblemInstance, UniverseAssignment, as_integer, expand, integer_fields
from hippi.kernels import WEIGHT_MODES, KernelConfig, assert_psd, build_adjacency, build_similarity
from hippi.metrics import fscore, verify_cycle_consistency
from hippi.solver import (
    Iterate,
    SolverConfig,
    SolverTrace,
    WbarOperator,
    hippi_solve,
    objective,
    universe_size,
)
from hippi.synth import TRANSFORM_FAMILIES, GenConfig, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

METHODS = ("hippi", "spectral", "random", "greedy", "external-file")
INIT_METHODS = ("random", "greedy")


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one command needs, after merging config file and flags."""

    command: str
    problem: str | None = None
    assignment: str | None = None
    pairwise: str | None = None
    out: str = "."
    method: str = "hippi"
    init: str = "random"
    d: int | None = None
    seed: int = 0
    strict_psd: bool = False
    sizes: tuple[int, ...] = (500, 1000, 2000)
    points_per_object: int = 20
    bench_iters: int = 3
    kernel: KernelConfig = field(default_factory=KernelConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    generator: GenConfig | None = None

    def __post_init__(self):
        integer_fields(self, ("points_per_object", "bench_iters", "seed"), ("d",))
        sizes = tuple(as_integer(s, f"sizes[{i}]") for i, s in enumerate(self.sizes))
        object.__setattr__(self, "sizes", sizes)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.init not in INIT_METHODS:
            raise ValueError(f"init must be one of {INIT_METHODS}, got {self.init!r}")
        if self.bench_iters < 1:
            raise ValueError(f"bench_iters must be >= 1, got {self.bench_iters}")
        if not self.sizes or min(self.sizes) < 1:
            raise ValueError(
                f"sizes must be a non-empty list of positive integers, got {self.sizes}"
            )
        if self.points_per_object < 1:
            raise ValueError(f"points_per_object must be >= 1, got {self.points_per_object}")


def _config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return doc


def _section(cls, values: dict, args: argparse.Namespace, **fixed):
    """``cls`` from a config-file section and ``fixed``, each field overridden by its flag.

    A flag overrides the field named like its argparse ``dest``; a flag not
    given is ``None`` and overrides nothing.
    """
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    try:
        return cls(**{**values, **fixed, **{k: v for k, v in given.items() if v is not None}})
    except TypeError as exc:
        raise ValueError(f"bad {cls.__name__} settings: {exc}") from exc


def build_run_config(args: argparse.Namespace) -> RunConfig:
    doc = _config_file(getattr(args, "config", None))
    generator = None
    if args.command == "generate" or "generate" in doc:
        generator = _section(GenConfig, doc.get("generate", {}), args)
    return _section(
        RunConfig,
        doc.get("run", {}),
        args,
        kernel=_section(KernelConfig, doc.get("kernel", {}), args),
        solver=_section(SolverConfig, doc.get("solver", {}), args),
        generator=generator,
    )


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(cfg: RunConfig) -> int:
    p = generate(cfg.generator)
    out = _out_dir(cfg)
    io.save_problem(p, out / "problem.json")
    outliers = [int(np.sum(g < 0)) for g in p.ground_truth]
    print(
        f"generated k={p.k} m={p.m} d_true={cfg.generator.d_true} "
        f"sizes={list(p.sizes)} outliers={outliers}"
    )
    print(f"wrote {out / 'problem.json'}")
    return EXIT_OK


def _prepare_operator(cfg: RunConfig, p: ProblemInstance) -> WbarOperator:
    w = build_similarity(p, cfg.kernel)
    a = assert_psd(build_adjacency(p, cfg.kernel), strict=cfg.strict_psd).adjacency
    return WbarOperator(w, a)


def _saved_matching(cfg: RunConfig, index=None):
    """The one file ``--assignment`` or ``--pairwise`` names; with ``index``, the problem's."""
    if (cfg.assignment is None) == (cfg.pairwise is None):
        raise ValueError(f"{cfg.command} needs exactly one of --assignment and --pairwise")
    path = cfg.pairwise if cfg.assignment is None else cfg.assignment
    x = (io.load_pairwise if cfg.assignment is None else io.load_assignment)(path)
    if index is not None:
        io.check_sizes(path, x.index.sizes, index.sizes, "the problem has")
    return x


def _start_assignment(name: str, cfg: RunConfig, w, d: int):
    """The assignment ``name`` gives: hippi's start (``--init``) or a baseline (``--method``)."""
    if name == "random":
        return random_init(w.index, d, cfg.seed)
    if name == "greedy":
        return greedy_init(w, d)
    return spectral_sync(pairwise_lap_matchings(w), d)


def cmd_solve(cfg: RunConfig) -> int:
    p = io.load_problem(cfg.problem)
    external = None  # a saved assignment, so methods not implemented here can be compared
    if cfg.method == "external-file":
        external = _saved_matching(cfg, p.index)
        if not isinstance(external, UniverseAssignment):
            raise ValueError("method external-file reads --assignment, not a pairwise file")
    d = universe_size(p.index, cfg.d) if external is None else external.d
    op = _prepare_operator(cfg, p)
    started = time.perf_counter()
    if cfg.method == "hippi":
        u, trace = hippi_solve(op, _start_assignment(cfg.init, cfg, op.similarity, d), cfg.solver)
    else:
        u = _start_assignment(cfg.method, cfg, op.similarity, d) if external is None else external
        trace = SolverTrace(objectives=np.array([objective(op, u)]), converged=True)
    runtime = time.perf_counter() - started
    out = _out_dir(cfg)
    io.save_assignment(u, out / "assignment.json")
    io.save_trace(trace, out / "trace.csv")
    summary = (
        f"method={cfg.method} d={u.d} iterations={trace.iterations} "
        f"converged={trace.converged} objective={float(trace.objectives[-1])!r}"
    )
    if p.ground_truth is not None:
        report = fscore(u, p.ground_truth)
        io.save_report(
            report,
            out / "report.csv",
            method=cfg.method,
            index=p.index,
            d=u.d,
            iterations=trace.iterations,
            converged=trace.converged,
            runtime_seconds=runtime,
        )
        summary += f" fscore={report.fscore:.4f}"
    print(summary)
    print(f"wrote {out / 'assignment.json'} and {out / 'trace.csv'}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    p = io.load_problem(cfg.problem)
    if p.ground_truth is None:
        raise ValueError("problem file has no ground truth to evaluate against")
    predicted = _saved_matching(cfg, p.index)
    d = predicted.d if isinstance(predicted, UniverseAssignment) else 0  # none for pairwise
    started = time.perf_counter()
    report = fscore(predicted, p.ground_truth)
    runtime = time.perf_counter() - started
    out = _out_dir(cfg)
    io.save_report(
        report,
        out / "report.csv",
        method=cfg.method,
        index=p.index,
        d=d,
        iterations=0,
        converged=True,
        runtime_seconds=runtime,
    )
    print(
        f"precision={report.precision:.4f} recall={report.recall:.4f} "
        f"fscore={report.fscore:.4f} cycle_error={report.cycle_error:.4f}"
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    ms = _saved_matching(cfg)
    report = verify_cycle_consistency(expand(ms) if isinstance(ms, UniverseAssignment) else ms)
    print(
        f"identity={report.identity} symmetry={report.symmetry} "
        f"transitivity={report.transitivity} cycle_error={report.cycle_error!r}"
    )
    if report.ok:
        print("consistent")
        return EXIT_OK
    print("inconsistent")
    return EXIT_DATA


def bench_instance(m: int, points_per_object: int, seed) -> ProblemInstance:
    """A ladder rung: m/points objects of fixed size with mild jitter."""
    if m % points_per_object:
        raise ValueError(f"m={m} is not a multiple of {points_per_object}")
    cfg = GenConfig(
        k=m // points_per_object,
        d_true=points_per_object,
        visibility=1.0,
        coord_noise_sigma=0.01,
        feature_dim=8,
        feature_noise_sigma=0.1,
        transform_family="rigid",
        seed=seed,
    )
    return generate(cfg)


def bench_ladder(cfg: RunConfig) -> list[dict]:
    """Time the per-iteration cost over the size ladder, then a full solve per rung."""
    rows = []
    for idx, m in enumerate(cfg.sizes):
        p = bench_instance(m, cfg.points_per_object, cfg.seed + idx)
        d = universe_size(p.index, cfg.d)
        op = _prepare_operator(cfg, p)
        u0 = random_init(p.index, d, cfg.seed)
        it = Iterate(op, u0)
        it.objective  # warm-up
        tic = time.perf_counter()
        for _ in range(cfg.bench_iters):
            # A repeated iterate is applied too, so every step times the same work.
            it = it.successor()
            it.objective
        per_iter = (time.perf_counter() - tic) / cfg.bench_iters
        tic = time.perf_counter()
        _, trace = hippi_solve(op, u0, cfg.solver)
        rows.append({
            "m": m,
            "k": p.k,
            "d": d,
            "seconds_per_iteration": per_iter,
            "solve_seconds": time.perf_counter() - tic,
            "iterations": trace.iterations,
        })
    return rows


def fit_scaling_exponent(ms, seconds) -> float:
    """Least-squares slope of log t against log m."""
    slope, _ = np.polyfit(np.log(np.asarray(ms, float)), np.log(np.asarray(seconds)), 1)
    return float(slope)


def cmd_bench(cfg: RunConfig) -> int:
    rows = bench_ladder(cfg)
    out = _out_dir(cfg)
    columns = list(rows[0].keys())
    with open(out / "bench.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")
    for row in rows:
        print(" ".join(f"{key}={row[key]}" for key in columns))
    if len({r["m"] for r in rows}) >= 2:  # a slope needs two distinct sizes
        exponent = fit_scaling_exponent(
            [r["m"] for r in rows], [r["seconds_per_iteration"] for r in rows]
        )
        print(f"fitted exponent={exponent:.3f}")
    print(f"wrote {out / 'bench.csv'}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sizes_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hippi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory (default: .)")
        sp.add_argument("--seed", type=int)

    gen = sub.add_parser("generate", help="write a synthetic problem file")
    common(gen)
    gen.add_argument("--k", type=int)
    gen.add_argument("--d-true", dest="d_true", type=int)
    gen.add_argument("--visibility", type=float)
    gen.add_argument("--coord-noise", dest="coord_noise_sigma", type=float)
    gen.add_argument("--feature-noise", dest="feature_noise_sigma", type=float)
    gen.add_argument("--outlier-fraction", dest="outlier_fraction", type=float)
    gen.add_argument("--occlusion", dest="occlusion_rect", nargs=4, type=float,
                     metavar=("X", "Y", "W", "H"))
    gen.add_argument("--transform", dest="transform_family", choices=TRANSFORM_FAMILIES)
    gen.add_argument("--feature-dim", dest="feature_dim", type=int)
    gen.add_argument("--prototypes", dest="feature_prototypes", type=int)

    slv = sub.add_parser("solve", help="solve a problem file")
    common(slv)
    slv.add_argument("--problem", required=True)
    slv.add_argument("--method", choices=METHODS)
    slv.add_argument("--init", choices=INIT_METHODS)
    slv.add_argument("--d", type=int)
    slv.add_argument("--sigma", type=float)
    slv.add_argument("--mu", type=float)
    slv.add_argument("--weight-mode", dest="weight_mode", choices=WEIGHT_MODES)
    slv.add_argument("--max-iters", dest="max_iters", type=int)
    slv.add_argument("--strict-psd", dest="strict_psd", action="store_true", default=None)
    slv.add_argument("--assignment", help="assignment file for the external-file method")

    ev = sub.add_parser("eval", help="score an assignment against ground truth")
    common(ev)
    ev.add_argument("--problem", required=True)
    ev.add_argument("--assignment")
    ev.add_argument("--pairwise")
    ev.add_argument("--method", choices=METHODS, help="label for the report row")

    ben = sub.add_parser("bench", help="per-iteration scaling ladder")
    common(ben)
    ben.add_argument("--sizes", type=_sizes_list, help="comma list of m values")
    ben.add_argument("--d", type=int)
    ben.add_argument("--points-per-object", dest="points_per_object", type=int)
    ben.add_argument("--iters", dest="bench_iters", type=int)

    ver = sub.add_parser("verify", help="check cycle consistency of a matching")
    common(ver)
    ver.add_argument("--assignment")
    ver.add_argument("--pairwise")

    return parser


COMMANDS = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_run_config(args)
        return COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
