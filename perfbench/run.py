"""End-to-end benchmark of ``hippi solve``, with a traced mode for per-layer times.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload many-objects --seed 1 --seconds 15 --trace 0

One unit of work is one in-process ``hippi.cli.main(["solve", ...])`` call on
problem files generated from ``--seed``.  The process imports ``hippi.cli``
(timed), writes the problems, makes one untimed warm-up solve and then solves
the problems in passes until ``--seconds`` is used up.  Every solve is
checked; a call that fails any check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: ``solve_s``, ``fscore``,
``peak_rss_mb`` and ``setup_s``.  ``--trace 1`` alternates untraced and traced
solves and reports the per-layer metrics of :mod:`spans`.  A run prints an
environment record and a table first; its last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# Set before numpy loads.  Two threads, the reference machine's nproc, as a
# user of that machine gets by default; never more than this process may use.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io as textio
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 2
SOLVING_CHILDREN = 1
IMPORT_CHILDREN = 4
CHILD_TIMEOUT_S = 60
# The acceptance suite's rounding allowance for the monotone objective.
ASCENT_RTOL = 1e-9

END_TO_END_UNITS = {"solve_s": "s", "fscore": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def import_hippi() -> float:
    """Import ``hippi.cli`` from this checkout's ``src`` and return the seconds it took."""
    if not (SRC / "hippi" / "cli.py").is_file():
        raise SystemExit(f"no hippi sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    tic = time.perf_counter()
    import hippi.cli  # noqa: F401

    seconds = time.perf_counter() - tic
    if Path(hippi.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported hippi from {hippi.cli.__file__}, not from {SRC}")
    return seconds


class Problem:
    """One generated problem file, its output directory and its first output bytes."""

    def __init__(self, seed: int, instance, work: Path):
        from hippi import io

        self.seed = seed
        self.path = work / f"problem_{seed}.json"
        self.out = work / f"out_{seed}"
        self.out.mkdir()
        io.save_problem(instance, self.path)
        self.m = instance.m
        self.reference: bytes | None = None
        self.fscore: float | None = None
        self.times: list[float] = []


class Runner:
    """Calls ``hippi solve`` and checks every call's outputs."""

    def __init__(self, solve_args: tuple[str, ...], floor: float):
        self.solve_args = solve_args
        self.floor = floor
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def argv(self, problem: Problem, out: Path) -> list[str]:
        return [
            "solve", "--problem", str(problem.path), "--out", str(out),
            *self.solve_args, "--seed", str(problem.seed),
        ]

    def solve(self, problem: Problem) -> float:
        from hippi import cli

        _clear(problem.out)
        argv = self.argv(problem, problem.out)
        with contextlib.redirect_stdout(textio.StringIO()):
            tic = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed call; the run goes on
                self.errors.append(traceback.format_exc(limit=-3))
                code = -1
            seconds = time.perf_counter() - tic
        self.check(problem, problem.out, code)
        return seconds

    def check(self, problem: Problem, out: Path, code: int) -> None:
        """Exit code, valid assignment, repeatable bytes, monotone ascent, f-score floor."""
        self.attempted += 1
        error = _output_error(problem, out, code, self.floor)
        if error is not None:
            self.failed += 1
            self.errors.append(f"{problem.path.name}: {error}")


def _output_error(problem: Problem, out: Path, code: int, floor: float) -> str | None:
    from hippi import io

    if code != 0:
        return f"exit code {code}"
    try:
        data = (out / "assignment.json").read_bytes()
        io.load_assignment(out / "assignment.json")
        objectives = io.load_trace(out / "trace.csv")
        f = float(io.load_report(out / "report.csv")["fscore"])
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    if problem.reference is None:
        problem.reference = data
    elif data != problem.reference:
        return "assignment.json differs from the first solve of this problem"
    drops = objectives[1:] - objectives[:-1]
    if (drops < -ASCENT_RTOL * abs(objectives[:-1]).clip(min=1.0)).any():
        return "objective decreased"
    if f < floor:
        return f"fscore {f} below the floor {floor}"
    if problem.fscore is not None and f != problem.fscore:
        return f"fscore {f} differs from {problem.fscore} of an earlier solve"
    problem.fscore = f
    return None


def _clear(out: Path) -> None:
    for name in ("assignment.json", "trace.csv", "report.csv"):
        (out / name).unlink(missing_ok=True)


def per_problem_mean(samples: list[list[float]]) -> float:
    """Mean over problems of each problem's median; the median when there is one problem."""
    return statistics.fmean(statistics.median(s) for s in samples)


def batch_fscore(problems: list[Problem]) -> float:
    return statistics.fmean(p.fscore or 0.0 for p in problems)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(seconds: float, one_pass) -> int:
    """Call ``one_pass`` until the next pass would overrun ``seconds``; at least MIN_PASSES."""
    start = time.perf_counter()
    passes = 0
    while True:
        tic = time.perf_counter()
        one_pass()
        passes += 1
        pass_s = time.perf_counter() - tic
        if passes >= MIN_PASSES and time.perf_counter() - start + pass_s > seconds:
            return passes


def fresh_process(runner: Runner, problem: Problem | None, out: Path | None) -> dict | None:
    """Run cold.py: import hippi.cli and, given a problem, solve it cold and then warm."""
    argv = []
    if problem is not None:
        argv = [*runner.argv(problem, out / "cold"), "--", *runner.argv(problem, out / "warm")]
    cmd = [sys.executable, str(HERE / "cold.py"), str(SRC), *argv]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        error = None
        if done.returncode != 0 or not done.stdout.strip():
            error = f"exit {done.returncode}: {done.stderr[-300:]}"
    except subprocess.TimeoutExpired:
        error = f"no result within {CHILD_TIMEOUT_S} s"
    if error is not None:
        runner.attempted += 1
        runner.failed += 1
        runner.errors.append(f"set-up process: {error}")
        return None
    lines = done.stdout.strip().splitlines()
    sample = json.loads(lines[-1])
    if problem is not None:
        runner.check(problem, out / "cold", sample["exit_codes"][0])
        runner.check(problem, out / "warm", sample["exit_codes"][1])
    return sample


def setup_seconds(runner: Runner, problem: Problem, work: Path, first: dict) -> tuple[float, dict]:
    """Set-up a fresh `hippi solve` process pays on top of a warm solve.

    It is the median import time plus the median of how much longer a
    process's first solve of ``problem`` takes than its next one.  Both solves
    of a pair run back to back in one process, so slow drifts of the machine
    cancel; a negative extra is noise and counts as zero.  ``first`` is this
    process's own pair.  The import is cheap and varies most, so more fresh
    processes only import.
    """
    imports, extras = [first["import_s"]], [first["cold_extra_s"]]
    for n in range(SOLVING_CHILDREN + IMPORT_CHILDREN):
        solving = n < SOLVING_CHILDREN
        out = work / f"fresh_{n}"
        if solving:
            (out / "cold").mkdir(parents=True)
            (out / "warm").mkdir()
        sample = fresh_process(runner, problem if solving else None, out)
        if sample is None:
            continue
        imports.append(sample["import_s"])
        if solving:
            cold, warm = sample["solve_s"]
            extras.append(cold - warm)
    seconds = statistics.median(imports) + statistics.median(max(e, 0.0) for e in extras)
    return seconds, {"import_s": imports, "cold_extra_s": extras}


def end_to_end(runner: Runner, problems: list[Problem], seconds: float, import_s: float, work: Path):
    first = problems[0]
    cold_s = runner.solve(first)

    def one_pass():
        for p in problems:
            p.times.append(runner.solve(p))

    passes = run_passes(seconds, one_pass)
    peak_mb = peak_rss_mb()
    own = {"import_s": import_s, "cold_extra_s": cold_s - first.times[0]}
    setup_s, samples = setup_seconds(runner, first, work, own)
    metrics = {
        "solve_s": per_problem_mean([p.times for p in problems]),
        "fscore": batch_fscore(problems),
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
    }
    detail = {
        "passes": passes,
        "solve_samples": sum(len(p.times) for p in problems),
        "setup_samples": samples,
    }
    return metrics, detail


def traced(runner: Runner, problems: list[Problem], seconds: float):
    import spans

    rec = spans.Recorder()
    plain = [[] for _ in problems]
    layers = [[] for _ in problems]
    runner.solve(problems[0])  # warm-up

    def one_pass():
        for i, p in enumerate(problems):
            plain[i].append(runner.solve(p))
            rec.reset()
            with spans.traced(rec):
                seconds_traced = runner.solve(p)
            layers[i].append(spans.layer_metrics(rec, seconds_traced))

    passes = run_passes(seconds, one_pass)
    metrics = {
        name: per_problem_mean([[s[name] for s in per] for per in layers])
        for name in layers[0][0]
    }
    untraced = {
        "solve_s": per_problem_mean(plain),
        "fscore": batch_fscore(problems),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics["trace.overhead_s"] = metrics["trace.solve_s"] - untraced["solve_s"]
    detail = {
        "passes": passes,
        "traced_samples": sum(len(x) for x in layers),
        "untraced_functions": sorted(rec.missing),
    }
    return metrics, untraced, detail


def environment(seed: int, workload: str, problems: list[Problem]) -> dict:
    import numpy
    import scipy

    m = max(p.m for p in problems)
    llc = _llc_bytes()
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(ROOT),
        "problems": len(problems),
        "m": m,
        "w_bytes_computed": 8 * m * m,
        "llc_bytes_reported": llc,
        "w_fits_llc": None if llc is None else 8 * m * m <= llc,
        "bytes_note": "computed from array sizes, not measured; no bandwidth claim",
    }


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown: not a git checkout"


def _llc_bytes() -> int | None:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for entry in sorted(caches.glob("index*")):
        try:
            level = int((entry / "level").read_text())
            size = (entry / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes, no f-score floor")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_hippi()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems = [Problem(s, inst, work) for s, inst in workload.problems(args.seed, args.tiny)]
        runner = Runner(workload.solve_args, 0.0 if args.tiny else workload.fscore_floor)
        env = environment(args.seed, args.workload, problems)
        if args.trace:
            metrics, untraced, detail = traced(runner, problems, args.seconds)
            units = spans.UNITS
            for name, value in metrics.items():
                print(f"layer {name} = {value!r} {units[name]}")
            for name, value in untraced.items():
                print(f"untraced {name} = {value!r} {END_TO_END_UNITS[name]}")
        else:
            metrics, detail = end_to_end(runner, problems, args.seconds, import_s, work)
            units = END_TO_END_UNITS
            for name, value in metrics.items():
                print(f"end-to-end {name} = {value!r} {units[name]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in runner.errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": env, "run": detail}, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
