"""Fast self-test of the benchmark at tiny sizes; exits 0 when every check passes.

    python3 perfbench/selftest.py

For every workload, in both modes, it runs ``run.py --tiny`` and checks that
the result line names exactly the metrics of BENCHMARK.json with their units,
that no output check failed, and that in the traced mode the per-layer self
times add up to the traced solve time within 10%.  Last, it checks that the
benchmark fails without a result where only BENCHMARK.json and the benchmark's
own files exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ADDITIVITY_TOLERANCE = 0.10


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "0.5", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: outputs failed their checks: {done.stderr[-500:]}")
    declared = bench["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: printed {printed}, BENCHMARK.json declares {expected}")
    for name in expected:
        if name not in done.stdout.rsplit("\n", 2)[0]:
            problems.append(f"{where}: {name} missing from the printed table")
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        total = sum(values[name] for name in spans.SELF_TIMES)
        solve = values["trace.solve_s"]
        if abs(total - solve) > ADDITIVITY_TOLERANCE * solve:
            problems.append(f"{where}: self times add up to {total}, traced solve took {solve}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(bare, "many-objects", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit code {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_result(bench, workload, trace)
    problems += check_bare_directory()
    for line in problems:
        print(f"FAIL {line}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
