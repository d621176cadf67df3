"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0,1] [--out f.json]

Each run is a fresh ``run.py`` process with BENCHMARK.json's ``run_seconds``.
``--trace 0,1`` makes both kinds of run, so one command prints every
end-to-end and per-layer metric of every workload.
For every workload, mode and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, which is the spread the benchmark's bounds are checked against.
With ``--out`` it also writes the summary and every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def mode_list(text: str) -> list[int]:
    modes = [int(part) for part in text.split(",")]
    if not modes or any(m not in (0, 1) for m in modes):
        raise argparse.ArgumentTypeError(f"--trace takes 0, 1 or 0,1, got {text!r}")
    return modes


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        *bench["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-1000:]}")
    lines = done.stdout.strip().splitlines()
    return {"seed": seed, "context": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=mode_list, default=[0], help="0, 1 or 0,1")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for trace in args.trace:
        for workload in names:
            runs = []
            for seed in args.seeds:
                runs.append(run_once(bench, workload, seed, trace))
                result = runs[-1]["result"]
                print(f"{workload} --trace {trace} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            summary = summarise(runs)
            for name, s in summary.items():
                bound = bounds.get(name)
                limit = f" bound {bound}" if bound is not None else ""
                print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['iqr_share']:.3f}{limit}",
                      flush=True)
            report.setdefault(f"trace{trace}", {})[workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
