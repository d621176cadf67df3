"""A fresh process for the benchmark's set-up time.

    python3 perfbench/cold.py <src dir> [solve ... -- solve ...]

Imports ``hippi.cli`` from ``<src dir>`` and runs each ``--``-separated
``hippi solve`` command line that follows, one after the other.  Prints one
JSON line with the seconds the import took and the seconds and exit code of
each solve.  The BLAS thread count is inherited from the calling benchmark.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, rest = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    tic = time.perf_counter()
    from hippi import cli

    sample = {"import_s": time.perf_counter() - tic, "solve_s": [], "exit_codes": []}
    commands = [[]]
    for arg in rest:
        if arg == "--":
            commands.append([])
        else:
            commands[-1].append(arg)
    for command in filter(None, commands):
        with contextlib.redirect_stdout(io.StringIO()):
            tic = time.perf_counter()
            code = cli.main(command)
            sample["solve_s"].append(time.perf_counter() - tic)
        sample["exit_codes"].append(code)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
