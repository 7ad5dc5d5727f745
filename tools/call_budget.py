#!/usr/bin/env python3
"""Wall time per stage of one in-process biaxbell call.

    python3 tools/call_budget.py [REPEATS]        (REPEATS defaults to 1500)

Times cli.main on each of the three benchmark argv shapes (perfbench's
workloads, the bench_* cases of tests/test_golden.py) and splits each call
into stages by wrapping the names main, cmd_sweep and cmd_crosscheck look up:

- parse: cli.parse_args, the subcommand's parser or the whole one;
- grid: _betas, axis_grid and default_grid;
- oracle: oracle_arrays, less the frameless route and the certificate it
  calls;
- frameless route: _all_directions, lam = (1 - C)/2 of the rows without a
  frame from the concurrences the oracle row computes, less its certificate;
- certificate: _certify, as the oracle looks it up: the gate on both
  minimizations;
- closed forms: mean_spin_columns (sweep) or closed_arrays (crosscheck);
- selection: sweep_columns, or adjudication: run_crosscheck, less the two
  routes they call;
- open: _open_out;
- writer: write_rows_csv, write_rows_json and json.dumps;
- rest: cli.main's wall time less every stage above: dispatch, the checks
  between the stages, the one write of a JSON document and closing the
  output.

A stage holds the self time of every call made to it: a wrapped call entered
inside another counts for its own stage alone, so the blocks cmd_sweep
evaluates while its writer iterates them count as selection.  In each repeat
the stages add up to that call's wall time.  Each call is repeated REPEATS
times after a warm-up, and the 10th percentile of each row is printed in
microseconds, each row's on its own.  The calls run in a temporary directory,
where their --out files go.  Each repeat deletes its call's --out file before
it is timed, as perfbench does, so open never truncates the last repeat's
output.  The package is imported from the src/ next to this script, so a
checkout of any revision measures its own code.
"""
import contextlib
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from biaxbell import cli, crosscheck, oracle  # noqa: E402
from test_golden import CASES  # noqa: E402

SHAPES = {name.removeprefix("bench_"): argv.split()
          for name, argv in CASES.items() if name.startswith("bench_")}
# each stage and the (owner, name) lookups whose calls it holds
WRAPPED = {
    "parse": [(cli, "parse_args")],
    "grid": [(cli, "_betas"), (cli, "axis_grid"), (cli, "default_grid")],
    "oracle": [(cli, "oracle_arrays"), (crosscheck, "oracle_arrays")],
    "frameless route": [(oracle, "_all_directions")],
    "certificate": [(oracle, "_certify")],
    "closed forms": [(cli, "mean_spin_columns"), (crosscheck, "closed_arrays")],
    "selection": [(cli, "sweep_columns")],
    "adjudication": [(cli, "run_crosscheck")],
    "open": [(cli, "_open_out")],
    "writer": [(cli, "write_rows_csv"), (cli, "write_rows_json"), (json, "dumps")],
}
ROWS = (*WRAPPED, "rest", "cli.main")
WARMUP = 20


class Budget:
    """Self time per stage of one call: a stage's wall time less the time of
    the stages entered inside it."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spent = dict.fromkeys(WRAPPED, 0.0)
        self._inner = []

    @contextmanager
    def stage(self, name):
        self._inner.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.spent[name] += elapsed - self._inner.pop()
            if self._inner:
                self._inner[-1] += elapsed

    def wrap(self, owner, name, stage):
        inner = getattr(owner, name)

        def timed(*args, **kwargs):
            with self.stage(stage):
                return inner(*args, **kwargs)

        setattr(owner, name, timed)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 or argv and not argv[0].isdecimal():
        print("usage: call_budget.py [REPEATS]", file=sys.stderr)
        return 2
    repeats = int(argv[0]) if argv else 1500
    if repeats < 10:
        print("call_budget: REPEATS must be at least 10", file=sys.stderr)
        return 2
    budget = Budget()
    for stage, lookups in WRAPPED.items():
        for owner, name in lookups:
            budget.wrap(owner, name, stage)

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for shape, shape_argv in SHAPES.items():
            calls, out = [], shape_argv[shape_argv.index("--out") + 1]
            for _ in range(WARMUP + repeats):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(out)
                budget.reset()
                start = time.perf_counter()
                code = cli.main(shape_argv)
                whole = time.perf_counter() - start
                if code:
                    print(f"call_budget: {shape} exited {code}", file=sys.stderr)
                    return 1
                calls.append({**budget.spent, "rest": whole - sum(budget.spent.values()),
                              "cli.main": whole})
            table[shape] = {row: np.percentile([c[row] for c in calls[WARMUP:]], 10)
                            for row in ROWS}

    print(f"call_budget: p10 wall time per stage of one call, us, {repeats} repeats")
    print(f"{'stage':16s}" + "".join(f"{shape:>17s}" for shape in SHAPES))
    for row in ROWS:
        print(f"{row:16s}" + "".join(f"{table[shape][row] * 1e6:17.1f}" for shape in SHAPES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
