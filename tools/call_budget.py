#!/usr/bin/env python3
"""Wall time per stage of one in-process biaxbell call.

    python3 tools/call_budget.py [REPEATS]        (REPEATS defaults to 1500)

Takes one call of each of the three benchmark argv shapes (perfbench's
workloads, the bench_* cases of tools/cli_diff.sh) apart into the stages
cmd_sweep and cmd_crosscheck run, in their order:

- parse: the argument parser;
- grid: the beta axis and the (4, n) parameter columns;
- oracle: oracle_arrays;
- closed forms: mean_spin_columns (sweep) or closed_arrays (crosscheck);
- selection (sweep_columns, once per 240-row block as cmd_sweep calls it)
  or adjudication (run_crosscheck): the rest of the function that calls the
  two routes;
- open, writer and close: the output file.

oracle and closed forms are timed by wrapping the names sweep_columns and
run_crosscheck look up, so a stage holds every call made to it.  Each call
is repeated REPEATS times after a warm-up, and the 10th percentile of each
stage's wall time is printed in microseconds, with the 10th percentile of
the stage sum and of the whole cli.main call.  Output files go to a
temporary directory.  The package is imported from the src/ next to this
script, so a checkout of any revision measures its own code.
"""
import itertools
import json
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from biaxbell import cli, crosscheck  # noqa: E402

# the argv of the bench_* cases of tools/cli_diff.sh, output path last
SHAPES = {
    "sweep_fig1": "sweep --mu-list pi/3 --nu-list=2.0943951023931953 --beta-steps 41 "
                  "--format csv --out",
    "crosscheck": "crosscheck --format json --beta-min=0.35 --beta-max=0.65 --beta-steps 7 "
                  "--nu-list=-1.0471975511965976 --out",
    "sweep_zero_mean": "sweep --mu-list pi/2 --nu-list pi --beta-min=0.0625 --beta-max=0.3 "
                       "--beta-steps 26 --format json --out",
}
STAGES = ("parse", "grid", "oracle", "closed forms", "selection", "adjudication",
          "open", "writer", "close")
WARMUP = 20


class Budget:
    """Self time per stage of one call: a stage's wall time less the time of
    the stages entered inside it."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spent = dict.fromkeys(STAGES, 0.0)
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

    def wrap(self, module, name, stage):
        inner = getattr(module, name)

        def timed(*args, **kwargs):
            with self.stage(stage):
                return inner(*args, **kwargs)

        setattr(module, name, timed)


def sweep_call(argv, budget):
    """cmd_sweep's steps."""
    with budget.stage("parse"):
        args = cli.build_parser().parse_args(argv)
    with budget.stage("grid"):
        grid = cli.axis_grid(("mu", "nu", "beta"), mu=args.mu_list, nu=args.nu_list,
                             beta=cli._betas(args))

    def evaluated(start):
        # a block evaluated inside the writer stage counts as selection, not writer
        with budget.stage("selection"):
            return cli.sweep_columns(grid[:, start:start + cli._BLOCK])

    blocks = itertools.chain([evaluated(0)],
                             map(evaluated, range(cli._BLOCK, grid.shape[1], cli._BLOCK)))
    with budget.stage("open"):
        handle = cli._open_out(args.out)
    with budget.stage("writer"):
        (cli.write_rows_csv if args.format == "csv" else cli.write_rows_json)(blocks, handle)
    with budget.stage("close"):
        handle.close()


def crosscheck_call(argv, budget):
    """cmd_crosscheck's steps."""
    with budget.stage("parse"):
        args = cli.build_parser().parse_args(argv)
    with budget.stage("grid"):
        grid = cli.default_grid(cli._betas(args), args.mu_list, args.nu_list)
    with budget.stage("adjudication"):
        report = cli.run_crosscheck(grid, args.tol)
    with budget.stage("open"):
        handle = cli._open_out(args.out)
    with budget.stage("writer"):
        json.dump(report.as_dict(), handle, indent=2)
        handle.write("\n")
    with budget.stage("close"):
        handle.close()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repeats = int(argv[0]) if argv else 1500
    if repeats < 10:
        print("call_budget: REPEATS must be at least 10", file=sys.stderr)
        return 2
    budget = Budget()
    budget.wrap(cli, "oracle_arrays", "oracle")
    budget.wrap(cli, "mean_spin_columns", "closed forms")
    budget.wrap(crosscheck, "oracle_arrays", "oracle")
    budget.wrap(crosscheck, "closed_arrays", "closed forms")

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for shape, text in SHAPES.items():
            argv = [*text.split(), str(Path(tmp) / "out")]
            call = crosscheck_call if argv[0] == "crosscheck" else sweep_call
            stages, whole = [], []
            for _ in range(WARMUP + repeats):
                budget.reset()
                call(argv, budget)
                stages.append(budget.spent)
            for _ in range(WARMUP + repeats):
                start = time.perf_counter()
                cli.main(argv)
                whole.append(time.perf_counter() - start)
            stages, whole = stages[WARMUP:], whole[WARMUP:]
            table[shape] = {name: np.percentile([s[name] for s in stages], 10) for name in STAGES}
            table[shape]["stage sum"] = np.percentile([sum(s.values()) for s in stages], 10)
            table[shape]["cli.main"] = np.percentile(whole, 10)

    print(f"call_budget: p10 wall time per stage of one call, us, {repeats} repeats")
    print(f"{'stage':14s}" + "".join(f"{shape:>17s}" for shape in SHAPES))
    for name in (*STAGES, "stage sum", "cli.main"):
        print(f"{name:14s}" + "".join(f"{table[shape][name] * 1e6:17.1f}" for shape in SHAPES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
