"""Benchmark of the biaxbell CLI, driven in-process through ``biaxbell.cli.main``.

    python3 perfbench/run.py --workload sweep_fig1 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A workload is a list of CLI calls; passes over the list are
repeated for ``--seconds`` seconds and every output is checked.  ``--trace 0``
reports the end-to-end metrics, timed with no tracing.  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from the
traced ones.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the run
context.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
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
from pathlib import Path

import workloads
from tracer import LayerStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15              # fresh interpreters per run; their median is setup_s
SETUP_POINT = ["point", "--beta", "0.6", "--mu", "pi/3", "--nu", "pi/4"]

TRACED = [
    "spincore.build_superposition_state",
    "frame.mean_spin_closed_form",
    "frame.compute_frame",
    "frame.project_transverse_operators",
    "closedform.second_moments_closed_form",
    "closedform.frame_moments_closed_form",
    "oracle.moments_oracle",
    "oracle.min_transverse_variance",
    "oracle.min_transverse_variance_scan",
    "oracle.min_variance_all_directions",
    "oracle.concurrence",
    "oracle.evaluate_oracle",
    "crosscheck.run_crosscheck",
    "cli.evaluate_row",
    "cli.write_rows_csv",
    "cli.write_rows_json",
]
PER_POINT = ("frame.project_transverse_operators", "closedform.second_moments_closed_form")
WRITERS = ("cli.write_rows_csv", "cli.write_rows_json")

NOT_WORKLOADS = {
    "figure fig2": "exits 2 by design: its mu=pi shape clause contradicts a rotation "
                   "symmetry (acceptance criterion 06)",
    "figure fig1": "one full run takes about 39 s, too long to repeat for every check; "
                   "sweep_fig1 covers its three mu slices",
}


def end_to_end(points: int, walls: list[float], cpus: list[float], setups: list[float]) -> dict:
    """``walls`` and ``cpus`` hold, per call of the workload, its fastest run.

    Other tenants of a shared host slow stretches of calls, by up to 2x for
    seconds at a time, and never speed one up.  A short call often runs
    whole in a quiet moment, so the sum of the fastest run of every call is
    a steadier estimate of the program's own cost than any one pass.
    """
    return {
        "points_per_s": (points / sum(walls), "points/s"),
        "cpu_s": (sum(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(tracer_runs: list[dict], points: int, out_bytes: dict[str, int],
              degenerate_share: float, overhead: float, absent: int) -> dict:
    metrics = {}
    for target in TRACED:
        runs = [run[target] for run in tracer_runs]
        metrics[f"{target}.calls"] = (runs[0].calls, "count")
        metrics[f"{target}.self_s"] = (statistics.median(r.self_s for r in runs), "s")
        metrics[f"{target}.errors"] = (max(r.errors for r in runs), "count")
    for target in PER_POINT:
        metrics[f"{target}.calls_per_point"] = (
            tracer_runs[0][target].calls / points, "calls/point"
        )
    for writer in WRITERS:
        metrics[f"{writer}.bytes"] = (out_bytes.get(writer, 0), "bytes")
    metrics["rows.fully_degenerate_share"] = (degenerate_share, "fraction")
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    metrics["trace.absent_functions"] = (absent, "count")
    return metrics


def set_up(workdir: str) -> float:
    """Wall time of a fresh interpreter that imports the CLI and finishes one point."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from biaxbell.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    argv = [sys.executable, "-c", code, str(SRC), *SETUP_POINT]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=workdir, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, check=False, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up run failed: {done.stderr.decode(errors='replace')}")
    return elapsed


def blas_context() -> dict:
    import numpy as np

    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                info["threads"] = func()
                return info
    return info


def run_context(workload: workloads.Workload, seed: int) -> dict:
    import numpy as np

    return {
        "workload": workload.name,
        "seed": seed,
        "points": workload.points,
        "calls": [
            ["OUT" if a == call.out_path else a for a in call.argv] for call in workload.calls
        ],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_context(),
        "not_workloads": NOT_WORKLOADS,
    }


class Runner:
    """Calls the CLI with one workload's calls and checks each output."""

    def __init__(self, workload: workloads.Workload, cli_main):
        self.workload = workload
        self.cli_main = cli_main
        self.attempted = 0
        self.failures: list[str] = []
        self.degenerate: dict[int, int] = {}     # call index -> fully-degenerate rows

    def once(self, index: int) -> tuple[float, float]:
        """One call; returns its wall and CPU seconds."""
        call = self.workload.calls[index]
        self.attempted += 1
        with contextlib.suppress(FileNotFoundError):
            os.remove(call.out_path)    # a call that writes nothing must fail
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli_main(list(call.argv))
        except Exception as exc:        # a crash is one failed call, not the end of the run
            code = f"uncaught {type(exc).__name__}: {exc}"
        cpu1, wall1 = time.process_time(), time.perf_counter()
        try:
            if code != 0:
                raise workloads.OutputCheckError(f"exit code {code}")
            self.degenerate[index] = workloads.check_output(call)
        except Exception as exc:        # any defect in the output is one failed call
            self.failures.append(f"{type(exc).__name__}: {exc}")
        return wall1 - wall0, cpu1 - cpu0

    def degenerate_share(self) -> float:
        return sum(self.degenerate.values()) / self.workload.points


def traced_pass(runner: Runner) -> tuple[list[float], dict, dict[str, int], int]:
    """One traced pass over the workload's calls: per-call walls, per-target
    totals, bytes written per writer and the number of absent targets."""
    walls, totals, out_bytes, absent = [], {t: LayerStats() for t in TRACED}, {}, 0
    for index, call in enumerate(runner.workload.calls):
        with Tracer("biaxbell", TRACED) as tracer:
            wall, _ = runner.once(index)
        walls.append(wall)
        absent = len(tracer.absent)
        summary = tracer.summary()
        for target, stat in summary.items():
            totals[target].calls += stat.calls
            totals[target].self_s += stat.self_s
            totals[target].errors += stat.errors
        for writer in WRITERS:
            if summary[writer].calls and os.path.exists(call.out_path):
                out_bytes[writer] = out_bytes.get(writer, 0) + os.path.getsize(call.out_path)
    return walls, totals, out_bytes, absent


def measure(runner: Runner, seconds: float, trace: bool, workdir: str) -> dict:
    calls = len(runner.workload.calls)
    setups = []
    if not trace:
        set_up(workdir)                 # the first one writes the bytecode cache
    start = time.perf_counter()
    deadline = start + seconds
    # set-up samples are spread over the run, so that they meet the same
    # host as the calls rather than one moment of it
    setup_due = [] if trace else [
        start + seconds * (k + 0.5) / SETUP_SAMPLES for k in range(SETUP_SAMPLES)
    ]
    best_wall, best_cpu = [math.inf] * calls, [math.inf] * calls
    tracer_runs, out_bytes, absent = [], {}, 0
    # traced pass / the untraced pass just before it: adjacent passes meet
    # the same host, and their median ratio ignores bursts
    overheads, untraced_time = [], None
    whole = 2 if trace else 1           # passes that run whole, whatever the clock says
    passes, previous, traced_time = 0, 0.0, 0.0
    # Passes alternate untraced and traced when tracing.  After the whole
    # ones, no call (and no traced pass) starts that the previous one says
    # would end past the deadline.
    while passes < whole or time.perf_counter() + previous < deadline:
        if trace and passes % 2:
            if passes >= whole and time.perf_counter() + traced_time >= deadline:
                break
            walls, totals, out_bytes, absent = traced_pass(runner)
            tracer_runs.append(totals)
            traced_time = sum(walls)
            if untraced_time:
                overheads.append(traced_time / untraced_time - 1.0)
        else:
            untraced_time = 0.0
            for index in range(calls):
                if passes >= whole and time.perf_counter() + previous >= deadline:
                    untraced_time = None        # a cut pass has no whole time
                    break
                if setup_due and time.perf_counter() >= setup_due[0]:
                    setups.append(set_up(workdir))
                    setup_due.pop(0)
                began = time.perf_counter()
                wall, cpu = runner.once(index)
                best_wall[index] = min(best_wall[index], wall)
                best_cpu[index] = min(best_cpu[index], cpu)
                previous = time.perf_counter() - began
                untraced_time += wall
        passes += 1
    if trace:
        return per_layer(tracer_runs, runner.workload.points, out_bytes,
                         runner.degenerate_share(), statistics.median(overheads), absent)
    setups += [set_up(workdir) for _ in setup_due]     # those the run ended before
    return end_to_end(runner.workload.points, best_wall, best_cpu, setups)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biaxbell" / "cli.py").is_file():
        print(f"perfbench: no biaxbell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import biaxbell.cli

    if Path(biaxbell.cli.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: biaxbell imported from {biaxbell.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        runner = Runner(workload, biaxbell.cli.main)
        metrics = measure(runner, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in runner.failures[:5]:
        print(f"perfbench: failed run: {failure}", file=sys.stderr)
    context = run_context(workload, args.seed)
    context["fail_rate"] = len(runner.failures) / runner.attempted
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
