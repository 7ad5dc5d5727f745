"""Seeded workloads for the biaxbell benchmark and the checks on their output.

Each workload turns a seed into a list of public CLI calls and into the grid
each call must report.  A workload is cut into calls of 25 to 49 points so
that its timing can take the fastest run of every call (see ``run.py``).
The point count of every workload is fixed, so two commits do identical work;
the seed only moves the free inputs (nu lines, beta range).  The checks use
nothing but values computed here, never the package's own helpers, so a
defect in the package cannot hide itself.
"""
from __future__ import annotations

import cmath
import csv
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

# one tolerance for every identity; each holds at the seed to <= 1.1e-15
TOL = 1e-12

FIG1_MUS = (("0", 0.0), ("pi/3", math.pi / 3), ("pi/2", math.pi / 2))  # fig1's mu slices
FIG1_NU_LINES = 5                               # one call per mu slice and nu line
FIG1_BETA_STEPS = 41
CROSSCHECK_MUS = 7                              # length of the default mu list
CROSSCHECK_NU_VALUES = 2
CROSSCHECK_BETA_CHUNKS = (7, 7, 7)              # 21 beta steps; one call per chunk and nu
ZERO_MEAN_NUS = (("0", 0.0), ("pi", math.pi))
ZERO_MEAN_BETA_CHUNKS = (26, 25, 25, 25)        # 101 beta steps; one call per chunk and nu

METHOD_FOR_STATUS = {
    "regular": "transverse-eigen",
    "polar-degenerate": "transverse-eigen",
    "fully-degenerate": "all-directions",
}
EXPECTED_VERDICTS = {
    "nu_sign_hypothesis": "nu-negated",
    "factor_hypothesis": "half-corrected",
}
TEXT_COLUMNS = ("frame_status", "method")


class OutputCheckError(AssertionError):
    """The program's output disagrees with what the benchmark expects."""


@dataclass(frozen=True)
class Call:
    argv: list[str]                 # one CLI call, output path included
    points: int
    out_path: str
    out_format: str                 # "csv" or "json"
    grid: list[tuple[float, float, float]] | None   # (beta, mu, nu) per row; None for crosscheck


@dataclass(frozen=True)
class Workload:
    name: str
    calls: list[Call]

    @property
    def points(self) -> int:
        return sum(call.points for call in self.calls)


def _sweep_grid(betas, mus, nus) -> list[tuple[float, float, float]]:
    # sweep rows are ordered mu, then nu, then beta
    return [(float(b), float(m), float(v)) for m in mus for v in nus for b in betas]


def _out(out_dir: str, index: int, out_format: str) -> str:
    return os.path.join(out_dir, f"out{index}.{out_format}")


def _beta_chunks(beta_min: float, beta_max: float, sizes) -> list[tuple[float, float, int]]:
    """Consecutive pieces (first, last, steps) of linspace(beta_min, beta_max, sum(sizes))."""
    full = np.linspace(beta_min, beta_max, sum(sizes))
    chunks, first = [], 0
    for steps in sizes:
        chunks.append((float(full[first]), float(full[first + steps - 1]), steps))
        first += steps
    return chunks


def _beta_flags(lo: float, hi: float, steps: int) -> list[str]:
    return [f"--beta-min={lo!r}", f"--beta-max={hi!r}", "--beta-steps", str(steps)]


def sweep_fig1(seed: int, out_dir: str) -> Workload:
    rng = random.Random(seed)
    nus = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(FIG1_NU_LINES))
    betas = np.linspace(0.0, 1.0, FIG1_BETA_STEPS)
    calls = []
    for mu_text, mu in FIG1_MUS:
        for nu in nus:
            out = _out(out_dir, len(calls), "csv")
            argv = [
                "sweep", "--mu-list", mu_text, f"--nu-list={nu!r}",
                "--beta-steps", str(FIG1_BETA_STEPS), "--format", "csv", "--out", out,
            ]
            grid = _sweep_grid(betas, (mu,), (nu,))
            calls.append(Call(argv, len(grid), out, "csv", grid))
    return Workload("sweep_fig1", calls)


def crosscheck(seed: int, out_dir: str) -> Workload:
    rng = random.Random(seed)
    nus = sorted(rng.uniform(-math.pi, math.pi) for _ in range(CROSSCHECK_NU_VALUES))
    calls = []
    for nu in nus:
        for lo, hi, steps in _beta_chunks(0.0, 1.0, CROSSCHECK_BETA_CHUNKS):
            out = _out(out_dir, len(calls), "json")
            argv = [
                "crosscheck", "--format", "json", *_beta_flags(lo, hi, steps),
                f"--nu-list={nu!r}", "--out", out,
            ]
            calls.append(Call(argv, steps * CROSSCHECK_MUS, out, "json", None))
    return Workload("crosscheck", calls)


def sweep_zero_mean(seed: int, out_dir: str) -> Workload:
    # mu = pi/2 with nu in {0, pi} is a real superposition whose mean spin
    # vanishes for every beta, so each row takes the all-directions fallback
    rng = random.Random(seed)
    beta_min, beta_max = rng.uniform(0.0, 0.1), rng.uniform(0.9, 1.0)
    calls = []
    for nu_text, nu in ZERO_MEAN_NUS:
        for lo, hi, steps in _beta_chunks(beta_min, beta_max, ZERO_MEAN_BETA_CHUNKS):
            out = _out(out_dir, len(calls), "json")
            argv = [
                "sweep", "--mu-list", "pi/2", "--nu-list", nu_text, *_beta_flags(lo, hi, steps),
                "--format", "json", "--out", out,
            ]
            grid = _sweep_grid(np.linspace(lo, hi, steps), (math.pi / 2,), (nu,))
            calls.append(Call(argv, len(grid), out, "json", grid))
    return Workload("sweep_zero_mean", calls)


WORKLOADS = {w.__name__: w for w in (sweep_fig1, crosscheck, sweep_zero_mean)}


def make(name: str, seed: int, out_dir: str) -> Workload:
    return WORKLOADS[name](seed, out_dir)


# ---------------------------------------------------------------------------
# reading and checking output


def read_sweep_rows(path: str, out_format: str) -> list[dict]:
    """Sweep output as a list of column -> value dicts, floats parsed."""
    with open(path, encoding="utf-8", newline="") as handle:
        if out_format == "csv":
            reader = csv.reader(handle)
            columns = next(reader)
            raw_rows = list(reader)
        else:
            payload = json.load(handle)
            columns, raw_rows = payload["columns"], payload["rows"]
    rows = []
    for raw in raw_rows:
        if len(raw) != len(columns):
            raise OutputCheckError(f"row has {len(raw)} fields, header has {len(columns)}")
        rows.append({
            c: (v if c in TEXT_COLUMNS else float(v)) for c, v in zip(columns, raw)
        })
    return rows


def concurrence_closed_form(beta: float, mu: float, nu: float) -> float:
    """C = |a^2 sin^2(mu) / 2 + beta^2 e^{2 i nu}|, a^2 = 2 (1 - beta^2) / (1 + cos^2 mu)."""
    a2 = 2.0 * (1.0 - beta * beta) / (1.0 + math.cos(mu) ** 2)
    return abs(a2 * math.sin(mu) ** 2 / 2.0 + beta * beta * cmath.exp(2j * nu))


def check_sweep_rows(rows: list[dict], grid: list[tuple[float, float, float]]) -> None:
    """Raise OutputCheckError unless every row matches its grid point and the
    identities that tie the two evaluation routes together hold."""
    if len(rows) != len(grid):
        raise OutputCheckError(f"expected {len(grid)} rows, got {len(rows)}")
    for i, (row, (beta, mu, nu)) in enumerate(zip(rows, grid)):
        where = f"row {i} (beta={beta!r}, mu={mu!r}, nu={nu!r})"
        got = (row["beta"], row["mu"], row["nu"])
        if not all(math.isclose(g, e, rel_tol=1e-15, abs_tol=1e-15)
                   for g, e in zip(got, (beta, mu, nu))):
            raise OutputCheckError(f"{where}: out of grid order, got {got!r}")
        pairs = (
            ("r_eq9 = r_eq10", row["r_eq9"], row["r_eq10"]),
            ("jx_cf = jx_or", row["jx_cf"], row["jx_or"]),
            ("jz_cf = jz_or", row["jz_cf"], row["jz_or"]),
            ("jy_cf = -jy_or", row["jy_cf"], -row["jy_or"]),
            ("xi2_std = 1 - concurrence", row["xi2_std"], 1.0 - row["concurrence"]),
            ("concurrence closed form", row["concurrence"], concurrence_closed_form(beta, mu, nu)),
            ("xi2_literal = 2 xi2_std", row["xi2_literal"], 2.0 * row["xi2_std"]),
        )
        for label, a, b in pairs:
            if not abs(a - b) <= TOL:         # also fails on nan
                raise OutputCheckError(f"{where}: {label} fails, {a!r} vs {b!r}")
        expected_method = METHOD_FOR_STATUS.get(row["frame_status"])
        if row["method"] != expected_method:
            raise OutputCheckError(
                f"{where}: method {row['method']!r} with frame_status {row['frame_status']!r}"
            )


def check_crosscheck_report(report: dict, points: int) -> None:
    """Raise OutputCheckError unless the crosscheck passed with the known verdicts."""
    if report.get("samples") != points:
        raise OutputCheckError(f"expected {points} samples, got {report.get('samples')!r}")
    counted = sum(
        report.get(k, 0)
        for k in ("regular_points", "polar_degenerate_points", "fully_degenerate_points")
    )
    if counted != points:
        raise OutputCheckError(f"frame status counts sum to {counted}, not {points}")
    if report.get("independent_ok") is not True:
        raise OutputCheckError("convention-independent quantities disagree")
    if report.get("failures"):
        raise OutputCheckError(f"{len(report['failures'])} crosscheck failures")
    for key, expected in EXPECTED_VERDICTS.items():
        if report.get(key) != expected:
            raise OutputCheckError(f"{key} is {report.get(key)!r}, expected {expected!r}")


def check_output(call: Call) -> int:
    """Check the output file of one call; return its count of fully-degenerate rows."""
    if call.grid is None:
        with open(call.out_path, encoding="utf-8") as handle:
            report = json.load(handle)
        check_crosscheck_report(report, call.points)
        return report["fully_degenerate_points"]
    rows = read_sweep_rows(call.out_path, call.out_format)
    check_sweep_rows(rows, call.grid)
    return sum(row["frame_status"] == "fully-degenerate" for row in rows)
