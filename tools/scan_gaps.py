#!/usr/bin/env python3
"""Worst eigen-versus-scan gaps of the oracle's two minimizations.

    python3 tools/scan_gaps.py

Prints one line per input set: fig1's grid, fig2's grid, and 20,000 seeded
random normalized spin-1 states for each of the seeds 1, 3, 5 and 7.  Each
line gives the largest |eigen - scan| of the transverse minimization, over
the rows that have a transverse plane, and of the all-directions one, over
the fully-degenerate rows (the rows oracle_arrays sends that way) and over
every row.  The eigen routes are the oracle's 2x2 eigenvalue and the
smallest eigvalsh of the second-moment table; the scans are _transverse_scan
and _sphere_min, run in blocks of _BLOCK rows as oracle_arrays runs them.
The package is imported from the src/ next to this script, so a checkout of
any revision measures its own scans.
"""
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from biaxbell.cli import (  # noqa: E402
    FIG1_BETA_STEPS, FIG1_MUS, FIG1_NU_STEPS, FIG2_BETA_STEPS, FIG2_MUS, FIG2_NU, sweep_points,
)
from biaxbell.frame import (  # noqa: E402
    FrameStatus, frame_angles, frame_triad, spin_length, transverse_operators,
)
from biaxbell.oracle import (  # noqa: E402
    _BLOCK, _eigen_min, _expectations, _real_split, _sphere_min, _spin1, _tables,
    _transverse_moments, _transverse_scan,
)
from biaxbell.spincore import param_columns, superposition_states  # noqa: E402

RANDOM_STATES = 20_000
SEEDS = (1, 3, 5, 7)


def gaps(states: np.ndarray) -> dict[str, list]:
    """Per minimization, the worst gap and the number of rows it ran on over
    states (n, 3)."""
    ops = _spin1()
    worst = {"transverse": [0.0, 0], "all-directions, degenerate": [0.0, 0],
             "all-directions, every row": [0.0, 0]}

    def record(name, lam, scan):
        gap = np.abs(lam - scan)
        worst[name] = [max(worst[name][0], gap.max(initial=0.0)), worst[name][1] + gap.size]

    for lo in range(0, len(states), _BLOCK):
        psi = states[lo:lo + _BLOCK]
        vectors, values = _expectations(ops.moment_stack, psi)
        jx, jy, jz = values.real[:, :3].T
        theta, phi, status = frame_angles(jx, jy, jz, spin_length(jx, jy, jz))
        flat = np.array([s is FrameStatus.FULLY_DEGENERATE for s in status])
        if not flat.all():
            jn = transverse_operators(frame_triad(theta, phi)[~flat, :2], ops)
            vecs, moments = _transverse_moments(psi[~flat], jn[:, 0], jn[:, 1])
            lam = np.array([_eigen_min(*m)[0] for m in moments.tolist()])
            record("transverse", lam, _transverse_scan(psi[~flat], vecs, moments)[0])
        lam = np.linalg.eigvalsh(_tables(values))[:, 0]
        scan = _sphere_min(_real_split(vectors[:, :3]))
        record("all-directions, degenerate", lam[flat], scan[flat])
        record("all-directions, every row", lam, scan)
    return worst


def family(grid) -> np.ndarray:
    return superposition_states(*param_columns(grid))


def random_states(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(RANDOM_STATES, 3)) + 1j * rng.normal(size=(RANDOM_STATES, 3))
    return states / np.linalg.norm(states, axis=1)[:, None]


def main() -> None:
    sets = {
        "fig1": family(sweep_points(FIG1_MUS, np.linspace(0.0, 2.0 * math.pi, FIG1_NU_STEPS),
                                    np.linspace(0.0, 1.0, FIG1_BETA_STEPS))),
        "fig2": family(sweep_points(FIG2_MUS, (FIG2_NU,), np.linspace(0.0, 1.0, FIG2_BETA_STEPS))),
    }
    sets.update({f"random seed {seed}": random_states(seed) for seed in SEEDS})
    for name, states in sets.items():
        cells = [f"{what} {gap:.2e} ({rows} rows)" if rows else f"{what}: no rows"
                 for what, (gap, rows) in gaps(states).items()]
        print(f"{name:14s} {len(states):6d} rows  " + "  ".join(cells))


if __name__ == "__main__":
    main()
