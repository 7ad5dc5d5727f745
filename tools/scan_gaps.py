#!/usr/bin/env python3
"""Worst oracle-versus-reference gaps and certificate rejections of the
oracle's two minimizations, as a check.

    python3 tools/scan_gaps.py

Prints one line per input set: fig1's grid, fig2's grid, and 20,000 seeded
random normalized spin-1 states for each of the seeds 1, 3, 5 and 7.  Each
line gives, for the transverse minimization over the rows that have a
transverse plane, and for the all-directions one over the fully-degenerate
rows (the rows oracle_arrays sends that way) and over every row:

- the largest |oracle - reference|.  The oracle's minima are the 2x2
  eigenvalue and, over all directions, (1 - C)/2 with C from _concurrences;
  the references are the exact bisections _transverse_scan and
  _sphere_min, run here in blocks of _BLOCK rows (oracle_arrays runs
  neither);
- the number of rows whose minimum the oracle's gate, _certify, rejects at
  TRANSVERSE_AGREE_TOL and ALL_DIRECTIONS_AGREE_TOL.  oracle_arrays raises
  on any such row.

Exits 1 when any gap exceeds GAP_TOL or any rejection count is not 0, and
0 otherwise.  The package is imported from the src/ next to this script, so
a checkout of any revision measures its own code.
"""
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from biaxbell.cli import (  # noqa: E402
    FIG1_BETA_STEPS, FIG1_MUS, FIG1_NU_STEPS, FIG2_BETA_STEPS, FIG2_MUS, FIG2_NU,
)
from biaxbell.frame import (  # noqa: E402
    FULLY_DEGENERATE_CODE, frame_angles, frame_triad, spin_length,
)
from biaxbell.oracle import (  # noqa: E402
    _BLOCK, ALL_DIRECTIONS_AGREE_TOL, TRANSVERSE_AGREE_TOL, _certify, _concurrences, _eigen_min,
    _expectations, _plane_moments, _real_split, _sphere_min, _spin1, _tables, _transverse_scan,
    _transverse_split,
)
from biaxbell.spincore import axis_grid, superposition_states  # noqa: E402

RANDOM_STATES = 20_000
SEEDS = (1, 3, 5, 7)
GAP_TOL = 1e-12


def rejected(lam, split, tol) -> int:
    """The number of rows whose minimum lam _certify rejects: all rows at
    once, then one at a time only if that raises."""
    def fails(rows) -> bool:
        try:
            _certify("", lam[rows], split[rows], tol)
        except RuntimeError:
            return True
        return False

    return sum(fails(slice(i, i + 1)) for i in range(len(lam))) if fails(slice(None)) else 0


def gaps(states: np.ndarray) -> dict[str, list]:
    """Per minimization over states (n, 3): the worst gap, the number of rows
    it ran on and the number of rows the certificate rejects."""
    ops = _spin1()
    worst = {"transverse": [0.0, 0, 0], "all-directions, degenerate": [0.0, 0, 0],
             "all-directions, every row": [0.0, 0, 0]}

    def record(name, lam, scan, split, tol):
        gap = np.abs(lam - scan)
        worst[name] = [max(worst[name][0], gap.max(initial=0.0)), worst[name][1] + gap.size,
                       worst[name][2] + rejected(lam, split, tol)]

    for lo in range(0, len(states), _BLOCK):
        psi = states[lo:lo + _BLOCK]
        vectors, values = _expectations(ops.moment_stack, psi)
        jx, jy, jz = values.real[:, :3].T
        theta, phi, status = frame_angles(jx, jy, jz, spin_length(jx, jy, jz))
        flat, tables = status == FULLY_DEGENERATE_CODE, _tables(values)
        if not flat.all():
            vecs, moments = _plane_moments(vectors[~flat], values.real[~flat, :3],
                                           tables[~flat], frame_triad(theta, phi)[~flat, :2])
            record("transverse", _eigen_min(*moments.T)[0],
                   _transverse_scan(psi[~flat], vecs, moments)[0],
                   _transverse_split(psi[~flat], vecs, moments), TRANSVERSE_AGREE_TOL)
        lam, split = (1.0 - _concurrences(psi)) / 2.0, _real_split(vectors[:, :3])
        scan = _sphere_min(split)
        record("all-directions, degenerate", lam[flat], scan[flat], split[flat],
               ALL_DIRECTIONS_AGREE_TOL)
        record("all-directions, every row", lam, scan, split, ALL_DIRECTIONS_AGREE_TOL)
    return worst


def family(mus, nus, betas) -> np.ndarray:
    """The states of a figure grid, in sweep row order."""
    return superposition_states(*axis_grid(("mu", "nu", "beta"), mu=mus, nu=nus, beta=betas))


def random_states(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(RANDOM_STATES, 3)) + 1j * rng.normal(size=(RANDOM_STATES, 3))
    return states / np.linalg.norm(states, axis=1)[:, None]


def main() -> int:
    sets = {
        "fig1": family(FIG1_MUS, np.linspace(0.0, 2.0 * math.pi, FIG1_NU_STEPS),
                       np.linspace(0.0, 1.0, FIG1_BETA_STEPS)),
        "fig2": family(FIG2_MUS, (FIG2_NU,), np.linspace(0.0, 1.0, FIG2_BETA_STEPS)),
    }
    sets.update({f"random seed {seed}": random_states(seed) for seed in SEEDS})
    failed = False
    for name, states in sets.items():
        worst = gaps(states)
        cells = [f"{what} {gap:.2e} ({rows} rows, {bad} rejected)" if rows else f"{what}: no rows"
                 for what, (gap, rows, bad) in worst.items()]
        print(f"{name:14s} {len(states):6d} rows  " + "  ".join(cells))
        failed |= any(gap > GAP_TOL or bad for gap, _, bad in worst.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
