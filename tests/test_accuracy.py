"""Accuracy of the oracle's transverse moments and minimum against a
40-digit mpmath reference.

The reference reads the oracle's own float inputs exactly: each row's state
amplitudes and the frame vectors n1 and n2 that oracle_arrays built from its
theta and phi columns (frame_triad).  It takes J from the exact spin-1
matrices, <J_a> and G_ab = <{J_a, J_b}>/2 from the vectors J_a psi, and
<Jn_a> = n_a . <J>, <{Jn_a, Jn_b}>/2 = n_a^T G n_b in that frame.  So it
measures the oracle's moment arithmetic and its 2x2 eigen route, not the
frame's conditioning near r = 0 nor alpha's near beta = 1.  For a
fully-degenerate row the reference takes lambda_min as the minimum of
<J_u^2> over all unit u, the smallest eigenvalue of G at 40 digits, however
the oracle reaches it.  The concurrence min(2 |c_{+1} c_{-1} - c_0^2 / 2|, 1)
is taken from the same amplitudes on every row: C <= 1 on a unit state, and
the oracle clamps a float state's excess norm as the reference does.

Each bound is absolute, one per quantity, twice the worst error measured
on these points when the transverse moments were brakets of the operator
products Jn_a Jn_b, rounded up; the concurrence's is twice its worst error
when the frameless lambda_min was the smallest eigh eigenvalue of G.

The frame itself is checked near the pole: theta against atan2(rho, <Jz>)
of the reference mean, to 1e-12 relative.  acos(<Jz>/r) loses theta's
digits as theta -> 0, so that test is a strict xfail until theta is taken
by atan2.
"""
import math

import mpmath
import numpy as np
import pytest

from biaxbell.cli import FIG2_BETA_STEPS, FIG2_MUS, FIG2_NU
from biaxbell.frame import frame_triad
from biaxbell.oracle import oracle_arrays
from biaxbell.spincore import axis_grid, alpha_of, superposition_states

DIGITS = 40
UNIFORM_POINTS = 1200
MIN_R = 1e-3

# worst |oracle - reference| allowed per quantity
BOUNDS = {"jn1_sq": 8.2e-16, "jn2_sq": 7.3e-16, "anticomm": 6.1e-16, "lambda_min": 6.2e-16,
          "concurrence": 3.5e-16}


def _spin1():
    """Jx, Jy and Jz of spin 1 in the basis m = 1, 0, -1, as mpc rows."""
    s = mpmath.sqrt(2) / 2
    zero, i = mpmath.mpc(0), mpmath.mpc(0, 1)
    jx = [[zero, s, zero], [s, zero, s], [zero, s, zero]]
    jy = [[zero, -i * s, zero], [i * s, zero, -i * s], [zero, i * s, zero]]
    jz = [[mpmath.mpc(1), zero, zero], [zero, zero, zero], [zero, zero, mpmath.mpc(-1)]]
    return jx, jy, jz


def _moments(state):
    """<J> and G of one row's float amplitudes, at the working precision."""
    psi = [mpmath.mpc(z.real, z.imag) for z in state.tolist()]
    vectors = [[mpmath.fsum(op[r][c] * psi[c] for c in range(3)) for r in range(3)]
               for op in _spin1()]

    def inner(u, v):
        return mpmath.fsum(mpmath.conj(a) * b for a, b in zip(u, v)).real

    return [inner(psi, w) for w in vectors], [[inner(u, v) for v in vectors] for u in vectors]


def _reference(state, n1, n2, transverse):
    """jn1_sq, jn2_sq, anticomm, lambda_min and concurrence of one row at
    DIGITS digits, or only lambda_min (the smallest eigenvalue of G) and
    concurrence without a plane."""
    up, zero, down = (mpmath.mpc(z.real, z.imag) for z in state.tolist())
    conc = min(2 * abs(up * down - zero ** 2 / 2), 1)
    mean, table = _moments(state)
    if not transverse:
        lam = min(mpmath.eigsy(mpmath.matrix(table), eigvals_only=True))
        return {"lambda_min": lam, "concurrence": conc}
    n = [[mpmath.mpf(x) for x in v.tolist()] for v in (n1, n2)]
    m = [mpmath.fsum(a * b for a, b in zip(v, mean)) for v in n]

    def form(u, v):
        return mpmath.fsum(u[i] * table[i][j] * v[j] for i in range(3) for j in range(3))

    s11, s22, s12 = form(n[0], n[0]), form(n[1], n[1]), form(n[0], n[1])
    g11, g22, g12 = s11 - m[0] ** 2, s22 - m[1] ** 2, s12 - m[0] * m[1]
    lam = (g11 + g22) / 2 - mpmath.sqrt(((g11 - g22) / 2) ** 2 + g12 ** 2)
    return {"jn1_sq": s11, "jn2_sq": s22, "anticomm": 2 * s12, "lambda_min": lam,
            "concurrence": conc}


def _uniform_grid():
    """Seeded uniform (beta, mu, nu) points whose oracle r is at least MIN_R."""
    rng = np.random.default_rng(31)
    beta, mu, nu = rng.uniform([0.0, 0.0, -math.pi], [1.0, math.pi, math.pi],
                               (UNIFORM_POINTS, 3)).T
    grid = np.array([alpha_of(beta), beta, mu, nu])
    return grid[:, oracle_arrays(grid)["r"] >= MIN_R]


def _frameless_grid():
    """Rows without a mean spin: the zero-mean sweep (mu = pi/2, nu in {0, pi})
    over 401 beta, and the Bell state (beta = 1) over 13 mu x 13 nu."""
    return np.concatenate([
        axis_grid(("mu", "nu", "beta"), mu=[math.pi / 2], nu=[0.0, math.pi],
                  beta=np.linspace(0.0, 1.0, 401)),
        axis_grid(("mu", "nu", "beta"), mu=np.linspace(0.0, math.pi, 13),
                  nu=np.linspace(-math.pi, math.pi, 13), beta=[1.0]),
    ], axis=1)


POINT_SETS = {
    "uniform": _uniform_grid,
    "fig2": lambda: axis_grid(("mu", "nu", "beta"), mu=FIG2_MUS, nu=(FIG2_NU,),
                              beta=np.linspace(0.0, 1.0, FIG2_BETA_STEPS)),
    "frameless": _frameless_grid,
}


def worst_errors(grid) -> dict[str, float]:
    """The largest |oracle_arrays - reference| per quantity over a grid."""
    columns = oracle_arrays(grid)
    states = superposition_states(*grid)
    triads = frame_triad(columns["theta"], columns["phi"])
    worst = dict.fromkeys(BOUNDS, 0.0)
    with mpmath.workdps(DIGITS):
        for i, state in enumerate(states):
            transverse = columns["method"][i] == "transverse-eigen"
            truth = _reference(state, triads[i, 0], triads[i, 1], transverse)
            for name, value in truth.items():
                error = abs(mpmath.mpf(columns[name][i].item()) - value)
                worst[name] = max(worst[name], float(error))
    return worst


@pytest.mark.parametrize("points", list(POINT_SETS))
def test_transverse_moments_and_minimum_are_accurate(points):
    grid = POINT_SETS[points]()
    assert grid.shape[1] >= 500
    worst = worst_errors(grid)
    assert all(worst[name] <= bound for name, bound in BOUNDS.items()), worst


@pytest.mark.xfail(strict=True, reason="frame_angles takes theta = acos(<Jz>/r), which loses "
                   "theta's digits as theta -> 0; atan2(rho, <Jz>) keeps them")
def test_theta_near_the_pole_is_accurate():
    # regular rows close to the pole: theta is about 1.675 beta here, and at
    # beta = 1e-9 acos reads 0.0
    grid = axis_grid(("mu", "nu", "beta"), mu=[math.pi / 3], nu=[0.7], beta=[1e-5, 1e-7, 1e-9])
    columns = oracle_arrays(grid)
    assert list(columns["frame_status"]) == ["regular"] * 3
    with mpmath.workdps(DIGITS):
        for theta, state in zip(columns["theta"], superposition_states(*grid)):
            (jx, jy, jz), _ = _moments(state)
            truth = mpmath.atan2(mpmath.hypot(jx, jy), jz)
            assert abs(theta.item() - truth) <= 1e-12 * truth, (theta, truth)
