"""nu -> -nu maps every state of the family to its complex conjugate,
nu -> nu + pi turns it by pi about z, and mu -> pi - mu turns it by pi
about y, so each output of each route must transform in a fixed way under
each of them, whatever the other route says.

Both routes run on 20,000 seeded (beta, mu, nu) points and on a product of
the edge axes mu in {0, pi/2, pi} and beta in {0, 1} with seeded values, and
again on the same grid with nu negated, nu turned by pi and mu reflected.
Where a symmetry was measured to hold bit for bit it is asserted bit for
bit; elsewhere each bound is at most four times the worst gap measured on
this grid (CHANGES.md records both numbers).
"""
import math

import numpy as np
import pytest

from biaxbell.crosscheck import closed_arrays
from biaxbell.oracle import oracle_arrays
from biaxbell.spincore import alpha_of, axis_grid

SEED = 8
POINTS = 20_000
ROUTES = {"oracle": oracle_arrays, "closed": closed_arrays}

# worst gap allowed between a row and its mirror's transformed value
LAMBDA_BOUND = 1.1e-15      # lambda_min equal; measured 2.8e-16
ANTICOMM_BOUND = 5.4e-15    # anticomm flips sign; measured 1.37e-15
CHI_BOUND = 1.1e-12         # chi_min -> pi - chi_min (mod pi); measured 3.0e-13

# the two turns: nu -> nu + pi about z, mu -> pi - mu about y
TURNS = {
    "nu+pi": lambda grid: np.array([*grid[:3], grid[3] + math.pi]),
    "pi-mu": lambda grid: np.array([*grid[:2], math.pi - grid[2], grid[3]]),
}
# (turn, route, quantity, sign, bound): |value - sign * turned value| <= bound
TURN_GAPS = [
    *((turn, route, name, sign, bound) for route in ROUTES for turn, name, sign, bound in [
        ("nu+pi", "jx", -1.0, 1.3e-15),     # measured 2.2e-16 (oracle), 1.4e-16 (closed)
        ("nu+pi", "jy", -1.0, 1.3e-15),     # measured 3.3e-16, 1.7e-16
        ("nu+pi", "r", 1.0, 2.6e-15),       # measured 3.3e-16, 3.3e-16
        ("pi-mu", "jx", -1.0, 3.8e-15),     # measured 5.3e-16, 2.8e-16
        ("pi-mu", "jy", 1.0, 3.8e-15),      # measured 4.4e-16, 2.2e-16
        ("pi-mu", "jz", -1.0, 3.8e-15),     # measured 9.7e-16, 4.4e-16
        ("pi-mu", "r", 1.0, 4.4e-15),       # measured 9.4e-16, 5.6e-16
    ]),
    ("nu+pi", "oracle", "concurrence", 1.0, 2.6e-15),   # measured 4.4e-16
    ("nu+pi", "oracle", "xi2_std", 1.0, 2.6e-15),       # measured 6.7e-16
    ("nu+pi", "closed", "radical", 1.0, 2.6e-15),       # xi2_std; measured 6.7e-16
    ("nu+pi", "oracle", "theta", 1.0, 2.4e-14),         # measured 6.2e-15
    ("pi-mu", "oracle", "concurrence", 1.0, 4.4e-15),   # measured 1.0e-15
    ("pi-mu", "oracle", "xi2_std", 1.0, 4.4e-15),       # measured 1.1e-15
    ("pi-mu", "closed", "radical", 1.0, 4.4e-15),       # measured 1.0e-15
]


def _grid():
    rng = np.random.default_rng(SEED)
    beta, mu, nu = rng.uniform([0.0, 0.0, -7.0], [1.0, math.pi, 7.0], (POINTS, 3)).T
    edges = axis_grid(("mu", "nu", "beta"),
                      mu=[0.0, math.pi / 2, math.pi, *rng.uniform(0.0, math.pi, 7)],
                      nu=[0.0, math.pi, -math.pi, *rng.uniform(-7.0, 7.0, 7)],
                      beta=[0.0, 1.0, *rng.uniform(0.0, 1.0, 8)])
    return np.concatenate([np.array([alpha_of(beta), beta, mu, nu]), edges], axis=1)


@pytest.fixture(scope="module")
def pairs():
    """route -> (columns of the grid, columns of its nu-negated copy)."""
    grid = _grid()
    mirror = grid * np.array([[1.0], [1.0], [1.0], [-1.0]])
    return {route: (evaluate(grid), evaluate(mirror)) for route, evaluate in ROUTES.items()}


@pytest.mark.parametrize("route,name", [
    *((route, name) for route in ROUTES for name in ("jx", "jz", "r")),
    ("oracle", "concurrence"), ("oracle", "theta"), ("oracle", "frame_status"),
])
def test_mirror_keeps_bits(pairs, route, name):
    columns, mirrored = pairs[route]
    assert columns[name].tobytes() == mirrored[name].tobytes()


@pytest.mark.parametrize("route", list(ROUTES))
def test_mirror_flips_jy(pairs, route):
    columns, mirrored = pairs[route]
    # == and not bits: a zero may come back with either sign
    assert np.array_equal(columns["jy"], -mirrored["jy"])


def test_mirror_reflects_phi(pairs):
    """On a regular row the one with <Jy> < 0 reads 2 pi minus the other's
    phi, stored as 0 where that is 2 pi; rows with <Jy> = 0 read the same."""
    columns, mirrored = pairs["oracle"]
    jy, phi, phi_mirror = columns["jy"], columns["phi"], mirrored["phi"]
    regular = columns["frame_status"] == "regular"
    below, above = np.where(jy < 0.0, phi, phi_mirror), np.where(jy < 0.0, phi_mirror, phi)
    want = np.where(jy == 0.0, above, 2.0 * math.pi - above)
    want[want == 2.0 * math.pi] = 0.0
    assert regular.sum() > POINTS * 0.9
    assert below[regular].tobytes() == want[regular].tobytes()


def _worst(gap, columns, mirrored, name):
    """The largest |gap| over rows where neither side is NaN, after checking
    that both sides are NaN on the same rows."""
    assert np.array_equal(np.isnan(columns[name]), np.isnan(mirrored[name]))
    return np.nanmax(np.abs(gap), initial=0.0)


def test_mirror_keeps_lambda_min(pairs):
    columns, mirrored = pairs["oracle"]
    gap = columns["lambda_min"] - mirrored["lambda_min"]
    assert _worst(gap, columns, mirrored, "lambda_min") <= LAMBDA_BOUND


@pytest.mark.parametrize("route", list(ROUTES))
def test_mirror_flips_anticomm(pairs, route):
    columns, mirrored = pairs[route]
    gap = columns["anticomm"] + mirrored["anticomm"]
    assert _worst(gap, columns, mirrored, "anticomm") <= ANTICOMM_BOUND


def test_mirror_reflects_chi_min(pairs):
    columns, mirrored = pairs["oracle"]
    turn = (columns["chi_min"] + mirrored["chi_min"]) % math.pi
    gap = np.minimum(turn, math.pi - turn)
    assert _worst(gap, columns, mirrored, "chi_min") <= CHI_BOUND


@pytest.fixture(scope="module")
def turned(pairs):
    """(turn, route) -> (columns of the grid, columns of its turned copy)."""
    grid = _grid()
    return {(turn, route): (pairs[route][0], evaluate(move(grid)))
            for turn, move in TURNS.items() for route, evaluate in ROUTES.items()}


@pytest.mark.parametrize("route", list(ROUTES))
def test_turn_about_z_keeps_jz_bits(turned, route):
    columns, moved = turned["nu+pi", route]
    assert columns["jz"].tobytes() == moved["jz"].tobytes()


@pytest.mark.parametrize("turn,route,name,sign,bound", TURN_GAPS,
                         ids=["-".join(case[:3]) for case in TURN_GAPS])
def test_turn_moves_within_bound(turned, turn, route, name, sign, bound):
    columns, moved = turned[turn, route]
    gap = columns[name] - sign * moved[name]
    assert _worst(gap, columns, moved, name) <= bound
