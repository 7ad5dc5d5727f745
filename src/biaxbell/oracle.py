"""Operator oracle: ground truth by direct matrix arithmetic.

Every quantity the closed forms predict is recomputed here from the state
vector and dense operators, with no shared algebra.  Minimizations are done
twice on purpose: an analytic eigenvalue route and a brute scan with local
refinement.  The two must agree or the call fails loudly; agreement is the
evidence that both are right.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .closedform import FrameMoments, MomentSet
from .frame import (
    DegenerateFrameError,
    FrameStatus,
    MeanSpin,
    SpinFrame,
    compute_frame,
    project_transverse_operators,
)
from .spincore import (
    SpinOperatorSet,
    SqueezeParams,
    build_spin_operators,
    build_superposition_state,
    expectation,
)

METHOD_TRANSVERSE = "transverse-eigen"
METHOD_ALL_DIRECTIONS = "all-directions"

DEFAULT_TRANSVERSE_GRID = 4096
SPHERE_GRID = (64, 128)
SPHERE_ROUNDS = 3
# eigen-versus-scan agreement the two minimizations must reach
TRANSVERSE_AGREE_TOL = 1e-8
ALL_DIRECTIONS_AGREE_TOL = 1e-6
_GOLDEN_TOL = 1e-12
_HERMITICITY_TOL = 1e-9


@lru_cache(maxsize=None)
def _spin1() -> SpinOperatorSet:
    return build_spin_operators(1.0)


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > _HERMITICITY_TOL:
        raise RuntimeError(f"{what} should be real, got imaginary part {value.imag!r}")
    return value.real


class OracleMoments(NamedTuple):
    mean: MeanSpin
    raising: MomentSet
    table: np.ndarray          # symmetric 3x3, entries <{Ja, Jb}>/2


def moments_oracle(state: np.ndarray, ops: SpinOperatorSet) -> OracleMoments:
    """All first and second moments of a state, from the matrices alone."""
    state = np.asarray(state)
    if state.ndim != 1 or state.shape[0] != ops.dim:
        raise ValueError(
            f"state of length {state.shape} does not match operator dimension {ops.dim}"
        )
    cart = (ops.jx, ops.jy, ops.jz)
    mean = MeanSpin(*(_real(expectation(op, state), "first moment") for op in cart))
    table = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            sym = cart[a] @ cart[b] + cart[b] @ cart[a]
            table[a, b] = table[b, a] = _real(expectation(sym, state), "second moment") / 2.0
    table.setflags(write=False)
    two_jz_plus_1 = 2.0 * ops.jz + np.eye(ops.dim)
    raising = MomentSet(
        jplus_sq=expectation(ops.jplus @ ops.jplus, state),
        jz_sq=_real(expectation(ops.jz @ ops.jz, state), "<Jz^2>"),
        jplus_2jz1=expectation(ops.jplus @ two_jz_plus_1, state),
    )
    return OracleMoments(mean=mean, raising=raising, table=table)


def _golden_min(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [a, b] to bracket width tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _variance_of_combo(w1, w2, m1, m2, chi):
    w = math.cos(chi) * w1 + math.sin(chi) * w2
    second = float(np.vdot(w, w).real)
    mean = math.cos(chi) * m1 + math.sin(chi) * m2
    return second - mean * mean


def min_transverse_variance_scan(
    state: np.ndarray,
    frame: SpinFrame,
    ops: SpinOperatorSet,
    grid_size: int = DEFAULT_TRANSVERSE_GRID,
) -> tuple[float, float]:
    """Brute minimum of Var(J_chi) over the transverse plane.

    chi parametrizes the direction cos(chi) n1 + sin(chi) n2 over [0, pi).
    A dense grid locates the basin and golden-section search refines it to a
    bracket of width _GOLDEN_TOL.  This route never forms a covariance matrix;
    it applies operators to the state and takes norms.
    """
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        raise DegenerateFrameError("transverse scan undefined: mean spin below eps")
    if grid_size < 8:
        raise ValueError(f"grid_size too small: {grid_size}")
    jn1, jn2 = project_transverse_operators(frame, ops)
    w1, w2 = jn1 @ state, jn2 @ state
    m1 = _real(complex(np.vdot(state, w1)), "<Jn1>")
    m2 = _real(complex(np.vdot(state, w2)), "<Jn2>")

    chis = np.linspace(0.0, math.pi, grid_size, endpoint=False)
    combo = np.cos(chis)[:, None] * w1[None, :] + np.sin(chis)[:, None] * w2[None, :]
    second = np.einsum("kd,kd->k", combo, combo.conj()).real
    means = np.cos(chis) * m1 + np.sin(chis) * m2
    var = second - means ** 2
    i = int(np.argmin(var))

    step = math.pi / grid_size
    f = lambda chi: _variance_of_combo(w1, w2, m1, m2, chi)
    chi_ref, val_ref = _golden_min(f, chis[i] - step, chis[i] + step, _GOLDEN_TOL)
    if val_ref <= var[i]:
        chi_min, val = chi_ref, val_ref
    else:
        chi_min, val = float(chis[i]), float(var[i])
    chi_min = chi_min % math.pi
    return val, chi_min


def min_transverse_variance(
    state: np.ndarray, frame: SpinFrame, ops: SpinOperatorSet
) -> tuple[float, float]:
    """Minimal transverse variance and its angle, computed two ways.

    The primary route takes the smaller eigenvalue of the 2x2 transverse
    covariance matrix; the scan route (min_transverse_variance_scan) must
    agree within TRANSVERSE_AGREE_TOL or a RuntimeError is raised.  chi_min lies in
    [0, pi), with chi_min = 0 as the tie-break when the minimum is flat.
    """
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        raise DegenerateFrameError("transverse variance undefined: mean spin below eps")
    jn1, jn2 = project_transverse_operators(frame, ops)
    m1 = _real(expectation(jn1, state), "<Jn1>")
    m2 = _real(expectation(jn2, state), "<Jn2>")
    g11 = _real(expectation(jn1 @ jn1, state), "<Jn1^2>") - m1 * m1
    g22 = _real(expectation(jn2 @ jn2, state), "<Jn2^2>") - m2 * m2
    g12 = _real(expectation(jn1 @ jn2 + jn2 @ jn1, state), "<{Jn1,Jn2}>") / 2.0 - m1 * m2

    half_gap = math.hypot(g11 - g22, 2.0 * g12) / 2.0
    lam = (g11 + g22) / 2.0 - half_gap
    scale = max(1.0, abs(g11), abs(g22))
    if half_gap <= 1e-14 * scale:
        chi = 0.0                      # isotropic plane, minimum is flat
    else:
        chi = math.atan2(-2.0 * g12, -(g11 - g22)) / 2.0
        if chi < 0.0:
            chi += math.pi
        if chi >= math.pi:
            chi -= math.pi

    lam_scan, _ = min_transverse_variance_scan(state, frame, ops)
    if abs(lam - lam_scan) > TRANSVERSE_AGREE_TOL:
        raise RuntimeError(
            f"transverse minimization mismatch: eigen {lam!r} vs scan {lam_scan!r}"
        )
    return lam, chi


def _second_moment_of_direction(w_stack: np.ndarray, u: np.ndarray) -> float:
    w = w_stack.T @ u
    return float(np.vdot(w, w).real)


def _sphere_scan(state: np.ndarray, ops: SpinOperatorSet) -> float:
    """Minimum of <J_u^2> over all unit directions by grid plus refinement."""
    n_theta, n_phi = SPHERE_GRID
    w_stack = np.stack([ops.jx @ state, ops.jy @ state, ops.jz @ state])
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    u = np.stack(
        [np.sin(tg) * np.cos(pg), np.sin(tg) * np.sin(pg), np.cos(tg)], axis=-1
    ).reshape(-1, 3)
    w = u @ w_stack
    second = np.einsum("kd,kd->k", w, w.conj()).real
    i = int(np.argmin(second))
    theta, phi = float(tg.reshape(-1)[i]), float(pg.reshape(-1)[i])
    best = float(second[i])

    def value(th, ph):
        direction = np.array(
            [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )
        return _second_moment_of_direction(w_stack, direction)

    dt = math.pi / (n_theta - 1)
    dp = 2.0 * math.pi / n_phi
    for _ in range(SPHERE_ROUNDS):
        theta, _ = _golden_min(lambda t: value(t, phi), theta - dt, theta + dt, 1e-10)
        phi, _ = _golden_min(lambda p: value(theta, p), phi - dp, phi + dp, 1e-10)
        dt /= 8.0
        dp /= 8.0
    return min(best, value(theta, phi))


def min_variance_all_directions(
    state: np.ndarray, ops: SpinOperatorSet
) -> tuple[float, np.ndarray]:
    """Minimum of <J_u^2> over all unit vectors u, with the minimizing u.

    This is the fallback used when the mean spin vanishes and no transverse
    plane is distinguished; there the second moment and the variance
    coincide.  The primary route diagonalizes the 3x3 symmetric
    second-moment matrix; a spherical scan with local refinement must agree
    within ALL_DIRECTIONS_AGREE_TOL.
    """
    table = moments_oracle(state, ops).table
    eigvals, eigvecs = np.linalg.eigh(table)
    lam = float(eigvals[0])
    direction = eigvecs[:, 0].copy()
    pivot = int(np.argmax(np.abs(direction)))
    if direction[pivot] < 0.0:
        direction = -direction
    direction.setflags(write=False)

    lam_scan = _sphere_scan(state, ops)
    if abs(lam - lam_scan) > ALL_DIRECTIONS_AGREE_TOL:
        raise RuntimeError(
            f"all-direction minimization mismatch: eigen {lam!r} vs scan {lam_scan!r}"
        )
    return lam, direction


def concurrence(state: np.ndarray) -> float:
    """Concurrence of a pure two-qubit state given in the j = 1 basis.

    With c_uu = c_{+1}, c_ud = c_du = c_0 / sqrt(2), c_dd = c_{-1}:
    C = 2 |c_uu c_dd - c_ud c_du| = 2 |c_{+1} c_{-1} - c_0^2 / 2|.
    """
    state = np.asarray(state)
    if state.shape != (3,):
        raise ValueError(f"expected a length-3 state, got shape {state.shape}")
    value = 2.0 * abs(state[0] * state[2] - state[1] ** 2 / 2.0)
    return min(value, 1.0)


@dataclass(frozen=True)
class SqueezeResult:
    """Output of the oracle pipeline for one parameter point."""

    lambda_min: float
    chi_min: float
    xi2_std: float
    xi2_literal: float
    concurrence: float
    frame_status: FrameStatus
    method: str


@dataclass(frozen=True)
class OraclePoint:
    """Everything the oracle computed for one parameter point.

    frame_moments holds the raw transverse second moments (not mean
    subtracted); it is None when the frame is fully degenerate.
    """

    params: SqueezeParams
    state: np.ndarray
    moments: OracleMoments
    frame: SpinFrame
    frame_moments: FrameMoments | None
    result: SqueezeResult


def evaluate_oracle(params: SqueezeParams) -> OraclePoint:
    """Run the full oracle pipeline: state, moments, frame, minimization."""
    ops = _spin1()
    state = build_superposition_state(params)
    moments = moments_oracle(state, ops)
    frame = compute_frame(moments.mean)

    if frame.status is FrameStatus.FULLY_DEGENERATE:
        lam, _ = min_variance_all_directions(state, ops)
        chi = 0.0                       # no transverse plane; conventional
        frame_moments = None
        method = METHOD_ALL_DIRECTIONS
    else:
        lam, chi = min_transverse_variance(state, frame, ops)
        jn1, jn2 = project_transverse_operators(frame, ops)
        frame_moments = FrameMoments(
            jn1_sq=_real(expectation(jn1 @ jn1, state), "<Jn1^2>"),
            jn2_sq=_real(expectation(jn2 @ jn2, state), "<Jn2^2>"),
            anticomm=_real(expectation(jn1 @ jn2 + jn2 @ jn1, state), "<{Jn1,Jn2}>"),
        )
        method = METHOD_TRANSVERSE

    xi2_std = 2.0 * lam                 # 4 lambda / N at N = 2
    result = SqueezeResult(
        lambda_min=lam,
        chi_min=chi,
        xi2_std=xi2_std,
        xi2_literal=2.0 * xi2_std,
        concurrence=concurrence(state),
        frame_status=frame.status,
        method=method,
    )
    return OraclePoint(
        params=params,
        state=state,
        moments=moments,
        frame=frame,
        frame_moments=frame_moments,
        result=result,
    )


def squeeze_oracle(params: SqueezeParams) -> SqueezeResult:
    """Squeezing parameter and companions for one point, oracle path only."""
    return evaluate_oracle(params).result
