"""Operator oracle: ground truth by direct matrix arithmetic.

Every quantity the closed forms predict is recomputed here from the state
vector and dense operators, with no shared algebra.  Minimizations are done
twice on purpose: an analytic eigenvalue route and a brute grid scan refined
by ever finer local grids.  The two must agree or the call fails loudly;
agreement is the evidence that both are right.

The moments are one contraction over a stack of operators (the read-only
SpinOperatorSet.moment_stack, built once per operator set, or Jn1 and Jn2
and their products) that sums exactly as spincore.expectation does, so each
value equals the per-operator expectation bit for bit.

The scans never form a covariance matrix.  They apply the spin operators to
the state once, split the vectors J_k psi (centred, (J_k - <J_k>) psi, for
the transverse variance) into one real matrix S of real and imaginary parts,
and read <J_u^2> = |u S|^2 for every direction u as row norms.  The coarse
direction tables depend only on TRANSVERSE_GRID and SPHERE_GRID, so they are
built once and kept read-only; refinement grids combine (cos, sin) columns
with the rows of S.
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
)

METHOD_TRANSVERSE = "transverse-eigen"
METHOD_ALL_DIRECTIONS = "all-directions"

TRANSVERSE_GRID = 4096
SPHERE_GRID = (64, 128)
# eigen-versus-scan agreement the two minimizations must reach
TRANSVERSE_AGREE_TOL = 1e-8
ALL_DIRECTIONS_AGREE_TOL = 1e-6
# local refinement: 2k+1 points per axis, span shrinks k-fold per round
_ZOOM_K = 8
_ZOOM_ROUNDS = 6
# same-step moves allowed while the lowest point sits on the grid's edge
_ZOOM_MOVES = 64
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, 2 * _ZOOM_K + 1)
_ZOOM_OFFSETS.setflags(write=False)
_HERMITICITY_TOL = 1e-9


@lru_cache(maxsize=None)
def _spin1() -> SpinOperatorSet:
    return build_spin_operators(1.0)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _transverse_table() -> tuple[np.ndarray, np.ndarray]:
    """The TRANSVERSE_GRID angles chi over [0, pi) and their rows
    (cos chi, sin chi), the coefficients of cos(chi) n1 + sin(chi) n2."""
    chis = _frozen(np.linspace(0.0, math.pi, TRANSVERSE_GRID, endpoint=False))
    return chis, _frozen(np.stack([np.cos(chis), np.sin(chis)], axis=-1))


@lru_cache(maxsize=None)
def _sphere_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SPHERE_GRID polar and azimuth axes and their unit vectors, one
    row per (theta, phi) pair in row-major order."""
    n_theta, n_phi = SPHERE_GRID
    thetas = _frozen(np.linspace(0.0, math.pi, n_theta))
    phis = _frozen(np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False))
    sin_theta, cos_theta = np.sin(thetas)[:, None], np.cos(thetas)[:, None]
    dirs = np.broadcast_arrays(sin_theta * np.cos(phis), sin_theta * np.sin(phis), cos_theta)
    return thetas, phis, _frozen(np.stack(dirs, axis=-1).reshape(-1, 3))


def _state_vector(state: np.ndarray, ops: SpinOperatorSet) -> np.ndarray:
    state = np.asarray(state)
    if state.ndim != 1 or state.shape[0] != ops.dim:
        raise ValueError(
            f"state of length {state.shape} does not match operator dimension {ops.dim}"
        )
    return state


def _real_split(vectors) -> np.ndarray:
    """Complex vectors w_k as the rows [Re w_k, Im w_k] of one real matrix."""
    vectors = np.asarray(vectors)
    return np.concatenate([vectors.real, vectors.imag], axis=-1)


def _norms(w: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of w (any leading shape), squaring w in place;
    a product with a ones vector sums short rows faster than w.sum(-1)."""
    w *= w
    return w @ np.ones(w.shape[-1])


def _expectations(stack: np.ndarray, state: np.ndarray) -> list[complex]:
    """<state| op |state> for every op of a stack, each summed exactly as
    spincore.expectation sums it: a matrix-vector product, then a dot product."""
    return (state.conj()[None, None, :] @ (stack @ state)[..., None])[:, 0, 0].tolist()


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
    state = _state_vector(state, ops)
    values = _expectations(ops.moment_stack, state)
    mean = MeanSpin(*(_real(v, "first moment") for v in values[:3]))
    xx, xy, xz, yy, yz, zz = (_real(v, "second moment") / 2.0 for v in values[3:9])
    table = _frozen(np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]]))
    jplus_sq, jz_sq, jplus_2jz1 = values[9:]
    raising = MomentSet(jplus_sq, _real(jz_sq, "<Jz^2>"), jplus_2jz1)
    return OracleMoments(mean=mean, raising=raising, table=table)


def _transverse_moments(state: np.ndarray, jn1: np.ndarray, jn2: np.ndarray) -> tuple:
    """<Jn1>, <Jn2>, <Jn1^2>, <Jn2^2> and <{Jn1,Jn2}> in one contraction."""
    stack = np.array([jn1, jn2, jn1 @ jn1, jn2 @ jn2, jn1 @ jn2 + jn2 @ jn1])
    names = ("<Jn1>", "<Jn2>", "<Jn1^2>", "<Jn2^2>", "<{Jn1,Jn2}>")
    return tuple(_real(v, what) for v, what in zip(_expectations(stack, state), names))


def _zoom_min(f, best, step) -> tuple[tuple[float, ...], float]:
    """Local minimum of a vectorized f(*coords) near the point best.

    Each round evaluates f on an open grid (as np.ix_ builds) of 2k+1 points
    per axis spanning best +- step and moves to the lowest point.  While that
    point lies on the grid's edge and is strictly below the centre, the next
    grid keeps the step (at most _ZOOM_MOVES times), so a minimum further
    along a flat valley is followed; otherwise step is divided by k.  The
    grid always contains its centre, so the value never rises.
    """
    shapes = [(-1,) + (1,) * k for k in reversed(range(len(best)))]
    centre = (_ZOOM_K,) * len(best)
    rounds = moves = 0
    while rounds < _ZOOM_ROUNDS:
        axes = [b + s * _ZOOM_OFFSETS for b, s in zip(best, step)]
        values = f(*(axis.reshape(shape) for axis, shape in zip(axes, shapes)))
        i = np.unravel_index(values.argmin(), values.shape)
        best = [axis.item(j) for axis, j in zip(axes, i)]
        if (0 in i or 2 * _ZOOM_K in i) and values[i] < values[centre] and moves < _ZOOM_MOVES:
            moves += 1
        else:
            step = [s / _ZOOM_K for s in step]
            rounds += 1
    return tuple(best), float(values[i])


def _ring(angle: np.ndarray, split: np.ndarray) -> np.ndarray:
    """cos(a) S_0 + sin(a) S_1, one row per angle a of a 1-D array, with S_0
    and S_1 the first two rows of a real split."""
    return np.array((np.cos(angle), np.sin(angle))).T @ split[:2]


def min_transverse_variance_scan(
    state: np.ndarray, frame: SpinFrame, ops: SpinOperatorSet
) -> tuple[float, float]:
    """Brute minimum of Var(J_chi) over the transverse plane.

    chi parametrizes the direction cos(chi) n1 + sin(chi) n2 over [0, pi).
    The cached table of TRANSVERSE_GRID directions locates the basin and
    _zoom_min refines it.  This route never forms a covariance matrix: with
    S the real split of the centred vectors ((Jn1 - <Jn1>) psi, (Jn2 - <Jn2>)
    psi), the variance at every direction row c is |c S|^2.
    """
    state = _state_vector(state, ops)
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        raise DegenerateFrameError("transverse scan undefined: mean spin below eps")
    jn1, jn2 = project_transverse_operators(frame, ops)
    w1, w2 = jn1 @ state, jn2 @ state
    m1 = _real(complex(np.vdot(state, w1)), "<Jn1>")
    m2 = _real(complex(np.vdot(state, w2)), "<Jn2>")
    split = _real_split([w1 - m1 * state, w2 - m2 * state])
    chis, dirs = _transverse_table()
    i = int(np.argmin(_norms(dirs @ split)))
    (chi_min,), val = _zoom_min(
        lambda chi: _norms(_ring(chi, split)), (chis[i],), (math.pi / TRANSVERSE_GRID,)
    )
    return val, chi_min % math.pi


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
    state = _state_vector(state, ops)
    m1, m2, jn1_sq, jn2_sq, anticomm = _transverse_moments(
        state, *project_transverse_operators(frame, ops)
    )
    g11 = jn1_sq - m1 * m1
    g22 = jn2_sq - m2 * m2
    g12 = anticomm / 2.0 - m1 * m2

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


def _sphere_scan(state: np.ndarray, ops: SpinOperatorSet) -> float:
    """Minimum of <J_u^2> over all unit directions: the cached SPHERE_GRID
    table of polar and azimuth angles, refined by _zoom_min.  <J_u^2> is
    |u S|^2 with S the real split of (Jx psi, Jy psi, Jz psi)."""
    state = _state_vector(state, ops)
    split = _real_split(ops.moment_stack[:3] @ state)
    thetas, phis, dirs = _sphere_table()
    i_theta, i_phi = divmod(int(np.argmin(_norms(dirs @ split))), phis.size)
    _, val = _zoom_min(
        lambda theta, phi: _norms(
            np.sin(theta)[..., None] * _ring(phi, split) + np.cos(theta)[..., None] * split[2]
        ),
        (thetas[i_theta], phis[i_phi]),
        (math.pi / (thetas.size - 1), 2.0 * math.pi / phis.size),
    )
    return val


def min_variance_all_directions(
    state: np.ndarray, ops: SpinOperatorSet
) -> tuple[float, np.ndarray]:
    """Minimum of <J_u^2> over all unit vectors u, with the minimizing u.

    This is the fallback used when the mean spin vanishes and no transverse
    plane is distinguished; there the second moment and the variance
    coincide.  The primary route diagonalizes the 3x3 symmetric
    second-moment matrix; the spherical grid scan _sphere_scan must agree
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
        _, _, *second = _transverse_moments(state, *project_transverse_operators(frame, ops))
        frame_moments = FrameMoments(*second)
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
