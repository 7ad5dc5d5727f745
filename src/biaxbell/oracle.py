"""Operator oracle: ground truth by direct matrix arithmetic.

Every quantity the closed forms predict is recomputed here from the state
vector and dense operators, with no shared algebra.  The transverse minimum
is a 2x2 eigenvalue, the all-directions one (1 - C)/2, and _certify proves
every result against numbers neither route reads or the call fails loudly.
An exact bisection on the same positive-definiteness test stays as the
reference behind min_transverse_variance_scan and _sphere_scan.

oracle_arrays evaluates a whole grid, given as its (4, n) parameter columns,
as arrays in blocks of rows, states included and frame triads for plane rows alone.
Only the steps numpy rounds differently from math run in math: the frame
angles (acos, hypot) and the 2x2 eigen route (hypot, atan2), both mapped
over columns, and the concurrence (complex abs).  So no value depends on
the rows evaluated with it, and the one-point functions are one-row calls
of the same code.  When a check fails in a block, its rows are evaluated
again one at a time, so the error is the one the earliest failing row
raises alone.

The moments are one contraction over the read-only
SpinOperatorSet.moment_stack that sums exactly as spincore.expectation
does.  The transverse moments and the vectors Jn1 psi, Jn2 psi are
fixed-order sums of that contraction's moments and vectors J psi along n1
and n2 (_plane_moments).  With S the real split (real and imaginary parts)
of the vectors J_k psi, centred for the transverse variance,
<J_u^2> = |u S|^2 = u P u^T with P = S S^T, each row's P a symmetric k x k
matrix.  The 2x2 eigen route builds its covariance from the second-moment
tables, the all-directions route reads the amplitudes alone, and neither
reads P.  By Sylvester's law of inertia, P - (lam - tol) I positive definite
and P - (lam + tol) I not puts min u P u^T in (lam - tol, lam + tol], so no
search and no minimizer is needed.  _bisect_min reads the same P and no
eigen route: min u P u^T is the largest s with P - s I positive definite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .closedform import FrameMoments, MomentSet
from .frame import (
    FULLY_DEGENERATE_CODE, STATUS_VALUES, DegenerateFrameError, FrameStatus, MeanSpin, SpinFrame,
    frame_angles, frame_triad, spin_length,
)
from .spincore import (
    SpinOperatorSet, SqueezeParams, build_spin_operators, math_columns, param_columns, readonly,
    superposition_states,
)

METHOD_TRANSVERSE = "transverse-eigen"
METHOD_ALL_DIRECTIONS = "all-directions"
# the method of a row with a frame, and of a fully-degenerate row
_METHODS = readonly(np.array([METHOD_TRANSVERSE, METHOD_ALL_DIRECTIONS]))

# how far the eigen minima may lie from the Gram minima, the certificate's tol
TRANSVERSE_AGREE_TOL = 1e-8
ALL_DIRECTIONS_AGREE_TOL = 1e-6
_HERMITICITY_TOL = 1e-9
# rows per block: bounds the block's per-row arrays (240 x 12 x 3 vectors op psi)
_BLOCK = 240

# the moment_stack entries checked for reality, in check order, and the
# second-moment table as indices into moment_stack
_REAL = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10]
_REAL_NAMES = ("first moment",) * 3 + ("second moment",) * 6 + ("<Jz^2>",)
_TABLE = np.array([[3, 4, 5], [4, 6, 7], [5, 7, 8]])


@lru_cache(maxsize=None)
def _spin1() -> SpinOperatorSet:
    return build_spin_operators(1.0)


def _state_vector(state: np.ndarray, ops: SpinOperatorSet) -> np.ndarray:
    state = np.asarray(state)
    if state.ndim != 1 or state.shape[0] != ops.dim:
        raise ValueError(
            f"state of length {state.shape} does not match operator dimension {ops.dim}"
        )
    return state


def _real_split(vectors: np.ndarray) -> np.ndarray:
    """Complex vectors w_k as the rows [Re w_k, Im w_k] of one real matrix."""
    return np.concatenate([vectors.real, vectors.imag], axis=-1)


def _gram(split: np.ndarray) -> np.ndarray:
    """The Gram matrices P = S S^T (rows, k, k) of split (rows, k, 2d).  Each
    entry sums real products in a fixed order, with no complex product and no
    matmul, so no bit depends on the rows evaluated with it, and P_ab equals
    P_ba bit for bit."""
    d = split.shape[-1] // 2
    terms = split[:, :, None] * split[:, None]       # (rows, k, k, 2d)
    terms = terms[..., :d] + terms[..., d:]          # real plus imaginary parts
    gram = terms[..., 0] + terms[..., 1]
    for j in range(2, d):
        gram += terms[..., j]
    return gram


def _expectations(stack: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vectors op psi (n, k, d) of each op of a shared stack (k, d, d) and
    each row psi of states (n, d), contracted by einsum as a plain sum of
    products, and <psi| op |psi> (n, k) summed exactly as
    spincore.expectation sums them."""
    vectors = np.einsum("kij,nj->nki", stack, states)
    return vectors, (states.conj()[:, None, None, :] @ vectors[..., None])[..., 0, 0]


def _real(values: np.ndarray, names) -> None:
    """Raise on an imaginary part of values (n, k) beyond _HERMITICITY_TOL,
    the first row first and within it the first check."""
    bad = np.abs(values.imag) > _HERMITICITY_TOL
    if bad.any():
        i, k = np.argwhere(bad)[0]
        imag = values[i, k].imag.item()
        raise RuntimeError(f"{names[k]} should be real, got imaginary part {imag!r}")


def _definite(gram: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per row, whether P - shift I is positive definite, P a k x k matrix of
    gram (rows, k, k): by Sylvester's law of inertia, whether every pivot of
    its LDL^T is > 0; off the diagonal, a finite shift * 0 flips at most the
    sign of a zero.  A Schur step's m_ij - m_i0 m_0j / m_00 keeps a
    symmetric matrix exactly symmetric."""
    k = gram.shape[1]
    m, ok = gram - shift[:, None, None] * np.eye(k), np.ones(len(gram), dtype=bool)
    for _ in range(k - 1):
        ok &= m[:, 0, 0] > 0.0
        pivot = np.where(ok, m[:, 0, 0], 1.0)[:, None, None]   # 1 on rejected rows
        m = m[:, 1:, 1:] - m[:, 1:, :1] * m[:, :1, 1:] / pivot
    return ok & (m[:, 0, 0] > 0.0)


def _certify(what: str, lam, split: np.ndarray, tol: float) -> None:
    """The minimization gate, an exact certificate that reads no minimizer: by
    Sylvester's law of inertia, P - (lam - tol) I positive definite and
    P - (lam + tol) I not (_definite, one call for both shifts) put each row's
    min u P u^T over unit u in (lam - tol, lam + tol], P the _gram of split."""
    lam, gram = np.asarray(lam), _gram(split)
    lower, upper = _definite(np.concatenate([gram, gram]),
                             np.concatenate([lam - tol, lam + tol])).reshape(2, -1)
    if not (lower & ~upper).all():
        i = np.flatnonzero(~(lower & ~upper))[0]
        bound = "above lam + tol" if lower[i] else "at most lam - tol"
        raise RuntimeError(f"{what} minimization mismatch: {lam[i].item()!r} not certified "
                           f"within {tol!r}, min u P u^T is {bound}")


class OracleMoments(NamedTuple):
    mean: MeanSpin
    raising: MomentSet
    table: np.ndarray          # symmetric 3x3, entries <{Ja, Jb}>/2


def _moments(states, ops) -> tuple[np.ndarray, np.ndarray]:
    """The vectors J psi and the twelve moment_stack moments of every row."""
    vectors, values = _expectations(ops.moment_stack, states)
    _real(values[:, _REAL], _REAL_NAMES)
    return vectors, values


def _tables(values: np.ndarray) -> np.ndarray:
    """The second-moment tables (n, 3, 3), entries <{Ja, Jb}>/2."""
    return values.real[:, _TABLE] / 2.0


def _oracle_moments(values: np.ndarray) -> OracleMoments:
    """OracleMoments of one row of twelve moments."""
    v = values.tolist()
    mean, raising = MeanSpin(*(x.real for x in v[:3])), MomentSet(v[9], v[10].real, v[11])
    return OracleMoments(mean, raising, readonly(_tables(values[None])[0]))


def moments_oracle(state: np.ndarray, ops: SpinOperatorSet) -> OracleMoments:
    """All first and second moments of a state, from the matrices alone."""
    return _oracle_moments(_moments(_state_vector(state, ops)[None], ops)[1][0])


def _plane_moments(vectors, mean, tables, directions) -> tuple[np.ndarray, np.ndarray]:
    """The vectors Jn1 psi and Jn2 psi (n, 2, d), and <Jn1>, <Jn2>, <Jn1^2>,
    <Jn2^2> and <{Jn1,Jn2}> (n, 5), from each row's vectors J psi (n, k, d),
    <J> (n, 3), _tables G (n, 3, 3) and n1 and n2 (n, 2, 3):
    Jn_a psi = sum_i n_ai J_i psi, <Jn_a> = n_a . <J> and
    <{Jn_a, Jn_b}>/2 = n_a^T G n_b.  Each sum runs over i = x, y, z in that
    order, with no einsum and no matmul, so no bit depends on the rows
    evaluated with it nor on BLAS."""
    def along(terms):          # the sum over the last axis of length 3, in order
        return terms[..., 0] + terms[..., 1] + terms[..., 2]

    jn = along(directions[:, :, None] * vectors[:, None, :3].swapaxes(2, 3))   # (n, 2, d)
    g_n = along(tables[:, None] * directions[:, :, None])      # (n, 2, 3): G n_b
    form = along(directions[:, :, None] * g_n[:, None])        # (n, 2, 2): n_a . G n_b
    return jn, np.column_stack([along(directions * mean[:, None]),
                                form[:, 0, 0], form[:, 1, 1], 2.0 * form[:, 0, 1]])


def _transverse_split(states, vectors, moments) -> np.ndarray:
    """The real split of ((Jn1 - <Jn1>) psi, (Jn2 - <Jn2>) psi) per row."""
    return _real_split(vectors - moments[:, :2, None] * states[:, None, :])


def _bisect_min(gram: np.ndarray) -> np.ndarray:
    """Reference minimum of u P u^T over unit u per row, P a k x k matrix of
    gram (rows, k, k): the largest shift s with P - s I positive definite
    (_definite), bisected from Gershgorin's bracket once per bit of a float's
    significand, so no tuning constant and no eigen route is read."""
    k = gram.shape[1]
    diag = np.diagonal(gram, axis1=1, axis2=2)
    radius = (np.abs(gram) * (1.0 - np.eye(k))).sum(axis=2)    # |P_ab| off the diagonal
    lo, hi = (diag - radius).min(axis=1), (diag + radius).max(axis=1)
    for _ in range(np.finfo(float).nmant + 1):
        mid = (lo + hi) / 2.0
        below = _definite(gram, mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo


def _transverse_scan(states, vectors, moments) -> tuple[np.ndarray, np.ndarray]:
    """Reference minimum lam of Var(J_chi) per row and its angle chi in
    [0, pi), chi parametrizing cos(chi) n1 + sin(chi) n2: _bisect_min of the
    _gram P of _transverse_split, and the null direction of P - lam I read
    from its larger row, (p, q) or (q, r)."""
    gram = _gram(_transverse_split(states, vectors, moments))
    lam = _bisect_min(gram)
    p, q, r = gram[:, 0, 0] - lam, gram[:, 0, 1], gram[:, 1, 1] - lam
    top = np.abs(p) >= np.abs(r)
    return lam, np.arctan2(np.where(top, p, q), np.where(top, -q, -r)) % math.pi


def _eigen_min(m1, m2, jn1_sq, jn2_sq, anticomm) -> tuple[np.ndarray, np.ndarray]:
    """Smaller eigenvalue of each row's 2x2 transverse covariance matrix and
    its angle in [0, pi), chi = 0 where the minimum is flat, over columns."""
    g11 = jn1_sq - m1 * m1
    g22 = jn2_sq - m2 * m2
    g12 = anticomm / 2.0 - m1 * m2

    gap, off = g11 - g22, 2.0 * g12
    half_gap = math_columns(math.hypot, gap, off) / 2.0
    lam = (g11 + g22) / 2.0 - half_gap
    scale = np.maximum(1.0, np.maximum(np.abs(g11), np.abs(g22)))
    chi = math_columns(math.atan2, -off, -gap) / 2.0
    chi = np.where(chi < 0.0, chi + math.pi, chi)
    chi = np.where(chi >= math.pi, chi - math.pi, chi)
    return lam, np.where(half_gap <= 1e-14 * scale, 0.0, chi)     # flat: isotropic plane


def _transverse(states, vectors, moments) -> tuple[np.ndarray, np.ndarray]:
    """Minima and angles from each row's _plane_moments: the 2x2 eigen
    route, certified on _transverse_split."""
    lam, chi = _eigen_min(*moments.T)
    _certify("transverse", lam, _transverse_split(states, vectors, moments), TRANSVERSE_AGREE_TOL)
    return lam, chi


def _plane_inputs(state, frame: SpinFrame, ops: SpinOperatorSet, what: str):
    """One state (1, d) with its _plane_moments in the frame's transverse
    plane; a fully-degenerate frame has none and raises."""
    psi = _state_vector(state, ops)[None]
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        raise DegenerateFrameError(f"{what} undefined: mean spin below eps")
    vectors, values = _moments(psi, ops)
    directions = np.array([[frame.n1, frame.n2]])
    return psi, *_plane_moments(vectors, values.real[:, :3], _tables(values), directions)


def min_transverse_variance_scan(
    state: np.ndarray, frame: SpinFrame, ops: SpinOperatorSet
) -> tuple[float, float]:
    """Minimum of Var(J_chi) over the transverse plane and its angle chi in
    [0, pi), by bisection (_transverse_scan) on the centred vectors Jn1 psi,
    Jn2 psi of _plane_moments: the reference for min_transverse_variance,
    reading no covariance."""
    val, chi = _transverse_scan(*_plane_inputs(state, frame, ops, "transverse scan"))
    return val.item(), chi.item()


def min_transverse_variance(
    state: np.ndarray, frame: SpinFrame, ops: SpinOperatorSet
) -> tuple[float, float]:
    """Minimal transverse variance and its angle: the smaller eigenvalue of
    the 2x2 transverse covariance matrix, built from the state's mean spin
    and second-moment table along the frame's n1 and n2 (_plane_moments),
    certified within TRANSVERSE_AGREE_TOL of the minimum over the Gram
    matrix of the centred vectors Jn1 psi, Jn2 psi (_certify), or a
    RuntimeError is raised.
    chi_min lies in [0, pi), with chi_min = 0 as the tie-break when the
    minimum is flat.
    """
    lam, chi = _transverse(*_plane_inputs(state, frame, ops, "transverse variance"))
    return lam.item(), chi.item()


def _sphere_min(split: np.ndarray) -> np.ndarray:
    """Minimum of <J_u^2> over all unit directions per row, S the real split
    of (Jx psi, Jy psi, Jz psi), by _bisect_min of its _gram."""
    return _bisect_min(_gram(split))


def _sphere_scan(state: np.ndarray, ops: SpinOperatorSet) -> float:
    """Minimum of <J_u^2> over all unit directions, by bisection alone: the
    reference for min_variance_all_directions."""
    vectors, _ = _expectations(ops.moment_stack[:3], _state_vector(state, ops)[None])
    return _sphere_min(_real_split(vectors)).item()


def _all_directions(vectors, concurrences) -> np.ndarray:
    """Minimum of <J_u^2> over all unit u per row, (1 - C)/2 of its concurrence
    C (Wang & Sanders, PRA 68, 012101 (2003)): a unit spin-1 state is
    e^{i phi}(a + i b), a . b = 0 in the Cartesian basis, with the table
    I - a a^T - b b^T and C = | |a|^2 - |b|^2 |.  Certified on the split of
    (Jx psi, Jy psi, Jz psi), which the identity never reads."""
    lam = (1.0 - concurrences) / 2.0
    _certify("all-direction", lam, _real_split(vectors[:, :3]), ALL_DIRECTIONS_AGREE_TOL)
    return lam


def min_variance_all_directions(
    state: np.ndarray, ops: SpinOperatorSet
) -> tuple[float, np.ndarray]:
    """Minimum of <J_u^2> over all unit vectors u of a unit-norm state, with
    the minimizing u.

    This is the fallback used when the mean spin vanishes and no transverse
    plane is distinguished; there the second moment and the variance
    coincide.  The minimum (1 - C)/2 is certified within ALL_DIRECTIONS_AGREE_TOL
    (_all_directions), or a RuntimeError is raised, as for a norm other than 1;
    u is the eigh eigenvector of the 3x3 second-moment matrix's smallest eigenvalue.
    """
    psi = _state_vector(state, ops)[None]
    vectors, values = _moments(psi, ops)
    (lam,) = _all_directions(vectors, _concurrences(psi)).tolist()
    direction = np.linalg.eigh(_tables(values)[0])[1][:, 0]     # its largest entry made positive
    return lam, readonly(direction * np.sign(direction[np.argmax(np.abs(direction))]))


def concurrence(state: np.ndarray) -> float:
    """Concurrence of a pure two-qubit state given in the j = 1 basis.

    With c_uu = c_{+1}, c_ud = c_du = c_0 / sqrt(2), c_dd = c_{-1}:
    C = 2 |c_uu c_dd - c_ud c_du| = 2 |c_{+1} c_{-1} - c_0^2 / 2|.
    """
    state = np.asarray(state)
    if state.shape != (3,):
        raise ValueError(f"expected a length-3 state, got shape {state.shape}")
    return _concurrences(state[None])[0].item()


def _concurrences(states) -> np.ndarray:
    """concurrence of each state (c_{+1}, c_0, c_{-1}), a row of states (n, 3),
    as Python's complex arithmetic rounds min(2 |c_{+1} c_{-1} - c_0^2 / 2|, 1):
    in real parts, with abs as np.hypot (libm's; numpy's complex abs differs)."""
    columns = np.asarray(states, dtype=complex).T
    (up, zero, down), (upi, zeroi, downi) = columns.real, columns.imag
    re = (up * down - upi * downi) - (zero * zero - zeroi * zeroi) / 2.0
    im = (up * downi + upi * down) - (zero * zeroi + zeroi * zero) / 2.0
    return np.minimum(2.0 * np.hypot(re, im), 1.0)


def _evaluate(grid: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """One block of the pipeline, given as parameter columns: its oracle_arrays record,
    states and moments.  Only the transverse rows get a frame triad, and a block whose
    rows all take one route is evaluated whole, with no row index taken."""
    ops, n = _spin1(), grid.shape[1]
    psi = superposition_states(*grid)
    concurrences = _concurrences(psi)
    vectors, values = _moments(psi, ops)
    re, tables = values.real, _tables(values)
    r = spin_length(re[:, 0], re[:, 1], re[:, 2])
    theta, phi, status = frame_angles(re[:, 0], re[:, 1], re[:, 2], r)
    flat = status == FULLY_DEGENERATE_CODE
    # each route's rows, as the whole block when they are all of it
    plane, sphere = (slice(None) if rows.all() else np.flatnonzero(rows) for rows in (~flat, flat))
    moments = np.full((n, 5), math.nan)
    lam, chi = np.empty(n), np.zeros(n)         # chi = 0 without a transverse plane
    if not flat.all():
        triad = frame_triad(theta[plane], phi[plane])
        jn, moments[plane] = _plane_moments(vectors[plane], re[plane, :3], tables[plane],
                                             triad[:, :2])
        lam[plane], chi[plane] = _transverse(psi[plane], jn, moments[plane])
    if flat.any():
        lam[sphere] = _all_directions(vectors[sphere], concurrences[sphere])
    record = {
        "jx": re[:, 0], "jy": re[:, 1], "jz": re[:, 2], "r": r,
        "jplus_sq": values[:, 9], "jz_sq": re[:, 10], "jplus_2jz1": values[:, 11],
        "xz_anticomm": 2.0 * tables[:, 0, 2],
        "yz_anticomm": 2.0 * tables[:, 1, 2],
        "jx2_plus_jy2": tables[:, 0, 0] + tables[:, 1, 1],
        "jx2_minus_jy2": tables[:, 0, 0] - tables[:, 1, 1],
        "xy_anticomm": 2.0 * tables[:, 0, 1],
        "theta": theta, "phi": phi,
        "frame_status": STATUS_VALUES[status],
        "method": _METHODS[flat.view(np.int8)],
        "lambda_min": lam, "chi_min": chi,
        "xi2_std": 2.0 * lam,               # 4 lambda / N at N = 2
        "xi2_literal": 2.0 * (2.0 * lam),
        "concurrence": concurrences,
        "jn1_sq": moments[:, 2], "jn2_sq": moments[:, 3], "anticomm": moments[:, 4],
    }
    return record, psi, values


def oracle_arrays(grid: np.ndarray) -> dict[str, np.ndarray]:
    """Every oracle quantity over the (4, n) parameter columns of a grid,
    one array per quantity in grid order, named as the fields of MeanSpin,
    MomentSet, CartesianSecondMoments and FrameMoments, with the mean-spin
    length r, the frame angles and status, and the squeezing result;
    lambda_min and chi_min come from whichever minimization ran.  Frame
    entries are NaN where the frame is fully degenerate."""
    records = []
    for block in (grid[:, s:s + _BLOCK] for s in range(0, grid.shape[1], _BLOCK)):
        try:
            records.append(_evaluate(block)[0])
        except RuntimeError:
            for i in range(block.shape[1]):     # the earliest failing row raises its own error
                _evaluate(block[:, i:i + 1])
            raise
    return records[0] if len(records) == 1 else {
        name: np.concatenate([record[name] for record in records])
        for name in (records[0] if records else ())}


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
    """Run the full oracle pipeline for one point: a one-row oracle_arrays
    block, kept as records, its frame built from the block's r, angles and
    status and a triad of its own (the block builds none for a frameless row)."""
    record, (state,), values = _evaluate(param_columns([params]))
    (triad,) = frame_triad(record["theta"], record["phi"])
    one = {name: column.item() for name, column in record.items()}
    moments = _oracle_moments(values[0])
    frame = SpinFrame(*readonly(triad), one["theta"], one["phi"], one["r"],
                      FrameStatus(one["frame_status"]))
    result = SqueezeResult(
        *(one[q] for q in ("lambda_min", "chi_min", "xi2_std", "xi2_literal", "concurrence")),
        frame_status=frame.status, method=one["method"],
    )
    frame_moments = None if frame.status is FrameStatus.FULLY_DEGENERATE else FrameMoments(
        *(one[q] for q in ("jn1_sq", "jn2_sq", "anticomm")))
    return OraclePoint(params, readonly(state), moments, frame, frame_moments, result)


def squeeze_oracle(params: SqueezeParams) -> SqueezeResult:
    """Squeezing parameter and companions for one point, oracle path only."""
    return evaluate_oracle(params).result
