"""Operator-oracle moments, variance minimization, concurrence."""
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaxbell import (
    METHOD_ALL_DIRECTIONS,
    METHOD_TRANSVERSE,
    DegenerateFrameError,
    FrameStatus,
    SqueezeParams,
    build_spin_operators,
    build_superposition_state,
    compute_frame,
    concurrence,
    evaluate_oracle,
    mean_spin_length,
    min_transverse_variance,
    min_transverse_variance_scan,
    min_variance_all_directions,
    moments_oracle,
    oracle,
    project_transverse_operators,
    squeeze_oracle,
)
from biaxbell.cli import FIG1_BETA_STEPS, FIG1_MUS, FIG1_NU_STEPS
from biaxbell.oracle import (
    _BLOCK,
    _bisect_min,
    _certify,
    _concurrences,
    _definite,
    _expectations,
    _gram,
    _moments,
    _plane_moments,
    _real_split,
    _sphere_min,
    _sphere_scan,
    _tables,
    _transverse_scan,
    oracle_arrays,
)
from biaxbell.spincore import expectation, param_columns

OPS = build_spin_operators(1.0)

P1 = SqueezeParams(beta=0.6, mu=math.pi / 3, nu=math.pi / 4)
P2 = SqueezeParams(beta=0.6, mu=math.pi / 2, nu=-math.pi / 3)
P6 = SqueezeParams(beta=0.3, mu=2 * math.pi / 3, nu=1.9)

params_st = st.builds(
    SqueezeParams,
    beta=st.floats(0.0, 1.0),
    mu=st.floats(0.0, math.pi),
    nu=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)


def _state(beta, mu, nu):
    return build_superposition_state(SqueezeParams(beta=beta, mu=mu, nu=nu))


# ---------------------------------------------------------------------------
# moments


def test_moments_polar_coherent():
    m = moments_oracle(_state(0.0, 0.0, 0.0), OPS)
    np.testing.assert_allclose([m.mean.jx, m.mean.jy, m.mean.jz], [0, 0, 1], atol=1e-15)
    assert m.table[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert m.table[1, 1] == pytest.approx(0.5, abs=1e-14)
    assert m.table[2, 2] == pytest.approx(1.0, abs=1e-14)


def test_moments_bell_state():
    m = moments_oracle(np.array([0, 1, 0], dtype=complex), OPS)
    assert mean_spin_length(m.mean) < 1e-15
    assert m.table[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert m.table[1, 1] == pytest.approx(1.0, abs=1e-14)
    assert abs(m.table[2, 2]) < 1e-15


def test_moments_equatorial_raising():
    m = moments_oracle(_state(0.0, math.pi / 2, 0.0), OPS)
    assert m.raising.jplus_sq == pytest.approx(-1.0, abs=1e-14)
    assert m.raising.jz_sq == pytest.approx(1.0, abs=1e-14)


def test_moments_generic_point_frozen():
    m = moments_oracle(build_superposition_state(P1), OPS)
    assert m.mean.jx == pytest.approx(0.3035786553761646, abs=1e-13)
    assert m.mean.jy == pytest.approx(0.6071573107523289, abs=1e-13)
    assert m.mean.jz == pytest.approx(0.512, abs=1e-13)
    assert m.raising.jplus_2jz1.real == pytest.approx(0.6071573107523289, abs=1e-13)
    assert m.raising.jplus_2jz1.imag == pytest.approx(0.3035786553761646, abs=1e-13)


def test_moments_table_symmetric():
    m = moments_oracle(build_superposition_state(P6), OPS)
    np.testing.assert_allclose(m.table, m.table.T, atol=0)


def _moment_test_states():
    """Seeded random spin-1 states and family points, the edges included."""
    rng = np.random.default_rng(7)
    states = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(300)]
    states = [s / np.linalg.norm(s) for s in states]
    edges = [(b, m, n) for b in (0.0, 0.37, 1.0) for m in (0.0, math.pi / 2, math.pi, 1.1)
             for n in (0.0, math.pi, -0.7, 2.3)]
    return states + [_state(*p) for p in edges]


def test_stacked_moments_equal_per_operator_expectations():
    # one contraction over the cached stack must sum exactly as expectation()
    cart = (OPS.jx, OPS.jy, OPS.jz)
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    assert OPS.moment_stack is OPS.moment_stack
    for state in _moment_test_states():
        m = moments_oracle(state, OPS)
        mean = [expectation(op, state).real for op in cart]
        assert [m.mean.jx, m.mean.jy, m.mean.jz] == mean
        assert all(type(v) is float for v in (m.mean.jx, m.mean.jy, m.mean.jz))
        for a, b in pairs:
            sym = cart[a] @ cart[b] + cart[b] @ cart[a]
            assert m.table[a, b] == m.table[b, a] == expectation(sym, state).real / 2.0
        assert m.raising.jplus_sq == expectation(OPS.jplus @ OPS.jplus, state)
        assert m.raising.jz_sq == expectation(OPS.jz @ OPS.jz, state).real
        two_jz_plus_1 = 2.0 * OPS.jz + np.eye(3)
        assert m.raising.jplus_2jz1 == expectation(OPS.jplus @ two_jz_plus_1, state)
        assert type(m.raising.jplus_sq) is complex


def _plain_plane_moments(mean, table, n1, n2):
    """<Jn1>, <Jn2>, <Jn1^2>, <Jn2^2> and <{Jn1,Jn2}> in Python floats, each
    sum over x, y, z in order: n_a . <J> and n_a^T G n_b as n_a . (G n_b)."""
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    g_n1, g_n2 = ([dot(row, n) for row in table] for n in (n1, n2))
    return [dot(n1, mean), dot(n2, mean), dot(n1, g_n1), dot(n2, g_n2), 2.0 * dot(n1, g_n2)]


def test_transverse_moments_equal_per_operator_expectations():
    # _plane_moments sums as the plain-float contraction does, bit for bit,
    # and meets the brakets of Jn1, Jn2 and their products within rounding
    checked, worst = 0, 0.0
    for state in _moment_test_states():
        frame = _frame_of(state)
        if frame.status is FrameStatus.FULLY_DEGENERATE:
            continue
        m = moments_oracle(state, OPS)
        n1, n2 = frame.n1.tolist(), frame.n2.tolist()
        vectors, values = _moments(state[None], OPS)
        _, moments = _plane_moments(vectors, values.real[:, :3], _tables(values),
                                    np.array([[n1, n2]]))
        mean = [m.mean.jx, m.mean.jy, m.mean.jz]
        assert moments[0].tolist() == _plain_plane_moments(mean, m.table.tolist(), n1, n2)
        jn1, jn2 = project_transverse_operators(frame, OPS)
        ops = (jn1, jn2, jn1 @ jn1, jn2 @ jn2, jn1 @ jn2 + jn2 @ jn1)
        brakets = [expectation(op, state).real for op in ops]
        worst = max(worst, np.abs(moments[0] - brakets).max())
        checked += 1
    assert checked >= 300
    assert worst <= 8e-16          # about twice the worst measured, 3.9e-16


def test_moments_reality_check_still_fires():
    # J+ is not Hermitian: its expectation has an imaginary part
    state = build_superposition_state(P1)
    with pytest.raises(RuntimeError, match="first moment should be real"):
        moments_oracle(state, dataclasses.replace(OPS, jx=OPS.jplus))


def test_moments_dimension_mismatch():
    with pytest.raises(ValueError):
        moments_oracle(np.ones(4, dtype=complex), OPS)


# ---------------------------------------------------------------------------
# transverse minimization


def _frame_of(state):
    return compute_frame(moments_oracle(state, OPS).mean)


def test_transverse_coherent_tie_break():
    state = _state(0.0, 0.0, 0.0)
    lam, chi = min_transverse_variance(state, _frame_of(state), OPS)
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert chi == 0.0


def test_transverse_generic_point_frozen():
    state = build_superposition_state(P1)
    lam, chi = min_transverse_variance(state, _frame_of(state), OPS)
    assert lam == pytest.approx(0.2368194536064644, abs=1e-13)
    assert chi == pytest.approx(0.909786669466138, abs=1e-10)


def test_transverse_minimum_along_n2():
    # anticommutator vanishes and Var(Jn2) < Var(Jn1) at this point, so the
    # minimizing angle is pi/2 exactly
    state = _state(0.5, 0.0, -math.pi / 3)
    lam, chi = min_transverse_variance(state, _frame_of(state), OPS)
    assert lam == pytest.approx(0.375, abs=1e-12)
    assert chi == pytest.approx(math.pi / 2, abs=1e-10)


def test_transverse_refuses_degenerate_frame():
    state = _state(1.0, 0.3, 0.2)
    with pytest.raises(DegenerateFrameError):
        min_transverse_variance(state, _frame_of(state), OPS)


@given(params_st)
@settings(max_examples=200, deadline=None)
def test_eigen_and_scan_agree(p):
    state = build_superposition_state(p)
    frame = _frame_of(state)
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        return
    lam, chi = min_transverse_variance(state, frame, OPS)
    lam_scan, _ = min_transverse_variance_scan(state, frame, OPS)
    assert abs(lam - lam_scan) <= 1e-8
    assert 0.0 <= chi < math.pi
    assert lam >= -1e-12


def test_scan_finds_the_eigen_angle():
    # the scan's chi is returned but never gated; where the 2x2 covariance has
    # a clear eigen gap its minimizing angle is unique mod pi and must match
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(2000):
        beta, mu, nu = rng.uniform([0.0, 0.0, -math.pi], [1.0, math.pi, math.pi])
        state = _state(beta, mu, nu)
        frame = _frame_of(state)
        if frame.status is FrameStatus.FULLY_DEGENERATE:
            continue
        lam, chi = min_transverse_variance(state, frame, OPS)
        lam_scan, chi_scan = min_transverse_variance_scan(state, frame, OPS)
        assert abs(lam_scan - lam) <= 1e-12, (beta, mu, nu)
        jn1, jn2 = project_transverse_operators(frame, OPS)
        m1, m2 = (expectation(j, state).real for j in (jn1, jn2))
        g11 = expectation(jn1 @ jn1, state).real - m1 * m1
        g22 = expectation(jn2 @ jn2, state).real - m2 * m2
        g12 = expectation(jn1 @ jn2 + jn2 @ jn1, state).real / 2.0 - m1 * m2
        if math.hypot(g11 - g22, 2.0 * g12) < 1e-3:
            continue
        d = (chi_scan - chi) % math.pi
        assert min(d, math.pi - d) <= 1e-6, (beta, mu, nu)
        checked += 1
    assert checked >= 1500


@given(params_st, st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=100, deadline=None)
def test_lambda_invariant_under_global_phase(p, gamma):
    state = build_superposition_state(p)
    frame = _frame_of(state)
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        return
    lam, _ = min_transverse_variance(state, frame, OPS)
    rotated = state * complex(math.cos(gamma), math.sin(gamma))
    lam_rot, _ = min_transverse_variance(rotated, frame, OPS)
    assert lam_rot == pytest.approx(lam, abs=1e-12)


@given(params_st)
@settings(max_examples=100, deadline=None)
def test_lambda_invariant_under_nu_period(p):
    shifted = SqueezeParams(beta=p.beta, mu=p.mu, nu=p.nu + 2.0 * math.pi)
    assert squeeze_oracle(shifted).lambda_min == pytest.approx(
        squeeze_oracle(p).lambda_min, abs=1e-12
    )


@given(params_st)
@settings(max_examples=150, deadline=None)
def test_uncertainty_product_bound(p):
    # Var(Jn1) Var(Jn2) >= |<Jn3>|^2 / 4 with the frame aligned to the mean
    point = evaluate_oracle(p)
    if point.result.frame_status is FrameStatus.FULLY_DEGENERATE:
        return
    fm = point.frame_moments
    r = point.frame.r
    assert fm.jn1_sq * fm.jn2_sq >= 0.25 * r * r - 1e-9


def _batch_test_grid():
    """At least 3,000 seeded points: random ones, the beta in {0, 1} and
    mu in {0, pi/2, pi} edges, and zero-mean (fully-degenerate) lines."""
    rng = np.random.default_rng(20261018)
    points = [tuple(p) for p in rng.uniform([0.0, 0.0, -math.pi], [1.0, math.pi, math.pi],
                                            size=(2400, 3))]
    points += [(b, m, n) for n in rng.uniform(-2 * math.pi, 2 * math.pi, 40)
               for b in (0.0, 1.0, rng.uniform()) for m in (0.0, math.pi / 2, math.pi)]
    points += [(b, math.pi / 2, n) for b in rng.uniform(0.0, 1.0, 120) for n in (0.0, math.pi)]
    points += [(1.0, m, n) for m, n in rng.uniform([0.0, -math.pi], [math.pi, math.pi], (100, 2))]
    return [SqueezeParams(beta=float(b), mu=float(m), nu=float(n)) for b, m, n in points]


def test_oracle_columns_do_not_depend_on_batch_composition():
    grid = _batch_test_grid()
    columns = param_columns(grid)
    whole = oracle_arrays(columns)
    status = whole["frame_status"].tolist()
    assert len(grid) >= 3000 and len(grid) > _BLOCK
    assert status.count("fully-degenerate") >= 200 and status.count("polar-degenerate") >= 40

    def exact(record):      # repr tells -0.0 from 0.0 and compares NaN with NaN
        return {name: list(map(repr, column.tolist())) for name, column in record.items()}

    expected = exact(whole)
    for size in (1, 7):
        parts = [oracle_arrays(columns[:, i:i + size]) for i in range(0, len(grid), size)]
        joined = {name: np.concatenate([part[name] for part in parts]) for name in whole}
        assert exact(joined) == expected, size


def _one_route_block(frameless):
    """A seeded block of _BLOCK rows that all take one route: mu = pi/2,
    nu = 0 has no mean spin on any beta, and the plane rows keep mu and nu
    away from the zero-mean lines."""
    rng = np.random.default_rng(20261021)
    beta = rng.uniform(0.0, 1.0, _BLOCK)
    if frameless:
        return param_columns([SqueezeParams(b, math.pi / 2, 0.0) for b in beta.tolist()])
    mu, nu = rng.uniform([0.0, 0.2], [math.pi / 2 - 0.2, math.pi - 0.2], (_BLOCK, 2)).T
    return param_columns([SqueezeParams(*p) for p in zip(beta.tolist(), mu.tolist(),
                                                         nu.tolist())])


@pytest.mark.parametrize("frameless", [True, False], ids=["frameless", "plane"])
def test_one_route_block_is_its_one_row_calls(frameless):
    columns = _one_route_block(frameless)
    whole = oracle_arrays(columns)
    flat = whole["frame_status"] == "fully-degenerate"
    assert len(flat) == _BLOCK and (flat.all() if frameless else not flat.any())
    parts = [oracle_arrays(columns[:, i:i + 1]) for i in range(_BLOCK)]
    for name, column in whole.items():      # repr tells -0.0 from 0.0, NaN equals NaN
        joined = np.concatenate([part[name] for part in parts])
        assert list(map(repr, column.tolist())) == list(map(repr, joined.tolist())), name


@pytest.fixture(scope="module")
def scan_rows():
    """The scan inputs of 1,400 states: 700 family points of the batch grid
    (fully-degenerate ones included) and 700 random normalized spin-1
    states.  Returns the sphere split of every state, and the states, the
    vectors Jn1 psi, Jn2 psi and the transverse moments of those that have a
    transverse plane."""
    rng = np.random.default_rng(14)
    states = [build_superposition_state(p) for p in _batch_test_grid()[::4][:700]]
    for z in rng.normal(size=(700, 3)) + 1j * rng.normal(size=(700, 3)):
        states.append(z / np.linalg.norm(z))
    psi = np.array(states)
    vectors, values = _moments(psi, OPS)
    sphere = _real_split(vectors[:, :3])
    frames = [_frame_of(state) for state in states]
    plane = [i for i, f in enumerate(frames) if f.status is not FrameStatus.FULLY_DEGENERATE]
    directions = np.array([[frames[i].n1, frames[i].n2] for i in plane])
    return sphere, (psi[plane], *_plane_moments(vectors[plane], values.real[plane, :3],
                                                _tables(values[plane]), directions))


def test_scans_do_not_depend_on_batch(scan_rows):
    # every scan value and transverse angle, bit for bit, whatever rows share
    # the call: each row bisects its own bracket, and each bisection step is
    # per-row arithmetic
    sphere, transverse = scan_rows
    assert len(sphere) >= 1000 and len(transverse[0]) >= 1000
    whole = (*_transverse_scan(*transverse), _sphere_min(sphere))
    for size in (1, 7):
        parts = [(*_transverse_scan(*(a[i:i + size] for a in transverse)),
                  _sphere_min(sphere[i:i + size])) for i in range(0, len(sphere), size)]
        for k, column in enumerate(whole):
            assert np.concatenate([part[k] for part in parts]).tobytes() == column.tobytes()


def test_scan_minimum_is_the_direct_value_at_its_minimizer(scan_rows):
    # the transverse reference's chi is the null direction of P - lam I; at
    # it, |cos chi S_0 + sin chi S_1|^2, the squared norm of the direction's
    # combination of the centred split S itself, is lam
    _, (psi, vectors, moments) = scan_rows
    split = _real_split(vectors - moments[:, :2, None] * psi[:, None, :])
    lam, chi = _transverse_scan(psi, vectors, moments)
    combo = np.cos(chi)[:, None] * split[:, 0] + np.sin(chi)[:, None] * split[:, 1]
    assert np.abs((combo ** 2).sum(axis=-1) - lam).max() <= 1e-14


def _synthetic_split(eigvecs, eigvals, rng):
    """A split S (k, 6) with S S^T = V diag(eigvals) V^T, V the columns
    eigvecs orthonormalized in order, through seeded orthonormal rows."""
    v = np.linalg.qr(np.array(eigvecs, dtype=float).T)[0]
    rows = np.linalg.qr(rng.normal(size=(6, len(eigvals))))[0].T
    return v @ (np.sqrt(eigvals)[:, None] * rows)


@pytest.mark.parametrize("eigvecs, eigvals", [
    ([(1, 1, 0), (1, -1, 0), (0, 0, 1)], (0.1, 0.5, 0.9)),          # two equal components
    ([(1, -1, 0), (1, 1, 1), (0, 0, 1)], (0.3, 0.31, 0.9)),
    ([(0, 1, -1), (1, 0, 0), (0, 1, 1)], (0.0, 0.4, 0.7)),
    ([(1, 1, 1), (1, -1, 0), (1, 1, -2)], (0.1, 0.5, 0.9)),         # three equal components
    ([(-1, 1, 1), (1, 1, 0), (1, 0, 1)], (0.0, 0.6, 1.2)),
    # lambda_1 ~ lambda_2: a flat valley through (1, 1, 1) and (1, -1, 0)
    ([(1, 1, 1), (1, -1, 0), (1, 1, -2)], (0.25, 0.25 + 1e-9, 0.8)),
    ([(1, 1, 1), (1, -1, 0), (1, 1, -2)], (0.25, 0.25, 0.8)),
])
def test_scans_reach_minimizers_on_chart_boundaries(eigvecs, eigvals):
    # minimizers with two or three equal components on the sphere, and at
    # chi = pi/4 and 3 pi/4 on the transverse circle: the bisection halves an
    # eigenvalue bracket and reads no direction, so it meets eigvalsh within
    # 1e-12 wherever the minimizer points, and the null direction of
    # P - lam I gives the angle
    rng = np.random.default_rng(20)
    split = _synthetic_split(eigvecs, eigvals, rng)
    lam = np.linalg.eigvalsh(split @ split.T)[0]
    assert abs(_sphere_min(split[None]).item() - lam) <= 1e-12
    for chi in (math.pi / 4, 3 * math.pi / 4):
        plane = _synthetic_split([(math.cos(chi), math.sin(chi)), (-math.sin(chi), math.cos(chi))],
                                 eigvals[:2], rng)
        vectors = (plane[:, :3] + 1j * plane[:, 3:])[None]
        val, angle = _transverse_scan(np.zeros((1, 3)), vectors, np.zeros((1, 5)))
        assert abs(val.item() - np.linalg.eigvalsh(plane @ plane.T)[0]) <= 1e-12
        if eigvals[1] - eigvals[0] > 1e-3:
            assert abs(angle.item() - chi) <= 1e-6


def test_seed_skips_a_saddle_on_a_cube_edge():
    # at beta = 0.06, mu = 0, nu = pi/4 the middle eigenvector (1, -1, 0) is a
    # saddle of the Rayleigh quotient 3.6e-3 above its minimum, which lies
    # near (1, 1, 0); the bisection tests P - s I for definiteness and visits
    # no direction, so no saddle can hold it
    state = _state(0.06, 0.0, math.pi / 4)
    lam = np.linalg.eigvalsh(moments_oracle(state, OPS).table)[0]
    assert abs(_sphere_scan(state, OPS) - lam) <= 1e-12


@pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
def test_scans_reject_wrong_state_shape(shape):
    message = r"state of length .* does not match operator dimension 3"
    state = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match=message):
        min_transverse_variance_scan(state, _frame_of(build_superposition_state(P1)), OPS)
    with pytest.raises(ValueError, match=message):
        _sphere_scan(state, OPS)


@pytest.mark.parametrize(
    "table",
    [OPS.moment_stack],
    ids=["moment_stack"],
)
def test_scan_tables_are_read_only(table):
    # every moments_oracle call and every oracle block share the moment
    # stack; a write would corrupt all later calls
    with pytest.raises(ValueError):
        table[(0,) * table.ndim] = 0.0


# ---------------------------------------------------------------------------
# all-directions fallback


def test_all_directions_bell_state():
    lam, direction = min_variance_all_directions(np.array([0, 1, 0], dtype=complex), OPS)
    assert lam == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(direction, [0.0, 0.0, 1.0], atol=1e-9)


def test_all_directions_equatorial_biaxial():
    lam, direction = min_variance_all_directions(_state(0.0, math.pi / 2, 0.0), OPS)
    assert lam == pytest.approx(0.0, abs=1e-12)
    # (1, 0, -1)/sqrt(2) is the null eigenstate of Jx, so u = x
    np.testing.assert_allclose(direction, [1.0, 0.0, 0.0], atol=1e-9)


def test_all_directions_coherent():
    lam, _ = min_variance_all_directions(_state(0.0, 0.0, 0.0), OPS)
    assert lam == pytest.approx(0.5, abs=1e-9)


def test_all_directions_rejects_a_state_of_norm_two():
    # (1 - C)/2 holds for unit states only: at norm 2 the identity still
    # reads 0.5 while min <J_u^2> is 2.0, and the certificate refuses it
    with pytest.raises(RuntimeError, match=r"^all-direction minimization mismatch: 0\.5 "):
        min_variance_all_directions(2.0 * _state(0.0, 0.0, 0.0), OPS)


def test_sphere_scan_meets_smallest_eigenvalue():
    # every zero-mean sweep input (mu = pi/2, nu in {0, pi}) and a Bell-weight-one
    # grid; the gate is 1e-6, so this catches a bracket or a halving count
    # that leaves the bisection short
    inputs = [(b, math.pi / 2, nu) for nu in (0.0, math.pi) for b in np.linspace(0.0, 1.0, 101)]
    inputs += [
        (1.0, mu, nu)
        for mu in np.linspace(0.0, math.pi, 13)
        for nu in np.linspace(-math.pi, math.pi, 7)
    ]
    for beta, mu, nu in inputs:
        state = _state(float(beta), float(mu), float(nu))
        lam = np.linalg.eigvalsh(moments_oracle(state, OPS).table)[0]
        assert abs(_sphere_scan(state, OPS) - lam) <= 1e-12, (beta, mu, nu)


@pytest.mark.parametrize("seed, index", [(0, 230), (1, 381), (3, 231), (3, 497), (4, 350)])
def test_all_directions_on_random_states(seed, index):
    # generic spin-1 states with a flat valley or a minimizer near the pole:
    # the certified eigen route and the bisection both meet eigvalsh
    rng = np.random.default_rng(seed)
    states = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(index + 1)]
    state = states[index] / np.linalg.norm(states[index])
    lam, _ = min_variance_all_directions(state, OPS)
    assert abs(lam - np.linalg.eigvalsh(moments_oracle(state, OPS).table)[0]) <= 1e-10
    assert abs(_sphere_scan(state, OPS) - lam) <= 1e-10


# rows of 20,000 seeded random states whose minimizer lies within 1.4 degrees
# of a pole, where phi is ill-conditioned; a search over directions missed
# their minima by 3.4e-6 to 3.2e-4, and the bisection reads no direction
_POLE_WEDGE_ROWS = {1: [10449], 3: [5193], 5: [814, 6723], 6: [9142, 15828],
                    7: [2492, 13993], 8: [7426], 9: [3125, 5890], 10: [6393]}


@pytest.mark.parametrize("seed", list(_POLE_WEDGE_ROWS))
def test_all_directions_near_the_pole(seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(20000, 3)) + 1j * rng.normal(size=(20000, 3))
    for state in states[_POLE_WEDGE_ROWS[seed]]:
        state = state / np.linalg.norm(state)
        min_variance_all_directions(state, OPS)
        smallest = np.linalg.eigvalsh(moments_oracle(state, OPS).table)[0]
        assert abs(_sphere_scan(state, OPS) - smallest) <= 1e-9


@pytest.mark.parametrize("eigvecs, eigvals", [
    ([(1, 1, 1), (1, -1, 0), (1, 1, -2)], (0.1, 0.5, 0.9)),
    ([(1, 1, 1), (1, -1, 0), (1, 1, -2)], (0.25, 0.25 + 1e-9, 0.8)),
    ([(1, 1, 1), (1, -1, 0), (1, 1, -2)], (0.25, 0.25, 0.8)),
    ([(0, 1, -1), (1, 0, 0), (0, 1, 1)], (0.0, 0.0, 1.0)),
    ([(1, 2), (-2, 1)], (0.2, 0.7)),
    ([(1, 2), (-2, 1)], (0.5, 0.5)),
])
def test_certificate_brackets_the_smallest_eigenvalue(eigvecs, eigvals):
    # eigvalsh's smallest eigenvalue passes and lam -+ 2 tol fails, each on
    # its own side of the bracket, also where the smallest eigenvalues tie
    # and the shifted matrix's pivots are as small as tol
    split = _synthetic_split(eigvecs, eigvals, np.random.default_rng(21))[None]
    lam = np.linalg.eigvalsh(split[0] @ split[0].T)[0]
    for tol in (1e-8, 1e-6):
        _certify("test", [lam], split, tol)
        for wrong, bound in ((lam - 2.0 * tol, "above lam \\+ tol"),
                             (lam + 2.0 * tol, "at most lam - tol")):
            message = (rf"^test minimization mismatch: {re.escape(repr(float(wrong)))} not "
                       rf"certified within {re.escape(repr(tol))}, min u P u\^T is {bound}$")
            with pytest.raises(RuntimeError, match=message):
                _certify("test", [wrong], split, tol)


@pytest.mark.parametrize("k", [2, 3], ids=["circle", "sphere"])
def test_definite_is_the_sign_of_the_smallest_eigenvalue(k):
    # P - s I is positive definite exactly when s lies below eigvalsh's
    # smallest eigenvalue, down to shifts 1e-9 from it, on seeded random P
    rng = np.random.default_rng(22)
    split = rng.normal(size=(300, k, 6)) * rng.uniform(0.01, 2.0, (300, 1, 1))
    gram = _gram(split)
    lam = np.linalg.eigvalsh(split @ split.transpose(0, 2, 1))[:, 0]
    for offset in (1e-9, 1e-6, 1e-3, 0.1):
        assert _definite(gram, lam - offset).all(), offset
        assert not _definite(gram, lam + offset).any(), offset


@pytest.mark.parametrize("k", [2, 3], ids=["circle", "sphere"])
def test_bisect_min_meets_eigvalsh(k):
    # within a few units in the last place of the largest eigenvalue, on
    # seeded random P whose scales span four orders of magnitude
    rng = np.random.default_rng(23)
    split = rng.normal(size=(300, k, 6)) * rng.uniform(0.01, 2.0, (300, 1, 1))
    eig = np.linalg.eigvalsh(split @ split.transpose(0, 2, 1))
    assert np.all(np.abs(_bisect_min(_gram(split)) - eig[:, 0]) <= 2e-15 * eig[:, -1])


@pytest.mark.parametrize("k", [2, 3], ids=["circle", "sphere"])
def test_gram_is_exactly_symmetric(k):
    # each Schur step of _definite keeps its matrix symmetric only if P is,
    # bit for bit; then P and its transpose give the same verdicts
    rng = np.random.default_rng(28)
    split = rng.normal(size=(300, k, 6)) * rng.uniform(0.01, 2.0, (300, 1, 1))
    gram = _gram(split)
    assert np.array_equal(gram.view(np.uint64), gram.transpose(0, 2, 1).view(np.uint64))
    lam = np.linalg.eigvalsh(split @ split.transpose(0, 2, 1))[:, 0]
    for shift in (lam - 1e-9, lam + 1e-9, lam, rng.uniform(-1.0, 3.0, 300)):
        assert np.array_equal(_definite(gram, shift), _definite(gram.transpose(0, 2, 1), shift))


def _reference_digests():
    """SHA-256 of _sphere_min's minima and of _transverse_scan's minima and
    angles on seeded random inputs, rows whose scales span 0.01 to 2."""
    rng = np.random.default_rng(29)
    split = rng.normal(size=(500, 3, 6)) * rng.uniform(0.01, 2.0, (500, 1, 1))
    scale = rng.uniform(0.01, 2.0, (500, 1))
    states = (rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))) * scale
    vectors = (rng.normal(size=(500, 2, 3)) + 1j * rng.normal(size=(500, 2, 3))) * scale[..., None]
    moments = rng.normal(size=(500, 5))
    lam, chi = _transverse_scan(states, vectors, moments)
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in (_sphere_min(split), np.stack([lam, chi]))]


def test_reference_bits_are_pinned():
    # the bisection reference is elementwise numpy arithmetic with no matmul,
    # so its bits depend on no BLAS build; a change to how P is stored or
    # reduced must keep every minimum and angle bit for bit
    assert _reference_digests() == [
        "601fe7584ea084e59db9931a32f3d76586c14ea8d2e32973cfc56b021240b395",
        "936a62cf39563c3dbaa8bd6d595cee0d4c9ee2a56a275d266fd5d2d654f9d243",
    ]


def _tied_matrix():
    v = np.linalg.qr(np.array([(1, 1, 1), (1, -1, 0), (1, 1, -2)], dtype=float).T)[0]
    return v @ np.diag([0.25, 0.25, 0.8]) @ v.T


@pytest.mark.parametrize("p, exact", [
    (0.7 * np.eye(3), True),
    (np.diag([0.9, 0.5, 0.2]), True),      # the zero pivot comes last
    (np.zeros((3, 3)), True),
    (np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) / 14.0, False),
    (_tied_matrix(), False),
], ids=["scalar", "diagonal", "zero", "rank_one", "tied"])
def test_bisect_min_on_special_matrices(p, exact):
    # a diagonal P's Gershgorin bracket starts at its smallest entry, which
    # comes back exactly, and a shift equal to it is not definite (a zero
    # pivot fails); a singular P and a tied smallest pair land within
    # rounding of eigvalsh
    gram = p[None]
    lam = np.linalg.eigvalsh(p)[0]
    got = _bisect_min(gram)
    if exact:
        assert got.item() == np.diag(p).min()
        assert not _definite(gram, got).any()
    else:
        assert abs(got.item() - lam) <= 1e-15


@pytest.mark.parametrize("chi", [0.0, 0.3, 2.0, math.pi - 1e-3],
                         ids=["axis", "second_row", "first_row", "wrap"])
def test_transverse_angle_is_the_null_direction(chi):
    # the angle is read from the row (p, q) of P - lam I when |p| >= |r|,
    # here for chi in [pi/4, 3pi/4], and from (q, r) otherwise; either way it
    # is chi modulo pi, chi = 0 included, where arctan2 returns pi
    v = [(math.cos(chi), math.sin(chi)), (-math.sin(chi), math.cos(chi))]
    plane = _synthetic_split(v, (0.1, 0.6), np.random.default_rng(24))
    vectors = (plane[:, :3] + 1j * plane[:, 3:])[None]
    lam, angle = _transverse_scan(np.zeros((1, 3)), vectors, np.zeros((1, 5)))
    assert abs(lam.item() - 0.1) <= 1e-15
    assert 0.0 <= angle.item() < math.pi
    assert abs((angle.item() - chi + math.pi / 2) % math.pi - math.pi / 2) <= 1e-15


# family states whose second-moment tables have a long, oblique flat valley
# (lambda_1 ~ lambda_2 << lambda_3), where a grid search stops short and its
# gate raised: 8 rows of fig1's grid and 24 rows of the 25 mu x 49 nu x
# 101 beta grid linspace(0, pi, 25) x linspace(0, 2 pi, 49) x linspace(0, 1, 101)
_FLAT_VALLEY_STATES = [
    *((0.01, 0.0, nu) for nu in (
        0.10471975511965977, 1.4660765716752366, 1.6755160819145563, 3.036872898470133,
        3.2463124087094526, 4.607669225265029, 4.817108735504349, 6.178465552059926)),
    *((0.01, mu, nu) for mu in (0.0, math.pi) for nu in (
        0.1308996938995747, 1.4398966328953218, 1.7016960206944711, 3.010692959690218,
        3.2724923474893677, 4.581489286485114, 4.843288674284264, 6.152285613280011)),
    *((beta, mu, nu) for beta, mu in ((0.19, 0.2617993877991494), (0.27, 0.39269908169872414),
                                      (0.27, 2.748893571891069), (0.19, 2.8797932657906435))
      for nu in (math.pi / 2, 4.71238898038469)),
]


@pytest.mark.parametrize("beta, mu, nu", _FLAT_VALLEY_STATES)
def test_all_directions_in_flat_valleys(beta, mu, nu):
    state = _state(beta, mu, nu)
    lam, _ = min_variance_all_directions(state, OPS)
    smallest = np.linalg.eigvalsh(moments_oracle(state, OPS).table)[0]
    assert abs(lam - smallest) <= 1e-12
    assert abs(_sphere_scan(state, OPS) - smallest) <= 1e-12


def test_references_read_no_eigen_route(monkeypatch):
    # the expected values come from the eigen routes first; with every eigen
    # route raising, both references still return them: fig1 rows (the
    # mu = pi/2, nu = 0 one fully degenerate) and flat-valley states
    nus = np.linspace(0.0, 2.0 * math.pi, FIG1_NU_STEPS)
    betas = np.linspace(0.0, 1.0, FIG1_BETA_STEPS)
    points = [(betas[b], mu, nus[v]) for mu, v, b in (
        (FIG1_MUS[0], 17, 30), (FIG1_MUS[1], 50, 72), (FIG1_MUS[2], 0, 40), (FIG1_MUS[2], 33, 95))]
    states = [_state(*map(float, p)) for p in points + _FLAT_VALLEY_STATES[::8]]
    frames = [_frame_of(state) for state in states]
    expected = [(np.linalg.eigvalsh(moments_oracle(state, OPS).table)[0],
                 None if frame.status is FrameStatus.FULLY_DEGENERATE
                 else min_transverse_variance(state, frame, OPS)[0])
                for state, frame in zip(states, frames)]

    def no_eigen(*args):
        raise AssertionError("a reference read an eigen route")

    for owner, name in ((oracle, "_eigen_min"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(owner, name, no_eigen)
    transverse = 0
    for state, frame, (smallest, lam) in zip(states, frames, expected):
        assert abs(_sphere_scan(state, OPS) - smallest) <= 1e-12
        if lam is not None:
            assert abs(min_transverse_variance_scan(state, frame, OPS)[0] - lam) <= 1e-12
            transverse += 1
    assert 3 <= transverse < len(states)


def test_small_sphere_grid_reaches_eigh_on_random_states():
    # the bisection reference, over blocks (_sphere_min) and one row at a time
    # (_sphere_scan), meets eigh's smallest eigenvalue on 20,000 seeded
    # states, the minimizers within 2 degrees of +-z included
    rng = np.random.default_rng(7)
    states = rng.normal(size=(20000, 3)) + 1j * rng.normal(size=(20000, 3))
    states /= np.linalg.norm(states, axis=1)[:, None]
    vectors, values = _expectations(OPS.moment_stack, states)
    eigvals, eigvecs = np.linalg.eigh(_tables(values))
    scan = np.concatenate([_sphere_min(_real_split(vectors[i:i + _BLOCK, :3]))
                           for i in range(0, len(states), _BLOCK)])
    assert np.abs(scan - eigvals[:, 0]).max() <= 1e-12
    polar = np.flatnonzero(np.abs(eigvecs[:, 2, 0]) >= math.cos(math.radians(2.0)))
    assert polar.size >= 5
    for i in polar:
        assert abs(min_variance_all_directions(states[i], OPS)[0] - eigvals[i, 0]) <= 1e-12
        assert abs(_sphere_scan(states[i], OPS) - eigvals[i, 0]) <= 1e-12


# ---------------------------------------------------------------------------
# concurrence


def test_concurrence_product_state():
    assert concurrence(_state(0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_equatorial_bell_type():
    assert concurrence(_state(0.0, math.pi / 2, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_bell_weight_one():
    assert concurrence(_state(1.0, 0.9, 0.4)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_generic_point_frozen():
    assert concurrence(build_superposition_state(P1)) == pytest.approx(
        0.5263610927870714, abs=1e-13
    )


def test_concurrence_column_equals_concurrence_per_state():
    # oracle_arrays computes the column per block through _concurrences;
    # each entry equals the public one-state function bit for bit
    grid = _batch_test_grid()[::10]
    column = oracle_arrays(param_columns(grid))["concurrence"]
    states = [build_superposition_state(p) for p in grid]
    assert column.tolist() == [concurrence(s) for s in states]
    assert column.tolist() == _concurrences([s.tolist() for s in states]).tolist()


def test_concurrences_round_as_python_complex_arithmetic():
    # the column form against the formula in Python complex numbers, on
    # seeded states with zero, -0.0 and real entries, normalized or not
    rng = np.random.default_rng(27)
    states = rng.normal(size=(5000, 3)) + 1j * rng.normal(size=(5000, 3))
    states[::2] /= np.linalg.norm(states[::2], axis=1)[:, None]
    states[::5, 1] = 0.0
    states[::7, 0] = complex(-0.0, -0.0)
    states[::11] = states[::11].real
    rows = states.tolist()
    want = [min(2.0 * abs(up * down - zero ** 2 / 2.0), 1.0) for up, zero, down in rows]
    assert list(map(repr, _concurrences(states).tolist())) == list(map(repr, want))
    assert list(map(repr, _concurrences(rows).tolist())) == list(map(repr, want))


def test_concurrence_shape_check():
    with pytest.raises(ValueError):
        concurrence(np.ones(4, dtype=complex))


# ---------------------------------------------------------------------------
# assembled pipeline


def test_pipeline_coherent_anchor():
    res = squeeze_oracle(SqueezeParams(beta=0.0, mu=0.0, nu=0.7))
    assert res.xi2_std == pytest.approx(1.0, abs=1e-10)
    assert res.concurrence == pytest.approx(0.0, abs=1e-12)
    assert res.method == METHOD_TRANSVERSE


def test_pipeline_degenerate_anchor():
    res = squeeze_oracle(SqueezeParams(beta=0.0, mu=math.pi / 2, nu=0.0))
    assert res.frame_status is FrameStatus.FULLY_DEGENERATE
    assert res.method == METHOD_ALL_DIRECTIONS
    assert res.chi_min == 0.0
    assert res.lambda_min == pytest.approx(0.0, abs=1e-12)


def test_pipeline_fig2_point_frozen():
    res = squeeze_oracle(P2)
    assert res.lambda_min == pytest.approx(0.22215112021100386, abs=1e-13)
    assert res.xi2_std == pytest.approx(0.4443022404220077, abs=1e-13)
    assert res.concurrence == pytest.approx(0.5556977595779924, abs=1e-13)


def test_pipeline_second_generic_point_frozen():
    point = evaluate_oracle(P6)
    assert point.moments.mean.jx == pytest.approx(0.08275202570139116, abs=1e-13)
    assert point.moments.mean.jy == pytest.approx(0.48444649753018676, abs=1e-13)
    assert point.moments.mean.jz == pytest.approx(-0.728, abs=1e-13)
    assert point.frame.theta == pytest.approx(2.5477831289002806, abs=1e-13)
    assert point.frame.phi == pytest.approx(1.4016115665545437, abs=1e-13)
    assert point.result.lambda_min == pytest.approx(0.2610022524828678, abs=1e-13)
    assert point.result.chi_min == pytest.approx(2.9040065140160354, abs=1e-10)
    assert point.result.concurrence == pytest.approx(0.4779954950342644, abs=1e-13)


@given(params_st)
@settings(max_examples=100, deadline=None)
def test_pipeline_internal_consistency(p):
    point = evaluate_oracle(p)
    res = point.result
    assert res.xi2_std == pytest.approx(2.0 * res.lambda_min, rel=1e-14)
    assert res.xi2_literal == pytest.approx(2.0 * res.xi2_std, rel=1e-14)
    assert 0.0 <= res.concurrence <= 1.0
    degenerate = res.frame_status is FrameStatus.FULLY_DEGENERATE
    assert (point.frame_moments is None) == degenerate
    assert res.method == (METHOD_ALL_DIRECTIONS if degenerate else METHOD_TRANSVERSE)


# ---------------------------------------------------------------------------
# squeezing facts beyond the figures


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_squeezing_is_one_minus_concurrence_off_the_family(seed):
    # any normalized spin-1 state, not only the (beta, mu, nu) family:
    # 2 lambda_min = 1 - C wherever the transverse frame exists
    rng = np.random.default_rng(seed)
    state = rng.normal(size=3) + 1j * rng.normal(size=3)
    state /= np.linalg.norm(state)
    frame = _frame_of(state)
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        return
    lam, _ = min_transverse_variance(state, frame, OPS)
    assert abs(2.0 * lam - (1.0 - concurrence(state))) <= 1e-12


def _xi2_std(beta, mu, nu):
    return squeeze_oracle(SqueezeParams(beta=beta, mu=mu, nu=nu)).xi2_std


@given(st.floats(0.0, 1.0), st.floats(-2.0 * math.pi, 2.0 * math.pi))
@settings(max_examples=100, deadline=None)
def test_mu_pi_slice_equals_mu_zero_slice(beta, nu):
    # a pi rotation about y maps each mu=pi state onto its mu=0 partner, so
    # both slices fall as 1 - beta^2 and the mu=pi one has no interior maximum
    assert abs(_xi2_std(beta, math.pi, nu) - _xi2_std(beta, 0.0, nu)) <= 1e-12
    assert abs(_xi2_std(beta, 0.0, nu) - (1.0 - beta * beta)) <= 1e-12


@given(params_st)
@settings(max_examples=100, deadline=None)
def test_squeezing_invariant_under_nu_reflection_and_half_period(p):
    xi2 = _xi2_std(p.beta, p.mu, p.nu)
    assert abs(_xi2_std(p.beta, p.mu, -p.nu) - xi2) <= 1e-12
    assert abs(_xi2_std(p.beta, p.mu, p.nu + math.pi) - xi2) <= 1e-12
