"""Mean-spin vector, the two length routes, frame angles, projections."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaxbell import (
    DegenerateFrameError,
    FrameStatus,
    MeanSpin,
    SqueezeParams,
    build_spin_operators,
    build_superposition_state,
    compute_frame,
    expectation,
    mean_spin_closed_form,
    mean_spin_length,
    mean_spin_length_closed_form,
    project_transverse_operators,
)

params_st = st.builds(
    SqueezeParams,
    beta=st.floats(0.0, 1.0),
    mu=st.floats(0.0, math.pi),
    nu=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)


# ---------------------------------------------------------------------------
# closed-form first moments


def test_mean_spin_generic_point():
    # frozen from the operator oracle; the jy sign here is the as-written
    # convention, opposite to the oracle (see crosscheck)
    ms = mean_spin_closed_form(SqueezeParams(beta=0.6, mu=math.pi / 3, nu=math.pi / 4))
    assert ms.jx == pytest.approx(0.303579, abs=5e-7)
    assert ms.jy == pytest.approx(-0.607157, abs=5e-7)
    assert ms.jz == pytest.approx(0.512000, abs=5e-7)


def test_mean_spin_polar_limit():
    ms = mean_spin_closed_form(SqueezeParams(beta=0.0, mu=0.0, nu=2.1))
    np.testing.assert_allclose([ms.jx, ms.jy, ms.jz], [0.0, 0.0, 1.0], atol=1e-15)


def test_mean_spin_vanishes_on_equator_at_nu_zero():
    ms = mean_spin_closed_form(SqueezeParams(beta=0.77, mu=math.pi / 2, nu=0.0))
    assert mean_spin_length(ms) < 1e-15


# ---------------------------------------------------------------------------
# the two length routes


def test_length_trivial_cases():
    assert mean_spin_length(MeanSpin(0.0, 0.0, 1.0)) == 1.0
    assert mean_spin_length(MeanSpin(0.0, 0.0, 0.0)) == 0.0


def test_length_generic_point_both_routes():
    p = SqueezeParams(beta=0.6, mu=math.pi / 3, nu=math.pi / 4)
    r_components = mean_spin_length(mean_spin_closed_form(p))
    r_radical = mean_spin_length_closed_form(p)
    assert r_components == pytest.approx(0.8502611363575311, abs=1e-13)
    assert r_radical == pytest.approx(0.8502611363575311, abs=1e-13)


@given(st.floats(0.0, 1.0))
def test_length_mu_zero_reduction(beta):
    # at mu = 0 the radical collapses to sqrt(1 - beta^4)
    p = SqueezeParams(beta=beta, mu=0.0, nu=1.3)
    want = math.sqrt(max(0.0, 1.0 - beta ** 4))
    assert mean_spin_length_closed_form(p) == pytest.approx(want, abs=1e-12)


@given(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
def test_length_equator_reduction(beta, nu):
    # at mu = pi/2 only the nu-dependent term survives
    p = SqueezeParams(beta=beta, mu=math.pi / 2, nu=nu)
    want = 2.0 * p.alpha * beta * abs(math.sin(nu))
    assert mean_spin_length_closed_form(p) == pytest.approx(want, abs=1e-12)


@given(params_st)
@settings(max_examples=500, deadline=None)
def test_length_routes_agree(p):
    diff = abs(
        mean_spin_length(mean_spin_closed_form(p)) - mean_spin_length_closed_form(p)
    )
    assert diff <= 1e-12


@given(params_st)
@settings(max_examples=300, deadline=None)
def test_length_bounded_by_one(p):
    assert mean_spin_length_closed_form(p) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# frame construction


def test_frame_polar_degenerate():
    frame = compute_frame(MeanSpin(0.0, 0.0, 1.0))
    assert frame.status is FrameStatus.POLAR_DEGENERATE
    assert frame.theta == 0.0
    assert frame.phi == 0.0
    np.testing.assert_allclose(frame.n3, [0.0, 0.0, 1.0], atol=1e-15)


def test_frame_fully_degenerate():
    frame = compute_frame(MeanSpin(0.0, 0.0, 0.0))
    assert frame.status is FrameStatus.FULLY_DEGENERATE
    assert frame.r == 0.0


def test_frame_equatorial_x():
    s = 1.0 / math.sqrt(2.0)
    frame = compute_frame(MeanSpin(s, 0.0, 0.0))
    assert frame.status is FrameStatus.REGULAR
    assert frame.theta == pytest.approx(math.pi / 2, abs=1e-15)
    assert frame.phi == 0.0
    np.testing.assert_allclose(frame.n1, [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(frame.n2, [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(frame.n3, [1.0, 0.0, 0.0], atol=1e-15)
    assert frame.r == pytest.approx(s, abs=1e-15)


def test_phi_branch_continuity():
    # jy -> 0+ lands on phi -> 0+, jy -> 0- on phi -> 2pi-, and the
    # boundary itself wraps to 0.  Offsets below ~1e-8 are not used: acos
    # cannot resolve angles under sqrt(machine eps).
    up = compute_frame(MeanSpin(0.8, 1e-6, 0.1))
    down = compute_frame(MeanSpin(0.8, -1e-6, 0.1))
    on = compute_frame(MeanSpin(0.8, 0.0, 0.1))
    assert 0.0 < up.phi < 1e-5
    assert 2.0 * math.pi - 1e-5 < down.phi < 2.0 * math.pi
    assert on.phi == 0.0


vector_st = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda v: math.hypot(*v) > 1e-6)


@given(vector_st)
@settings(max_examples=500)
def test_frame_orthonormal_right_handed(v):
    ms = MeanSpin(*v)
    frame = compute_frame(ms)
    rot = np.vstack([frame.n1, frame.n2, frame.n3])
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.cross(frame.n1, frame.n2), frame.n3, atol=1e-12)
    if frame.status is FrameStatus.REGULAR:
        # acos quantizes angles at ~sqrt(machine eps), so reconstruction of
        # near-polar vectors cannot be tighter than ~1e-8 in absolute terms
        np.testing.assert_allclose(frame.n3 * frame.r, ms.as_array(), atol=1e-7)
    assert 0.0 <= frame.theta <= math.pi
    assert 0.0 <= frame.phi < 2.0 * math.pi


# ---------------------------------------------------------------------------
# transverse projections


def test_projection_equatorial_frame():
    ops = build_spin_operators(1.0)
    frame = compute_frame(MeanSpin(0.5, 0.0, 0.0))
    jn1, jn2 = project_transverse_operators(frame, ops)
    np.testing.assert_allclose(jn1, ops.jy, atol=1e-15)
    np.testing.assert_allclose(jn2, ops.jz, atol=1e-15)


def test_projection_polar_frame():
    ops = build_spin_operators(1.0)
    frame = compute_frame(MeanSpin(0.0, 0.0, 1.0))
    jn1, jn2 = project_transverse_operators(frame, ops)
    np.testing.assert_allclose(jn1, ops.jy, atol=1e-15)
    np.testing.assert_allclose(jn2, -ops.jx, atol=1e-15)


def test_projection_zero_mean_on_generating_state():
    ops = build_spin_operators(1.0)
    p = SqueezeParams(beta=0.6, mu=math.pi / 3, nu=math.pi / 4)
    state = build_superposition_state(p)
    ms = MeanSpin(
        expectation(ops.jx, state).real,
        expectation(ops.jy, state).real,
        expectation(ops.jz, state).real,
    )
    frame = compute_frame(ms)
    jn1, jn2 = project_transverse_operators(frame, ops)
    assert abs(expectation(jn1, state)) < 1e-10
    assert abs(expectation(jn2, state)) < 1e-10


def test_projection_refuses_fully_degenerate():
    ops = build_spin_operators(1.0)
    frame = compute_frame(MeanSpin(0.0, 0.0, 0.0))
    with pytest.raises(DegenerateFrameError):
        project_transverse_operators(frame, ops)
