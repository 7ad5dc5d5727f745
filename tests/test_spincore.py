"""Parameter validation, grid building, spin operator algebra, state construction."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaxbell import (
    SqueezeParams,
    build_spin_operators,
    build_superposition_state,
    expectation,
)
from biaxbell.spincore import axis_grid, param_columns

HALF_INTEGERS = (0.5, 1.0, 1.5, 2.0, 2.5)

params_st = st.builds(
    SqueezeParams,
    beta=st.floats(0.0, 1.0),
    mu=st.floats(0.0, math.pi),
    nu=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)


# ---------------------------------------------------------------------------
# SqueezeParams


def test_alpha_derived():
    p = SqueezeParams(beta=0.6, mu=0.0, nu=0.0)
    assert p.alpha == pytest.approx(0.8, abs=1e-15)


@given(params_st)
def test_alpha_beta_normalized(p):
    assert p.alpha >= 0.0
    assert p.alpha ** 2 + p.beta ** 2 == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(beta=-0.1, mu=0.0, nu=0.0),
        dict(beta=1.1, mu=0.0, nu=0.0),
        dict(beta=0.5, mu=-0.2, nu=0.0),
        dict(beta=0.5, mu=math.pi + 0.2, nu=0.0),
        dict(beta=float("nan"), mu=0.0, nu=0.0),
        dict(beta=0.5, mu=0.0, nu=float("inf")),
        dict(beta=True, mu=0.0, nu=0.0),
        dict(beta=0.5, mu=False, nu=0.0),
        dict(beta=0.5, mu=0.0, nu=1j),
    ],
)
def test_params_rejects_out_of_domain(kwargs):
    with pytest.raises(ValueError):
        SqueezeParams(**kwargs)


@pytest.mark.parametrize("beta", [np.float32(0.5), np.float64(0.5), np.int64(1), 0])
def test_params_accepts_real_scalars_as_float(beta):
    p = SqueezeParams(beta=beta, mu=np.float32(1.0), nu=np.int32(-2))
    assert (p.beta, p.mu, p.nu) == (float(beta), 1.0, -2.0)
    assert all(type(v) is float for v in (p.beta, p.mu, p.nu, p.alpha))


# ---------------------------------------------------------------------------
# axis grids

SWEEP_ORDER = ("mu", "nu", "beta")
CROSSCHECK_ORDER = ("beta", "mu", "nu")
NONFINITE = (math.nan, math.inf, -math.inf)
# per axis: valid values, with the domain edges and a signed zero, and the
# values SqueezeParams rejects
AXIS_VALUES = {
    "beta": (st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 1.0])),
             st.sampled_from([*NONFINITE, -0.5, 1.5])),
    "mu": (st.one_of(st.floats(0.0, math.pi), st.sampled_from([-0.0, math.pi])),
           st.sampled_from([*NONFINITE, -1.0, 4.0])),
    "nu": (st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-0.0, 9.0])),
           st.sampled_from(NONFINITE)),
}


@st.composite
def axes_st(draw):
    """Axes of length 1-4; in half of the draws each value may be invalid."""
    invalid = draw(st.booleans())
    return {name: draw(st.lists(st.one_of(good, bad) if invalid else good,
                                min_size=1, max_size=4))
            for name, (good, bad) in AXIS_VALUES.items()}


def _per_row(order, axes) -> list[SqueezeParams]:
    """One SqueezeParams per row of the product, outermost axis first."""
    rows = (dict(zip(order, values)) for values in itertools.product(*(axes[k] for k in order)))
    return [SqueezeParams(beta=float(r["beta"]), mu=float(r["mu"]), nu=float(r["nu"]))
            for r in rows]


@given(order=st.sampled_from([SWEEP_ORDER, CROSSCHECK_ORDER]), axes=axes_st())
# row 0 fails on nu before any row with mu = 4
@example(SWEEP_ORDER, {"mu": [0.0, 4.0], "nu": [math.nan, 0.0], "beta": [0.0, 1.0]})
# mu = 4 comes before the nan of a later nu
@example(SWEEP_ORDER, {"mu": [4.0, 0.0], "nu": [0.0, math.nan], "beta": [0.0, 1.0]})
# in beta, mu, nu order row 1 fails on nu before any row with mu = 4
@example(CROSSCHECK_ORDER, {"beta": [0.0, 1.0], "mu": [0.0, 4.0], "nu": [0.0, math.inf]})
# an empty axis gives no rows and validates nothing
@example(SWEEP_ORDER, {"mu": [math.nan], "nu": [], "beta": [1.5]})
@settings(max_examples=500, deadline=None)
def test_axis_grid_matches_the_per_row_points(order, axes):
    # valid axes give the per-row columns bit for bit; invalid ones raise what
    # the first row the per-row list rejects raises
    try:
        expected = param_columns(_per_row(order, axes))
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            axis_grid(order, **axes)
        assert str(raised.value) == str(exc)
    else:
        got = axis_grid(order, **axes)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("order", [SWEEP_ORDER, CROSSCHECK_ORDER])
@pytest.mark.parametrize("axes", [
    # a float64 array as the beta axis arrives, tuples as MUS and NUS are
    dict(beta=np.linspace(0.0, 1.0, 5), mu=(0.0, math.pi / 3, math.pi), nu=(-math.pi / 2, 0.0)),
    dict(beta=[np.float32(0.3), np.int64(1)], mu=np.array([0.5, 1.0], dtype=np.float32),
         nu=[np.int64(-2), np.float32(0.1)]),
    # beta = 1 exactly gives alpha = +0.0; signed zeros keep their sign; the
    # alpha of the middle beta differs in its last bit if beta^2 is x * x
    dict(beta=[-0.0, 0.9503546630566793, 1.0], mu=[-0.0], nu=[-0.0, 0.0]),
    # one invalid axis, as a list or as an array, beside array axes
    dict(beta=np.linspace(0.0, 1.0, 3), mu=[0.0, 4.0], nu=np.array([0.0, 1.0])),
    dict(beta=np.linspace(0.0, 1.0, 3), mu=np.array([0.0, 1.0]), nu=np.array([0.0, np.nan])),
    dict(beta=np.array([0.5, 1.5]), mu=(0.0, math.pi), nu=np.array([0.0, np.inf])),
], ids=["float64_and_tuples", "float32_and_int64", "signed_zeros_and_beta_one",
        "invalid_list_axis", "invalid_array_axis", "two_invalid_axes"])
def test_axis_grid_takes_every_axis_type(order, axes, monkeypatch):
    # each case gives param_columns of the per-row points bit for bit, building
    # no SqueezeParams, or raises the message the per-row list raises
    try:
        expected = param_columns(_per_row(order, axes))
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            axis_grid(order, **axes)
        assert str(raised.value) == str(exc)
        return
    monkeypatch.setattr("biaxbell.spincore.SqueezeParams", None)
    got = axis_grid(order, **axes)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    one = got[1] == 1.0
    if one.any():
        assert not np.signbit(got[0][one]).any() and (got[0][one] == 0.0).all()


# ---------------------------------------------------------------------------
# operator construction


def test_jz_is_diagonal_m_values():
    ops = build_spin_operators(1.0)
    np.testing.assert_allclose(ops.jz, np.diag([1.0, 0.0, -1.0]), atol=1e-15)


def test_spin_half_jx_is_half_pauli():
    ops = build_spin_operators(0.5)
    np.testing.assert_allclose(ops.jx, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_commutator_spin_three_halves():
    ops = build_spin_operators(1.5)
    np.testing.assert_allclose(
        ops.jx @ ops.jy - ops.jy @ ops.jx, 1j * ops.jz, atol=1e-12
    )


@pytest.mark.parametrize("j", HALF_INTEGERS)
def test_operator_invariants(j):
    ops = build_spin_operators(j)
    assert ops.dim == int(2 * j) + 1
    for h in (ops.jx, ops.jy, ops.jz):
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    np.testing.assert_allclose(ops.jminus, ops.jplus.conj().T, atol=1e-15)
    # full cyclic commutator algebra
    triples = [(ops.jx, ops.jy, ops.jz), (ops.jy, ops.jz, ops.jx), (ops.jz, ops.jx, ops.jy)]
    for a, b, c in triples:
        np.testing.assert_allclose(a @ b - b @ a, 1j * c, atol=1e-12)
    casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    np.testing.assert_allclose(casimir, j * (j + 1) * np.eye(ops.dim), atol=1e-12)


def test_ladder_superdiagonal_entries():
    j = 2.0
    ops = build_spin_operators(j)
    m = j - np.arange(ops.dim)
    for k in range(1, ops.dim):
        want = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
        assert ops.jplus[k - 1, k] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("j", [-1.0, 0.3, float("nan")])
def test_build_rejects_bad_j(j):
    with pytest.raises(ValueError):
        build_spin_operators(j)


def test_build_rejects_oversized_dim():
    with pytest.raises(ValueError):
        build_spin_operators(40.0)


def test_operator_matrices_readonly():
    ops = build_spin_operators(1.0)
    with pytest.raises(ValueError):
        ops.jx[0, 0] = 5.0


# ---------------------------------------------------------------------------
# state construction


def test_state_pure_biaxial_mu_zero():
    state = build_superposition_state(SqueezeParams(beta=0.0, mu=0.0, nu=0.0))
    np.testing.assert_allclose(state, [1.0, 0.0, 0.0], atol=1e-15)


def test_state_pure_bell_with_phase():
    state = build_superposition_state(SqueezeParams(beta=1.0, mu=0.7, nu=math.pi / 2))
    np.testing.assert_allclose(state, [0.0, 1j, 0.0], atol=1e-15)


def test_state_equatorial_biaxial():
    state = build_superposition_state(SqueezeParams(beta=0.0, mu=math.pi / 2, nu=0.0))
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(state, [s, 0.0, -s], atol=1e-14)


@given(params_st)
@settings(max_examples=1000, deadline=None)
def test_state_unit_norm(p):
    state = build_superposition_state(p)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_state_readonly():
    state = build_superposition_state(SqueezeParams(beta=0.3, mu=1.0, nu=0.5))
    with pytest.raises(ValueError):
        state[0] = 0.0


# ---------------------------------------------------------------------------
# expectation values


def test_expectation_eigenstate():
    ops = build_spin_operators(1.0)
    state = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert expectation(ops.jz, state) == pytest.approx(1.0, abs=1e-15)


def test_expectation_jplus_sq_equatorial():
    ops = build_spin_operators(1.0)
    state = build_superposition_state(SqueezeParams(beta=0.0, mu=math.pi / 2, nu=0.0))
    value = expectation(ops.jplus @ ops.jplus, state)
    assert value == pytest.approx(-1.0, abs=1e-14)


def test_expectation_transverse_mean_vanishes_on_m0():
    ops = build_spin_operators(1.0)
    state = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert abs(expectation(ops.jx, state)) < 1e-15


def test_expectation_dimension_mismatch():
    ops = build_spin_operators(1.0)
    with pytest.raises(ValueError):
        expectation(ops.jx, np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        expectation(np.ones((2, 3)), np.ones(3, dtype=complex))


@given(params_st)
@settings(max_examples=200, deadline=None)
def test_casimir_expectation_is_two(p):
    ops = build_spin_operators(1.0)
    state = build_superposition_state(p)
    total = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    assert expectation(total, state).real == pytest.approx(2.0, abs=1e-12)
