"""Bit safety of the column forms of the closed-form formulas.

Each column helper is compared bit for bit, signed zeros included, with a
reference that evaluates the same formula one row at a time in plain floats
with math, in the same operation order.  numpy's cos, sin, sqrt and
float_power, and its float-times-complex product, must round as math and
Python's float arithmetic do; a host where they do not fails here, with
the helper's name, before any golden digest does.
"""
import math

import numpy as np
import pytest

from biaxbell.closedform import (
    cartesian_moments,
    frame_moments_closed_form,
    raising_moments,
    second_moments_closed_form,
    transverse_moments,
)
from biaxbell.frame import (
    DEFAULT_EPS,
    FrameStatus,
    MeanSpin,
    compute_frame,
    frame_angles,
    frame_triad,
    mean_spin_closed_form,
    mean_spin_columns,
    mean_spin_length,
    mean_spin_length_closed_form,
    spin_length,
)
from biaxbell.oracle import _eigen_min
from biaxbell.spincore import (
    SqueezeParams,
    build_superposition_state,
    param_columns,
    superposition_states,
)

# ---------------------------------------------------------------------------
# the formulas in plain floats, one row at a time


def ref_ladder_prefactors(alpha, beta, cmu):
    denom = 1.0 + cmu ** 2
    return denom, 2.0 * alpha * beta / math.sqrt(denom)


def ref_mean_spin_components(alpha, beta, mu, nu):
    cmu = math.cos(mu)
    denom, k = ref_ladder_prefactors(alpha, beta, cmu)
    return k * math.cos(nu) * cmu, -k * math.sin(nu), 2.0 * alpha ** 2 * cmu / denom


def ref_spin_length(jx, jy, jz):
    return math.sqrt(jx ** 2 + jy ** 2 + jz ** 2)


def ref_radical_length(alpha, beta, mu, nu):
    cmu = math.cos(mu)
    denom = 1.0 + cmu ** 2
    radicand = (
        beta ** 2 * math.cos(nu) ** 2 * cmu ** 4
        + beta ** 2 * math.sin(nu) ** 2
        + cmu ** 2
    )
    return 2.0 * alpha / denom * math.sqrt(radicand)


def ref_raising_moments(alpha, beta, mu, nu):
    cmu, smu2 = math.cos(mu), math.sin(mu) ** 2
    denom, k = ref_ladder_prefactors(alpha, beta, cmu)
    return (
        complex(-alpha ** 2 * smu2 / denom, 0.0),
        2.0 * alpha ** 2 / denom * (1.0 - 0.5 * smu2),
        k * complex(math.cos(nu), -math.sin(nu) * cmu),
    )


def ref_transverse_moments(cart, jz_sq, theta, phi):
    jx2_plus_jy2, jx2_minus_jy2, xy_anticomm, xz_anticomm, yz_anticomm = cart
    half_sum = jx2_plus_jy2 / 2.0
    half_diff = jx2_minus_jy2 / 2.0
    sxy = xy_anticomm / 2.0
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    c2p, s2p = math.cos(2.0 * phi), math.sin(2.0 * phi)
    jn1_sq = half_sum - c2p * half_diff - s2p * sxy
    jn2_sq = (
        ct ** 2 * (half_sum + c2p * half_diff + s2p * sxy)
        + st ** 2 * jz_sq
        - ct * st * (cp * xz_anticomm + sp * yz_anticomm)
    )
    anticomm = (
        s2p * ct * jx2_minus_jy2
        - 2.0 * c2p * ct * sxy
        - st * (sp * xz_anticomm - cp * yz_anticomm)
    )
    return jn1_sq, jn2_sq, anticomm


def ref_state(alpha, beta, mu, nu):
    a = alpha * math.sqrt(2.0) / math.sqrt(1.0 + math.cos(mu) ** 2)
    half = mu / 2.0
    return (
        complex(a * math.cos(half) ** 2),
        beta * complex(math.cos(nu), math.sin(nu)),
        complex(-a * math.sin(half) ** 2),
    )


def ref_frame_triad(theta, phi):
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return -sp, cp, 0.0, -ct * cp, -ct * sp, st, st * cp, st * sp, ct


def ref_cartesian(jplus_sq, jz_sq, jplus_2jz1):
    return 2.0 - jz_sq, jplus_sq.real, jplus_sq.imag, jplus_2jz1.real, jplus_2jz1.imag


def ref_frame_angles(jx, jy, jz, r, eps=DEFAULT_EPS):
    if r < eps:
        return 0.0, 0.0, FrameStatus.FULLY_DEGENERATE
    theta = math.acos(min(1.0, max(-1.0, jz / r)))
    rho = math.hypot(jx, jy)
    if rho / r < eps:
        return theta, 0.0, FrameStatus.POLAR_DEGENERATE
    base = math.acos(min(1.0, max(-1.0, jx / rho)))
    phi = base if jy > 0.0 else 2.0 * math.pi - base
    if phi >= 2.0 * math.pi:
        phi = 0.0
    return theta, phi, FrameStatus.REGULAR


def ref_eigen_min(m1, m2, jn1_sq, jn2_sq, anticomm):
    g11 = jn1_sq - m1 * m1
    g22 = jn2_sq - m2 * m2
    g12 = anticomm / 2.0 - m1 * m2
    half_gap = math.hypot(g11 - g22, 2.0 * g12) / 2.0
    lam = (g11 + g22) / 2.0 - half_gap
    scale = max(1.0, abs(g11), abs(g22))
    if half_gap <= 1e-14 * scale:
        return lam, 0.0
    chi = math.atan2(-2.0 * g12, -(g11 - g22)) / 2.0
    if chi < 0.0:
        chi += math.pi
    if chi >= math.pi:
        chi -= math.pi
    return lam, chi


# ---------------------------------------------------------------------------
# seeded points: poles, equator, beta in {0, 1}, |nu| <= 9 and nu = -0.0


def _points(n=24_000, seed=16):
    rng = np.random.default_rng(seed)

    def mixed(special, share, low, high):
        values = rng.uniform(low, high, n)
        pick = rng.random(n) < share
        values[pick] = rng.choice(special, pick.sum())
        return values

    beta = mixed([0.0, 1.0], 0.2, 0.0, 1.0)
    mu = mixed([0.0, math.pi / 2, math.pi], 0.3, 0.0, math.pi)
    nu = mixed([-0.0, 0.0, math.pi, -9.0, 9.0], 0.2, -9.0, 9.0)
    theta = mixed([0.0, math.pi / 2, math.pi], 0.2, 0.0, math.pi)
    phi = mixed([0.0, math.pi], 0.2, 0.0, 2.0 * math.pi)
    grid = [SqueezeParams(b, m, v) for b, m, v in zip(beta.tolist(), mu.tolist(), nu.tolist())]
    return grid, theta.tolist(), phi.tolist()


GRID, THETA, PHI = _points()
ROWS = [(p.alpha, p.beta, p.mu, p.nu) for p in GRID]
COLUMNS = param_columns(GRID)


def _bits(values) -> np.ndarray:
    """The IEEE bit patterns of a float or complex column."""
    a = np.ascontiguousarray(values)
    return (a.view(np.float64) if a.dtype == complex else a).view(np.int64).reshape(len(a), -1)


def _assert_bit_equal(name, got, want, points=GRID):
    """got: the helper's output columns; want: the reference's row tuples,
    one per point."""
    for k, (column, ref) in enumerate(zip(got, zip(*want))):
        bad = np.flatnonzero((_bits(column) != _bits(np.array(ref))).any(axis=1))
        assert bad.size == 0, (
            f"{name}, output {k}: {bad.size} of {len(ref)} rows differ in their bits, "
            f"first at {points[bad[0]]}"
        )


def test_param_columns_keep_every_bit():
    _assert_bit_equal("param_columns", COLUMNS, ROWS)


def _ladder_prefactors():
    # 1 + cos^2(mu) and the coherence k are formed in mean_spin_columns and
    # again in raising_moments; <Jz>, <Jy>, <Jz^2> and <J+(2Jz+1)> are each one
    # prefactor times trigonometric factors, so they pin both copies
    mean = mean_spin_columns(COLUMNS)
    _, jz_sq, jplus_2jz1 = raising_moments(*COLUMNS)
    mean_ref = [ref_mean_spin_components(*row) for row in ROWS]
    want = [(m[2], m[1], *ref_raising_moments(*row)[1:]) for m, row in zip(mean_ref, ROWS)]
    return (mean["jz"], mean["jy"], jz_sq, jplus_2jz1), want


def _spin_length():
    # the helper on the reference components, and the r_eq9 column of the pass
    mean = [ref_mean_spin_components(*row) for row in ROWS]
    got = (spin_length(*np.array(mean).T), mean_spin_columns(COLUMNS)["r_eq9"])
    return got, [(ref_spin_length(*m),) * 2 for m in mean]


def _transverse_moments():
    raising = [ref_raising_moments(*row) for row in ROWS]
    cart = [ref_cartesian(*r) for r in raising]
    want = [ref_transverse_moments(c, r[1], t, p)
            for c, r, t, p in zip(cart, raising, THETA, PHI)]
    got = transverse_moments(tuple(np.array(cart).T), np.array([r[1] for r in raising]),
                             np.array(THETA), np.array(PHI))
    return got, want


def _frame_angles():
    mean = [ref_mean_spin_components(*row) for row in ROWS]
    rows = [(*m, ref_spin_length(*m)) for m in mean]
    return frame_angles(*np.array(rows).T)[:2], [ref_frame_angles(*row)[:2] for row in rows]


def _frame_triad():
    got = frame_triad(np.array(THETA), np.array(PHI)).reshape(-1, 9).T
    return got, [ref_frame_triad(t, p) for t, p in zip(THETA, PHI)]


HELPERS = {
    "ladder_prefactors": _ladder_prefactors,
    "mean_spin_components": lambda: (
        tuple(mean_spin_columns(COLUMNS).values())[:3],
        [ref_mean_spin_components(*row) for row in ROWS]),
    "spin_length": _spin_length,
    "radical_length": lambda: (
        (mean_spin_columns(COLUMNS)["r"],), [(ref_radical_length(*row),) for row in ROWS]),
    "raising_moments": lambda: (
        raising_moments(*COLUMNS), [ref_raising_moments(*row) for row in ROWS]),
    "cartesian_moments": lambda: (
        cartesian_moments(*raising_moments(*COLUMNS)),
        [ref_cartesian(*ref_raising_moments(*row)) for row in ROWS]),
    "transverse_moments": _transverse_moments,
    "frame_angles": _frame_angles,
    "superposition_states": lambda: (
        superposition_states(*COLUMNS).T, [ref_state(*row) for row in ROWS]),
    "frame_triad": _frame_triad,
}


@pytest.mark.parametrize("name", list(HELPERS))
def test_column_helper_matches_plain_float_reference(name):
    _assert_bit_equal(name, *HELPERS[name]())


def test_frame_angles_on_edge_rows():
    # every branch of the reference, with the statuses: r at and below eps,
    # the polar axis, the jy = +-0 rows that wrap phi = 2 pi to 0, jy < 0, and
    # an r below |jz| so that jz / r rounds beyond +-1 and is clamped
    below = math.nextafter(0.5, 0.0)
    rows = [
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, math.nextafter(DEFAULT_EPS, 0.0), math.nextafter(DEFAULT_EPS, 0.0)),
        (0.0, 0.0, DEFAULT_EPS, DEFAULT_EPS),
        (0.0, 0.0, 0.5, 0.5),
        (0.0, 0.0, -0.5, 0.5),
        (0.3, 0.0, 0.4, 0.5),
        (0.3, -0.0, 0.4, 0.5),
        (-0.3, 0.0, 0.4, 0.5),
        (0.3, -0.4, 0.0, 0.5),
        (-0.3, -0.4, -0.0, 0.5),
        (0.0, 0.0, 0.5, below),
        (0.0, 0.0, -0.5, below),
        (0.3, 0.4, 0.5, below),
    ]
    assert 0.5 / below > 1.0
    want = [ref_frame_angles(*row) for row in rows]
    theta, phi, codes = frame_angles(*np.array(rows).T)
    status = [list(FrameStatus)[code] for code in codes]
    _assert_bit_equal("frame_angles", (theta, phi), [w[:2] for w in want], rows)
    assert status == [w[2] for w in want]
    assert set(status) == set(FrameStatus)
    assert [w[1] for w in want[5:8]] == [0.0, 0.0, math.pi]


_FRAMELESS = [
    (0.0, 0.0, 0.0, 0.0),
    (-0.0, -0.0, -0.0, 0.0),
    (0.0, -0.0, math.nextafter(DEFAULT_EPS, 0.0), math.nextafter(DEFAULT_EPS, 0.0)),
    (-3e-13, 4e-13, -0.0, 5e-13),
    (-0.0, 0.0, -9e-13, 9e-13),
]


@pytest.mark.parametrize("rows", [[row] for row in _FRAMELESS] + [_FRAMELESS],
                         ids=[f"row{i}" for i in range(len(_FRAMELESS))] + ["all"])
def test_frame_angles_on_calls_without_a_mean_spin(rows):
    # every row below eps: the call returns the convention without an angle,
    # with the codes of a call that also holds a regular row
    want = [ref_frame_angles(*row) for row in rows]
    theta, phi, codes = frame_angles(*np.array(rows).T)
    mixed_codes = frame_angles(*np.array([*rows, (0.3, 0.4, 0.0, 0.5)]).T)[2]
    _assert_bit_equal("frame_angles", (theta, phi), [w[:2] for w in want], rows)
    assert [list(FrameStatus)[code] for code in codes] == [w[2] for w in want]
    assert codes.dtype == mixed_codes.dtype == np.int64
    assert codes.tolist() == mixed_codes[:-1].tolist()


def test_eigen_min_matches_the_scalar_route():
    # seeded transverse moments, the zero-mean and isotropic ones among them,
    # then every branch: flat minima below and at the 1e-14 gap and one above
    # it, g12 = 0 with g11 > g22 (chi = pi/2) and with g11 < g22 (chi = -0.0),
    # and an atan2 so small and negative that chi + pi rounds to pi and wraps
    rng = np.random.default_rng(26)
    moments = np.column_stack([rng.uniform(-1.0, 1.0, (24_000, 2)),
                               rng.uniform(0.0, 2.0, (24_000, 2)),
                               rng.uniform(-2.0, 2.0, 24_000)])
    moments[::7, :2] = 0.0
    moments[::11, 3] = moments[::11, 2]
    moments[::11, 4] = 2.0 * moments[::11, 0] * moments[::11, 1]
    edges = [
        (0.0, 0.0, 0.5, 0.5, 0.0),
        (0.0, 0.0, 0.5 + 1e-15, 0.5, 0.0),
        (0.0, 0.0, 2e-14, 0.0, 0.0),
        (0.0, 0.0, 0.5 + 1e-13, 0.5, 0.0),
        (0.0, 0.0, 0.7, 0.3, 0.0),
        (0.0, 0.0, 0.3, 0.7, 0.0),
        (0.0, 0.0, 0.3, 0.7, 1e-300),
    ]
    rows = [*map(tuple, moments.tolist()), *edges]
    want = [ref_eigen_min(*row) for row in rows]
    _assert_bit_equal("_eigen_min", _eigen_min(*np.array(rows).T), want, rows)
    chis = [chi for _, chi in want[-len(edges):]]
    assert chis[:3] == [0.0, 0.0, 0.0] and chis[3] > 0.0 and chis[4] == math.pi / 2
    assert math.copysign(1.0, chis[5]) == -1.0 and chis[6] == 0.0
    assert math.atan2(-1e-300, 0.4) / 2.0 + math.pi == math.pi


def test_one_point_functions_are_bit_equal_to_the_reference():
    one, rows = GRID[:400], ROWS[:400]
    mean = [ref_mean_spin_components(*row) for row in rows]
    raising = [ref_raising_moments(*row) for row in rows]
    frames = [compute_frame(MeanSpin(*m)) for m in mean]
    framed = [i for i, f in enumerate(frames) if f.status is not FrameStatus.FULLY_DEGENERATE]
    checks = {
        "mean_spin_closed_form": (
            [tuple(vars(mean_spin_closed_form(p)).values()) for p in one], mean),
        "mean_spin_length": (
            [(mean_spin_length(MeanSpin(*m)),) for m in mean],
            [(ref_spin_length(*m),) for m in mean]),
        "mean_spin_length_closed_form": (
            [(mean_spin_length_closed_form(p),) for p in one],
            [(ref_radical_length(*row),) for row in rows]),
        "second_moments_closed_form": (
            [tuple(vars(second_moments_closed_form(p)).values()) for p in one], raising),
        "build_superposition_state": (
            [tuple(build_superposition_state(p)) for p in one], [ref_state(*row) for row in rows]),
        "compute_frame": (
            [(*f.n1, *f.n2, *f.n3) for f in frames],
            [ref_frame_triad(f.theta, f.phi) for f in frames]),
        "frame_moments_closed_form": (
            [tuple(vars(frame_moments_closed_form(one[i], frames[i])).values()) for i in framed],
            [ref_transverse_moments(ref_cartesian(*raising[i]), raising[i][1],
                                    frames[i].theta, frames[i].phi) for i in framed]),
    }
    assert framed and len(framed) < len(one)
    for name, (got, want) in checks.items():
        points = [one[i] for i in framed] if name == "frame_moments_closed_form" else one
        _assert_bit_equal(name, [np.array(c) for c in zip(*got)], want, points)
