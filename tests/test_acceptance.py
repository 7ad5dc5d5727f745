"""Acceptance suite: one test per release criterion.

Run with -v to get one pass/fail line per criterion.  Each test states its
tolerance inline; none of them loosen a bound to pass.
"""
import math

import numpy as np
import pytest

from biaxbell import (
    FrameStatus,
    SqueezeParams,
    build_spin_operators,
    build_superposition_state,
    compute_frame,
    concurrence,
    default_grid,
    evaluate_oracle,
    expectation,
    mean_spin_closed_form,
    mean_spin_length,
    mean_spin_length_closed_form,
    min_transverse_variance,
    min_transverse_variance_scan,
    min_variance_all_directions,
    moments_oracle,
    run_crosscheck,
    squeeze_oracle,
)
from biaxbell.cli import (
    main,
    monotone_nonincreasing,
    rise_then_fall,
    run_fig2,
)
from biaxbell.oracle import _sphere_scan

RNG_SEED = 20240817


def _random_params(rng, n):
    return [
        SqueezeParams(
            beta=float(rng.uniform(0.0, 1.0)),
            mu=float(rng.uniform(0.0, math.pi)),
            nu=float(rng.uniform(-math.pi, math.pi)),
        )
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def default_grid_points():
    return [evaluate_oracle(SqueezeParams(beta=b, mu=m, nu=v))
            for _, b, m, v in default_grid().T.tolist()]


@pytest.fixture(scope="module")
def fig2_run():
    return run_fig2()


def test_criterion_01_coherent_state_calibration():
    """beta=0, mu=0 must give xi2_std = 1, C = 0, R = 1 for any nu."""
    for nu in (0.0, 0.7, -2.4, math.pi):
        p = SqueezeParams(beta=0.0, mu=0.0, nu=nu)
        res = squeeze_oracle(p)
        assert res.xi2_std == pytest.approx(1.0, abs=1e-10)
        assert res.concurrence == pytest.approx(0.0, abs=1e-12)
        assert mean_spin_length_closed_form(p) == pytest.approx(1.0, abs=1e-12)
        assert mean_spin_length(mean_spin_closed_form(p)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_criterion_02_length_routes_identical():
    """Component-norm R and single-radical R agree to 1e-12 on 1e4 samples."""
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for p in _random_params(rng, 10_000):
        diff = abs(
            mean_spin_length(mean_spin_closed_form(p))
            - mean_spin_length_closed_form(p)
        )
        worst = max(worst, diff)
    assert worst <= 1e-12, f"length routes disagree by {worst:.3e}"


def test_criterion_03_closed_forms_match_oracle():
    """Every closed-form moment matches the oracle to 1e-10 on the default
    grid under the adjudicated nu convention; convention-independent
    quantities must already match as written."""
    rep = run_crosscheck(tol=1e-10)
    assert rep.independent_ok, (
        f"convention-independent quantities disagree: {rep.max_abs_diff_per_quantity}"
    )
    assert rep.nu_sign_hypothesis == "nu-negated"
    assert rep.factor_hypothesis == "half-corrected"
    assert rep.failures == [], f"{len(rep.failures)} quantities beyond 1e-10"
    assert max(rep.max_abs_diff_per_quantity.values()) <= 1e-10


def test_criterion_04_minimization_double_check():
    """Eigenvalue and scan minimizers agree: 1e-8 transverse on 1e3 regular
    points, 1e-6 all-directions on degenerate points."""
    ops = build_spin_operators(1.0)
    rng = np.random.default_rng(RNG_SEED + 1)
    checked = 0
    while checked < 1000:
        p = _random_params(rng, 1)[0]
        state = build_superposition_state(p)
        frame = compute_frame(moments_oracle(state, ops).mean)
        if frame.status is FrameStatus.FULLY_DEGENERATE:
            continue
        lam, _ = min_transverse_variance(state, frame, ops)
        lam_scan, _ = min_transverse_variance_scan(state, frame, ops)
        assert abs(lam - lam_scan) <= 1e-8, f"transverse mismatch at {p}"
        checked += 1

    degenerate = [
        SqueezeParams(beta=1.0, mu=float(mu), nu=float(nu))
        for mu in (0.0, 1.0, 2.5)
        for nu in (-1.0, 0.3)
    ] + [
        SqueezeParams(beta=0.0, mu=math.pi / 2, nu=0.0),
        SqueezeParams(beta=0.4, mu=math.pi / 2, nu=0.0),
    ]
    for p in degenerate:
        state = build_superposition_state(p)
        lam, _ = min_variance_all_directions(state, ops)
        lam_scan = _sphere_scan(state, ops)
        assert abs(lam - lam_scan) <= 1e-6, f"all-directions mismatch at {p}"


def test_criterion_05_mean_spin_length_shapes():
    """mu=0: R falls monotonically from 1 to 0.  mu=pi/2, sin(nu) != 0:
    unimodal with the maximum within 0.01 of beta = 1/sqrt(2)."""
    betas = np.linspace(0.0, 1.0, 101)
    r0 = np.array(
        [
            mean_spin_length_closed_form(SqueezeParams(beta=float(b), mu=0.0, nu=1.1))
            for b in betas
        ]
    )
    assert monotone_nonincreasing(r0)
    assert r0[0] == pytest.approx(1.0, abs=1e-12)
    assert r0[-1] == pytest.approx(0.0, abs=1e-12)

    target = 1.0 / math.sqrt(2.0)
    for nu in np.linspace(0.0, 2.0 * math.pi, 121):
        if abs(math.sin(nu)) <= 1e-9:
            continue
        curve = np.array(
            [
                mean_spin_length_closed_form(
                    SqueezeParams(beta=float(b), mu=math.pi / 2, nu=float(nu))
                )
                for b in betas
            ]
        )
        assert rise_then_fall(curve), f"not unimodal at nu={nu}"
        peak = betas[int(np.argmax(curve))]
        assert abs(peak - target) <= 0.01, f"peak {peak} off target at nu={nu}"


def test_criterion_06_squeezing_curve_shapes(fig2_run):
    """nu=-pi/3 slices, both normalizations: mu=0 decreasing, mu=pi/2 and
    mu=pi rising to an interior maximum then falling, and the squeezed beta
    interval at mu=pi/2 strictly widest."""
    _, violations, _ = fig2_run
    assert not violations, (
        "unmet shape expectations: "
        + "; ".join(violations)
        + ".  The mu=pi clause is unattainable: a pi rotation of every spin "
        "about the y axis maps each mu=pi state onto the corresponding mu=0 "
        "state, so the squeezing parameter on the mu=pi slice equals the "
        "mu=0 curve (1 - beta^2 in the standard normalization, twice that "
        "in the literal one), which decreases monotonically and admits no "
        "interior maximum.  A rise-and-fall on this slice appears only if "
        "the transverse moments are computed with a sign defect that breaks "
        "the rotational equivalence."
    )


def test_criterion_07_frame_integrity(default_grid_points):
    """Regular grid points: transverse means vanish (1e-10), the frame is
    special-orthogonal (1e-12), transverse moments plus <Jn3^2> give the
    Casimir value 2 (1e-10)."""
    ops = build_spin_operators(1.0)
    regular = [
        pt for pt in default_grid_points
        if pt.result.frame_status is FrameStatus.REGULAR
    ]
    assert regular
    for pt in regular:
        frame = pt.frame
        jn1 = sum(c * op for c, op in zip(frame.n1, (ops.jx, ops.jy, ops.jz)))
        jn2 = sum(c * op for c, op in zip(frame.n2, (ops.jx, ops.jy, ops.jz)))
        jn3 = sum(c * op for c, op in zip(frame.n3, (ops.jx, ops.jy, ops.jz)))
        assert abs(expectation(jn1, pt.state)) <= 1e-10
        assert abs(expectation(jn2, pt.state)) <= 1e-10
        rot = np.vstack([frame.n1, frame.n2, frame.n3])
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        jn3_sq = expectation(jn3 @ jn3, pt.state).real
        total = pt.frame_moments.jn1_sq + pt.frame_moments.jn2_sq + jn3_sq
        assert total == pytest.approx(2.0, abs=1e-10)


def test_criterion_08_operator_algebra():
    """Hermiticity, commutators, Casimir to 1e-12 for five spin values."""
    for j in (0.5, 1.0, 1.5, 2.0, 2.5):
        ops = build_spin_operators(j)
        for h in (ops.jx, ops.jy, ops.jz):
            np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
        cyclic = [
            (ops.jx, ops.jy, ops.jz),
            (ops.jy, ops.jz, ops.jx),
            (ops.jz, ops.jx, ops.jy),
        ]
        for a, b, c in cyclic:
            np.testing.assert_allclose(a @ b - b @ a, 1j * c, atol=1e-12)
        casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
        np.testing.assert_allclose(casimir, j * (j + 1) * np.eye(ops.dim), atol=1e-12)


def test_criterion_09_concurrence_anchors(fig2_run, tmp_path):
    """Anchor values of C and the (xi2_std, 1 - C) diagnostic table."""
    bell_type = build_superposition_state(
        SqueezeParams(beta=0.0, mu=math.pi / 2, nu=0.0)
    )
    assert concurrence(bell_type) == pytest.approx(1.0, abs=1e-12)
    m0 = build_superposition_state(SqueezeParams(beta=1.0, mu=0.4, nu=1.2))
    assert concurrence(m0) == pytest.approx(1.0, abs=1e-12)
    product = build_superposition_state(SqueezeParams(beta=0.0, mu=0.0, nu=0.0))
    assert concurrence(product) == pytest.approx(0.0, abs=1e-12)

    # emit the diagnostic pairs over the squeezing sweep; no equality assert
    slices, _, _ = fig2_run
    table = tmp_path / "xi2_vs_concurrence.csv"
    rows = 0
    with table.open("w") as handle:
        handle.write("beta,mu,xi2_std,one_minus_concurrence\n")
        for columns in slices.values():
            for beta, mu, xi2, c in zip(columns["beta"], columns["mu"], columns["xi2_std"],
                                        columns["concurrence"]):
                handle.write(f"{beta!r},{mu!r},{xi2!r},{1.0 - c!r}\n")
                rows += 1
    assert rows == 3 * 201
    assert table.stat().st_size > 0


def test_criterion_10_sweep_determinism(tmp_path):
    """Identical bytes from the same sweep run twice, with another sweep between."""
    base = ["sweep", "--beta-steps", "9", "--mu-list", "0,pi/2,pi",
            "--nu-list", "0,2pi/3"]
    first = tmp_path / "first.csv"
    again = tmp_path / "again.csv"
    assert main(base + ["--out", str(first)]) == 0
    assert main(["sweep", "--beta-steps", "5", "--mu-list", "pi/3", "--nu-list", "0.4",
                 "--out", str(tmp_path / "other.csv")]) == 0
    assert main(base + ["--out", str(again)]) == 0
    assert first.read_bytes() == again.read_bytes(), "outputs differ between runs"
