"""Closed-form/oracle reconciliation and convention adjudication."""
import copy
import dataclasses
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from biaxbell import (
    SqueezeParams,
    default_grid,
    mean_spin_closed_form,
    mean_spin_length_closed_form,
    run_crosscheck,
)
from biaxbell.closedform import (
    FrameMoments,
    cartesian_from_raising,
    frame_moments_closed_form,
    minimal_variance_closed_form,
    second_moments_closed_form,
    squeezing_literal,
    squeezing_standard,
)
from biaxbell.crosscheck import (
    CLOSED_QUANTITIES,
    CONVENTION_INDEPENDENT,
    FACTOR_HALF,
    INCONCLUSIVE,
    MEAN_SPIN_QUANTITIES,
    NU_NEGATED,
    _NEGATE_NU,
    closed_arrays,
    closed_values,
    mean_spin_columns,
    oracle_values,
)
from biaxbell.frame import FrameStatus, compute_frame, mean_spin_length
from biaxbell.oracle import evaluate_oracle
from biaxbell.spincore import alpha_of, axis_grid, param_columns


@pytest.fixture(scope="module")
def default_report():
    return run_crosscheck()


def test_default_grid_layout():
    grid = default_grid()
    assert grid.shape == (4, 21 * 7 * 6)
    assert grid[1, 0] == 0.0 and grid[1, -1] == 1.0


def test_default_run_adjudicates_conventions(default_report):
    rep = default_report
    assert rep.samples == 882
    assert rep.nu_sign_hypothesis == NU_NEGATED
    assert rep.factor_hypothesis == FACTOR_HALF
    # the candidates are separated by orders of magnitude, not a close call
    assert rep.nu_candidate_max_diff["as-printed"] > 1.0
    assert rep.nu_candidate_max_diff["nu-negated"] < 1e-12
    assert rep.factor_candidate_max_diff["literal"] > 0.4
    assert rep.factor_candidate_max_diff["half-corrected"] < 1e-12
    assert rep.nu_discrimination > 1.0
    assert rep.factor_discrimination == pytest.approx(0.5, abs=1e-12)


def test_default_run_independent_quantities_pass(default_report):
    rep = default_report
    assert rep.independent_ok
    assert rep.failures == []
    for name in CONVENTION_INDEPENDENT:
        assert rep.max_abs_diff_per_quantity[name] <= 1e-12


def test_default_run_counts_frame_statuses(default_report):
    rep = default_report
    assert rep.regular_points == 760
    assert rep.polar_degenerate_points == 36
    assert rep.fully_degenerate_points == 86
    assert rep.regular_points + rep.polar_degenerate_points + rep.fully_degenerate_points == 882


def test_status_counts_match_the_per_row_frames():
    # mu = 0 at beta = 0 is polar-degenerate, mu = pi/2 at nu = 0 fully
    # degenerate and the rest regular: the counts equal each row's oracle frame
    grid = default_grid([0.0, 0.5, 1.0], (0.0, math.pi / 3, math.pi / 2), (0.0, 1.0, -2.0))
    statuses = [evaluate_oracle(SqueezeParams(b, m, n)).frame.status
                for _, b, m, n in grid.T.tolist()]
    rep = run_crosscheck(grid)
    counts = [rep.regular_points, rep.polar_degenerate_points, rep.fully_degenerate_points]
    assert counts == [statuses.count(s) for s in FrameStatus]
    assert all(counts) and sum(counts) == grid.shape[1]
    assert all(type(c) is int for c in counts)


def test_nu_hypothesis_inconclusive_without_discriminating_phase():
    # sin(nu) = 0 everywhere makes the two sign conventions identical
    grid = [
        SqueezeParams(beta=b, mu=m, nu=0.0)
        for b in (0.2, 0.5, 0.8)
        for m in (0.0, math.pi / 3, math.pi / 2)
    ]
    rep = run_crosscheck(param_columns(grid))
    assert rep.nu_sign_hypothesis == INCONCLUSIVE
    assert rep.independent_ok


def test_nu_independent_quantities_by_construction():
    # jz and r only see nu through even functions
    for nu in (0.3, 1.2, 2.9):
        p = SqueezeParams(beta=0.4, mu=1.0, nu=nu)
        q = replace(p, nu=-nu)
        assert mean_spin_closed_form(p).jz == mean_spin_closed_form(q).jz
        assert mean_spin_length_closed_form(p) == pytest.approx(
            mean_spin_length_closed_form(q), abs=1e-15
        )


def test_rejects_empty_grid_and_bad_tol():
    with pytest.raises(ValueError):
        run_crosscheck(default_grid(betas=()))
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            run_crosscheck(default_grid()[:, :4], tol=tol)


def test_report_deterministic():
    grid = default_grid()[:, :40]
    a = run_crosscheck(grid).as_dict()
    b = run_crosscheck(grid).as_dict()
    assert a == b


def test_failures_recorded_beyond_tolerance():
    # a tolerance below floating-point noise must surface failures, each
    # carrying a diff above that tolerance
    grid = [SqueezeParams(beta=0.6, mu=math.pi / 3, nu=math.pi / 4)]
    rep = run_crosscheck(param_columns(grid), tol=1e-18)
    assert rep.failures
    assert all(f.diff > 1e-18 for f in rep.failures)
    assert all(np.isfinite(f.diff) for f in rep.failures)


# independent quantities, then those compared under the selected nu
# candidate, then lambda_min
REPORT_ORDER = (
    *CONVENTION_INDEPENDENT, "jy", "yz_anticomm", "jn1_sq", "jn2_sq", "anticomm", "lambda_min"
)


def test_failure_order_matches_maxima():
    # the last point has a fully degenerate frame and no frame quantities
    grid = [
        SqueezeParams(beta=0.6, mu=math.pi / 3, nu=math.pi / 4),
        SqueezeParams(beta=0.3, mu=2 * math.pi / 3, nu=-math.pi / 3),
        SqueezeParams(beta=1.0, mu=math.pi / 2, nu=0.5),
    ]
    rep = run_crosscheck(param_columns(grid), tol=1e-18)
    assert list(rep.max_abs_diff_per_quantity) == list(REPORT_ORDER)
    points = [(p.beta, p.mu, p.nu) for p in grid]
    keys = [
        (points.index((f.beta, f.mu, f.nu)), REPORT_ORDER.index(f.quantity))
        for f in rep.failures
    ]
    assert len({point for point, _ in keys}) >= 2
    assert keys == sorted(set(keys))       # grid order, then report order, no repeats
    for name, largest in rep.max_abs_diff_per_quantity.items():
        diffs = [f.diff for f in rep.failures if f.quantity == name]
        if diffs:
            assert largest == max(diffs)
        else:
            assert largest <= rep.tol


def test_report_serializable(default_report):
    import json

    payload = default_report.as_dict()
    parsed = json.loads(json.dumps(payload))
    assert parsed["samples"] == 882
    assert parsed["nu_sign_hypothesis"] == NU_NEGATED


def test_report_dict_value_and_independence():
    # the fields in declaration order, independent_ok before the failures,
    # and each failure's closed and oracle value as its repr
    rep = run_crosscheck(default_grid()[:, :12], tol=1e-18)
    assert rep.failures
    want = dataclasses.asdict(rep)
    failures = want.pop("failures")
    want["independent_ok"] = rep.independent_ok
    want["failures"] = [
        {**f, "closed": repr(f["closed"]), "oracle": repr(f["oracle"])} for f in failures
    ]
    got = rep.as_dict()
    assert got == want
    assert list(got) == list(want)
    assert [list(f) for f in got["failures"]] == [list(f) for f in want["failures"]]

    # what as_dict returns shares no mutable part with the report
    before = copy.deepcopy(rep)
    for name in ("max_abs_diff_per_quantity", "nu_candidate_max_diff",
                 "factor_candidate_max_diff"):
        got[name]["extra"] = 1.0
        got[name].pop(next(iter(getattr(rep, name))))
    got["failures"][0]["quantity"] = "changed"
    got["failures"][0]["diff"] = -1.0
    got["failures"].clear()
    assert rep == before
    assert rep.as_dict() == want


def test_failures_carry_python_scalars():
    # oracle entries read from the moment table used to leak numpy scalars,
    # which print as np.float64(...) in the text and JSON reports
    import io

    from biaxbell.cli import _render_crosscheck_text

    grid = [
        SqueezeParams(beta=0.6, mu=math.pi / 3, nu=math.pi / 4),
        SqueezeParams(beta=1.0, mu=math.pi / 2, nu=0.5),
    ]
    rep = run_crosscheck(param_columns(grid), tol=1e-18)
    assert {f.quantity for f in rep.failures} >= {"xz_anticomm", "jplus_sq", "lambda_min"}
    for f in rep.failures:
        assert type(f.beta) is type(f.mu) is type(f.nu) is float
        assert type(f.closed) in (float, complex)
        assert type(f.oracle) in (float, complex)
        assert type(f.diff) is float
    text = io.StringIO()
    _render_crosscheck_text(rep, text)
    assert "np." not in text.getvalue()


FULLY_DEGENERATE_GRID = [
    SqueezeParams(beta=1.0, mu=mu, nu=nu) for mu in (0.0, math.pi / 2) for nu in (0.3, -1.0)
]
POLAR_GRID = [SqueezeParams(beta=0.0, mu=math.pi / 3, nu=0.5)]


@pytest.mark.parametrize("grid", [FULLY_DEGENERATE_GRID, POLAR_GRID], ids=["fully", "polar"])
@pytest.mark.parametrize("tol", [1e-10, 1e-18])
def test_missing_frames_never_reach_the_report(grid, tol):
    # routes without a transverse frame are NaN-marked inside run_crosscheck;
    # no NaN and no floating-point warning may come out of it
    import json
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_crosscheck(param_columns(grid), tol=tol)
    json.dumps(rep.as_dict(), allow_nan=False)
    if grid is FULLY_DEGENERATE_GRID:
        assert rep.fully_degenerate_points == len(grid)
        assert rep.factor_hypothesis == INCONCLUSIVE
        assert rep.factor_candidate_max_diff == {"literal": 0.0, "half-corrected": 0.0}
        assert rep.factor_discrimination == 0.0
        for name in ("jn1_sq", "jn2_sq", "anticomm", "lambda_min"):
            assert rep.max_abs_diff_per_quantity[name] == 0.0
    else:
        assert rep.polar_degenerate_points == 1
        if tol == 1e-10:
            assert rep.factor_hypothesis == FACTOR_HALF


FRAME_QUANTITIES = ("jn1_sq", "jn2_sq", "anticomm")


def test_records_share_quantity_names():
    params = SqueezeParams(beta=0.6, mu=1.0, nu=0.7)
    closed, oracle = closed_values(params), oracle_values(params)
    # the oracle adds its frame angles and squeezing result; the closed form
    # adds r_eq9 and the radical
    assert set(closed) - set(oracle) == {"r_eq9", "radical"}
    assert set(oracle) - set(closed) == {
        "theta", "phi", "frame_status", "method",
        "lambda_min", "chi_min", "xi2_std", "xi2_literal", "concurrence",
    }
    mean = {q: column[0] for q, column in mean_spin_columns(param_columns([params])).items()}
    assert mean == {k: closed[k] for k in ("jx", "jy", "jz", "r_eq9", "r")}


@pytest.mark.parametrize(
    "params,has_frame",
    [
        (SqueezeParams(beta=0.6, mu=1.0, nu=0.7), True),
        (SqueezeParams(beta=1.0, mu=0.5, nu=0.3), False),
        (SqueezeParams(beta=0.0, mu=0.0, nu=0.0), True),       # polar-degenerate
    ],
    ids=["regular", "fully-degenerate", "polar-degenerate"],
)
def test_records_mark_missing_frames_with_nan(params, has_frame):
    closed, oracle = closed_values(params), oracle_values(params)
    for record in (closed, oracle):
        assert [math.isnan(record[q]) for q in FRAME_QUANTITIES] == [not has_frame] * 3
    assert math.isnan(closed["radical"]) is not has_frame
    # the oracle record keeps the all-directions minimum of a frameless point
    assert math.isfinite(oracle["lambda_min"])
    nan_keys = {k for r in (closed, oracle) for k, v in r.items()
                if isinstance(v, float) and math.isnan(v)}
    assert nan_keys <= {*FRAME_QUANTITIES, "radical"}


def test_radical_is_the_closed_form_squeezing_bit_for_bit():
    rng = np.random.default_rng(3)
    for beta, mu, nu in zip(rng.uniform(0, 1, 300), rng.uniform(0, math.pi, 300),
                            rng.uniform(-math.pi, math.pi, 300)):
        params = SqueezeParams(beta=beta, mu=mu, nu=nu)
        moments = frame_moments_closed_form(
            params, compute_frame(mean_spin_closed_form(params)))
        radical = closed_values(params)["radical"]
        assert radical == squeezing_standard(moments)
        assert 2.0 * radical == squeezing_literal(moments)


@pytest.fixture(scope="module")
def column_grid():
    """The default grid (beta in {0, 1}, mu in {0, pi/2, pi}, zero-mean rows
    at mu = pi/2 with nu in {0, pi}) and 2,400 seeded points with |nu| up to 9."""
    rng = np.random.default_rng(13)
    extra = [
        SqueezeParams(
            beta=rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]),
            mu=rng.choice([0.0, math.pi / 2, math.pi, rng.uniform(0.0, math.pi)]),
            nu=rng.uniform(-9.0, 9.0),
        )
        for _ in range(2400)
    ]
    grid = [SqueezeParams(beta=b, mu=m, nu=v) for _, b, m, v in default_grid().T.tolist()]
    grid += extra
    assert len(grid) >= 3000
    assert any(abs(p.nu) > 2 * math.pi for p in grid)
    return grid


def _bits(column) -> tuple:
    """dtype and raw bits of a column: NaN payloads and the sign of zero count."""
    a = np.array(column)
    return a.dtype, a.view(np.uint64).tolist()


def _scalar_record(params: SqueezeParams) -> dict:
    """One closed-form record composed from the public scalar functions."""
    ms = mean_spin_closed_form(params)
    raising = second_moments_closed_form(params)
    frame = compute_frame(ms)
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        moments = FrameMoments(jn1_sq=math.nan, jn2_sq=math.nan, anticomm=math.nan)
    else:
        moments = frame_moments_closed_form(params, frame)
    return {
        **vars(ms),
        "r_eq9": mean_spin_length(ms),
        "r": mean_spin_length_closed_form(params),
        **vars(raising),
        **cartesian_from_raising(raising)._asdict(),
        **vars(moments),
        "radical": 2.0 * minimal_variance_closed_form(moments),
    }


def test_closed_columns_match_scalar_functions_bit_for_bit(column_grid):
    records = [_scalar_record(p) for p in column_grid]
    columns = closed_arrays(param_columns(column_grid))
    assert tuple(columns) == tuple(records[0]) == CLOSED_QUANTITIES
    statuses = {compute_frame(mean_spin_closed_form(p)).status for p in column_grid}
    assert statuses == set(FrameStatus)
    for q in CLOSED_QUANTITIES:
        assert _bits(columns[q]) == _bits([r[q] for r in records]), q
    means = mean_spin_columns(param_columns(column_grid))
    assert tuple(means) == MEAN_SPIN_QUANTITIES
    for q in MEAN_SPIN_QUANTITIES:
        assert _bits(means[q]) == _bits(columns[q]), q
    for i in (0, 1, len(column_grid) - 1):
        one = closed_values(column_grid[i])
        mean = {q: column[0]
                for q, column in mean_spin_columns(param_columns([column_grid[i]])).items()}
        assert tuple(one) == CLOSED_QUANTITIES and tuple(mean) == MEAN_SPIN_QUANTITIES
        assert all(_bits([one[q]]) == _bits(columns[q][i:i + 1]) for q in one)
        assert all(_bits([mean[q]]) == _bits(means[q][i:i + 1]) for q in mean)


def test_negated_columns_match_the_replaced_grid(column_grid):
    negated = closed_arrays(param_columns(column_grid) * _NEGATE_NU)
    replaced = closed_arrays(param_columns([replace(p, nu=-p.nu) for p in column_grid]))
    for q in CLOSED_QUANTITIES:
        assert _bits(negated[q]) == _bits(replaced[q]), q


@pytest.mark.parametrize("sign", [1.0, _NEGATE_NU], ids=["nu", "minus-nu"])
def test_closed_columns_do_not_depend_on_batch_size(column_grid, sign):
    columns = param_columns(column_grid) * sign
    whole = closed_arrays(columns)
    for size in (1, 7):
        chunks = [closed_arrays(columns[:, i:i + size])
                  for i in range(0, len(column_grid), size)]
        for q in CLOSED_QUANTITIES:
            joined = [v for chunk in chunks for v in chunk[q]]
            assert _bits(joined) == _bits(whole[q]), (size, q)


def _closed_route_digests() -> dict[str, str]:
    """The first 16 hex digits of the SHA-256 of the repr of every
    closed_arrays column over 2,000 seeded points and 45 edge rows (the
    zero-mean ones among them), after checking that mean_spin_columns gives
    the same bits as its part of closed_arrays."""
    rng = np.random.default_rng(30)
    beta = rng.uniform(0.0, 1.0, 2000)
    seeded = np.array([alpha_of(beta), beta, rng.uniform(0.0, math.pi, 2000),
                       rng.uniform(-9.0, 9.0, 2000)])
    edges = axis_grid(("beta", "mu", "nu"), beta=(0.0, 1.0, 1.0 / math.sqrt(2.0)),
                      mu=(0.0, math.pi / 2, math.pi), nu=(0.0, -0.0, math.pi, 9.0, -7.5))
    grid = np.concatenate([seeded, edges], axis=1)
    columns, means = closed_arrays(grid), mean_spin_columns(grid)
    assert all(_bits(means[q]) == _bits(columns[q]) for q in MEAN_SPIN_QUANTITIES)
    return {q: hashlib.sha256(repr(column.tolist()).encode()).hexdigest()[:16]
            for q, column in columns.items()}


def test_closed_route_bits_are_pinned():
    # the closed route's columns bit for bit, signed zeros and NaN marks
    # included: a change to how the mean spin, its lengths or the moments
    # are evaluated must keep every value's bits
    assert _closed_route_digests() == {
        "jx": "aea6e667047e7bd4",
        "jy": "62b6a57eeb744dba",
        "jz": "311f7066d5c082ee",
        "r_eq9": "f9f9d4a2020d0277",
        "r": "570503a556070f38",
        "jplus_sq": "4206ec9b6290e0ca",
        "jz_sq": "247e882f1958ffe4",
        "jplus_2jz1": "9e418e21242a5557",
        "jx2_plus_jy2": "010a0ac50ed32575",
        "jx2_minus_jy2": "69f5d6927f7935b4",
        "xy_anticomm": "40f39a2fdc0d21ee",
        "xz_anticomm": "35fa9a2675c72c16",
        "yz_anticomm": "003ef944b69dfb48",
        "jn1_sq": "362fe86e0b825ef9",
        "jn2_sq": "95438ffa8395da7b",
        "anticomm": "c801d4fee72e44ad",
        "radical": "193854fcc4496ac4",
    }
