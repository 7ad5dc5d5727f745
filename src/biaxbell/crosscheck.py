"""Closed forms versus oracle, with convention adjudication.

Two transcription ambiguities are treated as open hypotheses rather than
silently resolved:

* the sign of nu in the nu-dependent moments ("as-printed" versus
  "nu-negated", meaning the closed forms evaluated at -nu);
* the one-half factor in the minimal transverse variance ("literal" versus
  "half-corrected").

run_crosscheck evaluates both candidates of each hypothesis over a parameter
grid against the operator oracle and selects whichever matches, reporting
"inconclusive" when the grid cannot tell the candidates apart or when
neither fits.  Quantities that are unaffected by either hypothesis must
match as printed; those are the build-stopping ones.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .closedform import (
    cartesian_from_raising,
    frame_moments_closed_form,
    second_moments_closed_form,
)
from .frame import (
    FrameStatus,
    compute_frame,
    mean_spin_closed_form,
    mean_spin_length,
    mean_spin_length_closed_form,
)
from .oracle import evaluate_oracle
from .spincore import SqueezeParams

DEFAULT_TOL = 1e-10

NU_AS_PRINTED = "as-printed"
NU_NEGATED = "nu-negated"
FACTOR_LITERAL = "literal"
FACTOR_HALF = "half-corrected"
INCONCLUSIVE = "inconclusive"

# identical under both nu candidates; any failure here is a defect, not a
# convention question
CONVENTION_INDEPENDENT = (
    "jx",
    "jz",
    "r",
    "jplus_sq",
    "jz_sq",
    "xz_anticomm",
    "jx2_plus_jy2",
    "jx2_minus_jy2",
    "xy_anticomm",
)
NU_DISCRIMINATING = ("jy", "yz_anticomm", "anticomm")
FRAME_DEPENDENT = ("jn1_sq", "jn2_sq", "anticomm")


BETA_STEPS = 21
MUS = (0.0, np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6, np.pi)
NUS = (-np.pi / 2, -np.pi / 3, 0.0, np.pi / 4, np.pi / 2, np.pi)


def default_grid(betas=None, mus=MUS, nus=NUS) -> list[SqueezeParams]:
    """Points ordered beta, mu, nu; betas defaults to BETA_STEPS values on [0, 1]."""
    if betas is None:
        betas = np.linspace(0.0, 1.0, BETA_STEPS)
    return [
        SqueezeParams(beta=float(b), mu=float(m), nu=float(v))
        for b in betas
        for m in mus
        for v in nus
    ]


@dataclass(frozen=True)
class CrosscheckFailure:
    beta: float
    mu: float
    nu: float
    quantity: str
    closed: complex
    oracle: complex
    diff: float


@dataclass
class CrosscheckReport:
    samples: int
    tol: float
    nu_sign_hypothesis: str
    factor_hypothesis: str
    max_abs_diff_per_quantity: dict[str, float]
    nu_candidate_max_diff: dict[str, float]
    nu_discrimination: float
    factor_candidate_max_diff: dict[str, float]
    factor_discrimination: float
    regular_points: int
    polar_degenerate_points: int
    fully_degenerate_points: int
    failures: list[CrosscheckFailure] = field(default_factory=list)

    @property
    def independent_ok(self) -> bool:
        return all(
            self.max_abs_diff_per_quantity.get(q, 0.0) <= self.tol
            for q in CONVENTION_INDEPENDENT
        )

    def as_dict(self) -> dict:
        """Fields in declaration order, independent_ok before the failures."""
        data = asdict(self)
        failures = data.pop("failures")
        data["independent_ok"] = self.independent_ok
        data["failures"] = [
            {**f, "closed": repr(f["closed"]), "oracle": repr(f["oracle"])} for f in failures
        ]
        return data


def _closed_values(params: SqueezeParams) -> dict[str, complex]:
    """Closed-form values of every compared quantity at one parameter point.

    Frame-dependent entries are evaluated in the frame of the closed-form
    mean spin and are absent when that frame is fully degenerate.
    """
    ms = mean_spin_closed_form(params)
    raising = second_moments_closed_form(params)
    cart = cartesian_from_raising(raising)
    values: dict[str, complex] = {
        "jx": ms.jx,
        "jy": ms.jy,
        "jz": ms.jz,
        "r": mean_spin_length_closed_form(params),
        "jplus_sq": raising.jplus_sq,
        "jz_sq": raising.jz_sq,
        "xz_anticomm": cart.xz_anticomm,
        "yz_anticomm": cart.yz_anticomm,
        "jx2_plus_jy2": cart.jx2_plus_jy2,
        "jx2_minus_jy2": cart.jx2_minus_jy2,
        "xy_anticomm": cart.xy_anticomm,
    }
    frame = compute_frame(ms)
    if frame.status is not FrameStatus.FULLY_DEGENERATE:
        fm = frame_moments_closed_form(params, frame)
        values["jn1_sq"] = fm.jn1_sq
        values["jn2_sq"] = fm.jn2_sq
        values["anticomm"] = fm.anticomm
        values["_radical"] = (fm.jn1_sq + fm.jn2_sq) - float(
            np.hypot(fm.jn1_sq - fm.jn2_sq, fm.anticomm)
        )
    return values


def _oracle_values(point) -> dict[str, complex]:
    m = point.moments
    table = m.table
    values: dict[str, complex] = {
        "jx": m.mean.jx,
        "jy": m.mean.jy,
        "jz": m.mean.jz,
        "r": mean_spin_length(m.mean),
        "jplus_sq": m.raising.jplus_sq,
        "jz_sq": m.raising.jz_sq,
        "xz_anticomm": 2.0 * table[0, 2],
        "yz_anticomm": 2.0 * table[1, 2],
        "jx2_plus_jy2": table[0, 0] + table[1, 1],
        "jx2_minus_jy2": table[0, 0] - table[1, 1],
        "xy_anticomm": 2.0 * table[0, 1],
    }
    if point.frame_moments is not None:
        values["jn1_sq"] = point.frame_moments.jn1_sq
        values["jn2_sq"] = point.frame_moments.jn2_sq
        values["anticomm"] = point.frame_moments.anticomm
        values["_lambda"] = point.result.lambda_min
    return values


def _adjudicate(
    names: tuple[str, str], diffs: tuple[float, float], discrimination: float, tol: float
) -> str:
    if discrimination <= tol:
        return INCONCLUSIVE        # grid cannot tell the candidates apart
    ok = [d <= tol for d in diffs]
    if ok[0] and not ok[1]:
        return names[0]
    if ok[1] and not ok[0]:
        return names[1]
    return INCONCLUSIVE


def run_crosscheck(
    grid: list[SqueezeParams] | None = None, tol: float = DEFAULT_TOL
) -> CrosscheckReport:
    """Compare closed forms against the oracle over a grid and adjudicate."""
    if grid is None:
        grid = default_grid()
    if len(grid) == 0:
        raise ValueError("crosscheck grid must be nonempty")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    records = []
    status_counts = {s: 0 for s in FrameStatus}
    for params in grid:
        point = evaluate_oracle(params)
        status_counts[point.frame.status] += 1
        oracle_vals = _oracle_values(point)
        printed = _closed_values(params)
        negated = _closed_values(replace(params, nu=-params.nu))
        records.append((params, oracle_vals, printed, negated))

    candidate_diffs = {NU_AS_PRINTED: {}, NU_NEGATED: {}}
    nu_discrimination = 0.0
    for params, oracle_vals, printed, negated in records:
        for label, closed_vals in ((NU_AS_PRINTED, printed), (NU_NEGATED, negated)):
            bucket = candidate_diffs[label]
            for name, closed in closed_vals.items():
                if name.startswith("_") or name not in oracle_vals:
                    continue
                diff = abs(closed - oracle_vals[name])
                if diff > bucket.get(name, 0.0):
                    bucket[name] = diff
        for name in NU_DISCRIMINATING:
            if name in printed and name in negated:
                spread = abs(printed[name] - negated[name])
                nu_discrimination = max(nu_discrimination, spread)

    nu_candidate_max = {
        label: max(
            (candidate_diffs[label].get(q, 0.0) for q in NU_DISCRIMINATING), default=0.0
        )
        for label in (NU_AS_PRINTED, NU_NEGATED)
    }
    nu_hypothesis = _adjudicate(
        (NU_AS_PRINTED, NU_NEGATED),
        (nu_candidate_max[NU_AS_PRINTED], nu_candidate_max[NU_NEGATED]),
        nu_discrimination,
        tol,
    )

    factor_candidate_max = {FACTOR_LITERAL: 0.0, FACTOR_HALF: 0.0}
    factor_discrimination = 0.0
    for params, oracle_vals, printed, _ in records:
        if "_lambda" not in oracle_vals or "_radical" not in printed:
            continue
        lam = oracle_vals["_lambda"].real
        radical = printed["_radical"].real    # same under both nu candidates
        factor_candidate_max[FACTOR_LITERAL] = max(
            factor_candidate_max[FACTOR_LITERAL], abs(radical - lam)
        )
        factor_candidate_max[FACTOR_HALF] = max(
            factor_candidate_max[FACTOR_HALF], abs(radical / 2.0 - lam)
        )
        factor_discrimination = max(factor_discrimination, abs(radical / 2.0))
    factor_hypothesis = _adjudicate(
        (FACTOR_LITERAL, FACTOR_HALF),
        (factor_candidate_max[FACTOR_LITERAL], factor_candidate_max[FACTOR_HALF]),
        factor_discrimination,
        tol,
    )

    # reported diffs: independent quantities as printed, the rest under the
    # selected candidates (falling back to as-printed when inconclusive)
    selected_nu = NU_NEGATED if nu_hypothesis == NU_NEGATED else NU_AS_PRINTED
    max_diff: dict[str, float] = {}
    for q in CONVENTION_INDEPENDENT:
        max_diff[q] = candidate_diffs[NU_AS_PRINTED].get(q, 0.0)
    for q in ("jy", "yz_anticomm", "jn1_sq", "jn2_sq", "anticomm"):
        max_diff[q] = candidate_diffs[selected_nu].get(q, 0.0)
    lam_factor = 0.5 if factor_hypothesis != FACTOR_LITERAL else 1.0
    lam_max = 0.0

    failures: list[CrosscheckFailure] = []

    def check(params, name, closed, oracle):
        diff = abs(closed - oracle)
        if diff > tol:
            failures.append(
                CrosscheckFailure(
                    beta=params.beta,
                    mu=params.mu,
                    nu=params.nu,
                    quantity=name,
                    closed=closed,
                    oracle=oracle,
                    diff=diff,
                )
            )

    for params, oracle_vals, printed, negated in records:
        selected_vals = negated if selected_nu == NU_NEGATED else printed
        for q in CONVENTION_INDEPENDENT:
            if q in oracle_vals:
                check(params, q, printed[q], oracle_vals[q])
        for q in ("jy", "yz_anticomm", "jn1_sq", "jn2_sq", "anticomm"):
            if q in oracle_vals and q in selected_vals:
                check(params, q, selected_vals[q], oracle_vals[q])
        if "_lambda" in oracle_vals and "_radical" in selected_vals:
            lam_closed = selected_vals["_radical"].real * lam_factor
            lam = oracle_vals["_lambda"].real
            lam_max = max(lam_max, abs(lam_closed - lam))
            check(params, "lambda_min", lam_closed, lam)
    max_diff["lambda_min"] = lam_max

    return CrosscheckReport(
        samples=len(grid),
        tol=tol,
        nu_sign_hypothesis=nu_hypothesis,
        factor_hypothesis=factor_hypothesis,
        max_abs_diff_per_quantity=max_diff,
        nu_candidate_max_diff=nu_candidate_max,
        nu_discrimination=nu_discrimination,
        factor_candidate_max_diff=factor_candidate_max,
        factor_discrimination=factor_discrimination,
        regular_points=status_counts[FrameStatus.REGULAR],
        polar_degenerate_points=status_counts[FrameStatus.POLAR_DEGENERATE],
        fully_degenerate_points=status_counts[FrameStatus.FULLY_DEGENERATE],
        failures=failures,
    )
