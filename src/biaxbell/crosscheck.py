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
    FrameMoments,
    cartesian_from_raising,
    frame_moments_closed_form,
    minimal_variance_closed_form,
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
# compared under the selected nu candidate, in report order
NU_SELECTED = ("jy", "yz_anticomm", *FRAME_DEPENDENT)


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
        values.update(vars(frame_moments_closed_form(params, frame)))
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
        values.update(vars(point.frame_moments))
    return values


def _has_frame(values: dict) -> bool:
    """Whether the route behind ``values`` had a transverse frame."""
    return FRAME_DEPENDENT[0] in values


def _radical(values: dict) -> float:
    """Closed-form lambda_min before its one-half factor:
    (jn1^2 + jn2^2) - sqrt((jn1^2 - jn2^2)^2 + anticomm^2)."""
    moments = FrameMoments(**{k: values[k] for k in FRAME_DEPENDENT})
    return 2.0 * minimal_variance_closed_form(moments)


def _max_diff(pairs) -> float:
    """Largest |x - y| over the pairs; 0.0 when there are none."""
    return max((abs(x - y) for x, y in pairs), default=0.0)


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
        closed = {
            NU_AS_PRINTED: _closed_values(params),
            NU_NEGATED: _closed_values(replace(params, nu=-params.nu)),
        }
        records.append((params, point.result.lambda_min, oracle_vals, closed))

    nu_candidate_max = {
        label: _max_diff(
            (closed[label][q], oracle_vals[q])
            for _, _, oracle_vals, closed in records
            for q in NU_DISCRIMINATING
            if q in closed[label] and q in oracle_vals
        )
        for label in (NU_AS_PRINTED, NU_NEGATED)
    }
    nu_discrimination = _max_diff(
        (closed[NU_AS_PRINTED][q], closed[NU_NEGATED][q])
        for _, _, _, closed in records
        for q in NU_DISCRIMINATING
        if q in closed[NU_AS_PRINTED] and q in closed[NU_NEGATED]
    )
    nu_hypothesis = _adjudicate(
        tuple(nu_candidate_max), tuple(nu_candidate_max.values()), nu_discrimination, tol
    )

    # (closed radical, oracle lambda_min) where both routes have a frame; the
    # radical is the same under both nu candidates
    pairs = [
        (_radical(closed[NU_AS_PRINTED]), lam)
        for _, lam, oracle_vals, closed in records
        if _has_frame(oracle_vals) and _has_frame(closed[NU_AS_PRINTED])
    ]
    factor_candidate_max = {
        FACTOR_LITERAL: _max_diff(pairs),
        FACTOR_HALF: _max_diff((radical / 2.0, lam) for radical, lam in pairs),
    }
    factor_discrimination = max((abs(radical / 2.0) for radical, _ in pairs), default=0.0)
    factor_hypothesis = _adjudicate(
        tuple(factor_candidate_max), tuple(factor_candidate_max.values()),
        factor_discrimination, tol,
    )

    # reported diffs: independent quantities as printed, the rest under the
    # selected candidates (falling back to as-printed when inconclusive)
    selected_nu = NU_NEGATED if nu_hypothesis == NU_NEGATED else NU_AS_PRINTED
    lam_factor = 0.5 if factor_hypothesis != FACTOR_LITERAL else 1.0
    max_diff = dict.fromkeys((*CONVENTION_INDEPENDENT, *NU_SELECTED, "lambda_min"), 0.0)
    failures: list[CrosscheckFailure] = []
    for params, lam, oracle_vals, closed in records:
        printed, selected = closed[NU_AS_PRINTED], closed[selected_nu]
        compared = [(q, printed[q], oracle_vals[q]) for q in CONVENTION_INDEPENDENT]
        compared += [(q, selected[q], oracle_vals[q])
                     for q in NU_SELECTED if q in oracle_vals and q in selected]
        if _has_frame(oracle_vals) and _has_frame(selected):
            compared.append(("lambda_min", _radical(selected) * lam_factor, lam))
        for q, closed_value, oracle_value in compared:
            diff = abs(closed_value - oracle_value)
            max_diff[q] = max(max_diff[q], diff)
            if diff > tol:
                failures.append(CrosscheckFailure(
                    params.beta, params.mu, params.nu, q, closed_value, oracle_value, diff
                ))

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
