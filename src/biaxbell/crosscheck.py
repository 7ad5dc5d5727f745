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

closed_arrays and oracle.oracle_arrays are the only readers of the two
routes.  Each evaluates a whole grid, given as its (4, n) parameter columns
(default_grid, spincore.axis_grid), in one call: the closed forms as
columns, the mean spin from frame.mean_spin_columns, with math mapped over
columns only for the frame angles and the variance radical's hypot (both nu
candidates in one call), the oracle through its batched core.
closed_values and oracle_values are their one-row forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .closedform import (
    CartesianSecondMoments, FrameMoments, MomentSet, cartesian_moments, raising_moments,
    transverse_moments,
)
from .frame import (
    FULLY_DEGENERATE_CODE, MEAN_SPIN_QUANTITIES, STATUS_VALUES, frame_angles, mean_spin_columns,
)
from .oracle import oracle_arrays
from .spincore import SqueezeParams, axis_grid, math_columns, param_columns, readonly

DEFAULT_TOL = 1e-10

NU_AS_PRINTED = "as-printed"
NU_NEGATED = "nu-negated"
FACTOR_LITERAL = "literal"
FACTOR_HALF = "half-corrected"
INCONCLUSIVE = "inconclusive"

# identical under both nu candidates; any failure here is a defect, not a
# convention question
CONVENTION_INDEPENDENT = ("jx", "jz", "r", "jplus_sq", "jz_sq", "xz_anticomm", "jx2_plus_jy2",
                          "jx2_minus_jy2", "xy_anticomm")
NU_DISCRIMINATING = ("jy", "yz_anticomm", "anticomm")
FRAME_DEPENDENT = ("jn1_sq", "jn2_sq", "anticomm")
# compared under the selected nu candidate, in report order
NU_SELECTED = ("jy", "yz_anticomm", *FRAME_DEPENDENT)
_REPORTED = (*CONVENTION_INDEPENDENT, *NU_SELECTED, "lambda_min")
# run_crosscheck's diff rows: 2p as printed and 2p + 1 at -nu for the p-th real
# reported quantity, then the radical, literal and halved, against lambda_min;
# the complex <J+^2> as printed is the last row
_COMPLEX = "jplus_sq"
_REAL = tuple(q for q in _REPORTED[:-1] if q != _COMPLEX)
_ROW = {q: 2 * p for p, q in enumerate((*_REAL, FACTOR_LITERAL, FACTOR_HALF))}

# the closed-form record: frame.MEAN_SPIN_QUANTITIES, then the fields of
# MomentSet, CartesianSecondMoments and FrameMoments, then the radical
CLOSED_QUANTITIES = (
    *MEAN_SPIN_QUANTITIES,
    *(f.name for f in fields(MomentSet)),
    *CartesianSecondMoments._fields,
    *(f.name for f in fields(FrameMoments)),
    "radical",
)

BETA_STEPS = 21
MUS = (0.0, np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6, np.pi)
NUS = (-np.pi / 2, -np.pi / 3, 0.0, np.pi / 4, np.pi / 2, np.pi)
# times the parameter columns, negates each nu (x * -1.0 is -x, bit for bit)
_NEGATE_NU = readonly(np.array([[1.0], [1.0], [1.0], [-1.0]]))


def default_grid(betas=None, mus=MUS, nus=NUS) -> np.ndarray:
    """The (4, n) parameter columns of the points ordered beta, mu, nu;
    betas defaults to BETA_STEPS values on [0, 1]."""
    if betas is None:
        betas = np.linspace(0.0, 1.0, BETA_STEPS)
    return axis_grid(("beta", "mu", "nu"), beta=betas, mu=mus, nu=nus)


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
        diffs = self.max_abs_diff_per_quantity
        return all(diffs[q] <= self.tol for q in CONVENTION_INDEPENDENT)

    def as_dict(self) -> dict:
        """Fields in declaration order, independent_ok before the failures,
        and each failure's closed and oracle values as their repr; the other
        fields hold scalars and flat dicts, so copying the dicts suffices."""
        data = {}
        for f in fields(self)[:-1]:         # every field but the failures
            value = getattr(self, f.name)
            data[f.name] = dict(value) if isinstance(value, dict) else value
        data["independent_ok"] = self.independent_ok
        data["failures"] = [{**vars(f), "closed": repr(f.closed), "oracle": repr(f.oracle)}
                            for f in self.failures]
        return data


def closed_arrays(grid: np.ndarray) -> dict[str, np.ndarray]:
    """Every closed-form quantity over the parameter columns of a grid, one
    array per CLOSED_QUANTITIES entry in grid order.

    The frame entries are taken in the frame of the closed-form mean spin.
    "radical" is the minimal transverse variance without its one-half factor
    (xi2_std at N = 2); it and the frame entries are NaN on a row whose
    closed-form frame is fully degenerate.
    """
    mean = list(mean_spin_columns(grid).values())
    raising = raising_moments(*grid)
    cart = cartesian_moments(*raising)
    theta, phi, status = frame_angles(*mean[:4])
    flat = status == FULLY_DEGENERATE_CODE
    a, b, c = moments = np.where(flat, math.nan, transverse_moments(cart, raising[1], theta, phi))
    radical = (a + b) - math_columns(math.hypot, a - b, c)     # variance_radical
    columns = (*mean, *raising, *cart, *moments, radical)
    return {name: np.asarray(column) for name, column in zip(CLOSED_QUANTITIES, columns)}


def closed_values(params: SqueezeParams) -> dict[str, complex]:
    """Every closed-form quantity at one parameter point, as Python
    scalars: the one row of closed_arrays."""
    return {q: column.tolist()[0] for q, column in closed_arrays(param_columns([params])).items()}


def oracle_values(params: SqueezeParams) -> dict:
    """Every oracle quantity at one parameter point, as Python scalars: the
    one row of oracle.oracle_arrays, named as closed_values names them."""
    return {q: column.tolist()[0] for q, column in oracle_arrays(param_columns([params])).items()}


def _nanmax_abs(d: np.ndarray) -> float:
    """Largest |d| over all entries, skipping NaN; 0.0 when none is left."""
    return float(np.fmax.reduce(np.abs(d), axis=None, initial=0.0))


def _verdict(misses: dict[str, float], discrimination: float, tol: float) -> str:
    """The candidate that alone is within tol of the oracle when the
    candidates differ by more than tol; otherwise inconclusive."""
    within = [name for name, miss in misses.items() if miss <= tol]
    return within[0] if discrimination > tol and len(within) == 1 else INCONCLUSIVE


def run_crosscheck(grid: np.ndarray | None = None, tol: float = DEFAULT_TOL) -> CrosscheckReport:
    """Compare closed forms against the oracle over the (4, n) parameter
    columns of a grid, default_grid() when none is given, and adjudicate.

    A route without a transverse frame has its frame quantities NaN-marked
    here; they then take no part in any maximum, verdict or failure, so the
    report never carries a NaN.  Each hypothesis's candidates are judged by
    their largest miss against the oracle and the largest gap between them.
    """
    if grid is None:
        grid = default_grid()
    if grid.shape[1] == 0:
        raise ValueError("crosscheck grid must be nonempty")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    oracle, n = oracle_arrays(grid), grid.shape[1]
    # both nu candidates in one pass over [grid | grid at -nu]
    both = closed_arrays(np.concatenate([grid, grid * _NEGATE_NU], axis=1))
    lam = oracle["lambda_min"]
    # the all-directions minimum of a frameless point is not a transverse one
    lam[np.isnan(oracle["jn1_sq"])] = math.nan
    radical = both["radical"]
    closed = np.array([*(both[q] for q in _REAL), radical, radical / 2.0])
    observed = np.array([*(oracle[q] for q in _REAL), lam, lam])
    diffs = np.concatenate([np.abs(closed.reshape(-1, 2, n) - observed[:, None]).reshape(-1, n),
                            np.abs(both[_COMPLEX][None, :n] - oracle[_COMPLEX])])
    maxima = np.fmax.reduce(diffs, axis=1, initial=0.0).tolist()

    nu_misses = {name: max(maxima[_ROW[q] + c] for q in NU_DISCRIMINATING)
                 for c, name in enumerate((NU_AS_PRINTED, NU_NEGATED))}
    nu_rows = [_ROW[q] // 2 for q in NU_DISCRIMINATING]
    nu_discrimination = _nanmax_abs(closed[nu_rows, :n] - closed[nu_rows, n:])
    nu_hypothesis = _verdict(nu_misses, nu_discrimination, tol)
    # judged as printed, where both routes have a frame; the radical is the
    # same under both nu candidates
    factor_misses = {name: maxima[_ROW[name]] for name in (FACTOR_LITERAL, FACTOR_HALF)}
    framed = np.where(np.isnan(lam), math.nan, radical[:n])
    factor_discrimination = _nanmax_abs(framed - framed / 2.0)
    factor_hypothesis = _verdict(factor_misses, factor_discrimination, tol)

    # reported rows: independent quantities as printed, the rest under the
    # selected candidates (falling back to as-printed when inconclusive)
    c = int(nu_hypothesis == NU_NEGATED)
    lam_row = FACTOR_LITERAL if factor_hypothesis == FACTOR_LITERAL else FACTOR_HALF
    rows = [len(diffs) - 1 if q == _COMPLEX else _ROW[q] for q in CONVENTION_INDEPENDENT]
    rows += [_ROW[q] + c for q in NU_SELECTED] + [_ROW[lam_row] + c]
    reported = diffs[rows]

    def values(row: int, i: int) -> tuple:          # the closed and oracle value of a diff
        if row == len(diffs) - 1:
            return both[_COMPLEX][i].item(), oracle[_COMPLEX][i].item()
        return closed[row // 2, row % 2 * n + i].item(), observed[row // 2, i].item()

    failures = [
        CrosscheckFailure(*grid[1:, i].tolist(), _REPORTED[k], *values(rows[k], i),
                          reported[k, i].item())
        for i, k in np.argwhere(reported.T > tol)
    ]
    regular, polar, flat = (int(np.count_nonzero(oracle["frame_status"] == value))
                            for value in STATUS_VALUES)
    return CrosscheckReport(
        samples=n,
        tol=tol,
        nu_sign_hypothesis=nu_hypothesis,
        factor_hypothesis=factor_hypothesis,
        max_abs_diff_per_quantity={q: maxima[row] for q, row in zip(_REPORTED, rows)},
        nu_candidate_max_diff=nu_misses,
        nu_discrimination=nu_discrimination,
        factor_candidate_max_diff=factor_misses,
        factor_discrimination=factor_discrimination,
        regular_points=regular,
        polar_degenerate_points=polar,
        fully_degenerate_points=flat,
        failures=failures,
    )
