"""Mean-spin vector and the orthonormal frame aligned with it.

The closed-form first moments are evaluated exactly as written in the
analytic model, including the sign convention of the nu-dependent term in
<Jy>.  The crosscheck module is the place where that convention is compared
against the operator oracle; nothing here takes a side.

mean_spin_columns is the one closed-form mean-spin pass over a grid: the
components and both lengths, each shared factor evaluated once.  The
one-point functions and the crosscheck and sweep columns all read it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spincore import SpinOperatorSet, SqueezeParams, math_columns, param_columns, readonly, square

DEFAULT_EPS = 1e-12


class DegenerateFrameError(ValueError):
    """Raised when an operation needs transverse directions that do not exist."""


class FrameStatus(Enum):
    REGULAR = "regular"
    POLAR_DEGENERATE = "polar-degenerate"
    FULLY_DEGENERATE = "fully-degenerate"


# frame_angles' status codes are positions in FrameStatus
STATUS_VALUES = readonly(np.array([s.value for s in FrameStatus]))
FULLY_DEGENERATE_CODE = 2
# the mean spin, its length from the components (eq. 9) and from one radical (eq. 10)
MEAN_SPIN_QUANTITIES = ("jx", "jy", "jz", "r_eq9", "r")


@dataclass(frozen=True)
class MeanSpin:
    jx: float
    jy: float
    jz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.jx, self.jy, self.jz])


@dataclass(frozen=True)
class SpinFrame:
    """Right-handed orthonormal triad with n3 along the mean spin.

    theta and phi are the spherical angles of n3; r is the mean-spin length.
    status records whether the angles were fully determined by the mean spin
    (regular), fixed by the phi = 0 convention on the polar axis
    (polar-degenerate), or purely conventional because r vanished
    (fully-degenerate).
    """

    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    theta: float
    phi: float
    r: float
    status: FrameStatus


def spin_length(jx, jy, jz) -> np.ndarray:
    """Euclidean length of each row (jx, jy, jz) of three columns."""
    return np.sqrt(square(jx) + square(jy) + square(jz))


def mean_spin_columns(grid: np.ndarray) -> dict[str, np.ndarray]:
    """The closed-form MEAN_SPIN_QUANTITIES over the parameter columns of a
    grid, one array per quantity in grid order; no second moment is evaluated.
    k = 2 alpha beta / sqrt(1 + cos^2(mu)) is the alpha-beta coherence."""
    alpha, beta, mu, nu = grid
    cmu, cnu, snu = np.cos(mu), np.cos(nu), np.sin(nu)
    cmu2, beta2 = square(cmu), square(beta)
    denom = 1.0 + cmu2
    k = 2.0 * alpha * beta / np.sqrt(denom)
    jx, jy, jz = k * cnu * cmu, -k * snu, 2.0 * square(alpha) * cmu / denom
    radicand = beta2 * square(cnu) * np.float_power(cmu, 4) + beta2 * square(snu) + cmu2
    columns = (jx, jy, jz, spin_length(jx, jy, jz), 2.0 * alpha / denom * np.sqrt(radicand))
    return dict(zip(MEAN_SPIN_QUANTITIES, columns))


def mean_spin_closed_form(params: SqueezeParams) -> MeanSpin:
    """First moments (<Jx>, <Jy>, <Jz>) from the closed-form expressions."""
    jx, jy, jz, _, _ = mean_spin_columns(param_columns([params])).values()
    return MeanSpin(float(jx[0]), float(jy[0]), float(jz[0]))


def mean_spin_length(ms: MeanSpin) -> float:
    """Euclidean length of the mean-spin vector."""
    return float(spin_length(*np.array([[ms.jx], [ms.jy], [ms.jz]]))[0])


def mean_spin_length_closed_form(params: SqueezeParams) -> float:
    """Mean-spin length evaluated directly from the single-radical closed form."""
    return float(mean_spin_columns(param_columns([params]))["r"][0])


def frame_angles(jx, jy, jz, r) -> tuple:
    """theta, phi and the status codes of the frames compute_frame builds for
    the mean spins (jx, jy, jz) of spin_length r, as columns.  math.acos and
    math.hypot are mapped over the columns (np.arccos and np.hypot round
    differently), acos clamped to [-1, 1]; the branches are masks, and a
    masked row divides by 1 in place of a vanishing length.  With no r at or
    above DEFAULT_EPS, all rows are fully degenerate at once, with no angle evaluated."""
    flat = r < DEFAULT_EPS
    if flat.all():
        return *np.zeros((2, len(flat))), np.full(len(flat), FULLY_DEGENERATE_CODE)
    r = np.where(flat, 1.0, r)
    rho = math_columns(math.hypot, jx, jy)
    polar = ~flat & (rho / r < DEFAULT_EPS)
    regular = ~(flat | polar)
    cosines = np.concatenate([jz / r, jx / np.where(regular, rho, 1.0)])
    theta, base = math_columns(math.acos, np.minimum(np.maximum(cosines, -1.0), 1.0)).reshape(2, -1)
    phi = np.where(jy > 0.0, base, 2.0 * math.pi - base)
    phi = np.where(regular & (phi < 2.0 * math.pi), phi, 0.0)
    theta = np.where(flat, 0.0, theta)
    return theta, phi, FULLY_DEGENERATE_CODE * flat + polar


def frame_triad(theta, phi) -> np.ndarray:
    """The rows n1, n2, n3 (n, 3, 3) of the frames with n3 at polar angle
    theta and azimuth phi, one per entry of the angle columns."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    rows = (-sp, cp, np.zeros_like(sp), -ct * cp, -ct * sp, st, st * cp, st * sp, ct)
    return np.array(rows).T.reshape(-1, 3, 3)


def compute_frame(ms: MeanSpin) -> SpinFrame:
    """Build the frame (n1, n2, n3) from a mean-spin vector.

    theta = arccos(<Jz>/r).  phi = arccos(<Jx>/(r sin theta)) when <Jy> > 0,
    and 2 pi minus that otherwise; the boundary <Jy> = 0 goes to the second
    branch, whose value 2 pi at <Jx> > 0 is stored as 0 so phi stays in
    [0, 2 pi).  Degenerate cases take conventional angles: phi = 0 when the
    transverse component vanishes (polar-degenerate), theta = phi = 0 when
    the whole vector vanishes (fully-degenerate).  arccos arguments are
    clamped to [-1, 1] before evaluation.
    """
    r = mean_spin_length(ms)
    theta, phi, (code,) = frame_angles(*np.array([[ms.jx], [ms.jy], [ms.jz], [r]]))
    n1, n2, n3 = readonly(frame_triad(theta, phi)[0])
    return SpinFrame(n1, n2, n3, theta.item(), phi.item(), r, list(FrameStatus)[code])


def project_transverse_operators(
    frame: SpinFrame, ops: SpinOperatorSet
) -> tuple[np.ndarray, np.ndarray]:
    """Spin components along n1 and n2, as dense matrices.

    Defined for regular and polar-degenerate frames; a fully-degenerate frame
    has no distinguished transverse plane and raises DegenerateFrameError.
    """
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        raise DegenerateFrameError(
            "transverse projection undefined: mean spin length is below eps"
        )
    # n_x Jx + n_y Jy + n_z Jz; the leading 0 + keeps sum()'s start (-0.0 entries become +0.0)
    jn1, jn2 = (0 + n[0] * ops.jx + n[1] * ops.jy + n[2] * ops.jz for n in (frame.n1, frame.n2))
    return jn1, jn2
