"""Mean-spin vector and the orthonormal frame aligned with it.

The closed-form first moments are evaluated exactly as written in the
analytic model, including the sign convention of the nu-dependent term in
<Jy>.  The crosscheck module is the place where that convention is compared
against the operator oracle; nothing here takes a side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spincore import SpinOperatorSet, SqueezeParams

DEFAULT_EPS = 1e-12


class DegenerateFrameError(ValueError):
    """Raised when an operation needs transverse directions that do not exist."""


class FrameStatus(Enum):
    REGULAR = "regular"
    POLAR_DEGENERATE = "polar-degenerate"
    FULLY_DEGENERATE = "fully-degenerate"


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


def ladder_prefactors(alpha: float, beta: float, cmu: float) -> tuple[float, float]:
    """1 + cos^2(mu) and the alpha-beta coherence 2 alpha beta / sqrt(1 + cos^2(mu))
    that every nu-dependent moment carries."""
    denom = 1.0 + cmu ** 2
    return denom, 2.0 * alpha * beta / math.sqrt(denom)


def mean_spin_components(alpha: float, beta: float, mu: float, nu: float) -> tuple:
    """Closed-form (<Jx>, <Jy>, <Jz>) as plain floats."""
    cmu = math.cos(mu)
    denom, k = ladder_prefactors(alpha, beta, cmu)
    return k * math.cos(nu) * cmu, -k * math.sin(nu), 2.0 * alpha ** 2 * cmu / denom


def spin_length(jx: float, jy: float, jz: float) -> float:
    """Euclidean length of (jx, jy, jz)."""
    return math.sqrt(jx ** 2 + jy ** 2 + jz ** 2)


def radical_length(alpha: float, beta: float, mu: float, nu: float) -> float:
    """Mean-spin length from the single-radical closed form, as a plain float."""
    cmu = math.cos(mu)
    denom = 1.0 + cmu ** 2
    radicand = (
        beta ** 2 * math.cos(nu) ** 2 * cmu ** 4
        + beta ** 2 * math.sin(nu) ** 2
        + cmu ** 2
    )
    return 2.0 * alpha / denom * math.sqrt(radicand)


def mean_spin_closed_form(params: SqueezeParams) -> MeanSpin:
    """First moments (<Jx>, <Jy>, <Jz>) from the closed-form expressions."""
    return MeanSpin(*mean_spin_components(params.alpha, params.beta, params.mu, params.nu))


def mean_spin_length(ms: MeanSpin) -> float:
    """Euclidean length of the mean-spin vector."""
    return spin_length(ms.jx, ms.jy, ms.jz)


def mean_spin_length_closed_form(params: SqueezeParams) -> float:
    """Mean-spin length evaluated directly from the single-radical closed form."""
    return radical_length(params.alpha, params.beta, params.mu, params.nu)


def _clamp(x: float) -> float:
    return min(1.0, max(-1.0, x))


def frame_angles(jx: float, jy: float, jz: float, eps: float = DEFAULT_EPS) -> tuple:
    """theta, phi, r and status of the frame compute_frame builds for the
    mean spin (jx, jy, jz), by the scalar arithmetic of math alone."""
    r = spin_length(jx, jy, jz)
    if r < eps:
        return 0.0, 0.0, r, FrameStatus.FULLY_DEGENERATE
    theta = math.acos(_clamp(jz / r))
    rho = math.hypot(jx, jy)
    if rho / r < eps:
        return theta, 0.0, r, FrameStatus.POLAR_DEGENERATE
    base = math.acos(_clamp(jx / rho))
    phi = base if jy > 0.0 else 2.0 * math.pi - base
    if phi >= 2.0 * math.pi:
        phi = 0.0
    return theta, phi, r, FrameStatus.REGULAR


def frame_triad(theta: float, phi: float) -> tuple[tuple[float, float, float], ...]:
    """The rows n1, n2, n3 of the frame with n3 at polar angle theta and
    azimuth phi."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return (-sp, cp, 0.0), (-ct * cp, -ct * sp, st), (st * cp, st * sp, ct)


def compute_frame(ms: MeanSpin, eps: float = DEFAULT_EPS) -> SpinFrame:
    """Build the frame (n1, n2, n3) from a mean-spin vector.

    theta = arccos(<Jz>/r).  phi = arccos(<Jx>/(r sin theta)) when <Jy> > 0,
    and 2 pi minus that otherwise; the boundary <Jy> = 0 goes to the second
    branch, whose value 2 pi at <Jx> > 0 is stored as 0 so phi stays in
    [0, 2 pi).  Degenerate cases take conventional angles: phi = 0 when the
    transverse component vanishes (polar-degenerate), theta = phi = 0 when
    the whole vector vanishes (fully-degenerate).  arccos arguments are
    clamped to [-1, 1] before evaluation.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    theta, phi, r, status = frame_angles(ms.jx, ms.jy, ms.jz, eps)
    n1, n2, n3 = (np.array(n) for n in frame_triad(theta, phi))
    for v in (n1, n2, n3):
        v.setflags(write=False)
    return SpinFrame(n1=n1, n2=n2, n3=n3, theta=theta, phi=phi, r=r, status=status)


def transverse_operators(directions: np.ndarray, ops: SpinOperatorSet) -> np.ndarray:
    """The spin components n_x Jx + n_y Jy + n_z Jz along every direction row
    n of an array (..., 3), as dense matrices (..., d, d)."""
    x, y, z = (directions[..., k, None, None] for k in range(3))
    # the leading 0 + keeps sum()'s start (-0.0 entries become +0.0)
    return 0 + x * ops.jx + y * ops.jy + z * ops.jz


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
    jn1, jn2 = transverse_operators(np.array([frame.n1, frame.n2]), ops)
    return jn1, jn2
