"""Closed-form second moments and the squeezing parameter built from them.

The raising-operator moments <J+^2>, <Jz^2>, <J+(2Jz+1)> are evaluated from
their analytic expressions; everything Cartesian follows from them through
exact operator identities at j = 1, and the transverse moments follow by
rotating into the mean-spin frame.  No state vector is ever constructed on
this path, which is what makes it an independent counterpart to the oracle.

Two squeezing normalizations are provided.  squeezing_standard calibrates a
coherent state to 1 and is the default everywhere; squeezing_literal keeps
the variant without the one-half factor in the minimal variance, which is
exactly twice the standard value.  Selection between them is a reporting
choice (see the crosscheck module); both are always computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .frame import DegenerateFrameError, FrameStatus, SpinFrame
from .spincore import N_QUBITS, TOTAL_SPIN, SqueezeParams, complex_column, param_columns, square


@dataclass(frozen=True)
class MomentSet:
    """Raising-operator second moments: <J+^2>, <Jz^2>, <J+(2Jz+1)>."""

    jplus_sq: complex
    jz_sq: float
    jplus_2jz1: complex


class CartesianSecondMoments(NamedTuple):
    jx2_plus_jy2: float
    jx2_minus_jy2: float
    xy_anticomm: float
    xz_anticomm: float
    yz_anticomm: float


@dataclass(frozen=True)
class FrameMoments:
    """Transverse second moments <Jn1^2>, <Jn2^2>, <{Jn1, Jn2}>."""

    jn1_sq: float
    jn2_sq: float
    anticomm: float


# s(s+1) at s = N/2, the Casimir of the symmetric sector
_CASIMIR = TOTAL_SPIN * (TOTAL_SPIN + 1.0)


def raising_moments(alpha, beta, mu, nu) -> tuple[np.ndarray, ...]:
    """<J+^2>, <Jz^2>, <J+(2Jz+1)> columns from their closed forms: complex,
    float and complex."""
    cmu, smu2 = np.cos(mu), square(np.sin(mu))
    denom = 1.0 + square(cmu)
    k = 2.0 * alpha * beta / np.sqrt(denom)         # the alpha-beta coherence
    return (
        (-square(alpha) * smu2 / denom).astype(complex),
        2.0 * square(alpha) / denom * (1.0 - 0.5 * smu2),
        k * complex_column(np.cos(nu), -np.sin(nu) * cmu),
    )


def cartesian_moments(jplus_sq, jz_sq, jplus_2jz1) -> tuple:
    """The CartesianSecondMoments fields, in order, from the raising moments."""
    return _CASIMIR - jz_sq, jplus_sq.real, jplus_sq.imag, jplus_2jz1.real, jplus_2jz1.imag


def transverse_moments(cart: tuple, jz_sq, theta, phi) -> tuple[np.ndarray, ...]:
    """<Jn1^2>, <Jn2^2>, <{Jn1, Jn2}> columns from the Cartesian moments (in
    the order of CartesianSecondMoments), <Jz^2> and the frame angles;
    frame_moments_closed_form gives the formulas."""
    jx2_plus_jy2, jx2_minus_jy2, xy_anticomm, xz_anticomm, yz_anticomm = cart
    half_sum = jx2_plus_jy2 / 2.0
    half_diff = jx2_minus_jy2 / 2.0
    sxy = xy_anticomm / 2.0
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    c2p, s2p = np.cos(2.0 * phi), np.sin(2.0 * phi)

    jn1_sq = half_sum - c2p * half_diff - s2p * sxy
    jn2_sq = (
        square(ct) * (half_sum + c2p * half_diff + s2p * sxy)
        + square(st) * jz_sq
        - ct * st * (cp * xz_anticomm + sp * yz_anticomm)
    )
    anticomm = (
        s2p * ct * jx2_minus_jy2
        - 2.0 * c2p * ct * sxy
        - st * (sp * xz_anticomm - cp * yz_anticomm)
    )
    return jn1_sq, jn2_sq, anticomm


def variance_radical(jn1_sq: float, jn2_sq: float, anticomm: float) -> float:
    """(A + B) - sqrt((A - B)^2 + C^2): twice the smallest transverse variance."""
    return (jn1_sq + jn2_sq) - math.hypot(jn1_sq - jn2_sq, anticomm)


def second_moments_closed_form(params: SqueezeParams) -> MomentSet:
    """Raising-operator moments from their closed forms (same nu convention
    as the closed-form first moments)."""
    return MomentSet(*(c[0].item() for c in raising_moments(*param_columns([params]))))


def cartesian_from_raising(moments: MomentSet) -> CartesianSecondMoments:
    """Cartesian second moments via the ladder identities.

    <Jx^2 + Jy^2> = s(s+1) - <Jz^2> with s = N/2, <Jx^2 - Jy^2> = Re<J+^2>,
    <{Jx,Jy}> = Im<J+^2>, <{Jx,Jz}> = Re<J+(2Jz+1)>, <{Jy,Jz}> = Im<J+(2Jz+1)>.
    """
    return CartesianSecondMoments(
        *cartesian_moments(moments.jplus_sq, moments.jz_sq, moments.jplus_2jz1)
    )


def frame_moments_closed_form(params: SqueezeParams, frame: SpinFrame) -> FrameMoments:
    """Transverse second moments in a mean-spin frame, from closed forms only.

    The Cartesian moments are contracted with the frame rows
    n1 = (-sin phi, cos phi, 0) and n2 = (-cos theta cos phi,
    -cos theta sin phi, sin theta), which gives

      <Jn1^2>     = (X + Y)/2 - cos(2 phi) (X - Y)/2 - sin(2 phi) Sxy
      <Jn2^2>     = cos^2(theta) [(X + Y)/2 + cos(2 phi) (X - Y)/2
                    + sin(2 phi) Sxy] + sin^2(theta) <Jz^2>
                    - cos(theta) sin(theta) [cos(phi) <{Jx,Jz}>
                    + sin(phi) <{Jy,Jz}>]
      <{Jn1,Jn2}> = sin(2 phi) cos(theta) (X - Y)
                    - 2 cos(2 phi) cos(theta) Sxy
                    - sin(theta) [sin(phi) <{Jx,Jz}> - cos(phi) <{Jy,Jz}>]

    with X = <Jx^2>, Y = <Jy^2>, Sxy = <{Jx,Jy}>/2.  Requires a frame with a
    defined transverse plane (regular or polar-degenerate).
    """
    if frame.status is FrameStatus.FULLY_DEGENERATE:
        raise DegenerateFrameError(
            "transverse moments undefined on a fully-degenerate frame"
        )
    raising = raising_moments(*param_columns([params]))
    moments = transverse_moments(
        cartesian_moments(*raising), raising[1], np.array([frame.theta]), np.array([frame.phi])
    )
    return FrameMoments(*(c[0].item() for c in moments))


def minimal_variance_closed_form(fm: FrameMoments) -> float:
    """Smallest transverse variance: the lower eigenvalue
    [(A + B) - sqrt((A - B)^2 + C^2)] / 2 of the moment matrix.

    Directly comparable to the oracle minimum; the literal normalization
    drops the one-half and is handled by squeezing_literal instead.
    """
    return 0.5 * variance_radical(fm.jn1_sq, fm.jn2_sq, fm.anticomm)


def squeezing_literal(fm: FrameMoments) -> float:
    """Squeezing parameter from the minimal-variance form without the
    one-half factor: (4/N) [(A + B) - sqrt((A - B)^2 + C^2)]."""
    return (4.0 / N_QUBITS) * variance_radical(fm.jn1_sq, fm.jn2_sq, fm.anticomm)


def squeezing_standard(fm: FrameMoments) -> float:
    """Squeezing parameter with the minimal variance taken as the smallest
    eigenvalue of the transverse moment matrix, so a coherent state gives 1.
    Identically half of squeezing_literal."""
    return (4.0 / N_QUBITS) * 0.5 * variance_radical(fm.jn1_sq, fm.jn2_sq, fm.anticomm)
