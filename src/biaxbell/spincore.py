"""Shared substrate: parameter validation, collective spin operators, and
construction of the biaxial + Bell superposition state.

Everything downstream works in the symmetric (j = 1) sector of two qubits,
basis ordered |1,1>, |1,0>, |1,-1>.  Operators are built for general
half-integer j so the ladder algebra can be property-tested beyond j = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

N_QUBITS = 2
TOTAL_SPIN = N_QUBITS / 2.0          # j = 1 for the state family
DEFAULT_MAX_DIM = 64
_REAL_TYPES = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class SqueezeParams:
    """Parameters of the superposition.

    beta is the Bell-component weight, mu the biaxial shape angle in
    [0, pi], nu the relative phase in radians (any real value, used only
    through cos/sin).  alpha is derived as sqrt(1 - beta^2), so alpha and
    beta are both nonnegative and alpha^2 + beta^2 = 1 by construction.
    """

    beta: float
    mu: float
    nu: float
    alpha: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("beta", "mu", "nu"):
            value = getattr(self, name)
            # numpy real scalars are accepted; bool is not a number here
            real = isinstance(value, _REAL_TYPES) and not isinstance(value, bool)
            if not real or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
        if not 0.0 <= self.mu <= math.pi:
            raise ValueError(f"mu must lie in [0, pi], got {self.mu!r}")
        object.__setattr__(self, "alpha", float(alpha_of(self.beta)))


@dataclass(frozen=True)
class SpinOperatorSet:
    """Dense collective spin matrices for one j, basis m = +j ... -j."""

    j: float
    dim: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray

    @cached_property
    def moment_stack(self) -> np.ndarray:
        """Read-only stack, built on first use, of Jx, Jy, Jz; {Ja, Jb} for a <= b
        (xx, xy, xz, yy, yz, zz); J+^2, Jz^2 and J+(2Jz+1)."""
        cart = (self.jx, self.jy, self.jz)
        sym = [cart[a] @ cart[b] + cart[b] @ cart[a] for a in range(3) for b in range(a, 3)]
        two_jz_plus_1 = 2.0 * self.jz + np.eye(self.dim)
        raising = [self.jplus @ self.jplus, self.jz @ self.jz, self.jplus @ two_jz_plus_1]
        return readonly(np.array([*cart, *sym, *raising]))


def readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_spin_operators(j: float) -> SpinOperatorSet:
    """Build jx, jy, jz, j+, j- as (2j+1) x (2j+1) complex matrices.

    j must be a nonnegative half-integer.  Ladder matrix elements are
    sqrt(j(j+1) - m(m+1)) on the superdiagonal of j+.
    """
    if not math.isfinite(j) or j < 0:
        raise ValueError(f"j must be a nonnegative half-integer, got {j!r}")
    twoj = 2.0 * j
    if abs(twoj - round(twoj)) > 1e-9:
        raise ValueError(f"j must be a half-integer, got {j!r}")
    dim = int(round(twoj)) + 1
    if dim > DEFAULT_MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the configured maximum {DEFAULT_MAX_DIM}")

    m = j - np.arange(dim)               # m = +j ... -j down the basis
    # j+ maps column state m to row state m+1
    jplus = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jminus = jplus.conj().T
    jz = np.diag(m).astype(complex)
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    return SpinOperatorSet(j, dim, *map(readonly, (jx, jy, jz, jplus, jminus)))


def square(x):
    """x ** 2 rounded as Python's float power rounds it (libm pow), over a
    column; numpy's own ** multiplies, which differs in the last bit."""
    return np.float_power(x, 2)


def alpha_of(beta):
    """alpha = sqrt(max(0, 1 - beta^2)) of a beta or of a beta column."""
    return np.sqrt(np.maximum(0.0, 1.0 - square(beta)))


def math_columns(f, *columns) -> np.ndarray:
    """The math function f mapped over float columns, as a float column:
    numpy's own arccos, hypot and arctan2 round differently."""
    return np.array(list(map(f, *(c.tolist() for c in columns))), dtype=float)


def complex_column(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex column with exactly these real and imaginary parts
    (re + 1j * im can flip the sign of a zero)."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def param_columns(grid: list[SqueezeParams]) -> np.ndarray:
    """The alpha, beta, mu and nu columns (4, n) of a grid of points."""
    return np.array([(p.alpha, p.beta, p.mu, p.nu) for p in grid], dtype=float).reshape(-1, 4).T


def axis_grid(order: tuple[str, str, str], *, beta, mu, nu) -> np.ndarray:
    """The alpha, beta, mu and nu columns (4, n) of the product of three
    axes, with rows in ``order`` from the outermost axis to the innermost.

    Each axis is one float column, checked and given its alpha as
    SqueezeParams does.  Only when a value fails are the points that differ
    from the first row in one axis built as SqueezeParams, innermost axis
    first; they come before every other invalid row, so the error is the
    first failing row's in the per-row list.  An empty axis gives no rows.
    """
    axes = dict(zip(("beta", "mu", "nu"), (np.asarray(a, dtype=float) for a in (beta, mu, nu))))
    if any(axis.size == 0 for axis in axes.values()):
        return np.empty((4, 0))
    beta, mu, nu = (axis.tolist() for axis in axes.values())
    # the range checks also fail on nan and inf
    if not (all(0.0 <= x <= 1.0 for x in beta) and all(0.0 <= x <= math.pi for x in mu)
            and all(map(math.isfinite, nu))):
        first = {name: axis[0].item() for name, axis in axes.items()}
        for name in reversed(order):
            for value in axes[name].tolist():
                SqueezeParams(**{**first, name: value})
    sizes = [axes[name].size for name in order]
    for k, name in enumerate(order):      # repeated over inner axes, tiled over outer ones
        inner = axes[name].repeat(math.prod(sizes[k + 1:]))
        axes[name] = inner[None].repeat(math.prod(sizes[:k]), axis=0).ravel()
    return np.array([alpha_of(axes["beta"]), *axes.values()])


def superposition_states(alpha, beta, mu, nu) -> np.ndarray:
    """Amplitudes (n, 3) of the biaxial + Bell superposition in the j = 1
    basis, one row per entry of the parameter columns.

    (a cos^2(mu/2), beta e^{i nu}, -a sin^2(mu/2)) with
    a = alpha sqrt(2) / sqrt(1 + cos^2 mu).  Unit norm holds analytically;
    no renormalization is applied.
    """
    a = alpha * math.sqrt(2.0) / np.sqrt(1.0 + square(np.cos(mu)))
    half = mu / 2.0
    phase = complex_column(np.cos(nu), np.sin(nu))
    return np.stack([a * square(np.cos(half)), beta * phase, -a * square(np.sin(half))], axis=-1)


def build_superposition_state(params: SqueezeParams) -> np.ndarray:
    """The superposition_states row of one parameter point, read-only."""
    return readonly(superposition_states(*param_columns([params]))[0])


def expectation(op: np.ndarray, state: np.ndarray) -> complex:
    """<state| op |state> for a dense square matrix and a matching vector."""
    op = np.asarray(op)
    state = np.asarray(state)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator must be square, got shape {op.shape}")
    if state.ndim != 1 or state.shape[0] != op.shape[0]:
        raise ValueError(
            f"state shape {state.shape} does not match operator shape {op.shape}"
        )
    return complex(state.conj() @ (op @ state))
