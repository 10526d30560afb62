"""Finite-dimensional complex operator algebra.

Operators are plain ``numpy`` complex matrices; this module supplies the
adjoint/commutator arithmetic, the spectral norm, guarded Hermitian
eigenvalue computation, density-operator validation and state
expectations that the rest of the library builds on.  Everything here is a
pure function of its inputs and safe for concurrent use.

Conventions
-----------
* The operator norm is the matrix spectral norm (largest singular value).
* Eigenvalues of nominally Hermitian matrices are always computed with a
  symmetric solver on the Hermitized matrix ``(X + X†)/2``; an asymmetry
  beyond tolerance is an error, never silently repaired.
* Default absolute tolerance on eigenvalues and norms is ``DEFAULT_TOL``.
* Matrix functions act per member, bit for bit, on an ``(N, d, d)`` stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidOperatorError,
    InvalidStateError,
    NonHermitianError,
)

DEFAULT_TOL = 1e-9


def as_operator(entries) -> np.ndarray:
    """Coerce ``entries`` to a read-only square complex128 matrix.

    Raises
    ------
    InvalidOperatorError
        If the array is not square, not two-dimensional, empty, or contains
        non-finite entries.
    """
    x = np.array(entries, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InvalidOperatorError(f"operator must be a square matrix, got shape {x.shape}")
    if x.shape[0] < 1:
        raise InvalidOperatorError("operator dimension must be at least 1")
    if not np.all(np.isfinite(x)):
        raise InvalidOperatorError("operator entries must be finite")
    x.flags.writeable = False
    return x


def require_positive(value, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def require_same_dim(*ops: np.ndarray) -> int:
    dims = {op.shape[-1] for op in ops}
    if len(dims) != 1:
        raise DimensionMismatchError(f"operators have mismatched dimensions {sorted(dims)}")
    return dims.pop()


def adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  An exact involution: adjoint(adjoint(X)) == X."""
    return np.asarray(x).conj().swapaxes(-1, -2)


def _times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m; with one matrix m, a stack x is one GEMM over its stacked rows, bit for bit its members' products."""
    return (x.reshape(-1, x.shape[-1]) @ m).reshape(*x.shape[:-1], m.shape[-1]) if np.ndim(m) == 2 else x @ m


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] = XY - YX.  Anti-Hermitian when X and Y are Hermitian."""
    require_same_dim(x, y)
    return _times(x, y) - _times(y, x)


def anticommutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """{X, Y} = XY + YX.  Hermitian when X and Y are Hermitian."""
    require_same_dim(x, y)
    return _times(x, y) + _times(y, x)


def spectral_norm(x: np.ndarray) -> float | np.ndarray:
    """Largest singular value (max |eigenvalue| for normal matrices), per member ``np.linalg.norm(x, 2)``'s bit for
    bit: an exact zero (every entry +-0) is 0.0, LAPACK's value for it, without an SVD; every other member takes one."""
    x = np.asarray(x)
    nonzero = x.any(axis=(-2, -1))
    norms = np.zeros(nonzero.shape)
    if nonzero.any():
        norms[nonzero] = np.linalg.norm(x[nonzero], ord=2, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def hermitize(x: np.ndarray) -> np.ndarray:
    """Hermitian part (X + X†)/2."""
    return (x + adjoint(x)) / 2.0


def hermiticity_defect(x: np.ndarray) -> float | np.ndarray:
    """Spectral-norm distance from X to its Hermitian part, ||X - X†||."""
    return spectral_norm(x - adjoint(x))


def norm_above(x: np.ndarray, tol: float) -> float | np.ndarray:
    """Per member, the spectral norm where it may exceed ``tol``, 0.0 where its Frobenius bound clears it.

    A member with ||X||_F <= tol/2 needs no SVD (||.||_2 <= ||.||_F; the margin keeps decisions the SVD's at the
    rank-1 boundary, where the norms are equal).  NaN members, members whose squares overflow the screen, tol = 0
    and tol < 1e-150 (squares underflow) take the SVD, so each decision ``> tol`` and each value above ``tol`` are
    ``spectral_norm``'s, bit for bit.
    """
    with np.errstate(over="ignore"):  # an infinite screen takes the SVD
        loose = ~(np.linalg.norm(x, axis=(-2, -1)) <= tol / 2) | (tol < 1e-150)
    norms = np.zeros(loose.shape)
    if loose.any():
        norms[loose] = spectral_norm(x[loose])
    return float(norms) if norms.ndim == 0 else norms


def require_hermitian(x: np.ndarray, tol: float) -> np.ndarray:
    """The Hermitian part (X + X†)/2; any member of a stack asymmetric beyond ``tol`` raises NonHermitianError."""
    defect = np.max(norm_above(x - adjoint(x), tol), initial=0.0)
    if defect > tol:
        raise NonHermitianError(f"matrix is not Hermitian within tolerance: defect {defect:.3e} > {tol:.3e}")
    return hermitize(x)


def hermitian_eigenvalues(x: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, by a symmetric solver on :func:`require_hermitian`."""
    return np.linalg.eigvalsh(require_hermitian(x, tol))


def require_density(rho, tol_herm: float, tol_psd: float, tol_trace: float, times=None) -> None:
    """Raise :class:`InvalidStateError` unless ``rho`` is a density matrix or an ``(N, d, d)`` stack of them.

    Members must be finite, Hermitian within ``tol_herm``, ``>= -tol_psd`` and of unit trace within
    ``tol_trace``.  For a stack the message names the first failing member's index and, given ``times``, time.
    """
    stack = np.reshape(rho, (-1,) + np.shape(rho)[-2:])
    finite = np.isfinite(stack).all(axis=(1, 2))
    stack = stack if finite.all() else np.where(finite[:, None, None], stack, 0.0)
    defect = norm_above(stack - adjoint(stack), tol_herm)
    min_eig = np.linalg.eigvalsh(hermitize(stack))[:, 0]
    trace_err = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    bad = ~finite | (defect > tol_herm) | (min_eig < -tol_psd) | (trace_err > tol_trace)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    who = "state" if np.ndim(rho) == 2 else f"state {i}" + ("" if times is None else f" at t = {times[i]:g}")
    if not finite[i]:
        raise InvalidStateError(f"{who} has non-finite entries")
    if defect[i] > tol_herm:
        raise InvalidStateError(f"{who} is not Hermitian: defect {defect[i]:.3e} > {tol_herm:.3e}")
    if min_eig[i] < -tol_psd:
        raise InvalidStateError(f"{who} is not positive semidefinite: min eigenvalue {min_eig[i]:.3e}")
    raise InvalidStateError(f"{who} trace differs from 1 by {trace_err[i]:.3e}")


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A density operator: Hermitian, positive semidefinite, unit trace.

    Validation happens at construction, each invariant within ``DEFAULT_TOL``;
    the stored matrix is an immutable copy.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = as_operator(self.rho)
        require_density(rho, DEFAULT_TOL, DEFAULT_TOL, DEFAULT_TOL)
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def from_vector(cls, psi) -> "QuantumState":
        """Pure state |psi><psi| from a (not necessarily normalized) vector."""
        v = np.asarray(psi, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise InvalidStateError("state vector must be nonzero")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        return cls(np.eye(dim, dtype=complex) / dim)


def expectation(rho, x: np.ndarray) -> complex | np.ndarray:
    """Expectation Tr(rho X) of X in the state rho, per member of a stack.

    ``rho`` may be a :class:`QuantumState`, a density matrix or an ``(N, d, d)``
    stack of them.  The value is real (up to roundoff) for Hermitian X,
    bounded by ||X|| in modulus, and nonnegative for positive semidefinite X.
    """
    r = rho.rho if isinstance(rho, QuantumState) else np.asarray(rho, dtype=complex)
    x = np.asarray(x, dtype=complex)
    require_same_dim(r, x)
    values = np.trace(r @ x, axis1=-2, axis2=-1)
    return complex(values) if values.ndim == 0 else values
