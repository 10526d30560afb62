"""The (H, L, S) model for a single-channel quantum stochastic evolution.

A model is a Hamiltonian H (self-adjoint), a coupling operator L (carrying
units of 1/sqrt(time), so L†L is a rate) and a unitary scattering operator
S, all on the same finite-dimensional system.  Two pictures of the dynamics
are exposed:

* the *flow* picture of an observable X, whose drift is the Lindblad-type
  generator  i[H,X] + L†XL - (1/2){L†L, X}  and whose noise coefficients
  are  [L†,X]S (annihilation), S†[X,L] (creation) and [S†X,S] (gauge);

* the *state* picture of a stochastically evolved density operator rho,
  with drift  -i[H,rho] + L†S rho S†L - (1/2){L†L, rho}  and noise
  coefficients  [rho,L†S]S†,  S[S†L,rho]  and  [S rho, S†].

Both pictures are implemented exactly as written.  Note that the state
drift is *not* the trace-dual of the flow drift.  Even at S = I the two
differ by  Tr(rho (L X L† - L† X L)),  which vanishes for every rho and X
iff L is a phase times a self-adjoint operator; a normal L is not enough
(L = diag(1, i), rho = |0><1|, X = |1><0| gives a gap of 2).  The
trace-dual of the flow drift is the reduced master equation implemented in
:mod:`qstab.evolve`.  The model-level diagnostics report the induced decay
scale ||L†L|| but never alter the operators.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidModelError
from .operators import (
    DEFAULT_TOL,
    _times,
    adjoint,
    anticommutator,
    as_operator,
    commutator,
    hermiticity_defect,
    norm_above,
    require_positive,
    require_same_dim,
    spectral_norm,
)


@dataclass(frozen=True, eq=False)
class QsdeModel:
    """Immutable (H, L, S) triple; S defaults to the identity.

    Construction only enforces shape consistency.  Semantic invariants
    (H self-adjoint, S unitary) are checked by :func:`validate`, so invalid
    triples can be built, inspected and reported on.  The stored arrays are
    read-only, so the spectral and Frobenius norms of H and L (``_norms``)
    are taken once per model, on first use.
    """

    hamiltonian: np.ndarray
    coupling: np.ndarray
    scattering: np.ndarray | None = None

    def __post_init__(self):
        h = as_operator(self.hamiltonian)
        l = as_operator(self.coupling)
        s = as_operator(self.scattering) if self.scattering is not None else as_operator(np.eye(h.shape[0]))
        require_same_dim(h, l, s)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "coupling", l)
        object.__setattr__(self, "scattering", s)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def _norms(self) -> tuple[float, float, float, float]:
        h, l = self.hamiltonian, self.coupling
        return (*spectral_norm(np.stack([h, l])), np.linalg.norm(h), np.linalg.norm(l))


@dataclass(frozen=True)
class ModelDiagnostics:
    """Defects and scales reported by :func:`diagnose`."""

    hamiltonian_defect: float
    scattering_defect: float
    norm_hamiltonian: float
    norm_coupling: float
    norm_scattering: float
    decay_scale: float
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def diagnose(model: QsdeModel, tol: float = DEFAULT_TOL) -> ModelDiagnostics:
    """Measure all model invariants without raising, each by an exact spectral norm.

    Reports the Hermiticity defect of H, the unitarity defect of S (the
    worse of ||S†S - I|| and ||SS† - I||), operator norms, and the decay
    scale ||L†L|| implied by the coupling's units.
    """
    require_positive(tol, "tol")
    h, l, s = model.hamiltonian, model.coupling, model.scattering
    eye = np.eye(model.dim)
    h_defect = hermiticity_defect(h)
    s_defect = max(spectral_norm(adjoint(s) @ s - eye), spectral_norm(s @ adjoint(s) - eye))
    failures = []
    if h_defect > tol:
        failures.append(f"H not self-adjoint, defect {h_defect:.3e}")
    if s_defect > tol:
        failures.append(f"S not unitary, defect {s_defect:.3e}")
    return ModelDiagnostics(
        hamiltonian_defect=h_defect,
        scattering_defect=s_defect,
        norm_hamiltonian=spectral_norm(h),
        norm_coupling=spectral_norm(l),
        norm_scattering=spectral_norm(s),
        decay_scale=spectral_norm(adjoint(l) @ l),
        failures=tuple(failures),
    )


def validate(model: QsdeModel, tol: float = DEFAULT_TOL) -> None:
    """Raise unless H is self-adjoint and S unitary within ``tol``; defects cleared by their Frobenius bound.

    Raises
    ------
    InvalidModelError
        Naming H or L where its ||X||_F^2 overflows, else each violated invariant (:func:`diagnose`).
    """
    require_positive(tol, "tol")
    h, l, s, eye = model.hamiltonian, model.coupling, model.scattering, np.eye(model.dim)
    with np.errstate(over="ignore"):  # a norm past the float range is an input error, not a warning
        for name, x in (("H", h), ("L", l)):
            if not np.isfinite(np.linalg.norm(x)):  # the root of an unscaled sum of squares: inf where that overflows
                raise InvalidModelError(f"{name} is too large: ||{name}||_F^2 overflows")
    if np.max(norm_above(np.stack([h - adjoint(h), adjoint(s) @ s - eye, s @ adjoint(s) - eye]), tol)) > tol:
        raise InvalidModelError("; ".join(diagnose(model, tol=tol).failures))


def require_model_dim(model: QsdeModel, **inputs) -> None:
    """Raise naming the first input whose dimension is not the model's; None inputs are skipped.

    An input is an operator, a stack of them, or anything with a ``dim``.
    """
    for name, x in inputs.items():
        if x is not None and (dim := x.dim if hasattr(x, "dim") else np.shape(x)[-1]) != model.dim:
            raise DimensionMismatchError(f"{name} has dimension {dim}, model has dimension {model.dim}")


class NoiseCoefficients(NamedTuple):
    """Coefficients of the annihilation, creation and gauge differentials."""

    annihilation: np.ndarray
    creation: np.ndarray
    gauge: np.ndarray


# Each noise coefficient by name as its own function of (model, point), so a caller can build only those it reads.
FLOW_NOISE_PARTS: dict[str, Callable[[QsdeModel, np.ndarray], np.ndarray]] = {
    "annihilation": lambda model, x: _times(commutator(adjoint(model.coupling), x), model.scattering),
    "creation": lambda model, x: adjoint(model.scattering) @ commutator(x, model.coupling),
    "gauge": lambda model, x: commutator(adjoint(model.scattering) @ x, model.scattering),
}
STATE_NOISE_PARTS: dict[str, Callable[[QsdeModel, np.ndarray], np.ndarray]] = {
    "annihilation": lambda model, rho: (
        _times(commutator(rho, adjoint(model.coupling) @ model.scattering), adjoint(model.scattering))
    ),
    "creation": lambda model, rho: model.scattering @ commutator(adjoint(model.scattering) @ model.coupling, rho),
    "gauge": lambda model, rho: commutator(model.scattering @ rho, adjoint(model.scattering)),
}


def flow_generator(model: QsdeModel, x: np.ndarray) -> np.ndarray:
    """Drift of the observable flow:  i[H,X] + L†XL - (1/2){L†L, X}.

    Maps Hermitian inputs to Hermitian outputs and annihilates the identity.
    """
    x = np.asarray(x, dtype=complex)
    require_same_dim(model.hamiltonian, x)
    h, l = model.hamiltonian, model.coupling
    return 1j * commutator(h, x) + _times(adjoint(l) @ x, l) - 0.5 * anticommutator(adjoint(l) @ l, x)


def flow_noise_coefficients(model: QsdeModel, x: np.ndarray) -> NoiseCoefficients:
    """Noise coefficients of the observable flow, evaluated at the point X.

    annihilation = [L†, X] S,  creation = S†[X, L],  gauge = [S†X, S].
    All three vanish at X = I (for unitary S), so multiples of the identity
    are flow equilibria of every model.
    """
    x = np.asarray(x, dtype=complex)
    require_same_dim(model.hamiltonian, x)
    return NoiseCoefficients(**{name: part(model, x) for name, part in FLOW_NOISE_PARTS.items()})


def state_generator(model: QsdeModel, rho: np.ndarray) -> np.ndarray:
    """Drift of the stochastic density operator:
    -i[H,rho] + L†S rho S†L - (1/2){L†L, rho}.

    The sandwich term is kept exactly in this form.  The drift maps
    Hermitian to Hermitian but is generally not trace-free and is not the
    trace-dual of :func:`flow_generator`; the argument is treated purely
    algebraically (it need not be a valid state).
    """
    rho = np.asarray(rho, dtype=complex)
    require_same_dim(model.hamiltonian, rho)
    h, l, s = model.hamiltonian, model.coupling, model.scattering
    sandwich = _times(_times(adjoint(l) @ s @ rho, adjoint(s)), l)  # L†S rho S†L, multiplied left to right
    return -1j * commutator(h, rho) + sandwich - 0.5 * anticommutator(adjoint(l) @ l, rho)


def state_noise_coefficients(model: QsdeModel, rho: np.ndarray) -> NoiseCoefficients:
    """Noise coefficients of the stochastic density operator at the point rho.

    annihilation = [rho, L†S] S†,  creation = S[S†L, rho],
    gauge = [S rho, S†].
    """
    rho = np.asarray(rho, dtype=complex)
    require_same_dim(model.hamiltonian, rho)
    return NoiseCoefficients(**{name: part(model, rho) for name, part in STATE_NOISE_PARTS.items()})


def equilibrium_residual(model: QsdeModel, point: np.ndarray, picture: str = "flow") -> float:
    """How far ``point`` is from being an equilibrium of the chosen picture.

    An equilibrium must annihilate the drift and all three noise
    coefficients; the residual is the max spectral norm over the four, so
    it is zero (within tolerance) iff the point is an equilibrium and
    otherwise reports the binding violation.  Parts that are exact zeros, as
    at an equilibrium such as the identity, take no SVD (:func:`spectral_norm`).
    """
    if picture not in ("flow", "state"):
        raise ValueError(f"picture must be 'flow' or 'state', got {picture!r}")
    generator, noise = (flow_generator, FLOW_NOISE_PARTS) if picture == "flow" else (state_generator, STATE_NOISE_PARTS)
    point = np.asarray(point, dtype=complex)
    parts = [generator(model, point)] + [part(model, point) for part in noise.values()]
    return float(np.max(spectral_norm(np.stack(parts))))
