"""Operator-valued Lyapunov candidates and their quantum Ito coefficients.

A candidate is a finite sum of sandwich terms

    V(X) = sum_k  X^{n_k}  Theta_k  X^{m_k},

optionally written around a center point (the polynomial is then taken in
Y = X - center and expanded into the raw power form by
:func:`canonicalize`).  A candidate is Hermitian-valued on Hermitian
arguments iff its term list is closed under the swap
(n, m, Theta) <-> (m, n, Theta†).

For a model, the differential of V along the flow decomposes into a drift
and three noise coefficients.  The decomposition is assembled from the
model's per-operator drift/noise coefficients applied to the powers of the
argument, combined by the quantum Ito product rule: in the product of two
differentials only

    dA dA† -> dt,   dLambda dLambda -> dLambda,
    dLambda dA† -> dA†,   dA dLambda -> dA

survive.  The same engine serves the observable flow and the stochastic
density operator, which differ only in their per-operator coefficients.
Coefficients are evaluated pointwise at a supplied argument; stability
checking quantifies over points rather than over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .errors import DimensionMismatchError, InvalidCandidateError
from .models import (
    QsdeModel,
    flow_generator,
    flow_noise_coefficients,
    state_generator,
    state_noise_coefficients,
)
from .operators import DEFAULT_TOL, adjoint, as_operator, spectral_norm

DEGREE_BOUND = 6


@dataclass(frozen=True, eq=False)
class LyapunovCandidate:
    """Finite list of (n, m, Theta) sandwich terms with an optional center."""

    terms: tuple[tuple[int, int, np.ndarray], ...]
    center: np.ndarray | None = None

    def __post_init__(self):
        frozen = []
        dim = None
        for entry in self.terms:
            n, m, theta = entry
            if int(n) != n or int(m) != m or n < 0 or m < 0:
                raise InvalidCandidateError(f"term exponents must be nonnegative integers, got ({n}, {m})")
            theta = as_operator(theta)
            if dim is None:
                dim = theta.shape[0]
            elif theta.shape[0] != dim:
                raise DimensionMismatchError("all term coefficients must share one dimension")
            frozen.append((int(n), int(m), theta))
        center = None
        if self.center is not None:
            center = as_operator(self.center)
            if dim is not None and center.shape[0] != dim:
                raise DimensionMismatchError("center dimension differs from term coefficients")
        object.__setattr__(self, "terms", tuple(frozen))
        object.__setattr__(self, "center", center)

    @property
    def dim(self) -> int:
        return self.terms[0][2].shape[0]

    @property
    def degree(self) -> int:
        return max(n + m for n, m, _ in self.terms)

    @property
    def is_canonical(self) -> bool:
        return self.center is None


@dataclass(frozen=True, eq=False)
class ItoCoefficients:
    """Drift and the three noise coefficients of dV at one point."""

    drift: np.ndarray
    coeff_a: np.ndarray
    coeff_adag: np.ndarray
    coeff_gauge: np.ndarray


def _is_scalar_matrix(c: np.ndarray, tol: float) -> tuple[bool, complex]:
    lam = complex(np.trace(c)) / c.shape[0]
    off = spectral_norm(c - lam * np.eye(c.shape[0]))
    return off <= tol, lam


def canonicalize(candidate: LyapunovCandidate, *, hermitian_closure: bool = False) -> LyapunovCandidate:
    """Expand the center into raw power terms and enforce Hermitian closure.

    The output has no center, merged terms sorted by (n, m), and a term
    list closed under (n, m, Theta) <-> (m, n, Theta†) so that evaluation
    is Hermitian on Hermitian arguments.  Idempotent.

    Center expansion is binomial for scalar centers (multiples of the
    identity within ``DEFAULT_TOL``).  A non-scalar center commutes with
    nothing, so its powers cannot be rewritten in the pure power form; it is
    supported only when every term is at most bilinear (n, m <= 1), and
    rejected otherwise.

    Parameters
    ----------
    hermitian_closure:
        When the term list is not Hermitian-closed (a pair defect above
        ``DEFAULT_TOL``), replace V by its Hermitian part (1/2)(V + V†)
        instead of raising.

    Raises
    ------
    InvalidCandidateError
        Empty candidate, degree above ``DEGREE_BOUND``, unsupported center, or
        (without the closure flag) a term list that is not closed.
    """
    if not candidate.terms:
        raise InvalidCandidateError("empty candidate")
    if candidate.degree > DEGREE_BOUND:
        raise InvalidCandidateError(f"degree {candidate.degree} exceeds bound {DEGREE_BOUND}")
    dim = candidate.dim
    eye = np.eye(dim, dtype=complex)

    expanded: dict[tuple[int, int], np.ndarray] = {}

    def add(n, m, theta):
        key = (n, m)
        expanded[key] = expanded.get(key, 0) + theta

    if candidate.center is None:
        for n, m, theta in candidate.terms:
            add(n, m, np.array(theta))
    else:
        scalar, lam = _is_scalar_matrix(candidate.center, DEFAULT_TOL)
        if scalar:
            mu = -lam  # (X - lam I)^n = sum_k C(n,k) mu^(n-k) X^k
            for n, m, theta in candidate.terms:
                for k in range(n + 1):
                    for j in range(m + 1):
                        coeff = comb(n, k) * comb(m, j) * mu ** (n - k) * mu ** (m - j)
                        add(k, j, coeff * theta)
        else:
            if any(n > 1 or m > 1 for n, m, _ in candidate.terms):
                raise InvalidCandidateError(
                    "center expansion needs a scalar center for terms of degree 2 or higher in one factor"
                )
            c = candidate.center
            for n, m, theta in candidate.terms:
                left = [(0, theta)] if n == 0 else [(1, theta), (0, -(c @ theta))]
                for k, th_l in left:
                    if m == 0:
                        add(k, 0, np.array(th_l))
                    else:
                        add(k, 1, np.array(th_l))
                        add(k, 0, -(th_l @ c))

    merged = {key: th for key, th in expanded.items() if spectral_norm(th) > 0.0}
    if not merged:
        raise InvalidCandidateError("candidate is identically zero after expansion")

    # Hermitian closure: pair (n, m) with (m, n, Theta†).
    keys = set(merged)
    closed: dict[tuple[int, int], np.ndarray] = {}
    needs_closure = False
    for n, m in sorted(keys | {(m, n) for n, m in keys}):
        theta = merged.get((n, m), np.zeros((dim, dim), dtype=complex))
        partner = merged.get((m, n), np.zeros((dim, dim), dtype=complex))
        defect = spectral_norm(theta - adjoint(partner))
        if defect > DEFAULT_TOL:
            needs_closure = True
        closed[(n, m)] = 0.5 * (theta + adjoint(partner))
    if needs_closure and not hermitian_closure:
        raise InvalidCandidateError(
            "term list is not closed under (n, m, Theta) <-> (m, n, Theta†); "
            "pass hermitian_closure=True to take the Hermitian part"
        )
    final = closed if needs_closure else merged
    terms = tuple(
        (n, m, final[(n, m)]) for n, m in sorted(final) if spectral_norm(final[(n, m)]) > 0.0
    )
    if not terms:
        raise InvalidCandidateError("candidate is identically zero after Hermitian closure")
    return LyapunovCandidate(terms=terms, center=None)


def evaluate(candidate: LyapunovCandidate, x: np.ndarray) -> np.ndarray:
    """The polynomial value V(x), with the center (if any) subtracted first.

    Hermitian for Hermitian arguments when the candidate is
    Hermitian-closed; zero at the center when the candidate has no
    constant term.  A stack of arguments gives the stack of values.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape[-1] != candidate.dim:
        raise DimensionMismatchError(f"argument dimension {x.shape[-1]} != candidate dimension {candidate.dim}")
    y = x - candidate.center if candidate.center is not None else x
    powers = _powers(y, max(max(n, m) for n, m, _ in candidate.terms))
    out = np.zeros_like(y)
    for n, m, theta in candidate.terms:
        out = out + powers[n] @ theta @ powers[m]
    return out


def _powers(x: np.ndarray, up_to: int) -> list[np.ndarray]:
    # Repeated multiplication keeps nilpotent / idempotent arguments exact.
    powers = [np.eye(x.shape[-1], dtype=complex), np.array(x)]
    for _ in range(2, up_to + 1):
        powers.append(powers[-1] @ x)
    return powers[: up_to + 1]


def _ito_coefficients(candidate, point, generator, noise_coefficients) -> ItoCoefficients:
    """Assemble dV coefficients from per-operator drift/noise building blocks.

    For each term P Theta Q with P, Q powers of the point, the product rule
    gives  dP Theta Q + P Theta dQ + dP Theta dQ, and the Ito table routes
    the cross term's differential products into dt, dA, dA† and dLambda.
    """
    candidate = candidate if candidate.is_canonical else canonicalize(candidate)
    point = np.asarray(point, dtype=complex)
    if point.shape[-1] != candidate.dim:
        raise DimensionMismatchError("argument dimension differs from candidate dimension")
    deg = max(max(n, m) for n, m, _ in candidate.terms)
    powers = _powers(point, deg)
    gen = [generator(p) for p in powers]
    noise = [noise_coefficients(p) for p in powers]

    zero = np.zeros_like(powers[0])
    drift, c_a, c_adag, c_gauge = zero, zero, zero, zero
    for n, m, theta in candidate.terms:
        p, q = powers[n], powers[m]
        gp, gq = gen[n], gen[m]
        ap, aq = noise[n].annihilation, noise[m].annihilation
        cp, cq = noise[n].creation, noise[m].creation
        lp, lq = noise[n].gauge, noise[m].gauge
        drift = drift + gp @ theta @ q + p @ theta @ gq + ap @ theta @ cq
        c_a = c_a + ap @ theta @ q + p @ theta @ aq + ap @ theta @ lq
        c_adag = c_adag + cp @ theta @ q + p @ theta @ cq + lp @ theta @ cq
        c_gauge = c_gauge + lp @ theta @ q + p @ theta @ lq + lp @ theta @ lq
    return ItoCoefficients(drift=drift, coeff_a=c_a, coeff_adag=c_adag, coeff_gauge=c_gauge)


def flow_ito_coefficients(model: QsdeModel, candidate: LyapunovCandidate, x: np.ndarray) -> ItoCoefficients:
    """Ito coefficients of dV along the observable flow, at the point x.

    The candidate is canonicalized first (a no-op when already canonical).
    For the single term (1, 0, I) this reduces exactly to the model's flow
    drift and noise coefficients; for pure power terms (n, m, I) the drift
    equals flow_generator(x^(n+m)) because the flow is a homomorphism.
    The drift is Hermitian for Hermitian-closed candidates at Hermitian x.
    An (N, d, d) stack of points gives the stacks of coefficients.
    """
    return _ito_coefficients(candidate, x, partial(flow_generator, model), partial(flow_noise_coefficients, model))


def state_ito_coefficients(model: QsdeModel, candidate: LyapunovCandidate, rho: np.ndarray) -> ItoCoefficients:
    """Ito coefficients of dV along the stochastic density operator, at rho.

    Same assembly as :func:`flow_ito_coefficients` built on the state-picture
    drift and noise coefficients applied to the powers of rho.
    """
    return _ito_coefficients(candidate, rho, partial(state_generator, model), partial(state_noise_coefficients, model))
