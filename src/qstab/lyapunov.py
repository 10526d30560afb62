"""Operator-valued Lyapunov candidates, their expansion and their quantum Ito coefficients.

A candidate is a finite sum of sandwich terms

    V(X) = sum_k  X^{n_k}  Theta_k  X^{m_k},

optionally written around a center point (the polynomial is then taken in
Y = X - center and expanded into the raw power form by
:func:`canonicalize`).  A candidate is Hermitian-valued on Hermitian
arguments iff its term list is closed under the swap
(n, m, Theta) <-> (m, n, Theta†).  This module alone expands V: one power
engine gives the powers x^n at a point and, on a ray C + sD, the
coefficients A_{n,i} of (C + sD)^n in s, and one sandwich sums
A_{n,i} Theta A_{m,j} into B_{i+j}, so V(C + sD) = sum_k s^k B_k.

For a model, the differential of V along the flow decomposes into a drift
and three noise coefficients, assembled from the model's per-operator
drift/noise coefficients at the point's powers by the quantum Ito product
rule: in the product of two differentials only

    dA dA† -> dt,   dLambda dLambda -> dLambda,
    dLambda dA† -> dA†,   dA dLambda -> dA

survive.  The same engine serves the observable flow and the stochastic
density operator, which differ only in their per-operator coefficients.
Coefficients are evaluated pointwise; stability checking quantifies over
points rather than over time.  The drift is assembled at the call, each
noise coefficient, and each part of a power that a coefficient reads, only
on its first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from math import comb
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, InvalidCandidateError
from .models import FLOW_NOISE_PARTS, STATE_NOISE_PARTS, QsdeModel, flow_generator, state_generator
from .operators import DEFAULT_TOL, adjoint, as_operator, spectral_norm

DEGREE_BOUND = 6


@dataclass(frozen=True, eq=False)
class LyapunovCandidate:
    """Finite list of (n, m, Theta) sandwich terms with an optional center."""

    terms: tuple[tuple[int, int, np.ndarray], ...]
    center: np.ndarray | None = None

    def __post_init__(self):
        if not self.terms:
            raise InvalidCandidateError("empty candidate")
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
        if self.degree > DEGREE_BOUND:
            raise InvalidCandidateError(f"degree {self.degree} exceeds bound {DEGREE_BOUND}")

    @property
    def dim(self) -> int:
        return self.terms[0][2].shape[0]

    @property
    def degree(self) -> int:
        return max(n + m for n, m, _ in self.terms)

    @property
    def is_canonical(self) -> bool:
        return self.center is None


# The Ito table as data.  For each term P Theta Q the product rule gives dP Theta Q + P Theta dQ + dP Theta dQ;
# a coefficient reads these parts: of dP, of dQ, then of dP and of dQ in the cross term dP Theta dQ.
_ITO_ROUTES = {
    "drift": ("generator", "generator", "annihilation", "creation"),
    "coeff_a": ("annihilation", "annihilation", "annihilation", "gauge"),
    "coeff_adag": ("creation", "creation", "gauge", "creation"),
    "coeff_gauge": ("gauge", "gauge", "gauge", "gauge"),
}


@dataclass(frozen=True, eq=False)
class ItoCoefficients:
    """Drift and the three noise coefficients of dV at one point (or stack); read-only.

    The drift is assembled at the call, each noise coefficient on its first read
    and then kept, from the terms, the point's powers and, per power, its generator
    and noise parts by name, each a call that builds the part once.
    """

    terms: tuple[tuple[int, int, np.ndarray], ...]
    powers: list[np.ndarray]
    parts: list[dict[str, Callable[[], np.ndarray]]]
    drift: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "drift", self._assemble("drift"))

    def _assemble(self, name: str) -> np.ndarray:
        left, right, cross_left, cross_right = _ITO_ROUTES[name]
        out = np.zeros_like(self.powers[0])
        for n, m, theta in self.terms:
            p, q, dp, dq = self.powers[n], self.powers[m], self.parts[n], self.parts[m]
            out = out + dp[left]() @ theta @ q + p @ theta @ dq[right]() + dp[cross_left]() @ theta @ dq[cross_right]()
        return out

    coeff_a = cached_property(partial(_assemble, name="coeff_a"))
    coeff_adag = cached_property(partial(_assemble, name="coeff_adag"))
    coeff_gauge = cached_property(partial(_assemble, name="coeff_gauge"))


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
        Unsupported center, a candidate that is zero after expansion, or
        (without the closure flag) a term list that is not closed.
    """
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
    return _sandwich(candidate.terms, [np.zeros_like(y)], y)[0]


def _powers(x: np.ndarray, terms, direction: np.ndarray | None = None) -> list[list[np.ndarray]]:
    """Per power n up to the highest a term reads, the coefficients A_{n,i} of (x + s direction)^n in s, or x^n alone.

    A_{n+1,i} = A_{n,i} x + A_{n,i-1} direction: repeated multiplication keeps nilpotent / idempotent x exact."""
    up_to = max(max(n, m) for n, m, _ in terms)
    ray = [] if direction is None else [direction]  # on a ray, A_{n,n} = direction^n ends each row
    powers = [[np.eye(x.shape[-1], dtype=complex)], [np.array(x), *ray]]
    for _ in range(2, up_to + 1):
        a = powers[-1]
        powers.append([a[0] @ x, *(hi @ x + lo @ direction for hi, lo in zip(a[1:], a)), *(a[-1] @ d for d in ray)])
    return powers[: up_to + 1]


def _sandwich(terms, b, x: np.ndarray, direction: np.ndarray | None = None):
    """Add B_k of V(x + s direction) = sum_k s^k B_k into b[k]: the A_{n,i} Theta A_{m,j} over terms and i + j = k.

    Each sum is a new array: in-place adds into (32, 32, 32) stacks tripled the page faults of a check."""
    powers = _powers(x, terms, direction)
    for n, m, theta in terms:
        for i, left in enumerate([a @ theta for a in powers[n]]):
            for j, right in enumerate(powers[m]):
                b[i + j] = b[i + j] + left @ right
    return b


def _ito_coefficients(candidate, point, model, generator, noise_parts) -> ItoCoefficients:
    """dV coefficients from the per-operator drift/noise values at the powers of the point (see _ITO_ROUTES)."""
    candidate = candidate if candidate.is_canonical else canonicalize(candidate)
    point = np.asarray(point, dtype=complex)
    if point.shape[-1] != candidate.dim:
        raise DimensionMismatchError("argument dimension differs from candidate dimension")
    powers = [row[0] for row in _powers(point, candidate.terms)]
    build = {"generator": generator, **noise_parts}
    parts = [{name: cache(partial(f, model, p)) for name, f in build.items()} for p in powers]
    return ItoCoefficients(candidate.terms, powers, parts)


def flow_ito_coefficients(model: QsdeModel, candidate: LyapunovCandidate, x: np.ndarray) -> ItoCoefficients:
    """Ito coefficients of dV along the observable flow, at the point x.

    The candidate is canonicalized first (a no-op when already canonical).
    For the single term (1, 0, I) this reduces exactly to the model's flow
    drift and noise coefficients; for pure power terms (n, m, I) the drift
    equals flow_generator(x^(n+m)) because the flow is a homomorphism.
    The drift is Hermitian for Hermitian-closed candidates at Hermitian x.
    An (N, d, d) stack of points gives the stacks of coefficients.
    """
    return _ito_coefficients(candidate, x, model, flow_generator, FLOW_NOISE_PARTS)


def state_ito_coefficients(model: QsdeModel, candidate: LyapunovCandidate, rho: np.ndarray) -> ItoCoefficients:
    """Ito coefficients of dV along the stochastic density operator, at rho.

    Same assembly as :func:`flow_ito_coefficients` built on the state-picture
    drift and noise coefficients applied to the powers of rho.
    """
    return _ito_coefficients(candidate, rho, model, state_generator, STATE_NOISE_PARTS)
