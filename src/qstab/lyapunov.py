"""Operator-valued Lyapunov candidates, their expansion and their quantum Ito coefficients.

A candidate is a finite sum of sandwich terms

    V(X) = sum_k  Y^{n_k}  Theta_k  Y^{m_k},   Y = X - center,

Y = X without a center.  :func:`canonicalize` keeps a scalar center lam I
and expands only a non-scalar one into raw powers of X.  V is Hermitian on
Hermitian arguments iff its terms are closed under (n, m, Theta) <->
(m, n, Theta†).  One power engine gives the powers Y^n at a point and, on a
ray C + sD, the coefficients A_{n,i} of (C - center + sD)^n in s, and one
sandwich sums A_{n,i} Theta A_{m,j} into B_{i+j}, so V(C + sD) = sum_k s^k
B_k; from the center itself, the B_k below the lowest order are exact zeros.

For a model, the differential of V along the flow decomposes into a drift
and three noise coefficients.  The flow is a *-homomorphism, j_t(XY) =
j_t(X) j_t(Y) (Hudson & Parthasarathy 1984), so where every Theta is a
multiple of the identity, V(j_t(X)) = j_t(V(X)) and the four are the model's
own drift and noise coefficients at the one operator V(X).  Otherwise they
are assembled from the model's coefficients at the powers of Y by the
quantum Ito product rule: in the product of two differentials only

    dA dA† -> dt,   dLambda dLambda -> dLambda,
    dLambda dA† -> dA†,   dA dLambda -> dA

survive.  Both paths serve the observable flow and the stochastic density
operator (whose maps are a homomorphism too for unitary S), which differ
only in their per-operator coefficients.  Coefficients are evaluated
pointwise; stability checking quantifies over points rather than over time.
A caller names the coefficients it reads, and only the parts of the powers
that their routes read are built, each once: a check names the drift alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidCandidateError
from .models import FLOW_NOISE_PARTS, STATE_NOISE_PARTS, QsdeModel, flow_generator, require_model_dim
from .models import state_generator, validate
from .operators import DEFAULT_TOL, _times, adjoint, as_operator, norm_above

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
        """Whether :func:`canonicalize` returned this candidate."""
        return vars(self).get("_canonical", False)


# The Ito table as data.  For each term P Theta Q the product rule gives dP Theta Q + P Theta dQ + dP Theta dQ;
# a coefficient reads these parts: of dP, of dQ, then of dP and of dQ in the cross term dP Theta dQ.
_ITO_ROUTES = {
    "drift": ("generator", "generator", "annihilation", "creation"),
    "coeff_a": ("annihilation", "annihilation", "annihilation", "gauge"),
    "coeff_adag": ("creation", "creation", "gauge", "creation"),
    "coeff_gauge": ("gauge", "gauge", "gauge", "gauge"),
}


class ItoCoefficients(NamedTuple):
    """Drift and the three noise coefficients of dV at one point (or stack)."""

    drift: np.ndarray
    coeff_a: np.ndarray
    coeff_adag: np.ndarray
    coeff_gauge: np.ndarray


def _is_scalar_matrix(c: np.ndarray, tol: float) -> tuple[bool, complex]:
    exact = np.array_equal(c, c[0, 0] * np.eye(len(c)))  # then c[0, 0], from which trace / d may round away
    lam = complex(c[0, 0]) if exact else complex(np.trace(c)) / len(c)
    return norm_above(c - lam * np.eye(c.shape[0]), tol) <= tol, lam


def canonicalize(candidate: LyapunovCandidate, *, hermitian_closure: bool = False) -> LyapunovCandidate:
    """Merge the terms, enforce Hermitian closure and keep a scalar center; a canonical input is returned as is.

    The output has merged terms sorted by (n, m), a term list closed under
    (n, m, Theta) <-> (m, n, Theta†) so that evaluation is Hermitian on
    Hermitian arguments, and the center lam I, lam = trace / d, when the
    input's center is within ``DEFAULT_TOL`` of a multiple of the identity
    (None when lam = 0): the terms stay polynomials in Y = X - lam I.  A
    non-scalar center commutes with nothing, so it is expanded into raw
    powers of X, which is exact only when every term is at most bilinear
    (n, m <= 1); it is rejected otherwise.

    Parameters
    ----------
    hermitian_closure:
        When the term list is not Hermitian-closed, replace V by its
        Hermitian part (1/2)(V + V†) instead of raising.  A pair is closed
        when its defect is within the larger of ``DEFAULT_TOL`` and the
        rounding of the expansion's products that built it, 4 d eps times
        the sum of ||C||_F^k ||Theta||_F over them.

    Raises
    ------
    InvalidCandidateError
        Unsupported center, a candidate that is zero after expansion, or
        (without the closure flag) a term list that is not closed.
    """
    if candidate.is_canonical:
        return candidate
    dim = candidate.dim
    expanded: dict[tuple[int, int], np.ndarray] = {}
    sizes: dict[tuple[int, int], float] = {}  # sum of ||C||_F^k ||Theta||_F over the products added to each key

    def add(n, m, theta, size):
        key = (n, m)
        expanded[key] = expanded.get(key, 0) + theta
        sizes[key] = sizes.get(key, 0.0) + size

    center, c = None, candidate.center
    if c is not None:
        scalar, lam = _is_scalar_matrix(c, DEFAULT_TOL)
        if scalar:
            center, c = (lam * np.eye(dim) if lam else None), None
        elif any(n > 1 or m > 1 for n, m, _ in candidate.terms):
            raise InvalidCandidateError(
                "center expansion needs a scalar center for terms of degree 2 or higher in one factor"
            )
    c_norm = 0.0 if c is None else np.linalg.norm(c)
    for n, m, theta in candidate.terms:  # (X - c)^n Theta (X - c)^m with n, m <= 1 where c is not None
        t = np.linalg.norm(theta)
        for k, left, size in [(n, theta, t)] + ([(0, -(c @ theta), c_norm * t)] if n and c is not None else []):
            add(k, m, left, size)
            if m and c is not None:
                add(k, 0, -(left @ c), c_norm * size)

    merged = {key: th for key, th in expanded.items() if th.any()}
    if not merged:
        raise InvalidCandidateError("candidate is identically zero after expansion")

    # Hermitian closure: pair (n, m) with (m, n, Theta†), within the rounding of the products that built them.
    keys = set(merged)
    closed: dict[tuple[int, int], np.ndarray] = {}
    needs_closure = False
    for n, m in sorted(keys | {(m, n) for n, m in keys}):
        theta = merged.get((n, m), np.zeros((dim, dim), dtype=complex))
        partner = merged.get((m, n), np.zeros((dim, dim), dtype=complex))
        tol = max(DEFAULT_TOL, 4.0 * dim * np.finfo(float).eps * (sizes.get((n, m), 0.0) + sizes.get((m, n), 0.0)))
        if norm_above(theta - adjoint(partner), tol) > tol:
            needs_closure = True
        closed[(n, m)] = 0.5 * (theta + adjoint(partner))
    if needs_closure and not hermitian_closure:
        raise InvalidCandidateError(
            "term list is not closed under (n, m, Theta) <-> (m, n, Theta†); "
            "pass hermitian_closure=True to take the Hermitian part"
        )
    final = closed if needs_closure else merged
    terms = tuple((n, m, final[(n, m)]) for n, m in sorted(final) if final[(n, m)].any())
    if not terms:
        raise InvalidCandidateError("candidate is identically zero after Hermitian closure")
    out = LyapunovCandidate(terms=terms, center=center)
    object.__setattr__(out, "_canonical", True)
    return out


def evaluate(candidate: LyapunovCandidate, x: np.ndarray) -> np.ndarray:
    """The polynomial value V(x), with the center (if any) subtracted first.

    Hermitian for Hermitian arguments when the candidate is
    Hermitian-closed; zero at the center when the candidate has no
    constant term.  A stack of arguments gives the stack of values.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape[-1] != candidate.dim:
        raise DimensionMismatchError(f"argument dimension {x.shape[-1]} != candidate dimension {candidate.dim}")
    y = _offset(candidate, x)
    return _sandwich(candidate.terms, [np.zeros_like(y)], y)[0]


def _offset(candidate, x: np.ndarray) -> np.ndarray:
    """Y = x - center, the argument of the candidate's polynomial (x itself without a center)."""
    return x if candidate.center is None else x - candidate.center


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
        for i, left in enumerate([_times(a, theta) for a in powers[n]]):
            for j, right in enumerate(powers[m]):
                b[i + j] = b[i + j] + left @ right
    return b


def _scalar_thetas(terms) -> bool:
    """Whether every Theta is exactly a multiple of the identity, so that the drift and noise are linear in V."""
    return all(np.array_equal(t, t[0, 0] * np.eye(len(t))) for _, _, t in terms)


def _ito_coefficients(model, candidate, point, picture, names, v=None) -> list[np.ndarray]:
    """The dV coefficients named in ``names``, in order, at a point or stack, for a model validated by the caller.

    For scalar Theta each is the picture's map at v = V(point) (evaluated if None), else the Ito table _ITO_ROUTES
    over the powers of Y = point - center, each part that a named coefficient's route reads built once."""
    generator, noise = (flow_generator, FLOW_NOISE_PARTS) if picture == "flow" else (state_generator, STATE_NOISE_PARTS)
    maps = {"generator": generator, **noise}
    candidate = candidate if candidate.center is None else canonicalize(candidate)  # expands a non-scalar center
    point = np.asarray(point, dtype=complex)
    terms = candidate.terms
    if _scalar_thetas(terms):  # V(j_t(X)) = j_t(V(X))
        v = evaluate(candidate, point) if v is None else v
        return [maps[_ITO_ROUTES[name][0]](model, v) for name in names]  # V = V I I: only dP's own part survives
    powers = [row[0] for row in _powers(_offset(candidate, point), terms)]
    reads = {(part, k) for name in names for n, m, _ in terms for part, k in zip(_ITO_ROUTES[name], (n, m, n, m))}
    dy = {(part, k): maps[part](model, powers[k]) for part, k in reads}  # the part of d(Y^k) named part
    out = []
    for name in names:
        dp, dq, cross_p, cross_q = _ITO_ROUTES[name]
        total = np.zeros_like(powers[0])
        for n, m, theta in terms:
            p, q = powers[n], powers[m]
            total = total + dy[dp, n] @ theta @ q + p @ theta @ dy[dq, m] + dy[cross_p, n] @ theta @ dy[cross_q, m]
        out.append(total)
    return out


def flow_ito_coefficients(model: QsdeModel, candidate: LyapunovCandidate, x: np.ndarray) -> ItoCoefficients:
    """Ito coefficients of dV along the observable flow, at the point x.

    The model is validated (:class:`InvalidModelError` names the defect) and
    a centered candidate canonicalized first.  When every Theta is a
    multiple of the identity, the four are the model's flow drift and noise
    coefficients at V(x), as the flow of a valid model (S unitary) is a
    homomorphism; otherwise, as for an expanded non-scalar center, the Ito
    product rule assembles them over the powers of x - center.  The drift is
    Hermitian for Hermitian-closed candidates at Hermitian x.  An (N, d, d)
    stack of points gives the stacks of coefficients.
    """
    validate(model)
    require_model_dim(model, candidate=candidate, point=x)
    return ItoCoefficients(*_ito_coefficients(model, candidate, x, "flow", ItoCoefficients._fields))


def state_ito_coefficients(model: QsdeModel, candidate: LyapunovCandidate, rho: np.ndarray) -> ItoCoefficients:
    """Ito coefficients of dV along the stochastic density operator, at rho.

    Same validation and paths as :func:`flow_ito_coefficients` on the
    state-picture coefficients, a homomorphism too for unitary S.
    """
    validate(model)
    require_model_dim(model, candidate=candidate, point=rho)
    return ItoCoefficients(*_ito_coefficients(model, candidate, rho, "state", ItoCoefficients._fields))
