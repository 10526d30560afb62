"""Decidable stability checks for flow and state equilibria.

The stability conditions are operator inequalities quantified over a level
set { X : V(X) <= eps I }.  That quantifier is not finitely enumerable, so
it is realized by deterministic sampling over a declared operator family:
either a user-supplied list of Hermitian directions with a scalar range, or
a random-Hermitian-ball fallback.  Certificates record the family, seed,
tolerances and sample count needed to reproduce the run bit-identically.

Numerical semantics of the inequalities
---------------------------------------
Non-strict conditions ("drift <= 0") are tested on the full spectrum with
an absolute tolerance.  Strict conditions ("drift < 0", "drift + a V < 0")
are meaningless at floating point without a margin and are tested with the
constant ``TOL_STRICT`` *on the support of V at the sample*: a rank-deficient
certificate such as V(X) = (X - X_e)^2 vanishes on part of the space, the
drift vanishes with it there, and demanding strict negativity on that null
space would reject every such certificate.  Off the support the drift must
still be nonpositive within tolerance.  The decay-rate estimator uses the
same support convention: on V's own eigenvectors its pencil is Hermitian.

One condition table serves every check, the rate estimate and every
witness recheck: each label has one ``measure(point)`` giving, per point of
a stack, the violation, or NaN where the condition holds.  A mode is its
ordered conditions at the center, on V at a sample, and on the drift at a
sample.  The samples pass through one stacked point per block of at most
2^13 matrix entries, and each condition is a mask: its measure runs only on
the samples that no earlier condition decided, so the first violated one
decides a sample, and the most violated sample, the first among ties, is the
witness.  Each block reads its slice of V and its spectrum from the sampler's
re-check, taken once per call.  :func:`recheck_witness` calls the stored
condition's measure on a stack of one, with V guarded by the sampler's bound
(:func:`_rounding`), so it reproduces the stored violation.

Sample i reads row i of one row-ordered draw from the seed, and its scale
is capped where its ray first leaves the level set: a polynomial eigenvalue
problem in the ray coefficients of V from :mod:`qstab.lyapunov`, solved by
one stacked block-companion eigensolve over the distinct rays (Tisseur &
Meerbergen, SIAM Rev. 43, 2001).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegeneratePencilError,
    DimensionMismatchError,
    InternalCheckError,
    InvalidStateError,
    NonHermitianError,
    SamplingError,
)
from .lyapunov import LyapunovCandidate, _sandwich, canonicalize, evaluate, flow_ito_coefficients, state_ito_coefficients
from .models import QsdeModel, equilibrium_residual, validate
from .operators import (
    DEFAULT_TOL,
    QuantumState,
    adjoint,
    as_operator,
    expectation,
    hermiticity_defect,
    hermitize,
    hermitian_eigenvalues,
    require_positive,
    spectral_norm,
)

TOL_STRICT = 1e-8
SUPPORT_CUTOFF = 1e-10  # relative spectral cutoff defining the support of V(X)


@dataclass(frozen=True)
class HermitianBall:
    """Random Hermitian directions of unit spectral norm, scales in (0, radius]."""

    radius: float = 1.0

    def __post_init__(self):
        require_positive(self.radius, "radius")


@dataclass(frozen=True, eq=False)
class DirectionFamily:
    """User-declared Hermitian directions with a common scalar range.

    Directions are normalized to unit spectral norm and cycled through in
    order; the scalar multiplying a direction is drawn uniformly from
    (scale_min, scale_max], further capped by the level-set constraint.
    """

    directions: tuple[np.ndarray, ...]
    scale_min: float = 0.0
    scale_max: float = 1.0

    def __post_init__(self):
        if not self.directions:
            raise ValueError("direction family needs at least one direction")
        require_positive(self.scale_max, "scale_max")
        if not 0.0 <= self.scale_min <= self.scale_max:
            raise ValueError("scalar range must satisfy 0 <= scale_min <= scale_max")
        frozen = []
        for i, d in enumerate(self.directions):
            d = as_operator(d)
            if not d.any():
                raise ValueError(f"directions[{i}] is zero; every direction needs a nonzero norm")
            defect = hermiticity_defect(d)
            if defect > DEFAULT_TOL:
                raise NonHermitianError(f"directions must be Hermitian, defect {defect:.3e}")
            frozen.append(d)
        object.__setattr__(self, "directions", tuple(frozen))


@dataclass(frozen=True)
class LevelSetSpec:
    """How to sample the level set: threshold, count, seed and family."""

    epsilon: float
    sample_count: int
    seed: int
    family: HermitianBall | DirectionFamily = field(default_factory=HermitianBall)

    def __post_init__(self):
        require_positive(self.epsilon, "epsilon")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")


@dataclass(frozen=True, eq=False)
class LevelSetSamples(Sequence):
    """A read-only sequence of (d, d) samples, stacked in ``x``, with V and its ascending eigenvalues at each."""

    x: np.ndarray
    v: np.ndarray
    v_eigs: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i):
        return self.x[i]


@dataclass(frozen=True, eq=False)
class StabilityCertificate:
    """Verdict, margins and reproduction data for one stability check."""

    mode: str
    verdict: str  # "pass" | "fail"
    equilibrium_residual: float
    worst_drift_eigenvalue: float | None
    worst_v_min_eigenvalue: float | None
    rate: float | None
    margin: float | None
    witness: np.ndarray | None
    violated_condition: str | None
    violation: float | None
    sample_count_used: int
    seed: int
    epsilon: float
    family: dict
    tolerances: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class RateEstimate:
    """Largest uniform decay rate supported by the sampled level set."""

    rate: float
    support_mismatch: bool
    per_sample: tuple[float, ...]


@dataclass(frozen=True)
class ChebyshevBound:
    """Tail probability bound  beta = E[V(0)] / alpha, clipped to [0, 1]."""

    beta: float
    raw_ratio: float
    vacuous: bool


def _family_description(family) -> dict:
    if isinstance(family, HermitianBall):
        return {"kind": "random-hermitian-ball", "radius": float(family.radius)}
    return {
        "kind": "user-directions",
        "count": len(family.directions),
        "scale_min": float(family.scale_min),
        "scale_max": float(family.scale_max),
        "directions": family.directions,  # read-only; a certificate file holds them to reproduce the run
    }


def sample_level_set(
    candidate: LyapunovCandidate,
    center: np.ndarray,
    spec: LevelSetSpec,
    *,
    traceless: bool = False,
    tol: float = DEFAULT_TOL,
) -> LevelSetSamples:
    """Hermitian samples X != center with max-eig V(X) <= epsilon + tol, with V and its spectrum at each.

    Sample i reads row i of the (N, 2d^2 + 1) uniforms (N x 1 for a family)
    that the seed draws in row order, so it depends on (seed, i) alone: u is
    1 - the last column, a ball direction the Hermitian part of the Box-Muller
    matrix of the others.  The scale is u times its ray's cap (above
    scale_min), so shrinking epsilon rescales the same samples inward.  The
    cap is the exact exit of the ray from the level set, at most scale_hi,
    from one stacked root solve over the distinct rays (:func:`_ray_exits`).
    It is the *first* crossing: a ray that leaves the level set and re-enters
    it stops at its first exit, and an eigenvalue that touches epsilon
    without crossing stops it too, which is conservative.  The sampled set
    is the star-shaped part of the level set seen from the center.  A sample
    stays a few ulps inside its cap, never outside, and every sample is
    re-checked in one stacked evaluation against epsilon + max(tol, 1e-9, r):
    r = :func:`_rounding` at ||center|| + s bounds the rounding of V at scale s
    (27 eps in place of 256 eps was the most seen) and its Hermiticity defect.

    A center with max-eig V(center) >= epsilon, or a family with no feasible
    nonzero sample, raises :class:`SamplingError`.
    """
    require_positive(tol, "tol")
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
    center = as_operator(center)
    if center.shape[0] != cand.dim:
        raise DimensionMismatchError("center dimension differs from candidate dimension")
    family, dim, count, ball = spec.family, cand.dim, spec.sample_count, isinstance(spec.family, HermitianBall)
    # Mask to uint64 so negative 64-bit seeds are accepted.
    rows = np.random.default_rng(spec.seed & 0xFFFFFFFFFFFFFFFF).random((count, 2 * dim * dim + 1 if ball else 1))
    if ball:  # Box-Muller on the column pairs (a, b): entries with standard normal real and imaginary parts
        scale_min, scale_hi = 0.0, family.radius
        r, theta = np.sqrt(-2.0 * np.log1p(-rows[:, 0:-1:2])), 2.0 * np.pi * rows[:, 1:-1:2]
        rays = hermitize((r * np.cos(theta) + 1j * r * np.sin(theta)).reshape(count, dim, dim))
        if traceless:
            rays = rays - (np.trace(rays, axis1=1, axis2=2) / dim)[:, None, None] * np.eye(dim)
    else:
        scale_min, scale_hi = family.scale_min, family.scale_max
        rays = np.stack(family.directions[:count])
    norms = spectral_norm(rays)
    if np.any(norms == 0.0):
        raise SamplingError("degenerate random direction")
    rays = rays / norms[:, None, None]
    if traceless and not ball and np.any(np.abs(np.trace(rays, axis1=1, axis2=2)) > tol):
        raise InvalidStateError("state-picture directions must be traceless to keep unit trace")
    ray_of = np.arange(count) % len(rays)
    u = 1.0 - rows[:, -1]  # uniform on (0, 1]

    cap = np.minimum(scale_hi, _ray_exits(cand, center, rays, spec.epsilon, tol))[ray_of]
    keep = cap > scale_min
    if not keep.any():
        raise SamplingError(
            f"family yielded no feasible nonzero sample inside the level set (epsilon={spec.epsilon})"
        )
    # u = 1 would put a sample on its computed exit, which rounding may place past epsilon.
    scale = np.minimum(scale_min + u[keep] * (cap[keep] - scale_min), cap[keep] * (1.0 - 8.0 * np.finfo(float).eps))
    samples = center + scale[:, None, None] * rays[ray_of[keep]]
    rounding = _rounding(cand, spectral_norm(center) + scale)  # ||X|| <= ||center|| + s on unit rays
    v = evaluate(cand, samples)
    eigs = hermitian_eigenvalues(v, tol=max(tol, 1e-7, rounding.max()))
    if np.any(eigs[:, -1] > spec.epsilon + np.maximum(max(tol, 1e-9), rounding)):
        raise InternalCheckError("level-set sample failed its own constraint re-check")
    samples.flags.writeable = v.flags.writeable = eigs.flags.writeable = False
    return LevelSetSamples(samples, v, eigs)


def _rounding(cand, radius):
    """256 eps sum_k ||Theta_k||_F radius^(n_k + m_k): bounds V's rounding and Hermiticity defect at ||X|| <= radius."""
    return 256.0 * np.finfo(float).eps * sum(np.linalg.norm(t) * radius ** (n + m) for n, m, t in cand.terms)


def _ray_exits(cand, center, rays, epsilon, tol) -> np.ndarray:
    """Per ray D, the first s > 0 where max-eig V(C + sD) reaches epsilon; inf if none.

    V(C + sD) = sum_k s^k B_k, the B_k from the power engine of :mod:`qstab.lyapunov`.  In mu = 1/s the
    leading block M = B_0 - eps I = V(C) - eps I is negative definite, so the roots are the eigenvalues of
    the block companion of the monic mu^K + sum_k mu^(K-k) M^-1 B_k, with no infinite ones.  The exit is
    1/mu for the largest real positive mu, a root being real when |Im mu| <= 64 eps ||companion||_F, eps = 2^-52.
    """
    dim, degree = cand.dim, max(cand.degree, 1)  # a constant V gets a zero B_1 and no root
    b = _sandwich(cand.terms, np.zeros((degree + 1, len(rays), dim, dim), dtype=complex), center, rays)
    top = hermitian_eigenvalues(b[0, 0], tol=max(tol, 1e-7))[-1]
    if not top < epsilon:
        raise SamplingError(f"center is outside the level set: max-eig V(center) = {top:.6g} >= epsilon = {epsilon}")
    head = -np.linalg.solve(b[0, 0] - epsilon * np.eye(dim), b[1:]).transpose(1, 2, 0, 3).reshape(len(rays), dim, -1)
    shift = np.eye((degree - 1) * dim, degree * dim)  # [I 0] below the block row [-M^-1 B_1 ... -M^-1 B_K]
    companion = np.concatenate([head, np.broadcast_to(shift, (len(rays), *shift.shape))], axis=1)
    mu = np.linalg.eigvals(companion)
    slack = 64.0 * np.finfo(float).eps * np.linalg.norm(companion, axis=(-2, -1))
    exits = np.where((np.abs(mu.imag) <= slack[:, None]) & (mu.real > 0.0), mu.real, 0.0)
    with np.errstate(divide="ignore"):
        return 1.0 / exits.max(axis=-1, initial=0.0)


_BLOCK_ENTRIES = 2**13  # bound on the matrix entries of one sample stack that a _Point holds


@dataclass(eq=False)
class _Point:
    """A stack of points of a check and the per-point values its conditions read, each computed at most once."""

    model: QsdeModel
    cand: LyapunovCandidate
    x: np.ndarray  # (N, d, d)
    picture: str  # "flow" | "state"
    rate: float | None
    margin: float | None
    tol: float
    tol_strict: float
    reference_state: QuantumState | None

    def take(self, keep: np.ndarray) -> _Point:
        """The points that the mask ``keep`` selects, carrying the values computed so far."""
        sub = replace(self, x=self.x[keep])
        for name in vars(self).keys() - vars(sub).keys():
            value = vars(self)[name]
            vars(sub)[name] = tuple(a[keep] for a in value) if isinstance(value, tuple) else value[keep]
        return sub

    @cached_property
    def residual(self) -> np.ndarray:
        return np.array([equilibrium_residual(self.model, x, picture=self.picture) for x in self.x])

    @cached_property
    def v(self) -> np.ndarray:
        return evaluate(self.cand, self.x)

    @cached_property
    def v_eigs(self) -> np.ndarray:
        return hermitian_eigenvalues(self.v, tol=max(self.tol, 1e-7, *_rounding(self.cand, spectral_norm(self.x))))

    @cached_property
    def drift(self) -> np.ndarray:
        ito = flow_ito_coefficients if self.picture == "flow" else state_ito_coefficients
        return ito(self.model, self.cand, self.x).drift

    @cached_property
    def target(self) -> np.ndarray:
        """drift + rate * V, or the drift alone without a rate."""
        return self.drift if self.rate is None else self.drift + self.rate * self.v

    @cached_property
    def target_max(self) -> np.ndarray:
        return hermitian_eigenvalues(self.target, tol=max(self.tol, 1e-7))[:, -1]

    @cached_property
    def v_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of V; those above SUPPORT_CUTOFF times the top one span its support."""
        vals, vecs = np.linalg.eigh(hermitize(self.v))
        if np.any(vals[:, -1] <= 0.0):
            raise DegeneratePencilError("candidate value vanishes at a sample; the pencil has no support")
        return vals, vecs

    @cached_property
    def on_support(self) -> np.ndarray:
        """A suffix of V's ascending eigenvalues, so its count fixes it and ~on_support is the prefix before it."""
        vals = self.v_eigh[0]
        return vals >= SUPPORT_CUTOFF * vals[:, -1:]

    @cached_property
    def support_max(self) -> np.ndarray:
        # Read only after V's top eigenvalue passed tol_strict > 0, so the support is nonempty.
        return _top_eigenvalue_on(self.v_eigh[1], self.on_support.sum(-1), self.target, last=True)

    @cached_property
    def pencil_max(self) -> np.ndarray:
        """Top generalized eigenvalue of the pencil (drift, V) on the support B of V.

        V is diag(lam) on B, so this is the top eigenvalue of lam^-1/2 B† drift B lam^-1/2.
        """
        vals, vecs = self.v_eigh
        scaled = vecs / np.sqrt(np.where(self.on_support, vals, 1.0))[:, None, :]
        return _top_eigenvalue_on(scaled, self.on_support.sum(-1), self.drift, last=True)

    @cached_property
    def off_support_max(self) -> np.ndarray:
        """Top eigenvalue of the drift off the support of V, -inf where the support is everything."""
        return _top_eigenvalue_on(self.v_eigh[1], (~self.on_support).sum(-1), self.drift, last=False)

    @cached_property
    def e_v(self) -> np.ndarray:
        return expectation(self.reference_state, self.v)

    @cached_property
    def e_target(self) -> np.ndarray:
        """E[drift] + rate * E[V], or E[drift] alone without a rate."""
        e_drift = expectation(self.reference_state, self.drift).real
        return e_drift if self.rate is None else e_drift + self.rate * self.e_v.real


def _top_eigenvalue_on(basis, counts, op, *, last) -> np.ndarray:
    """Per point, the top eigenvalue of op on the last count columns of basis (the first if not last), -inf on none.

    Points of one count share one stacked eigensolve."""
    top = np.full(len(op), -np.inf)
    for count in set(counts.tolist()) - {0}:  # np.unique imports numpy.ma: 0.5 MB more resident
        group = np.flatnonzero(counts == count)
        b = basis[group][..., -count:] if last else basis[group][..., :count]
        top[group] = np.linalg.eigvalsh(hermitize(adjoint(b) @ op[group] @ b))[:, -1]
    return top


# Measures: the violation per point where a condition fails, NaN where it holds.
def _above(value, bound):
    return np.where(value > bound, value, np.nan)


def _excess(value, bound):
    return np.where(value > bound, value - bound, np.nan)


def _shortfall(value, bound):  # the condition asks value > bound; 0.0 at the bound
    return np.where(value <= bound, bound - value, np.nan)


class _Condition(NamedTuple):
    label: str
    measure: Callable[[_Point], np.ndarray]
    level: str = ""  # drift conditions: the point value recorded as the worst drift when this one decides a sample


_FLOW_EQUILIBRIUM = _Condition("center is not a flow equilibrium", lambda p: _above(p.residual, p.tol))
_STATE_EQUILIBRIUM = _Condition("center is not a state equilibrium", lambda p: _above(p.residual, p.tol))
_V_AT_CENTER = _Condition("candidate does not vanish at the center", lambda p: _above(spectral_norm(p.v), p.tol))
_E_AT_CENTER = _Condition("candidate expectation does not vanish at the center", lambda p: _above(abs(p.e_v), p.tol))
_NOT_PSD = _Condition("candidate is not positive semidefinite at a sample", lambda p: _above(-p.v_eigs[:, 0], p.tol))
_V_VANISHES = _Condition(
    "candidate vanishes at a sample away from the center", lambda p: _shortfall(p.v_eigs[:, -1], p.tol_strict)
)
_E_VANISHES = _Condition(
    "candidate expectation vanishes at a sample away from the center", lambda p: _shortfall(p.e_v.real, p.tol_strict)
)
_DRIFT = _Condition("drift has a positive eigenvalue on a sample", lambda p: _excess(p.target_max, p.tol), "target_max")
_MARGIN = _Condition(
    "drift exceeds -margin on the support of the candidate", lambda p: _excess(p.support_max, -p.margin), "support_max"
)
_RATE = _Condition(
    "drift plus rate*candidate is not strictly negative on the support",
    lambda p: _excess(p.support_max, -p.tol_strict),
    "support_max",
)
_E_DRIFT = _Condition("drift expectation is positive on a sample", lambda p: _excess(p.e_target, p.tol), "e_target")
_E_STRICT = _Condition(
    "drift expectation is not strictly negative on a sample",
    lambda p: _shortfall(-p.e_target, p.tol_strict),
    "e_target",
)
_E_RATE = _Condition(
    "drift plus rate*candidate expectation is not strictly negative on a sample",
    lambda p: _shortfall(-p.e_target, p.tol_strict),
    "e_target",
)

# mode -> (picture, conditions at the center, on V at a sample, on the drift at a
# sample whose V conditions hold); each group is checked in order.
_FLOW = ("flow", (_FLOW_EQUILIBRIUM, _V_AT_CENTER), (_NOT_PSD, _V_VANISHES))
_STATE = ("state", (_STATE_EQUILIBRIUM, _E_AT_CENTER), (_E_VANISHES,))
_MODES = {
    "local": (*_FLOW, (_DRIFT,)),
    "asymptotic": (*_FLOW, (_DRIFT, _MARGIN)),
    "exponential": (*_FLOW, (_DRIFT, _RATE)),
    "state-local": (*_STATE, (_E_DRIFT,)),
    "state-asymptotic": (*_STATE, (_E_STRICT,)),
    "state-exponential": (*_STATE, (_E_RATE,)),
}


def _decide(conditions, point):
    """Per point of the stack, the first violated condition's violation and index, NaN and -1 where all hold.

    Also the value named by the deciding drift condition's ``level`` (the last one's where all hold, NaN where
    a V condition decided).  Each measure runs only on the points that no earlier condition decided.
    """
    n = len(point.x)
    violation, decided_by, level = np.full(n, np.nan), np.full(n, -1), np.full(n, np.nan)
    rows, last = np.arange(n), len(conditions) - 1
    for i, condition in enumerate(conditions):
        measured = condition.measure(point)
        hit = ~np.isnan(measured)
        violation[rows[hit]], decided_by[rows[hit]] = measured[hit], i
        if condition.level:
            ends = hit | (i == last)
            level[rows[ends]] = getattr(point, condition.level)[ends]
        if i == last or hit.all():
            break
        point, rows = point.take(~hit), rows[~hit]
    return violation, decided_by, level


def _worst(violation) -> int | None:
    """Index of the most violated point, the first among ties; None where every point holds."""
    return None if np.isnan(violation).all() else int(np.nanargmax(violation))


def _blocks(samples: LevelSetSamples, point):
    """In order, points on slices of at most _BLOCK_ENTRIES matrix entries or one sample, holding V and its spectrum."""
    step = max(1, _BLOCK_ENTRIES // samples.x[0].size)
    for i in range(0, len(samples), step):
        block = point(samples.x[i : i + step])
        vars(block).update(v=samples.v[i : i + step], v_eigs=samples.v_eigs[i : i + step])
        yield block


def _check(model, candidate, center, spec, mode, *, rate=None, margin=None, reference_state=None, tol):
    """Check one mode's conditions at the center, then on the level-set samples block by block, and certify."""
    validate(model, tol=tol)
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
    center = as_operator(center)
    picture, center_conditions, v_conditions, drift_conditions = _MODES[mode]
    state = picture == "state"
    point = partial(_Point, model, cand, picture=picture, rate=rate, margin=margin, tol=tol,
                    tol_strict=TOL_STRICT, reference_state=reference_state)

    at_center = point(center[None])
    violation, decided_by, level = _decide(center_conditions, at_center)
    conditions, points, worst_v = center_conditions, center[None], None
    if _worst(violation) is None:
        conditions = v_conditions + drift_conditions
        points = (samples := sample_level_set(cand, center, spec, traceless=state, tol=tol)).x
        if state and np.any(np.abs(np.trace(points, axis1=1, axis2=2) - np.trace(center)) > max(tol, 1e-9)):
            raise InvalidStateError("state-picture sample lost unit trace")
        blocks = [(p.e_v.real if state else p.v_eigs[:, 0], *_decide(conditions, p)) for p in _blocks(samples, point)]
        v_min, violation, decided_by, level = map(np.concatenate, zip(*blocks))
        worst_v = float(v_min.min())
    worst = _worst(violation)
    worst_drift = np.fmax.reduce(level, initial=-np.inf)
    return StabilityCertificate(
        mode=mode,
        verdict="pass" if worst is None else "fail",
        equilibrium_residual=float(at_center.residual[0]),
        worst_drift_eigenvalue=None if worst_drift == -np.inf else float(worst_drift),
        worst_v_min_eigenvalue=worst_v,
        rate=None if rate is None else float(rate),
        margin=None if margin is None else float(margin),
        witness=None if worst is None else points[worst],
        violated_condition=None if worst is None else conditions[decided_by[worst]].label,
        violation=None if worst is None else float(violation[worst]),
        sample_count_used=0 if worst_v is None else len(points),
        seed=int(spec.seed),
        epsilon=float(spec.epsilon),
        family=_family_description(spec.family),
        tolerances={"tol": tol, "tol_strict": TOL_STRICT, "support_cutoff": SUPPORT_CUTOFF},
    )


def check_local(model, candidate, center, spec, *, tol=DEFAULT_TOL) -> StabilityCertificate:
    """Certify local stability of a flow equilibrium on the sampled level set.

    Pass requires: (i) the center is a flow equilibrium, (ii) the candidate
    vanishes at the center, (iii) the candidate is positive semidefinite
    and nonvanishing (top eigenvalue above ``TOL_STRICT``) at every sample,
    (iv) the drift is nonpositive (within ``tol``) at every sample.
    """
    return _check(model, candidate, center, spec, "local", tol=tol)


def check_asymptotic(model, candidate, center, spec, margin: float, *, tol=DEFAULT_TOL) -> StabilityCertificate:
    """Local conditions plus a uniform strict drift bound.

    On every sample the drift must be nonpositive and, on the support of
    the candidate there, at most ``-margin`` (the explicit strict bound b).
    """
    require_positive(margin, "margin")
    return _check(model, candidate, center, spec, "asymptotic", margin=margin, tol=tol)


def check_exponential(model, candidate, center, spec, rate: float, *, tol=DEFAULT_TOL) -> StabilityCertificate:
    """Local conditions with the drift shifted by rate * V.

    Pass requires drift + rate*V nonpositive everywhere and strictly
    negative (below ``-TOL_STRICT``) on the support of V at every sample;
    the certificate records the rate.
    """
    require_positive(rate, "rate")
    return _check(model, candidate, center, spec, "exponential", rate=rate, tol=tol)


def estimate_max_rate(model, candidate, center, spec, *, tol=DEFAULT_TOL) -> RateEstimate:
    """Largest a with drift + a V <= 0 across the sampled level set.

    Per sample the supremum is -(max generalized eigenvalue) of the pencil
    (drift, V) restricted to the support of V (eigenvalues above
    ``SUPPORT_CUTOFF`` times ||V||); the estimate is the minimum over
    samples, clipped at zero.  Positive drift mass off the support cannot
    be repaired by any rate and is reported via ``support_mismatch``.
    A center that fails a center condition of the flow checks, or a sample
    that fails a flow condition on V, raises a ``ValueError`` whose message
    is that condition's label, at the first failing sample.  The pencil
    needs only a nonempty support, so here V vanishes where its top
    eigenvalue is not positive, not below ``TOL_STRICT`` as in the checks.
    """
    validate(model, tol=tol)
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
    center = as_operator(center)
    point = partial(_Point, model, cand, picture="flow", rate=None, margin=None, tol=tol, tol_strict=0.0,
                    reference_state=None)
    _, center_conditions, v_conditions = _FLOW
    _raise_first(center_conditions, point(center[None]))
    rates, mismatch = [], False
    for p in _blocks(sample_level_set(cand, center, spec, tol=tol), point):
        _raise_first(v_conditions, p)
        rates += (-p.pencil_max).tolist()
        mismatch = mismatch or bool(np.any(p.off_support_max > TOL_STRICT))
    return RateEstimate(max(0.0, min(rates)), mismatch, tuple(rates))


def _raise_first(conditions, point) -> None:
    """Raise ``ValueError`` with the label of the condition that decided the first failing point, if one fails."""
    decided_by = _decide(conditions, point)[1]
    if np.any(decided_by >= 0):
        raise ValueError(conditions[decided_by[decided_by >= 0][0]].label)


def check_state(
    model, candidate, center, reference_state: QuantumState, spec, mode: str, rate: float | None = None,
    *, tol=DEFAULT_TOL,
) -> StabilityCertificate:
    """Scalar expectation-level stability check for a state equilibrium.

    Samples live in the affine space of Hermitian unit-trace matrices
    around the center (traceless directions).  With E the expectation
    against ``reference_state``, pass requires E[V(center)] = 0,
    E[V(sample)] > TOL_STRICT, and per mode: E[drift] <= tol (local),
    E[drift] < -TOL_STRICT (asymptotic), or
    E[drift] + rate * E[V] < -TOL_STRICT (exponential).  A ``rate`` is
    required in exponential mode and an input error in the others.
    """
    if mode not in ("local", "asymptotic", "exponential"):
        raise ValueError(f"mode must be local, asymptotic or exponential, got {mode!r}")
    if mode == "exponential":
        if rate is None:
            raise ValueError("exponential mode needs a rate")
        require_positive(rate, "rate")
    elif rate is not None:
        raise ValueError(f"rate applies only to exponential mode, got rate={rate!r} in {mode} mode")
    return _check(
        model, candidate, center, spec, f"state-{mode}",
        rate=rate, reference_state=reference_state, tol=tol,
    )


def chebyshev_bound(expected_v0: float, alpha: float) -> ChebyshevBound:
    """Probability bound beta = E[V(0)] / alpha for leaving the alpha level.

    Clipped to [0, 1]; a raw ratio above one is flagged vacuous.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if expected_v0 < 0:
        raise ValueError("expected_v0 must be nonnegative")
    raw = expected_v0 / alpha
    return ChebyshevBound(beta=min(1.0, raw), raw_ratio=raw, vacuous=raw > 1.0)


def recheck_witness(model, candidate, certificate: StabilityCertificate, *, reference_state=None) -> float:
    """Re-evaluate a failing certificate's witness against its condition.

    Rebuilds the check's point at the witness from the certificate's mode,
    rate, margin and tolerances and calls the stored condition's own
    measure from the condition table, so the result equals the
    certificate's ``violation`` whenever the inputs are the ones the check
    ran on; it is 0.0 where the condition now holds at the witness.
    Useful to confirm that a failure is a property of the reported
    sample, not of the sampling run.  State-picture certificates need the
    ``reference_state`` the check used.
    """
    if certificate.witness is None:
        raise ValueError("certificate carries no witness")
    picture, *groups = _MODES[certificate.mode]
    label = certificate.violated_condition
    condition = next((c for group in groups for c in group if c.label == label), None)
    if condition is None:
        raise ValueError(f"unknown violated condition {label!r} for mode {certificate.mode!r}")
    if picture == "state" and reference_state is None:
        raise ValueError("reference_state is required to recheck a state-picture certificate")
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
    tolerances = certificate.tolerances
    point = _Point(
        model, cand, as_operator(certificate.witness)[None], picture, certificate.rate, certificate.margin,
        tolerances["tol"], tolerances["tol_strict"], reference_state,
    )
    violation = condition.measure(point)[0]
    return 0.0 if np.isnan(violation) else float(violation)
