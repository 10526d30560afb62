"""Decidable stability checks for flow and state equilibria.

The stability conditions are operator inequalities quantified over a level
set { X : V(X) <= eps I }.  That quantifier is not finitely enumerable, so
it is realized by deterministic sampling over a declared operator family:
either a user-supplied list of Hermitian directions with a scalar range, or
a random-Hermitian-ball fallback.  Certificates record the family, seed,
tolerances and sample count needed to reproduce the run bit-identically,
and name the model, candidate, center, directions and reference state they
ran on by SHA-256 digests of their exact values (:func:`input_digest`).

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
sample.  Each condition is a mask: its measure runs only on the points that
no earlier condition decided, so the first violated one decides a point,
and the most violated sample, the first among ties, is the witness.  Each
point's eigensolves are guarded by one bound, :func:`_rounding` at
||X - C||_F (the drift target's times 2||H|| + 4||L||^2 + rate).  Off the
ray route (below) one stacked point decides every sample on the sampler's
stack, V and eigendecomposition, and asks for the drift alone, at that V
for scalar Theta (one generator call).  A point of a stack is decided as it
is alone, so :func:`recheck_witness`, which calls the stored condition's
measure on a stack of one, reproduces the stored violation.

The ray route: where the exit solve finds V homogeneous along each ray
(below) and every canonical Theta is exactly scalar, rays of more than one
sample are decided from one eigensolve per ray (:mod:`qstab.rays`).  One
pass decides each sample from its ray's values, or from V at itself in one
stacked point: within its forward-error band of a threshold, off the live
rays, and where it may be the witness (:func:`_sampled`).  No value a
condition reads on a ray needs a sample's matrix, so a sample is its ray
and scale, and its matrix is formed only where read.

Sample i reads row i of one row-ordered draw from the seed, and its scale
is capped where its ray first leaves the level set: a polynomial eigenvalue
problem in the ray coefficients of V from :mod:`qstab.lyapunov`, solved by
one stacked block-companion eigensolve over the distinct rays (Tisseur &
Meerbergen, SIAM Rev. 43, 2001), or in closed form where V is homogeneous
along every ray.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import (
    DegeneratePencilError,
    DimensionMismatchError,
    InternalCheckError,
    InvalidStateError,
    NonHermitianError,
    SamplingError,
)
from .lyapunov import LyapunovCandidate, _ito_coefficients, _offset, _sandwich, _scalar_thetas, canonicalize, evaluate
from .models import QsdeModel, equilibrium_residual, require_model_dim, validate
from .operators import (
    DEFAULT_TOL,
    QuantumState,
    _frobenius,
    adjoint,
    as_operator,
    expectation,
    hermitize,
    hermitian_eigenvalues,
    norm_above,
    require_hermitian,
    require_positive,
    spectral_norm,
)

if TYPE_CHECKING:
    from .rays import Rays

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
    Each is divided by its :func:`spectral_norm` once, at construction.
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
            defect = norm_above(d - adjoint(d), DEFAULT_TOL)
            if defect > DEFAULT_TOL:
                raise NonHermitianError(f"directions must be Hermitian, defect {defect:.3e}")
            frozen.append(d)
        object.__setattr__(self, "directions", tuple(frozen))
        object.__setattr__(self, "_rays", tuple(d / spectral_norm(d) for d in frozen))


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
    """A read-only sequence of (d, d) samples center + s D, with V and its one eigendecomposition at each.

    Sample i is ``center + scale[i] * directions[of[i]]``, D a unit ray.  ``x`` stacks every sample, formed on
    its first read; ``[i]``, slices and index arrays form only the rows they ask for, with the stack's bits.
    Off the ray route V needs the stack, so it is formed at sampling.  On homogeneous scalar-Theta rays ``v`` and
    ``v_eigh`` are None and ``rays`` holds B_K and its eigenvalues; a check there forms the rows of its witness,
    of the samples that may be it and of those decided from V at themselves.
    """

    center: np.ndarray
    directions: np.ndarray  # (R, d, d): the unit rays D
    of: np.ndarray  # (N,): each sample's ray
    scale: np.ndarray  # (N,): each sample's s
    v: np.ndarray | None = None
    v_eigh: tuple[np.ndarray, np.ndarray] | None = None
    rays: Rays | None = None

    def __len__(self) -> int:
        return len(self.scale)

    def __getitem__(self, i) -> np.ndarray:
        x = self.center + self.scale[i, ..., None, None] * self.directions[self.of[i]]
        x.flags.writeable = False
        return x

    @cached_property
    def x(self) -> np.ndarray:
        return self[:]


@dataclass(frozen=True, eq=False)
class StabilityCertificate:
    """Verdict, margins and reproduction data for one stability check.

    The seed, epsilon, family description, tolerances and sample count
    reproduce the run; ``inputs`` names the arrays it ran on by digest: the
    model, the candidate and the center, plus the family's directions for a
    user family and the reference state in the state modes.
    """

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
    inputs: dict  # input name -> SHA-256 hex digest (:func:`input_digest`)

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
    # The directions themselves are named by the certificate's "family" input digest, not copied into it.
    return {
        "kind": "user-directions",
        "count": len(family.directions),
        "scale_min": float(family.scale_min),
        "scale_max": float(family.scale_max),
    }


def input_digest(*parts) -> str:
    """SHA-256 hex digest of exact binary values, never of their text.

    Per part in order: None as a marker, an int as its decimal text, an
    array as its shape and then its little-endian complex128 bytes.  Files
    round-trip bit-exactly, so an input loaded from a file has the digest
    that its check recorded.
    """
    import hashlib  # here, not at the top: the import would slow every cold CLI start

    digest = hashlib.sha256()
    for part in parts:
        if part is None:
            digest.update(b"none;")
        elif isinstance(part, int):
            digest.update(b"int %d;" % part)
        else:
            a = np.ascontiguousarray(part, "<c16")
            digest.update(b"c16 %s;" % str(a.shape).encode())
            digest.update(a.tobytes())
    return digest.hexdigest()


def _input_digests(model, cand, *, center=None, family=None, reference_state=None) -> dict:
    """The certificate's ``inputs``: model (H, L, S as stored) and canonical candidate, then each other input given."""
    digests = {
        "model": input_digest(model.hamiltonian, model.coupling, model.scattering),
        "candidate": input_digest(*(part for term in cand.terms for part in term), cand.center),
    }
    if center is not None:
        digests["center"] = input_digest(center)
    if isinstance(family, DirectionFamily):
        digests["family"] = input_digest(*family.directions)
    if reference_state is not None:
        digests["reference"] = input_digest(reference_state.rho)
    return digests


def _inputs(model, candidate, center, spec, *, tol, reference_state=None):
    """The front end of a check and of the rate estimate: the model validated, the candidate canonical and the
    center an operator, each input of the model's dimension."""
    validate(model, tol=tol)
    cand = canonicalize(candidate)
    center = as_operator(center)
    directions = {f"directions[{i}]": d for i, d in enumerate(getattr(spec.family, "directions", ()))}
    require_model_dim(model, candidate=cand, center=center, **directions, reference=reference_state)
    return cand, center


def sample_level_set(
    candidate: LyapunovCandidate,
    center: np.ndarray,
    spec: LevelSetSpec,
    *,
    traceless: bool = False,
    tol: float = DEFAULT_TOL,
) -> LevelSetSamples:
    """Hermitian samples X != center with max-eig V(X) <= epsilon + tol, with V and its eigh at each, or B_K per ray.

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
    re-checked by one stacked evaluation and eigendecomposition of V against
    epsilon + max(tol, 1e-9, r): r = :func:`_rounding` at ||center - C|| + s
    (C the candidate's center) bounds V's rounding at scale s (27 eps in place
    of 256 eps was the most seen) and its Hermiticity defect, the eigh guard.
    On the ray route (the exit solve returns B_K, every Theta is exactly
    scalar and rays carry more than one sample; see :mod:`qstab.rays`) V =
    s^K B_K on each ray, and the re-check reads max-eig B_K s^K from the B_K
    and eigenvalues that the exit solve returns; ``v`` and ``v_eigh`` are
    None, ``rays`` holds them, and no sample's matrix is formed until it is
    read.  Off the ray route the samples are stacked in ``x`` at sampling,
    since V is evaluated on them.

    A center with max-eig V(center) >= epsilon, or a family with no feasible
    nonzero sample, raises :class:`SamplingError`.
    """
    require_positive(tol, "tol")
    cand = canonicalize(candidate)
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
        norms = spectral_norm(rays)
        if np.any(norms == 0.0):
            raise SamplingError("degenerate random direction")
        rays = rays / norms[:, None, None]
    else:
        scale_min, scale_hi = family.scale_min, family.scale_max
        rays = np.stack(family._rays[:count])
    if traceless and not ball and np.any(np.abs(np.trace(rays, axis1=1, axis2=2)) > tol):
        raise InvalidStateError("state-picture directions must be traceless to keep unit trace")
    ray_of = np.arange(count) % len(rays)
    u = 1.0 - rows[:, -1]  # uniform on (0, 1]

    exits, b_k = _ray_exits(cand, center, rays, spec.epsilon, tol)
    cap = np.minimum(scale_hi, exits)[ray_of]
    keep = cap > scale_min
    if not keep.any():
        raise SamplingError(
            f"family yielded no feasible nonzero sample inside the level set (epsilon={spec.epsilon})"
        )
    # u = 1 would put a sample on its computed exit, which rounding may place past epsilon.
    scale = np.minimum(scale_min + u[keep] * (cap[keep] - scale_min), cap[keep] * (1.0 - 8.0 * np.finfo(float).eps))
    of = ray_of[keep]
    sampled = partial(LevelSetSamples, center, rays, of, scale)
    # V = s^K B_K per ray, the drift linear in V: B_K serves the re-check and each ray's samples, where it has several
    on_rays = b_k is not None and len(rays) < count and _scalar_thetas(cand.terms)
    radius = scale if on_rays else spectral_norm(_offset(cand, center)) + scale  # ||X - C|| <= ||center - C|| + s
    with np.errstate(over="ignore"):  # a sample past the float range is an input error, not a warning
        power = radius**cand.degree
    if not np.isfinite(power).all():
        name = "radius" if ball else "scale_max"
        raise ValueError(f"samples leave the float range: lower {name} ({scale_hi:g}) or epsilon ({spec.epsilon:g})")
    rounding = _rounding(cand, radius)
    if on_rays:
        from .rays import Rays  # here, not at the top: only such runs compile qstab.rays

        arrays, top, samples = b_k, b_k[1][of, -1] * power, sampled(rays=Rays(*b_k, cand.degree))
    else:
        x = sampled().x
        v = evaluate(cand, x)
        vals, vecs = np.linalg.eigh(require_hermitian(v, tol=max(tol, 1e-7, rounding.max())))
        top, arrays, samples = vals[:, -1], (v, vals, vecs), sampled(v, (vals, vecs))
        vars(samples)["x"] = x  # the stack that V was evaluated on, cached as ``x`` caches it
    if np.any(top > spec.epsilon + np.maximum(max(tol, 1e-9), rounding)):
        raise InternalCheckError("level-set sample failed its own constraint re-check")
    for a in (rays, of, scale, *arrays):
        a.flags.writeable = False
    return samples


def _rounding(cand, radius):
    """256 eps sum_k ||Theta_k||_F radius^(n_k + m_k): bounds V's rounding and asymmetry at ||X - center|| <= radius."""
    return 256.0 * np.finfo(float).eps * sum(_frobenius(t) * radius ** (n + m) for n, m, t in cand.terms)


def _ray_exits(cand, center, rays, epsilon, tol) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Per ray D, the first s > 0 where max-eig V(C + sD) reaches epsilon, inf if none, and B_K with its eigenvalues.

    V(C + sD) = sum_k s^k B_k, the B_k from the power engine of :mod:`qstab.lyapunov` at Y = C - cand.center.  Where
    B_0 ... B_{K-1} are all exact zeros, as for a homogeneous candidate at its own center, V = s^K B_K, the exit is
    (eps / max-eig B_K)^(1/K), inf where max-eig B_K <= 0, and B_K and its eigenvalues are returned, None elsewhere.
    Otherwise, in mu = 1/s the leading block M = B_0 - eps I = V(C) - eps I is negative definite, so the roots are
    the eigenvalues of the block companion of the monic mu^K + sum_k mu^(K-k) M^-1 B_k, with no infinite ones.  The
    exit is 1/mu for the largest real positive mu, a root being real when |Im mu| <= 64 eps ||companion||_F,
    eps = 2^-52.  B_0 and B_K are guarded by the sampler's bound :func:`_rounding`, at ||Y|| and at 1 (unit rays).
    """
    dim, degree, offset = cand.dim, max(cand.degree, 1), _offset(cand, center)  # a constant V gets a zero B_1
    b = _sandwich(cand.terms, np.zeros((degree + 1, len(rays), dim, dim), dtype=complex), offset, rays)
    if b[0, 0].any():  # else max-eig V(C) = 0 < epsilon exactly
        v0 = hermitian_eigenvalues(b[0, 0], tol=max(tol, 1e-7, _rounding(cand, spectral_norm(offset))))[-1]
        if not v0 < epsilon:
            raise SamplingError(f"center is outside the level set: max-eig V(center) = {v0:.6g} >= epsilon = {epsilon}")
    if not b[:-1].any():
        lead = hermitian_eigenvalues(b[-1], tol=max(tol, 1e-7, _rounding(cand, 1.0)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio, root = epsilon / lead[:, -1], 1.0 / degree
            normal = (ratio >= np.finfo(float).tiny) & (ratio < np.inf)  # else the roots first, then their ratio
            exits = np.where(normal, ratio**root, epsilon**root / lead[:, -1] ** root)
            return np.where(lead[:, -1] > 0.0, exits, np.inf), (b[-1], lead)
    head = -np.linalg.solve(b[0, 0] - epsilon * np.eye(dim), b[1:]).transpose(1, 2, 0, 3).reshape(len(rays), dim, -1)
    shift = np.eye((degree - 1) * dim, degree * dim)  # [I 0] below the block row [-M^-1 B_1 ... -M^-1 B_K]
    companion = np.concatenate([head, np.broadcast_to(shift, (len(rays), *shift.shape))], axis=1)
    mu = np.linalg.eigvals(companion)
    slack = 64.0 * np.finfo(float).eps * np.linalg.norm(companion, axis=(-2, -1))
    exits = np.where((np.abs(mu.imag) <= slack[:, None]) & (mu.real > 0.0), mu.real, 0.0)
    with np.errstate(divide="ignore"):
        return 1.0 / exits.max(axis=-1, initial=0.0), None


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
    def drift(self) -> np.ndarray:
        return _ito_coefficients(self.model, self.cand, self.x, self.picture, ("drift",), self.v)[0]

    @cached_property
    def target(self) -> np.ndarray:
        """drift + rate * V, or the drift alone without a rate."""
        return self.drift if self.rate is None else self.drift + self.rate * self.v

    @cached_property
    def _rounding(self) -> np.ndarray:
        """V's rounding per point, :func:`_rounding` at ||X - center||_F: it guards each eigensolve of the point."""
        with np.errstate(over="ignore"):  # an infinite bound guards nothing, which is no warning
            return _rounding(self.cand, np.linalg.norm(_offset(self.cand, self.x), axis=(-2, -1)))

    @cached_property
    def target_max(self) -> np.ndarray:
        """Guarded by the target's forward error: V's rounding (:attr:`_rounding`) times 2||H|| + 4||L||^2 + rate."""
        h, l = (np.linalg.norm(a) for a in (self.model.hamiltonian, self.model.coupling))
        guard = (2.0 * h + 4.0 * l**2 + (self.rate or 0.0)) * self._rounding.max()
        return hermitian_eigenvalues(self.target, tol=max(self.tol, 1e-7, guard))[:, -1]

    @cached_property
    def v_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """V's ascending eigenvalues and eigenvectors, guarded by V's rounding (:attr:`_rounding`); a point on the
        sampler's whole stack holds the sampler's."""
        return np.linalg.eigh(require_hermitian(self.v, tol=max(self.tol, 1e-7, self._rounding.max())))

    @cached_property
    def on_support(self) -> np.ndarray:
        """V's eigenvalues above SUPPORT_CUTOFF times its top one: a suffix, so ~on_support is the prefix before it."""
        vals = self.v_eigh[0]
        if np.any(vals[:, -1] <= 0.0):
            raise DegeneratePencilError("candidate value vanishes at a sample; the pencil has no support")
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
    level: str = ""  # the point value recorded when this one decides a sample: the worst drift, or the pencil


_FLOW_EQUILIBRIUM = _Condition("center is not a flow equilibrium", lambda p: _above(p.residual, p.tol))
_STATE_EQUILIBRIUM = _Condition("center is not a state equilibrium", lambda p: _above(p.residual, p.tol))
_V_AT_CENTER = _Condition("candidate does not vanish at the center", lambda p: _above(norm_above(p.v, p.tol), p.tol))
_E_AT_CENTER = _Condition("candidate expectation does not vanish at the center", lambda p: _above(abs(p.e_v), p.tol))
_NOT_PSD = _Condition("candidate is not positive semidefinite at a sample", lambda p: _above(-p.v_eigh[0][:, 0], p.tol))
_V_VANISHES = _Condition(
    "candidate vanishes at a sample away from the center", lambda p: _shortfall(p.v_eigh[0][:, -1], p.tol_strict)
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

# Not a stability condition: the rate estimate's flag for drift that no rate repairs, recording the pencil.
_SUPPORT_MISMATCH = _Condition(
    "drift is positive off the support of the candidate", lambda p: _above(p.off_support_max, TOL_STRICT), "pencil_max"
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


def _sampled(samples: LevelSetSamples, point, conditions):
    """Per sample in order, :func:`_decide`'s violation, deciding condition and level, and V's least eigenvalue
    (E[V] in the state picture).  A sample on a live ray is decided from its ray's values
    (:func:`qstab.rays.ray_block`) unless a condition holds at them moved down by their bands and not moved up, or
    the reverse.  Those samples, those off the live rays, and each that may be the witness (its violation moved up
    reaches the largest moved down) are decided from V at themselves in one stacked point: off the route, the
    sampler's stack, V and eigh.  A possible witness keeps its ray's level and V minimum, takes its violation at
    V itself, as :func:`recheck_witness` measures it, and must be decided there by its ray's condition."""

    def decide(p):
        return (*_decide(conditions, p), p.e_v.real if p.picture == "state" else p.v_eigh[0][:, 0])

    n = len(samples)
    out = (np.empty(n), np.empty(n, dtype=int), np.empty(n), np.empty(n))
    exact, ties = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    if samples.rays is not None:
        from .rays import ray_block  # here, not at the top: only a run on rays of several samples compiles it

        block = ray_block(samples, point)
        if block is not None:
            rows, p = block
            lo, hi = p.shifted(-1.0), p.shifted(1.0)
            bounds = np.array([(c.measure(lo), c.measure(hi)) for c in conditions])  # (conditions, 2, points)
            near = np.any(np.isnan(bounds[:, 0]) != np.isnan(bounds[:, 1]), axis=0)
            exact[rows] = near
            rows = rows[~near]
            for array, value in zip(out, decide(p.take(~near))):
                array[rows] = value
            low, high = np.sort(bounds[out[1][rows], :, np.flatnonzero(~near)], axis=-1).T  # NaN where all hold
            ties[rows] = high >= np.fmax.reduce(low, initial=-np.inf)
    rows = np.flatnonzero(exact | ties)
    if len(rows):
        if samples.v is None:  # on rays: form the rows decided from V at themselves
            p = point(samples[rows])
        else:  # off them every sample is, and the sampler's stack, V and eigh serve as they are
            p = point(samples.x)
            vars(p).update(v=samples.v, v_eigh=samples.v_eigh)
        violation, decided_by, *kept = decide(p)
        tie = ties[rows]
        if np.any(decided_by[tie] != out[1][rows[tie]]):
            raise InternalCheckError("a sample that may be the witness is decided on its own V by another condition")
        out[0][rows], out[1][rows] = violation, decided_by
        for array, value in zip(out[2:], kept):
            array[rows[~tie]] = value[~tie]
    return out


def _check(model, candidate, center, spec, mode, *, rate=None, margin=None, reference_state=None, tol):
    """Check one mode's conditions at the center, then on the level-set samples in one pass, and certify: the
    certificate and the samples it decided on, None where a center condition failed."""
    if mode.endswith("exponential"):
        if rate is None:
            raise ValueError("exponential mode needs a rate")
        require_positive(rate, "rate")
    if mode == "asymptotic":
        require_positive(margin, "margin")
    cand, center = _inputs(model, candidate, center, spec, tol=tol, reference_state=reference_state)
    picture, center_conditions, v_conditions, drift_conditions = _MODES[mode]
    state = picture == "state"
    point = partial(_Point, model, cand, picture=picture, rate=rate, margin=margin, tol=tol,
                    tol_strict=TOL_STRICT, reference_state=reference_state)

    at_center = point(center[None])
    violation, decided_by, level = _decide(center_conditions, at_center)
    conditions, points, worst_v, samples = center_conditions, center[None], None, None
    if _worst(violation) is None:
        conditions = v_conditions + drift_conditions
        points = samples = sample_level_set(cand, center, spec, traceless=state, tol=tol)  # rows formed where read
        # |tr(X - center)| = |s tr D| per sample, from its unit ray: no sample's matrix is formed
        if state and np.any(np.abs(samples.scale * samples.directions.trace(0, 1, 2)[samples.of]) > max(tol, 1e-9)):
            raise InvalidStateError("state-picture sample lost unit trace")
        violation, decided_by, level, v_min = _sampled(samples, point, conditions)
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
        tolerances={"tol": float(tol), "tol_strict": TOL_STRICT, "support_cutoff": SUPPORT_CUTOFF},
        inputs=_input_digests(model, cand, center=center, family=spec.family, reference_state=reference_state),
    ), samples


def check_local(model, candidate, center, spec, *, tol=DEFAULT_TOL) -> StabilityCertificate:
    """Certify local stability of a flow equilibrium on the sampled level set.

    Pass requires: (i) the center is a flow equilibrium, (ii) the candidate
    vanishes at the center, (iii) the candidate is positive semidefinite
    and nonvanishing (top eigenvalue above ``TOL_STRICT``) at every sample,
    (iv) the drift is nonpositive (within ``tol``) at every sample.
    """
    return _check(model, candidate, center, spec, "local", tol=tol)[0]


def check_asymptotic(model, candidate, center, spec, margin: float, *, tol=DEFAULT_TOL) -> StabilityCertificate:
    """Local conditions plus a uniform strict drift bound.

    On every sample the drift must be nonpositive and, on the support of
    the candidate there, at most ``-margin`` (the explicit strict bound b).
    """
    return _check(model, candidate, center, spec, "asymptotic", margin=margin, tol=tol)[0]


def check_exponential(model, candidate, center, spec, rate: float, *, tol=DEFAULT_TOL) -> StabilityCertificate:
    """Local conditions with the drift shifted by rate * V.

    Pass requires drift + rate*V nonpositive everywhere and strictly
    negative (below ``-TOL_STRICT``) on the support of V at every sample;
    the certificate records the rate.
    """
    return _check(model, candidate, center, spec, "exponential", rate=rate, tol=tol)[0]


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
    cand, center = _inputs(model, candidate, center, spec, tol=tol)
    at_center = _Point(model, cand, center[None], "flow", None, None, tol, 0.0, None)
    _raise_first(_FLOW[1], _decide(_FLOW[1], at_center)[1])
    return _rate(model, cand, sample_level_set(cand, center, spec, tol=tol), tol)


def _rate(model, cand, samples, tol) -> RateEstimate:
    """:func:`estimate_max_rate` on samples of the canonical candidate whose center conditions held."""
    point = partial(_Point, model, cand, picture="flow", rate=None, margin=None, tol=tol, tol_strict=0.0,
                    reference_state=None)
    v_conditions = _FLOW[2]
    _, decided_by, pencil, _ = _sampled(samples, point, (*v_conditions, _SUPPORT_MISMATCH))
    _raise_first(v_conditions, np.where(decided_by < len(v_conditions), decided_by, -1))
    rates = (-pencil).tolist()
    return RateEstimate(max(0.0, min(rates)), bool(np.any(decided_by == len(v_conditions))), tuple(rates))


def _raise_first(conditions, decided_by) -> None:
    """Raise ``ValueError`` with the label of the condition that decided the first failing point, if one fails."""
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
    if mode != "exponential" and rate is not None:
        raise ValueError(f"rate applies only to exponential mode, got rate={rate!r} in {mode} mode")
    return _check(model, candidate, center, spec, f"state-{mode}", rate=rate, reference_state=reference_state,
                  tol=tol)[0]


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
    ``reference_state`` the check used.  The model, the canonical candidate
    and, in the state modes, the reference state must have the digests
    the certificate records in ``inputs``; a ``ValueError`` names the first
    that does not.
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
    cand = canonicalize(candidate)
    given = _input_digests(model, cand, reference_state=reference_state if picture == "state" else None)
    for name, digest in given.items():
        if certificate.inputs.get(name) != digest:
            raise ValueError(f"{name} is not the certificate's: its SHA-256 digest differs from the one recorded")
    tolerances = certificate.tolerances
    point = _Point(
        model, cand, as_operator(certificate.witness)[None], picture, certificate.rate, certificate.margin,
        tolerances["tol"], tolerances["tol_strict"], reference_state,
    )
    violation = condition.measure(point)[0]
    return 0.0 if np.isnan(violation) else float(violation)
