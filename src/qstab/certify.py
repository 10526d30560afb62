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
are meaningless at floating point without a margin and are tested with
``tol_strict`` *on the support of V at the sample*: a rank-deficient
certificate such as V(X) = (X - X_e)^2 vanishes on part of the space, the
drift vanishes with it there, and demanding strict negativity on that null
space would reject every such certificate.  Off the support the drift must
still be nonpositive within tolerance.  The decay-rate estimator uses the
same support convention via a generalized eigenvalue pencil.

Each sample derives its own random stream from (seed, sample index), and
the bisection runs all samples in lockstep over one (N, d, d) stack, bit
for bit as if each sample were bisected alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DegeneratePencilError,
    DimensionMismatchError,
    InternalCheckError,
    InvalidStateError,
    NonHermitianError,
    SamplingError,
)
from .lyapunov import LyapunovCandidate, canonicalize, evaluate, flow_ito_coefficients, state_ito_coefficients
from .models import equilibrium_residual, validate
from .operators import (
    DEFAULT_TOL,
    QuantumState,
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
        if not 0.0 <= self.scale_min <= self.scale_max:
            raise ValueError("scalar range must satisfy 0 <= scale_min <= scale_max")
        frozen = []
        for d in self.directions:
            d = as_operator(d)
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


def _seeded_rng(seed: int, index: int) -> np.random.Generator:
    # Mask to uint64 so negative 64-bit seeds are accepted.
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, index]))


def _random_hermitian_direction(rng: np.random.Generator, dim: int, traceless: bool) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    d = (a + a.conj().T) / 2.0
    if traceless:
        d = d - (np.trace(d) / dim) * np.eye(dim)
    norm = spectral_norm(d)
    if norm == 0.0:
        raise SamplingError("degenerate random direction")
    return d / norm


def _family_description(family) -> dict:
    if isinstance(family, HermitianBall):
        return {"kind": "random-hermitian-ball", "radius": float(family.radius)}
    return {
        "kind": "user-directions",
        "count": len(family.directions),
        "scale_min": float(family.scale_min),
        "scale_max": float(family.scale_max),
        # full direction matrices so the certificate alone reproduces the run
        "directions": [
            [[[float(z.real), float(z.imag)] for z in row] for row in d] for d in family.directions
        ],
    }


def sample_level_set(
    candidate: LyapunovCandidate,
    center: np.ndarray,
    spec: LevelSetSpec,
    *,
    traceless: bool = False,
    tol: float = DEFAULT_TOL,
    bisection_steps: int = 60,
) -> list[np.ndarray]:
    """Hermitian samples X != center with max-eig V(X) <= epsilon + tol.

    Each sample's direction and scale come from a stream derived from
    (seed, sample index), so the list is deterministic and independent of
    evaluation order.  Scales are capped by bisection along the direction
    until the level constraint binds, and the uniform draw multiplies the
    feasible cap, so shrinking epsilon rescales the same sample set inward
    (nested sampling).  Every returned sample is re-verified against the
    level constraint.  All samples are bisected in lockstep as one
    (N, d, d) stack, each keeping or cutting its own bracket, which gives
    bit for bit the samples that bisecting each one alone gives.

    A family whose scale range is degenerate at zero yields an empty list;
    a family that admits no feasible nonzero sample raises
    :class:`SamplingError`.
    """
    require_positive(tol, "tol")
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
    center = as_operator(center)
    if center.shape[0] != cand.dim:
        raise DimensionMismatchError("center dimension differs from candidate dimension")
    family = spec.family
    if isinstance(family, DirectionFamily):
        scale_min, scale_hi = family.scale_min, family.scale_max
    else:
        scale_min, scale_hi = 0.0, family.radius
    if scale_hi == 0.0:
        return []
    streams = [_seeded_rng(spec.seed, i) for i in range(spec.sample_count)]
    if isinstance(family, DirectionFamily):
        unit = [d / spectral_norm(d) for d in family.directions[: spec.sample_count]]
        if traceless and any(abs(np.trace(d)) > tol for d in unit):
            raise InvalidStateError("state-picture directions must be traceless to keep unit trace")
        directions = np.stack([unit[i % len(unit)] for i in range(spec.sample_count)])
    else:
        directions = np.stack([_random_hermitian_direction(rng, cand.dim, traceless) for rng in streams])
    u = 1.0 - np.array([rng.random() for rng in streams])  # uniform on (0, 1]

    def top_level(x):
        return hermitian_eigenvalues(evaluate(cand, x), tol=max(tol, 1e-7))[:, -1]

    cap = np.full(spec.sample_count, scale_hi)
    bisect = ~(top_level(center + scale_hi * directions) <= spec.epsilon)
    if bisect.any():
        dirs = directions[bisect]
        lo, hi = np.zeros(len(dirs)), cap[bisect]
        for _ in range(bisection_steps):
            mid = 0.5 * (lo + hi)
            ok = top_level(center + mid[:, None, None] * dirs) <= spec.epsilon
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        cap[bisect] = lo
    keep = (cap > scale_min) & (cap != 0.0)
    if not keep.any():
        raise SamplingError(
            f"family yielded no feasible nonzero sample inside the level set (epsilon={spec.epsilon})"
        )
    samples = center + (scale_min + u[keep] * (cap[keep] - scale_min))[:, None, None] * directions[keep]
    if np.any(top_level(samples) > spec.epsilon + max(tol, 1e-9)):
        raise InternalCheckError("level-set sample failed its own constraint re-check")
    return list(samples)


def _support_basis(v: np.ndarray, cutoff: float) -> np.ndarray | None:
    """Orthonormal basis of the eigenspace of v with eigenvalues above cutoff."""
    vals, vecs = np.linalg.eigh(hermitize(v))
    top = float(vals[-1])
    if top <= 0.0:
        return None
    mask = vals >= cutoff * top
    if not np.any(mask):
        return None
    return vecs[:, mask]


def _support_max_eig(m: np.ndarray, basis: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(basis.conj().T @ m @ basis))[-1])


def _certificate(
    mode,
    verdict,
    residual,
    spec,
    *,
    worst_drift=None,
    worst_v_min=None,
    rate=None,
    margin=None,
    witness=None,
    condition=None,
    violation=None,
    used=0,
    tol=DEFAULT_TOL,
    tol_strict=TOL_STRICT,
) -> StabilityCertificate:
    return StabilityCertificate(
        mode=mode,
        verdict=verdict,
        equilibrium_residual=float(residual),
        worst_drift_eigenvalue=None if worst_drift is None else float(worst_drift),
        worst_v_min_eigenvalue=None if worst_v_min is None else float(worst_v_min),
        rate=None if rate is None else float(rate),
        margin=None if margin is None else float(margin),
        witness=witness,
        violated_condition=condition,
        violation=None if violation is None else float(violation),
        sample_count_used=int(used),
        seed=int(spec.seed),
        epsilon=float(spec.epsilon),
        family=_family_description(spec.family),
        tolerances={"tol": tol, "tol_strict": tol_strict, "support_cutoff": SUPPORT_CUTOFF},
    )


def _check_flow(model, candidate, center, spec, mode, *, rate=None, margin=None, tol, tol_strict):
    validate(model, tol=tol)
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
    center = as_operator(center)

    residual = equilibrium_residual(model, center, picture="flow")
    kw = dict(rate=rate, margin=margin, tol=tol, tol_strict=tol_strict)
    if residual > tol:
        return _certificate(
            mode, "fail", residual, spec,
            witness=center, condition="center is not a flow equilibrium", violation=residual, **kw,
        )
    v_center = spectral_norm(evaluate(cand, center))
    if v_center > tol:
        return _certificate(
            mode, "fail", residual, spec,
            witness=center, condition="candidate does not vanish at the center", violation=v_center, **kw,
        )

    samples = sample_level_set(cand, center, spec, tol=tol)
    worst_drift = -np.inf
    worst_v_min = np.inf
    violations: list[tuple[float, str, np.ndarray]] = []
    for x in samples:
        v_x = evaluate(cand, x)
        v_eigs = hermitian_eigenvalues(v_x, tol=max(tol, 1e-7))
        worst_v_min = min(worst_v_min, float(v_eigs[0]))
        if v_eigs[0] < -tol:
            violations.append((float(-v_eigs[0]), "candidate is not positive semidefinite at a sample", x))
            continue
        if v_eigs[-1] <= tol_strict:
            violations.append(
                (float(tol_strict - v_eigs[-1]), "candidate vanishes at a sample away from the center", x)
            )
            continue

        drift = flow_ito_coefficients(model, cand, x).drift
        target = drift if rate is None else drift + rate * v_x
        target_max = float(hermitian_eigenvalues(target, tol=max(tol, 1e-7))[-1])

        if mode == "local":
            worst_drift = max(worst_drift, target_max)
            if target_max > tol:
                violations.append((target_max - tol, "drift has a positive eigenvalue on a sample", x))
            continue

        # Strict modes: nonpositive everywhere, strictly negative on the
        # support of V at the sample.
        if target_max > tol:
            worst_drift = max(worst_drift, target_max)
            violations.append((target_max - tol, "drift has a positive eigenvalue on a sample", x))
            continue
        basis = _support_basis(v_x, SUPPORT_CUTOFF)
        if basis is None:
            violations.append((0.0, "candidate has empty support at a sample", x))
            continue
        support_max = _support_max_eig(target, basis)
        worst_drift = max(worst_drift, support_max)
        threshold = -margin if mode == "asymptotic" else -tol_strict
        label = (
            "drift exceeds -margin on the support of the candidate"
            if mode == "asymptotic"
            else "drift plus rate*candidate is not strictly negative on the support"
        )
        if support_max > threshold:
            violations.append((float(support_max - threshold), label, x))

    if violations:
        # report the most violated sample, not the first encountered
        violation, condition, witness = max(violations, key=lambda entry: entry[0])
        return _certificate(
            mode, "fail", residual, spec,
            worst_drift=None if worst_drift == -np.inf else worst_drift,
            worst_v_min=worst_v_min,
            witness=witness, condition=condition, violation=violation,
            used=len(samples), **kw,
        )
    return _certificate(
        mode, "pass", residual, spec,
        worst_drift=None if not samples or worst_drift == -np.inf else worst_drift,
        worst_v_min=None if not samples else worst_v_min,
        used=len(samples), **kw,
    )


def check_local(model, candidate, center, spec, *, tol=DEFAULT_TOL, tol_strict=TOL_STRICT) -> StabilityCertificate:
    """Certify local stability of a flow equilibrium on the sampled level set.

    Pass requires: (i) the center is a flow equilibrium, (ii) the candidate
    vanishes at the center, (iii) the candidate is positive semidefinite
    and nonvanishing at every sample, (iv) the drift is nonpositive (within
    ``tol``) at every sample.
    """
    return _check_flow(model, candidate, center, spec, "local", tol=tol, tol_strict=tol_strict)


def check_asymptotic(
    model, candidate, center, spec, margin: float, *, tol=DEFAULT_TOL, tol_strict=TOL_STRICT
) -> StabilityCertificate:
    """Local conditions plus a uniform strict drift bound.

    On every sample the drift must be nonpositive and, on the support of
    the candidate there, at most ``-margin`` (the explicit strict bound b).
    """
    require_positive(margin, "margin")
    return _check_flow(
        model, candidate, center, spec, "asymptotic", margin=margin, tol=tol, tol_strict=tol_strict
    )


def check_exponential(
    model, candidate, center, spec, rate: float, *, tol=DEFAULT_TOL, tol_strict=TOL_STRICT
) -> StabilityCertificate:
    """Local conditions with the drift shifted by rate * V.

    Pass requires drift + rate*V nonpositive everywhere and strictly
    negative (below ``-tol_strict``) on the support of V at every sample;
    the certificate records the rate.
    """
    require_positive(rate, "rate")
    return _check_flow(model, candidate, center, spec, "exponential", rate=rate, tol=tol, tol_strict=tol_strict)


def estimate_max_rate(
    model, candidate, center, spec, *, tol=DEFAULT_TOL, support_cutoff=SUPPORT_CUTOFF
) -> RateEstimate:
    """Largest a with drift + a V <= 0 across the sampled level set.

    Per sample the supremum is -(max generalized eigenvalue) of the pencil
    (drift, V) restricted to the support of V (eigenvalues above
    ``support_cutoff`` times ||V||); the estimate is the minimum over
    samples, clipped at zero.  Positive drift mass off the support cannot
    be repaired by any rate and is reported via ``support_mismatch``.
    """
    validate(model, tol=tol)
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
    center = as_operator(center)
    samples = sample_level_set(cand, center, spec, tol=tol)

    rates = []
    mismatch = False
    for x in samples:
        v_x = hermitize(evaluate(cand, x))
        drift = hermitize(flow_ito_coefficients(model, cand, x).drift)
        basis = _support_basis(v_x, support_cutoff)
        if basis is None:
            raise DegeneratePencilError("candidate value vanishes at a sample; the pencil has no support")
        v_s = basis.conj().T @ v_x @ basis
        k_s = basis.conj().T @ drift @ basis
        lam_max = float(scipy.linalg.eigh(hermitize(k_s), hermitize(v_s), eigvals_only=True)[-1])
        rates.append(-lam_max)
        if basis.shape[1] < v_x.shape[0]:
            perp = np.eye(v_x.shape[0]) - basis @ basis.conj().T
            off_max = float(np.linalg.eigvalsh(hermitize(perp @ drift @ perp))[-1])
            if off_max > TOL_STRICT:
                mismatch = True
    return RateEstimate(
        rate=max(0.0, min(rates)),
        support_mismatch=mismatch,
        per_sample=tuple(rates),
    )


def check_state(
    model,
    candidate,
    center,
    reference_state: QuantumState,
    spec,
    mode: str,
    rate: float | None = None,
    *,
    tol=DEFAULT_TOL,
    tol_strict=TOL_STRICT,
) -> StabilityCertificate:
    """Scalar expectation-level stability check for a state equilibrium.

    Samples live in the affine space of Hermitian unit-trace matrices
    around the center (traceless directions).  With E the expectation
    against ``reference_state``, pass requires E[V(center)] = 0,
    E[V(sample)] > 0, and per mode: E[drift] <= tol (local),
    E[drift] < -tol_strict (asymptotic), or
    E[drift] + rate * E[V] < -tol_strict (exponential).
    """
    if mode not in ("local", "asymptotic", "exponential"):
        raise ValueError(f"mode must be local, asymptotic or exponential, got {mode!r}")
    if mode == "exponential" and rate is None:
        raise ValueError("exponential mode needs a rate")
    if rate is not None:
        require_positive(rate, "rate")

    validate(model, tol=tol)
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
    center = as_operator(center)
    cert_mode = f"state-{mode}"
    kw = dict(rate=rate, tol=tol, tol_strict=tol_strict)

    residual = equilibrium_residual(model, center, picture="state")
    if residual > tol:
        return _certificate(
            cert_mode, "fail", residual, spec,
            witness=center, condition="center is not a state equilibrium", violation=residual, **kw,
        )
    e_v_center = expectation(reference_state, evaluate(cand, center))
    if abs(e_v_center) > tol:
        return _certificate(
            cert_mode, "fail", residual, spec,
            witness=center, condition="candidate expectation does not vanish at the center",
            violation=abs(e_v_center), **kw,
        )

    samples = sample_level_set(cand, center, spec, traceless=True, tol=tol)
    worst_drift = -np.inf
    worst_v = np.inf
    violations: list[tuple[float, str, np.ndarray]] = []
    for rho in samples:
        if abs(np.trace(rho) - np.trace(center)) > max(tol, 1e-9):
            raise InvalidStateError("state-picture sample lost unit trace")
        e_v = expectation(reference_state, evaluate(cand, rho)).real
        worst_v = min(worst_v, e_v)
        if e_v <= tol_strict:
            violations.append(
                (float(tol_strict - e_v), "candidate expectation vanishes at a sample away from the center", rho)
            )
            continue
        e_drift = expectation(reference_state, state_ito_coefficients(model, cand, rho).drift).real
        value = e_drift if mode != "exponential" else e_drift + rate * e_v
        worst_drift = max(worst_drift, value)
        if mode == "local":
            if value > tol:
                violations.append((float(value - tol), "drift expectation is positive on a sample", rho))
        elif mode == "asymptotic":
            if value >= -tol_strict:
                violations.append(
                    (float(value + tol_strict), "drift expectation is not strictly negative on a sample", rho)
                )
        else:
            if value >= -tol_strict:
                violations.append(
                    (
                        float(value + tol_strict),
                        "drift plus rate*candidate expectation is not strictly negative on a sample",
                        rho,
                    )
                )

    if violations:
        violation, condition, witness = max(violations, key=lambda entry: entry[0])
        return _certificate(
            cert_mode, "fail", residual, spec,
            worst_drift=None if worst_drift == -np.inf else worst_drift,
            worst_v_min=worst_v,
            witness=witness, condition=condition, violation=violation,
            used=len(samples), **kw,
        )
    return _certificate(
        cert_mode, "pass", residual, spec,
        worst_drift=None if not samples else worst_drift,
        worst_v_min=None if not samples else worst_v,
        used=len(samples), **kw,
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

    Returns the recomputed violation magnitude (0.0 where the stored
    condition is no longer violated); for every condition except empty
    support it is measured as the check measures it and equals the
    certificate's ``violation``.  Useful to confirm that a failure is a
    property of the reported sample, not of the sampling run.
    """
    if certificate.witness is None:
        raise ValueError("certificate carries no witness")
    cond = certificate.violated_condition
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
    x = certificate.witness
    tol = certificate.tolerances["tol"]
    tol_strict = certificate.tolerances["tol_strict"]
    is_state = certificate.mode.startswith("state-")

    if cond in ("center is not a flow equilibrium", "center is not a state equilibrium"):
        return equilibrium_residual(model, x, picture="state" if is_state else "flow")
    if cond == "candidate does not vanish at the center":
        return spectral_norm(evaluate(cand, x))
    if cond == "candidate expectation does not vanish at the center":
        return abs(expectation(reference_state, evaluate(cand, x)))

    v_x = evaluate(cand, x)
    if cond == "candidate is not positive semidefinite at a sample":
        return max(0.0, -float(hermitian_eigenvalues(v_x, tol=1e-7)[0]))
    if cond == "candidate vanishes at a sample away from the center":
        return max(0.0, tol_strict - float(hermitian_eigenvalues(v_x, tol=1e-7)[-1]))

    if is_state:
        e_v = expectation(reference_state, v_x).real
        e_drift = expectation(reference_state, state_ito_coefficients(model, cand, x).drift).real
        if cond == "candidate expectation vanishes at a sample away from the center":
            return max(0.0, tol_strict - e_v)
        value = e_drift if certificate.rate is None else e_drift + certificate.rate * e_v
        if cond == "drift expectation is positive on a sample":
            return max(0.0, value - tol)
        return max(0.0, value + tol_strict)

    drift = flow_ito_coefficients(model, cand, x).drift
    target = drift if certificate.rate is None else drift + certificate.rate * v_x
    if cond == "drift has a positive eigenvalue on a sample":
        return max(0.0, float(hermitian_eigenvalues(target, tol=1e-7)[-1]) - tol)
    basis = _support_basis(v_x, SUPPORT_CUTOFF)
    if cond == "candidate has empty support at a sample":
        return 0.0 if basis is not None else 1.0
    support_max = _support_max_eig(target, basis)
    threshold = -certificate.margin if certificate.margin is not None else -tol_strict
    return max(0.0, support_max - threshold)
