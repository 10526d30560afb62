import dataclasses
import functools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qstab.certify
import qstab.rays
from qstab import (
    DimensionMismatchError,
    DirectionFamily,
    HermitianBall,
    InternalCheckError,
    InvalidCandidateError,
    InvalidModelError,
    InvalidStateError,
    LevelSetSpec,
    LyapunovCandidate,
    QsdeModel,
    QuantumState,
    SamplingError,
    canonicalize,
    chebyshev_bound,
    check_asymptotic,
    check_exponential,
    check_local,
    check_state,
    estimate_max_rate,
    evaluate,
    flow_ito_coefficients,
    hermitian_eigenvalues,
    hermitize,
    ladder_operators,
    recheck_witness,
    sample_level_set,
    spectral_norm,
)
from qstab.cli import main
from qstab.fileio import (
    certificate_bytes,
    load_certificate,
    load_direction_family,
    load_lyapunov,
    load_model,
    load_operator,
    save_certificate,
)
from qstab.lyapunov import _sandwich

from conftest import (
    EYE2,
    GROUND,
    NUMBER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    random_complex,
    random_density,
    random_hermitian,
    random_model,
    random_unitary,
    reference_companion_exits,
)

DEMO_FILES = Path(__file__).resolve().parents[1] / "demos" / "files"
GAMMA = 1.0


@pytest.fixture
def number_family():
    """The commutative family generated by the equilibrium direction N."""
    return DirectionFamily(directions=(NUMBER,))


@pytest.fixture
def spec_number(number_family):
    return LevelSetSpec(epsilon=1.0, sample_count=16, seed=42, family=number_family)


class TestSampleLevelSet:
    def test_samples_obey_level_constraint(self, damping_candidate, spec_number):
        samples = sample_level_set(damping_candidate, -EYE2, spec_number)
        assert len(samples) == spec_number.sample_count
        for x in samples:
            v = evaluate(damping_candidate, x)
            assert hermitian_eigenvalues(v)[-1] <= spec_number.epsilon + 1e-9

    def test_number_direction_gives_expected_family(self, damping_candidate, spec_number):
        # V(-I + y N) = y^2 N has top eigenvalue y^2 <= 1 iff y <= 1.
        for x in sample_level_set(damping_candidate, -EYE2, spec_number):
            y = (x - (-EYE2))[0, 0].real
            assert 0.0 < y <= 1.0
            assert np.allclose(x, -EYE2 + y * NUMBER)

    def test_deterministic_given_seed(self, damping_candidate, spec_number):
        a = sample_level_set(damping_candidate, -EYE2, spec_number)
        b = sample_level_set(damping_candidate, -EYE2, spec_number)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_nested_in_epsilon(self, damping_candidate, number_family):
        big = LevelSetSpec(epsilon=1.0, sample_count=8, seed=3, family=number_family)
        small = LevelSetSpec(epsilon=0.25, sample_count=8, seed=3, family=number_family)
        xs_big = sample_level_set(damping_candidate, -EYE2, big)
        xs_small = sample_level_set(damping_candidate, -EYE2, small)
        # same directions, scales shrink by the level ratio: y' = y/2 here
        for xb, xs in zip(xs_big, xs_small):
            yb = (xb + EYE2)[0, 0].real
            ys = (xs + EYE2)[0, 0].real
            assert ys == pytest.approx(yb / 2, rel=1e-9)

    def test_ball_family_respects_level(self, damping_candidate):
        spec = LevelSetSpec(epsilon=0.5, sample_count=12, seed=7, family=HermitianBall(radius=2.0))
        for x in sample_level_set(damping_candidate, -EYE2, spec):
            assert hermitian_eigenvalues(evaluate(damping_candidate, x))[-1] <= 0.5 + 1e-9

    def test_zero_scale_family_rejected(self):
        with pytest.raises(ValueError, match="scale_max must be a finite positive number"):
            DirectionFamily(directions=(NUMBER,), scale_max=0.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_ball_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be a finite positive number"):
            HermitianBall(radius)

    def test_infeasible_center_raises_sampling_error(self):
        # V(X) = X^2 + I never fits below epsilon = 0.5.
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2), (0, 0, EYE2))))
        spec = LevelSetSpec(epsilon=0.5, sample_count=4, seed=0)
        with pytest.raises(SamplingError):
            sample_level_set(cand, np.zeros((2, 2)), spec)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_tol_rejected(self, damping_candidate, spec_number, tol):
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            sample_level_set(damping_candidate, -EYE2, spec_number, tol=tol)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match=r"directions\[1\] is zero"):
            DirectionFamily(directions=(NUMBER, np.zeros((2, 2))))

    def test_box_muller_moments(self, monkeypatch):
        # The ball hermitizes the Box-Muller matrices, 10^5 entries for 4,000 samples at d = 5.  Their real and
        # imaginary parts have mean 0 and variance 1 within 5 sigma: 1/sqrt(n) for a mean and sqrt(2/n) for a
        # variance of n standard normals.
        drawn = []
        monkeypatch.setattr(qstab.certify, "hermitize", lambda a: drawn.append(a) or hermitize(a))
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, np.eye(5)),)))
        sample_level_set(cand, np.zeros((5, 5)), LevelSetSpec(1.0, 4000, 3, HermitianBall(1.0)))
        (z,) = (a.ravel() for a in drawn)
        assert z.size == 10**5
        for part in (z.real, z.imag):
            assert abs(part.mean()) <= 5.0 / np.sqrt(z.size)
            assert abs(part.var() - 1.0) <= 5.0 * np.sqrt(2.0 / z.size)

    def test_family_rays_are_each_direction_over_its_spectral_norm(self):
        rng = np.random.default_rng(4)
        directions = tuple(random_hermitian(rng, 4) * 10.0**k for k in (-3, 0, 5))
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, np.eye(4)),)))
        samples = sample_level_set(cand, np.zeros((4, 4)), LevelSetSpec(1.0, 8, 2, DirectionFamily(directions)))
        assert len(samples.directions) == len(directions)
        for d, ray in zip(directions, samples.directions):
            assert np.array_equal(ray, d / spectral_norm(d))

    def test_traceless_sampling_keeps_trace(self):
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2))
        spec = LevelSetSpec(epsilon=0.5, sample_count=10, seed=5)
        for rho in sample_level_set(cand, EYE2 / 2, spec, traceless=True):
            assert abs(np.trace(rho) - 1.0) <= 1e-12


def reference_sample_level_set(candidate, center, spec, *, traceless=False, tol=1e-9, bisection_steps=60):
    """The level-set sampler written one sample at a time, bisecting each cap: the oracle on monotone rays.

    Sample i reads row i of one (N, w) array of uniforms drawn from the seed,
    w = 2 d^2 + 1 for the ball and 1 for a family: a ball direction comes by
    Box-Muller from the row's column pairs, u from its last column.  Each
    sample bisects its own scale cap and is re-checked on its own.
    """
    cand = canonicalize(candidate)
    center = np.asarray(center, dtype=complex)
    dim = center.shape[0]

    def top(x):
        return float(hermitian_eigenvalues(evaluate(cand, x), tol=max(tol, 1e-7))[-1])

    family = spec.family
    if isinstance(family, DirectionFamily):
        scale_min, scale_hi = family.scale_min, family.scale_max
    else:
        scale_min, scale_hi = 0.0, family.radius

    width = 1 if isinstance(family, DirectionFamily) else 2 * dim * dim + 1
    rows = np.random.default_rng(spec.seed & 0xFFFFFFFFFFFFFFFF).random((spec.sample_count, width))
    samples = []
    for i, row in enumerate(rows):
        if isinstance(family, DirectionFamily):
            direction = family.directions[i % len(family.directions)]
            direction = direction / spectral_norm(direction)
            if traceless and abs(np.trace(direction)) > tol:
                raise InvalidStateError("state-picture directions must be traceless to keep unit trace")
        else:
            r, theta = np.sqrt(-2.0 * np.log1p(-row[0:-1:2])), 2.0 * np.pi * row[1:-1:2]
            a = (r * np.cos(theta) + 1j * r * np.sin(theta)).reshape(dim, dim)
            direction = (a + a.conj().T) / 2.0
            if traceless:
                direction = direction - (np.trace(direction) / dim) * np.eye(dim)
            direction = direction / spectral_norm(direction)
        u = 1.0 - row[-1]

        if top(center + scale_hi * direction) <= spec.epsilon:
            cap = scale_hi
        else:
            lo, hi = 0.0, scale_hi
            for _ in range(bisection_steps):
                mid = 0.5 * (lo + hi)
                if top(center + mid * direction) <= spec.epsilon:
                    lo = mid
                else:
                    hi = mid
            cap = lo
        if cap <= scale_min or cap == 0.0:
            continue
        x = center + (scale_min + u * (cap - scale_min)) * direction
        if top(x) > spec.epsilon + max(tol, 1e-9):
            raise InternalCheckError("level-set sample failed its own constraint re-check")
        samples.append(x)
    if not samples:
        raise SamplingError("family yielded no feasible nonzero sample inside the level set")
    return samples


def cubic_candidate(dim, seed):
    """A degree-3 candidate with non-scalar Theta around a scalar center."""
    rng = np.random.default_rng(seed)
    a = random_complex(rng, dim)
    theta = 0.2 * random_complex(rng, dim)
    return canonicalize(
        LyapunovCandidate(
            terms=((1, 1, a @ a.conj().T + np.eye(dim)), (2, 1, theta), (1, 2, theta.conj().T)),
            center=0.5 * np.eye(dim),
        )
    )


class TestAgainstReferenceSampler:
    """On monotone rays the root-solve sampler returns the bisecting loop's samples to the last bits."""

    def assert_same(self, candidate, center, spec, **kw):
        batched = sample_level_set(candidate, center, spec, **kw)
        reference = reference_sample_level_set(candidate, center, spec, **kw)
        assert len(batched) == len(reference)
        assert max(spectral_norm(x - y) / spectral_norm(y) for x, y in zip(batched, reference)) <= 1e-13
        return batched

    @pytest.mark.parametrize("seed", [11, 12])
    def test_demo_qubit_ball(self, seed):
        cand = load_lyapunov(DEMO_FILES / "square_candidate.json")
        center = load_operator(DEMO_FILES / "center.json")
        spec = LevelSetSpec(epsilon=0.5, sample_count=256, seed=seed, family=HermitianBall(1.0))
        assert len(self.assert_same(cand, center, spec)) == 256

    def test_scale_min_drops_samples(self):
        # V(-I + yD) = y^2 D Theta D caps the scale at 0.25 along N (below
        # scale_min, dropped) and at 0.83 along diag(0.3, 1) (capped); along
        # G the whole range is feasible.
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, np.diag([4.0, 0.1])),), center=-EYE2))
        family = DirectionFamily(directions=(NUMBER, GROUND, np.diag([0.3, 1.0])), scale_min=0.5, scale_max=1.0)
        spec = LevelSetSpec(epsilon=0.25, sample_count=9, seed=4, family=family)
        assert len(self.assert_same(cand, -EYE2, spec)) == 6

    @pytest.mark.parametrize("family", [HermitianBall(0.8), DirectionFamily(directions=(SIGMA_Z, SIGMA_X))])
    def test_traceless(self, family):
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2))
        spec = LevelSetSpec(epsilon=0.1, sample_count=10, seed=5, family=family)
        self.assert_same(cand, EYE2 / 2, spec, traceless=True)

    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("epsilon", [0.05, 0.5])
    def test_cubic_non_scalar_theta(self, dim, epsilon):
        cand = cubic_candidate(dim, seed=dim)
        spec = LevelSetSpec(epsilon=epsilon, sample_count=24, seed=dim + 1, family=HermitianBall(2.0))
        self.assert_same(cand, 0.5 * np.eye(dim), spec)

    def test_feasible_scale_hi_runs_no_bisection(self, damping_candidate, monkeypatch):
        calls, solved = [], []
        evaluate_stack, sandwich, eigenvalues = (
            qstab.certify.evaluate, qstab.certify._sandwich, qstab.certify.hermitian_eigenvalues
        )
        monkeypatch.setattr(
            qstab.certify, "evaluate", lambda candidate, x: calls.append(("V", x.shape)) or evaluate_stack(candidate, x)
        )
        monkeypatch.setattr(
            qstab.certify, "_sandwich", lambda terms, b, *x: calls.append(("B", b[0].shape)) or sandwich(terms, b, *x)
        )
        monkeypatch.setattr(
            qstab.certify, "hermitian_eigenvalues", lambda a, tol: solved.append(a.shape) or eigenvalues(a, tol)
        )
        # Feasible at scale_hi, and capped on every ray (max-eig V <= s^2 reaches 0.5 at s >= 0.71).
        family = DirectionFamily(directions=(NUMBER, SIGMA_Z), scale_min=0.05, scale_max=0.1)
        non_scalar = canonicalize(LyapunovCandidate(terms=((1, 1, np.diag([1.0, 0.5])),), center=-EYE2))
        for cand in (damping_candidate, non_scalar):
            for epsilon, fam in ((1.0, family), (0.5, HermitianBall(1.0))):
                for count in (6, 40):
                    calls.clear(), solved.clear()
                    spec = LevelSetSpec(epsilon=epsilon, sample_count=count, seed=2, family=fam)
                    self.assert_same(cand, -EYE2, spec)
                    # One solve for the caps: B_K on the distinct rays (the family's two, or a ball's one per
                    # sample) and one eigensolve of it, none of V at the center, where B_0 is an exact zero.  Then
                    # one evaluation of V at the samples for the re-check, but on the ray route (the scalar Theta
                    # of (X + I)^2 on the family), whose re-check reads B_K's eigenvalues.
                    on_rays = cand is damping_candidate and fam is family
                    rays = (2 if fam is family else count, 2, 2)
                    assert calls == [("B", rays)] + ([] if on_rays else [("V", (count, 2, 2))])
                    assert solved == [rays]

    def test_same_errors(self):
        infeasible = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2), (0, 0, EYE2))))
        spec = LevelSetSpec(epsilon=0.5, sample_count=4, seed=0)
        for sampler in (sample_level_set, reference_sample_level_set):
            with pytest.raises(SamplingError):
                sampler(infeasible, np.zeros((2, 2)), spec)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2))
        family = DirectionFamily(directions=(SIGMA_Z, NUMBER))
        spec = LevelSetSpec(epsilon=0.5, sample_count=4, seed=0, family=family)
        for sampler in (sample_level_set, reference_sample_level_set):
            with pytest.raises(InvalidStateError):
                sampler(cand, EYE2 / 2, spec, traceless=True)

    def test_samples_depend_only_on_seed_and_index(self):
        """The first 8 samples of a run of 16 are a run of 8, bit for bit, on every path of the draw."""
        for dim in (1, 2, 5):
            rng = np.random.default_rng(dim)
            cand, center = cubic_candidate(dim, seed=9), 0.5 * np.eye(dim)
            directions = tuple(random_hermitian(rng, dim) for _ in range(12))
            traceless_directions = tuple(d - np.trace(d) / dim * np.eye(dim) for d in directions)
            paths = [(HermitianBall(1.0), False), (DirectionFamily(directions, 0.0, 2.0), False)]
            if dim > 1:  # at d = 1 no direction is traceless
                paths += [(HermitianBall(1.0), True), (DirectionFamily(traceless_directions, 0.0, 2.0), True)]
            for family, traceless in paths:
                short, long = (
                    sample_level_set(cand, center, LevelSetSpec(0.5, count, -21, family), traceless=traceless)
                    for count in (8, 16)
                )
                assert len(short) == 8 and len(long) == 16
                assert all(np.array_equal(x, y) for x, y in zip(short, long[:8]))


class AtCap:
    """The sampler's one draw made all zeros: its last column 0 gives u = 1, which puts every sample on its cap."""

    def random(self, shape):
        return np.zeros(shape)


class TestExactExits:
    """Caps are the first crossing of max-eig V = epsilon along each ray."""

    def test_non_monotone_ray_stops_at_the_first_crossing(self):
        # V(x) = x^2 (x - 1.5)^2 exceeds 0.2 on (0.41, 1.09) and is feasible again around 1.5.
        one = np.ones((1, 1))
        cand = canonicalize(
            LyapunovCandidate(terms=((2, 2, one), (3, 1, -1.5 * one), (1, 3, -1.5 * one), (1, 1, 2.25 * one)))
        )
        spec = LevelSetSpec(epsilon=0.2, sample_count=16, seed=0, family=DirectionFamily((one,), 0.0, 3.0))
        first = (1.5 - np.sqrt(2.25 - 4 * np.sqrt(0.2))) / 2
        samples = sample_level_set(cand, np.zeros((1, 1)), spec)
        assert len(samples) == 16
        assert all(0.0 < x[0, 0].real <= first for x in samples)

    def test_direction_family_solves_each_ray_once(self, monkeypatch):
        # (X + I)^2 + (X + I)^4 / 2 is not homogeneous on rays from -I, so each ray needs the companion solve.
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(qstab.certify.np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2), (2, 2, EYE2 / 2)), center=-EYE2))
        spec = LevelSetSpec(epsilon=0.5, sample_count=32, seed=1, family=DirectionFamily((NUMBER, SIGMA_Z)))
        assert len(sample_level_set(cand, -EYE2, spec)) == 32
        assert shapes == [(2, 8, 8)]

    def test_homogeneous_rays_take_no_companion_solve(self, monkeypatch):
        """The README certify command and both certify workloads sample (X + I)^2 from -I: closed-form exits."""
        monkeypatch.setattr(qstab.certify.np.linalg, "eigvals", None)
        readme = [
            "certify", str(DEMO_FILES / "damping_model.json"), str(DEMO_FILES / "square_candidate.json"),
            "--center", str(DEMO_FILES / "center.json"), "--mode", "exponential", "--epsilon", "1",
            "--samples", "16", "--seed", "7", "--rate", "0.5", "--family", str(DEMO_FILES / "number_family.json"),
        ]
        assert main(readme) == 0
        monkeypatch.syspath_prepend(str(DEMO_FILES.parents[1]))
        from benchmarks import workloads

        for workload in (workloads.CertifyQubit(3), workloads.CertifyDense(3)):
            workload.setup()
            assert workload.check(workload.op(0)) == []

    def test_the_center_is_guarded_by_the_rounding_of_v_there(self):
        # ||V(C)|| = 1e14 at a center of norm 1e3: its Hermiticity defect (7e-3) is rounding, not an error.
        rng = np.random.default_rng(0)
        a = random_complex(rng, 4)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, 1e7 * (a @ a.conj().T + np.eye(4))),)))
        center = random_hermitian(rng, 4)
        with pytest.raises(SamplingError, match="center is outside the level set"):
            sample_level_set(cand, 1e3 * center / spectral_norm(center), LevelSetSpec(1.0, 4, 0))

    def test_the_leading_block_is_guarded_by_the_rounding_of_v_on_unit_rays(self):
        # B_2 = D Theta D with ||Theta|| ~ 1e12 has a Hermiticity defect far above an absolute 1e-7.
        a = random_complex(np.random.default_rng(0), 4)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, 1e11 * (a @ a.conj().T + np.eye(4))),)))
        assert len(sample_level_set(cand, np.zeros((4, 4)), LevelSetSpec(1e11, 64, 0))) == 64

    def test_sample_on_its_cap_is_pulled_inward(self, monkeypatch):
        # u = 1 puts every sample on its cap.  For V(x) = x^2 at epsilon = 3e6 the computed
        # cap lies a rounding above sqrt(epsilon), which the re-check's 1e-9 slack does not absorb.
        one = np.ones((1, 1))
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, one),)))
        spec = LevelSetSpec(epsilon=3e6, sample_count=2, seed=0, family=DirectionFamily((one,), 0.0, 1e4))
        monkeypatch.setattr(qstab.certify.np.random, "default_rng", lambda seed: AtCap())
        samples = sample_level_set(cand, np.zeros((1, 1)), spec)
        assert len(samples) == 2
        for x in samples:
            assert hermitian_eigenvalues(evaluate(cand, x))[-1] <= 3e6 + 1e-9
            assert x[0, 0].real >= np.sqrt(3e6) * (1.0 - 1e-14)  # a few ulps inward, no more

    @pytest.mark.parametrize("epsilon", [1e6, 1e8, 1e10])
    @pytest.mark.parametrize("seed", [6, 52, 56])
    def test_recheck_slack_scales_with_the_rounding_of_v(self, monkeypatch, seed, epsilon):
        # u = 1 on cubic non-scalar-Theta candidates: the rounding of V at the cap is about
        # u ||V||, which an absolute slack of 1e-9 does not absorb (exit 3 at epsilon 1e6 and 1e8),
        # nor, at 1e10, an absolute Hermiticity tolerance of 1e-7.
        cand, spec = cubic_candidate(3, seed), self.large_spec(seed, epsilon)
        monkeypatch.setattr(qstab.certify.np.random, "default_rng", lambda seed: AtCap())
        assert len(sample_level_set(cand, 0.5 * np.eye(3), spec)) == 4

    @pytest.mark.parametrize("epsilon", [1e6, 1e8, 1e10])
    def test_recheck_catches_a_sample_past_its_cap_by_1e_9(self, monkeypatch, epsilon):
        cand, spec = cubic_candidate(3, 6), self.large_spec(6, epsilon)
        monkeypatch.setattr(qstab.certify.np.random, "default_rng", lambda seed: AtCap())
        solve = qstab.certify._ray_exits

        def late(*args):
            exits, b_k = solve(*args)
            return exits * (1.0 + 1e-9), b_k

        monkeypatch.setattr(qstab.certify, "_ray_exits", late)
        with pytest.raises(InternalCheckError):
            sample_level_set(cand, 0.5 * np.eye(3), spec)

    @pytest.mark.parametrize("epsilon", [1e6, 1e8, 1e10])
    @pytest.mark.parametrize("seed", [6, 52, 56])
    def test_checks_keep_the_samplers_hermiticity_guard(self, monkeypatch, seed, epsilon):
        # At epsilon 1e10 the Hermiticity defect of V at the caps (6.6e-6 at seed 6) is within the
        # sampler's guard, which scales with the rounding of V.  The checks read V's spectrum from the
        # sampler, so no absolute 1e-7 guard raises NonHermitianError and both decide on V, as at 1e6;
        # the witness recheck guards V with the same bound, so it reproduces the stored violation.
        cand, spec = cubic_candidate(3, seed), self.large_spec(seed, epsilon)
        model = QsdeModel(hamiltonian=np.zeros((3, 3)), coupling=np.diag([1.0, 1.0], -1))
        monkeypatch.setattr(qstab.certify.np.random, "default_rng", lambda seed: AtCap())
        label = "candidate is not positive semidefinite at a sample"
        cert = check_local(model, cand, 0.5 * np.eye(3), spec)
        assert cert.verdict == "fail" and cert.violated_condition == label
        assert recheck_witness(model, cand, cert) == cert.violation
        with pytest.raises(ValueError, match=label):
            estimate_max_rate(model, cand, 0.5 * np.eye(3), spec)

    @staticmethod
    def large_spec(seed, epsilon):
        rng = np.random.default_rng(1000 + seed)
        family = DirectionFamily(tuple(random_hermitian(rng, 3) for _ in range(4)), 0.0, 1e6)
        return LevelSetSpec(epsilon=epsilon, sample_count=4, seed=0, family=family)

    def test_infeasible_center_raises_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(qstab.certify.np.linalg, "solve", None)
        monkeypatch.setattr(qstab.certify.np.linalg, "eigvals", None)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2), (0, 0, EYE2))))
        with pytest.raises(SamplingError, match="center is outside the level set"):
            sample_level_set(cand, np.zeros((2, 2)), LevelSetSpec(epsilon=0.5, sample_count=4, seed=0))


class TestClosedFormExits:
    """Where B_0 ... B_{K-1} are exact zeros, the exit (epsilon / max-eig B_K)^(1/K) is the companion solve's."""

    @staticmethod
    def homogeneous(rng, dim, degree, center):
        terms = []
        for n in range(degree // 2 + 1):
            theta = random_complex(rng, dim)
            m = degree - n
            terms += [(n, m, theta), (m, n, theta.conj().T)] if n != m else [(n, n, theta + theta.conj().T)]
        return canonicalize(LyapunovCandidate(terms=tuple(terms), center=center))

    def assert_matches_companion(self, monkeypatch, cand, center, rays, epsilon):
        """Within 64 eps relative, times the condition ||B_K|| / |max-eig B_K| of the top eigenvalue."""
        reference = reference_companion_exits(cand, center, rays, epsilon)
        monkeypatch.setattr(qstab.certify.np.linalg, "eigvals", None)  # no companion solve
        exits, (b_k, lead) = qstab.certify._ray_exits(cand, center, rays, epsilon, 1e-9)
        monkeypatch.undo()
        zero = np.zeros((cand.dim, cand.dim), dtype=complex)
        shape = (cand.degree + 1, len(rays), *zero.shape)
        assert np.array_equal(b_k, _sandwich(cand.terms, np.zeros(shape, dtype=complex), zero, rays)[-1])
        assert np.array_equal(lead, np.linalg.eigvalsh(hermitize(b_k)))  # B_K's eigenvalues, returned with it
        with np.errstate(divide="ignore"):
            condition = spectral_norm(b_k) / np.abs(np.linalg.eigvalsh(b_k)[:, -1])
        finite = np.isfinite(reference)
        assert np.array_equal(np.isfinite(exits), finite)
        gap = np.abs(exits[finite] - reference[finite])
        assert np.all(gap <= 64 * np.finfo(float).eps * condition[finite] * reference[finite])
        return exits

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("lam", [0.0, -1.7, 3.3])
    def test_random_homogeneous_candidates(self, monkeypatch, degree, dim, lam):
        rng = np.random.default_rng(100 * degree + 10 * dim + int(lam != 0))
        cand = self.homogeneous(rng, dim, degree, lam * np.eye(dim))
        rays = np.stack([random_hermitian(rng, dim) for _ in range(8)])
        rays = rays / spectral_norm(rays)[:, None, None]
        for epsilon in (0.05, 2.0):
            self.assert_matches_companion(monkeypatch, cand, lam * np.eye(dim), rays, epsilon)

    @pytest.mark.parametrize("terms", [((1, 1, -EYE2),), ((1, 0, -EYE2), (0, 1, -EYE2))], ids=["even", "odd"])
    def test_a_nonpositive_leading_block_never_exits(self, monkeypatch, terms):
        # -D^2 and -2D on the positive semidefinite rays N, G and I: max-eig B_K is 0 on N and G, negative on I.
        cand = canonicalize(LyapunovCandidate(terms=terms, center=-EYE2))
        exits = self.assert_matches_companion(monkeypatch, cand, -EYE2, np.stack([NUMBER, GROUND, EYE2]), 0.5)
        assert np.all(exits == np.inf)


def hermitian_closed_candidate(rng, dim, degree, center):
    """Random terms (n, m, Theta) with n + m <= degree, closed under (n, m, Theta) <-> (m, n, Theta†)."""
    a = random_complex(rng, dim)
    terms = [(1, 1, a @ a.conj().T / dim)]
    for n in range(degree + 1):
        for m in range(n, degree - n + 1):
            if (n, m) != (1, 1) and rng.random() < 0.5:
                theta = 0.3 * random_complex(rng, dim)
                terms += [(n, m, theta), (m, n, theta.conj().T)] if n != m else [(n, n, hermitize(theta))]
    return LyapunovCandidate(terms=tuple(terms), center=center)


@given(
    dim=st.integers(1, 4),
    degree=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    scalar_center=st.booleans(),
    ball=st.booleans(),
    epsilon=st.sampled_from([0.05, 0.5, 2.0]),
)
@settings(max_examples=150)
def test_caps_are_exact_exits(dim, degree, seed, scalar_center, ball, epsilon):
    """Every cap is feasible all the way up to itself and, below scale_hi, tight at itself."""
    rng = np.random.default_rng(seed)
    cand = canonicalize(hermitian_closed_candidate(rng, dim, degree, 0.5 * np.eye(dim)))
    center = 0.5 * np.eye(dim) + (0.0 if scalar_center else 0.2 * random_hermitian(rng, dim))
    scale_hi = 1.5
    if ball:
        family = HermitianBall(scale_hi)
    else:
        family = DirectionFamily(tuple(random_hermitian(rng, dim) for _ in range(3)), 0.0, scale_hi)
    spec = LevelSetSpec(epsilon=epsilon, sample_count=6, seed=seed, family=family)
    top_at_center = hermitian_eigenvalues(evaluate(cand, center))[-1]
    assume(top_at_center < epsilon - 1e-6)
    samples = sample_level_set(cand, center, spec)
    for x in samples:
        direction = (x - center) / spectral_norm(x - center)
        cap = min(scale_hi, qstab.certify._ray_exits(cand, center, direction[None], epsilon, 1e-9)[0][0])
        grid = np.linspace(0.0, cap, 41)[:, None, None] * direction
        assert np.all(hermitian_eigenvalues(evaluate(cand, center + grid))[:, -1] <= epsilon + 1e-9)
        if cap < scale_hi:
            # sum_k ||B_k|| cap^k is at most sum ||Theta|| (||C|| + cap)^(n+m)
            b_norm = sum(spectral_norm(t) * (spectral_norm(center) + cap) ** (n + m) for n, m, t in cand.terms)
            top = hermitian_eigenvalues(evaluate(cand, center + cap * direction))[-1]
            assert top >= epsilon - 1e-12 * max(1.0, b_norm)


class TestCheckLocal:
    def test_worked_example_passes(self, damping_model, damping_candidate, spec_number):
        cert = check_local(damping_model, damping_candidate, -EYE2, spec_number)
        assert cert.passed
        assert cert.equilibrium_residual <= 1e-12
        assert cert.sample_count_used == spec_number.sample_count
        # drift = -y^2 N is nonpositive; its top eigenvalue on every sample is 0
        assert cert.worst_drift_eigenvalue <= 1e-12

    def test_unclosed_term_list_is_an_invalid_candidate(self, damping_model):
        cand = LyapunovCandidate(terms=((1, 1, [[1, 2], [0, 1]]),))
        with pytest.raises(InvalidCandidateError, match="not closed"):
            check_local(damping_model, cand, np.zeros((2, 2)), LevelSetSpec(1.0, 4, 0))

    def test_full_ball_fails_with_witness(self, damping_model, damping_candidate):
        # Perturbations toward |g><g| make the drift positive: at
        # X = -I + G the drift is +gamma |e><e|.
        family = DirectionFamily(directions=(GROUND,))
        spec = LevelSetSpec(epsilon=1.0, sample_count=6, seed=11, family=family)
        cert = check_local(damping_model, damping_candidate, -EYE2, spec)
        assert not cert.passed
        assert cert.violated_condition == "drift has a positive eigenvalue on a sample"
        assert cert.witness is not None
        assert recheck_witness(damping_model, damping_candidate, cert) > 1e-9

    def test_nonvanishing_candidate_at_center_fails(self, damping_model, spec_number):
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2), (0, 0, EYE2))))
        cert = check_local(damping_model, cand, -EYE2, spec_number)
        assert not cert.passed
        assert cert.violated_condition == "candidate does not vanish at the center"

    def test_non_equilibrium_center_fails_before_sampling(self, damping_model, damping_candidate):
        spec = LevelSetSpec(epsilon=1.0, sample_count=4, seed=0)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=NUMBER))
        cert = check_local(damping_model, cand, NUMBER, spec)
        assert not cert.passed
        assert cert.violated_condition == "center is not a flow equilibrium"
        assert cert.sample_count_used == 0

    def test_invalid_model_rejected(self, damping_candidate, spec_number):
        bad = QsdeModel(hamiltonian=SIGMA_MINUS, coupling=SIGMA_MINUS)
        with pytest.raises(InvalidModelError):
            check_local(bad, damping_candidate, -EYE2, spec_number)

    def test_indefinite_candidate_fails_positivity(self, damping_model):
        # V(X) = X is not positive on the level set.
        cand = LyapunovCandidate(terms=((1, 0, EYE2), (0, 1, EYE2)))
        family = DirectionFamily(directions=(SIGMA_Z,))
        spec = LevelSetSpec(epsilon=1.0, sample_count=4, seed=1, family=family)
        cert = check_local(damping_model, canonicalize(cand), np.zeros((2, 2)), spec)
        assert not cert.passed
        assert cert.violated_condition == "candidate is not positive semidefinite at a sample"

    def test_monotone_in_epsilon(self, damping_model, damping_candidate, number_family):
        verdicts = []
        for eps in (1.0, 0.5, 0.1, 0.01):
            spec = LevelSetSpec(epsilon=eps, sample_count=8, seed=9, family=number_family)
            verdicts.append(check_local(damping_model, damping_candidate, -EYE2, spec).passed)
        assert all(verdicts)

    def test_scale_invariance_of_verdicts(self, damping_model, number_family):
        for c in (0.1, 1.0, 10.0):
            cand = canonicalize(LyapunovCandidate(terms=((1, 1, c * EYE2),), center=-EYE2))
            spec = LevelSetSpec(epsilon=c * 1.0, sample_count=8, seed=13, family=number_family)
            cert = check_local(damping_model, cand, -EYE2, spec)
            assert cert.passed

    def test_the_drift_is_guarded_by_its_forward_error(self, damping_model, damping_candidate):
        # At epsilon 1e10 the drift's Hermiticity defect (4.0e-7) is the rounding of a V of norm up to 1e10,
        # above an absolute 1e-7 guard but within 2||H|| + 4||L||^2 times the rounding of V.
        cert = check_local(damping_model, damping_candidate, -EYE2, LevelSetSpec(1e10, 64, 5, HermitianBall(1e9)))
        assert cert.violated_condition == "drift has a positive eigenvalue on a sample"
        assert recheck_witness(damping_model, damping_candidate, cert) == cert.violation


class TestCheckAsymptotic:
    def test_bounded_scale_family_passes(self, damping_model, damping_candidate):
        y_min = 0.5
        family = DirectionFamily(directions=(NUMBER,), scale_min=y_min, scale_max=1.0)
        spec = LevelSetSpec(epsilon=1.0, sample_count=10, seed=21, family=family)
        margin = GAMMA * y_min**2
        cert = check_asymptotic(damping_model, damping_candidate, -EYE2, spec, margin)
        assert cert.passed
        assert cert.margin == pytest.approx(margin)

    def test_excessive_margin_fails_at_smallest_sample(self, damping_model, damping_candidate, spec_number):
        cert = check_asymptotic(damping_model, damping_candidate, -EYE2, spec_number, margin=2.0 * GAMMA)
        assert not cert.passed
        assert cert.witness is not None
        assert recheck_witness(damping_model, damping_candidate, cert) > 0
        # the witness is the worst violator: the drift -gamma y^2 is closest
        # to zero at the smallest sampled scale
        samples = sample_level_set(damping_candidate, -EYE2, spec_number)
        scales = [float((x + EYE2)[0, 0].real) for x in samples]
        witness_scale = float((cert.witness + EYE2)[0, 0].real)
        assert witness_scale == pytest.approx(min(scales))

    def test_purely_hamiltonian_flow_cannot_be_asymptotic(self):
        # drift = i[H, X] is traceless, so it always has a nonnegative eigenvalue.
        model = QsdeModel(hamiltonian=SIGMA_Z, coupling=np.zeros((2, 2)))
        cand = canonicalize(LyapunovCandidate(terms=((1, 0, EYE2), (0, 1, EYE2))))
        family = DirectionFamily(directions=(np.array([[0.0, 1.0], [1.0, 0.0]]),))
        spec = LevelSetSpec(epsilon=1.0, sample_count=4, seed=2, family=family)
        cert = check_asymptotic(model, cand, np.zeros((2, 2)), spec, margin=1e-6)
        assert not cert.passed


class TestCheckExponential:
    def test_half_rate_passes(self, damping_model, damping_candidate, spec_number):
        cert = check_exponential(damping_model, damping_candidate, -EYE2, spec_number, rate=GAMMA / 2)
        assert cert.passed
        assert cert.rate == pytest.approx(GAMMA / 2)

    def test_double_rate_fails(self, damping_model, damping_candidate, spec_number):
        cert = check_exponential(damping_model, damping_candidate, -EYE2, spec_number, rate=2 * GAMMA)
        assert not cert.passed
        assert recheck_witness(damping_model, damping_candidate, cert) > 0

    @pytest.mark.parametrize("mode", ["local", "exponential"])
    def test_recheck_equals_stored_violation(self, damping_model, damping_candidate, mode):
        if mode == "local":
            spec = LevelSetSpec(epsilon=1.0, sample_count=6, seed=11, family=DirectionFamily(directions=(GROUND,)))
            cert = check_local(damping_model, damping_candidate, -EYE2, spec)
        else:
            spec = LevelSetSpec(epsilon=1.0, sample_count=16, seed=42, family=DirectionFamily(directions=(NUMBER,)))
            cert = check_exponential(damping_model, damping_candidate, -EYE2, spec, rate=2 * GAMMA)
        assert cert.violated_condition == "drift has a positive eigenvalue on a sample"
        assert abs(recheck_witness(damping_model, damping_candidate, cert) - cert.violation) <= 1e-15

    def test_rate_consistency_around_estimate(self, damping_model, damping_candidate):
        family = DirectionFamily(directions=(NUMBER,), scale_min=0.5, scale_max=1.0)
        spec = LevelSetSpec(epsilon=1.0, sample_count=10, seed=23, family=family)
        est = estimate_max_rate(damping_model, damping_candidate, -EYE2, spec)
        margin = 1e-6 * GAMMA
        below = check_exponential(damping_model, damping_candidate, -EYE2, spec, rate=est.rate - margin)
        above = check_exponential(damping_model, damping_candidate, -EYE2, spec, rate=est.rate + margin)
        assert below.passed
        assert not above.passed


def reference_pencil_rates(model, candidate, center, spec):
    """Per-sample rates from scipy's generalized eigh of (K_s, V_s), with the condition number of V_s.

    V_s and K_s are V and the drift compressed onto the eigenvectors of V
    with eigenvalues at least 1e-10 times the top one.
    """
    import scipy.linalg

    rates, kappas = [], []
    for x in sample_level_set(candidate, center, spec):
        v = hermitize(evaluate(candidate, x))
        drift = hermitize(flow_ito_coefficients(model, candidate, x).drift)
        vals, vecs = np.linalg.eigh(v)
        basis = vecs[:, vals >= 1e-10 * vals[-1]]
        v_s = hermitize(basis.conj().T @ v @ basis)
        k_s = hermitize(basis.conj().T @ drift @ basis)
        rates.append(-float(scipy.linalg.eigh(k_s, v_s, eigvals_only=True)[-1]))
        kappas.append(float(np.linalg.cond(v_s)))
    return rates, kappas


def rotated_damped_oscillator(dim, seed):
    """Damped oscillator H = N, L = a rotated by a seed-drawn unitary, V = (X + I)^2, with its rotated N."""
    a, _, number = ladder_operators(dim - 1)
    u = random_unitary(np.random.default_rng(seed), dim)
    rotated_number = hermitize(u @ number @ u.conj().T)
    model = QsdeModel(hamiltonian=rotated_number, coupling=u @ a @ u.conj().T)
    eye = np.eye(dim, dtype=complex)
    return model, canonicalize(LyapunovCandidate(terms=((1, 1, eye),), center=-eye)), rotated_number


@pytest.mark.parametrize(
    "run, name",
    [("check", "center"), ("check", "directions[1]"), ("check", "reference"),
     ("estimate", "center"), ("estimate", "directions[1]")],
)
def test_an_input_of_another_dimension_is_rejected_naming_it(damping_model, damping_candidate, run, name):
    qutrit = np.diag([1.0, 0.0, 0.0])
    center = qutrit if name == "center" else -EYE2
    family = DirectionFamily((NUMBER, qutrit) if name == "directions[1]" else (NUMBER,))
    reference = QuantumState(qutrit if name == "reference" else EYE2 / 2)
    spec = LevelSetSpec(1.0, 4, 0, family)
    with pytest.raises(DimensionMismatchError, match=re.escape(f"{name} has dimension 3, model has dimension 2")):
        if run == "check":
            check_state(damping_model, damping_candidate, center, reference, spec, "local")
        else:
            estimate_max_rate(damping_model, damping_candidate, center, spec)


class TestEstimateMaxRate:
    def assert_matches_scipy_pencil(self, model, candidate, center, spec):
        est = estimate_max_rate(model, candidate, center, spec)
        rates, kappas = reference_pencil_rates(model, candidate, center, spec)
        assert len(est.per_sample) == len(rates) == spec.sample_count
        for got, want, kappa in zip(est.per_sample, rates, kappas):
            assert abs(got - want) <= 1e-12 * max(1.0, kappa) * abs(want)
        return est

    def test_demo_qubit_ball_matches_scipy_pencil(self, damping_model, damping_candidate):
        spec = LevelSetSpec(epsilon=0.5, sample_count=64, seed=3, family=HermitianBall(1.0))
        self.assert_matches_scipy_pencil(damping_model, damping_candidate, -EYE2, spec)

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("family", ["rotated-number", "ball"])
    def test_rotated_oscillator_matches_scipy_pencil(self, seed, family):
        model, cand, rotated_number = rotated_damped_oscillator(8, seed)
        if family == "ball":
            fam = HermitianBall(1.0)
        else:
            fam = DirectionFamily(directions=(rotated_number,), scale_min=0.1, scale_max=1.0)
        spec = LevelSetSpec(epsilon=0.25, sample_count=16, seed=seed, family=fam)
        est = self.assert_matches_scipy_pencil(model, cand, -np.eye(8), spec)
        if family == "rotated-number":
            assert est.rate == pytest.approx(1.0, abs=1e-6)  # min over n >= 1 of (2n - 1)/n

    def test_worked_family_rate_is_gamma(self, damping_model, damping_candidate, spec_number):
        est = estimate_max_rate(damping_model, damping_candidate, -EYE2, spec_number)
        assert est.rate == pytest.approx(GAMMA, abs=1e-9)
        assert not est.support_mismatch

    def test_indefinite_drift_clips_to_zero(self, damping_model, damping_candidate):
        family = DirectionFamily(directions=(GROUND,))
        spec = LevelSetSpec(epsilon=1.0, sample_count=4, seed=31, family=family)
        est = estimate_max_rate(damping_model, damping_candidate, -EYE2, spec)
        assert est.rate == 0.0

    def test_scaling_candidate_leaves_rate_unchanged(self, damping_model, number_family):
        for c in (0.5, 2.0, 7.0):
            cand = canonicalize(LyapunovCandidate(terms=((1, 1, c * EYE2),), center=-EYE2))
            spec = LevelSetSpec(epsilon=c, sample_count=6, seed=17, family=number_family)
            est = estimate_max_rate(damping_model, cand, -EYE2, spec)
            assert est.rate == pytest.approx(GAMMA, abs=1e-9)

    def test_center_conditions_raise_naming_the_label(self, damping_model, damping_candidate, spec_number):
        # check_local rejects this center; the estimate used to return 0.0 from samples around it.
        with pytest.raises(ValueError, match="^center is not a flow equilibrium$"):
            estimate_max_rate(damping_model, damping_candidate, -EYE2 + 0.05 * SIGMA_X, spec_number)
        offset = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2), (0, 0, 0.1 * EYE2)), center=-EYE2))
        with pytest.raises(ValueError, match="^candidate does not vanish at the center$"):
            estimate_max_rate(damping_model, offset, -EYE2, spec_number)

    def test_degenerate_pencil_raises(self, damping_model):
        # V = (X + I) G (X + I) vanishes on the sampled direction N: at X = -I + yN, V = y^2 N G N = 0.
        # The pencil has no support there, which is the flow condition that V does not vanish.
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, GROUND),), center=-EYE2))
        family = DirectionFamily(directions=(NUMBER,))
        spec = LevelSetSpec(epsilon=1.0, sample_count=3, seed=5, family=family)
        with pytest.raises(ValueError, match="^candidate vanishes at a sample away from the center$"):
            estimate_max_rate(damping_model, cand, -EYE2, spec)

    def test_candidate_below_tol_strict_keeps_its_pencil(self, damping_model, number_family):
        # V = 1e-12 (X + I)^2 fails the checks' strict bound, but its pencil has a support and the rate is gamma.
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, 1e-12 * EYE2),), center=-EYE2))
        spec = LevelSetSpec(epsilon=1e-12, sample_count=6, seed=17, family=number_family)
        assert check_local(damping_model, cand, -EYE2, spec).violated_condition == (
            "candidate vanishes at a sample away from the center"
        )
        assert estimate_max_rate(damping_model, cand, -EYE2, spec).rate == pytest.approx(GAMMA, abs=1e-9)

    def test_candidate_not_psd_raises_naming_the_label(self, damping_model, number_family):
        # V = -(X + I)^2 is negative semidefinite; its pencil used to raise DegeneratePencilError.
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, -EYE2),), center=-EYE2))
        spec = LevelSetSpec(epsilon=1.0, sample_count=16, seed=7, family=number_family)
        assert check_local(damping_model, cand, -EYE2, spec).violated_condition == (
            "candidate is not positive semidefinite at a sample"
        )
        with pytest.raises(ValueError, match="^candidate is not positive semidefinite at a sample$"):
            estimate_max_rate(damping_model, cand, -EYE2, spec)


class TestCheckState:
    @pytest.fixture
    def state_setup(self):
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(GAMMA) * SIGMA_MINUS)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2))
        family = DirectionFamily(directions=(SIGMA_Z / 2,))
        spec = LevelSetSpec(epsilon=0.5, sample_count=8, seed=77, family=family)
        reference = QuantumState.maximally_mixed(2)
        return model, cand, spec, reference

    def test_local_passes_with_exactly_zero_drift(self, state_setup):
        model, cand, spec, reference = state_setup
        cert = check_state(model, cand, EYE2 / 2, reference, spec, "local")
        assert cert.passed
        assert abs(cert.worst_drift_eigenvalue) <= 1e-12

    def test_asymptotic_fails_marginally(self, state_setup):
        model, cand, spec, reference = state_setup
        cert = check_state(model, cand, EYE2 / 2, reference, spec, "asymptotic")
        assert not cert.passed

    def test_exponential_fails_marginally(self, state_setup):
        model, cand, spec, reference = state_setup
        cert = check_state(model, cand, EYE2 / 2, reference, spec, "exponential", rate=0.5)
        assert not cert.passed

    def test_non_equilibrium_center_fails_before_sampling(self, state_setup):
        model, cand, spec, reference = state_setup
        cand_off = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=NUMBER))
        cert = check_state(model, cand_off, NUMBER, reference, spec, "local")
        assert not cert.passed
        assert cert.violated_condition == "center is not a state equilibrium"
        assert cert.sample_count_used == 0

    def test_nonvanishing_expectation_at_center_fails(self, state_setup):
        model, _, spec, reference = state_setup
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2), (0, 0, 0.3 * EYE2)), center=EYE2 / 2))
        cert = check_state(model, cand, EYE2 / 2, reference, spec, "local")
        assert not cert.passed
        assert cert.violated_condition == "candidate expectation does not vanish at the center"

    def test_exponential_needs_rate(self, state_setup):
        model, cand, spec, reference = state_setup
        with pytest.raises(ValueError):
            check_state(model, cand, EYE2 / 2, reference, spec, "exponential")

    @pytest.mark.parametrize("mode", ["local", "asymptotic"])
    def test_rate_outside_exponential_rejected(self, state_setup, mode):
        model, cand, spec, reference = state_setup
        with pytest.raises(ValueError, match="rate applies only to exponential mode"):
            check_state(model, cand, EYE2 / 2, reference, spec, mode, rate=5.0)


class TestChebyshevBound:
    def test_simple_ratio(self):
        out = chebyshev_bound(0.5, 5.0)
        assert out.beta == pytest.approx(0.1)
        assert not out.vacuous

    def test_zero_initial_value(self):
        assert chebyshev_bound(0.0, 3.0).beta == 0.0

    def test_vacuous_bound_clipped(self):
        out = chebyshev_bound(2.0, 1.0)
        assert out.beta == 1.0
        assert out.vacuous
        assert out.raw_ratio == pytest.approx(2.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            chebyshev_bound(1.0, 0.0)


class TestDeterminism:
    def test_certificates_are_bit_identical(self, damping_model, damping_candidate, spec_number):
        from qstab.fileio import certificate_bytes

        a = check_local(damping_model, damping_candidate, -EYE2, spec_number)
        b = check_local(damping_model, damping_candidate, -EYE2, spec_number)
        assert certificate_bytes(a) == certificate_bytes(b)

    def test_different_seeds_differ(self, damping_model, damping_candidate, number_family):
        xs = {}
        for seed in (1, 2):
            spec = LevelSetSpec(epsilon=1.0, sample_count=1, seed=seed, family=number_family)
            xs[seed] = sample_level_set(damping_candidate, -EYE2, spec)[0]
        assert not np.allclose(xs[1], xs[2])

    def test_negative_seed_accepted(self, damping_candidate, number_family):
        spec = LevelSetSpec(epsilon=1.0, sample_count=2, seed=-12345, family=number_family)
        assert len(sample_level_set(damping_candidate, -EYE2, spec)) == 2


def run_check(model, cand, center, spec, mode, param=None, reference=None):
    """Run one of the six modes; ``param`` is the margin (asymptotic) or the rate (exponential modes)."""
    if mode == "local":
        return check_local(model, cand, center, spec)
    if mode == "asymptotic":
        return check_asymptotic(model, cand, center, spec, param)
    if mode == "exponential":
        return check_exponential(model, cand, center, spec, param)
    return check_state(model, cand, center, reference, spec, mode.removeprefix("state-"), rate=param)


MODES = ["local", "asymptotic", "exponential", "state-local", "state-asymptotic", "state-exponential"]
DAMPING = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS)
AMPLIFYING = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_PLUS)
MIXED = QuantumState.maximally_mixed(2)
ALONG_N = LevelSetSpec(epsilon=1.0, sample_count=16, seed=42, family=DirectionFamily(directions=(NUMBER,)))
ALONG_Z = LevelSetSpec(epsilon=0.5, sample_count=8, seed=77, family=DirectionFamily(directions=(SIGMA_Z / 2,)))


def centered(*terms, center):
    return canonicalize(LyapunovCandidate(terms=terms, center=center))


# label -> arguments of run_check for a check that fails with that label
FAILING_RUNS = {
    "center is not a flow equilibrium": (
        DAMPING, centered((1, 1, EYE2), center=NUMBER), NUMBER, LevelSetSpec(1.0, 4, 0), "local"),
    "candidate does not vanish at the center": (
        DAMPING, canonicalize(LyapunovCandidate(terms=((1, 1, EYE2), (0, 0, EYE2)))), -EYE2, ALONG_N, "local"),
    "candidate is not positive semidefinite at a sample": (
        DAMPING, canonicalize(LyapunovCandidate(terms=((1, 0, EYE2), (0, 1, EYE2)))), np.zeros((2, 2)),
        LevelSetSpec(1.0, 4, 1, DirectionFamily(directions=(SIGMA_Z,))), "local"),
    "candidate vanishes at a sample away from the center": (
        DAMPING, centered((1, 1, 1e-12 * EYE2), center=-EYE2), -EYE2, ALONG_N, "local"),
    "drift has a positive eigenvalue on a sample": (
        DAMPING, centered((1, 1, EYE2), center=-EYE2), -EYE2,
        LevelSetSpec(1.0, 6, 11, DirectionFamily(directions=(GROUND,))), "local"),
    "drift exceeds -margin on the support of the candidate": (
        DAMPING, centered((1, 1, EYE2), center=-EYE2), -EYE2, ALONG_N, "asymptotic", 2.0),
    # drift + gamma V vanishes along N, so the strict margin fails by exactly tol_strict
    "drift plus rate*candidate is not strictly negative on the support": (
        DAMPING, centered((1, 1, EYE2), center=-EYE2), -EYE2, ALONG_N, "exponential", GAMMA),
    "center is not a state equilibrium": (
        DAMPING, centered((1, 1, EYE2), center=NUMBER), NUMBER, ALONG_Z, "state-local", None, MIXED),
    "candidate expectation does not vanish at the center": (
        DAMPING, centered((1, 1, EYE2), (0, 0, 0.3 * EYE2), center=EYE2 / 2), EYE2 / 2, ALONG_Z,
        "state-local", None, MIXED),
    "candidate expectation vanishes at a sample away from the center": (
        DAMPING, centered((1, 1, 1e-12 * EYE2), center=EYE2 / 2), EYE2 / 2, ALONG_Z, "state-local", None, MIXED),
    "drift expectation is positive on a sample": (
        AMPLIFYING, centered((1, 1, NUMBER), center=EYE2 / 2), EYE2 / 2, LevelSetSpec(0.5, 6, 5),
        "state-local", None, MIXED),
    "drift expectation is not strictly negative on a sample": (
        DAMPING, centered((1, 1, EYE2), center=EYE2 / 2), EYE2 / 2, ALONG_Z, "state-asymptotic", None, MIXED),
    "drift plus rate*candidate expectation is not strictly negative on a sample": (
        DAMPING, centered((1, 1, EYE2), center=EYE2 / 2), EYE2 / 2, ALONG_Z, "state-exponential", 0.5, MIXED),
}


def failing_run(label):
    """Model, candidate, certificate and reference state of the FAILING_RUNS entry for ``label``."""
    model, cand, center, spec, mode, *rest = FAILING_RUNS[label]
    param, reference = (*rest, None, None)[:2]
    return model, cand, run_check(model, cand, center, spec, mode, param, reference), reference


class TestConditionTable:
    """Checks and witness rechecks reach each condition through the same measure."""

    def test_every_label_has_a_failing_run(self):
        labels = {c.label for _, *groups in qstab.certify._MODES.values() for group in groups for c in group}
        assert set(FAILING_RUNS) == labels

    @pytest.mark.parametrize("label", sorted(FAILING_RUNS))
    def test_recheck_reproduces_violation(self, label):
        model, cand, cert, reference = failing_run(label)
        assert cert.violated_condition == label
        assert recheck_witness(model, cand, cert, reference_state=reference) == cert.violation

    def test_recheck_is_zero_where_the_condition_holds(self):
        _, cand, cert, _ = failing_run("center is not a flow equilibrium")
        # N commutes with H and L = 0, so N is an equilibrium of this flow
        hamiltonian = QsdeModel(hamiltonian=SIGMA_Z, coupling=np.zeros((2, 2)))
        digest = qstab.certify.input_digest(hamiltonian.hamiltonian, hamiltonian.coupling, hamiltonian.scattering)
        cert = dataclasses.replace(cert, inputs={**cert.inputs, "model": digest})
        assert recheck_witness(hamiltonian, cand, cert) == 0.0

    @pytest.mark.parametrize("label", sorted(FAILING_RUNS))
    def test_a_saved_certificate_loads_and_rechecks(self, tmp_path, label):
        model, cand, cert, reference = failing_run(label)
        save_certificate(cert, tmp_path / "cert.json")
        loaded = load_certificate(tmp_path / "cert.json")
        assert certificate_bytes(loaded) == (tmp_path / "cert.json").read_bytes()
        assert recheck_witness(model, cand, loaded, reference_state=reference) == cert.violation

    @pytest.mark.parametrize("swapped", ["model", "candidate", "reference"])
    def test_a_recheck_on_other_inputs_raises_naming_the_input(self, swapped):
        # The check ran on the damping qubit; measured on the amplifying one, the witness gives another violation.
        model, cand, cert, reference = failing_run("drift expectation is not strictly negative on a sample")
        inputs = {"model": model, "candidate": cand, "reference_state": reference}
        inputs[{"reference": "reference_state"}.get(swapped, swapped)] = {
            "model": AMPLIFYING,
            "candidate": centered((1, 1, 2 * EYE2), center=EYE2 / 2),
            "reference": QuantumState(np.diag([0.25, 0.75])),
        }[swapped]
        with pytest.raises(ValueError, match=f"^{swapped} is not the certificate's"):
            recheck_witness(inputs["model"], inputs["candidate"], cert, reference_state=inputs["reference_state"])

    def test_unknown_label_raises_naming_it(self):
        model, cand, cert, _ = failing_run("drift has a positive eigenvalue on a sample")
        cert = dataclasses.replace(cert, violated_condition="no such condition")
        with pytest.raises(ValueError, match="no such condition"):
            recheck_witness(model, cand, cert)

    def test_label_of_another_mode_raises(self):
        model, cand, cert, _ = failing_run("drift has a positive eigenvalue on a sample")
        cert = dataclasses.replace(cert, violated_condition="drift exceeds -margin on the support of the candidate")
        with pytest.raises(ValueError, match="drift exceeds -margin .* for mode 'local'"):
            recheck_witness(model, cand, cert)

    def test_state_recheck_needs_reference_state(self):
        model, cand, cert, _ = failing_run("drift expectation is not strictly negative on a sample")
        with pytest.raises(ValueError, match="reference_state"):
            recheck_witness(model, cand, cert)

    def test_worst_drift_is_the_level_of_the_deciding_condition(self, damping_model, damping_candidate):
        # Along N the drift -gamma y^2 N has top eigenvalue 0 but equals -gamma y^2 on the support of V.
        family = DirectionFamily(directions=(NUMBER,), scale_min=0.5, scale_max=1.0)
        spec = LevelSetSpec(epsilon=1.0, sample_count=10, seed=21, family=family)
        y_min = min(float((x + EYE2)[0, 0].real) for x in sample_level_set(damping_candidate, -EYE2, spec))
        local = check_local(damping_model, damping_candidate, -EYE2, spec)
        strict = check_asymptotic(damping_model, damping_candidate, -EYE2, spec, margin=0.1)
        assert local.passed and strict.passed
        assert abs(local.worst_drift_eigenvalue) <= 1e-12
        assert strict.worst_drift_eigenvalue == pytest.approx(-GAMMA * y_min**2, rel=1e-12)

    def test_ties_keep_the_first_sample(self):
        # With H = L = 0 the drift vanishes exactly, so every sample misses the strict bound by tol_strict.
        still = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.zeros((2, 2)))
        cand = centered((1, 1, EYE2), center=EYE2 / 2)
        cert = check_state(still, cand, EYE2 / 2, MIXED, ALONG_Z, "asymptotic")
        assert cert.violation == qstab.certify.TOL_STRICT
        assert np.array_equal(cert.witness, sample_level_set(cand, EYE2 / 2, ALONG_Z, traceless=True)[0])


def random_check_case(dim, model_seed, spec_seed, mode, param, kind, cascade, radius):
    """Arguments of run_check for a random damped qubit or qutrit.

    A cascade (diagonal H, one decay path out of level 0) sampled along level 0
    (``radius`` None) certifies, so passes and the strict drift conditions occur too.
    """
    rng = np.random.default_rng(model_seed)
    if cascade:
        hamiltonian, coupling = np.diag(rng.normal(size=dim)), np.diag(rng.uniform(0.5, 1.5, dim - 1), -1)
    else:
        hamiltonian, coupling = 0.5 * random_hermitian(rng, dim), np.tril(random_complex(rng, dim), -1)
    model = QsdeModel(hamiltonian=hamiltonian, coupling=coupling)
    state = mode.startswith("state-")
    center = np.eye(dim) / dim if state else -np.eye(dim)
    if kind == "off-equilibrium":
        center = random_density(rng, dim) if state else random_hermitian(rng, dim)
    a = random_complex(rng, dim)
    theta = np.eye(dim) if cascade else a @ a.conj().T / dim + 0.1 * np.eye(dim)
    terms = {
        "psd": ((1, 1, theta),),
        "offset": ((1, 1, theta), (0, 0, 0.3 * np.eye(dim))),
        "tiny": ((1, 1, 1e-12 * theta),),
        "indefinite": ((1, 1, theta - 1.5 * np.eye(dim)),),
        "off-equilibrium": ((1, 1, theta),),
    }[kind]
    cand = centered(*terms, center=center)
    reference = QuantumState(random_density(rng, dim)) if state else None
    if radius is None:
        level0 = np.diag([1.0, -1.0, 0.0][:dim]) / 2 if state else np.diag([1.0, 0.0, 0.0][:dim])
        family = DirectionFamily(directions=(level0,))
    else:
        family = HermitianBall(radius)
    spec = LevelSetSpec(epsilon=0.5, sample_count=6, seed=spec_seed, family=family)
    param = None if mode in ("local", "state-local", "state-asymptotic") else param
    return model, cand, center, spec, mode, param, reference


CHECK_CASES = dict(
    dim=st.sampled_from([2, 3]),
    model_seed=st.integers(0, 2**32 - 1),
    spec_seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(MODES),
    param=st.sampled_from([0.05, 0.5, 2.0]),
    kind=st.sampled_from(["psd", "offset", "tiny", "indefinite", "off-equilibrium"]),
    cascade=st.booleans(),
    radius=st.sampled_from([None, 0.3, 1.0, 3.0]),
)


@given(**CHECK_CASES)
@settings(max_examples=300)
def test_failing_certificates_recheck_to_their_violation(
    dim, model_seed, spec_seed, mode, param, kind, cascade, radius
):
    """Random damped qubits and qutrits: every failing certificate's witness rechecks to its stored violation."""
    model, cand, center, spec, mode, param, reference = random_check_case(
        dim, model_seed, spec_seed, mode, param, kind, cascade, radius
    )
    try:
        cert = run_check(model, cand, center, spec, mode, param, reference)
    except SamplingError:
        assume(False)
    if not cert.passed:
        assert recheck_witness(model, cand, cert, reference_state=reference) == cert.violation


def reference_check(model, candidate, center, spec, mode, param=None, reference=None):
    """The check written one sample at a time: the oracle for the stacked and masked check.

    Every point is a stack of one.  The first violated condition decides a
    sample, and only a strictly larger violation replaces the witness, so the
    first sample wins ties.
    """
    certify = qstab.certify
    picture, center_conditions, v_conditions, drift_conditions = certify._MODES[mode]
    state = picture == "state"
    cand = canonicalize(candidate)
    rate = param if mode.endswith("exponential") else None
    margin = param if mode == "asymptotic" else None

    def point(x):
        return certify._Point(model, cand, np.asarray(x)[None], picture, rate, margin, 1e-9, certify.TOL_STRICT, reference)

    def first_violation(conditions, p):
        for condition in conditions:
            violation = condition.measure(p)[0]
            if not np.isnan(violation):
                return condition, violation
        return condition, None

    at_center = point(center)
    condition, violation = first_violation(center_conditions, at_center)
    worst = None if violation is None else (violation, condition.label, center)
    samples = [] if worst else sample_level_set(cand, center, spec, traceless=state)
    worst_drift, worst_v = -np.inf, np.inf
    for x in samples:
        p = point(x)
        worst_v = min(worst_v, p.e_v.real[0] if state else p.v_eigh[0][0, 0])
        condition, violation = first_violation(v_conditions, p)
        if violation is None:
            condition, violation = first_violation(drift_conditions, p)
            worst_drift = max(worst_drift, getattr(p, condition.level)[0])
        if violation is not None and (worst is None or violation > worst[0]):
            worst = (violation, condition.label, x)
    violation, label, witness = worst or (None, None, None)
    return certify.StabilityCertificate(
        mode=mode,
        verdict="fail" if worst else "pass",
        equilibrium_residual=float(at_center.residual[0]),
        worst_drift_eigenvalue=None if worst_drift == -np.inf else float(worst_drift),
        worst_v_min_eigenvalue=float(worst_v) if samples else None,
        rate=None if rate is None else float(rate),
        margin=None if margin is None else float(margin),
        witness=witness,
        violated_condition=label,
        violation=None if violation is None else float(violation),
        sample_count_used=len(samples),
        seed=int(spec.seed),
        epsilon=float(spec.epsilon),
        family=certify._family_description(spec.family),
        tolerances={"tol": 1e-9, "tol_strict": certify.TOL_STRICT, "support_cutoff": certify.SUPPORT_CUTOFF},
        inputs={
            "model": certify.input_digest(model.hamiltonian, model.coupling, model.scattering),
            "candidate": certify.input_digest(*(part for term in cand.terms for part in term), cand.center),
            "center": certify.input_digest(center),
            **({"family": certify.input_digest(*spec.family.directions)}
               if isinstance(spec.family, DirectionFamily) else {}),
            **({"reference": certify.input_digest(reference.rho)} if state else {}),
        },
    )


def ray_bands(model, cand, center, spec, mode, name, param=None, reference=None, *, tol_strict=None):
    """Per sample of a check (or, with ``tol_strict`` 0, of the rate estimate), the ray route's band on the value
    ``name`` from :func:`qstab.rays.ray_band`: 0.0 off the route, where a sample is decided on V at itself,
    and where the band is infinite, which makes every condition that reads the value decide it so."""
    certify = qstab.certify
    picture = certify._MODES[mode][0]
    cand = canonicalize(cand)
    samples = sample_level_set(cand, center, spec, traceless=picture == "state")
    bands = np.zeros(len(samples))
    if samples.rays is not None:
        point = functools.partial(
            certify._Point, model, cand, picture=picture, rate=param if mode.endswith("exponential") else None,
            margin=param if mode == "asymptotic" else None, tol=1e-9,
            tol_strict=certify.TOL_STRICT if tol_strict is None else tol_strict, reference_state=reference,
        )
        block = qstab.rays.ray_block(samples, point)
        if block is not None:
            rows, p = block
            band = qstab.rays.ray_band(p, name)
            bands[rows] = np.where(np.isinf(band), 0.0, band)
    return bands


def assert_matches_reference(model, cand, center, spec, mode, param=None, reference=None):
    """Run the stacked check, assert it is the per-sample oracle's certificate, and return it.

    Every field is the oracle's bit for bit, but for the two margins on the ray route: V's least eigenvalue
    (E[V] in the state picture) may differ within the route's band on V, and the worst drift within its band on
    the drift values that the mode's conditions read.
    """
    cert = run_check(model, cand, center, spec, mode, param, reference)
    oracle = reference_check(model, cand, center, spec, mode, param, reference)
    if cert.sample_count_used:
        drift = ("target", "support") if mode in ("asymptotic", "exponential") else ("target",)
        for field, names in (("worst_v_min_eigenvalue", ("v",)), ("worst_drift_eigenvalue", drift)):
            band = max(ray_bands(model, cand, center, spec, mode, name, param, reference).max() for name in names)
            ours, theirs = getattr(cert, field), getattr(oracle, field)
            assert (ours is None) == (theirs is None)
            assert ours is None or abs(ours - theirs) <= band
        margins = dict(
            worst_v_min_eigenvalue=oracle.worst_v_min_eigenvalue, worst_drift_eigenvalue=oracle.worst_drift_eigenvalue
        )
        cert = dataclasses.replace(cert, **margins)
    assert certificate_bytes(cert) == certificate_bytes(oracle)
    return cert


# The damped oscillator at d = 3 (H = N, L = a, both rotated; V = (X + I)^2) along its unit direction N/2: at
# X = -I + sN/2, V = s^2 N^2 / 4 and the drift is -s^2 N(2N - 1) / 4, at most -s^2 / 4 on V's support (n >= 1)
# and 0 off it.  For s >= scale_min = 1 that is below -margin = -0.2, so every scale of the family passes.
OSCILLATOR, OSCILLATOR_V, ROTATED_N = rotated_damped_oscillator(3, 0)
ALONG_ROTATED_N = LevelSetSpec(4.0, 6, 1, DirectionFamily(directions=(ROTATED_N,), scale_min=1.0, scale_max=2.0))
# The damping qubit in the state picture with V = (rho - I/2) N (rho - I/2), N = |e><e|: at rho = I/2 + s sigma_z,
# V = s^2 N, the state generator gives -2sN and so the drift terms -4 s^2 N, and the Ito term
# [rho, L†] N [L, rho] = 4 s^2 |e><g|N|g><e| is 0.  So E_{I/2}[drift] = -2 s^2 <= -0.02 and E_{I/2}[V] = s^2 / 2
# for s >= scale_min = 0.1: strictly negative throughout.
EXCITED_V = centered((1, 1, NUMBER), center=EYE2 / 2)
ALONG_Z_AWAY = LevelSetSpec(0.5, 6, 1, DirectionFamily(directions=(SIGMA_Z,), scale_min=0.1, scale_max=1.0))

# mode -> arguments of run_check for a check that passes in that mode
PASSING_CASES = {
    "local": random_check_case(2, 0, 1, "local", None, "psd", True, None),
    "asymptotic": (OSCILLATOR, OSCILLATOR_V, -np.eye(3), ALONG_ROTATED_N, "asymptotic", 0.2),
    "exponential": random_check_case(3, 1, 2, "exponential", 0.5, "psd", True, None),
    "state-local": (DAMPING, EXCITED_V, EYE2 / 2, ALONG_Z_AWAY, "state-local", None, MIXED),
    "state-asymptotic": (DAMPING, EXCITED_V, EYE2 / 2, ALONG_Z_AWAY, "state-asymptotic", None, MIXED),
    "state-exponential": random_check_case(3, 1, 2, "state-exponential", 0.05, "psd", True, None),
}
# Along G and N the candidate (X + I)^2 is y^2 G and y^2 N, of rank one; along sigma_z it is y^2 I, of full rank.
MIXED_RANKS = LevelSetSpec(1.0, 12, 8, DirectionFamily(directions=(GROUND, NUMBER, SIGMA_Z), scale_min=0.2))


class TestAgainstReferenceCheck:
    """The stacked check writes the per-sample loop's certificates byte for byte."""

    @pytest.mark.parametrize("label", sorted(FAILING_RUNS))
    def test_failing_runs(self, label):
        model, cand, center, spec, mode, *rest = FAILING_RUNS[label]
        cert = assert_matches_reference(model, cand, center, spec, mode, *rest)
        assert cert.violated_condition == label

    @pytest.mark.parametrize("mode", MODES)
    def test_passing_runs(self, mode):
        assert assert_matches_reference(*PASSING_CASES[mode]).passed

    @pytest.mark.parametrize("mode, param", [("local", None), ("asymptotic", 0.1), ("exponential", 0.5)])
    def test_support_rank_varies_across_samples(self, damping_model, damping_candidate, mode, param):
        samples = np.stack(sample_level_set(damping_candidate, -EYE2, MIXED_RANKS))
        point = qstab.certify._Point(damping_model, damping_candidate, samples, "flow", None, None, 1e-9, 1e-8, None)
        assert set(point.on_support.sum(axis=-1)) == {1, 2}
        assert_matches_reference(damping_model, damping_candidate, -EYE2, MIXED_RANKS, mode, param)

    def test_support_max_reads_a_suffix_and_off_support_a_prefix(self, damping_model, damping_candidate):
        samples = np.stack(sample_level_set(damping_candidate, -EYE2, MIXED_RANKS))
        point = qstab.certify._Point(damping_model, damping_candidate, samples, "flow", None, None, 1e-9, 1e-8, None)
        vecs, drift = point.v_eigh[1], point.drift
        for mask, top in ((point.on_support, point.support_max), (~point.on_support, point.off_support_max)):
            expected = [
                np.linalg.eigvalsh(hermitize(b[:, cols].conj().T @ k @ b[:, cols]))[-1] if cols.any() else -np.inf
                for b, k, cols in zip(vecs, drift, mask)
            ]
            np.testing.assert_array_equal(top, expected)

    @staticmethod
    def assert_rate_estimate_matches_points_of_one(model, cand, center, spec):
        """Assert the stacked rate estimate is the pencil on stacks of one, within the ray route's bands on the
        pencil, and flags the same support mismatch; return those points."""
        est = estimate_max_rate(model, cand, center, spec)
        points = [
            qstab.certify._Point(model, cand, x[None], "flow", None, None, 1e-9, 1e-8, None)
            for x in sample_level_set(cand, center, spec)
        ]
        bands = ray_bands(model, cand, center, spec, "local", "pencil", tol_strict=0.0)
        assert np.all(np.abs(np.array(est.per_sample) - [-float(p.pencil_max[0]) for p in points]) <= bands)
        assert abs(est.rate - max(0.0, min(-float(p.pencil_max[0]) for p in points))) <= bands.max()
        assert est.support_mismatch == any(p.off_support_max[0] > qstab.certify.TOL_STRICT for p in points)
        return est, points

    def test_rate_estimate_matches_points_of_one(self, damping_model, damping_candidate):
        est, _ = self.assert_rate_estimate_matches_points_of_one(damping_model, damping_candidate, -EYE2, MIXED_RANKS)
        assert est.support_mismatch  # along G (samples 0, 3, 6, 9) the drift y^2 N is positive off the support

    def test_full_rank_rate_estimate_matches_points_of_one(self):
        # Along N + I the candidate (X + I)^2 is s^2 (N + I)^2, of full rank at every sample.
        model, cand, rotated_number = rotated_damped_oscillator(32, 3)
        family = DirectionFamily(directions=(rotated_number + np.eye(32),), scale_min=0.1, scale_max=1.0)
        est, points = self.assert_rate_estimate_matches_points_of_one(
            model, cand, -np.eye(32), LevelSetSpec(4.0, 12, 5, family)
        )
        assert all(p.on_support.all() for p in points) and not est.support_mismatch

    def test_one_ito_assembly_per_route_pass(self, monkeypatch):
        # (X + I)^2 has a scalar Theta and one degree: from its own center the rays make one generator call at the
        # B_K they hold, and the samples decided from V at themselves, possible witnesses included, make one more.
        shapes, generated = [], []
        ito, generator = qstab.certify._ito_coefficients, qstab.lyapunov.flow_generator
        monkeypatch.setattr(
            qstab.certify, "_ito_coefficients",
            lambda model, cand, x, picture, names, v: shapes.append(x.shape) or ito(model, cand, x, picture, names, v),
        )
        monkeypatch.setattr(
            qstab.lyapunov, "flow_generator", lambda model, v: generated.append(v.shape) or generator(model, v)
        )
        model, cand, rotated_number = rotated_damped_oscillator(32, 3)
        spec = LevelSetSpec(0.25, 20, 3, DirectionFamily(directions=(rotated_number,), scale_min=0.1, scale_max=1.0))
        assert check_exponential(model, cand, -np.eye(32), spec, rate=0.5).passed
        assert shapes == generated == [(1, 32, 32)]  # the one ray
        shapes.clear(), generated.clear()
        assert estimate_max_rate(model, cand, -np.eye(32), spec).rate == pytest.approx(1.0, abs=1e-6)
        assert shapes == generated == [(1, 32, 32)]
        shapes.clear(), generated.clear()
        qubit = LevelSetSpec(0.5, 256, 3, HermitianBall(1.0))  # one sample per ray: the sampler's whole stack
        check_exponential(DAMPING, centered((1, 1, EYE2), center=-EYE2), -EYE2, qubit, rate=0.5)
        assert shapes == generated == [(256, 2, 2)]
        shapes.clear(), generated.clear()
        # A non-scalar Theta takes the per-sample route: one assembly on the whole stack.
        theta = np.diag(np.linspace(1.0, 2.0, 32))
        check_exponential(model, centered((1, 1, theta), center=-np.eye(32)), -np.eye(32), spec, rate=0.5)
        assert shapes == generated == [(20, 32, 32)]


# run -> a check or rate estimate, on a ball or a family, in the flow or the state picture
RUNS_ON_V = {
    "flow-ball": lambda: check_exponential(DAMPING, centered((1, 1, EYE2), center=-EYE2), -EYE2,
                                           LevelSetSpec(0.5, 6, 3), rate=0.5),
    "flow-family": lambda: check_local(DAMPING, centered((1, 1, EYE2), center=-EYE2), -EYE2, MIXED_RANKS),
    "state-ball": lambda: check_state(DAMPING, EXCITED_V, EYE2 / 2, MIXED, LevelSetSpec(0.1, 6, 3), "local"),
    "state-family": lambda: check_state(DAMPING, EXCITED_V, EYE2 / 2, MIXED, ALONG_Z_AWAY, "asymptotic"),
    "rate-ball": lambda: estimate_max_rate(DAMPING, centered((1, 1, EYE2), center=-EYE2), -EYE2,
                                           LevelSetSpec(0.5, 6, 3)),
    "rate-family": lambda: estimate_max_rate(DAMPING, centered((1, 1, EYE2), center=-EYE2), -EYE2, MIXED_RANKS),
}


@pytest.mark.parametrize("run", sorted(RUNS_ON_V))
def test_v_and_its_spectrum_once_per_call(run, monkeypatch):
    """V is evaluated at the center, then once at all samples; one eigensolve takes that whole stack.

    On the ray route, taken by the flow and rate runs on a family (a ball has one sample per ray and the state
    runs a non-scalar Theta), V at the samples is not evaluated: the exit solve's B_K on the distinct rays, the
    one set of ray coefficients computed, has its eigenvalues solved once, and its eigenvectors once more where
    a value on V's support is read; no solve takes more members than there are rays, and V at a sample is
    evaluated only in a stack of one, to be measured as a possible witness.
    """
    values, coefficients, solved = [], [], []
    evaluate_stack, sandwich = qstab.certify.evaluate, qstab.certify._sandwich
    monkeypatch.setattr(qstab.certify, "evaluate", lambda cand, x: values.append(evaluate_stack(cand, x)) or values[-1])
    monkeypatch.setattr(
        qstab.certify, "_sandwich", lambda *args: coefficients.append(sandwich(*args)) or coefficients[-1]
    )
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, *args, f=solver, n=name, **kw: solved.append((n, a)) or f(a, *args, **kw)
        )
    result = RUNS_ON_V[run]()
    count = len(result.per_sample) if run.startswith("rate") else result.sample_count_used
    sizes = [len(v) for v in values]
    if run in ("flow-family", "rate-family"):
        distinct = len(MIXED_RANKS.family.directions)
        assert sizes[0] == 1 and set(sizes[1:]) <= {1}
        assert [b.shape[1] for b in coefficients] == [distinct]
        assert max(np.prod(np.shape(a)[:-2], dtype=int) for _, a in solved) <= distinct
        stacked = hermitize(coefficients[0][-1])
        assert sum(np.array_equal(a, stacked) for name, a in solved if name == "eigvalsh") == 1
        of_rays = sum(members_of(a, stacked) for name, a in solved if name == "eigh")
        assert of_rays == (distinct if run == "rate-family" else 0)  # the rate's pencil reads V's support
        return
    assert sizes == [1, count]
    sampled = hermitize(values[1])  # what a guarded solve of V at the samples receives, bit for bit
    of_v = [a for _, a in solved if members_of(a, sampled)]
    assert len(of_v) == 1 and np.array_equal(of_v[0], sampled)


def members_of(a, stack) -> int:
    """How many members of the stack ``a`` are members of ``stack``."""
    members = np.reshape(a, (-1, *np.shape(a)[-2:]))
    if np.shape(a)[-1] != stack.shape[-1]:
        return 0
    return int((members[:, None] == stack).all(axis=(-2, -1)).any(axis=1).sum())


@given(**CHECK_CASES)
@settings(max_examples=150)
def test_stacked_check_matches_reference(dim, model_seed, spec_seed, mode, param, kind, cascade, radius):
    """Random damped qubits and qutrits in all six modes: the stacked certificate is the per-sample loop's."""
    case = random_check_case(dim, model_seed, spec_seed, mode, param, kind, cascade, radius)
    try:
        assert_matches_reference(*case)
    except SamplingError:
        assume(False)


@given(**CHECK_CASES, order_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_permuting_the_samples_permutes_the_decisions(
    dim, model_seed, spec_seed, mode, param, kind, cascade, radius, order_seed
):
    """Each sample's violation, deciding condition and level depend on that sample alone, not on its place."""
    model, cand, center, spec, mode, param, reference = random_check_case(
        dim, model_seed, spec_seed, mode, param, kind, cascade, radius
    )
    picture, _, v_conditions, drift_conditions = qstab.certify._MODES[mode]
    try:
        samples = np.stack(sample_level_set(cand, center, spec, traceless=picture == "state"))
    except SamplingError:
        assume(False)
    order = np.random.default_rng(order_seed).permutation(len(samples))
    rate = param if mode.endswith("exponential") else None
    margin = param if mode == "asymptotic" else None

    def decide(x):
        point = qstab.certify._Point(model, cand, x, picture, rate, margin, 1e-9, 1e-8, reference)
        return qstab.certify._decide(v_conditions + drift_conditions, point)

    (violation, decided_by, level), permuted = decide(samples), decide(samples[order])
    assert np.array_equal(violation[order], permuted[0], equal_nan=True)
    assert np.array_equal(decided_by[order], permuted[1])
    assert np.array_equal(level[order], permuted[2], equal_nan=True)


@pytest.mark.parametrize("run", [*sorted(FAILING_RUNS), *(f"passing {mode}" for mode in MODES)])
def test_a_stack_decides_each_point_as_alone_bit_for_bit(run):
    """The center and the samples of each failing and passing run, in one stack: each point's violation, deciding
    condition and level are its own on a stack of one, bit for bit.  A check rests on this where it decides the
    samples that may be its witness in one stack with the others decided from V at themselves, and
    :func:`recheck_witness` measures the witness alone."""
    model, cand, center, spec, mode, *rest = PASSING_CASES[run[8:]] if run.startswith("passing ") else FAILING_RUNS[run]
    param, reference = (*rest, None, None)[:2]
    picture, _, v_conditions, drift_conditions = qstab.certify._MODES[mode]
    cand = canonicalize(cand)
    try:
        samples = sample_level_set(cand, center, spec, traceless=picture == "state")
    except SamplingError:  # V(center) = I: the samples of a level set that holds the center
        samples = sample_level_set(cand, center, dataclasses.replace(spec, epsilon=10.0))
    point = functools.partial(
        qstab.certify._Point, model, cand, picture=picture, rate=param if mode.endswith("exponential") else None,
        margin=param if mode == "asymptotic" else None, tol=1e-9, tol_strict=qstab.certify.TOL_STRICT,
        reference_state=reference,
    )
    stack, conditions = np.stack([center, *samples]), v_conditions + drift_conditions
    alone = [qstab.certify._decide(conditions, point(x[None])) for x in stack]
    for together, each in zip(qstab.certify._decide(conditions, point(stack)), zip(*alone)):
        assert together.tobytes() == np.concatenate(each).tobytes()


# The failing and passing runs whose samples lie on live rays of several samples each: the ray route decides them
RAY_ROUTE_RUNS = [
    "candidate is not positive semidefinite at a sample",
    "candidate vanishes at a sample away from the center",
    "drift has a positive eigenvalue on a sample",
    "drift exceeds -margin on the support of the candidate",
    "drift plus rate*candidate is not strictly negative on the support",
    "candidate expectation vanishes at a sample away from the center",
    "drift expectation is not strictly negative on a sample",
    "drift plus rate*candidate expectation is not strictly negative on a sample",
    *(f"passing {mode}" for mode in ("local", "asymptotic", "exponential", "state-exponential")),
]


@pytest.mark.parametrize("run", RAY_ROUTE_RUNS)
def test_a_run_decided_wholly_from_v_at_its_samples_is_the_references_bit_for_bit(run, monkeypatch):
    """With no ray route every sample of a run on rays is decided from V at itself, all in one stacked point: the
    certificate is the per-sample oracle's bit for bit, its worst V and worst drift too, which the ray route
    leaves within its bands."""
    model, cand, center, spec, mode, *rest = PASSING_CASES[run[8:]] if run.startswith("passing ") else FAILING_RUNS[run]
    on_rays, ray_block = [], qstab.rays.ray_block
    monkeypatch.setattr(qstab.rays, "ray_block", lambda *args: on_rays.append(ray_block(*args)) or on_rays[-1])
    run_check(model, cand, center, spec, mode, *rest)
    assert len(on_rays) == 1 and on_rays[0] is not None  # the run does take the ray route
    monkeypatch.setattr(qstab.rays, "ray_block", lambda samples, point: None)
    assert ray_bands(model, cand, center, spec, mode, "v", *rest).max() == 0.0  # so the margins are compared exactly
    cert = assert_matches_reference(model, cand, center, spec, mode, *rest)
    assert cert.passed == run.startswith("passing ")
    assert cert.passed or cert.violated_condition == run


def ray_candidate(degree, theta, dim, center):
    """sum over n + m = K of (n, m, theta I): (K + 1) theta Y^K, scalar Theta of one degree K."""
    return centered(*((n, degree - n, theta * np.eye(dim)) for n in range(degree + 1)), center=center)


@given(
    dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    picture=st.sampled_from(["flow", "state"]),
    degree=st.integers(1, 4),
    lam=st.sampled_from([0.0, -1.0, 2.5]),
    rate=st.sampled_from([None, 0.5]),
    scale_hi=st.sampled_from([1e-4, 1e-2, 1.0, 3.0]),
)
@settings(max_examples=150)
def test_ray_values_are_the_points_values_within_their_bands(dim, seed, picture, degree, lam, rate, scale_hi):
    """Random models with S != I: every value that the ray route gives a sample is its point's own, within the
    band of :func:`qstab.rays.ray_band`.  The values are V's eigenvalues, the drift target's top eigenvalue,
    its top eigenvalues on and off V's support, the pencil, E[V] and E[drift target]."""
    certify = qstab.certify
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim)
    cand = ray_candidate(degree, rng.uniform(0.2, 2.0), dim, lam * np.eye(dim))
    directions = tuple(random_hermitian(rng, dim) for _ in range(2))
    if picture == "state":
        directions = tuple(d - np.trace(d) / dim * np.eye(dim) for d in directions)
    family = DirectionFamily(directions, scale_min=0.0, scale_max=scale_hi)
    samples = sample_level_set(cand, lam * np.eye(dim), LevelSetSpec(1e6, 6, seed, family))
    assert samples.rays is not None
    reference = QuantumState(random_density(rng, dim)) if picture == "state" else None
    point = functools.partial(certify._Point, model, cand, picture=picture, rate=rate, margin=None, tol=1e-9,
                              tol_strict=certify.TOL_STRICT, reference_state=reference)

    def within(ours, theirs, band):
        band = np.reshape(band, (-1,) + (1,) * (np.ndim(ours) - 1))
        with np.errstate(invalid="ignore"):  # -inf on both routes where V's support is everything
            assert np.all((ours == theirs) | (np.abs(ours - theirs) <= band))

    block = qstab.rays.ray_block(samples, point)
    for rows, on_rays in [] if block is None else [block]:
        own = point(samples.x[rows])
        if picture == "state":
            within(on_rays.e_v, own.e_v, qstab.rays.ray_band(on_rays, "v"))
            within(on_rays.e_target, own.e_target, qstab.rays.ray_band(on_rays, "target"))
            continue
        within(on_rays.v_eigh[0], own.v_eigh[0], qstab.rays.ray_band(on_rays, "v"))
        within(on_rays.target_max, own.target_max, qstab.rays.ray_band(on_rays, "target"))
        positive = own.v_eigh[0][:, -1] > 0.0  # where V at the point has a support of its own
        on_rays, own = on_rays.take(positive), own.take(positive)
        for name, band in (("support_max", "support"), ("off_support_max", "support"), ("pencil_max", "pencil")):
            within(getattr(on_rays, name), getattr(own, name), qstab.rays.ray_band(on_rays, band))


def level_projector(rng, dim):
    """The projector on random levels that hold level 0 but not the last: never zero nor the identity, so a
    rank-deficient candidate along it, traceless or not."""
    levels = (rng.random(dim) < 0.5) | (np.arange(dim) == 0)
    levels[-1] = False
    return np.diag(levels.astype(float))


def ray_check_case(dim, model_seed, spec_seed, mode, param, kind, cascade, ball):
    """Arguments of run_check for a scalar-Theta candidate of one degree at its own center: the ray route on a
    family of up to three directions with three samples each, the per-sample route on a ball."""
    rng = np.random.default_rng(model_seed)
    if cascade:
        hamiltonian, coupling = np.diag(rng.normal(size=dim)), np.diag(rng.uniform(0.5, 1.5, dim - 1), -1)
        model = QsdeModel(hamiltonian=hamiltonian, coupling=coupling)
    else:
        model = random_model(rng, dim)
    state = mode.startswith("state-")
    center = np.eye(dim) / dim if state else -np.eye(dim)
    degree, theta = {"psd": (2, 1.0), "quartic": (4, 0.5), "tiny": (2, 1e-12), "indefinite": (2, -1.0),
                     "linear": (1, 1.0)}[kind]
    cand = ray_candidate(degree, theta, dim, center)
    reference = QuantumState(random_density(rng, dim)) if state else None
    if ball:
        family, count = HermitianBall(1.0), 6
    else:
        directions = [random_hermitian(rng, dim) if rng.random() < 0.5 else level_projector(rng, dim)
                      for _ in range(rng.integers(1, 4))]
        if state:
            directions = [d - np.trace(d) / dim * np.eye(dim) for d in directions]
        family, count = DirectionFamily(tuple(directions), scale_min=0.0, scale_max=2.0), 3 * len(directions)
    spec = LevelSetSpec(epsilon=0.5, sample_count=count, seed=spec_seed, family=family)
    param = None if mode in ("local", "state-local", "state-asymptotic") else param
    return model, cand, center, spec, mode, param, reference


@given(
    dim=st.integers(2, 4),
    model_seed=st.integers(0, 2**32 - 1),
    spec_seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(MODES),
    param=st.sampled_from([0.05, 0.5, 2.0]),
    kind=st.sampled_from(["psd", "quartic", "tiny", "indefinite", "linear"]),
    cascade=st.booleans(),
    ball=st.booleans(),
)
@settings(max_examples=300)
def test_ray_route_decides_as_the_per_sample_oracle(dim, model_seed, spec_seed, mode, param, kind, cascade, ball):
    """Every mode, on balls and on families: the verdict, label, witness and violation are the per-sample loop's,
    and a failing witness rechecks to its violation."""
    case = ray_check_case(dim, model_seed, spec_seed, mode, param, kind, cascade, ball)
    model, cand, center, spec, mode, param, reference = case
    try:
        samples = sample_level_set(cand, center, spec, traceless=mode.startswith("state-"))
        cert = assert_matches_reference(*case)
    except SamplingError:
        assume(False)
    assert (samples.rays is None) == ball
    if not cert.passed:
        assert recheck_witness(model, cand, cert, reference_state=reference) == cert.violation


def ray_degree(cand, center):
    """The ray route's predicate on the candidate's terms and the check's center: K where every canonical Theta is
    exactly scalar, every term has one degree K >= 1 and the check's center is the candidate's own; None elsewhere."""
    degrees = {n + m for n, m, _ in cand.terms}
    own = np.array_equal(center, np.zeros_like(center) if cand.center is None else cand.center)
    scalar = all(np.array_equal(t, t[0, 0] * np.eye(len(t))) for _, _, t in cand.terms)
    return degrees.pop() if len(degrees) == 1 and 0 not in degrees and own and scalar else None


@given(
    dim=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    degrees=st.sampled_from([(1,), (2,), (3,), (1, 2), (0, 2), (2, 4)]),
    scalar=st.booleans(),
    lam=st.sampled_from([0.0, -1.0, 2.5]),
    where=st.sampled_from(["own", "offset", "shifted"]),
    directions=st.integers(0, 3),
    extra=st.integers(0, 2),
)
@settings(max_examples=300)
def test_the_ray_route_runs_where_the_old_route_test_holds_on_rays_of_several_samples(
    dim, seed, degrees, scalar, lam, where, directions, extra
):
    """Scalar and non-scalar Theta of each degree set, from the candidate's own center, from one offset by a
    non-scalar matrix and from one shifted by a multiple of I, on the ball (``directions`` 0) and on families
    of one to three directions with ``extra`` samples beyond one per direction."""
    rng = np.random.default_rng(seed)
    terms = []
    for k in degrees:
        theta = rng.uniform(0.5, 2.0) * np.eye(dim) if scalar else random_hermitian(rng, dim)
        terms += [(n, k - n, 0.1 * theta if k == 0 else theta) for n in range(k + 1)]  # V(C) inside the level set
    cand = centered(*terms, center=lam * np.eye(dim))
    move = {"own": 0.0, "offset": 0.1 * random_hermitian(rng, dim), "shifted": 0.25 * np.eye(dim)}[where]
    center = lam * np.eye(dim) + move
    family = DirectionFamily(tuple(random_hermitian(rng, dim) for _ in range(directions))) if directions else None
    spec = LevelSetSpec(1.0, max(directions, 1) + extra, seed, family or HermitianBall(1.0))
    try:
        samples = sample_level_set(cand, center, spec)
    except SamplingError:
        assume(False)
    degree = ray_degree(cand, center)
    assert (samples.rays is not None) == (degree is not None and 0 < directions < spec.sample_count)
    assert samples.rays is None or samples.rays.degree == degree


def oscillator_ray_spec(count):
    """The rotated damped oscillator at d = 8 and ``count`` samples of the family on its rotated N, which share
    one ray, so that the ray route decides them."""
    model, cand, number = rotated_damped_oscillator(8, 3)
    return model, cand, number, LevelSetSpec(0.25, count, 11, DirectionFamily((number,), 0.1, 1.0))


class TestSamplesFormedWhereRead:
    """On the ray route a sample's matrix center + s D is formed only where something reads it."""

    @pytest.fixture
    def formed(self, monkeypatch):
        """The index of every row-forming read of a LevelSetSamples, and each LevelSetSamples a check sampled."""
        reads, sampled = [], []
        getitem, sample = qstab.certify.LevelSetSamples.__getitem__, qstab.certify.sample_level_set

        def sample_and_keep(*args, **kwargs):
            sampled.append(sample(*args, **kwargs))
            return sampled[-1]

        monkeypatch.setattr(qstab.certify.LevelSetSamples, "__getitem__", lambda s, i: reads.append(i) or getitem(s, i))
        monkeypatch.setattr(qstab.certify, "sample_level_set", sample_and_keep)
        return reads, sampled

    def test_a_passing_check_and_rate_estimate_form_no_sample(self, formed):
        reads, sampled = formed
        model, cand, _, spec = oscillator_ray_spec(32)
        assert check_exponential(model, cand, -np.eye(8), spec, 0.5).passed
        assert estimate_max_rate(model, cand, -np.eye(8), spec).rate == pytest.approx(1.0, abs=1e-6)
        assert len(sampled) == 2 and all(s.rays is not None and "x" not in vars(s) for s in sampled)
        assert reads == []

    def test_a_passing_state_check_forms_no_sample(self, formed):
        # V = (X - I/8)^2 about the maximally mixed state, on the traceless part of the rotated N: the unit-trace
        # check reads each sample's ray and scale, not its matrix.
        reads, sampled = formed
        model, _, number = rotated_damped_oscillator(8, 3)
        mixed, traceless = np.eye(8) / 8, number - np.trace(number) / 8 * np.eye(8)
        spec = LevelSetSpec(0.25, 32, 11, DirectionFamily((traceless,), 0.1, 1.0))
        cert = check_state(model, centered((1, 1, np.eye(8)), center=mixed), mixed, QuantumState(mixed), spec, "local")
        (samples,) = sampled
        assert cert.passed and cert.sample_count_used == 32
        assert samples.rays is not None and "x" not in vars(samples) and reads == []

    @pytest.mark.parametrize("rate", [1.5, 50.0])
    def test_a_failing_check_forms_only_the_witness_and_its_ties(self, formed, rate):
        # The samples that may be the witness are formed in one index-array read; then the witness itself.
        (reads, sampled), (model, cand, _, spec) = formed, oscillator_ray_spec(32)
        cert = check_exponential(model, cand, -np.eye(8), spec, rate)
        (samples,) = sampled
        assert not cert.passed and samples.rays is not None and "x" not in vars(samples)
        ties, witness = reads
        assert np.ndim(ties) == 1 and len(ties) < len(samples)
        assert isinstance(witness, (int, np.integer)) and witness in ties
        assert np.array_equal(cert.witness, samples.x[witness])
        assert recheck_witness(model, cand, cert) == cert.violation

    def test_a_possible_witness_decided_otherwise_on_its_own_v_is_an_internal_error(self, monkeypatch):
        # Samples that may be the witness are decided again on V at themselves, by every condition in order: where
        # one holds on the ray and fails there, the ray's values were wrong, whichever condition decided the ray.
        certify = qstab.certify
        model, cand, _, spec = oscillator_ray_spec(32)
        assert not check_exponential(model, cand, -np.eye(8), spec, 50.0).passed
        picture, at_center, (psd, *on_v), on_drift = certify._MODES["exponential"]
        fails_on_own_v = psd._replace(
            measure=lambda p: psd.measure(p) if isinstance(p, qstab.rays.OnRays) else np.ones(len(p.x))
        )
        monkeypatch.setitem(certify._MODES, "exponential", (picture, at_center, (fails_on_own_v, *on_v), on_drift))
        with pytest.raises(InternalCheckError, match="^a sample that may be the witness is decided on its own V"):
            check_exponential(model, cand, -np.eye(8), spec, 50.0)

    def test_samples_decided_from_v_at_themselves_form_their_rows_alone(self, formed):
        # V = 2 (X + I) is nowhere positive on the ray -N, so its samples are decided from V at themselves.
        (reads, sampled), (model, _, number, _) = formed, oscillator_ray_spec(12)
        cand = ray_candidate(1, 1.0, 8, -np.eye(8))
        spec = LevelSetSpec(0.25, 12, 11, DirectionFamily((number, -number), scale_min=0.1, scale_max=1.0))
        cert = check_exponential(model, cand, -np.eye(8), spec, 0.5)
        (samples,) = sampled
        assert cert.violated_condition == "candidate is not positive semidefinite at a sample"
        dead = np.flatnonzero(samples.of == 1)
        (rows,) = [i for i in reads if not isinstance(i, (int, np.integer))]
        assert np.array_equal(rows, dead) and "x" not in vars(samples)
        assert recheck_witness(model, cand, cert) == cert.violation

    @pytest.mark.parametrize("route", ["rays", "one sample per ray", "ball", "ball-traceless"])
    def test_reads_are_the_eager_stack_bit_for_bit_and_read_only(self, route):
        model, cand, number, spec = oscillator_ray_spec(16)
        if route == "one sample per ray":
            spec = dataclasses.replace(spec, sample_count=2, family=DirectionFamily((number, number @ number)))
        elif route.startswith("ball"):
            spec = dataclasses.replace(spec, family=HermitianBall(1.0))
        samples = sample_level_set(cand, -np.eye(8), spec, traceless=route == "ball-traceless")
        assert (samples.rays is not None) == (route == "rays")
        assert len(samples) == spec.sample_count
        assert ("x" in vars(samples)) == (samples.rays is None)  # only the per-sample route forms it at sampling
        if route != "one sample per ray" and not route.startswith("ball"):
            assert np.array_equal(samples.directions[0], number / spectral_norm(number))
        eager = -np.eye(8) + samples.scale[:, None, None] * samples.directions[samples.of]
        n = len(samples)
        index, mask = np.array([n - 1, 0, n // 2]), np.arange(n) % 3 == 1
        reads = {
            "[0]": (samples[0], eager[0]), "[-1]": (samples[-1], eager[-1]),
            "[1:5:2]": (samples[1:5:2], eager[1:5:2]), "[::-1]": (samples[::-1], eager[::-1]),
            "[array]": (samples[index], eager[index]), "[mask]": (samples[mask], eager[mask]),
            **{f"iter[{i}]": (x, eager[i]) for i, x in enumerate(samples)}, "x": (samples.x, eager),
        }
        for name, (got, want) in reads.items():
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name  # bit for bit, signed zeros too
            assert not got.flags.writeable, name
            with pytest.raises(ValueError):
                got[...] = 0.0
        assert samples.x is samples.x and "x" in vars(samples)
        with pytest.raises(IndexError):
            samples[n]
        with pytest.raises(dataclasses.FrozenInstanceError):
            samples.scale = samples.scale
        assert not any(a.flags.writeable for a in (samples.center, samples.directions, samples.of, samples.scale))

    @pytest.mark.parametrize("run", ["local", "exponential", "estimate"])
    def test_mixed_dimension_directions_are_rejected_naming_them(self, run):
        model, cand, number, spec = oscillator_ray_spec(8)
        spec = dataclasses.replace(spec, family=DirectionFamily((number, np.diag([1.0, 0.0, 0.0]))))
        message = "directions[1] has dimension 3, model has dimension 8"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            if run == "estimate":
                estimate_max_rate(model, cand, -np.eye(8), spec)
            else:
                _MODE_CHECKS[run](model, cand, -np.eye(8), spec)


@pytest.mark.parametrize("count", [1, 6], ids=["one sample per ray", "rays"])
def test_a_state_sample_off_the_unit_trace_fails_the_check(count):
    """A direction whose trace, 8e-10, is within tol is accepted, but at scales of 10 to 100 its samples move
    the trace by more than max(tol, 1e-9)."""
    cand, center = centered((1, 1, EYE2), center=EYE2 / 2), EYE2 / 2
    spec = LevelSetSpec(1e4, count, 0, DirectionFamily((SIGMA_Z + 4e-10 * EYE2,), scale_min=10.0, scale_max=100.0))
    assert (sample_level_set(cand, center, spec, traceless=True).rays is not None) == (count > 1)
    with pytest.raises(InvalidStateError, match="^state-picture sample lost unit trace$"):
        check_state(DAMPING, cand, center, MIXED, spec, "local")


_MODE_CHECKS = {"local": check_local, "exponential": lambda *a: check_exponential(*a, 0.5)}


def test_an_overflowing_drift_target_fails_with_its_label_and_no_warning():
    """At rate 1e308 the target's Frobenius screen overflows; the SVD decides, and no RuntimeWarning escapes."""
    model, cand = load_model(DEMO_FILES / "damping_model.json"), load_lyapunov(DEMO_FILES / "square_candidate.json")
    spec = LevelSetSpec(1.0, 4, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = check_exponential(model, cand, load_operator(DEMO_FILES / "center.json"), spec, 1e308)
    assert cert.violated_condition == "drift has a positive eigenvalue on a sample"
    assert cert.violation > 1e307 and recheck_witness(model, cand, cert) == cert.violation


@pytest.mark.parametrize("model, mode, param", [("demo", "exponential", 0.5), ("still", "asymptotic", 0.1)])
def test_the_readme_check_at_epsilon_1e_300_is_the_per_sample_routes_with_no_warning(model, mode, param):
    """At epsilon 1e-300 V's eigenvalue gap on the family's ray is at the 1e-300 scale, and the turn of V's support
    in the ray route's band is far past 1: no support is sound, so the samples are decided from V at themselves.
    The README command, and the asymptotic check on H = L = 0, whose support band has no Lipschitz term.  The
    verdict is not pinned: it fails on TOL_STRICT, as at every epsilon <= 1e-8."""
    still = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.zeros((2, 2)))
    model = load_model(DEMO_FILES / "damping_model.json") if model == "demo" else still
    cand, center = load_lyapunov(DEMO_FILES / "square_candidate.json"), load_operator(DEMO_FILES / "center.json")
    spec = LevelSetSpec(1e-300, 16, 7, load_direction_family(DEMO_FILES / "number_family.json"))
    assert sample_level_set(cand, center, spec).rays is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_matches_reference(model, cand, center, spec, mode, param)


class TestNoSvdInARepeatedCheck:
    """The model's and the family's norms are taken once per object, an exact zero takes no SVD, and V's guard
    sizes its bound only where V's asymmetry is not cleared by the guard's floor."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # where np.linalg.norm finds svd
        for module in {np.linalg, linalg}:
            monkeypatch.setattr(module, "svd", lambda *a, **k: calls.append(np.shape(a[0])) or svd(*a, **k))
        return calls

    def test_a_second_check_and_rate_on_the_same_model_and_family_take_no_svd(self, svd_calls):
        model, cand, _, spec = oscillator_ray_spec(32)
        for calls in ([(2, 8, 8)], []):  # ||H||_2 and ||L||_2, on the model's first ray route
            svd_calls.clear()
            assert check_exponential(model, cand, -np.eye(8), spec, 0.5).passed
            assert estimate_max_rate(model, cand, -np.eye(8), spec).rate == pytest.approx(1.0, abs=1e-6)
            assert svd_calls == calls

    def test_v_eigh_takes_no_svd_where_v_is_asymmetric_beyond_half_the_floor(self, svd_calls):
        # V = X Theta X at ||X|| ~ 1e5 is asymmetric by rounding beyond 5e-8, half the floor max(tol, 1e-7), and
        # within V's rounding bound at ||X||_F, which guards the eigensolve: no SVD sizes it, nor tests V.
        rng = np.random.default_rng(0)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, random_hermitian(rng, 4)),)))
        point = qstab.certify._Point(
            random_model(rng, 4), cand, 1e5 * random_hermitian(rng, 4)[None], "flow", None, None, 1e-9, 1e-8, None
        )
        assert np.linalg.norm(point.v - point.v.conj().T) > 0.5e-7
        vals, vecs = point.v_eigh
        assert svd_calls == []
        want = np.linalg.eigh(hermitize(point.v))
        assert np.array_equal(vals, want[0]) and np.array_equal(vecs, want[1])

    def test_a_ball_check_takes_one_svd_per_sampling_call(self, svd_calls, damping_model, damping_candidate):
        spec = LevelSetSpec(0.5, 64, 5, HermitianBall(1.0))
        cert = check_exponential(damping_model, damping_candidate, -EYE2, spec, 0.5)
        estimate_max_rate(damping_model, damping_candidate, -EYE2, spec)
        recheck_witness(damping_model, damping_candidate, cert)
        assert svd_calls == [(64, 2, 2)] * 2  # the ball's ray normalization


def test_the_rounding_bound_of_a_tiny_theta_is_positive():
    """At Theta = 1e-300 I the unscaled squares of ||Theta||_F underflow to zero; the bound must not."""
    cand = canonicalize(LyapunovCandidate(terms=((1, 1, 1e-300 * EYE2),), center=-EYE2))
    assert qstab.certify._rounding(cand, 1.0) == 256 * np.finfo(float).eps * qstab.operators._frobenius(1e-300 * EYE2)
    assert qstab.certify._rounding(cand, 1.0) > 0.0


@pytest.mark.parametrize(
    "family, name",
    [(DirectionFamily((NUMBER,), scale_max=1e300), "scale_max"), (HermitianBall(1e300), "radius")],
    ids=["family", "ball"],
)
def test_samples_past_the_float_range_are_an_input_error_with_no_warning(damping_model, family, name):
    """Theta = 1e-300 I at epsilon 1e10 caps the scale near 1e155, where s^2 overflows; the family's samples
    share one ray (the ray route), the ball's do not."""
    cand = LyapunovCandidate(terms=((1, 1, 1e-300 * EYE2),), center=-EYE2)
    message = rf"^samples leave the float range: lower {name} \(1e\+300\) or epsilon \(1e\+10\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            check_local(damping_model, cand, -EYE2, LevelSetSpec(1e10, 16, 7, family))
