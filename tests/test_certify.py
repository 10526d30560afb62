import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qstab.certify
from qstab import (
    DirectionFamily,
    HermitianBall,
    InternalCheckError,
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
from qstab.fileio import certificate_bytes, load_lyapunov, load_operator

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
    random_unitary,
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
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
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
        calls = []
        evaluate_stack = qstab.certify.evaluate

        def counting_evaluate(candidate, x):
            calls.append(x.shape)
            return evaluate_stack(candidate, x)

        monkeypatch.setattr(qstab.certify, "evaluate", counting_evaluate)
        # Feasible at scale_hi, and capped on every ray (max-eig V = s^2 reaches 0.5 at s = 0.71).
        family = DirectionFamily(directions=(NUMBER, SIGMA_Z), scale_min=0.05, scale_max=0.1)
        for epsilon, fam in ((1.0, family), (0.5, HermitianBall(1.0))):
            for count in (6, 40):
                calls.clear()
                spec = LevelSetSpec(epsilon=epsilon, sample_count=count, seed=2, family=fam)
                self.assert_same(damping_candidate, -EYE2, spec)
                assert calls == [(count, 2, 2)]  # the re-check alone: caps come from the root solve

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

    def test_direction_family_solves_each_ray_once(self, damping_candidate, monkeypatch):
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(qstab.certify.np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
        spec = LevelSetSpec(epsilon=0.5, sample_count=32, seed=1, family=DirectionFamily((NUMBER, SIGMA_Z)))
        assert len(sample_level_set(damping_candidate, -EYE2, spec)) == 32
        assert shapes == [(2, 4, 4)]

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
        exits = qstab.certify._ray_exits
        monkeypatch.setattr(qstab.certify, "_ray_exits", lambda *args: exits(*args) * (1.0 + 1e-9))
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
        cap = min(scale_hi, qstab.certify._ray_exits(cand, center, direction[None], epsilon, 1e-9)[0])
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
        assert recheck_witness(hamiltonian, cand, cert) == 0.0

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
    """The check written one sample at a time: the oracle for the stacked, masked and blocked check.

    Every point is a stack of one.  The first violated condition decides a
    sample, and only a strictly larger violation replaces the witness, so the
    first sample wins ties.
    """
    certify = qstab.certify
    picture, center_conditions, v_conditions, drift_conditions = certify._MODES[mode]
    state = picture == "state"
    cand = candidate if candidate.is_canonical else canonicalize(candidate)
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
        worst_v = min(worst_v, p.e_v.real[0] if state else p.v_eigs[0, 0])
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
    )


def assert_matches_reference(model, cand, center, spec, mode, param=None, reference=None):
    """Run the stacked check, assert its certificate bytes equal the per-sample oracle's, and return it."""
    cert = run_check(model, cand, center, spec, mode, param, reference)
    oracle = reference_check(model, cand, center, spec, mode, param, reference)
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


@pytest.fixture(params=[2**13, 8, 4], ids=["one-block", "two-per-block", "one-per-block"])
def block_entries(request, monkeypatch):
    """Run under the module's block bound and under bounds that put one or two qubit samples in a block."""
    monkeypatch.setattr(qstab.certify, "_BLOCK_ENTRIES", request.param)
    return request.param


class TestAgainstReferenceCheck:
    """The stacked check writes the per-sample loop's certificates byte for byte."""

    @pytest.mark.parametrize("label", sorted(FAILING_RUNS))
    def test_failing_runs(self, label, block_entries):
        model, cand, center, spec, mode, *rest = FAILING_RUNS[label]
        cert = assert_matches_reference(model, cand, center, spec, mode, *rest)
        assert cert.violated_condition == label

    @pytest.mark.parametrize("mode", MODES)
    def test_passing_runs(self, mode, block_entries):
        assert assert_matches_reference(*PASSING_CASES[mode]).passed

    @pytest.mark.parametrize("mode, param", [("local", None), ("asymptotic", 0.1), ("exponential", 0.5)])
    def test_support_rank_varies_across_samples(self, damping_model, damping_candidate, mode, param, block_entries):
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
        """Assert the blocked rate estimate equals the pencil on stacks of one; return those points."""
        est = estimate_max_rate(model, cand, center, spec)
        points = [
            qstab.certify._Point(model, cand, x[None], "flow", None, None, 1e-9, 1e-8, None)
            for x in sample_level_set(cand, center, spec)
        ]
        assert est.per_sample == tuple(-float(p.pencil_max[0]) for p in points)
        assert est.support_mismatch == any(p.off_support_max[0] > qstab.certify.TOL_STRICT for p in points)
        return est, points

    def test_rate_estimate_matches_points_of_one(self, damping_model, damping_candidate, block_entries):
        est, _ = self.assert_rate_estimate_matches_points_of_one(damping_model, damping_candidate, -EYE2, MIXED_RANKS)
        assert est.support_mismatch  # along G (samples 0, 3, 6, 9) the drift y^2 N is positive off the support

    def test_full_rank_rate_estimate_matches_points_of_one(self, block_entries):
        # Along N + I the candidate (X + I)^2 is s^2 (N + I)^2, of full rank at every sample.
        model, cand, rotated_number = rotated_damped_oscillator(32, 3)
        family = DirectionFamily(directions=(rotated_number + np.eye(32),), scale_min=0.1, scale_max=1.0)
        est, points = self.assert_rate_estimate_matches_points_of_one(
            model, cand, -np.eye(32), LevelSetSpec(4.0, 12, 5, family)
        )
        assert all(p.on_support.all() for p in points) and not est.support_mismatch

    def test_one_ito_assembly_per_block(self, monkeypatch):
        shapes = []
        ito = qstab.certify.flow_ito_coefficients
        monkeypatch.setattr(
            qstab.certify, "flow_ito_coefficients", lambda model, cand, x: shapes.append(x.shape) or ito(model, cand, x)
        )
        model, cand, rotated_number = rotated_damped_oscillator(32, 3)
        spec = LevelSetSpec(0.25, 20, 3, DirectionFamily(directions=(rotated_number,), scale_min=0.1, scale_max=1.0))
        assert check_exponential(model, cand, -np.eye(32), spec, rate=0.5).passed
        assert shapes == [(8, 32, 32), (8, 32, 32), (4, 32, 32)]  # 2^13 entries hold eight 32 x 32 samples
        shapes.clear()
        assert estimate_max_rate(model, cand, -np.eye(32), spec).rate == pytest.approx(1.0, abs=1e-6)
        assert shapes == [(8, 32, 32), (8, 32, 32), (4, 32, 32)]
        shapes.clear()
        qubit = LevelSetSpec(0.5, 256, 3, HermitianBall(1.0))
        check_exponential(DAMPING, centered((1, 1, EYE2), center=-EYE2), -EYE2, qubit, rate=0.5)
        assert shapes == [(256, 2, 2)]


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
def test_v_and_its_spectrum_once_per_call(run, block_entries, monkeypatch):
    """V is evaluated at the center, then once at all samples; only that stack's spectrum is taken, never per block."""
    values, spectra = [], []
    evaluate_stack, eigenvalues = qstab.certify.evaluate, qstab.certify.hermitian_eigenvalues
    monkeypatch.setattr(qstab.certify, "evaluate", lambda cand, x: values.append(evaluate_stack(cand, x)) or values[-1])
    monkeypatch.setattr(
        qstab.certify, "hermitian_eigenvalues", lambda a, **kw: spectra.append(a) or eigenvalues(a, **kw)
    )
    result = RUNS_ON_V[run]()
    count = len(result.per_sample) if run.startswith("rate") else result.sample_count_used
    assert [len(v) for v in values] == [1, count]
    assert [i for a in spectra for i, v in enumerate(values) if a is v] == [1]


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
