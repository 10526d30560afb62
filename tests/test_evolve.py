import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qstab._expm
import qstab.evolve
import qstab.lyapunov
from qstab import (
    CollisionConfig,
    DimensionMismatchError,
    InvalidCandidateError,
    InvalidStateError,
    LyapunovCandidate,
    QsdeModel,
    QuantumState,
    Trajectory,
    UnsupportedScatteringError,
    adjoint,
    canonicalize,
    collision_step_unitary,
    envelope_check,
    evaluate,
    exit_time_estimate,
    finite_difference_drift_check,
    flow_ito_coefficients,
    ito_table_check,
    ladder_operators,
    liouvillian_matrix,
    master_evolve,
    master_flow_expectation,
    simulate_flow_expectation,
    spectral_norm,
    transit_time_check,
)
from qstab.errors import InternalCheckError, InvalidModelError
from qstab.models import validate
from qstab.operators import require_density

from conftest import (
    EYE2, KET_E, NUMBER, SIGMA_MINUS, SIGMA_X, SIGMA_Z, random_complex, random_density, random_hermitian, random_unitary,
)

GAMMA = 1.0


@pytest.fixture
def excited():
    return QuantumState.from_vector(KET_E)


@pytest.fixture
def v_linear():
    """V(X) = X via the Hermitian-closed pair of linear terms, halved."""
    return LyapunovCandidate(terms=((1, 0, 0.5 * EYE2), (0, 1, 0.5 * EYE2)))


class TestCollisionStepUnitary:
    def test_decoupled_system(self):
        h = 0.3 * SIGMA_Z
        model = QsdeModel(hamiltonian=h, coupling=np.zeros((2, 2)))
        u = collision_step_unitary(model, dt=0.05)
        expected = np.kron(scipy.linalg.expm(-1j * h * 0.05), np.eye(2))
        assert np.allclose(u, expected, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_matches_scipy_expm(self, dim, levels):
        rng = np.random.default_rng(10 * dim + levels)
        model = QsdeModel(hamiltonian=random_hermitian(rng, dim), coupling=random_complex(rng, dim))
        dt = 0.03
        a, a_dag, _ = ladder_operators(levels)
        exponent = np.kron(-1j * model.hamiltonian * dt, np.eye(levels + 1)) + np.sqrt(dt) * (
            np.kron(model.coupling, a_dag) - np.kron(adjoint(model.coupling), a)
        )
        u = collision_step_unitary(model, dt, ancilla_levels=levels)
        assert spectral_norm(u - scipy.linalg.expm(exponent)) <= 1e-12

    def test_unitarity(self, damping_model):
        u = collision_step_unitary(damping_model, dt=0.01, ancilla_levels=2)
        assert spectral_norm(adjoint(u) @ u - np.eye(u.shape[0])) <= 1e-12

    def test_rotation_block(self, damping_model):
        dt = 0.04
        theta = np.sqrt(GAMMA * dt)
        u = collision_step_unitary(damping_model, dt=dt)
        # basis (|e,0>, |e,1>, |g,0>, |g,1>): the coupling rotates the
        # span of |e,0> and |g,1> by theta and fixes |g,0>.
        assert u[0, 0] == pytest.approx(np.cos(theta), abs=1e-12)
        assert u[3, 0] == pytest.approx(np.sin(theta), abs=1e-12)
        assert u[0, 3] == pytest.approx(-np.sin(theta), abs=1e-12)
        assert u[2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_contraction_matches_drift(self, damping_model):
        # <0|U|0> = I - iH dt - 1/2 L'L dt + O(dt^2): check second-order
        # convergence of the residual.
        def residual(dt):
            u = collision_step_unitary(damping_model, dt=dt)
            block = u.reshape(2, 2, 2, 2)[:, 0, :, 0]  # ancilla vacuum matrix element
            target = (
                np.eye(2)
                - 1j * damping_model.hamiltonian * dt
                - 0.5 * adjoint(damping_model.coupling) @ damping_model.coupling * dt
            )
            return spectral_norm(block - target)

        r1, r2 = residual(1e-2), residual(5e-3)
        assert r1 <= 1e-3
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("h, l, dt", [(1e10, 1.0, 1e300), (1.0, 1e10, 1e290)])
    def test_a_dt_whose_products_with_the_model_overflow_is_rejected_naming_it(self, h, l, dt):
        model = QsdeModel(hamiltonian=h * SIGMA_Z, coupling=l * SIGMA_MINUS)  # dt ||H|| or dt ||L||^2 is 1e310
        with pytest.raises(ValueError, match=r"^dt must give finite dt \|\|H\|\|_F and dt \|\|L\|\|_F\^2, got 1e\+"):
            collision_step_unitary(model, dt)
        collision_step_unitary(model, dt / 1e3)  # a step just inside the float range is computed

    def test_scattering_rejected(self):
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS, scattering=SIGMA_X)
        with pytest.raises(UnsupportedScatteringError):
            collision_step_unitary(model, dt=0.01)


class TestSimulateFlowExpectation:
    def test_trivial_dynamics_is_constant(self, v_linear):
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.zeros((2, 2)))
        psi = QuantumState.from_vector(np.array([0.6, 0.8]))
        traj = simulate_flow_expectation(model, v_linear, SIGMA_Z, psi, CollisionConfig(dt=0.1, steps=8))
        assert np.all(np.abs(traj.v_expect - traj.v_expect[0]) <= 1e-12)

    def test_initial_value_exact(self, damping_model, damping_candidate, excited):
        traj = simulate_flow_expectation(
            damping_model, damping_candidate, SIGMA_Z, excited, CollisionConfig(dt=0.01, steps=1)
        )
        assert traj.v_expect[0] == pytest.approx(4.0, abs=1e-14)

    def test_damping_tracks_exponential(self, damping_model, v_linear, excited):
        dt, steps = 1e-2, 10
        traj = simulate_flow_expectation(
            damping_model, v_linear, NUMBER, excited, CollisionConfig(dt=dt, steps=steps)
        )
        exact = np.exp(-GAMMA * traj.times)
        assert np.max(np.abs(traj.v_expect - exact)) <= 0.05

    def test_homomorphism_square_vs_linear_at_square(self, damping_model, excited):
        # trajectory of V = X.I.X at X0 equals trajectory of V = X at X0^2
        x0 = SIGMA_Z + 0.3 * SIGMA_X
        cand_sq = LyapunovCandidate(terms=((1, 1, EYE2),))
        cand_lin = LyapunovCandidate(terms=((1, 0, 0.5 * EYE2), (0, 1, 0.5 * EYE2)))
        cfg = CollisionConfig(dt=0.02, steps=6)
        t1 = simulate_flow_expectation(damping_model, cand_sq, x0, excited, cfg)
        t2 = simulate_flow_expectation(damping_model, cand_lin, x0 @ x0, excited, cfg)
        assert np.max(np.abs(t1.v_expect - t2.v_expect)) <= 1e-10

    def test_observables_recorded(self, damping_model, v_linear, excited):
        traj = simulate_flow_expectation(
            damping_model, v_linear, NUMBER, excited, CollisionConfig(dt=0.05, steps=3),
            observables={"number": NUMBER},
        )
        assert np.allclose(traj.obs_expect["number"], traj.v_expect, atol=1e-12)

    def test_long_run_tracks_master(self, damping_model, v_linear, excited):
        # t = 10 is ten decay times; the cost grows linearly in steps.
        def gap(dt, steps):
            coll = simulate_flow_expectation(damping_model, v_linear, NUMBER, excited, CollisionConfig(dt, steps))
            oracle = master_flow_expectation(damping_model, v_linear, NUMBER, excited, coll.times)
            allowance = 1e-12 + dt * coll.times * np.max(np.abs(oracle.v_expect))
            assert np.all(np.abs(coll.v_expect - oracle.v_expect) <= allowance)
            return np.max(np.abs(coll.v_expect - oracle.v_expect))

        assert 1.5 <= gap(0.01, 1000) / gap(0.005, 2000) <= 2.5

    def test_supermartingale_on_certified_run(self, damping_model, damping_candidate, excited):
        cfg = CollisionConfig(dt=0.01, steps=10)
        traj = simulate_flow_expectation(damping_model, damping_candidate, SIGMA_Z, excited, cfg)
        # certified nonpositive drift: E[V] non-increasing up to tolerance
        assert np.all(np.diff(traj.v_expect) <= 1e-9)

    def test_ancilla_truncation_insensitivity(self, damping_model, damping_candidate, excited):
        dt = 0.01
        cfg1 = CollisionConfig(dt=dt, steps=8, ancilla_levels=1)
        cfg2 = CollisionConfig(dt=dt, steps=8, ancilla_levels=2)
        t1 = simulate_flow_expectation(damping_model, damping_candidate, SIGMA_Z, excited, cfg1)
        t2 = simulate_flow_expectation(damping_model, damping_candidate, SIGMA_Z, excited, cfg2)
        per_step = np.max(np.abs(t1.v_expect - t2.v_expect)) / cfg1.steps
        assert per_step <= 10.0 * dt**2


def reference_chain(model, candidate, x0, psi0, dt, steps, ancilla_levels, observables):
    """Dense-vector collision chain: the independent oracle for the pair-state recursion.

    Keeps the full system (x) k-ancilla state and the step product
    U_k ... U_1 as a dense matrix, so memory grows as (levels+1)^(2k):
    only for short runs.  Returns E[V] and the observables per step.
    """
    d, w = model.dim, ancilla_levels + 1
    u4 = collision_step_unitary(model, dt, ancilla_levels).reshape(d, w, d, w)
    x_powers = [np.linalg.matrix_power(x0, p) for p in range(candidate.degree + 1)]
    product = np.eye(d, dtype=complex)
    v_vals, obs_vals = [], {name: [] for name in observables}
    for k in range(steps + 1):
        if k:
            # ancilla k joins last, in vacuum, and collides with the system
            step = np.einsum("SAsa,pq->SpAsqa", u4, np.eye(w ** (k - 1))).reshape(d * w**k, d * w**k)
            product = step @ np.kron(product, np.eye(w))
        vacua = np.zeros(w**k)
        vacua[0] = 1.0
        psi = product @ np.kron(psi0, vacua)

        def on_system(op, vec):
            return (op @ vec.reshape(d, -1)).reshape(-1)

        total = 0.0
        for n, m, theta in candidate.terms:
            # <psi| X^n U (Theta (x) I) U† X^m |psi> with U the step product
            right = product @ on_system(theta, adjoint(product) @ on_system(x_powers[m], psi))
            total += np.vdot(on_system(adjoint(x_powers[n]), psi), right)
        v_vals.append(total.real)
        for name, op in observables.items():
            obs_vals[name].append(np.vdot(psi, on_system(op, psi)).real)
    return np.array(v_vals), {name: np.array(v) for name, v in obs_vals.items()}


class TestAgainstReferenceChain:
    @pytest.mark.parametrize("levels, steps", [(1, 7), (2, 5)])
    def test_nonscalar_theta_nonnormal_coupling(self, levels, steps):
        rng = np.random.default_rng(303)

        def unit(m):
            return m / spectral_norm(m)

        coupling = unit(random_complex(rng, 3))
        assert spectral_norm(coupling @ adjoint(coupling) - adjoint(coupling) @ coupling) > 0.1
        model = QsdeModel(hamiltonian=unit(random_hermitian(rng, 3)), coupling=coupling)
        sandwich, square = unit(random_hermitian(rng, 3)), unit(random_complex(rng, 3))
        constant = unit(random_hermitian(rng, 3))
        cand = LyapunovCandidate(
            terms=((1, 1, sandwich), (2, 0, square), (0, 2, adjoint(square)), (0, 0, constant))
        )
        x0 = unit(random_hermitian(rng, 3))
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 = psi0 / np.linalg.norm(psi0)
        state = QuantumState.from_vector(psi0)
        observables = {"sandwich": sandwich, "x0": x0}

        traj = simulate_flow_expectation(
            model, cand, x0, state, CollisionConfig(dt=0.05, steps=steps, ancilla_levels=levels), observables
        )
        v_ref, obs_ref = reference_chain(model, cand, x0, psi0, 0.05, steps, levels, observables)
        assert np.max(np.abs(traj.v_expect - v_ref)) <= 1e-12
        for name in observables:
            assert np.max(np.abs(traj.obs_expect[name] - obs_ref[name])) <= 1e-12
        assert np.max(np.abs(np.diff(v_ref))) > 1e-3  # the dynamics is not trivial

    def test_scalar_and_nonscalar_terms_together(self):
        rng = np.random.default_rng(304)
        model = QsdeModel(hamiltonian=random_hermitian(rng, 3), coupling=random_complex(rng, 3))
        sandwich, x0 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        cand = LyapunovCandidate(terms=((1, 1, sandwich), (2, 0, 0.6 * np.eye(3)), (0, 2, 0.6 * np.eye(3)),
                                        (0, 0, -0.4 * np.eye(3))))
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 = psi0 / np.linalg.norm(psi0)
        traj = simulate_flow_expectation(
            model, cand, x0, QuantumState.from_vector(psi0), CollisionConfig(dt=0.05, steps=6, ancilla_levels=2)
        )
        v_ref, _ = reference_chain(model, cand, x0, psi0, 0.05, 6, 2, {})
        assert np.max(np.abs(traj.v_expect - v_ref)) <= 1e-12
        assert np.max(np.abs(np.diff(v_ref))) > 1e-3  # the dynamics is not trivial


def tensordot_pair_values(model, terms, y, rho0, config):
    """E[V] per step from one pair state per term, each advanced by np.tensordot: the pair-state reference.

    A term (n, m, Theta) reads sum Y^n[s,p] W_k[p,q,r,s] Y^m[q,r] from W_0 = Theta (x) rho0."""
    dim, width, dt, levels = model.dim, config.ancilla_levels + 1, config.dt, config.ancilla_levels
    blocks = collision_step_unitary(model, dt, levels).reshape(dim, width, dim, width).transpose(1, 3, 0, 2)
    kraus, pairs = blocks[:, 0], np.einsum("tpq,rs->tpqrs", np.array([t for *_, t in terms]) + 0j, rho0)
    power = np.linalg.matrix_power
    readout = np.array([np.zeros((dim,) * 4, dtype=complex) + np.einsum("sp,qr->pqrs", power(y, n), power(y, m))
                        for n, m, _ in terms]).reshape(-1)
    values = [(readout @ pairs.reshape(-1)).real]
    for _ in range(config.steps):
        w = np.tensordot(pairs, kraus, axes=([3], [2]))
        w = np.tensordot(w, blocks.conj(), axes=([2, 4], [3, 0]))
        w = np.tensordot(w, blocks, axes=([1, 4], [3, 1]))
        pairs = np.tensordot(w, kraus.conj(), axes=([1, 4], [2, 0])).transpose(0, 3, 2, 1, 4)
        values.append((readout @ pairs.reshape(-1)).real)
    return np.array(values)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_pair_states_equal_the_tensordot_recursion_bit_for_bit(dim, levels):
    """A non-scalar Theta's contraction runs np.tensordot's own products, each factor formed once: the same bits."""
    rng = np.random.default_rng(400 + 10 * dim + levels)
    model = QsdeModel(hamiltonian=random_hermitian(rng, dim), coupling=random_complex(rng, dim))
    theta, x0, rho0 = random_hermitian(rng, dim), random_hermitian(rng, dim) + 0j, random_density(rng, dim)
    config = CollisionConfig(dt=0.02, steps=6, ancilla_levels=levels)
    traj = simulate_flow_expectation(model, LyapunovCandidate(terms=((1, 1, theta),)), x0, QuantumState(rho0), config)
    assert traj.v_expect.tobytes() == tensordot_pair_values(model, ((1, 1, theta),), x0, rho0, config).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_scalar_theta_terms_equal_a_kraus_loop_bit_for_bit(dim, levels):
    """Scalar-Theta terms sum into V_s(x0), read as Tr(rho_k V_s) from the states that a plain Kraus loop steps.

    A 1 x 1 Theta is always scalar, so at dim = 1 every candidate takes this route."""
    rng = np.random.default_rng(400 + 10 * dim + levels)
    model = QsdeModel(hamiltonian=random_hermitian(rng, dim), coupling=random_complex(rng, dim))
    x0, rho0 = random_hermitian(rng, dim) + 0j, random_density(rng, dim)
    cand = canonicalize(LyapunovCandidate(terms=((1, 1, 0.7 * np.eye(dim)), (2, 0, -0.2 * np.eye(dim)),
                                                 (0, 2, -0.2 * np.eye(dim)), (0, 0, 1.3 * np.eye(dim)))))
    config = CollisionConfig(dt=0.02, steps=6, ancilla_levels=levels)
    traj = simulate_flow_expectation(model, cand, x0, QuantumState(rho0), config, {"x0": x0})
    width = levels + 1
    kraus = collision_step_unitary(model, 0.02, levels).reshape(dim, width, dim, width)[:, :, :, 0].transpose(1, 0, 2)
    states = [rho0 + 0j]
    for _ in range(config.steps):
        states.append(np.matmul(kraus @ states[-1], kraus.conj().transpose(0, 2, 1)).sum(axis=0))
    # Tr(rho X) = sum_ij rho_ij X_ji, for V_s = V(x0) and the observable in one product
    ops = np.stack([evaluate(cand, x0), x0]).transpose(0, 2, 1).reshape(2, -1)
    v_expect, x_expect = (ops @ np.reshape(states, (len(states), -1)).T).real
    assert traj.v_expect.tobytes() == v_expect.tobytes()
    assert traj.obs_expect["x0"].tobytes() == x_expect.tobytes()


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    levels=st.integers(1, 2),
    steps=st.integers(1, 6),
    terms=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.floats(-2.0, 2.0).filter(lambda c: c != 0)),
                   min_size=1, max_size=4),
    center=st.floats(-1.0, 1.0),
)
def test_scalar_theta_reduced_state_equals_the_pair_state_recursion(seed, dim, levels, steps, terms, center):
    """The flow is a *-homomorphism: reading V_s(x0) from the reduced state gives the pair states' E[V]."""
    rng = np.random.default_rng(seed)
    model = QsdeModel(hamiltonian=random_hermitian(rng, dim), coupling=random_complex(rng, dim))
    x0, rho0 = random_hermitian(rng, dim) + 0j, random_density(rng, dim)
    cand = canonicalize(
        LyapunovCandidate(terms=tuple((n, m, c * np.eye(dim)) for n, m, c in terms), center=center * np.eye(dim)),
        hermitian_closure=True,
    )
    config = CollisionConfig(dt=0.05, steps=steps, ancilla_levels=levels)
    traj = simulate_flow_expectation(model, cand, x0, QuantumState(rho0), config)
    y = x0 if cand.center is None else x0 - cand.center
    ref = tensordot_pair_values(model, cand.terms, y, rho0, config)
    scale = sum(abs(t[0, 0]) * max(1.0, spectral_norm(y)) ** (n + m) for n, m, t in cand.terms)
    assert np.max(np.abs(traj.v_expect - ref)) <= 1e-13 * scale


def test_scalar_theta_collision_at_d32_over_1000_steps_tracks_master():
    """Scalar Theta reads the reduced state, O((levels+1) d^3) per step: no d^4 pair state along d."""
    a, _, number = ladder_operators(31)
    model, dt = QsdeModel(hamiltonian=number, coupling=a), 0.001
    cand = LyapunovCandidate(terms=((1, 1, np.eye(32)),))  # V(X) = X^2
    x0, psi0 = number / 31, QuantumState.from_vector(np.eye(32)[-1])
    start = time.perf_counter()
    coll = simulate_flow_expectation(model, cand, x0, psi0, CollisionConfig(dt, 1000, ancilla_levels=2))
    assert time.perf_counter() - start < 5.0
    oracle = master_flow_expectation(model, cand, x0, psi0, coll.times)
    allowance = 1e-12 + dt * coll.times * np.max(np.abs(oracle.v_expect))  # first order in dt
    assert np.all(np.abs(coll.v_expect - oracle.v_expect) <= allowance)
    assert oracle.v_expect[-1] < 0.2 * oracle.v_expect[0]  # the dynamics is not trivial


class TestMixedInitialState:
    """The pair-state recursion starts from W_0 = Theta (x) rho0, linear in rho0: any density matrix works."""

    def test_collision_is_linear_in_rho0(self):
        rng = np.random.default_rng(404)
        model = QsdeModel(hamiltonian=random_hermitian(rng, 3), coupling=random_complex(rng, 3))
        theta, square = random_hermitian(rng, 3), random_complex(rng, 3)
        cand = LyapunovCandidate(terms=((1, 1, theta), (2, 0, square), (0, 2, adjoint(square)), (0, 0, theta)))
        x0 = random_hermitian(rng, 3)
        rho_a, rho_b, p = random_density(rng, 3), random_density(rng, 3), 0.3
        cfg = CollisionConfig(dt=0.05, steps=8, ancilla_levels=2)

        def run(rho):
            return simulate_flow_expectation(model, cand, x0, QuantumState(rho), cfg, {"x0": x0})

        mixed, a, b = run(p * rho_a + (1 - p) * rho_b), run(rho_a), run(rho_b)
        for got, part_a, part_b in ((mixed.v_expect, a.v_expect, b.v_expect),
                                    (mixed.obs_expect["x0"], a.obs_expect["x0"], b.obs_expect["x0"])):
            assert np.all(np.abs(got - (p * part_a + (1 - p) * part_b)) <= 1e-13 * np.maximum(1.0, np.abs(got)))
        assert np.max(np.abs(np.diff(mixed.v_expect))) > 1e-3  # the dynamics is not trivial

    def test_collision_from_mixed_state_tracks_master(self, damping_model, v_linear):
        rho0 = QuantumState(random_density(np.random.default_rng(405), 2))
        x0 = NUMBER + 0.5 * SIGMA_X  # reads the coherences of rho_t as well as its populations
        dt = 0.01
        coll = simulate_flow_expectation(damping_model, v_linear, x0, rho0, CollisionConfig(dt, 300))
        oracle = master_flow_expectation(damping_model, v_linear, x0, rho0, coll.times)
        allowance = 1e-12 + dt * coll.times * np.max(np.abs(oracle.v_expect))
        assert np.all(np.abs(coll.v_expect - oracle.v_expect) <= allowance)

    def test_drift_check_on_mixed_state_is_first_order(self, damping_model, damping_candidate):
        rho0 = QuantumState(random_density(np.random.default_rng(406), 2))
        x0 = SIGMA_Z + 0.3 * SIGMA_X
        report = finite_difference_drift_check(damping_model, damping_candidate, x0, rho0, CollisionConfig(1e-2, 1))
        drift = flow_ito_coefficients(damping_model, damping_candidate, x0).drift
        assert report.analytic == pytest.approx(np.trace(rho0.rho @ drift).real, rel=1e-14)
        assert report.order_ok and 1.5 <= report.ratio <= 2.5


def reference_master_states(model, rho0, t_grid):
    """Per-point expm(L t) vec0: the independent oracle for the stepped master propagation."""
    liouville = liouvillian_matrix(model)
    vec0 = rho0.rho.reshape(-1)
    return np.array([(scipy.linalg.expm(liouville * t) @ vec0).reshape(model.dim, model.dim) for t in t_grid])


# Grids with a known number of intervals that break the uniform pattern:
# a linspace and a dt * arange need one propagator, three spliced uniform
# pieces need three, and a random grid needs one per interval.
GRIDS = {
    "linspace": (np.linspace(0.0, 4.0, 201), 1),
    "arange": (0.01 * np.arange(101), 1),
    "pieces": (np.concatenate([0.1 * np.arange(5), 0.4 + 0.25 * np.arange(1, 5), 1.4 + 0.05 * np.arange(1, 4)]), 3),
    "random": (np.concatenate([[0.0], np.cumsum(np.random.default_rng(71).uniform(0.01, 0.1, size=40))]), 40),
}


class TestSteppedMasterOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_matches_per_point_expm(self, dim, grid):
        rng = np.random.default_rng(70 + dim)
        model = QsdeModel(hamiltonian=random_hermitian(rng, dim), coupling=random_complex(rng, dim))
        rho0 = QuantumState(random_density(rng, dim))
        t_grid = GRIDS[grid][0]
        states = master_evolve(model, rho0, t_grid)
        assert states.shape == (t_grid.size, dim, dim)
        scale = max(1.0, t_grid[-1] * spectral_norm(liouvillian_matrix(model)))
        assert np.max(np.abs(states - reference_master_states(model, rho0, t_grid))) <= 1e-13 * scale

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_one_expm_per_grid_break(self, damping_model, monkeypatch, grid):
        calls = []
        expm = qstab._expm.expm
        monkeypatch.setattr(qstab._expm, "expm", lambda a: calls.append(a) or expm(a))
        t_grid, breaks = GRIDS[grid]
        master_evolve(damping_model, QuantumState.maximally_mixed(2), t_grid)
        assert len(calls) == breaks

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_states_equal_a_scalar_anchor_loop_bit_for_bit(self, dim, grid):
        rng = np.random.default_rng(80 + dim)
        model = QsdeModel(hamiltonian=random_hermitian(rng, dim), coupling=random_complex(rng, dim))
        rho0 = QuantumState(random_density(rng, dim))
        t_grid = GRIDS[grid][0]
        # The reference tests one grid time at a time whether the propagator of its anchor still serves it.
        liouville, vecs, anchor, h = liouvillian_matrix(model), [rho0.rho.reshape(-1)], 0, np.nan
        for k in range(1, t_grid.size):
            if not abs(t_grid[k] - (t_grid[anchor] + (k - anchor) * h)) <= 4 * np.spacing(t_grid[k]):
                anchor, h = k - 1, t_grid[k] - t_grid[k - 1]
                step = qstab._expm.expm(liouville * h)
            vecs.append(step @ vecs[-1])
        assert np.array_equal(master_evolve(model, rho0, t_grid), np.reshape(vecs, (-1, dim, dim)))

    def test_a_step_whose_generator_overflows_names_the_state(self):
        rng = np.random.default_rng(3)
        model = QsdeModel(hamiltonian=random_hermitian(rng, 3), coupling=4 * random_complex(rng, 3))
        with pytest.raises(InvalidStateError, match=r"^state 1 at t = 1e\+308 has non-finite entries$"):
            master_evolve(model, QuantumState.maximally_mixed(3), [0.0, 1e308])

    def test_invalid_state_names_grid_index_and_time(self, damping_model, monkeypatch):
        expm = qstab._expm.expm
        monkeypatch.setattr(qstab._expm, "expm", lambda a: 1.5 * expm(a))
        with pytest.raises(InvalidStateError, match=r"state 1 at t = 0\.5 trace differs"):
            master_evolve(damping_model, QuantumState.maximally_mixed(2), [0.0, 0.5, 1.0])


    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_a_propagator_off_by_1e_9_is_rejected(self, damping_model, monkeypatch, grid):
        expm = qstab._expm.expm
        monkeypatch.setattr(qstab._expm, "expm", lambda a: (1 + 1e-9) * expm(a))
        with pytest.raises(InvalidStateError, match=r"^state 1 at t = \S+ trace differs from 1 by 1\.0\d\de-09$"):
            master_evolve(damping_model, QuantumState.maximally_mixed(2), GRIDS[grid][0])

    def test_stiff_models_on_a_long_grid_pass_their_rounding_bound(self):
        """The state checks scale with the steps and ||L h||_1: rounding far above 1e-12 passes, as it should."""
        rng, worst = np.random.default_rng(58), 0.0
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            h, l = random_hermitian(rng, dim), random_complex(rng, dim)
            h, l = (x / spectral_norm(x) * 10 ** rng.uniform(-2, 1.5) for x in (h, l))
            states = master_evolve(QsdeModel(hamiltonian=h, coupling=l), QuantumState(random_density(rng, dim)),
                                   [0.0, 1e3, 1e6])
            worst = max(worst, np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1)))
        assert worst > 1e-12  # the rounding that a fixed 1e-12 rejected


class TestMasterEvolve:
    def test_unitary_channel(self):
        h = 0.7 * SIGMA_X
        model = QsdeModel(hamiltonian=h, coupling=np.zeros((2, 2)))
        rho0 = QuantumState.from_vector(KET_E)
        t_grid = np.linspace(0.0, 1.0, 6)
        states = master_evolve(model, rho0, t_grid)
        for t, s in zip(t_grid, states):
            u = scipy.linalg.expm(-1j * h * t)
            assert np.allclose(s, u @ rho0.rho @ adjoint(u), atol=1e-12)

    def test_amplitude_damping_closed_form(self, damping_model):
        rho0 = QuantumState.from_vector(KET_E)
        t_grid = np.linspace(0.0, 2.0, 9)
        states = master_evolve(damping_model, rho0, t_grid)
        for t, s in zip(t_grid, states):
            assert s[0, 0].real == pytest.approx(np.exp(-GAMMA * t), abs=1e-12)
            assert abs(s[0, 1]) <= 1e-13

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(60)
        model = QsdeModel(hamiltonian=random_hermitian(rng, 3), coupling=rng.normal(size=(3, 3)))
        rho0 = QuantumState.maximally_mixed(3)
        states = master_evolve(model, rho0, np.linspace(0.0, 1.0, 5))
        for s in states:  # master_evolve checks the invariants once on the whole stack
            assert abs(np.trace(s) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_superoperators_equal_their_np_kron_construction_bit_for_bit(self, dim):
        rng = np.random.default_rng(90 + dim)
        model = QsdeModel(hamiltonian=random_hermitian(rng, dim), coupling=-random_complex(rng, dim))
        h, l, eye = model.hamiltonian, model.coupling, np.eye(dim)
        ldl = adjoint(l) @ l
        left, right = (lambda a: np.kron(a, eye)), (lambda a: np.kron(eye, a.T))
        want = -1j * (left(h) - right(h)) + left(l) @ right(adjoint(l)) - 0.5 * (left(ldl) + right(ldl))
        assert liouvillian_matrix(model).tobytes() == want.tobytes()  # bytes: signed zeros too
        dt, (a, a_dag, _) = 0.03, ladder_operators(2)
        exponent = np.kron(-1j * h * dt, np.eye(3)) + np.sqrt(dt) * (np.kron(l, a_dag) - np.kron(adjoint(l), a))
        lam, w = np.linalg.eigh(1j * exponent)
        assert collision_step_unitary(model, dt, 2).tobytes() == ((w * np.exp(-1j * lam)) @ adjoint(w)).tobytes()

    def test_liouvillian_is_trace_dual_of_flow_generator(self, damping_model):
        from qstab import flow_generator

        rng = np.random.default_rng(61)
        lv = liouvillian_matrix(damping_model)
        for _ in range(20):
            rho = random_hermitian(rng, 2)
            x = random_hermitian(rng, 2)
            drho = (lv @ rho.reshape(-1)).reshape(2, 2)
            lhs = np.trace(drho @ x)
            rhs = np.trace(rho @ flow_generator(damping_model, x))
            assert abs(lhs - rhs) <= 1e-12

    def test_collision_agrees_with_master_at_first_order(self, damping_model, v_linear, excited):
        dt, steps = 1e-2, 10
        coll = simulate_flow_expectation(
            damping_model, v_linear, NUMBER, excited, CollisionConfig(dt=dt, steps=steps)
        )
        oracle = master_flow_expectation(damping_model, v_linear, NUMBER, excited, coll.times)
        gap1 = np.max(np.abs(coll.v_expect - oracle.v_expect))
        coll2 = simulate_flow_expectation(
            damping_model, v_linear, NUMBER, excited, CollisionConfig(dt=dt / 2, steps=2 * steps)
        )
        oracle2 = master_flow_expectation(damping_model, v_linear, NUMBER, excited, coll2.times)
        gap2 = np.max(np.abs(coll2.v_expect - oracle2.v_expect))
        assert gap1 <= 0.05
        assert 1.5 <= gap1 / gap2 <= 2.5

    def test_master_rejects_nonscalar_theta(self, damping_model, excited):
        cand = LyapunovCandidate(terms=((1, 1, NUMBER),))
        with pytest.raises(InvalidCandidateError):
            master_flow_expectation(damping_model, cand, SIGMA_Z, excited, np.linspace(0, 1, 3))

    @pytest.mark.parametrize("t_grid", [[], [[0.0, 0.1]], [0.0, np.nan], [0.0, np.inf], [0.0, 0.5, np.nan]])
    def test_master_rejects_empty_or_nested_grid(self, damping_model, v_linear, excited, t_grid):
        with pytest.raises(ValueError, match="t_grid"):
            master_flow_expectation(damping_model, v_linear, NUMBER, excited, t_grid)

    def test_master_accepts_large_scalar_theta(self):
        a, _, n = ladder_operators(2)
        model = QsdeModel(hamiltonian=np.zeros((3, 3)), coupling=a)
        q = random_unitary(np.random.default_rng(0), 3)
        theta = q @ (1e5 * np.eye(3)) @ adjoint(q)  # scalar, up to rounding at 1e5
        top = QuantumState.from_vector([0.0, 0.0, 1.0])
        t_grid = np.linspace(0.0, 1.0, 5)
        traj = master_flow_expectation(model, LyapunovCandidate(terms=((1, 1, theta),)), n, top, t_grid)
        exact = master_flow_expectation(model, LyapunovCandidate(terms=((1, 1, 1e5 * np.eye(3)),)), n, top, t_grid)
        assert np.allclose(traj.v_expect, exact.v_expect, rtol=1e-12, atol=0.0)

    def test_master_rejects_large_nonscalar_theta(self):
        a, _, n = ladder_operators(2)
        model = QsdeModel(hamiltonian=np.zeros((3, 3)), coupling=a)
        cand = LyapunovCandidate(terms=((1, 1, 1e3 * np.diag([1.0, 1.0, 1.0 + 1e-6])),))
        with pytest.raises(InvalidCandidateError, match="non-scalar"):
            master_flow_expectation(model, cand, n, QuantumState.maximally_mixed(3), np.linspace(0.0, 1.0, 3))


class TestFiniteDifferenceDriftCheck:
    def test_trivial_model_zero(self, v_linear):
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.zeros((2, 2)))
        psi = QuantumState.from_vector(np.array([0.6, 0.8]))
        report = finite_difference_drift_check(model, v_linear, SIGMA_Z, psi, CollisionConfig(dt=0.01, steps=1))
        assert report.analytic == pytest.approx(0.0, abs=1e-14)
        assert report.empirical == pytest.approx(0.0, abs=1e-12)
        assert report.order_ok

    def test_damping_number_drift(self, damping_model, v_linear, excited):
        report = finite_difference_drift_check(
            damping_model, v_linear, NUMBER, excited, CollisionConfig(dt=1e-3, steps=1)
        )
        assert report.analytic == pytest.approx(-GAMMA)
        assert report.empirical == pytest.approx(-GAMMA, abs=5e-3)
        assert report.order_ok

    def test_worked_square_candidate(self, damping_model, damping_candidate, excited):
        report = finite_difference_drift_check(
            damping_model, damping_candidate, SIGMA_Z, excited, CollisionConfig(dt=1e-2, steps=1)
        )
        assert report.analytic == pytest.approx(-4.0 * GAMMA)
        assert 1.5 <= report.ratio <= 2.5

    def test_a_dt_that_halves_to_zero_is_rejected_naming_it(self, damping_model, v_linear, excited):
        with pytest.raises(ValueError, match=r"dt must halve to a nonzero step, got 5e-324"):
            finite_difference_drift_check(damping_model, v_linear, NUMBER, excited, CollisionConfig(dt=5e-324, steps=1))

    def test_a_dt_whose_one_step_slope_overflows_is_rejected_naming_it(self, damping_model, damping_candidate, excited):
        # 1e-323 halves to a nonzero step, but a rounding-level change of E[V] over it overflows the slope.
        config = CollisionConfig(dt=1e-323, steps=1)
        with pytest.raises(ValueError, match=r"dt must give a finite one-step slope, got 1e-323"):
            finite_difference_drift_check(damping_model, damping_candidate, SIGMA_Z, excited, config)


class TestItoTableCheck:
    @pytest.mark.parametrize("levels", [1, 2])
    def test_all_entries_exact(self, levels):
        report = ito_table_check(ancilla_levels=levels, dt=1e-3)
        assert len(report.entries) == 16
        assert report.max_deviation <= 1e-14

    def test_nonzero_entry_is_da_dadag(self):
        report = ito_table_check(ancilla_levels=1, dt=1e-3)
        nonzero = {(e.left, e.right): e for e in report.entries if e.moment != 0.0}
        assert set(nonzero) == {("dA", "dA_dag"), ("dt", "dt")}
        assert nonzero[("dA", "dA_dag")].moment == pytest.approx(1e-3, abs=1e-18)

    def test_vacuum_moments(self):
        report = ito_table_check(ancilla_levels=2, dt=1e-2)
        by_pair = {(e.left, e.right): e for e in report.entries}
        assert by_pair[("dA_dag", "dA")].moment == 0.0
        assert by_pair[("dLambda", "dLambda")].moment == 0.0

    def test_checks_the_table_that_the_ito_assembly_runs_on(self, monkeypatch):
        # Swapping the drift's cross column to dA† dA is a wrong table: its vacuum moment is 0, not dt.
        monkeypatch.setitem(qstab.lyapunov._ITO_ROUTES, "drift", ("generator", "generator", "creation", "annihilation"))
        assert ito_table_check(ancilla_levels=1, dt=1e-3).max_deviation > 1e-12

    @pytest.mark.parametrize("dt", [1e155, 1e300, np.float64(1e300)])
    def test_a_dt_whose_square_overflows_is_rejected_naming_it(self, dt):
        # No overflow warning (an error under pytest) is reached: the square is taken in Python floats.
        with pytest.raises(ValueError, match=r"dt must square to a finite number, got "):
            ito_table_check(ancilla_levels=1, dt=dt)


class TestTrajectoryChecks:
    def make_traj(self, values, dt=0.1):
        values = np.asarray(values, dtype=float)
        return Trajectory(times=dt * np.arange(len(values)), v_expect=values, method="master")

    def test_exit_time_none_for_decreasing(self):
        traj = self.make_traj([1.0, 0.8, 0.5])
        assert exit_time_estimate(traj, epsilon=1.0) is None

    def test_exit_time_first_crossing(self):
        traj = self.make_traj([1.0, 2.0, 3.0])
        assert exit_time_estimate(traj, epsilon=1.5) == pytest.approx(traj.times[1])

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, 0.0, -1.0])
    def test_exit_time_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="^epsilon must be"):
            exit_time_estimate(self.make_traj([1.0, 2.0, 3.0]), epsilon)

    def test_transit_time_exponential(self):
        t = np.linspace(0.0, 3.0, 3001)
        traj = Trajectory(times=t, v_expect=np.exp(-GAMMA * t), method="master")
        report = transit_time_check(traj, level_hi=1.0, level_lo=0.5, b=GAMMA / 2)
        assert report.applicable
        assert report.measured == pytest.approx(np.log(2.0) / GAMMA, abs=2e-3)
        assert report.bound == pytest.approx(2.0 / GAMMA)
        assert report.ok

    def test_transit_time_bad_bound_fails(self):
        t = np.linspace(0.0, 3.0, 3001)
        traj = Trajectory(times=t, v_expect=np.exp(-GAMMA * t), method="master")
        report = transit_time_check(traj, level_hi=1.0, level_lo=0.5, b=10.0 * GAMMA)
        assert report.applicable and not report.ok

    def test_transit_not_applicable_for_flat(self):
        traj = self.make_traj([2.0, 2.0, 2.0])
        assert not transit_time_check(traj, level_hi=1.0, level_lo=0.5, b=1.0).applicable

    def test_envelope_exact_rate(self):
        t = np.linspace(0.0, 1.0, 101)
        traj = Trajectory(times=t, v_expect=np.exp(-GAMMA * t), method="master")
        report = envelope_check(traj, a=GAMMA, v0=1.0)
        assert report.ok
        assert report.max_ratio == pytest.approx(1.0)

    def test_envelope_overclaimed_rate_fails(self):
        t = np.linspace(0.0, 1.0, 101)
        traj = Trajectory(times=t, v_expect=np.exp(-GAMMA * t), method="master")
        assert not envelope_check(traj, a=2 * GAMMA, v0=1.0).ok

    def test_envelope_on_collision_run(self, damping_model, damping_candidate, excited):
        traj = simulate_flow_expectation(
            damping_model, damping_candidate, SIGMA_Z, excited, CollisionConfig(dt=1e-2, steps=10)
        )
        assert envelope_check(traj, a=GAMMA / 2, v0=traj.v_expect[0]).ok

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), v_expect=np.array([1.0, 1.0]), method="master")
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.1, 0.2]), v_expect=np.array([1.0, 1.0]), method="master")

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Trajectory(times=[], v_expect=[], method="master")

    @pytest.mark.parametrize("a, v0, field", [
        (np.nan, 1.0, "a"), (np.inf, 1.0, "a"), (1.0, np.nan, "v0"), (1.0, np.inf, "v0"),
    ])
    def test_envelope_rejects_non_finite(self, a, v0, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            envelope_check(self.make_traj([1.0, 0.5]), a=a, v0=v0)

    @pytest.mark.parametrize("b", [np.nan, np.inf, -1.0])
    def test_transit_rejects_bad_bound(self, b):
        with pytest.raises(ValueError, match="^b must be"):
            transit_time_check(self.make_traj([1.0, 0.5]), level_hi=0.9, level_lo=0.5, b=b)

    def test_parameter_validation(self):
        traj = self.make_traj([1.0, 0.5])
        with pytest.raises(ValueError):
            transit_time_check(traj, level_hi=0.5, level_lo=1.0, b=1.0)
        with pytest.raises(ValueError):
            transit_time_check(traj, level_hi=1.0, level_lo=0.5, b=0.0)
        with pytest.raises(ValueError):
            envelope_check(traj, a=0.0, v0=1.0)
        with pytest.raises(ValueError):
            envelope_check(traj, a=1.0, v0=-1.0)


def test_vacuum_noise_cancellation(damping_model, damping_candidate, excited):
    # One step must agree with the drift to second order: the noise
    # contributions vanish in vacuum expectation.
    dt = 1e-3
    traj = simulate_flow_expectation(
        damping_model, damping_candidate, SIGMA_Z, excited, CollisionConfig(dt=dt, steps=1)
    )
    drift = flow_ito_coefficients(damping_model, damping_candidate, SIGMA_Z).drift
    analytic = np.vdot(KET_E, drift @ KET_E).real  # the vector that built ``excited``
    assert abs(traj.v_expect[1] - traj.v_expect[0] - dt * analytic) <= 10.0 * dt**2


@pytest.mark.parametrize(
    "run",
    [
        lambda model, cand, state: simulate_flow_expectation(model, cand, SIGMA_Z, state, CollisionConfig(0.01, 2)),
        lambda model, cand, state: master_evolve(model, state, [0.0, 0.01]),
        lambda model, cand, state: finite_difference_drift_check(model, cand, SIGMA_Z, state, CollisionConfig(0.01, 1)),
    ],
    ids=["collision", "master", "finite-difference"],
)
def test_a_state_of_another_dimension_is_rejected_first(damping_model, damping_candidate, monkeypatch, run):
    """A qutrit state with a qubit model raises naming both dimensions, before the step unitary or the drift."""
    for name in ("collision_step_unitary", "liouvillian_matrix", "_ito_coefficients"):
        monkeypatch.setattr(qstab.evolve, name, lambda *a, **k: pytest.fail("arithmetic ran before the check"))
    with pytest.raises(DimensionMismatchError, match="system state has dimension 3, model has dimension 2"):
        run(damping_model, damping_candidate, QuantumState.maximally_mixed(3))


class TestGuardsWithoutSvd:
    """Guards that pass by a wide margin are cleared by the Frobenius bound; failures report exact spectral norms."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # where np.linalg.norm finds svd
        for module in {np.linalg, linalg}:
            monkeypatch.setattr(module, "svd", lambda *a, **k: calls.append(np.shape(a[0])) or svd(*a, **k))
        return calls

    def test_valid_inputs_take_no_svd(self, damping_model, svd_calls):
        validate(damping_model)
        for t_grid, _ in GRIDS.values():
            master_evolve(damping_model, QuantumState.maximally_mixed(2), t_grid)
        collision_step_unitary(damping_model, dt=0.01, ancilla_levels=2)
        assert svd_calls == []

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_scalar_candidates_reach_the_oracle_without_svd(self, damping_model, svd_calls, scale):
        cand = LyapunovCandidate(terms=((1, 1, scale * EYE2),), center=-EYE2)
        master_flow_expectation(damping_model, cand, SIGMA_Z, QuantumState.maximally_mixed(2), GRIDS["pieces"][0])
        assert svd_calls == []

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_a_theta_just_past_the_spectral_bound_stays_non_scalar(self, damping_model, scale):
        # ||Theta - (trace / d) I||_2 = scale eps / 2, 1.01 times 1e-12 ||Theta||_2 = 1e-12 scale (1 + eps)
        eps = 2.02e-12
        cand = LyapunovCandidate(terms=((1, 1, scale * np.diag([1.0, 1.0 + eps])),), center=-EYE2)
        with pytest.raises(InvalidCandidateError, match=r"term \(1, 1\) has a non-scalar Theta"):
            master_flow_expectation(damping_model, cand, SIGMA_Z, QuantumState.maximally_mixed(2), [0.0, 0.1])

    def test_failing_inputs_keep_their_messages(self, monkeypatch):
        # Each defect below has a spectral norm that differs from its Frobenius norm.
        with pytest.raises(InvalidModelError, match=r"^H not self-adjoint, defect 1\.000e\+00$"):
            validate(QsdeModel(hamiltonian=SIGMA_X + 0.5 * (SIGMA_X @ SIGMA_Z), coupling=SIGMA_MINUS))
        with pytest.raises(InvalidModelError, match=r"^S not unitary, defect 3\.000e\+00$"):
            validate(QsdeModel(hamiltonian=SIGMA_Z, coupling=SIGMA_MINUS, scattering=2.0 * EYE2))
        rho = np.stack([EYE2 / 2, EYE2 / 2 + 1e-3 * (SIGMA_X @ SIGMA_Z)])
        message = r"^state 1 at t = 0\.5 is not Hermitian: defect 2\.000e-03 > 1\.000e-10$"
        with pytest.raises(InvalidStateError, match=message):
            require_density(rho, tol_herm=1e-10, tol_psd=1e-10, tol_trace=1e-12, times=[0.0, 0.5])
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], 1.001 * eigh(a)[1]))
        with pytest.raises(InternalCheckError, match=r"^collision step is not unitary: defect 4\.006e-03$"):
            collision_step_unitary(QsdeModel(hamiltonian=SIGMA_Z, coupling=SIGMA_MINUS), dt=0.01)
