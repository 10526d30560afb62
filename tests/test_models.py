import numpy as np
import pytest

from qstab import (
    DimensionMismatchError,
    InvalidModelError,
    QsdeModel,
    QuantumState,
    adjoint,
    commutator,
    diagnose,
    equilibrium_residual,
    flow_generator,
    flow_noise_coefficients,
    spectral_norm,
    state_generator,
    state_noise_coefficients,
    validate,
)
from qstab.models import require_model_dim

from conftest import (
    EYE2,
    GROUND,
    NUMBER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    random_complex,
    random_density,
    random_hermitian,
    random_model,
    random_unitary,
)


class TestValidate:
    def test_damping_model_valid(self, damping_model):
        assert validate(damping_model) is None
        report = diagnose(damping_model)
        assert report.ok
        assert report.decay_scale == pytest.approx(1.0)

    def test_non_self_adjoint_hamiltonian(self):
        model = QsdeModel(hamiltonian=SIGMA_PLUS, coupling=SIGMA_MINUS)
        with pytest.raises(InvalidModelError, match="H not self-adjoint"):
            validate(model)

    def test_non_unitary_scattering(self):
        model = QsdeModel(hamiltonian=SIGMA_Z, coupling=SIGMA_MINUS, scattering=np.diag([1.0, 2.0]))
        with pytest.raises(InvalidModelError, match="S not unitary"):
            validate(model)

    def test_diagnose_reports_without_raising(self):
        model = QsdeModel(hamiltonian=SIGMA_PLUS, coupling=SIGMA_MINUS, scattering=np.diag([1.0, 2.0]))
        report = diagnose(model)
        assert not report.ok and len(report.failures) == 2

    def test_dim_mismatch_at_construction(self):
        with pytest.raises(DimensionMismatchError):
            QsdeModel(hamiltonian=np.eye(2), coupling=np.eye(3))


class TestFlowGenerator:
    def test_annihilates_identity(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(2, 5)))
            out = flow_generator(model, np.eye(model.dim))
            assert spectral_norm(out) <= 1e-12

    def test_damping_on_sigma_z(self, damping_model):
        out = flow_generator(damping_model, SIGMA_Z)
        assert np.allclose(out, np.diag([-2.0, 0.0]))
        assert np.allclose(out, -(EYE2 + SIGMA_Z))

    def test_damping_decay_rate(self):
        gamma = 0.37
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(gamma) * SIGMA_MINUS)
        assert np.allclose(flow_generator(model, NUMBER), -gamma * NUMBER)

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            model = random_model(rng, 3)
            x = random_hermitian(rng, 3)
            out = flow_generator(model, x)
            assert spectral_norm(out - adjoint(out)) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, 3)
        x, y = random_complex(rng, 3), random_complex(rng, 3)
        a, b = rng.normal(), rng.normal()
        lhs = flow_generator(model, a * x + b * y)
        rhs = a * flow_generator(model, x) + b * flow_generator(model, y)
        assert spectral_norm(lhs - rhs) <= 1e-12 * max(1.0, spectral_norm(rhs))


class TestFlowNoiseCoefficients:
    def test_identity_gives_zero(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 3)
        coeffs = flow_noise_coefficients(model, np.eye(3))
        for c in coeffs:
            assert spectral_norm(c) <= 1e-12

    def test_gauge_vanishes_without_scattering(self, damping_model):
        rng = np.random.default_rng(24)
        coeffs = flow_noise_coefficients(damping_model, random_complex(rng, 2))
        assert spectral_norm(coeffs.gauge) <= 1e-14

    def test_damping_coefficients_on_sigma_z(self, damping_model):
        coeffs = flow_noise_coefficients(damping_model, SIGMA_Z)
        assert np.allclose(coeffs.annihilation, -2 * SIGMA_PLUS)
        assert np.allclose(coeffs.creation, -2 * SIGMA_MINUS)

    def test_gauge_closed_form_for_unitary_scattering(self):
        rng = np.random.default_rng(25)
        model = random_model(rng, 3, scattering=True)
        x = random_complex(rng, 3)
        gauge = flow_noise_coefficients(model, x).gauge
        s = model.scattering
        assert np.allclose(gauge, adjoint(s) @ x @ s - x)


class TestStateGenerator:
    def test_scalar_matrices_are_stationary(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            model = random_model(rng, 3)
            out = state_generator(model, 2.3 * np.eye(3))
            assert spectral_norm(out) <= 1e-12

    def test_damping_excited_state(self):
        gamma = 0.8
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(gamma) * SIGMA_MINUS)
        assert np.allclose(state_generator(model, NUMBER), -gamma * NUMBER)

    def test_damping_maximally_mixed_stationary(self):
        gamma = 0.8
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(gamma) * SIGMA_MINUS)
        assert spectral_norm(state_generator(model, EYE2 / 2)) <= 1e-14

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            model = random_model(rng, 3)
            rho = random_hermitian(rng, 3)
            out = state_generator(model, rho)
            assert spectral_norm(out - adjoint(out)) <= 1e-10

    def test_true_adjoint_identity(self):
        # Tr(state_generator(rho) X) == Tr(rho (i[H,X] + S'L X L'S - 1/2{L'L,X}))
        # for every model, including nontrivial scattering.
        rng = np.random.default_rng(28)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            model = random_model(rng, d)
            h, l, s = model.hamiltonian, model.coupling, model.scattering
            rho, x = random_complex(rng, d), random_complex(rng, d)
            ldl = adjoint(l) @ l
            adj = 1j * commutator(h, x) + adjoint(s) @ l @ x @ adjoint(l) @ s - 0.5 * (ldl @ x + x @ ldl)
            lhs = np.trace(state_generator(model, rho) @ x)
            rhs = np.trace(rho @ adj)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_documented_nonduality_with_flow_generator(self, damping_model):
        # The state drift is not the trace-dual of the flow drift: the
        # ground state paired with the excited projector witnesses a gap
        # of exactly one at unit rate.
        lhs = np.trace(state_generator(damping_model, GROUND) @ NUMBER)
        rhs = np.trace(GROUND @ flow_generator(damping_model, NUMBER))
        assert abs(lhs - rhs) == pytest.approx(1.0, abs=1e-12)


class TestStateNoiseCoefficients:
    def test_maximally_mixed_gives_zero(self):
        rng = np.random.default_rng(29)
        model = random_model(rng, 4)
        coeffs = state_noise_coefficients(model, np.eye(4) / 4)
        for c in coeffs:
            assert spectral_norm(c) <= 1e-12

    def test_gauge_vanishes_without_scattering(self, damping_model):
        rng = np.random.default_rng(30)
        coeffs = state_noise_coefficients(damping_model, random_density(rng, 2))
        assert spectral_norm(coeffs.gauge) <= 1e-14

    def test_damping_coefficients_on_excited_state(self):
        gamma = 0.49
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(gamma) * SIGMA_MINUS)
        coeffs = state_noise_coefficients(model, NUMBER)
        # [N, sqrt(gamma) sigma_plus] = +sqrt(gamma) sigma_plus and
        # sqrt(gamma) [sigma_minus, N] = +sqrt(gamma) sigma_minus.
        assert np.allclose(coeffs.annihilation, np.sqrt(gamma) * SIGMA_PLUS)
        assert np.allclose(coeffs.creation, np.sqrt(gamma) * SIGMA_MINUS)


class TestEquilibriumResidual:
    def test_scalars_are_flow_equilibria(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            model = random_model(rng, 3)
            c = rng.normal()
            assert equilibrium_residual(model, c * np.eye(3), "flow") <= 1e-12

    def test_maximally_mixed_is_state_equilibrium_for_damping(self):
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=0.7 * SIGMA_MINUS)
        assert equilibrium_residual(model, EYE2 / 2, "state") <= 1e-14

    def test_excited_state_residual_is_sqrt_gamma(self):
        gamma = 0.49
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(gamma) * SIGMA_MINUS)
        assert equilibrium_residual(model, NUMBER, "state") == pytest.approx(np.sqrt(gamma))

    def test_unknown_picture(self, damping_model):
        with pytest.raises(ValueError):
            equilibrium_residual(damping_model, EYE2, "heisenberg")


def test_require_model_dim_names_the_first_input_of_another_dimension(damping_model):
    """An operator or a stack is sized by its last axis, anything else by its dim; None is skipped."""
    require_model_dim(damping_model, point=EYE2, stack=np.zeros((5, 2, 2)), state=QuantumState(EYE2 / 2), absent=None)
    with pytest.raises(DimensionMismatchError, match="^stack has dimension 3, model has dimension 2$"):
        require_model_dim(damping_model, point=EYE2, stack=np.zeros((4, 3, 3)), later=np.eye(4))


def test_scattering_defaults_to_identity(damping_model):
    assert np.array_equal(damping_model.scattering, EYE2)


def test_random_unitary_fixture_is_unitary():
    rng = np.random.default_rng(32)
    s = random_unitary(rng, 4)
    assert spectral_norm(adjoint(s) @ s - np.eye(4)) <= 1e-12
