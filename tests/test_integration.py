"""Cross-module scenarios beyond the worked qubit example.

Covers certification with nontrivial scattering, the support-mismatch rate
report, a three-level decay cascade (certificates, rate, and oracle
agreement in dimension 3 with a nonzero Hamiltonian), and simulator error
paths.
"""

import numpy as np
import pytest

from qstab import (
    CollisionConfig,
    DirectionFamily,
    LevelSetSpec,
    LyapunovCandidate,
    QsdeModel,
    QuantumState,
    UnsupportedScatteringError,
    canonicalize,
    check_exponential,
    check_local,
    estimate_max_rate,
    evaluate,
    flow_ito_coefficients,
    master_evolve,
    master_flow_expectation,
    recheck_witness,
    simulate_flow_expectation,
)
from conftest import EYE2, NUMBER, SIGMA_MINUS, SIGMA_X


class TestScatteringInvariance:
    """For scalar-coefficient candidates the drift carries no scattering
    (the S factors cancel inside the cross term), so certificates must not
    change when a unitary S is switched on."""

    def setup_method(self):
        phi = 0.9
        self.scatter = np.array(
            [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]], dtype=complex
        )
        self.plain = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS)
        self.scattered = QsdeModel(
            hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS, scattering=self.scatter
        )
        self.cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2))
        self.spec = LevelSetSpec(
            epsilon=1.0, sample_count=10, seed=19, family=DirectionFamily(directions=(NUMBER,))
        )

    def test_drift_identical_for_scalar_coefficients(self):
        x = -EYE2 + 0.7 * NUMBER
        k_plain = flow_ito_coefficients(self.plain, self.cand, x).drift
        k_scat = flow_ito_coefficients(self.scattered, self.cand, x).drift
        assert np.allclose(k_plain, k_scat, atol=1e-12)

    def test_noise_coefficients_do_change(self):
        x = -EYE2 + 0.7 * NUMBER
        a_plain = flow_ito_coefficients(self.plain, self.cand, x).coeff_a
        a_scat = flow_ito_coefficients(self.scattered, self.cand, x).coeff_a
        assert not np.allclose(a_plain, a_scat, atol=1e-6)

    def test_certificates_agree(self):
        cert_plain = check_local(self.plain, self.cand, -EYE2, self.spec)
        cert_scat = check_local(self.scattered, self.cand, -EYE2, self.spec)
        assert cert_plain.passed and cert_scat.passed
        # identical samples and identical drift -> identical margins; the
        # equilibrium residual may differ by float dust in the gauge bracket
        assert cert_plain.worst_drift_eigenvalue == cert_scat.worst_drift_eigenvalue
        assert cert_plain.worst_v_min_eigenvalue == cert_scat.worst_v_min_eigenvalue
        assert cert_scat.equilibrium_residual <= 1e-12

    def test_rate_estimate_agrees(self):
        a = estimate_max_rate(self.plain, self.cand, -EYE2, self.spec).rate
        b = estimate_max_rate(self.scattered, self.cand, -EYE2, self.spec).rate
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(1.0, abs=1e-9)

    def test_simulator_rejects_scattering(self):
        excited = QuantumState.from_vector(np.array([1.0, 0.0]))
        with pytest.raises(UnsupportedScatteringError):
            simulate_flow_expectation(
                self.scattered, self.cand, np.diag([1.0, -1.0]), excited, CollisionConfig(dt=0.01, steps=2)
            )


class TestSupportMismatch:
    """V(X) = X |g><g| X along sigma_x directions: V is supported on |e>
    where the damping drift is strictly negative, but the drift carries an
    equal positive eigenvalue on |g> outside the support.  The rate report
    must still quote the on-support rate while flagging the mismatch, and
    the certificates must fail on global nonpositivity."""

    def setup_method(self):
        ground = np.diag([0.0, 1.0]).astype(complex)
        self.model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS)
        self.cand = canonicalize(LyapunovCandidate(terms=((1, 1, ground),)))
        self.center = np.zeros((2, 2))
        self.spec = LevelSetSpec(
            epsilon=1.0, sample_count=6, seed=3, family=DirectionFamily(directions=(SIGMA_X,))
        )

    def test_geometry(self):
        x = 0.8 * SIGMA_X
        v = evaluate(self.cand, x)
        k = flow_ito_coefficients(self.model, self.cand, x).drift
        assert np.allclose(v, np.diag([0.64, 0.0]), atol=1e-12)
        assert np.allclose(k, np.diag([-0.64, 0.64]), atol=1e-12)

    def test_rate_reported_with_mismatch_flag(self):
        est = estimate_max_rate(self.model, self.cand, self.center, self.spec)
        assert est.rate == pytest.approx(1.0, abs=1e-9)
        assert est.support_mismatch

    def test_certificates_fail_on_global_positivity(self):
        local = check_local(self.model, self.cand, self.center, self.spec)
        expo = check_exponential(self.model, self.cand, self.center, self.spec, rate=0.5)
        for cert in (local, expo):
            assert not cert.passed
            assert cert.violated_condition == "drift has a positive eigenvalue on a sample"
            assert recheck_witness(self.model, self.cand, cert) > 1e-9


class TestThreeLevelCascade:
    """Decay cascade 2 -> 1 -> 0 with rates 1.0 and 0.6 plus a diagonal
    Hamiltonian.  V(X) = (X + I)^2 certifies along the top-level projector
    (drift -gamma_21 y^2 P_2) and fails along the ground projector, and the
    collision chain agrees with the master oracle in dimension 3."""

    def setup_method(self):
        coupling = np.zeros((3, 3), dtype=complex)
        coupling[1, 2] = np.sqrt(1.0)
        coupling[0, 1] = np.sqrt(0.6)
        self.model = QsdeModel(
            hamiltonian=np.diag([0.3, 0.1, -0.4]).astype(complex), coupling=coupling
        )
        self.eye = np.eye(3, dtype=complex)
        self.cand = canonicalize(LyapunovCandidate(terms=((1, 1, self.eye),), center=-self.eye))
        self.p_top = np.diag([0.0, 0.0, 1.0]).astype(complex)
        self.p_ground = np.diag([1.0, 0.0, 0.0]).astype(complex)

    def spec_for(self, direction):
        return LevelSetSpec(
            epsilon=1.0, sample_count=8, seed=33, family=DirectionFamily(directions=(direction,))
        )

    def test_top_family_drift_formula(self):
        for y in (0.3, 1.0):
            drift = flow_ito_coefficients(self.model, self.cand, -self.eye + y * self.p_top).drift
            assert np.allclose(drift, -1.0 * y**2 * self.p_top, atol=1e-12)

    def test_top_family_certifies_at_top_rate(self):
        spec = self.spec_for(self.p_top)
        assert check_local(self.model, self.cand, -self.eye, spec).passed
        est = estimate_max_rate(self.model, self.cand, -self.eye, spec)
        assert est.rate == pytest.approx(1.0, abs=1e-9)

    def test_ground_family_fails_at_lower_rate_scale(self):
        spec = self.spec_for(self.p_ground)
        cert = check_local(self.model, self.cand, -self.eye, spec)
        assert not cert.passed
        assert recheck_witness(self.model, self.cand, cert) > 1e-9

    def test_collision_matches_master_in_dim_3(self):
        # start in the top level, watch the top occupation decay at rate 1
        psi0 = QuantumState.from_vector(np.array([0.0, 0.0, 1.0]))
        v_top = LyapunovCandidate(terms=((1, 0, 0.5 * self.eye), (0, 1, 0.5 * self.eye)))
        coll = simulate_flow_expectation(
            self.model, v_top, self.p_top, psi0, CollisionConfig(dt=1e-2, steps=8)
        )
        oracle = master_flow_expectation(self.model, v_top, self.p_top, psi0, coll.times)
        assert np.allclose(oracle.v_expect, np.exp(-1.0 * coll.times), atol=1e-10)
        assert np.max(np.abs(coll.v_expect - oracle.v_expect)) <= 0.01

    def test_master_evolve_reaches_ground(self):
        psi0 = QuantumState.from_vector(np.array([0.0, 0.0, 1.0]))
        final = master_evolve(self.model, psi0, np.array([0.0, 50.0]))[-1]
        assert final[0, 0].real == pytest.approx(1.0, abs=1e-6)


class TestGridValidation:
    def test_master_evolve_rejects_bad_grids(self, damping_model):
        rho0 = QuantumState.maximally_mixed(2)
        with pytest.raises(ValueError):
            master_evolve(damping_model, rho0, np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            master_evolve(damping_model, rho0, np.array([0.0, 0.2, 0.1]))
