import numpy as np
import pytest

from qstab import (
    InvalidCandidateError,
    LyapunovCandidate,
    QsdeModel,
    adjoint,
    canonicalize,
    evaluate,
    flow_generator,
    flow_ito_coefficients,
    flow_noise_coefficients,
    spectral_norm,
    state_generator,
    state_ito_coefficients,
    state_noise_coefficients,
)

from conftest import (
    EYE2,
    NUMBER,
    SIGMA_MINUS,
    SIGMA_Z,
    random_complex,
    random_hermitian,
    random_model,
)


def terms_as_dict(candidate):
    return {(n, m): theta for n, m, theta in candidate.terms}


class TestCanonicalize:
    def test_square_around_scalar_center(self):
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2))
        got = terms_as_dict(cand)
        assert set(got) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for theta in got.values():
            assert np.allclose(theta, EYE2)

    def test_zero_center_is_identity(self):
        cand = canonicalize(LyapunovCandidate(terms=((2, 1, SIGMA_Z), (1, 2, SIGMA_Z)), center=np.zeros((2, 2))))
        assert set(terms_as_dict(cand)) == {(1, 2), (2, 1)}
        assert cand.center is None

    def test_unclosed_terms_rejected_without_flag(self):
        theta = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidCandidateError, match="not closed"):
            canonicalize(LyapunovCandidate(terms=((1, 1, theta),)))

    def test_auto_closure_takes_hermitian_part(self):
        theta = np.array([[1.0, 2.0], [0.0, 1.0]])
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, theta),)), hermitian_closure=True)
        got = terms_as_dict(cand)
        assert np.allclose(got[(1, 1)], (theta + adjoint(theta)) / 2)

    def test_idempotent(self, damping_candidate):
        again = canonicalize(damping_candidate)
        assert terms_as_dict(again).keys() == terms_as_dict(damping_candidate).keys()
        for key, theta in terms_as_dict(again).items():
            assert np.array_equal(theta, terms_as_dict(damping_candidate)[key])

    def test_degree_bound(self):
        with pytest.raises(InvalidCandidateError, match="degree"):
            canonicalize(LyapunovCandidate(terms=((4, 3, EYE2),)))

    def test_empty_candidate(self):
        with pytest.raises(InvalidCandidateError, match="empty"):
            canonicalize(LyapunovCandidate(terms=()))

    def test_fractional_exponents_rejected(self):
        with pytest.raises(InvalidCandidateError, match="exponents"):
            LyapunovCandidate(terms=((1.5, 0, EYE2),))
        with pytest.raises(InvalidCandidateError, match="exponents"):
            LyapunovCandidate(terms=((-1, 0, EYE2),))

    def test_matrix_center_bilinear_ok(self):
        rng = np.random.default_rng(40)
        c = random_hermitian(rng, 2)
        x = random_hermitian(rng, 2)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=c))
        direct = (x - c) @ (x - c)
        assert np.allclose(evaluate(cand, x), direct, atol=1e-12)

    def test_matrix_center_high_degree_rejected(self):
        rng = np.random.default_rng(41)
        c = random_hermitian(rng, 2) + np.array([[0.0, 0.3], [0.3, 0.0]])
        with pytest.raises(InvalidCandidateError, match="scalar center"):
            canonicalize(LyapunovCandidate(terms=((2, 2, EYE2),), center=c))

    def test_scalar_center_matches_direct_evaluation(self):
        rng = np.random.default_rng(42)
        lam = 0.7
        cand0 = LyapunovCandidate(terms=((2, 2, EYE2), (1, 0, SIGMA_Z), (0, 1, SIGMA_Z)), center=lam * EYE2)
        cand = canonicalize(cand0)
        for _ in range(10):
            x = random_hermitian(rng, 2)
            y = x - lam * EYE2
            direct = y @ y @ y @ y + y @ SIGMA_Z + SIGMA_Z @ y
            assert np.allclose(evaluate(cand, x), direct, atol=1e-10)


class TestEvaluate:
    def test_linear_term_is_identity_map(self):
        cand = canonicalize(LyapunovCandidate(terms=((1, 0, EYE2), (0, 1, EYE2))))
        rng = np.random.default_rng(43)
        x = random_hermitian(rng, 2)
        assert np.allclose(evaluate(cand, x), 2 * x)

    def test_square_at_sigma_z(self, damping_candidate):
        assert np.allclose(evaluate(damping_candidate, SIGMA_Z), np.diag([4.0, 0.0]))

    def test_vanishes_at_center(self, damping_candidate):
        assert spectral_norm(evaluate(damping_candidate, -EYE2)) <= 1e-14

    def test_uncanonicalized_center_evaluates_directly(self):
        cand = LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2)
        assert np.allclose(evaluate(cand, SIGMA_Z), np.diag([4.0, 0.0]))

    def test_hermitian_output_for_closed_candidate(self):
        rng = np.random.default_rng(44)
        theta = random_complex(rng, 3)
        cand = canonicalize(
            LyapunovCandidate(terms=((2, 1, theta), (1, 2, adjoint(theta)))),
        )
        x = random_hermitian(rng, 3)
        v = evaluate(cand, x)
        assert spectral_norm(v - adjoint(v)) <= 1e-12


# --- independent oracle: a tiny symbolic product-rule engine -----------------
#
# A differential is a dict {dt: A, dA: B, dAdag: C, dLambda: D} of coefficient
# matrices.  Multiplying two differentials routes coefficient products through
# the multiplication table; combining d(P Theta Q) from dP, dQ and the cross
# term gives the coefficients of dV without using the library's assembly.

_TABLE = {
    ("dA", "dAdag"): "dt",
    ("dLambda", "dLambda"): "dLambda",
    ("dLambda", "dAdag"): "dAdag",
    ("dA", "dLambda"): "dA",
}


def _differential(model, op, picture):
    if picture == "flow":
        gen = flow_generator(model, op)
        noise = flow_noise_coefficients(model, op)
    else:
        gen = state_generator(model, op)
        noise = state_noise_coefficients(model, op)
    return {"dt": gen, "dA": noise.annihilation, "dAdag": noise.creation, "dLambda": noise.gauge}


def _ito_product(left, right, theta):
    out = {}
    for kl, a in left.items():
        for kr, b in right.items():
            key = _TABLE.get((kl, kr))
            if key is not None:
                out[key] = out.get(key, 0) + a @ theta @ b
    return out


def _reference_coefficients(model, candidate, point, picture):
    dim = point.shape[0]
    powers = [np.eye(dim, dtype=complex)]
    deg = max(max(n, m) for n, m, _ in candidate.terms)
    for _ in range(deg):
        powers.append(powers[-1] @ point)
    total = {k: np.zeros((dim, dim), complex) for k in ("dt", "dA", "dAdag", "dLambda")}
    for n, m, theta in candidate.terms:
        dp = _differential(model, powers[n], picture)
        dq = _differential(model, powers[m], picture)
        for key, coeff in dp.items():
            total[key] = total[key] + coeff @ theta @ powers[m]
        for key, coeff in dq.items():
            total[key] = total[key] + powers[n] @ theta @ coeff
        for key, coeff in _ito_product(dp, dq, theta).items():
            total[key] = total[key] + coeff
    return total


def test_flow_coefficients_match_verbatim_formulas():
    # Literal transcription of the four flow-coefficient expressions for a
    # single sandwich term, with the gauge bracket folded into the dA/dA†
    # lines exactly as grouped in the closed form:
    #   drift = G(P) T Q + P T G(Q) + [L',P]S T S'[Q,L]
    #   dA    = [L',P]S T {Q + [S'Q,S]} + P T [L',Q]S
    #   dA'   = {P + [S'P,S]} T S'[Q,L] + S'[P,L] T Q
    #   dLam  = {P + [S'P,S]} T [S'Q,S] + [S'P,S] T Q
    rng = np.random.default_rng(52)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        model = random_model(rng, d)
        l, s = model.coupling, model.scattering
        theta = random_hermitian(rng, d)
        n, m = 2, 1
        x = random_hermitian(rng, d)
        p = np.linalg.matrix_power(x, n)
        q = np.linalg.matrix_power(x, m)

        def comm(a, b):
            return a @ b - b @ a

        gauge_p = comm(adjoint(s) @ p, s)
        gauge_q = comm(adjoint(s) @ q, s)
        drift = (
            flow_generator(model, p) @ theta @ q
            + p @ theta @ flow_generator(model, q)
            + comm(adjoint(l), p) @ s @ theta @ adjoint(s) @ comm(q, l)
        )
        c_a = comm(adjoint(l), p) @ s @ theta @ (q + gauge_q) + p @ theta @ comm(adjoint(l), q) @ s
        c_adag = (p + gauge_p) @ theta @ adjoint(s) @ comm(q, l) + adjoint(s) @ comm(p, l) @ theta @ q
        c_gauge = (p + gauge_p) @ theta @ gauge_q + gauge_p @ theta @ q

        # Hermitian-closed pair so the library accepts the candidate; undo
        # the closure by comparing against the verbatim sum for both terms.
        cand = canonicalize(
            LyapunovCandidate(terms=((n, m, theta), (m, n, adjoint(theta)))), hermitian_closure=False
        )
        lib = flow_ito_coefficients(model, cand, x)
        mirror = {
            "drift": flow_generator(model, q) @ adjoint(theta) @ p
            + q @ adjoint(theta) @ flow_generator(model, p)
            + comm(adjoint(l), q) @ s @ adjoint(theta) @ adjoint(s) @ comm(p, l),
            "coeff_a": comm(adjoint(l), q) @ s @ adjoint(theta) @ (p + gauge_p)
            + q @ adjoint(theta) @ comm(adjoint(l), p) @ s,
            "coeff_adag": (q + gauge_q) @ adjoint(theta) @ adjoint(s) @ comm(p, l)
            + adjoint(s) @ comm(q, l) @ adjoint(theta) @ p,
            "coeff_gauge": (q + gauge_q) @ adjoint(theta) @ gauge_p + gauge_q @ adjoint(theta) @ p,
        }
        scale = max(1.0, spectral_norm(x)) ** 3
        assert spectral_norm(lib.drift - (drift + mirror["drift"])) <= 1e-10 * scale
        assert spectral_norm(lib.coeff_a - (c_a + mirror["coeff_a"])) <= 1e-10 * scale
        assert spectral_norm(lib.coeff_adag - (c_adag + mirror["coeff_adag"])) <= 1e-10 * scale
        assert spectral_norm(lib.coeff_gauge - (c_gauge + mirror["coeff_gauge"])) <= 1e-10 * scale


@pytest.mark.parametrize("picture", ["flow", "state"])
def test_ito_bookkeeping_matches_product_rule_engine(picture):
    rng = np.random.default_rng(45)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        model = random_model(rng, d)
        theta = random_hermitian(rng, d)
        cand = canonicalize(
            LyapunovCandidate(terms=((2, 2, np.eye(d)), (1, 1, theta), (1, 0, np.eye(d)), (0, 1, np.eye(d))))
        )
        point = random_hermitian(rng, d)
        lib = flow_ito_coefficients(model, cand, point) if picture == "flow" else state_ito_coefficients(model, cand, point)
        ref = _reference_coefficients(model, cand, point, picture)
        scale = max(1.0, spectral_norm(point)) ** 4
        assert spectral_norm(lib.drift - ref["dt"]) <= 1e-10 * scale
        assert spectral_norm(lib.coeff_a - ref["dA"]) <= 1e-10 * scale
        assert spectral_norm(lib.coeff_adag - ref["dAdag"]) <= 1e-10 * scale
        assert spectral_norm(lib.coeff_gauge - ref["dLambda"]) <= 1e-10 * scale


@pytest.mark.parametrize("picture", ["flow", "state"])
@pytest.mark.parametrize("scattering", [False, True])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_stacked_ito_coefficients_equal_single_calls(picture, scattering, dim):
    """An (N, d, d) stack of points gives each member's four coefficients bit for bit."""
    rng = np.random.default_rng(dim + 10 * scattering)
    model = random_model(rng, dim, scattering=scattering)
    theta = 0.3 * random_complex(rng, dim)
    eye = np.eye(dim)
    cand = canonicalize(
        LyapunovCandidate(
            terms=((2, 2, eye), (1, 1, theta @ theta.conj().T), (2, 1, theta), (1, 2, theta.conj().T)), center=-eye
        )
    )
    ito = flow_ito_coefficients if picture == "flow" else state_ito_coefficients
    points = np.stack([random_hermitian(rng, dim) for _ in range(7)])
    stacked = ito(model, cand, points)
    for i, x in enumerate(points):
        single = ito(model, cand, x)
        for name in ("drift", "coeff_a", "coeff_adag", "coeff_gauge"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(single, name))


class TestFlowItoCoefficients:
    def test_linear_candidate_reduces_to_model_coefficients(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            model = random_model(rng, d)
            cand = LyapunovCandidate(terms=((1, 0, np.eye(d)), (0, 1, np.eye(d))))
            # V(X) = 2X for Hermitian closure; halve to compare with X.
            x = random_hermitian(rng, d)
            out = flow_ito_coefficients(model, cand, x)
            noise = flow_noise_coefficients(model, x)
            assert np.allclose(out.drift / 2, flow_generator(model, x), atol=1e-12)
            assert np.allclose(out.coeff_a / 2, noise.annihilation, atol=1e-12)
            assert np.allclose(out.coeff_adag / 2, noise.creation, atol=1e-12)
            assert np.allclose(out.coeff_gauge / 2, noise.gauge, atol=1e-12)

    def test_pure_power_drift_is_generator_of_power(self):
        # V(X) = X^n I X^m flows as X^(n+m): the drift must equal the
        # generator applied to the full power.
        rng = np.random.default_rng(47)
        for n, m in [(1, 1), (2, 0), (2, 1), (0, 3), (2, 2)]:
            d = int(rng.integers(2, 5))
            model = random_model(rng, d)
            cand = LyapunovCandidate(terms=((n, m, np.eye(d)),))
            x = random_hermitian(rng, d)
            drift = flow_ito_coefficients(model, cand, x).drift
            target = flow_generator(model, np.linalg.matrix_power(x, n + m))
            assert spectral_norm(drift - target) <= 1e-10 * max(1.0, spectral_norm(target))

    def test_worked_damping_family_drift(self, damping_model, damping_candidate):
        for y in (0.2, 0.5, 1.0, 2.0):
            x = -EYE2 + y * NUMBER
            drift = flow_ito_coefficients(damping_model, damping_candidate, x).drift
            assert np.allclose(drift, -(y**2) * NUMBER, atol=1e-12)

    def test_hermitian_drift(self):
        rng = np.random.default_rng(48)
        theta = random_complex(rng, 3)
        cand = canonicalize(LyapunovCandidate(terms=((2, 1, theta), (1, 2, adjoint(theta)))))
        model = random_model(rng, 3)
        x = random_hermitian(rng, 3)
        drift = flow_ito_coefficients(model, cand, x).drift
        assert spectral_norm(drift - adjoint(drift)) <= 1e-10

    def test_linearity_in_theta(self):
        rng = np.random.default_rng(49)
        model = random_model(rng, 2)
        x = random_hermitian(rng, 2)
        t1, t2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
        a, b = rng.normal(), rng.normal()
        out1 = flow_ito_coefficients(model, LyapunovCandidate(terms=((1, 1, t1),)), x)
        out2 = flow_ito_coefficients(model, LyapunovCandidate(terms=((1, 1, t2),)), x)
        combo = flow_ito_coefficients(model, LyapunovCandidate(terms=((1, 1, a * t1 + b * t2),)), x)
        for field in ("drift", "coeff_a", "coeff_adag", "coeff_gauge"):
            lhs = getattr(combo, field)
            rhs = a * getattr(out1, field) + b * getattr(out2, field)
            assert spectral_norm(lhs - rhs) <= 1e-12 * max(1.0, spectral_norm(rhs))


class TestStateItoCoefficients:
    def test_linear_candidate_reduces_to_model_coefficients(self):
        rng = np.random.default_rng(50)
        model = random_model(rng, 3)
        cand = LyapunovCandidate(terms=((1, 0, np.eye(3)), (0, 1, np.eye(3))))
        rho = random_hermitian(rng, 3)
        out = state_ito_coefficients(model, cand, rho)
        noise = state_noise_coefficients(model, rho)
        assert np.allclose(out.drift / 2, state_generator(model, rho), atol=1e-12)
        assert np.allclose(out.coeff_a / 2, noise.annihilation, atol=1e-12)
        assert np.allclose(out.coeff_adag / 2, noise.creation, atol=1e-12)
        assert np.allclose(out.coeff_gauge / 2, noise.gauge, atol=1e-12)

    def test_maximally_mixed_point_kills_all_coefficients(self):
        rng = np.random.default_rng(51)
        model = random_model(rng, 2)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2))
        out = state_ito_coefficients(model, cand, EYE2 / 2)
        for field in ("drift", "coeff_a", "coeff_adag", "coeff_gauge"):
            assert spectral_norm(getattr(out, field)) <= 1e-12

    def test_diagonal_qubit_states_have_zero_drift(self):
        # V(rho) = (rho - I/2)^2 along amplitude damping: the drift is
        # gamma (q - p)(q + p - 1) N, identically zero on unit-trace
        # diagonal states.
        gamma = 1.3
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(gamma) * SIGMA_MINUS)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2))
        for p in (0.0, 0.2, 0.5, 0.9, 1.0):
            rho = np.diag([p, 1.0 - p]).astype(complex)
            drift = state_ito_coefficients(model, cand, rho).drift
            assert spectral_norm(drift) <= 1e-12

    def test_diagonal_drift_formula_off_unit_trace(self):
        gamma = 0.7
        model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(gamma) * SIGMA_MINUS)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2))
        p, q = 0.3, 0.9  # trace != 1 makes the drift visible
        drift = state_ito_coefficients(model, cand, np.diag([p, q]).astype(complex)).drift
        assert np.allclose(drift, gamma * (q - p) * (q + p - 1) * NUMBER, atol=1e-12)
