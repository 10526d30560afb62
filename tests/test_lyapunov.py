import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstab.lyapunov
from qstab import (
    InvalidCandidateError,
    InvalidModelError,
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
    eager_ito_coefficients,
    random_complex,
    random_hermitian,
    random_model,
    reference_evaluate,
    reference_expand,
    reference_ray_coefficients,
)
from qstab.certify import _ray_exits, _rounding
from qstab.lyapunov import _ito_coefficients, _offset, _sandwich


def terms_as_dict(candidate):
    return {(n, m): theta for n, m, theta in candidate.terms}


class TestCanonicalize:
    def test_square_around_scalar_center(self):
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2))
        got = terms_as_dict(cand)
        assert set(got) == {(1, 1)}
        assert np.array_equal(got[(1, 1)], EYE2)
        assert np.array_equal(cand.center, -EYE2)

    def test_canonical_means_returned_by_canonicalize(self):
        cand = LyapunovCandidate(terms=((1, 1, EYE2),))
        assert not cand.is_canonical
        once = canonicalize(cand)
        assert once.is_canonical and canonicalize(once) is once
        assert not dataclasses.replace(once).is_canonical

    def test_zero_center_is_identity(self):
        cand = canonicalize(LyapunovCandidate(terms=((2, 1, SIGMA_Z), (1, 2, SIGMA_Z)), center=np.zeros((2, 2))))
        assert set(terms_as_dict(cand)) == {(1, 2), (2, 1)}
        assert cand.center is None

    def test_unclosed_terms_rejected_without_flag(self):
        theta = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidCandidateError, match="not closed"):
            canonicalize(LyapunovCandidate(terms=((1, 1, theta),)))

    @pytest.mark.parametrize("scale", [1e2, 1e3, 1e4, 1e6])
    def test_closure_is_judged_within_the_rounding_of_the_expansion(self, scale):
        # At a non-scalar center C the bilinear expansion builds -C Theta and -Theta C, and C Theta C, which are
        # adjoints of each other only up to rounding: 1.5e-8 at ||C|| ~ 1e4, above an absolute 1e-9.
        rng = np.random.default_rng(0)
        theta, center = random_hermitian(rng, 3), random_hermitian(rng, 3)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, theta),), center=scale * center))
        assert set(terms_as_dict(cand)) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    @pytest.mark.parametrize("scale", [0.0, 1.0, 1e2, 1e4, 1e6])
    def test_an_unclosed_term_list_is_rejected_at_every_center_scale(self, scale):
        # Theta is Hermitian but for 1e-6 of an anti-Hermitian part, which no rounding of the expansion explains.
        rng = np.random.default_rng(0)
        theta, center = random_hermitian(rng, 3) + 1e-6j * random_hermitian(rng, 3), random_hermitian(rng, 3)
        with pytest.raises(InvalidCandidateError, match="not closed"):
            canonicalize(LyapunovCandidate(terms=((1, 1, theta),), center=scale * center))

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

    def test_empty_and_over_degree_candidates_fail_at_construction(self):
        # Every entry point skips canonicalize for a candidate without a center, so the term list is checked
        # when it is built.
        with pytest.raises(InvalidCandidateError, match="empty candidate"):
            LyapunovCandidate(terms=())
        with pytest.raises(InvalidCandidateError, match="degree 10 exceeds bound 6"):
            LyapunovCandidate(terms=((5, 5, EYE2),))

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


COEFFICIENTS = ("drift", "coeff_a", "coeff_adag", "coeff_gauge")


def random_closed_candidate(rng, dim, degree, scalar=False):
    """Every (n, m) with n + m <= degree, closed under (n, m, Theta) <-> (m, n, Theta†); scalar Theta if asked."""
    terms = []
    for n in range(degree + 1):
        for m in range(n, degree - n + 1):
            theta = 0.3 * (rng.normal() * np.eye(dim) if scalar else random_complex(rng, dim))
            terms += [(n, m, theta), (m, n, theta.conj().T)] if n != m else [(n, n, theta + theta.conj().T)]
    return canonicalize(LyapunovCandidate(terms=tuple(terms)))


@pytest.mark.parametrize("picture", ["flow", "state"])
@pytest.mark.parametrize("scattering", [False, True])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_routed_assembly_equals_the_eager_one_bit_for_bit(picture, scattering, degree):
    """The routing table sums the same products in the same order as the four hand-written lines.

    The point powers and V come from the shared power engine, so V is compared with its earlier power loop too.
    """
    rng = np.random.default_rng(100 * degree + 10 * scattering + (picture == "state"))
    model = random_model(rng, 3, scattering=scattering)
    ito = flow_ito_coefficients if picture == "flow" else state_ito_coefficients
    cand = random_closed_candidate(rng, 3, degree)
    for point in (random_hermitian(rng, 3), np.stack([random_hermitian(rng, 3) for _ in range(5)])):
        assert np.array_equal(evaluate(cand, point), reference_evaluate(cand, point))
        routed, eager = ito(model, cand, point), eager_ito_coefficients(model, cand, point, picture)
        for name in COEFFICIENTS:
            assert np.array_equal(getattr(routed, name), eager[name])


def centered_candidate(rng, dim, low, degree, scalar, lam):
    """Every (n, m) with low <= n + m <= degree around the center lam I, closed, with scalar Theta if asked."""
    terms = []
    for n in range(degree + 1):
        for m in range(n, degree - n + 1):
            theta = 0.3 * (rng.normal() * np.eye(dim) if scalar else random_complex(rng, dim))
            if n + m >= low:
                terms += [(n, m, theta), (m, n, theta.conj().T)] if n != m else [(n, n, theta + theta.conj().T)]
    return canonicalize(LyapunovCandidate(terms=tuple(terms), center=lam * np.eye(dim)))


@given(
    dim=st.integers(2, 4),
    degree=st.integers(1, 4),
    low=st.integers(0, 4),
    scalar=st.booleans(),
    lam=st.sampled_from([0.0, -1.0, -1.7, 3.3, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120)
def test_centered_candidate_agrees_with_its_expansion(dim, degree, low, scalar, lam, seed):
    """A kept scalar center gives V and the four flow and state Ito coefficients of the binomially expanded
    candidate within 256 eps sum_k ||Theta_k||_F (|lam| + ||X||)^(n_k + m_k) (H and L of unit norm); on a ray from
    the center the B_k below the lowest order are exact zeros; and canonicalize is idempotent, bit for bit."""
    rng = np.random.default_rng(seed)
    low = min(low, degree)
    cand = centered_candidate(rng, dim, low, degree, scalar, lam)
    assert (cand.center is None) == (lam == 0.0)
    expanded = reference_expand(cand)
    model = random_model(rng, dim)
    h, l = model.hamiltonian, model.coupling
    model = QsdeModel(hamiltonian=h / spectral_norm(h), coupling=l / spectral_norm(l), scattering=model.scattering)
    x = random_hermitian(rng, dim)
    radius = abs(lam) + spectral_norm(x)
    bound = 256 * np.finfo(float).eps * sum(np.linalg.norm(t) * radius ** (n + m) for n, m, t in cand.terms)
    assert spectral_norm(evaluate(cand, x) - evaluate(expanded, x)) <= bound
    for ito in (flow_ito_coefficients, state_ito_coefficients):
        centered, reference = ito(model, cand, x), ito(model, expanded, x)
        for name in COEFFICIENTS:
            assert spectral_norm(getattr(centered, name) - getattr(reference, name)) <= bound

    center, rays = lam * np.eye(dim), np.stack([random_hermitian(rng, dim) for _ in range(3)])
    assert cand.center is None or np.array_equal(cand.center, center)
    b = _sandwich(cand.terms, np.zeros((degree + 1, 3, dim, dim), dtype=complex), _offset(cand, center), rays)
    assert not b[:low].any()

    assert canonicalize(cand) is cand
    again = canonicalize(LyapunovCandidate(terms=cand.terms, center=cand.center))
    assert [(n, m) for n, m, _ in again.terms] == [(n, m) for n, m, _ in cand.terms]
    assert again.center is None if cand.center is None else np.array_equal(again.center, cand.center)
    assert all(np.array_equal(a, t) for (_, _, a), (_, _, t) in zip(again.terms, cand.terms))


@given(
    dim=st.integers(2, 4),
    degree=st.integers(0, 4),
    low=st.integers(0, 4),
    lam=st.sampled_from([0.0, -1.0, 3.3]),
    picture=st.sampled_from(["flow", "state"]),
    stack=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200)
def test_scalar_theta_coefficients_agree_with_the_product_rule(dim, degree, low, lam, picture, stack, seed):
    """For scalar Theta the four coefficients are the model's maps at V(X), a homomorphism for unitary S != I; they
    equal the eager product rule over the powers of Y within 256 eps sum_k ||Theta_k||_F max(1, |lam| + ||X||)^(n_k
    + m_k) (H and L of unit norm), with constant terms, at a point and on a stack."""
    rng = np.random.default_rng(seed)
    cand = centered_candidate(rng, dim, min(low, degree), degree, True, lam)
    model = random_model(rng, dim)
    h, l = model.hamiltonian, model.coupling
    model = QsdeModel(hamiltonian=h / spectral_norm(h), coupling=l / spectral_norm(l), scattering=model.scattering)
    x = np.stack([random_hermitian(rng, dim) for _ in range(5)]) if stack else random_hermitian(rng, dim)
    ito = flow_ito_coefficients if picture == "flow" else state_ito_coefficients
    coeffs, eager = ito(model, cand, x), eager_ito_coefficients(model, cand, x, picture)
    powers, v = [], evaluate(cand, x)
    with mock.patch.object(qstab.lyapunov, "_powers", lambda *args: powers.append(args)):
        from_v = _ito_coefficients(model, cand, x, picture, COEFFICIENTS, v)
    assert powers == []  # given V(X), the coefficients come from it, not from the powers of Y
    assert all(np.array_equal(getattr(coeffs, name), a) for name, a in zip(COEFFICIENTS, from_v))
    bound = _rounding(cand, max(1.0, abs(lam) + np.max(spectral_norm(x))))
    for name in COEFFICIENTS:
        assert np.all(spectral_norm(getattr(coeffs, name) - eager[name]) <= bound)


class TestRayCoefficients:
    """On a ray C + sD the power engine gives the coefficients A_{n,i} of (C + sD)^n and V = sum_k s^k B_k."""

    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_equal_the_reference_recurrence(self, degree, scalar):
        rng = np.random.default_rng(400 + 10 * degree + scalar)
        cand = random_closed_candidate(rng, 3, degree, scalar)
        center, rays = random_hermitian(rng, 3), np.stack([random_hermitian(rng, 3) for _ in range(4)])
        reference = reference_ray_coefficients(cand, center, rays)
        assert np.array_equal(_sandwich(cand.terms, np.zeros_like(reference), center, rays), reference)

    def test_a_constant_candidate_has_no_exit(self):
        rng = np.random.default_rng(5)
        cand = random_closed_candidate(rng, 3, 0)
        rays = np.stack([random_hermitian(rng, 3) for _ in range(3)])
        epsilon = spectral_norm(cand.terms[0][2]) + 1.0
        assert np.all(_ray_exits(cand, np.zeros((3, 3)), rays, epsilon, 1e-9)[0] == np.inf)

    @pytest.mark.parametrize("epsilon, lam", [(1e-300, 1e30), (1e300, 1e-30)], ids=["underflow", "overflow"])
    def test_a_homogeneous_exit_outside_the_range_of_eps_over_lambda(self, epsilon, lam):
        # V = lam s^2 D^2: eps / lam is not a normal float, but its square root is.
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, lam * EYE2),), center=-EYE2))
        rays = np.stack([NUMBER, SIGMA_Z])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            exits = _ray_exits(cand, -EYE2, rays, epsilon, 1e-9)[0]
        np.testing.assert_allclose(exits, np.sqrt(epsilon) / np.sqrt(lam), rtol=4 * np.finfo(float).eps)

    def test_a_homogeneous_exit_inside_the_normal_range_is_the_closed_form(self):
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, 1e30 * EYE2),), center=-EYE2))
        exits, (_, lead) = _ray_exits(cand, -EYE2, np.stack([NUMBER, SIGMA_Z]), 1e-200, 1e-9)
        assert np.array_equal(exits, (1e-200 / lead[:, -1]) ** 0.5)


@given(
    dim=st.integers(2, 4),
    degree=st.integers(0, 4),
    scalar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    s=st.floats(0.0, 3.0),
)
@settings(max_examples=200)
def test_ray_coefficients_sum_to_the_value_on_the_ray(dim, degree, scalar, seed, s):
    """sum_k s^k B_k equals V(C + sD) on a unit ray within the forward-error bound of V at ||C|| + s."""
    rng = np.random.default_rng(seed)
    cand = random_closed_candidate(rng, dim, degree, scalar)
    center, ray = random_hermitian(rng, dim), random_hermitian(rng, dim)
    ray = ray / spectral_norm(ray)
    b = _sandwich(cand.terms, np.zeros((degree + 1, 1, dim, dim), dtype=complex), center, ray[None])
    on_ray = sum(s**k * b[k, 0] for k in range(degree + 1))
    assert spectral_norm(on_ray - evaluate(cand, center + s * ray)) <= _rounding(cand, spectral_norm(center) + s)


class TestLazyNoiseCoefficients:
    """A caller names the coefficients it reads, and only the parts that their routes read are built."""

    @staticmethod
    def spy_on_parts(monkeypatch, picture):
        """The (part, power) pairs that the picture's generator and noise parts are called on, in call order."""
        built, name = [], f"{picture.upper()}_NOISE_PARTS"
        parts, generator = getattr(qstab.lyapunov, name), getattr(qstab.lyapunov, f"{picture}_generator")
        spies = {part: lambda model, x, part=part, f=f: built.append((part, x)) or f(model, x) for part, f in parts.items()}
        monkeypatch.setattr(qstab.lyapunov, name, spies)
        monkeypatch.setattr(
            qstab.lyapunov, f"{picture}_generator", lambda model, x: built.append(("generator", x)) or generator(model, x)
        )
        return built

    def test_reading_the_drift_builds_no_noise_coefficient(self, monkeypatch):
        built = self.spy_on_parts(monkeypatch, "flow")
        rng = np.random.default_rng(7)
        model, cand, x = random_model(rng, 3), random_closed_candidate(rng, 3, 3, scalar=True), random_hermitian(rng, 3)
        [drift] = _ito_coefficients(model, cand, x, "flow", ("drift",))
        assert [part for part, _ in built] == ["generator"]  # scalar Theta: the generator at V alone
        assert np.array_equal(built[0][1], evaluate(cand, x))
        assert np.array_equal(drift, flow_generator(model, evaluate(cand, x)))

    def test_a_part_is_built_once_and_only_at_a_power_a_term_reads(self, monkeypatch):
        built = self.spy_on_parts(monkeypatch, "flow")
        rng = np.random.default_rng(9)
        cand, x = canonicalize(LyapunovCandidate(terms=((2, 2, random_hermitian(rng, 3)),))), random_hermitian(rng, 3)
        _ito_coefficients(random_model(rng, 3), cand, x, "flow", COEFFICIENTS)
        assert sorted(part for part, _ in built) == ["annihilation", "creation", "gauge", "generator"]
        assert all(np.array_equal(p, x @ x) for _, p in built)  # none at I or Y: no term reads them

    @pytest.mark.parametrize("picture", ["flow", "state"])
    def test_reading_the_drift_builds_no_gauge_part(self, monkeypatch, picture):
        built = self.spy_on_parts(monkeypatch, picture)
        rng = np.random.default_rng(8)
        model, cand = random_model(rng, 3, scattering=True), random_closed_candidate(rng, 3, 3)
        _ito_coefficients(model, cand, random_hermitian(rng, 3), picture, ("drift",))
        assert {part for part, _ in built} == {"generator", "annihilation", "creation"}
        assert len(built) == len({(part, id(p)) for part, p in built})  # each part at each power once

    def test_read_only(self):
        rng = np.random.default_rng(7)
        coeffs = flow_ito_coefficients(random_model(rng, 3), random_closed_candidate(rng, 3, 3), random_hermitian(rng, 3))
        for name in COEFFICIENTS:
            with pytest.raises(AttributeError):
                setattr(coeffs, name, np.zeros((3, 3)))

    def test_a_stability_check_routes_the_drift_alone(self, monkeypatch, damping_model, damping_candidate):
        from qstab import HermitianBall, LevelSetSpec, check_exponential, estimate_max_rate

        routed, built = [], []
        parts = qstab.lyapunov.FLOW_NOISE_PARTS
        spy = {name: lambda model, x, f=f: built.append(x) or f(model, x) for name, f in parts.items()}
        monkeypatch.setattr(qstab.lyapunov, "FLOW_NOISE_PARTS", spy)

        class Recording(dict):
            def __getitem__(self, name):
                routed.append(name)
                return super().__getitem__(name)

        monkeypatch.setattr(qstab.lyapunov, "_ITO_ROUTES", Recording(qstab.lyapunov._ITO_ROUTES))
        spec = LevelSetSpec(epsilon=0.5, sample_count=16, seed=3, family=HermitianBall(1.0))
        check_exponential(damping_model, damping_candidate, -EYE2, spec, 0.5)
        estimate_max_rate(damping_model, damping_candidate, -EYE2, spec)
        assert routed and set(routed) == {"drift"}
        assert built == []  # (X + I)^2 has a scalar Theta: the drift is the generator at V, and no noise part is built


@pytest.mark.parametrize("picture", ["flow", "state"])
@pytest.mark.parametrize("scalar", [False, True])
@pytest.mark.parametrize("stack", [False, True])
def test_each_public_coefficient_is_the_one_named_alone(picture, scalar, stack):
    rng = np.random.default_rng(20 + 4 * (picture == "state") + 2 * scalar + stack)
    model, cand = random_model(rng, 3, scattering=True), centered_candidate(rng, 3, 0, 3, scalar, -1.0)
    x = np.stack([random_hermitian(rng, 3) for _ in range(4)]) if stack else random_hermitian(rng, 3)
    coeffs = (flow_ito_coefficients if picture == "flow" else state_ito_coefficients)(model, cand, x)
    for name in COEFFICIENTS:
        [alone] = _ito_coefficients(model, cand, x, picture, (name,))
        assert np.array_equal(getattr(coeffs, name), alone)


@pytest.mark.parametrize("ito", [flow_ito_coefficients, state_ito_coefficients])
def test_the_public_ito_functions_reject_a_non_unitary_scattering(ito):
    rng = np.random.default_rng(21)
    model = QsdeModel(random_hermitian(rng, 2), random_complex(rng, 2), 2 * np.eye(2))
    with pytest.raises(InvalidModelError, match="S not unitary"):
        ito(model, LyapunovCandidate(terms=((1, 1, np.eye(2)),)), random_hermitian(rng, 2))


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
