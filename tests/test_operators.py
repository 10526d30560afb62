import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstab.operators
from qstab import (
    DimensionMismatchError,
    InvalidOperatorError,
    InvalidStateError,
    LyapunovCandidate,
    NonHermitianError,
    QuantumState,
    adjoint,
    anticommutator,
    as_operator,
    commutator,
    canonicalize,
    evaluate,
    expectation,
    hermitian_eigenvalues,
    hermiticity_defect,
    hermitize,
    spectral_norm,
)
from qstab.operators import _frobenius, _times, norm_above, require_density

from conftest import EYE2, KET_E, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, random_complex, random_hermitian


class TestAdjoint:
    def test_identity_self_adjoint(self):
        assert np.array_equal(adjoint(EYE2), EYE2)

    def test_sigma_minus_maps_to_sigma_plus(self):
        assert np.array_equal(adjoint(SIGMA_MINUS), SIGMA_PLUS)

    def test_scalar_conjugation(self):
        assert np.array_equal(adjoint(1j * EYE2), -1j * EYE2)

    def test_involution_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_complex(rng, int(rng.integers(1, 6)))
            assert np.array_equal(adjoint(adjoint(x)), x)


class TestCommutators:
    def test_identity_commutes(self):
        rng = np.random.default_rng(1)
        x = random_complex(rng, 4)
        assert np.allclose(commutator(x, np.eye(4)), 0)

    def test_pauli_commutator(self):
        assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)

    def test_self_commutator_zero(self):
        rng = np.random.default_rng(2)
        x = random_complex(rng, 3)
        assert np.allclose(commutator(x, x), 0)

    def test_anticommutator_with_identity(self):
        rng = np.random.default_rng(3)
        x = random_complex(rng, 3)
        assert np.allclose(anticommutator(x, np.eye(3)), 2 * x)

    def test_pauli_anticommutators(self):
        assert np.allclose(anticommutator(SIGMA_X, SIGMA_X), 2 * EYE2)
        assert np.allclose(anticommutator(SIGMA_X, SIGMA_Y), 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            commutator(EYE2, np.eye(3))
        with pytest.raises(DimensionMismatchError):
            anticommutator(EYE2, np.eye(3))

    def test_antisymmetry_and_bilinearity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x, y, z = (random_complex(rng, 3) for _ in range(3))
            a, b = rng.normal(), rng.normal()
            anti = commutator(x, y) + commutator(y, x)
            assert spectral_norm(anti) <= 1e-12 * max(1.0, spectral_norm(x) * spectral_norm(y))
            lin = commutator(a * x + b * y, z) - a * commutator(x, z) - b * commutator(y, z)
            assert spectral_norm(lin) <= 1e-12 * max(1.0, spectral_norm(z))

    def test_hermitian_inputs_give_antihermitian_commutator(self):
        rng = np.random.default_rng(5)
        x, y = random_hermitian(rng, 4), random_hermitian(rng, 4)
        c = commutator(x, y)
        assert np.allclose(adjoint(c), -c)
        a = anticommutator(x, y)
        assert np.allclose(adjoint(a), a)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_cstar_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = random_complex(rng, int(rng.integers(2, 6)))
            assert spectral_norm(adjoint(x) @ x) == pytest.approx(spectral_norm(x) ** 2, rel=1e-12)

    def test_submultiplicative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            x, y = random_complex(rng, d), random_complex(rng, d)
            assert spectral_norm(x @ y) <= spectral_norm(x) * spectral_norm(y) * (1 + 1e-12)

    def test_power_sandwich_bound(self):
        # ||X^n Theta X^m|| <= ||X||^(n+m) ||Theta|| for small exponents.
        rng = np.random.default_rng(9)
        for _ in range(60):
            d = int(rng.integers(2, 5))
            x, theta = random_complex(rng, d), random_complex(rng, d)
            n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            lhs = spectral_norm(np.linalg.matrix_power(x, n) @ theta @ np.linalg.matrix_power(x, m))
            rhs = spectral_norm(x) ** (n + m) * spectral_norm(theta)
            assert lhs <= rhs * (1 + 1e-12)


class TestHermitianEigenvalues:
    def test_sorted_ascending(self):
        vals = hermitian_eigenvalues(np.diag([2.0, -1.0, 0.5]))
        assert np.allclose(vals, [-1.0, 0.5, 2.0])

    def test_asymmetry_is_an_error_not_a_fix(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=1e-9)

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_spectral_defect_decides_where_frobenius_exceeds_tol(self, shape):
        # X - X† = 2ic I at d = 2 has spectral norm 2c and Frobenius norm 2c sqrt(2): the Frobenius screen
        # passes both matrices on to the SVD, whose norm alone decides.
        def skewed(defect):
            return np.broadcast_to(SIGMA_Z + 0.5j * defect * np.eye(2), (*shape, 2, 2))

        assert hermitian_eigenvalues(skewed(0.9e-9), tol=1e-9).shape == (*shape, 2)
        with pytest.raises(NonHermitianError, match=r"^matrix is not Hermitian within tolerance: defect 1\.100e-09 > "
                                                    r"1\.000e-09$"):
            hermitian_eigenvalues(skewed(1.1e-9), tol=1e-9)

    def test_no_svd_where_every_member_is_within_tol(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qstab.operators, "spectral_norm", lambda x: calls.append(x.shape) or spectral_norm(x))
        hermitian_eigenvalues(np.stack([SIGMA_Z + 0.15e-9j * np.eye(2)] * 3), tol=1e-9)
        assert calls == []  # Frobenius norm 0.3e-9 sqrt(2) <= tol/2: cleared
        hermitian_eigenvalues(np.stack([SIGMA_Z, SIGMA_Z + 0.25e-9j * np.eye(2)]), tol=1e-9)
        assert calls == [(1, 2, 2)]  # Frobenius norm 0.5e-9 sqrt(2) > tol/2: only that member gets an SVD; it passes


def _outcome(f, x):
    """f(x), or the type of what it raises."""
    try:
        return f(x)
    except np.linalg.LinAlgError as e:
        return type(e)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 5),
    tol=st.sampled_from([0.0, 1e-200, 1e-12, 1e-9, 1e-3, 1.0, 1e6]),
    # Spectral norms of the members in units of tol: about the Frobenius screen's tol/2 and the guard's tol.
    factors=st.lists(
        st.sampled_from([0.0, 1e-3, 0.5 - 5e-4, 0.5 + 5e-4, 1 - 1e-3, 1.0, 1 + 1e-3, 10.0]), min_size=1, max_size=6
    ),
    rank_one=st.lists(st.booleans(), min_size=6, max_size=6),
    nan_member=st.booleans(),
)
@settings(max_examples=300)
def test_norm_above_decides_and_reports_as_the_spectral_norm(seed, dim, tol, factors, rank_one, nan_member):
    rng = np.random.default_rng(seed)
    members = []
    for factor, one in zip(factors, rank_one):
        m = np.outer(random_complex(rng, dim)[:, 0], random_complex(rng, dim)[0]) if one else random_complex(rng, dim)
        members.append(m * (factor * (tol or 1e-9) / spectral_norm(m)))
    if nan_member:
        members[int(rng.integers(len(members)))][0, 0] = np.nan
    x = np.stack(members)
    for arg in (x, x[0]):
        got, exact = _outcome(lambda a: norm_above(a, tol), arg), _outcome(spectral_norm, arg)
        if isinstance(exact, type):  # a NaN member: the helper takes the SVD, so it fails the same way
            assert got is exact
            continue
        assert np.array_equal(got > tol, exact > tol)
        loose_exact = (got == exact) | (np.isnan(got) & np.isnan(exact))  # where the SVD is taken, bit for bit
        assert np.all(loose_exact | ((got == 0.0) & (exact <= tol / 2 * (1 + 1e-12))))


def test_norm_above_takes_no_svd_where_the_frobenius_bound_clears(monkeypatch):
    calls = []
    monkeypatch.setattr(qstab.operators, "spectral_norm", lambda x: calls.append(x.shape) or spectral_norm(x))
    x = np.stack([0.35 * SIGMA_X, 0.3 * SIGMA_Z, 0.6 * SIGMA_MINUS, 0.4 * SIGMA_X])  # ||.||_F 0.495, 0.42, 0.6, 0.57
    assert np.array_equal(norm_above(x, 1.0), [0.0, 0.0, 0.6, 0.4])
    assert calls == [(2, 2, 2)]
    assert norm_above(np.full((2, 2), 1e-160), 1e-200) == spectral_norm(np.full((2, 2), 1e-160))  # squares underflow
    assert norm_above(np.zeros((2, 2)), 0.0) == 0.0 and calls[-1] == (1, 2, 2)  # tol = 0 always takes the SVD


@pytest.mark.parametrize("tol", [1e-9, 1.0, 1e300])
def test_norm_above_takes_the_svd_where_the_frobenius_screen_overflows(tol):
    """Squares of entries of 1e200 overflow the screen to inf, without a warning; the SVD decides instead."""
    x = np.stack([np.full((2, 2), 1e200), 1e200 * SIGMA_MINUS, 0.1 * SIGMA_X])
    assert np.array_equal(norm_above(x, tol), [*spectral_norm(x[:2]), 0.1 if tol < 0.2 else 0.0])
    assert norm_above(x[0], tol) == spectral_norm(x[0]) == 2e200


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(["random", "zero", "negative zero", "nan"]), min_size=1, max_size=6),
)
@settings(max_examples=200)
def test_spectral_norm_is_the_svd_norm_bit_for_bit(seed, dim, kinds):
    """An exact zero takes no SVD and keeps LAPACK's 0.0; every member, and a single matrix as a float, has the
    bits of np.linalg.norm(x, 2), and a NaN member raises the same error."""
    rng = np.random.default_rng(seed)
    members = {"random": lambda: random_complex(rng, dim), "zero": lambda: np.zeros((dim, dim), complex),
               "negative zero": lambda: np.full((dim, dim), complex(-0.0, -0.0)),
               "nan": lambda: np.where(np.eye(dim, k=dim - 1) > 0, np.nan, random_complex(rng, dim))}
    x = np.stack([members[kind]() for kind in kinds])
    for arg in (x, x[0]):
        got, exact = _outcome(spectral_norm, arg), _outcome(lambda a: np.linalg.norm(a, 2, axis=(-2, -1)), arg)
        if isinstance(exact, type):
            assert got is exact
            continue
        assert type(got) is (float if arg.ndim == 2 else np.ndarray)
        assert np.asarray(got).tobytes() == exact.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    exponent=st.integers(-330, 310),
    spread=st.integers(0, 30),
    kind=st.sampled_from(["real", "complex"]),
)
@settings(max_examples=300)
def test_the_frobenius_norm_is_numpys_in_the_normal_range_and_within_2_eps_past_it(seed, dim, exponent, spread, kind):
    """Entries of magnitudes 10^(exponent +- spread), from 5e-324 to past the float range: where the exact sum of
    squares is a normal float (with a factor 4 of margin), the norm is ``np.linalg.norm``'s bit for bit; everywhere
    it is within 2 eps, relative, of the exact norm correctly rounded, inf where that is past the float range."""
    import decimal
    from fractions import Fraction

    rng = np.random.default_rng(seed)
    mantissas = rng.uniform(-1.0, 1.0, size=(2, dim, dim)) * (kind == "complex" or [[[1.0]], [[0.0]]])
    with np.errstate(over="ignore", under="ignore"):
        parts = mantissas * 10.0 ** (exponent + rng.integers(-spread, spread + 1, size=(2, dim, dim)))
    parts[~np.isfinite(parts)] = 1.7e308
    x = parts[0] + 1j * parts[1] if kind == "complex" else parts[0]
    exact = sum(Fraction(float(v)) ** 2 for v in parts.ravel())
    with decimal.localcontext(decimal.Context(prec=60, Emax=10**6, Emin=-(10**6))):
        want = float((decimal.Decimal(exact.numerator) / decimal.Decimal(exact.denominator)).sqrt())
    norm = _frobenius(x)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    if 4 * Fraction(tiny) <= exact <= Fraction(huge) / 4:
        assert norm == np.linalg.norm(x)
    assert norm == want or abs(norm - want) <= 2 * np.finfo(float).eps * want


def test_the_frobenius_norm_of_a_tiny_theta_is_positive_and_of_a_huge_one_finite():
    """At 1e-300 I the unscaled squares underflow to zero, at 1e154 I their sum overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _frobenius(1e-300 * np.eye(2)) == pytest.approx(np.sqrt(2) * 1e-300, rel=1e-15)
        assert _frobenius(1e154 * np.eye(2, dtype=complex)) == pytest.approx(np.sqrt(2) * 1e154, rel=1e-15)
        assert _frobenius(np.zeros((3, 3))) == 0.0
        assert _frobenius(1e308 * np.ones((2, 2))) == np.inf


def test_an_exact_zero_takes_no_svd(monkeypatch):
    calls, svd = [], np.linalg.svd
    linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # where np.linalg.norm finds svd
    monkeypatch.setattr(linalg, "svd", lambda a, *args, **kw: calls.append(np.shape(a)) or svd(a, *args, **kw))
    assert spectral_norm(np.zeros((3, 3))) == 0.0 and calls == []
    assert np.array_equal(spectral_norm(np.stack([-0.0 * SIGMA_X, SIGMA_Z, 0.0 * SIGMA_Z])), [0.0, 1.0, 0.0])
    assert calls == [(1, 2, 2)]


class TestStacks:
    """On an (N, d, d) stack each function equals its per-matrix result bit for bit."""

    @pytest.fixture(params=[1, 2, 3, 5])
    def stack(self, request):
        rng = np.random.default_rng(100 + request.param)
        return np.stack([random_hermitian(rng, request.param) for _ in range(7)])

    @pytest.mark.parametrize("fn", [adjoint, hermitize, spectral_norm, hermiticity_defect, hermitian_eigenvalues])
    def test_operator_functions_match_per_matrix(self, stack, fn):
        for x in (stack, stack + 1e-12j * np.arange(stack.shape[-1])):
            batched = fn(x)
            assert np.array_equal(batched, np.array([fn(m) for m in x]))

    def test_evaluate_matches_per_matrix(self, stack):
        rng = np.random.default_rng(200)
        d = stack.shape[-1]
        theta = random_complex(rng, d)
        cand = canonicalize(
            LyapunovCandidate(terms=((1, 1, random_hermitian(rng, d)), (2, 1, theta), (1, 2, adjoint(theta))),
                              center=0.3 * np.eye(d))
        )
        batched = evaluate(cand, stack)
        assert batched.shape == stack.shape
        assert np.array_equal(batched, np.array([evaluate(cand, m) for m in stack]))

    @pytest.mark.parametrize("count", [1, 3, 8, 33, 256])
    def test_a_stack_times_one_matrix_is_one_gemm_bit_for_bit(self, count):
        rng = np.random.default_rng(300 + count)
        for d in range(1, 41):
            x = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
            m = random_complex(rng, d)
            for left in (x, adjoint(x)):
                for right in (m, adjoint(m)):  # adjoint(m) is a non-contiguous view
                    assert np.array_equal(_times(left, right), left @ right)

    def test_matrix_input_keeps_return_types(self):
        assert type(spectral_norm(SIGMA_X)) is float
        assert type(hermiticity_defect(SIGMA_X)) is float
        assert adjoint(SIGMA_MINUS).shape == (2, 2)
        assert hermitian_eigenvalues(SIGMA_Z).shape == (2,)

    def test_expectation_matches_per_matrix(self, stack):
        x = random_complex(np.random.default_rng(201), stack.shape[-1])
        assert np.array_equal(expectation(stack, x), np.array([expectation(m, x) for m in stack]))

    @pytest.mark.parametrize("member, fault, what", [
        (2, np.diag([1.5, -0.5]), "is not positive semidefinite"),
        (1, np.diag([0.5, 0.3]), "trace differs from 1"),
    ])
    def test_density_check_names_first_failing_member(self, member, fault, what):
        states = np.stack([np.diag([0.25, 0.75]).astype(complex)] * 4)
        require_density(states, 1e-10, 1e-10, 1e-12)
        states[member] = fault
        states[3] = np.diag([2.0, -1.0])  # a later failure is not the one named
        with pytest.raises(InvalidStateError, match=f"^state {member} at t = 0.{member} {what}"):
            require_density(states, 1e-10, 1e-10, 1e-12, times=0.1 * np.arange(4))
        with pytest.raises(InvalidStateError, match=f"^state {member} {what}"):
            require_density(states, 1e-10, 1e-10, 1e-12)
        with pytest.raises(InvalidStateError, match=f"^state {what}"):  # QuantumState's message names no index
            QuantumState(fault)

    def test_one_non_hermitian_member_raises(self, stack):
        bad = stack.copy()
        bad[4] = bad[4] + 1j * np.eye(stack.shape[-1])
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(bad)
        assert hermitian_eigenvalues(stack).shape == stack.shape[:2]


class TestQuantumState:
    def test_valid_state(self):
        rho = QuantumState(np.diag([0.25, 0.75]))
        assert rho.dim == 2

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidStateError):
            QuantumState(np.array([[0.5, 0.3], [0.4, 0.5]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidStateError):
            QuantumState(np.diag([1.5, -0.5]))

    def test_trace_rejected(self):
        with pytest.raises(InvalidStateError):
            QuantumState(np.diag([0.5, 0.3]))

    def test_operator_validation(self):
        with pytest.raises(InvalidOperatorError):
            as_operator(np.zeros((2, 3)))
        with pytest.raises(InvalidOperatorError):
            as_operator(np.array([[np.inf, 0], [0, 1]]))


class TestExpectation:
    def test_maximally_mixed_traceless(self):
        assert expectation(QuantumState.maximally_mixed(2), SIGMA_Z) == pytest.approx(0.0)

    def test_eigenstate(self):
        rho = QuantumState.from_vector(KET_E)
        assert expectation(rho, SIGMA_Z) == pytest.approx(1.0)

    def test_unit_trace(self):
        rng = np.random.default_rng(11)
        rho = QuantumState(np.diag(rng.dirichlet(np.ones(4))))
        assert expectation(rho, np.eye(4)) == pytest.approx(1.0)

    def test_bounded_by_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            a = random_complex(rng, d)
            rho = QuantumState(a @ adjoint(a) / np.trace(a @ adjoint(a)).real)
            x = random_complex(rng, d)
            assert abs(expectation(rho, x)) <= spectral_norm(x) * (1 + 1e-12)

    def test_psd_observable_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            a, b = random_complex(rng, d), random_complex(rng, d)
            rho = QuantumState(a @ adjoint(a) / np.trace(a @ adjoint(a)).real)
            x = adjoint(b) @ b
            val = expectation(rho, x)
            assert val.real >= -1e-10
            assert abs(val.imag) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(QuantumState.maximally_mixed(2), np.eye(3))
