"""The oracle's matrix exponential against scipy.linalg.expm, its structural paths and its extreme steps."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qstab._expm
from qstab import QsdeModel, ladder_operators, liouvillian_matrix, spectral_norm
from qstab._expm import expm

from conftest import SIGMA_MINUS, random_complex, random_hermitian


def random_liouvillian(seed, dim):
    rng = np.random.default_rng(seed)
    return liouvillian_matrix(QsdeModel(hamiltonian=random_hermitian(rng, dim), coupling=random_complex(rng, dim)))


def fock_damping(dim):
    """The Liouvillian of H = N, L = a on dim levels (upper triangular), or of the demo qubit at dim = 0 (lower)."""
    if dim == 0:
        return liouvillian_matrix(QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS))
    a, _, number = ladder_operators(dim - 1)
    return liouvillian_matrix(QsdeModel(hamiltonian=number, coupling=a))


def trace_defect(liouville, propagator):
    """max |Tr(P rho) - Tr(rho)| over the matrix units rho: vec(I)^T P - vec(I)^T in the row-major vec."""
    dim = round(np.sqrt(len(liouville)))
    vec_eye = np.eye(dim).reshape(-1)
    return np.max(np.abs(vec_eye @ propagator - vec_eye)), dim


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), log_h=st.floats(-6.0, 2.0))
@settings(max_examples=200)
def test_matches_scipy_on_random_liouvillians(seed, dim, log_h):
    liouville, h = random_liouvillian(seed, dim), 10.0**log_h
    gap = np.max(np.abs(expm(liouville * h) - scipy.linalg.expm(liouville * h)))
    assert gap <= 1e-13 * max(1.0, h * spectral_norm(liouville))


def test_random_liouvillians_run_every_degree_and_squaring(monkeypatch):
    chosen, pade_order = set(), qstab._expm._pade_order

    def recording(*args):
        m, s, powers = pade_order(*args)
        chosen.add((m, s > 0))
        return m, s, powers

    monkeypatch.setattr(qstab._expm, "_pade_order", recording)
    for h in np.logspace(-6, 2, 33):
        expm(random_liouvillian(5, 3) * h)
    assert chosen == {(3, False), (5, False), (7, False), (9, False), (13, False), (13, True)}


@given(dim=st.sampled_from([0, 2, 4, 8]), log_h=st.floats(-6.0, 30.0))
@settings(max_examples=100)
def test_fock_damping_matches_scipy_and_keeps_trace(dim, log_h):
    liouville, h = fock_damping(dim), 10.0**log_h
    propagator = expm(liouville * h)
    assert np.max(np.abs(propagator - scipy.linalg.expm(liouville * h))) <= 1e-14
    defect, d = trace_defect(liouville, propagator)
    assert defect <= 1e-15 * d


@pytest.mark.parametrize("dim", [0, 2, 4, 8])
@pytest.mark.parametrize("h", [1e100, 1e300])
def test_fock_damping_keeps_trace_past_any_decay(dim, h):
    """Where scipy's powers of L h overflow to NaN, the power-of-two scaling keeps the propagator finite and
    trace-preserving."""
    liouville = fock_damping(dim)
    propagator = expm(liouville * h)
    assert np.isfinite(propagator).all()
    defect, d = trace_defect(liouville, propagator)
    assert defect <= 1e-15 * d


@pytest.mark.parametrize("h", [1e30, 1e100, 1e300])
def test_extreme_steps_of_a_full_liouvillian_raise_no_warning(h):
    assert expm(random_liouvillian(3, 3) * h).shape == (9, 9)  # any RuntimeWarning fails the suite


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_norm_gives_nan(bad):
    a = random_liouvillian(4, 2)
    a[0, 1] = bad
    assert np.isnan(expm(a)).all()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_zero_gives_the_identity_exactly(dtype, dim):
    assert np.array_equal(expm(np.zeros((dim, dim), dtype=dtype)), np.eye(dim))


@pytest.mark.parametrize("diag", [[0.3], [-2.5 + 1j], [1.0, -1e300, 1e-300], [0.5j, -3.0, 7.0 - 2j, 0.0]])
def test_diagonal_and_one_by_one_inputs_give_exp_exactly(diag):
    got = expm(np.diag(diag))
    assert got.tobytes() == np.diag(np.exp(np.asarray(diag))).tobytes()


@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("a, b, c", [(1.0, 1e4, -1.0), (1.0, 1e8, -1.0), (-1.0, 1e12, -1.5), (-0.5, 1e6, -40.0)])
def test_triangular_inputs_keep_their_exact_diagonals(lower, a, b, c):
    """exp [[a, b], [0, c]] = [[e^a, b (e^c - e^a) / (c - a)], [0, e^c]]; the squarings leave no error in it."""
    want = np.array([[np.exp(a), b * (np.exp(c) - np.exp(a)) / (c - a)], [0.0, np.exp(c)]])
    got = expm(np.array([[a, b], [0.0, c]]))
    if lower:
        want, got = want.T, expm(np.array([[a, 0.0], [b, c]]))
    assert np.array_equal(np.diag(got), [np.exp(a), np.exp(c)])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@st.composite
def finite_squares(draw):
    """Square arrays of any finite float64 entries, full, upper or lower triangular, real or complex."""
    n = draw(st.integers(1, 5))
    entries = st.floats(allow_nan=False, allow_infinity=False)
    a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        a = a + 1j * np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    return draw(st.sampled_from([lambda x: x, np.triu, np.tril]))(a)


@given(a=finite_squares())
@settings(max_examples=300)
def test_any_finite_input_returns_without_raising_or_warning(a):
    """Overflow in the powers or the elimination shows as non-finite entries, never as an exception or warning."""
    assert expm(a).shape == a.shape
