import numpy as np
import pytest
from hypothesis import settings

from qstab import LyapunovCandidate, QsdeModel, canonicalize

# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("qstab", derandomize=True, database=None, deadline=None)
settings.load_profile("qstab")

# Qubit basis ordered (|e>, |g|): excited first, so N = |e><e| = diag(1, 0)
# and sigma_minus |e> = |g>.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
NUMBER = np.diag([1.0, 0.0]).astype(complex)  # |e><e|
GROUND = np.diag([0.0, 1.0]).astype(complex)  # |g><g|
EYE2 = np.eye(2, dtype=complex)
KET_E = np.array([1.0, 0.0], dtype=complex)
KET_G = np.array([0.0, 1.0], dtype=complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary(rng, dim):
    import scipy.linalg

    return scipy.linalg.expm(1j * random_hermitian(rng, dim))


def random_model(rng, dim, scattering=True):
    return QsdeModel(
        hamiltonian=random_hermitian(rng, dim),
        coupling=random_complex(rng, dim),
        scattering=random_unitary(rng, dim) if scattering else None,
    )


def random_density(rng, dim):
    a = random_complex(rng, dim)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@pytest.fixture
def damping_model():
    """Amplitude-damping qubit at unit rate: H = 0, L = sigma_minus, S = I."""
    return QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS)


@pytest.fixture
def damping_candidate():
    """V(X) = (X + I)^2, vanishing at the equilibrium X_e = -I."""
    return canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2))
