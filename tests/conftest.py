import numpy as np
import pytest
from hypothesis import settings

from qstab import (
    LyapunovCandidate,
    QsdeModel,
    canonicalize,
    flow_generator,
    flow_noise_coefficients,
    state_generator,
    state_noise_coefficients,
)

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


def eager_ito_coefficients(model, candidate, point, picture="flow"):
    """All four Ito coefficients built at once by four hand-written accumulation lines.

    The assembly that the routing table in ``qstab.lyapunov`` replaced, kept as
    its bit-exact reference: same powers, same products, same summation order.
    """
    generator, noise_coefficients = {
        "flow": (flow_generator, flow_noise_coefficients),
        "state": (state_generator, state_noise_coefficients),
    }[picture]
    candidate = candidate if candidate.is_canonical else canonicalize(candidate)
    point = np.asarray(point, dtype=complex)
    deg = max(max(n, m) for n, m, _ in candidate.terms)
    powers = [np.eye(point.shape[-1], dtype=complex), np.array(point)]
    for _ in range(2, deg + 1):
        powers.append(powers[-1] @ point)
    powers = powers[: deg + 1]
    gen = [generator(model, p) for p in powers]
    noise = [noise_coefficients(model, p) for p in powers]

    zero = np.zeros_like(powers[0])
    drift, c_a, c_adag, c_gauge = zero, zero, zero, zero
    for n, m, theta in candidate.terms:
        p, q = powers[n], powers[m]
        gp, gq = gen[n], gen[m]
        ap, aq = noise[n].annihilation, noise[m].annihilation
        cp, cq = noise[n].creation, noise[m].creation
        lp, lq = noise[n].gauge, noise[m].gauge
        drift = drift + gp @ theta @ q + p @ theta @ gq + ap @ theta @ cq
        c_a = c_a + ap @ theta @ q + p @ theta @ aq + ap @ theta @ lq
        c_adag = c_adag + cp @ theta @ q + p @ theta @ cq + lp @ theta @ cq
        c_gauge = c_gauge + lp @ theta @ q + p @ theta @ lq + lp @ theta @ lq
    return {"drift": drift, "coeff_a": c_a, "coeff_adag": c_adag, "coeff_gauge": c_gauge}


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
