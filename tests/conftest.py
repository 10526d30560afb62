import warnings
from math import comb

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

# Hypothesis imports its patch writer, and libcst with it, only to report a failing example.  That import
# warns (mypy_extensions.TypedDict is deprecated), and the suite's error::DeprecationWarning filter would turn
# the warning into an internal error that ends the whole run, so import it here once with the warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

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
    its bit-exact reference: same powers (of point - center), same products,
    same summation order.
    """
    generator, noise_coefficients = {
        "flow": (flow_generator, flow_noise_coefficients),
        "state": (state_generator, state_noise_coefficients),
    }[picture]
    candidate = candidate if candidate.center is None else canonicalize(candidate)
    point = np.asarray(point, dtype=complex)
    point = point - candidate.center if candidate.center is not None else point
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


def reference_evaluate(candidate, x):
    """V(x) by the power loop and term sum that ``evaluate`` used before the shared power engine."""
    x = np.asarray(x, dtype=complex)
    y = x - candidate.center if candidate.center is not None else x
    deg = max(max(n, m) for n, m, _ in candidate.terms)
    powers = [np.eye(y.shape[-1], dtype=complex), np.array(y)]
    for _ in range(2, deg + 1):
        powers.append(powers[-1] @ y)
    out = np.zeros_like(y)
    for n, m, theta in candidate.terms:
        out = out + powers[n] @ theta @ powers[m]
    return out


def reference_expand(candidate):
    """The candidate with its scalar center lam I expanded binomially into raw powers of X, as canonicalize once did.

    (X - lam I)^n = sum_k C(n, k) (-lam)^(n-k) X^k in each factor; the merged terms carry no center.
    """
    if candidate.center is None:
        return candidate
    mu, expanded = -complex(np.trace(candidate.center)) / candidate.dim, {}
    for n, m, theta in candidate.terms:
        for k in range(n + 1):
            for j in range(m + 1):
                coeff = comb(n, k) * comb(m, j) * mu ** (n - k) * mu ** (m - j)
                expanded[(k, j)] = expanded.get((k, j), 0) + coeff * theta
    return LyapunovCandidate(terms=tuple((n, m, theta) for (n, m), theta in sorted(expanded.items())))


def reference_companion_exits(candidate, center, rays, epsilon):
    """Per ray, the exit from the level set by the block-companion solve that every ray once took.

    In mu = 1/s the roots of sum_k s^k B_k = epsilon I are the eigenvalues of the companion of the monic
    mu^K + sum_k mu^(K-k) M^-1 B_k, M = B_0 - epsilon I; the exit is 1/mu for the largest real positive mu.
    """
    offset = center if candidate.center is None else center - candidate.center
    b = reference_ray_coefficients(candidate, offset, rays)
    degree, dim = len(b) - 1, candidate.dim
    head = -np.linalg.solve(b[0, 0] - epsilon * np.eye(dim), b[1:]).transpose(1, 2, 0, 3).reshape(len(rays), dim, -1)
    shift = np.eye((degree - 1) * dim, degree * dim)
    companion = np.concatenate([head, np.broadcast_to(shift, (len(rays), *shift.shape))], axis=1)
    mu = np.linalg.eigvals(companion)
    slack = 64.0 * np.finfo(float).eps * np.linalg.norm(companion, axis=(-2, -1))
    exits = np.where((np.abs(mu.imag) <= slack[:, None]) & (mu.real > 0.0), mu.real, 0.0)
    with np.errstate(divide="ignore"):
        return 1.0 / exits.max(axis=-1, initial=0.0)


def reference_ray_coefficients(candidate, center, rays):
    """The coefficients B_k of V(C + sD) = sum_k s^k B_k, shape (K + 1, R, d, d) with K = max(degree, 1).

    The recurrence A_{n+1,i} = A_{n,i} C + A_{n,i-1} D, started from the identity, and the term convolution
    that ``qstab.certify._ray_exits`` ran before the shared power engine; a constant V gets a zero B_1.
    """
    dim, degree = candidate.dim, max(candidate.degree, 1)
    powers = [[np.eye(dim, dtype=complex)]]
    for _ in range(max(max(n, m) for n, m, _ in candidate.terms)):
        a = powers[-1]
        powers.append([a[0] @ center, *(hi @ center + lo @ rays for hi, lo in zip(a[1:], a)), a[-1] @ rays])
    b = np.zeros((degree + 1, len(rays), dim, dim), dtype=complex)
    for n, m, theta in candidate.terms:
        for i, left in enumerate(powers[n]):
            left = left @ theta
            for j, right in enumerate(powers[m]):
                b[i + j] += left @ right
    return b


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
