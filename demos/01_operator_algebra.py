#!/usr/bin/env python3
"""Operator algebra basics: adjoints, commutators, norms, positivity, states.

Walks through the primitive layer everything else builds on:

  * commutator / anticommutator arithmetic on the Pauli algebra,
  * the spectral norm and its C*-identities,
  * the norm bound ||X^n Theta X^m|| <= ||X||^(n+m) ||Theta||,
  * positivity from guarded Hermitian eigenvalues,
  * density-operator validation and expectations.

Everything prints its check inline; the script ends with a PASS/FAIL line.
"""

import numpy as np

from qstab import (
    QuantumState,
    adjoint,
    anticommutator,
    commutator,
    expectation,
    hermitian_eigenvalues,
    spectral_norm,
)

ok = True


def check(label, condition):
    global ok
    ok = ok and bool(condition)
    print(f"  {'ok ' if condition else 'BAD'} {label}")


sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
sigma_minus = np.array([[0, 0], [1, 0]], dtype=complex)

print("Pauli algebra")
check("[sx, sy] = 2i sz", np.allclose(commutator(sigma_x, sigma_y), 2j * sigma_z))
check("{sx, sy} = 0", np.allclose(anticommutator(sigma_x, sigma_y), 0))
check("{sx, sx} = 2I", np.allclose(anticommutator(sigma_x, sigma_x), 2 * np.eye(2)))
check("adjoint(sigma-) = sigma+", np.allclose(adjoint(sigma_minus), sigma_minus.T))

print("Spectral norm")
rng = np.random.default_rng(1)
a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
check("||A†A|| = ||A||^2", np.isclose(spectral_norm(adjoint(a) @ a), spectral_norm(a) ** 2))
b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
check("||AB|| <= ||A|| ||B||", spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) * (1 + 1e-12))

print("Power-sandwich bound ||X^n Theta X^m|| <= ||X||^(n+m) ||Theta||")
worst = 0.0
for _ in range(200):
    d = int(rng.integers(2, 5))
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    theta = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    lhs = spectral_norm(np.linalg.matrix_power(x, n) @ theta @ np.linalg.matrix_power(x, m))
    rhs = spectral_norm(x) ** (n + m) * spectral_norm(theta)
    worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
check(f"bound holds on 200 random draws (worst ratio {worst:.6f})", worst <= 1 + 1e-12)

print("Positivity reports")
least = hermitian_eigenvalues(sigma_z, tol=0.0)[0]  # PSD iff the least eigenvalue is at least -tol
print(f"  sigma_z: is_psd={least >= 0.0}, min eigenvalue {least:+.3f}")
check("sigma_z is not PSD", not least >= 0.0)
gram = hermitian_eigenvalues(adjoint(a) @ a, tol=1e-12)[0]
check(f"A†A is PSD (min eig {gram:.2e})", gram >= -1e-12)

print("States and expectations")
mixed = QuantumState.maximally_mixed(2)
check("Tr(rho sz) = 0 for the maximally mixed state", abs(expectation(mixed, sigma_z)) < 1e-14)
excited = QuantumState.from_vector(np.array([1.0, 0.0]))
check("Tr(|e><e| sz) = 1", np.isclose(expectation(excited, sigma_z).real, 1.0))
w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
check("|Tr(rho X)| <= ||X||", abs(expectation(mixed, w)) <= spectral_norm(w))

print()
print("operator algebra demo:", "PASS" if ok else "FAIL")
raise SystemExit(0 if ok else 1)
