#!/usr/bin/env python3
"""Drift and noise coefficients of operator polynomials along the dynamics.

Model: amplitude-damping qubit, H = 0, L = sqrt(gamma) sigma_minus, S = I,
with basis ordered (|e>, |g|) so N = |e><e| = diag(1, 0).

Shows, for the candidate V(X) = (X + I)^2 centered at the equilibrium
X_e = -I:

  * canonicalization of the centered square, which keeps the scalar center,
  * the flow drift on the commutative family X = -I + y N, which works
    out to exactly -gamma y^2 N (computed here both by the library and by
    hand),
  * the three noise coefficients and how the gauge coefficient switches
    on only for nontrivial scattering.
"""

import numpy as np

from qstab import (
    LyapunovCandidate,
    QsdeModel,
    canonicalize,
    evaluate,
    flow_ito_coefficients,
    flow_noise_coefficients,
)

GAMMA = 0.8
sigma_minus = np.array([[0, 0], [1, 0]], dtype=complex)
N = np.diag([1.0, 0.0]).astype(complex)
I2 = np.eye(2, dtype=complex)

model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(GAMMA) * sigma_minus)

print("candidate V(X) = (X + I)^2, center X_e = -I")
candidate = canonicalize(LyapunovCandidate(terms=((1, 1, I2),), center=-I2))
for n, m, theta in candidate.terms:
    print(f"  term (n={n}, m={m}), Theta = {np.round(theta.real, 3).tolist()}, in powers of X - center")
print(f"  V(X_e) = 0: {np.allclose(evaluate(candidate, -I2), 0)}")

print()
print("drift along the family X = -I + y N   (expected: -gamma y^2 N)")
for y in (0.25, 0.5, 1.0):
    x = -I2 + y * N
    coeffs = flow_ito_coefficients(model, candidate, x)
    predicted = -GAMMA * y**2 * N
    match = np.allclose(coeffs.drift, predicted, atol=1e-12)
    print(f"  y = {y:4.2f}: drift diag = {np.round(np.diag(coeffs.drift).real, 6)}  matches hand formula: {match}")

print()
print("noise coefficients at X = sigma_z (drift carries no noise in vacuum averages,")
print("but the coefficients drive the fluctuations):")
sigma_z = np.diag([1.0, -1.0]).astype(complex)
noise = flow_noise_coefficients(model, sigma_z)
print(f"  annihilation coefficient [L†, X]S:\n{np.round(noise.annihilation, 4)}")
print(f"  creation coefficient S†[X, L]:\n{np.round(noise.creation, 4)}")
print(f"  gauge coefficient [S†X, S]:\n{np.round(noise.gauge, 4)}  (zero: S = I)")

print()
print("with a nontrivial scattering the gauge channel activates:")
phi = 0.6
scatter = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]], dtype=complex)
model_s = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(GAMMA) * sigma_minus, scattering=scatter)
gauge = flow_noise_coefficients(model_s, sigma_z).gauge
print(f"  [S†X, S] =\n{np.round(gauge.real, 4)}")
print(f"  equals S†XS - X: {np.allclose(gauge, scatter.conj().T @ sigma_z @ scatter - sigma_z)}")
