#!/usr/bin/env python3
"""Collision-model simulation against the exact master-equation oracle.

The repeated-interaction step exp((-iH dt) (x) I + sqrt(dt)(L (x) a† - L† (x) a))
is exactly unitary, reproduces the continuous drift to O(dt^2) under the
ancilla vacuum, and converges to the reduced dynamics at first order in dt.
This script, on the unit-rate amplitude-damping qubit started in |e>:

  1. prints the rotation structure of one collision step,
  2. reproduces the noise increment multiplication table exactly,
  3. compares E[f_t(N)] from the collision simulation against the
     superoperator-exponential oracle (and shows first-order convergence),
  4. verifies the one-step slope against the analytic drift expectation,
  5. checks the supermartingale, decay-envelope, exit-time and
     transit-time diagnostics on the certified run.
"""

import numpy as np

from qstab import (
    CollisionConfig,
    LyapunovCandidate,
    QsdeModel,
    QuantumState,
    canonicalize,
    collision_step_unitary,
    envelope_check,
    exit_time_estimate,
    finite_difference_drift_check,
    ito_table_check,
    master_flow_expectation,
    simulate_flow_expectation,
    transit_time_check,
)

GAMMA = 1.0
sigma_minus = np.array([[0, 0], [1, 0]], dtype=complex)
sigma_z = np.diag([1.0, -1.0]).astype(complex)
N = np.diag([1.0, 0.0]).astype(complex)
I2 = np.eye(2, dtype=complex)

model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(GAMMA) * sigma_minus)
excited = QuantumState.from_vector(np.array([1.0, 0.0]))
v_linear = LyapunovCandidate(terms=((1, 0, 0.5 * I2), (0, 1, 0.5 * I2)))  # V(X) = X

print("1. one collision step (dt = 0.04) in the basis (|e,0>, |e,1>, |g,0>, |g,1>):")
u = collision_step_unitary(model, dt=0.04)
print(np.round(u.real, 4))
print(f"   rotation angle sqrt(gamma dt) = {np.sqrt(GAMMA * 0.04):.4f}; u[3,0] = {u[3, 0].real:.4f}")

print()
print("2. noise increment multiplication table on one vacuum ancilla (dt = 1e-3):")
table = ito_table_check(ancilla_levels=1, dt=1e-3)
for e in table.entries:
    if e.maps_to != "0":
        print(f"   {e.left:>8s} * {e.right:<8s} -> {e.maps_to:<6s} vacuum moment {e.moment:.3e} (deviation {e.deviation:.1e})")
print(f"   max deviation over all 16 ordered pairs: {table.max_deviation:.2e}")

print()
print("3. E[f_t(N)] collision chain vs master oracle, dt = 1e-2, 10 steps:")
config = CollisionConfig(dt=1e-2, steps=10)
coll = simulate_flow_expectation(model, v_linear, N, excited, config)
oracle = master_flow_expectation(model, v_linear, N, excited, coll.times)
gap = np.max(np.abs(coll.v_expect - oracle.v_expect))
print(f"   max |collision - oracle| = {gap:.3e}")
coll2 = simulate_flow_expectation(model, v_linear, N, excited, CollisionConfig(dt=5e-3, steps=20))
oracle2 = master_flow_expectation(model, v_linear, N, excited, coll2.times)
gap2 = np.max(np.abs(coll2.v_expect - oracle2.v_expect))
print(f"   after halving dt: {gap2:.3e}  (ratio {gap / gap2:.2f}, first order)")

print()
print("4. one-step finite difference against the analytic drift, V = (X+I)^2, X0 = sigma_z:")
candidate = canonicalize(LyapunovCandidate(terms=((1, 1, I2),), center=-I2))
fd = finite_difference_drift_check(model, candidate, sigma_z, excited, CollisionConfig(dt=1e-2, steps=1))
print(f"   analytic {fd.analytic:+.6f}   empirical {fd.empirical:+.6f}   gap {fd.gap:.2e}")
print(f"   gap at dt/2 {fd.gap_half:.2e}   ratio {fd.ratio:.2f}   first-order: {fd.order_ok}")

print()
print("5. trajectory diagnostics on the certified run:")
traj = simulate_flow_expectation(model, candidate, sigma_z, excited, CollisionConfig(dt=1e-2, steps=10))
rises = np.diff(traj.v_expect)
print(f"   supermartingale: largest step increase {np.max(rises):+.2e} (should be <= ~1e-9)")
for a in (GAMMA / 2, 2 * GAMMA):
    env = envelope_check(traj, a=a, v0=traj.v_expect[0])
    print(f"   envelope v0 e^(-{a:.1f} t): {'holds' if env.ok else 'violated'} (max ratio {env.max_ratio:.3f})")
print(f"   exit time above epsilon = E[V](0): {exit_time_estimate(traj, traj.v_expect[0])}"
      "  (expectation-level surrogate; None = never leaves)")
dense = master_flow_expectation(model, candidate, sigma_z, excited, np.linspace(0.0, 2.0, 2001))
transit = transit_time_check(dense, level_hi=4.0, level_lo=2.0, b=GAMMA * 2.0)
print(f"   transit 4.0 -> 2.0: measured {transit.measured:.4f}, bound {transit.bound:.4f}, ok: {transit.ok}")
