"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criterion 8 ties the two pictures together.  8a checks, at trivial
scattering, that the trace-dual of the flow drift is the master-oracle
generator, that the implemented state drift (with the L†S.S†L sandwich)
differs from that dual by exactly the sandwich exchange
Tr(rho (L X L† - L† X L)), and that the state drift is trace-dual to the
flow drift where that exchange vanishes (L a phase times a self-adjoint
operator).  8b pins the non-duality quantitatively on an S != I witness.
"""

import time

import numpy as np

from qstab import (
    CollisionConfig,
    DirectionFamily,
    LevelSetSpec,
    LyapunovCandidate,
    QsdeModel,
    QuantumState,
    canonicalize,
    check_local,
    check_state,
    envelope_check,
    estimate_max_rate,
    exponential_inner_tail_bound,
    exponential_vector,
    finite_difference_drift_check,
    flow_generator,
    flow_ito_coefficients,
    ito_table_check,
    liouvillian_matrix,
    master_flow_expectation,
    recheck_witness,
    sample_level_set,
    simulate_flow_expectation,
    spectral_norm,
    state_generator,
)
from qstab.cli import main as cli_main
from qstab.fileio import save_lyapunov, save_model, save_operator, save_state_vector

from conftest import (
    EYE2,
    KET_E,
    NUMBER,
    SIGMA_MINUS,
    SIGMA_Z,
    random_complex,
    random_hermitian,
    random_model,
)

GAMMA = 1.0


def _report(number: int, label: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number:2d}: {label} [{elapsed:.2f}s]{extra}")


def _damping_model():
    return QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.sqrt(GAMMA) * SIGMA_MINUS)


def _square_candidate():
    return canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2))


def _linear_candidate():
    return LyapunovCandidate(terms=((1, 0, 0.5 * EYE2), (0, 1, 0.5 * EYE2)))


def test_criterion_01_ito_table_reproduction():
    start = time.perf_counter()
    worst = 0.0
    table_images = {"dt", "dA", "dA_dag", "dLambda"}
    for levels in (1, 2):
        report = ito_table_check(ancilla_levels=levels, dt=1e-3)
        assert len(report.entries) == 16
        nonzero_table = [e for e in report.entries if e.maps_to in table_images]
        zero_table = [e for e in report.entries if e.maps_to not in table_images]
        assert len(nonzero_table) == 4 and len(zero_table) == 12
        worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-14 and elapsed < 1.0
    _report(1, "Ito table vacuum moments exact at both truncations", ok, elapsed, f"max dev {worst:.1e}")
    assert worst <= 1e-14
    assert elapsed < 1.0


def test_criterion_02_generator_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    pairs = [(n, m) for n in range(5) for m in range(5) if 1 <= n + m <= 4]
    worst = 0.0
    for i in range(200):
        dim = int(rng.integers(2, 5))
        model = random_model(rng, dim)
        x = random_hermitian(rng, dim)
        n, m = pairs[i % len(pairs)]
        cand = LyapunovCandidate(terms=((n, m, np.eye(dim)),))
        drift = flow_ito_coefficients(model, cand, x).drift
        target = flow_generator(model, np.linalg.matrix_power(x, n + m))
        gap = spectral_norm(drift - target) / max(1.0, spectral_norm(target))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(2, "pure-power drift equals generator of the full power", ok, elapsed, f"worst gap {worst:.1e}")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_03_drift_finite_difference_convergence():
    start = time.perf_counter()
    model, cand = _damping_model(), _square_candidate()
    excited = QuantumState.from_vector(KET_E)
    reports = {
        dt: finite_difference_drift_check(model, cand, SIGMA_Z, excited, CollisionConfig(dt=dt, steps=1))
        for dt in (1e-2, 5e-3)
    }
    analytic_ok = all(abs(r.analytic + 4.0) <= 1e-12 for r in reports.values())
    # reports cover the slopes at dt in {1e-2, 5e-3, 2.5e-3}
    ratios = [reports[1e-2].ratio, reports[5e-3].ratio]
    order_ok = all(1.5 <= r <= 2.5 for r in ratios)
    elapsed = time.perf_counter() - start
    ok = analytic_ok and order_ok and elapsed < 5.0
    _report(3, "one-step slope converges to the analytic drift (-4)", ok, elapsed,
            f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}")
    assert analytic_ok
    assert order_ok
    assert elapsed < 5.0


def test_criterion_04_oracle_agreement():
    start = time.perf_counter()
    model, cand = _damping_model(), _linear_candidate()
    excited = QuantumState.from_vector(KET_E)

    def max_gap(dt, steps):
        coll = simulate_flow_expectation(model, cand, NUMBER, excited, CollisionConfig(dt=dt, steps=steps))
        oracle = master_flow_expectation(model, cand, NUMBER, excited, coll.times)
        return float(np.max(np.abs(coll.v_expect - oracle.v_expect)))

    gap1 = max_gap(1e-2, 10)
    gap2 = max_gap(5e-3, 20)
    ratio = gap1 / gap2
    elapsed = time.perf_counter() - start
    ok = gap1 <= 0.05 and 1.5 <= ratio <= 2.5 and elapsed < 5.0
    _report(4, "collision trajectory matches the master oracle at first order", ok, elapsed,
            f"gap {gap1:.2e}, halving ratio {ratio:.2f}")
    assert gap1 <= 0.05
    assert 1.5 <= ratio <= 2.5
    assert elapsed < 5.0


def test_criterion_05_supermartingale_property():
    start = time.perf_counter()
    model, cand = _damping_model(), _square_candidate()
    excited = QuantumState.from_vector(KET_E)
    t_grid = np.linspace(0.0, 1.0, 101)
    traj = master_flow_expectation(model, cand, SIGMA_Z, excited, t_grid)
    worst_rise = float(np.max(np.diff(traj.v_expect)))
    elapsed = time.perf_counter() - start
    ok = worst_rise <= 1e-9 and elapsed < 1.0
    _report(5, "certified run has non-increasing E[V] on the oracle", ok, elapsed,
            f"worst step rise {worst_rise:.1e}")
    assert worst_rise <= 1e-9
    assert elapsed < 1.0


def test_criterion_06_exponential_certificate_consistency():
    start = time.perf_counter()
    model, cand = _damping_model(), _square_candidate()
    spec = LevelSetSpec(epsilon=1.0, sample_count=16, seed=606, family=DirectionFamily(directions=(NUMBER,)))
    est = estimate_max_rate(model, cand, -EYE2, spec)
    rate_ok = abs(est.rate - GAMMA) <= 1e-6

    excited = QuantumState.from_vector(KET_E)
    traj = simulate_flow_expectation(model, cand, SIGMA_Z, excited, CollisionConfig(dt=1e-2, steps=10))
    half = envelope_check(traj, a=GAMMA / 2, v0=traj.v_expect[0])
    double = envelope_check(traj, a=2 * GAMMA, v0=traj.v_expect[0])
    elapsed = time.perf_counter() - start
    ok = rate_ok and half.ok and not double.ok and elapsed < 5.0
    _report(6, "max rate is gamma; envelope passes at gamma/2, fails at 2 gamma", ok, elapsed,
            f"rate {est.rate:.9f}")
    assert rate_ok
    assert half.ok
    assert not double.ok
    assert elapsed < 5.0


def test_criterion_07_power_sandwich_norm_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_excess = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        x, theta = random_complex(rng, dim), random_complex(rng, dim)
        n = int(rng.integers(0, 7))
        m = int(rng.integers(0, 7 - n))
        lhs = spectral_norm(np.linalg.matrix_power(x, n) @ theta @ np.linalg.matrix_power(x, m))
        rhs = spectral_norm(x) ** (n + m) * spectral_norm(theta) * (1 + 1e-12)
        worst_excess = max(worst_excess, lhs / rhs)
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1.0 and elapsed < 5.0
    _report(7, "sandwich norm bounded by power of norms", ok, elapsed, f"worst ratio {worst_excess:.6f}")
    assert worst_excess <= 1.0
    assert elapsed < 5.0


def test_criterion_08a_duality_at_trivial_scattering():
    """Trace duality between the state and flow pictures at S = I.

    Three identities, each to an absolute 1e-10 over seeded random draws:

    (a) the trace-dual of the flow drift is the master-oracle generator:
        Tr(liouvillian(rho) X) == Tr(rho flow_drift(X));
    (b) the state drift misses that dual by exactly the sandwich exchange:
        Tr(state_drift(rho) X) - Tr(rho flow_drift(X)) == Tr(rho (L X L† - L† X L)),
        since the state sandwich L† rho L has trace-adjoint X -> L X L†;
    (c) the state drift itself is trace-dual to the flow drift on the
        couplings where the exchange vanishes for every X, i.e. where
        L X L† == L† X L for all X, which holds iff L is a phase times a
        self-adjoint operator.  Normality alone is not enough.

    The 200 (model, rho, X) draws for (a) and (b) use general non-normal
    couplings; the worst direct gap Tr(state_drift(rho) X) - Tr(rho
    flow_drift(X)) there is order one or larger and is accounted for by (b).
    (c) reuses the same (rho, X) pairs with L = e^{i phi} K, K self-adjoint.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    draws = []
    worst_dual = worst_exchange = raw_gap = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        model = random_model(rng, dim, scattering=False)  # S = I
        rho, x = random_complex(rng, dim), random_complex(rng, dim)
        draws.append((dim, rho, x))
        l, l_dag = model.coupling, model.coupling.conj().T
        flow_side = np.trace(rho @ flow_generator(model, x))
        drho = (liouvillian_matrix(model) @ rho.reshape(-1)).reshape(dim, dim)
        worst_dual = max(worst_dual, abs(np.trace(drho @ x) - flow_side))
        gap = np.trace(state_generator(model, rho) @ x) - flow_side
        exchange = np.trace(rho @ (l @ x @ l_dag - l_dag @ x @ l))
        worst_exchange = max(worst_exchange, abs(gap - exchange))
        raw_gap = max(raw_gap, abs(gap))
    worst_phase_hermitian = 0.0
    for dim, rho, x in draws:
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        model = QsdeModel(hamiltonian=random_hermitian(rng, dim), coupling=phase * random_hermitian(rng, dim))
        lhs = np.trace(state_generator(model, rho) @ x)
        rhs = np.trace(rho @ flow_generator(model, x))
        worst_phase_hermitian = max(worst_phase_hermitian, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = max(worst_dual, worst_exchange, worst_phase_hermitian) <= 1e-10
    _report(8, "flow drift dual is the oracle; state drift differs by the sandwich exchange", ok, elapsed,
            f"(a) {worst_dual:.1e}, (b) {worst_exchange:.1e} on raw gap {raw_gap:.3e}, "
            f"(c) phase x self-adjoint L {worst_phase_hermitian:.1e}")
    assert worst_dual <= 1e-10, f"liouvillian is not the trace-dual of the flow drift: {worst_dual:.3e}"
    assert worst_exchange <= 1e-10, (
        f"state/flow gap is not the sandwich exchange Tr(rho (L X L† - L† X L)): {worst_exchange:.3e}"
    )
    assert worst_phase_hermitian <= 1e-10, (
        f"state drift is not trace-dual to the flow drift for L = e^(i phi) K: {worst_phase_hermitian:.3e}"
    )


def test_criterion_08b_nonduality_witness_detected():
    start = time.perf_counter()
    # fixed 2x2 unitary scattering that does not commute with L
    s = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]], dtype=complex)
    model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS, scattering=s)
    assert spectral_norm(s @ SIGMA_MINUS - SIGMA_MINUS @ s) > 0.1
    rho, x = np.diag([0.0, 1.0]).astype(complex), NUMBER
    gap = abs(np.trace(state_generator(model, rho) @ x) - np.trace(rho @ flow_generator(model, x)))
    elapsed = time.perf_counter() - start
    ok = gap > 1e-3 and elapsed < 5.0
    _report(8, "documented non-duality detected for S != I witness", ok, elapsed, f"gap {gap:.3e}")
    assert gap > 1e-3
    assert elapsed < 5.0


def test_criterion_09_state_side_marginality():
    start = time.perf_counter()
    model = _damping_model()
    cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2))
    family = DirectionFamily(directions=(SIGMA_Z / 2,))
    spec = LevelSetSpec(epsilon=0.5, sample_count=12, seed=909, family=family)
    reference = QuantumState.maximally_mixed(2)

    local = check_state(model, cand, EYE2 / 2, reference, spec, "local")
    asym = check_state(model, cand, EYE2 / 2, reference, spec, "asymptotic")
    expo = check_state(model, cand, EYE2 / 2, reference, spec, "exponential", rate=0.5)
    drift_flat = abs(local.worst_drift_eigenvalue) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = local.passed and drift_flat and not asym.passed and not expo.passed and elapsed < 5.0
    _report(9, "state check: local passes with zero drift, strict modes fail", ok, elapsed,
            f"|E[drift]| <= {abs(local.worst_drift_eigenvalue):.1e}")
    assert local.passed and drift_flat
    assert not asym.passed
    assert not expo.passed
    assert elapsed < 5.0


def test_criterion_10_exponential_vector_identity():
    start = time.perf_counter()
    n_max = 25
    grid = [0.0, 0.5, -1.0, 2.0, 1.0 + 1.0j, -0.6 + 1.2j, 2.0j, -2.0, 1.4 - 1.4j]
    worst = 0.0
    for alpha in grid:
        for beta in grid:
            inner = np.vdot(exponential_vector(alpha, n_max), exponential_vector(beta, n_max))
            exact = np.exp(np.conj(alpha) * beta)
            err = abs(inner - exact)
            bound = exponential_inner_tail_bound(alpha, beta, n_max)
            assert err <= bound + 1e-13
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(10, "truncated exponential-vector inner products match exp", ok, elapsed, f"worst err {worst:.1e}")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_11_determinism_and_witness_validity(tmp_path):
    start = time.perf_counter()
    model, cand = _damping_model(), _square_candidate()

    # (a) a failing certificate's witness independently re-violates
    bad_family = DirectionFamily(directions=(np.diag([0.0, 1.0]).astype(complex),))
    spec = LevelSetSpec(epsilon=1.0, sample_count=6, seed=1111, family=bad_family)
    cert = check_local(model, cand, -EYE2, spec)
    assert not cert.passed
    violation = recheck_witness(model, cand, cert)
    witness_ok = violation > 1e-9

    # (b) byte-identical CLI reruns for certificate and CSV
    paths = {name: tmp_path / f"{name}.json" for name in ("model", "lyap", "center", "x0", "psi0")}
    save_model(model, paths["model"])
    save_lyapunov(LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2), paths["lyap"])
    save_operator(-EYE2, paths["center"])
    save_operator(SIGMA_Z, paths["x0"])
    save_state_vector(KET_E, paths["psi0"])
    family_path = tmp_path / "family.json"
    import json as _json

    from qstab.fileio import encode_matrix

    family_path.write_text(
        _json.dumps({"schema_version": 1, "directions": [encode_matrix(NUMBER)], "scale_max": 1.0})
    )

    certs, csvs = [], []
    for run in (1, 2):
        cert_out = tmp_path / f"cert{run}.json"
        csv_out = tmp_path / f"traj{run}.csv"
        code_cert = cli_main([
            "certify", str(paths["model"]), str(paths["lyap"]),
            "--center", str(paths["center"]), "--mode", "local",
            "--epsilon", "1.0", "--samples", "8", "--seed", "37",
            "--family", str(family_path),
            "--out", str(cert_out),
        ])
        code_csv = cli_main([
            "simulate", str(paths["model"]), str(paths["lyap"]),
            "--x0", str(paths["x0"]), "--psi0", str(paths["psi0"]),
            "--dt", "0.01", "--steps", "10", "--out", str(csv_out),
        ])
        assert code_cert == 0 and code_csv == 0
        certs.append(cert_out.read_bytes())
        csvs.append(csv_out.read_bytes())
    deterministic = certs[0] == certs[1] and csvs[0] == csvs[1]

    elapsed = time.perf_counter() - start
    ok = witness_ok and deterministic and elapsed < 10.0
    _report(11, "witness re-violates; CLI reruns byte-identical", ok, elapsed,
            f"witness violation {violation:.2e}")
    assert witness_ok
    assert deterministic
    assert elapsed < 10.0


def test_level_set_samples_recheck():
    # supporting spot-check used by several criteria: samples satisfy the
    # level constraint they were drawn under
    model, cand = _damping_model(), _square_candidate()
    spec = LevelSetSpec(epsilon=1.0, sample_count=8, seed=5, family=DirectionFamily(directions=(NUMBER,)))
    from qstab import evaluate, hermitian_eigenvalues

    for x in sample_level_set(cand, -EYE2, spec):
        assert hermitian_eigenvalues(evaluate(cand, x))[-1] <= 1.0 + 1e-9
