"""Command-line surface for batch model validation, drift reports,
certification, simulation and cross-checks.

Exit codes are the machine contract: 0 success / verdict pass, 1 verdict
fail, 2 input error, 3 internal error.  ``certify`` runs every mode through
one check, and ``--estimate-rate`` reads that check's own samples.  The
environment variable ``QSTAB_SEED`` overrides ``--seed`` when set.
Human-readable report text may evolve; files written via ``--out`` are
byte-stable given identical inputs and seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import fileio
from .certify import _check, _rate
from .errors import InternalCheckError, InvalidStateError, QstabError
from .evolve import (
    CollisionConfig,
    finite_difference_drift_check,
    ito_table_check,
    master_flow_expectation,
    simulate_flow_expectation,
)
from .lyapunov import flow_ito_coefficients, state_ito_coefficients
from .models import diagnose
from .operators import QuantumState, hermiticity_defect, require_positive

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class QstabCliInputError(QstabError, ValueError):
    """Bad command-line flag combination."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a model file's invariants")
    p_val.add_argument("model")
    p_val.add_argument("--tol", type=float, default=1e-9)

    p_drift = sub.add_parser("drift", help="print the four Ito coefficients at a point")
    p_drift.add_argument("model")
    p_drift.add_argument("lyapunov")
    p_drift.add_argument("--point", required=True)
    p_drift.add_argument("--picture", choices=["flow", "state"], default="flow")

    p_cert = sub.add_parser("certify", help="run a stability check and write a certificate")
    p_cert.add_argument("model")
    p_cert.add_argument("lyapunov")
    p_cert.add_argument("--center", required=True)
    p_cert.add_argument(
        "--mode",
        required=True,
        choices=["local", "asymptotic", "exponential", "state-local", "state-asymptotic", "state-exponential"],
    )
    p_cert.add_argument("--epsilon", type=float, required=True)
    p_cert.add_argument("--samples", type=int, required=True)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--rate", type=float, help="decay rate a for exponential modes")
    p_cert.add_argument("--margin", type=float, help="uniform drift bound b for asymptotic mode")
    p_cert.add_argument("--family", help="direction-family file (default: random Hermitian ball)")
    p_cert.add_argument("--reference", help="reference state file for state-* modes (default: the center)")
    p_cert.add_argument("--tol", type=float, default=1e-9)
    p_cert.add_argument("--out", help="write the certificate JSON here")
    p_cert.add_argument("--estimate-rate", action="store_true", help="also report the max supported rate")

    p_sim = sub.add_parser("simulate", help="trajectory of E[V] by collision model or master oracle")
    p_sim.add_argument("model")
    p_sim.add_argument("lyapunov")
    p_sim.add_argument("--x0", required=True)
    p_sim.add_argument("--psi0", required=True)
    p_sim.add_argument("--dt", type=float, required=True)
    p_sim.add_argument("--steps", type=int, required=True)
    p_sim.add_argument("--method", choices=["collision", "master"], default="collision")
    p_sim.add_argument("--ancilla-levels", type=int, default=1)
    p_sim.add_argument("--out", help="write the trajectory CSV here (default: stdout)")

    p_cross = sub.add_parser("crosscheck", help="finite-difference drift check and Ito table check")
    p_cross.add_argument("model")
    p_cross.add_argument("lyapunov")
    p_cross.add_argument("--x0", required=True)
    p_cross.add_argument("--psi0", required=True)
    p_cross.add_argument("--dt", type=float, required=True)
    p_cross.add_argument("--ancilla-levels", type=int, default=1)
    return parser


def _seed_override(seed: int) -> int:
    env = os.environ.get("QSTAB_SEED")
    try:
        return int(env) if env else seed
    except ValueError:
        raise QstabCliInputError(f"QSTAB_SEED must be an integer, got {env!r}") from None


def _print_matrix(name: str, m: np.ndarray) -> None:
    """The matrix and its sorted eigenvalues; adding 0.0 prints an exact zero without its sign."""
    print(f"{name}:")
    print(np.array2string(m + 0.0, precision=6, suppress_small=True))
    eigs = np.linalg.eigvals(m)
    print(f"  eigenvalues: {np.array2string(np.sort_complex(eigs) + 0.0, precision=6)}")


def _cmd_validate(args) -> int:
    model = fileio.load_model(args.model, tol=args.tol)  # raises naming the defect
    report = diagnose(model, tol=args.tol)
    print(f"model ok: dim {model.dim}")
    print(f"  H hermiticity defect: {report.hamiltonian_defect:.3e}")
    print(f"  S unitarity defect:   {report.scattering_defect:.3e}")
    print(f"  ||H|| {report.norm_hamiltonian:.6g}  ||L|| {report.norm_coupling:.6g}  ||S|| {report.norm_scattering:.6g}")
    print(f"  decay-rate scale ||L†L||: {report.decay_scale:.6g}")
    return EXIT_PASS


def _describe_candidate(candidate) -> None:
    count, degrees, lam = len(candidate.terms), sorted({(n, m) for n, m, _ in candidate.terms}), candidate.center
    center = "" if lam is None else f", center {lam[0, 0].real if not lam[0, 0].imag else lam[0, 0]:.6g}·I"
    print(f"candidate: {count} canonical term{'s' * (count != 1)}, exponents {degrees}{center}")


def _cmd_drift(args) -> int:
    model = fileio.load_model(args.model)
    candidate = fileio.load_lyapunov(args.lyapunov)
    _describe_candidate(candidate)
    point = fileio.load_operator(args.point)
    if args.picture == "flow":
        coeffs = flow_ito_coefficients(model, candidate, point)
    else:
        coeffs = state_ito_coefficients(model, candidate, point)
    print(f"Ito coefficients ({args.picture} picture), drift hermiticity defect "
          f"{hermiticity_defect(coeffs.drift):.3e}")
    _print_matrix("drift", coeffs.drift)
    _print_matrix("coeff_a (annihilation)", coeffs.coeff_a)
    _print_matrix("coeff_adag (creation)", coeffs.coeff_adag)
    _print_matrix("coeff_gauge", coeffs.coeff_gauge)
    return EXIT_PASS


def _cmd_certify(args) -> int:
    if args.rate is not None and not args.mode.endswith("exponential"):
        raise QstabCliInputError(f"--rate applies only to exponential modes, not {args.mode}")
    if args.margin is not None and args.mode != "asymptotic":
        raise QstabCliInputError(f"--margin applies only to asymptotic mode, not {args.mode}")
    if args.estimate_rate and args.mode.startswith("state-"):
        raise QstabCliInputError(f"--estimate-rate applies only to the flow modes, not {args.mode}")
    model = fileio.load_model(args.model, tol=args.tol)
    candidate = fileio.load_lyapunov(args.lyapunov)
    _describe_candidate(candidate)
    center = fileio.load_operator(args.center)
    seed = _seed_override(args.seed)
    spec = fileio.level_set_spec_from_args(args.epsilon, args.samples, seed, args.family)
    needs = {"asymptotic": "margin", "exponential": "rate"}.get(args.mode)
    if needs and getattr(args, needs) is None:
        raise QstabCliInputError(f"{args.mode} mode needs --{needs}")
    reference = None
    if args.mode.startswith("state-"):
        try:
            reference = QuantumState(fileio.load_operator(args.reference) if args.reference else center)
        except InvalidStateError as exc:
            flag = "--reference" if args.reference else "--center (the default --reference)"
            raise QstabCliInputError(f"{flag} is not a density matrix: {exc}") from None
    cert, samples = _check(model, candidate, center, spec, args.mode, rate=args.rate, margin=args.margin,
                           reference_state=reference, tol=args.tol)

    print(f"mode {cert.mode}: verdict {cert.verdict}")
    print(f"  equilibrium residual: {cert.equilibrium_residual:.3e}")
    if cert.worst_drift_eigenvalue is not None:
        print(f"  worst drift eigenvalue: {cert.worst_drift_eigenvalue:.6g}")
    if cert.worst_v_min_eigenvalue is not None:
        print(f"  worst candidate minimum: {cert.worst_v_min_eigenvalue:.6g}")
    if cert.rate is not None:
        print(f"  rate: {cert.rate:.6g}")
    if cert.margin is not None:
        print(f"  margin: {cert.margin:.6g}")
    if cert.verdict == "fail":
        print(f"  violated condition: {cert.violated_condition} (violation {cert.violation:.3e})")
    if args.estimate_rate and samples is None:  # a center condition failed, the one estimate_max_rate raises
        print(f"  max supported rate: not estimated ({cert.violated_condition})")
    elif args.estimate_rate:
        try:  # on the check's own samples, so only a condition on V can raise here
            est = _rate(model, candidate, samples, args.tol)
        except ValueError as exc:
            print(f"  max supported rate: not estimated ({exc})")
        else:
            flag = " (positive drift off the candidate support)" if est.support_mismatch else ""
            print(f"  max supported rate: {est.rate:.6g}{flag}")
    if args.out:
        fileio.save_certificate(cert, args.out)
        print(f"  certificate written to {args.out}")
    return EXIT_PASS if cert.passed else EXIT_FAIL


def _cmd_simulate(args) -> int:
    model = fileio.load_model(args.model)
    candidate = fileio.load_lyapunov(args.lyapunov)
    x0 = fileio.load_operator(args.x0)
    psi0 = QuantumState.from_vector(fileio.load_state_vector(args.psi0))
    if args.method == "collision":
        config = CollisionConfig(dt=args.dt, steps=args.steps, ancilla_levels=args.ancilla_levels)
        traj = simulate_flow_expectation(model, candidate, x0, psi0, config)
    else:
        require_positive(args.dt, "dt")
        if args.steps < 0:
            raise QstabCliInputError(f"steps must be nonnegative, got {args.steps}")
        t_grid = args.dt * np.arange(args.steps + 1)
        traj = master_flow_expectation(model, candidate, x0, psi0, t_grid)
    if args.out:
        fileio.write_trajectory_csv(traj, args.out)
        print(f"trajectory ({traj.method}) written to {args.out}")
    else:
        sys.stdout.write(fileio.trajectory_csv_bytes(traj).decode("utf-8"))
    return EXIT_PASS


def _cmd_crosscheck(args) -> int:
    model = fileio.load_model(args.model)
    candidate = fileio.load_lyapunov(args.lyapunov)
    x0 = fileio.load_operator(args.x0)
    psi0 = QuantumState.from_vector(fileio.load_state_vector(args.psi0))
    config = CollisionConfig(dt=args.dt, steps=1, ancilla_levels=args.ancilla_levels)
    table = ito_table_check(ancilla_levels=args.ancilla_levels, dt=args.dt)  # first, so a bad dt prints nothing

    fd = finite_difference_drift_check(model, candidate, x0, psi0, config)
    print("finite-difference drift check:")
    print(f"  analytic {fd.analytic:+.9g}  empirical {fd.empirical:+.9g}  gap {fd.gap:.3e}")
    print(f"  at dt/2: empirical {fd.empirical_half:+.9g}  gap {fd.gap_half:.3e}  ratio {fd.ratio:.3f}")
    print(f"  first-order convergence: {'ok' if fd.order_ok else 'FAILED'}")

    print(f"Ito table check (dt={table.dt:g}, ancilla levels {table.ancilla_levels}):")
    for e in table.entries:
        print(f"  {e.left:>8s} * {e.right:<8s} -> {e.maps_to:<6s} moment {e.moment:+.3e} "
              f"expected {e.expected:+.3e} deviation {e.deviation:.1e}")
    table_ok = table.max_deviation <= 1e-12
    print(f"  max deviation {table.max_deviation:.3e}: {'ok' if table_ok else 'FAILED'}")
    return EXIT_PASS if fd.order_ok and table_ok else EXIT_FAIL


_HANDLERS = {
    "validate": _cmd_validate,
    "drift": _cmd_drift,
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "crosscheck": _cmd_crosscheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (QstabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
