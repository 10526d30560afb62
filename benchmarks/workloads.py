"""The four benchmark workloads: inputs from a seed, one op, correctness gates.

Each workload builds its inputs in :meth:`setup` (through ``fileio`` where
they are files), runs one op per :meth:`run` call and judges a result with
:meth:`check`, which returns the list of problems found (empty when the op
is correct).  The workload seed drives the level-set seeds and the random
rotation; qstab only ever sees the generated inputs.  Importing this
module needs ``src`` on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through the module attributes, which the tracing wrappers replace.
from qstab import certify, evolve, fileio, fock, lyapunov
from qstab.certify import DirectionFamily, HermitianBall, LevelSetSpec
from qstab.evolve import CollisionConfig
from qstab.lyapunov import LyapunovCandidate
from qstab.models import QsdeModel
from qstab.operators import QuantumState

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FILES = ROOT / "demos" / "files"

CHILD_TIMEOUT_S = 120.0

# The README's certify example, verbatim.  Its family has scale_min 0, so a
# level-set seed drawing a sample within ~1e-4 of the center fails the
# strict check against the absolute tol_strict (2 of 400 derived seeds did);
# see NOTES.md.  cli-cold therefore keeps the documented seed.
README_CERTIFY_SEED = "7"


def _stream(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed % 2**64, *key])


def level_seed(seed: int, index: int) -> int:
    """Level-set seed for op ``index`` of a run with workload seed ``seed``."""
    return int(_stream(seed, 0x5EED, index).generate_state(1, np.uint64)[0] >> np.uint64(1))


def random_unitary(seed: int, dim: int) -> np.ndarray:
    """Haar-random unitary drawn from the workload seed (QR with phase fix)."""
    rng = np.random.default_rng(_stream(seed, 0xD3))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitize(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().T) / 2


def _square_candidate(dim: int) -> LyapunovCandidate:
    """V(X) = (X + I)^2, the demo candidate centred at X_e = -I."""
    eye = np.eye(dim, dtype=complex)
    return lyapunov.canonicalize(LyapunovCandidate(terms=((1, 1, eye),), center=-eye))


def _top_fock_state(dim: int) -> QuantumState:
    psi = np.zeros(dim, dtype=complex)
    psi[-1] = 1.0
    return QuantumState.from_vector(psi)


def collision_config(dim: int, dt: float, steps: int, levels: int = 1) -> CollisionConfig:
    """Collision settings that admit the full chain.

    Raises ``dim_guard`` to the chain dimension where the config still has
    a guard, and passes nothing extra where it does not.
    """
    extra = {}
    if "dim_guard" in {f.name for f in dataclasses.fields(CollisionConfig)}:
        extra["dim_guard"] = dim * (levels + 1) ** steps
    return CollisionConfig(dt=dt, steps=steps, ancilla_levels=levels, **extra)


def same_output(first: bytes, again: bytes) -> list[str]:
    """Gate for reruns: identical inputs and seed must give identical bytes."""
    if first == again:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, again)) if a != b), min(len(first), len(again)))
    return [f"rerun output differs from the first run at byte {at} ({len(first)} vs {len(again)} bytes)"]


class InProcess:
    """A workload whose op runs in this process; tracing wraps the op."""

    period = 1  # ops per round; traced and untraced rounds alternate

    def run(self, index: int, recorder=None):
        if recorder is None:
            return self.op(index)
        recorder.op = index
        recorder.install()
        try:
            return self.op(index)
        finally:
            recorder.uninstall()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class CertifyResult:
    cert: object
    estimate: object
    recheck: float | None
    output: bytes


class CertifyQubit(InProcess):
    """Demo damping qubit, random Hermitian ball; every sample bisects and fails."""

    name = "certify-qubit"
    epsilon = 0.5
    rate = 0.5

    def __init__(self, seed: int, workdir: Path | None = None, samples: int = 256):
        self.seed = seed
        self.samples = samples

    def setup(self) -> None:
        self.model = fileio.load_model(FILES / "damping_model.json")
        self.candidate = fileio.load_lyapunov(FILES / "square_candidate.json")
        self.center = fileio.load_operator(FILES / "center.json")

    def spec(self, index: int) -> LevelSetSpec:
        return LevelSetSpec(self.epsilon, self.samples, level_seed(self.seed, index), HermitianBall(1.0))

    def op(self, index: int) -> CertifyResult:
        spec = self.spec(index)
        cert = certify.check_exponential(self.model, self.candidate, self.center, spec, self.rate)
        estimate = certify.estimate_max_rate(self.model, self.candidate, self.center, spec)
        recheck = certify.recheck_witness(self.model, self.candidate, cert)
        return CertifyResult(cert, estimate, recheck, fileio.certificate_bytes(cert))

    def check(self, result: CertifyResult) -> list[str]:
        cert, problems = result.cert, []
        if cert.verdict != "fail":
            problems.append(f"verdict {cert.verdict!r}, expected 'fail'")
        if cert.violated_condition != "drift has a positive eigenvalue on a sample":
            problems.append(f"violated condition {cert.violated_condition!r}")
        if result.estimate.rate != 0.0:
            problems.append(f"estimated rate {result.estimate.rate!r}, expected 0")
        if not result.recheck > 0:
            problems.append(f"witness recheck {result.recheck!r} is not positive")
        elif cert.violation is None or abs(result.recheck - cert.violation) > cert.tolerances["tol"] + 1e-12:
            # The stored violation is the raw eigenvalue; the recheck subtracts tol.
            problems.append(f"witness recheck {result.recheck!r} is not within tol of {cert.violation!r}")
        return problems


class CertifyDense(InProcess):
    """Damped oscillator at d=32 rotated by a seed-drawn unitary; the check passes."""

    name = "certify-dense"
    epsilon = 0.25
    rate = 0.5
    n_max = 31

    def __init__(self, seed: int, workdir: Path | None = None, samples: int = 32):
        self.seed = seed
        self.samples = samples

    def setup(self) -> None:
        a, _, number = fock.ladder_operators(self.n_max)
        u = random_unitary(self.seed, self.n_max + 1)
        rotated_number = _hermitize(u @ number @ u.conj().T)
        self.model = QsdeModel(hamiltonian=rotated_number, coupling=u @ a @ u.conj().T)
        self.candidate = _square_candidate(self.n_max + 1)
        self.center = -np.eye(self.n_max + 1, dtype=complex)
        self.family = DirectionFamily(directions=(rotated_number,), scale_min=0.1, scale_max=1.0)

    def spec(self, index: int) -> LevelSetSpec:
        return LevelSetSpec(self.epsilon, self.samples, level_seed(self.seed, index), self.family)

    def op(self, index: int) -> CertifyResult:
        spec = self.spec(index)
        cert = certify.check_exponential(self.model, self.candidate, self.center, spec, self.rate)
        estimate = certify.estimate_max_rate(self.model, self.candidate, self.center, spec)
        return CertifyResult(cert, estimate, None, fileio.certificate_bytes(cert))

    def check(self, result: CertifyResult) -> list[str]:
        cert, estimate, problems = result.cert, result.estimate, []
        if cert.verdict != "pass":
            problems.append(f"verdict {cert.verdict!r} ({cert.violated_condition}), expected 'pass'")
        if cert.sample_count_used != self.samples:
            problems.append(f"{cert.sample_count_used} samples used, expected {self.samples}")
        # Analytic rate: min over n >= 1 of (2n - 1)/n = 1.
        if not abs(estimate.rate - 1.0) <= 1e-6:
            problems.append(f"estimated rate {estimate.rate!r}, expected 1 within 1e-6")
        if estimate.support_mismatch:
            problems.append("rate estimate reports a support mismatch")
        return problems


@dataclass
class TrajectoryResult:
    collision: object
    master_short: object
    master_long: object
    drift_check: object
    ito_table: object
    output: bytes


class Trajectory(InProcess):
    """Collision chain vs master oracle, master vs closed form, and crosschecks."""

    name = "trajectory"
    dt = 0.01
    steps = 15

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed

    def setup(self) -> None:
        a4, _, n4 = fock.ladder_operators(3)
        self.model = QsdeModel(hamiltonian=n4, coupling=a4)
        self.candidate = _square_candidate(4)
        self.x0 = n4 / 3
        self.psi0 = _top_fock_state(4)
        self.observables = {"n": n4}
        self.config = collision_config(4, self.dt, self.steps)
        self.fd_config = CollisionConfig(dt=self.dt, steps=1)

        a8, _, n8 = fock.ladder_operators(7)
        self.model8 = QsdeModel(hamiltonian=n8, coupling=a8)
        # V(X) = X, so E[V] = <n>(t) = 7 exp(-t) from the top Fock state.
        self.identity8 = lyapunov.canonicalize(
            LyapunovCandidate(terms=((1, 0, np.eye(8, dtype=complex)),)), hermitian_closure=True
        )
        self.x8 = n8
        self.psi8 = _top_fock_state(8)
        self.grid8 = np.linspace(0.0, 4.0, 201)

    def op(self, index: int) -> TrajectoryResult:
        collision = evolve.simulate_flow_expectation(
            self.model, self.candidate, self.x0, self.psi0, self.config, observables=self.observables
        )
        master_short = evolve.master_flow_expectation(
            self.model, self.candidate, self.x0, self.psi0, collision.times, observables=self.observables
        )
        master_long = evolve.master_flow_expectation(self.model8, self.identity8, self.x8, self.psi8, self.grid8)
        drift_check = evolve.finite_difference_drift_check(
            self.model, self.candidate, self.x0, self.psi0, self.fd_config
        )
        ito_table = evolve.ito_table_check(ancilla_levels=1, dt=self.dt)
        output = b"".join(fileio.trajectory_csv_bytes(t) for t in (collision, master_short, master_long))
        return TrajectoryResult(collision, master_short, master_long, drift_check, ito_table, output)

    def check(self, result: TrajectoryResult) -> list[str]:
        problems = []
        master = result.master_long
        closed = 7.0 * np.exp(-master.times)
        gap = float(np.max(np.abs(master.v_expect - closed)))
        if not gap <= 1e-9:
            problems.append(f"master vs 7 exp(-t): max gap {gap:.3e} > 1e-9")

        coll, ref = result.collision, result.master_short
        if coll.times.shape != ref.times.shape or not np.array_equal(coll.times, ref.times):
            return problems + ["collision and master grids differ"]
        # First order in dt: the scheme's error grows like dt * t times the scale.
        pairs = [("v_expect", coll.v_expect, ref.v_expect)]
        pairs += [(f"obs {k}", coll.obs_expect[k], ref.obs_expect[k]) for k in self.observables]
        for label, got, want in pairs:
            allowance = 1e-12 + self.dt * coll.times * float(np.max(np.abs(want)))
            excess = np.abs(got - want) - allowance
            if not np.all(excess <= 0):
                k = int(np.argmax(excess))
                problems.append(
                    f"collision {label} at t={coll.times[k]:g} differs from master by "
                    f"{abs(got[k] - want[k]):.3e} > {allowance[k]:.3e}"
                )
        if not result.drift_check.order_ok:
            problems.append(f"finite-difference drift not first order (ratio {result.drift_check.ratio:.3f})")
        if not result.ito_table.max_deviation <= 1e-12:
            problems.append(f"Ito table max deviation {result.ito_table.max_deviation:.3e} > 1e-12")
        return problems


@dataclass
class ChildRun:
    returncode: int
    spawned: float
    exited: float
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QSTAB_SEED", None)  # it would override the --seed the benchmark passes
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdout_path: Path) -> ChildRun:
    """Run one child to completion; report its exit code, wall span and peak RSS."""
    with open(stdout_path, "wb") as out:
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        exited = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, spawned, exited, usage.ru_maxrss / 1024)


@dataclass
class CliResult:
    command: str
    returncode: int
    output: bytes  # stdout followed by the --out file, if any


class CliCold:
    """One fresh ``python -m qstab.cli`` process per op, cycling the README commands.

    The commands and their inputs are fixed; the workload seed does not enter.
    """

    name = "cli-cold"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.work = Path(workdir)
        self.reference: dict[str, bytes] = {}
        self.max_child_rss_mb = 0.0
        self.commands = self._commands()
        self.period = len(self.commands)

    def _commands(self) -> list[tuple[str, list[str], Path | None]]:
        f = {name: str(FILES / f"{name}.json") for name in (
            "damping_model", "square_candidate", "center", "x0_sigma_z", "psi0_excited", "number_family")}
        model_cand = [f["damping_model"], f["square_candidate"]]
        start = ["--x0", f["x0_sigma_z"], "--psi0", f["psi0_excited"], "--dt", "0.01"]
        cert, coll, master = self.work / "cert.json", self.work / "collision.csv", self.work / "master.csv"
        return [
            ("validate", ["validate", f["damping_model"]], None),
            ("drift", ["drift", *model_cand, "--point", f["x0_sigma_z"]], None),
            ("certify", ["certify", *model_cand, "--center", f["center"], "--mode", "exponential",
                         "--epsilon", "1", "--samples", "16", "--seed", README_CERTIFY_SEED,
                         "--rate", "0.5", "--family", f["number_family"], "--estimate-rate",
                         "--out", str(cert)], cert),
            ("simulate", ["simulate", *model_cand, *start, "--steps", "12", "--out", str(coll)], coll),
            ("simulate-master", ["simulate", *model_cand, *start, "--steps", "100", "--method", "master",
                                 "--out", str(master)], master),
            ("crosscheck", ["crosscheck", *model_cand, *start], None),
        ]

    def setup(self) -> None:
        """The inputs the commands read, loaded once through fileio."""
        self.work.mkdir(parents=True, exist_ok=True)
        fileio.load_model(FILES / "damping_model.json")
        fileio.load_lyapunov(FILES / "square_candidate.json")
        for name in ("center", "x0_sigma_z"):
            fileio.load_operator(FILES / f"{name}.json")
        fileio.load_state_vector(FILES / "psi0_excited.json")
        fileio.load_direction_family(FILES / "number_family.json")

    def run(self, index: int, recorder=None) -> CliResult:
        name, args, out_file = self.commands[index % self.period]
        if out_file is not None and out_file.exists():
            out_file.unlink()
        stdout_path = self.work / "stdout.txt"
        spans_path = self.work / "spans.json"
        if recorder is None:
            argv = [sys.executable, "-m", "qstab.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), "--", *args]
        child = run_child(argv, stdout_path)
        self.max_child_rss_mb = max(self.max_child_rss_mb, child.maxrss_mb)
        if recorder is not None:
            self._merge_spans(recorder, index, child, spans_path)
        output = stdout_path.read_bytes()
        if out_file is not None and out_file.exists():
            output += out_file.read_bytes()
        return CliResult(name, child.returncode, output)

    @staticmethod
    def _merge_spans(recorder, index: int, child: ChildRun, spans_path: Path) -> None:
        data = json.loads(spans_path.read_text())
        offset = len(recorder.spans)
        recorder.op = index
        for name, start, end, parent, _ in data["spans"]:
            recorder.add_span(name, start, end, parent + offset if parent >= 0 else -1)
        # Interpreter start-up before the child's first span and teardown after its last.
        recorder.add_span("process.startup", child.spawned, data["begin"])
        recorder.add_span("process.exit", data["end"], child.exited)
        for key, value in data["counters"].items():
            recorder.count(key, value)

    def check(self, result: CliResult) -> list[str]:
        if result.returncode != 0:
            return [f"{result.command} exited {result.returncode}"]
        first = self.reference.setdefault(result.command, result.output)
        return [f"{result.command}: {p}" for p in same_output(first, result.output)]

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_mb


WORKLOADS = {cls.name: cls for cls in (CertifyQubit, CertifyDense, Trajectory, CliCold)}
