"""qstab benchmark: one workload per process, one op at a time, BLAS pinned.

    python3 benchmarks/run.py --workload certify-qubit --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15

A run sets the workload up, runs one untimed warm-up op (op 0), then ops
1, 2, ... back to back for ``--seconds``, and finally reruns op 0, whose
bytes must match the warm-up's.  ``setup_s`` is timed in fresh interpreters
spread over the same stretch.
Every op passes its workload's correctness gate or counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics: calls and self
time of qstab's public functions, derived ratios and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
environment included, go to ``benchmarks/out/<workload>/``.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child process.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PIN_REASON = (
    "BLAS threads pinned to 1: with the default 2-thread OpenBLAS pool on 2 cores, "
    "master_flow_expectation at d=8 on 201 points took 2.9-4.2 s against 0.19-0.31 s "
    "with one thread (about 12-13x slower), so unpinned runs time the scheduler"
)
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify-qubit", "certify-dense", "trajectory", "cli-cold")
SETUP_PROBES = 7
END_TO_END = ("setup_s", "op_s.p50", "op_cpu_s.p50", "peak_rss_mb")
UNITS = {"setup_s": "s", "op_s.p50": "s", "op_cpu_s.p50": "s", "peak_rss_mb": "MB", "fail_frac": "ratio"}
DERIVED_UNITS = {
    "certify.evals_per_sample": "count",
    "certify.eigs_per_sample": "count",
    "certify.accept_ratio": "ratio",
    "evolve.chain_bytes": "bytes-computed",
    "evolve.master_s_per_point": "s",
    "fileio.bytes_read": "bytes",
    "fileio.bytes_written": "bytes",
    "import.qstab_s": "s",
    "import.scipy_loaded": "flag",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_s"):
        return "s"
    return DERIVED_UNITS[name]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports (numpy's and scipy's)."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "pinned_env": PINNED_THREADS,
        "pin_reason": PIN_REASON,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def probe_setup(workloads, name: str, seed: int, work: Path) -> dict:
    """One fresh interpreter: import qstab and build the inputs."""
    out = work / "probe.txt"
    child = workloads.run_child([sys.executable, str(HERE / "probe.py"), name, str(seed)], out)
    if child.returncode != 0:
        raise RuntimeError(f"setup probe exited {child.returncode}: {out.read_text()[-2000:]}")
    report = json.loads(out.read_text().strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - child.spawned
    report["wall_s"] = child.exited - child.spawned
    return report


class Run:
    """One measured run of one workload: ops, their timings and their gates."""

    def __init__(self, workload, same_output, recorder=None):
        self.workload = workload
        self.same_output = same_output
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls = {False: [], True: []}
        self.cpus = {False: [], True: []}
        self.traced_walls: dict[int, float] = {}

    def _fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{label}: {p}" for p in problems]

    def attempt(self, index: int, traced: bool = False, timed: bool = True, reference=None):
        """Run and time one op, then gate it; returns the result, or None if it failed."""
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), _cpu_now()
        try:
            result = self.workload.run(index, self.recorder if traced else None)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            self._fail(f"op {index}", [f"raised {type(exc).__name__}: {exc}"])
            return None
        wall, cpu = time.perf_counter() - wall0, _cpu_now() - cpu0
        if timed:
            self.walls[traced].append(wall)
            self.cpus[traced].append(cpu)
            if traced:
                self.traced_walls[index] = wall
        problems = self.workload.check(result)
        if reference is not None:
            problems += self.same_output(reference.output, result.output)
        if problems:
            self._fail(f"op {index}", problems)
            return None
        return result

    def measure(self, seconds: float, trace: bool, probe, probes: int) -> list[dict]:
        """Warm-up op 0, timed rounds for ``seconds``, then op 0 again.

        The ``probes`` set-up probes are spread evenly over the timed rounds,
        so that ``setup_s`` samples the same stretch of machine time as the
        ops; probe time does not count against ``seconds``.
        """
        first = self.attempt(0, timed=False)
        reports: list[dict] = []
        index, rounds, probe_s, start = 1, 0, 0.0, time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start - probe_s
            if len(reports) < probes and elapsed >= len(reports) * seconds / probes:
                reports.append(probe())
                probe_s += reports[-1]["wall_s"]
                continue
            if elapsed >= seconds and (not trace or rounds % 2 == 0):
                break
            traced = trace and rounds % 2 == 1
            for _ in range(self.workload.period):
                self.attempt(index, traced)
                index += 1
            rounds += 1
        reports += [probe() for _ in range(probes - len(reports))]
        if first is None:
            self.attempted += 1
            self._fail("op 0 rerun", ["no warm-up output to compare with"])
        else:
            self.attempt(0, timed=False, reference=first)
        return reports


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    work = HERE / "out" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    workload.setup()
    recorder = tracing.Recorder() if args.trace else None
    run = Run(workload, workloads.same_output, recorder)
    probes = run.measure(
        args.seconds, bool(args.trace), lambda: probe_setup(workloads, args.workload, args.seed, work), SETUP_PROBES
    )

    untraced = run.walls[False]
    summary = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "op_s.p50": statistics.median(untraced),
        "op_cpu_s.p50": statistics.median(run.cpus[False]),
        "peak_rss_mb": workload.peak_rss_mb(),
        "fail_frac": run.failed / run.attempted,
    }
    if args.trace:
        per_round = tracing.round_layer_metrics(
            recorder.spans, recorder.counters, run.traced_walls, workload.period)
        layers = tracing.median_layer_metrics(per_round)
        layers["import.qstab_s"] = statistics.median(p["import_s"] for p in probes)
        layers["import.scipy_loaded"] = float(max(p["scipy_loaded"] for p in probes))
        layers["trace.overhead"] = statistics.median(run.walls[True]) / summary["op_s.p50"] - 1.0
        metrics = {k: _metric(v, layer_unit(k)) for k, v in layers.items()}
        tracing.write_spans(recorder.spans, work / "spans.npz")
    else:
        metrics = {k: _metric(summary[k], UNITS[k]) for k in END_TO_END}

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "summary": summary, "metrics": metrics,
        "ops": {"untraced": len(untraced), "traced": len(run.walls[True])},
        "op_walls_s": run.walls[False], "traced_op_walls_s": run.walls[True],
        "setup_probes": probes, "problems": run.problems,
    }
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  ops {len(untraced)} untraced, "
          f"{len(run.walls[True])} traced  (1 warm-up + 1 rerun untimed)")
    for key, value in summary.items():
        print(f"  {key:<14} {value:.6g} {UNITS[key]}")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints one table with units."""
    rows, total, failed, ok = [], 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        lines = proc.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        details = json.loads((HERE / "out" / name / "result-trace0.json").read_text())
        rows.append((name, details["summary"], details["ops"]["untraced"]))
        total, failed, ok = total + line["attempted"], failed + line["failed"], ok and line["correct"]
    keys = list(UNITS)
    print(f"{'workload':<14}" + "".join(f"{k + ' [' + UNITS[k] + ']':>20}" for k in keys) + f"{'ops':>6}")
    for name, summary, ops in rows:
        print(f"{name:<14}" + "".join(f"{summary[k]:>20.6g}" for k in keys) + f"{ops:>6}")
    metrics = {f"{name}/{k}": _metric(summary[k], UNITS[k]) for name, summary, _ in rows for k in keys}
    print(json.dumps({"correct": ok, "attempted": total, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/qstab/__init__.py", "demos/files/damping_model.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a qstab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
