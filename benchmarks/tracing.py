"""Spans around calls into qstab's public functions, recorded from outside.

A :class:`Recorder` wraps each traced function in every ``qstab`` module
namespace that binds it (``qstab.certify.evaluate`` as well as
``qstab.lyapunov.evaluate``), so calls between modules are seen too.
``QuantumState`` is traced through its ``__init__``, which keeps
``isinstance`` checks working.  Each call becomes one span
``[name, start, end, parent, op]``; spans stay in memory until the run
writes them out.  A few functions also feed counters (samples drawn, bytes
read) through small note hooks.

The source tree is not edited: wrappers are installed for a traced op and
removed afterwards, so untraced ops run the original code.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

TRACED = {
    "operators": ("hermitian_eigenvalues", "spectral_norm", "QuantumState"),
    "models": ("validate", "flow_generator", "flow_noise_coefficients", "equilibrium_residual"),
    "lyapunov": ("canonicalize", "evaluate", "flow_ito_coefficients"),
    "certify": ("sample_level_set", "check_exponential", "estimate_max_rate", "recheck_witness"),
    "evolve": (
        "collision_step_unitary",
        "simulate_flow_expectation",
        "master_evolve",
        "master_flow_expectation",
        "finite_difference_drift_check",
        "ito_table_check",
    ),
    "fileio": (
        "load_model",
        "load_lyapunov",
        "load_operator",
        "load_state_vector",
        "load_direction_family",
        "certificate_bytes",
        "save_certificate",
        "trajectory_csv_bytes",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)

# span fields
NAME, START, END, PARENT, OP = range(5)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _note_samples(rec, args, kwargs, result):
    rec.count("samples_drawn", _arg(args, kwargs, 2, "spec").sample_count)
    rec.count("samples_returned", len(result))


def _note_read(rec, args, kwargs, result):
    rec.count("bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _note_serialized(rec, args, kwargs, result):
    rec.count("bytes_written", len(result))


def _note_saved(rec, args, kwargs, result):
    rec.count("bytes_written", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _note_chain(rec, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    config = _arg(args, kwargs, 4, "config")
    # Amplitudes of the collision chain state, 16 bytes each (complex128).
    chain = 16 * model.dim * (config.ancilla_levels + 1) ** config.steps
    rec.counters[rec.op]["chain_bytes"] = max(rec.counters[rec.op]["chain_bytes"], chain)


def _note_grid(rec, args, kwargs, result):
    rec.count("master_points", len(_arg(args, kwargs, 2, "t_grid")))


NOTES = {
    "certify.sample_level_set": _note_samples,
    "fileio.load_model": _note_read,
    "fileio.load_lyapunov": _note_read,
    "fileio.load_operator": _note_read,
    "fileio.load_state_vector": _note_read,
    "fileio.load_direction_family": _note_read,
    "fileio.certificate_bytes": _note_serialized,
    "fileio.trajectory_csv_bytes": _note_serialized,
    "fileio.save_certificate": _note_saved,
    "evolve.simulate_flow_expectation": _note_chain,
    "evolve.master_evolve": _note_grid,
}


class Recorder:
    """In-memory spans and per-op counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._undo: list[tuple] = []

    def count(self, key: str, amount) -> None:
        self.counters[self.op][key] += amount

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> None:
        self.spans.append([name, start, end, parent, self.op])

    def wrap(self, name: str, fn):
        rec, clock, note = self, time.perf_counter, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = rec.spans, rec.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                note(rec, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name in every loaded qstab module binding it."""
        if self._undo:
            return
        modules = [m for key, m in sys.modules.items() if key == "qstab" or key.startswith("qstab.")]
        for module, fns in TRACED.items():
            home = sys.modules.get(f"qstab.{module}")
            if home is None:
                continue
            for fn_name in fns:
                name = f"{module}.{fn_name}"
                original = getattr(home, fn_name)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    self._undo.append((original, "__init__", init))
                    setattr(original, "__init__", self.wrap(name, init))
                    continue
                wrapper = self.wrap(name, original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._undo.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = union_length(
            (max(spans[c][START], lo), min(spans[c][END], hi)) for c in children[i]
        )
        out.append(hi - lo - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


PER_OP_SUMS = ("calls", "self_s")


def round_layer_metrics(spans, counters, op_walls: dict, ops_per_round: int = 1) -> dict[int, dict[str, float]]:
    """Per round of traced ops: calls and self time per function, plus derived metrics.

    ``op_walls`` maps each traced op id to its measured wall time; op ``i``
    (counted from 1) belongs to round ``(i - 1) // ops_per_round``.  Calls,
    self times and bytes are per-op means over the round, so a round of
    different commands reports its mix; ratios are taken over the round.
    """
    selfs = self_times(spans)
    under_sampling = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            under_sampling[i] = under_sampling[parent] or spans[parent][NAME] == "certify.sample_level_set"

    def round_of(op):
        return (op - 1) // ops_per_round

    sums = {}
    for op, wall in op_walls.items():
        m = sums.setdefault(round_of(op), defaultdict(float))
        m["_wall_s"] += wall
        for key, value in counters.get(op, {}).items():
            m[key] = max(m[key], value) if key == "chain_bytes" else m[key] + value
    for i, span in enumerate(spans):
        if span[OP] not in op_walls:
            continue
        m = sums[round_of(span[OP])]
        name = span[NAME]
        if span[PARENT] < 0:
            m["_top_s"] += span[END] - span[START]
        if name in SPAN_NAMES:
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += selfs[i]
        if name == "lyapunov.evaluate" and under_sampling[i]:
            m["_evals_sampling"] += 1
        if name == "evolve.master_evolve":
            m["_master_s"] += span[END] - span[START]

    per_round = {}
    for rnd, m in sums.items():
        out = {f"{name}.{kind}": m[f"{name}.{kind}"] / ops_per_round for name in SPAN_NAMES for kind in PER_OP_SUMS}
        drawn = m["samples_drawn"]
        out["certify.evals_per_sample"] = _ratio(m["_evals_sampling"], drawn)
        out["certify.eigs_per_sample"] = _ratio(m["operators.hermitian_eigenvalues.calls"], drawn)
        out["certify.accept_ratio"] = _ratio(m["samples_returned"], drawn)
        out["evolve.chain_bytes"] = m["chain_bytes"]
        out["evolve.master_s_per_point"] = _ratio(m["_master_s"], m["master_points"])
        out["fileio.bytes_read"] = m["bytes_read"] / ops_per_round
        out["fileio.bytes_written"] = m["bytes_written"] / ops_per_round
        out["trace.coverage"] = _ratio(m["_top_s"], m["_wall_s"])
        per_round[rnd] = out
    return per_round


def median_layer_metrics(per_round: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over traced rounds of each layer metric."""
    keys = next(iter(per_round.values())).keys()
    return {k: statistics.median(m[k] for m in per_round.values()) for k in keys}


def write_spans(spans, path) -> None:
    """Write spans as arrays: name code, start, end, parent, op, plus the name table."""
    import numpy as np

    names = sorted({span[NAME] for span in spans})
    code = {name: i for i, name in enumerate(names)}
    np.savez(
        path,
        names=np.array(names),
        name=np.array([code[s[NAME]] for s in spans], dtype=np.int16),
        start=np.array([s[START] for s in spans], dtype=float),
        end=np.array([s[END] for s in spans], dtype=float),
        parent=np.array([s[PARENT] for s in spans], dtype=np.int64),
        op=np.array([s[OP] for s in spans], dtype=np.int64),
    )
