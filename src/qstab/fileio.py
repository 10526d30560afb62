"""JSON model/candidate files, certificate serialization and trajectory CSV.

Matrices are stored row-major with every complex entry encoded as a
two-element ``[re, im]`` array, which survives a JSON round trip
bit-exactly.  A ``schema_version`` field (2 for certificates, 1 otherwise)
gates format changes.  Certificates serialize every input needed to
reproduce the run (seed, family, tolerances, sample counts) and are dumped
with sorted keys so identical runs produce identical bytes.  Trajectories
are written as CSV with 17 significant digits and LF line endings.
"""

from __future__ import annotations

import json
from copy import copy
from dataclasses import fields

import numpy as np

from .certify import DirectionFamily, HermitianBall, LevelSetSpec, StabilityCertificate
from .errors import FileFormatError, InvalidCandidateError
from .evolve import Trajectory
from .lyapunov import LyapunovCandidate, canonicalize
from .models import QsdeModel, validate
from .operators import as_operator

SCHEMA_VERSION = 1
CERTIFICATE_SCHEMA_VERSION = 2


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def decode_matrix(obj, field: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{field}: not a nested numeric array ({exc})") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise FileFormatError(f"{field}: expected a matrix of [re, im] pairs, got shape {arr.shape}")
    if arr.shape[0] != arr.shape[1]:
        raise FileFormatError(f"{field}: matrix must be square, got shape {arr.shape[:2]}")
    return arr[..., 0] + 1j * arr[..., 1]


def encode_vector(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).reshape(-1)]


def decode_vector(obj, field: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{field}: not a numeric array ({exc})") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise FileFormatError(f"{field}: expected a vector of [re, im] pairs, got shape {arr.shape}")
    return arr[:, 0] + 1j * arr[:, 1]


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise FileFormatError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return data


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(data: dict, field: str, path):
    if field not in data:
        raise FileFormatError(f"{path}: missing field {field!r}")
    return data[field]


def _check_schema(data: dict, path, expected: int = SCHEMA_VERSION) -> None:
    version = _require(data, "schema_version", path)
    if isinstance(version, bool) or version != expected:
        raise FileFormatError(f"{path}: unsupported schema_version {version!r} (expected {expected})")


def _integer(value, field: str, path, least: int) -> int:
    """``value`` if it is a JSON integer (not a boolean) of at least ``least``; else an error naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise FileFormatError(f"{path}: {field} must be a JSON integer >= {least}, got {value!r}")
    return value


def _number(value, field: str, path) -> float:
    """``value`` as a float if it is a JSON number (not a boolean); else an error naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{path}: {field} must be a JSON number, got {value!r}")
    return float(value)


def load_model(path, tol: float = 1e-9) -> QsdeModel:
    """Parse and validate an (H, L, S) model file.

    Raises :class:`FileFormatError` for structural problems (naming the
    offending field) and :class:`InvalidModelError` for violated model
    invariants (naming the check and its defect).
    """
    data = _load_json(path)
    _check_schema(data, path)
    dim = _integer(_require(data, "dim", path), "dim", path, least=1)
    h = decode_matrix(_require(data, "H", path), "H")
    l = decode_matrix(_require(data, "L", path), "L")
    s_raw = data.get("S")
    s = decode_matrix(s_raw, "S") if s_raw is not None else None
    for name, mat in (("H", h), ("L", l)) + ((("S", s),) if s is not None else ()):
        if mat.shape[0] != dim:
            raise FileFormatError(f"{path}: {name} has dimension {mat.shape[0]}, header says {dim}")
    try:
        model = QsdeModel(hamiltonian=h, coupling=l, scattering=s)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    validate(model, tol=tol)
    return model


def save_model(model: QsdeModel, path) -> None:
    _dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "dim": model.dim,
            "H": encode_matrix(model.hamiltonian),
            "L": encode_matrix(model.coupling),
            "S": encode_matrix(model.scattering),
        },
        path,
    )


def load_lyapunov(path) -> LyapunovCandidate:
    """Parse a candidate file and return its canonicalized form.

    The optional ``hermitian_closure`` flag in the file, a JSON boolean,
    permits auto-closing a term list that is not Hermitian-closed; without
    it such a file is an error.
    """
    data = _load_json(path)
    _check_schema(data, path)
    raw_terms = _require(data, "terms", path)
    if not isinstance(raw_terms, list) or not raw_terms:
        raise InvalidCandidateError(f"{path}: terms must be a nonempty list, got {raw_terms!r}")
    terms = []
    for i, entry in enumerate(raw_terms):
        if not isinstance(entry, dict):
            raise FileFormatError(f"{path}: terms[{i}] must be an object")
        n, m = (_integer(_require(entry, k, f"{path}: terms[{i}]"), f"terms[{i}].{k}", path, least=0) for k in "nm")
        theta = decode_matrix(_require(entry, "theta", f"{path}: terms[{i}]"), f"terms[{i}].theta")
        terms.append((n, m, theta))
    center_raw = data.get("center")
    center = decode_matrix(center_raw, "center") if center_raw is not None else None
    closure = data.get("hermitian_closure", False)
    if not isinstance(closure, bool):
        raise FileFormatError(f"{path}: hermitian_closure must be a JSON boolean, got {closure!r}")
    candidate = LyapunovCandidate(terms=tuple(terms), center=center)
    return canonicalize(candidate, hermitian_closure=closure)


def save_lyapunov(candidate: LyapunovCandidate, path, *, hermitian_closure: bool = False) -> None:
    data = {
        "schema_version": SCHEMA_VERSION,
        "terms": [
            {"n": n, "m": m, "theta": encode_matrix(theta)} for n, m, theta in candidate.terms
        ],
        "center": encode_matrix(candidate.center) if candidate.center is not None else None,
    }
    if hermitian_closure:
        data["hermitian_closure"] = True
    _dump_json(data, path)


def load_operator(path) -> np.ndarray:
    data = _load_json(path)
    _check_schema(data, path)
    return as_operator(decode_matrix(_require(data, "matrix", path), "matrix"))


def save_operator(matrix: np.ndarray, path) -> None:
    _dump_json({"schema_version": SCHEMA_VERSION, "matrix": encode_matrix(matrix)}, path)


def load_state_vector(path) -> np.ndarray:
    data = _load_json(path)
    _check_schema(data, path)
    return decode_vector(_require(data, "vector", path), "vector")


def save_state_vector(vector: np.ndarray, path) -> None:
    _dump_json({"schema_version": SCHEMA_VERSION, "vector": encode_vector(vector)}, path)


def load_direction_family(path) -> DirectionFamily:
    data = _load_json(path)
    _check_schema(data, path)
    raw = _require(data, "directions", path)
    if not isinstance(raw, list) or not raw:
        raise FileFormatError(f"{path}: directions must be a nonempty list")
    directions = tuple(decode_matrix(d, f"directions[{i}]") for i, d in enumerate(raw))
    return DirectionFamily(
        directions=directions,
        scale_min=_number(data.get("scale_min", 0.0), "scale_min", path),
        scale_max=_number(data.get("scale_max", 1.0), "scale_max", path),
    )


def certificate_to_dict(cert: StabilityCertificate) -> dict:
    data = {f.name: copy(getattr(cert, f.name)) for f in fields(cert)}
    data["witness"] = encode_matrix(cert.witness) if cert.witness is not None else None
    if "directions" in cert.family:
        data["family"]["directions"] = [encode_matrix(d) for d in cert.family["directions"]]
    data["schema_version"] = CERTIFICATE_SCHEMA_VERSION
    data["kind"] = "stability-certificate"
    return data


def certificate_bytes(cert: StabilityCertificate) -> bytes:
    return (json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n").encode("utf-8")


def save_certificate(cert: StabilityCertificate, path) -> None:
    with open(path, "wb") as fh:
        fh.write(certificate_bytes(cert))


def load_certificate(path) -> dict:
    """Certificates load as plain dicts (witness decoded back to a matrix)."""
    data = _load_json(path)
    _check_schema(data, path, CERTIFICATE_SCHEMA_VERSION)
    if data.get("witness") is not None:
        data["witness"] = decode_matrix(data["witness"], "witness")
    return data


def trajectory_csv_bytes(traj: Trajectory) -> bytes:
    """CSV with header ``t,v_expect[,obs_*...]``, 17 significant digits, LF."""
    names = sorted(traj.obs_expect) if traj.obs_expect else []
    lines = [",".join(["t", "v_expect"] + [f"obs_{n}" for n in names])]
    for i, t in enumerate(traj.times):
        row = [f"{t:.17g}", f"{traj.v_expect[i]:.17g}"]
        row += [f"{traj.obs_expect[n][i]:.17g}" for n in names]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "wb") as fh:
        fh.write(trajectory_csv_bytes(traj))


def level_set_spec_from_args(epsilon: float, samples: int, seed: int, family_path=None) -> LevelSetSpec:
    """Build a sampling spec from CLI-style arguments."""
    family = load_direction_family(family_path) if family_path else HermitianBall()
    return LevelSetSpec(epsilon=epsilon, sample_count=samples, seed=seed, family=family)
