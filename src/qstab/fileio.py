"""JSON model/candidate files, certificate serialization and trajectory CSV.

Matrices are stored row-major with every complex entry encoded as a
two-element ``[re, im]`` array, which survives a JSON round trip
bit-exactly, signed zeros included.  A ``schema_version`` field (3 for
certificates, 1 otherwise) gates format changes.  A certificate holds the
run's settings (seed, epsilon, family description, tolerances, sample
count) and names its input arrays (model, candidate, center, the family's
directions, the reference state) only by SHA-256 digests of their exact
values, from :func:`qstab.certify.input_digest`; it is dumped with sorted
keys so identical runs produce identical bytes, and loads back to a
:class:`StabilityCertificate` that dumps to the same bytes.  Trajectories
are written as CSV with 17 significant digits and LF line endings.
"""

from __future__ import annotations

import json
from copy import copy
from dataclasses import fields
from functools import partial

import numpy as np

from .certify import _MODES, DirectionFamily, HermitianBall, LevelSetSpec, StabilityCertificate
from .errors import FileFormatError, InvalidCandidateError
from .evolve import Trajectory
from .lyapunov import LyapunovCandidate, canonicalize
from .models import QsdeModel, validate
from .operators import as_operator

SCHEMA_VERSION = 1
CERTIFICATE_SCHEMA_VERSION = 3


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
    return _pairs_to_complex(arr)


def _pairs_to_complex(arr: np.ndarray) -> np.ndarray:
    """The [re, im] pairs on the last axis as complex entries, bit for bit (re + 1j * im loses signed zeros)."""
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def encode_vector(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).reshape(-1)]


def decode_vector(obj, field: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{field}: not a numeric array ({exc})") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise FileFormatError(f"{field}: expected a vector of [re, im] pairs, got shape {arr.shape}")
    return _pairs_to_complex(arr)


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


def _require(data: dict, field: str, path, name: str | None = None):
    """``data[field]``; else an error naming the field as ``name``, or as ``field`` itself."""
    if field not in data:
        raise FileFormatError(f"{path}: missing field {(name or field)!r}")
    return data[field]


def _check_schema(data: dict, path, expected: int = SCHEMA_VERSION) -> None:
    version = _require(data, "schema_version", path)
    if isinstance(version, bool) or version != expected:
        raise FileFormatError(f"{path}: unsupported schema_version {version!r} (expected {expected})")


def _integer(value, field: str, path, least: int | None = None) -> int:
    """``value`` if it is a JSON integer (not a boolean) of at least ``least``; else an error naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise FileFormatError(f"{path}: {field} must be a JSON integer{bound}, got {value!r}")
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


def save_direction_family(family: DirectionFamily, path) -> None:
    _dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "directions": [encode_matrix(d) for d in family.directions],
            "scale_min": family.scale_min,
            "scale_max": family.scale_max,
        },
        path,
    )


def certificate_to_dict(cert: StabilityCertificate) -> dict:
    data = {f.name: copy(getattr(cert, f.name)) for f in fields(cert)}
    data["witness"] = encode_matrix(cert.witness) if cert.witness is not None else None
    data["schema_version"] = CERTIFICATE_SCHEMA_VERSION
    data["kind"] = "stability-certificate"
    return data


def certificate_bytes(cert: StabilityCertificate) -> bytes:
    return (json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n").encode("utf-8")


def save_certificate(cert: StabilityCertificate, path) -> None:
    with open(path, "wb") as fh:
        fh.write(certificate_bytes(cert))


def _choice(*choices):
    def parse(value, field, path):
        if not isinstance(value, str) or value not in choices:
            raise FileFormatError(f"{path}: {field} must be one of {', '.join(map(repr, choices))}, got {value!r}")
        return value
    return parse


def _text(value, field: str, path) -> str:
    if not isinstance(value, str):
        raise FileFormatError(f"{path}: {field} must be a JSON string, got {value!r}")
    return value


def _optional(parse):
    return lambda value, field, path: None if value is None else parse(value, field, path)


def _object(value, field: str, path) -> dict:
    if not isinstance(value, dict):
        raise FileFormatError(f"{path}: {field} must be a JSON object, got {value!r}")
    return value


def _record(parsers: dict):
    """A parser of a JSON object holding the fields that ``parsers`` names, each parsed by its own parser."""
    def parse(value, field, path):
        value = _object(value, field, path)
        return {key: p(_require(value, key, path, f"{field}.{key}"), f"{field}.{key}", path)
                for key, p in parsers.items()}
    return parse


_FAMILY_FIELDS = {
    "random-hermitian-ball": {"kind": _text, "radius": _number},
    "user-directions": {"kind": _text, "count": partial(_integer, least=1), "scale_min": _number, "scale_max": _number},
}


def _family_record(value, field, path) -> dict:
    kind = _record({"kind": _choice(*_FAMILY_FIELDS)})(value, field, path)["kind"]
    return _record(_FAMILY_FIELDS[kind])(value, field, path)


def _digests(value, field, path) -> dict:
    """Input name -> digest text; every certificate names its model, candidate and center."""
    value = _object(value, field, path)
    for key in ("model", "candidate", "center"):
        _require(value, key, path, f"{field}.{key}")
    return {key: _text(digest, f"{field}.{key}", path) for key, digest in value.items()}


_CERTIFICATE_FIELDS = {
    "mode": _choice(*_MODES),
    "verdict": _choice("pass", "fail"),
    "equilibrium_residual": _number,
    "worst_drift_eigenvalue": _optional(_number),
    "worst_v_min_eigenvalue": _optional(_number),
    "rate": _optional(_number),
    "margin": _optional(_number),
    "witness": _optional(lambda value, field, path: decode_matrix(value, field)),
    "violated_condition": _optional(_text),
    "violation": _optional(_number),
    "sample_count_used": partial(_integer, least=0),
    "seed": _integer,
    "epsilon": _number,
    "family": _family_record,
    "tolerances": _record({"tol": _number, "tol_strict": _number, "support_cutoff": _number}),
    "inputs": _digests,
}


def load_certificate(path) -> StabilityCertificate:
    """Parse a schema-3 certificate; a missing or ill-typed field raises :class:`FileFormatError` naming it."""
    data = _load_json(path)
    _check_schema(data, path, CERTIFICATE_SCHEMA_VERSION)
    _choice("stability-certificate")(_require(data, "kind", path), "kind", path)
    return StabilityCertificate(
        **{name: parse(_require(data, name, path), name, path) for name, parse in _CERTIFICATE_FIELDS.items()}
    )


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
