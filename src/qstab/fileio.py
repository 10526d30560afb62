"""JSON model/candidate files, certificate serialization and trajectory CSV.

Matrices are stored row-major with every complex entry encoded as a
two-element ``[re, im]`` array, which survives a JSON round trip
bit-exactly, signed zeros included.  A ``schema_version`` field (3 for
certificates, 1 otherwise) gates format changes.  One reader,
:func:`_read`, decides every field of every file, so each
:class:`FileFormatError` starts with the file's path and names the field.
A certificate holds the run's settings (seed, epsilon, family description,
tolerances, sample count) and names its input arrays (model, candidate,
center, the family's directions, the reference state) only by SHA-256
digests of their exact values, from :func:`qstab.certify.input_digest`; it
is dumped with sorted keys so identical runs produce identical bytes, and
loads back to a :class:`StabilityCertificate` that dumps to the same bytes.
Trajectories are written as CSV with 17 significant digits and LF line
endings.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from copy import copy
from dataclasses import fields
from functools import partial

import numpy as np

from .certify import _MODES, DirectionFamily, HermitianBall, LevelSetSpec, StabilityCertificate
from .errors import FileFormatError, InvalidCandidateError, QstabError
from .evolve import Trajectory
from .lyapunov import LyapunovCandidate, canonicalize
from .models import QsdeModel, validate
from .operators import as_operator, require_positive

SCHEMA_VERSION = 1
CERTIFICATE_SCHEMA_VERSION = 3


def encode_matrix(m: np.ndarray) -> list:
    """Complex entries as nested [re, im] pairs, at any rank, a vector's too."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def decode_matrix(obj, rank: int = 2) -> np.ndarray:
    """A square matrix of [re, im] pairs, or at ``rank=1`` a vector of them, as complex entries bit for bit.

    Viewing the pairs as complex keeps signed zeros, which ``re + 1j * im`` would lose.
    """
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"not a nested numeric array ({exc})") from None
    if arr.shape[rank:] != (2,) or len(set(arr.shape[:-1])) != 1:
        kind = "a square matrix" if rank == 2 else "a vector"
        raise FileFormatError(f"expected {kind} of [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise FileFormatError("entries must be finite")
    return np.ascontiguousarray(arr).view(complex)[..., 0]


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


_REQUIRED = object()
_JSON_TYPES = {bool: "a JSON boolean", int: "a JSON integer", float: "a JSON number", str: "a JSON string",
               list: "a JSON list", dict: "a JSON object"}


def _read(data: dict, key, path, kind, *, name=None, default=_REQUIRED, nullable=False, allowed=(), least=None):
    """``data[key]`` from the file at ``path``, checked as ``kind``; each error names the path, then the field.

    ``kind`` is a type in ``_JSON_TYPES`` or a decoder such as :func:`decode_matrix`.  No type but ``bool``
    takes a JSON boolean, and ``float`` takes any JSON number and returns a float.  The field is named
    ``name``, or ``key``.  A missing field gives ``default`` when one is given, and a null gives None when
    ``nullable``.  ``least`` bounds a number, or a list's length, from below; a nonempty ``allowed`` lists
    the only values taken.
    """
    name = key if name is None else name
    if key not in data:
        if default is _REQUIRED:
            raise FileFormatError(f"{path}: missing field {name!r}")
        return default
    value = data[key]
    if value is None and nullable:
        return None
    if kind not in _JSON_TYPES:
        try:
            return kind(value)
        except FileFormatError as exc:
            raise FileFormatError(f"{path}: {name}: {exc}") from None
    typed = isinstance(value, (int, float) if kind is float else kind) and isinstance(value, bool) == (kind is bool)
    if not typed or (least is not None and (len(value) if kind is list else value) < least):
        bound = "" if least is None else f" of length >= {least}" if kind is list else f" >= {least}"
        raise FileFormatError(f"{path}: {name} must be {_JSON_TYPES[kind]}{bound}, got {value!r}")
    if allowed and value not in allowed:
        raise FileFormatError(f"{path}: unsupported {name} {value!r} (expected {', '.join(map(repr, allowed))})")
    return float(value) if kind is float else value


@contextmanager
def _naming(path):
    """Prefix the path to an error raised while checking a file's values, keeping the error's type."""
    try:
        yield
    except (QstabError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _check_schema(data: dict, path, expected: int = SCHEMA_VERSION) -> None:
    _read(data, "schema_version", path, int, allowed=(expected,))


def load_model(path, tol: float = 1e-9) -> QsdeModel:
    """Parse and validate an (H, L, S) model file.

    Raises :class:`FileFormatError` for structural problems (naming the
    offending field) and :class:`InvalidModelError` for violated model
    invariants (naming the check and its defect).  A bad ``tol`` raises before the file is read, not naming it.
    """
    require_positive(tol, "tol")
    data = _load_json(path)
    _check_schema(data, path)
    dim = _read(data, "dim", path, int, least=1)
    h, l = (_read(data, key, path, decode_matrix) for key in "HL")
    s = _read(data, "S", path, decode_matrix, default=None, nullable=True)
    for name, mat in (("H", h), ("L", l), ("S", s)):
        if mat is not None and len(mat) != dim:
            raise FileFormatError(f"{path}: {name} has dimension {len(mat)}, header says {dim}")
    model = QsdeModel(hamiltonian=h, coupling=l, scattering=s)
    with _naming(path):
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
    entries = dict(enumerate(_read(data, "terms", path, list)))
    if not entries:  # a candidate error, as LyapunovCandidate raises, but naming the file and the field
        raise InvalidCandidateError(f"{path}: terms must be a nonempty list, got []")
    terms = []
    for i in entries:
        entry = _read(entries, i, path, dict, name=f"terms[{i}]")
        n, m = (_read(entry, k, path, int, name=f"terms[{i}].{k}", least=0) for k in "nm")
        terms.append((n, m, _read(entry, "theta", path, decode_matrix, name=f"terms[{i}].theta")))
    center = _read(data, "center", path, decode_matrix, default=None, nullable=True)
    closure = _read(data, "hermitian_closure", path, bool, default=False)
    with _naming(path):
        return canonicalize(LyapunovCandidate(terms=tuple(terms), center=center), hermitian_closure=closure)


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
    return as_operator(_read(data, "matrix", path, decode_matrix))


def save_operator(matrix: np.ndarray, path) -> None:
    _dump_json({"schema_version": SCHEMA_VERSION, "matrix": encode_matrix(matrix)}, path)


def load_state_vector(path) -> np.ndarray:
    data = _load_json(path)
    _check_schema(data, path)
    return _read(data, "vector", path, partial(decode_matrix, rank=1))


def save_state_vector(vector: np.ndarray, path) -> None:
    _dump_json({"schema_version": SCHEMA_VERSION, "vector": encode_matrix(np.ravel(vector))}, path)


def load_direction_family(path) -> DirectionFamily:
    data = _load_json(path)
    _check_schema(data, path)
    entries = dict(enumerate(_read(data, "directions", path, list, least=1)))
    directions = tuple(_read(entries, i, path, decode_matrix, name=f"directions[{i}]") for i in entries)
    scale_min = _read(data, "scale_min", path, float, default=0.0)
    scale_max = _read(data, "scale_max", path, float, default=1.0)
    with _naming(path):
        return DirectionFamily(directions, scale_min, scale_max)


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


# Each certificate field as (name, kind, options) for _read, "a.b" naming field b of the object a; a field
# with a default is left out of its object when missing.  The family's own fields follow from its kind.
_NULLABLE = {"nullable": True}
_CERTIFICATE_FIELDS = (
    ("mode", str, {"allowed": tuple(_MODES)}),
    ("verdict", str, {"allowed": ("pass", "fail")}),
    ("equilibrium_residual", float, {}),
    *((key, float, _NULLABLE) for key in ("worst_drift_eigenvalue", "worst_v_min_eigenvalue", "rate", "margin")),
    ("witness", decode_matrix, _NULLABLE),
    ("violated_condition", str, _NULLABLE),
    ("violation", float, _NULLABLE),
    ("sample_count_used", int, {"least": 0}),
    ("seed", int, {}),
    ("epsilon", float, {}),
    *((f"tolerances.{key}", float, {}) for key in ("tol", "tol_strict", "support_cutoff")),
    *((f"inputs.{key}", str, {}) for key in ("model", "candidate", "center")),
    *((f"inputs.{key}", str, {"default": None}) for key in ("family", "reference")),
)
_FAMILY_FIELDS = {
    "random-hermitian-ball": (("family.radius", float, {}),),
    "user-directions": (
        ("family.count", int, {"least": 1}), ("family.scale_min", float, {}), ("family.scale_max", float, {}),
    ),
}


def load_certificate(path) -> StabilityCertificate:
    """Parse a schema-3 certificate; a missing or ill-typed field raises :class:`FileFormatError` naming it."""
    data = _load_json(path)
    _check_schema(data, path, CERTIFICATE_SCHEMA_VERSION)
    _read(data, "kind", path, str, allowed=("stability-certificate",))
    family_kind = _read(_read(data, "family", path, dict), "kind", path, str, name="family.kind",
                        allowed=tuple(_FAMILY_FIELDS))
    record = {"family": {"kind": family_kind}, "tolerances": {}, "inputs": {}}
    for field, kind, options in _CERTIFICATE_FIELDS + _FAMILY_FIELDS[family_kind]:
        *outer, key = field.split(".")
        node, into = (_read(data, outer[0], path, dict), record[outer[0]]) if outer else (data, record)
        value = _read(node, key, path, kind, name=field, **options)
        if key in node:
            into[key] = value
    return StabilityCertificate(**record)


def trajectory_csv_bytes(traj: Trajectory) -> bytes:
    """CSV with header ``t,v_expect[,obs_*...]``, 17 significant digits, LF."""
    names = sorted(traj.obs_expect) if traj.obs_expect else []
    columns = [traj.times, traj.v_expect] + [traj.obs_expect[n] for n in names]
    row = ",".join(["%.17g"] * len(columns))  # one % per row, over Python floats: bytes of f"{x:.17g}" per value
    lines = [",".join(["t", "v_expect"] + [f"obs_{n}" for n in names])]
    lines += [row % values for values in zip(*(np.asarray(c).tolist() for c in columns))]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "wb") as fh:
        fh.write(trajectory_csv_bytes(traj))


def level_set_spec_from_args(epsilon: float, samples: int, seed: int, family_path=None) -> LevelSetSpec:
    """Build a sampling spec from CLI-style arguments."""
    family = load_direction_family(family_path) if family_path else HermitianBall()
    return LevelSetSpec(epsilon=epsilon, sample_count=samples, seed=seed, family=family)
