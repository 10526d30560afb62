import dataclasses
import json
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qstab.certify

from qstab import (
    DirectionFamily,
    FileFormatError,
    HermitianBall,
    InvalidCandidateError,
    InvalidModelError,
    LevelSetSpec,
    LyapunovCandidate,
    QsdeModel,
    QstabError,
    QuantumState,
    StabilityCertificate,
    Trajectory,
    canonicalize,
    check_exponential,
    check_local,
    check_state,
    evaluate,
    ladder_operators,
)
from qstab.certify import input_digest
from qstab.fileio import (
    CERTIFICATE_SCHEMA_VERSION,
    certificate_bytes,
    certificate_to_dict,
    encode_matrix,
    load_certificate,
    load_direction_family,
    load_lyapunov,
    load_model,
    load_operator,
    load_state_vector,
    save_certificate,
    save_direction_family,
    save_lyapunov,
    save_model,
    save_operator,
    save_state_vector,
    trajectory_csv_bytes,
    write_trajectory_csv,
)

from conftest import EYE2, NUMBER, SIGMA_MINUS, SIGMA_Z, random_hermitian


@pytest.fixture
def model_file(tmp_path, damping_model):
    path = tmp_path / "model.json"
    save_model(damping_model, path)
    return path


@pytest.fixture
def lyap_file(tmp_path):
    path = tmp_path / "lyap.json"
    save_lyapunov(LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2), path)
    return path


class TestModelFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        model = QsdeModel(hamiltonian=random_hermitian(rng, 3), coupling=rng.normal(size=(3, 3)))
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.hamiltonian, model.hamiltonian)
        assert np.array_equal(loaded.coupling, model.coupling)
        assert np.array_equal(loaded.scattering, model.scattering)

    def test_valid_damping_file(self, model_file):
        model = load_model(model_file)
        assert model.dim == 2

    def test_non_self_adjoint_entry_named(self, tmp_path):
        data = {
            "schema_version": 1,
            "dim": 2,
            "H": [[[0, 0], [0, 1]], [[0, 0], [0, 0]]],  # H[0,1] = i unmatched
            "L": encode_matrix(SIGMA_MINUS),
        }
        path = tmp_path / "bad_h.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidModelError, match="H not self-adjoint"):
            load_model(path)

    def test_dim_mismatch_is_parse_level(self, tmp_path):
        data = {
            "schema_version": 1,
            "dim": 2,
            "H": encode_matrix(np.zeros((2, 2))),
            "L": encode_matrix(np.zeros((3, 3))),
        }
        path = tmp_path / "bad_dim.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FileFormatError, match="L has dimension 3"):
            load_model(path)

    def test_broken_scattering_named(self, tmp_path):
        data = {
            "schema_version": 1,
            "dim": 2,
            "H": encode_matrix(np.zeros((2, 2))),
            "L": encode_matrix(SIGMA_MINUS),
            "S": encode_matrix(np.diag([1.0, 2.0])),
        }
        path = tmp_path / "bad_s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidModelError, match="S not unitary"):
            load_model(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"schema_version": 1, "dim": 2}))
        with pytest.raises(FileFormatError, match="missing field 'H'"):
            load_model(path)

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(FileFormatError, match="schema_version"):
            load_model(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json }")
        with pytest.raises(FileFormatError, match="line 1"):
            load_model(path)


class TestLyapunovFiles:
    def test_scalar_center_kept_on_load(self, lyap_file):
        cand = load_lyapunov(lyap_file)
        assert cand.is_canonical
        assert {(n, m) for n, m, _ in cand.terms} == {(1, 1)}
        assert np.array_equal(cand.center, -EYE2)
        assert np.array_equal(evaluate(cand, SIGMA_Z), np.diag([4.0, 0.0]))

    def test_empty_terms_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema_version": 1, "terms": []}))
        with pytest.raises(InvalidCandidateError, match="empty"):
            load_lyapunov(path)

    def test_degree_bound(self, tmp_path):
        path = tmp_path / "deg.json"
        path.write_text(
            json.dumps({"schema_version": 1, "terms": [{"n": 4, "m": 3, "theta": encode_matrix(EYE2)}]})
        )
        with pytest.raises(InvalidCandidateError, match="degree"):
            load_lyapunov(path)

    def test_unclosed_without_flag_rejected(self, tmp_path):
        theta = np.array([[1.0, 1.0], [0.0, 1.0]])
        path = tmp_path / "unclosed.json"
        path.write_text(
            json.dumps({"schema_version": 1, "terms": [{"n": 1, "m": 1, "theta": encode_matrix(theta)}]})
        )
        with pytest.raises(InvalidCandidateError, match="not closed"):
            load_lyapunov(path)
        data = json.loads(path.read_text())
        data["hermitian_closure"] = True
        path.write_text(json.dumps(data))
        cand = load_lyapunov(path)
        assert cand.is_canonical

    @pytest.mark.parametrize("flag", ["false", "no", 0, 1])
    def test_closure_flag_must_be_a_json_boolean(self, tmp_path, flag):
        # bool("false") is True: read loosely, this flag would close [[1, 2], [0, 1]] into [[1, 1], [1, 1]].
        theta = np.array([[1.0, 2.0], [0.0, 1.0]])
        path = tmp_path / "flag.json"
        term = {"n": 1, "m": 1, "theta": encode_matrix(theta)}
        path.write_text(json.dumps({"schema_version": 1, "terms": [term], "hermitian_closure": flag}))
        with pytest.raises(FileFormatError, match="hermitian_closure must be a JSON boolean"):
            load_lyapunov(path)

    def test_round_trip(self, tmp_path):
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2))
        path = tmp_path / "roundtrip.json"
        save_lyapunov(cand, path)
        again = load_lyapunov(path)
        assert {(n, m) for n, m, _ in again.terms} == {(n, m) for n, m, _ in cand.terms}
        for (n, m, a), (_, _, b) in zip(again.terms, cand.terms):
            assert np.array_equal(a, b)


class TestOperatorAndVectorFiles:
    def test_operator_round_trip(self, tmp_path):
        path = tmp_path / "op.json"
        save_operator(SIGMA_Z, path)
        assert np.array_equal(load_operator(path), SIGMA_Z)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([0.6, 0.8j])
        path = tmp_path / "vec.json"
        save_state_vector(v, path)
        assert np.array_equal(load_state_vector(path), v)

    @pytest.mark.parametrize(
        "load, key, value, message",
        [
            (load_operator, "matrix", [[[1, 0], [0, 0]]],
             "matrix: expected a square matrix of [re, im] pairs, got shape (1, 2, 2)"),
            (load_operator, "matrix", [[[float("nan"), 0]]], "matrix: entries must be finite"),
            (load_state_vector, "vector", [[[1, 0]]],
             "vector: expected a vector of [re, im] pairs, got shape (1, 1, 2)"),
            (load_state_vector, "vector", [[1, 0], [float("inf"), 0]], "vector: entries must be finite"),
            (load_state_vector, "schema_version", 1.0, "schema_version must be a JSON integer, got 1.0"),
        ],
    )
    def test_an_error_starts_with_the_path_and_names_the_field(self, tmp_path, load, key, value, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, key: value}))
        with pytest.raises(FileFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load(path)

    def test_family_file(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "directions": [encode_matrix(NUMBER)],
                    "scale_min": 0.25,
                    "scale_max": 1.0,
                }
            )
        )
        family = load_direction_family(path)
        assert isinstance(family, DirectionFamily)
        assert family.scale_min == 0.25
        assert np.array_equal(family.directions[0], NUMBER)


class TestCertificateSerialization:
    def test_round_trip_and_determinism(self, tmp_path, damping_model, damping_candidate):
        spec = LevelSetSpec(epsilon=1.0, sample_count=4, seed=5, family=DirectionFamily(directions=(NUMBER,)))
        cert = check_local(damping_model, damping_candidate, -EYE2, spec)
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        raw = path.read_bytes()
        assert raw == certificate_bytes(cert)
        loaded = load_certificate(path)
        assert isinstance(loaded, StabilityCertificate)
        assert certificate_bytes(loaded) == raw
        assert loaded.verdict == "pass"
        assert loaded.seed == 5
        assert loaded.sample_count_used == 4
        assert loaded.family == {"kind": "user-directions", "count": 1, "scale_min": 0.0, "scale_max": 1.0}
        assert loaded.tolerances["tol_strict"] == pytest.approx(1e-8)
        # the family's directions are named by digest, not copied into the certificate
        assert loaded.inputs == {
            "model": input_digest(damping_model.hamiltonian, damping_model.coupling, damping_model.scattering),
            "candidate": input_digest(*damping_candidate.terms[0], damping_candidate.center),  # the canonical form
            "center": input_digest(-EYE2),
            "family": input_digest(NUMBER),
        }

    def test_witness_round_trip(self, tmp_path, damping_model, damping_candidate):
        from conftest import GROUND

        spec = LevelSetSpec(epsilon=1.0, sample_count=4, seed=6, family=DirectionFamily(directions=(GROUND,)))
        cert = check_local(damping_model, damping_candidate, -EYE2, spec)
        assert not cert.passed
        path = tmp_path / "fail.json"
        save_certificate(cert, path)
        loaded = load_certificate(path)
        assert loaded.witness.tobytes() == cert.witness.tobytes()

    @pytest.mark.parametrize("dim", [2, 32])
    @pytest.mark.parametrize("kind", ["ball", "family"])
    def test_a_loaded_certificate_dumps_to_its_own_bytes(self, tmp_path, kind, dim):
        a, _, number = ladder_operators(dim - 1)
        eye = np.eye(dim)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, eye),), center=-eye))
        family = HermitianBall(0.5) if kind == "ball" else DirectionFamily((number,), 0.1, 1.0)
        spec = LevelSetSpec(0.25, 8, 3, family)
        cert = check_exponential(QsdeModel(hamiltonian=number, coupling=a), cand, -eye, spec, 0.5)
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        assert certificate_bytes(load_certificate(path)) == path.read_bytes()

    @pytest.mark.parametrize("kind", ["ball", "family"])
    @pytest.mark.parametrize("value", [None, True, "x", [1], {}, "missing", 1.0])
    def test_a_missing_or_ill_typed_field_is_named(self, tmp_path, damping_model, damping_candidate, kind, value):
        family = HermitianBall(1.0) if kind == "ball" else DirectionFamily(directions=(NUMBER,))
        cert = check_exponential(damping_model, damping_candidate, -EYE2, LevelSetSpec(0.5, 8, 11, family), 2.0)
        assert cert.witness is not None
        data = certificate_to_dict(cert)
        optional = {"worst_drift_eigenvalue", "worst_v_min_eigenvalue", "rate", "margin", "witness",
                    "violated_condition", "violation"}
        valid = [("violated_condition", "x"), ("inputs.model", "x")]
        integers = {"schema_version", "sample_count_used", "seed", "family.count"}
        fields = [(key,) for key in data] + [(key, sub) for key in ("family", "tolerances") for sub in data[key]]
        for field in fields + [("inputs", "model")]:
            name = ".".join(field)
            skip = (value is None and name in optional) or (name, value) in valid
            if skip or (isinstance(value, float) and name not in integers):
                continue
            broken = json.loads(json.dumps(data))
            *parents, key = field
            node = broken[parents[0]] if parents else broken
            if value == "missing":
                del node[key]
            else:
                node[key] = value
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(broken))
            named = rf"^{re.escape(str(path))}: .*(?<![\w.]){re.escape(name)}(?!\w)"
            with pytest.raises(FileFormatError, match=named):
                load_certificate(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_earlier_certificate_versions_rejected(self, tmp_path, damping_model, damping_candidate, version):
        # Version 1 certificates drew their samples from per-sample streams, and version 2 ones inlined the
        # family's directions and named no other input; neither loads as version 3.
        spec = LevelSetSpec(epsilon=1.0, sample_count=4, seed=5, family=DirectionFamily(directions=(NUMBER,)))
        path = tmp_path / "cert.json"
        save_certificate(check_local(damping_model, damping_candidate, -EYE2, spec), path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == 3
        data["schema_version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(FileFormatError, match=f"unsupported schema_version {version} \\(expected 3\\)"):
            load_certificate(path)

    def test_other_files_stay_at_version_1(self, tmp_path, damping_model, damping_candidate):
        save_model(damping_model, tmp_path / "model.json")
        save_lyapunov(damping_candidate, tmp_path / "candidate.json")
        save_operator(EYE2, tmp_path / "operator.json")
        save_state_vector(np.array([1.0, 0.0]), tmp_path / "psi.json")
        save_direction_family(DirectionFamily(directions=(NUMBER,)), tmp_path / "family.json")
        for name in ("model", "candidate", "operator", "psi", "family"):
            assert json.loads((tmp_path / f"{name}.json").read_text())["schema_version"] == 1


def asdict_certificate_bytes(cert):
    """The certificate serialized through a deep copy by ``dataclasses.asdict``."""
    data = dataclasses.asdict(cert)
    data["witness"] = encode_matrix(cert.witness) if cert.witness is not None else None
    data["schema_version"] = CERTIFICATE_SCHEMA_VERSION
    data["kind"] = "stability-certificate"
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")


def mutable_ids(obj) -> set[int]:
    """Ids of every dict, list and array reachable from obj."""
    ids = {id(obj)} if isinstance(obj, (dict, list, np.ndarray)) else set()
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else ()
    return ids.union(*(mutable_ids(child) for child in children))


class TestCertificateDict:
    @pytest.fixture(params=["ball", "directions"])
    def cert(self, request, damping_model, damping_candidate):
        if request.param == "ball":
            family = HermitianBall(1.0)
        else:
            family = DirectionFamily((NUMBER, random_hermitian(np.random.default_rng(2), 2)), 0.1, 1.0)
        spec = LevelSetSpec(epsilon=0.5, sample_count=32, seed=11, family=family)
        return check_exponential(damping_model, damping_candidate, -EYE2, spec, 0.5)

    def test_bytes_equal_the_asdict_serialization(self, cert):
        assert cert.witness is not None
        assert certificate_bytes(cert) == asdict_certificate_bytes(cert)

    def test_a_family_certificate_at_d_32_names_its_directions_by_digest(self, tmp_path):
        a, _, number = ladder_operators(31)
        eye = np.eye(32)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, eye),), center=-eye))
        family = DirectionFamily((number,), 0.1, 1.0)
        cert = check_local(QsdeModel(hamiltonian=number, coupling=a), cand, -eye, LevelSetSpec(0.25, 4, 3, family))
        assert "directions" not in cert.family and cert.inputs["family"] == input_digest(number)
        raw = certificate_bytes(cert)
        assert raw == asdict_certificate_bytes(cert)
        assert len(raw) < 1200  # the 32 x 32 direction took 92 KB as nested [re, im] lists
        save_certificate(cert, tmp_path / "cert.json")
        assert certificate_bytes(load_certificate(tmp_path / "cert.json")) == raw

    def test_shares_no_mutable_state(self, cert):
        first, second = certificate_to_dict(cert), certificate_to_dict(cert)
        held = mutable_ids([getattr(cert, f.name) for f in dataclasses.fields(cert)])
        assert not mutable_ids(first) & held
        assert not mutable_ids(first) & mutable_ids(second)
        before = certificate_bytes(cert)
        first["family"]["kind"] = first["tolerances"]["tol"] = None
        assert certificate_bytes(cert) == before
        assert second == certificate_to_dict(cert)


# Finite doubles of either sign, signed zeros and subnormals included.
FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def round_trip_inputs(draw):
    """A model, canonical candidate, center, family, reference state and state vector of one dimension."""
    dim = draw(st.integers(1, 3))

    def matrix():
        return np.array(draw(st.lists(FLOATS, min_size=2 * dim * dim, max_size=2 * dim * dim))).view(complex).reshape(
            dim, dim
        )

    def hermitian():
        a = matrix()
        return (a + a.conj().T) / 2

    phases = st.sampled_from([1, -1, 1j, -1j, complex(1, -0.0), complex(-0.0, -1)])
    scattering = draw(st.sampled_from([None, "phases"]))
    if scattering:  # a diagonal unitary whose zeros carry either sign
        zeros = np.where(draw(st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim)), -0.0, 0.0)
        scattering = zeros.reshape(dim, dim).astype(complex)
        np.fill_diagonal(scattering, draw(st.lists(phases, min_size=dim, max_size=dim)))
    model = QsdeModel(hamiltonian=hermitian(), coupling=matrix(), scattering=scattering)
    t = matrix()
    center = draw(st.sampled_from([None, "scalar", "matrix"]))
    center = {None: None, "scalar": draw(FLOATS) * np.eye(dim), "matrix": hermitian()}[center]
    terms = ((0, 0, np.eye(dim)), (1, 0, t), (0, 1, t.conj().T), (1, 1, hermitian()))
    candidate = canonicalize(LyapunovCandidate(terms=terms, center=center), hermitian_closure=True)
    direction = hermitian()
    low, high = sorted(abs(draw(FLOATS)) for _ in range(2))
    family = DirectionFamily((direction if direction.any() else np.eye(dim),), low, max(high, 1.0))
    vector = np.array(draw(st.lists(FLOATS, min_size=2 * dim, max_size=2 * dim))).view(complex)
    reference = QuantumState.from_vector(vector if np.linalg.norm(vector) > 1e-3 else np.eye(dim)[0])
    return model, candidate, hermitian(), family, reference, vector


@given(inputs=round_trip_inputs(), seed=st.integers(-(2**63), 2**64 - 1))
@settings(max_examples=60)
def test_every_file_kind_round_trips_bit_exactly(inputs, seed):
    """Save then load gives the same bits, and the loaded inputs have the digests their check recorded."""
    model, candidate, center, family, reference, vector = inputs
    try:
        cert = check_state(model, candidate, center, reference, LevelSetSpec(1.0, 2, seed, family), "local")
    except QstabError:  # the inputs are not a state check's, beyond the center conditions
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        names = ("model", "candidate", "center", "family", "ref", "psi", "cert")
        paths = {name: f"{tmp}/{name}.json" for name in names}
        save_model(model, paths["model"])
        save_lyapunov(candidate, paths["candidate"])
        save_operator(center, paths["center"])
        save_direction_family(family, paths["family"])
        save_operator(reference.rho, paths["ref"])
        save_state_vector(vector, paths["psi"])
        save_certificate(cert, paths["cert"])
        loaded = (load_model(paths["model"]), load_lyapunov(paths["candidate"]), load_operator(paths["center"]),
                  load_direction_family(paths["family"]), QuantumState(load_operator(paths["ref"])))
        assert same_bits(load_state_vector(paths["psi"]), vector)
        with open(paths["cert"], "rb") as fh:
            assert certificate_bytes(load_certificate(paths["cert"])) == fh.read()
    model2, candidate2, center2, family2, reference2 = loaded
    assert all(same_bits(getattr(model2, k), getattr(model, k)) for k in ("hamiltonian", "coupling", "scattering"))
    assert len(candidate2.terms) == len(candidate.terms)
    for (n2, m2, theta2), (n, m, theta) in zip(candidate2.terms, candidate.terms):
        assert (n2, m2) == (n, m) and same_bits(theta2, theta)
    assert (candidate2.center is None) == (candidate.center is None)
    assert candidate.center is None or same_bits(candidate2.center, candidate.center)
    assert same_bits(center2, center) and same_bits(reference2.rho, reference.rho)
    assert same_bits(np.stack(family2.directions), np.stack(family.directions))
    assert (family2.scale_min, family2.scale_max) == (family.scale_min, family.scale_max)
    digests = qstab.certify._input_digests(
        model2, candidate2, center=center2, family=family2, reference_state=reference2
    )
    assert digests == cert.inputs


class TestTrajectoryCsv:
    def make_traj(self):
        times = np.array([0.0, 0.1, 0.2])
        return Trajectory(
            times=times,
            v_expect=np.array([1.0, 0.5, 0.25]),
            method="master",
            obs_expect={"number": np.array([1.0, 2.0, 3.0])},
        )

    def test_header_and_endings(self, tmp_path):
        payload = trajectory_csv_bytes(self.make_traj())
        text = payload.decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == "t,v_expect,obs_number"
        assert b"\r" not in payload
        assert text.endswith("\n")

    def test_17_digit_round_trip(self, tmp_path):
        times = np.array([0.0, 1.0 / 3.0])
        traj = Trajectory(times=times, v_expect=np.array([np.pi, np.e]), method="master")
        payload = trajectory_csv_bytes(traj).decode("utf-8").strip().split("\n")
        t_back = float(payload[2].split(",")[0])
        v_back = float(payload[1].split(",")[1])
        assert t_back == times[1]
        assert v_back == np.pi

    def test_bytes_equal_one_format_per_value(self):
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0, 7.0]
        rng = np.random.default_rng(3)
        values = np.concatenate([special, rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, size=6)])
        times = np.arange(values.size) * 0.1
        traj = Trajectory(times=times, v_expect=values, method="master",
                          obs_expect={"b": values[::-1].copy(), "a": np.roll(values, 3)})
        rows = ["t,v_expect,obs_a,obs_b"] + [
            ",".join(f"{x:.17g}" for x in (times[i], values[i], traj.obs_expect["a"][i], traj.obs_expect["b"][i]))
            for i in range(values.size)
        ]
        assert trajectory_csv_bytes(traj) == ("\n".join(rows) + "\n").encode("utf-8")

    def test_write_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(self.make_traj(), path)
        assert path.read_bytes() == trajectory_csv_bytes(self.make_traj())
