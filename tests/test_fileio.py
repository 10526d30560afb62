import dataclasses
import json

import numpy as np
import pytest

from qstab import (
    DirectionFamily,
    FileFormatError,
    HermitianBall,
    InvalidCandidateError,
    InvalidModelError,
    LevelSetSpec,
    LyapunovCandidate,
    QsdeModel,
    Trajectory,
    canonicalize,
    check_exponential,
    check_local,
    evaluate,
    ladder_operators,
)
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
    def test_center_expansion_on_load(self, lyap_file):
        cand = load_lyapunov(lyap_file)
        assert cand.is_canonical
        assert {(n, m) for n, m, _ in cand.terms} == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert np.allclose(evaluate(cand, SIGMA_Z), np.diag([4.0, 0.0]))

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
        data = load_certificate(path)
        assert data["verdict"] == "pass"
        assert data["seed"] == 5
        assert data["sample_count_used"] == 4
        assert data["family"]["kind"] == "user-directions"
        assert data["tolerances"]["tol_strict"] == pytest.approx(1e-8)
        # the family serializes its directions, so the run is reproducible
        # from the certificate alone
        direction = np.array(data["family"]["directions"][0])
        assert np.array_equal(direction[..., 0] + 1j * direction[..., 1], NUMBER)

    def test_witness_round_trip(self, tmp_path, damping_model, damping_candidate):
        from conftest import GROUND

        spec = LevelSetSpec(epsilon=1.0, sample_count=4, seed=6, family=DirectionFamily(directions=(GROUND,)))
        cert = check_local(damping_model, damping_candidate, -EYE2, spec)
        assert not cert.passed
        path = tmp_path / "fail.json"
        save_certificate(cert, path)
        data = load_certificate(path)
        assert np.array_equal(data["witness"], cert.witness)

    def test_version_1_certificate_rejected(self, tmp_path, damping_model, damping_candidate):
        # Version 1 certificates drew their samples from per-sample streams; a version 2 run does not reproduce them.
        spec = LevelSetSpec(epsilon=1.0, sample_count=4, seed=5, family=DirectionFamily(directions=(NUMBER,)))
        path = tmp_path / "cert.json"
        save_certificate(check_local(damping_model, damping_candidate, -EYE2, spec), path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == 2
        data["schema_version"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(FileFormatError, match="unsupported schema_version 1 \\(expected 2\\)"):
            load_certificate(path)

    def test_other_files_stay_at_version_1(self, tmp_path, damping_model, damping_candidate):
        save_model(damping_model, tmp_path / "model.json")
        save_lyapunov(damping_candidate, tmp_path / "candidate.json")
        save_operator(EYE2, tmp_path / "operator.json")
        save_state_vector(np.array([1.0, 0.0]), tmp_path / "psi.json")
        for name in ("model", "candidate", "operator", "psi"):
            assert json.loads((tmp_path / f"{name}.json").read_text())["schema_version"] == 1


def asdict_certificate_bytes(cert):
    """The certificate serialized through a deep copy by ``dataclasses.asdict``.

    Family directions are written as the nested (re, im) tuples that certificates held before ``fileio``
    encoded them, so the bytes are compared with that earlier format too.
    """
    data = dataclasses.asdict(cert)
    data["witness"] = encode_matrix(cert.witness) if cert.witness is not None else None
    if "directions" in data["family"]:
        data["family"]["directions"] = tuple(
            tuple(tuple((float(z.real), float(z.imag)) for z in row) for row in d) for d in data["family"]["directions"]
        )
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

    def test_a_family_certificate_at_d_32_keeps_its_bytes_and_its_arrays(self):
        a, _, number = ladder_operators(31)
        eye = np.eye(32)
        cand = canonicalize(LyapunovCandidate(terms=((1, 1, eye),), center=-eye))
        family = DirectionFamily((number,), 0.1, 1.0)
        cert = check_local(QsdeModel(hamiltonian=number, coupling=a), cand, -eye, LevelSetSpec(0.25, 4, 3, family))
        directions = cert.family["directions"]
        assert directions is family.directions and not directions[0].flags.writeable
        assert certificate_bytes(cert) == asdict_certificate_bytes(cert)
        assert cert.family["directions"] is directions

    def test_shares_no_mutable_state(self, cert):
        first, second = certificate_to_dict(cert), certificate_to_dict(cert)
        held = mutable_ids([getattr(cert, f.name) for f in dataclasses.fields(cert)])
        assert not mutable_ids(first) & held
        assert not mutable_ids(first) & mutable_ids(second)
        before = certificate_bytes(cert)
        first["family"]["kind"] = first["tolerances"]["tol"] = None
        assert certificate_bytes(cert) == before
        assert second == certificate_to_dict(cert)


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

    def test_write_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(self.make_traj(), path)
        assert path.read_bytes() == trajectory_csv_bytes(self.make_traj())
