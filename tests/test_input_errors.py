"""Each input error of the library raises its type with a message that names the defect."""

import numpy as np
import pytest

from qstab import (
    CollisionConfig,
    DimensionMismatchError,
    DirectionFamily,
    FileFormatError,
    InvalidCandidateError,
    InvalidOperatorError,
    InvalidStateError,
    LevelSetSpec,
    LyapunovCandidate,
    NonHermitianError,
    QsdeModel,
    QuantumState,
    SamplingError,
    Trajectory,
    as_operator,
    canonicalize,
    chebyshev_bound,
    check_local,
    check_state,
    evaluate,
    ito_table_check,
    recheck_witness,
    sample_level_set,
    transit_time_check,
)
from qstab.fileio import load_lyapunov, load_model, save_lyapunov

from conftest import EYE2, NUMBER, SIGMA_MINUS, SIGMA_PLUS

MODEL = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS)
SQUARE = LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2)  # V = (X + I)^2, zero at the equilibrium -I
SPEC = LevelSetSpec(epsilon=1.0, sample_count=4, seed=0, family=DirectionFamily((NUMBER,)))


def _list_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[]")
    load_model(path)


def _recheck_a_pass(tmp_path):
    cert = check_local(MODEL, SQUARE, -EYE2, SPEC)
    assert cert.passed
    recheck_witness(MODEL, SQUARE, cert)


# id -> (the call, the error it raises, a fragment of its message)
ERRORS = {
    "family-without-directions": (lambda _: DirectionFamily(()), ValueError, "at least one direction"),
    "family-scale-min-above-max": (
        lambda _: DirectionFamily((NUMBER,), scale_min=2.0, scale_max=1.0), ValueError, "scale_min <= scale_max"
    ),
    "family-non-hermitian-direction": (
        lambda _: DirectionFamily((SIGMA_PLUS,)), NonHermitianError, "directions must be Hermitian"
    ),
    "spec-without-samples": (lambda _: LevelSetSpec(1.0, 0, 0), ValueError, "sample_count must be at least 1"),
    "sample-center-of-another-dimension": (
        lambda _: sample_level_set(SQUARE, np.eye(3), SPEC), DimensionMismatchError, "center dimension differs"
    ),
    "family-without-a-feasible-sample": (  # V = s^2 N leaves the level set at s = 1, below scale_min
        lambda _: sample_level_set(
            SQUARE, -EYE2, LevelSetSpec(1.0, 4, 0, DirectionFamily((NUMBER,), scale_min=2.0, scale_max=3.0))
        ),
        SamplingError,
        "no feasible nonzero sample",
    ),
    "state-check-unknown-mode": (
        lambda _: check_state(MODEL, SQUARE, EYE2 / 2, QuantumState(EYE2 / 2), SPEC, "global"),
        ValueError,
        "mode must be local, asymptotic or exponential",
    ),
    "chebyshev-negative-expectation": (
        lambda _: chebyshev_bound(-1.0, 1.0), ValueError, "expected_v0 must be nonnegative"
    ),
    "recheck-a-passing-certificate": (_recheck_a_pass, ValueError, "carries no witness"),
    "candidate-thetas-of-two-dimensions": (
        lambda _: LyapunovCandidate(terms=((1, 1, EYE2), (1, 1, np.eye(3)))),
        DimensionMismatchError,
        "share one dimension",
    ),
    "candidate-center-of-another-dimension": (
        lambda _: LyapunovCandidate(terms=((1, 1, EYE2),), center=np.eye(3)),
        DimensionMismatchError,
        "center dimension differs",
    ),
    "candidate-zero-after-expansion": (
        lambda _: canonicalize(LyapunovCandidate(terms=((1, 1, EYE2), (1, 1, -EYE2)))),
        InvalidCandidateError,
        "zero after expansion",
    ),
    "candidate-zero-after-closure": (  # X - X: each term is the other's negated adjoint
        lambda _: canonicalize(LyapunovCandidate(terms=((1, 0, EYE2), (0, 1, -EYE2))), hermitian_closure=True),
        InvalidCandidateError,
        "zero after Hermitian closure",
    ),
    "evaluate-point-of-another-dimension": (
        lambda _: evaluate(canonicalize(SQUARE), np.eye(3)), DimensionMismatchError, "argument dimension 3"
    ),
    "collision-without-steps": (
        lambda _: CollisionConfig(dt=0.1, steps=0), ValueError, "steps must be at least 1"
    ),
    "collision-without-ancilla-levels": (
        lambda _: CollisionConfig(dt=0.1, steps=1, ancilla_levels=0), ValueError, "ancilla_levels must be at least 1"
    ),
    "trajectory-shapes-differ": (
        lambda _: Trajectory(times=[0.0, 1.0], v_expect=[1.0], method="collision"),
        ValueError,
        "equal length",
    ),
    "trajectory-short-observable": (
        lambda _: Trajectory(times=[0.0, 1.0], v_expect=[1.0, 0.5], method="collision", obs_expect={"n": [1.0]}),
        ValueError,
        "observable 'n' length differs",
    ),
    "ito-table-without-ancilla-levels": (
        lambda _: ito_table_check(ancilla_levels=0), ValueError, "ancilla_levels must be at least 1"
    ),
    "empty-operator": (lambda _: as_operator(np.zeros((0, 0))), InvalidOperatorError, "dimension must be at least 1"),
    "zero-state-vector": (
        lambda _: QuantumState.from_vector([0.0, 0.0]), InvalidStateError, "state vector must be nonzero"
    ),
    "model-file-of-a-json-list": (_list_model_file, FileFormatError, "top level must be a JSON object"),
}


@pytest.mark.parametrize("call, error, fragment", ERRORS.values(), ids=ERRORS.keys())
def test_an_input_error_raises_its_type_naming_the_defect(tmp_path, call, error, fragment):
    with pytest.raises(error, match=fragment):
        call(tmp_path)


def test_a_path_that_never_reaches_the_low_level_has_no_transit():
    trajectory = Trajectory(times=[0.0, 1.0, 2.0], v_expect=[1.0, 0.8, 0.7], method="collision")
    report = transit_time_check(trajectory, level_hi=0.9, level_lo=0.5, b=1.0)
    assert not report.applicable
    assert report.measured is None


def test_a_candidate_saved_with_hermitian_closure_loads_back_closed(tmp_path):
    open_pair = LyapunovCandidate(terms=((1, 1, np.array([[1.0, 1.0], [0.0, 1.0]])),), center=-EYE2)
    path = tmp_path / "lyap.json"
    save_lyapunov(open_pair, path)
    with pytest.raises(InvalidCandidateError, match="not closed"):
        load_lyapunov(path)
    save_lyapunov(open_pair, path, hermitian_closure=True)
    loaded, closed = load_lyapunov(path), canonicalize(open_pair, hermitian_closure=True)
    assert [(n, m) for n, m, _ in loaded.terms] == [(n, m) for n, m, _ in closed.terms]
    for (_, _, a), (_, _, b) in zip(loaded.terms, closed.terms):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.center, closed.center)
