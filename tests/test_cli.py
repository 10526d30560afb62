import json
import os
import re
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qstab.certify
import qstab.cli
import qstab.fileio
from qstab import (
    DirectionFamily,
    InternalCheckError,
    LyapunovCandidate,
    QsdeModel,
    QuantumState,
    check_asymptotic,
    check_exponential,
    check_local,
    check_state,
    estimate_max_rate,
)
from qstab.cli import main
from qstab.fileio import (
    certificate_bytes,
    encode_matrix,
    level_set_spec_from_args,
    load_lyapunov,
    load_model,
    load_operator,
    save_direction_family,
    save_lyapunov,
    save_model,
    save_operator,
    save_state_vector,
)

from conftest import EYE2, KET_E, NUMBER, SIGMA_MINUS, SIGMA_X, SIGMA_Z, eager_ito_coefficients

DEMO_FILES = Path(__file__).resolve().parents[1] / "demos" / "files"


@pytest.fixture
def files(tmp_path, damping_model):
    paths = {
        "model": tmp_path / "model.json",
        "lyap": tmp_path / "lyap.json",
        "center": tmp_path / "center.json",
        "x0": tmp_path / "x0.json",
        "psi0": tmp_path / "psi0.json",
        "family": tmp_path / "family.json",
    }
    save_model(damping_model, paths["model"])
    save_lyapunov(LyapunovCandidate(terms=((1, 1, EYE2),), center=-EYE2), paths["lyap"])
    save_operator(-EYE2, paths["center"])
    save_operator(SIGMA_Z, paths["x0"])
    save_state_vector(KET_E, paths["psi0"])
    paths["family"].write_text(
        json.dumps({"schema_version": 1, "directions": [encode_matrix(NUMBER)], "scale_max": 1.0})
    )
    return {k: str(v) for k, v in paths.items()}


class TestValidateCommand:
    def test_valid_model(self, files, capsys):
        assert main(["validate", files["model"]]) == 0
        assert "model ok" in capsys.readouterr().out

    def test_broken_scattering_exits_2(self, tmp_path, capsys):
        bad = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=SIGMA_MINUS, scattering=np.diag([1.0, 2.0]))
        path = tmp_path / "bad.json"
        save_model(bad, path)
        assert main(["validate", str(path)]) == 2
        assert "S not unitary" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "/nonexistent/model.json"]) == 2

    @pytest.mark.parametrize("dim", ["2", True, 2.0, 0])
    def test_non_integer_dim_exits_2(self, files, tmp_path, capsys, dim):
        data = json.loads(open(files["model"]).read())
        data["dim"] = dim
        path = tmp_path / "bad_dim.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert "dim must be a JSON integer" in capsys.readouterr().err


class TestDriftCommand:
    def test_flow_picture(self, files, capsys):
        assert main(["drift", files["model"], files["lyap"], "--point", files["x0"]]) == 0
        out = capsys.readouterr().out
        assert "drift" in out and "coeff_gauge" in out

    def test_state_picture(self, files, capsys):
        code = main(["drift", files["model"], files["lyap"], "--point", files["x0"], "--picture", "state"])
        assert code == 0

    def test_describes_the_kept_center(self, capsys):
        argv = ["drift", str(DEMO_FILES / "damping_model.json"), str(DEMO_FILES / "square_candidate.json"),
                "--point", str(DEMO_FILES / "x0_sigma_z.json")]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("candidate: 1 canonical term, exponents [(1, 1)], center -1·I\n")

    @pytest.mark.parametrize("picture", ["flow", "state"])
    @pytest.mark.parametrize("point", ["x0_sigma_z.json", "center.json"])
    def test_prints_what_the_eager_assembly_prints(self, monkeypatch, capsys, picture, point):
        # The candidate's Theta is scalar, so the library's coefficients come from V(X): they may differ from the
        # eager product rule in the sign of a zero, which the printer does not show.
        argv = ["drift", str(DEMO_FILES / "damping_model.json"), str(DEMO_FILES / "square_candidate.json"),
                "--point", str(DEMO_FILES / point), "--picture", picture]
        library, printed = getattr(qstab.cli, f"{picture}_ito_coefficients"), []
        for ito in (library, lambda *args: SimpleNamespace(**eager_ito_coefficients(*args, picture))):
            monkeypatch.setattr(qstab.cli, f"{picture}_ito_coefficients", ito)
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("picture", ["flow", "state"])
    def test_prints_no_signed_zero(self, capsys, picture):
        argv = ["drift", str(DEMO_FILES / "damping_model.json"), str(DEMO_FILES / "square_candidate.json"),
                "--point", str(DEMO_FILES / "x0_sigma_z.json"), "--picture", picture]
        assert main(argv) == 0
        assert "-0." not in capsys.readouterr().out


class TestCertifyCommand:
    def common(self, files, mode, extra=()):
        return [
            "certify", files["model"], files["lyap"],
            "--center", files["center"], "--mode", mode,
            "--epsilon", "1.0", "--samples", "8", "--seed", "42",
            "--family", files["family"], *extra,
        ]

    def test_local_pass_exit_0(self, files, capsys):
        assert main(self.common(files, "local")) == 0
        assert "verdict pass" in capsys.readouterr().out

    @staticmethod
    def readme_certify(seed):
        """The README's certify command on the demo files, at the given seed."""
        return [
            "certify", str(DEMO_FILES / "damping_model.json"), str(DEMO_FILES / "square_candidate.json"),
            "--center", str(DEMO_FILES / "center.json"), "--mode", "exponential", "--epsilon", "1",
            "--samples", "16", "--seed", str(seed), "--rate", "0.5", "--family", str(DEMO_FILES / "number_family.json"),
        ]

    def test_readme_command_passes(self, capsys):
        assert main(self.readme_certify(7)) == 0

    @pytest.mark.xfail(strict=True, reason="absolute tol_strict near the center: one sample lies at s = 4.5e-5 on "
                       "the N ray, where the sound candidate V = s^2 N = 2.0e-9 N falls below tol_strict = 1e-8")
    def test_readme_command_with_a_sample_near_the_center(self, capsys):
        assert main(self.readme_certify(1892)) == 0

    def test_exponential_with_rate(self, files, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(self.common(files, "exponential", ("--rate", "0.5", "--out", str(out))))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "pass"
        assert data["rate"] == 0.5

    def test_exponential_fail_exit_1(self, files, capsys):
        assert main(self.common(files, "exponential", ("--rate", "2.0"))) == 1
        assert "verdict fail" in capsys.readouterr().out

    def test_exponential_requires_rate(self, files, capsys):
        assert main(self.common(files, "exponential")) == 2

    def test_asymptotic_requires_margin(self, files):
        assert main(self.common(files, "asymptotic")) == 2

    @pytest.mark.parametrize(
        "mode, flag",
        [("local", "--rate"), ("asymptotic", "--rate"), ("state-local", "--rate"), ("state-asymptotic", "--rate"),
         ("local", "--margin"), ("exponential", "--margin"), ("state-asymptotic", "--margin"),
         ("state-local", "--estimate-rate")],
    )
    def test_flag_outside_its_mode_exits_2(self, files, capsys, mode, flag):
        extra = (flag,) if flag == "--estimate-rate" else (flag, "0.5")
        if mode == "exponential":
            extra += ("--rate", "0.5")
        assert main(self.common(files, mode, extra)) == 2
        assert f"{flag} applies only to" in capsys.readouterr().err

    def test_zero_direction_family_exits_2(self, files, tmp_path, capsys):
        family = tmp_path / "zero_family.json"
        family.write_text(json.dumps({"schema_version": 1, "directions": [encode_matrix(np.zeros((2, 2)))]}))
        argv = self.common(files, "local")
        argv[argv.index("--family") + 1] = str(family)
        assert main(argv) == 2
        assert "directions[0] is zero" in capsys.readouterr().err

    def test_zero_width_family_exits_2(self, files, tmp_path, capsys):
        family = tmp_path / "zero_width_family.json"
        family.write_text(json.dumps({"schema_version": 1, "directions": [encode_matrix(NUMBER)], "scale_max": 0}))
        argv = self.common(files, "local")
        argv[argv.index("--family") + 1] = str(family)
        assert main(argv) == 2
        assert "scale_max must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["1e8", "1e12", "1e14"])
    def test_the_drift_is_guarded_by_its_forward_error(self, tmp_path, capsys, epsilon):
        # At epsilon 1e12 the drift's Hermiticity defect (2.6e-5) is rounding, not an error that exits 2.
        family = tmp_path / "tilted_family.json"
        tilted = np.array([[1.0, 0.5 + 0.3j], [0.5 - 0.3j, 0.2]])
        family.write_text(json.dumps({"schema_version": 1, "directions": [encode_matrix(tilted)], "scale_max": 1e9}))
        argv = ["certify", str(DEMO_FILES / "damping_model.json"), str(DEMO_FILES / "square_candidate.json"),
                "--center", str(DEMO_FILES / "center.json"), "--mode", "local", "--epsilon", epsilon,
                "--samples", "16", "--seed", "5", "--family", str(family)]
        assert main(argv) == 1
        assert "violated condition: drift has a positive eigenvalue on a sample" in capsys.readouterr().out

    def test_estimate_rate_flag(self, files, capsys):
        assert main(self.common(files, "local", ("--estimate-rate",))) == 0
        assert "max supported rate" in capsys.readouterr().out

    def test_estimate_rate_needs_the_center_conditions(self, files, tmp_path, capsys):
        off_center, out = tmp_path / "off_center.json", tmp_path / "cert.json"
        save_operator(-EYE2 + 0.05 * SIGMA_X, off_center)
        argv = self.common(files, "local", ("--estimate-rate", "--out", str(out)))
        argv[argv.index("--center") + 1] = str(off_center)
        assert main(argv) == 1
        assert "max supported rate: not estimated (center is not a flow equilibrium)" in capsys.readouterr().out
        assert json.loads(out.read_text())["violated_condition"] == "center is not a flow equilibrium"

    def test_estimate_rate_on_a_candidate_that_is_not_psd_exits_1(self, files, tmp_path, capsys):
        # V = -(X + I)^2 fails the check at a sample; the estimate names the same condition instead of exiting 2.
        negative = tmp_path / "negative.json"
        save_lyapunov(LyapunovCandidate(terms=((1, 1, -EYE2),), center=-EYE2), negative)
        argv = self.common(files, "exponential", ("--rate", "0.5", "--estimate-rate"))
        argv[2] = str(negative)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "verdict fail" in captured.out
        assert (
            "max supported rate: not estimated (candidate is not positive semidefinite at a sample)" in captured.out
        )
        assert captured.err == ""

    def test_byte_identical_reruns(self, files, tmp_path):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        assert main(self.common(files, "local", ("--out", str(out1)))) == 0
        assert main(self.common(files, "local", ("--out", str(out2)))) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_seed_override(self, files, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        main(self.common(files, "local", ("--out", str(out1))))
        monkeypatch.setenv("QSTAB_SEED", "42")
        # different --seed, same env override -> same bytes
        argv = self.common(files, "local", ("--out", str(out2)))
        argv[argv.index("--seed") + 1] = "7"
        main(argv)
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_a_malformed_env_seed_exits_2_naming_it(self, files, capsys, monkeypatch, value):
        monkeypatch.setenv("QSTAB_SEED", value)
        assert main(self.common(files, "local")) == 2
        assert f"error: QSTAB_SEED must be an integer, got {value!r}" in capsys.readouterr().err

    @staticmethod
    def state_argv(files, tmp_path, mode):
        """state-* around I/2 with a traceless diagonal family, on the model of ``files``."""
        center = tmp_path / "center_state.json"
        save_operator(EYE2 / 2, center)
        lyap = tmp_path / "lyap_state.json"
        save_lyapunov(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2), lyap)
        family = tmp_path / "family_state.json"
        family.write_text(
            json.dumps({"schema_version": 1, "directions": [encode_matrix(SIGMA_Z / 2)], "scale_max": 1.0})
        )
        return [
            "certify", files["model"], str(lyap),
            "--center", str(center), "--mode", mode,
            "--epsilon", "0.5", "--samples", "6", "--seed", "1",
            "--family", str(family),
        ]

    def test_state_mode(self, files, tmp_path):
        assert main(self.state_argv(files, tmp_path, "state-local")) == 0
        assert main(self.state_argv(files, tmp_path, "state-asymptotic")) == 1

    @pytest.mark.parametrize("estimate", [False, True], ids=["check", "estimate-rate"])
    @pytest.mark.parametrize("family", [None, "number_family.json"], ids=["ball", "family"])
    @pytest.mark.parametrize("center", ["center.json", "off_center"])
    @pytest.mark.parametrize("mode, extra", [("local", ()), ("asymptotic", ("--margin", "0.1")),
                                             ("exponential", ("--rate", "0.5"))])
    def test_a_flow_mode_writes_what_the_library_calls_give(self, tmp_path, capsys, mode, extra, center, family,
                                                            estimate):
        if center == "off_center":  # fails the center's equilibrium condition, so the level set is never sampled
            center = tmp_path / "off_center.json"
            save_operator(-EYE2 + 0.05 * SIGMA_X, center)
        model, candidate, out = DEMO_FILES / "damping_model.json", DEMO_FILES / "square_candidate.json", tmp_path / "c"
        argv = ["certify", str(model), str(candidate), "--center", str(DEMO_FILES / center), "--mode", mode,
                "--epsilon", "1", "--samples", "16", "--seed", "7", *extra, "--out", str(out)]
        argv += (["--family", str(DEMO_FILES / family)] if family else []) + (["--estimate-rate"] if estimate else [])
        code, printed = main(argv), capsys.readouterr().out

        inputs = (load_model(model), load_lyapunov(candidate), load_operator(DEMO_FILES / center),
                  level_set_spec_from_args(1.0, 16, 7, family and DEMO_FILES / family))
        check = {"local": check_local, "asymptotic": partial(check_asymptotic, margin=0.1),
                 "exponential": partial(check_exponential, rate=0.5)}[mode]
        cert = check(*inputs)
        assert code == (0 if cert.passed else 1)
        assert out.read_bytes() == certificate_bytes(cert)
        assert ("  margin: 0.1" in printed.splitlines()) == (mode == "asymptotic")
        expected = []
        if estimate:
            try:
                est = estimate_max_rate(*inputs)
            except ValueError as exc:
                expected = [f"  max supported rate: not estimated ({exc})"]
            else:
                flag = " (positive drift off the candidate support)" if est.support_mismatch else ""
                expected = [f"  max supported rate: {est.rate:.6g}{flag}"]
        assert [line for line in printed.splitlines() if "max supported rate" in line] == expected

    @pytest.mark.parametrize("mode, rate", [("local", None), ("asymptotic", None), ("exponential", 0.5)])
    def test_a_state_mode_writes_what_check_state_gives(self, files, tmp_path, capsys, mode, rate):
        out = tmp_path / "cert.json"
        argv = self.state_argv(files, tmp_path, f"state-{mode}") + ["--out", str(out)]
        code = main(argv + (["--rate", str(rate)] if rate else []))
        center = load_operator(argv[argv.index("--center") + 1])
        spec = level_set_spec_from_args(0.5, 6, 1, argv[argv.index("--family") + 1])
        cert = check_state(load_model(files["model"]), load_lyapunov(argv[2]), center, QuantumState(center), spec,
                           mode, rate)
        assert code == (0 if cert.passed else 1)
        assert out.read_bytes() == certificate_bytes(cert)

    def test_estimate_rate_samples_the_level_set_once(self, monkeypatch, capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_level_set(*args, **kwargs)

        sample_level_set = qstab.certify.sample_level_set
        monkeypatch.setattr(qstab.certify, "sample_level_set", counted)
        assert main(self.readme_certify(7) + ["--estimate-rate"]) == 0
        assert "max supported rate: " in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("family", [False, True], ids=["ball", "family"])
    @pytest.mark.parametrize("at", [-1.0, 0.0])
    def test_a_huge_theta_at_a_tiny_epsilon_still_samples(self, tmp_path, capsys, at, family):
        # Theta = 1e30 I at epsilon 1e-300: eps / lambda = 1e-330 underflows, but the exit s = 1e-165 does not.
        # At the flow equilibrium 0 the candidate keeps no center, and the ray route's s^2 underflows to 0 too.
        huge, center = tmp_path / "huge_theta.json", tmp_path / "center.json"
        save_lyapunov(LyapunovCandidate(terms=((1, 1, 1e30 * EYE2),), center=at * EYE2), huge)
        save_operator(at * EYE2, center)
        argv = self.readme_certify(7) + ["--epsilon", "1e-300", "--estimate-rate"]  # the last --epsilon wins
        argv[2], argv[argv.index("--center") + 1] = str(huge), str(center)
        if not family:
            del argv[argv.index("--family"):argv.index("--family") + 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        # The verdict is not pinned: every V here lies below the absolute tol_strict.
        assert code in (0, 1), capsys.readouterr().err

    @pytest.mark.parametrize("family", [False, True], ids=["ball", "family"])
    def test_a_theta_whose_squares_overflow_reaches_a_verdict_with_no_warning(self, tmp_path, capsys, family):
        # Theta = 1e154 I: ||Theta||_F^2 = 2e308 overflows, so the candidate's norms are taken scaled.
        huge = tmp_path / "huge_theta.json"
        save_lyapunov(LyapunovCandidate(terms=((1, 1, 1e154 * EYE2),), center=-EYE2), huge)
        center = str(DEMO_FILES / "center.json")
        argv = ["certify", str(DEMO_FILES / "damping_model.json"), str(huge), "--center", center, "--mode", "local"]
        argv += ["--epsilon", "1", "--samples", "16", "--seed", "7"]
        argv += ["--family", str(DEMO_FILES / "number_family.json")] if family else []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        # The verdict is not pinned: a sample this close to the center is within rounding of it.
        assert code in (0, 1), capsys.readouterr().err

    def test_samples_past_the_float_range_exit_2_naming_scale_max_and_epsilon(self, tmp_path, capsys):
        # Theta = 1e-300 I at epsilon 1e10 on diag(1, 0) up to 1e300: the cap is near 1e155, where s^2 overflows.
        tiny, family = tmp_path / "tiny_theta.json", tmp_path / "far_family.json"
        save_lyapunov(LyapunovCandidate(terms=((1, 1, 1e-300 * EYE2),), center=-EYE2), tiny)
        save_direction_family(DirectionFamily((NUMBER,), scale_max=1e300), family)
        center = str(DEMO_FILES / "center.json")
        argv = ["certify", str(DEMO_FILES / "damping_model.json"), str(tiny), "--center", center]
        argv += ["--mode", "local", "--epsilon", "1e10", "--samples", "16", "--seed", "7", "--family", str(family)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: samples leave the float range: ")
        assert err.endswith("lower scale_max (1e+300) or epsilon (1e+10)\n")

    @pytest.mark.parametrize("reference", [None, "x0_sigma_z.json"], ids=["default", "given"])
    def test_a_reference_that_is_not_a_state_exits_2_naming_its_flag(self, capsys, reference):
        # The demo center -I is the default reference; sigma_z given as --reference is not a state either.
        argv = demo_argv("certify")
        argv[argv.index("--mode") + 1] = "state-local"
        del argv[argv.index("--rate"):argv.index("--rate") + 2]
        flag = "--center (the default --reference)"
        if reference:
            argv, flag = argv + ["--reference", str(DEMO_FILES / reference)], "--reference"
        assert main(argv) == 2
        message = "is not a density matrix: state is not positive semidefinite: min eigenvalue -1.000e+00"
        assert capsys.readouterr().err == f"error: {flag} {message}\n"


class TestSimulateCommand:
    def args(self, files, method, out):
        return [
            "simulate", files["model"], files["lyap"],
            "--x0", files["x0"], "--psi0", files["psi0"],
            "--dt", "0.01", "--steps", "10", "--method", method, "--out", out,
        ]

    def test_collision_csv(self, files, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(self.args(files, "collision", str(out))) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,v_expect"
        assert len(lines) == 12

    def test_methods_agree_first_order(self, files, tmp_path):
        out_c, out_m = tmp_path / "c.csv", tmp_path / "m.csv"
        assert main(self.args(files, "collision", str(out_c))) == 0
        assert main(self.args(files, "master", str(out_m))) == 0
        vc = np.array([float(l.split(",")[1]) for l in out_c.read_text().strip().split("\n")[1:]])
        vm = np.array([float(l.split(",")[1]) for l in out_m.read_text().strip().split("\n")[1:]])
        assert np.max(np.abs(vc - vm)) <= 0.05

    def test_long_collision_run(self, files, tmp_path):
        out = tmp_path / "long.csv"
        argv = self.args(files, "collision", str(out))
        argv[argv.index("--steps") + 1] = "1000"
        assert main(argv) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 1001

    def test_byte_identical_reruns(self, files, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        main(self.args(files, "collision", str(out1)))
        main(self.args(files, "collision", str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_output(self, files, capsys):
        argv = self.args(files, "master", "unused")
        argv = argv[: argv.index("--out")]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("t,v_expect")

    def test_master_steps(self, files, tmp_path, capsys):
        out = tmp_path / "m.csv"
        argv = self.args(files, "master", str(out))
        argv[argv.index("--steps") + 1] = "-1"
        assert main(argv) == 2
        assert "steps must be nonnegative" in capsys.readouterr().err
        argv[argv.index("--steps") + 1] = "0"
        assert main(argv) == 0
        assert out.read_text().strip().split("\n") == ["t,v_expect", "0,4"]


class TestCrosscheckCommand:
    def test_crosscheck_ok(self, files, capsys):
        argv = [
            "crosscheck", files["model"], files["lyap"],
            "--x0", files["x0"], "--psi0", files["psi0"], "--dt", "0.01",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "finite-difference drift check" in out
        assert "Ito table check" in out


    @pytest.mark.parametrize("dt, message", [("5e-324", "halve to a nonzero step"),
                                             ("1e-323", "give a finite one-step slope"),
                                             ("1e155", "square to a finite number"),
                                             ("1e300", "square to a finite number")])
    def test_a_dt_whose_half_or_square_is_not_representable_exits_2_before_any_table(self, capsys, dt, message):
        # 5e-324 halves to 0.0, over 1e-323 a rounding-level change of E[V] overflows the one-step slope, and from
        # 1e155 on dt * dt overflows in the Ito table.
        argv = demo_argv("crosscheck")
        argv[argv.index("--dt") + 1] = dt
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: dt must {message}, got {float(dt)!r}\n"


class TestNumericFlags:
    """Non-finite or non-positive --epsilon, --rate, --margin, --dt and --tol are input errors naming the field."""

    def argv(self, files, case):
        certify = ["certify", files["model"], files["lyap"], "--center", files["center"],
                   "--epsilon", "1.0", "--samples", "4", "--family", files["family"]]
        simulate = ["simulate", files["model"], files["lyap"], "--x0", files["x0"], "--psi0", files["psi0"],
                    "--dt", "0.01", "--steps", "3"]
        return {
            "epsilon": certify + ["--mode", "local"],
            "rate": certify + ["--mode", "exponential", "--rate", "0.5"],
            "margin": certify + ["--mode", "asymptotic", "--margin", "0.5"],
            "dt": simulate,
            "dt-master": simulate + ["--method", "master"],
            "dt-crosscheck": ["crosscheck", files["model"], files["lyap"], "--x0", files["x0"],
                              "--psi0", files["psi0"], "--dt", "0.01"],
            "tol": certify + ["--mode", "local", "--tol", "1e-9"],
            "tol-validate": ["validate", files["model"], "--tol", "1e-9"],
        }[case]

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "case", ["epsilon", "rate", "margin", "dt", "dt-master", "dt-crosscheck", "tol", "tol-validate"]
    )
    def test_bad_value_exits_2(self, files, capsys, case, value):
        field = case.split("-")[0]
        argv = self.argv(files, case)
        argv[argv.index(f"--{field}") + 1] = value
        assert main(argv) == 2
        assert f"{field} must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("model", ["present", "missing"])
    @pytest.mark.parametrize("case", ["tol", "tol-validate"])
    def test_a_bad_tol_is_named_as_the_flag_before_any_file_is_read(self, files, tmp_path, capsys, case, model, value):
        argv = self.argv(files, case)
        argv[argv.index("--tol") + 1] = value
        if model == "missing":
            argv[1] = str(tmp_path / "missing.json")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: tol must be a finite positive number, got {float(value)!r}\n"


# Each command on the demo input files, as in the README (certify with fewer samples).
DEMO_ARGV = {
    "validate": ["validate", "damping_model.json"],
    "drift": ["drift", "damping_model.json", "square_candidate.json", "--point", "x0_sigma_z.json"],
    "certify": ["certify", "damping_model.json", "square_candidate.json", "--center", "center.json",
                "--mode", "exponential", "--epsilon", "1", "--samples", "4", "--seed", "7", "--rate", "0.5",
                "--family", "number_family.json"],
    "simulate": ["simulate", "damping_model.json", "square_candidate.json", "--x0", "x0_sigma_z.json",
                 "--psi0", "psi0_excited.json", "--dt", "0.01", "--steps", "2"],
    "crosscheck": ["crosscheck", "damping_model.json", "square_candidate.json", "--x0", "x0_sigma_z.json",
                   "--psi0", "psi0_excited.json", "--dt", "0.01"],
}
# Fields a format defines beyond those in its demo file.
OPTIONAL_FIELDS = {"square_candidate.json": ("hermitian_closure",)}
# (field, value) pairs that are valid input: the documented optional nulls, a true closure flag and the optional
# fields left out.
VALID = {("S", "null"), ("center", "null"), ("hermitian_closure", "true")} | {
    (field, "missing") for field in ("S", "center", "hermitian_closure", "scale_min", "scale_max")
}
INTEGER_FIELDS = {"schema_version", "dim", "terms[0].n", "terms[0].m"}
MISSING = object()
# Values of the wrong JSON type, a deleted field, and an integer-valued float, which only an integer field rejects.
MALFORMED = {"null": None, "true": True, "x": "x", "[1]": [1], "{}": {}, "missing": MISSING, "1.0": 1.0}


def demo_argv(command, swap=()):
    """The command's argv on the demo files, with each file named in ``swap`` replaced by its path there."""
    swap = dict(swap)
    return [str(swap.get(a, DEMO_FILES / a)) if a.endswith(".json") else a for a in DEMO_ARGV[command]]


def demo_fields(name):
    """Each field of a demo file as (path into the JSON, its printed name); the first term stands for every term."""
    data = json.loads((DEMO_FILES / name).read_text())
    for key in sorted(data) + list(OPTIONAL_FIELDS.get(name, ())):
        yield (key,), key
        if key == "terms":
            yield from (((key, 0, sub), f"{key}[0].{sub}") for sub in sorted(data[key][0]))


MALFORMED_CASES = [
    pytest.param(name, path, label, command, value, id=f"{command}-{name[:-5]}.{label}={shown}")
    for command, argv in DEMO_ARGV.items()
    for name in dict.fromkeys(a for a in argv if a.endswith(".json"))
    for path, label in demo_fields(name)
    for shown, value in MALFORMED.items()
    if (label, shown) not in VALID and (shown != "1.0" or label in INTEGER_FIELDS)
]


@pytest.mark.parametrize("name, path, label, command, value", MALFORMED_CASES)
def test_a_malformed_field_exits_2_naming_it(tmp_path, capsys, name, path, label, command, value):
    """Each field of each demo file set to a malformed value, through each command that reads it: the error names
    the file and the field."""
    data = json.loads((DEMO_FILES / name).read_text())
    *parents, key = path
    node = data
    for step in parents:
        node = node[step]
    if value is MISSING:
        del node[key]
    else:
        node[key] = value
    bad = tmp_path / name
    bad.write_text(json.dumps(data))
    assert main(demo_argv(command, {name: bad})) == 2
    err = capsys.readouterr().err
    assert re.search(rf"(?<![\w.]){re.escape(label)}(?!\w)", err)
    assert f"error: {bad}: " in err


# file -> (command, an edit that leaves every field well formed but fails the loader's checks, field named)
REJECTED_VALUES = {
    "damping_model.json": ("validate", lambda data: data["H"][0][1].__setitem__(1, 1.0), "H"),
    "square_candidate.json": (
        "certify", lambda data: data.update(center=encode_matrix(np.diag([-1.0, -2.0])), terms=[
            {**data["terms"][0], "n": 2}, {**data["terms"][0], "m": 2}]), "center"),
    "number_family.json": ("certify", lambda data: data.update(scale_max=-1.0), "scale_max"),
}


@pytest.mark.parametrize("name", sorted(REJECTED_VALUES))
def test_a_rejected_value_exits_2_naming_the_file_and_the_field(tmp_path, capsys, name):
    """The model's invariants, the candidate's expansion and the family's range are checked after the field
    reader; their errors name the file too."""
    command, edit, field = REJECTED_VALUES[name]
    data = json.loads((DEMO_FILES / name).read_text())
    edit(data)
    bad = tmp_path / name
    bad.write_text(json.dumps(data))
    assert main(demo_argv(command, {name: bad})) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and re.search(rf"(?<![\w.]){re.escape(field)}(?!\w)", err)


def test_the_demo_commands_pass():
    """The unmutated inputs pass every command, so each malformed case fails for its own field."""
    for command in DEMO_ARGV:
        assert main(demo_argv(command)) == 0


QUTRIT_INPUTS = {
    "psi0_excited.json": lambda path: save_state_vector(np.array([1.0, 0.0, 0.0]), path),
    "x0_sigma_z.json": lambda path: save_operator(np.diag([1.0, 0.0, -1.0]), path),
    "square_candidate.json": lambda path: save_lyapunov(
        LyapunovCandidate(terms=((1, 1, np.eye(3)),), center=-np.eye(3)), path
    ),
}


@pytest.mark.parametrize(
    "command, swap, name",
    [(command, "psi0_excited.json", "system state") for command in ("simulate", "simulate-master", "crosscheck")]
    + [(command, "x0_sigma_z.json", "x0") for command in ("simulate", "simulate-master", "crosscheck")]
    + [(command, "x0_sigma_z.json", "point") for command in ("drift", "drift-state")]
    + [(command, "square_candidate.json", "candidate")
       for command in ("drift", "drift-state", "simulate", "simulate-master", "crosscheck")],
)
def test_a_state_of_another_dimension_exits_2(tmp_path, capsys, command, swap, name):
    """A qutrit --psi0, --x0, --point or candidate on the qubit model is rejected before any arithmetic, naming
    the input and both dimensions."""
    qutrit = tmp_path / swap
    QUTRIT_INPUTS[swap](qutrit)
    command, _, variant = command.partition("-")
    flags = {"": [], "master": ["--method", "master"], "state": ["--picture", "state"]}[variant]
    assert main(demo_argv(command, {swap: qutrit}) + flags) == 2
    assert f"error: {name} has dimension 3, model has dimension 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, mode, swap",
    [("center", "local", "center.json"), ("reference", "state-local", None),
     ("directions[0]", "local", "number_family.json")],
)
def test_a_certify_input_of_another_dimension_exits_2_naming_it(tmp_path, capsys, name, mode, swap):
    """A qutrit center, reference state or family direction on the qubit model is rejected before any arithmetic."""
    qutrit = tmp_path / "qutrit.json"
    if swap == "number_family.json":
        qutrit.write_text(json.dumps({"schema_version": 1, "directions": [encode_matrix(np.diag([1.0, 0.0, 0.0]))]}))
    else:
        save_operator(np.eye(3) / 3, qutrit)
    argv = demo_argv("certify", {swap: qutrit} if swap else {})
    argv[argv.index("--mode") + 1] = mode
    del argv[argv.index("--rate"):argv.index("--rate") + 2]
    assert main(argv + ["--reference", str(qutrit)] * (swap is None)) == 2
    assert f"error: {name} has dimension 3, model has dimension 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "drift", "certify"])
@pytest.mark.parametrize("field, factor", [("L", 1e200), ("L", 1e160), ("H", 1e160)])
def test_a_model_whose_norm_overflows_exits_2_naming_its_operator(tmp_path, capsys, command, field, factor):
    """The demo model with L, or H = diag(1, 0), scaled past the float range of ||X||_F^2: no overflow warning
    (an error under pytest) reaches the arithmetic."""
    data = json.loads((DEMO_FILES / "damping_model.json").read_text())
    data[field] = encode_matrix(factor * (SIGMA_MINUS if field == "L" else np.diag([1.0, 0.0])))
    bad = tmp_path / "damping_model.json"
    bad.write_text(json.dumps(data))
    assert main(demo_argv(command, {"damping_model.json": bad})) == 2
    assert capsys.readouterr().err == f"error: {bad}: {field} is too large: ||{field}||_F^2 overflows\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_an_internal_check_error_exits_3(self, files, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalCheckError("a re-check failed")

        monkeypatch.setattr(qstab.fileio, "load_model", broken)
        assert main(["validate", files["model"]]) == 3
        assert capsys.readouterr().err == "internal error: a re-check failed\n"

    def test_unknown_flag(self, files, capsys):
        assert main(["validate", files["model"], "--bogus"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


def src_env():
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_import_leaves_scipy_unloaded():
    """The package, its CLI and the master oracle need numpy only; hashlib loads inside the digest."""
    code = "\n".join([
        "import sys, numpy as np, qstab, qstab.cli",
        "print('scipy' in sys.modules, 'hashlib' in sys.modules)",
        "from qstab import LyapunovCandidate, QsdeModel, QuantumState, master_flow_expectation",
        "model = QsdeModel(hamiltonian=np.zeros((2, 2)), coupling=np.array([[0.0, 0.0], [1.0, 0.0]]))",
        "cand = LyapunovCandidate(terms=((1, 1, np.eye(2)),), center=-np.eye(2))",
        "rho0 = QuantumState.maximally_mixed(2)",
        "master_flow_expectation(model, cand, np.diag([1.0, -1.0]), rho0, np.linspace(0.0, 4.0, 201))",
        "print('scipy' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False", "False"]


def test_readme_master_simulate_runs_with_scipy_blocked(tmp_path, capsys):
    """With scipy unimportable, the README master run exits 0 and writes the bytes of a normal run."""
    argv = demo_argv("simulate") + ["--method", "master"]
    argv[argv.index("--steps") + 1] = "100"
    normal, blocked = tmp_path / "normal.csv", tmp_path / "blocked.csv"
    assert main(argv + ["--out", str(normal)]) == 0
    code = "import sys; sys.modules['scipy'] = None; from qstab.cli import main; sys.exit(main(sys.argv[1:]))"
    result = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(blocked)],
                            env=src_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert blocked.read_bytes() == normal.read_bytes()


def test_a_collision_step_past_the_float_range_is_an_input_error(tmp_path, capsys):
    """With H = 1e10 sigma_z and L = 1e10 sigma_-, dt = 1e300 overflows dt ||H||: exit 2 naming dt, no warning."""
    path = tmp_path / "model.json"
    save_model(QsdeModel(hamiltonian=1e10 * SIGMA_Z, coupling=1e10 * SIGMA_MINUS), path)
    argv = demo_argv("simulate", {"damping_model.json": path})
    argv[argv.index("--dt") + 1] = "1e300"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: dt must give finite dt ||H||_F and dt ||L||_F^2, got 1e+300\n")


@pytest.mark.parametrize("dt", ["1e-300", "1e30", "1e300"])
@pytest.mark.parametrize("model", ["demo", "random-qutrit"])
def test_master_simulate_at_extreme_steps_is_never_an_internal_error(tmp_path, capsys, model, dt):
    """A step from 1e-300 to 1e300 exits 0 or names the bad state (2), never 3.  The demo's propagator stays finite
    and trace-preserving at every step, so every row is finite; a full random Liouvillian's may not."""
    swap = {}
    if model == "random-qutrit":
        rng = np.random.default_rng(3)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        swap["damping_model.json"] = tmp_path / "model.json"
        save_model(QsdeModel(hamiltonian=h + h.conj().T, coupling=rng.normal(size=(3, 3))), swap["damping_model.json"])
        for name, write in QUTRIT_INPUTS.items():
            write(tmp_path / name)
            swap[name] = tmp_path / name
    argv = demo_argv("simulate", swap) + ["--method", "master"]
    argv[argv.index("--dt") + 1] = dt
    status, (out, err) = main(argv), capsys.readouterr()
    if model == "demo":
        assert status == 0, err
        assert all(np.isfinite(float(line.split(",")[1])) for line in out.split()[1:])
    else:
        assert status in (0, 2), err
