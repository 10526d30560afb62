import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qstab.cli
from qstab import LyapunovCandidate, QsdeModel
from qstab.cli import main
from qstab.fileio import (
    encode_matrix,
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

    @pytest.mark.parametrize("picture", ["flow", "state"])
    @pytest.mark.parametrize("point", ["x0_sigma_z.json", "center.json"])
    def test_prints_what_the_eager_assembly_prints(self, monkeypatch, capsys, picture, point):
        argv = ["drift", str(DEMO_FILES / "damping_model.json"), str(DEMO_FILES / "square_candidate.json"),
                "--point", str(DEMO_FILES / point), "--picture", picture]
        assert main(argv) == 0
        routed = capsys.readouterr().out
        monkeypatch.setattr(
            qstab.cli,
            f"{picture}_ito_coefficients",
            lambda model, cand, x: SimpleNamespace(**eager_ito_coefficients(model, cand, x, picture)),
        )
        assert main(argv) == 0
        assert capsys.readouterr().out == routed


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

    def test_state_mode(self, files, tmp_path):
        # state-local around I/2 with a traceless diagonal family
        center = tmp_path / "center_state.json"
        save_operator(EYE2 / 2, center)
        lyap = tmp_path / "lyap_state.json"
        save_lyapunov(LyapunovCandidate(terms=((1, 1, EYE2),), center=EYE2 / 2), lyap)
        family = tmp_path / "family_state.json"
        family.write_text(
            json.dumps({"schema_version": 1, "directions": [encode_matrix(SIGMA_Z / 2)], "scale_max": 1.0})
        )
        argv = [
            "certify", files["model"], str(lyap),
            "--center", str(center), "--mode", "state-local",
            "--epsilon", "0.5", "--samples", "6", "--seed", "1",
            "--family", str(family),
        ]
        assert main(argv) == 0
        argv[argv.index("state-local")] = "state-asymptotic"
        assert main(argv) == 1


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


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, files, capsys):
        assert main(["validate", files["model"], "--bogus"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


def test_import_leaves_scipy_unloaded():
    """The package and its CLI need numpy only; scipy loads inside the master oracle."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, qstab, qstab.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
