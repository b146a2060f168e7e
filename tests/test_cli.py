import json
import math
import os

import numpy as np
import pytest

from so3sparse import cli, sampling, sensing
from so3sparse.experiments import COMPLEX_GAUSSIAN, gen_sparse
from so3sparse.wigner import basis_count


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_eval_constant_mode(capsys):
    rc = cli.run(["eval", "--l", "0", "--k", "0", "--n", "0",
                  "--theta", "0.3", "--phi", "0.1", "--chi", "2.0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.112540,0.000000"


def test_eval_phase_factor(capsys):
    # l=1, k=1, n=0 at theta=pi/2 picks up e^{-j phi}
    cli.run(["eval", "--l", "1", "--k", "1", "--n", "0",
             "--theta", str(math.pi / 2), "--phi", str(math.pi / 2), "--chi", "0"])
    out = capsys.readouterr().out.strip()
    re, im = (float(t) for t in out.split(","))
    mag = math.sqrt(3 / (8 * math.pi**2)) / math.sqrt(2)
    assert abs(re) < 1e-6
    assert abs(abs(im) - mag) < 1e-4


def test_gram_reports_orthonormal(capsys):
    rc = cli.run(["gram", "--B", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    max_off = float(out.split("max_offdiag=")[1].split()[0])
    assert max_off < 1e-12


def test_unknown_flag_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.run(["eval", "--l", "0", "--nope", "1"])
    assert exc.value.code == 1


def test_missing_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.run([])
    assert exc.value.code == 1


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    rc = cli.run(["phase-transition", "--config", str(bad),
                  "--output-dir", str(tmp_path / "out")])
    assert rc == 1


def test_existing_output_requires_force(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "bounds.csv").write_text("stale\n")
    rc = cli.run(["bound-scan", "--B-list", "1", "--output-dir", str(out)])
    assert rc == 1
    rc = cli.run(["bound-scan", "--B-list", "1", "--output-dir", str(out), "--force"])
    assert rc == 0
    assert "stale" not in (out / "bounds.csv").read_text()


def test_recover_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(11)
    B = 2
    N = basis_count(B)
    x = gen_sparse(N, 3, COMPLEX_GAUSSIAN, rng)
    points = sampling.sample_product(rng, 60)
    y = sensing.forward(sensing.CoefficientVector(B, x), points)
    problem = sensing.make_problem(points, B, y)
    pdir = tmp_path / "problem"
    sensing.save_problem(str(pdir), problem)
    out = tmp_path / "solve"
    rc = cli.run(["recover", "--problem-dir", str(pdir),
                  "--output-dir", str(out), "--tol", "1e-9"])
    assert rc == 0
    got = np.loadtxt(out / "x.csv", delimiter=",", skiprows=1)
    xr = got[:, 0] + 1j * got[:, 1]
    assert np.linalg.norm(xr - x) / np.linalg.norm(x) < 1e-5
    report = json.loads((out / "solve_report.json").read_text())
    assert report["status"] == "Converged"
    assert report["penalty"] > 0
    assert (out / "manifest.json").exists()


def test_nearfield_sim_outputs_and_rerun(tmp_path):
    out = tmp_path / "nf"
    rc = cli.run(["nearfield-sim", "--B", "2", "--s", "3", "--m", "40",
                  "--seed", "7", "--output-dir", str(out)])
    assert rc == 0
    for name in ("T_true.csv", "T_l1.csv", "T_ls.csv",
                 "pattern_cut.csv", "report.json", "manifest.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["rel_error_l1"] < 1e-4

    out2 = tmp_path / "nf2"
    rc = cli.run(["rerun", str(out / "manifest.json"), "--output-dir", str(out2)])
    assert rc == 0
    for name in ("T_true.csv", "T_l1.csv", "T_ls.csv", "pattern_cut.csv"):
        assert _read(out / name) == _read(out2 / name)


def test_phase_transition_threads_byte_identical(tmp_path):
    cfg = {"B": 2, "m_values": [4, 10], "s_values": [1], "trials": 4,
           "base_seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert cli.run(["phase-transition", "--config", str(cfg_path),
                    "--output-dir", str(out1), "--threads", "1"]) == 0
    assert cli.run(["phase-transition", "--config", str(cfg_path),
                    "--output-dir", str(out2), "--threads", "2"]) == 0
    assert _read(out1 / "grid.csv") == _read(out2 / "grid.csv")
    assert _read(out1 / "contour.csv") == _read(out2 / "contour.csv")

    # rerun from the manifest reproduces the grid byte for byte
    out3 = tmp_path / "t3"
    assert cli.run(["rerun", str(out1 / "manifest.json"),
                    "--output-dir", str(out3)]) == 0
    assert _read(out1 / "grid.csv") == _read(out3 / "grid.csv")


def test_manifest_records_invocation(tmp_path):
    out = tmp_path / "scan"
    cli.run(["bound-scan", "--B-list", "1,2", "--output-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "bound-scan"
    assert manifest["args"]["B_list"] == "1,2"
    assert "version" in manifest and "wall_time_s" in manifest


def test_entry_point_installed():
    import subprocess
    proc = subprocess.run(
        ["so3sparse", "eval", "--l", "0", "--k", "0", "--n", "0",
         "--theta", "0", "--phi", "0", "--chi", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.112540,0.000000"
