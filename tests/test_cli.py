import json
import math
import os

import numpy as np
import pytest

from so3sparse import cli, nearfield, sampling, sensing, solver
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


@pytest.mark.parametrize("measure", ["raw", "product", "tan13"])
def test_gram_b8_reports_orthonormal(measure, capsys):
    # the benchmark's Gram op
    assert cli.run(["gram", "--B", "8", "--measure", measure]) == 0
    seen = {k: float(v) for k, v in (item.split("=") for item in capsys.readouterr().out.split())}
    assert set(seen) == {"max_offdiag", "max_diag_dev"}
    assert all(v < 1e-8 for v in seen.values())


@pytest.mark.parametrize("argv", [
    ["gram", "--B", "0"],
    ["bound-scan", "--B-list", "0,4"],
    ["bound-scan", "--B-list", "4,4"],
    ["bound-scan", "--B-list", "2,4", "--grid", "1"],
])
def test_invalid_kernel_inputs_exit_code(argv, tmp_path, capsys):
    if argv[0] == "bound-scan":
        argv = argv + ["--output-dir", str(tmp_path / "scan")]
    assert cli.run(argv) == 1
    assert "error: config:" in capsys.readouterr().err
    assert not (tmp_path / "scan" / "bounds.csv").exists()
    assert not (tmp_path / "scan").exists()


@pytest.mark.parametrize("s", ["0", "999"])
def test_nearfield_sim_rejects_sparsity_outside_range(s, tmp_path, capsys):
    # B=2 has 2B(B+2) = 16 coefficients
    out = tmp_path / "nf"
    assert cli.run(["nearfield-sim", "--B", "2", "--s", s, "--m", "40",
                    "--output-dir", str(out)]) == 1
    assert "error: config: sparsity" in capsys.readouterr().err
    assert not out.exists()


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


def _save_problem(path):
    """A B=2 problem from 60 product samples of a 3-sparse vector, which it returns."""
    rng = np.random.default_rng(11)
    x = gen_sparse(basis_count(2), 3, COMPLEX_GAUSSIAN, rng)
    points = sampling.sample_points(sampling.PRODUCT, rng, 60)
    y = sensing.forward(sensing.CoefficientVector(2, x), points)
    sensing.save_problem(str(path), sensing.make_problem(points, 2, y))
    return x


def test_recover_round_trip(tmp_path, capsys):
    pdir = tmp_path / "problem"
    x = _save_problem(pdir)
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
    # each rebalance doubles or halves rho, starting from rho_0
    assert isinstance(report["rebalances"], int)
    doublings = math.log2(report["penalty"] / solver._PENALTY)
    assert doublings == round(doublings)
    assert abs(doublings) <= report["rebalances"]
    assert report["rebalances"] % 2 == abs(round(doublings)) % 2
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


@pytest.mark.parametrize("key", ["3", "3,1", "1,0"])
def test_nearfield_sim_rejects_bad_probe_weight_key(key, tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"1,-1": [1, 0], "1,1": [1, 0], "2,-1": [0, -1],
                                   "2,1": [0, 1], key: [0.5, 0]}))
    out = tmp_path / "nf"
    assert cli.run(["nearfield-sim", "--B", "2", "--s", "3", "--m", "40",
                    "--probe-weights", str(weights), "--output-dir", str(out)]) == 1
    assert "error: config: probe weight key" in capsys.readouterr().err
    assert not out.exists()


def test_nearfield_sim_ill_conditioned_consistent_system_is_solved(tmp_path):
    # the weight 1e6 on (1, 2) gives a preconditioned 60 x 30 system with
    # sigma_min / sigma_max = 7.9e-8; y = A x is consistent at epsilon 0
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"1,-1": [1, 0], "1,1": [1, 0], "2,-1": [0, -1],
                                   "2,1": [0, 1], "1,2": [1e6, 0]}))
    out = tmp_path / "nf"
    assert cli.run(["nearfield-sim", "--B", "3", "--s", "4", "--m", "60", "--seed", "0",
                    "--probe-weights", str(weights), "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver_status"] == "Converged"
    assert report["rel_error_l1"] < 1e-6


def test_nearfield_sim_builds_two_dictionaries(tmp_path, monkeypatch):
    # one m-row dictionary for y, l1 and LS; one cut dictionary for all three cuts
    calls = []
    build = nearfield.build_dictionary

    def counted(*args, **kwargs):
        A = build(*args, **kwargs)
        calls.append(A.shape[0])
        return A

    monkeypatch.setattr(nearfield, "build_dictionary", counted)
    assert cli.run(["nearfield-sim", "--B", "2", "--s", "3", "--m", "40",
                    "--output-dir", str(tmp_path / "nf")]) == 0
    assert calls == [40, 181]


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


@pytest.mark.parametrize("argv", [
    ["bound-scan", "--B-list", "1,2", "--grid", "64"],
    ["phase-transition", "--config", "{cfg}"],
    ["recover", "--problem-dir", "{problem}"],
    ["nearfield-sim", "--B", "2", "--s", "3", "--m", "40"],
])
def test_artifact_command_writes_its_declared_outputs(argv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": 2, "m_values": [4], "s_values": [1], "trials": 2}))
    argv = [a.format(cfg=cfg, problem=tmp_path / "problem") for a in argv]
    if argv[0] == "recover":
        _save_problem(tmp_path / "problem")
    out = tmp_path / "out"
    argv += ["--output-dir", str(out)]
    assert cli.run(argv) == 0
    declared = cli._build_parser().parse_args(argv).outputs
    assert sorted(os.listdir(out)) == sorted([*declared, "manifest.json"])


def test_phase_transition_without_config_exit_code(tmp_path, capsys):
    out = tmp_path / "pt"
    assert cli.run(["phase-transition", "--output-dir", str(out)]) == 1
    assert "error: config:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg, named", [
    ([1, 2], "not a JSON object"),
    ({"B": 2, "m_values": [4], "s_values": [1], "trails": 2}, "['trails']"),
])
def test_phase_transition_rejects_config_that_is_not_its_keys(cfg, named, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "pt"
    assert cli.run(["phase-transition", "--config", str(path), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: config:" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("manifest", [{}, [1, 2], {"subcommand": "bound-scan"}])
def test_rerun_malformed_manifest_exit_code(manifest, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert cli.run(["rerun", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert "error: config: malformed manifest" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nearfield_rerun_from_another_directory(tmp_path, monkeypatch):
    # the manifest stores the probe-weights path absolute, as typed it is relative
    (tmp_path / "w.json").write_text(json.dumps(
        {"1,-1": [1, 0], "1,1": [1, 0], "2,-1": [0, -1], "2,1": [0, 1], "1,2": [0.5, 0.1]}))
    monkeypatch.chdir(tmp_path)
    assert cli.run(["nearfield-sim", "--B", "2", "--s", "3", "--m", "40",
                    "--probe-weights", "w.json", "--output-dir", "nf"]) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert cli.run(["rerun", str(tmp_path / "nf" / "manifest.json"),
                    "--output-dir", "nf2"]) == 0
    for name in ("T_true.csv", "T_l1.csv", "T_ls.csv", "pattern_cut.csv", "report.json"):
        assert _read(tmp_path / "nf" / name) == _read(elsewhere / "nf2" / name)


def test_manifest_records_invocation(tmp_path):
    out = tmp_path / "scan"
    cli.run(["bound-scan", "--B-list", "1,2", "--output-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "bound-scan"
    assert manifest["args"]["B_list"] == "1,2"
    assert "version" in manifest and "wall_time_s" in manifest


def test_module_entry_point_without_install():
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "so3sparse", "eval", "--l", "0", "--k", "0", "--n", "0",
         "--theta", "0", "--phi", "0", "--chi", "0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.112540,0.000000"


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg costs every fresh process about 0.05 CPU s and 6 MB
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, so3sparse.cli; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_entry_point_installed():
    import subprocess
    proc = subprocess.run(
        ["so3sparse", "eval", "--l", "0", "--k", "0", "--n", "0",
         "--theta", "0", "--phi", "0", "--chi", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.112540,0.000000"
