import json
import math
import os
import warnings

import numpy as np
import pytest

from so3sparse import cli, nearfield, sampling, sensing, solver
from so3sparse.experiments import COMPLEX_GAUSSIAN, gen_sparse
from so3sparse.wigner import basis_count


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_eval_constant_mode(capsys):
    # frozen strings; at the theta endpoints d_20^{7,-11} vanishes, and the
    # sign of each printed zero is frozen too
    for (l, k, n, theta, phi, chi), expected in (
        ((0, 0, 0, 0.3, 0.1, 2.0), "0.112540,0.000000"),
        ((20, 7, -11, 0.0, 0.0, 0.1), "0.000000,0.000000"),
        ((20, 7, -11, math.pi, 0.0, 0.1), "-0.000000,-0.000000"),
    ):
        rc = cli.run(["eval", "--l", str(l), "--k", str(k), "--n", str(n),
                      "--theta", str(theta), "--phi", str(phi), "--chi", str(chi)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == expected


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
    ["bound-scan", "--B-list", "4,,8"],
    ["eval", "--l", "1", "--k", "0", "--n", "0", "--theta", "1", "--phi", "nan", "--chi", "0"],
    ["eval", "--l", "1", "--k", "0", "--n", "0", "--theta", "1", "--phi", "0", "--chi", "inf"],
])
def test_invalid_kernel_inputs_exit_code(argv, tmp_path, capsys):
    if argv[0] == "bound-scan":
        argv = argv + ["--output-dir", str(tmp_path / "scan")]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert "error: config:" in err
    if "4,,8" in argv:   # a list int() cannot read: the error names the flag and the value
        assert "--B-list '4,,8'" in err
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


@pytest.mark.parametrize("argv", [
    ["recover", "--problem-dir", "{problem}", "--radius", "nan", "--max-iter", "2000"],
    ["recover", "--problem-dir", "{problem}", "--tol", "nan"],
    ["nearfield-sim", "--B", "2", "--s", "3", "--m", "40", "--epsilon", "nan"],
    ["nearfield-sim", "--B", "2", "--s", "3", "--m", "40", "--epsilon", "inf"],
    ["nearfield-sim", "--B", "2", "--s", "3", "--m", "40", "--epsilon", "-1"],
    ["recover", "--problem-dir", "{problem}", "--radius", "inf"],
    ["recover", "--problem-dir", "{problem}", "--radius", "-1"],
    # from tol = 1 on, the primal slack radius + tol (1 + ||y||) admits x = 0
    ["recover", "--problem-dir", "{problem}", "--tol", "inf"],
    ["recover", "--problem-dir", "{problem}", "--tol", "1e300"],
    ["recover", "--problem-dir", "{problem}", "--tol", "1"],
    ["recover", "--problem-dir", "{problem}", "--tol", "0"],
])
def test_nan_radius_or_tolerance_exit_code(argv, tmp_path, capsys):
    # NaN fails every comparison, so the checks must ask for membership
    _save_problem(tmp_path / "problem")
    out = tmp_path / "out"
    argv = [a.format(problem=tmp_path / "problem") for a in argv] + ["--output-dir", str(out)]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error: config:") == 1
    for flag, bound in (("--epsilon", ">= 0"), ("--radius", ">= 0"), ("--tol", "> 0 and < 1")):
        if flag in argv:
            assert f"{flag} must be a finite number {bound}" in err
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


def _save_problem(path, B=2, m=60):
    """A problem from m product samples of a 3-sparse degree-B vector, which it returns."""
    rng = np.random.default_rng(11)
    x = gen_sparse(basis_count(B), 3, COMPLEX_GAUSSIAN, rng)
    points = sampling.sample_points(sampling.PRODUCT, rng, m)
    A = sensing.build_matrix(points, B)
    sensing.save_problem(str(path), sensing.SensingProblem(A, A @ x, 0.0, points, B))
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


def _first_field_on_line_3(text, value):
    rows = text.split("\n")
    rows[2] = ",".join([value] + rows[2].split(",")[1:])
    return "\n".join(rows)


@pytest.mark.parametrize("name, edit", [
    ("points.csv", lambda text: text.split("\n", 1)[0] + "\n"),          # header only
    ("points.csv", lambda text: text.replace(",product\n", "\n", 1)),     # line 2: three fields
    ("y.csv", lambda text: "re,im\nabc,0\n" + text.split("\n", 2)[2]),   # line 2: not a number
    pytest.param("y.csv", lambda text: "\n".join("abc,0" if i == 3 else row
                                                  for i, row in enumerate(text.split("\n"))),
                 id="y.csv-line-4-not-a-number"),
    pytest.param("y.csv", lambda text: "re,im\n", id="y.csv-header-only"),
    pytest.param("points.csv", lambda text: _first_field_on_line_3(text, "nan"), id="theta-nan"),
    pytest.param("points.csv", lambda text: _first_field_on_line_3(text, "4.5"), id="theta-4.5"),
    pytest.param("y.csv", lambda text: _first_field_on_line_3(text, "inf"), id="y-inf"),
])
def test_recover_rejects_malformed_problem_files(name, edit, tmp_path, capsys):
    pdir, out = tmp_path / "problem", tmp_path / "solve"
    _save_problem(pdir)
    text = (pdir / name).read_text()
    (pdir / name).write_text(edit(text))
    # the line the edit changed, counted from 1 with the header as line 1
    line = next((i for i, pair in enumerate(zip(text.splitlines(), edit(text).splitlines()), 1)
                if pair[0] != pair[1]), None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["recover", "--problem-dir", str(pdir), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: config: cannot load problem" in err and "Traceback" not in err
    assert not out.exists()
    assert name in err.split(str(pdir))[-1] and "usecols" not in err
    if (pdir / name).read_text().count("\n") == 1:    # header only
        assert f"{name} holds no rows" in err
    else:
        assert f"{name} line {line}: " in err
    assert err.count("error: config:") == 1
    if name == "points.csv" and line == 3:   # a theta edit
        assert "outside [0, pi]" in err


@pytest.mark.parametrize("key, value", [
    ("B", None), ("B", 2.5), ("B", True), ("B", 0),
    ("m", None), ("m", 60.0), ("m", True), ("m", 0),
    ("epsilon", None), ("epsilon", float("nan")), ("epsilon", -1e-3),
])
def test_recover_rejects_bad_meta_fields(key, value, tmp_path, capsys):
    # None drops the field; each case must end in a config error naming the
    # file and the field, not a traceback or a solve to MaxIter
    pdir, out = tmp_path / "problem", tmp_path / "solve"
    _save_problem(pdir)
    meta = json.loads((pdir / "meta.json").read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    (pdir / "meta.json").write_text(json.dumps(meta))
    assert cli.run(["recover", "--problem-dir", str(pdir), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error: config:") == 1
    assert f"meta.json has no field {key}" in err or f"meta.json field {key}: " in err
    assert not out.exists()


def test_recover_rejects_meta_json_that_is_not_an_object(tmp_path, capsys):
    pdir, out = tmp_path / "problem", tmp_path / "solve"
    _save_problem(pdir)
    (pdir / "meta.json").write_text("null")
    assert cli.run(["recover", "--problem-dir", str(pdir), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "meta.json is not a JSON object" in err and "Traceback" not in err
    assert not out.exists()


def test_recover_polished_solve_is_exactly_sparse(tmp_path):
    # radius 0 with 40 samples against basis_count(4) = 84 columns: the solve
    # ends on a certified polish, which zeroes every entry off its support
    pdir = tmp_path / "problem"
    x = _save_problem(pdir, B=4, m=40)
    out = tmp_path / "solve"
    assert cli.run(["recover", "--problem-dir", str(pdir), "--output-dir", str(out)]) == 0
    rows = (out / "x.csv").read_text().splitlines()[1:]
    assert len(rows) == x.size
    assert [i for i, row in enumerate(rows) if row != "0,0"] == list(np.flatnonzero(x))
    got = np.loadtxt(out / "x.csv", delimiter=",", skiprows=1)
    assert np.linalg.norm(got[:, 0] + 1j * got[:, 1] - x) <= 1e-9 * np.linalg.norm(x)
    report = json.loads((out / "solve_report.json").read_text())
    assert report["status"] == "Converged" and report["dual_residual"] == 0.0
    assert report["iterations"] > 0 and report["iterations"] % 10 == 0


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


def test_nearfield_sim_reports_solver_state(tmp_path):
    # a noisy run reports the final penalty, the rebalance count and the
    # misfit of the returned l1 solution relative to the data-ball radius
    out = tmp_path / "nf"
    assert cli.run(["nearfield-sim", "--B", "3", "--s", "3", "--m", "40", "--seed", "7",
                    "--epsilon", "1e-3", "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver_penalty"] > 0
    assert isinstance(report["solver_rebalances"], int) and report["solver_rebalances"] >= 0
    assert report["l1_misfit_over_radius"] <= 1 + 1e-12
    out2 = tmp_path / "nf2"
    assert cli.run(["rerun", str(out / "manifest.json"), "--output-dir", str(out2)]) == 0
    assert _read(out / "report.json") == _read(out2 / "report.json")

    # at epsilon 0 the ball is a point and the ratio is undefined
    assert cli.run(["nearfield-sim", "--B", "2", "--s", "3", "--m", "40",
                    "--output-dir", str(tmp_path / "nf0")]) == 0
    report = json.loads((tmp_path / "nf0" / "report.json").read_text())
    assert report["l1_misfit_over_radius"] is None


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


@pytest.mark.parametrize("weights", [
    [1, 2], {"1,1": 5}, {"1,1": [1]},
    # a JSON NaN, a float literal that reads as inf, a bool, and an integer
    # too large for a float
    pytest.param('{"1,-1": [NaN, 0]}', id="nan"),
    pytest.param('{"1,-1": [1e400, 0]}', id="1e400"),
    pytest.param('{"1,-1": [true, 0]}', id="true"),
    pytest.param('{"1,-1": [1' + "0" * 400 + ', 0]}', id="int-overflow"),
])
def test_nearfield_sim_rejects_malformed_probe_weights(weights, tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(weights if isinstance(weights, str) else json.dumps(weights))
    out = tmp_path / "nf"
    assert cli.run(["nearfield-sim", "--B", "2", "--s", "3", "--m", "40",
                    "--probe-weights", str(path), "--output-dir", str(out)]) == 1
    assert "error: config: bad probe-weights file: " in capsys.readouterr().err
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
    ({"B": 2, "m_values": [4], "s_values": [1], "trials": 1.5}, "trials: 1.5"),
    ({"B": 2.5, "m_values": [4], "s_values": [1]}, "B: 2.5"),
    ({"B": True, "m_values": [4], "s_values": [1]}, "B: True"),
    ({"B": 2, "m_values": [4], "s_values": [1], "base_seed": 0.5}, "base_seed: 0.5"),
    ({"B": 2, "m_values": [20.7], "s_values": [1]}, "m_values: [20.7]"),
    ({"B": 2, "m_values": [4], "s_values": [True]}, "s_values: [True]"),
    ({"B": 2, "m_values": [4]}, "no s_values"),
    ({"B": 2, "m_values": [4], "s_values": [1], "noise_epsilon": True}, "noise_epsilon"),
    ({"B": 2, "m_values": [4], "s_values": [1], "noise_epsilon": math.inf}, "noise_epsilon"),
    ({"B": 2, "m_values": [4], "s_values": [1], "noise_epsilon": "x"}, "noise_epsilon"),
    ({"B": 2, "m_values": [4], "s_values": [1], "noise_epsilon": -1}, "noise_epsilon"),
    ({"B": 2, "m_values": [4], "s_values": [1], "success_threshold": "x"}, "success_threshold"),
])
def test_phase_transition_rejects_config_that_is_not_its_keys(cfg, named, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "pt"
    assert cli.run(["phase-transition", "--config", str(path), "--output-dir", str(out),
                    "--threads", "2"]) == 1
    err = capsys.readouterr().err
    assert "error: config:" in err and named in err
    assert not out.exists()


def test_phase_transition_at_bandwidth_one(tmp_path):
    # B = 1 has one basis function, so only s = 1 is a valid sparsity
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"B": 1, "m_values": [1, 2], "s_values": [1], "trials": 2}))
    out = tmp_path / "pt"
    assert cli.run(["phase-transition", "--config", str(path), "--output-dir", str(out)]) == 0
    assert (out / "grid.csv").read_text().splitlines()[0] == "m,s,success_rate"
    assert len((out / "grid.csv").read_text().splitlines()) == 3


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


def test_no_module_imports_scipy():
    # scipy costs every fresh process most of its start-up; the package
    # runs on numpy alone, and scipy serves only the tests' references
    import ast

    package = os.path.dirname(os.path.abspath(cli.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):   # every depth, function bodies included
            if isinstance(node, ast.Import):
                roots = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [node.module or ""]
            else:
                continue
            assert not any(r.split(".")[0] == "scipy" for r in roots), (name, node.lineno)


def test_cli_runs_load_no_scipy(tmp_path):
    # a fresh process that runs each tan13 command in-process loads no scipy module
    import subprocess
    import sys

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": 2, "measure": "tan13", "m_values": [4],
                               "s_values": [1], "trials": 2}))
    argvs = [
        ["bound-scan", "--B-list", "1,2", "--output-dir", str(tmp_path / "scan")],
        ["gram", "--B", "2", "--measure", "tan13"],
        ["nearfield-sim", "--B", "2", "--s", "3", "--m", "40", "--measure", "tan13",
         "--output-dir", str(tmp_path / "nf")],
        ["phase-transition", "--config", str(cfg), "--threads", "1",
         "--output-dir", str(tmp_path / "pt")],
    ]
    code = ("import json, sys\n"
            "from so3sparse import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.run(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_entry_point_installed():
    import shutil
    import subprocess
    import sys

    args = ["eval", "--l", "0", "--k", "0", "--n", "0",
            "--theta", "0", "--phi", "0", "--chi", "0"]
    # an installed script is run as is; an uninstalled checkout has none, so
    # the declared [project.scripts] target is started the way pip's wrapper
    # starts it, and a broken declaration still fails
    script = shutil.which("so3sparse")
    if script is not None:
        proc = subprocess.run([script, *args], capture_output=True, text=True)
    else:
        tomllib = pytest.importorskip("tomllib")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        with open(os.path.join(os.path.dirname(src), "pyproject.toml"), "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["so3sparse"]
        module, func = target.split(":")
        wrapper = (f"import sys; sys.argv[0] = 'so3sparse'; "
                   f"from {module} import {func}; sys.exit({func}())")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", wrapper, *args],
                              capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.112540,0.000000"


def test_every_public_name_resolves():
    # a stale __all__ entry breaks `from so3sparse.<module> import *`
    import importlib
    import pkgutil

    import so3sparse

    for info in pkgutil.iter_modules(so3sparse.__path__):
        module = importlib.import_module(f"so3sparse.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"so3sparse.{info.name}.__all__ lists {name}"
