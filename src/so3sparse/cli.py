"""Command-line entry point.

Subcommands: eval, gram, bound-scan, phase-transition, recover,
nearfield-sim, rerun. Every artifact-producing run writes a manifest.json
capturing the resolved arguments, seed, package version and wall time;
`rerun <manifest>` reproduces the run (byte-identical CSVs). Exit codes:
0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, experiments, nearfield, sampling, sensing, solver, wigner

FMT = "%.17g"


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: config: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_c(v: complex) -> str:
    return f"{FMT % v.real},{FMT % v.imag}"


def _prepare_output(path: str, names: list[str], force: bool) -> None:
    os.makedirs(path, exist_ok=True)
    if not force:
        existing = [n for n in names if os.path.exists(os.path.join(path, n))]
        if existing:
            raise ConfigError(
                f"outputs already exist in {path}: {existing}; pass --force to overwrite"
            )


def _write_manifest(output_dir: str, subcommand: str, args: dict, seed, t0: float):
    manifest = {
        "subcommand": subcommand,
        "args": args,
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.time() - t0,
    }
    with open(os.path.join(output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_eval(ns) -> int:
    val = complex(wigner.wigner_D(ns.l, ns.k, ns.n, ns.theta, ns.phi, ns.chi))
    print(f"{val.real:.6f},{val.imag:.6f}")
    return 0


def _cmd_gram(ns) -> int:
    measure = None if ns.measure == "raw" else ns.measure
    G = sensing.gram_matrix(ns.B, measure)
    off = G - np.diag(np.diag(G))
    max_off = float(np.abs(off).max())
    max_diag = float(np.abs(np.diag(G) - 1.0).max())
    print(f"max_offdiag={max_off:.3e} max_diag_dev={max_diag:.3e}")
    return 0


def _cmd_bound_scan(ns) -> int:
    t0 = time.time()
    B_list = [int(b) for b in ns.B_list.split(",")]
    _prepare_output(ns.output_dir, ["bounds.csv"], ns.force)
    rows, slope = experiments.bound_scan(B_list, coarse=ns.grid)
    with open(os.path.join(ns.output_dir, "bounds.csv"), "w") as fh:
        fh.write("B,N,sup_preconditioned_D\n")
        for B, N, sup in rows:
            fh.write(f"{B},{N},{FMT % sup}\n")
    print(f"loglog_slope={slope:.6f}")
    _write_manifest(ns.output_dir, "bound-scan",
                    {"B_list": ns.B_list, "grid": ns.grid, "force": True,
                     "output_dir": ns.output_dir}, None, t0)
    return 0


def _cmd_phase_transition(ns) -> int:
    t0 = time.time()
    if ns.inline_config is not None:
        cfg_data = ns.inline_config
    else:
        try:
            with open(ns.config) as fh:
                cfg_data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {ns.config}: {exc}")
    try:
        template = experiments.TrialConfig(
            B=cfg_data.get("B", 5),
            measure=cfg_data.get("measure", sampling.PRODUCT),
            trials=cfg_data.get("trials", 50),
            base_seed=cfg_data.get("base_seed", 0),
            success_threshold=cfg_data.get("success_threshold", 1e-3),
            noise_epsilon=cfg_data.get("noise_epsilon", 0.0),
            nonzero_model=cfg_data.get("nonzero_model", experiments.REAL_GAUSSIAN),
        )
        m_values = [int(m) for m in cfg_data["m_values"]]
        s_values = [int(s) for s in cfg_data["s_values"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad phase-transition config: {exc}")
    _prepare_output(ns.output_dir, ["grid.csv", "contour.csv"], ns.force)
    grid = experiments.phase_transition(template, m_values, s_values,
                                        threads=ns.threads)
    with open(os.path.join(ns.output_dir, "grid.csv"), "w") as fh:
        fh.write("m,s,success_rate\n")
        for i, m in enumerate(grid.m_values):
            for j, s in enumerate(grid.s_values):
                fh.write(f"{m},{s},{FMT % grid.success_rate[i, j]}\n")
    contour = experiments.contour_half_success(grid)
    with open(os.path.join(ns.output_dir, "contour.csv"), "w") as fh:
        fh.write("s,m50\n")
        for s, m50 in zip(grid.s_values, contour):
            fh.write(f"{s},{FMT % m50}\n")
    _write_manifest(ns.output_dir, "phase-transition",
                    {"inline_config": cfg_data, "threads": ns.threads,
                     "force": True, "output_dir": ns.output_dir},
                    cfg_data.get("base_seed", 0), t0)
    return 0


def _cmd_recover(ns) -> int:
    t0 = time.time()
    try:
        problem = sensing.load_problem(ns.problem_dir)
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load problem from {ns.problem_dir}: {exc}")
    _prepare_output(ns.output_dir, ["x.csv", "solve_report.json"], ns.force)
    system = sensing.precondition(problem)
    radius = system.radius if ns.radius is None else ns.radius * system.scale * math.sqrt(problem.m)
    cfg = solver.SolverConfig(max_iterations=ns.max_iter,
                              primal_tolerance=ns.tol, dual_tolerance=ns.tol)
    result = solver.bpdn_ball(system.A, system.y, radius, cfg)
    if result.status == solver.INFEASIBLE:
        raise NumericalError("constraint set is empty (solver reported Infeasible)")
    with open(os.path.join(ns.output_dir, "x.csv"), "w") as fh:
        fh.write("re,im\n")
        for v in result.x:
            fh.write(_fmt_c(v) + "\n")
    report = {
        "iterations": result.iterations,
        "primal_residual": result.primal_residual,
        "dual_residual": result.dual_residual,
        "objective": result.objective,
        "penalty": result.penalty,
        "status": result.status,
        "wall_time_s": time.time() - t0,
    }
    with open(os.path.join(ns.output_dir, "solve_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(ns.output_dir, "recover",
                    {"problem_dir": os.path.abspath(ns.problem_dir),
                     "radius": ns.radius, "max_iter": ns.max_iter, "tol": ns.tol,
                     "force": True, "output_dir": ns.output_dir}, None, t0)
    return 0


def _cmd_nearfield_sim(ns) -> int:
    t0 = time.time()
    weights = None
    if ns.probe_weights:
        try:
            with open(ns.probe_weights) as fh:
                raw = json.load(fh)
            weights = {
                tuple(int(t) for t in key.split(",")): complex(v[0], v[1])
                for key, v in raw.items()
            }
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad probe-weights file: {exc}")
    outputs = ["T_true.csv", "T_l1.csv", "T_ls.csv", "pattern_cut.csv", "report.json"]
    _prepare_output(ns.output_dir, outputs, ns.force)
    rng = np.random.default_rng(ns.seed)
    schedule = nearfield.make_schedule(rng, ns.m, measure=ns.measure)
    ncoef = nearfield.coefficient_count(ns.B)
    if not 1 <= ns.s <= ncoef:
        raise ConfigError(f"sparsity {ns.s} outside [1, {ncoef}]")
    T_true = nearfield.TransmissionCoefficients(
        ns.B,
        experiments.gen_sparse(ncoef, ns.s, experiments.COMPLEX_GAUSSIAN, rng),
        probe_weights=weights or nearfield.default_probe_weights(),
    )
    y = nearfield.transmission_forward(T_true, schedule)
    if ns.epsilon > 0:
        y = sensing.add_noise(y, ns.epsilon, rng)
    T_l1, result = nearfield.recover_transmission(
        y, schedule, ns.B, epsilon=ns.epsilon, probe_weights=T_true.probe_weights
    )
    if result.status == solver.INFEASIBLE:
        raise NumericalError("near-field recovery infeasible")
    T_ls = nearfield.baseline_least_squares(
        y, schedule, ns.B, probe_weights=T_true.probe_weights
    )

    def write_T(name, T):
        with open(os.path.join(ns.output_dir, name), "w") as fh:
            fh.write("h,l,k,re,im\n")
            for h in (1, 2):
                for l in range(1, ns.B + 1):
                    for k in range(-l, l + 1):
                        v = T.values[nearfield.coefficient_index(h, l, k, ns.B)]
                        fh.write(f"{h},{l},{k},{_fmt_c(v)}\n")

    write_T("T_true.csv", T_true)
    write_T("T_l1.csv", T_l1)
    write_T("T_ls.csv", T_ls)

    theta_grid = np.linspace(0.0, math.pi, 181)
    cuts = {}
    for tag, T in (("true", T_true), ("l1", T_l1), ("ls", T_ls)):
        db, defined = nearfield.pattern_cut(T, 0.0, theta_grid)
        cuts[tag] = (db, defined)
    with open(os.path.join(ns.output_dir, "pattern_cut.csv"), "w") as fh:
        fh.write("theta_deg,dB_true,dB_l1,dB_ls\n")
        for i, t in enumerate(theta_grid):
            vals = ",".join(FMT % cuts[tag][0][i] for tag in ("true", "l1", "ls"))
            fh.write(f"{FMT % math.degrees(t)},{vals}\n")

    nrm = np.linalg.norm(T_true.values)
    report = {
        "B": ns.B, "s": ns.s, "m": ns.m, "epsilon": ns.epsilon,
        "measure": ns.measure,
        "probe_weights": {f"{h},{n}": [c.real, c.imag]
                          for (h, n), c in T_true.probe_weights.items()},
        "probe_weight_condition": T_true.weight_condition(),
        "rel_error_l1": float(np.linalg.norm(T_l1.values - T_true.values) / nrm),
        "rel_error_ls": float(np.linalg.norm(T_ls.values - T_true.values) / nrm),
        "solver_status": result.status,
        "solver_iterations": result.iterations,
        "pattern_defined": {tag: bool(cuts[tag][1]) for tag in cuts},
    }
    with open(os.path.join(ns.output_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(ns.output_dir, "nearfield-sim",
                    {"B": ns.B, "s": ns.s, "m": ns.m, "seed": ns.seed,
                     "epsilon": ns.epsilon, "measure": ns.measure,
                     "probe_weights": ns.probe_weights, "force": True,
                     "output_dir": ns.output_dir}, ns.seed, t0)
    return 0


def _cmd_rerun(ns) -> int:
    try:
        with open(ns.manifest) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {ns.manifest}: {exc}")
    sub = manifest["subcommand"]
    args = dict(manifest["args"])
    if ns.output_dir:
        args["output_dir"] = ns.output_dir
    if ns.threads is not None and "threads" in args:
        args["threads"] = ns.threads
    argv = [sub]
    for key, val in args.items():
        if val is None:
            continue
        flag = "--" + key.replace("_", "-")
        if key == "inline_config":
            continue
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        else:
            argv.extend([flag, str(val)])
    namespace = _build_parser().parse_args(argv)
    if "inline_config" in args:
        namespace.inline_config = args["inline_config"]
    return namespace.func(namespace)


def _build_parser() -> _Parser:
    parser = _Parser(prog="so3sparse",
                     description="Sparse recovery of Wigner-D expansions on SO(3)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="evaluate one Wigner-D basis function")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--chi", type=float, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gram", help="quadrature Gram-matrix orthonormality check")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--measure", choices=["raw", "product", "tan13"], default="raw")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("bound-scan", help="sup-norm scan of preconditioned basis")
    p.add_argument("--B-list", default="4,8,16,32")
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_bound_scan)

    p = sub.add_parser("phase-transition", help="success-rate grid over (m, s)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_phase_transition, inline_config=None)

    p = sub.add_parser("recover", help="l1 recovery of a serialized problem")
    p.add_argument("--problem-dir", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--radius", type=float, default=None,
                   help="per-entry noise bound; default: the stored epsilon")
    p.add_argument("--max-iter", type=int, default=50_000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("nearfield-sim", help="spherical near-field simulation")
    p.add_argument("--B", type=int, default=5)
    p.add_argument("--s", type=int, default=8)
    p.add_argument("--m", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--measure", choices=["product", "tan13"], default="product")
    p.add_argument("--probe-weights", default=None,
                   help='JSON file {"h,n": [re, im], ...}')
    p.add_argument("--output-dir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_nearfield_sim)

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_rerun)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
