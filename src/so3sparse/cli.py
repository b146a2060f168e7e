"""Command-line entry point.

Subcommands: eval, gram, bound-scan, phase-transition, recover,
nearfield-sim, rerun. Every artifact-producing run writes a manifest.json
holding its parsed arguments (config inlined, input paths absolute), seed,
package version and wall time; `rerun <manifest>` reproduces the run
(byte-identical CSVs). Exit codes: 0 success, 1 configuration error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, experiments, nearfield, sensing, solver, wigner

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


def _finite_part(v) -> float:
    """A probe weight's real or imaginary part: a finite number, not a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"weight part {v!r} is not a finite number")
    return v


def _write(ns, name: str, header: str, lines=()) -> None:
    """Write one output file, making the output directory on first write:
    a run rejected before its first write leaves no directory behind."""
    os.makedirs(ns.output_dir, exist_ok=True)
    with open(os.path.join(ns.output_dir, name), "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line + "\n" for line in lines)


def _execute(ns) -> int:
    """Run one parsed command. A command that declares `outputs` refuses to
    overwrite them without --force and records its run in manifest.json:
    the parsed arguments as its handler leaves them (config inlined, input
    paths absolute), the seed the handler returns, the version and the wall
    time. `rerun` parses a manifest's arguments back into the same path."""
    outputs = getattr(ns, "outputs", ())
    existing = [n for n in outputs if os.path.exists(os.path.join(ns.output_dir, n))]
    if existing and not ns.force:
        raise ConfigError(
            f"outputs already exist in {ns.output_dir}: {existing}; pass --force to overwrite"
        )
    ns.t0 = time.time()
    seed = ns.func(ns)
    if outputs:
        args = {k: v for k, v in vars(ns).items()
                if k not in ("func", "outputs", "subcommand", "t0")}
        _write(ns, "manifest.json", json.dumps({
            "subcommand": ns.subcommand,
            "args": {**args, "force": True},
            "seed": seed,
            "version": __version__,
            "wall_time_s": time.time() - ns.t0,
        }, indent=2, sort_keys=True))
    return 0


def _cmd_eval(ns) -> None:
    val = complex(wigner.wigner_D(ns.l, ns.k, ns.n, ns.theta, ns.phi, ns.chi))
    print(f"{val.real:.6f},{val.imag:.6f}")


def _cmd_gram(ns) -> None:
    measure = None if ns.measure == "raw" else ns.measure
    max_off, max_diag = sensing.gram_deviation(ns.B, measure)
    print(f"max_offdiag={max_off:.3e} max_diag_dev={max_diag:.3e}")


def _cmd_bound_scan(ns) -> None:
    if ns.grid < 3:
        raise ConfigError(f"--grid needs >= 3 points, got {ns.grid}")
    try:
        B_list = [int(b) for b in ns.B_list.split(",")]
    except ValueError:
        raise ConfigError(f"--B-list {ns.B_list!r} is not comma-separated integers")
    rows, slope = experiments.bound_scan(B_list)
    _write(ns, "bounds.csv", "B,N,sup_preconditioned_D",
           (f"{B},{N},{FMT % sup}" for B, N, sup in rows))
    print(f"loglog_slope={slope:.6f}")


# TrialConfig fields a phase-transition config may set, besides its m and s lists
_TRIAL_KEYS = ("B", "measure", "trials", "base_seed", "success_threshold",
               "noise_epsilon", "nonzero_model")
_INT_KEYS = ("B", "trials", "base_seed")   # a JSON true is a bool, not one of these


def _cmd_phase_transition(ns) -> int:
    if ns.inline_config is None:
        if ns.config is None:
            raise ConfigError("phase-transition needs --config")
        try:
            with open(ns.config) as fh:
                ns.inline_config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {ns.config}: {exc}")
    del ns.config  # the manifest records the inlined config, not its path
    cfg = ns.inline_config
    if not isinstance(cfg, dict):
        raise ConfigError(f"phase-transition config is a {type(cfg).__name__}, "
                          f"not a JSON object")
    unknown = sorted(set(cfg) - {*_TRIAL_KEYS, "m_values", "s_values"})
    if unknown:
        raise ConfigError(f"unknown phase-transition config keys: {unknown}")
    for key in _INT_KEYS:
        if key in cfg and type(cfg[key]) is not int:
            raise ConfigError(f"phase-transition config {key}: {cfg[key]!r} is not an integer")
    for key in ("m_values", "s_values"):
        if key not in cfg:
            raise ConfigError(f"phase-transition config has no {key}")
        if not (isinstance(cfg[key], list) and cfg[key]
                and all(type(v) is int for v in cfg[key])):
            raise ConfigError(f"phase-transition config {key}: {cfg[key]!r} "
                              "is not a non-empty list of integers")
    try:   # the template holds the first cell's m and s; every cell checks its own
        template = experiments.TrialConfig(**{k: cfg[k] for k in _TRIAL_KEYS if k in cfg},
                                           m=cfg["m_values"][0], s=cfg["s_values"][0])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad phase-transition config: {exc}")
    grid = experiments.phase_transition(template, cfg["m_values"], cfg["s_values"],
                                        threads=ns.threads)
    _write(ns, "grid.csv", "m,s,success_rate",
           (f"{m},{s},{FMT % grid.success_rate[i, j]}"
            for i, m in enumerate(grid.m_values) for j, s in enumerate(grid.s_values)))
    _write(ns, "contour.csv", "s,m50",
           (f"{s},{FMT % m50}"
            for s, m50 in zip(grid.s_values, experiments.contour_half_success(grid))))
    return template.base_seed


def _cmd_recover(ns) -> None:
    if ns.radius is not None:
        experiments._check_bound("--radius", ns.radius)
    experiments._check_bound("--tol", ns.tol, positive=True, below=1.0)
    ns.problem_dir = os.path.abspath(ns.problem_dir)
    try:
        problem = sensing.load_problem(ns.problem_dir)
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load problem from {ns.problem_dir}: {exc}")
    system = sensing.precondition(problem.samples, problem.A, problem.y,
                                  problem.epsilon)
    radius = (system.radius if ns.radius is None
              else ns.radius * system.scale * math.sqrt(len(problem.y)))
    cfg = solver.SolverConfig(max_iterations=ns.max_iter, tolerance=ns.tol)
    result = solver.bpdn_ball(system.A, system.y, radius, cfg)
    if result.status == solver.INFEASIBLE:
        raise NumericalError("constraint set is empty (solver reported Infeasible)")
    _write(ns, "x.csv", "re,im", (_fmt_c(v) for v in result.x))
    _write(ns, "solve_report.json", json.dumps({
        "iterations": result.iterations,
        "primal_residual": result.primal_residual,
        "dual_residual": result.dual_residual,
        "objective": result.objective,
        "penalty": result.penalty,
        "rebalances": result.rebalances,
        "status": result.status,
        "wall_time_s": time.time() - ns.t0,
    }, indent=2, sort_keys=True))


def _cmd_nearfield_sim(ns) -> int:
    experiments._check_bound("--epsilon", ns.epsilon)
    weights = None
    if ns.probe_weights:
        ns.probe_weights = os.path.abspath(ns.probe_weights)
        try:
            with open(ns.probe_weights) as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError(f"a {type(raw).__name__}, not a JSON object")
            weights = {
                tuple(int(t) for t in key.split(",")): complex(_finite_part(re), _finite_part(im))
                for key, (re, im) in raw.items()
            }
        except (OSError, ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad probe-weights file: {exc}")
    weights = weights or nearfield.default_probe_weights()
    ncoef = nearfield.coefficient_count(ns.B)
    rng = np.random.default_rng(ns.seed)
    samples = nearfield.make_schedule(rng, ns.m, measure=ns.measure)
    x_true = experiments.gen_sparse(ncoef, ns.s, experiments.COMPLEX_GAUSSIAN, rng)
    A = nearfield.build_dictionary(ns.B, weights, samples)
    y = A @ x_true
    if ns.epsilon > 0:
        y = sensing.add_noise(y, ns.epsilon, rng)
    x_l1, result = nearfield.recover_transmission(A, samples, y, epsilon=ns.epsilon)
    if result.status == solver.INFEASIBLE:
        raise NumericalError("near-field recovery infeasible")
    x_ls = result.least_squares()
    estimates = {"true": x_true, "l1": x_l1, "ls": x_ls}

    # coefficients are stored in (h, l, k) order, the order of the rows
    index = [f"{h},{l},{k}" for h in (1, 2) for l in range(1, ns.B + 1) for k in range(-l, l + 1)]
    for tag, x in estimates.items():
        _write(ns, f"T_{tag}.csv", "h,l,k,re,im",
               (f"{hlk},{_fmt_c(v)}" for hlk, v in zip(index, x)))

    theta_grid = np.linspace(0.0, math.pi, 181)
    cuts = dict(zip(estimates, nearfield.pattern_cut(
        ns.B, weights, estimates.values(), 0.0, theta_grid)))
    _write(ns, "pattern_cut.csv", "theta_deg,dB_true,dB_l1,dB_ls",
           (f"{FMT % math.degrees(t)},"
            + ",".join(FMT % cuts[tag][0][i] for tag in ("true", "l1", "ls"))
            for i, t in enumerate(theta_grid)))

    nrm = np.linalg.norm(x_true)
    system = sensing.precondition(samples, A, y, ns.epsilon)   # the l1 solve's ball
    misfit = np.linalg.norm(system.A @ x_l1 - system.y)
    _write(ns, "report.json", json.dumps({
        "B": ns.B, "s": ns.s, "m": ns.m, "epsilon": ns.epsilon,
        "measure": ns.measure,
        "probe_weights": {f"{h},{n}": [c.real, c.imag] for (h, n), c in weights.items()},
        "probe_weight_condition": nearfield.weight_condition(weights),
        "rel_error_l1": float(np.linalg.norm(x_l1 - x_true) / nrm),
        "rel_error_ls": float(np.linalg.norm(x_ls - x_true) / nrm),
        "solver_status": result.status,
        "solver_iterations": result.iterations,
        "solver_penalty": result.penalty,
        "solver_rebalances": result.rebalances,
        "l1_misfit_over_radius": float(misfit / system.radius) if system.radius else None,
        "pattern_defined": {tag: bool(cuts[tag][1]) for tag in cuts},
    }, indent=2, sort_keys=True))
    return ns.seed


def _cmd_rerun(ns) -> None:
    try:
        with open(ns.manifest) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {ns.manifest}: {exc}")
    try:
        sub, args = manifest["subcommand"], dict(manifest["args"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed manifest {ns.manifest}: {exc!r}")
    if ns.output_dir:
        args["output_dir"] = ns.output_dir
    if ns.threads is not None and "threads" in args:
        args["threads"] = ns.threads
    inline_config = args.pop("inline_config", None)
    argv = [sub]
    for key, val in args.items():
        flag = "--" + key.replace("_", "-")
        if val is True:
            argv.append(flag)
        elif val is not None and val is not False:
            argv.extend([flag, str(val)])
    namespace = _build_parser().parse_args(argv)
    if inline_config is not None:
        namespace.inline_config = inline_config
    _execute(namespace)


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
    p.add_argument("--B", type=int, required=True,
                   help="bandwidth (>= 1): degrees l < B, N = B(2B-1)(2B+1)/3 functions")
    p.add_argument("--measure", choices=["raw", "product", "tan13"], default="raw")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("bound-scan", help="sup-norm scan of preconditioned basis")
    p.add_argument("--B-list", default="4,8,16,32",
                   help="comma-separated distinct bandwidths, one bounds.csv row each")
    p.add_argument("--grid", type=int, default=4096,
                   help="accepted (>= 3) for older command lines and manifests; "
                        "unused, as the sups are exact in closed form")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_bound_scan, outputs=("bounds.csv",))

    p = sub.add_parser("phase-transition", help="success-rate grid over (m, s)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_phase_transition, outputs=("grid.csv", "contour.csv"),
                   inline_config=None)

    p = sub.add_parser("recover", help="l1 recovery of a serialized problem")
    p.add_argument("--problem-dir", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--radius", type=float, default=None,
                   help="per-entry noise bound; default: the stored epsilon")
    p.add_argument("--max-iter", type=int, default=50_000)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="solver tolerance (SolverConfig.tolerance)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_recover, outputs=("x.csv", "solve_report.json"))

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
    p.set_defaults(func=_cmd_nearfield_sim, outputs=(
        "T_true.csv", "T_l1.csv", "T_ls.csv", "pattern_cut.csv", "report.json"))

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
        return _execute(ns)
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, RuntimeError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
