#!/usr/bin/env python3
"""so3sparse benchmark: three CLI workloads driven in-process through
`so3sparse.cli.run`. See perfbench/README.md for what each number means.

    python3 perfbench/run.py --workload pt-grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

--trace 0 runs whole rounds of the workload for about --seconds seconds of
wall time and prints the end-to-end metrics, which are CPU times (user +
system, of this process and of every child it has waited for); --trace 1
runs one fixed round untraced and again traced, and prints the per-layer
metrics. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

import os

# BLAS/OpenMP threads are pinned before numpy is first imported, here and,
# through the environment, in every process this one starts (set-up probes
# and the program's pool workers).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout, suppress  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]}
WORKLOAD_NAMES = ("pt-grid", "wigner-scan", "nearfield")
SETUP_REPEATS = 3

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from so3sparse import cli
for argv in json.loads(sys.argv[2]):
    rc = cli.run(argv)
    if rc:
        sys.exit(rc)
"""


@dataclass
class OpResult:
    op: object
    seconds: float   # wall
    cpu: float       # CPU, see cpu_seconds
    problems: list[str]
    outputs: dict[str, bytes] = field(default_factory=dict)


def write_inputs(op) -> None:
    for path, text in op.inputs.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def run_op(op, refs: dict, tracer=None, keep_outputs: bool = False) -> OpResult:
    """Run one CLI command in-process and check what it produced."""
    from so3sparse import cli

    write_inputs(op)
    buf = io.StringIO()
    c0, t0 = cpu_seconds(), perf_counter()
    try:
        with redirect_stdout(buf):
            rc = tracer.call("cli.run", cli.run, op.argv) if tracer else cli.run(op.argv)
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code
    except Exception:  # a crash is a failed op; the workload goes on
        traceback.print_exc()
        rc = "an exception"
    seconds, cpu = perf_counter() - t0, cpu_seconds() - c0
    if rc != 0:
        problems = [f"exited with {rc}"]
    else:
        try:
            problems = op.check(op.observe(op, buf.getvalue()), refs.get(op.key))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    outputs = op.output_bytes(buf.getvalue()) if keep_outputs else {}
    for p in problems:
        print(f"FAIL {op.argv[0]}: {p}", file=sys.stderr)
    return OpResult(op, seconds, cpu, problems, outputs)


def run_round(ops, refs, tracer=None, keep_outputs=False) -> list[OpResult]:
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(op, refs, tracer, keep_outputs))
    return results


def cpu_seconds() -> float:
    """User + system CPU time of this process and of every child (pool
    workers, set-up probes) it has waited for. Unlike wall time it leaves
    out the time a shared host's hypervisor runs other guests."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def time_setup(wl_tiny, work: Path) -> tuple[float, float]:
    """Fresh interpreter: import so3sparse and run the workload's tiny round,
    which pays the first lazy set-up (tan13 CDF table, pool start).
    Returns (CPU seconds, wall seconds) of the probe."""
    ops = wl_tiny.round(work, 0, 0)
    for op in ops:
        write_inputs(op)
    argvs = json.dumps([op.argv for op in ops])
    c0, t0 = cpu_seconds(), perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), argvs],
                          stdout=subprocess.DEVNULL, timeout=120)
    wall, cpu = perf_counter() - t0, cpu_seconds() - c0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return cpu, wall


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def timed_run(wl, wl_tiny, seed, seconds, work, refs):
    """Whole rounds, each with inputs of its own, for about `seconds` of wall
    time. The times are those of the round's commands, averaged over every
    round. The one rerun of a nearfield run is run and checked but left out
    of them, so that every round does alike work."""
    setup = [time_setup(wl_tiny, work / f"setup{i}") for i in range(SETUP_REPEATS)]
    warm = run_round(wl_tiny.round(work / "warmup", seed, 0), refs)
    results, timed, round_walls, round_cpus = [], [], [], []
    t_start = perf_counter()
    r = 0
    while True:
        res = run_round(wl.round(work / f"round{r}", seed, r), refs)
        shutil.rmtree(work / f"round{r}", ignore_errors=True)
        results += res
        kept = [x for x in res if x.op.rerun_of is None]
        timed += kept
        round_cpus.append(sum(x.cpu for x in kept))
        round_walls.append(sum(x.seconds for x in kept))
        r += 1
        # stop where the run ends nearest to `seconds`
        if perf_counter() - t_start + statistics.median(round_walls) / 2 > seconds:
            break
    ops = sum(x.op.count for x in timed)
    metrics = {
        "setup_s": statistics.median(cpu for cpu, _ in setup),
        "cpu_s": sum(round_cpus) / r,
        "ops_per_cpu_s": ops / sum(round_cpus),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [f"rounds={r} commands={len(results)} ops={ops}",
             "round cpu_s=" + " ".join(f"{c:.3f}" for c in round_cpus),
             "round wall_s=" + " ".join(f"{w:.3f}" for w in round_walls)
             + f" (cpu/wall {sum(round_cpus) / sum(round_walls):.2f})",
             "setup cpu_s/wall_s=" + " ".join(f"{c:.3f}/{w:.3f}" for c, w in setup)]
    return warm + results, metrics, notes


def traced_run(wl, wl_tiny, seed, work, refs):
    """One fixed round untraced, traced, then untraced again; the traced
    outputs must equal the untraced ones. The first full-size pass pays
    first-touch costs, so the last one is the baseline of the overhead."""
    from spans import Tracer, instrumented, layer_metrics
    from workloads import PtGrid, WignerScan

    parallel = isinstance(wl, PtGrid)
    serial = {"threads": 1} if parallel else {}
    tracer = Tracer()
    with instrumented(tracer):
        warm = run_round(wl_tiny.round(work / "warmup", seed, 0, **serial), refs, tracer)
    tan13_table_s = sum(s.seconds for s in tracer.spans if s.name == "sampling.build_cdf_table")

    plan = [("warm", serial), ("traced", serial), ("untraced", serial)]
    if parallel:
        plan.insert(0, ("untraced-t2", {"threads": 2}))
    walls, passes = {}, {}
    for label, kw in plan:
        ops = wl.round(work / label, seed, 0, **kw)
        t0 = perf_counter()
        if label == "traced":
            tracer = Tracer()
            with instrumented(tracer):
                passes[label] = run_round(ops, refs, tracer, keep_outputs=True)
        else:
            passes[label] = run_round(ops, refs, keep_outputs=True)
        walls[label] = perf_counter() - t0
    traced = passes["traced"]
    for label, results in passes.items():
        if label == "traced":
            continue
        for a, b in zip(results, traced):
            if a.outputs != b.outputs:
                b.problems.append(f"traced outputs differ from the {label} pass")
                print(f"FAIL {b.op.argv[0]}: traced outputs differ from the {label} pass",
                      file=sys.stderr)

    m = layer_metrics(tracer.spans)
    m["sampling.tan13_table_s"] = tan13_table_s
    m["experiments.sup_classes"] = wl.sup_classes() if isinstance(wl, WignerScan) else 0
    m["experiments.parallel_eff"] = (walls["untraced"] / (2 * walls["untraced-t2"])
                                     if parallel else 0.0)
    m["cli.bytes_written"] = sum(len(v) for x in traced for k, v in x.outputs.items()
                                 if k != "<stdout>")
    m["cli.rerun_identical"] = sum(1 for x in traced if x.op.rerun_of and not x.problems)
    m["trace.overhead_frac"] = walls["traced"] / walls["untraced"] - 1
    m["trace.covered_frac"] = sum(s.seconds for s in tracer.spans if s.parent < 0) / walls["traced"]
    metrics = dict(sorted(m.items()))

    notes = ["pass walls: " + ", ".join(f"{k}={v:.3f}s" for k, v in walls.items()),
             f"spans={len(tracer.spans)}"]
    results = warm + [x for results in passes.values() for x in results]
    return results, metrics, notes, tracer.spans


EXACT_COUNTS = ("solver.iters_total", "wigner.entries", "experiments.sup_classes",
                "cli.bytes_written")


def check_exact_counts(out: Path, workload: str, seed: int, metrics: dict) -> list[str]:
    """Compare the exact counts with an earlier traced run of the same
    program and workload sources at the same seed; a difference is a
    steadiness failure."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "so3sparse").glob("*.py")) + [HERE / "workloads.py"]:
        digest.update(path.read_bytes())
    key = f"{workload} seed={seed} sources={digest.hexdigest()[:16]}"
    path = out / "exact_counts.json"
    book = json.loads(path.read_text()) if path.exists() else {}
    now = {k: metrics[k] for k in EXACT_COUNTS}
    before = book.setdefault(key, now)
    path.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return [f"steadiness failure: {k} was {before[k]} and is now {now[k]} ({key})"
            for k in EXACT_COUNTS if before[k] != now[k]]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed}


def write_spans(path: Path, spans) -> None:
    t0 = spans[0].start if spans else 0.0
    rows = [[s.name, s.start - t0, s.end - t0, s.parent, s.op, s.trial] for s in spans]
    with gzip.open(path, "wt") as fh:
        json.dump({"columns": ["name", "start_s", "end_s", "parent", "op", "trial"],
                   "spans": rows}, fh)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for w in WORKLOAD_NAMES]
        return max(codes)
    if not (SRC / "so3sparse" / "__init__.py").is_file():
        print(f"error: no so3sparse sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import so3sparse
    if Path(so3sparse.__file__).resolve().parent != SRC / "so3sparse":
        print(f"error: imported so3sparse from {so3sparse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, load_references

    cls = WORKLOADS[args.workload]
    wl, wl_tiny, refs = cls(), cls(tiny=True), load_references()
    out = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / str(os.getpid())
    out.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems = []
    try:
        if args.trace:
            results, metrics, notes, spans = traced_run(wl, wl_tiny, args.seed, work, refs)
            write_spans(out / f"trace-{args.workload}-seed{args.seed}.json.gz", spans)
            problems = check_exact_counts(out, args.workload, args.seed, metrics)
        else:
            results, metrics, notes = timed_run(wl, wl_tiny, args.seed, args.seconds, work, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    attempted = sum(x.op.count for x in results)
    failed = sum(x.op.count for x in results if x.problems)
    for p in problems:
        print(p, file=sys.stderr)
    correct = failed == 0 and not problems
    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "env": env, "notes": notes,
              "correct": correct, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "problems": problems,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"== {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    for note in notes:
        print(f"   {note}")
    for k, v in metrics.items():
        print(f"   {k:28s} {v:14.6g} {UNITS[k]}")
    print(f"   {'fail_frac':28s} {failed / attempted:14.6g} share ({failed} of {attempted} ops)")
    print(f"   verdict: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
