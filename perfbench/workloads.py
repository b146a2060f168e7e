"""The benchmark's three workloads: the CLI commands of one round, and their checks.

A workload builds the argv (and config files) of one round from the
benchmark seed and a round index; the program sees nothing else. Each
command comes with a check that returns the problems it found in the
command's outputs: an empty list means the op is correct.

References recorded at the seed commit (references.json) are looked up by
a key that names a command's exact inputs, so they apply exactly where
those inputs recur: at every seed for pt-grid and wigner-scan, whose inputs
do not depend on the seed. The near-field runs have none. Without a
reference a check falls back to invariants that need none.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0     # the seed the references were recorded at
HELD_OUT_SEED = 7    # kept out of tuning; confirm later claims on it
GRID_BASE_SEED = 0   # the pt-grid trials at every benchmark seed, as in test_06

MEASURES = ("product", "tan13")
GRAM_TOL = 1e-8      # tolerance of test_01_gram_matrices_are_identity
SUP_RTOL = 1e-5      # bound-scan sup values against the reference
SLOPE_ATOL = 1e-5    # log-log slope against the reference
NEARFIELD_FILES = ("T_true.csv", "T_l1.csv", "T_ls.csv", "pattern_cut.csv", "report.json")

REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one command, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def basis_count(B: int) -> int:
    return B * (2 * B - 1) * (2 * B + 1) // 3


@dataclass
class Op:
    """One CLI command of a round.

    `observe` reads what the command produced into plain values, the form a
    reference is stored in; `check` returns the problems it finds in them,
    against the reference when one is given.
    """

    argv: list[str]
    observe: Callable[["Op", str], dict]           # (op, stdout) -> observed
    check: Callable[[dict, dict | None], list[str]]  # (observed, ref) -> problems
    outdir: Path | None = None
    count: int = 1           # ops it adds to attempted and ops_per_cpu_s
    key: str | None = None   # reference key; None for commands never compared
    inputs: dict[Path, str] = field(default_factory=dict)  # files written before it runs
    rerun_of: Path | None = None  # for a rerun: the run it must reproduce byte for byte

    def output_bytes(self, stdout: str) -> dict[str, bytes]:
        """Everything the command produced except its manifest (which holds
        the wall time and the argv paths)."""
        out = {"<stdout>": stdout.encode()}
        if self.outdir is not None and self.outdir.is_dir():
            for p in sorted(self.outdir.iterdir()):
                if p.name != "manifest.json" and p not in self.inputs:
                    out[p.name] = p.read_bytes()
        return out


def _read_csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


class PtGrid:
    """phase-transition grids at B=5, one command per sampling measure.

    Unlike the near-field runs, the grids do not take their inputs from the
    benchmark seed: every round at every seed runs the trials of base seed
    GRID_BASE_SEED, as test_06 does. A round's cost is set by a few long
    solves in the failing cells (m=20), so rounds of different base seeds
    differ by up to 2x in ADMM iterations, far more than a 30 s run can
    average out (see README.md, Seeds).
    """

    name = "pt-grid"

    def __init__(self, tiny: bool = False):
        if tiny:
            self.B, self.m_values, self.s_values, self.trials = 2, [5, 10], [1, 2], 2
        else:
            self.B, self.m_values, self.s_values, self.trials = 5, [20, 40, 80, 165], [2, 4, 8], 5

    def round(self, work: Path, seed: int, r: int, threads: int = 2) -> list[Op]:
        base_seed = GRID_BASE_SEED
        ops = []
        for measure in MEASURES:
            d = work / f"grid-{measure}"
            cfg = {"B": self.B, "measure": measure, "trials": self.trials,
                   "base_seed": base_seed, "m_values": self.m_values,
                   "s_values": self.s_values}
            ops.append(Op(
                argv=["phase-transition", "--config", str(d / "config.json"),
                      "--output-dir", str(d), "--threads", str(threads)],
                observe=self.observe, check=self.check, outdir=d,
                count=self.trials * len(self.m_values) * len(self.s_values),
                key=f"phase-transition B={self.B} {measure} base_seed={base_seed} "
                    f"trials={self.trials} m={self.m_values} s={self.s_values}",
                inputs={d / "config.json": json.dumps(cfg)},
            ))
        return ops

    @staticmethod
    def observe(op: Op, stdout: str) -> dict:
        return {name: (op.outdir / name).read_text() for name in ("grid.csv", "contour.csv")}

    def check(self, seen: dict, ref: dict | None) -> list[str]:
        N = basis_count(self.B)
        problems = [f"success rate {rate} at m=N={N}, s={s}; expected 1"
                    for m, s, rate in _read_csv(seen["grid.csv"])
                    if int(m) == N and float(rate) != 1.0]
        if ref is not None:
            problems += [f"{name} differs from the reference" for name in ref if seen[name] != ref[name]]
        return problems


class WignerScan:
    """bound-scan over B=4..32, then the quadrature Gram check for each measure."""

    name = "wigner-scan"

    def __init__(self, tiny: bool = False):
        self.B_list, self.grid, self.gram_B = ("2,3", 256, 2) if tiny else ("4,8,16,32", 4096, 8)

    def round(self, work: Path, seed: int, r: int) -> list[Op]:
        d = work / "bounds"
        ops = [Op(argv=["bound-scan", "--B-list", self.B_list, "--grid", str(self.grid),
                        "--output-dir", str(d)],
                  observe=self.observe_bounds, check=self.check_bounds, outdir=d,
                  key=f"bound-scan B={self.B_list} grid={self.grid}")]
        for measure in ("raw",) + MEASURES:
            ops.append(Op(argv=["gram", "--B", str(self.gram_B), "--measure", measure],
                          observe=self.observe_gram, check=self.check_gram,
                          key=f"gram B={self.gram_B} {measure}"))
        return ops

    def sup_classes(self) -> int:
        """(l, mu, lam) classes the bound scan maximizes over: (l+1)^2 per degree."""
        B_max = max(int(b) for b in self.B_list.split(","))
        return sum((l + 1) ** 2 for l in range(B_max))

    @staticmethod
    def observe_bounds(op: Op, stdout: str) -> dict:
        rows = _read_csv((op.outdir / "bounds.csv").read_text())
        return {"rows": [[int(B), int(N), float(sup)] for B, N, sup in rows],
                "slope": float(stdout.strip().rsplit("=", 1)[1])}

    @staticmethod
    def check_bounds(seen: dict, ref: dict | None) -> list[str]:
        rows, slope = seen["rows"], seen["slope"]
        problems = []
        if not rows or not all(math.isfinite(sup) and sup > 0 for _, _, sup in rows):
            problems.append(f"bad sup values {rows}")
        if not math.isfinite(slope):
            problems.append(f"log-log slope {slope} is not finite")
        if ref is not None:
            if [r[:2] for r in rows] != [r[:2] for r in ref["rows"]]:
                problems.append("bounds.csv (B, N) rows differ from the reference")
            elif any(abs(a[2] - b[2]) > SUP_RTOL * b[2] for a, b in zip(rows, ref["rows"])):
                problems.append("bounds.csv sup values differ from the reference")
            if abs(slope - ref["slope"]) > SLOPE_ATOL:
                problems.append(f"log-log slope {slope} differs from the reference {ref['slope']}")
        return problems

    @staticmethod
    def observe_gram(op: Op, stdout: str) -> dict:
        return {k: float(v) for k, v in (item.split("=") for item in stdout.split())}

    @staticmethod
    def check_gram(seen: dict, ref: dict | None) -> list[str]:
        problems = [f"{k}={v:.3e} not below {GRAM_TOL}" for k, v in seen.items() if not v < GRAM_TOL]
        if ref is not None:
            # roundoff-level values: a reordered kernel may move them a little,
            # a lost digit moves them by orders of magnitude
            problems += [f"{k}={seen[k]:.3e} above 10x the reference {v:.3e}"
                         for k, v in ref.items() if not seen[k] <= 10 * v]
        return problems


class Nearfield:
    """nearfield-sim runs, one per measure a round; round 0 ends with a rerun
    of its last run's manifest (a rerun repeats a run, so one is enough)."""

    name = "nearfield"

    def __init__(self, tiny: bool = False):
        self.B, self.s, self.m = (2, 2, 30) if tiny else (12, 16, 200)
        # l1 error at epsilon=1e-3: observed 1.4e-3..3.0e-3 at full size and
        # up to 2e-2 at the tiny size, which has far fewer measurements
        self.max_rel_error = 5e-2 if tiny else 1e-2

    def round(self, work: Path, seed: int, r: int) -> list[Op]:
        ops = []
        for j, measure in enumerate(MEASURES):
            d = work / f"sim{j}"
            ops.append(Op(
                argv=["nearfield-sim", "--B", str(self.B), "--s", str(self.s),
                      "--m", str(self.m), "--epsilon", "1e-3",
                      "--measure", measure, "--seed", str(derive_seed(seed, 1, r, j)),
                      "--output-dir", str(d)],
                observe=self.observe_sim, check=self.check_sim, outdir=d))
        if r == 0:
            d = work / "rerun"
            ops.append(Op(argv=["rerun", str(ops[-1].outdir / "manifest.json"),
                                "--output-dir", str(d)],
                          observe=self.observe_rerun, check=self.check_rerun, outdir=d,
                          rerun_of=ops[-1].outdir))
        return ops

    @staticmethod
    def observe_sim(op: Op, stdout: str) -> dict:
        report = json.loads((op.outdir / "report.json").read_text())
        return {k: report[k] for k in ("solver_status", "rel_error_l1")}

    def check_sim(self, seen: dict, ref: dict | None) -> list[str]:
        problems = []
        if seen["solver_status"] != "Converged":
            problems.append(f"solver status {seen['solver_status']}")
        if not seen["rel_error_l1"] <= self.max_rel_error:
            problems.append(f"rel_error_l1 {seen['rel_error_l1']:.3e} above {self.max_rel_error}")
        return problems

    @staticmethod
    def observe_rerun(op: Op, stdout: str) -> dict:
        return {"differing": [name for name in NEARFIELD_FILES
                              if (op.outdir / name).read_bytes() != (op.rerun_of / name).read_bytes()]}

    @staticmethod
    def check_rerun(seen: dict, ref: dict | None) -> list[str]:
        return [f"rerun {name} differs from the original run" for name in seen["differing"]]


WORKLOADS = {w.name: w for w in (PtGrid, WignerScan, Nearfield)}
