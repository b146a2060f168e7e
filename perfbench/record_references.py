#!/usr/bin/env python3
"""Record the reference outputs the workload checks compare against.

    python3 perfbench/record_references.py

Runs round 0 of every full-size workload at the default seed and writes
perfbench/references.json, keyed by each command's exact inputs. Re-record
only for a change that is meant to alter these outputs, and say so.
"""

import json
import shutil
import sys

import run  # pins BLAS threads before numpy is imported

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import workloads  # noqa: E402


def main() -> None:
    refs = {}
    work = run.ROOT / ".perfbench_work" / "references"
    for cls in workloads.WORKLOADS.values():
        for res in run.run_round(cls().round(work / cls.name, workloads.DEFAULT_SEED, 0), {},
                                 keep_outputs=True):
            if res.problems:
                sys.exit(f"{res.op.argv[0]} failed its invariants: {res.problems}")
            if res.op.key is not None:
                refs[res.op.key] = res.op.observe(res.op, res.outputs["<stdout>"].decode())
    shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {workloads.REFERENCES}")


if __name__ == "__main__":
    main()
