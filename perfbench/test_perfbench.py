"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys

import pytest

import run  # pins BLAS threads before numpy is imported

sys.path[:0] = [str(run.SRC)]

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = run.BENCHMARK


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_runs_at_a_tiny_size(name, tmp_path):
    tiny = workloads.WORKLOADS[name](tiny=True)
    results, metrics, _ = run.timed_run(tiny, tiny, 3, 1, tmp_path / "timed", {})
    assert results and not any(x.problems for x in results)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in metrics.values())

    results, metrics, _, trace = run.traced_run(tiny, tiny, 3, tmp_path / "traced", {})
    assert results and not any(x.problems for x in results)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["trace.covered_frac"] >= 0.9
    assert trace and all(s.end >= s.start for s in trace)


def _corrupt(seen: dict) -> dict:
    if "grid.csv" in seen:
        return {**seen, "grid.csv": seen["grid.csv"].replace(",1\n", ",0.5\n", 1)}
    if "slope" in seen:
        return {**seen, "slope": seen["slope"] + 1.0}
    return {k: v * 1e-6 for k, v in seen.items()}


@pytest.mark.parametrize("name", ["pt-grid", "wigner-scan"])
def test_corrupted_reference_counts_as_failure(name, tmp_path):
    tiny = workloads.WORKLOADS[name](tiny=True)
    good = run.run_round(tiny.round(tmp_path / "a", 3, 0), {}, keep_outputs=True)
    assert not any(x.problems for x in good)
    refs = {x.op.key: _corrupt(x.op.observe(x.op, x.outputs["<stdout>"].decode())) for x in good}
    bad = run.run_round(tiny.round(tmp_path / "b", 3, 0), refs)
    assert sum(x.op.count for x in bad if x.problems) / sum(x.op.count for x in bad) > 0


def test_self_times_of_a_nested_trace():
    S = spans.Span
    trace = [
        S("cli.run", 0.0, 10.0, -1, 0, -1, None),
        S("experiments.run_trial", 1.0, 4.0, 0, 0, 1, None),
        S("solver.bpdn_ball", 2.0, 3.0, 1, 0, 1, {"iterations": 7, "status": "Converged"}),
        S("wigner.evaluate_basis", 5.0, 9.0, 0, 0, -1, {"entries": 40}),
        S("wigner.wigner_d", 6.0, 8.5, 3, 0, -1, None),
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 1.5, 2.5]
    m = spans.layer_metrics(trace)
    assert (m["cli.self_s"], m["experiments.busy_s"], m["solver.busy_s"], m["wigner.busy_s"]) \
        == (3.0, 2.0, 1.0, 4.0)
    assert m["wigner.evaluate_basis_s"] == 4.0 and m["wigner.ns_per_entry"] == 1e8
    assert m["solver.iters_total"] == 7 and m["solver.us_per_iter"] == pytest.approx(1e6 / 7)
    assert m["experiments.trials"] == 1 and m["experiments.trial_p50_s"] == 3.0


def test_tracer_records_nesting_trial_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("solver.solve", lambda: type("R", (), {"iterations": 3, "status": "MaxIter"})())
    trial = tracer.wrap("experiments.run_trial", lambda: inner())
    tracer.op = 5
    tracer.call("cli.run", trial)
    names = [(s.name, s.parent, s.op, s.trial) for s in tracer.spans]
    assert names == [("cli.run", -1, 5, -1), ("experiments.run_trial", 0, 5, 1),
                     ("solver.solve", 1, 5, 1)]
    assert tracer.spans[2].counts == {"iterations": 3, "status": "MaxIter"}
    assert spans.layer_metrics(tracer.spans)["solver.maxiter"] == 1


def test_tail_keeps_ten_samples_beyond():
    assert spans.tail(list(range(19))) == (0.0, 0.0)
    assert spans.tail([float(i) for i in range(240)]) == (95.0, 227.0)
    assert spans.tail([float(i) for i in range(20)]) == (50.0, 9.0)


def test_exact_count_mismatch_is_a_steadiness_failure(tmp_path):
    counts = dict.fromkeys(run.EXACT_COUNTS, 1)
    assert run.check_exact_counts(tmp_path, "pt-grid", 0, counts) == []
    assert run.check_exact_counts(tmp_path, "pt-grid", 0, counts) == []
    counts["solver.iters_total"] = 2
    [problem] = run.check_exact_counts(tmp_path, "pt-grid", 0, counts)
    assert problem.startswith("steadiness failure: solver.iters_total")


def test_seeds_are_derived_deterministically():
    assert workloads.derive_seed(0, 1, 2) == workloads.derive_seed(0, 1, 2)
    assert workloads.derive_seed(0, 1, 2) != workloads.derive_seed(1, 1, 2)
    assert all(0 <= workloads.derive_seed(s, 0, 0) < 2**32 for s in range(5))


def test_benchmark_json_names_are_well_formed():
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in BENCHMARK[k]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOAD_NAMES)
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_grid_inputs_do_not_depend_on_the_seed(tmp_path):
    grid = workloads.PtGrid()
    assert ([(op.argv, op.inputs) for op in grid.round(tmp_path, 1, 0)]
            == [(op.argv, op.inputs) for op in grid.round(tmp_path, 2, 3)])
