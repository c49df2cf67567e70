"""Self-tests of the benchmark: oracles, seeding, tracing and metric names.

Run from the root of the repository:  python3 -m pytest bench -q
"""

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def dist(values):
    return SimpleNamespace(values=np.asarray(values, dtype=float))


def nudged(values, eps=1e-7):
    """Same sum, two entries moved by eps: wrong, yet still a distribution."""
    out = np.array(values, dtype=float)
    out[0] += eps
    out[1] -= eps
    return out


def verify_case():
    return {"seed": 11}, workloads.run_cli(["verify", "--seed", "11", "--trials", "6", "--max-n", "4"])


def fusion_case():
    item = workloads.fusion_item(np.random.default_rng(2), 5, 3)
    return item, workloads.run_fusion_sparse(item)


def test_unplanted_outputs_pass():
    for check, (item, out) in (
        (workloads.check_verify, verify_case()),
        (oracles.check_fusion, fusion_case()),
    ):
        check(item, out)


def plant_verify():
    def equivalence_passes(reports):
        next(r for r in reports if r["theorem"] == "combination-equivalence")["passed"] = True

    def other_fails(reports):
        next(r for r in reports if r["theorem"] != "combination-equivalence")["passed"] = False

    def nan_residual(reports):
        reports[0]["max_residual"] = float("nan")

    for change, code in ((equivalence_passes, 3), (other_fails, 3), (nan_residual, 3), (lambda r: None, 0)):
        item, out = verify_case()
        reports = [json.loads(line) for line in out.stdout.splitlines()]
        change(reports)
        yield item, dataclasses.replace(out, code=code, stdout="\n".join(map(json.dumps, reports)))


def plant_fusion():
    x, y, z = 1, 2, 4
    for moves in (
        {x: 1e-7, y: -1e-7},
        # delta from {x} and {y,z} to {x,y} and {z}: every contour Pl({.}) stays
        {x: -1e-7, y | z: -1e-7, x | y: 1e-7, z: 1e-7},
    ):
        item, out = fusion_case()
        wrong = dict(out["steps"][-1].masses)
        for mask, delta in moves.items():
            wrong[mask] += delta
        out["steps"][-1] = SimpleNamespace(masses=wrong)
        yield item, out
    item, out = fusion_case()
    yield item, {**out, "intersection": dist(nudged(out["intersection"].values))}
    item, out = fusion_case()
    yield item, {**out, "ranking": out["ranking"][::-1]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_planted_wrong_output_is_a_failed_operation(workload):
    planted = {"verify": plant_verify, "fusion-dense": plant_fusion, "fusion-sparse": plant_fusion}[workload]
    real = workloads.WORKLOADS[workload]
    for item, out in planted():
        with pytest.raises(oracles.Mismatch):
            real.check(item, out)
        stub = dataclasses.replace(real, run=lambda _, out=out: out, block=1)
        loop = run.closed_loop(stub, [item], 0.0)
        assert (loop.attempted, loop.failed, loop.wrong, loop.passed_runs) == (1, 1, 1, 0)


def chain_defect(item):
    raise workloads.ChainDefect("Dempster step 7 of 9: masses must sum to 1, got 1.0000000036")


def value_error(item):
    raise ValueError("masses must sum to 1, got 1.0000000036")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("raises", [chain_defect, value_error])
def test_only_the_chain_defect_on_fusion_sparse_is_a_tolerated_failure(workload, raises):
    real = workloads.WORKLOADS[workload]
    stub = dataclasses.replace(real, run=lambda item: raises(item) if item["fail"] else "ok",
                               check=lambda item, out: None, block=2)
    loop = run.closed_loop(stub, [{"fail": True}, {"fail": False}], 0.0)
    assert (loop.attempted, loop.failed, loop.passed_runs) == (2, 1, 1) and len(loop.latencies) == 1
    tolerated = workload == "fusion-sparse" and raises is chain_defect
    assert loop.wrong == (0 if tolerated else 1)


def test_chain_defect_is_raised_from_a_dempster_step():
    lengths = {}
    for item in workloads.make_fusion_sparse(np.random.default_rng(4), blocks=1):
        try:
            workloads.run_fusion_sparse(item)
        except workloads.ChainDefect as exc:
            assert isinstance(exc.__cause__, ValueError)
            lengths[len(item["sources"])] = False
        else:
            lengths[len(item["sources"])] = True
    # Short chains pass and long ones fail, so the failure share is fixed.
    assert lengths == {length: length < 10 for length in workloads.CHAIN_LENGTHS}


def test_loop_stops_only_at_the_end_of_a_block():
    stub = dataclasses.replace(workloads.WORKLOADS["fusion-sparse"], run=lambda item: "ok",
                               check=lambda item, out: None)
    loop = run.closed_loop(stub, list(range(3)), 0.0)
    assert (loop.runs, loop.attempted) == (len(workloads.CHAIN_LENGTHS), 3)


def test_loop_runs_every_input_once_whatever_the_time():
    stub = dataclasses.replace(workloads.WORKLOADS["verify"], run=lambda item: item,
                               check=lambda item, out: None)
    loop = run.closed_loop(stub, list(range(10)), 0.0)
    assert (loop.runs, loop.attempted, loop.failed) == (10, 10, 0)


def test_tail_percentile_leaves_ten_completed_samples_beyond():
    done = [float(i) for i in range(1, 101)]
    assert run.tail(done, 100) == (90.0, 90)
    # 20 failed samples rank last and push the percentile down
    assert run.tail(done[:80], 100) == (70.0, 70)


def test_each_run_is_scaled_by_the_reference_timings_around_it():
    loop = run.Loop(samples=[(0.2, True), (0.2, True)], inputs={0, 1})
    setups = [{"setup_s": 0.5, "import_s": 0.2, "reference_s": 0.06}]
    metrics, _ = run.end_to_end(loop, [0.03, 0.03, 0.06], setups)
    second = 0.2 * 0.03 / 0.045  # the machine ran slower around the second run
    assert metrics["op_median_s"][0] == pytest.approx((0.2 + second) / 2)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / (0.2 + second))
    assert metrics["setup_s"][0] == pytest.approx(0.25)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    make = workloads.WORKLOADS[name].make
    first = workloads.input_digest(make(np.random.default_rng(5)))
    again = workloads.input_digest(make(np.random.default_rng(5)))
    other = workloads.input_digest(make(np.random.default_rng(6)))
    assert first == again != other


def snapshot():
    """Every attribute of every intprob module and class, by identity."""
    seen = {}
    for mod in tracing.intprob_modules():
        for name, obj in vars(mod).items():
            seen[(mod.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("intprob"):
                for attr, raw in vars(obj).items():
                    seen[(mod.__name__, name, attr)] = raw
    return seen


def test_traced_run_restores_every_wrapped_attribute():
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        key = ("intprob.verify", "plausibility_values")  # imported by name from belief
        assert snapshot()[key] is not before[key]
        item, out = fusion_case()
        oracles.check_fusion(item, out)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    spans = tracer.spans()
    roots = spans["parent"] < 0
    summary = tracer.summary(1, float((spans["t1"] - spans["t0"])[roots].sum()), spans)
    assert summary["combine.pairs"] == 2 * 31 * 31
    assert summary["belief.mass_objects"] == 5  # three sources, two Dempster steps
    assert summary["trace.attributed_ratio"] == pytest.approx(1.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    loop = run.Loop(samples=[(0.1, True)] * 33, inputs=set(range(33)))
    metrics, _ = run.end_to_end(loop, [0.03] * 34, [{"setup_s": 0.5, "import_s": 0.2, "reference_s": 0.03}])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]][1] for m in spec["end_to_end"])

    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    names = list(tracer.summary(1, 1.0, tracer.spans()))
    names += ["trace.overhead_ratio", "cli.import_s"]
    names += tracing.sweep_metric_names()
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(names)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
