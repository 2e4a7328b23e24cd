"""Tests of the benchmark itself; they are not part of the tier-1 suite.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

workloads.require_source()


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_instance_files(workload, tmp_path):
    workloads.setup(workload, 7, tmp_path / "a")
    workloads.setup(workload, 7, tmp_path / "b")
    workloads.setup(workload, 8, tmp_path / "c")
    a = _files(tmp_path / "a")
    assert a == _files(tmp_path / "b")
    if workload != "estimate":  # its instances are fixed; the seed drives the estimators
        assert a != _files(tmp_path / "c")


def _audit(tmp_path, inst, *extra):
    from mcalaudit.core import dump_instance

    path = tmp_path / "inst.json"
    path.write_text(dump_instance(inst) + "\n")
    code, out, err = run.call_cli(["audit", str(path), *extra])
    assert code == 0, err
    return checks.load_instance(path.read_text()), json.loads(out)


def test_checker_accepts_the_program_and_rejects_corrupted_values_and_witnesses(tmp_path):
    from mcalaudit.instances import gen_cdmc_example

    inst, report = _audit(tmp_path, gen_cdmc_example())
    metrics = ("wdmc", "dmc", "dimc", "wdma", "dma", "dcma")
    assert checks.check_audit(inst, report, metrics) is None

    exact = {m: report["metrics"][m]["value"]["rational"] for m in metrics}
    assert checks.check_audit(inst, report, metrics, exact) is None
    assert "committed exact" in checks.check_audit(inst, report, metrics, {**exact, "wdma": "1/7"})

    corrupted = json.loads(json.dumps(report))
    corrupted["metrics"]["dmc"]["value"]["rational"] = "1/3"
    assert "l1 distance" in checks.check_audit(inst, corrupted, metrics)

    # Move one witness coordinate and report the moved witness's own l1
    # distance: only the membership check can catch it.
    corrupted = json.loads(json.dumps(report))
    entry = corrupted["metrics"]["dmc"]
    w = [Fraction(v["rational"]) for v in entry["witness"]]
    w[0] = 1 - w[0] if w[0] != Fraction(1, 2) else Fraction(1, 4)
    entry["witness"] = [{"rational": str(v)} for v in w]
    entry["value"]["rational"] = str(checks.l1(inst, w))
    assert "not in the metric's set" in checks.check_audit(inst, corrupted, ("dmc",))


def test_checker_rejects_a_bad_interval_and_sample_count(tmp_path):
    from mcalaudit.core import dump_instance
    from mcalaudit.instances import gen_three_point

    path = tmp_path / "inst.json"
    path.write_text(dump_instance(gen_three_point(Fraction(1, 10))) + "\n")
    inst = checks.load_instance(path.read_text())
    code, out, _ = run.call_cli(["estimate", str(path), "--metric", "dce", "--group", "1", "--seed", "3"])
    assert code == 0
    report = json.loads(out)
    samples = checks.expected_samples(inst, "dce", workloads.ESTIMATE_EPS, workloads.ESTIMATE_DELTA)
    exact = checks.exact_dce(inst, inst.groups[1])
    assert checks.check_estimate(report, samples, exact) == (None, True)
    assert "samples_used" in checks.check_estimate(report, samples + 1, exact)[0]
    report["runs"][0]["lower"]["rational"] = "1"
    assert "out of order" in checks.check_estimate(report, samples, exact)[0]


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(1, 100.0, 0), (2, 50.0, 1), (19, 100 * 10 / 19, 9), (20, 50.0, 10), (21, 100 * 11 / 21, 10), (100, 90.0, 10), (1000, 99.0, 10)],
)
def test_tail_percentile_rule(n, pct, beyond):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    value, got_pct, got_beyond = run.tail(values)
    assert (got_pct, got_beyond) == (pytest.approx(pct), beyond)
    assert sum(v > value for v in values) == beyond


def test_schedule_runs_the_first_block_whole_and_every_pause():
    blocks = [["a", "b", "c"], ["d"]]
    pauses = []
    ops = [op for _, op in run.schedule(blocks, 0.0, lambda: pauses.append(1), 4)]
    assert ops == ["a", "b", "c"] and len(pauses) == 4
    ops = []
    for _, op in run.schedule(blocks, 0.05):
        ops.append(op)
        time.sleep(0.004)  # each operation takes at least 4 ms, so at most 13 fit
    assert ops[:4] == ["a", "b", "c", "d"] and len(ops) <= 13


def test_speed_scales_each_time_by_the_slices_around_it():
    ref = speed.Speed()
    for t in range(10):  # slices at 0..9 s, twice the nominal time before 5 s
        ref.record(float(t), speed.NOMINAL_S * (2 if t < 5 else 1))
    assert ref.scale(1.0) == pytest.approx(0.5)
    assert ref.scale(5.0) == pytest.approx(3 / 4)  # slices at 4, 5 and 6
    assert ref.scale(100.0) == pytest.approx(1.0)  # none that close: the nearest
    assert speed.scaled([0.2, 0.4], [1.1, 8.2], ref) == pytest.approx([0.1, 0.4])


def test_speed_keeps_up_with_operation_time():
    ref = speed.Speed()
    ref.keep_up(0.5)
    assert ref.spent >= speed.SHARE * 0.5 and ref.spent > sum(ref.took)  # warm-up slices count too
    assert len(ref.at) == len(ref.took) and len(ref.took) % speed.BURST == 0
    slices = len(ref.took)
    ref.keep_up(0.0)
    assert len(ref.took) == slices


def test_self_time_on_a_synthetic_span_tree():
    #   0 [0, 10]
    #   ├── 1 [1, 4]
    #   │   └── 3 [2, 3]
    #   └── 2 [5, 8]
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 8.0, 3.0]
    assert spans.self_times(parent, start, end) == [4.0, 2.0, 3.0, 1.0]


def test_tracing_restores_the_program_and_conserves_time(tmp_path):
    import mcalaudit.cli
    import mcalaudit.distances
    from mcalaudit.core import dump_instance
    from mcalaudit.instances import gen_three_point

    originals = (mcalaudit.distances.calibrated_set, mcalaudit.cli.dce_interval)
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(gen_three_point(Fraction(1, 10))) + "\n")
    tracer = spans.Tracer()
    code, _, _ = tracer.run_op(0, lambda: run.call_cli(["audit", str(path)]))
    assert code == 0
    assert (mcalaudit.distances.calibrated_set, mcalaudit.cli.dce_interval) == originals
    counts = tracer.take_counts()
    assert counts["enumeration.partitions"] >= counts["enumeration.cal_set_size"] > 0
    times, calls = spans.summarise(tracer, 1)
    layers = sum(times[f"{layer}.self"] for layer in spans.LAYERS)
    assert layers == pytest.approx(times["op_wall"])
    assert calls["enumeration.cal_set_calls"] > 0 and calls["multiaccuracy.lp_calls"] == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "estimate", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
