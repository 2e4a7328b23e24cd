"""Run one workload of the mcalaudit benchmark and print its metrics.

    python3 bench/run.py --workload audit-small --seed 0 --seconds 25 --trace 0

One operation is one in-process call of `mcalaudit.cli.main` with the argv
a user would type, in a closed loop with one client and no threads, until
`--seconds` have passed, after one untimed warm-up operation.  Every output
is checked by the benchmark's own code (checks.py).  With `--trace 0` the
end-to-end metrics are printed, and the run also times the set-up in eight
fresh interpreters, started one at a time and spread over the run; its
timing metrics are scaled to a reference speed of the machine (speed.py).
With `--trace 1` each operation runs twice, untraced and traced, and the
per-layer metrics derived from the spans are printed.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the provenance.  Spans and a
result file are written under `.bench_run/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path
from typing import Optional

import checks
import speed
import workloads
from workloads import DEFAULT_SEED, ROOT, WORKLOADS

WORK = ROOT / ".bench_run"
EXACT_FILE = Path(__file__).with_name("exact_values.json")
SETUP_PROBES = 8
SLICES_AROUND_PROBE = 4  # reference slices just before and just after each set-up probe
MAX_FAILURES_SHOWN = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Span-derived times (per-run totals); each also gets a `_share` of the
# traced operations' wall time.
TIMES = (
    "cli.self",
    "core.self",
    "enumeration.self",
    "distances.self",
    "multiaccuracy.self",
    "estimators.self",
    "core.load",
    "core.l1",
    "enumeration.cal_set",
    "enumeration.membership",
    "enumeration.join",
    "distances.dce",
    "multiaccuracy.lp",
    "estimators.smce_lp",
)
# Counts over the first block of operations: exact, repeat from run to run.
COUNTS = (
    "core.l1_calls",
    "enumeration.cal_set_calls",
    "enumeration.partitions",
    "enumeration.membership_calls",
    "enumeration.join_calls",
    "enumeration.join_results",
    "enumeration.join_bound",
    "distances.dce_calls",
    "multiaccuracy.lp_calls",
    "multiaccuracy.lp_rows",
    "multiaccuracy.lp_cols",
    "estimators.smce_lp_calls",
    "estimators.draws",
)
PER_LAYER = {
    **{f"{t}_ms": "ms" for t in TIMES},
    **{f"{t}_share": "ratio" for t in TIMES},
    **{c: "count" for c in COUNTS},
    "enumeration.cal_yield": "ratio",
    "estimators.draws_per_s": "1/s",
    "estimators.coverage": "ratio",
    "trace.op_wall_ms": "ms",
    "trace.overhead": "ratio",
}


MIN_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least MIN_BEYOND samples beyond it, as
    (value, percentile, samples beyond): the (MIN_BEYOND + 1)-th largest
    sample, at percentile 100 * (n - MIN_BEYOND) / n.  Below
    2 * MIN_BEYOND samples that would fall under the median, so the
    nearest-rank median is returned with its shorter count beyond."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - MIN_BEYOND if n >= 2 * MIN_BEYOND else math.ceil(n / 2)
    return ordered[rank - 1], 100 * rank / n, n - rank


def call_cli(argv) -> tuple[Optional[int], str, str]:
    """One operation: `mcalaudit <argv>` in this process.  Returns the exit
    code (None when the command raised), its stdout and its stderr or the
    exception."""
    from mcalaudit.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args=list(argv), prog_name="mcalaudit")
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else int(e.code is not None)
    except Exception as e:  # an operation that raises is a failed operation
        return None, out.getvalue(), f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


class Client:
    """The closed loop's one client: runs each operation, times it, checks
    its output and counts failures and estimate coverage."""

    def __init__(self, workload: str, seed: int, blocks: list[list[workloads.Op]]):
        ops = [op for block in blocks for op in block]
        self.insts = {op.instance: checks.load_instance(Path(op.instance).read_text()) for op in ops}
        self.exact = None
        if seed == DEFAULT_SEED and workload != "estimate":
            table = json.loads(EXACT_FILE.read_text()).get(workload, {})
            self.exact = {p: table.get(digest(p)) for p in self.insts}
        self.samples, self.exact_estimate = {}, {}
        for op in ops:
            if op.metric is None:
                continue
            inst = self.insts[op.instance]
            key = (op.instance, op.metric, op.group)
            self.samples[key] = checks.expected_samples(
                inst, op.metric, workloads.ESTIMATE_EPS, workloads.ESTIMATE_DELTA
            )
            self.exact_estimate[key] = (
                checks.exact_dce(inst, inst.groups[op.group]) if op.metric == "dce" else checks.exact_dimc(inst)
            )
        self.estimates = 0
        self.covered = 0
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, op: workloads.Op, argv, call=None) -> float:
        """Run `call(argv)` (by default one untraced operation) and return
        its wall time; the check runs outside the timed region."""
        t0 = time.perf_counter()
        code, out, err = (call or call_cli)(argv)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        reason = self.check(op, code, out, err)
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")
        return elapsed

    def check(self, op: workloads.Op, code, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
        try:
            report = json.loads(out)
            if op.metric is None:
                exact = None
                if self.exact is not None:
                    exact = self.exact[op.instance]
                    if exact is None:
                        return "no committed exact values for this instance"
                return checks.check_audit(self.insts[op.instance], report, op.metrics, exact)
            key = (op.instance, op.metric, op.group)
            reason, hit = checks.check_estimate(report, self.samples[key], self.exact_estimate[key])
        except (ValueError, KeyError, TypeError) as e:
            return f"malformed output: {type(e).__name__}: {e}"
        if reason is None:
            self.estimates += 1
            self.covered += hit
        return reason


def argv_for(op: workloads.Op, seed: int, execution: int) -> tuple[str, ...]:
    if op.metric is None:
        return op.argv
    return op.argv + ("--seed", str(workloads.estimator_seed(seed, execution)))


def schedule(blocks, seconds, pause=None, pauses=0):
    """Operations as (execution number, op), in block order and cycling
    through the blocks, until `seconds` of operation time (checks included)
    have passed; the first block always runs whole.  `pause()` runs
    `pauses` times, evenly spaced over that time, and its own time does not
    count."""
    ops = [op for block in blocks for op in block]
    due = [seconds * (k + 1) / (pauses + 1) for k in range(pauses)]
    spent = 0.0
    for i in itertools.count():
        t0 = time.perf_counter()
        yield i, ops[i % len(ops)]
        spent += time.perf_counter() - t0
        while due and spent >= due[0]:
            due.pop(0)
            pause()
        if spent >= seconds and i + 1 >= len(blocks[0]):
            break
    for _ in due:
        pause()


def run_plain(blocks, seed, seconds, client: Client, probe, ref: speed.Speed):
    """Latencies and end times of the operations.  Reference slices run
    between operations and count toward `seconds`."""
    latencies, ends = [], []
    for i, op in schedule(blocks, seconds, probe, SETUP_PROBES):
        latencies.append(client.execute(op, argv_for(op, seed, i)))
        ends.append(time.perf_counter())
        ref.keep_up(sum(latencies))
    return latencies, ends


def run_traced(blocks, seed, seconds, client: Client):
    """Each execution runs untraced and traced, in alternating order."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    block_counts: dict[str, int] = {}
    run_counts: dict[str, int] = {}
    for i, op in schedule(blocks, seconds):
        argv = argv_for(op, seed, i)
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(client.execute(op, argv))
                continue
            traced.append(client.execute(op, argv, lambda a: tracer.run_op(i, lambda: call_cli(a))))
            for key, value in tracer.take_counts().items():
                run_counts[key] = run_counts.get(key, 0) + value
                if i < len(blocks[0]):
                    block_counts[key] = block_counts.get(key, 0) + value
    return tracer, plain, traced, block_counts, run_counts


def layer_metrics(tracer, plain, traced, block_counts, run_counts, block_ops: int, client: Client) -> dict:
    from spans import summarise

    times, calls = summarise(tracer, block_ops)
    wall = times["op_wall"]
    values: dict[str, float] = {}
    for t in TIMES:
        values[f"{t}_ms"] = times[t] * 1000
        values[f"{t}_share"] = times[t] / wall
    counts = {**calls, **block_counts}
    for c in COUNTS:
        values[c] = counts.get(c, 0)
    partitions = counts.get("enumeration.partitions", 0)
    values["enumeration.cal_yield"] = counts.get("enumeration.cal_set_size", 0) / partitions if partitions else 0.0
    interval_s = times["estimators.interval"]
    values["estimators.draws_per_s"] = run_counts.get("estimators.draws", 0) / interval_s if interval_s else 0.0
    values["estimators.coverage"] = client.covered / client.estimates if client.estimates else 0.0
    values["trace.op_wall_ms"] = wall * 1000
    # The gap between untraced and traced ops_per_s over identical executions.
    values["trace.overhead"] = 1 - sum(plain) / sum(traced)
    return values


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


PROBE = (
    "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import workloads; "
    "print(workloads.setup(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))[0])"
)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(Path(__file__).parent), workload, str(seed), str(WORK / "setup-probe")],
        capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {out.stderr.strip()}")
    return float(out.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    elapsed, blocks = workloads.setup(args.workload, args.seed, WORK / args.workload)
    setup_samples = [elapsed]
    client = Client(args.workload, args.seed, blocks)
    # Warm-up, untimed: the first call in a process pays ~20-30 ms for lazy
    # imports and first-use caches.  The timed loop repeats this operation
    # first and checks it.
    call_cli(argv_for(blocks[0][0], args.seed, 0))

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "mcal_audit_budget": os.environ.get("MCAL_AUDIT_BUDGET", "default"),
        "block_size": len(blocks[0]),
        "blocks": len(blocks),
    }
    if args.trace == 0:
        ref = speed.Speed()
        # Set-up times are scaled by the slices around their end: the run's
        # own set-up by this burst, each probe's by the bursts around it.
        ref.burst(2 * SLICES_AROUND_PROBE)
        setup_at = [time.perf_counter()]

        def probe():
            ref.burst(SLICES_AROUND_PROBE)
            setup_samples.append(setup_probe(args.workload, args.seed))
            setup_at.append(time.perf_counter())
            ref.burst(SLICES_AROUND_PROBE)

        raw, ends = run_plain(blocks, args.seed, args.seconds, client, probe, ref)
        latencies = speed.scaled(raw, ends, ref)
        setup_scaled = speed.scaled(setup_samples, setup_at, ref)
        passed = client.attempted - len(client.failures)
        tail_value, tail_pct, beyond = tail(latencies)
        values = {
            "ops_per_s": passed / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail_value * 1000,
            "ok_ratio": passed / client.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_scaled),
        }
        units = END_TO_END
        provenance.update(
            operations=len(latencies),
            op_tail_percentile=tail_pct,
            op_tail_beyond=beyond,
            reference_slice_ms=ref.median_ms(),
            reference_slices=len(ref.took),
            raw_ops_per_s=passed / sum(raw),
            raw_op_p50_ms=statistics.median(raw) * 1000,
            raw_op_tail_ms=tail(raw)[0] * 1000,
            raw_setup_s=statistics.median(setup_samples),
            raw_setup_samples_s=setup_samples,
        )
    else:
        tracer, plain, traced, block_counts, run_counts = run_traced(blocks, args.seed, args.seconds, client)
        values = layer_metrics(tracer, plain, traced, block_counts, run_counts, len(blocks[0]), client)
        units = PER_LAYER
        provenance.update(operations=len(traced), spans=len(tracer.start))
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    provenance["failures"] = client.failures[:MAX_FAILURES_SHOWN]

    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=2) + "\n"
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
