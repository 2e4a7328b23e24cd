"""Command-line front end.

Subcommands: audit, enumerate, estimate, generate, landscape, verify.
Output is JSON by default; `--pretty` switches to a human-readable table.
Exact rationals appear as "num/den" strings together with 30-significant-
digit decimal renderings (round-half-even; the decimals are views only).

Exit codes: 0 success, 1 acceptance failure, 2 input error, 3 budget
refusal.  The environment variable MCAL_AUDIT_BUDGET overrides the
budget of the multicalibration join in `audit`, `enumerate` and `landscape`.
"""

from __future__ import annotations

import contextlib
import csv
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import NoReturn, Optional

import click

from .core import (
    BudgetExceeded,
    Instance,
    Subgroup,
    _rat_str,
    dump_instance,
    l1_distance,
    load_instance,
    rat,
    to_decimal,
    validate,
)
from .distances import METRICS, certify, local_min_probe
from .enumeration import (
    DEFAULT_BUDGET,
    calibrated_set,
    is_calibrated,
    is_degree_r_multicalibrated,
    is_multiaccurate,
    multicalibrated_set,
)
from .estimators import dce_interval, dimc_interval
from .instances import (
    gen_cdmc_example,
    gen_dcma_example,
    gen_fibonacci,
    gen_hypercube,
    gen_random,
    gen_ring,
    gen_three_point,
    gen_wdmc_local_min,
)
from .multiaccuracy import _dma_problem
from .verify import run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
# `audit --degree D` writes a D-entry map, so D is bounded before it is built.
DEGREE_CEILING = 10_000


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current sys.stdout or sys.stderr.  Without an
    explicit file, click caches a wrapper per stream that keeps the stream
    alive, so every stdout swapped in by an in-process caller would leak."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _fail(message: str, code: int = EXIT_INPUT) -> NoReturn:
    """Write `error: message` to stderr and exit with `code`."""
    _echo(f"error: {message}", err=True)
    sys.exit(code)


def _budget() -> int:
    raw = os.environ.get("MCAL_AUDIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        _fail(f"MCAL_AUDIT_BUDGET must be a positive integer, got {raw!r}")
    return value


def _rat_json(x: Fraction) -> dict:
    return {"rational": _rat_str(x), "decimal": to_decimal(x)}


def _load(path: str) -> Instance:
    try:
        if path == "-":
            inst = load_instance(sys.stdin)
        else:
            with open(path) as fh:
                inst = load_instance(fh)
    except (OSError, ValueError, KeyError, TypeError) as e:
        _fail(f"cannot read instance: {e}")
    report = validate(inst)
    if not report.valid:
        # one error line per violation
        _fail("\nerror: ".join(f"invalid instance: {v}" for v in report.violations))
    return inst


def _write_json(x, indent: str, out: list[str]) -> None:
    """Append x to `out` as `json.dumps(x, indent=2)` writes it, a nested
    line being indented by `indent` and two more spaces.  Strings go through
    json's C string encoder and the other scalars are written inline as json
    writes them (a report's floats are finite timings); json's own encoder
    runs in pure Python whenever `indent` is set."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for k, v in x.items():
            out.append(sep + _quote(k) + ": ")
            _write_json(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for v in x:
            out.append(sep)
            _write_json(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append(float.__repr__(x))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _emit(payload: dict, output: Optional[str]):
    """Write the report as `json.dumps(payload, indent=2)` would, byte for
    byte, through `_write_json`."""
    chunks: list[str] = []
    _write_json(payload, "", chunks)
    text = "".join(chunks)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        _echo(text)


def _parse_rat(value: str, name: str) -> Fraction:
    try:
        return rat(value)
    except (ValueError, TypeError) as e:
        _fail(f"bad {name}: {e}")


def _group_by_index(inst: Instance, index: int) -> Subgroup:
    if not 0 <= index < len(inst.groups):
        _fail(f"group index {index} out of range (instance has {len(inst.groups)} groups)")
    return inst.groups[index]


@click.group()
def main():
    """Exact auditing of calibration and multicalibration distances."""


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


@main.command("audit")
@click.argument("instance", type=str)
@click.option(
    "--metrics",
    default=",".join(METRICS),
    show_default=True,
    help=f"Comma-separated subset of {','.join(METRICS)}.",
)
@click.option("--degree", type=int, default=1, show_default=True, help="Check degree-r membership for r = 1..DEGREE.")
@click.option("--dump-lp", type=str, default=None, help="Write the multiaccuracy-distance LP as JSON to this path.")
@click.option("--pretty", is_flag=True, help="Human-readable table instead of JSON.")
@click.option("-o", "--output", type=str, default=None, help="Write the JSON report to this path.")
def cmd_audit(instance, metrics, degree, dump_lp, pretty, output):
    """Compute distance metrics and membership flags for an instance."""
    inst = _load(instance)
    requested = [m.strip() for m in metrics.split(",") if m.strip()]
    for m in requested:
        if m not in METRICS:
            _fail(f"unknown metric {m!r}")
    if degree < 1:
        _fail("--degree must be >= 1")
    if degree > DEGREE_CEILING:
        _fail(f"--degree must be <= {DEGREE_CEILING}")
    budget = _budget()

    report: dict = {"metrics": {}, "membership": {}, "timing_seconds": {}}
    for m in requested:
        compute, target = METRICS[m]
        t0 = time.perf_counter()
        try:
            r = compute(inst, budget)
        except BudgetExceeded as e:
            entry = {"refused": str(e)}
        except ValueError as e:
            _fail(str(e))
        else:
            value, witness = r
            if target is None:
                entry = {"value": _rat_json(value), "witness_group": list(witness.members)}
            else:
                certify(m, r, inst)
                entry = {"value": _rat_json(value), "witness": [_rat_json(v) for v in witness.values]}
        report["metrics"][m] = entry
        report["timing_seconds"][m] = round(time.perf_counter() - t0, 6)

    f = inst.audited
    per_group = [is_calibrated(f, inst, S) for S in inst.groups]
    report["membership"]["calibrated_per_group"] = per_group
    report["membership"]["multicalibrated"] = all(per_group)
    report["membership"]["multiaccurate"] = is_multiaccurate(f, inst)
    # A group holds at most n distinct values of f, so every r >= n has the
    # flag of r = n.
    flags = [is_degree_r_multicalibrated(f, inst, r) for r in range(1, min(degree, inst.n) + 1)]
    report["membership"]["degree_r_multicalibrated"] = {
        str(r): flags[min(r, inst.n) - 1] for r in range(1, degree + 1)
    }
    report["l1_to_ground_truth"] = _rat_json(
        l1_distance(inst.audited, inst.ground_truth, inst.marginal)
    )

    if dump_lp:
        with open(dump_lp, "w") as fh:
            fh.write(_dma_problem(inst).to_json() + "\n")

    if pretty:
        for m in requested:
            entry = report["metrics"][m]
            if "refused" in entry:
                _echo(f"{m:6s}  REFUSED  {entry['refused']}")
            else:
                v = entry["value"]
                _echo(f"{m:6s}  {v['rational']:>14s}  = {v['decimal']}")
        mm = report["membership"]
        _echo(f"multicalibrated: {mm['multicalibrated']}  multiaccurate: {mm['multiaccurate']}")
    else:
        _emit(report, output)
    sys.exit(EXIT_OK)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


@main.command("enumerate")
@click.argument("instance", type=str)
@click.option("--set", "which", type=click.Choice(["cal", "mcal"]), default="mcal", show_default=True)
@click.option("--group", type=int, default=None, help="Group index for --set cal.")
@click.option("--pretty", is_flag=True)
@click.option("-o", "--output", type=str, default=None)
def cmd_enumerate(instance, which, group, pretty, output):
    """List the calibrated set of one group, or the multicalibrated set.

    Multicalibrated entries use null for coordinates no group constrains.
    """
    inst = _load(instance)
    try:
        if which == "cal":
            if group is None:
                _fail("--set cal requires --group")
            S = _group_by_index(inst, group)
            cs = calibrated_set(inst, S)
            rows = [[_rat_str(v) for v in cand] for cand in cs]
            payload = {"set": "cal", "group": list(S.members), "count": len(rows), "predictors": rows}
        else:
            mc = multicalibrated_set(inst, budget=_budget())
            rows = [[None if v is None else _rat_str(v) for v in cand] for cand in mc]
            payload = {"set": "mcal", "count": len(rows), "predictors": rows}
    except BudgetExceeded as e:
        _fail(f"budget refusal: {e}", EXIT_BUDGET)
    if pretty:
        _echo(f"{payload['count']} predictors")
        for row in payload["predictors"]:
            _echo("  (" + ", ".join("free" if v is None else v for v in row) + ")")
    else:
        _emit(payload, output)
    sys.exit(EXIT_OK)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


@main.command("estimate")
@click.argument("instance", type=str)
@click.option("--metric", type=click.Choice(["dce", "dimc"]), required=True)
@click.option("--group", type=int, default=None, help="Group index (required for dce).")
@click.option("--eps", default="1/50", show_default=True, help="Interval half-width parameter (rational).")
@click.option("--delta", default="1/20", show_default=True, help="Failure probability (rational).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=1, show_default=True, help="Independent runs with seeds seed, seed+1, ...")
@click.option("--csv", "as_csv", is_flag=True, help="Emit CSV rows instead of JSON.")
@click.option("-o", "--output", type=str, default=None)
def cmd_estimate(instance, metric, group, eps, delta, seed, trials, as_csv, output):
    """Sampling-based interval estimates; deterministic given the seed."""
    inst = _load(instance)
    eps_r = _parse_rat(eps, "--eps")
    delta_r = _parse_rat(delta, "--delta")
    if trials < 1:
        _fail("--trials must be >= 1")
    if metric == "dce":
        if group is None:
            _fail("--metric dce requires --group")
        S = _group_by_index(inst, group)
        runner = lambda s: dce_interval(inst, S, eps_r, delta_r, seed=s)
    else:
        runner = lambda s: dimc_interval(inst, eps_r, delta_r, seed=s)

    runs = []
    for t in range(trials):
        s = seed + t
        try:
            est = runner(s)
        except ValueError as e:
            _fail(str(e))
        runs.append(
            {
                "seed": s,
                "point": _rat_json(est.point),
                "lower": _rat_json(est.lower),
                "upper": est.upper_decimal,
                "confidence": _rat_json(est.confidence),
                "samples_used": est.samples_used,
            }
        )

    if as_csv:
        with open(output, "w", newline="") if output else contextlib.nullcontext(sys.stdout) as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "point", "lower", "upper", "samples_used"])
            for r in runs:
                writer.writerow(
                    [r["seed"], r["point"]["decimal"], r["lower"]["decimal"], r["upper"], r["samples_used"]]
                )
    else:
        _emit({"metric": metric, "runs": runs}, output)
    sys.exit(EXIT_OK)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


@main.command("generate")
@click.option(
    "--family",
    type=click.Choice(
        ["three-point", "wdmc-local-min", "ring", "hypercube", "cdmc", "fibonacci", "dcma", "random"]
    ),
    required=True,
)
@click.option("--alpha", default="0", show_default=True, help="three-point offset (rational).")
@click.option("--eps", default="1/200", show_default=True, help="Construction parameter (rational).")
@click.option("--delta", default="1/10", show_default=True, help="Construction parameter (rational).")
@click.option("--k", type=int, default=3, show_default=True, help="fibonacci chain length / hypercube dimension count.")
@click.option("--blocks", type=int, default=1, show_default=True, help="ring block size N (4N points).")
@click.option("--target", type=str, default=None, help="hypercube: comma-separated indicator support of size n/2.")
@click.option("--variant", type=click.Choice(["before", "after"]), default="before", show_default=True, help="dcma: which of the paired ground truths to emit.")
@click.option("--n", "n_points", type=int, default=4, show_default=True, help="random: domain size.")
@click.option("--groups", "n_groups", type=int, default=2, show_default=True, help="random: group count.")
@click.option("--seed", type=int, default=0, show_default=True, help="random: seed.")
@click.option("--grid", type=int, default=20, show_default=True, help="random: value grid denominator.")
@click.option("-o", "--output", type=str, default=None)
def cmd_generate(family, alpha, eps, delta, k, blocks, target, variant, n_points, n_groups, seed, grid, output):
    """Write a named instance as JSON."""
    try:
        if family == "three-point":
            inst = gen_three_point(_parse_rat(alpha, "--alpha"))
        elif family == "wdmc-local-min":
            inst = gen_wdmc_local_min(_parse_rat(eps, "--eps"), _parse_rat(delta, "--delta"))
        elif family == "ring":
            inst = gen_ring(blocks)
        elif family == "hypercube":
            base, with_target = gen_hypercube(k)
            if target is None:
                inst = base
            else:
                inst = with_target(int(t) for t in target.split(","))
        elif family == "cdmc":
            inst = gen_cdmc_example()
        elif family == "fibonacci":
            inst = gen_fibonacci(k, _parse_rat(eps, "--eps"))
        elif family == "dcma":
            before, after = gen_dcma_example(_parse_rat(eps, "--eps"))
            inst = before if variant == "before" else after
        else:
            inst = gen_random(n_points, n_groups, seed=seed, grid_denominator=grid)
    except ValueError as e:
        _fail(str(e))
    text = dump_instance(inst)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        _echo(text)
    sys.exit(EXIT_OK)


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------


@main.command("landscape")
@click.argument("instance", type=str)
@click.option("--metric", type=click.Choice(list(METRICS)), default="wdmc", show_default=True)
@click.option("--radius", default="1/1000", show_default=True, help="Probe ball radius (rational).")
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--pretty", is_flag=True)
@click.option("-o", "--output", type=str, default=None)
def cmd_landscape(instance, metric, radius, trials, seed, pretty, output):
    """Probe a metric's landscape around the audited predictor."""
    inst = _load(instance)
    try:
        probe = local_min_probe(metric, inst, _parse_rat(radius, "--radius"), trials, seed, _budget())
    except BudgetExceeded as e:
        _fail(f"budget refusal: {e}", EXIT_BUDGET)
    except ValueError as e:
        _fail(str(e))
    payload = {
        "metric": probe.metric,
        "baseline": _rat_json(probe.baseline),
        "best_value": _rat_json(probe.best_value),
        "decreased": probe.decreased,
        "trials": probe.trials,
    }
    if probe.best_point is not None:
        payload["best_point"] = [_rat_json(v) for v in probe.best_point.values]
    if pretty:
        _echo(
            f"{probe.metric}: baseline {payload['baseline']['rational']}, "
            f"best {payload['best_value']['rational']}, decreased: {probe.decreased}"
        )
    else:
        _emit(payload, output)
    sys.exit(EXIT_OK)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command("verify")
@click.option("--suite", type=click.Choice(["paper"]), default="paper", show_default=True)
@click.option("--pretty", is_flag=True)
@click.option("-o", "--output", type=str, default=None)
def cmd_verify(suite, pretty, output):
    """Run the acceptance suite; exit 1 if any criterion fails."""
    results = run_suite()
    all_ok = all(r.ok for r in results)
    if pretty:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            _echo(f"{status}  {r.slug:40s} {r.elapsed:8.2f}s  {r.detail}")
        _echo(f"{'all criteria pass' if all_ok else 'FAILURES PRESENT'}")
    else:
        _emit(
            {
                "suite": suite,
                "passed": all_ok,
                "criteria": [
                    {
                        "slug": r.slug,
                        "passed": r.passed,
                        "within_budget": r.within_budget,
                        "elapsed_seconds": round(r.elapsed, 3),
                        "limit_seconds": r.limit_seconds,
                        "detail": r.detail,
                    }
                    for r in results
                ],
            },
            output,
        )
    sys.exit(EXIT_OK if all_ok else EXIT_FAIL)


if __name__ == "__main__":
    main()
