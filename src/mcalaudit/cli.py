"""Command-line front end.

Subcommands: audit, enumerate, estimate, generate, landscape, verify.
Output is JSON by default; `--pretty` switches to a human-readable table.
Exact rationals appear as "num/den" strings together with 30-significant-
digit decimal renderings (round-half-even; the decimals are views only).
`audit`, `estimate` and `landscape` render each distinct value once per
report, through a renderer that lives for the one command call.

Each `cmd_*` returns its report and exit code; the report is a dict, written
as `json.dumps(report, indent=2)` writes it, or finished text (a `--pretty`
table, `--csv` rows, a generated instance).  `main` alone writes the report,
after the work, to `-o` or to stdout, whatever its format, and alone maps a
command's `BudgetExceeded` to exit 3 and its other `ValueError` to exit 2.

Exit codes: 0 success, 1 acceptance failure, 2 usage or input error, 3
budget refusal.  The environment variable MCAL_AUDIT_BUDGET overrides the
budget of the multicalibration join in `audit`, `enumerate` and `landscape`.
Arguments are read by one prebuilt `argparse` parser, built from the table
`COMMANDS`.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import NoReturn, Optional

from .core import (
    BudgetExceeded,
    Instance,
    Subgroup,
    _brief,
    _rat_str,
    dump_instance,
    l1_distance,
    load_instance,
    rat,
    to_decimal,
    validate,
)
from .distances import METRICS, certify, local_min_probe
from .enumeration import DEFAULT_BUDGET, _degrees, calibrated_set, multicalibrated_set
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
# Upper bounds of the integer options, checked before any work: `audit
# --degree D` writes a D-entry map, each trial of `estimate` and `landscape`
# is a full run, and `generate` writes at most POINTS_CEILING points.
DEGREE_CEILING = 10_000
TRIALS_CEILING = 10_000
POINTS_CEILING = 10_000
GRID_CEILING = 10**6


def _fail(message: str, code: int = EXIT_INPUT) -> NoReturn:
    """Write `error: message` to stderr and exit with `code`."""
    sys.stderr.write(f"error: {message}\n")
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
        _fail(f"MCAL_AUDIT_BUDGET must be a positive integer, got {_brief(raw)}")
    return value


def _create(path: str):
    """`open(path, "w", newline="")`, which writes line ends as they are (CSV
    rows keep their CR LF); a path that cannot be written is an input error."""
    try:
        return open(path, "w", newline="")
    except OSError as e:
        _fail(f"cannot write {_brief(path)}: {e.strerror}")


def _renderer():
    """A renderer of Fractions for one report, as `{"rational": "p/q",
    "decimal": ...}`.  Each distinct value's two strings are rendered once
    and kept only as long as the renderer; every call returns a fresh dict,
    so no two leaves of the report are one object."""
    strings: dict[tuple[int, int], tuple[str, str]] = {}

    def rat_json(x: Fraction) -> dict:
        key = x.as_integer_ratio()
        pair = strings.get(key)
        if pair is None:
            pair = strings[key] = (_rat_str(x), to_decimal(x))
        return {"rational": pair[0], "decimal": pair[1]}

    return rat_json


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


def _parse_rat(value: str, name: str) -> Fraction:
    try:
        return rat(value)
    except (ValueError, TypeError) as e:
        _fail(f"bad {name}: {e}")


def _group_by_index(inst: Instance, index: int) -> Subgroup:
    if not 0 <= index < len(inst.groups):
        _fail(f"group index {_brief(index)} out of range (instance has {len(inst.groups)} groups)")
    return inst.groups[index]


def cmd_audit(instance, metrics, degree, dump_lp, pretty):
    """Compute distance metrics and membership flags for an instance."""
    inst = _load(instance)
    # in the order given, each metric once
    names = METRICS if metrics is None else metrics.split(",")
    requested = list(dict.fromkeys(m.strip() for m in names if m.strip()))
    if not requested:
        _fail(f"--metrics names no metric (choose from {','.join(METRICS)})")
    for m in requested:
        if m not in METRICS:
            _fail(f"unknown metric {_brief(m)}")
    budget = _budget()
    rat_json = _renderer()

    report: dict = {"metrics": {}, "membership": {}, "timing_seconds": {}}
    for m in requested:
        compute, target = METRICS[m]
        t0 = time.perf_counter()
        try:
            r = compute(inst, budget)
        except BudgetExceeded as e:
            entry = {"refused": str(e)}
        else:
            value, witness = r
            if target is None:
                entry = {"value": rat_json(value), "witness_group": list(witness.members)}
            else:
                certify(m, r, inst)
                entry = {"value": rat_json(value), "witness": [rat_json(v) for v in witness.values]}
        report["metrics"][m] = entry
        report["timing_seconds"][m] = round(time.perf_counter() - t0, 6)

    # each group's largest degree up to cap >= n, which is cap where f is calibrated on it
    cap = max(degree, inst.n)
    degrees = _degrees(inst.audited, inst, inst.groups, cap)
    per_group = [d == cap for d in degrees]
    report["membership"]["calibrated_per_group"] = per_group
    report["membership"]["multicalibrated"] = all(per_group)
    top = min(degrees)
    report["membership"]["multiaccurate"] = top >= 1
    report["membership"]["degree_r_multicalibrated"] = {str(r): r <= top for r in range(1, degree + 1)}
    report["l1_to_ground_truth"] = rat_json(
        l1_distance(inst.audited, inst.ground_truth, inst.marginal)
    )

    if dump_lp:
        with _create(dump_lp) as fh:
            fh.write(_dma_problem(inst).to_json() + "\n")

    if not pretty:
        return report, EXIT_OK
    lines = []
    for m, entry in report["metrics"].items():
        if "refused" in entry:
            lines.append(f"{m:6s}  REFUSED  {entry['refused']}\n")
        else:
            v = entry["value"]
            lines.append(f"{m:6s}  {v['rational']:>14s}  = {v['decimal']}\n")
    mm = report["membership"]
    lines.append(f"multicalibrated: {mm['multicalibrated']}  multiaccurate: {mm['multiaccurate']}\n")
    return "".join(lines), EXIT_OK


def cmd_enumerate(instance, which, group, pretty):
    """List the calibrated set of one group, or the multicalibrated set.

    Multicalibrated entries use null for coordinates no group constrains.
    """
    inst = _load(instance)
    if which == "cal":
        if group is None:
            _fail("--set cal requires --group")
        S = _group_by_index(inst, group)
        cs = calibrated_set(inst, S)
        rows = [[_rat_str(v) for v in cand] for cand in cs]
        payload = {"set": "cal", "group": list(S.members), "count": len(rows), "predictors": rows}
    else:
        if group is not None:
            _fail("--set mcal takes no --group")
        mc = multicalibrated_set(inst, budget=_budget())
        rows = [[None if v is None else _rat_str(v) for v in cand] for cand in mc]
        payload = {"set": "mcal", "count": len(rows), "predictors": rows}
    if not pretty:
        return payload, EXIT_OK
    table = "".join("  (" + ", ".join("free" if v is None else v for v in row) + ")\n" for row in rows)
    return f"{len(rows)} predictors\n{table}", EXIT_OK


def cmd_estimate(instance, metric, group, eps, delta, seed, trials, as_csv):
    """Sampling-based interval estimates; deterministic given the seed."""
    inst = _load(instance)
    eps_r = _parse_rat(eps, "--eps")
    delta_r = _parse_rat(delta, "--delta")
    if metric == "dce":
        if group is None:
            _fail("--metric dce requires --group")
        S = _group_by_index(inst, group)
        runner = lambda s: dce_interval(inst, S, eps_r, delta_r, seed=s)
    else:
        if group is not None:
            _fail("--metric dimc takes no --group")
        runner = lambda s: dimc_interval(inst, eps_r, delta_r, seed=s)

    rat_json = _renderer()
    runs = []
    for t in range(trials):
        s = seed + t
        est = runner(s)
        runs.append(
            {
                "seed": s,
                "point": rat_json(est.point),
                "lower": rat_json(est.lower),
                "upper": est.upper_decimal,
                "confidence": rat_json(est.confidence),
                "samples_used": est.samples_used,
            }
        )

    if not as_csv:
        return {"metric": metric, "runs": runs}, EXIT_OK
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["seed", "point", "lower", "upper", "samples_used"])
    for r in runs:
        writer.writerow([r["seed"], r["point"]["decimal"], r["lower"]["decimal"], r["upper"], r["samples_used"]])
    return text.getvalue(), EXIT_OK


def cmd_generate(family, alpha, eps, delta, k, blocks, target, variant, n_points, n_groups, seed, grid):
    """Write a named instance as JSON."""
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
            try:
                members = [int(t) for t in target.split(",")]
            except ValueError:
                _fail(f"bad --target: {_brief(target)} is not a comma-separated list of integers")
            inst = with_target(members)
    elif family == "cdmc":
        inst = gen_cdmc_example()
    elif family == "fibonacci":
        inst = gen_fibonacci(k, _parse_rat(eps, "--eps"))
    elif family == "dcma":
        before, after = gen_dcma_example(_parse_rat(eps, "--eps"))
        inst = before if variant == "before" else after
    else:
        inst = gen_random(n_points, n_groups, seed=seed, grid_denominator=grid)
    return dump_instance(inst) + "\n", EXIT_OK


def cmd_landscape(instance, metric, radius, trials, seed, pretty):
    """Probe a metric's landscape around the audited predictor."""
    inst = _load(instance)
    probe = local_min_probe(metric, inst, _parse_rat(radius, "--radius"), trials, seed, _budget())
    rat_json = _renderer()
    payload = {
        "metric": probe.metric,
        "baseline": rat_json(probe.baseline),
        "best_value": rat_json(probe.best_value),
        "decreased": probe.decreased,
        "trials": probe.trials,
    }
    if probe.best_point is not None:
        payload["best_point"] = [rat_json(v) for v in probe.best_point.values]
    if not pretty:
        return payload, EXIT_OK
    return (
        f"{probe.metric}: baseline {payload['baseline']['rational']}, "
        f"best {payload['best_value']['rational']}, decreased: {probe.decreased}\n"
    ), EXIT_OK


def cmd_verify(suite, pretty):
    """Run the acceptance suite; exit 1 if any criterion fails."""
    results = run_suite()
    all_ok = all(r.ok for r in results)
    code = EXIT_OK if all_ok else EXIT_FAIL
    if pretty:
        lines = [f"{'PASS' if r.ok else 'FAIL'}  {r.slug:40s} {r.elapsed:8.2f}s  {r.detail}\n" for r in results]
        return "".join(lines) + ("all criteria pass\n" if all_ok else "FAILURES PRESENT\n"), code
    criteria = [
        {
            "slug": r.slug,
            "passed": r.passed,
            "within_budget": r.within_budget,
            "elapsed_seconds": round(r.elapsed, 3),
            "limit_seconds": r.limit_seconds,
            "detail": r.detail,
        }
        for r in results
    ]
    return {"suite": suite, "passed": all_ok, "criteria": criteria}, code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors written as every other input error."""

    def error(self, message: str) -> NoReturn:
        _fail(f"{message} (see '{self.prog} --help')")


def _opt(*flags: str, bounds: tuple = (None, None), **kwargs):
    """One row of the option table: argparse's flags and keywords.  An
    integer option (`type=int`) must lie within its inclusive `bounds`
    (None for no bound), and a `choices` option in its choices; both are
    checked as the argument is parsed, before any work, and a bad value is
    quoted briefly."""
    name = flags[-1]
    if kwargs.get("type") is int:
        lo, hi = bounds

        def read(text: str) -> int:
            try:
                value = int(text)
            except ValueError:
                _fail(f"{name} must be an integer, got {_brief(text)}")
            if lo is not None and value < lo:
                _fail(f"{name} must be >= {lo}")
            if hi is not None and value > hi:
                _fail(f"{name} must be <= {hi}")
            return value

        kwargs["type"] = read
    elif "choices" in kwargs:
        choices = kwargs.pop("choices")

        def read(text: str) -> str:
            if text not in choices:
                _fail(f"{name} must be one of {', '.join(choices)}, got {_brief(text)}")
            return text

        kwargs.update(type=read, metavar="{" + ",".join(choices) + "}")
    return flags, kwargs


_INSTANCE = _opt("instance", help="Instance JSON file, or - for standard input.")
_PRETTY = _opt("--pretty", action="store_true", help="Human-readable output instead of JSON.")
_OUTPUT = _opt("-o", "--output", help="Write the report to this path.")
_SEED = _opt("--seed", type=int, default=0, help="Seed (default: 0).")

# name: (command, options).  Rationals are read by the command that uses them.
COMMANDS = {
    "audit": (
        cmd_audit,
        (
            _INSTANCE,
            _opt("--metrics", help=f"Comma-separated subset of {','.join(METRICS)} (default: all)."),
            _opt(
                "--degree",
                type=int,
                bounds=(1, DEGREE_CEILING),
                default=1,
                help="Check degree-r membership for r = 1..DEGREE (default: 1).",
            ),
            _opt("--dump-lp", help="Write the multiaccuracy-distance LP as JSON to this path."),
            _PRETTY,
            _OUTPUT,
        ),
    ),
    "enumerate": (
        cmd_enumerate,
        (
            _INSTANCE,
            _opt("--set", dest="which", choices=("cal", "mcal"), default="mcal", help="Which set (default: mcal)."),
            _opt("--group", type=int, help="Group index for --set cal."),
            _PRETTY,
            _OUTPUT,
        ),
    ),
    "estimate": (
        cmd_estimate,
        (
            _INSTANCE,
            _opt("--metric", choices=("dce", "dimc"), required=True),
            _opt("--group", type=int, help="Group index (dce only, and required there)."),
            _opt("--eps", default="1/50", help="Interval half-width parameter (rational; default: 1/50)."),
            _opt("--delta", default="1/20", help="Failure probability (rational; default: 1/20)."),
            _SEED,
            _opt(
                "--trials",
                type=int,
                bounds=(1, TRIALS_CEILING),
                default=1,
                help="Independent runs with seeds seed, seed+1, ... (default: 1).",
            ),
            _opt("--csv", dest="as_csv", action="store_true", help="Emit CSV rows instead of JSON."),
            _OUTPUT,
        ),
    ),
    "generate": (
        cmd_generate,
        (
            _opt(
                "--family",
                choices=("three-point", "wdmc-local-min", "ring", "hypercube", "cdmc", "fibonacci", "dcma", "random"),
                required=True,
            ),
            _opt("--alpha", default="0", help="three-point offset (rational; default: 0)."),
            _opt("--eps", default="1/200", help="Construction parameter (rational; default: 1/200)."),
            _opt("--delta", default="1/10", help="Construction parameter (rational; default: 1/10)."),
            # fibonacci writes 2k + 2 points, ring 4N and random n
            _opt(
                "--k",
                type=int,
                bounds=(None, POINTS_CEILING // 2 - 1),
                default=3,
                help="fibonacci chain length / hypercube dimension count (default: 3).",
            ),
            _opt(
                "--blocks",
                type=int,
                bounds=(None, POINTS_CEILING // 4),
                default=1,
                help="ring block size N, 4N points (default: 1).",
            ),
            _opt("--target", help="hypercube: comma-separated indicator support of size n/2."),
            _opt(
                "--variant",
                choices=("before", "after"),
                default="before",
                help="dcma: which of the paired ground truths to emit (default: before).",
            ),
            _opt(
                "--n",
                dest="n_points",
                type=int,
                bounds=(None, POINTS_CEILING),
                default=4,
                help="random: domain size (default: 4).",
            ),
            _opt("--groups", dest="n_groups", type=int, default=2, help="random: group count (default: 2)."),
            _SEED,
            _opt(
                "--grid",
                type=int,
                bounds=(None, GRID_CEILING),
                default=20,
                help="random: value grid denominator (default: 20).",
            ),
            _OUTPUT,
        ),
    ),
    "landscape": (
        cmd_landscape,
        (
            _INSTANCE,
            _opt("--metric", choices=tuple(METRICS), default="wdmc", help="Metric to probe (default: wdmc)."),
            _opt("--radius", default="1/1000", help="Probe ball radius (rational; default: 1/1000)."),
            _opt("--trials", type=int, bounds=(1, TRIALS_CEILING), default=500, help="Probe count (default: 500)."),
            _SEED,
            _PRETTY,
            _OUTPUT,
        ),
    ),
    "verify": (cmd_verify, (_opt("--suite", choices=("paper",), default="paper"), _PRETTY, _OUTPUT)),
}


def _build_parser(prog: str) -> _Parser:
    parser = _Parser(
        prog=prog, description="Exact auditing of calibration and multicalibration distances.", allow_abbrev=False
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (command, options) in COMMANDS.items():
        sub = commands.add_parser(
            name, help=command.__doc__.split("\n")[0], description=command.__doc__, allow_abbrev=False
        )
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    return parser


_PARSER = _build_parser("mcalaudit")


def main(args=None, prog_name: Optional[str] = None) -> NoReturn:
    """Run `mcalaudit <args>` (by default sys.argv[1:]), write the command's
    report to `-o` or stdout, and exit with its code.  `prog_name` names the
    program in usage messages."""
    argv = sys.argv[1:] if args is None else list(args)
    parser = _PARSER if prog_name in (None, _PARSER.prog) else _build_parser(prog_name)
    if not argv:
        parser.print_help()
        sys.exit(EXIT_INPUT)
    if argv[0] not in COMMANDS and argv[0] not in ("-h", "--help"):
        parser.error(f"no such command {_brief(argv[0])}; choose from {', '.join(COMMANDS)}")
    parsed, extra = parser.parse_known_args(argv)
    if extra:
        _fail(f"unrecognized arguments: {_brief(' '.join(extra))} (see '{parser.prog} {argv[0]} --help')")
    options = vars(parsed)
    output = options.pop("output")
    try:
        report, code = COMMANDS[options.pop("command")][0](**options)
    except BudgetExceeded as e:
        _fail(f"budget refusal: {e}", EXIT_BUDGET)
    except ValueError as e:
        _fail(str(e))
    if isinstance(report, dict):
        chunks: list[str] = []
        _write_json(report, "", chunks)
        chunks.append("\n")
        report = "".join(chunks)
    if output:
        with _create(output) as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    sys.exit(code)


if __name__ == "__main__":
    main()
