import contextlib
import gc
import io
import json
import re
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from mcalaudit import LPProblem, lp_solve
from mcalaudit.cli import _write_json, main
from mcalaudit.core import dump_instance, instance_from_dict
from mcalaudit.instances import gen_three_point


def _run(args, **kwargs):
    return invoke(args, **kwargs)


def _tp_json(alpha="0"):
    return dump_instance(gen_three_point(alpha))


def test_generate_round_trip(tmp_path):
    out = tmp_path / "inst.json"
    r = _run(["generate", "--family", "three-point", "--alpha", "1/20", "-o", str(out)])
    assert r.exit_code == 0
    inst = instance_from_dict(json.loads(out.read_text()))
    assert inst == gen_three_point("1/20")


def test_generate_all_families(tmp_path):
    cases = [
        ["--family", "wdmc-local-min", "--eps", "1/200", "--delta", "1/10"],
        ["--family", "ring", "--blocks", "2"],
        ["--family", "hypercube", "--k", "3"],
        ["--family", "hypercube", "--k", "3", "--target", "0,1"],
        ["--family", "cdmc"],
        ["--family", "fibonacci", "--k", "3", "--eps", "1/100"],
        ["--family", "dcma", "--eps", "1/100", "--variant", "after"],
        ["--family", "random", "--n", "5", "--groups", "2", "--seed", "7"],
    ]
    for args in cases:
        r = _run(["generate"] + args)
        assert r.exit_code == 0, r.output
        json.loads(r.output)  # valid JSON instance


def test_generate_bad_parameter_exits_2():
    r = _run(["generate", "--family", "three-point", "--alpha", "1/2"])
    assert r.exit_code == 2


@pytest.mark.parametrize("seed", range(4))
def test_generate_random_refuses_a_grid_below_1(seed):
    r = _run(["generate", "--family", "random", "--grid", "0", "--seed", str(seed)])
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: grid denominator must be >= 1")


def test_audit_three_point(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run(["audit", str(p), "--metrics", "dmc,dimc,wdmc", "--degree", "2"])
    assert r.exit_code == 0, r.output
    report = json.loads(r.output)
    assert report["metrics"]["dmc"]["value"]["rational"] == "0/1"
    assert report["metrics"]["dimc"]["value"]["rational"] == "3/10"
    assert report["metrics"]["dimc"]["value"]["decimal"] == "0.3"
    assert report["membership"]["multicalibrated"] is True
    assert report["membership"]["degree_r_multicalibrated"]["2"] is True


def test_audit_dump_lp_and_pretty(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    lp = tmp_path / "lp.json"
    r = _run(["audit", str(p), "--metrics", "dma", "--dump-lp", str(lp), "--pretty"])
    assert r.exit_code == 0, r.output
    dumped = json.loads(lp.read_text())
    assert all("rel" not in c for c in dumped["constraints"])
    assert None not in dumped["upper"]
    assert "dma" in r.output
    # The dump is the LP that dma solves: rebuilt and solved, it has dma's value.
    problem = LPProblem(
        tuple(Fraction(c) for c in dumped["objective"]),
        tuple((tuple(Fraction(a) for a in c["coeffs"]), Fraction(c["rhs"])) for c in dumped["constraints"]),
        tuple(Fraction(hi) for hi in dumped["upper"]),
    )
    report = json.loads(_run(["audit", str(p), "--metrics", "dma"]).output)
    assert lp_solve(problem).optimum == Fraction(report["metrics"]["dma"]["value"]["rational"])


def test_audit_invalid_instance_exits_2():
    r = _run(["audit", "-"], input='{"n": 2, "marginal": ["1/2", "1/3"], "p_star": ["0", "0"], "f": ["0", "0"], "groups": [[0, 1]]}')
    assert r.exit_code == 2
    assert "invalid instance" in r.output


def test_audit_missing_file_exits_2():
    r = _run(["audit", "/nonexistent/instance.json"])
    assert r.exit_code == 2


def test_audit_budget_note(tmp_path, monkeypatch):
    monkeypatch.setenv("MCAL_AUDIT_BUDGET", "1")
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run(["audit", str(p), "--metrics", "dmc,dimc"])
    assert r.exit_code == 0, r.output
    report = json.loads(r.output)
    assert "refused" in report["metrics"]["dmc"]
    assert "value" in report["metrics"]["dimc"]  # dimc does not use the join


def test_enumerate_mcal(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run(["enumerate", str(p), "--set", "mcal"])
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert payload["count"] == 2
    assert ["1/2", "1/2", "1/2"] in payload["predictors"]


def test_enumerate_cal_requires_group(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    assert _run(["enumerate", str(p), "--set", "cal"]).exit_code == 2
    r = _run(["enumerate", str(p), "--set", "cal", "--group", "0"])
    assert r.exit_code == 0
    assert json.loads(r.output)["count"] == 2


def test_enumerate_budget_refusal_exits_3(tmp_path, monkeypatch):
    monkeypatch.setenv("MCAL_AUDIT_BUDGET", "1")
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run(["enumerate", str(p), "--set", "mcal"])
    assert r.exit_code == 3


def test_estimate_deterministic_output(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    args = ["estimate", str(p), "--metric", "dce", "--group", "1", "--eps", "1/10", "--delta", "1/10", "--seed", "5"]
    r1, r2 = _run(args), _run(args)
    assert r1.exit_code == 0, r1.output
    assert r1.output == r2.output  # byte-identical given the seed
    run = json.loads(r1.output)["runs"][0]
    assert set(run) == {"seed", "point", "lower", "upper", "confidence", "samples_used"}


def test_estimate_csv(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    r = _run(
        ["estimate", str(p), "--metric", "dimc", "--eps", "1/10", "--delta", "1/10",
         "--seed", "2", "--trials", "2", "--csv"]
    )
    assert r.exit_code == 0, r.output
    lines = r.output.strip().splitlines()
    assert lines[0] == "seed,point,lower,upper,samples_used"
    assert len(lines) == 3


def test_estimate_dce_requires_group(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    assert _run(["estimate", str(p), "--metric", "dce"]).exit_code == 2


def test_estimate_bad_eps_exits_2(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run(["estimate", str(p), "--metric", "dimc", "--eps", "1/2", "--delta", "1/10"])
    assert r.exit_code == 2  # eps above the smallest cell mass


@pytest.mark.parametrize("metric", [["--metric", "dce", "--group", "1"], ["--metric", "dimc"]])
def test_estimate_eps_beyond_int64_draws_exits_2(tmp_path, metric):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    r = _run(["estimate", str(p), *metric, "--eps", "1/10000000000"])
    assert r.exit_code == 2, r.output
    assert "error: batch size" in r.output and "int64" in r.output


def test_landscape(tmp_path):
    p = tmp_path / "local.json"
    r = _run(["generate", "--family", "wdmc-local-min", "-o", str(p)])
    assert r.exit_code == 0
    r = _run(["landscape", str(p), "--metric", "wdmc", "--trials", "50", "--seed", "3"])
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert payload["decreased"] is False
    assert payload["baseline"]["rational"] == "1/200"


def test_bad_budget_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MCAL_AUDIT_BUDGET", "zero")
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run(["audit", str(p), "--metrics", "dmc"])
    assert r.exit_code != 0


def test_estimate_csv_output_file_is_complete(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    out = tmp_path / "runs.csv"
    r = _run(
        ["estimate", str(p), "--metric", "dce", "--group", "1", "--eps", "1/10", "--delta", "1/10",
         "--seed", "2", "--trials", "3", "--csv", "-o", str(out)]
    )
    assert r.exit_code == 0, r.output
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,point,lower,upper,samples_used"
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "3", "4"]


def _audit_with_patched_dimc(tmp_path, monkeypatch, fake):
    import mcalaudit.distances

    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    real = mcalaudit.distances.dimc
    monkeypatch.setattr(mcalaudit.distances, "dimc", lambda inst: fake(inst, real(inst)))
    return _run(["audit", str(p), "--metrics", "dimc"])


def test_audit_certifies_the_reported_value(tmp_path, monkeypatch):
    from mcalaudit import DistanceResult, WitnessError

    r = _audit_with_patched_dimc(
        tmp_path, monkeypatch, lambda inst, res: DistanceResult(res.value + Fraction(1, 100), res.witness)
    )
    assert isinstance(r.exception, WitnessError)
    assert "l1 distance" in str(r.exception)


def test_audit_certifies_witness_membership(tmp_path, monkeypatch):
    from mcalaudit import DistanceResult, WitnessError

    # the audited predictor is at distance 0 from itself but not calibrated
    r = _audit_with_patched_dimc(tmp_path, monkeypatch, lambda inst, res: DistanceResult(Fraction(0), inst.audited))
    assert isinstance(r.exception, WitnessError)
    assert "target set" in str(r.exception)


def test_certification_survives_optimized_mode(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import mcalaudit.cli as cli\n"
        "import mcalaudit.distances as distances\n"
        "from mcalaudit import DistanceResult\n"
        "real = distances.dimc\n"
        "distances.dimc = lambda inst: DistanceResult(real(inst).value + Fraction(1, 100), real(inst).witness)\n"
        f"cli.main(['audit', {str(p)!r}, '--metrics', 'dimc'])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60
    )
    assert proc.returncode != 0
    assert "WitnessError" in proc.stderr


def test_enumerate_cal_refuses_above_the_partition_ceiling(tmp_path):
    n = 13
    inst = {"n": n, "marginal": [f"1/{n}"] * n, "p_star": ["1/2"] * n, "f": ["0"] * n, "groups": [list(range(n))]}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(inst))
    r = _run(["enumerate", str(p), "--set", "cal", "--group", "0"])
    assert r.exit_code == 3
    assert "partition ceiling" in r.output


def test_in_process_stdout_is_not_kept_alive(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exit_info:
        main(["audit", str(p), "--metrics", "wdma,dma"])
    assert exit_info.value.code == 0
    assert json.loads(buf.getvalue())["metrics"]["dma"]
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


def test_audit_uncovered_domain_exits_2():
    inst = '{"n":3,"marginal":["1/3","1/3","1/3"],"p_star":["1/2","1/4","0"],"f":["0","0","0"],"groups":[[0,1]]}'
    r = _run(["audit", "-"], input=inst)
    assert r.exit_code == 2, r.output
    assert "error: groups must cover the domain" in r.output
    assert _run(["audit", "-", "--metrics", "wdmc,dmc,wdma,dma,dcma"], input=inst).exit_code == 0


def test_landscape_honours_the_budget(tmp_path, monkeypatch):
    monkeypatch.setenv("MCAL_AUDIT_BUDGET", "1")
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run(["landscape", str(p), "--metric", "dmc", "--trials", "1"])
    assert r.exit_code == 3, r.output
    assert "error: budget refusal: per-group Bell-number product 4 exceeds budget 1" in r.output


def test_landscape_dcma(tmp_path):
    p = tmp_path / "dcma.json"
    assert _run(["generate", "--family", "dcma", "-o", str(p)]).exit_code == 0
    r = _run(["landscape", str(p), "--metric", "dcma", "--trials", "5"])
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert payload["metric"] == "dcma" and payload["trials"] == 5
    audit = json.loads(_run(["audit", str(p), "--metrics", "dcma"]).output)
    assert payload["baseline"] == audit["metrics"]["dcma"]["value"]


@pytest.mark.parametrize("raw", ["zero", "0", "-3"])
@pytest.mark.parametrize(
    "command",
    [
        ["audit", "--metrics", "wdmc"],
        ["enumerate", "--set", "mcal"],
        ["landscape", "--metric", "wdmc", "--trials", "1"],
    ],
    ids=["audit", "enumerate-mcal", "landscape"],
)
def test_malformed_budget_env_is_an_input_error(tmp_path, monkeypatch, command, raw):
    monkeypatch.setenv("MCAL_AUDIT_BUDGET", raw)
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run([command[0], str(p), *command[1:]])
    assert r.exit_code == 2, r.output
    assert f"error: MCAL_AUDIT_BUDGET must be a positive integer, got {raw!r}\n" in r.output


def test_refusals_give_no_override_advice(tmp_path, monkeypatch):
    n = 13
    inst = {"n": n, "marginal": [f"1/{n}"] * n, "p_star": ["1/2"] * n, "f": ["0"] * n, "groups": [list(range(n))]}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(inst))
    r = _run(["enumerate", str(big), "--set", "cal", "--group", "0"])
    assert r.exit_code == 3
    assert r.output == "error: budget refusal: k=13 exceeds the partition ceiling 12 (Bell(12) = 4213597)\n"

    monkeypatch.setenv("MCAL_AUDIT_BUDGET", "1")
    tp = tmp_path / "tp.json"
    tp.write_text(_tp_json("0"))
    join = "per-group Bell-number product 4 exceeds budget 1; raise the budget (MCAL_AUDIT_BUDGET in the CLI)"
    r = _run(["enumerate", str(tp), "--set", "mcal"])
    assert r.exit_code == 3
    assert r.output == f"error: budget refusal: {join}\n"
    r = _run(["audit", str(tp), "--metrics", "dmc"])
    assert json.loads(r.output)["metrics"]["dmc"] == {"refused": join}
    assert "override" not in r.output


def _instance_text(**fields):
    d = {"n": 2, "marginal": ["1/2", "1/2"], "p_star": ["1/2", "1/2"], "f": ["1/2", "1/2"], "groups": [[0, 1]]}
    return json.dumps({**d, **fields})


def test_audit_refuses_a_huge_n_with_short_vectors_at_once():
    # validate reads the vectors' own entries, never range(n)
    start = time.perf_counter()
    three = {"marginal": ["1/3"] * 3, "p_star": ["0"] * 3, "f": ["0"] * 3, "groups": [[0, 1, 2]]}
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(n=10**9, **three))
    assert time.perf_counter() - start < 1
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: invalid instance: marginal has 3 entries, domain has 1000000000")


def test_audit_refuses_a_long_decimal_exponent_at_once():
    # Fraction("1e-2000000") alone takes about a second and builds 10**2000000.
    start = time.perf_counter()
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(f=["1e-2000000", "1/2"]))
    assert time.perf_counter() - start < 0.5
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: cannot read instance: decimal exponent beyond +-4300")
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(f=["1e-3", "1/2"]))
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("exponent", ["9" * 5000, "0" * 5000 + "1"])
def test_audit_refuses_an_exponent_of_many_digits_in_its_own_words(exponent):
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(f=["1e" + exponent, "1/2"]))
    assert r.exit_code == 2, r.output
    assert r.output == "error: cannot read instance: decimal exponent longer than 4300 characters\n"


@pytest.mark.parametrize("text", ["1" * 5000, "0." + "1" * 5000, "1/" + "3" * 5000])
def test_audit_refuses_a_long_run_of_digits_in_its_own_words(text):
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(f=[text, "1/2"]))
    assert r.exit_code == 2, r.output
    assert r.output == "error: cannot read instance: more than 4300 digits in a row\n"


@pytest.mark.parametrize("field", ['"n": 2', '"groups": [[0, 1'], ids=["n", "group-index"])
@pytest.mark.parametrize("digits", ["1" * 5000, "-" + "1" * 4301], ids=["5000-digits", "minus-4301-digits"])
def test_audit_refuses_a_json_integer_of_many_digits_in_its_own_words(field, digits):
    # json reads the integer before rat or validate sees it
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text().replace(field, field[:-1] + digits))
    assert r.exit_code == 2, r.output
    assert r.output == "error: cannot read instance: JSON integer of more than 4300 digits\n"


@pytest.mark.parametrize("field", ['"n": 2', '"groups": [[0, 1'], ids=["n", "group-index"])
def test_audit_reads_a_json_integer_of_4300_digits(field):
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text().replace(field, field[:-1] + "1" * 4300))
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: invalid instance: ")


@pytest.mark.parametrize("field", ["groups", "marginal", "n"])
@pytest.mark.parametrize(
    "command",
    [
        ["audit", "-", "--metrics", "wdma"],
        ["enumerate", "-", "--set", "cal", "--group", "0"],
        ["estimate", "-", "--metric", "dimc"],
        ["landscape", "-", "--metric", "wdma", "--trials", "1"],
    ],
    ids=lambda c: c[0],
)
def test_deeply_nested_json_is_an_input_error(command, field):
    # json meets a RecursionError long before 50,000 levels
    depth = 50_000
    text = _instance_text(**{field: "deep"}).replace('"deep"', "[" * depth + "]" * depth)
    r = _run(command, input=text)
    assert r.exit_code == 2, r.output
    assert r.output == "error: cannot read instance: JSON nested too deeply\n"


def test_audit_refuses_a_huge_degree_at_once(tmp_path):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    start = time.perf_counter()
    r = _run(["audit", str(p), "--metrics", "wdma", "--degree", "1000000000"])
    assert time.perf_counter() - start < 1
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: --degree must be <= 10000")
    r = _run(["audit", str(p), "--metrics", "wdma", "--degree", "10000"])
    assert r.exit_code == 0, r.output
    assert len(json.loads(r.output)["membership"]["degree_r_multicalibrated"]) == 10000


def test_audit_refuses_a_repeated_group_member():
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(groups=[[0, 0, 1]]))
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: cannot read instance: repeated member in group (0, 0, 1)")


@pytest.mark.parametrize(
    "fields",
    [
        {"f": ["x" * 100_000, "1/2"]},
        {"n": "7" * 4000},
        {"marginal": ["1/" + "0" * 1000, "1/2"]},
        {"p_star": [["1/2"] * 20_000, "1/2"]},
        {"groups": [[1] + [0] * 20_000]},
        {"groups": [list(range(2000)), list(range(2000))]},
    ],
    ids=["long-literal", "long-n", "long-zero-denominator", "long-list-value", "long-repeat", "long-duplicate"],
)
def test_cannot_read_instance_quotes_a_bounded_prefix_of_the_value(fields):
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(**fields))
    assert r.exit_code == 2, r.output[:300]
    assert r.output.startswith("error: cannot read instance: ")
    assert r.output.count("\n") == 1 and len(r.output.encode()) < 300, r.output[:300]
    assert "characters)" in r.output


def test_audit_zero_denominator_is_an_input_error():
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(marginal=["1/0", "1/2"]))
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: cannot read instance: ")


@pytest.mark.parametrize("field", ["marginal", "p_star", "f"])
def test_audit_refuses_json_true_as_a_number(field):
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(**{field: [True, "1/2"]}))
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: cannot read instance: ")
    assert "bool" in r.output


@pytest.mark.parametrize(
    "fields",
    [{"n": 2.7}, {"n": True}, {"groups": [[0, 1.9]]}, {"groups": [[0, True]]}],
    ids=["float-n", "bool-n", "float-index", "bool-index"],
)
def test_audit_refuses_non_integer_n_and_group_indices(fields):
    r = _run(["audit", "-", "--metrics", "wdma"], input=_instance_text(**fields))
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: cannot read instance: ")
    assert "must be an integer" in r.output


def test_audit_degree_flags_stop_at_the_domain_size(tmp_path, monkeypatch):
    import mcalaudit.cli as cli
    from mcalaudit.enumeration import is_degree_r_multicalibrated

    # unbiased on the group (degree 1) but correlated with f (degree >= 2)
    d = {"n": 3, "marginal": ["1/3"] * 3, "p_star": ["0", "1/2", "1"], "f": ["1/4", "1/2", "3/4"], "groups": [[0, 1, 2]]}
    p = tmp_path / "d.json"
    p.write_text(json.dumps(d))
    inst = instance_from_dict(d)
    calls = []

    def spy(f, inst, r):
        calls.append(r)
        return is_degree_r_multicalibrated(f, inst, r)

    monkeypatch.setattr(cli, "is_degree_r_multicalibrated", spy)
    r = _run(["audit", str(p), "--metrics", "wdma", "--degree", "50"])
    assert r.exit_code == 0, r.output
    assert len(calls) <= inst.n
    flags = json.loads(r.output)["membership"]["degree_r_multicalibrated"]
    assert flags == {str(r): is_degree_r_multicalibrated(inst.audited, inst, r) for r in range(1, 51)}
    assert flags["1"] and not flags["2"]


_json_scalars = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "é", "\U0001f600"]),
    st.integers(),
    st.integers(min_value=2**64, max_value=10**400) | st.integers(min_value=-(10**400), max_value=-(2**64)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
_json_trees = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_json_trees)
def test_report_writer_writes_what_json_dumps_indent_2_writes(tree):
    out: list[str] = []
    _write_json(tree, "", out)
    assert "".join(out) == json.dumps(tree, indent=2)


_LONG_SEED = "5" * 5001


@pytest.mark.parametrize(
    "args,message",
    [
        (["landscape", "TP", "--metric", "wdma", "--trials", "1000000000"], "error: --trials must be <= 10000\n"),
        (["estimate", "TP", "--metric", "dimc", "--trials", "1000000000"], "error: --trials must be <= 10000\n"),
        (["generate", "--family", "random", "--n", "100000000", "--groups", "3"], "error: --n must be <= 10000\n"),
        (["generate", "--family", "ring", "--blocks", "100000000"], "error: --blocks must be <= 2500\n"),
        (["generate", "--family", "fibonacci", "--k", "100000"], "error: --k must be <= 4999\n"),
        (["generate", "--family", "random", "--grid", "10000000"], "error: --grid must be <= 1000000\n"),
        (
            ["landscape", "TP", "--metric", "wdma", "--seed", _LONG_SEED],
            f"error: --seed must be an integer, got '{'5' * 39}... (5003 characters)\n",
        ),
    ],
    ids=["landscape-trials", "estimate-trials", "random-n", "ring-blocks", "fibonacci-k", "random-grid", "long-seed"],
)
def test_option_bounds_refuse_before_any_work(tmp_path, args, message):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    start = time.perf_counter()
    r = _run([str(p) if a == "TP" else a for a in args])
    assert time.perf_counter() - start < 1
    assert r.exit_code == 2, r.output[:300]
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert r.output == message


def test_option_bounds_are_inclusive():
    r = _run(["generate", "--family", "ring", "--blocks", "2500"])
    assert r.exit_code == 0, r.output[:300]
    assert json.loads(r.output)["n"] == 10_000


_LONG = "3" * 4000 + "/7"
_CUT = f"{'3' * 40}... (4002 characters)"
_LONG_SUM = str(Fraction(1, 10) + 6 * Fraction(_LONG))


@pytest.mark.parametrize(
    "args,message",
    [
        (
            ["fibonacci", "--k", "4999"],
            "error: need eps in (0, 1/(10000*F(5000))) for F(i) the i-th Fibonacci number, got 1/200\n",
        ),
        (["fibonacci", "--k", "3", "--eps", "1/10"], "error: need eps in (0, 1/24), got 1/10\n"),
        (["fibonacci", "--k", "3", "--eps", _LONG], f"error: need eps in (0, 1/24), got {_CUT}\n"),
        (["three-point", "--alpha", _LONG], f"error: alpha must lie in [0, 1/5], got {_CUT}\n"),
        (["dcma", "--eps", _LONG], f"error: eps must lie in (0, 1/10], got {_CUT}\n"),
        (["wdmc-local-min", "--delta", _LONG], f"error: need delta in [0, 1/2), got {_CUT}\n"),
        (
            ["wdmc-local-min", "--eps", _LONG],
            f"error: need delta + 6*eps <= 1/2, got {_LONG_SUM[:40]}... ({len(_LONG_SUM)} characters)\n",
        ),
    ],
    ids=["fibonacci-largest-k", "fibonacci-small-k", "fibonacci-long-eps", "three-point", "dcma", "wdmc-delta", "wdmc-eps"],
)
def test_generators_quote_their_parameters_briefly(args, message):
    # The fibonacci limit 1/(2(k+1)F(k+1)) has ~1,050 digits at k = 4999,
    # and a rational parameter may have 4,000.
    r = _run(["generate", "--family", *args])
    assert r.exit_code == 2
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert r.output == message and len(r.output.encode()) < 300


@pytest.mark.parametrize("raw", ["9" * 5000, "x" * 5000])
def test_a_long_budget_env_is_quoted_briefly(tmp_path, monkeypatch, raw):
    monkeypatch.setenv("MCAL_AUDIT_BUDGET", raw)
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run(["audit", str(p), "--metrics", "dmc"])
    assert r.exit_code == 2, r.output[:300]
    assert r.output.startswith("error: MCAL_AUDIT_BUDGET must be a positive integer, got '")
    assert r.output.endswith("... (5002 characters)\n") and len(r.output) < 300


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["bogus"],
        ["x" * 5000],
        ["audit"],
        ["audit", "TP", "--nope"],
        ["audit", "TP", "extra"],
        ["audit", "TP", "--degree", "x"],
        ["audit", "TP", "--degree"],
        ["audit", "TP", "--metrics", "dmc,bogus"],
        ["audit", "TP", "--pre"],
        ["estimate", "TP", "--metric", "foo"],
        ["estimate", "TP"],
        ["enumerate", "TP", "--set", "x" * 5000],
        ["generate"],
        ["generate", "--family", "hypercube", "--k", "3", "--target", "0,x"],
        ["verify", "--suite", "other"],
    ],
)
def test_usage_errors_exit_2_in_the_programs_words(tmp_path, args):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run([str(p) if a == "TP" else a for a in args])
    assert r.exit_code == 2, r.output[:300]
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    if args:
        assert r.stdout == "" and r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.output[:300]
        assert len(r.stderr) < 300
    else:
        assert r.stdout.startswith("usage: mcalaudit")


@pytest.mark.parametrize("args", [["--help"], ["audit", "--help"], ["estimate", "-h"]])
def test_help_exits_0(args):
    r = _run(args)
    assert r.exit_code == 0, r.output
    assert r.stdout.startswith("usage: mcalaudit")


def test_prog_name_names_the_program_in_usage_errors():
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf), pytest.raises(SystemExit) as exit_info:
        main(["audit"], prog_name="auditor")
    assert exit_info.value.code == 2
    assert "'auditor audit --help'" in buf.getvalue()


def test_numpy_and_click_stay_unloaded_until_an_estimate(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    script = f"""
import contextlib, io, sys
import mcalaudit.cli as cli

def call(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(list(args))
        except SystemExit as e:
            assert e.code == 0, (args, e.code)

call("audit", {str(p)!r})
call("generate", "--family", "cdmc")
call("enumerate", {str(p)!r})
loaded = [m for m in ("numpy", "click") if m in sys.modules]
assert not loaded, loaded
call("estimate", {str(p)!r}, "--metric", "dimc")
assert "numpy" in sys.modules and "click" not in sys.modules

from mcalaudit.estimators import dce_interval, dimc_interval
sys.path.insert(0, {str(tests)!r})
from test_estimators import PINNED, PINNED_INSTANCES
for (name, seed), pinned in PINNED.items():
    inst = PINNED_INSTANCES[name]
    ests = [dce_interval(inst, S, "1/50", "1/20", seed=seed) for S in inst.groups]
    ests.append(dimc_interval(inst, "1/50", "1/20", seed=seed))
    assert [(str(e.point), str(e.lower), e.upper_decimal) for e in ests] == pinned, (name, seed)
print("ok")
"""
    src = str(tests.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"


def test_audit_computes_and_reports_a_repeated_metric_once(tmp_path, monkeypatch):
    import mcalaudit.distances

    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    calls = []
    real = mcalaudit.distances.dmc
    monkeypatch.setattr(mcalaudit.distances, "dmc", lambda *a, **k: calls.append(1) or real(*a, **k))
    r = _run(["audit", str(p), "--metrics", "dmc,dmc,wdmc,dmc", "--pretty"])
    assert r.exit_code == 0, r.output
    assert [line.split()[0] for line in r.stdout.splitlines()] == ["dmc", "wdmc", "multicalibrated:"]
    assert len(calls) == 1
    report = json.loads(_run(["audit", str(p), "--metrics", "wdmc,dmc,wdmc"]).stdout)
    assert list(report["metrics"]) == list(report["timing_seconds"]) == ["wdmc", "dmc"]


@pytest.mark.parametrize("names", ["", ",", " , "])
def test_audit_refuses_a_metrics_list_that_names_no_metric(tmp_path, names):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    r = _run(["audit", str(p), "--metrics", names])
    assert r.exit_code == 2, r.output
    assert r.stdout == "" and r.stderr == "error: --metrics names no metric (choose from wdmc,dmc,dimc,wdma,dma,dcma)\n"


@pytest.mark.parametrize("radius", ["0", "-1", "-1/1000"])
def test_landscape_refuses_a_radius_of_zero_or_below(tmp_path, radius):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    r = _run(["landscape", str(p), f"--radius={radius}", "--trials", "2"])
    assert r.exit_code == 2, r.output
    assert r.stdout == "" and r.stderr == f"error: radius must be > 0, got {Fraction(radius)}\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["enumerate", "TP", "--set", "mcal", "--group", "7"], "error: --set mcal takes no --group\n"),
        (["enumerate", "TP", "--group", "0"], "error: --set mcal takes no --group\n"),
        (["estimate", "TP", "--metric", "dimc", "--group", "3"], "error: --metric dimc takes no --group\n"),
        (["estimate", "TP", "--metric", "dimc", "--group", "0"], "error: --metric dimc takes no --group\n"),
    ],
    ids=["enumerate-out-of-range", "enumerate-in-range", "estimate-out-of-range", "estimate-in-range"],
)
def test_a_group_the_command_would_ignore_is_refused(tmp_path, args, message):
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    r = _run([str(p) if a == "TP" else a for a in args])
    assert r.exit_code == 2, r.output
    assert r.stdout == "" and r.stderr == message


def _stub_suite(monkeypatch):
    """Replace the acceptance suite by one passing and one failing result."""
    import mcalaudit.cli as cli
    from mcalaudit.verify import CriterionResult

    results = [
        CriterionResult("stub-pass", True, "fine", 0.5, 10.0),
        CriterionResult("stub-fail", False, "off", 0.2, 10.0),
    ]
    monkeypatch.setattr(cli, "run_suite", lambda: results)


@pytest.mark.parametrize(
    "args,first_line,code",
    [
        (["audit", "TP", "--metrics", "dmc,dimc"], "dmc                0/1  = 0", 0),
        (["enumerate", "TP"], "2 predictors", 0),
        (["landscape", "TP", "--metric", "wdma", "--trials", "2"], "wdma: baseline 0/1, best 0/1, decreased: False", 0),
        (["verify"], "PASS  stub-pass", 1),
    ],
    ids=["audit", "enumerate", "landscape", "verify"],
)
def test_pretty_output_goes_to_the_output_file(tmp_path, monkeypatch, args, first_line, code):
    _stub_suite(monkeypatch)
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("0"))
    out = tmp_path / "out.txt"
    r = _run([str(p) if a == "TP" else a for a in args] + ["--pretty", "-o", str(out)])
    assert r.exit_code == code, r.output
    assert r.output == ""
    assert out.read_text().startswith(first_line)
    assert out.read_text() == _run([str(p) if a == "TP" else a for a in args] + ["--pretty"]).stdout


_TIMES = re.compile(r'("(?:wdmc|dmc|dimc|wdma|dma|dcma|elapsed_seconds)": )[0-9.e-]+|\d+\.\d\ds  ')


@pytest.mark.parametrize(
    "args",
    [
        ["audit", "TP"],
        ["audit", "TP", "--metrics", "dma,dmc", "--pretty"],
        ["enumerate", "TP"],
        ["enumerate", "TP", "--set", "cal", "--group", "0", "--pretty"],
        ["estimate", "TP", "--metric", "dimc", "--eps", "1/10", "--delta", "1/10"],
        ["estimate", "TP", "--metric", "dce", "--group", "1", "--eps", "1/10", "--trials", "2", "--csv"],
        ["generate", "--family", "ring", "--blocks", "2"],
        ["generate", "--family", "random", "--n", "6", "--groups", "2", "--seed", "3"],
        ["landscape", "TP", "--metric", "wdmc", "--trials", "3"],
        ["landscape", "TP", "--metric", "dimc", "--trials", "3", "--pretty"],
        ["verify"],
        ["verify", "--pretty"],
    ],
    ids=lambda args: "-".join(a.lstrip("-") for a in args if a != "TP")[:40],
)
def test_the_output_file_holds_the_bytes_stdout_would_get(tmp_path, monkeypatch, args):
    _stub_suite(monkeypatch)
    p = tmp_path / "tp.json"
    p.write_text(_tp_json("1/10"))
    argv = [str(p) if a == "TP" else a for a in args]
    out = tmp_path / "out"
    printed = _run(argv)
    written = _run(argv + ["-o", str(out)])
    assert printed.exit_code == written.exit_code and printed.stderr == written.stderr == ""
    assert written.stdout == "" and printed.stdout.endswith("\n")
    assert _TIMES.sub(r"\1", out.read_bytes().decode()) == _TIMES.sub(r"\1", printed.stdout)
    if "--csv" in args:
        assert out.read_bytes().count(b"\r\n") == 3 and b"\n" not in out.read_bytes().replace(b"\r\n", b"")
