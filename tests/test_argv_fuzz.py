"""Derandomized fuzz of the CLI's arguments: every subcommand, with options
drawn from valid values and, one time in four, from mixed types and extreme
values (integers past every bound and past int64, runs of thousands of
digits, rationals with zero or huge denominators, text), with unknown flags,
repeated options and unwritable output paths.  Every call must end as an
answer (exit 0), an acceptance failure (1), an input error (2) or a budget
refusal (3), with no traceback, within a time limit per call; an input error
is one short line or two.

A valid option that sizes the work (`--trials`, `--n`, `--eps`) is drawn
small, as refused extremes, or at a bound whose cost is known to be small:
the work such an option asks for grows with it by design, and a run-time
work meter, not a pre-check, is what would bound it.  A valid `verify` runs
the whole acceptance suite, which `test_acceptance` covers, so its `--suite`
is always drawn invalid here.  No value holds a NUL or a lone surrogate,
which a process's argv cannot carry."""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from mcalaudit.cli import COMMANDS, METRICS
from mcalaudit.core import dump_instance
from mcalaudit.instances import gen_cdmc_example, gen_three_point

CALL_SECONDS = 10
ERROR_BYTES = 300

_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)
_junk = st.one_of(
    st.sampled_from(
        [
            "-1", "0", "-0", "+3", "1_0", "0x10", "1e3", "1.5", "", " 2", "٣", "nan", "inf", "2147483648",
            "9223372036854775808", "-9223372036854775809", "10001", "1000001", "100000000", "9" * 5000,
            "1/0", "0/0", "1//2", " 1/3 ", "-1/50", "1e-30", "1/10000000000", "1e-5000", "1e5000",
            "1e" + "9" * 5000, "1/" + "3" * 5000, "3" * 4000 + "/7", "x",
        ]
    ),
    st.builds("{}/{}".format, st.integers(-2, 60), st.integers(-1, 60)),
    _text,
)


def _value(*valid):
    """One of the valid values, or junk one time in four."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(valid), _junk)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    tp, cdmc = d / "tp.json", d / "cdmc.json"
    tp.write_text(dump_instance(gen_three_point("1/10")) + "\n")
    cdmc.write_text(dump_instance(gen_cdmc_example()) + "\n")
    instances = [str(tp), str(cdmc), str(tp), str(cdmc), "-", str(d / "missing.json"), str(d), ""]
    outputs = [str(d / "out.txt"), str(d / "out.txt"), str(d), str(d / "missing" / "out.txt"), ""]
    return instances, outputs


def _options(outputs):
    """Option name -> values, for every subcommand of `COMMANDS`; None
    stands for a flag that takes no value."""
    out = st.sampled_from(outputs)
    flag = st.just(None)
    seed = _value("0", "7", "9223372036854775808")
    return {
        "audit": {
            "--metrics": st.one_of(
                st.lists(st.sampled_from(list(METRICS)), min_size=1, max_size=6, unique=True).map(",".join),
                st.lists(st.sampled_from(list(METRICS) + ["dce", "", " dma", "DMA"]), max_size=7).map(",".join),
                _junk,
            ),
            "--degree": _value("1", "2", "3", "10000"),
            "--dump-lp": out,
            "--pretty": flag,
            "-o": out,
        },
        "enumerate": {
            "--set": _value("cal", "mcal"),
            "--group": _value("0", "1"),
            "--pretty": flag,
            "-o": out,
        },
        "estimate": {
            "--metric": _value("dce", "dimc"),
            "--group": _value("0", "1"),
            "--eps": _value("1/50", "1/10", "1/4"),
            "--delta": _value("1/20", "1/10", "1/2", "1e-300"),
            "--seed": seed,
            "--trials": _value("1", "2", "3"),
            "--csv": flag,
            "-o": out,
        },
        "generate": {
            "--family": _value("three-point", "wdmc-local-min", "ring", "hypercube", "cdmc", "fibonacci", "dcma", "random"),
            "--alpha": _value("0", "1/10", "1/5"),
            "--eps": _value("1/200", "1/1000", "1/10"),
            "--delta": _value("1/10", "1/4"),
            "--k": _value("2", "3", "4", "6", "16", "4999"),
            "--blocks": _value("1", "2", "2500"),
            "--target": _value("0,3", "0,1", "1,2", "0,0", "9,9", "-1,2", ",", "0;1"),
            "--variant": _value("before", "after"),
            "--n": _value("1", "2", "5", "6", "10000"),
            "--groups": _value("1", "2", "3", "6"),
            "--seed": seed,
            "--grid": _value("1", "20", "1000000"),
            "-o": out,
        },
        "landscape": {
            "--metric": _value(*METRICS),
            "--radius": _value("1/1000", "1/10", "0"),
            "--trials": _value("1", "2", "3"),
            "--seed": seed,
            "--pretty": flag,
            "-o": out,
        },
        "verify": {"--suite": _text.filter(lambda s: s != "paper"), "--pretty": flag, "-o": out},
    }


def test_the_fuzz_draws_every_option_of_every_command(paths):
    options = _options(paths[1])
    assert set(options) == set(COMMANDS)
    for name, (_, table) in COMMANDS.items():
        flags = {"-o" if flags[-1] == "--output" else flags[-1] for flags, _ in table if flags[0].startswith("-")}
        assert flags == set(options[name]), name


@st.composite
def _argv(draw, instances, outputs):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if command not in ("generate", "verify") and draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(instances)))
    table = _options(outputs)[command]
    required = {"estimate": "--metric", "generate": "--family"}.get(command)
    if required and draw(st.integers(0, 4)):
        argv += [required, draw(table[required])]
    for name in draw(st.lists(st.sampled_from(sorted(table)), max_size=5)):
        value = draw(table[name])
        argv += [name] if value is None else [name, value]
    if command == "verify" and "--suite" not in argv:
        argv += ["--suite", draw(table["--suite"])]
    if not draw(st.integers(0, 9)):  # an unknown flag, a stray value or an abbreviation
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--nope", "stray", "--met", "-x", "--"])))
    return argv


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_command_answers_or_refuses_any_arguments(paths, data):
    argv = data.draw(_argv(*paths))
    stdin = dump_instance(gen_three_point("0")) if data.draw(st.booleans()) else "not json"
    start = time.perf_counter()
    r = invoke(argv, input=stdin)
    assert time.perf_counter() - start < CALL_SECONDS, argv
    assert r.exception is None or isinstance(r.exception, SystemExit), (argv, repr(r.exception))
    assert r.exit_code in (0, 1, 2, 3), (argv, r.output[:300])
    assert "Traceback" not in r.output
    if r.exit_code == 2:
        assert r.output.startswith("error: "), (argv, r.output[:300])
        assert len(r.output.encode()) < ERROR_BYTES, (argv, r.output[:300])
