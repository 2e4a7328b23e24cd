"""Derandomized fuzz of the CLI's input surface: instance JSON whose fields
are drawn from mixed types, huge and negative numbers, floats and NaN,
booleans, long strings, nested lists and dicts, deep nesting, and values
that are iterable but not arrays (digit strings, objects with numeric keys)
or arrays of arrays.  Every call must end as an answer (exit 0), an input
error (exit 2) or a budget refusal (exit 3), with no traceback, within a
time limit per call; a document that is answered must mean what it says."""

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from mcalaudit.core import _rat_str, instance_to_dict, load_instance, rat

# Far above any call of the sample: the slowest takes well under a second.
CALL_SECONDS = 10
COMMANDS = (
    ["audit", "-", "--metrics", "wdma,dma"],
    ["enumerate", "-", "--set", "cal", "--group", "0"],
)


class _Raw(str):
    """JSON text written into a document as it is: an integer too long for
    `json.dumps`, or nesting too deep for it."""


def _text(v) -> str:
    if isinstance(v, _Raw):
        return v
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(x)}" for k, x in v.items()) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(_text, v)) + "]"
    return json.dumps(v)


_raw = st.one_of(
    st.integers(4290, 6000).map(lambda d: _Raw("-" * (d % 2) + "9" * d)),
    st.integers(1, 60_000).map(lambda d: _Raw("[" * d + "]" * d)),
    st.integers(1, 60_000).map(lambda d: _Raw('{"a": ' * d + "0" + "}" * d)),
)
_strings = st.one_of(
    st.text(max_size=12),
    st.builds("{}/{}".format, st.integers(-3, 40), st.integers(-2, 40)),
    st.integers(0, 100_000).map(lambda k: "1" * k),
    st.sampled_from(
        [
            "1e-2000000",
            "1e" + "9" * 5000,
            "1/" + "3" * 5000,
            "0." + "1" * 4300,
            "1e-4300",
            "-1e4300",
            "NaN",
            "inf",
            " 1/2 ",
            "1_0/30",
            "0x10",
        ]
    ),
)
_scalars = st.one_of(
    st.integers(-10, 10),
    st.sampled_from([2**31, 2**63, -(2**63) - 1, 10**100, 10**4300 - 1, -(10**4300 - 1)]),
    st.floats(),
    st.booleans(),
    st.none(),
    _strings,
)
# Iterable but not what the field asks for: read entry by entry, a digit
# string or an object with numeric keys could pass for a vector.
_grid = st.integers(0, 4).map("{}/4".format)
_misshapen = st.one_of(
    st.text("01", min_size=1, max_size=6),
    st.text("0123456789", min_size=1, max_size=6),
    st.dictionaries(st.integers(0, 5).map(str), _grid | st.integers(0, 1), min_size=1, max_size=6),
    st.dictionaries(st.integers(0, 5).map(str), st.lists(st.integers(0, 5), max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(_grid | st.integers(0, 5), min_size=1, max_size=3), min_size=1, max_size=4),
)
_junk = st.recursive(
    st.one_of(_scalars, _raw),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def _instances(draw) -> str:
    """A small valid instance with up to three of its fields, or entries of
    them, replaced by junk, resized or dropped.  One in six has 14 points
    and a first group of 13, which `enumerate --set cal` refuses."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 14]))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    members = st.sets(st.integers(0, n - 1), min_size=1, max_size=5).map(sorted)
    d = {
        "n": n,
        "marginal": [f"{w}/{sum(weights)}" for w in weights],
        "p_star": draw(st.lists(_grid, min_size=n, max_size=n)),
        "f": draw(st.lists(_grid, min_size=n, max_size=n)),
        "groups": [list(range(13))] * (n == 14) + draw(st.lists(members, min_size=1, max_size=3, unique_by=tuple)),
    }
    if draw(st.booleans()):
        d["labels"] = [f"x{i}" for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["n", "marginal", "p_star", "f", "groups", "labels"]))
        how = draw(st.sampled_from(["entry", "field", "resize", "drop", "iterable"]))
        value = d.get(key)
        if how == "iterable" and key in ("marginal", "p_star", "f"):
            # n entries if read by characters or by keys
            digits = draw(st.text("01", min_size=n, max_size=n))
            d[key] = digits if draw(st.booleans()) else dict.fromkeys(digits, draw(_grid))
        elif how == "entry" and isinstance(value, list) and value:
            value[draw(st.integers(0, len(value) - 1))] = draw(_junk)
        elif how == "resize" and isinstance(value, (int, list)):
            d[key] = value + draw(st.integers(-2, 2)) if isinstance(value, int) else value[1:] + value[:2]
        elif how == "drop":
            d.pop(key, None)
        else:
            d[key] = draw(_junk | _misshapen)
    return _text(d)


def _as_read(key: str, value):
    """A field of a document as `instance_to_dict` writes it back: vectors
    normalized by `rat`, group members sorted.  A value that is not an array
    stays as it is, so it cannot match what was read from it."""
    if key in ("n", "labels") or type(value) is not list:
        return value
    if key == "groups":
        return [sorted(g) if type(g) is list else g for g in value]
    return [_rat_str(rat(v)) for v in value]


# instances are drawn twice as often as whole junk documents
_documents = st.one_of(_instances(), _instances(), _junk.map(_text), st.text(max_size=20))


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_documents)
def test_cli_answers_or_refuses_any_instance_json(text):
    for args in COMMANDS:
        start = time.perf_counter()
        r = invoke(args, input=text)
        assert time.perf_counter() - start < CALL_SECONDS, args
        assert r.exception is None or isinstance(r.exception, SystemExit), (args, repr(r.exception))
        assert r.exit_code in (0, 2, 3), (args, r.output)
        assert "Traceback" not in r.output
        if r.exit_code:
            assert r.output.startswith("error: "), (args, r.output[:300])
        elif args is COMMANDS[0]:
            d = json.loads(text)
            assert instance_to_dict(load_instance(text)) == {k: _as_read(k, v) for k, v in d.items()}, text


_VALID = {"n": 2, "marginal": ["1/2", "1/2"], "p_star": ["1/2", "1/2"], "f": ["1/2", "1/2"], "groups": [[0, 1]]}


@pytest.mark.parametrize(
    "labels",
    ["ab", [[1], {"a": 2}], ["a", 2], None, {"a": 0, "b": 1}, ["a", True]],
    ids=["string", "containers", "an-int", "null", "object", "a-bool"],
)
def test_labels_other_than_an_array_of_strings_are_refused(labels):
    text = json.dumps({**_VALID, "labels": labels})
    for args in COMMANDS:
        r = invoke(args, input=text)
        assert r.exit_code == 2, (args, r.output)
        assert r.output == "error: cannot read instance: labels must be an array of strings\n"
    r = invoke(COMMANDS[0], input=json.dumps({**_VALID, "labels": ["a", "b"]}))
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"p_star": "01", "f": "10"}, "p_star must be an array"),
        ({"f": "10"}, "f must be an array"),
        ({"marginal": {"0": "1/2", "1": "1/2"}}, "marginal must be an array"),
        ({"groups": {"0": [0, 1]}}, "groups must be an array"),
        ({"groups": ["01"]}, "each group must be an array of integers"),
        ({"groups": [{"0": 0, "1": 1}]}, "each group must be an array of integers"),
    ],
    ids=["digit-strings", "digit-string-f", "marginal-object", "groups-object", "group-string", "group-object"],
)
def test_instance_vectors_other_than_arrays_are_refused(fields, message):
    # each of these was read by its characters or its keys, and most audited
    text = json.dumps({**_VALID, **fields})
    for args in COMMANDS:
        r = invoke(args, input=text)
        assert r.exit_code == 2, (args, r.output)
        assert r.output == f"error: cannot read instance: {message}\n"
