"""Domain model: finite domains, marginals, predictors, subgroup collections.

Everything here is exact: probabilities, predictions and distances are
`fractions.Fraction` values and no operation ever rounds.  Calibration is a
statement about exact conditional means, and several of the quantities this
package audits are discontinuous in the ground truth, so floating point is
confined to the decimal reporting view `to_decimal`.

All types are immutable after construction and all operations are pure;
an `Instance` also keeps the engine tables built for it, which are not
part of its value.
"""

from __future__ import annotations

import json
import re
from math import lcm
from dataclasses import dataclass, field
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

__all__ = [
    "rat",
    "FiniteDomain",
    "Marginal",
    "PredictorVec",
    "Subgroup",
    "SubgroupCollection",
    "Instance",
    "ValidationReport",
    "DistanceResult",
    "WitnessError",
    "BudgetExceeded",
    "l1_distance",
    "conditional_l1",
    "group_mass",
    "validate",
    "instance_to_dict",
    "instance_from_dict",
    "dump_instance",
    "load_instance",
    "to_decimal",
]


# `Fraction("1e-N")` builds 10**N before it can refuse anything; the bound
# on the exponent is CPython's default limit on the digits of an int string.
# The exponent's digit string is bounded by the same figure before `int()`
# reads it, so that `int()` never meets its own limit.
EXPONENT_CEILING = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")
# Every other run of digits (the integer part, the decimals, a numerator or
# a denominator) is read by `int()` too, so a longer one is refused first.
DIGITS_CEILING = 4300
_DIGIT_RUN = re.compile(r"\d[\d_]*")
# An error message quotes at most this many characters of an input value.
ECHO_CEILING = 40


def _cut(text: str) -> str:
    """text, cut to its first ECHO_CEILING characters and its length when
    longer, so that an error message does not grow with the input."""
    if len(text) <= ECHO_CEILING:
        return text
    return f"{text[:ECHO_CEILING]}... ({len(text)} characters)"


def _brief(x) -> str:
    """repr(x), cut as `_cut` does."""
    return _cut(repr(x))


def rat(x) -> Fraction:
    """Convert ints (not bools), "p/q" strings and decimal strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"refusing to convert bool {x!r}; pass an int, a string or a Fraction")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if exponent:
            if len(exponent.group(1)) > EXPONENT_CEILING:
                raise ValueError(f"decimal exponent longer than {EXPONENT_CEILING} characters")
            if abs(int(exponent.group(1))) > EXPONENT_CEILING:
                raise ValueError(f"decimal exponent beyond +-{EXPONENT_CEILING}")
        # a string no longer than the ceiling holds no longer run
        if len(x) > DIGITS_CEILING and any(
            len(run) - run.count("_") > DIGITS_CEILING for run in _DIGIT_RUN.findall(x)
        ):
            raise ValueError(f"more than {DIGITS_CEILING} digits in a row")
        try:
            return Fraction(x)  # handles both "4/5" and "0.8" exactly
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {_brief(x)}") from None
        except ValueError:
            raise ValueError(f"Invalid literal for Fraction: {_brief(x)}") from None
    if isinstance(x, float):
        raise TypeError(f"refusing to convert float {x!r}; pass a string or Fraction")
    raise TypeError(f"cannot interpret {_brief(x)} as a rational")


def _int_numerators(values) -> tuple[list[int], int]:
    """Fractions and ints as integer numerators over the lcm of their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


@lru_cache(maxsize=None)
def _decimal_context(digits: int) -> Context:
    return Context(prec=digits, rounding=ROUND_HALF_EVEN)


def to_decimal(x: Fraction, digits: int = 30) -> str:
    """Render a rational as a decimal string with `digits` significant digits.

    Rendering only; round-half-even. Exact values stay Fractions everywhere else.
    """
    return str(_decimal_context(digits).divide(Decimal(x.numerator), Decimal(x.denominator)))


@dataclass(frozen=True)
class FiniteDomain:
    """A finite feature space; points are canonically the indices 0..n-1."""

    n: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("domain must contain at least one point")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label count must match domain size")


@dataclass(frozen=True)
class Marginal:
    """A fully supported distribution over the domain points."""

    probs: tuple[Fraction, ...]

    def __init__(self, probs: Iterable):
        object.__setattr__(self, "probs", tuple(rat(p) for p in probs))

    @property
    def n(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int) -> Fraction:
        return self.probs[i]

    @classmethod
    def uniform(cls, n: int) -> "Marginal":
        return cls([Fraction(1, n)] * n)


@dataclass(frozen=True)
class PredictorVec:
    """A predictor X -> [0,1] stored as a dense vector of rationals.

    Used for the audited predictor f, the ground truth p*, and members of
    the calibrated / multicalibrated sets.
    """

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable):
        object.__setattr__(self, "values", tuple(rat(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    @classmethod
    def _of(cls, values: Iterable[Fraction]) -> "PredictorVec":
        """A PredictorVec of values that are Fractions already, without `rat`."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", tuple(values))
        return vec

    def with_values(self, updates: dict[int, Fraction]) -> "PredictorVec":
        vals = list(self.values)
        for i, v in updates.items():
            vals[i] = rat(v)
        return PredictorVec._of(vals)


@dataclass(frozen=True)
class Subgroup:
    """A non-empty set of int domain indices, stored sorted; a repeated
    member is refused, as a repeated group is."""

    members: tuple[int, ...]

    def __init__(self, members: Iterable[int]):
        ms = tuple(sorted(_strict_int(i, "group index") for i in members))
        if not ms:
            raise ValueError("subgroup must be non-empty")
        if any(a == b for a, b in zip(ms, ms[1:])):
            raise ValueError(f"repeated member in group {_brief(ms)}")
        if ms[0] < 0:
            raise ValueError("subgroup indices must be non-negative")
        object.__setattr__(self, "members", ms)

    @classmethod
    def _of(cls, members: Iterable[int]) -> "Subgroup":
        """A Subgroup of members that are already sorted, distinct and
        non-negative ints, without checking them."""
        group = object.__new__(cls)
        object.__setattr__(group, "members", tuple(members))
        return group

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class SubgroupCollection:
    """A collection of subgroups; no two groups may have identical member sets."""

    groups: tuple[Subgroup, ...]

    def __init__(self, groups: Iterable):
        gs = tuple(g if isinstance(g, Subgroup) else Subgroup(g) for g in groups)
        if not gs:
            raise ValueError("collection must contain at least one group")
        seen = set()
        for g in gs:
            if g.members in seen:
                raise ValueError(f"duplicate group {_brief(g.members)}")
            seen.add(g.members)
        object.__setattr__(self, "groups", gs)

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def __getitem__(self, i: int) -> Subgroup:
        return self.groups[i]

    def covers(self, n: int) -> bool:
        covered = set()
        for g in self.groups:
            covered.update(g.members)
        return covered == set(range(n))


@dataclass(frozen=True)
class Instance:
    """A complete auditing instance.

    Labels are Bernoulli: y ~ Ber(p*(x)) with x drawn from the marginal.
    `audited` is the predictor f whose distance metrics are being measured.
    The `with_*` copies start with no tables.
    """

    domain: FiniteDomain
    marginal: Marginal
    ground_truth: PredictorVec
    groups: SubgroupCollection
    audited: PredictorVec
    # Engine tables, keyed by (table class, subgroup members) and built on
    # first use (`enumeration._tables`); not part of the instance's value.
    _table_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.domain.n

    def with_ground_truth(self, p: PredictorVec) -> "Instance":
        return Instance(self.domain, self.marginal, p, self.groups, self.audited)

    def with_audited(self, f: PredictorVec) -> "Instance":
        return Instance(self.domain, self.marginal, self.ground_truth, self.groups, f)

    def with_groups(self, groups: SubgroupCollection) -> "Instance":
        return Instance(self.domain, self.marginal, self.ground_truth, groups, self.audited)


def _check_dims(f: PredictorVec, g: PredictorVec, m: Marginal):
    if not (f.n == g.n == m.n):
        raise ValueError(f"dimension mismatch: f has {f.n}, g has {g.n}, marginal has {m.n}")


def _weighted_differences(f: PredictorVec, g: PredictorVec, m: Marginal) -> tuple[list[int], int]:
    """m(x)(f(x) - g(x)) at every point x as integer numerators over one
    common denominator D, the lcm of den(m(x))den(f(x))den(g(x)); and D."""
    ratio = Fraction.as_integer_ratio
    terms = [
        (wn * (an * bd - bn * ad), wd * ad * bd)
        for (wn, wd), (an, ad), (bn, bd) in zip(map(ratio, m.probs), map(ratio, f.values), map(ratio, g.values))
    ]
    D = lcm(*(d for _, d in terms))
    return [t * (D // d) for t, d in terms], D


def l1_distance(f: PredictorVec, g: PredictorVec, m: Marginal) -> Fraction:
    """Marginal-weighted l1 distance: sum over x of m(x)*|f(x)-g(x)|, summed
    in integers over one common denominator; one Fraction is built at the
    end."""
    _check_dims(f, g, m)
    diffs, D = _weighted_differences(f, g, m)
    return Fraction(sum(map(abs, diffs)), D)


def group_mass(m: Marginal, S: Subgroup) -> Fraction:
    """Total marginal mass of S, summed in integer numerators."""
    probs = m.probs
    nums, den = _int_numerators([probs[i] for i in S.members])
    return Fraction(sum(nums), den)


def conditional_l1(f: PredictorVec, g: PredictorVec, m: Marginal, S: Subgroup) -> Fraction:
    """l1 distance between f and g under the marginal conditioned on S."""
    _check_dims(f, g, m)
    mass = group_mass(m, S)
    total = sum((m[i] * abs(f[i] - g[i]) for i in S.members), Fraction(0))
    return total / mass


class DistanceResult(NamedTuple):
    """An exact distance together with a nearest perfect predictor."""

    value: Fraction
    witness: PredictorVec


class WitnessError(RuntimeError):
    """A computed witness failed its independent certification: it is not
    in the metric's target set, or not at the reported distance."""


class BudgetExceeded(ValueError):
    """A refusal before any work: `bound` (a subgroup size, a per-group
    Bell-number product or a collection size) exceeds its ceiling `budget`."""

    def __init__(self, message: str, bound: int, budget: int):
        super().__init__(message)
        self.bound, self.budget = bound, budget


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...] = field(default_factory=tuple)


def validate(inst: Instance) -> ValidationReport:
    """Check all instance invariants; collects violations instead of raising.

    Each check reads the input's own entries, never range(n), so a huge
    declared n with short vectors is refused without allocating.  Whether
    the groups cover the domain is not an invariant: only dimc requires
    it, and checks it itself.  Signs and bounds are read off numerators
    (a denominator is positive), and the marginal's mass is summed in
    integer numerators.
    """
    violations: list[str] = []
    n = inst.domain.n
    if inst.marginal.n != n:
        violations.append(f"marginal has {inst.marginal.n} entries, domain has {n}")
    else:
        if any(p.numerator <= 0 for p in inst.marginal.probs):
            violations.append("marginal must be strictly positive on every point")
        nums, den = _int_numerators(inst.marginal.probs)
        total = sum(nums)
        if total != den:
            violations.append(f"marginal mass is {Fraction(total, den)}, not 1")
    for name, vec in (("p_star", inst.ground_truth), ("f", inst.audited)):
        if vec.n != n:
            violations.append(f"{name} has {vec.n} entries, domain has {n}")
        elif any(v.numerator < 0 or v.numerator > v.denominator for v in vec.values):
            violations.append(f"{name} has entries outside [0, 1]")
    for g in inst.groups:
        if g.members[-1] >= n:
            violations.append(f"group {g.members} references points outside the domain")
    return ValidationReport(valid=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# JSON instance format
#
#   { "n": int, "marginal": ["p/q", ...], "p_star": [...], "f": [...],
#     "groups": [[int, ...], ...] }
#
# Rationals are emitted as "num/den" strings; decimal strings are accepted on
# input and converted exactly.
# ---------------------------------------------------------------------------


def _rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def instance_to_dict(inst: Instance) -> dict:
    d = {
        "n": inst.domain.n,
        "marginal": [_rat_str(p) for p in inst.marginal.probs],
        "p_star": [_rat_str(v) for v in inst.ground_truth.values],
        "f": [_rat_str(v) for v in inst.audited.values],
        "groups": [list(g.members) for g in inst.groups],
    }
    if inst.domain.labels is not None:
        d["labels"] = list(inst.domain.labels)
    return d


def _strict_int(v, what: str) -> int:
    """v itself if it is an int; a float or a bool is refused, not cast."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {_brief(v)}")
    return v


def _array(d: dict, key: str) -> list:
    """d[key] if it is a JSON array: a string or an object is iterable too,
    and would be read by its characters or its keys."""
    if type(d[key]) is not list:
        raise ValueError(f"{key} must be an array")
    return d[key]


def instance_from_dict(d: dict) -> Instance:
    n = _strict_int(d["n"], "n")
    labels = None
    if "labels" in d:
        if type(d["labels"]) is not list or any(type(s) is not str for s in d["labels"]):
            raise ValueError("labels must be an array of strings")
        labels = tuple(d["labels"])
    groups = _array(d, "groups")
    if any(type(g) is not list for g in groups):
        raise ValueError("each group must be an array of integers")
    return Instance(
        domain=FiniteDomain(n, labels),
        marginal=Marginal(_array(d, "marginal")),
        ground_truth=PredictorVec(_array(d, "p_star")),
        groups=SubgroupCollection(groups),
        audited=PredictorVec(_array(d, "f")),
    )


def dump_instance(inst: Instance, fp=None) -> str:
    text = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True)
    if fp is not None:
        fp.write(text + "\n")
    return text


def _json_int(text: str) -> int:
    """`json`'s reader of integers, refusing a run of more than
    DIGITS_CEILING digits before `int()` meets its own limit."""
    if len(text) - text.startswith("-") > DIGITS_CEILING:
        raise ValueError(f"JSON integer of more than {DIGITS_CEILING} digits")
    return int(text)


def load_instance(fp) -> Instance:
    """An instance from a JSON string or a text file object; JSON nested
    past the recursion limit is a ValueError, not a RecursionError."""
    text = fp if isinstance(fp, str) else fp.read()
    try:
        return instance_from_dict(json.loads(text, parse_int=_json_int))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
