"""Output checks that do not trust the program.

Everything here is the benchmark's own exact `Fraction` code: it reads the
instance JSON and the command's JSON output itself and imports nothing
from `mcalaudit`.  A check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Inst:
    m: tuple[Fraction, ...]
    p: tuple[Fraction, ...]
    f: tuple[Fraction, ...]
    groups: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.m)


def load_instance(text: str) -> Inst:
    d = json.loads(text)
    vec = lambda key: tuple(Fraction(v) for v in d[key])
    return Inst(vec("marginal"), vec("p_star"), vec("f"), tuple(tuple(g) for g in d["groups"]))


def l1(inst: Inst, w) -> Fraction:
    return sum((inst.m[x] * abs(inst.f[x] - w[x]) for x in range(inst.n)), Fraction(0))


def calibrated(inst: Inst, w, S) -> bool:
    """On every level set of w within S, the mass-weighted mean of p* is
    the predicted value."""
    levels: dict[Fraction, list[int]] = {}
    for x in S:
        levels.setdefault(w[x], []).append(x)
    return all(
        sum(inst.m[x] * inst.p[x] for x in xs) == v * sum(inst.m[x] for x in xs)
        for v, xs in levels.items()
    )


def unbiased(inst: Inst, w, S) -> bool:
    return sum(inst.m[x] * (inst.p[x] - w[x]) for x in S) == 0


def cells(inst: Inst) -> list[list[int]]:
    """The partition generated by the groups: points with the same set of
    containing groups share a cell."""
    by_sig: dict[tuple[int, ...], list[int]] = {}
    for x in range(inst.n):
        by_sig.setdefault(tuple(i for i, g in enumerate(inst.groups) if x in g), []).append(x)
    return list(by_sig.values())


def _member(metric: str, inst: Inst, w) -> bool:
    everything = range(inst.n)
    if metric == "dmc":
        return all(calibrated(inst, w, S) for S in inst.groups)
    if metric == "dimc":
        return all(calibrated(inst, w, c) for c in cells(inst))
    if metric == "dma":
        return all(unbiased(inst, w, S) for S in inst.groups)
    # dcma: globally calibrated and multiaccurate
    return calibrated(inst, w, everything) and all(unbiased(inst, w, S) for S in inst.groups)


WITNESS_METRICS = ("dmc", "dimc", "dma", "dcma")


def check_audit(inst: Inst, report: dict, metrics, exact: Optional[dict] = None) -> Optional[str]:
    """Certify each witness by its l1 distance and its membership, check
    wdmc <= dmc <= dimc and wdma <= dma, and compare with `exact` values
    (metric -> "num/den") when given."""
    values: dict[str, Fraction] = {}
    for metric in metrics:
        entry = report["metrics"].get(metric)
        if entry is None:
            return f"{metric}: missing"
        if "refused" in entry:
            return f"{metric}: refused: {entry['refused']}"
        value = Fraction(entry["value"]["rational"])
        values[metric] = value
        if exact is not None and Fraction(exact[metric]) != value:
            return f"{metric}: {value} differs from the committed exact value {exact[metric]}"
        if metric not in WITNESS_METRICS:
            continue
        w = [Fraction(v["rational"]) for v in entry["witness"]]
        if len(w) != inst.n or any(not 0 <= v <= 1 for v in w):
            return f"{metric}: witness is not a predictor on the domain"
        if l1(inst, w) != value:
            return f"{metric}: witness is at l1 distance {l1(inst, w)}, reported {value}"
        if not _member(metric, inst, w):
            return f"{metric}: witness is not in the metric's set"
    chain = [values[m] for m in ("wdmc", "dmc", "dimc") if m in values]
    if chain != sorted(chain):
        return f"wdmc <= dmc <= dimc violated: {chain}"
    if "wdma" in values and "dma" in values and values["wdma"] > values["dma"]:
        return f"wdma {values['wdma']} > dma {values['dma']}"
    return None


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def exact_dce(inst: Inst, S) -> Fraction:
    """Brute force over set partitions of S: the calibrated predictors on S
    are the class-mean predictors of its partitions."""
    mass = sum(inst.m[x] for x in S)
    best = None
    for part in _set_partitions(list(S)):
        cost = Fraction(0)
        for cls in part:
            cm = sum(inst.m[x] for x in cls)
            mean = sum(inst.m[x] * inst.p[x] for x in cls) / cm
            cost += sum(inst.m[x] * abs(inst.f[x] - mean) for x in cls)
        if best is None or cost < best:
            best = cost
    return best / mass


def exact_dimc(inst: Inst) -> Fraction:
    return sum((sum(inst.m[x] for x in c) * exact_dce(inst, c) for c in cells(inst)), Fraction(0))


def expected_samples(inst: Inst, metric: str, eps: Fraction, delta: Fraction) -> int:
    """The sample count the README documents: batch size ceil(4/eps^2),
    batch count ceil(18 ln(parts/delta)), and for dimc
    ceil(2 * batch_size * batch_count / gamma) draws in total."""
    bs = math.ceil(4 / (eps * eps))
    if metric == "dce":
        return bs * math.ceil(18 * math.log(1 / delta))
    cs = cells(inst)
    gamma = min(sum(inst.m[x] for x in c) for c in cs)
    bc = math.ceil(18 * math.log(len(cs) / delta))
    return math.ceil(Fraction(2 * bs * bc) / gamma)


def check_estimate(report: dict, samples: int, exact: Fraction) -> tuple[Optional[str], bool]:
    """Check lower <= point <= upper and the sample count.  Returns the
    failure reason (or None) and whether the interval holds `exact`; a miss
    is not a failure."""
    (run,) = report["runs"]
    lower = Fraction(run["lower"]["rational"])
    point = Fraction(run["point"]["rational"])
    upper = Fraction(run["upper"])  # a 30-digit decimal rendering
    if not lower <= point <= upper:
        return f"interval out of order: {lower} <= {point} <= {upper} fails", False
    if run["samples_used"] != samples:
        return f"samples_used {run['samples_used']}, documented count {samples}", False
    return None, lower <= exact <= upper
