"""Tracing from outside the program.

`Tracer` wraps the package's public functions under every name a module
binds them to (so `distances.calibrated_set` and `cli.dce` are wrapped as
well as the definitions), records one span per call in memory, and counts
work from call arguments and results.  Nothing under `src/` changes: the
wrappers are installed around a traced operation and removed after it.

A span is (name, start, end, parent span, operation id); the benchmark
opens one root span per operation, named `cli.main`.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "core", "enumeration", "distances", "multiaccuracy", "estimators")

TARGETS = {
    "enumeration": (
        "calibrated_set",
        "multicalibrated_set",
        "is_calibrated",
        "is_multicalibrated",
        "is_multiaccurate",
        "is_degree_r_multicalibrated",
    ),
    "distances": ("dce", "wdmc", "dmc", "dimc", "dcma"),
    "multiaccuracy": ("lp_solve", "dma", "wdma"),
    "estimators": ("dce_interval", "dimc_interval"),
    "core": ("instance_from_dict", "validate", "l1_distance"),
}

ROOT = "cli.main"
MEMBERSHIP = tuple(f"enumeration.{n}" for n in TARGETS["enumeration"] if n.startswith("is_"))


def bell(k: int) -> int:
    """Bell(k) by the Bell triangle; the benchmark's own, so that the
    computed counts do not rest on the program's code."""
    row = [1]
    for _ in range(k - 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
    return row[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_of: dict[str, int] = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._bindings: list[tuple[object, str, object, object]] = []
        self._bind()

    # -- wrapping ---------------------------------------------------------

    def _bind(self):
        originals = {}
        for layer, fnames in TARGETS.items():
            module = sys.modules[f"mcalaudit.{layer}"]
            for fname in fnames:
                full = f"{layer}.{fname}"
                self.name_of[full] = len(self.names)
                self.names.append(full)
                originals[id(getattr(module, fname))] = full
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "mcalaudit" and not modname.startswith("mcalaudit."):
                continue
            for attr, value in list(vars(module).items()):
                full = originals.get(id(value))
                if full is None:
                    continue
                if full not in wrappers:
                    wrappers[full] = self._wrap(value, full)
                self._bindings.append((module, attr, value, wrappers[full]))

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = idx
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def _wrap(self, fn, full: str):
        sid = self.name_of[full]
        count = _COUNTERS.get(full)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                call = signature.bind(*args, **kwargs).arguments
                count(self.counts, call, result, self.names[self.name[self.current]])
            return result

        return wrapper

    # -- operations -------------------------------------------------------

    def run_op(self, op_id: int, call):
        """Run `call()` as one traced operation under a root span."""
        self.op_id = op_id
        self.install()
        idx = self._open(0)
        try:
            return call()
        finally:
            self._close(idx)
            self.uninstall()
            self.op_id = -1

    def take_counts(self) -> dict[str, int]:
        counts, self.counts = dict(self.counts), defaultdict(int)
        return counts

    def dump(self, path: Path):
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "op"],
                    "name": self.name.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "op": self.op.tolist(),
                }
            )
        )


# -- computed work counts -----------------------------------------------------
# Each counter reads only a wrapped call's arguments (by parameter name),
# its result and the name of the calling span, so the counts are exact and
# repeat from run to run.


def _cal_set(c, call, result, caller):
    c["enumeration.partitions"] += bell(len(call["S"]))
    c["enumeration.cal_set_size"] += len(result)


def _join(c, call, result, caller):
    bound = 1
    for g in call["inst"].groups:
        bound *= bell(len(g))
    c["enumeration.join_bound"] += bound
    c["enumeration.join_results"] += len(result)


def _lp(c, call, result, caller):
    if caller.startswith("estimators."):
        return  # an smce LP, counted by estimators.smce_lp_calls
    problem = call["problem"]
    c["multiaccuracy.lp_rows"] += len(problem.constraints)
    c["multiaccuracy.lp_cols"] += len(problem.objective)


def _interval(c, call, result, caller):
    c["estimators.draws"] += result.samples_used


_COUNTERS = {
    "enumeration.calibrated_set": _cal_set,
    "enumeration.multicalibrated_set": _join,
    "multiaccuracy.lp_solve": _lp,
    "estimators.dce_interval": _interval,
    "estimators.dimc_interval": _interval,
}


# -- derived per-layer figures ------------------------------------------------


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def summarise(tracer: Tracer, block_ops: int) -> tuple[dict[str, float], dict[str, int]]:
    """Span-derived figures keyed by metric stem: per-run total times in
    seconds, and call counts over the operations with id below `block_ops`
    (the first block), which repeat exactly from run to run."""
    names = [tracer.names[i] for i in tracer.name]
    parent, start, end = tracer.parent, tracer.start, tracer.end
    own = self_times(parent, start, end)
    t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, name in enumerate(names):
        dur = end[i] - start[i]
        t[name.split(".", 1)[0] + ".self"] += own[i]
        pname = names[parent[i]] if parent[i] >= 0 else ""
        stem = None
        if name == ROOT:
            t["op_wall"] += dur
        elif name == "enumeration.calibrated_set":
            stem = "enumeration.cal_set"
            t[stem] += dur
        elif name == "enumeration.multicalibrated_set":
            stem = "enumeration.join"
            t[stem] += own[i]
        elif name in MEMBERSHIP:
            stem = "enumeration.membership"
            if pname not in MEMBERSHIP:
                t[stem] += dur
        elif name == "distances.dce":
            stem = "distances.dce"
            t[stem] += dur
        elif name == "multiaccuracy.lp_solve":
            stem = "estimators.smce_lp" if pname.startswith("estimators.") else "multiaccuracy.lp"
            t[stem] += dur
        elif name.startswith("estimators."):
            t["estimators.interval"] += dur
        elif name in ("core.instance_from_dict", "core.validate"):
            t["core.load"] += dur
        elif name == "core.l1_distance":
            stem = "core.l1"
            t[stem] += dur
        if stem is not None and tracer.op[i] < block_ops:
            calls[stem + "_calls"] += 1
    return t, calls
