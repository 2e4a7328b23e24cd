"""The benchmark's workloads: instance files and blocks of operations.

Each workload is a closed loop with one client that executes operations in
order; each operation is the argv a user would type after `mcalaudit`.
The instances come from the program's own generators
(`mcalaudit.instances`), seeded from the workload seed, and are written as
instance JSON files during set-up.  Why each workload exists is recorded
in NOTES.md.
"""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("audit-small", "audit-large", "audit-wide", "estimate")
DEFAULT_SEED = 0

# Raised on audit-large so that the Bell-product guard of the dmc join
# refuses nothing there (ring(2) has bound 209,587,500 against the 10 M
# default).  The other workloads run with the program's default budget.
# setup() sets the variable for the process it runs in.
LARGE_BUDGET = 10**12

WIDE_METRICS = "wdmc,dimc,wdma,dma"

# A workload is a sequence of blocks.  A block has a fixed mix of
# operations and fresh seeded instances, and a run executes operations in
# block order, so every run has nearly the same mix and sees many distinct
# instances.

# audit-small: the acceptance suite's recipe draws n uniformly from 2..6
# and a group count uniformly from 1..3, capped at n; a block holds one
# instance of each of those 15 draws.  Within a shape an operation's cost
# varies by 20-30% from instance to instance, so the more distinct
# instances a run sees, the less its figures depend on the seed; but a
# file per operation made set-up time follow the file system's load.  32
# blocks are about half of a run, which cycles through them twice.
SMALL_SHAPES = tuple((n, min(k, n)) for n in range(2, 7) for k in range(1, 4))
SMALL_BLOCKS = 32

# audit-large: gen_random instances on 7 points with fixed sorted
# group-size profiles, each with a group of 6 points, so that the
# Bell-number work of a block is the same for every seed; ring(2) and
# hypercube(4), on 8 points each, are fixed and in every block, the
# hypercube four times.  A full audit of a random 8-point instance takes
# 1.5-2 s (dcma streams all Bell(8) partitions), so fewer than 20
# operations would fit in a run and op_tail_ms would fall back to the
# median; these blocks fit 35-45.  Non-uniform marginals make the exact
# arithmetic dearer, so each slot fixes the kind of marginal too.  A block
# sorts as 3 random instances (~0.2-0.45 s), 4 hypercubes (~0.45-0.55 s)
# and the ring (~2 s), so the median falls among the hypercubes: with 2
# hypercubes in 6 it fell on the gap between random instances and
# hypercubes and jumped with the VM's speed.
LARGE_N = 7
LARGE_SLOTS = (((1, 6), True), ((2, 6), False), ((1, 6), False))
LARGE_BLOCKS = 4

# audit-wide: per block, one instance with a uniform and one with a
# non-uniform marginal for each size, and the fixed Fibonacci chain on 20
# points, whose unbiasedness constraints form a recurrence.  Within a size
# an operation's cost varies by 20-35% from instance to instance, with a
# long upper tail.  With sizes 16, 24 and 32 a run held only 57-100
# operations, and the seed alone moved op_p50_ms (the median of the middle
# size) by up to 17% across five seeds; with 12, 16 and 20 a block costs
# about a third as much.  The chain costs about twice a random 20-point
# audit and is one operation in seven, so op_tail_ms falls among its
# executions: over random instances alone the seed moved it by 15%.
WIDE_SIZES = (12, 16, 20)
WIDE_CHAIN = 9  # k: 2k + 2 = 20 points
WIDE_BLOCKS = 32

ESTIMATE_EPS = Fraction(1, 50)
ESTIMATE_DELTA = Fraction(1, 20)


@dataclass(frozen=True)
class Op:
    """One operation.  For estimate operations `argv` has no --seed; the
    runner appends a fresh estimator seed to every execution."""

    argv: tuple[str, ...]
    instance: str
    metrics: tuple[str, ...] = ()
    metric: Optional[str] = None
    group: Optional[int] = None


def require_source() -> None:
    """Put the checkout's `src` first on sys.path, or refuse to run."""
    if not (SRC / "mcalaudit" / "__init__.py").is_file():
        raise SystemExit(f"error: no mcalaudit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _draw(gen, rng, n: int, k: int, uniform: bool, sizes=None, **kwargs):
    """The first gen_random instance from the seed stream with the wanted
    kind of marginal (and sorted group sizes, when given)."""
    while True:
        inst = gen.gen_random(n, k, seed=rng.randrange(2**32), **kwargs)
        if (len(set(inst.marginal.probs)) == 1) == uniform and (
            sizes is None or tuple(sorted(len(g) for g in inst.groups)) == sizes
        ):
            return inst


def _audit_small(rng, gen):
    return [[gen.gen_random(n, k, seed=rng.randrange(2**32)) for n, k in SMALL_SHAPES] for _ in range(SMALL_BLOCKS)]


def _audit_large(rng, gen):
    ring = gen.gen_ring(2)
    cube, _ = gen.gen_hypercube(4)
    blocks = []
    for _ in range(LARGE_BLOCKS):
        a = [_draw(gen, rng, LARGE_N, len(sizes), uniform, sizes, max_group_size=6) for sizes, uniform in LARGE_SLOTS]
        blocks.append([ring, a[0], cube, a[1], cube, a[2], cube, cube])
    return blocks


def _audit_wide(rng, gen):
    k = WIDE_CHAIN
    chain = gen.gen_fibonacci(k, Fraction(1, 4 * (k + 1) * gen.fibonacci_number(k + 1)))  # eps at half its limit
    return [
        [*(_draw(gen, rng, n, n // 2, uniform) for uniform in (True, False) for n in WIDE_SIZES), chain]
        for _ in range(WIDE_BLOCKS)
    ]


def _estimate(gen):
    return [
        [
            gen.gen_three_point(Fraction(1, 10)),
            gen.gen_wdmc_local_min(Fraction(1, 200), Fraction(1, 10)),
            gen.gen_cdmc_example(),
        ]
    ]


def _ops(workload: str, path: str, inst) -> list[Op]:
    if workload == "estimate":
        ops = [
            Op(("estimate", path, "--metric", "dce", "--group", str(g)), path, metric="dce", group=g)
            for g in range(len(inst.groups))
        ]
        return ops + [Op(("estimate", path, "--metric", "dimc"), path, metric="dimc")]
    if workload == "audit-wide":
        return [Op(("audit", path, "--metrics", WIDE_METRICS), path, tuple(WIDE_METRICS.split(",")))]
    return [Op(("audit", path), path, ("wdmc", "dmc", "dimc", "wdma", "dma", "dcma"))]


def setup(workload: str, seed: int, directory: Path) -> tuple[float, list[list[Op]]]:
    """Import the program, generate the workload's instances from the seed
    and write them under `directory`.  Returns the elapsed seconds (the
    benchmark's set-up time) and the blocks of operations.  Also sets
    MCAL_AUDIT_BUDGET for the workload's operations."""
    require_source()
    if workload == "audit-large":
        os.environ["MCAL_AUDIT_BUDGET"] = str(LARGE_BUDGET)
    else:
        os.environ.pop("MCAL_AUDIT_BUDGET", None)
    t0 = time.perf_counter()
    import mcalaudit.cli  # noqa: F401  (the operations call into it)
    from mcalaudit import instances as gen
    from mcalaudit.core import dump_instance

    rng = _rng(workload, seed)
    if workload == "audit-small":
        blocks = _audit_small(rng, gen)
    elif workload == "audit-large":
        blocks = _audit_large(rng, gen)
    elif workload == "audit-wide":
        blocks = _audit_wide(rng, gen)
    elif workload == "estimate":
        blocks = _estimate(gen)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    directory.mkdir(parents=True, exist_ok=True)
    written: dict[int, str] = {}  # instances shared by blocks are written once
    op_blocks = []
    for b, block in enumerate(blocks):
        ops = []
        for i, inst in enumerate(block):
            path = written.get(id(inst))
            if path is None:
                path = written[id(inst)] = str(directory / f"{workload}-{b:02d}-{i:02d}.json")
                Path(path).write_text(dump_instance(inst) + "\n")
            ops += _ops(workload, path, inst)
        op_blocks.append(ops)
    return time.perf_counter() - t0, op_blocks


def estimator_seed(seed: int, execution: int) -> int:
    """A distinct estimator seed for every estimate execution of a run."""
    return seed * 1_000_000 + execution
