"""Bias, worst-group bias, and distance to multiaccuracy via an exact LP.

The distance to multiaccuracy is the optimum of a small linear program.
A candidate predictor is written g = f + u - v, with the upward change
0 <= u <= 1 - f and the downward change 0 <= v <= f, so g stays in
[0, 1]; the cost is sum m(x)(u(x) + v(x)), and unbiasedness of g on each
group is one exact linear equality in u - v.  At an optimum u(x)v(x) = 0
(m > 0, so lowering both cuts the cost), hence the cost is the l1
distance from f to g.  `lp_solve` takes every variable non-negative, with
an optional upper bound each, which it adds as a row.  The program is
solved with an exact rational two-phase simplex (Bland's rule, so no
cycling).
Exactness matters: there are instances on which the optimum is
exponentially sensitive to perturbations of the unbiasedness constraints,
so a floating-point solve can be off by far more than round-off.

The tableau is kept in integer rows: each row is a list of Python ints
over one positive int denominator, reduced by the gcd of the row after
every update.  A pivot on column c rewrites only the rows whose entry in c
is not zero, each by one integer combination with the pivot row; sign tests
read numerators and the ratio test cross-multiplies.  Every entry equals
the one a `Fraction` tableau would hold, so Bland's rule takes exactly the
same pivots and the solve ends at the same vertex, without a `Fraction`
operation in the inner loop.

Group masses and conditional label means are taken exactly from the
Instance; sensitivity of the program to estimated constraint data is out
of scope here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .core import DistanceResult, Instance, PredictorVec, Subgroup, WitnessError, _rat_str, group_mass
from .enumeration import is_multiaccurate

__all__ = [
    "LPProblem",
    "LPSolution",
    "lp_solve",
    "bias",
    "wdma",
    "dma",
]

@dataclass(frozen=True)
class LPProblem:
    """min objective . x subject to linear constraints and x >= 0.

    Each constraint is (coefficients, relation, rhs) with relation one of
    "<=", "=", ">=".  `upper` holds one upper bound per variable; None
    means unbounded above.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    upper: tuple[Optional[Fraction], ...]

    def __post_init__(self):
        nv = len(self.objective)
        if len(self.upper) != nv:
            raise ValueError("one upper bound per variable required")
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != nv:
                raise ValueError("constraint dimension mismatch")
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {rel!r}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "objective": [_rat_str(c) for c in self.objective],
                "constraints": [
                    {"coeffs": [_rat_str(c) for c in coeffs], "rel": rel, "rhs": _rat_str(b)}
                    for coeffs, rel, b in self.constraints
                ],
                "upper": [None if hi is None else _rat_str(hi) for hi in self.upper],
            },
            indent=2,
        )


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Optional[Fraction]
    assignment: tuple[Fraction, ...]


def _int_row(entries: dict[int, Fraction], length: int) -> tuple[list[int], int]:
    """The sparse row {column: value} as dense integer numerators over the
    least common denominator of its values (already in lowest terms)."""
    den = lcm(*(v.denominator for v in entries.values()))
    row = [0] * length
    for j, v in entries.items():
        row[j] = v.numerator * (den // v.denominator)
    return row, den


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _eliminate(nums: list[int], den: int, prow: list[int], col: int, support: list[int]) -> tuple[list[int], int]:
    """Subtract the multiple of prow that zeroes column col of the row
    nums/den: (nums*b - a*prow) / (den*b) with a = nums[col], b = prow[col],
    both first divided by gcd(a, b).  prow[col] must be positive, and prow's
    own denominator cancels; support lists the columns where prow is not 0."""
    g = gcd(nums[col], prow[col])
    a = nums[col] // g
    b = prow[col] // g
    nums = [v * b for v in nums] if b != 1 else nums[:]
    for j in support:
        nums[j] -= a * prow[j]
    return _reduced(nums, den * b)


def _simplex(rows: list[list[int]], dens: list[int], basis: list[int], ncols: int) -> str:
    """Run the simplex method on a tableau in canonical form, minimizing the
    objective stored in the last row.  Row i holds the values rows[i][j] /
    dens[i] with dens[i] > 0, so every sign test reads a numerator and the
    ratio test cross-multiplies (the row denominator cancels).  Bland's rule
    throughout.  Returns "optimal" or "unbounded"; the tableau is pivoted in
    place."""
    nrows = len(rows) - 1
    while True:
        obj = rows[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best_rhs = best_a = 0
        for i in range(nrows):
            row = rows[i]
            a = row[enter]
            if a > 0:
                # row[-1]/a against best_rhs/best_a, both a > 0
                this = row[-1] * best_a
                best = best_rhs * a
                if leave < 0 or this < best or (this == best and basis[i] < basis[leave]):
                    best_rhs, best_a = row[-1], a
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(rows, dens, leave, enter)
        basis[leave] = enter


def _pivot(rows: list[list[int]], dens: list[int], row: int, col: int):
    """Scale the pivot row to 1 at col (negated first if its entry is
    negative, so its denominator stays positive) and eliminate col from
    every other row whose entry there is not 0."""
    prow = rows[row]
    if prow[col] < 0:
        prow = [-v for v in prow]
    prow, dens[row] = _reduced(prow, prow[col])
    rows[row] = prow
    support = _support(prow)
    for i in range(len(rows)):
        if i != row and rows[i][col] != 0:
            rows[i], dens[i] = _eliminate(rows[i], dens[i], prow, col, support)


def _support(row: list[int]) -> list[int]:
    return [j for j, v in enumerate(row) if v]


def lp_solve(problem: LPProblem) -> LPSolution:
    """Exact two-phase simplex over x >= 0.

    Each finite upper bound becomes a row x_j <= upper_j after the
    constraints, in variable order.  Phase 1 minimizes the sum of
    artificial variables; a positive phase-1 optimum certifies
    infeasibility.
    """
    nv = len(problem.objective)
    rows: list[tuple[dict[int, Fraction], str, Fraction]] = [
        ({j: c for j, c in enumerate(coeffs) if c}, rel, rhs) for coeffs, rel, rhs in problem.constraints
    ]
    rows.extend(({j: Fraction(1)}, "<=", hi) for j, hi in enumerate(problem.upper) if hi is not None)

    # Normalize to non-negative rhs; every row but a "<=" row gets an
    # artificial column, after the variable and slack columns.
    for i, (cols, rel, rhs) in enumerate(rows):
        if rhs < 0:
            rows[i] = ({j: -c for j, c in cols.items()}, {"<=": ">=", ">=": "<=", "=": "="}[rel], -rhs)
    nrows = len(rows)
    total = nv + sum(1 for _, rel, _ in rows if rel != "=")
    art_rows = [i for i, (_, rel, _) in enumerate(rows) if rel != "<="]
    n_art = len(art_rows)
    width = total + n_art
    # Row i holds the values tab[i][j] / dens[i], with dens[i] > 0.
    tab: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    slack_at = nv
    art_at = total
    for cols, rel, rhs in rows:
        entries = {**cols, width: rhs}
        if rel != "=":
            entries[slack_at] = 1 if rel == "<=" else -1
            slack_at += 1
        if rel == "<=":
            basis.append(slack_at - 1)
        else:
            entries[art_at] = 1
            basis.append(art_at)
            art_at += 1
        row, den = _int_row(entries, width + 1)
        tab.append(row)
        dens.append(den)

    if n_art:
        phase1 = [0] * total + [1] * n_art + [0]
        tab.append(phase1)
        dens.append(1)
        # Price out the artificial basis.
        for i in art_rows:
            if tab[-1][basis[i]] != 0:
                tab[-1], dens[-1] = _eliminate(tab[-1], dens[-1], tab[i], basis[i], _support(tab[i]))
        _simplex(tab, dens, basis, width)
        if tab[-1][-1] != 0:
            return LPSolution("infeasible", None, ())
        tab.pop()
        dens.pop()
        # Drive any artificial still basic out of the basis (degenerate rows).
        for i in range(nrows):
            if basis[i] >= total:
                for j in range(total):
                    if tab[i][j] != 0:
                        _pivot(tab, dens, i, j)
                        basis[i] = j
                        break
        # Artificials never re-enter, and one still basic sits on a row that
        # is zero left of them, so phase 2 drops their columns.
        for row in tab:
            del row[total:width]

    obj, obj_den = _int_row({j: c for j, c in enumerate(problem.objective) if c}, total + 1)
    for i in range(nrows):
        if basis[i] < total and obj[basis[i]] != 0:
            obj, obj_den = _eliminate(obj, obj_den, tab[i], basis[i], _support(tab[i]))
    tab.append(obj)
    dens.append(obj_den)
    status = _simplex(tab, dens, basis, total)
    if status == "unbounded":
        return LPSolution("unbounded", None, ())

    values = [Fraction(0)] * nv
    for i in range(nrows):
        if basis[i] < nv:
            values[basis[i]] = Fraction(tab[i][-1], dens[i])
    return LPSolution("optimal", Fraction(-tab[-1][-1], dens[-1]), tuple(values))


def bias(f: PredictorVec, inst: Instance, S: Subgroup) -> Fraction:
    """|conditional mean of the ground truth minus f over S|, exact."""
    m = inst.marginal
    p = inst.ground_truth
    mass = group_mass(m, S)
    diff = sum((m[i] * (p[i] - f[i]) for i in S.members), Fraction(0))
    return abs(diff) / mass


def wdma(inst: Instance) -> tuple[Fraction, Subgroup]:
    """Worst group-mass-weighted bias of the audited predictor."""
    # max returns the first of several maximal groups.
    return max(
        ((group_mass(inst.marginal, S) * bias(inst.audited, inst, S), S) for S in inst.groups),
        key=lambda vs: vs[0],
    )


def _dma_problem(inst: Instance) -> LPProblem:
    """Variables (u_1..u_n, v_1..v_n) with g = f + u - v, u <= 1 - f and
    v <= f; minimize sum m(x)(u(x) + v(x)) subject to exact unbiasedness
    of g on every group: sum_S m(u - v) = sum_S m(p* - f)."""
    n = inst.n
    m = inst.marginal.probs
    p = inst.ground_truth
    f = inst.audited
    zero = Fraction(0)
    constraints: list[tuple[tuple[Fraction, ...], str, Fraction]] = []
    for S in inst.groups:
        coeffs = [zero] * (2 * n)
        for i in S.members:
            coeffs[i] = m[i]
            coeffs[n + i] = -m[i]
        rhs = sum((m[i] * (p[i] - f[i]) for i in S.members), zero)
        constraints.append((tuple(coeffs), "=", rhs))
    return LPProblem(m * 2, tuple(constraints), tuple(1 - v for v in f.values) + f.values)


def dma(inst: Instance) -> DistanceResult:
    """Distance to multiaccuracy with an exact LP witness g = f + u - v."""
    sol = lp_solve(_dma_problem(inst))
    if sol.status != "optimal":  # pragma: no cover - g = p* is always feasible
        raise RuntimeError(f"distance LP ended with status {sol.status}")
    n = inst.n
    u, v = sol.assignment[:n], sol.assignment[n:]
    witness = PredictorVec(inst.audited[i] + u[i] - v[i] for i in range(n))
    if not is_multiaccurate(witness, inst):
        raise WitnessError("dma witness is not multiaccurate")
    return DistanceResult(value=sol.optimum, witness=witness)
