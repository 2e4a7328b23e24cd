"""Bias, worst-group bias, and distance to multiaccuracy via an exact LP.

The distance to multiaccuracy is the optimum of a small linear program:
variables are a candidate predictor g and per-point slack t bounding
|g - f|; unbiasedness of g on each group is an exact linear equality.
The program is solved with an exact rational two-phase simplex (Bland's
rule, so no cycling).  Exactness matters: there are instances on which the
optimum is exponentially sensitive to perturbations of the unbiasedness
constraints, so a floating-point solve can be off by far more than
round-off.

Group masses and conditional label means are taken exactly from the
Instance; sensitivity of the program to estimated constraint data is out
of scope here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Instance, PredictorVec, Subgroup, WitnessError, group_mass, rat
from .enumeration import is_multiaccurate

__all__ = [
    "LPProblem",
    "LPSolution",
    "lp_solve",
    "bias",
    "wdma",
    "dma",
    "acc_projection",
]

Bound = tuple[Optional[Fraction], Optional[Fraction]]


@dataclass(frozen=True)
class LPProblem:
    """min objective . x subject to linear constraints and variable bounds.

    Each constraint is (coefficients, relation, rhs) with relation one of
    "<=", "=", ">=".  Bounds are per-variable (lower, upper); None means
    unbounded on that side.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    bounds: tuple[Bound, ...]

    def __post_init__(self):
        nv = len(self.objective)
        if len(self.bounds) != nv:
            raise ValueError("one bound pair per variable required")
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != nv:
                raise ValueError("constraint dimension mismatch")
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {rel!r}")

    def to_json(self) -> str:
        def s(x):
            return f"{x.numerator}/{x.denominator}"

        return json.dumps(
            {
                "objective": [s(c) for c in self.objective],
                "constraints": [
                    {"coeffs": [s(c) for c in coeffs], "rel": rel, "rhs": s(b)}
                    for coeffs, rel, b in self.constraints
                ],
                "bounds": [
                    [None if lo is None else s(lo), None if hi is None else s(hi)]
                    for lo, hi in self.bounds
                ],
            },
            indent=2,
        )


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Optional[Fraction]
    assignment: tuple[Fraction, ...]


def _simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> str:
    """Run the simplex method on a tableau in canonical form, minimizing the
    objective stored in the last row.  Bland's rule throughout.  Returns
    "optimal" or "unbounded"; the tableau is pivoted in place."""
    nrows = len(tableau) - 1
    while True:
        obj = tableau[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best: Optional[Fraction] = None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tableau, leave, enter)
        basis[leave] = enter


def _pivot(tableau: list[list[Fraction]], row: int, col: int):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            factor = tableau[i][col]
            tableau[i] = [v - factor * p for v, p in zip(tableau[i], tableau[row])]


def lp_solve(problem: LPProblem) -> LPSolution:
    """Exact two-phase simplex.

    General bounds are reduced to x' >= 0 by shifting (finite lower bound),
    reflecting (upper bound only), or splitting into a difference of two
    non-negative variables (free).  Finite upper bounds become extra rows.
    Phase 1 minimizes the sum of artificial variables; a positive phase-1
    optimum certifies infeasibility.
    """
    nv = len(problem.objective)

    # Map each original variable to non-negative solver variables:
    # value = sign * x_solver + offset, or x_plus - x_minus for free vars.
    solver_vars = 0
    mapping: list[tuple[str, int, Fraction]] = []
    extra_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for j, (lo, hi) in enumerate(problem.bounds):
        if lo is not None:
            mapping.append(("shift", solver_vars, lo))
            if hi is not None:
                extra_rows.append(({solver_vars: Fraction(1)}, "<=", hi - lo))
            solver_vars += 1
        elif hi is not None:
            mapping.append(("reflect", solver_vars, hi))
            solver_vars += 1
        else:
            mapping.append(("free", solver_vars, Fraction(0)))
            solver_vars += 2

    def expand(coeffs: Sequence[Fraction]) -> tuple[dict[int, Fraction], Fraction]:
        """Rewrite a row over original variables in solver variables,
        returning (column coefficients, constant shift moved to the rhs)."""
        cols: dict[int, Fraction] = {}
        shift = Fraction(0)
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            kind, idx, off = mapping[j]
            if kind == "shift":
                cols[idx] = cols.get(idx, Fraction(0)) + c
                shift += c * off
            elif kind == "reflect":
                cols[idx] = cols.get(idx, Fraction(0)) - c
                shift += c * off
            else:
                cols[idx] = cols.get(idx, Fraction(0)) + c
                cols[idx + 1] = cols.get(idx + 1, Fraction(0)) - c
        return cols, shift

    rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for coeffs, rel, rhs in problem.constraints:
        cols, shift = expand(coeffs)
        rows.append((cols, rel, rhs - shift))
    rows.extend(extra_rows)

    obj_cols, obj_shift = expand(problem.objective)

    # Normalize to non-negative rhs, then add slack/artificial columns.
    nrows = len(rows)
    slack_count = sum(1 for _, rel, _ in rows if rel != "=")
    total = solver_vars + slack_count
    art_idx: list[int] = []
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = solver_vars
    art_rows: list[int] = []
    for i, (cols, rel, rhs) in enumerate(rows):
        if rhs < 0:
            cols = {j: -c for j, c in cols.items()}
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        row = [Fraction(0)] * total + [rhs]
        for j, c in cols.items():
            row[j] = c
        if rel == "<=":
            row[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = Fraction(-1)
            slack_at += 1
            basis.append(-1)  # placeholder, artificial assigned below
            art_rows.append(i)
        else:
            basis.append(-1)
            art_rows.append(i)
        tableau.append(row)

    # Append artificial columns for rows lacking a basic slack.
    n_art = len(art_rows)
    for row in tableau:
        row[-1:-1] = [Fraction(0)] * n_art
    for a, i in enumerate(art_rows):
        col = total + a
        tableau[i][col] = Fraction(1)
        basis[i] = col
        art_idx.append(col)
    width = total + n_art

    if n_art:
        phase1 = [Fraction(0)] * (width + 1)
        for col in art_idx:
            phase1[col] = Fraction(1)
        tableau.append(phase1)
        # Price out the artificial basis.
        for i in art_rows:
            factor = tableau[-1][basis[i]]
            if factor != 0:
                tableau[-1] = [v - factor * p for v, p in zip(tableau[-1], tableau[i])]
        _simplex(tableau, basis, width)
        if tableau[-1][-1] != 0:
            return LPSolution("infeasible", None, ())
        tableau.pop()
        # Drive any artificial still basic out of the basis (degenerate rows).
        for i in range(nrows):
            if basis[i] in art_idx:
                for j in range(total):
                    if tableau[i][j] != 0:
                        _pivot(tableau, i, j)
                        basis[i] = j
                        break

    phase2 = [Fraction(0)] * (width + 1)
    for j, c in obj_cols.items():
        phase2[j] = c
    for col in art_idx:
        phase2[col] = Fraction(0)
    tableau.append(phase2)
    for i in range(nrows):
        factor = tableau[-1][basis[i]]
        if factor != 0:
            tableau[-1] = [v - factor * p for v, p in zip(tableau[-1], tableau[i])]
    # Forbid artificials from re-entering: treat the column range as solver
    # plus slack variables only.
    status = _simplex(tableau, basis, total)
    if status == "unbounded":
        return LPSolution("unbounded", None, ())

    values = [Fraction(0)] * total
    for i in range(nrows):
        if basis[i] < total:
            values[basis[i]] = tableau[i][-1]
    assignment = []
    for kind, idx, off in mapping:
        if kind == "shift":
            assignment.append(values[idx] + off)
        elif kind == "reflect":
            assignment.append(off - values[idx])
        else:
            assignment.append(values[idx] - values[idx + 1])
    optimum = -tableau[-1][-1] + obj_shift
    return LPSolution("optimal", optimum, tuple(assignment))


def bias(f: PredictorVec, inst: Instance, S: Subgroup) -> Fraction:
    """|conditional mean of the ground truth minus f over S|, exact."""
    m = inst.marginal
    p = inst.ground_truth
    mass = group_mass(m, S)
    diff = sum((m[i] * (p[i] - f[i]) for i in S.members), Fraction(0))
    return abs(diff) / mass


def wdma(inst: Instance) -> tuple[Fraction, Subgroup]:
    """Worst group-mass-weighted bias of the audited predictor."""
    best_val = None
    best_group = None
    for S in inst.groups:
        v = group_mass(inst.marginal, S) * bias(inst.audited, inst, S)
        if best_val is None or v > best_val:
            best_val = v
            best_group = S
    return best_val, best_group


def _dma_problem(inst: Instance) -> LPProblem:
    """Variables (g_1..g_n, t_1..t_n); minimize sum m(x) t(x) subject to
    exact unbiasedness of g on every group, t >= |g - f|, g in [0,1]."""
    n = inst.n
    m = inst.marginal
    p = inst.ground_truth
    f = inst.audited
    zero = Fraction(0)
    objective = tuple([zero] * n + [m[i] for i in range(n)])
    constraints: list[tuple[tuple[Fraction, ...], str, Fraction]] = []
    for S in inst.groups:
        coeffs = [zero] * (2 * n)
        for i in S.members:
            coeffs[i] = m[i]
        rhs = sum((m[i] * p[i] for i in S.members), zero)
        constraints.append((tuple(coeffs), "=", rhs))
    one = Fraction(1)
    for i in range(n):
        row = [zero] * (2 * n)
        row[i] = one
        row[n + i] = -one
        constraints.append((tuple(row), "<=", f[i]))  # g_i - t_i <= f_i
        row = [zero] * (2 * n)
        row[i] = -one
        row[n + i] = -one
        constraints.append((tuple(row), "<=", -f[i]))  # -g_i - t_i <= -f_i
    bounds: list[Bound] = [(zero, one)] * n + [(zero, None)] * n
    return LPProblem(objective, tuple(constraints), tuple(bounds))


def dma(inst: Instance):
    """Distance to multiaccuracy with an exact LP witness."""
    from .distances import DistanceResult

    sol = lp_solve(_dma_problem(inst))
    if sol.status != "optimal":  # pragma: no cover - g = p* is always feasible
        raise RuntimeError(f"distance LP ended with status {sol.status}")
    witness = PredictorVec(sol.assignment[: inst.n])
    if not is_multiaccurate(witness, inst):
        raise WitnessError("dma witness is not multiaccurate")
    return DistanceResult(value=sol.optimum, witness=witness)


def acc_projection(f: PredictorVec, inst: Instance, S: Subgroup):
    """Conditional bias on S together with an explicit nearest unbiased
    predictor: scale f toward the ground truth on the overshooting side by
    the undershoot/overshoot mass ratio; the other side is untouched."""
    from .distances import DistanceResult

    m = inst.marginal
    p = inst.ground_truth
    over = [i for i in S.members if f[i] > p[i]]
    under = [i for i in S.members if f[i] < p[i]]
    mass = group_mass(m, S)
    alpha = sum((m[i] * (f[i] - p[i]) for i in over), Fraction(0)) / mass
    beta = sum((m[i] * (p[i] - f[i]) for i in under), Fraction(0)) / mass
    if alpha >= beta:
        side, big, small = over, alpha, beta
    else:
        side, big, small = under, beta, alpha
    value = big - small
    if big == 0:
        return DistanceResult(value=Fraction(0), witness=f)
    t = small / big
    updates = {i: t * f[i] + (1 - t) * p[i] for i in side}
    witness = f.with_values(updates)
    return DistanceResult(value=value, witness=witness)
