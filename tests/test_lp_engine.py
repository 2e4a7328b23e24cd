"""Cross-checks of the integer-row simplex in `lp_solve` against a dense
`Fraction` two-phase simplex kept here as an oracle.

The oracle is the straightforward exact method: every tableau entry is a
`Fraction` and every pivot rebuilds every row.  Both sides use Bland's rule
on the same tableau, so they must take the same pivots, in the same order,
and end at the same vertex.  The pivots of `lp_solve` are recorded by
wrapping `multiaccuracy._pivot`.
"""

import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcalaudit.multiaccuracy as ma
from mcalaudit import LPProblem, LPSolution, lp_solve
from mcalaudit.instances import (
    fibonacci_number,
    gen_cdmc_example,
    gen_dcma_example,
    gen_fibonacci,
    gen_hypercube,
    gen_random,
    gen_ring,
    gen_three_point,
    gen_wdmc_local_min,
)
from mcalaudit.multiaccuracy import _dma_problem

from test_multiaccuracy import _random_lp

F = Fraction


def _oracle_simplex(tableau, basis, ncols, pivots) -> str:
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
        _oracle_pivot(tableau, leave, enter, pivots)
        basis[leave] = enter


def _oracle_pivot(tableau, row, col, pivots):
    pivots.append((row, col))
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            factor = tableau[i][col]
            tableau[i] = [v - factor * p for v, p in zip(tableau[i], tableau[row])]


def oracle_solve(problem: LPProblem) -> tuple[LPSolution, list[tuple[int, int]]]:
    """Dense-Fraction two-phase simplex; returns the solution and its pivots."""
    pivots: list[tuple[int, int]] = []
    solver_vars = 0
    mapping = []
    extra_rows = []
    for lo, hi in problem.bounds:
        if lo is not None:
            mapping.append(("shift", solver_vars, lo))
            if hi is not None:
                extra_rows.append(({solver_vars: F(1)}, "<=", hi - lo))
            solver_vars += 1
        elif hi is not None:
            mapping.append(("reflect", solver_vars, hi))
            solver_vars += 1
        else:
            mapping.append(("free", solver_vars, F(0)))
            solver_vars += 2

    def expand(coeffs: Sequence[Fraction]):
        cols: dict[int, Fraction] = {}
        shift = F(0)
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            kind, idx, off = mapping[j]
            if kind == "shift":
                cols[idx] = cols.get(idx, F(0)) + c
                shift += c * off
            elif kind == "reflect":
                cols[idx] = cols.get(idx, F(0)) - c
                shift += c * off
            else:
                cols[idx] = cols.get(idx, F(0)) + c
                cols[idx + 1] = cols.get(idx + 1, F(0)) - c
        return cols, shift

    rows = []
    for coeffs, rel, rhs in problem.constraints:
        cols, shift = expand(coeffs)
        rows.append((cols, rel, rhs - shift))
    rows.extend(extra_rows)
    obj_cols, obj_shift = expand(problem.objective)

    nrows = len(rows)
    total = solver_vars + sum(1 for _, rel, _ in rows if rel != "=")
    tableau = []
    basis = []
    slack_at = solver_vars
    art_rows = []
    for i, (cols, rel, rhs) in enumerate(rows):
        if rhs < 0:
            cols = {j: -c for j, c in cols.items()}
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        row = [F(0)] * total + [rhs]
        for j, c in cols.items():
            row[j] = c
        if rel == "<=":
            row[slack_at] = F(1)
            basis.append(slack_at)
            slack_at += 1
        else:
            if rel == ">=":
                row[slack_at] = F(-1)
                slack_at += 1
            basis.append(-1)
            art_rows.append(i)
        tableau.append(row)

    n_art = len(art_rows)
    art_idx = []
    for row in tableau:
        row[-1:-1] = [F(0)] * n_art
    for a, i in enumerate(art_rows):
        tableau[i][total + a] = F(1)
        basis[i] = total + a
        art_idx.append(total + a)
    width = total + n_art

    if n_art:
        phase1 = [F(0)] * (width + 1)
        for col in art_idx:
            phase1[col] = F(1)
        tableau.append(phase1)
        for i in art_rows:
            factor = tableau[-1][basis[i]]
            if factor != 0:
                tableau[-1] = [v - factor * p for v, p in zip(tableau[-1], tableau[i])]
        _oracle_simplex(tableau, basis, width, pivots)
        if tableau[-1][-1] != 0:
            return LPSolution("infeasible", None, ()), pivots
        tableau.pop()
        for i in range(nrows):
            if basis[i] in art_idx:
                for j in range(total):
                    if tableau[i][j] != 0:
                        _oracle_pivot(tableau, i, j, pivots)
                        basis[i] = j
                        break

    phase2 = [F(0)] * (width + 1)
    for j, c in obj_cols.items():
        phase2[j] = c
    tableau.append(phase2)
    for i in range(nrows):
        factor = tableau[-1][basis[i]]
        if factor != 0:
            tableau[-1] = [v - factor * p for v, p in zip(tableau[-1], tableau[i])]
    if _oracle_simplex(tableau, basis, total, pivots) == "unbounded":
        return LPSolution("unbounded", None, ()), pivots

    values = [F(0)] * total
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
    return LPSolution("optimal", -tableau[-1][-1] + obj_shift, tuple(assignment)), pivots


def _solve_recording(problem):
    """lp_solve(problem) with its pivots as (row, col) and their entries' signs."""
    pivots: list[tuple[int, int]] = []
    signs: list[int] = []
    real = ma._pivot

    def spy(tab, dens, row, col):
        pivots.append((row, col))
        signs.append(1 if tab[row][col] > 0 else -1)
        real(tab, dens, row, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ma, "_pivot", spy)
        return lp_solve(problem), pivots, signs


def _check(problem) -> LPSolution:
    sol, pivots, _ = _solve_recording(problem)
    expected, expected_pivots = oracle_solve(problem)
    assert sol == expected
    assert pivots == expected_pivots
    return sol


def test_matches_oracle_on_seeded_random_lps():
    rng = random.Random(2024)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(2400):
        statuses[_check(_random_lp(rng)).status] += 1
    assert min(statuses.values()) >= 50, statuses


def _family_instances():
    """One or more instances of every `generate` family, by name."""
    yield "three-point", gen_three_point(F(1, 10))
    yield "three-point-0", gen_three_point(F(0))
    yield "wdmc-local-min", gen_wdmc_local_min(F(1, 200), F(1, 10))
    yield "ring-1", gen_ring(1)
    yield "ring-2", gen_ring(2)
    base, with_target = gen_hypercube(4)
    yield "hypercube", base
    yield "hypercube-target", with_target([0, 3, 5, 6])
    yield "cdmc", gen_cdmc_example()
    for k in (3, 5, 9):
        yield f"fibonacci-{k}", gen_fibonacci(k, F(1, 4 * (k + 1) * fibonacci_number(k + 1)))
    before, after = gen_dcma_example(F(1, 100))
    yield "dcma-before", before
    yield "dcma-after", after
    for seed, n in enumerate((4, 8, 12, 16, 20)):
        yield f"random-{n}", gen_random(n, n // 2, seed=seed)
        yield f"random-{n}-uniform", gen_random(n, n // 2, seed=seed, uniform_marginal=True)


@pytest.mark.parametrize("inst", [i for _, i in _family_instances()], ids=[n for n, _ in _family_instances()])
def test_matches_oracle_on_dma_problems(inst):
    assert _check(_dma_problem(inst)).status == "optimal"


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _lps(draw):
    nv = draw(st.integers(1, 4))
    nc = draw(st.integers(0, 4))
    constraints = tuple(
        (
            tuple(draw(_coeff) for _ in range(nv)),
            draw(st.sampled_from(["<=", "=", ">="])),
            draw(_coeff),
        )
        for _ in range(nc)
    )
    bounds = []
    for _ in range(nv):
        lo = draw(st.one_of(st.none(), st.fractions(-2, 0, max_denominator=3)))
        hi = draw(st.one_of(st.none(), st.fractions(0, 2, max_denominator=3)))
        bounds.append((lo, hi))
    objective = tuple(draw(_coeff) for _ in range(nv))
    return LPProblem(objective, constraints, tuple(bounds))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_lps())
def test_matches_oracle_on_hypothesis_lps(problem):
    _check(problem)


def test_negative_drive_out_pivot():
    # -x - y = 0 keeps its artificial basic at 0 through phase 1 (no entry
    # of the row is positive), so the drive-out pivots on the -1 of x.
    problem = LPProblem(
        objective=(F(-1), F(0), F(1)),
        constraints=(
            ((F(-1), F(-1), F(0)), "=", F(0)),
            ((F(0), F(1), F(1)), ">=", F(1)),
            ((F(1), F(0), F(1)), "<=", F(3)),
        ),
        bounds=((F(0), None),) * 3,
    )
    sol, pivots, signs = _solve_recording(problem)
    assert (0, 0) in pivots and signs[pivots.index((0, 0))] < 0
    assert sol == oracle_solve(problem)[0]
    assert sol == LPSolution("optimal", F(1), (F(0), F(0), F(1)))
