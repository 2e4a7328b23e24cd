"""Cross-checks of the integer-row simplex in `lp_solve` against a dense
`Fraction` two-phase simplex kept here as an oracle.

The oracle is the straightforward exact method: every tableau entry is a
`Fraction` and every pivot rebuilds every row.  Both sides use Bland's rule
on the same tableau, so they must take the same pivots, in the same order,
and end at the same vertex.  The pivots of `lp_solve` are recorded by
wrapping `multiaccuracy._pivot`.

The same two solvers are the references for the estimators' integer
breakpoint solver of the smce statistic, which must match both exactly.
"""

import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcalaudit.multiaccuracy as ma
from mcalaudit import LPProblem, LPSolution, lp_solve
from mcalaudit.estimators import _smce_from_counts
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
    nv = len(problem.objective)
    rows = [({j: c for j, c in enumerate(coeffs) if c != 0}, rel, rhs) for coeffs, rel, rhs in problem.constraints]
    rows += [({j: F(1)}, "<=", hi) for j, hi in enumerate(problem.upper) if hi is not None]

    nrows = len(rows)
    total = nv + sum(1 for _, rel, _ in rows if rel != "=")
    tableau = []
    basis = []
    slack_at = nv
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
    for j, c in enumerate(problem.objective):
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
    return LPSolution("optimal", -tableau[-1][-1], tuple(values[:nv])), pivots


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


def _smce_split_lp(values, n_counts, label_sums) -> LPProblem:
    """The smce LP with each weight w_a = p_a - q_a split into two
    non-negative columns and its range -1 <= w_a <= 1 written as rows."""
    d = len(values)
    coeffs = [F(label_sums[a]) - n_counts[a] * values[a] for a in range(d)]

    def w(pairs):
        row = [F(0)] * (2 * d)
        for a, c in pairs:
            row[a], row[d + a] = F(c), F(-c)
        return tuple(row)

    constraints = []
    for a in range(d - 1):
        gap = values[a + 1] - values[a]
        constraints += [(w([(a + 1, 1), (a, -1)]), "<=", gap), (w([(a, 1), (a + 1, -1)]), "<=", gap)]
    for a in range(d):
        constraints += [(w([(a, 1)]), ">=", F(-1)), (w([(a, 1)]), "<=", F(1))]
    objective = tuple(-c for c in coeffs) + tuple(coeffs)
    return LPProblem(objective, tuple(constraints), (None,) * (2 * d))


def test_smce_matches_the_lp_with_explicit_lower_rows():
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randrange(1, 5)
        values = sorted(rng.sample([F(i, 12) for i in range(13)], d))
        n_counts = [rng.randrange(0, 6) for _ in range(d)]
        label_sums = [rng.randrange(0, c + 1) for c in n_counts]
        m = max(1, sum(n_counts))
        expected, _ = oracle_solve(_smce_split_lp(values, n_counts, label_sums))
        assert expected.status == "optimal"
        assert _smce_from_counts(values, n_counts, label_sums, m) == -expected.optimum / m


def _smce_box_lp(values, coeffs) -> LPProblem:
    """The smce LP over w' = w + 1 in [0, 2]: the maximum over w is the
    maximum over w' less the sum of the coefficients."""
    d = len(values)
    constraints = []
    for a in range(d - 1):
        gap = values[a + 1] - values[a]
        row = [F(0)] * d
        row[a], row[a + 1] = F(-1), F(1)
        constraints += [(tuple(row), "<=", gap), (tuple(-c for c in row), "<=", gap)]
    return LPProblem(tuple(-c for c in coeffs), tuple(constraints), (F(2),) * d)


def _check_smce(values, n_counts, label_sums):
    """The integer breakpoint solver against `lp_solve` on the box LP and
    against the dense oracle on the split LP, exactly."""
    m = max(1, sum(n_counts))
    got = _smce_from_counts(values, n_counts, label_sums, m)
    coeffs = [F(label_sums[a]) - n_counts[a] * values[a] for a in range(len(values))]
    box = lp_solve(_smce_box_lp(values, coeffs))
    assert box.status == "optimal"
    assert got == (-box.optimum - sum(coeffs)) / m
    split, _ = oracle_solve(_smce_split_lp(values, n_counts, label_sums))
    assert got == -split.optimum / m


def _smce_case(rng, d):
    """Sorted distinct values over one to three denominators, sometimes
    including 0 and 1, with zero, small and beyond-int64 counts and label
    sums of 0, of the count, or in between."""
    dens = [rng.choice((9, 12, 100))] + rng.sample((1, 2, 3, 5, 7), rng.randrange(0, 3))
    grid = sorted({F(i, den) for den in dens for i in range(1, den)})
    values = rng.sample(grid, d)
    if rng.random() < 0.3:
        values[0] = F(0)
    if rng.random() < 0.3:
        values[-1] = F(1)
    values = sorted(values)
    big = rng.random() < 0.15
    n_counts = [rng.choice((0, rng.randrange(1, 20), rng.randrange(2**63, 2**70) if big else 7)) for _ in range(d)]
    label_sums = [rng.choice((0, n, rng.randrange(0, n + 1))) for n in n_counts]
    return values, n_counts, label_sums


# 2000 cases; the dense oracle costs ~25 ms at d = 8, so the larger d get fewer.
@pytest.mark.parametrize("d,cases", [(1, 440), (2, 440), (3, 440), (4, 440), (5, 60), (6, 60), (7, 60), (8, 60)])
def test_smce_solver_matches_both_lps_on_seeded_counts(d, cases):
    rng = random.Random(1000 + d)
    seen = {"zero count": 0, "no ones": 0, "all ones": 0, "value 0": 0, "value 1": 0, "mixed denominators": 0, "count > 2^63": 0}
    for _ in range(cases):
        values, n_counts, label_sums = _smce_case(rng, d)
        _check_smce(values, n_counts, label_sums)
        seen["zero count"] += 0 in n_counts
        seen["no ones"] += any(n and not s for n, s in zip(n_counts, label_sums))
        seen["all ones"] += any(n and s == n for n, s in zip(n_counts, label_sums))
        seen["value 0"] += values[0] == 0
        seen["value 1"] += values[-1] == 1
        seen["mixed denominators"] += len({v.denominator for v in values}) > 1
        seen["count > 2^63"] += max(n_counts) > 2**63
    if d == 1:
        del seen["mixed denominators"]  # one value has one denominator
    assert min(seen.values()) >= 5, seen


@st.composite
def _smce_counts(draw):
    d = draw(st.integers(1, 8))
    values = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=12), min_size=d, max_size=d, unique=True)))
    n_counts = draw(st.lists(st.one_of(st.integers(0, 20), st.integers(2**63, 2**70)), min_size=d, max_size=d))
    label_sums = [draw(st.integers(0, n)) for n in n_counts]
    return values, n_counts, label_sums


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_smce_counts())
def test_smce_solver_matches_both_lps_on_hypothesis_counts(case):
    _check_smce(*case)


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
    upper = tuple(draw(st.one_of(st.none(), st.fractions(0, 2, max_denominator=3))) for _ in range(nv))
    objective = tuple(draw(_coeff) for _ in range(nv))
    return LPProblem(objective, constraints, upper)


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
        upper=(None,) * 3,
    )
    sol, pivots, signs = _solve_recording(problem)
    assert (0, 0) in pivots and signs[pivots.index((0, 0))] < 0
    assert sol == oracle_solve(problem)[0]
    assert sol == LPSolution("optimal", F(1), (F(0), F(0), F(1)))
