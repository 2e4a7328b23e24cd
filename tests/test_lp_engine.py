"""Cross-checks of the integer-row bounded-variable simplex in `lp_solve`
against two dense `Fraction` simplexes kept here as oracles.

`oracle_solve` is the straightforward exact form of the same method: every
tableau entry is a `Fraction` over the unscaled variables, every pivot
rebuilds every row and every flip rewrites the rhs by the bound.  Both sides
use Bland's rule with the same flips, so they must take the same pivots and
flips, in the same order, and end at the same vertex.  The pivots and flips
of `lp_solve` are recorded by wrapping `multiaccuracy._pivot` and
`multiaccuracy._flip`.

`oracle_solve_rows` is the general row-form simplex: `"<="`, `"="` and
`">="` rows, optional upper bounds, each finite bound a row of its own,
and an `unbounded` status.  Every LP's status and optimum are checked
against it too.

The same solvers are the references for the estimators' integer
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
from mcalaudit.estimators import _smce_numerators
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


def _price_out(tableau, rows):
    """Zero the last row's entries in the basic columns of `rows`, each
    given as (row index, basic column)."""
    for i, col in rows:
        factor = tableau[-1][col]
        if factor != 0:
            tableau[-1] = [v - factor * p for v, p in zip(tableau[-1], tableau[i])]


def oracle_solve_rows(objective, constraints, upper) -> tuple[LPSolution, list[tuple[int, int]]]:
    """Dense-Fraction two-phase simplex over x >= 0 with (coeffs, rel, rhs)
    rows, rel one of "<=", "=", ">=", and an upper bound or None per
    variable, each finite bound a row; returns the solution and its pivots."""
    pivots: list[tuple[int, int]] = []
    nv = len(objective)
    rows = [({j: c for j, c in enumerate(coeffs) if c != 0}, rel, rhs) for coeffs, rel, rhs in constraints]
    rows += [({j: F(1)}, "<=", hi) for j, hi in enumerate(upper) if hi is not None]

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
        _price_out(tableau, [(i, basis[i]) for i in art_rows])
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
    for j, c in enumerate(objective):
        phase2[j] = c
    tableau.append(phase2)
    _price_out(tableau, list(enumerate(basis)))
    if _oracle_simplex(tableau, basis, total, pivots) == "unbounded":
        return LPSolution("unbounded", None, ()), pivots

    values = [F(0)] * total
    for i in range(nrows):
        if basis[i] < total:
            values[basis[i]] = tableau[i][-1]
    return LPSolution("optimal", -tableau[-1][-1], tuple(values[:nv])), pivots


def _oracle_bounded_simplex(tableau, basis, upper, flipped, nrows, pivots, flips):
    """Bland's rule over the columns of `upper`; the entering variable stops
    at the first of its own bound (a flip), a basic variable falling to 0
    (a pivot) or a basic variable rising to its bound (a pivot, then a flip
    of the variable that left); ties go to the least variable index.  A
    basic variable without a bound (an artificial) never stops a step."""
    nv = len(upper)
    while True:
        obj = tableau[-1]
        enter = next((j for j in range(nv) if obj[j] < 0), None)
        if enter is None:
            return
        step, stop, leave = upper[enter], enter, None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                t = tableau[i][-1] / a
            elif a < 0 and basis[i] < nv:
                t = (upper[basis[i]] - tableau[i][-1]) / -a
            else:
                continue
            if t < step or (t == step and basis[i] < stop):
                step, stop, leave = t, basis[i], i
        if leave is None:
            _oracle_flip(tableau, upper, flipped, enter, flips)
            continue
        to_bound = tableau[leave][enter] < 0
        _oracle_pivot(tableau, leave, enter, pivots)
        basis[leave] = enter
        if to_bound:
            _oracle_flip(tableau, upper, flipped, stop, flips)


def _oracle_flip(tableau, upper, flipped, col, flips):
    """Replace x_col by upper_col - x_col in every row."""
    flips.append(col)
    flipped[col] = not flipped[col]
    for row in tableau:
        a = row[col]
        row[col] = -a
        row[-1] -= a * upper[col]


def oracle_solve(problem: LPProblem) -> tuple[LPSolution, list[tuple[int, int]], list[int]]:
    """Dense-Fraction two-phase bounded-variable simplex over the unscaled
    variables, with one artificial column per row; returns the solution,
    its pivots and its flips.  A variable with bound 0 gets a zero column,
    as in `lp_solve`."""
    pivots: list[tuple[int, int]] = []
    flips: list[int] = []
    nv = len(problem.objective)
    upper = problem.upper
    nrows = len(problem.constraints)
    tableau = []
    for i, (coeffs, rhs) in enumerate(problem.constraints):
        sign = -1 if rhs < 0 else 1
        row = [sign * c if hi else F(0) for c, hi in zip(coeffs, upper)] + [F(0)] * nrows + [sign * rhs]
        row[nv + i] = F(1)
        tableau.append(row)
    basis = [nv + i for i in range(nrows)]
    flipped = [False] * nv

    tableau.append([F(0)] * nv + [F(1)] * nrows + [F(0)])
    _price_out(tableau, list(enumerate(basis)))
    _oracle_bounded_simplex(tableau, basis, upper, flipped, nrows, pivots, flips)
    if tableau[-1][-1] != 0:
        return LPSolution("infeasible", None, ()), pivots, flips
    tableau.pop()
    for i in range(nrows):
        if basis[i] >= nv:
            for j in range(nv):
                if tableau[i][j] != 0:
                    _oracle_pivot(tableau, i, j, pivots)
                    basis[i] = j
                    break

    phase2 = [c if hi else F(0) for c, hi in zip(problem.objective, upper)] + [F(0)] * (nrows + 1)
    for j in range(nv):
        if flipped[j]:
            phase2[-1] -= phase2[j] * upper[j]
            phase2[j] = -phase2[j]
    tableau.append(phase2)
    _price_out(tableau, list(enumerate(basis)))
    _oracle_bounded_simplex(tableau, basis, upper, flipped, nrows, pivots, flips)

    values = [upper[j] if flipped[j] else F(0) for j in range(nv)]
    for i, j in enumerate(basis):
        if j < nv:
            values[j] = upper[j] - tableau[i][-1] if flipped[j] else tableau[i][-1]
    return LPSolution("optimal", -tableau[-1][-1], tuple(values)), pivots, flips


def _solve_recording(problem):
    """lp_solve(problem) with its pivots as (row, col), their entries' signs
    and its flips as columns.  A solve that takes more than 1000 steps
    fails, since no LP here needs that many and a broken ratio test can
    loop forever."""
    pivots: list[tuple[int, int]] = []
    signs: list[int] = []
    flips: list[int] = []
    real_pivot, real_flip = ma._pivot, ma._flip

    def spy_pivot(tab, dens, row, col):
        pivots.append((row, col))
        signs.append(1 if tab[row][col] > 0 else -1)
        assert len(pivots) + len(flips) <= 1000, "the simplex does not end"
        real_pivot(tab, dens, row, col)

    def spy_flip(rows, flipped, col):
        flips.append(col)
        assert len(pivots) + len(flips) <= 1000, "the simplex does not end"
        real_flip(rows, flipped, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ma, "_pivot", spy_pivot)
        mp.setattr(ma, "_flip", spy_flip)
        return lp_solve(problem), pivots, signs, flips


def _check(problem) -> LPSolution:
    sol, pivots, _, flips = _solve_recording(problem)
    expected, expected_pivots, expected_flips = oracle_solve(problem)
    assert sol == expected
    assert pivots == expected_pivots
    assert flips == expected_flips
    equalities = [(coeffs, "=", rhs) for coeffs, rhs in problem.constraints]
    rows, _ = oracle_solve_rows(problem.objective, equalities, problem.upper)
    assert (sol.status, sol.optimum) == (rows.status, rows.optimum)
    return sol


def test_matches_oracle_on_seeded_random_lps():
    rng = random.Random(2024)
    statuses = {"optimal": 0, "infeasible": 0}
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


def _smce_split_lp(values, n_counts, label_sums):
    """The smce LP with each weight w_a = p_a - q_a split into two
    non-negative columns and its range -1 <= w_a <= 1 written as rows, as
    the arguments of `oracle_solve_rows`."""
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
    return objective, constraints, (None,) * (2 * d)


def _one_batch_smce(values, n_counts, label_sums, m) -> F:
    """The statistic of one batch of m samples, as `_smce_numerators` gives it."""
    (num,), den = _smce_numerators(values, [n_counts], [label_sums], m)
    return F(num, den)


def test_smce_matches_the_lp_with_explicit_lower_rows():
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randrange(1, 5)
        values = sorted(rng.sample([F(i, 12) for i in range(13)], d))
        n_counts = [rng.randrange(0, 6) for _ in range(d)]
        label_sums = [rng.randrange(0, c + 1) for c in n_counts]
        m = max(1, sum(n_counts))
        expected, _ = oracle_solve_rows(*_smce_split_lp(values, n_counts, label_sums))
        assert expected.status == "optimal"
        assert _one_batch_smce(values, n_counts, label_sums, m) == -expected.optimum / m


def _smce_box_lp(values, coeffs) -> LPProblem:
    """The smce LP over w' = w + 1 in [0, 2]: the maximum over w is the
    maximum over w' less the sum of the coefficients.  Each bound
    |w'_(a+1) - w'_a| <= gap is two equalities, each with a slack column
    bounded by gap + 2, which no feasible w' reaches."""
    d = len(values)
    nv = 3 * d - 2
    constraints = []
    upper = [F(2)] * d
    for a in range(d - 1):
        gap = values[a + 1] - values[a]
        for sign in (1, -1):
            row = [F(0)] * nv
            row[a], row[a + 1] = F(-sign), F(sign)
            row[d + len(constraints)] = F(1)
            constraints.append((tuple(row), gap))
            upper.append(gap + 2)
    return LPProblem(tuple(-c for c in coeffs) + (F(0),) * (nv - d), tuple(constraints), tuple(upper))


def _check_smce(values, n_counts, label_sums):
    """The integer breakpoint solver against `lp_solve` on the box LP and
    against the dense oracle on the split LP, exactly."""
    m = max(1, sum(n_counts))
    got = _one_batch_smce(values, n_counts, label_sums, m)
    coeffs = [F(label_sums[a]) - n_counts[a] * values[a] for a in range(len(values))]
    box = lp_solve(_smce_box_lp(values, coeffs))
    assert box.status == "optimal"
    assert got == (-box.optimum - sum(coeffs)) / m
    split, _ = oracle_solve_rows(*_smce_split_lp(values, n_counts, label_sums))
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
    constraints = tuple((tuple(draw(_coeff) for _ in range(nv)), draw(_coeff)) for _ in range(nc))
    upper = tuple(draw(st.fractions(0, 2, max_denominator=3)) for _ in range(nv))
    objective = tuple(draw(_coeff) for _ in range(nv))
    return LPProblem(objective, constraints, upper)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_lps())
def test_matches_oracle_on_hypothesis_lps(problem):
    _check(problem)


def test_an_lp_without_constraint_rows():
    # phase 1 has no artificial to price out; phase 2 takes each variable
    # to the bound its cost prefers
    problem = LPProblem((F(1), F(-1)), (), (F(1), F(2)))
    assert _check(problem) == LPSolution("optimal", F(-2), (F(0), F(2)))


def test_negative_drive_out_pivot():
    # -x - y = 0 keeps its artificial basic at 0 through phase 1 (no entry
    # of the row is positive, and an artificial has no bound to rise to),
    # so the drive-out pivots on the -1 of x.  The other rows are
    # y + z >= 1 and x + z <= 3 with the slack columns s1 and s2.
    problem = LPProblem(
        objective=(F(-1), F(0), F(1), F(0), F(0)),
        constraints=(
            ((F(-1), F(-1), F(0), F(0), F(0)), F(0)),
            ((F(0), F(1), F(1), F(-1), F(0)), F(1)),
            ((F(1), F(0), F(1), F(0), F(1)), F(3)),
        ),
        upper=(F(5),) * 5,
    )
    sol, pivots, signs, _ = _solve_recording(problem)
    assert (0, 0) in pivots and signs[pivots.index((0, 0))] < 0
    assert sol == _check(problem)
    assert sol == LPSolution("optimal", F(1), (F(0), F(0), F(1), F(0), F(2)))


def test_dma_tableau_has_one_row_per_group(monkeypatch):
    # Bounds are flips, never rows: both phases run on |G| constraint rows
    # of 2n variable columns and the rhs.
    shapes = []
    real = ma._simplex

    def spy(rows, dens, basis, flipped, nrows):
        shapes.append((nrows, len(rows[0])))
        real(rows, dens, basis, flipped, nrows)

    monkeypatch.setattr(ma, "_simplex", spy)
    for _, inst in _family_instances():
        shapes.clear()
        ma.dma(inst)
        assert shapes == [(len(inst.groups), 2 * inst.n + 1)] * 2


def test_a_phase_that_does_not_end_is_an_internal_error(monkeypatch):
    # A ratio test that pivots a variable to its bound and then drops that
    # variable's flip is a solver defect; on this LP (one of the seeded
    # random LPs, which is infeasible) phase 1 loops for ever.  The step
    # bound ends it after STEPS_PER_SIZE * (2 rows + 3 columns) pivots and
    # flips.
    problem = LPProblem(
        objective=(F(1), F(-1), F(3)),
        constraints=(((F(4), F(1, 2), F(-3)), F(0)), ((F(2), F(1, 3), F(1, 2)), F(1))),
        upper=(F(2), F(1), F(1, 3)),
    )
    assert _check(problem).status == "infeasible"
    real_pivot, real_flip = ma._pivot, ma._flip
    to_bound = [False]

    def pivot(tab, dens, row, col):
        to_bound[0] = tab[row][col] < 0
        real_pivot(tab, dens, row, col)

    def flip(rows, flipped, col):
        if to_bound[0]:
            to_bound[0] = False
            return
        real_flip(rows, flipped, col)

    monkeypatch.setattr(ma, "_pivot", pivot)
    monkeypatch.setattr(ma, "_flip", flip)
    with pytest.raises(RuntimeError, match=r"^simplex phase took \d+ pivots and flips on 2 rows and 3 columns$") as e:
        lp_solve(problem)
    # A pivot and its flip count two steps, so the bound may be passed by one.
    assert int(str(e.value).split()[3]) - ma.STEPS_PER_SIZE * 5 in (0, 1)
