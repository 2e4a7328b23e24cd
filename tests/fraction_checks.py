"""The membership checks and the l1 distance in plain `Fraction` sums,
point by point, as the definitions read: the oracles that the package's
integer checks are compared against."""

from fractions import Fraction


def is_calibrated(f, inst, S):
    by_value = {}
    for i in S.members:
        by_value.setdefault(f[i], []).append(i)
    m = inst.marginal
    p = inst.ground_truth
    for v, idxs in by_value.items():
        mass = sum((m[i] for i in idxs), Fraction(0))
        mean_num = sum((m[i] * p[i] for i in idxs), Fraction(0))
        if mean_num != v * mass:
            return False
    return True


def is_multiaccurate(f, inst):
    m = inst.marginal
    p = inst.ground_truth
    for S in inst.groups:
        diff = sum((m[i] * (p[i] - f[i]) for i in S.members), Fraction(0))
        if diff != 0:
            return False
    return True


def is_degree_r_multicalibrated(f, inst, r):
    m = inst.marginal
    p = inst.ground_truth
    for S in inst.groups:
        for j in range(min(r, len({f[i] for i in S.members}))):
            total = sum((m[i] * f[i] ** j * (f[i] - p[i]) for i in S.members), Fraction(0))
            if total != 0:
                return False
    return True


def l1_distance(f, g, m):
    return sum((m[i] * abs(f[i] - g[i]) for i in range(f.n)), Fraction(0))


def group_mass(m, S):
    return sum((m[i] for i in S.members), Fraction(0))


def signed_bias_mass(f, inst, S):
    """sum over S of m(x)(p*(x) - f(x)): the group's mass times its signed bias."""
    m = inst.marginal
    p = inst.ground_truth
    return sum((m[i] * (p[i] - f[i]) for i in S.members), Fraction(0))


def dma_problem(inst):
    """dma's LP over (u, v) with g = f + u - v, as `Fraction` sums: the
    objective (m, m), one row (m on u, -m on v over S; rhs the signed bias
    mass) per group, and the upper bounds (1 - f, f)."""
    n, m, f = inst.n, inst.marginal, inst.audited
    rows = []
    for S in inst.groups:
        coeffs = [Fraction(0)] * (2 * n)
        for i in S.members:
            coeffs[i] = m[i]
            coeffs[n + i] = Fraction(0) - m[i]
        rows.append((tuple(coeffs), signed_bias_mass(f, inst, S)))
    upper = [Fraction(1) - f[i] for i in range(n)] + [f[i] for i in range(n)]
    return tuple(m.probs) * 2, tuple(rows), tuple(upper)


def validate_messages(inst):
    """The violations of `core.validate`, each test read off `Fraction`
    comparisons and the marginal's mass a `Fraction` sum."""
    violations = []
    n = inst.domain.n
    probs = inst.marginal.probs
    if len(probs) != n:
        violations.append(f"marginal has {len(probs)} entries, domain has {n}")
    else:
        if any(p <= 0 for p in probs):
            violations.append("marginal must be strictly positive on every point")
        total = sum(probs, Fraction(0))
        if total != 1:
            violations.append(f"marginal mass is {total}, not 1")
    for name, vec in (("p_star", inst.ground_truth), ("f", inst.audited)):
        if vec.n != n:
            violations.append(f"{name} has {vec.n} entries, domain has {n}")
        elif any(v < 0 or v > 1 for v in vec.values):
            violations.append(f"{name} has entries outside [0, 1]")
    for g in inst.groups:
        if g.members[-1] >= n:
            violations.append(f"group {g.members} references points outside the domain")
    return violations
