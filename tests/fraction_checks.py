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
