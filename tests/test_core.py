import io
import json
import random
from fractions import Fraction

import pytest

import fraction_checks as oracle

from mcalaudit import (
    FiniteDomain,
    Instance,
    Marginal,
    PredictorVec,
    Subgroup,
    SubgroupCollection,
    conditional_l1,
    dump_instance,
    group_mass,
    instance_from_dict,
    instance_to_dict,
    l1_distance,
    load_instance,
    rat,
    validate,
)
from mcalaudit.core import _int_numerators, to_decimal
from mcalaudit.instances import gen_random


def test_rat_accepts_ints_strings_fractions():
    assert rat(3) == Fraction(3)
    assert rat("4/5") == Fraction(4, 5)
    assert rat("0.8") == Fraction(4, 5)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_rat_bounds_the_decimal_exponent():
    assert rat("1e-3") == Fraction(1, 1000)
    assert rat(" 25E-1 ") == Fraction(5, 2)
    assert rat("1e-4300") == Fraction(1, 10**4300)
    assert rat("1e4_300") == 10**4300
    assert rat("1e" + "0" * 4299 + "1") == 10
    for text in ("1e-4301", "1E+4301", "2.5e-2000000"):
        with pytest.raises(ValueError, match="decimal exponent beyond"):
            rat(text)
    # read before int(), whose own limit on digits would speak first
    for text in ("1e" + "9" * 5000, "1e" + "0" * 5000 + "1"):
        with pytest.raises(ValueError, match="^decimal exponent longer than 4300 characters$"):
            rat(text)


def test_rat_refuses_a_long_run_of_digits_in_its_own_words():
    assert rat("1" * 4300) == int("1" * 4300)
    assert rat("0." + "1" * 4300) == Fraction(int("1" * 4300), 10**4300)
    assert rat("1/" + "3" * 4300) == Fraction(1, int("3" * 4300))
    assert rat("1_" * 4299 + "1") == int("1" * 4300)  # underscores are no digits
    thousands = int("1" * 3000)
    assert rat("1" * 3000 + "." + "1" * 3000) == thousands + Fraction(thousands, 10**3000)
    # read before int(), whose own limit on digits would speak first
    for text in ("1" * 5000, "0." + "1" * 5000, "1/" + "3" * 5000, "1" * 4301, "1_" * 4300 + "1"):
        with pytest.raises(ValueError, match="^more than 4300 digits in a row$"):
            rat(text)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.8)


def test_rat_rejects_bools():
    for b in (True, False):
        with pytest.raises(TypeError, match="bool"):
            rat(b)


def test_to_decimal_rendering():
    assert to_decimal(Fraction(1, 2)) == "0.5"
    assert to_decimal(Fraction(1, 3)).startswith("0.3333333333")
    # round-half-even at the rendered precision
    assert to_decimal(Fraction(1, 8), digits=2) == "0.12"
    assert to_decimal(Fraction(3, 8), digits=2) == "0.38"


def test_subgroup_sorted_nonempty():
    s = Subgroup([2, 0])
    assert s.members == (0, 2)
    assert 2 in s and 1 not in s
    with pytest.raises(ValueError):
        Subgroup([])


@pytest.mark.parametrize("members", [[0, 0, 1], [2, 0, 2], [1, 1]])
def test_subgroup_refuses_a_repeated_member(members):
    # refused, as a repeated group is, rather than silently shrunk
    with pytest.raises(ValueError, match="repeated member"):
        Subgroup(members)


@pytest.mark.parametrize("member", [1.9, 1.0, True, "1"])
def test_subgroup_refuses_non_integer_members(member):
    with pytest.raises(ValueError, match="must be an integer"):
        Subgroup([0, member])


def test_collection_rejects_duplicate_member_sets():
    with pytest.raises(ValueError):
        SubgroupCollection([[0, 1], [1, 0]])


def test_collection_covers():
    c = SubgroupCollection([[0, 1], [1, 2]])
    assert c.covers(3)
    assert not c.covers(4)


def _toy_instance() -> Instance:
    return Instance(
        domain=FiniteDomain(3),
        marginal=Marginal(["1/2", "1/4", "1/4"]),
        ground_truth=PredictorVec(["4/5", "1/5", "1/2"]),
        groups=SubgroupCollection([[0, 1], [1, 2]]),
        audited=PredictorVec(["1/2", "1/2", "1/2"]),
    )


def test_l1_and_conditional_l1():
    inst = _toy_instance()
    d = l1_distance(inst.audited, inst.ground_truth, inst.marginal)
    assert d == Fraction(1, 2) * Fraction(3, 10) + Fraction(1, 4) * Fraction(3, 10)
    S = inst.groups[0]
    assert group_mass(inst.marginal, S) == Fraction(3, 4)
    c = conditional_l1(inst.audited, inst.ground_truth, inst.marginal, S)
    assert c == (Fraction(1, 2) * Fraction(3, 10) + Fraction(1, 4) * Fraction(3, 10)) / Fraction(3, 4)


def test_validate_flags_bad_marginal_and_range():
    inst = _toy_instance()
    bad = Instance(
        inst.domain,
        Marginal(["1/2", "1/4", "1/8"]),
        inst.ground_truth,
        inst.groups,
        inst.audited,
    )
    r = validate(bad)
    assert not r.valid and any("mass" in v for v in r.violations)

    bad2 = inst.with_audited(PredictorVec(["3/2", "1/2", "1/2"]))
    r2 = validate(bad2)
    assert not r2.valid and any("outside" in v for v in r2.violations)


def test_validate_words_every_violation_as_the_fraction_checks_do():
    rng = random.Random(31)
    mutations = {
        "marginal": lambda ms: [-ms[0], *ms[1:]] if rng.random() < 0.5 else [Fraction(0), *ms[1:]],
        "mass": lambda ms: [ms[0] * rng.choice((Fraction(1, 2), Fraction(3), Fraction(9, 10))), *ms[1:]],
        "bound": lambda vs: [rng.choice((Fraction(-1, 7), Fraction(11, 10), Fraction(2))), *vs[1:]],
        "edge": lambda vs: [Fraction(0), Fraction(1), *vs[2:]],
        "short": lambda vs: vs[1:],
    }
    seen = []
    for s in range(200):
        inst = gen_random(2 + s % 6, 1 + s % 2, seed=s)
        ms, ps, fs = list(inst.marginal.probs), list(inst.ground_truth.values), list(inst.audited.values)
        for _ in range(rng.randrange(1, 4)):
            which = rng.choice(("marginal", "mass", "bound", "edge", "short", "group"))
            if which in ("marginal", "mass"):
                ms = mutations[which](ms)
            elif which == "group":  # a point past the domain, in a group of its own
                extra = (inst.n + rng.randrange(3),)
                if all(g.members != extra for g in inst.groups):
                    inst = inst.with_groups(SubgroupCollection([*inst.groups, extra]))
            else:
                target = rng.choice((ps, fs, ms))
                target[:] = mutations[which](target)
        bad = Instance(inst.domain, Marginal(ms), PredictorVec(ps), inst.groups, PredictorVec(fs))
        expected = oracle.validate_messages(bad)
        assert list(validate(bad).violations) == expected
        assert validate(bad).valid == (not expected)
        seen.extend(expected)
    kinds = ("marginal mass is", "strictly positive", "entries outside", "entries, domain has", "outside the domain")
    assert all(sum(kind in v for v in seen) >= 20 for kind in kinds)


def test_a_valid_instance_need_not_cover():
    inst = _toy_instance()
    assert validate(inst).valid and inst.groups.covers(inst.n)
    partial = inst.with_groups(SubgroupCollection([[0, 1]]))
    assert validate(partial).valid and not partial.groups.covers(partial.n)


def test_int_numerators_share_the_lcm_of_the_denominators():
    values = [Fraction(1, 4), Fraction(-5, 6), 3, Fraction(0), Fraction(7, 9)]
    nums, den = _int_numerators(values)
    assert den == 36
    assert nums == [(v * den).numerator for v in values] == [9, -30, 108, 0, 28]
    assert _int_numerators([]) == ([], 1)


def test_json_round_trip_preserves_rationals():
    inst = _toy_instance()
    d = instance_to_dict(inst)
    again = instance_from_dict(json.loads(json.dumps(d)))
    assert again == inst


def test_dump_load_instance():
    inst = _toy_instance()
    buf = io.StringIO()
    dump_instance(inst, buf)
    buf.seek(0)
    assert load_instance(buf) == inst
    assert load_instance(dump_instance(inst)) == inst


def test_decimal_strings_accepted_on_input():
    d = instance_to_dict(_toy_instance())
    d["f"] = ["0.5", "0.5", "0.5"]
    inst = instance_from_dict(d)
    assert inst.audited[0] == Fraction(1, 2)


def test_with_values_and_restrict():
    v = PredictorVec(["1/2", "1/4", "3/4"])
    w = v.with_values({1: Fraction(1, 8)})
    assert w.values == (Fraction(1, 2), Fraction(1, 8), Fraction(3, 4))
    assert v.values[1] == Fraction(1, 4)  # original untouched
    # updates are read as rationals, as the constructor reads its values
    assert v.with_values({0: "1/3", 2: 1}) == PredictorVec(["1/3", "1/4", "1"])
    assert all(type(x) is Fraction for x in v.with_values({2: 1}).values)
    with pytest.raises(TypeError):
        v.with_values({0: 0.5})
