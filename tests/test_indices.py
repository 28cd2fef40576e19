from __future__ import annotations

import copy
import functools
import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import (
    Allocation,
    BandedWeightParams,
    EQUAL_SPLIT,
    Index,
    IndexValues,
    NonPositiveWeight,
    PADDED_SHARE,
    PRO_RATA,
    REFERENCE_INDICES,
    SQUARED_STREAMS,
    STREAM_SHARE,
    UNIFORM,
    USER_CENTRIC,
    WeightSystem,
    ZeroIndexSum,
    banded_index,
    banded_weight_system,
    check_additivity,
    index_from_weights,
    new_problem,
    rewards,
    standard_indices,
    table_weight_system,
    weighted_index,
)
from streamshare.axioms import ProblemGenerator

from helpers import (
    REFERENCE_INVERSE_TOTAL,
    REFERENCE_KERNEL_SCORES,
    REFERENCE_UNIT,
    reference_banded_weight_system,
    reference_fraction_equal_split_integers,
    reference_fraction_padded_share_integers,
    reference_fraction_weighted_integers,
    reference_pro_rata_index,
    reference_rewards,
    reference_total,
    reference_user_centric_index,
    reference_weighted_index,
    sparse_problem_with_silent_artists,
    three_user_problem,
)

F = Fraction

KERNELS = (PRO_RATA, USER_CENTRIC, *REFERENCE_INDICES)

# -- the two practical schemes ------------------------------------------


def test_pro_rata_two_user(two_user):
    values = PRO_RATA(two_user)
    assert values.as_dict() == {"1": 10, "2": 90}
    pay = rewards(two_user, values)
    assert pay.as_dict() == {"1": F(1, 5), "2": F(9, 5)}


def test_user_centric_two_user(two_user):
    values = USER_CENTRIC(two_user)
    assert values.as_dict() == {"1": 1, "2": 1}
    pay = rewards(two_user, values)
    assert pay.as_dict() == {"1": 1, "2": 1}


def test_user_centric_three_user(three_user):
    values = USER_CENTRIC(three_user)
    assert values["1"] == F(9, 8)   # 1 + 5/40
    assert values["2"] == F(15, 8)  # 1 + 35/40
    pay = rewards(three_user, values)
    assert pay.as_dict() == {"1": F(9, 8), "2": F(15, 8)}


def test_pro_rata_three_user_rewards(three_user):
    pay = rewards(three_user, PRO_RATA(three_user))
    assert pay.as_dict() == {"1": F(9, 28), "2": F(75, 28)}


def test_user_centric_sums_to_user_count():
    for problem in ProblemGenerator(seed=3).sample(50):
        assert USER_CENTRIC(problem).total == problem.user_count


def test_rewards_exhaust_revenue():
    for problem in ProblemGenerator(seed=4).sample(50):
        for index in (PRO_RATA, USER_CENTRIC):
            assert rewards(problem, index(problem)).total == problem.revenue


# -- weighted family -----------------------------------------------------


def test_unit_weights_reduce_to_pro_rata():
    ones = WeightSystem("ones", lambda user, profile: F(1))
    for problem in ProblemGenerator(seed=5).sample(40):
        assert weighted_index(problem, ones).as_dict() == PRO_RATA(problem).as_dict()


def test_inverse_total_weights_reduce_to_user_centric():
    inv = WeightSystem("inverse", lambda user, profile: F(1, sum(profile)))
    for problem in ProblemGenerator(seed=6).sample(40):
        assert weighted_index(problem, inv).as_dict() == USER_CENTRIC(problem).as_dict()


def test_weighted_kernel_matches_reference_loops():
    rng = random.Random(17)
    banded = banded_weight_system(BandedWeightParams(20, 60))
    problems = ProblemGenerator(seed=21, max_artists=7, max_users=9,
                                max_streams=40).sample(150)
    big = sparse_problem_with_silent_artists(22)
    assert any(sum(row) == 0 for row in big.streams)
    for problem in problems + [big]:
        table = table_weight_system(
            {u: F(rng.randint(1, 12), rng.randint(1, 12)) for u in problem.users})
        assert PRO_RATA(problem) == reference_pro_rata_index(problem)
        assert USER_CENTRIC(problem) == reference_user_centric_index(problem)
        for ws in (banded, table):
            assert weighted_index(problem, ws) == reference_weighted_index(problem, ws)


def test_builtin_kernels_match_fraction_sums_and_payouts_total_the_revenue():
    kernels = {idx.name: idx for idx in (PRO_RATA, USER_CENTRIC, *REFERENCE_INDICES)}
    assert sorted(kernels) == sorted(REFERENCE_KERNEL_SCORES)
    problems = ProblemGenerator(seed=23, max_artists=7, max_users=9, max_streams=40,
                                fee=F(5, 2)).sample(150)
    for problem in problems + [sparse_problem_with_silent_artists(24, fee=F(7, 3))]:
        for name, index in kernels.items():
            values = index(problem)
            expected = REFERENCE_KERNEL_SCORES[name](problem)
            assert values.scores == expected
            assert values.total == reference_total(expected)
            assert values == IndexValues(problem.artists, expected)
        for index in (*kernels.values(), banded_index(20, 60)):
            values = index(problem)
            payout = rewards(problem, values)
            assert payout.amounts == reference_rewards(problem, values)
            assert payout.total == reference_total(payout.amounts) == problem.revenue
            assert payout == Allocation(problem.artists, payout.amounts)


def test_weight_system_must_be_positive_and_exact():
    zero = WeightSystem("zero", lambda user, profile: F(0))
    inexact = WeightSystem("inexact", lambda user, profile: 0.5)
    boolish = WeightSystem("bool", lambda user, profile: True)
    p = new_problem(["1"], ["a"], [[1]])
    for ws in (zero, inexact, boolish):
        with pytest.raises(NonPositiveWeight):
            weighted_index(p, ws)


def test_table_weight_system(two_user):
    ws = table_weight_system({"a": 1, "b": "1/9"})
    values = weighted_index(two_user, ws)
    assert values.as_dict() == {"1": 10, "2": 10}
    missing = table_weight_system({"a": 1})
    with pytest.raises(Exception):
        weighted_index(two_user, missing)


# -- banded weights --------------------------------------------------------


def test_banded_weight_branches():
    ws = banded_weight_system(BandedWeightParams(3, 6))
    assert ws("u", (3,)) == F(1, 3)      # at most alpha: inverse total
    assert ws("u", (2, 2)) == F(1, 3)    # between: one over alpha
    assert ws("u", (6,)) == F(1, 3)      # still the flat band
    assert ws("u", (7,)) == F(6, 21)     # above beta: damped
    assert ws("u", (1,)) == F(1)


@pytest.mark.parametrize("profile", [(0,), (0, 0), ()], ids=["zero", "zeros", "empty"])
def test_banded_weight_of_a_silent_user_is_refused(profile):
    ws = banded_weight_system(BandedWeightParams(1, 2))
    with pytest.raises(NonPositiveWeight) as caught:
        ws("u", profile)
    assert str(caught.value) == (
        "weight system 'banded(1,2)' returned 0 for user 'u'; need a positive rational")


def test_banded_three_user_golden(three_user):
    pay = rewards(three_user, banded_index(20, 60)(three_user))
    assert pay.as_dict() == {"1": F(5, 8), "2": F(19, 8)}


def test_banded_collapses_to_user_centric_when_band_is_trivial():
    for problem in ProblemGenerator(seed=9).sample(30):
        narrow = banded_index(1, 1)(problem)
        assert narrow.as_dict() == USER_CENTRIC(problem).as_dict()


def test_banded_collapses_to_pro_rata_with_wide_flat_band():
    for problem in ProblemGenerator(seed=10).sample(30):
        top = max(problem.user_total(u) for u in problem.users)
        wide = banded_index(1, top)(problem)
        assert rewards(problem, wide).as_dict() == rewards(
            problem, PRO_RATA(problem)
        ).as_dict()


@pytest.mark.parametrize("alpha,beta", [(0, 1), (3, 2), (-1, 5)])
def test_banded_params_validated(alpha, beta):
    with pytest.raises(ValueError):
        BandedWeightParams(alpha, beta)


def test_banded_params_require_integers():
    with pytest.raises(ValueError):
        BandedWeightParams(F(1, 2), 2)


# -- reference indices -------------------------------------------------------


def test_reference_values_two_user(two_user):
    assert UNIFORM(two_user).as_dict() == {"1": 1, "2": 1}
    assert SQUARED_STREAMS(two_user).as_dict() == {"1": 100, "2": 8100}
    assert STREAM_SHARE(two_user).as_dict() == {"1": F(1, 5), "2": F(9, 5)}
    assert EQUAL_SPLIT(two_user).as_dict() == {"1": 1, "2": 1}


def test_padded_share_two_user_exact(two_user):
    # per user j: (count + artist total) / (user total + grand total)
    one = F(10 + 10, 10 + 100) + F(0 + 10, 90 + 100)
    two = F(0 + 90, 10 + 100) + F(90 + 90, 90 + 100)
    assert one == F(49, 209)
    assert two == F(369, 209)
    assert PADDED_SHARE(two_user).as_dict() == {"1": one, "2": two}


def test_equal_split_three_user(three_user):
    values = EQUAL_SPLIT(three_user)
    assert values["1"] == F(3, 2)  # sole listener of a, half of c
    assert values["2"] == F(3, 2)


def test_reference_indices_tuple():
    names = [ix.name for ix in REFERENCE_INDICES]
    assert names == [
        "uniform", "padded-share", "squared-streams", "stream-share", "equal-split",
    ]


def test_standard_indices_lookup():
    table = standard_indices()
    assert set(table) >= {"pro-rata", "user-centric", "uniform"}
    with_band = standard_indices(20, 60)
    assert "banded" in with_band
    assert with_band["banded"].name == "banded(20,60)"


# -- rewards ------------------------------------------------------------------


def test_rewards_requires_matching_artists(two_user):
    values = IndexValues(("x", "y"), (F(1), F(1)))
    with pytest.raises(ValueError):
        rewards(two_user, values)


def test_rewards_scale_invariance_generated():
    rng = random.Random(12)
    for problem in ProblemGenerator(seed=12).sample(30):
        values = PRO_RATA(problem)
        factor = F(rng.randint(1, 9), rng.randint(1, 9))
        assert rewards(problem, values.scaled(factor)).as_dict() == rewards(
            problem, values
        ).as_dict()


@settings(max_examples=40, deadline=None)
@given(
    num=st.integers(1, 30),
    den=st.integers(1, 30),
    seed=st.integers(0, 10_000),
)
def test_rewards_scale_invariance_property(num, den, seed):
    problem = next(iter(ProblemGenerator(seed=seed).sample(1)))
    for index in (PRO_RATA, USER_CENTRIC, SQUARED_STREAMS):
        values = index(problem)
        scaled = values.scaled(F(num, den))
        assert rewards(problem, scaled).as_dict() == rewards(problem, values).as_dict()


def test_index_wrapper_repr_and_call(two_user):
    ix = index_from_weights(WeightSystem("ones", lambda u, p: F(1)))
    assert isinstance(ix, Index)
    assert "ones" in repr(ix)
    assert ix(two_user).as_dict() == {"1": 10, "2": 90}


# -- integer form of index values -------------------------------------------------


def test_kernel_values_build_their_fractions_on_first_read():
    for problem in ProblemGenerator(seed=25, fee=F(7, 3)).sample(30) + [three_user_problem()]:
        for index in KERNELS:
            expected = IndexValues(problem.artists, REFERENCE_KERNEL_SCORES[index.name](problem))
            d, numerators = expected._integers
            assert [F(n, d) for n in numerators] == list(expected.scores)
            fresh = [index(problem) for _ in range(7)]
            assert all(vars(v).keys() == {"artists", "_integers"} for v in fresh)
            assert fresh[0] == expected and expected == fresh[1]
            assert hash(fresh[2]) == hash(expected)
            assert repr(fresh[3]) == repr(expected)
            assert fresh[4].total == expected.total and "scores" not in vars(fresh[4])
            assert fresh[5].as_dict() == expected.as_dict()
            assert [fresh[6][a] for a in problem.artists] == list(expected.scores)
            assert vars(fresh[0])["scores"] is fresh[0].scores  # built once, then kept
            assert not hasattr(fresh[0], "amounts")


def test_kernel_values_survive_pickle_copy_and_replace(three_user):
    for index in KERNELS:
        expected = IndexValues(three_user.artists, REFERENCE_KERNEL_SCORES[index.name](three_user))
        for clone in (pickle.loads(pickle.dumps(index(three_user))),
                      copy.copy(index(three_user)), copy.deepcopy(index(three_user))):
            assert "scores" not in vars(clone)
            assert clone == expected
            assert rewards(three_user, clone) == rewards(three_user, expected)
        values = index(three_user)
        assert replace(values) == expected
        assert replace(values, artists=("x", "y")) == IndexValues(("x", "y"), expected.scores)
        assert pickle.loads(pickle.dumps(values)) == expected  # after the scores were read


def test_passing_additivity_check_builds_no_fractions(three_user):
    memo = Index("user-centric", functools.cache(USER_CENTRIC.compute))
    assert check_additivity(memo, three_user, ["a", "b"]).passed
    for problem in (three_user, three_user.select_users(["a", "b"]),
                    three_user.select_users(["c"])):
        values = memo(problem)
        assert "scores" not in vars(values) and "total" not in vars(values)


# -- integer weights against the Fraction-weight kernels ----------------------------

# Band edges, among them pairs where beta/(alpha*s) reduces for some totals s.
BAND_EDGES = [(1, 1), (1, 3), (2, 4), (3, 6), (4, 10), (5, 7), (6, 9), (20, 60)]


def _assert_kernels_match_the_fraction_kernels(problem, edges):
    assert PRO_RATA(problem)._integers == reference_fraction_weighted_integers(
        problem, REFERENCE_UNIT)
    assert USER_CENTRIC(problem)._integers == reference_fraction_weighted_integers(
        problem, REFERENCE_INVERSE_TOTAL)
    assert EQUAL_SPLIT(problem)._integers == reference_fraction_equal_split_integers(problem)
    assert PADDED_SHARE(problem)._integers == reference_fraction_padded_share_integers(problem)
    for alpha, beta in edges:
        assert banded_index(alpha, beta)(problem)._integers == (
            reference_fraction_weighted_integers(
                problem, reference_banded_weight_system(alpha, beta)))


def test_integer_weight_kernels_match_the_fraction_kernels():
    problems = ProblemGenerator(seed=31, max_artists=7, max_users=9,
                                max_streams=40).sample(500)
    totals = {problem.user_total(u) for problem in problems for u in problem.users}
    # Some totals above beta make beta/(alpha*s) reduce, and some do not.
    assert {math.gcd(beta, alpha * s) > 1 for alpha, beta in BAND_EDGES for s in totals
            if s > beta} == {True, False}
    for problem in problems + [sparse_problem_with_silent_artists(32)]:
        _assert_kernels_match_the_fraction_kernels(problem, BAND_EDGES)


@st.composite
def _problems(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    column = st.lists(st.integers(0, 60), min_size=n, max_size=n).filter(any)
    columns = draw(st.lists(column, min_size=m, max_size=m))
    return new_problem([str(i) for i in range(n)], [f"u{j}" for j in range(m)],
                       list(zip(*columns)))


@settings(max_examples=200, deadline=None)
@given(_problems(), st.integers(1, 12), st.integers(0, 40))
def test_integer_weight_kernels_match_the_fraction_kernels_on_any_problem(problem, alpha,
                                                                           width):
    _assert_kernels_match_the_fraction_kernels(problem, [(alpha, alpha + width)])


def test_custom_weight_systems_are_checked_on_every_call():
    problems = ProblemGenerator(seed=33, max_artists=6, max_users=7,
                                max_streams=30).sample(100)
    for problem in problems:
        # The built-in systems' public weights, called as custom systems, score the same.
        for system, index in ((REFERENCE_UNIT, PRO_RATA),
                              (REFERENCE_INVERSE_TOTAL, USER_CENTRIC),
                              (banded_weight_system(BandedWeightParams(4, 10)),
                               banded_index(4, 10))):
            copied = WeightSystem("copy", system.weight)
            assert weighted_index(problem, copied)._integers == index(problem)._integers
        last = problem.users[-1]
        for bad in (0, F(0), 0.5, -1):
            # Every user's weight is checked, the last one too.
            system = WeightSystem("bad", lambda user, profile: bad if user == last else 1)
            with pytest.raises(NonPositiveWeight):
                weighted_index(problem, system)


@pytest.mark.parametrize("raw", ["abc", "1/0", "0.5", " ", "1e3"])
def test_weights_that_do_not_parse_raise_nonpositive_weight(two_user, raw):
    system = WeightSystem("w", lambda user, profile: raw)
    with pytest.raises(NonPositiveWeight) as caught:
        weighted_index(two_user, system)
    assert str(caught.value) == (
        f"weight system 'w' returned {raw!r} for user 'a'; need a positive rational")
    with pytest.raises(NonPositiveWeight) as caught:
        table_weight_system({"b": 1, "a": raw})
    assert str(caught.value).startswith(f"weight for user 'a' {raw!r} is not a valid rational")


def test_rewards_keep_integer_amounts_built_on_first_read():
    problems = ProblemGenerator(seed=35, fee=F(7, 3)).sample(40) + [three_user_problem(F(5))]
    for problem in problems:
        public = IndexValues(problem.artists, [F(k % 3, 4 + k) for k, _ in
                                               enumerate(problem.artists, 2)])
        for values in [index(problem) for index in (*KERNELS, banded_index(2, 5))] + [public]:
            payout = rewards(problem, values)
            assert vars(payout).keys() == {"artists", "_integers", "total"}
            assert payout.total == problem.revenue
            d, numerators = payout._integers
            expected = Allocation(problem.artists, reference_rewards(problem, values))
            assert [F(n, d) for n in numerators] == list(expected.amounts)
            assert "amounts" not in vars(payout)
            assert payout == expected
            assert vars(payout)["amounts"] is payout.amounts  # built once, then kept
