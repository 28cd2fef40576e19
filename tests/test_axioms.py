from __future__ import annotations

import functools
import json
import os
import random
import weakref
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from streamshare import (
    AXIOM_NAMES,
    EQUAL_SPLIT,
    Index,
    IndexValues,
    InvalidPartition,
    ModelError,
    NonPositiveFee,
    PADDED_SHARE,
    PRO_RATA,
    ProblemGenerator,
    PremiseViolated,
    REFERENCE_INDICES,
    SQUARED_STREAMS,
    STREAM_SHARE,
    Status,
    StreamingProblem,
    UNIFORM,
    USER_CENTRIC,
    WouldBeEmpty,
    ZeroIndexSum,
    check_additivity,
    check_click_fraud_proofness,
    check_core_selection,
    check_equal_global_impact,
    check_equal_individual_impact,
    check_homogeneity,
    check_reasonable_lower_bound,
    check_reasonable_lower_bound_all,
    evaluate_axiom,
    index_from_weights,
    new_problem,
    recheck_witness,
    reference_problems,
    search_witness,
    split_problem,
    standard_indices,
    table_weight_system,
)
from streamshare.axioms import (
    ADDITIVITY,
    CLICK_FRAUD_PROOFNESS,
    CORE_SELECTION,
    EQUAL_GLOBAL_IMPACT,
    EQUAL_INDIVIDUAL_IMPACT,
    HOMOGENEITY,
    REASONABLE_LOWER_BOUND,
    _PROPERTIES,
    _Draw,
    _memo,
    _proportional_pairs,
    _resampled_column,
    axiom_matrix,
    matrix_to_rows,
    normalize_axiom,
    reference_fraud_pairs,
    verdict_to_dict,
)

from helpers import (
    REFERENCE_CHECKS,
    reference_axiom_matrix,
    reference_proportional_pairs,
    reference_search_witness,
)

F = Fraction


def proportional_pair():
    return new_problem(["1", "2", "3"], ["a", "b"], [[2, 4], [1, 2], [3, 1]])


# -- homogeneity -----------------------------------------------------------


def test_homogeneity_pro_rata_passes():
    verdict = check_homogeneity(PRO_RATA, proportional_pair(), "1", "2", F(2))
    assert verdict.passed


def test_homogeneity_uniform_fails_with_witness():
    verdict = check_homogeneity(UNIFORM, proportional_pair(), "1", "2", F(2))
    assert verdict.failed
    assert verdict.witness["score"] == "1"
    assert verdict.witness["expected"] == "2"
    assert recheck_witness(UNIFORM, verdict)


def test_homogeneity_squared_streams_fails():
    verdict = check_homogeneity(SQUARED_STREAMS, proportional_pair(), "1", "2", F(2))
    assert verdict.failed  # scores scale with the square of the factor


def test_homogeneity_zero_factor():
    silent = new_problem(["1", "2", "3"], ["a", "b", "c"],
                         [[3, 3, 1], [0, 0, 0], [1, 2, 3]])
    assert check_homogeneity(PRO_RATA, silent, "2", "3", F(0)).passed
    assert check_homogeneity(UNIFORM, silent, "2", "3", F(0)).failed


def test_homogeneity_premise_checks():
    p = proportional_pair()
    with pytest.raises(PremiseViolated):
        check_homogeneity(PRO_RATA, p, "1", "3", F(2))  # rows not proportional
    with pytest.raises(PremiseViolated):
        check_homogeneity(PRO_RATA, p, "1", "1", F(1))
    with pytest.raises(PremiseViolated):
        check_homogeneity(PRO_RATA, p, "1", "2", F(-2))


# -- additivity -------------------------------------------------------------


def test_additivity_user_centric_passes(three_user):
    verdict = check_additivity(USER_CENTRIC, three_user, ["a", "b"])
    assert verdict.passed


def test_additivity_split_values(three_user):
    first, second = three_user.select_users({"a", "b"}), three_user.select_users({"c"})
    left = USER_CENTRIC(first)
    right = USER_CENTRIC(second)
    assert left["1"] + right["1"] == F(9, 8)
    assert left["2"] + right["2"] == F(15, 8)


def test_additivity_padded_share_fails(two_user):
    verdict = check_additivity(PADDED_SHARE, two_user, ["a"])
    assert verdict.failed
    assert recheck_witness(PADDED_SHARE, verdict)


def test_additivity_stream_share_fails(two_user):
    assert check_additivity(STREAM_SHARE, two_user, ["a"]).failed


def test_additivity_rejects_trivial_split(two_user):
    with pytest.raises(InvalidPartition):
        check_additivity(PRO_RATA, two_user, [])
    with pytest.raises(InvalidPartition):
        check_additivity(PRO_RATA, two_user, ["a", "b"])


# -- equal individual impact ---------------------------------------------------


def test_eii_user_centric_fails():
    p = new_problem(["1", "2"], ["a", "b"], [[1, 1], [0, 1]])
    verdict = check_equal_individual_impact(USER_CENTRIC, p, "1", "a", "b")
    assert verdict.failed
    assert verdict.witness["without_user"] == "1/2"
    assert verdict.witness["without_other"] == "1"
    assert recheck_witness(USER_CENTRIC, verdict)


def test_eii_pro_rata_passes():
    p = new_problem(["1", "2"], ["a", "b"], [[1, 1], [0, 1]])
    assert check_equal_individual_impact(PRO_RATA, p, "1", "a", "b").passed


def test_eii_premise_checks(two_user):
    with pytest.raises(PremiseViolated):
        check_equal_individual_impact(PRO_RATA, two_user, "1", "a", "b")
    with pytest.raises(PremiseViolated):
        check_equal_individual_impact(PRO_RATA, two_user, "1", "a", "a")


# -- equal global impact ---------------------------------------------------------


def test_egi_user_centric_passes(two_user):
    assert check_equal_global_impact(USER_CENTRIC, two_user, "a", "b").passed


def test_egi_pro_rata_fails(two_user):
    verdict = check_equal_global_impact(PRO_RATA, two_user, "a", "b")
    assert verdict.failed
    assert verdict.witness["sum_without_user"] == "90"
    assert verdict.witness["sum_without_other"] == "10"
    assert recheck_witness(PRO_RATA, verdict)


def test_egi_removal_may_fail_loudly():
    solo = new_problem(["1"], ["a"], [[1]])
    with pytest.raises(PremiseViolated):
        check_equal_global_impact(PRO_RATA, solo, "a", "a")
    with pytest.raises(WouldBeEmpty):
        check_equal_global_impact(PRO_RATA, solo, "a", "b")


# -- reasonable lower bound --------------------------------------------------------


def test_rlb_pro_rata_fails_on_small_coalition(two_user):
    verdict = check_reasonable_lower_bound(PRO_RATA, two_user, ["a"])
    assert verdict.failed
    assert verdict.witness["reached_amount"] == "1/5"
    assert verdict.witness["floor"] == "1"
    assert recheck_witness(PRO_RATA, verdict)


def test_rlb_user_centric_passes_exhaustively(two_user, three_user):
    assert check_reasonable_lower_bound_all(USER_CENTRIC, two_user).passed
    assert check_reasonable_lower_bound_all(USER_CENTRIC, three_user).passed


def test_rlb_exhaustive_finds_the_same_coalition(two_user):
    verdict = check_reasonable_lower_bound_all(PRO_RATA, two_user)
    assert verdict.failed
    assert verdict.witness["coalition"] == ["a"]


def test_rlb_exhaustive_and_single_witnesses_agree():
    problem = new_problem(["0", "1", "2"], ["z", "a", "b"],
                          [[2, 2, 1], [2, 1, 5], [0, 5, 0]])
    exhaustive = check_reasonable_lower_bound_all(SQUARED_STREAMS, problem)
    assert exhaustive.failed
    assert exhaustive.witness["coalition"] == ["b", "z"]
    single = check_reasonable_lower_bound(SQUARED_STREAMS, problem, ["z", "b"])
    assert single.witness == exhaustive.witness
    assert single.detail == exhaustive.detail
    assert recheck_witness(SQUARED_STREAMS, exhaustive)


def test_rlb_empty_coalition(two_user):
    with pytest.raises(PremiseViolated):
        check_reasonable_lower_bound(PRO_RATA, two_user, [])


# -- click-fraud-proofness -----------------------------------------------------------


def test_cfp_golden_pair():
    base, deflated, user = reference_fraud_pairs()[0]
    verdict = check_click_fraud_proofness(PRO_RATA, base, deflated, user)
    assert verdict.failed
    assert verdict.witness["difference"] == "22/15"
    assert recheck_witness(PRO_RATA, verdict)
    assert check_click_fraud_proofness(USER_CENTRIC, base, deflated, user).passed


def test_cfp_premise_checks(two_user):
    other = new_problem(["1", "2"], ["a", "b"], [[9, 1], [1, 89]])
    with pytest.raises(PremiseViolated):
        check_click_fraud_proofness(PRO_RATA, two_user, other, "a")
    with pytest.raises(PremiseViolated):
        check_click_fraud_proofness(PRO_RATA, two_user, two_user.with_fee(2), "a")


# -- core selection ------------------------------------------------------------------


def test_core_selection_verdicts(two_user):
    bad = check_core_selection(PRO_RATA, two_user)
    assert bad.failed
    assert bad.witness["blocking"] == ["1"]
    assert recheck_witness(PRO_RATA, bad)
    assert check_core_selection(USER_CENTRIC, two_user).passed


# -- instance evaluation ----------------------------------------------------------


def test_evaluate_axiom_not_applicable_cases():
    solo = new_problem(["1", "2"], ["a"], [[1], [2]])
    for axiom in (ADDITIVITY, EQUAL_INDIVIDUAL_IMPACT, EQUAL_GLOBAL_IMPACT):
        verdict = evaluate_axiom(PRO_RATA, axiom, solo)
        assert verdict.status is Status.NOT_APPLICABLE


def test_evaluate_homogeneity_na_without_proportional_rows(two_user):
    assert evaluate_axiom(PRO_RATA, HOMOGENEITY, two_user).status is Status.NOT_APPLICABLE


def test_evaluate_axiom_runs_each_driver(three_user):
    rng = random.Random(1)
    for axiom in AXIOM_NAMES:
        verdict = evaluate_axiom(USER_CENTRIC, axiom, three_user, rng)
        assert verdict.axiom == axiom
        assert verdict.index == "user-centric"


def test_normalize_axiom_aliases():
    assert normalize_axiom("eii") == EQUAL_INDIVIDUAL_IMPACT
    assert normalize_axiom("egi") == EQUAL_GLOBAL_IMPACT
    assert normalize_axiom("rlb") == REASONABLE_LOWER_BOUND
    assert normalize_axiom("click-fraud") == CLICK_FRAUD_PROOFNESS
    assert normalize_axiom(CORE_SELECTION) == CORE_SELECTION
    with pytest.raises(ValueError):
        normalize_axiom("fairness")


# -- problem generator ---------------------------------------------------------------


def test_generator_is_deterministic():
    a = ProblemGenerator(seed=42).sample(20)
    b = ProblemGenerator(seed=42).sample(20)
    assert a == b


def test_generator_seeds_differ():
    assert ProblemGenerator(seed=1).sample(10) != ProblemGenerator(seed=2).sample(10)


def test_generator_respects_bounds():
    gen = ProblemGenerator(seed=3, min_artists=2, max_artists=3,
                           min_users=2, max_users=4, max_streams=5)
    for p in gen.sample(50):
        assert 2 <= p.artist_count <= 3
        assert 2 <= p.user_count <= 4
        assert all(c <= 5 for row in p.streams for c in row)


def test_generator_rejects_bad_bounds():
    with pytest.raises(ValueError):
        ProblemGenerator(min_artists=0)
    with pytest.raises(ValueError):
        ProblemGenerator(min_users=9, max_users=3)
    with pytest.raises(ValueError):
        ProblemGenerator(sparsity=1.0)


def test_generator_rejects_float_fee():
    with pytest.raises(NonPositiveFee):
        ProblemGenerator(fee=0.5)


@pytest.mark.parametrize("fee", [0, -1, F(-1, 2)])
def test_generator_rejects_nonpositive_fee(fee):
    with pytest.raises(NonPositiveFee):
        ProblemGenerator(fee=fee)


def test_generator_keeps_an_exact_fee_as_given():
    gen = ProblemGenerator(fee=F(7, 2))
    assert gen.fee == F(7, 2) and "fee=Fraction(7, 2)" in repr(gen)
    assert gen == ProblemGenerator(fee=F(7, 2))
    assert all(p.fee == F(7, 2) for p in gen.sample(3))


@pytest.mark.parametrize("bound, value", [
    ("max_streams", 2.5),
    ("max_artists", True),
    ("max_users", 6.0),
    ("min_artists", F(1)),
    ("min_users", "1"),
])
def test_generator_rejects_count_bounds_that_are_not_integers(bound, value):
    with pytest.raises(ModelError, match=f"{bound} must be an integer"):
        ProblemGenerator(**{bound: value})


def test_reference_problems_shape(two_user):
    problems = reference_problems()
    assert len(problems) == 5
    assert problems[0] == two_user


# -- search and matrix ------------------------------------------------------------------


def test_search_finds_core_violation_for_pro_rata():
    verdict = search_witness(PRO_RATA, CORE_SELECTION, ProblemGenerator(seed=0), 50)
    assert verdict.failed
    assert verdict.instances >= 1
    assert recheck_witness(PRO_RATA, verdict)


def test_search_is_deterministic():
    gen = ProblemGenerator(seed=6)
    one = search_witness(PRO_RATA, EQUAL_GLOBAL_IMPACT, gen, 40)
    two = search_witness(PRO_RATA, EQUAL_GLOBAL_IMPACT, gen, 40)
    assert one == two


def test_search_pass_reports_applicable_count():
    verdict = search_witness(USER_CENTRIC, CORE_SELECTION, ProblemGenerator(seed=0), 30)
    assert verdict.passed
    assert "30 instances" in verdict.detail


def test_matrix_budget_zero_uses_reference_instances():
    matrix = axiom_matrix([PRO_RATA, USER_CENTRIC], budget=0)
    assert len(matrix) == 2 * len(AXIOM_NAMES)
    core = matrix[("pro-rata", CORE_SELECTION)]
    assert core.failed
    assert "reference instance" in core.detail
    assert matrix[("user-centric", CORE_SELECTION)].passed


def test_matrix_rows_are_json_ready():
    matrix = axiom_matrix([UNIFORM], axioms=[HOMOGENEITY, EQUAL_GLOBAL_IMPACT], budget=10)
    rows = matrix_to_rows(matrix)
    payload = json.loads(json.dumps(rows))
    assert {row["axiom"] for row in payload} == {HOMOGENEITY, EQUAL_GLOBAL_IMPACT}
    statuses = {row["axiom"]: row["status"] for row in payload}
    assert statuses[HOMOGENEITY] == "fail"
    assert statuses[EQUAL_GLOBAL_IMPACT] == "pass"


def test_recheck_ignores_passing_verdicts(two_user):
    verdict = check_core_selection(USER_CENTRIC, two_user)
    assert recheck_witness(USER_CENTRIC, verdict) is False


def test_verdict_to_dict_shape(two_user):
    verdict = check_core_selection(PRO_RATA, two_user)
    payload = verdict_to_dict(verdict)
    assert payload["status"] == "fail"
    assert payload["index"] == "pro-rata"
    assert payload["witness"]["blocking"] == ["1"]


def test_reference_indices_have_search_verdicts():
    # every reference index gets a definite verdict on a tiny budget
    for index in REFERENCE_INDICES:
        verdict = search_witness(index, HOMOGENEITY, ProblemGenerator(seed=1), 15)
        assert verdict.status in (Status.PASS, Status.FAIL)


def test_equal_split_core_selection_holds_on_sample():
    verdict = search_witness(EQUAL_SPLIT, CORE_SELECTION, ProblemGenerator(seed=2), 60)
    assert verdict.passed


# -- joint search -----------------------------------------------------------------------


CLI_INDICES = [idx for name, idx in standard_indices(20, 60).items() if name != "banded"]


@dataclass(frozen=True)
class CountingGenerator(ProblemGenerator):
    """A generator that records every problem its streams yield."""

    drawn: list = field(default_factory=list, compare=False, repr=False)

    def problems(self):
        for problem in super().problems():
            self.drawn.append(problem)
            yield problem


def assert_same_matrix(live, reference):
    assert list(live) == list(reference)
    assert list(map(verdict_to_dict, live.values())) == list(
        map(verdict_to_dict, reference.values()))
    assert list(live.values()) == list(reference.values())


@pytest.mark.parametrize("budget", [0, 1, 10])
@pytest.mark.parametrize("seed", [0, 4, 9])
def test_matrix_matches_the_per_cell_search(seed, budget):
    gen = ProblemGenerator(seed=seed, max_artists=6, max_users=6)
    assert_same_matrix(axiom_matrix(CLI_INDICES, None, gen, budget),
                       reference_axiom_matrix(CLI_INDICES, None, gen, budget))


@pytest.mark.parametrize("indices, axioms", [
    ([EQUAL_SPLIT, PRO_RATA], [EQUAL_INDIVIDUAL_IMPACT, HOMOGENEITY]),
    ([USER_CENTRIC], [CLICK_FRAUD_PROOFNESS, ADDITIVITY, CORE_SELECTION]),
    ([PRO_RATA, PRO_RATA, USER_CENTRIC], None),
    ([STREAM_SHARE, EQUAL_SPLIT], ["eii", EQUAL_INDIVIDUAL_IMPACT, "rlb", "click-fraud"]),
    ([EQUAL_SPLIT, PRO_RATA, EQUAL_SPLIT], ["egi", EQUAL_INDIVIDUAL_IMPACT, "egi"]),
])
@pytest.mark.parametrize("budget", [0, 1, 10])
def test_matrix_matches_the_per_cell_search_on_subsets_and_duplicates(indices, axioms, budget):
    gen = ProblemGenerator(seed=5)
    assert_same_matrix(axiom_matrix(indices, axioms, gen, budget),
                       reference_axiom_matrix(indices, axioms, gen, budget))


@pytest.mark.parametrize("budget", [0, 1, 12])
@pytest.mark.parametrize("axiom", AXIOM_NAMES)
def test_search_witness_matches_the_per_cell_search(axiom, budget):
    gen = ProblemGenerator(seed=7)
    for index in (PRO_RATA, EQUAL_SPLIT, SQUARED_STREAMS):
        assert (search_witness(index, axiom, gen, budget)
                == reference_search_witness(index, axiom, gen, budget))


@pytest.mark.parametrize("budget", [1, 10, 40])
def test_matrix_draws_each_problem_once(budget):
    gen = CountingGenerator(seed=1, max_artists=6, max_users=6)
    matrix = axiom_matrix(CLI_INDICES, None, gen, budget)
    # Pro-rata is homogeneous, so its cell stays open through the whole budget.
    assert matrix[("pro-rata", HOMOGENEITY)].passed
    assert len(gen.drawn) == budget
    assert len(set(map(id, gen.drawn))) == budget


def test_matrix_stops_drawing_when_every_cell_is_closed():
    gen = CountingGenerator(seed=0)
    verdict = axiom_matrix([EQUAL_SPLIT], [EQUAL_INDIVIDUAL_IMPACT], gen, 100)[
        ("equal-split", EQUAL_INDIVIDUAL_IMPACT)]
    assert verdict.failed and "reference" not in verdict.detail
    # Five reference instances, then the failing generated one.
    assert len(gen.drawn) == verdict.instances - 5 < 100


def test_matrix_draws_nothing_when_every_cell_fails_on_a_reference_instance():
    gen = CountingGenerator(seed=0)
    matrix = axiom_matrix([UNIFORM, PADDED_SHARE, STREAM_SHARE],
                          [ADDITIVITY, REASONABLE_LOWER_BOUND, CORE_SELECTION], gen, 100)
    assert all(v.failed and v.detail.endswith("(reference instance)") for v in matrix.values())
    assert gen.drawn == []
    search_witness(PRO_RATA, HOMOGENEITY, gen, 0)
    assert gen.drawn == []


def test_matrix_raises_an_index_error_from_a_generated_problem():
    def user_centric_unless_six_artists(problem):
        # No reference instance has six artists, so only the search meets this.
        if problem.artist_count == 6:
            raise ZeroIndexSum("every artist scores zero")
        return USER_CENTRIC(problem)

    flaky = Index("flaky", user_centric_unless_six_artists)
    gen = ProblemGenerator(seed=0, max_artists=6, max_users=6)
    assert axiom_matrix([flaky], None, gen, 0)[("flaky", CORE_SELECTION)].passed
    with pytest.raises(ZeroIndexSum):
        axiom_matrix([PRO_RATA, flaky, USER_CENTRIC], None, gen, 100)
    with pytest.raises(ZeroIndexSum):
        reference_axiom_matrix([PRO_RATA, flaky, USER_CENTRIC], None, gen, 100)


def test_matrix_scores_each_problem_once_per_reference_problem(monkeypatch):
    current = [None]
    scored = []

    class Announced(tuple):
        """Reference problems that note which one is being checked as they are iterated."""

        def __iter__(self):
            for problem in tuple.__iter__(self):
                current[0] = problem
                yield problem
            current[0] = None

    def counted(problem):
        scored.append((current[0], problem))
        return USER_CENTRIC(problem)

    goldens = reference_problems()
    monkeypatch.setattr("streamshare.axioms.reference_problems", lambda: Announced(goldens))
    matrix = axiom_matrix([Index("counted", counted)], None, ProblemGenerator(seed=0), 0)
    assert matrix == axiom_matrix([Index("counted", USER_CENTRIC)], None,
                                  ProblemGenerator(seed=0), 0)
    # Every property checks each reference problem and its sub-problems on one memo.
    assert {golden for golden, _ in scored} >= set(goldens)
    assert len(scored) == len(set(scored))


# -- integer checks against the Fraction checks --------------------------------------


def _unreduced_user_centric(problem):
    """User-centric scores times 7/3: ints, and 'p/q' strings and Fractions of unreduced pairs."""
    scores = []
    for k, score in enumerate(USER_CENTRIC(problem).scores):
        score *= F(7, 3)
        p, q = 2 * score.numerator, 2 * score.denominator
        scores.append(score.numerator if q == 2 else f"{p}/{q}" if k % 2 else F(p, q))
    return IndexValues(problem.artists, scores)


def _reversed_padded_share(problem):
    values = PADDED_SHARE(problem)
    return IndexValues(values.artists[::-1], values.scores[::-1])


def _first_artist_dropped(problem):
    values = PRO_RATA(problem)
    return IndexValues(values.artists[1:], values.scores[1:])


CUSTOM_INDICES = [Index("unreduced", _unreduced_user_centric),
                  Index("reversed", _reversed_padded_share),
                  Index("dropped", _first_artist_dropped)]


def _outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _premise_tuples(problem, seed):
    """Every premise tuple of the six checks on ``problem``, and some that break a premise."""
    rng = random.Random(seed)
    pairs = list(_proportional_pairs(problem, rng))
    assert pairs == list(reference_proportional_pairs(problem, rng))
    yield from ((HOMOGENEITY, args) for args in pairs)
    for artist, other in combinations(problem.artists, 2):
        yield HOMOGENEITY, (artist, other, F(2))
    for artist in problem.artists:
        for user, other_user in combinations(problem.users, 2):
            yield EQUAL_INDIVIDUAL_IMPACT, (artist, user, other_user)
    for axiom in (ADDITIVITY, EQUAL_GLOBAL_IMPACT, REASONABLE_LOWER_BOUND,
                  CLICK_FRAUD_PROOFNESS):
        yield from ((axiom, args) for args in _PROPERTIES[axiom].premises(problem, rng))


@pytest.mark.parametrize("fee", [F(1), F(7, 3), F(1, 2)])
def test_integer_checks_match_the_fraction_checks(fee):
    problems = ProblemGenerator(seed=13, max_artists=4, max_users=5, fee=fee).sample(34)
    fixed = [case for case in reference_fraud_pairs() if case[0].fee == fee]
    seen = set()
    for k, problem in enumerate(problems + [p for p, *_ in fixed]):
        cases = list(_premise_tuples(problem, k))
        cases += [(CLICK_FRAUD_PROOFNESS, rest) for p, *rest in fixed if p is problem]
        for index in CLI_INDICES + CUSTOM_INDICES:
            memo = Index(index.name, functools.cache(index.compute))
            for axiom, args in cases:
                got = _outcome(_PROPERTIES[axiom].check, memo, problem, *args)
                expected = _outcome(REFERENCE_CHECKS[axiom], memo, problem, *args)
                assert got == expected, (index.name, axiom, problem, args)
                seen.add("error" if isinstance(got, tuple) else got.status.value)
    # Passes, failures and raised errors are all compared.
    assert seen == {"pass", "fail", "error"}


# -- the per-draw score memo and search budgets ----------------------------------


def test_draw_memo_scores_each_sub_problem_once():
    keys = []

    def counted(problem):
        keys.append((problem.users, problem.streams))
        return USER_CENTRIC(problem)

    for problem in ProblemGenerator(seed=35, max_users=5).sample(60) + list(reference_problems()):
        m, rng = problem.user_count, random.Random(0)
        subs = [problem]
        subs += [part for mask in range(1, (1 << m) - 1)
                 for part in split_problem(problem, [u for j, u in enumerate(problem.users)
                                                     if mask >> j & 1])]
        subs += [problem.remove_user(u) for u in problem.users] if m > 1 else []
        subs += [_resampled_column(problem, u, rng) for u in problem.users]
        keys.clear()
        memo = _memo(Index("counted", counted), problem)
        first = [memo(sub) for sub in subs]
        assert [memo(sub) for sub in reversed(subs)] == first[::-1]
        for sub, values in zip(subs, first):
            assert values._integers == USER_CENTRIC(sub)._integers
        # Each distinct (users, counts) key is scored once.
        assert sorted(keys) == sorted({(sub.users, sub.streams) for sub in subs})
        renamed = new_problem([f"x{a}" for a in problem.artists], problem.users,
                              problem.streams, problem.fee)
        for stranger in (renamed, problem.with_fee(problem.fee + 1)):
            with pytest.raises(AssertionError):
                memo(stranger)


@pytest.mark.parametrize("budget", [0.5, 2.0, True, False, -1, Decimal("1"), "3", None])
def test_search_budgets_must_be_nonnegative_integers(budget):
    gen = ProblemGenerator(seed=0)
    calls = [lambda: axiom_matrix([PRO_RATA], None, gen, budget),
             lambda: search_witness(PRO_RATA, HOMOGENEITY, gen, budget),
             lambda: gen.sample(budget)]
    for call in calls:
        with pytest.raises(ModelError, match="must be a nonnegative integer"):
            call()
    assert len(gen.sample(0)) == 0 and len(gen.sample(3)) == 3
    assert search_witness(PRO_RATA, HOMOGENEITY, gen, 2).instances == 2


def test_matrix_builds_no_verdict_per_passing_instance(monkeypatch):
    from streamshare import axioms as axioms_module

    made, verdict_class = [], axioms_module.AxiomVerdict

    def counted(*args, **kwargs):
        made.append(args)
        return verdict_class(*args, **kwargs)

    monkeypatch.setattr(axioms_module, "AxiomVerdict", counted)
    matrix = axiom_matrix([PRO_RATA, USER_CENTRIC, UNIFORM],
                          generator=ProblemGenerator(seed=3), budget=30)
    # At most one failing verdict and one result per cell, whatever the instance count.
    assert len(made) <= 2 * len(matrix)
    assert sum(verdict.instances for verdict in matrix.values()) > 10 * len(matrix)
    passing = evaluate_axiom(PRO_RATA, ADDITIVITY, reference_problems()[1])
    assert passing.passed and passing.detail == "3 premise tuples checked"


# -- the per-draw table of sub-problems ------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_sub_problem_is_built_once_per_draw_for_all_indices(monkeypatch, seed):
    builds, requests = [], []
    build, request = StreamingProblem._columns, _Draw._columns

    def built(problem, cols):
        builds.append((problem, tuple(cols)))  # keeps each draw alive, so ids stay distinct
        return build(problem, cols)

    def requested(problem, cols):
        requests.append(tuple(cols))
        return request(problem, cols)

    monkeypatch.setattr(StreamingProblem, "_columns", built)
    monkeypatch.setattr(_Draw, "_columns", requested)
    axiom_matrix(CLI_INDICES, None, ProblemGenerator(seed=seed, max_artists=6, max_users=6), 100)
    assert {type(problem) for problem, _ in builds} == {_Draw}
    # Each column tuple of a draw is built once, however many indices and premises ask for it.
    assert set(Counter((id(problem), cols) for problem, cols in builds).values()) == {1}
    assert len(requests) > 4 * len(builds)


@dataclass(frozen=True)
class HeldGenerator(CountingGenerator):
    """A counting generator that also records what each problem held when drawn."""

    held: list = field(default_factory=list, compare=False, repr=False)

    def problems(self):
        for problem in super().problems():
            self.held.append(dict(vars(problem)))
            yield problem


def test_draws_leave_callers_problems_alone_and_are_dropped_on_return():
    scored = []

    def remembered(problem):
        scored.append((type(problem), weakref.ref(problem)))
        return USER_CENTRIC(problem)

    index = Index("remembered", remembered)
    gen = HeldGenerator(seed=2, max_artists=6, max_users=6)
    axiom_matrix([index, PRO_RATA], None, gen, 20)
    search_witness(index, CLICK_FRAUD_PROOFNESS, gen, 10)
    problems, held = list(gen.drawn), list(gen.held)
    for problem in [*reference_problems(), *ProblemGenerator(seed=3).sample(10)]:
        for axiom in AXIOM_NAMES:
            problems.append(problem)
            held.append(dict(vars(problem)))
            evaluate_axiom(index, axiom, problem)
    assert [vars(problem) for problem in problems] == held
    assert _Draw in {kind for kind, _ in scored}
    # Nothing the index scored, draws and their sub-problems alike, outlives the call.
    assert [ref for _, ref in scored if ref() is not None] == []


def test_matrix_of_a_name_reading_index_matches_the_per_cell_search():
    weights = table_weight_system({"a": 1, "b": "1/2", "c": 3, "d": "2/3", "e": 5, "f": "7/4"})
    indices = [index_from_weights(weights), *CUSTOM_INDICES]
    # Payouts refuse reversed artists; a dropped artist raises on most properties.
    cases = [(indices[:2], AXIOM_NAMES), (indices[:3], AXIOM_NAMES[:5])]
    for seed in (0, 1):
        gen = ProblemGenerator(seed=seed, max_artists=6, max_users=6)
        for chosen, axioms in cases:
            assert_same_matrix(axiom_matrix(chosen, axioms, gen, 15),
                               reference_axiom_matrix(chosen, axioms, gen, 15))
        assert (_outcome(axiom_matrix, indices, None, gen, 15)
                == _outcome(reference_axiom_matrix, indices, None, gen, 15))


# -- the matrix rows in forked workers ----------------------------------------------


def typed(value):
    """``value`` with the type of each part beside it: a tuple read back for a list, or an
    int for a bool, would compare equal without them."""
    if isinstance(value, dict):
        return dict, [(typed(key), typed(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [typed(item) for item in value]
    return type(value), value


@pytest.mark.parametrize("indices, axioms, seeds", [
    (CLI_INDICES, None, [0, 1, 2]),
    ([PRO_RATA, USER_CENTRIC, PRO_RATA, EQUAL_SPLIT, USER_CENTRIC], None, [0]),
    ([USER_CENTRIC], None, [1]),
    (CLI_INDICES, ["rlb", CLICK_FRAUD_PROOFNESS, CORE_SELECTION, "rlb"], [2]),
])
def test_matrix_rows_in_workers_match_the_serial_rows(monkeypatch, usable_cpus, indices,
                                                      axioms, seeds):
    from streamshare import _workers

    serial_calls = []
    rows_of = _workers._rows_of
    # A child's calls land in the child's copy of this list, so it holds the parent's only.
    monkeypatch.setattr(_workers, "_rows_of",
                        lambda *args: serial_calls.append(os.getpid()) or rows_of(*args))
    for seed in seeds:
        gen = ProblemGenerator(seed=seed, max_artists=6, max_users=6)
        expected = typed(matrix_to_rows(axiom_matrix(indices, axioms, gen, 40)))
        for workers in (1, 2, 3):
            usable_cpus(workers)
            serial_calls.clear()
            assert typed(_workers.matrix_rows(indices, axioms, gen, 40)) == expected
            distinct = len({index.name for index in indices})
            assert len(serial_calls) == (1 if min(workers, distinct) == 1 else 0)


def test_matrix_rows_deal_each_worker_a_run_of_indices(monkeypatch, usable_cpus):
    """Every split of 1-8 distinct indices over 1-4 usable CPUs gives the serial rows,
    from one forked worker per CPU up to the index count."""
    from streamshare import _workers

    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    gen = ProblemGenerator(seed=3, max_artists=4, max_users=4)
    order = random.Random(3).sample(CLI_INDICES, len(CLI_INDICES))
    assert len(order) == 8
    for n in range(1, 9):
        indices = order[:n]
        expected = typed(matrix_to_rows(axiom_matrix(indices, None, gen, 4)))
        for workers in (1, 2, 3, 4):
            usable_cpus(workers)
            forks.clear()
            assert typed(_workers.matrix_rows(indices, None, gen, 4)) == expected
            groups = min(workers, n)
            assert len(forks) == (groups if groups > 1 else 0)
