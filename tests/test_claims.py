from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamshare import (
    BankruptcyProblem,
    InvalidProblem,
    IssueWeightFunction,
    MultiIssueClaims,
    PRO_RATA,
    USER_CENTRIC,
    WeightContractViolated,
    as_rational,
    cea_awards,
    cea_rule,
    equal_issue_weights,
    issue_size_weights,
    new_problem,
    proportional_rule,
    rewards,
    streaming_to_bankruptcy,
    streaming_to_claims,
    two_stage_rule,
    weighted_proportional,
)
from streamshare.axioms import ProblemGenerator
from streamshare.claims import (
    BANKRUPTCY_RULES,
    _proportional_split,
    _stage,
    multi_issue_from_dict,
    multi_issue_to_dict,
    resolve_rule,
)
from helpers import (
    reference_cea_rule,
    reference_issue_size_weights,
    reference_proportional_rule,
    reference_proportional_split,
    reference_stage,
    reference_streaming_to_claims,
    reference_two_stage_rule,
    reference_weighted_proportional,
    sparse_problem_with_silent_artists,
)
from test_parsers import _uniform

F = Fraction

claim_lists = st.lists(
    st.fractions(min_value=0, max_value=20, max_denominator=12),
    min_size=1,
    max_size=6,
)


# -- single-issue problems ---------------------------------------------


def test_bankruptcy_validation():
    with pytest.raises(InvalidProblem):
        BankruptcyProblem(("x",), (F(1),), F(2))  # endowment too large
    with pytest.raises(InvalidProblem):
        BankruptcyProblem(("x",), (F(-1),), F(0))
    with pytest.raises(InvalidProblem):
        BankruptcyProblem(("x", "x"), (F(1), F(1)), F(1))
    with pytest.raises(InvalidProblem):
        BankruptcyProblem(("x", "y"), (F(1),), F(1))
    with pytest.raises(InvalidProblem):
        BankruptcyProblem(("x",), (F(1),), F(-1))
    with pytest.raises(InvalidProblem):
        BankruptcyProblem(("x",), (0.5,), F(0))


def test_proportional_golden():
    bp = BankruptcyProblem(("1", "2"), (F(10), F(90)), F(2))
    assert proportional_rule(bp) == (F(1, 5), F(9, 5))


def test_proportional_zero_claims():
    bp = BankruptcyProblem(("1", "2"), (F(0), F(0)), F(0))
    assert proportional_rule(bp) == (F(0), F(0))


def test_cea_golden():
    bp = BankruptcyProblem(("1", "2"), (F(1), F(5)), F(4))
    awards, level = cea_rule(bp)
    assert awards == (F(1), F(3))
    assert level == 3


def test_cea_full_payment_edge():
    bp = BankruptcyProblem(("1", "2"), (F(2), F(5)), F(7))
    awards, level = cea_rule(bp)
    assert awards == (F(2), F(5))
    assert level == 5


def test_cea_zero_endowment():
    bp = BankruptcyProblem(("1", "2"), (F(2), F(5)), F(0))
    awards, level = cea_rule(bp)
    assert awards == (F(0), F(0))
    assert level == 0


@settings(max_examples=80, deadline=None)
@given(claims=claim_lists, num=st.integers(0, 100))
def test_cea_defining_equation(claims, num):
    total = sum(claims)
    endowment = total * F(num, 100)
    agents = tuple(f"a{i}" for i in range(len(claims)))
    bp = BankruptcyProblem(agents, tuple(claims), endowment)
    awards, level = cea_rule(bp)
    assert sum(awards) == endowment
    assert all(a == min(level, c) for a, c in zip(awards, bp.claims))
    assert all(F(0) <= a <= c for a, c in zip(awards, bp.claims))


tied_claim_lists = st.lists(
    st.sampled_from([F(0), F(1, 3), F(2), F(7, 4), F(5)]), min_size=1, max_size=7)


@settings(max_examples=150, deadline=None)
@given(claims=st.one_of(claim_lists, tied_claim_lists), num=st.integers(0, 100))
@example(claims=[F(2), F(2), F(2)], num=50)  # tied claims
@example(claims=[F(0), F(3), F(0), F(1, 2)], num=40)  # zero claims
@example(claims=[F(4), F(1, 3)], num=0)  # zero endowment
@example(claims=[F(3, 2), F(5), F(1, 7)], num=100)  # everyone paid in full
def test_cea_rule_matches_the_fraction_loop(claims, num):
    endowment = sum(claims, F(0)) * F(num, 100)
    agents = tuple(f"a{i}" for i in range(len(claims)))
    bp = BankruptcyProblem(agents, tuple(claims), endowment)
    got, want = cea_rule(bp), reference_cea_rule(bp)
    assert got == want
    assert list(map(type, (*got.awards, got.level))) == list(map(type, (*want.awards, want.level)))


@settings(max_examples=60, deadline=None)
@given(claims=claim_lists, num=st.integers(0, 100))
def test_proportional_properties(claims, num):
    total = sum(claims)
    endowment = total * F(num, 100)
    agents = tuple(f"a{i}" for i in range(len(claims)))
    bp = BankruptcyProblem(agents, tuple(claims), endowment)
    awards = proportional_rule(bp)
    assert sum(awards) == endowment
    if total:
        assert all(a * total == c * endowment for a, c in zip(awards, bp.claims))


def test_rules_are_order_symmetric():
    fwd = BankruptcyProblem(("x", "y", "z"), (F(4), F(1), F(7)), F(6))
    rev = BankruptcyProblem(("z", "y", "x"), (F(7), F(1), F(4)), F(6))
    assert proportional_rule(fwd) == tuple(reversed(proportional_rule(rev)))
    assert cea_awards(fwd) == tuple(reversed(cea_awards(rev)))


def test_resolve_rule():
    assert resolve_rule("cea") is BANKRUPTCY_RULES["cea"]
    assert resolve_rule(proportional_rule) is proportional_rule
    with pytest.raises(InvalidProblem):
        resolve_rule("talmud")


# -- multi-issue problems -----------------------------------------------


def small_multi() -> MultiIssueClaims:
    return MultiIssueClaims(
        agents=("1", "2"),
        issues=("a", "b"),
        claims=((F(10), F(0)), (F(0), F(90))),
        endowment=F(2),
    )


def test_multi_issue_validation():
    with pytest.raises(InvalidProblem):
        MultiIssueClaims(("1",), ("a", "b"), ((F(1), F(0)),), F(1))  # empty issue
    with pytest.raises(InvalidProblem):
        MultiIssueClaims(("1",), ("a",), ((F(1),),), F(5))  # insolvent upward
    with pytest.raises(InvalidProblem):
        MultiIssueClaims(("1",), ("a",), ((F(1), F(1)),), F(1))  # ragged
    with pytest.raises(InvalidProblem):
        MultiIssueClaims(("1", "1"), ("a",), ((F(1),), (F(1),)), F(1))


def test_issue_totals():
    mc = small_multi()
    assert mc.issue_totals() == (F(10), F(90))


def test_weight_functions_golden():
    totals = (F(10), F(90))
    assert issue_size_weights(totals, F(2)) == (F(1, 10), F(9, 10))
    assert equal_issue_weights(totals, F(2)) == (F(1, 2), F(1, 2))


def test_weight_contract_enforced():
    totals = (F(1), F(1))
    bad_sum = IssueWeightFunction("bad-sum", lambda t, e: (F(1, 2), F(1, 4)))
    too_many = IssueWeightFunction("too-many", lambda t, e: (F(1), F(0), F(0)))
    negative = IssueWeightFunction("negative", lambda t, e: (F(3, 2), F(-1, 2)))
    inexact = IssueWeightFunction("inexact", lambda t, e: (0.5, 0.5))
    for wf in (bad_sum, too_many, negative, inexact):
        with pytest.raises(WeightContractViolated):
            wf(totals, F(1))


def test_weighted_proportional_golden():
    mc = small_multi()
    assert weighted_proportional(mc, issue_size_weights) == (F(1, 5), F(9, 5))
    assert weighted_proportional(mc, equal_issue_weights) == (F(1), F(1))


def test_two_stage_golden():
    mc = small_multi()
    assert two_stage_rule(mc, "proportional", "proportional") == (F(1, 5), F(9, 5))
    assert two_stage_rule(mc, "cea", "proportional") == (F(1), F(1))


def test_two_stage_cea_level_is_the_fee(three_user):
    mc = streaming_to_claims(three_user)
    stage_one = BankruptcyProblem(mc.issues, mc.issue_totals(), mc.endowment)
    awards, level = cea_rule(stage_one)
    assert level == three_user.fee == 1
    assert awards == (F(1), F(1), F(1))


def test_agent_stage_errors_are_tagged():
    def overspend(bp):
        return tuple(2 * c for c in bp.claims)

    with pytest.raises(InvalidProblem) as exc:
        two_stage_rule(small_multi(), overspend, "proportional")
    assert str(exc.value).startswith("agent stage")


def test_issue_stage_errors_are_tagged():
    def broken(bp):
        raise InvalidProblem("broken stage")

    with pytest.raises(InvalidProblem) as exc:
        two_stage_rule(small_multi(), broken, "proportional")
    assert str(exc.value).startswith("issue stage")


# -- translations from streaming problems ----------------------------------


def test_streaming_to_claims(three_user):
    mc = streaming_to_claims(three_user)
    assert mc.agents == three_user.artists
    assert mc.issues == three_user.users
    assert mc.endowment == three_user.revenue
    assert mc.issue_totals() == (F(10), F(90), F(40))


def test_streaming_to_claims_can_be_insolvent():
    thin = new_problem(["1"], ["a", "b"], [[1, 1]], fee=2)
    with pytest.raises(InvalidProblem):
        streaming_to_claims(thin)


def test_streaming_to_bankruptcy_matches_pro_rata():
    for problem in ProblemGenerator(seed=31).sample(40):
        bp = streaming_to_bankruptcy(problem)
        pay = rewards(problem, PRO_RATA(problem))
        assert proportional_rule(bp) == tuple(pay[a] for a in problem.artists)


# -- the four identities -------------------------------------------------------


def identity_quadruple(problem):
    mc = streaming_to_claims(problem)
    return (
        two_stage_rule(mc, "proportional", "proportional"),
        weighted_proportional(mc, issue_size_weights),
        two_stage_rule(mc, "cea", "proportional"),
        weighted_proportional(mc, equal_issue_weights),
    )


def test_identities_on_generated_problems():
    for problem in ProblemGenerator(seed=32).sample(60):
        pro_rata = tuple(rewards(problem, PRO_RATA(problem))[a] for a in problem.artists)
        user_centric = tuple(
            rewards(problem, USER_CENTRIC(problem))[a] for a in problem.artists
        )
        pp, size, cp, equal = identity_quadruple(problem)
        assert pp == pro_rata
        assert size == pro_rata
        assert cp == user_centric
        assert equal == user_centric


def test_identities_with_fractional_fee(two_user):
    p = two_user.with_fee("1/2")
    pro_rata = tuple(rewards(p, PRO_RATA(p))[a] for a in p.artists)
    user_centric = tuple(rewards(p, USER_CENTRIC(p))[a] for a in p.artists)
    pp, size, cp, equal = identity_quadruple(p)
    assert pp == size == pro_rata
    assert cp == equal == user_centric


def test_identities_with_large_fee(two_user):
    # both user totals stay above the fee, so the first-stage level is the fee
    p = two_user.with_fee(5)
    user_centric = tuple(rewards(p, USER_CENTRIC(p))[a] for a in p.artists)
    mc = streaming_to_claims(p)
    assert two_stage_rule(mc, "cea", "proportional") == user_centric


def test_equal_weights_identity_needs_deep_pockets():
    # a user with fewer streams than the fee breaks the equal-weight match:
    # weighted splitting still hands their issue a full fee share, CEA not
    p = new_problem(["1", "2"], ["a", "b"], [[1, 0], [0, 99]], fee=3)
    mc = streaming_to_claims(p)
    user_centric = tuple(rewards(p, USER_CENTRIC(p))[a] for a in p.artists)
    assert weighted_proportional(mc, equal_issue_weights) == user_centric
    assert two_stage_rule(mc, "cea", "proportional") != user_centric


# -- serialization ---------------------------------------------------------------


def test_multi_issue_dict_roundtrip():
    mc = small_multi()
    again = multi_issue_from_dict(multi_issue_to_dict(mc))
    assert again == mc


def test_multi_issue_from_dict_missing_key():
    with pytest.raises(InvalidProblem):
        multi_issue_from_dict({"agents": ["1"]})


def test_multi_issue_from_dict_rejects_floats():
    data = {"agents": ["1", "2"], "issues": ["a"], "claims": [[0.1], [1]],
            "endowment": "1/2"}
    with pytest.raises(InvalidProblem, match="claims must be exact rationals"):
        multi_issue_from_dict(data)
    data = {"agents": ["1", "2"], "issues": ["a"], "claims": [["1/10"], [1]],
            "endowment": 0.5}
    with pytest.raises(TypeError, match="endowment must be an exact rational"):
        multi_issue_from_dict(data)


@pytest.mark.parametrize("data, message", [
    ("agents", "top level must be an object"),
    (["agents", "issues", "claims", "endowment"], "top level must be an object"),
    ({"agents": "xy", "issues": ["a"], "claims": [[1], [1]], "endowment": 1},
     "'agents', 'issues' and 'claims' must be arrays"),
    ({"agents": ["x"], "issues": "a", "claims": [[1]], "endowment": 1},
     "'agents', 'issues' and 'claims' must be arrays"),
    ({"agents": ["x"], "issues": ["a"], "claims": 7, "endowment": 1},
     "'agents', 'issues' and 'claims' must be arrays"),
    ({"agents": ["x"], "issues": ["a"], "claims": ["1"], "endowment": 1},
     "'claims' must be an array of arrays"),
    ({"agents": ["x", "y"], "issues": ["a"], "claims": [[1], 1], "endowment": 1},
     "'claims' must be an array of arrays"),
])
def test_multi_issue_from_dict_refuses_what_is_not_an_array(data, message):
    with pytest.raises(InvalidProblem) as got:
        multi_issue_from_dict(data)
    assert str(got.value) == message


def test_multi_issue_dict_roundtrip_with_fractions():
    mc = MultiIssueClaims(("1", "2"), ("a", "b"),
                          ((F(1, 3), F(0)), (F(5, 2), F(7))), F(9, 4))
    data = multi_issue_to_dict(mc)
    assert data["claims"] == [["1/3", "0"], ["5/2", "7"]]
    again = multi_issue_from_dict(data)
    assert again == mc
    assert all(type(c) is Fraction for row in again.claims for c in row)


# -- differential test against the running-sum loops ---------------------------


def priority_rule(problem: BankruptcyProblem) -> tuple[Fraction, ...]:
    """Pay claims in agent order until the endowment runs out."""
    remaining, awards = problem.endowment, []
    for claim in problem.claims:
        award = min(claim, remaining)
        awards.append(award)
        remaining -= award
    return tuple(awards)


def overspend(problem: BankruptcyProblem) -> tuple[Fraction, ...]:
    return tuple(2 * c for c in problem.claims)


STAGES = ("cea", "proportional", priority_rule)


def outcome(rule, *args):
    """Exact typed values, or the exception type and message."""
    try:
        result = rule(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple((type(x), x) for x in result)


def fractional_multi_issue(rng: random.Random, agents: int, issues: int,
                           share: Fraction) -> MultiIssueClaims:
    """Seeded non-integer claims; some agents hold no claim at all."""
    claims = [[F(0)] * issues for _ in range(agents)]
    for j in range(issues):
        for i in rng.sample(range(agents), rng.randint(1, agents)):
            if i % 4 != 3:
                claims[i][j] = F(rng.randint(1, 60), rng.randint(1, 12))
        if not any(row[j] for row in claims):
            claims[0][j] = F(1, rng.randint(1, 12))
    grand = sum(sum(row) for row in claims)
    return MultiIssueClaims(tuple(f"a{i}" for i in range(agents)),
                            tuple(f"u{j}" for j in range(issues)), claims, grand * share)


def assert_rules_match_reference(mc: MultiIssueClaims) -> None:
    assert mc.issue_totals() == tuple(sum(column) for column in zip(*mc.claims))
    for issue_stage in STAGES + (overspend,):
        for agent_stage in STAGES:
            assert outcome(two_stage_rule, mc, issue_stage, agent_stage) == outcome(
                reference_two_stage_rule, mc, issue_stage, agent_stage)
    totals = mc.issue_totals()
    assert issue_size_weights(totals, mc.endowment) == reference_issue_size_weights(
        totals, mc.endowment)
    for weights in (issue_size_weights, equal_issue_weights):
        assert outcome(weighted_proportional, mc, weights) == outcome(
            reference_weighted_proportional, mc, weights)


def test_claims_rules_match_reference_loops():
    rng = random.Random(43)
    samples = ProblemGenerator(seed=41, max_artists=7, max_users=9, max_streams=40,
                               fee=F(5, 2)).sample(150)
    problems = []
    for problem in samples:
        try:
            problems.append(streaming_to_claims(problem))
        except InvalidProblem:
            pass  # more fee than streams: no claims view to compare
    assert len(problems) > 120
    problems += [fractional_multi_issue(rng, rng.randint(1, 9), rng.randint(1, 9),
                                        F(rng.randint(0, 10), 10)) for _ in range(30)]
    problems.append(fractional_multi_issue(rng, 6, 5, F(0)))
    problems.append(streaming_to_claims(sparse_problem_with_silent_artists(44, fee=F(7, 3))))
    for mc in problems:
        assert_rules_match_reference(mc)
    with pytest.raises(InvalidProblem, match=r"^issue 'u1' carries no claims$"):
        MultiIssueClaims(("a0", "a1"), ("u0", "u1"), ((F(1, 2), F(0)), (F(5, 3), F(0))), F(1))


def test_single_issue_rules_match_reference_loops():
    rng = random.Random(45)
    cases = [
        BankruptcyProblem(("x", "y"), (F(0), F(0)), F(0)),
        BankruptcyProblem(("x", "y", "z"), (F(0), F(3, 4), F(0)), F(0)),
        BankruptcyProblem(("x", "y", "z"), (F(0), F(3, 4), F(0)), F(3, 4)),
    ]
    for _ in range(60):
        claims = tuple(F(rng.randint(0, 30), rng.randint(1, 9)) for _ in range(6))
        cases.append(BankruptcyProblem(tuple("abcdef"), claims,
                                       sum(claims) * F(rng.randint(0, 8), 8)))
    for bp in cases:
        assert outcome(proportional_rule, bp) == outcome(reference_proportional_rule, bp)


def test_solvency_message_prints_the_exact_total():
    claims = (F(1, 3), F(0), F(5, 6), F(7, 4))
    endowment = sum(claims) + F(1, 100)
    with pytest.raises(InvalidProblem) as exc:
        BankruptcyProblem(("w", "x", "y", "z"), claims, endowment)
    assert str(exc.value) == f"endowment {endowment} exceeds total claims {sum(claims)}"


def test_stage_rules_must_return_one_exact_award_per_agent():
    def inexact(bp):
        return tuple(float(c) for c in bp.claims)

    def short(bp):
        return proportional_rule(bp)[:-1]

    with pytest.raises(InvalidProblem, match=r"^agent stage, issue 'a': awards must be"):
        two_stage_rule(small_multi(), "proportional", inexact)
    with pytest.raises(InvalidProblem, match=r"^agent stage, issue 'a': one award per"):
        two_stage_rule(small_multi(), "proportional", short)
    with pytest.raises(InvalidProblem, match=r"^issue stage: one award per issue"):
        two_stage_rule(small_multi(), short, "proportional")


def test_agent_stage_awards_must_be_nonnegative():
    with pytest.raises(InvalidProblem,
                       match=r"^agent stage, issue 'a': awards must be nonnegative"):
        two_stage_rule(small_multi(), "proportional", lambda bp: (bp.endowment + 1, F(-1)))


def test_issue_stage_awards_must_be_exact_and_nonnegative():
    def inexact(bp):
        return tuple(float(c) for c in bp.claims)

    def negative(bp):
        return (bp.endowment + 1, F(-1))

    for stage in (inexact, negative):
        with pytest.raises(InvalidProblem, match=r"^issue stage: awards must be"):
            two_stage_rule(small_multi(), stage, "proportional")


# -- the trusted streaming view ----------------------------------------------------


def streaming_views():
    """Generated problems at three fees, some insolvent, and sparse catalogs."""
    for fee in (1, F(5, 2), F(7, 3)):
        for max_streams in (3, 40):
            yield from ProblemGenerator(seed=47, max_artists=7, max_users=9,
                                        max_streams=max_streams, fee=fee).sample(20)
    yield sparse_problem_with_silent_artists(48)
    yield sparse_problem_with_silent_artists(49, fee=F(7, 3))


def test_streaming_to_claims_matches_the_public_constructor():
    solvent = insolvent = 0
    for problem in streaming_views():
        try:
            expected = reference_streaming_to_claims(problem)
        except InvalidProblem as exc:
            with pytest.raises(InvalidProblem) as got:
                streaming_to_claims(problem)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            insolvent += 1
            continue
        mc = streaming_to_claims(problem)
        assert mc == expected
        assert mc.issue_totals() == expected.issue_totals()
        assert mc._total == expected._total
        assert mc._supports == expected._supports
        assert all(type(c) is Fraction for row in mc.claims for c in row)
        assert all(type(t) is Fraction for t in mc.issue_totals() + (mc._total, mc.endowment))
        if problem.user_count < 10:  # the reference loops take seconds on the sparse ones
            assert_rules_match_reference(mc)
        solvent += 1
    assert solvent > 80 and insolvent > 5
    thin = new_problem(["1"], ["a", "b"], [[1, 1]], fee=2)
    with pytest.raises(InvalidProblem, match=r"^endowment 4 exceeds total claims$"):
        streaming_to_claims(thin)


def test_streaming_to_claims_never_holds_the_whole_transpose():
    """Column sums and supports are taken one column at a time: beyond what the claims
    problem keeps, the conversion allocates far less than a transpose of the streams."""
    rng = random.Random(47)
    n, m = 40, 2000
    problem = new_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(m)],
                          [[rng.randint(1, 9) for _ in range(m)] for _ in range(n)])
    transpose = sum(sys.getsizeof(column) for column in zip(*problem.streams))
    tracemalloc.start()
    try:
        mc = streaming_to_claims(problem)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mc == reference_streaming_to_claims(problem)
    assert peak - kept < transpose / 4


def test_trusted_stages_match_the_checked_stage():
    for problem in streaming_views():
        try:
            mc = streaming_to_claims(problem)
        except InvalidProblem:
            continue
        totals = mc.issue_totals()
        for rule in STAGES + (overspend,):
            rule = resolve_rule(rule)
            assert outcome(_stage, rule, "issue", "issue stage", mc.issues, totals,
                           mc.endowment, mc._total) == outcome(
                reference_stage, rule, "issue", "issue stage", mc.issues, totals, mc.endowment)
        budgets = _stage(BANKRUPTCY_RULES["cea"], "issue", "issue stage", mc.issues, totals,
                         mc.endowment, mc._total)
        for issue, column, budget, total in zip(mc.issues, zip(*mc.claims), budgets, totals):
            for rule in STAGES:
                rule = resolve_rule(rule)
                label = f"agent stage, issue {issue!r}"
                assert outcome(_stage, rule, "agent", label, mc.agents, column, budget,
                               total) == outcome(
                    reference_stage, rule, "agent", label, mc.agents, column, budget)


class UnhashableRule:
    __hash__ = None

    def __call__(self, problem):
        return proportional_rule(problem)


def test_stage_rules_need_not_be_hashable(three_user):
    mc = streaming_to_claims(three_user)
    expected = two_stage_rule(mc, "proportional", "proportional")
    assert two_stage_rule(mc, UnhashableRule(), "proportional") == expected
    assert two_stage_rule(mc, "proportional", UnhashableRule()) == expected


def test_callable_issue_stage_is_checked_on_streaming_claims(three_user):
    mc = streaming_to_claims(three_user)
    for agent_stage in ("proportional", "cea", priority_rule):
        with pytest.raises(InvalidProblem, match=r"^agent stage, issue 'a': endowment 20 "
                                                 r"exceeds total claims 10$"):
            two_stage_rule(mc, overspend, agent_stage)


def equal_split(problem: BankruptcyProblem) -> tuple[Fraction, ...]:
    """Split the endowment equally over every claimant, zero claims included."""
    return (problem.endowment / len(problem.agents),) * len(problem.agents)


def test_callable_agent_stage_sees_every_agent():
    rng = random.Random(52)
    problems = [fractional_multi_issue(rng, rng.randint(1, 9), rng.randint(1, 9),
                                       F(rng.randint(0, 10), 10)) for _ in range(20)]
    for problem in streaming_views():
        try:
            problems.append(streaming_to_claims(problem))
        except InvalidProblem:
            pass  # more fee than streams: no claims view to compare
    for mc in problems:
        for issue_stage in STAGES + (overspend,):
            assert outcome(two_stage_rule, mc, issue_stage, equal_split) == outcome(
                reference_two_stage_rule, mc, issue_stage, equal_split)
    # Every fifth artist of the sparse catalog streams nothing, yet is paid.
    silent = streaming_to_claims(sparse_problem_with_silent_artists(48))
    assert not any(silent.claims[0])
    assert two_stage_rule(silent, "cea", equal_split)[0] > 0


def test_streaming_two_stage_rule_coerces_per_issue_not_per_cell(monkeypatch):
    problem = sparse_problem_with_silent_artists(50)
    calls = []

    def counting(value, *args, **kwargs):
        calls.append(value)
        return as_rational(value, *args, **kwargs)

    monkeypatch.setattr("streamshare.claims.as_rational", counting)
    awards = two_stage_rule(streaming_to_claims(problem), "cea", "proportional")
    assert len(calls) <= problem.user_count + problem.artist_count
    assert awards == rewards(problem, USER_CENTRIC(problem)).amounts


def test_weighted_proportional_adds_positive_claims_only(monkeypatch):
    problem = sparse_problem_with_silent_artists(45, fee=F(7, 3))
    trusted = streaming_to_claims(problem)
    public = reference_streaming_to_claims(problem)
    rng = random.Random(46)
    fractional = fractional_multi_issue(rng, 12, 40, F(3, 4))
    for mc in (trusted, public, fractional):
        for weights in (issue_size_weights, equal_issue_weights):
            assert weighted_proportional(mc, weights) == reference_weighted_proportional(
                mc, weights)
    calls = []
    truth = Fraction.__bool__

    def counting(self):
        calls.append(self)
        return truth(self)

    monkeypatch.setattr(Fraction, "__bool__", counting)
    for weights in (issue_size_weights, equal_issue_weights):
        weighted_proportional(trusted, weights)
        weighted_proportional(public, weights)
    # About 12,000 claims each, almost all zero: none is tested one at a time.
    assert len(calls) <= len(problem.users)


def wide_uniform_view_problem():
    """The 60 x 1,200 uniform catalog at a 7/3 fee."""
    return _uniform(0, 60, 1200).with_fee(F(7, 3))


def test_streaming_view_makes_the_public_claims_on_first_read():
    """The view keeps the problem's integer rows; everything read from it, and every copy,
    equals the public constructor's value, and its claims are Fractions shared per count."""
    checked = 0
    for problem in (*streaming_views(), wide_uniform_view_problem()):
        try:
            expected = reference_streaming_to_claims(problem)
        except InvalidProblem:
            continue
        mc = streaming_to_claims(problem)
        copies = (pickle.loads(pickle.dumps(mc)), copy.copy(mc), copy.deepcopy(mc))
        assert not any("claims" in vars(other) for other in (mc, *copies))
        copies += (dataclasses.replace(mc),)
        assert mc.issue_totals() == expected.issue_totals() and mc._total == expected._total
        assert mc._supports == expected._supports
        assert mc == expected and hash(mc) == hash(expected)
        assert "claims" in vars(mc)
        assert mc.claims == expected.claims
        assert all(type(c) is Fraction for row in mc.claims for c in row)
        assert len({id(c) for row in mc.claims for c in row}) == len(
            set().union(*problem.streams))
        assert multi_issue_to_dict(mc) == multi_issue_to_dict(expected)
        for other in copies:
            assert type(other) is MultiIssueClaims
            assert other == expected and hash(other) == hash(expected)
            assert other.issue_totals() == expected.issue_totals()
            assert other._supports == expected._supports
            assert all(type(c) is Fraction for row in other.claims for c in row)
            assert multi_issue_to_dict(other) == multi_issue_to_dict(expected)
        checked += 1
    assert checked > 80


def test_streaming_view_keeps_no_second_matrix():
    """The view stores the problem's own rows, not a matrix of Fraction references."""
    problem = wide_uniform_view_problem()
    rows = sum(map(sys.getsizeof, problem.streams))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mc = streaming_to_claims(problem)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < rows / 4
    assert mc._counts is problem.streams


def test_rules_on_a_streaming_view_never_make_its_claims():
    problem = wide_uniform_view_problem()
    mc = streaming_to_claims(problem)
    awards = two_stage_rule(mc, "cea", "proportional")
    assert "claims" not in vars(mc)
    public = reference_streaming_to_claims(problem)
    assert awards == two_stage_rule(public, "cea", "proportional")
    assert all(type(a) is Fraction for a in awards)
    assert two_stage_rule(mc, "proportional", "cea") == two_stage_rule(
        public, "proportional", "cea")
    for weights in (issue_size_weights, equal_issue_weights):
        assert weighted_proportional(mc, weights) == weighted_proportional(public, weights)
    assert "claims" not in vars(mc)


def test_proportional_rules_on_a_streaming_view_peak_below_half_its_rows():
    """The proportional split adds up one agent row at a time, so no rule holds an award
    per claim: each peaks well below the rows it reads."""
    problem = wide_uniform_view_problem()
    rows = sum(map(sys.getsizeof, problem.streams))
    mc = streaming_to_claims(problem)
    for rule in (lambda: two_stage_rule(mc, "cea", "proportional"),
                 lambda: weighted_proportional(mc, equal_issue_weights)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rule()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < rows / 2


def overspend_last(problem: BankruptcyProblem) -> tuple[Fraction, ...]:
    """Give every issue its claims, and the last one twice its claims."""
    return (*problem.claims[:-1], 2 * problem.claims[-1])


def halve(problem: BankruptcyProblem) -> tuple[Fraction, ...]:
    """Give every issue half its claims: within each issue's total."""
    return tuple(c / 2 for c in problem.claims)


def test_agent_stages_match_the_reference_on_either_side_of_the_budget_check():
    rng = random.Random(53)
    problems = [fractional_multi_issue(rng, rng.randint(1, 9), rng.randint(1, 9),
                                       F(rng.randint(0, 10), 10)) for _ in range(20)]
    for problem in streaming_views():
        try:
            problems.append(streaming_to_claims(problem))
        except InvalidProblem:
            pass  # more fee than streams: no claims view to compare
    for mc in problems:
        for issue_stage in (overspend_last, halve):
            for agent_stage in STAGES + (equal_split,):
                got = outcome(two_stage_rule, mc, issue_stage, agent_stage)
                assert got == outcome(reference_two_stage_rule, mc, issue_stage, agent_stage)
                if issue_stage is halve:
                    assert all(kind is Fraction for kind, _ in got)
                else:
                    assert got[0] is InvalidProblem
                    assert got[1].startswith(f"agent stage, issue {mc.issues[-1]!r}: ")


def test_proportional_splits_skip_the_per_issue_loop(monkeypatch):
    def per_issue(*args, **kwargs):
        raise AssertionError("the per-issue loop ran")

    rng = random.Random(54)
    views = [streaming_to_claims(sparse_problem_with_silent_artists(55, fee=F(7, 3))),
             fractional_multi_issue(rng, 7, 9, F(1, 2))]
    expected = [[reference_two_stage_rule(mc, stage, "proportional")
                 for stage in STAGES + (halve,)] for mc in views]
    monkeypatch.setattr("streamshare.claims._split_issues", per_issue)
    for mc, awards in zip(views, expected):
        assert [two_stage_rule(mc, stage, "proportional")
                for stage in STAGES + (halve,)] == awards
        for weights in (issue_size_weights, equal_issue_weights):
            assert weighted_proportional(mc, weights) == reference_weighted_proportional(
                mc, weights)
    with pytest.raises(AssertionError, match="per-issue loop"):
        two_stage_rule(views[0], overspend_last, "proportional")


def proportional_budgets(mc: MultiIssueClaims, rng: random.Random):
    """Budgets to split: both weight functions', the cea stage's, one with a zero and
    one above an issue's total."""
    totals = mc.issue_totals()
    for weights in (issue_size_weights, equal_issue_weights):
        yield [w * mc.endowment for w in weights(totals, mc.endowment)]
    yield list(cea_awards(BankruptcyProblem(mc.issues, totals, mc.endowment)))
    yield [F(0), *(t * F(rng.randint(0, 9), 7) for t in totals[1:])]


def test_proportional_split_matches_the_fraction_split():
    rng = random.Random(56)
    problems = [fractional_multi_issue(rng, rng.randint(1, 9), rng.randint(1, 9),
                                       F(rng.randint(0, 10), 10)) for _ in range(10)]
    for problem in (sparse_problem_with_silent_artists(57), wide_uniform_view_problem()):
        for fee in (1, F(7, 3)):
            problems += [streaming_to_claims(problem.with_fee(fee)),
                         reference_streaming_to_claims(problem.with_fee(fee))]
    for mc in problems:
        for budgets in proportional_budgets(mc, rng):
            awards = _proportional_split(mc, budgets)
            assert awards == reference_proportional_split(mc, budgets)
            assert all(type(a) is Fraction for a in awards)


def fractions_made(run) -> int:
    """How many Fractions ``run()`` makes: calls of the constructors of fractions.py."""
    made = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):  # how CPython 3.12+ makes results
        made.add(Fraction._from_coprime_ints.__func__.__code__)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in made:
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_proportional_split_makes_one_fraction_per_agent():
    """No Fraction per claim: the split makes one per agent, and the whole cea-then-
    proportional rule at most one per agent and one per issue."""
    problem = sparse_problem_with_silent_artists(58, fee=F(7, 3))
    rng = random.Random(59)
    for mc in (streaming_to_claims(problem), reference_streaming_to_claims(problem),
               fractional_multi_issue(rng, 12, 40, F(3, 4))):
        for budgets in proportional_budgets(mc, rng):
            assert fractions_made(lambda: _proportional_split(mc, budgets)) == len(mc.agents)
        assert fractions_made(lambda: two_stage_rule(mc, "cea", "proportional")) <= len(
            mc.agents) + len(mc.issues)
    # The profile sees the Fractions that arithmetic makes.
    third, share = F(1, 3), F(3, 7)
    assert fractions_made(lambda: third * share) == 1
