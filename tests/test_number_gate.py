"""The exact-number gate as one table: every exported callable that takes a number.

Each row of ``GATES`` puts one value where an export takes a number (an
amount, a count or a size) and expects TypeError or a ModelError for any
float, NaN, bool or Decimal.  ``TAKES_NO_NUMBER`` names every other
exported callable with the reason it has no such argument, and a coverage
test requires each export to be in exactly one of the two tables.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamshare as s
from streamshare import ModelError
from streamshare.claims import multi_issue_from_dict

INEXACT = st.one_of(st.floats(), st.just(float("nan")), st.booleans(), st.decimals())

PROBLEM = s.new_problem(["x", "y"], ["a", "b"], [[1, 0], [1, 2]], fee=2)


def _weights(value):
    return s.WeightSystem("bad", lambda user, profile: value)


def _issue_weights(value):
    return s.IssueWeightFunction("bad", lambda totals, endowment: (value,) * len(totals))


def _dict_problem(**fields):
    return s.problem_from_dict({"artists": ["x"], "users": ["a"], "streams": [[1]], **fields})


# Keyed "<export> <argument>"; each value maps the fed number to the call.
GATES = {
    "as_rational value": lambda v: s.as_rational(v),
    "decimal_display value": lambda v: s.decimal_display(v, 2),
    "decimal_display places": lambda v: s.decimal_display(Fraction(1, 3), v),
    "StreamingProblem fee": lambda v: s.StreamingProblem(("x",), ("a",), ((1,),), v),
    "StreamingProblem count": lambda v: s.StreamingProblem(("x", "y"), ("a",), ((1,), (v,))),
    "StreamingProblem.with_fee fee": lambda v: PROBLEM.with_fee(v),
    "new_problem fee": lambda v: s.new_problem(["x"], ["a"], [[1]], fee=v),
    "new_problem count": lambda v: s.new_problem(["x", "y"], ["a"], [[1], [v]]),
    "problem_from_dict fee": lambda v: _dict_problem(fee=v),
    "problem_from_dict count": lambda v: _dict_problem(streams=[[v]]),
    "Allocation amount": lambda v: s.Allocation(("x", "y"), (v, 1)),
    "IndexValues score": lambda v: s.IndexValues(("x", "y"), (v, 1)),
    "IndexValues.scaled factor": lambda v: s.PRO_RATA(PROBLEM).scaled(v),
    "BandedWeightParams alpha": lambda v: s.BandedWeightParams(v, 3),
    "BandedWeightParams beta": lambda v: s.BandedWeightParams(1, v),
    "banded_index alpha": lambda v: s.banded_index(v, 3),
    "standard_indices beta": lambda v: s.standard_indices(1, v),
    "table_weight_system weight": lambda v: s.table_weight_system({"a": v}),
    "WeightSystem weight": lambda v: _weights(v)("a", (1,)),
    "weighted_index weight": lambda v: s.weighted_index(PROBLEM, _weights(v)),
    "index_from_weights weight": lambda v: s.index_from_weights(_weights(v))(PROBLEM),
    "CoalitionalGame worth": lambda v: s.CoalitionalGame(("x",), (0, v)),
    "DividendTable dividend": lambda v: s.DividendTable(("x",), (0, v)),
    "reconstruct_from_dividends dividend": lambda v: s.reconstruct_from_dividends({1: v}, ["x"]),
    "CoreDecomposition share": lambda v: s.CoreDecomposition(("x", "y"), ("a",), ((v, 0),), 1),
    "CoreDecomposition fee": lambda v: s.CoreDecomposition(("x", "y"), ("a",), ((1, 0),), v),
    "in_core_direct amount": lambda v: s.in_core_direct(s.streaming_game(PROBLEM), (v, 4)),
    "in_core_flow amount": lambda v: s.in_core_flow(PROBLEM, (v, 4)),
    "extract_decomposition amount": lambda v: s.extract_decomposition(PROBLEM, (v, 4)),
    "BankruptcyProblem claim": lambda v: s.BankruptcyProblem(("x", "y"), (v, 1), 0),
    "BankruptcyProblem endowment": lambda v: s.BankruptcyProblem(("x", "y"), (1, 1), v),
    "MultiIssueClaims claim": lambda v: s.MultiIssueClaims(("x", "y"), ("a",), ((v,), (1,)), 0),
    "MultiIssueClaims endowment": lambda v: s.MultiIssueClaims(("x",), ("a",), ((1,),), v),
    "multi_issue_from_dict endowment": lambda v: multi_issue_from_dict(
        {"agents": ["x"], "issues": ["a"], "claims": [[1]], "endowment": v}),
    "IssueWeightFunction weight": lambda v: _issue_weights(v)((Fraction(1),), Fraction(1)),
    "issue_size_weights total": lambda v: s.issue_size_weights((v,), Fraction(1)),
    "equal_issue_weights endowment": lambda v: s.equal_issue_weights((v,), v),
    "weighted_proportional weight": lambda v: s.weighted_proportional(
        s.streaming_to_claims(PROBLEM), _issue_weights(v)),
    "two_stage_rule issue award": lambda v: s.two_stage_rule(
        s.streaming_to_claims(PROBLEM), lambda problem: (v, 2), "cea"),
    "two_stage_rule agent award": lambda v: s.two_stage_rule(
        s.streaming_to_claims(PROBLEM), "cea", lambda problem: (v,) * len(problem.agents)),
    "ProblemGenerator fee": lambda v: s.ProblemGenerator(fee=v),
    "ProblemGenerator max_users": lambda v: s.ProblemGenerator(max_users=v),
    "check_homogeneity factor": lambda v: s.check_homogeneity(s.PRO_RATA, PROBLEM, "x", "y", v),
}

_PROBLEM_ONLY = "takes problems, games, tables, indices or names, whose numbers were gated"
_RECORD = "a result record that only the package builds"
_SEARCH = "seed, sparsity and budget steer the random search and never enter the arithmetic"
TAKES_NO_NUMBER = {
    **dict.fromkeys([
        "cea_awards", "cea_rule", "proportional_rule", "streaming_to_bankruptcy",
        "streaming_to_claims", "harsanyi_dividends", "in_domain_pstar", "is_supermodular",
        "streaming_game", "merge_problems", "reorder_users", "split_problem",
        "problem_to_dict", "serialize_problem", "rewards", "banded_weight_system", "Index",
        "pro_rata_index", "user_centric_index", "uniform_index", "padded_share_index",
        "squared_streams_index", "stream_share_index", "equal_split_index", "PRO_RATA",
        "USER_CENTRIC", "UNIFORM", "PADDED_SHARE", "SQUARED_STREAMS", "STREAM_SHARE",
        "EQUAL_SPLIT", "check_additivity", "check_click_fraud_proofness",
        "check_core_selection", "check_equal_global_impact", "check_equal_individual_impact",
        "check_reasonable_lower_bound", "check_reasonable_lower_bound_all", "evaluate_axiom",
        "recheck_witness", "reference_problems",
    ], _PROBLEM_ONLY),
    **dict.fromkeys([
        "AxiomVerdict", "CeaAwards", "DirectCoreResult", "FlowCoreResult",
        "SupermodularityResult", "Status",
    ], _RECORD),
    **dict.fromkeys(["axiom_matrix", "search_witness"], _SEARCH),
    "parse_problem": "parses text; its numbers reach problem_from_dict, which has rows",
}


@settings(max_examples=40, deadline=None)
@given(INEXACT)
@pytest.mark.parametrize("gate", sorted(GATES))
def test_every_number_an_export_takes_is_exact(gate, value):
    with pytest.raises((TypeError, ModelError)):
        GATES[gate](value)


def test_every_exported_callable_is_in_one_table():
    exported = {name for name in dir(s) if not name.startswith("_")
                and callable(getattr(s, name))
                and not (isinstance(getattr(s, name), type)
                         and issubclass(getattr(s, name), BaseException))}
    gated = {gate.split()[0].split(".")[0] for gate in GATES}
    assert exported - gated == set(TAKES_NO_NUMBER)
