"""Input checks at the public boundaries, one table row per rejected input.

Each row builds the call from scratch, so a row states the whole input that
must be refused, the exception type and the start of its message.
"""
from __future__ import annotations

import json
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from streamshare import (
    PRO_RATA,
    USER_CENTRIC,
    Allocation,
    BankruptcyProblem,
    CoreDecomposition,
    DimensionMismatch,
    IndexValues,
    InvalidProblem,
    ModelError,
    MultiIssueClaims,
    ParseError,
    ProblemGenerator,
    TooManyPlayers,
    axiom_matrix,
    check_reasonable_lower_bound_all,
    evaluate_axiom,
    extract_decomposition,
    in_core_direct,
    new_problem,
    parse_problem,
    problem_from_dict,
    rewards,
    streaming_game,
)
from streamshare.cli import EXIT_INPUT, cli

from helpers import three_user_problem, two_user_problem


def _wide_problem(users):
    """One artist streamed once by each of ``users`` users."""
    return new_problem(["1"], [f"u{j}" for j in range(users)], [[1] * users])


REJECTED = {
    # claims
    "bankruptcy-no-agents": (lambda: BankruptcyProblem((), (), 0),
                             InvalidProblem, "need at least one agent"),
    "claims-no-agents": (lambda: MultiIssueClaims((), ("x",), (), 0),
                         InvalidProblem, "need at least one agent and one issue"),
    "claims-no-issues": (lambda: MultiIssueClaims(("a",), (), ((),), 0),
                         InvalidProblem, "need at least one agent and one issue"),
    "claims-duplicate-issue": (lambda: MultiIssueClaims(("a",), ("x", "x"), ((1, 1),), 0),
                               InvalidProblem, "duplicate issue identifier"),
    "claims-row-count": (lambda: MultiIssueClaims(("a", "b"), ("x",), ((1,),), 0),
                         InvalidProblem, "one claim row per agent required"),
    "claims-negative-claim": (lambda: MultiIssueClaims(("a",), ("x",), ((-1,),), 0),
                              InvalidProblem, "claims must be nonnegative"),
    "claims-negative-endowment": (lambda: MultiIssueClaims(("a",), ("x",), ((1,),), -1),
                                  InvalidProblem, "endowment must be nonnegative"),
    # axioms
    "generator-max-streams": (lambda: ProblemGenerator(max_streams=0),
                              ModelError, "max_streams must be at least 1"),
    "generator-sparsity-string": (lambda: ProblemGenerator(sparsity="0.3"),
                                  ModelError, "sparsity must be a real number, got str"),
    "generator-sparsity-none": (lambda: ProblemGenerator(sparsity=None),
                                ModelError, "sparsity must be a real number, got NoneType"),
    # Additivity and the lower bound enumerate every user subset: 2**m of them.
    "additivity-over-the-user-cap": (
        lambda: evaluate_axiom(PRO_RATA, "additivity", _wide_problem(21)),
        TooManyPlayers, "21 users exceeds the 20-player cap"),
    "lower-bound-over-the-user-cap": (
        lambda: check_reasonable_lower_bound_all(PRO_RATA, _wide_problem(40)),
        TooManyPlayers, "40 users exceeds the 20-player cap"),
    # The seed-0 generator's first problem has 27 users.
    "matrix-over-the-user-cap": (
        lambda: axiom_matrix([PRO_RATA], None, ProblemGenerator(max_users=40), 100),
        TooManyPlayers, "27 users exceeds the 20-player cap"),
    # model
    "empty-artist-name": (lambda: new_problem([""], ["a"], [[1]]), DimensionMismatch,
                          "every artist identifier must be a nonempty string"),
    "non-string-user-name": (lambda: new_problem(["1"], [7], [[1]]), DimensionMismatch,
                             "every user identifier must be a nonempty string"),
    "index-values-count": (lambda: IndexValues(("1", "2"), (1,)), DimensionMismatch,
                           "one entry of scores per artist required"),
    "allocation-count": (lambda: Allocation(("1",), (1, 2)), DimensionMismatch,
                         "one entry of amounts per artist required"),
    "scale-by-zero": (lambda: IndexValues(("1",), (1,)).scaled(0), ModelError,
                      "scale factor must be positive"),
    "dict-not-an-object": (lambda: problem_from_dict([1]), ParseError,
                           "top level must be an object"),
    "dict-fields-not-arrays": (
        lambda: problem_from_dict({"artists": "1", "users": ["a"], "streams": [[1]]}),
        ParseError, "'artists', 'users' and 'streams' must be arrays"),
    "dict-row-not-an-array": (
        lambda: problem_from_dict({"artists": ["1"], "users": ["a"], "streams": [1]}),
        ParseError, "'streams' must be an array of arrays"),
    "csv-empty": (lambda: parse_problem("\n\n", "csv"), ParseError, "line 1: empty input"),
    "csv-no-users": (lambda: parse_problem("artist\n1\n", "csv"), ParseError,
                     "line 1: header names no users"),
    "csv-header-only": (lambda: parse_problem("artist,a\n", "csv"), ParseError,
                        "line 2: no artist rows"),
    "bytes-not-utf8": (lambda: parse_problem(b"\xff", "csv"), ParseError,
                       "input is not UTF-8"),
    "json-nested-too-deeply": (lambda: parse_problem("[" * 100_000, "json"), ParseError,
                               "JSON nested too deeply"),
    # game
    "direct-oracle-amount-count": (
        lambda: in_core_direct(streaming_game(two_user_problem()), [F(2)]),
        DimensionMismatch, "expected 2 amounts, got 1"),
    "ragged-decomposition": (
        lambda: CoreDecomposition(("1", "2"), ("a", "b"), ((1,), (0, 1)), 1).validate(
            two_user_problem()),
        DimensionMismatch, "ragged decomposition row"),
}


@pytest.mark.parametrize("build, error, message", REJECTED.values(), ids=REJECTED.keys())
def test_malformed_input_is_rejected(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("problem", [two_user_problem(), three_user_problem(F(5, 2))],
                         ids=["two-user", "three-user"])
def test_extract_decomposition_returns_a_valid_decomposition(problem):
    payout = rewards(problem, USER_CENTRIC(problem))
    decomposition = extract_decomposition(problem, payout)
    decomposition.validate(problem)
    assert decomposition.fee == problem.fee
    assert decomposition.allocation() == payout


# (command line, weights file text or None, exit code, text expected in the output)
CLI_CASES = {
    "weighted-file-without-file": (
        ["allocate", "--method", "weighted-file"], None, EXIT_INPUT,
        "error: --method weighted-file requires --weights-file"),
    "weights-file-not-an-object": (
        ["allocate", "--method", "weighted-file", "--weights-file", "{weights}"], "[1, 2]",
        EXIT_INPUT, "error: the weights file must hold a JSON object of user weights"),
    "weights-file-unparsable-weight": (
        ["allocate", "--method", "weighted-file", "--weights-file", "{weights}"],
        json.dumps({"a": "1/0", "b": 1}), EXIT_INPUT, "error: weight for user 'a' '1/0'"),
    "weights-file-not-json": (
        ["allocate", "--method", "weighted-file", "--weights-file", "{weights}"], "{not json",
        EXIT_INPUT, "error: weights file is not UTF-8 JSON"),
}


@pytest.mark.parametrize("args, weights, code, expected", CLI_CASES.values(),
                         ids=CLI_CASES.keys())
def test_cli_rejects_bad_method_input(tmp_path, args, weights, code, expected):
    csv_path = tmp_path / "two.csv"
    csv_path.write_text("artist,a,b\n1,10,0\n2,0,90\n")
    weights_path = tmp_path / "weights.json"
    if weights is not None:
        weights_path.write_text(weights)
    args = [arg.format(weights=weights_path) for arg in args] + ["-i", str(csv_path)]
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == code, result.output
    assert expected in result.stderr
    assert "Traceback" not in result.output


def test_cli_rejects_a_weights_file_that_is_not_utf8(tmp_path):
    csv_path = tmp_path / "two.csv"
    csv_path.write_text("artist,a,b\n1,10,0\n2,0,90\n")
    weights_path = tmp_path / "weights.json"
    weights_path.write_bytes(b"\xff")
    result = CliRunner().invoke(cli, ["allocate", "--method", "weighted-file", "--weights-file",
                                      str(weights_path), "-i", str(csv_path)])
    assert result.exit_code == EXIT_INPUT, result.output
    assert "error: weights file is not UTF-8 JSON" in result.stderr
    assert "Traceback" not in result.output


def test_game_json_above_the_player_cap_reports_the_skip(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("artist,u\n" + "".join(f"x{i},1\n" for i in range(21)))
    result = CliRunner().invoke(cli, ["game", "-i", str(path), "-o", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {
        "players": [f"x{i}" for i in range(21)],
        "skipped": "21 artists exceeds the 20-player cap"}
