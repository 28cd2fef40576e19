from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import streamshare
from streamshare import harsanyi_dividends, parse_problem, streaming_game
from streamshare.axioms import ProblemGenerator
from streamshare.cli import (EXIT_INPUT, EXIT_INTERNAL, MAX_PRECISION, _CHUNKS_PER_WRITE,
                             _echo_json, _json_chunks, cli)
from streamshare.game import FlowCoreResult, dividends_to_dict
from streamshare.model import problem_to_dict

from helpers import reference_game_table

TWO_USER_CSV = "artist,a,b\n1,10,0\n2,0,90\n"
THREE_USER_CSV = "artist,a,b,c\n1,10,0,5\n2,0,90,35\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def two_user_csv(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(TWO_USER_CSV)
    return str(path)


@pytest.fixture
def three_user_csv(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text(THREE_USER_CSV)
    return str(path)


def invoke(runner, *args):
    return runner.invoke(cli, list(args))


# -- allocate ----------------------------------------------------------


def test_allocate_json_golden(runner, two_user_csv):
    result = invoke(runner, "allocate", "-i", two_user_csv, "-o", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["method"] == "pro-rata"
    assert payload["rewards"] == {"1": "1/5", "2": "9/5"}
    assert payload["index"] == {"1": "10", "2": "90"}


def test_allocate_table_shows_decimals(runner, two_user_csv):
    result = invoke(runner, "allocate", "-i", two_user_csv)
    assert result.exit_code == 0
    assert "0.2000" in result.output
    assert "1/5" in result.output


def test_allocate_user_centric(runner, two_user_csv):
    result = invoke(runner, "allocate", "-i", two_user_csv,
                    "--method", "user-centric", "-o", "json")
    payload = json.loads(result.output)
    assert payload["rewards"] == {"1": "1", "2": "1"}


def test_allocate_banded_golden(runner, three_user_csv):
    result = invoke(runner, "allocate", "-i", three_user_csv, "--method", "banded",
                    "--alpha", "20", "--beta", "60", "-o", "json")
    payload = json.loads(result.output)
    assert payload["method"] == "banded(20,60)"
    assert payload["rewards"] == {"1": "5/8", "2": "19/8"}


def test_allocate_banded_requires_edges(runner, two_user_csv):
    result = invoke(runner, "allocate", "-i", two_user_csv, "--method", "banded")
    assert result.exit_code == EXIT_INPUT
    assert "--alpha" in result.stderr


def test_allocate_ignores_band_edges_for_other_methods(runner, two_user_csv):
    # 0 is no valid lower band edge, but only banded reads the edges.
    result = invoke(runner, "allocate", "-i", two_user_csv, "--method", "pro-rata",
                    "--alpha", "0", "--beta", "3", "-o", "json")
    assert result.exit_code == 0
    assert result.output == invoke(runner, "allocate", "-i", two_user_csv, "-o", "json").output
    assert json.loads(result.output)["rewards"] == {"1": "1/5", "2": "9/5"}


def test_allocate_weights_file(runner, two_user_csv, tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"a": 1, "b": "1/9"}))
    result = invoke(runner, "allocate", "-i", two_user_csv,
                    "--method", "weighted-file", "--weights-file", str(weights),
                    "-o", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rewards"] == {"1": "1", "2": "1"}


def test_allocate_weights_file_missing_user(runner, two_user_csv, tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"a": 1}))
    result = invoke(runner, "allocate", "-i", two_user_csv,
                    "--method", "weighted-file", "--weights-file", str(weights))
    assert result.exit_code == EXIT_INPUT


def test_allocate_weights_file_float_is_bad_input(two_user_csv, tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"a": 0.5, "b": 1}))
    src = str(Path(streamshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run(
        [sys.executable, "-m", "streamshare.cli", "allocate", "-i", two_user_csv,
         "--method", "weighted-file", "--weights-file", str(weights)],
        capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_INPUT
    assert "Traceback" not in result.stdout + result.stderr
    assert "weight for user 'a'" in result.stderr


def test_allocate_weights_file_negative_unused_entry_is_bad_input(two_user_csv, tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"a": 1, "b": 1, "zz": -5}))
    src = str(Path(streamshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run(
        [sys.executable, "-m", "streamshare.cli", "allocate", "-i", two_user_csv,
         "--method", "weighted-file", "--weights-file", str(weights)],
        capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_INPUT
    assert "Traceback" not in result.stdout + result.stderr
    assert "'zz'" in result.stderr


def test_allocate_fee_override(runner, two_user_csv):
    result = invoke(runner, "allocate", "-i", two_user_csv, "--fee", "1/2",
                    "-o", "json")
    payload = json.loads(result.output)
    assert payload["fee"] == "1/2"
    assert payload["revenue"] == "1"
    assert payload["rewards"] == {"1": "1/10", "2": "9/10"}


def test_allocate_from_stdin(runner):
    result = runner.invoke(cli, ["allocate", "-i", "-", "--format", "csv",
                                 "-o", "json"], input=TWO_USER_CSV)
    assert result.exit_code == 0
    assert json.loads(result.output)["rewards"]["2"] == "9/5"


def test_allocate_json_input_carries_fee(runner, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "artists": ["1", "2"], "users": ["a", "b"],
        "streams": [[10, 0], [0, 90]], "fee": "3",
    }))
    result = invoke(runner, "allocate", "-i", str(path), "-o", "json")
    payload = json.loads(result.output)
    assert payload["fee"] == "3"
    assert payload["rewards"] == {"1": "3/5", "2": "27/5"}


def test_allocate_format_inference_failure(runner, tmp_path):
    path = tmp_path / "p.dat"
    path.write_text(TWO_USER_CSV)
    result = invoke(runner, "allocate", "-i", str(path))
    assert result.exit_code == EXIT_INPUT
    assert "--format" in result.stderr


def test_allocate_parse_error_reports_location(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("artist,a\n1,-3\n")
    result = invoke(runner, "allocate", "-i", str(path))
    assert result.exit_code == EXIT_INPUT
    assert "negative" in result.stderr


def test_allocate_missing_file(runner):
    result = invoke(runner, "allocate", "-i", "/nonexistent/p.csv")
    assert result.exit_code == EXIT_INPUT


def test_allocate_runs_are_byte_identical(runner, three_user_csv):
    first = invoke(runner, "allocate", "-i", three_user_csv, "-o", "json")
    second = invoke(runner, "allocate", "-i", three_user_csv, "-o", "json")
    assert first.output == second.output


# -- compare ------------------------------------------------------------


def test_compare_default_methods(runner, two_user_csv):
    result = invoke(runner, "compare", "-i", two_user_csv, "-o", "json")
    payload = json.loads(result.output)
    assert set(payload["methods"]) == {"pro-rata", "user-centric"}


def test_compare_includes_banded_when_edges_given(runner, three_user_csv):
    result = invoke(runner, "compare", "-i", three_user_csv,
                    "--alpha", "20", "--beta", "60", "-o", "json")
    payload = json.loads(result.output)
    assert set(payload["methods"]) == {"pro-rata", "user-centric", "banded(20,60)"}
    assert payload["methods"]["banded(20,60)"]["rewards"]["1"] == "5/8"


def test_compare_repeatable_methods(runner, two_user_csv):
    result = invoke(runner, "compare", "-i", two_user_csv,
                    "--method", "pro-rata", "--method", "pro-rata")
    assert result.exit_code == 0
    assert "pro-rata" in result.output


# -- core-check ----------------------------------------------------------


def test_core_check_pro_rata_json(runner, two_user_csv):
    result = invoke(runner, "core-check", "-i", two_user_csv, "-o", "json")
    payload = json.loads(result.output)
    assert payload["in_core"] is False
    assert payload["oracles"] == {"direct": False, "flow": False}
    assert payload["blocking_coalition"] == ["1"]
    assert payload["decomposition"] is None


def test_core_check_user_centric_json(runner, two_user_csv):
    result = invoke(runner, "core-check", "-i", two_user_csv,
                    "--method", "user-centric", "-o", "json")
    payload = json.loads(result.output)
    assert payload["in_core"] is True
    assert payload["decomposition"]["shares"] == {"a": ["1", "0"], "b": ["0", "1"]}


def test_core_check_table_verdict(runner, two_user_csv):
    result = invoke(runner, "core-check", "-i", two_user_csv)
    assert "NOT IN CORE" in result.output
    assert "blocking coalition: 1" in result.output
    good = invoke(runner, "core-check", "-i", two_user_csv, "--method", "user-centric")
    assert "verdict: IN CORE" in good.output
    assert "fee of a: 1=1" in good.output


def test_core_check_oracle_disagreement_is_internal_error(
        runner, two_user_csv, monkeypatch):
    def lying_flow(problem, allocation):
        return FlowCoreResult(True, None)

    monkeypatch.setattr("streamshare.game.in_core_flow", lying_flow)
    result = invoke(runner, "core-check", "-i", two_user_csv)
    assert result.exit_code == EXIT_INTERNAL
    assert "internal error" in result.stderr


def test_core_check_many_artists_skips_direct_oracle(runner, tmp_path):
    artists = [f"x{i}" for i in range(25)]
    lines = ["artist,u1,u2"]
    for i, a in enumerate(artists):
        lines.append(f"{a},{1 if i % 2 == 0 else 0},{1 if i % 2 == 1 else 0}")
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")
    result = invoke(runner, "core-check", "-i", str(path),
                    "--method", "user-centric", "-o", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["oracles"]["direct"] is None
    assert payload["oracles"]["flow"] is True
    table = invoke(runner, "core-check", "-i", str(path), "--method", "user-centric")
    assert "flow-only mode" in table.output


def wide_catalog(tmp_path, rows: list[str]) -> str:
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(["artist,u1,u2"] + rows) + "\n")
    return str(path)


def test_core_check_flow_only_out_of_core(runner, tmp_path):
    # u1 streams only x0 once; u2 streams all 21 artists, so pro-rata pays x0
    # 101/2101 of the two fees, less than u1's fee alone.
    path = wide_catalog(tmp_path, [f"x{i},{int(i == 0)},100" for i in range(21)])
    result = invoke(runner, "core-check", "-i", path, "-o", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["oracles"] == {"direct": None, "flow": False}
    assert payload["blocking_coalition"] is None
    table = invoke(runner, "core-check", "-i", path)
    assert table.exit_code == 0
    assert "verdict: NOT IN CORE" in table.output


def test_core_check_flow_only_rechecks_the_min_cut_coalition(runner, tmp_path, monkeypatch):
    path = wide_catalog(tmp_path, [f"x{i},{1 - i % 2},{i % 2}" for i in range(25)])

    def non_blocking_flow(problem, allocation):
        # Nobody streams only x0, so {x0} is worth 0 and its payout does not block.
        return FlowCoreResult(False, None, "cut", frozenset({"x0"}))

    monkeypatch.setattr("streamshare.game.in_core_flow", non_blocking_flow)
    result = invoke(runner, "core-check", "-i", path, "--method", "user-centric")
    assert result.exit_code == EXIT_INTERNAL
    assert "OracleDisagreement" in result.stderr and "does not block" in result.stderr


# -- game -----------------------------------------------------------------


def test_game_json(runner, two_user_csv):
    result = invoke(runner, "game", "-i", two_user_csv, "-o", "json")
    payload = json.loads(result.output)
    assert payload["values"] == {"1": "1", "2": "1", "1,2": "2"}
    assert payload["dividends"] == {"1": "1", "2": "1"}
    assert payload["supermodular"] is True


def test_game_table(runner, three_user_csv):
    result = invoke(runner, "game", "-i", three_user_csv)
    assert result.exit_code == 0
    assert "supermodular: yes" in result.output


def test_game_too_many_players_notice(runner, tmp_path):
    lines = ["artist,u"] + [f"x{i},1" for i in range(22)]
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    result = invoke(runner, "game", "-i", str(path))
    assert result.exit_code == 0
    assert "skipped" in result.output


# -- claims -------------------------------------------------------------------


def test_claims_default_matches_pro_rata(runner, two_user_csv):
    result = invoke(runner, "claims", "-i", two_user_csv, "-o", "json")
    payload = json.loads(result.output)
    assert payload["awards"] == {"1": "1/5", "2": "9/5"}
    assert payload["issue_totals"] == {"a": "10", "b": "90"}


def test_claims_cea_first_stage_matches_user_centric(runner, two_user_csv):
    result = invoke(runner, "claims", "-i", two_user_csv,
                    "--stage1", "cea", "-o", "json")
    payload = json.loads(result.output)
    assert payload["awards"] == {"1": "1", "2": "1"}


def test_claims_insolvent_input(runner, tmp_path):
    path = tmp_path / "thin.csv"
    path.write_text("artist,a,b\n1,1,1\n")
    result = invoke(runner, "claims", "-i", str(path), "--fee", "2")
    assert result.exit_code == EXIT_INPUT


def seeded_catalog_csv(seed: int, artists: int, users: int) -> str:
    """A sparse seeded stream matrix as CSV; every user column is nonempty."""
    rng = random.Random(seed)
    columns = []
    for _ in range(users):
        column = [rng.randint(1, 30) if rng.random() < 0.15 else 0 for _ in range(artists)]
        if not any(column):
            column[rng.randrange(artists)] = rng.randint(1, 3)
        columns.append(column)
    lines = ["artist," + ",".join(f"u{j}" for j in range(users))]
    for i in range(artists):
        lines.append(f"a{i}," + ",".join(str(column[i]) for column in columns))
    return "\n".join(lines) + "\n"


# Every award and issue total of both stage orders on one seeded catalog.  At
# fee 7/2 some users stream less than the fee, so the CEA level is not the fee.
PINNED_CLAIMS_SHA256 = {
    ("cea", "proportional"): "af25091966a3bf33865e49c4764afc2acfbb8ed4a278fd7a92e089958e430271",
    ("proportional", "cea"): "6c20ec485e9acfd3d5fd7590909dd44823c53d7513bd2111d7dc9ec0c2724349",
}


@pytest.mark.parametrize("stage1, stage2", sorted(PINNED_CLAIMS_SHA256))
def test_claims_output_is_pinned(runner, tmp_path, stage1, stage2):
    path = tmp_path / "catalog.csv"
    path.write_text(seeded_catalog_csv(seed=11, artists=15, users=150))
    result = invoke(runner, "claims", "-i", str(path), "--fee", "7/2",
                    "--stage1", stage1, "--stage2", stage2, "-o", "json")
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == PINNED_CLAIMS_SHA256[stage1, stage2]


# Every worth and dividend of one seeded 8-artist game, and a pro-rata payout
# that is out of core with its blocking coalition printed, at fee 7/2.
PINNED_GAME_SHA256 = {
    "game": "c93cdf5d4d616682ce644d3f27fb7be3d73fef65d36479cac0ac51e8fa2b9670",
    "core-check": "2077f62db9441b798262170a749b0dcd71c50d242eb2f92ecd680909b8cf72aa",
}


@pytest.mark.parametrize("command", sorted(PINNED_GAME_SHA256))
def test_coalition_output_is_pinned(runner, tmp_path, command):
    path = tmp_path / "catalog.csv"
    path.write_text(seeded_catalog_csv(seed=3, artists=8, users=60))
    method = ("--method", "pro-rata") if command == "core-check" else ()
    result = invoke(runner, command, *method, "-i", str(path), "--fee", "7/2", "-o", "json")
    assert result.exit_code == 0
    if command == "core-check":
        assert json.loads(result.output)["blocking_coalition"] == ["a3"]
    assert hashlib.sha256(result.output.encode()).hexdigest() == PINNED_GAME_SHA256[command]


# The table forms of the same two commands: coalitions named by their members
# joined with ", ", and the out-of-core verdict with its blocking coalition.
PINNED_GAME_TABLE_SHA256 = {
    "game": "9604b9a7a3135ba2e5040e73e331b5e68b6326baa08950589dd01da93d7803d3",
    "core-check": "7a939ddcfed1bed7fe205c8f5eee9d94902d105bea18570bd788bbd5a971fa34",
}


@pytest.mark.parametrize("command", sorted(PINNED_GAME_TABLE_SHA256))
def test_coalition_table_output_is_pinned(runner, tmp_path, command):
    path = tmp_path / "catalog.csv"
    path.write_text(seeded_catalog_csv(seed=3, artists=8, users=60))
    method = ("--method", "pro-rata") if command == "core-check" else ()
    result = invoke(runner, command, *method, "-i", str(path), "--fee", "7/2")
    assert result.exit_code == 0
    if command == "core-check":
        assert "(blocking coalition: a3)" in result.output
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == PINNED_GAME_TABLE_SHA256[command]


def unequal_names_catalog_csv(artists: int, users: int = 60) -> str:
    """``seeded_catalog_csv`` with distinct artist names of two to five characters."""
    lines = seeded_catalog_csv(seed=artists, artists=artists, users=users).splitlines()
    for i in range(artists):
        name = "xyz"[i % 3] * (1 + i % 4) + str(i)
        lines[1 + i] = name + lines[1 + i][len(f"a{i}"):]
    return "\n".join(lines) + "\n"


# The 8-artist pin fits in one block of 2**10 coalitions and one write of
# _CHUNKS_PER_WRITE rows; 11 and 12 artists cross both.
@pytest.mark.parametrize("artists", [1, 9, 10, 11, 12])
def test_game_table_prints_the_whole_table_rendering(runner, tmp_path, artists):
    text = unequal_names_catalog_csv(artists)
    path = tmp_path / "catalog.csv"
    path.write_text(text)
    result = invoke(runner, "game", "-i", str(path), "--fee", "7/2")
    assert result.exit_code == 0
    problem = parse_problem(text.encode(), "csv").with_fee(Fraction(7, 2))
    assert result.output == reference_game_table(streaming_game(problem))


@pytest.mark.parametrize("fee", [Fraction(1), Fraction(7, 3), Fraction(1, 2), Fraction(5)])
def test_game_dividends_are_the_listened_set_histogram(runner, tmp_path, fee):
    """The command reads its dividends from the histogram; the Moebius transform agrees."""
    path = tmp_path / "problem.json"
    for problem in ProblemGenerator(seed=33, max_artists=7, max_users=9).sample(25):
        problem = problem.with_fee(fee)
        path.write_text(json.dumps(problem_to_dict(problem)))
        result = invoke(runner, "game", "-i", str(path), "-o", "json")
        assert result.exit_code == 0
        game = streaming_game(problem)
        expected = dividends_to_dict(harsanyi_dividends(game))["dividends"]
        assert list(json.loads(result.output)["dividends"].items()) == list(expected.items())
        assert invoke(runner, "game", "-i", str(path)).output == reference_game_table(game)


# The full user-centric core-check on the same catalog, flow decomposition
# included: every user's fee split, as the flow oracle routes it.
PINNED_USER_CENTRIC_CORE_CHECK_SHA256 = (
    "106be0b2d3bed5b82de8f63cad77d31f83a1eeae000ee53c7205bfd7c405c24f")


def test_user_centric_core_check_output_is_pinned(runner, tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(seeded_catalog_csv(seed=3, artists=8, users=60))
    result = invoke(runner, "core-check", "--method", "user-centric", "-i", str(path),
                    "--fee", "7/2", "-o", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)["in_core"] is True
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == PINNED_USER_CENTRIC_CORE_CHECK_SHA256


# -- axioms ----------------------------------------------------------------------


def test_axioms_budget_zero_flags_core_selection(runner):
    result = invoke(runner, "axioms", "--budget", "0",
                    "--indices", "pro-rata", "--axioms", "core-selection",
                    "-o", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["budget"] == 0
    (row,) = payload["results"]
    assert row["index"] == "pro-rata"
    assert row["status"] == "fail"


def test_axioms_accepts_aliases_and_banded(runner):
    result = invoke(runner, "axioms", "--budget", "5",
                    "--indices", "banded", "--axioms", "rlb,egi",
                    "--alpha", "2", "--beta", "4", "-o", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    names = {row["axiom"] for row in payload["results"]}
    assert names == {"reasonable-lower-bound", "equal-global-impact"}


def test_axioms_unknown_index(runner):
    result = invoke(runner, "axioms", "--indices", "nope")
    assert result.exit_code == EXIT_INPUT
    assert "unknown index" in result.stderr


def test_axioms_runs_are_byte_identical(runner):
    args = ("axioms", "--budget", "25", "--seed", "7",
            "--indices", "user-centric", "-o", "json")
    assert invoke(runner, *args).output == invoke(runner, *args).output


def test_axioms_rejects_negative_budget(runner):
    result = invoke(runner, "axioms", "--budget", "-5")
    assert result.exit_code == EXIT_INPUT
    assert "--budget" in result.stderr


# Every verdict, witness, detail and instance count of the full matrix at one
# fixed budget and seed; the digest must hold across commits, not just runs.
PINNED_MATRIX_SHA256 = "ec9a2ab950cf08a0cdcb050613ba3b0ab8fc27566ca775d73748e95cae83eccf"


def test_axioms_matrix_output_is_pinned(runner):
    result = invoke(runner, "axioms", "--budget", "25", "--seed", "7", "-o", "json")
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == PINNED_MATRIX_SHA256


def test_axioms_table_output(runner):
    result = invoke(runner, "axioms", "--budget", "3",
                    "--indices", "pro-rata", "--axioms", "homogeneity")
    assert result.exit_code == 0
    assert "pro-rata" in result.output
    assert "homogeneity" in result.output


@pytest.mark.parametrize("error, code, message", [
    (streamshare.ZeroIndexSum("every artist scores zero"), EXIT_INPUT,
     "error: every artist scores zero\n"),
    (ValueError("six artists"), EXIT_INTERNAL, "internal error: ValueError: six artists\n"),
])
def test_axioms_worker_failure_exits_as_the_serial_command(monkeypatch, usable_cpus, error,
                                                           code, message):
    """An index that raises in a worker: the command runs serially, raises the same
    exception with the same message and exit code, and leaves no child behind."""
    def user_centric_unless_six_artists(problem):
        # No reference instance has six artists, so only the search meets this.
        if problem.artist_count == 6:
            raise error
        return streamshare.USER_CENTRIC(problem)

    catalog = streamshare.standard_indices
    monkeypatch.setattr(streamshare.indices, "standard_indices", lambda *args: {
        **catalog(*args), "flaky": streamshare.Index("flaky", user_centric_unless_six_artists)})
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    args = ("axioms", "--budget", "60", "--indices", "pro-rata,flaky,user-centric,equal-split")
    outcomes = []
    for workers in (1, 2, 3):
        usable_cpus(workers)
        forks.clear()
        for mode in ("json", "table"):
            result = CliRunner().invoke(cli, [*args, "-o", mode])
            outcomes.append((result.exit_code, result.stdout, result.stderr))
        assert len(forks) == (0 if workers == 1 else 2 * workers)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outcomes == [(code, "", message)] * 6


# -- exit codes -------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["json", "table"])
def test_negative_precision_is_rejected_before_any_work(runner, two_user_csv,
                                                        monkeypatch, mode):
    calls = []
    monkeypatch.setattr("streamshare.cli.rewards", lambda *args: calls.append(args))
    result = invoke(runner, "allocate", "-i", two_user_csv, "-o", mode, "--precision", "-1")
    assert result.exit_code == EXIT_INPUT
    assert "--precision" in result.stderr
    assert calls == []


def run_cli(*args, stdin=b""):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = str(Path(streamshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "streamshare.cli", *args],
                          input=stdin, capture_output=True, env=env)


LOADS_MODULES = """
import atexit, json, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
from streamshare.cli import main
main()
"""


@pytest.mark.parametrize("command, loaded", [
    (("allocate", "--method", "user-centric"), set()),
    (("compare",), set()),
    (("claims",), {"streamshare.claims"}),
])
def test_commands_import_only_what_they_run(two_user_csv, command, loaded):
    src = str(Path(streamshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run(
        [sys.executable, "-c", LOADS_MODULES, command[0], "-i", two_user_csv, *command[1:]],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    modules = set(json.loads(result.stderr.splitlines()[-1]))
    assert "streamshare.cli" in modules
    lazy = {"streamshare.game", "streamshare.claims", "streamshare.axioms"}
    assert modules & lazy == loaded


def test_axioms_loads_no_process_pool_module():
    src = str(Path(streamshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", LOADS_MODULES, "axioms", "--budget", "5"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stderr.splitlines()[-1])
    assert {"streamshare.axioms", "streamshare._workers"} <= set(modules)
    heavy = [name for name in modules
             if name.split(".")[0] in ("pickle", "_pickle", "multiprocessing", "concurrent")]
    assert heavy == []


@pytest.mark.parametrize("name", ["game", "claims", "axioms"])
def test_lazy_submodule_loads_as_a_package_attribute(name):
    src = str(Path(streamshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    module = f"streamshare.{name}"
    code = (f"import sys, streamshare\nassert {module!r} not in sys.modules\n"
            f"assert streamshare.{name} is sys.modules[{module!r}]\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr


BAD_INPUTS = {
    "non-utf8-csv": ("allocate", "-i", "{latin1}"),
    "deeply-nested-json": ("allocate", "-i", "{deep}"),
    "deeply-nested-weights-file": ("allocate", "-i", "{csv}", "--method", "weighted-file",
                                   "--weights-file", "{deep}"),
    "non-utf8-stdin": ("allocate", "-i", "-", "--format", "csv"),
    "malformed-weights-file": ("allocate", "-i", "{csv}", "--method", "weighted-file",
                               "--weights-file", "{weights}"),
    "banded-alpha-zero": ("allocate", "-i", "{csv}", "--method", "banded",
                          "--alpha", "0", "--beta", "3"),
    "unknown-axiom": ("axioms", "--axioms", "nope"),
    "unknown-index": ("axioms", "--indices", "nope"),
    "fee-nan": ("allocate", "-i", "{csv}", "--fee", "nan"),
    "fee-zero-denominator": ("allocate", "-i", "{csv}", "--fee", "1/0"),
    "fee-negative": ("allocate", "-i", "{csv}", "--fee", "-1"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(tmp_path, case):
    latin1 = "artist,a,b\n1,10,0\n2,0,90\nRöyksopp,1,1\n".encode("latin-1")
    paths = {"csv": tmp_path / "two.csv", "latin1": tmp_path / "latin1.csv",
             "weights": tmp_path / "weights.json", "deep": tmp_path / "deep.json"}
    paths["csv"].write_text(TWO_USER_CSV)
    paths["latin1"].write_bytes(latin1)
    paths["weights"].write_text('{"a": 1,')
    paths["deep"].write_text("[" * 100_000 + "]" * 100_000)
    args = [arg.format(**paths) for arg in BAD_INPUTS[case]]
    result = run_cli(*args, stdin=latin1)
    output = (result.stdout + result.stderr).decode("utf-8", "replace")
    assert result.returncode == EXIT_INPUT, output
    assert "Traceback" not in output
    assert "error: " in output


@pytest.mark.parametrize("command", ["axioms", "game"])
def test_precision_is_not_an_option_of_integer_output(tmp_path, command):
    path = tmp_path / "two.csv"
    path.write_text(TWO_USER_CSV)
    source = ("-i", str(path)) if command == "game" else ()
    result = run_cli(command, *source, "--precision", "4")
    output = (result.stdout + result.stderr).decode()
    assert result.returncode == EXIT_INPUT, output
    assert "No such option" in output and "--precision" in output
    assert "Traceback" not in output


def test_unexpected_exception_is_internal_error(runner, two_user_csv, monkeypatch):
    def broken(problem):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr("streamshare.indices.PRO_RATA", streamshare.Index("pro-rata", broken))
    result = invoke(runner, "allocate", "-i", two_user_csv)
    assert result.exit_code == EXIT_INTERNAL
    assert "internal error" in result.stderr
    assert "a bug, not bad input" in result.stderr


# -- exact answers of any size ----------------------------------------------------


@pytest.fixture(scope="module")
def prime_totals_csv(tmp_path_factory):
    """User ``u<p>`` streams artist x once and artist y p - 1 times, for each prime p < 12,000.

    The 1,438 users' totals are the primes, so user-centric payouts have the
    product of all of them, 5,143 digits, as their denominator: past CPython's
    default limit of 4,300 digits on converting an int to a string.
    """
    primes = [p for p in range(2, 12_000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    path = tmp_path_factory.mktemp("primes") / "primes.csv"
    path.write_text("\n".join(["artist," + ",".join(f"u{p}" for p in primes),
                               "x," + ",".join("1" for _ in primes),
                               "y," + ",".join(str(p - 1) for p in primes)]) + "\n")
    return str(path)


def digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextlib.contextmanager
def ints_of_any_size():
    """Convert ints of any size to and from strings inside the block."""
    limit = digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_exact_answers_print_at_any_size(runner, prime_totals_csv):
    limit = digit_limit()
    problem = streamshare.parse_problem(Path(prime_totals_csv).read_text(), "csv")
    allocate = invoke(runner, "allocate", "--method", "user-centric", "-i", prime_totals_csv,
                      "-o", "json")
    claims = invoke(runner, "claims", "--stage1", "cea", "-i", prime_totals_csv, "-o", "json")
    assert allocate.exit_code == 0, allocate.output
    assert claims.exit_code == 0, claims.output
    assert digit_limit() == limit  # restored for in-process callers
    payout = streamshare.rewards(problem, streamshare.USER_CENTRIC(problem))
    awards = streamshare.two_stage_rule(streamshare.streaming_to_claims(problem), "cea",
                                        "proportional")
    with ints_of_any_size():
        assert len(str(payout["x"].denominator)) == 5143
        assert json.loads(allocate.output)["rewards"] == {
            a: str(x) for a, x in payout.as_dict().items()}
        assert json.loads(claims.output)["awards"] == {
            a: str(x) for a, x in zip(problem.artists, awards)}


def test_precision_prints_any_number_of_places(runner, two_user_csv):
    result = invoke(runner, "allocate", "-i", two_user_csv, "--precision", "5000")
    assert result.exit_code == 0, result.output
    assert "0." + "2" + "0" * 4999 in result.output


def test_precision_is_capped_before_any_work(runner, two_user_csv, monkeypatch):
    result = invoke(runner, "allocate", "-i", two_user_csv, "--precision", str(MAX_PRECISION))
    assert result.exit_code == 0, result.output
    assert "0." + "2" + "0" * (MAX_PRECISION - 1) in result.output

    over = str(MAX_PRECISION + 1)
    result = run_cli("allocate", "-i", two_user_csv, "--precision", over)
    stderr = result.stderr.decode()
    assert result.returncode == EXIT_INPUT and result.stdout == b""
    assert f"0<=x<={MAX_PRECISION}" in stderr and "--precision" in stderr
    assert "Traceback" not in stderr
    calls = []
    monkeypatch.setattr("streamshare.cli.rewards", lambda *args: calls.append(args))
    result = invoke(runner, "allocate", "-i", two_user_csv, "--precision", over)
    assert result.exit_code == EXIT_INPUT and calls == []


# -- the cap on the digits of one input number --------------------------------------

CAP = streamshare.model.MAX_INPUT_DIGITS
CAP_MESSAGE = f"digits, over the {CAP}-digit cap on one input number"


def catalog_json(count: str, fee: str) -> str:
    return ('{"artists": ["x", "y"], "users": ["a", "b"], '
            f'"streams": [[{count}, 0], [1, 2]], "fee": {fee}}}')


# (id, input with N for the long number, format, what the error calls it, its line)
DIGIT_SLOTS = [
    ("csv", "artist,a,b\nx,N,0\ny,1,2\n", "csv", "stream count", 2),
    ("csv-padded", "artist,a,b\nx, N ,0\ny,1,2\n", "csv", "stream count", 2),
    ("csv-signed", "artist,a,b\nx,1,0\ny,1,+N\n", "csv", "stream count", 3),
    ("json-count", catalog_json("N", '"1"'), "json", "JSON number", None),
    ("json-fee", catalog_json("1", "N"), "json", "JSON number", None),
    ("fee-string", catalog_json("1", '"N"'), "json", "fee", None),
    ("fee-denominator", catalog_json("1", '"2/N"'), "json", "fee", None),
]


@pytest.mark.parametrize("text, fmt, what, line",
                         [slot[1:] for slot in DIGIT_SLOTS], ids=[slot[0] for slot in DIGIT_SLOTS])
def test_input_digits_are_capped_before_conversion(text, fmt, what, line):
    with ints_of_any_size():
        problem = streamshare.parse_problem(text.replace("N", "7" * CAP), fmt)
        numbers = (*problem.streams[0], *problem.streams[1], problem.fee.denominator,
                   problem.fee.numerator)
        assert len(str(max(numbers))) == CAP
        # One digit more is refused, and before conversion: a long cell that is not an
        # integer at all is refused for its length, not for its text.
        overs = ["7" * (CAP + 1)] + ["7" * CAP + "x"] * (fmt == "csv")
        for over in overs:
            with pytest.raises(streamshare.ParseError) as caught:
                streamshare.parse_problem(text.replace("N", over), fmt)
            assert str(caught.value).endswith(f"{what} has {CAP + 1} {CAP_MESSAGE}")
            assert caught.value.line == line


def test_fee_digit_cap_counts_digits_only():
    fee = f" -{'7' * CAP}/{'3' * CAP} "
    with ints_of_any_size():
        assert streamshare.model.as_rational(fee) == -streamshare.model.as_rational(fee[2:])
    with pytest.raises(streamshare.ParseError, match=f"^fee has {CAP + 1} {CAP_MESSAGE}$"):
        streamshare.model.as_rational(f"{'7' * (CAP + 1)}/3", "fee")


def test_wide_rows_stay_on_the_whole_row_path(monkeypatch):
    """A row longer than the cap whose cells are all short converts as a whole."""
    users = [f"u{j}" for j in range(CAP // 3)]
    row = ",".join(str(j % 999 + 1) for j in range(len(users)))
    text = "artist," + ",".join(users) + f"\nx,{row}\ny,{row}\n"
    assert len(row) > CAP
    per_cell = []
    read_cells = streamshare.model._csv_counts
    monkeypatch.setattr(streamshare.model, "_csv_counts",
                        lambda *args: per_cell.append(args[1]) or read_cells(*args))
    problem = streamshare.parse_problem(text, "csv")
    assert problem.streams[0][:3] == (1, 2, 3) and per_cell == []
    # A cell longer than the cap, but of no more digits, is read cell by cell and accepted.
    long_cell = text.replace("x,1,2,", f"x,1, {'0' * (CAP - 1)}2,", 1)
    with ints_of_any_size():
        assert streamshare.parse_problem(long_cell, "csv") == problem and per_cell == [2]


def test_input_digit_cap_exits_2_on_every_input(tmp_path):
    path = tmp_path / "over.csv"
    path.write_text(f"artist,a,b\nx,{'9' * (CAP + 1)},0\ny,1,2\n")
    result = run_cli("allocate", "-i", str(path))
    assert result.returncode == EXIT_INPUT and result.stdout == b""
    assert result.stderr.decode() == (
        f"error: line 2, field 2: stream count has {CAP + 1} {CAP_MESSAGE}\n")
    path = tmp_path / "over.json"
    path.write_text(catalog_json("9" * (CAP + 1), '"1"'))
    result = run_cli("core-check", "-i", str(path))
    assert result.returncode == EXIT_INPUT and result.stdout == b""
    assert result.stderr.decode() == f"error: JSON number has {CAP + 1} {CAP_MESSAGE}\n"
    result = run_cli("claims", "-i", "-", "--format", "csv", "--fee", "1/" + "3" * (CAP + 1),
                     stdin=b"artist,a,b\nx,3,0\ny,0,2\n")
    assert result.returncode == EXIT_INPUT and result.stdout == b""
    assert result.stderr.decode() == f"error: fee has {CAP + 1} {CAP_MESSAGE}\n"


def test_weights_file_digits_are_capped(tmp_path):
    """A --weights-file weight is held to the cap, and the cap's message reaches the user."""
    catalog, weights = tmp_path / "two.csv", tmp_path / "weights.json"
    catalog.write_text(TWO_USER_CSV)
    args = ("allocate", "-i", str(catalog), "--method", "weighted-file",
            "--weights-file", str(weights), "-o", "json")
    weights.write_text(f'{{"a": {"7" * (CAP + 1)}, "b": 1}}')
    result = run_cli(*args)
    assert result.returncode == EXIT_INPUT and result.stdout == b""
    assert result.stderr.decode() == f"error: JSON number has {CAP + 1} {CAP_MESSAGE}\n"
    weights.write_text(f'{{"a": {"7" * CAP}, "b": 1}}')
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr.decode()
    assert set(json.loads(result.stdout)["rewards"]) == {"1", "2"}


def test_json_digit_hook_runs_only_in_texts_with_a_digit_run_over_the_cap(tmp_path,
                                                                          monkeypatch):
    """Only a text with a run of more digits than the cap can hold a number over it,
    so only such a text sends its ints through the hook, whatever its length."""
    hooked = []
    hook = streamshare.model._json_int
    monkeypatch.setattr(streamshare.model, "_json_int",
                        lambda text: hooked.append(text) or hook(text))
    catalog, weights = tmp_path / "two.csv", tmp_path / "weights.json"
    catalog.write_text(TWO_USER_CSV)
    base, weight_base = catalog_json("3", "2"), '{"a": 7, "b": 1}'
    args = ["allocate", "-i", str(catalog), "-o", "json", "--method", "weighted-file",
            "--weights-file", str(weights)]
    for length in (CAP - 1, CAP, CAP + 1, 3 * CAP):
        hooked.clear()
        problem = streamshare.parse_problem(base + " " * (length - len(base)), "json")
        assert problem.streams == ((3, 0), (1, 2)) and problem.fee == 2 and hooked == []
        weights.write_text(weight_base + "\n" * (length - len(weight_base)))
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["rewards"] == {"1": "7/8", "2": "9/8"}
        assert hooked == []
    for run in (CAP, CAP + 1):
        over = run > CAP
        # A run in a name sends every int through the hook once it is over the cap.
        hooked.clear()
        problem = streamshare.parse_problem(base.replace('"x"', f'"{"7" * run}"'), "json")
        assert problem.artists[0] == "7" * run and problem.streams == ((3, 0), (1, 2))
        assert hooked == ["3", "0", "1", "2", "2"] * over
        # A number as long as the run converts at the cap and is refused over it.
        hooked.clear()
        with ints_of_any_size():
            if over:
                with pytest.raises(streamshare.ParseError, match=CAP_MESSAGE):
                    streamshare.parse_problem(catalog_json("7" * run, "2"), "json")
            else:
                problem = streamshare.parse_problem(catalog_json("7" * run, "2"), "json")
                assert problem.streams[0][0] == int("7" * run)
        assert [len(number) for number in hooked] == [run] * over
        hooked.clear()
        weights.write_text(f'{{"a": {"7" * run}, "b": 1}}')
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == (EXIT_INPUT if over else 0), result.output
        assert [len(number) for number in hooked] == [run] * over


def test_long_digit_run_search_is_linear():
    """The pre-scan starts a match only where a run of digits starts: a text of runs one
    digit short of a match is searched in linear time, not in time quadratic in a run."""
    text = ",".join(["7" * CAP] * 5)
    start = time.perf_counter()
    assert streamshare.model._LONG_DIGIT_RUN.search(text) is None
    assert time.perf_counter() - start < 2
    assert streamshare.model._LONG_DIGIT_RUN.search(text + "7,1").span() == (
        len(text) - CAP, len(text) + 1)


# -- bad numbers on every subcommand, by property ---------------------------------
#
# In-process through CliRunner, so many inputs stay cheap; the subprocess table
# above stays as the check that no traceback reaches stderr.

# Every place a subcommand reads a number: an option, or ("weights") the entry
# for user "a" in a --weights-file.
NUMBER_SLOTS = [
    *((command, slot) for command in ("allocate", "compare", "core-check")
      for slot in ("--fee", "--alpha", "--beta", "weights")),
    ("claims", "--fee"),
    ("game", "--fee"),
    ("axioms", "--alpha"),
    ("axioms", "--beta"),
    ("axioms", "--budget"),
]

# (command-line text, JSON value) pairs; each is a float, a bool, a NaN or
# infinity, or a negative number.
BAD_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: (repr(x), x)),
    st.sampled_from([("true", True), ("false", False), ("True", True), ("False", False)]),
    st.sampled_from(["nan", "NaN", "inf", "-inf"]).map(lambda text: (text, float(text))),
    st.integers(max_value=-1).map(lambda k: (str(k), k)),
    st.tuples(st.integers(max_value=-1), st.integers(min_value=2, max_value=9)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}",) * 2),
)


@pytest.fixture(scope="module")
def number_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("numbers")
    csv_path = root / "two.csv"
    csv_path.write_text(TWO_USER_CSV)
    return str(csv_path), root / "weights.json"


def number_command(command, slot, text, value, paths):
    """The command line that puts one number into ``slot`` and keeps the rest valid."""
    csv_path, weights_path = paths
    if command == "axioms":
        options = {"--indices": "banded", "--axioms": "homogeneity", "--budget": "0",
                   "--alpha": "2", "--beta": "50"}
    else:
        options = {"--input": csv_path}
        if slot in ("--alpha", "--beta"):
            options.update({"--method": "banded", "--alpha": "2", "--beta": "50"})
        elif slot == "weights":
            options.update({"--method": "weighted-file", "--weights-file": str(weights_path)})
    if slot == "weights":
        weights_path.write_text(json.dumps({"a": value, "b": 1}))
    else:
        options[slot] = text
    return [command, *(f"{option}={arg}" for option, arg in options.items())]


@pytest.mark.parametrize("command, slot", NUMBER_SLOTS)
def test_every_number_slot_accepts_a_good_number(number_paths, command, slot):
    result = CliRunner().invoke(cli, number_command(command, slot, "3", 3, number_paths))
    assert result.exit_code == 0, result.output


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NUMBER_SLOTS), BAD_NUMBERS)
def test_bad_numbers_exit_2_on_every_subcommand(number_paths, case, bad):
    args = number_command(*case, *bad, number_paths)
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == EXIT_INPUT, (args, result.output)
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "error: " in result.stderr.lower()


# -- JSON written in blocks ---------------------------------------------------------
#
# The writer must print exactly json.dumps(payload, indent=2) and a newline, with
# the objects that arrive as iterators of items written as the dicts they stand for.


class Lazy(list):
    """The items of a JSON object that the writer receives as an iterator."""


def built(spec, lazy: bool):
    """``spec`` with each Lazy made an iterator of items (``lazy``) or a dict."""
    if isinstance(spec, Lazy):
        items = [(key, built(value, lazy)) for key, value in spec]
        return iter(items) if lazy else dict(items)
    if isinstance(spec, dict):
        return {key: built(value, lazy) for key, value in spec.items()}
    if isinstance(spec, (list, tuple)):
        return type(spec)(built(value, lazy) for value in spec)
    return spec


JSON_TEXT = st.text()  # escapes, control characters, non-ASCII text
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-10 ** 80, max_value=10 ** 80) | JSON_TEXT)
JSON_SPECS = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(JSON_TEXT, children, max_size=4)
                      | st.dictionaries(JSON_TEXT, children, max_size=4).map(
                          lambda d: Lazy(d.items()))),
    max_leaves=30)


def echoed(payload, per_write: int = _CHUNKS_PER_WRITE) -> tuple[bytes, list]:
    """What the JSON writer prints for ``payload``, and the messages of its writes."""
    writes = []
    echo = click.echo

    def spy(message=None, **kwargs):
        writes.append(message)
        echo(message, **kwargs)

    with mock.patch.object(click, "echo", spy), \
            mock.patch("streamshare.cli._CHUNKS_PER_WRITE", per_write), \
            CliRunner().isolation() as streams:
        _echo_json(payload)
    return streams[0].getvalue(), writes


def assert_written_in_blocks(spec, per_write: int = _CHUNKS_PER_WRITE) -> None:
    expected = json.dumps(built(spec, lazy=False), indent=2) + "\n"
    out, writes = echoed(built(spec, lazy=True), per_write)
    assert out == expected.encode()
    chunks = len(list(_json_chunks(built(spec, lazy=True), "\n")))
    # Every write but the closing newline joins a full block of chunks, the last one the rest.
    assert len(writes) == -(-chunks // per_write) + 1 and writes[-1] is None


@settings(max_examples=300, deadline=None)
@given(JSON_SPECS, st.sampled_from([1, 2, 3, _CHUNKS_PER_WRITE]))
def test_json_writer_prints_json_dumps_text(spec, per_write):
    assert_written_in_blocks(spec, per_write)


@pytest.mark.parametrize("size", [0, 1, 2046, 2047, 2048, 4095, 4096, 4097])
def test_json_writer_blocks_cross_the_write_size(size):
    """An object of string items is a chunk per item and one that closes it."""
    items = Lazy((f"k{i}", "\u00e9\n" * (i % 3)) for i in range(size))
    assert_written_in_blocks(items)
    assert_written_in_blocks({"players": ["x"], "values": items, "done": True})


# Every subcommand that reads a catalog, in its JSON form, and the property matrix.
CATALOG_JSON_COMMANDS = [
    ["allocate", "--method", "user-centric"],
    ["compare", "--method", "pro-rata", "--method", "banded", "--alpha", "2", "--beta", "50"],
    ["core-check", "--method", "pro-rata"],
    ["core-check", "--method", "user-centric"],
    ["game"],
    ["game", "--fee", "7/2"],
    ["claims", "--stage1", "cea"],
]
AXIOMS_JSON = ["axioms", "--budget", "3", "-o", "json"]


@pytest.fixture(scope="module")
def json_catalogs(tmp_path_factory):
    """Two- and three-user catalogs, a 12-artist one whose game has four blocks of keys,
    and a 40-artist one: the flow-only decomposition and the skipped coalition table."""
    root = tmp_path_factory.mktemp("json")
    texts = {"two.csv": TWO_USER_CSV, "three.csv": THREE_USER_CSV,
             "twelve.csv": seeded_catalog_csv(seed=12, artists=12, users=80),
             "forty.csv": seeded_catalog_csv(seed=40, artists=40, users=200)}
    for name, text in texts.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in texts}


def test_every_json_answer_is_json_dumps_text(runner, json_catalogs):
    commands = [AXIOMS_JSON] + [[*command, "-i", catalog, "-o", "json"]
                                for catalog in json_catalogs.values()
                                for command in CATALOG_JSON_COMMANDS]
    for args in commands:
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, (args, result.output)
        text = json.dumps(json.loads(result.stdout_bytes), indent=2) + "\n"
        assert result.stdout_bytes == text.encode(), args


def streamshare_script() -> list[str]:
    """The installed ``streamshare`` script, or the call it makes when none is on PATH."""
    script = shutil.which("streamshare")
    if script:
        return [script]
    return [sys.executable, "-c", "import sys; from streamshare.cli import main; sys.exit(main())"]


@pytest.mark.parametrize("command", [*CATALOG_JSON_COMMANDS, None],
                         ids=[" ".join(command) for command in CATALOG_JSON_COMMANDS] + ["axioms"])
def test_script_prints_the_same_json(runner, json_catalogs, command):
    """Through a real stdout, block by block, the script prints what CliRunner captures."""
    args = AXIOMS_JSON if command is None else [*command, "-i", json_catalogs["twelve.csv"],
                                                "-o", "json"]
    src = str(Path(streamshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = subprocess.run([*streamshare_script(), *args], capture_output=True, env=env)
    assert script.returncode == 0, script.stderr.decode()
    assert script.stdout == runner.invoke(cli, args).stdout_bytes


class CountingSink(io.TextIOBase):
    """A stdout that keeps nothing of what is written to it, only its length."""

    encoding = "utf-8"

    def __init__(self):
        self.size = 0

    def writable(self):
        return True

    def write(self, text):
        self.size += len(text)
        return len(text)


def test_decomposition_answer_is_written_in_bounded_memory(runner, tmp_path):
    """A flow-only core-check of 40 artists and 600 users prints about 330 KB of JSON.

    Measured at about 1.6 MiB of traced peak with the shares written a block at
    a time, against 4.2 MiB when the whole dict and text were built.
    """
    path = tmp_path / "wide.csv"
    path.write_text(seeded_catalog_csv(seed=40, artists=40, users=600))
    args = ["core-check", "--method", "user-centric", "-i", str(path), "-o", "json"]
    expected = runner.invoke(cli, args)
    assert expected.exit_code == 0 and len(json.loads(expected.output)["decomposition"]
                                           ["shares"]) == 600
    sink = CountingSink()
    with contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            cli.main(args, standalone_mode=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sink.size == len(expected.output) > 300_000
    assert peak < 2.5 * 2 ** 20


class WriteCountingSink(CountingSink):
    """A CountingSink that also counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_game_table_is_written_in_blocks_and_bounded_memory(runner, tmp_path):
    """Table mode at 16 artists lists the rows a block at a time, like JSON mode.

    Measured at about 3,680 KiB of traced peak and 40 writes, against 19,030 KiB
    and 65,798 writes, one per line, when every key, worth and row was built first.
    """
    path = tmp_path / "sixteen.csv"
    path.write_text(seeded_catalog_csv(seed=16, artists=16, users=400))
    args = ["game", "-i", str(path), "--fee", "7/3"]
    expected = runner.invoke(cli, args)
    assert expected.exit_code == 0 and expected.output.count("\n") > 2 ** 16
    sink = WriteCountingSink()
    with contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            cli.main(args, standalone_mode=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sink.size == len(expected.output)
    assert sink.writes < 64
    assert peak < 6 * 2 ** 20
