"""Smoke tests for the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py

Every workload runs once at tiny sizes; a corrupted CLI output must count
as a failed operation.
"""
from __future__ import annotations

import json
from dataclasses import replace

import pytest

import run
from checks import judge
from spans import Tracer
from workloads import WORKLOADS

TINY_USERS = 40
TINY_BUDGET = 3


def tiny(name: str):
    """The workload with few users and a small axioms budget; same artists and commands."""
    workload = WORKLOADS[name]
    return replace(
        workload,
        catalogs=tuple(replace(c, users=TINY_USERS) for c in workload.catalogs),
        commands=tuple(replace(c, budget=TINY_BUDGET) if c.kind == "axioms" else c
                       for c in workload.commands))


INDICES = {"model.parse_s", "indices.pro_rata_s", "indices.user_centric_s",
           "indices.banded_s", "indices.rewards_s", "indices.max_den_digits"}
LAYER_METRICS = {
    "payout": INDICES | {"allocate_s", "compare_s", "claims_s", "claims.to_claims_s",
                         "claims.two_stage_s", "claims.issue_totals_s"},
    "core-audit": INDICES | {"core_check_s", "game_s", "game.flow_s", "game.streaming_game_s",
                             "game.direct_s", "game.dividends_s", "game.supermodular_s",
                             "game.flow_arcs", "game.listened_sets", "game.in_core"},
    "property-matrix": {"axioms_s", "axioms.instances", "axioms.fail_cells"}
    | {f"axioms.{p}_s" for p in ("homogeneity", "additivity", "equal-individual-impact",
                                 "equal-global-impact", "reasonable-lower-bound",
                                 "click-fraud-proofness", "core-selection")},
}
COMMON = {"failed_frac", *run.END_TO_END, *run.PER_LAYER}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name):
    workload = tiny(name)
    record = run.run(workload, seed=1, seconds=0.1, trace=True, setup_repeats=1)
    assert record["failures"] == []
    assert record["metrics"]["failed_frac"]["value"] == 0
    assert COMMON | LAYER_METRICS[name] <= set(record["metrics"])
    for trace in (0, 1):
        line = run.result_line(dict(record, trace=trace))
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        wanted = run.PER_LAYER if trace else run.END_TO_END
        assert set(line["metrics"]) == set(wanted)
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_corrupted_stdout_is_a_failed_operation(tmp_path):
    bench = run.Run(tiny("payout"), 1, tmp_path)
    bench.setup(1)
    bench.reference(Tracer())
    spawn = bench._spawn

    def corrupting_spawn(args, rss=False):
        seconds, code, stdout, stderr = spawn(args, rss)
        if "user-centric" in args and args[0] == "allocate":
            out = json.loads(stdout)
            artist, value = next(iter(out["rewards"].items()))
            num, _, den = value.partition("/")
            out["rewards"][artist] = f"{int(num) + 1}/{den or 1}"
            stdout = json.dumps(out, indent=2) + "\n"
        return seconds, code, stdout, stderr

    bench._spawn = corrupting_spawn
    attempted = bench.attempted
    bench.cli_batch()
    assert bench.attempted - attempted == len(bench.workload.commands)
    assert bench.failed_ops == 1
    assert all("allocate -i payout.csv --method user-centric" in f for f in bench.failures)
    assert any("exact:" in f for f in bench.failures)
    assert any("sum:" in f for f in bench.failures)


def test_digest_mismatch_is_a_failure(tmp_path):
    bench = run.Run(tiny("payout"), 1, tmp_path)
    bench.setup(1)
    bench.reference(Tracer())
    bench.cli_batch()
    assert bench.failures == []
    (label, (cmd, stdout)), *_ = bench.outputs.items()
    problem = bench.ref.problems[cmd.catalog]
    failures = judge(cmd, 0, stdout, "", bench.expected[0], problem, {}, "0" * 64)
    assert [f.split(":")[0] for f in failures] == ["digest"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
