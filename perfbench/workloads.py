"""Workload definitions and their traced in-process equivalents.

A workload is a set of seeded catalogs plus a fixed list of CLI commands
(one *batch*).  :func:`execute` performs the library calls one command
makes, in the CLI's order, with a span around each public call, and
returns the JSON object the CLI should print for it.  Those answers are the
reference the subprocess outputs are checked against.

Importing this module needs ``streamshare`` on ``sys.path``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from streamshare import axioms as axioms_mod
from streamshare import claims as claims_mod
from streamshare import game as game_mod
from streamshare import indices as indices_mod
from streamshare import model

from catalogs import CatalogSpec
from spans import Tracer

ALPHA, BETA = 20, 60
AXIOMS_SEEDS = 3  # axioms commands per property-matrix batch

# CLI method name -> (span name, index)
METHODS = {
    "pro-rata": ("indices.pro_rata", indices_mod.PRO_RATA),
    "user-centric": ("indices.user_centric", indices_mod.USER_CENTRIC),
    "banded": ("indices.banded", indices_mod.banded_index(ALPHA, BETA)),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``catalog`` names an input file, if any."""

    kind: str
    catalog: str | None = None
    methods: tuple[str, ...] = ()
    budget: int = 0
    seed_offset: int = 0

    def cli_seed(self, seed: int) -> int:
        """The ``axioms`` seed: several commands of a batch draw different problems."""
        return AXIOMS_SEEDS * seed + self.seed_offset

    def args(self, seed: int) -> list[str]:
        if self.kind == "axioms":
            return ["axioms", "--budget", str(self.budget), "--seed", str(self.cli_seed(seed)),
                    "-o", "json"]
        args = [self.kind, "-i", f"{self.catalog}.csv"]
        for method in self.methods:
            args += ["--method", method]
        if "banded" in self.methods:
            args += ["--alpha", str(ALPHA), "--beta", str(BETA)]
        if self.kind == "claims":
            args += ["--stage1", "cea", "--stage2", "proportional"]
        return args + ["-o", "json"]


@dataclass(frozen=True)
class Workload:
    """Seeded catalogs plus the commands of one batch.  BENCHMARK.json says why."""

    name: str
    catalogs: tuple[CatalogSpec, ...]
    commands: tuple[Command, ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "payout",
        (CatalogSpec("payout", "uniform", 60, 1200),),
        (Command("allocate", "payout", ("pro-rata",)),
         Command("allocate", "payout", ("user-centric",)),
         Command("allocate", "payout", ("banded",)),
         Command("compare", "payout", ("pro-rata", "user-centric", "banded")),
         Command("claims", "payout")),
    ),
    Workload(
        "core-audit",
        (CatalogSpec("zipf-wide", "zipf", 40, 600),
         CatalogSpec("uniform-wide", "uniform", 50, 450),
         CatalogSpec("zipf-narrow", "zipf", 16, 600),
         CatalogSpec("zipf-game", "zipf", 10, 600)),
        (Command("core-check", "zipf-wide", ("pro-rata",)),
         Command("core-check", "zipf-wide", ("user-centric",)),
         Command("core-check", "uniform-wide", ("user-centric",)),
         Command("core-check", "zipf-narrow", ("user-centric",)),
         Command("core-check", "zipf-narrow", ("banded",)),
         Command("game", "zipf-game")),
    ),
    Workload(
        "property-matrix",
        (),
        tuple(Command("axioms", budget=100, seed_offset=k) for k in range(AXIOMS_SEEDS)),
    ),
)}


def _strs(mapping) -> dict[str, str]:
    return {k: str(v) for k, v in mapping.items()}


def den_digits(values) -> int:
    """Digits of the largest denominator among exact values."""
    return max((len(str(Fraction(v).denominator)) for v in values), default=0)


class Reference:
    """Answers and input facts gathered by one traced batch."""

    def __init__(self, shapes: dict[str, dict]):
        self.shapes = shapes
        self.payloads: list[dict] = []
        self.problems: dict[str, model.StreamingProblem] = {}
        self.counts = {"indices.max_den_digits": 0, "game.flow_arcs": 0,
                       "game.listened_sets": 0, "game.in_core": 0,
                       "axioms.instances": 0, "axioms.fail_cells": 0}
        self.verdicts: dict[tuple[str, str], bool] = {}
        self.digits: dict[str, int] = {}

    def note_payout(self, catalog: str, amounts) -> None:
        digits = max(den_digits(amounts), self.digits.get(catalog, 0))
        self.digits[catalog] = digits
        self.counts["indices.max_den_digits"] = max(self.counts["indices.max_den_digits"], digits)


def run_batch(workload: Workload, texts: dict[str, str], shapes: dict[str, dict],
              seed: int, tracer: Tracer) -> Reference:
    """Perform every command of the batch in-process, with spans.

    ``texts`` and ``shapes`` map catalog names to CSV text and to
    :func:`catalogs.shape` facts.
    """
    ref = Reference(shapes)
    for cmd in workload.commands:
        with tracer.span(f"cli.{cmd.kind}"):
            ref.payloads.append(execute(cmd, texts, seed, tracer, ref))
    return ref


def _parse(cmd: Command, texts, tracer: Tracer, ref: Reference) -> model.StreamingProblem:
    problem = tracer.call("model.parse", model.parse_problem, texts[cmd.catalog], "csv")
    ref.problems[cmd.catalog] = problem
    return problem


def execute(cmd: Command, texts: dict[str, str], seed: int, tracer: Tracer,
            ref: Reference) -> dict:
    """The JSON object the CLI prints for ``cmd``, computed in-process."""
    call = tracer.call
    if cmd.kind == "axioms":
        return _axioms(cmd, seed, tracer, ref)
    problem = _parse(cmd, texts, tracer, ref)

    if cmd.kind in ("allocate", "compare"):
        methods = {}
        for method in cmd.methods:
            span, index = METHODS[method]
            values = call(span, index, problem)
            payout = call("indices.rewards", indices_mod.rewards, problem, values)
            ref.note_payout(cmd.catalog, payout.amounts)
            methods[index.name] = {"index": _strs(values.as_dict()),
                                   "rewards": _strs(payout.as_dict())}
        if cmd.kind == "allocate":
            (name, result), = methods.items()
            return {"method": name, "fee": str(problem.fee),
                    "revenue": str(problem.revenue), **result}
        return {"fee": str(problem.fee), "revenue": str(problem.revenue),
                "methods": methods}

    if cmd.kind == "claims":
        multi = call("claims.to_claims", claims_mod.streaming_to_claims, problem)
        awards = call("claims.two_stage", claims_mod.two_stage_rule, multi, "cea", "proportional")
        totals = call("claims.issue_totals", multi.issue_totals)
        ref.note_payout(cmd.catalog, awards)
        return {"stage1": "cea", "stage2": "proportional",
                "endowment": str(multi.endowment),
                "issue_totals": {u: str(t) for u, t in zip(multi.issues, totals)},
                "awards": {a: str(x) for a, x in zip(multi.agents, awards)}}

    if cmd.kind == "core-check":
        span, index = METHODS[cmd.methods[0]]
        payout = call("indices.rewards", indices_mod.rewards, problem, call(span, index, problem))
        ref.note_payout(cmd.catalog, payout.amounts)
        flow = call("game.flow", game_mod.in_core_flow, problem, payout)
        facts = ref.shapes[cmd.catalog]
        ref.counts["game.flow_arcs"] += facts["nonzero_cells"]
        ref.counts["game.listened_sets"] += facts["listened_sets"]
        ref.counts["game.in_core"] += flow.in_core
        ref.verdicts[(cmd.catalog, cmd.methods[0])] = flow.in_core
        direct = None
        if problem.artist_count <= game_mod.MAX_ENUMERABLE_PLAYERS:
            table = call("game.streaming_game", game_mod.streaming_game, problem)
            direct = call("game.direct", game_mod.in_core_direct, table, payout)
        blocking = (sorted(direct.blocking_coalition)
                    if direct is not None and direct.blocking_coalition is not None else None)
        return {"method": index.name, "rewards": _strs(payout.as_dict()),
                "in_core": flow.in_core,
                "oracles": {"direct": None if direct is None else direct.in_core,
                            "flow": flow.in_core},
                "blocking_coalition": blocking,
                "decomposition": (game_mod.decomposition_to_dict(flow.decomposition)
                                  if flow.decomposition is not None else None)}

    if cmd.kind == "game":
        table = call("game.streaming_game", game_mod.streaming_game, problem)
        dividends = call("game.dividends", game_mod.harsanyi_dividends, table)
        convex = call("game.supermodular", game_mod.is_supermodular, table)
        payload = game_mod.game_to_dict(table)
        payload["dividends"] = game_mod.dividends_to_dict(dividends)["dividends"]
        payload["supermodular"] = convex.holds
        return payload

    raise ValueError(f"unknown command kind {cmd.kind!r}")


def _axioms(cmd: Command, seed: int, tracer: Tracer, ref: Reference) -> dict:
    catalog = indices_mod.standard_indices(ALPHA, BETA)
    chosen = [idx for name, idx in catalog.items() if name != "banded"]
    generator = axioms_mod.ProblemGenerator(seed=cmd.cli_seed(seed), max_artists=6, max_users=6)
    cells = {}
    for prop in axioms_mod.AXIOM_NAMES:
        cells.update(tracer.call(f"axioms.{prop}", axioms_mod.axiom_matrix,
                                 chosen, [prop], generator, cmd.budget))
    # The CLI checks all properties at once, index by index.
    matrix = {(idx.name, prop): cells[(idx.name, prop)]
              for idx in chosen for prop in axioms_mod.AXIOM_NAMES}
    ref.counts["axioms.instances"] += sum(v.instances for v in matrix.values())
    ref.counts["axioms.fail_cells"] += sum(v.failed for v in matrix.values())
    return {"seed": cmd.cli_seed(seed), "budget": cmd.budget,
            "results": axioms_mod.matrix_to_rows(matrix)}
