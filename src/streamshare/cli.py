"""Command-line front end.

Reads a streaming problem from CSV or JSON, runs the library, and prints
either a readable table or machine-ready JSON.  Exact rationals appear as
'p/q' strings in JSON mode and as rounded decimals in table mode, at any
number of digits.

Exit codes: 0 for success (including reports of failed properties), 1 when
the output is closed before the answer is written, 2 for bad input (any
ModelError, or a file that cannot be read), 3 for anything else, such as the
two core oracles disagreeing.
"""
from __future__ import annotations

import atexit
import functools
import gc
import json
import sys
from collections.abc import Iterator
from itertools import chain, compress, islice, repeat, starmap
from json.encoder import encode_basestring_ascii as _json_string

import click

# game, claims and axioms are imported by the subcommands that run them, so
# allocate and compare never load them.
from . import indices as indices_mod
from . import model
from .indices import Index, index_from_weights, rewards, table_weight_system
from .model import decimal_display

EXIT_INPUT = 2
EXIT_INTERNAL = 3


class OracleDisagreement(RuntimeError):
    """The two core oracles disagree, or a flow-only witness fails its recheck."""


def _guarded(fn):
    """Map input errors to exit code 2 and every other exception to exit code 3."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # Exact answers print at any size: lift CPython's limit on int-to-str digits.
        limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return fn(*args, **kwargs)
        except BrokenPipeError:
            click.echo("error: the output was closed before the answer was written", err=True)
            raise
        except (model.ModelError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(EXIT_INTERNAL)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    return wrapper


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _load_problem(path: str, format: str | None, fee: str | None) -> model.StreamingProblem:
    if format is None:
        if path.endswith(".csv"):
            format = "csv"
        elif path.endswith(".json"):
            format = "json"
        else:
            raise model.ParseError(
                "cannot infer the input format; pass --format csv or --format json")
    problem = model.parse_problem(_read_bytes(path), format)
    return problem if fee is None else problem.with_fee(fee)


# Chunks of text joined into one write, so that a write holds a block of
# the answer, not the whole of it, nor one chunk: on an unbuffered stdout every
# write is a system call.
_CHUNKS_PER_WRITE = 2048


def _echo_blocks(chunks) -> None:
    while block := "".join(islice(chunks, _CHUNKS_PER_WRITE)):
        click.echo(block, nl=False)
    click.echo()


def _echo_json(payload) -> None:
    """Print exactly ``json.dumps(payload, indent=2)``, a block of chunks per write.

    An iterator in the payload stands for a JSON object and yields its
    (key, value) items.  It is read while the text is written, so that
    object is never built whole, nor is the text.
    """
    _echo_blocks(_json_chunks(payload, "\n"))


def _json_chunks(value, indent: str) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)`` nested at ``indent``, in chunks.

    ``indent`` is a newline and the spaces of the current level.  Dicts and
    iterators of items, whose keys must be strings, are written as objects,
    lists and tuples as arrays, strings by the encoder's own escaping;
    json.dumps writes every other value, a number, a bool or None.
    """
    if isinstance(value, dict):
        value = iter(value.items())
    if isinstance(value, Iterator):
        heads, brackets = ((_json_string(key) + ": ", item) for key, item in value), "{}"
    elif isinstance(value, (list, tuple)):
        heads, brackets = zip(repeat(""), value), "[]"
    else:
        yield json.dumps(value)
        return
    inner = indent + "  "
    separator = brackets[0] + inner
    for head, item in heads:
        if isinstance(item, str):
            yield separator + head + _json_string(item)
        else:
            yield separator + head
            yield from _json_chunks(item, inner)
        separator = "," + inner
    yield indent + brackets[1] if separator[0] == "," else brackets


def _strings(values: model.IndexValues | model.Allocation) -> dict[str, str]:
    """Per-artist scores or amounts as a JSON object of 'p/q' strings."""
    return {a: str(x) for a, x in values.as_dict().items()}


def _echo_table(headers: list[str], rows, widest=None) -> None:
    widths = [max(map(len, column)) for column in zip(headers, *([widest] if widest else rows))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = starmap(("\n" + fmt).format, chain([["-" * w for w in widths]], rows))
    _echo_blocks(chain([fmt.format(*headers)], lines))


def _method_index(method: str, alpha: int | None, beta: int | None,
                  weights_file: str | None) -> Index:
    if method == "banded":
        if alpha is None or beta is None:
            raise model.ModelError("--method banded requires --alpha and --beta")
        return indices_mod.standard_indices(alpha, beta)["banded"]
    if method == "weighted-file":
        if weights_file is None:
            raise model.ModelError("--method weighted-file requires --weights-file")
        try:
            table = model._json_loads(_read_bytes(weights_file).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise model.ParseError(f"weights file is not UTF-8 JSON: {exc}") from None
        if not isinstance(table, dict):
            raise model.ParseError("the weights file must hold a JSON object of user weights")
        return index_from_weights(table_weight_system(table))
    # Band edges are checked only for banded, so stray ones never fail another method.
    return indices_mod.standard_indices()[method]


_METHOD_CHOICES = ("pro-rata", "user-centric", "banded", "weighted-file")


def _input_options(fn):
    fn = click.option("--input", "-i", "input_path", required=True,
                      help="Problem file, or - for stdin.")(fn)
    fn = click.option("--format", "input_format", type=click.Choice(("csv", "json")),
                      default=None, help="Input format; inferred from the extension.")(fn)
    fn = click.option("--fee", default=None,
                      help="Per-user fee as an integer or p/q (default 1, or the "
                           "fee stored in a JSON input).")(fn)
    return fn


def _output_option(fn):
    return click.option("--output", "-o", "output_mode",
                        type=click.Choice(("table", "json")), default="table",
                        help="Print a table or JSON.")(fn)


# int-to-str is quadratic in CPython 3.11: 100,000 places print in about 0.5 s on 2 vCPUs.
MAX_PRECISION = 100_000


def _precision_option(fn):
    """Only for the subcommands whose tables print rounded decimals."""
    return click.option("--precision", type=click.IntRange(min=0, max=MAX_PRECISION), default=4,
                        show_default=True,
                        help="Decimal places in table mode (display only).")(fn)


def _method_options(fn):
    return _method_parameters(click.option("--method", type=click.Choice(_METHOD_CHOICES),
                                           default="pro-rata", show_default=True)(fn))


def _method_parameters(fn):
    """The options that banded and weighted-file read, for every command taking --method."""
    fn = click.option("--alpha", type=int, default=None,
                      help="Lower band edge for --method banded.")(fn)
    fn = click.option("--beta", type=int, default=None,
                      help="Upper band edge for --method banded.")(fn)
    fn = click.option("--weights-file", default=None,
                      help="JSON object of per-user weights for --method weighted-file.")(fn)
    return fn


@click.group()
def cli() -> None:
    """Divide streaming revenue among artists, exactly."""


@cli.command()
@_input_options
@_method_options
@_precision_option
@_output_option
@_guarded
def allocate(input_path, input_format, fee, method, alpha, beta, weights_file,
             output_mode, precision) -> None:
    """Compute one method's index scores and payouts."""
    problem = _load_problem(input_path, input_format, fee)
    index = _method_index(method, alpha, beta, weights_file)
    values = index(problem)
    payout = rewards(problem, values)
    if output_mode == "json":
        _echo_json({
            "method": index.name,
            "fee": str(problem.fee),
            "revenue": str(problem.revenue),
            "index": _strings(values),
            "rewards": _strings(payout),
        })
        return
    rows = [[a, str(values[a]), str(payout[a]), decimal_display(payout[a], precision)]
            for a in problem.artists]
    _echo_table(["artist", "index", "reward", "approx"], rows)


@cli.command()
@_input_options
@_precision_option
@_output_option
@click.option("--method", "methods", type=click.Choice(_METHOD_CHOICES),
              multiple=True, help="Methods to include; repeatable.")
@_method_parameters
@_guarded
def compare(input_path, input_format, fee, output_mode, precision,
            methods, alpha, beta, weights_file) -> None:
    """Run several methods side by side on one problem."""
    problem = _load_problem(input_path, input_format, fee)
    if not methods:
        methods = ("pro-rata", "user-centric")
        if alpha is not None and beta is not None:
            methods += ("banded",)
    resolved = [_method_index(m, alpha, beta, weights_file) for m in methods]
    results = [(idx, idx(problem)) for idx in resolved]
    payouts = [rewards(problem, values) for _, values in results]
    if output_mode == "json":
        _echo_json({
            "fee": str(problem.fee),
            "revenue": str(problem.revenue),
            "methods": {
                idx.name: {"index": _strings(values), "rewards": _strings(payout)}
                for (idx, values), payout in zip(results, payouts)
            },
        })
        return
    headers = ["artist"] + [idx.name for idx, _ in results]
    rows = [[a] + [f"{payout[a]} ({decimal_display(payout[a], precision)})"
                   for payout in payouts]
            for a in problem.artists]
    _echo_table(headers, rows)


def _blocks(problem: model.StreamingProblem, payout: model.Allocation,
            coalition: frozenset[str]) -> bool:
    """Whether the coalition is paid less than the fees of the users who stream only inside it."""
    inside = [a in coalition for a in problem.artists]
    audience = sum(all(compress(inside, column)) for column in zip(*problem.streams))
    return problem.fee * audience > sum(payout[a] for a in coalition)


@cli.command(name="core-check")
@_input_options
@_method_options
@_precision_option
@_output_option
@_guarded
def core_check(input_path, input_format, fee, method, alpha, beta, weights_file,
               output_mode, precision) -> None:
    """Test a method's payout for stability, with both oracles."""
    from . import game as game_mod

    problem = _load_problem(input_path, input_format, fee)
    index = _method_index(method, alpha, beta, weights_file)
    payout = rewards(problem, index(problem))
    flow = game_mod.in_core_flow(problem, payout)
    direct = None
    if problem.artist_count <= game_mod.MAX_ENUMERABLE_PLAYERS:
        direct = game_mod._streaming_in_core_direct(problem, payout)
        if direct.in_core != flow.in_core:
            raise OracleDisagreement(
                f"direct oracle says {direct.in_core}, flow oracle says {flow.in_core}")
    elif flow.blocking_coalition is not None and not _blocks(
            problem, payout, flow.blocking_coalition):
        raise OracleDisagreement(
            f"flow oracle's coalition {sorted(flow.blocking_coalition)} does not block")
    in_core = flow.in_core
    blocking = (sorted(direct.blocking_coalition)
                if direct is not None and direct.blocking_coalition is not None else None)
    if output_mode == "json":
        _echo_json({
            "method": index.name,
            "rewards": _strings(payout),
            "in_core": in_core,
            "oracles": {
                "direct": None if direct is None else direct.in_core,
                "flow": flow.in_core,
            },
            "blocking_coalition": blocking,
            "decomposition": (game_mod.decomposition_items(flow.decomposition)
                              if flow.decomposition is not None else None),
        })
        return
    click.echo(f"method: {index.name}")
    click.echo("payout: " + "  ".join(
        f"{a}={payout[a]} ({decimal_display(payout[a], precision)})"
        for a in problem.artists))
    if direct is None:
        click.echo(f"direct oracle: skipped ({problem.artist_count} artists exceed "
                   f"the {game_mod.MAX_ENUMERABLE_PLAYERS}-player cap; flow-only mode)")
    elif direct.in_core:
        click.echo("direct oracle: in core")
    else:
        click.echo(f"direct oracle: NOT in core"
                   + (f" (blocking coalition: {', '.join(blocking)})" if blocking else ""))
    click.echo(f"flow oracle: {'in core' if flow.in_core else 'NOT in core'}")
    if flow.decomposition is not None:
        for user, row in zip(problem.users, flow.decomposition.shares):
            parts = [f"{a}={x}" for a, x in zip(problem.artists, row) if x]
            click.echo(f"  fee of {user}: " + "  ".join(parts))
    click.echo(f"verdict: {'IN CORE' if in_core else 'NOT IN CORE'}")


@cli.command()
@_input_options
@_output_option
@_guarded
def game(input_path, input_format, fee, output_mode) -> None:
    """Print the coalition worths, dividends, and the supermodularity check."""
    from . import game as game_mod

    problem = _load_problem(input_path, input_format, fee)
    try:
        g = game_mod.streaming_game(problem)
    except game_mod.TooManyPlayers as exc:
        if output_mode == "json":
            _echo_json({"players": list(problem.artists), "skipped": str(exc)})
        else:
            click.echo(f"coalition table skipped: {exc}")
            click.echo("core checks remain available in flow-only mode")
        return
    shape = game_mod.is_supermodular(g)
    sep = "," if output_mode == "json" else ", "
    dividends = {sep.join(g.coalition_members(mask)): str(users * problem.fee)
                 for mask, users in game_mod._listened_sets(problem)}
    if output_mode == "json":
        _echo_json(dict(game_mod.game_items(g), dividends=dividends, supermodular=shape.holds))
        return
    from fractions import Fraction

    d, worths = g._integers
    widest = sep.join(g.players), max((str(Fraction(t, d)) for t in set(worths)), key=len)
    _echo_table(["coalition", "worth"], game_mod._worth_items(g, sep), widest)
    click.echo()
    _echo_table(["coalition", "dividend"], dividends.items())
    click.echo()
    click.echo(f"supermodular: {'yes' if shape.holds else 'NO'}")


@cli.command()
@_input_options
@_precision_option
@_output_option
@click.option("--stage1", type=click.Choice(("proportional", "cea")),
              default="proportional", show_default=True,
              help="Rule dividing the revenue across users.")
@click.option("--stage2", type=click.Choice(("proportional", "cea")),
              default="proportional", show_default=True,
              help="Rule dividing each user's budget across artists.")
@_guarded
def claims(input_path, input_format, fee, output_mode, precision,
           stage1, stage2) -> None:
    """Divide the revenue as a two-stage claims problem."""
    from . import claims as claims_mod

    problem = _load_problem(input_path, input_format, fee)
    multi = claims_mod.streaming_to_claims(problem)
    awards = claims_mod.two_stage_rule(multi, stage1, stage2)
    if output_mode == "json":
        _echo_json({
            "stage1": stage1,
            "stage2": stage2,
            "endowment": str(multi.endowment),
            "issue_totals": {u: str(t)
                             for u, t in zip(multi.issues, multi.issue_totals())},
            "awards": {a: str(x) for a, x in zip(multi.agents, awards)},
        })
        return
    rows = [[a, str(x), decimal_display(x, precision)]
            for a, x in zip(multi.agents, awards)]
    _echo_table(["artist", "award", "approx"], rows)


@cli.command(name="axioms")
@_output_option
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=click.IntRange(min=0), default=100, show_default=True,
              help="Random instances searched per (index, property) cell.")
@click.option("--indices", "index_names", default=None,
              help="Comma-separated index names (default: all built-ins).")
@click.option("--axioms", "axiom_names", default=None,
              help="Comma-separated property names (default: all).")
@click.option("--alpha", type=int, default=20, show_default=True)
@click.option("--beta", type=int, default=60, show_default=True)
@_guarded
def axioms(output_mode, seed, budget, index_names, axiom_names,
           alpha, beta) -> None:
    """Check the built-in indices against the fairness properties."""
    from . import axioms as axioms_mod
    from . import _workers

    catalog = indices_mod.standard_indices(alpha, beta)
    if index_names is None:
        chosen = [idx for name, idx in catalog.items() if name != "banded"]
    else:
        chosen = []
        for name in index_names.split(","):
            name = name.strip()
            if name not in catalog:
                raise model.ModelError(
                    f"unknown index {name!r}; expected one of {sorted(catalog)}")
            chosen.append(catalog[name])
    wanted_axioms = None
    if axiom_names is not None:
        wanted_axioms = [axioms_mod.normalize_axiom(a.strip())
                         for a in axiom_names.split(",")]
    generator = axioms_mod.ProblemGenerator(seed=seed, max_artists=6, max_users=6)
    rows = _workers.matrix_rows(chosen, wanted_axioms, generator, budget)
    if output_mode == "json":
        _echo_json({"seed": seed, "budget": budget, "results": rows})
        return
    _echo_table(["index", "property", "status", "instances", "detail"],
                [[row["index"], row["axiom"], row["status"], str(row["instances"]),
                  row["detail"]] for row in rows])


def main() -> None:
    atexit.register(gc.freeze)
    cli(prog_name="streamshare")


if __name__ == "__main__":
    main()
