"""Per-operation correctness checks on CLI outputs.

:func:`judge` returns the failed checks of one operation as
``"<check>: <detail>"`` strings; an empty list means the operation passed.
Importing this module needs ``streamshare`` on ``sys.path``.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from streamshare import axioms as axioms_mod
from streamshare import game as game_mod
from streamshare import indices as indices_mod

from workloads import ALPHA, BETA, Command


def digest(cmd: Command, stdout: str) -> str:
    """SHA-256 of the output that must stay bit-identical.

    A core-check decomposition is only one of many valid certificates, so
    it is left out; it is validated on its own instead.
    """
    if cmd.kind == "core-check":
        payload = json.loads(stdout)
        payload.pop("decomposition", None)
        stdout = json.dumps(payload, indent=2)
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def judge(cmd: Command, returncode: int, stdout: str, stderr: str, expected: dict,
          problem, allocated: dict, stored_digest: str | None) -> list[str]:
    """Check one CLI operation.

    ``expected`` is the in-process answer, ``problem`` the parsed input (or
    None), ``allocated`` maps (catalog, method name) to the rewards printed
    by this batch's earlier ``allocate`` commands, and ``stored_digest`` is
    the digest to match, if any.
    """
    if returncode != 0:
        why = " (the two core oracles disagree)" if returncode == 3 else ""
        return [f"exit: code {returncode}{why}: {stderr.strip()[-200:]}"]
    if "Traceback (most recent call last)" in stderr + stdout:
        return ["traceback: the command printed a traceback"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"json: stdout is not JSON ({exc.msg})"]
    failures = []
    if out != expected:
        failures.append("exact: output differs from the in-process answer"
                        + _first_difference(out, expected))
    try:
        failures += _CHECKS[cmd.kind](cmd, out, problem, allocated)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        failures.append(f"{cmd.kind}: malformed output ({exc!r})")
    if stored_digest is not None and digest(cmd, stdout) != stored_digest:
        failures.append("digest: stdout differs from the stored default-seed digest")
    return failures


def _first_difference(out, expected, path="") -> str:
    if isinstance(out, dict) and isinstance(expected, dict):
        for key in list(expected) + [k for k in out if k not in expected]:
            if key not in out or key not in expected:
                return f" at {path}/{key} (missing on one side)"
            if out[key] != expected[key]:
                return _first_difference(out[key], expected[key], f"{path}/{key}")
    if isinstance(out, list) and isinstance(expected, list) and len(out) == len(expected):
        for k, (a, b) in enumerate(zip(out, expected)):
            if a != b:
                return _first_difference(a, b, f"{path}[{k}]")
    return f" at {path or '/'}: {str(out)[:60]!r} != {str(expected)[:60]!r}"


def _rewards_sum(rewards: dict, problem, what: str) -> list[str]:
    total = sum((Fraction(x) for x in rewards.values()), Fraction(0))
    if total != problem.revenue:
        return [f"sum: {what} rewards sum to {total}, not the revenue {problem.revenue}"]
    return []


def _check_allocate(cmd, out, problem, allocated) -> list[str]:
    return _rewards_sum(out["rewards"], problem, out["method"])


def _check_compare(cmd, out, problem, allocated) -> list[str]:
    failures = []
    for name, result in out["methods"].items():
        failures += _rewards_sum(result["rewards"], problem, name)
        earlier = allocated.get((cmd.catalog, name))
        if earlier is not None and earlier != result["rewards"]:
            failures.append(f"compare-vs-allocate: {name} rewards differ from allocate")
    return failures


def _check_claims(cmd, out, problem, allocated) -> list[str]:
    user_centric = allocated.get((cmd.catalog, indices_mod.USER_CENTRIC.name))
    if user_centric is None:
        return ["claims-identity: no user-centric allocate earlier in the batch"]
    if out["awards"] != user_centric:
        return ["claims-identity: CEA/proportional awards differ from the user-centric rewards"]
    return []


def _check_core(cmd, out, problem, allocated) -> list[str]:
    failures = []
    direct, flow = out["oracles"]["direct"], out["oracles"]["flow"]
    if direct is not None and direct != flow:
        failures.append(f"oracles: direct says {direct}, flow says {flow}")
    if out["in_core"] != flow:
        failures.append("oracles: verdict differs from the flow oracle")
    decomposition = out["decomposition"]
    if out["in_core"] != (decomposition is not None):
        failures.append("decomposition: present exactly when in core")
    elif decomposition is not None:
        shares = decomposition["shares"]
        table = game_mod.CoreDecomposition(
            problem.artists, tuple(shares),
            tuple(tuple(Fraction(x) for x in row) for row in shares.values()),
            Fraction(decomposition["fee"]))
        try:
            table.validate(problem)
        except ValueError as exc:
            failures.append(f"decomposition: {exc}")
        columns = {a: str(x) for a, x in table.allocation().as_dict().items()}
        if columns != out["rewards"]:
            failures.append("decomposition: column sums differ from the payout")
    return failures


def _check_game(cmd, out, problem, allocated) -> list[str]:
    failures = []
    players = out["players"]

    def mask(key: str) -> int:
        return sum(1 << players.index(p) for p in key.split(","))

    rebuilt = game_mod.reconstruct_from_dividends(
        {mask(k): Fraction(v) for k, v in out["dividends"].items()}, players)
    if any(rebuilt.value(mask(k)) != Fraction(v) for k, v in out["values"].items()):
        failures.append("dividends: reconstructed worths differ from the printed worths")
    if out["supermodular"] is not True:
        failures.append("supermodular: a streaming game must be supermodular")
    return failures


def _check_axioms(cmd, out, problem, allocated) -> list[str]:
    indices = indices_mod.standard_indices(ALPHA, BETA)
    failures = []
    for row in out["results"]:
        if row["status"] != axioms_mod.Status.FAIL.value:
            continue
        verdict = axioms_mod.AxiomVerdict(row["axiom"], row["index"], axioms_mod.Status.FAIL,
                                          row["witness"], row["detail"], row["instances"])
        if not axioms_mod.recheck_witness(indices[row["index"]], verdict):
            failures.append(f"witness: {row['index']} / {row['axiom']} does not reproduce")
    return failures


_CHECKS = {
    "allocate": _check_allocate,
    "compare": _check_compare,
    "claims": _check_claims,
    "core-check": _check_core,
    "game": _check_game,
    "axioms": _check_axioms,
}
