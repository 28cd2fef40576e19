"""Rationing rules: dividing an endowment that is smaller than the claims.

The single-issue problem is the classic one (agents, claims, endowment).
The multi-issue form groups claims by issue; here an issue is a user and an
agent's claim on that issue is their stream count, so a streaming problem
translates directly.  Rules come in two flavors: weighted proportional
rules, which fix a budget per issue and split it proportionally, and
two-stage rules, which first ration the endowment across issues and then
ration each issue's award across agents.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, repeat
from typing import Callable, NamedTuple, Sequence, Union

from .model import (InvalidProblem, StreamingProblem, WeightContractViolated, _exact_sum,
                    _fractions, _over_common_denominator, _trusted, as_rational)


def _rational_tuple(values: Sequence, what: str) -> tuple[Fraction, ...]:
    label = f"{what} must be exact rationals; each entry"
    return tuple(as_rational(v, label, InvalidProblem) for v in values)


@dataclass(frozen=True)
class BankruptcyProblem:
    """Agents with claims on an endowment too small to honor them all."""

    agents: tuple[str, ...]
    claims: tuple[Fraction, ...]
    endowment: Fraction

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "claims", _rational_tuple(self.claims, "claims"))
        object.__setattr__(self, "endowment", as_rational(self.endowment, "endowment"))
        if not self.agents:
            raise InvalidProblem("need at least one agent")
        if len(set(self.agents)) != len(self.agents):
            raise InvalidProblem("duplicate agent identifier")
        if len(self.claims) != len(self.agents):
            raise InvalidProblem("one claim per agent required")
        if any(c.numerator < 0 for c in self.claims):
            raise InvalidProblem("claims must be nonnegative")
        if self.endowment < 0:
            raise InvalidProblem("endowment must be nonnegative")
        total = _exact_sum(self.claims)
        if total < self.endowment:
            raise InvalidProblem(
                f"endowment {self.endowment} exceeds total claims {total}")
        object.__setattr__(self, "_total", total)


def proportional_rule(problem: BankruptcyProblem) -> tuple[Fraction, ...]:
    """Award everyone the same fraction of their claim."""
    total = problem._total
    zero = Fraction(0)
    if total == 0:
        # The endowment is zero too (it never exceeds the claims).
        return (zero,) * len(problem.claims)
    ratio = problem.endowment / total
    return tuple(c * ratio for c in problem.claims)


class CeaAwards(NamedTuple):
    """Constrained-equal awards plus the common water level."""

    awards: tuple[Fraction, ...]
    level: Fraction


def cea_rule(problem: BankruptcyProblem) -> CeaAwards:
    """Equalize awards subject to nobody exceeding their claim.

    Awards are ``min(level, claim)`` where the level is chosen so the
    awards exhaust the endowment.  Computed by filling claims in ascending
    order on integers over one common denominator, which pins the level
    exactly; it is the one Fraction built.
    """
    n = len(problem.claims)
    d, (remaining, *scaled) = _over_common_denominator((problem.endowment, *problem.claims))
    order = sorted(range(n), key=scaled.__getitem__)
    awards = list(problem.claims)
    # The claims cover the endowment, so the last agent reaches the level
    # if no earlier one does: the loop always breaks.
    for position, agent in enumerate(order):
        if scaled[agent] * (n - position) >= remaining:
            break
        remaining -= scaled[agent]
    level = Fraction(remaining, d * (n - position))
    for agent in order[position:]:
        awards[agent] = level
    return CeaAwards(tuple(awards), level)


def cea_awards(problem: BankruptcyProblem) -> tuple[Fraction, ...]:
    return cea_rule(problem).awards


BankruptcyRule = Callable[[BankruptcyProblem], tuple[Fraction, ...]]

BANKRUPTCY_RULES: dict[str, BankruptcyRule] = {
    "proportional": proportional_rule,
    "cea": cea_awards,
}


def resolve_rule(rule: Union[str, BankruptcyRule]) -> BankruptcyRule:
    if callable(rule):
        return rule
    try:
        return BANKRUPTCY_RULES[rule]
    except KeyError:
        raise InvalidProblem(
            f"unknown rule {rule!r}; expected one of {sorted(BANKRUPTCY_RULES)}") from None


@dataclass(frozen=True)
class MultiIssueClaims:
    """Claims broken down by issue.

    ``claims[i][j]`` is agent i's claim on issue j.  Every issue must carry
    at least one positive claim, and the endowment may not exceed the grand
    total.  The public constructor checks all of this once and stores the
    issue totals and their sum ``_total``; :func:`streaming_to_claims`
    builds its value with :func:`model._trusted` from those of a validated
    streaming problem, and also prefills ``_supports``.
    """

    agents: tuple[str, ...]
    issues: tuple[str, ...]
    claims: tuple[tuple[Fraction, ...], ...]
    endowment: Fraction

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "issues", tuple(self.issues))
        object.__setattr__(self, "claims",
                           tuple(_rational_tuple(row, "claims") for row in self.claims))
        object.__setattr__(self, "endowment", as_rational(self.endowment, "endowment"))
        if not self.agents or not self.issues:
            raise InvalidProblem("need at least one agent and one issue")
        if len(set(self.agents)) != len(self.agents):
            raise InvalidProblem("duplicate agent identifier")
        if len(set(self.issues)) != len(self.issues):
            raise InvalidProblem("duplicate issue identifier")
        if len(self.claims) != len(self.agents):
            raise InvalidProblem("one claim row per agent required")
        for row in self.claims:
            if len(row) != len(self.issues):
                raise InvalidProblem("one claim per issue required in every row")
            if any(c.numerator < 0 for c in row):
                raise InvalidProblem("claims must be nonnegative")
        if self.endowment < 0:
            raise InvalidProblem("endowment must be nonnegative")
        totals = tuple(_exact_sum(column) for column in zip(*self.claims))
        for issue, total in zip(self.issues, totals):
            if total == 0:
                raise InvalidProblem(f"issue {issue!r} carries no claims")
        grand = _exact_sum(totals)
        _require_solvent(grand, self.endowment)
        object.__setattr__(self, "_issue_totals", totals)
        object.__setattr__(self, "_total", grand)

    def issue_totals(self) -> tuple[Fraction, ...]:
        return self._issue_totals

    @cached_property
    def _supports(self) -> tuple[tuple[int, ...], ...]:
        """Per issue, the positions of the agents holding a positive claim on it."""
        return _nonzero_positions(zip(*self.claims))


def _require_solvent(total: Fraction, endowment: Fraction) -> None:
    if total < endowment:
        raise InvalidProblem(f"endowment {endowment} exceeds total claims")


def _nonzero_positions(columns) -> tuple[tuple[int, ...], ...]:
    """Per column, the positions of its nonzero entries."""
    return tuple(tuple(compress(count(), column)) for column in columns)


@dataclass(frozen=True)
class IssueWeightFunction:
    """Allots a probability weight to each issue.

    ``weights(issue_totals, endowment)`` must return one weight per issue,
    each an exact rational in [0, 1], summing to exactly 1.  Inexact inputs are
    refused, and any violation of that contract raises WeightContractViolated.
    """

    name: str
    weights: Callable[[tuple[Fraction, ...], Fraction], Sequence[Fraction]]

    def __call__(self, issue_totals: tuple[Fraction, ...],
                 endowment: Fraction) -> tuple[Fraction, ...]:
        totals = _rational_tuple(issue_totals, "issue totals")
        out = tuple(as_rational(w, f"weight from {self.name!r}", WeightContractViolated)
                    for w in self.weights(totals, as_rational(endowment, "endowment")))
        if len(out) != len(totals):
            raise WeightContractViolated(
                f"{self.name!r} produced {len(out)} weights for {len(totals)} issues")
        if any(w < 0 or w > 1 for w in out):
            raise WeightContractViolated(f"{self.name!r} produced a weight outside [0, 1]")
        total = _exact_sum(out)
        if total != 1:
            raise WeightContractViolated(
                f"{self.name!r} weights sum to {total}, not 1")
        return out


def _issue_size(totals: tuple[Fraction, ...], endowment: Fraction) -> tuple[Fraction, ...]:
    grand = _exact_sum(totals)
    return tuple(t / grand for t in totals)


issue_size_weights = IssueWeightFunction("issue-size", _issue_size)

equal_issue_weights = IssueWeightFunction(
    "equal-issues",
    lambda totals, endowment: tuple(Fraction(1, len(totals)) for _ in totals),
)


def weighted_proportional(problem: MultiIssueClaims,
                          weight_function: IssueWeightFunction) -> tuple[Fraction, ...]:
    """Give each issue a budget share and split it proportionally.

    Agent i receives, per issue j, their share of the issue's claims times
    the issue's weight times the endowment.  Only positive claims add a term.
    """
    weights = weight_function(problem.issue_totals(), problem.endowment)
    return _split_issues(problem, proportional_rule, [w * problem.endowment for w in weights],
                         trusted=True)


def _built_in(rule: BankruptcyRule) -> bool:
    """Whether ``rule`` returns one exact, nonnegative award per claimant of a valid problem."""
    return rule is proportional_rule or rule is cea_awards


def _stage(rule: BankruptcyRule, claimant: str, stage: str, claimants: tuple[str, ...],
           claims: Sequence[Fraction], endowment: Fraction,
           total: Fraction | None = None) -> tuple[Fraction, ...]:
    """One stage of ``two_stage_rule``: run ``rule`` and hold its awards to the contract.

    Pass ``total`` only for a problem known to be valid whose claims sum to
    it: a built-in rule then runs on it unchecked and its awards are taken
    as they are.  A callable rule always gets a validated problem and is
    held to the contract.
    """
    if total is not None and _built_in(rule):
        return rule(_trusted(BankruptcyProblem, agents=claimants, claims=claims,
                             endowment=endowment, _total=total))
    try:
        awards = _rational_tuple(rule(BankruptcyProblem(claimants, claims, endowment)), "awards")
        if len(awards) != len(claimants):
            raise InvalidProblem(f"one award per {claimant} required")
        if any(a.numerator < 0 for a in awards):
            raise InvalidProblem("awards must be nonnegative")
    except InvalidProblem as exc:
        raise InvalidProblem(f"{stage}: {exc}") from exc
    return awards


def _split_issues(problem: MultiIssueClaims, rule: BankruptcyRule,
                  budgets: Sequence[Fraction], trusted: bool) -> tuple[Fraction, ...]:
    """Ration each issue's budget among its agents with ``rule``: the one loop over issues.

    A built-in rule sees only the positive claims and runs unchecked on ``trusted`` budgets,
    which cea needs within each issue's total.  A callable rule sees every agent, checked.
    """
    agents, claims = problem.agents, problem.claims
    supports = problem._supports if _built_in(rule) else repeat(range(len(agents)))
    totals = problem.issue_totals() if trusted else repeat(None)
    terms = [[] for _ in agents]
    for j, (issue, support, budget, total) in enumerate(
            zip(problem.issues, supports, budgets, totals)):
        awards = _stage(rule, "agent", f"agent stage, issue {issue!r}",
                        tuple(agents[i] for i in support),
                        tuple(claims[i][j] for i in support), budget, total)
        for i, award in zip(support, awards):
            terms[i].append(award)
    return tuple(map(_exact_sum, terms))


def two_stage_rule(problem: MultiIssueClaims,
                   issue_stage: Union[str, BankruptcyRule],
                   agent_stage: Union[str, BankruptcyRule]) -> tuple[Fraction, ...]:
    """Ration across issues first, then within each issue.

    Stage one treats the issues as agents claiming their column totals and
    divides the endowment with ``issue_stage``.  Stage two divides each
    issue's award among the agents with ``agent_stage``, using the original
    claims on that issue.  Each stage must return one exact, nonnegative
    award per claimant.  Any InvalidProblem raised inside a stage, or by a
    stage breaking that contract, is re-raised tagged with the stage.  The
    built-in rules keep the contract and run unchecked, except for an agent
    stage after a callable issue stage, which may overspend an issue.
    """
    psi, phi = resolve_rule(issue_stage), resolve_rule(agent_stage)
    issue_budgets = _stage(psi, "issue", "issue stage", problem.issues,
                           problem.issue_totals(), problem.endowment, problem._total)
    # A built-in issue stage keeps every budget within its issue's total.
    return _split_issues(problem, phi, issue_budgets, trusted=_built_in(psi))


def streaming_to_claims(problem: StreamingProblem) -> MultiIssueClaims:
    """View a streaming problem as multi-issue claims.

    Users become issues, stream counts become claims, and the endowment is
    the platform revenue.  Solvency holds whenever each user averages at
    least the fee in streams; otherwise construction fails.  The counts of
    a validated problem are nonnegative integers with a positive total per
    user, so solvency is the only check left to make.
    """
    # One column at a time, so the transpose of a wide catalog is never held whole.
    sums, supports = [], []
    for column in zip(*problem.streams):
        sums.append(sum(column))
        supports.append(tuple(compress(count(), column)))
    total = Fraction(sum(sums))
    revenue = problem.revenue
    _require_solvent(total, revenue)
    made = {t: Fraction(t) for t in set(chain.from_iterable(problem.streams))}
    return _trusted(MultiIssueClaims, agents=problem.artists, issues=problem.users,
                    claims=tuple(tuple(map(made.__getitem__, row)) for row in problem.streams),
                    endowment=revenue, _issue_totals=_fractions(sums, 1), _total=total,
                    _supports=tuple(supports))


def streaming_to_bankruptcy(problem: StreamingProblem) -> BankruptcyProblem:
    """Collapse a streaming problem to single-issue claims on the revenue."""
    return BankruptcyProblem(
        agents=problem.artists,
        claims=tuple(sum(row) for row in problem.streams),
        endowment=problem.revenue,
    )


def multi_issue_to_dict(problem: MultiIssueClaims) -> dict:
    """JSON-ready dict form, mirroring the streaming problem layout."""
    return {
        "agents": list(problem.agents),
        "issues": list(problem.issues),
        "claims": [[str(c) for c in row] for row in problem.claims],
        "endowment": str(problem.endowment),
    }


def multi_issue_from_dict(data) -> MultiIssueClaims:
    for key in ("agents", "issues", "claims", "endowment"):
        if key not in data:
            raise InvalidProblem(f"missing key {key!r}")
    return MultiIssueClaims(
        agents=tuple(data["agents"]),
        issues=tuple(data["issues"]),
        claims=tuple(data["claims"]),
        endowment=data["endowment"],
    )
