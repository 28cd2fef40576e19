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
from itertools import compress, count, repeat
from math import gcd
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from .model import (InvalidProblem, StreamingProblem, WeightContractViolated, _exact_sum,
                    _fractions, _over_common_denominator, _over_lcm, _trusted, as_rational)

_NUMERATOR = attrgetter("numerator")


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
    total.  The public constructor checks all of this once and stores, from
    one pass over the columns, the issue totals, their sum ``_total`` and
    each issue's positive claimants ``_supports``; :func:`streaming_to_claims`
    builds its value with :func:`model._trusted` from the same pass over a
    validated streaming problem.  Such a value keeps only the problem's
    integer rows, as ``_counts``; its ``claims`` are made from them on first
    read, with one Fraction per distinct count, and then kept.
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
        totals, supports = [], []
        for column in zip(*self.claims):
            totals.append(_exact_sum(column))
            supports.append(tuple(compress(count(), column)))
        for issue, total in zip(self.issues, totals):
            if total == 0:
                raise InvalidProblem(f"issue {issue!r} carries no claims")
        grand = _exact_sum(totals)
        _require_solvent(grand, self.endowment)
        object.__setattr__(self, "_issue_totals", tuple(totals))
        object.__setattr__(self, "_total", grand)
        object.__setattr__(self, "_supports", tuple(supports))

    def __getattr__(self, name: str):
        # Only reached when ``name`` is not stored on the instance.
        if name != "claims":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        made = {t: Fraction(t) for t in set().union(*self._counts)}.__getitem__
        value = vars(self)[name] = tuple(tuple(map(made, row)) for row in self._counts)
        return value

    def issue_totals(self) -> tuple[Fraction, ...]:
        return self._issue_totals


def _require_solvent(total: Fraction, endowment: Fraction) -> None:
    if total < endowment:
        raise InvalidProblem(f"endowment {endowment} exceeds total claims")


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
    return _proportional_split(problem, [w * problem.endowment for w in weights])


def _rows(problem: MultiIssueClaims) -> Sequence[Sequence]:
    """The claim rows as stored: a streaming view's integer counts, else the Fractions."""
    return vars(problem).get("_counts") or problem.claims


def _proportional_split(problem: MultiIssueClaims,
                        budgets: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Split each issue's budget, which may exceed its claims, in proportion to them.

    Each issue's ratio of budget to total is reduced once, to integers p / q.  An
    agent's award is the sum over its positive claims a / b of a p / (b q), added
    as integers over one denominator: one Fraction per agent, none per claim.  The
    rows are read as stored; a count is its own numerator.
    """
    tops, bottoms = [], []
    for budget, total in zip(budgets, problem.issue_totals()):
        p, q = budget.numerator * total.denominator, budget.denominator * total.numerator
        g = gcd(p, q)
        tops.append(p // g)
        bottoms.append(q // g)
    counts = vars(problem).get("_counts")
    awards = []
    for row in counts or problem.claims:
        numerators = row if counts else tuple(map(_NUMERATOR, row))
        support = list(compress(count(), numerators))
        d, scaled = _over_lcm([numerators[j] * tops[j] for j in support],
                              [row[j].denominator * bottoms[j] for j in support])
        awards.append(Fraction(sum(scaled), d))
    return tuple(awards)


def _built_in(rule: BankruptcyRule) -> bool:
    """Whether ``rule`` returns one exact, nonnegative award per claimant of a valid problem."""
    return rule is proportional_rule or rule is cea_awards


def _stage(rule: BankruptcyRule, claimant: str, stage: str, claimants: tuple[str, ...],
           claims: Sequence, endowment: Fraction, total: Fraction) -> tuple[Fraction, ...]:
    """One stage of ``two_stage_rule``: run ``rule`` and hold its awards to the contract.

    ``claims`` are valid and sum to ``total``.  A built-in rule runs unchecked when
    ``endowment <= total``, and may then take int claims; its awards are taken as they
    are.  Otherwise the problem is validated and the rule is held to the contract.
    """
    if endowment <= total and _built_in(rule):
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
                  budgets: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Ration each issue's budget among its agents with ``rule``, one issue at a time.

    A built-in rule sees only the positive claims, read as stored; a callable rule sees
    every agent.  An issue whose budget exceeds its total fails there, through ``_stage``.
    """
    agents, rows = problem.agents, _rows(problem)
    supports = problem._supports if _built_in(rule) else repeat(range(len(agents)))
    terms = [[] for _ in agents]
    for j, (issue, support, budget, total) in enumerate(
            zip(problem.issues, supports, budgets, problem.issue_totals())):
        awards = _stage(rule, "agent", f"agent stage, issue {issue!r}",
                        tuple(agents[i] for i in support),
                        tuple(rows[i][j] for i in support), budget, total)
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
    award per claimant; an InvalidProblem raised inside a stage, or by a
    stage breaking that contract, is re-raised tagged with the stage.  A
    built-in rule runs unchecked on each issue whose budget is within its total.
    """
    psi, phi = resolve_rule(issue_stage), resolve_rule(agent_stage)
    totals = problem.issue_totals()
    budgets = _stage(psi, "issue", "issue stage", problem.issues, totals,
                     problem.endowment, problem._total)
    if phi is proportional_rule and all(b <= t for b, t in zip(budgets, totals)):
        return _proportional_split(problem, budgets)
    return _split_issues(problem, phi, budgets)


def streaming_to_claims(problem: StreamingProblem) -> MultiIssueClaims:
    """View a streaming problem as multi-issue claims.

    Users become issues, stream counts become claims, and the endowment is
    the platform revenue.  Solvency holds whenever each user averages at
    least the fee in streams; otherwise construction fails.  The counts of
    a validated problem are nonnegative integers with a positive total per
    user, so solvency is the only check left to make.  The view keeps only
    the problem's rows; the rules read those ints and never make ``claims``.
    """
    # One column at a time, so the transpose of a wide catalog is never held whole.
    sums, supports = [], []
    for column in zip(*problem.streams):
        sums.append(sum(column))
        supports.append(tuple(compress(count(), column)))
    total = Fraction(sum(sums))
    revenue = problem.revenue
    _require_solvent(total, revenue)
    return _trusted(MultiIssueClaims, agents=problem.artists, issues=problem.users,
                    endowment=revenue, _counts=problem.streams,
                    _issue_totals=_fractions(sums, 1), _total=total, _supports=tuple(supports))


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


def multi_issue_from_dict(data: Mapping) -> MultiIssueClaims:
    if not isinstance(data, Mapping):
        raise InvalidProblem("top level must be an object")
    for key in ("agents", "issues", "claims", "endowment"):
        if key not in data:
            raise InvalidProblem(f"missing key {key!r}")
    if not all(isinstance(data[key], list) for key in ("agents", "issues", "claims")):
        raise InvalidProblem("'agents', 'issues' and 'claims' must be arrays")
    if not all(isinstance(row, list) for row in data["claims"]):
        raise InvalidProblem("'claims' must be an array of arrays")
    return MultiIssueClaims(
        agents=tuple(data["agents"]),
        issues=tuple(data["issues"]),
        claims=tuple(data["claims"]),
        endowment=data["endowment"],
    )
