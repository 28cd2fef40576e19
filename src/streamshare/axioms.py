"""Fairness properties of allocation indices, checked by direct computation.

Every property here is universally quantified over problems, so a checker
can refute an index (by exhibiting a concrete witness) but can only report
that no violation was found within a search budget.  Failed verdicts carry
a witness payload complete enough to re-run the violated inequality from
scratch; see :func:`recheck_witness`.

On any single instance, premise-bearing properties are checked against
every premise tuple the instance supports (all proportional row pairs, all
user splits, and so on).  Instances too small to state a property count as
not-applicable, never as passes.

The checks compare index values on their integer form (numerators over one
denominator) by cross-multiplication, and build Fractions only to write
the witness of a failure.
"""
from __future__ import annotations

import functools
import inspect
import random
import string
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations, groupby, islice
from numbers import Real
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import game as game_mod
from .indices import Index, _check_artists, rewards
from .model import (
    IndexValues,
    ModelError,
    NonPositiveFee,
    PremiseViolated,
    StreamingProblem,
    _trusted,
    as_rational,
    new_problem,
    problem_from_dict,
    problem_to_dict,
    split_problem,
)

HOMOGENEITY = "homogeneity"
ADDITIVITY = "additivity"
EQUAL_INDIVIDUAL_IMPACT = "equal-individual-impact"
EQUAL_GLOBAL_IMPACT = "equal-global-impact"
REASONABLE_LOWER_BOUND = "reasonable-lower-bound"
CLICK_FRAUD_PROOFNESS = "click-fraud-proofness"
CORE_SELECTION = "core-selection"

_AXIOM_ALIASES = {
    "click-fraud": CLICK_FRAUD_PROOFNESS,
    "eii": EQUAL_INDIVIDUAL_IMPACT,
    "egi": EQUAL_GLOBAL_IMPACT,
    "rlb": REASONABLE_LOWER_BOUND,
}


def normalize_axiom(name: str) -> str:
    canon = _AXIOM_ALIASES.get(name, name)
    if canon not in AXIOM_NAMES:
        raise ModelError(f"unknown axiom {name!r}; expected one of {AXIOM_NAMES}")
    return canon


class Status(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of checking one property for one index.

    A FAIL verdict always carries a witness: the problem (and any other
    inputs) plus the two sides of the violated relation, rendered as
    strings so the payload is JSON-ready.
    """

    axiom: str
    index: str
    status: Status
    witness: Mapping | None = None
    detail: str = ""
    instances: int = 1

    @property
    def passed(self) -> bool:
        return self.status is Status.PASS

    @property
    def failed(self) -> bool:
        return self.status is Status.FAIL


def verdict_to_dict(verdict: AxiomVerdict) -> dict:
    return {
        "axiom": verdict.axiom,
        "index": verdict.index,
        "status": verdict.status.value,
        "instances": verdict.instances,
        "detail": verdict.detail,
        "witness": dict(verdict.witness) if verdict.witness is not None else None,
    }


def _pass(axiom: str, index: Index, detail: str = "") -> AxiomVerdict:
    if detail:
        return AxiomVerdict(axiom, index.name, Status.PASS, None, detail)
    return _passed(axiom, index.name)


# The one PASS verdict without detail of each (axiom, index name).
_passed = functools.lru_cache(maxsize=256)(functools.partial(AxiomVerdict, status=Status.PASS))


def _fail(axiom: str, index: Index, problem: StreamingProblem, detail: str,
          **fields) -> AxiomVerdict:
    """A FAIL verdict whose witness is the problem followed by ``fields``, in order."""
    return AxiomVerdict(axiom, index.name, Status.FAIL,
                        {"problem": problem_to_dict(problem), **fields}, detail)


def _score(values: IndexValues, artist: str) -> tuple[int, int]:
    """``values[artist]`` as a numerator and a denominator, not always in lowest terms."""
    d, numerators = values._integers
    return numerators[values._locate(artist)], d


# -- single-premise checks ----------------------------------------------

def check_homogeneity(index: Index, problem: StreamingProblem,
                      artist: str, other: str, factor: int | str | Fraction) -> AxiomVerdict:
    """One artist's row is ``factor`` times another's; their scores must be too.

    An inexact ``factor`` raises TypeError.
    """
    factor = as_rational(factor, "factor")
    if factor < 0:
        raise PremiseViolated("factor must be nonnegative")
    if artist == other:
        raise PremiseViolated("need two distinct artists")
    row = problem.streams[problem.artist_index(artist)]
    row2 = problem.streams[problem.artist_index(other)]
    p, q = factor.numerator, factor.denominator
    if any(c * q != p * c2 for c, c2 in zip(row, row2)):
        raise PremiseViolated(
            f"row of {artist!r} is not {factor} times the row of {other!r}")
    values = index(problem)
    (got, d), (base, _) = _score(values, artist), _score(values, other)
    if got * q == p * base:
        return _pass(HOMOGENEITY, index)
    got, expected = Fraction(got, d), factor * Fraction(base, d)
    return _fail(HOMOGENEITY, index, problem, f"score of {artist!r} is {got}, expected {expected}",
                 artist=artist, other=other, factor=str(factor), score=str(got),
                 expected=str(expected))


def check_additivity(index: Index, problem: StreamingProblem,
                     first_group: Sequence[str]) -> AxiomVerdict:
    """Splitting the users into two markets must split the scores additively."""
    part1, part2 = split_problem(problem, first_group)
    (dw, wholes), (dl, lefts), (dr, rights) = (index(p)._integers
                                               for p in (problem, part1, part2))
    # Both parts keep the problem's artists, so scores line up by position.
    # Compare whole/dw with left/dl + right/dr, both times dw * dl * dr.
    sw, sl, sr = dl * dr, dw * dr, dw * dl
    for artist, whole, left, right in zip(problem.artists, wholes, lefts, rights):
        if whole * sw != left * sl + right * sr:
            whole, total = Fraction(whole, dw), Fraction(left, dl) + Fraction(right, dr)
            return _fail(ADDITIVITY, index, problem,
                         f"score of {artist!r} is {whole}, parts sum to {total}",
                         first_group=sorted(part1.users), artist=artist, whole=str(whole),
                         parts_sum=str(total))
    return _pass(ADDITIVITY, index)


def check_equal_individual_impact(index: Index, problem: StreamingProblem,
                                  artist: str, user: str, other_user: str) -> AxiomVerdict:
    """Two users with the same count for an artist must matter equally to them.

    Removing either user from the problem must leave the artist with the
    same score.
    """
    if user == other_user:
        raise PremiseViolated("need two distinct users")
    i = problem.artist_index(artist)
    if (problem.streams[i][problem.user_index(user)]
            != problem.streams[i][problem.user_index(other_user)]):
        raise PremiseViolated(
            f"users {user!r} and {other_user!r} stream {artist!r} unequally")
    without_user, d = _score(index(problem.remove_user(user)), artist)
    without_other, d2 = _score(index(problem.remove_user(other_user)), artist)
    if without_user * d2 == without_other * d:
        return _pass(EQUAL_INDIVIDUAL_IMPACT, index)
    without_user, without_other = Fraction(without_user, d), Fraction(without_other, d2)
    return _fail(EQUAL_INDIVIDUAL_IMPACT, index, problem,
                 f"removing {user!r} leaves {without_user}, "
                 f"removing {other_user!r} leaves {without_other}",
                 artist=artist, user=user, other_user=other_user,
                 without_user=str(without_user), without_other=str(without_other))


def check_equal_global_impact(index: Index, problem: StreamingProblem,
                              user: str, other_user: str) -> AxiomVerdict:
    """Removing any one user must shift the total score by the same amount."""
    if user == other_user:
        raise PremiseViolated("need two distinct users")
    d, numerators = index(problem.remove_user(user))._integers
    d2, numerators2 = index(problem.remove_user(other_user))._integers
    sum_without_user, sum_without_other = sum(numerators), sum(numerators2)
    if sum_without_user * d2 == sum_without_other * d:
        return _pass(EQUAL_GLOBAL_IMPACT, index)
    sum_without_user = Fraction(sum_without_user, d)
    sum_without_other = Fraction(sum_without_other, d2)
    return _fail(EQUAL_GLOBAL_IMPACT, index, problem,
                 f"total without {user!r} is {sum_without_user}, "
                 f"without {other_user!r} it is {sum_without_other}",
                 user=user, other_user=other_user, sum_without_user=str(sum_without_user),
                 sum_without_other=str(sum_without_other))


def check_reasonable_lower_bound(index: Index, problem: StreamingProblem,
                                 coalition: Sequence[str]) -> AxiomVerdict:
    """Artists reached by a user group must collect at least the group's fees."""
    users = sorted(dict.fromkeys(coalition))
    if not users:
        raise PremiseViolated("the user coalition must be nonempty")
    columns = [problem.user_index(user) for user in users]
    # The reached artists collect their share of the scores times the revenue,
    # m * fee; the floor is |users| * fee, and the fee cancels.
    values = index(problem)
    numerators = values._integers[1]
    share = sum(numerators[values._locate(artist)]
                for artist, row in zip(problem.artists, problem.streams)
                if any(map(row.__getitem__, columns)))
    total, m = sum(numerators), problem.user_count
    if share * m >= len(users) * total:
        return _pass(REASONABLE_LOWER_BOUND, index)
    amount, floor = Fraction(share * m, total) * problem.fee, len(users) * problem.fee
    return _fail(REASONABLE_LOWER_BOUND, index, problem,
                 f"artists reached by {users} collect {amount} < {floor}",
                 coalition=users, reached_amount=str(amount), floor=str(floor))


def check_reasonable_lower_bound_all(index: Index,
                                     problem: StreamingProblem) -> AxiomVerdict:
    """Exhaust every nonempty user coalition; return the first shortfall.

    More users than ``game.MAX_ENUMERABLE_PLAYERS`` raise TooManyPlayers.
    """
    return evaluate_axiom(index, REASONABLE_LOWER_BOUND, problem)


def check_click_fraud_proofness(index: Index, problem: StreamingProblem,
                                perturbed: StreamingProblem, user: str) -> AxiomVerdict:
    """Rewriting one user's counts must not move any payout by more than a fee."""
    if (problem.artists != perturbed.artists or problem.users != perturbed.users
            or problem.fee != perturbed.fee):
        raise PremiseViolated("problems must share artists, users and fee")
    j = problem.user_index(user)
    for row, row2 in zip(problem.streams, perturbed.streams):
        if row[:j] != row2[:j] or row[j + 1:] != row2[j + 1:]:
            raise PremiseViolated(f"problems differ outside the column of user {user!r}")
    before = index(problem)
    _check_artists(problem, before)
    after = index(perturbed)
    _check_artists(perturbed, after)
    # Artist i is paid m * fee * n_i / t before and m * fee * n2_i / t2 after,
    # so it moves by more than the fee when m * |n_i * t2 - n2_i * t| > t * t2.
    numerators, numerators2 = before._integers[1], after._integers[1]
    t, t2, m = sum(numerators), sum(numerators2), problem.user_count
    for artist, n, n2 in zip(problem.artists, numerators, numerators2):
        if (moved := m * abs(n * t2 - n2 * t)) > t * t2:
            shift = Fraction(moved, t * t2) * problem.fee
            return _fail(CLICK_FRAUD_PROOFNESS, index, problem,
                         f"payout of {artist!r} moves by {shift} > fee {problem.fee}",
                         perturbed=problem_to_dict(perturbed), user=user, artist=artist,
                         difference=str(shift), bound=str(problem.fee))
    return _pass(CLICK_FRAUD_PROOFNESS, index)


def check_core_selection(index: Index, problem: StreamingProblem) -> AxiomVerdict:
    """The index's payout must be stable against every artist coalition."""
    payout = rewards(problem, index(problem))
    verdict = game_mod._streaming_in_core_direct(problem, payout)
    if verdict.in_core:
        return _pass(CORE_SELECTION, index)
    coalition = verdict.blocking_coalition
    blocking = sorted(coalition) if coalition is not None else None
    detail = ("payout does not sum to the revenue" if blocking is None
              else f"coalition {blocking} is paid less than it is worth")
    return _fail(CORE_SELECTION, index, problem, detail,
                 allocation={a: str(x) for a, x in payout.as_dict().items()}, blocking=blocking)


# -- exhaustive per-instance evaluation ----------------------------------

def _proportional_pairs(problem: StreamingProblem, rng: random.Random) -> Iterator[tuple]:
    """Every (artist, other, lam) with the artist's row equal to lam times the other's.

    When both rows are zero any factor qualifies; a fixed sample including
    a factor other than one keeps the check meaningful in that case.
    """
    for artist, row in zip(problem.artists, problem.streams):
        for other, row2 in zip(problem.artists, problem.streams):
            if artist == other:
                continue
            if not any(row2):
                if not any(row):
                    yield from ((artist, other, Fraction(k)) for k in (0, 1, 2))
            elif not any(row):
                yield artist, other, Fraction(0)
            else:
                pivot = next(j for j, c in enumerate(row2) if c)
                p, q = row[pivot], row2[pivot]
                if all(c * q == p * c2 for c, c2 in zip(row, row2)):
                    yield artist, other, Fraction(p, q)


def _equal_count_pairs(problem: StreamingProblem, rng: random.Random) -> Iterator[tuple]:
    users = problem.users
    for artist, row in zip(problem.artists, problem.streams):
        for a, b in combinations(range(len(users)), 2):
            if row[a] == row[b]:
                yield artist, users[a], users[b]


def _user_subsets(problem: StreamingProblem, masks: range) -> Iterator[tuple]:
    """Each user subset whose bit mask is in ``masks``; over the player cap, TooManyPlayers."""
    game_mod._check_cap(problem.user_count, "users")
    for mask in masks:
        yield [u for j, u in enumerate(problem.users) if mask >> j & 1],


def _resampled_column(problem: StreamingProblem, user: str,
                      rng: random.Random) -> StreamingProblem:
    """The same problem with one user's counts drawn fresh (never all zero)."""
    j = problem.user_index(user)
    n = problem.artist_count
    high = max(9, *(max(row) for row in problem.streams))
    while True:
        column = [0 if rng.random() < 0.35 else rng.randint(1, high) for _ in range(n)]
        if any(column):
            break
    streams = tuple(row[:j] + (c,) + row[j + 1:] for row, c in zip(problem.streams, column))
    return _trusted(StreamingProblem, artists=problem.artists, users=problem.users,
                    streams=streams, fee=problem.fee)


def reference_fraud_pairs() -> tuple[tuple[StreamingProblem, StreamingProblem, str], ...]:
    """Fixed one-column rewrites checked alongside random perturbations."""
    base = new_problem(("1", "2"), ("a", "b"), ((10, 0), (0, 90)))
    deflated = new_problem(("1", "2"), ("a", "b"), ((10, 0), (0, 2)))
    return ((base, deflated, "b"),)


@dataclass(frozen=True)
class _Property:
    """One fairness property as data.

    ``premises(problem, rng)`` lazily yields every argument tuple the
    instance supports, in a fixed order, so the first failure and every
    ``rng`` draw are reproducible.  ``check(index, problem, *args)`` is the
    public checker; a failed verdict's witness holds its arguments, from
    ``problem`` on, under the checker's own parameter names, so
    :func:`recheck_witness` can replay it.  ``fixed()`` lists whole
    argument tuples, problem first, that the matrix checks after the
    reference problems.  Only a property that ``draws`` from ``rng`` gets
    one in the matrix: each ``random.Random`` holds about 2.5 KiB of
    Mersenne Twister state.
    """

    premises: Callable[[StreamingProblem, random.Random], Iterable[tuple]]
    check: Callable[..., AxiomVerdict]
    not_applicable: str
    fixed: Callable[[], Sequence[tuple]] = tuple
    draws: bool = False


_PROPERTIES: dict[str, _Property] = {
    HOMOGENEITY: _Property(_proportional_pairs, check_homogeneity, "no proportional artist pair"),
    # Odd masks keep the first user on the left, so every unordered split
    # is visited once; the full set is not a split.
    ADDITIVITY: _Property(
        lambda problem, rng: _user_subsets(problem, range(1, (1 << problem.user_count) - 1, 2)),
        check_additivity, "needs at least two users"),
    EQUAL_INDIVIDUAL_IMPACT: _Property(
        _equal_count_pairs, check_equal_individual_impact, "no equal-count user pair"),
    EQUAL_GLOBAL_IMPACT: _Property(
        lambda problem, rng: ((problem.users[0], u) for u in problem.users[1:]),
        check_equal_global_impact, "needs at least two users"),
    REASONABLE_LOWER_BOUND: _Property(
        lambda problem, rng: _user_subsets(problem, range(1, 1 << problem.user_count)),
        check_reasonable_lower_bound, "no user coalition"),
    CLICK_FRAUD_PROOFNESS: _Property(
        lambda problem, rng: ((_resampled_column(problem, u, rng), u)
                              for u in problem.users),
        check_click_fraud_proofness, "no user column to rewrite",
        fixed=reference_fraud_pairs, draws=True),
    CORE_SELECTION: _Property(
        lambda problem, rng: [()], check_core_selection,
        "never: the whole problem is the premise"),
}

AXIOM_NAMES: tuple[str, ...] = tuple(_PROPERTIES)


class _Draw(StreamingProblem):
    """A private copy of one drawn problem that builds each sub-problem once.

    ``split_problem``, ``remove_user`` and ``select_users`` all end in
    ``_columns``, which here looks the tuple of column positions up in
    ``_table`` first.  Every index's memo for the draw checks the same draw,
    so they share the table, and it is dropped with the draw.
    """

    def _columns(self, cols: Sequence[int]) -> StreamingProblem:
        key = tuple(cols)
        if (sub := self._table.get(key)) is None:
            sub = self._table[key] = super()._columns(cols)
        return sub


def _draw(problem: StreamingProblem) -> _Draw:
    """The problem as a :class:`_Draw` with an empty table; ``problem`` is left as it is."""
    return _trusted(_Draw, **vars(problem), _table={})


def _memo(index: Index, draw: StreamingProblem) -> Index:
    """The index with its scores cached per sub-problem of one drawn problem.

    Premise tuples and properties share sub-problems, so each is scored once
    per memo.  Every sub-problem (a split, a removal, a resampled column)
    keeps the draw's artists and fee objects, so the key is users and counts.
    The sub-problems themselves are built once per draw for all indices, in
    the table of the :class:`_Draw` that ``_run`` and ``evaluate_axiom`` check.
    """
    artists, fee, scores = draw.artists, draw.fee, {}

    def compute(problem: StreamingProblem) -> IndexValues:
        assert problem.artists is artists and problem.fee is fee, "not a sub-problem of the draw"
        key = problem.users, problem.streams
        if (values := scores.get(key)) is None:
            values = scores[key] = index.compute(problem)
        return values

    return Index(index.name, compute)


def _evaluate(memo: Index, axiom: str, problem: StreamingProblem,
              rng: random.Random) -> tuple[AxiomVerdict | None, int]:
    """A normalized property's first failure on one instance, or None, and the tuples checked."""
    prop, checked = _PROPERTIES[axiom], 0
    for args in prop.premises(problem, rng):
        checked += 1
        if (verdict := prop.check(memo, problem, *args)).failed:
            return verdict, checked
    return None, checked


def evaluate_axiom(index: Index, axiom: str, problem: StreamingProblem,
                   rng: random.Random | None = None) -> AxiomVerdict:
    """Check one property on one instance, exhausting its premise tuples."""
    axiom, draw = normalize_axiom(axiom), _draw(problem)
    failure, checked = _evaluate(_memo(index, draw), axiom, draw,
                                 rng if rng is not None else random.Random(0))
    if failure is None and checked:
        return _pass(axiom, index, f"{checked} premise tuples checked")
    return failure or AxiomVerdict(axiom, index.name, Status.NOT_APPLICABLE, None,
                                   _PROPERTIES[axiom].not_applicable)


# -- random instances and search -----------------------------------------

def _count(value: int, what: str = "budget") -> int:
    if type(value) is not int or value < 0:
        raise ModelError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ProblemGenerator:
    """Deterministic stream of small random problems.

    The same seed always yields the same sequence.  Columns are patched to
    stay nonempty, so every emitted problem is valid; rows may still be all
    zero, which keeps artists nobody streams in the mix.
    """

    seed: int = 0
    max_artists: int = 5
    max_users: int = 6
    max_streams: int = 9
    sparsity: float = 0.35
    min_artists: int = 1
    min_users: int = 1
    fee: int | Fraction = 1

    def __post_init__(self):
        for name in ("max_artists", "max_users", "max_streams", "min_artists", "min_users"):
            bound = getattr(self, name)
            if type(bound) is bool or not isinstance(bound, int):
                raise ModelError(f"{name} must be an integer, got {type(bound).__name__}")
        if as_rational(self.fee, "fee", NonPositiveFee) <= 0:
            raise NonPositiveFee(f"fee must be positive, got {self.fee}")
        if not (1 <= self.min_artists <= self.max_artists):
            raise ModelError("need 1 <= min_artists <= max_artists")
        if not (1 <= self.min_users <= self.max_users):
            raise ModelError("need 1 <= min_users <= max_users")
        if self.max_streams < 1:
            raise ModelError("max_streams must be at least 1")
        if type(self.sparsity) is bool or not isinstance(self.sparsity, Real):
            raise ModelError(f"sparsity must be a real number, got {type(self.sparsity).__name__}")
        if not (0 <= self.sparsity < 1):
            raise ModelError("sparsity must be in [0, 1)")

    def problems(self) -> Iterator[StreamingProblem]:
        rng = random.Random(self.seed)
        while True:
            yield self._draw(rng)

    def sample(self, count: int) -> list[StreamingProblem]:
        return list(islice(self.problems(), _count(count, "count")))

    def _draw(self, rng: random.Random) -> StreamingProblem:
        n = rng.randint(self.min_artists, self.max_artists)
        m = rng.randint(self.min_users, self.max_users)
        artists = tuple(str(i + 1) for i in range(n))
        users = tuple(string.ascii_lowercase[j] if j < 26 else f"u{j}"
                      for j in range(m))
        columns = []
        for _ in range(m):
            column = [0 if rng.random() < self.sparsity else
                      rng.randint(1, self.max_streams) for _ in range(n)]
            if not any(column):
                column[rng.randrange(n)] = rng.randint(1, self.max_streams)
            columns.append(column)
        streams = tuple(tuple(columns[j][i] for j in range(m)) for i in range(n))
        return new_problem(artists, users, streams, self.fee)


def reference_problems() -> tuple[StreamingProblem, ...]:
    """Small fixed instances every property check runs before searching.

    Chosen so that each property's premise enumeration is non-vacuous: a
    lopsided two-user split, its three-user extension, a pair of exactly
    proportional rows, an unstreamed artist next to equal counts, and a
    single-user edge case.
    """
    two_user_split = new_problem(("1", "2"), ("a", "b"), ((10, 0), (0, 90)))
    three_user_mix = new_problem(("1", "2"), ("a", "b", "c"), ((10, 0, 5), (0, 90, 35)))
    proportional_pair = new_problem(("1", "2", "3"), ("a", "b"), ((2, 4), (1, 2), (3, 1)))
    silent_artist = new_problem(("1", "2", "3"), ("a", "b", "c"),
                                ((3, 3, 1), (0, 0, 0), (1, 2, 3)))
    solo_listener = new_problem(("1", "2"), ("a",), ((1,), (2,)))
    return (two_user_split, three_user_mix, proportional_pair,
            silent_artist, solo_listener)


@dataclass
class _Cell:
    """One (index, property) check: its rng, its counts and its verdict.

    ``instances`` counts every instance checked, reference ones included;
    ``examined`` is how many came before the current run of instances, and
    ``applicable`` how many of that run passed.  ``verdict`` is set at the
    first failure, with ``note`` appended to its detail, and closes the cell.
    """

    index: Index
    axiom: str
    rng: random.Random | None = None
    note: str = ""
    instances: int = 0
    examined: int = 0
    applicable: int = 0
    verdict: AxiomVerdict | None = None

    def start(self, seed: int, tag: str = "", note: str = "") -> "_Cell":
        """Begin a run of instances drawing from the rng of (seed, index, axiom, tag)."""
        if _PROPERTIES[self.axiom].draws:
            self.rng = random.Random(f"{seed}:{self.index.name}:{self.axiom}{tag}")
        self.note, self.examined, self.applicable = note, self.instances, 0
        return self

    def record(self, failure: AxiomVerdict | None, checked: int) -> None:
        self.instances += 1
        if failure is not None:
            self.verdict = replace(failure, instances=self.instances,
                                   detail=failure.detail + self.note)
        elif checked:
            self.applicable += 1

    def result(self) -> AxiomVerdict:
        """The failing verdict, or a pass recording what the last run checked."""
        if self.verdict is not None:
            return self.verdict
        searched = self.instances - self.examined
        detail = (f"no violation in {self.examined} reference instances"
                  if self.examined and not searched else
                  f"no violation in {searched} instances ({self.applicable} applicable)")
        return AxiomVerdict(self.axiom, self.index.name, Status.PASS, None, detail,
                            instances=self.instances)


def _run(cells: Sequence[_Cell], problems: Iterable[StreamingProblem]) -> None:
    """Check the open cells on each problem in turn, drawing each once.

    The problem is the outer loop: every open cell sees it, in cell order,
    with one memo per index (consecutive cells of one index share it),
    before the next problem is drawn.  All of them check one :class:`_Draw`
    of it, so each sub-problem is built once.  No problem is drawn once
    every cell is closed, and none is kept after its turn.
    """
    problems = iter(problems)
    open_cells = [cell for cell in cells if cell.verdict is None]
    while open_cells and (problem := next(problems, None)) is not None:
        draw = _draw(problem)
        for index, group in groupby(open_cells, key=lambda cell: cell.index):
            memo = _memo(index, draw)
            for cell in group:
                cell.record(*_evaluate(memo, cell.axiom, draw, cell.rng))
        open_cells = [cell for cell in open_cells if cell.verdict is None]


def search_witness(index: Index, axiom: str, generator: ProblemGenerator,
                   budget: int) -> AxiomVerdict:
    """Hunt for a violation over ``budget`` generated instances.

    Returns the first failing verdict, or a pass verdict recording how many
    instances were applicable.  Deterministic in (seed, index, axiom).
    """
    cell = _Cell(index, normalize_axiom(axiom)).start(generator.seed)
    _run([cell], islice(generator.problems(), _count(budget)))
    return cell.result()


def axiom_matrix(indices: Sequence[Index],
                 axioms: Sequence[str] | None = None,
                 generator: ProblemGenerator | None = None,
                 budget: int = 200) -> dict[tuple[str, str], AxiomVerdict]:
    """Check every (index, property) pair on goldens plus random search.

    The fixed reference instances run first, so well-known violations are
    caught even at budget zero; the random search then takes over.  Both
    go through one loop that draws each problem once for all the cells
    still open.  Keys of the result are (index name, axiom name).
    """
    budget = _count(budget)
    axioms = AXIOM_NAMES if axioms is None else tuple(normalize_axiom(a) for a in axioms)
    generator = generator if generator is not None else ProblemGenerator()
    seed = generator.seed
    cells = [_Cell(index, axiom).start(seed, ":golden", " (reference instance)")
             for index in indices for axiom in axioms]
    _run(cells, reference_problems())
    for cell in cells:
        prop = _PROPERTIES[cell.axiom]
        for case in prop.fixed():
            if cell.verdict is None:
                verdict = prop.check(cell.index, *case)
                cell.record(verdict if verdict.failed else None, 1)
    _run([cell.start(seed) for cell in cells], islice(generator.problems(), budget))
    return {(cell.index.name, cell.axiom): cell.result() for cell in cells}


def matrix_to_rows(matrix: Mapping[tuple[str, str], AxiomVerdict]) -> list[dict]:
    """Flatten a matrix into JSON-ready rows, in insertion order."""
    return [verdict_to_dict(v) for v in matrix.values()]


def recheck_witness(index: Index, verdict: AxiomVerdict) -> bool:
    """Re-run a failed check from its own witness payload.

    Returns True when the violation reproduces.  Raises KeyError on a
    malformed payload, and returns False for verdicts that are not
    failures.
    """
    if verdict.status is not Status.FAIL or verdict.witness is None:
        return False
    check = _PROPERTIES[normalize_axiom(verdict.axiom)].check
    # The witness holds each argument after ``index`` under its parameter name;
    # problems (``problem``, click-fraud's ``perturbed``) are stored as dicts.
    args = [verdict.witness[name] for name in islice(inspect.signature(check).parameters, 1, None)]
    return check(index, *(problem_from_dict(a) if isinstance(a, dict) else a for a in args)).failed
