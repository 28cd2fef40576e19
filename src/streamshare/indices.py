"""Allocation indices and the reward rule that turns scores into money.

An index assigns every artist a nonnegative score; rewards are the scores
normalized to the platform revenue.  Two indices with proportional scores
therefore pay identically.  Besides the two standard schemes (pro-rata and
user-centric) this module ships a parametric family driven by per-user
weight functions, the banded compromise weights, and five deliberately
flawed reference indices used by the fairness checks in
:mod:`streamshare.axioms`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .model import (Allocation, ArtistMismatch, IndexValues, ModelError, ParseError,
                    StreamingProblem, UnknownUser, _over_lcm, _trusted, as_rational)


class NonPositiveWeight(ModelError):
    """A weight function returned a weight that is not a positive rational."""


class ZeroIndexSum(ModelError):
    """Rewards are undefined when every artist scores zero."""


@dataclass(frozen=True)
class Index:
    """A named allocation index: problem in, per-artist scores out."""

    name: str
    compute: Callable[[StreamingProblem], IndexValues]

    def __call__(self, problem: StreamingProblem) -> IndexValues:
        return self.compute(problem)

    def __repr__(self) -> str:
        return f"Index({self.name!r})"


@dataclass(frozen=True)
class WeightSystem:
    """Per-user weights for the weighted index family.

    ``weight(user, profile)`` receives the user's identifier and their
    column of stream counts and must return a strictly positive exact
    rational; anything else raises NonPositiveWeight.  The profile argument
    lets a weight depend on listening volume without seeing the rest of the
    matrix.
    """

    name: str
    weight: Callable[[str, tuple[int, ...]], Fraction | int]

    def __call__(self, user: str, profile: tuple[int, ...]) -> Fraction:
        raw = self.weight(user, profile)
        try:
            if (value := as_rational(raw)) > 0:
                return value
        except (TypeError, ParseError):
            pass
        raise NonPositiveWeight(f"weight system {self.name!r} returned {raw!r} "
                                f"for user {user!r}; need a positive rational")


@dataclass(frozen=True)
class BandedWeightParams:
    """Band edges for the banded weight system.  Requires 0 < alpha <= beta."""

    alpha: int
    beta: int

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ModelError(f"{name} must be an integer, got {value!r}")
        if not 0 < self.alpha <= self.beta:
            raise ModelError(
                f"need 0 < alpha <= beta, got alpha={self.alpha}, beta={self.beta}")


def _scores(artists: tuple[str, ...], numerators: list[int], common: int) -> IndexValues:
    """Scores ``numerators[i] / common``, built without revalidation.

    Every built-in kernel computes nonnegative integer numerators over one
    positive denominator, with at least one numerator positive, so the
    entries need no further checks.  Their Fractions are made on first read.
    """
    return _trusted(IndexValues, artists=artists, _integers=(common, numerators))


def _weighted(problem: StreamingProblem, pairs: list[tuple[int, int]]) -> IndexValues:
    """Artist i scores the sum over users j of ``p/q * count(i, j)``, ``(p, q) = pairs[j]``."""
    common, weights = _over_lcm(*zip(*pairs))
    return _scores(problem.artists,
                   [sum(w * c for w, c in zip(weights, row) if c) for row in problem.streams],
                   common)


def weighted_index(problem: StreamingProblem, weights: WeightSystem) -> IndexValues:
    """Score artists by weighted stream counts, one weight per user.

    Artist i scores the sum over users j of ``w_j * count(i, j)``, where
    ``w_j`` is ``weights(user, column)``, checked on every call.
    """
    return _weighted(problem, [weights(u, col).as_integer_ratio()
                               for u, col in zip(problem.users, zip(*problem.streams))])


def pro_rata_index(problem: StreamingProblem) -> IndexValues:
    """Score each artist by their total stream count."""
    return _weighted(problem, [(1, 1)] * problem.user_count)


def user_centric_index(problem: StreamingProblem) -> IndexValues:
    """Give each artist the sum of their shares of each user's listening.

    Every user contributes exactly one unit, split over the artists they
    streamed in proportion to their own counts, so the scores total the
    number of users.
    """
    return _weighted(problem, [(1, s) for s in map(sum, zip(*problem.streams))])


def _band(alpha: int, beta: int, s: int) -> tuple[int, int]:
    """The banded weight of a user with s streams, as a positive pair in lowest terms."""
    if s <= alpha:
        return 1, s
    if s <= beta:
        return 1, alpha
    g = math.gcd(beta, alpha * s)
    return beta // g, alpha * s // g


def banded_weight_system(params: BandedWeightParams) -> WeightSystem:
    """Weights that mute both very light and very heavy listeners.

    With band edges ``alpha <= beta`` and a user whose streams total ``s``:
    below the band each stream carries ``1/s`` (the user splits one unit,
    as in the user-centric index); inside the band it carries ``1/alpha``
    (pure per-stream pay, as in pro-rata up to scale); above the band it
    carries ``beta/(alpha*s)``, capping how much weight heavy listeners
    can pour onto their artists.
    """
    alpha, beta = params.alpha, params.beta
    # An empty or all-zero profile gets 0, which WeightSystem refuses as NonPositiveWeight.
    return WeightSystem(f"banded({alpha},{beta})", lambda user, profile: (
        Fraction(*_band(alpha, beta, s)) if (s := sum(profile)) else 0))


def table_weight_system(table: Mapping[str, int | str | Fraction]) -> WeightSystem:
    """Fixed per-user weights; any entry not a positive exact rational raises NonPositiveWeight."""
    try:
        converted = {u: as_rational(w, f"weight for user {u!r}", NonPositiveWeight)
                     for u, w in table.items()}
    except ParseError as exc:
        raise NonPositiveWeight(str(exc)) from None

    def weight(user: str, profile: tuple[int, ...]) -> Fraction:
        try:
            return converted[user]
        except KeyError:
            raise UnknownUser(user) from None

    system = WeightSystem("table", weight)
    for user in converted:  # every entry, also for users no problem has
        system(user, ())
    return system


def _check_artists(problem: StreamingProblem, values: IndexValues) -> None:
    """Raise ArtistMismatch unless ``values`` list the problem's artists, in order."""
    if values.artists != problem.artists:
        raise ArtistMismatch("index values computed for different artists")


def rewards(problem: StreamingProblem, values: IndexValues) -> Allocation:
    """Divide the revenue in proportion to the index scores.

    The payout vector is ``revenue * score / total_score``, so it is
    invariant under scaling all scores by the same positive rational.
    """
    _check_artists(problem, values)
    numerators = values._integers[1]
    if (total := sum(numerators)) <= 0:
        raise ZeroIndexSum("cannot divide revenue over an all-zero index")
    revenue = problem.revenue
    # Amount i is revenue * numerators[i] / total, so the amounts sum to ``revenue``.
    return _trusted(Allocation, artists=problem.artists, total=revenue,
                    _integers=(total * revenue.denominator,
                               [n * revenue.numerator for n in numerators]))


# -- reference indices with known defects --------------------------------
#
# Each of these is a plausible-looking scheme that breaks at least one of
# the fairness properties in streamshare.axioms.  They exist to exercise
# the checkers, not to be used for payment.

def uniform_index(problem: StreamingProblem) -> IndexValues:
    """Every artist scores 1, no matter what anybody streamed."""
    return _scores(problem.artists, [1] * problem.artist_count, 1)


def padded_share_index(problem: StreamingProblem) -> IndexValues:
    """Each cell is padded with the artist's total before normalizing.

    Score of artist i is the sum over users j of
    ``(count(i,j) + total(i)) / (user_total(j) + grand_total)``.
    """
    grand = problem.total_streams
    common, scales = _over_lcm([1] * problem.user_count,
                               [sum(col) + grand for col in zip(*problem.streams)])
    numerators = []
    for row in problem.streams:
        rt = sum(row)
        numerators.append(sum((c + rt) * k for c, k in zip(row, scales)))
    return _scores(problem.artists, numerators, common)


def squared_streams_index(problem: StreamingProblem) -> IndexValues:
    """Score each artist by the sum of squared per-user counts."""
    return _scores(problem.artists, [sum(c * c for c in row) for row in problem.streams], 1)


def stream_share_index(problem: StreamingProblem) -> IndexValues:
    """The artist's share of all streams, scaled by the user count."""
    m = problem.user_count
    return _scores(problem.artists, [sum(row) * m for row in problem.streams],
                   problem.total_streams)


def equal_split_index(problem: StreamingProblem) -> IndexValues:
    """Each user splits one unit equally over the artists they streamed."""
    common, shares = _over_lcm([1] * problem.user_count,
                               [len(col) - col.count(0) for col in zip(*problem.streams)])
    return _scores(problem.artists,
                   [sum(s for c, s in zip(row, shares) if c) for row in problem.streams],
                   common)


PRO_RATA = Index("pro-rata", pro_rata_index)
USER_CENTRIC = Index("user-centric", user_centric_index)
UNIFORM = Index("uniform", uniform_index)
PADDED_SHARE = Index("padded-share", padded_share_index)
SQUARED_STREAMS = Index("squared-streams", squared_streams_index)
STREAM_SHARE = Index("stream-share", stream_share_index)
EQUAL_SPLIT = Index("equal-split", equal_split_index)

REFERENCE_INDICES: tuple[Index, ...] = (
    UNIFORM, PADDED_SHARE, SQUARED_STREAMS, STREAM_SHARE, EQUAL_SPLIT)


def banded_index(alpha: int, beta: int) -> Index:
    """First-class banded index for a fixed pair of band edges."""
    name = banded_weight_system(BandedWeightParams(alpha, beta)).name
    return Index(name, lambda p: _weighted(
        p, [_band(alpha, beta, s) for s in map(sum, zip(*p.streams))]))


def index_from_weights(weights: WeightSystem) -> Index:
    """Wrap a weight system as a named index."""
    return Index(f"weighted[{weights.name}]", lambda p: weighted_index(p, weights))


def standard_indices(alpha: int | None = None, beta: int | None = None) -> dict[str, Index]:
    """All built-in indices by name, including banded when edges are given."""
    catalog = {idx.name: idx for idx in (PRO_RATA, USER_CENTRIC, *REFERENCE_INDICES)}
    if alpha is not None and beta is not None:
        banded = banded_index(alpha, beta)
        catalog[banded.name] = banded
        catalog["banded"] = banded
    return catalog
