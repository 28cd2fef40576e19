"""Shared builders and samplers for the test suite."""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain, compress, count, islice
from math import lcm
from typing import Mapping, Sequence

from streamshare import (
    AllZeroMatrix,
    Allocation,
    BankruptcyProblem,
    CeaAwards,
    CoalitionalGame,
    DimensionMismatch,
    DirectCoreResult,
    DividendTable,
    DuplicateIdentifier,
    EmptyUserColumn,
    FlowCoreResult,
    IndexValues,
    InvalidProblem,
    IssueWeightFunction,
    ModelError,
    MultiIssueClaims,
    NonPositiveFee,
    ParseError,
    PremiseViolated,
    StreamingProblem,
    SupermodularityResult,
    TooManyPlayers,
    WeightSystem,
    CoreDecomposition,
    as_rational,
    cea_awards,
    harsanyi_dividends,
    is_supermodular,
    new_problem,
)
from streamshare.axioms import (
    ADDITIVITY,
    AXIOM_NAMES,
    CLICK_FRAUD_PROOFNESS,
    EQUAL_GLOBAL_IMPACT,
    EQUAL_INDIVIDUAL_IMPACT,
    HOMOGENEITY,
    REASONABLE_LOWER_BOUND,
    AxiomVerdict,
    ProblemGenerator,
    Status,
    _PROPERTIES,
    _fail,
    _pass,
    normalize_axiom,
    reference_problems,
)
from streamshare.game import (
    MAX_ENUMERABLE_PLAYERS,
    _amounts,
    _check_cap,
    _coalition_keys,
    _first_violation,
    _pairs,
    _subset_sums,
    listened_mask,
)
from streamshare.indices import Index, rewards
from streamshare.model import (
    _over_common_denominator,
    _trusted,
    problem_to_dict,
    split_problem,
)


def two_user_problem(fee: int | Fraction = 1) -> StreamingProblem:
    """Two artists, two users: artist 1 has a lone fan, artist 2 a heavy one."""
    return new_problem(["1", "2"], ["a", "b"], [[10, 0], [0, 90]], fee=fee)


def three_user_problem(fee: int | Fraction = 1) -> StreamingProblem:
    """The two-user matrix plus a third user who streams both artists."""
    return new_problem(["1", "2"], ["a", "b", "c"], [[10, 0, 5], [0, 90, 35]], fee=fee)


def random_member(problem: StreamingProblem, rng: random.Random) -> list[Fraction]:
    """A random allocation built user by user, so it sits in the core.

    Each user's fee is split across the artists that user listened to,
    with random nonnegative integer weights (at least one positive).
    """
    amounts = [Fraction(0)] * problem.artist_count
    for user in problem.users:
        listened = [
            i for i, a in enumerate(problem.artists) if a in problem.listened_set(user)
        ]
        weights = [rng.randint(0, 5) for _ in listened]
        if not any(weights):
            weights[rng.randrange(len(listened))] = 1
        total = sum(weights)
        for i, w in zip(listened, weights):
            amounts[i] += Fraction(w, total) * problem.fee
    return amounts


def perturbed_allocation(problem: StreamingProblem, rng: random.Random) -> list[Fraction]:
    """A core member with a few random transfers applied; may leave the core."""
    amounts = random_member(problem, rng)
    n = len(amounts)
    for _ in range(rng.randint(1, 3)):
        i, k = rng.randrange(n), rng.randrange(n)
        shift = Fraction(rng.randint(1, 4), rng.randint(1, 7))
        amounts[i] += shift
        amounts[k] -= shift
    return amounts


def resampled_column(
    problem: StreamingProblem, user: str, rng: random.Random
) -> StreamingProblem:
    """Replace one user's column with a fresh random nonzero column."""
    j = problem.user_index(user)
    high = max(9, max(max(row) for row in problem.streams))
    while True:
        column = [
            rng.randint(1, high) if rng.random() < 0.5 else 0
            for _ in range(problem.artist_count)
        ]
        if any(column):
            break
    streams = tuple(
        tuple(column[i] if k == j else cell for k, cell in enumerate(row))
        for i, row in enumerate(problem.streams)
    )
    return StreamingProblem(problem.artists, problem.users, streams, problem.fee)


def sparse_problem_with_silent_artists(seed: int, fee: int | Fraction = 1) -> StreamingProblem:
    """A seeded 40 x 300 matrix in which every fifth artist has no streams."""
    rng = random.Random(seed)
    n, m = 40, 300
    streams = [[0] * m for _ in range(n)]
    played = [i for i in range(n) if i % 5]
    for j in range(m):
        for i in rng.sample(played, rng.randint(1, 4)):
            streams[i][j] = rng.randint(1, 50)
    return new_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(m)], streams,
                       fee=fee)


# -- reference index loops ---------------------------------------------------
#
# The per-user Fraction loops that computed pro-rata, user-centric and the
# weighted family before they shared one common-denominator kernel.  Kept
# unchanged as the reference for the differential test of that kernel.


def reference_pro_rata_index(problem: StreamingProblem) -> IndexValues:
    scores = tuple(Fraction(sum(row)) for row in problem.streams)
    return IndexValues(problem.artists, scores)


def reference_user_centric_index(problem: StreamingProblem) -> IndexValues:
    totals = [problem.user_total(u) for u in problem.users]
    scores = []
    for row in problem.streams:
        scores.append(sum((Fraction(c, t) for c, t in zip(row, totals) if c), Fraction(0)))
    return IndexValues(problem.artists, tuple(scores))


def reference_weighted_index(problem: StreamingProblem, weights: WeightSystem) -> IndexValues:
    per_user = [weights(u, problem.profile(u)) for u in problem.users]
    scores = []
    for row in problem.streams:
        scores.append(sum((w * c for w, c in zip(per_user, row) if c), Fraction(0)))
    return IndexValues(problem.artists, tuple(scores))


# -- reference Fraction-weight kernels --------------------------------------
#
# The common-denominator kernels as they ran when every weight, and every
# equal-split and padded-share column factor, was a Fraction: each built-in
# weight system was an ordinary WeightSystem called and checked once per user,
# and the lcm was taken over the Fractions' denominators.  Kept unchanged as
# the reference for the differential test of the integer-weight kernels; each
# returns the ``_integers`` pair ``(d, numerators)``.

REFERENCE_UNIT = WeightSystem("unit", lambda user, profile: 1)
REFERENCE_INVERSE_TOTAL = WeightSystem("inverse-total",
                                       lambda user, profile: Fraction(1, sum(profile)))


def reference_banded_weight_system(alpha: int, beta: int) -> WeightSystem:
    def weight(user: str, profile: tuple[int, ...]) -> Fraction:
        s = sum(profile)
        if s <= alpha:
            return Fraction(1, s)
        if s <= beta:
            return Fraction(1, alpha)
        return Fraction(beta, alpha * s)

    return WeightSystem(f"banded({alpha},{beta})", weight)


def reference_fraction_weighted_integers(problem: StreamingProblem,
                                         weights: WeightSystem) -> tuple[int, list[int]]:
    per_user = [weights(u, col) for u, col in zip(problem.users, zip(*problem.streams))]
    common, scaled = _over_common_denominator(per_user)
    return common, [sum(w * c for w, c in zip(scaled, row) if c) for row in problem.streams]


def reference_fraction_padded_share_integers(problem: StreamingProblem
                                             ) -> tuple[int, list[int]]:
    grand = problem.total_streams
    common, scales = _over_common_denominator(
        [Fraction(1, sum(col) + grand) for col in zip(*problem.streams)])
    numerators = []
    for row in problem.streams:
        rt = sum(row)
        numerators.append(sum((c + rt) * k for c, k in zip(row, scales)))
    return common, numerators


def reference_fraction_equal_split_integers(problem: StreamingProblem
                                            ) -> tuple[int, list[int]]:
    common, shares = _over_common_denominator(
        [Fraction(1, len(col) - col.count(0)) for col in zip(*problem.streams)])
    return common, [sum(s for c, s in zip(row, shares) if c) for row in problem.streams]


# -- reference Fraction-sum kernels and totals ------------------------------
#
# The built-in kernels, the values total and the payout rule as they ran when
# every score was a Fraction added one at a time and every IndexValues and
# Allocation was revalidated.  Kept unchanged as the reference for the
# differential test of the integer-numerator kernels and the trusted
# construction of their values.


def reference_uniform_scores(problem: StreamingProblem) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) for _ in problem.artists)


def reference_padded_share_scores(problem: StreamingProblem) -> tuple[Fraction, ...]:
    grand = problem.total_streams
    row_totals = [sum(row) for row in problem.streams]
    col_totals = [sum(col) for col in zip(*problem.streams)]
    scores = []
    for row, rt in zip(problem.streams, row_totals):
        scores.append(sum((Fraction(c + rt, ct + grand) for c, ct in zip(row, col_totals)),
                          Fraction(0)))
    return tuple(scores)


def reference_squared_streams_scores(problem: StreamingProblem) -> tuple[Fraction, ...]:
    return tuple(Fraction(sum(c * c for c in row)) for row in problem.streams)


def reference_stream_share_scores(problem: StreamingProblem) -> tuple[Fraction, ...]:
    grand = problem.total_streams
    m = problem.user_count
    return tuple(Fraction(sum(row) * m, grand) for row in problem.streams)


def reference_equal_split_scores(problem: StreamingProblem) -> tuple[Fraction, ...]:
    sizes = [len(col) - col.count(0) for col in zip(*problem.streams)]
    scores = []
    for row in problem.streams:
        scores.append(sum((Fraction(1, k) for c, k in zip(row, sizes) if c), Fraction(0)))
    return tuple(scores)


REFERENCE_KERNEL_SCORES = {
    "pro-rata": lambda problem: reference_pro_rata_index(problem).scores,
    "user-centric": lambda problem: reference_user_centric_index(problem).scores,
    "uniform": reference_uniform_scores,
    "padded-share": reference_padded_share_scores,
    "squared-streams": reference_squared_streams_scores,
    "stream-share": reference_stream_share_scores,
    "equal-split": reference_equal_split_scores,
}


def reference_total(values: Sequence[Fraction]) -> Fraction:
    return sum(values, Fraction(0))


def reference_rewards(problem: StreamingProblem,
                      values: IndexValues) -> tuple[Fraction, ...]:
    total = reference_total(values.scores)
    revenue = problem.revenue
    return tuple(s * revenue / total for s in values.scores)


def reference_decomposition_amounts(decomposition: CoreDecomposition) -> tuple[Fraction, ...]:
    return tuple(sum(row[i] for row in decomposition.shares)
                 for i in range(len(decomposition.artists)))


def revalidated(problem: StreamingProblem) -> StreamingProblem:
    """The same fields passed again through the validating constructor."""
    return new_problem(problem.artists, problem.users, problem.streams, problem.fee)


# -- reference parsers and validation ------------------------------------------
#
# The validating constructor and the JSON and CSV parsers as they ran when
# every stream count was converted and checked in a per-cell loop, and then
# checked again, entry by entry, by the constructor.  Kept as the reference
# for the differential test of the whole-row checks; the parsers differ from
# their old source only in building through ``reference_new_problem``.


def reference_new_problem(artists: Sequence[str], users: Sequence[str],
                          streams: Sequence[Sequence[int]],
                          fee: int | str | Fraction = 1) -> StreamingProblem:
    artists = tuple(artists)
    users = tuple(users)
    streams = tuple(tuple(row) for row in streams)
    fee = as_rational(fee, "fee", NonPositiveFee)
    for name, ids in (("artist", artists), ("user", users)):
        for ident in ids:
            if not isinstance(ident, str) or not ident:
                raise DimensionMismatch(f"every {name} identifier must be a nonempty string")
        if len(set(ids)) != len(ids):
            raise DuplicateIdentifier(f"duplicate {name} identifier")
    if not artists:
        raise DimensionMismatch("need at least one artist")
    if not users:
        raise DimensionMismatch("need at least one user")
    if len(streams) != len(artists):
        raise DimensionMismatch(
            f"{len(artists)} artists but {len(streams)} matrix rows")
    for row in streams:
        if len(row) != len(users):
            raise DimensionMismatch(
                f"{len(users)} users but a matrix row of length {len(row)}")
        for cell in row:
            if isinstance(cell, bool) or not isinstance(cell, int):
                raise DimensionMismatch(f"stream counts must be integers, got {cell!r}")
            if cell < 0:
                raise DimensionMismatch(f"stream counts must be nonnegative, got {cell}")
    if fee <= 0:
        raise NonPositiveFee(f"fee must be positive, got {fee}")
    if sum(sum(row) for row in streams) == 0:
        raise AllZeroMatrix("every stream count is zero")
    for j, user in enumerate(users):
        if all(row[j] == 0 for row in streams):
            raise EmptyUserColumn(user)
    return _trusted(StreamingProblem, artists=artists, users=users, streams=streams, fee=fee)


def reference_problem_from_dict(data: Mapping) -> StreamingProblem:
    if not isinstance(data, Mapping):
        raise ParseError("top level must be an object")
    for key in ("artists", "users", "streams"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    artists = data["artists"]
    users = data["users"]
    streams = data["streams"]
    if (not isinstance(artists, list) or not isinstance(users, list)
            or not isinstance(streams, list)):
        raise ParseError("'artists', 'users' and 'streams' must be arrays")
    for row in streams:
        if not isinstance(row, list):
            raise ParseError("'streams' must be an array of arrays")
        for cell in row:
            if isinstance(cell, bool) or not isinstance(cell, int):
                raise ParseError(f"stream counts must be integers, got {cell!r}")
    fee = as_rational(data.get("fee", 1), "fee", ParseError)
    return reference_new_problem(artists, users, streams, fee)


def reference_parse_csv(text: str) -> StreamingProblem:
    lines = [ln for ln in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input", line=1)
    header = [cell.strip() for cell in lines[0].split(",")]
    if not header or header[0] != "artist":
        raise ParseError("header must start with 'artist'", line=1, field=1)
    users = header[1:]
    if not users:
        raise ParseError("header names no users", line=1)
    artists: list[str] = []
    rows: list[list[int]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in raw.split(",")]
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(cells)}", line=lineno)
        artists.append(cells[0])
        row = []
        for fieldno, cell in enumerate(cells[1:], start=2):
            try:
                value = int(cell)
            except ValueError:
                raise ParseError(f"not an integer: {cell!r}",
                                 line=lineno, field=fieldno) from None
            if value < 0:
                raise ParseError(f"negative stream count: {value}",
                                 line=lineno, field=fieldno)
            row.append(value)
        rows.append(row)
    if not artists:
        raise ParseError("no artist rows", line=2)
    return reference_new_problem(artists, users, rows)


# -- reference claims loops --------------------------------------------------
#
# The running Fraction sums that computed the proportional rule, the issue-size
# weights, weighted proportional awards and two-stage awards before every sum
# in the claims module went through one common denominator.  Kept unchanged as
# the reference for the differential test of those rules; rule names resolve
# to the reference proportional rule.


def reference_proportional_rule(problem: BankruptcyProblem) -> tuple[Fraction, ...]:
    total = sum(problem.claims)
    if total == 0:
        return tuple(Fraction(0) for _ in problem.claims)
    return tuple(c * problem.endowment / total for c in problem.claims)


reference_issue_size_weights = IssueWeightFunction(
    "issue-size",
    lambda totals, endowment: tuple(t / sum(totals) for t in totals),
)

REFERENCE_RULES = {"proportional": reference_proportional_rule, "cea": cea_awards}


# The constrained-equal-awards rule before it ran on integers over one common
# denominator: a Fraction sort and a running Fraction remainder.  Kept
# unchanged as the reference for the differential test of ``cea_rule``.
def reference_cea_rule(problem: BankruptcyProblem) -> CeaAwards:
    n = len(problem.claims)
    order = sorted(range(n), key=lambda i: problem.claims[i])
    awards = [Fraction(0)] * n
    remaining = problem.endowment
    for position, agent in enumerate(order):
        level = remaining / (n - position)
        if problem.claims[agent] >= level:
            for other in order[position:]:
                awards[other] = level
            return CeaAwards(tuple(awards), level)
        awards[agent] = problem.claims[agent]
        remaining -= problem.claims[agent]
    # Everyone was paid in full, which means the endowment equals the
    # total claims; the largest claim is the smallest valid level.
    return CeaAwards(tuple(awards), max(problem.claims, default=Fraction(0)))


def reference_weighted_proportional(problem: MultiIssueClaims,
                                    weight_function: IssueWeightFunction) -> tuple[Fraction, ...]:
    totals = problem.issue_totals()
    weights = weight_function(totals, problem.endowment)
    awards = []
    for row in problem.claims:
        awards.append(sum(
            (c / t * w * problem.endowment for c, t, w in zip(row, totals, weights) if c),
            Fraction(0)))
    return tuple(awards)


def reference_two_stage_rule(problem: MultiIssueClaims, issue_stage, agent_stage
                             ) -> tuple[Fraction, ...]:
    psi = issue_stage if callable(issue_stage) else REFERENCE_RULES[issue_stage]
    phi = agent_stage if callable(agent_stage) else REFERENCE_RULES[agent_stage]
    totals = problem.issue_totals()
    try:
        issue_budgets = psi(BankruptcyProblem(problem.issues, totals, problem.endowment))
    except InvalidProblem as exc:
        raise InvalidProblem(f"issue stage: {exc}") from exc
    awards = [Fraction(0)] * len(problem.agents)
    for j, budget in enumerate(issue_budgets):
        column = tuple(row[j] for row in problem.claims)
        try:
            column_awards = phi(BankruptcyProblem(problem.agents, column, budget))
        except InvalidProblem as exc:
            raise InvalidProblem(
                f"agent stage, issue {problem.issues[j]!r}: {exc}") from exc
        for i, award in enumerate(column_awards):
            awards[i] += award
    return tuple(awards)


# ``streaming_to_claims`` and the stage contract of ``two_stage_rule`` before
# streaming claims and the built-in rules skipped revalidation: every claim
# went through the public constructors and every award was coerced again.
# Kept unchanged as the reference for the differential test of that path.
def reference_streaming_to_claims(problem: StreamingProblem) -> MultiIssueClaims:
    return MultiIssueClaims(
        agents=problem.artists,
        issues=problem.users,
        claims=problem.streams,
        endowment=problem.revenue,
    )


def reference_stage(rule, claimant: str, stage: str, claimants: tuple[str, ...],
                    claims: Sequence[Fraction], endowment: Fraction) -> tuple[Fraction, ...]:
    try:
        awards = tuple(as_rational(a, "awards must be exact rationals; each entry",
                                   InvalidProblem)
                       for a in rule(BankruptcyProblem(claimants, claims, endowment)))
        if len(awards) != len(claimants):
            raise InvalidProblem(f"one award per {claimant} required")
        if any(a.numerator < 0 for a in awards):
            raise InvalidProblem("awards must be nonnegative")
    except InvalidProblem as exc:
        raise InvalidProblem(f"{stage}: {exc}") from exc
    return awards


# -- reference coalition loops ------------------------------------------------
#
# The Fraction loops over 2**n coalitions that built streaming games, checked
# supermodularity over every nested pair, enumerated the core and ran the
# Moebius transforms before the coalition layer moved to integers over one
# common denominator.  Kept unchanged as the reference for the differential
# test of that layer.


def reference_subset_sums(table: list, n: int, combine=operator.add) -> None:
    for bit in range(n):
        step = 1 << bit
        for mask in range(1 << n):
            if mask & step:
                table[mask] = combine(table[mask], table[mask ^ step])


def reference_sliced_subset_sums(table: list, n: int, combine=operator.add) -> None:
    """The transform as it ran before its slice pairs were cut into blocks.

    Each pair of :func:`_pairs` copied both of its slices whole.
    """
    for bit in range(n):
        for high, low in _pairs(n, bit):
            table[high] = map(combine, table[high], table[low])


def reference_streaming_game(problem: StreamingProblem) -> CoalitionalGame:
    n = problem.artist_count
    if n > MAX_ENUMERABLE_PLAYERS:
        raise TooManyPlayers(
            f"{n} artists exceeds the {MAX_ENUMERABLE_PLAYERS}-player cap")
    counts = [0] * (1 << n)
    for user in problem.users:
        counts[listened_mask(problem, user)] += 1
    reference_subset_sums(counts, n)
    return CoalitionalGame(problem.artists, tuple(c * problem.fee for c in counts))


def reference_is_supermodular(game: CoalitionalGame) -> SupermodularityResult:
    v = game.values
    n = game.player_count
    full = (1 << n) - 1
    for large in range(1 << n):
        small = large
        while True:
            outside = full & ~large
            while outside:
                bit = outside & -outside
                if v[small | bit] - v[small] > v[large | bit] - v[large]:
                    return SupermodularityResult(False, (small, large, bit))
                outside ^= bit
            if small == 0:
                break
            small = (small - 1) & large
    return SupermodularityResult(True)


def reference_harsanyi_dividends(game: CoalitionalGame) -> DividendTable:
    table = list(game.values)
    reference_subset_sums(table, game.player_count, operator.sub)
    return DividendTable(game.players, tuple(table))


def reference_reconstruct_from_dividends(
    dividends: DividendTable | Mapping[int, Fraction],
    players: Sequence[str] | None = None,
) -> CoalitionalGame:
    if isinstance(dividends, DividendTable):
        players = dividends.players
        table = list(dividends.dividends)
    else:
        if players is None:
            raise ModelError("players required when dividends come as a mapping")
        table = [Fraction(0)] * (1 << len(players))
        for mask, value in dividends.items():
            table[mask] = as_rational(value, "dividend")
    reference_subset_sums(table, len(players))
    return CoalitionalGame(tuple(players), tuple(table))


def shapley_from_dividends(table: DividendTable) -> tuple[Fraction, ...]:
    """The Shapley value: each dividend split equally among its coalition's members.

    Shapley (1953) in Harsanyi's (1963) form; a test-only cross-check of the
    game layer, since the equal-split index pays exactly this.
    """
    n = len(table.players)
    values = [Fraction(0)] * n
    for mask, dividend in table.nonzero():
        members = [i for i in range(n) if mask >> i & 1]
        for i in members:
            values[i] += dividend / len(members)
    return tuple(values)


def reference_in_core_direct(game: CoalitionalGame,
                             allocation: Allocation | Sequence[Fraction]) -> DirectCoreResult:
    amounts = _amounts(allocation, game.player_count)
    n = game.player_count
    if sum(amounts) != game.grand_value:
        return DirectCoreResult(False, False, None, game.players)
    totals = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + amounts[low.bit_length() - 1]
        if totals[mask] < game.values[mask]:
            return DirectCoreResult(False, True, mask, game.players)
    return DirectCoreResult(True, True, None, game.players)


# -- reference integer coalition tables -----------------------------------------
#
# The integer streaming game that scaled its histogram by the fee after the
# transform, and the enumeration oracle that doubled one running table of
# 2**n coalition payouts, as they ran before the oracle walked its masks in
# blocks.  Kept unchanged as the reference for the differential test of both.


def reference_scaled_streaming_game(problem: StreamingProblem) -> CoalitionalGame:
    n = problem.artist_count
    _check_cap(n, "artists")
    counts = [0] * (1 << n)
    bits = [1 << i for i in range(n)]
    for column in zip(*problem.streams):
        counts[sum(compress(bits, column))] += 1
    _subset_sums(counts, n)
    fee = problem.fee
    return _trusted(CoalitionalGame, players=problem.artists,
                    _integers=(fee.denominator, [c * fee.numerator for c in counts]))


def reference_doubling_in_core_direct(game: CoalitionalGame,
                                      allocation: Allocation | Sequence[Fraction]
                                      ) -> DirectCoreResult:
    amounts = _amounts(allocation, game.player_count)
    d, worths = game._integers
    _, (factor, *units) = _over_common_denominator((Fraction(1, d), *amounts))
    if sum(units) != worths[-1] * factor:
        return DirectCoreResult(False, False, None, game.players)
    totals = [0]
    for unit in units:
        start = len(totals)
        added = list(map(unit.__add__, totals))
        floor = worths[start:2 * start]
        if factor != 1:
            floor = map(factor.__mul__, floor)
        blocking = next(compress(count(start), map(operator.lt, added, floor)), None)
        if blocking is not None:
            return DirectCoreResult(False, True, blocking, game.players)
        totals += added
    return DirectCoreResult(True, True, None, game.players)


# -- reference max-flow -------------------------------------------------------
#
# The Edmonds-Karp network, one full BFS per augmenting path, and the flow core
# oracle on top of it, as they ran before Dinic's algorithm.  Kept unchanged as
# the reference for the differential test of the flow layer.


class ReferenceFlowNetwork:
    """Minimal integer max-flow with shortest augmenting paths."""

    def __init__(self, nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, source: int, sink: int) -> int:
        total = 0
        while True:
            parent_edge = [-1] * len(self.adj)
            parent_edge[source] = -2
            queue = [source]
            for u in queue:
                if u == sink:
                    break
                for idx in self.adj[u]:
                    v = self.to[idx]
                    if parent_edge[v] == -1 and self.cap[idx] > 0:
                        parent_edge[v] = idx
                        queue.append(v)
            if parent_edge[sink] == -1:
                return total
            bottleneck = None
            v = sink
            while v != source:
                idx = parent_edge[v]
                if bottleneck is None or self.cap[idx] < bottleneck:
                    bottleneck = self.cap[idx]
                v = self.to[idx ^ 1]
            v = sink
            while v != source:
                idx = parent_edge[v]
                self.cap[idx] -= bottleneck
                self.cap[idx ^ 1] += bottleneck
                v = self.to[idx ^ 1]
            total += bottleneck

    def flow_through(self, idx: int) -> int:
        return self.cap[idx ^ 1]


def reference_in_core_flow(problem: StreamingProblem,
                           allocation: Allocation | Sequence[Fraction]) -> FlowCoreResult:
    amounts = _amounts(allocation, problem.artist_count)
    if any(a < 0 for a in amounts):
        return FlowCoreResult(False, None, "negative amount")
    if sum(amounts) != problem.revenue:
        return FlowCoreResult(False, None, "amounts do not sum to the revenue")
    n, m = problem.artist_count, problem.user_count
    scale = lcm(problem.fee.denominator, *(a.denominator for a in amounts))
    fee_units = problem.fee * scale
    source, sink = 0, 1 + m + n
    net = ReferenceFlowNetwork(n + m + 2)
    for j in range(m):
        net.add_edge(source, 1 + j, int(fee_units))
    arc_index: dict[tuple[int, int], int] = {}
    for i, row in enumerate(problem.streams):
        for j, count in enumerate(row):
            if count > 0:
                arc_index[(j, i)] = net.add_edge(1 + j, 1 + m + i, int(fee_units))
    for i, amount in enumerate(amounts):
        net.add_edge(1 + m + i, sink, int(amount * scale))
    if net.max_flow(source, sink) != int(m * fee_units):
        return FlowCoreResult(False, None, "some user's fee cannot reach their artists")
    shares = []
    for j, user in enumerate(problem.users):
        row = [Fraction(0)] * problem.artist_count
        for i in range(problem.artist_count):
            idx = arc_index.get((j, i))
            if idx is not None:
                row[i] = Fraction(net.flow_through(idx), scale)
        shares.append(tuple(row))
    decomposition = CoreDecomposition(
        problem.artists, problem.users, tuple(shares), problem.fee)
    return FlowCoreResult(True, decomposition)


# -- reference local supermodularity test -------------------------------------

# Shapley's pairwise test as it ran with player i's gains in a full 2**n table
# that is zero wherever bit i is clear.  Kept unchanged as the reference for
# the differential test of the packed 2**(n-1) table.


def reference_local_is_supermodular(game: CoalitionalGame) -> SupermodularityResult:
    n = game.player_count
    worths = game._integers[1]
    for i in range(n):
        gains = [0] * (1 << n)
        for high, low in _pairs(n, i):
            gains[high] = map(operator.sub, worths[high], worths[low])
        for j in range(i + 1, n):
            for high, low in _pairs(n, j):
                if not all(map(operator.ge, gains[high], gains[low])):
                    return SupermodularityResult(False, _first_violation(worths, n))
    return SupermodularityResult(True)


# -- reference gains picked by flags -----------------------------------------

# Shapley's pairwise test as it ran with player i's half-size gains table
# picked out of the worths by a 2**n list of flags and a shifted copy of the
# worths.  Kept unchanged as the reference for the differential test of the
# gains filled from slice pairs.


def reference_compressed_is_supermodular(game: CoalitionalGame) -> SupermodularityResult:
    n = game.player_count
    worths = game._integers[1]
    for i in range(n - 1):
        step = 1 << i
        lacks_i = ([True] * step + [False] * step) * (1 << (n - 1 - i))
        gains = list(map(operator.sub, compress(worths[step:], lacks_i),
                         compress(worths, lacks_i)))
        for j in range(i, n - 1):
            for high, low in _pairs(n - 1, j):
                if not all(map(operator.ge, gains[high], gains[low])):
                    return SupermodularityResult(False, _first_violation(worths, n))
    return SupermodularityResult(True)


# -- reference per-cell property search ---------------------------------------

# The property matrix as it ran one (index, property) cell at a time: each
# cell replayed the generator on its own and each instance got a fresh score
# memo.  Kept unchanged as the reference for the differential test of the
# joint search that draws each problem once.


def reference_evaluate_axiom(index: Index, axiom: str, problem: StreamingProblem,
                             rng: random.Random | None = None) -> AxiomVerdict:
    axiom = normalize_axiom(axiom)
    prop = _PROPERTIES[axiom]
    memo = Index(index.name, functools.cache(index.compute))
    checked = 0
    for args in prop.premises(problem, rng if rng is not None else random.Random(0)):
        checked += 1
        verdict = prop.check(memo, problem, *args)
        if verdict.failed:
            return verdict
    if not checked:
        return AxiomVerdict(axiom, index.name, Status.NOT_APPLICABLE, None, prop.not_applicable)
    return _pass(axiom, index, f"{checked} premise tuples checked")


def reference_search_witness(index: Index, axiom: str, generator: ProblemGenerator,
                             budget: int) -> AxiomVerdict:
    axiom = normalize_axiom(axiom)
    rng = random.Random(f"{generator.seed}:{index.name}:{axiom}")
    applicable = 0
    total = 0
    for problem in islice(generator.problems(), budget):
        total += 1
        verdict = reference_evaluate_axiom(index, axiom, problem, rng)
        if verdict.failed:
            return replace(verdict, instances=total)
        if verdict.status is Status.PASS:
            applicable += 1
    return AxiomVerdict(axiom, index.name, Status.PASS, None,
                        f"no violation in {total} instances ({applicable} applicable)",
                        instances=total)


def reference_axiom_matrix(indices: Sequence[Index],
                           axioms: Sequence[str] | None = None,
                           generator: ProblemGenerator | None = None,
                           budget: int = 200) -> dict[tuple[str, str], AxiomVerdict]:
    axioms = AXIOM_NAMES if axioms is None else tuple(normalize_axiom(a) for a in axioms)
    generator = generator if generator is not None else ProblemGenerator()
    goldens = reference_problems()
    matrix: dict[tuple[str, str], AxiomVerdict] = {}
    for index in indices:
        for axiom in axioms:
            prop = _PROPERTIES[axiom]
            rng = random.Random(f"{generator.seed}:{index.name}:{axiom}:golden")
            references = chain(
                (reference_evaluate_axiom(index, axiom, problem, rng) for problem in goldens),
                (prop.check(index, *case) for case in prop.fixed()))
            verdict = None
            examined = 0
            for candidate in references:
                examined += 1
                if candidate.failed:
                    verdict = replace(candidate, instances=examined,
                                      detail=candidate.detail + " (reference instance)")
                    break
            if verdict is None and budget > 0:
                searched = reference_search_witness(index, axiom, generator, budget)
                verdict = replace(searched, instances=searched.instances + examined)
            if verdict is None:
                verdict = AxiomVerdict(axiom, index.name, Status.PASS, None,
                                       f"no violation in {examined} reference instances",
                                       instances=examined)
            matrix[(index.name, axiom)] = verdict
    return matrix


# -- reference Fraction checks ------------------------------------------------

# The six premise-bearing property checks and the proportional-pair premise as
# they ran when every check read the scores as Fractions, added them and
# compared the sums.  Kept unchanged as the reference for the differential
# test of the checks that cross-multiply integer numerators.


def reference_check_homogeneity(index: Index, problem: StreamingProblem,
                                artist: str, other: str, factor) -> AxiomVerdict:
    factor = as_rational(factor, "factor")
    if factor < 0:
        raise PremiseViolated("factor must be nonnegative")
    if artist == other:
        raise PremiseViolated("need two distinct artists")
    row = problem.streams[problem.artist_index(artist)]
    row2 = problem.streams[problem.artist_index(other)]
    if any(c != factor * c2 for c, c2 in zip(row, row2)):
        raise PremiseViolated(
            f"row of {artist!r} is not {factor} times the row of {other!r}")
    values = index(problem)
    got, expected = values[artist], factor * values[other]
    if got == expected:
        return _pass(HOMOGENEITY, index)
    return _fail(HOMOGENEITY, index, problem, f"score of {artist!r} is {got}, expected {expected}",
                 artist=artist, other=other, factor=str(factor), score=str(got),
                 expected=str(expected))


def reference_check_additivity(index: Index, problem: StreamingProblem,
                               first_group: Sequence[str]) -> AxiomVerdict:
    part1, part2 = split_problem(problem, first_group)
    scores = zip(problem.artists, index(problem).scores,
                 index(part1).scores, index(part2).scores)
    for artist, whole, left, right in scores:
        total = left + right
        if whole != total:
            return _fail(ADDITIVITY, index, problem,
                         f"score of {artist!r} is {whole}, parts sum to {total}",
                         first_group=sorted(part1.users), artist=artist, whole=str(whole),
                         parts_sum=str(total))
    return _pass(ADDITIVITY, index)


def reference_check_equal_individual_impact(index: Index, problem: StreamingProblem,
                                            artist: str, user: str,
                                            other_user: str) -> AxiomVerdict:
    if user == other_user:
        raise PremiseViolated("need two distinct users")
    i = problem.artist_index(artist)
    if (problem.streams[i][problem.user_index(user)]
            != problem.streams[i][problem.user_index(other_user)]):
        raise PremiseViolated(
            f"users {user!r} and {other_user!r} stream {artist!r} unequally")
    without_user = index(problem.remove_user(user))[artist]
    without_other = index(problem.remove_user(other_user))[artist]
    if without_user == without_other:
        return _pass(EQUAL_INDIVIDUAL_IMPACT, index)
    return _fail(EQUAL_INDIVIDUAL_IMPACT, index, problem,
                 f"removing {user!r} leaves {without_user}, "
                 f"removing {other_user!r} leaves {without_other}",
                 artist=artist, user=user, other_user=other_user,
                 without_user=str(without_user), without_other=str(without_other))


def reference_check_equal_global_impact(index: Index, problem: StreamingProblem,
                                        user: str, other_user: str) -> AxiomVerdict:
    if user == other_user:
        raise PremiseViolated("need two distinct users")
    sum_without_user = index(problem.remove_user(user)).total
    sum_without_other = index(problem.remove_user(other_user)).total
    if sum_without_user == sum_without_other:
        return _pass(EQUAL_GLOBAL_IMPACT, index)
    return _fail(EQUAL_GLOBAL_IMPACT, index, problem,
                 f"total without {user!r} is {sum_without_user}, "
                 f"without {other_user!r} it is {sum_without_other}",
                 user=user, other_user=other_user, sum_without_user=str(sum_without_user),
                 sum_without_other=str(sum_without_other))


def reference_check_reasonable_lower_bound(index: Index, problem: StreamingProblem,
                                           coalition: Sequence[str]) -> AxiomVerdict:
    users = sorted(dict.fromkeys(coalition))
    if not users:
        raise PremiseViolated("the user coalition must be nonempty")
    reached: set[str] = set()
    for user in users:
        reached |= problem.listened_set(user)
    values = index(problem)
    amount = sum(values[a] for a in reached) * problem.revenue / values.total
    floor = len(users) * problem.fee
    if amount >= floor:
        return _pass(REASONABLE_LOWER_BOUND, index)
    return _fail(REASONABLE_LOWER_BOUND, index, problem,
                 f"artists reached by {users} collect {amount} < {floor}",
                 coalition=users, reached_amount=str(amount), floor=str(floor))


def reference_check_click_fraud_proofness(index: Index, problem: StreamingProblem,
                                          perturbed: StreamingProblem,
                                          user: str) -> AxiomVerdict:
    if (problem.artists != perturbed.artists or problem.users != perturbed.users
            or problem.fee != perturbed.fee):
        raise PremiseViolated("problems must share artists, users and fee")
    j = problem.user_index(user)
    for row, row2 in zip(problem.streams, perturbed.streams):
        changed = [k for k in range(problem.user_count)
                   if row[k] != row2[k] and k != j]
        if changed:
            raise PremiseViolated(
                f"problems differ outside the column of user {user!r}")
    before = rewards(problem, index(problem))
    after = rewards(perturbed, index(perturbed))
    for artist in problem.artists:
        shift = abs(before[artist] - after[artist])
        if shift > problem.fee:
            return _fail(CLICK_FRAUD_PROOFNESS, index, problem,
                         f"payout of {artist!r} moves by {shift} > fee {problem.fee}",
                         perturbed=problem_to_dict(perturbed), user=user, artist=artist,
                         difference=str(shift), bound=str(problem.fee))
    return _pass(CLICK_FRAUD_PROOFNESS, index)


def reference_proportional_pairs(problem: StreamingProblem, rng: random.Random):
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
                lam = Fraction(row[pivot], row2[pivot])
                if all(c == lam * c2 for c, c2 in zip(row, row2)):
                    yield artist, other, lam


REFERENCE_CHECKS = {
    HOMOGENEITY: reference_check_homogeneity,
    ADDITIVITY: reference_check_additivity,
    EQUAL_INDIVIDUAL_IMPACT: reference_check_equal_individual_impact,
    EQUAL_GLOBAL_IMPACT: reference_check_equal_global_impact,
    REASONABLE_LOWER_BOUND: reference_check_reasonable_lower_bound,
    CLICK_FRAUD_PROOFNESS: reference_check_click_fraud_proofness,
}


# -- reference JSON dicts -------------------------------------------------------
#
# The worth and decomposition dicts as they were built before the CLI wrote
# them from lazy items: every coalition key tabled at once, and the worths read
# from the game's Fractions.  Kept unchanged as the reference for the
# differential test of the item sources.


def reference_game_to_dict(game: CoalitionalGame) -> dict:
    keys = _coalition_keys(game.players, ",")
    return {
        "players": list(game.players),
        "values": dict(zip(keys[1:], map(str, game.values[1:]))),
    }


def reference_decomposition_to_dict(decomposition: CoreDecomposition) -> dict:
    return {
        "artists": list(decomposition.artists),
        "fee": str(decomposition.fee),
        "shares": {
            user: [str(x) for x in row]
            for user, row in zip(decomposition.users, decomposition.shares)
        },
    }


def reference_game_table(game: CoalitionalGame) -> str:
    """The table-mode text of ``streamshare game`` as it was printed from whole tables.

    Every coalition key and every worth ``Fraction`` is built first, the
    column widths are measured from the rows, and the dividends come from
    the Moebius transform of the worths.
    """
    def table(headers: list[str], rows: list[list[str]]) -> list[str]:
        widths = [len(h) for h in headers]
        for row in rows:
            for k, cell in enumerate(row):
                widths[k] = max(widths[k], len(cell))
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        return ([fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
                + [fmt.format(*row) for row in rows])

    keys = _coalition_keys(game.players, ", ")
    rows = [[key, str(value)] for key, value in zip(keys[1:], game.values[1:])]
    dividends = harsanyi_dividends(game)
    div_rows = [[keys[mask], str(value)] for mask, value in dividends.nonzero()]
    lines = (table(["coalition", "worth"], rows) + [""]
             + table(["coalition", "dividend"], div_rows or [["(none)", "0"]])
             + ["", f"supermodular: {'yes' if is_supermodular(game).holds else 'NO'}"])
    return "\n".join(lines) + "\n"
