"""The cooperative game behind a streaming problem and its core.

A coalition of artists is worth the fees of every user who streams only
artists inside the coalition: those users would still be fully served (and
fully billed) if the rest of the catalog vanished.  An allocation is stable
when no coalition is paid less than it is worth on its own.

Stability has a second, equivalent reading: an allocation is stable exactly
when it can be assembled user by user, with each user's fee split only among
the artists that user actually streamed.  Since the two characterizations
are implemented along completely different routes (exhaustive coalition
enumeration versus a max-flow feasibility test) they double-check each
other; any disagreement is a bug, never a judgment call.

Coalition values, dividends, decomposition shares and list-form allocations
pass through :func:`model.as_rational`, so an inexact number among them
raises TypeError.

Every 2**n table (worths, dividends) is computed on Python integers over
one common denominator, and games and dividend tables built here store only
those, making their Fractions on first read.  The enumeration oracle builds
no 2**n table of its own: it reads the worths once, in mask order, beside
two tables of about 2**(n/2) coalition payouts.  Scaling by a positive
constant changes no comparison, so verdicts, witnesses and values are
exactly those of Fraction arithmetic.
"""
from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count
from typing import Iterable, Iterator, Mapping, Sequence

from .model import (Allocation, DimensionMismatch, DuplicateIdentifier, FeeMismatch, ModelError,
                    NotInCore, StreamingProblem, TooManyPlayers, UnknownArtist, _exact_sum,
                    _ExactTable, _over_common_denominator, _trusted, as_rational)

MAX_ENUMERABLE_PLAYERS = 20


def _check_cap(n: int, what: str) -> None:
    """Refuse ``n`` players before any 2**n table is allocated."""
    if n > MAX_ENUMERABLE_PLAYERS:
        raise TooManyPlayers(f"{n} {what} exceeds the {MAX_ENUMERABLE_PLAYERS}-player cap")


def _amounts(allocation: Allocation | Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    values = allocation.amounts if isinstance(allocation, Allocation) else tuple(
        as_rational(a, "amount") for a in allocation)
    if len(values) != n:
        raise DimensionMismatch(f"expected {n} amounts, got {len(values)}")
    return values


def _members(players: tuple[str, ...], mask: int) -> tuple[str, ...]:
    """The players whose bits are set in ``mask``, in player order."""
    return tuple(p for i, p in enumerate(players) if mask >> i & 1)


@dataclass(frozen=True)
class _CoalitionTable(_ExactTable):
    """Base of CoalitionalGame and DividendTable: one exact entry per coalition bitmask."""

    players: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        n = len(self.players)
        if n == 0:
            raise DimensionMismatch("need at least one player")
        _check_cap(n, "players")
        if len(set(self.players)) != n:
            raise DuplicateIdentifier("duplicate player identifier")
        values = tuple(getattr(self, self._field))
        if len(values) != 1 << n:
            raise DimensionMismatch(f"need {1 << n} {self._what}s, got {len(values)}")
        if self._store(values, self._what)[1][0]:
            raise ModelError("the empty coalition must be worth zero")


@dataclass(frozen=True)
class CoalitionalGame(_CoalitionTable):
    """A transferable-utility game over at most 20 players.

    Coalitions are bitmasks over the player tuple; ``values[mask]`` is the
    coalition's worth.  The empty coalition is worth zero.
    """

    values: tuple[Fraction, ...]
    _field, _what = "values", "coalition value"

    @property
    def player_count(self) -> int:
        return len(self.players)

    def value(self, mask: int) -> Fraction:
        return Fraction(self._integers[1][mask], self._integers[0])

    def mask_of(self, coalition: Iterable[str]) -> int:
        mask = 0
        for player in coalition:
            if player not in self.players:
                raise UnknownArtist(player)
            mask |= 1 << self.players.index(player)
        return mask

    def coalition_members(self, mask: int) -> tuple[str, ...]:
        return _members(self.players, mask)

    @property
    def grand_value(self) -> Fraction:
        return Fraction(self._integers[1][-1], self._integers[0])


def listened_mask(problem: StreamingProblem, user: str) -> int:
    """The user's listened set as a bitmask over the artist tuple."""
    bits = (1 << i for i in range(problem.artist_count))
    return sum(compress(bits, problem.profile(user)))


def _pairs(n: int, bit: int) -> Iterable[tuple[slice, slice]]:
    """Slices pairing every n-bit mask that has ``bit`` with the mask without it.

    Low bits come as one strided slice per offset, high bits as one
    contiguous slice per block, so no bit takes more than about 2**(n/2)
    slices.
    """
    size, step = 1 << n, 1 << bit
    span = step << 1
    if step * step <= size:
        for low in range(step):
            yield slice(low + step, size, span), slice(low, size, span)
    else:
        for start in range(step, size, span):
            yield slice(start, start + step), slice(start - step, start)


# Entries per block of a 2**n table: a step of the subset-sum transform copies
# two blocks and replaces one, about 16 KB of pointers, and the JSON worths are
# keyed a block of coalitions at a time.
_BLOCK = 1024


def _subset_sums(table: list, n: int, combine=operator.add) -> None:
    """Subset-sum transform over n-bit masks, in place, one bit at a time.

    With ``operator.add`` every entry becomes the sum of the entries of its
    subsets; with ``operator.sub`` the same pass inverts that (Moebius).
    Each slice pair of :func:`_pairs` (the high slice is the low one moved
    up by the bit) runs in blocks of at most ``_BLOCK`` entries, so no step
    copies half the table and the values a step replaces are freed a block
    at a time.
    """
    for bit in range(n):
        shift = 1 << bit
        for _, low in _pairs(n, bit):
            width = _BLOCK * (low.step or 1)
            for start in range(low.start, low.stop, width):
                stop = min(start + width, low.stop)
                high = slice(start + shift, stop + shift, low.step)
                table[high] = map(combine, table[high], table[start:stop:low.step])


# Lanes of the packed count table: (bytes, memoryview format), narrowest first.
_LANES = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def _subset_sum_blocks(counts: Iterable[tuple[int, int]], n: int, total: int,
                       scale: int) -> Iterator[list[int]]:
    """Subset sums of (mask, count) pairs over n-bit masks, ``_BLOCK`` masks at a time.

    The counts add up to at most ``total``, so no sum overflows a lane of
    the narrowest width that holds ``total``.  A block is one int of lanes,
    so a bit inside it is one shift, mask and add (SIMD within a register;
    Fisher and Dietz 1998); higher bits add whole blocks.  Blocks are freed
    as they are unpacked and scaled.  Lanes are cast in native byte order
    and packed little-endian, so the host must be little-endian.
    """
    width, code = next(lane for lane in _LANES if total >> (8 * lane[0]) == 0)
    packed = bytearray(width << n)
    with memoryview(packed).cast(code) as lanes:
        for mask, users in counts:
            lanes[mask] += users
    inner = min(n, _BLOCK.bit_length() - 1)
    size = width << inner
    blocks = [int.from_bytes(packed[start:start + size], "little")
              for start in range(0, len(packed), size)]
    del packed
    for bit in range(inner):
        run = width << bit
        lanes_without_bit = int.from_bytes((b"\xff" * run + bytes(run)) * (size // run >> 1),
                                           "little")
        for k, table in enumerate(blocks):
            blocks[k] = table + ((table & lanes_without_bit) << 8 * run)
    _subset_sums(blocks, n - inner)
    blocks.reverse()

    def unpacked() -> Iterator[list[int]]:
        while blocks:
            block = memoryview(blocks.pop().to_bytes(size, "little")).cast(code).tolist()
            yield block if scale == 1 else list(map(scale.__mul__, block))
    return unpacked()


def _listened_sets(problem: StreamingProblem) -> list[tuple[int, int]]:
    """(mask, users) of every listened set in mask order: users * fee is its Harsanyi dividend."""
    bits = [1 << i for i in range(problem.artist_count)]
    return sorted(Counter(sum(compress(bits, column)) for column in zip(*problem.streams)).items())


def _streaming_worth_blocks(problem: StreamingProblem) -> Iterator[list[int]]:
    """The streaming game's worths over ``fee.denominator``, ``_BLOCK`` masks at a time.

    A user pays into every coalition containing their whole listened set.
    """
    n = problem.artist_count
    _check_cap(n, "artists")
    return _subset_sum_blocks(_listened_sets(problem), n, problem.user_count,
                              problem.fee.numerator)


def streaming_game(problem: StreamingProblem) -> CoalitionalGame:
    """Build the coalition-worth table for a streaming problem."""
    worths = list(chain.from_iterable(_streaming_worth_blocks(problem)))
    return _trusted(CoalitionalGame, players=problem.artists,
                    _integers=(problem.fee.denominator, worths))


@dataclass(frozen=True)
class SupermodularityResult:
    """Outcome of the supermodularity check, with a witness on failure.

    The witness is a triple of masks ``(small, large, player_bit)`` where
    the marginal contribution of the player to the small coalition exceeds
    its contribution to the large one.
    """

    holds: bool
    witness: tuple[int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


def is_supermodular(game: CoalitionalGame) -> SupermodularityResult:
    """Check v(S + i) - v(S) <= v(T + i) - v(T) for every S inside T.

    The verdict comes from the local criterion of Shapley (1971, "Cores of
    convex games"): v is supermodular exactly when
    v(S + i + j) - v(S + i) - v(S + j) + v(S) >= 0 for every coalition S
    and every pair i < j outside it, which takes O(n**2 * 2**n) integer
    comparisons.  When it fails, the exhaustive scan over nested pairs
    S inside T and joining players runs, and its first violation is the
    witness, so the witness does not depend on the test that found it.
    Streaming games always pass: their Harsanyi dividends are the fee
    times a user count, never negative (Harsanyi 1963).
    """
    n = game.player_count
    worths = game._integers[1]
    for i in range(n - 1):
        # v(S + i) - v(S) for every S without player i, in mask order: bit
        # j > i of S is bit j - 1 of its position in this half-size table, so
        # a strided low slice starts there and a contiguous one at half its start.
        step = 1 << i
        gains = [0] * (1 << (n - 1))
        for high, low in _pairs(n, i):
            at = (slice(low.start, None, step) if low.step
                  else slice(low.start >> 1, (low.start >> 1) + step))
            gains[at] = map(operator.sub, worths[high], worths[low])
        for j in range(i, n - 1):
            for high, low in _pairs(n - 1, j):
                if not all(map(operator.ge, gains[high], gains[low])):
                    return SupermodularityResult(False, _first_violation(worths, n))
    return SupermodularityResult(True)


def _first_violation(v: Sequence[int], n: int) -> tuple[int, int, int]:
    """The first (small, large, bit) with v(small + bit) - v(small) > v(large + bit) - v(large)."""
    full = (1 << n) - 1
    for large in range(1 << n):
        small = large
        while True:
            outside = full & ~large
            while outside:
                bit = outside & -outside
                if v[small | bit] - v[small] > v[large | bit] - v[large]:
                    return small, large, bit
                outside ^= bit
            if small == 0:
                break
            small = (small - 1) & large
    raise AssertionError("the pairwise test failed, so some nested pair violates")


@dataclass(frozen=True)
class DividendTable(_CoalitionTable):
    """Per-coalition dividends: the game rewritten in the unanimity basis.

    ``dividends[mask]`` is the coefficient of the unanimity game on that
    coalition; summing dividends over all subsets of a coalition recovers
    its worth exactly.
    """

    dividends: tuple[Fraction, ...]
    _field, _what = "dividends", "dividend"

    def of(self, mask: int) -> Fraction:
        return Fraction(self._integers[1][mask], self._integers[0])

    def nonzero(self) -> list[tuple[int, Fraction]]:
        d, numerators = self._integers
        return [(mask, Fraction(t, d)) for mask, t in enumerate(numerators) if t]


def harsanyi_dividends(game: CoalitionalGame) -> DividendTable:
    """Invert the subset-sum relation between worths and dividends."""
    d, worths = game._integers
    table = list(worths)
    _subset_sums(table, game.player_count, operator.sub)
    return _trusted(DividendTable, players=game.players, _integers=(d, table))


def reconstruct_from_dividends(
    dividends: DividendTable | Mapping[int, Fraction],
    players: Sequence[str] | None = None,
) -> CoalitionalGame:
    """Rebuild the worth table from dividends.  Inverse of harsanyi_dividends."""
    if not isinstance(dividends, DividendTable):
        if players is None:
            raise ModelError("players required when dividends come as a mapping")
        _check_cap(len(players), "players")
        values = [Fraction(0)] * (1 << len(players))
        for mask, value in dividends.items():
            if type(mask) is not int or not 0 <= mask < len(values):
                raise DimensionMismatch(
                    f"dividend key {mask!r} is not a coalition mask in range({len(values)})")
            values[mask] = value
        dividends = DividendTable(players, values)
    d, table = dividends._integers
    table = list(table)
    _subset_sums(table, len(dividends.players))
    return _trusted(CoalitionalGame, players=dividends.players, _integers=(d, table))


@dataclass(frozen=True)
class DirectCoreResult:
    """Verdict of the enumeration oracle.

    ``blocking_mask`` is the numerically smallest coalition paid less than
    its worth, or None.  ``efficient`` records whether the allocation sums
    to the grand coalition's worth (a wrong total always fails).
    """

    in_core: bool
    efficient: bool
    blocking_mask: int | None
    players: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.in_core

    @property
    def blocking_coalition(self) -> frozenset[str] | None:
        if self.blocking_mask is None:
            return None
        return frozenset(_members(self.players, self.blocking_mask))


def _running_totals(units: Sequence[int]) -> list[int]:
    """The payout of every coalition of ``units``' players, in mask order."""
    totals = [0]
    for unit in units:
        totals += list(map(unit.__add__, totals))
    return totals


def in_core_direct(game: CoalitionalGame,
                   allocation: Allocation | Sequence[Fraction]) -> DirectCoreResult:
    """Check core membership by enumerating every coalition."""
    d, worths = game._integers
    return _enumerate_core(worths, d, worths[-1], _amounts(allocation, game.player_count),
                           game.players)


def _streaming_in_core_direct(problem: StreamingProblem,
                              allocation: Allocation | Sequence[Fraction]) -> DirectCoreResult:
    """:func:`in_core_direct` on the streaming game, its worths read as they are unpacked."""
    amounts = _amounts(allocation, problem.artist_count)
    fee = problem.fee
    worths = chain.from_iterable(_streaming_worth_blocks(problem))
    return _enumerate_core(worths, fee.denominator, problem.user_count * fee.numerator,
                           amounts, problem.artists)


def _enumerate_core(worths: Iterable[int], d: int, grand: int, amounts: Sequence[Fraction],
                    players: tuple[str, ...]) -> DirectCoreResult:
    """The enumeration oracle on worths ``worths[mask] / d`` read in mask order.

    ``grand`` is the grand coalition's worth.  Payouts are integers over the lcm
    of ``d`` and the allocation's denominators.  Those of the coalitions of
    the low ceil(n/2) players and of the high floor(n/2) players are tabled
    once each; every mask's payout is one high coalition's plus one low
    coalition's, so nothing of size 2**n is built.
    """
    # 1/d over the common denominator is the factor that rescales the worths.
    _, (factor, *units) = _over_common_denominator((Fraction(1, d), *amounts))
    if sum(units) != grand * factor:
        return DirectCoreResult(False, False, None, players)
    half = (len(units) + 1) // 2
    low = _running_totals(units[:half])
    paid = chain.from_iterable(map(base.__add__, low)
                               for base in _running_totals(units[half:]))
    if factor != 1:
        worths = map(factor.__mul__, worths)
    blocking = next(compress(count(), map(operator.lt, paid, worths)), None)
    return DirectCoreResult(blocking is None, True, blocking, players)


@dataclass(frozen=True)
class CoreDecomposition:
    """An allocation assembled user by user.

    ``shares[j][i]`` is what user j's fee contributes to artist i.  Each
    user's row is nonnegative, sums to the fee, and is supported on the
    artists that user streamed; :meth:`validate` checks that against a
    problem.  The public constructor stores tuples and coerces every share and the fee.
    """

    artists: tuple[str, ...]
    users: tuple[str, ...]
    shares: tuple[tuple[Fraction, ...], ...]
    fee: Fraction

    def __post_init__(self):
        object.__setattr__(self, "artists", tuple(self.artists))
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "shares", tuple(tuple(as_rational(x, "share") for x in row)
                                                 for row in self.shares))
        object.__setattr__(self, "fee", as_rational(self.fee, "fee"))

    def allocation(self) -> Allocation:
        # A user pays only the artists they streamed, so most shares are zero
        # and only the nonzero ones are summed.
        columns = zip(*self.shares) if self.shares else [()] * len(self.artists)
        return Allocation(self.artists, tuple(_exact_sum(filter(None, column))
                                              for column in columns))

    def validate(self, problem: StreamingProblem) -> None:
        """Raise if any decomposition invariant fails against the problem."""
        if self.artists != problem.artists or self.users != problem.users:
            raise ModelError("decomposition indexed by different artists or users")
        if self.fee != problem.fee:
            raise FeeMismatch("decomposition built for a different fee")
        for user, row, column in zip(self.users, self.shares, zip(*problem.streams)):
            if len(row) != len(self.artists):
                raise DimensionMismatch("ragged decomposition row")
            paid = list(compress(zip(self.artists, row, column), row))
            if any(x < 0 for _, x, _ in paid):
                raise ModelError(f"negative share for user {user!r}")
            if sum(x for _, x, _ in paid) != self.fee:
                raise ModelError(f"user {user!r} shares do not sum to the fee")
            for artist, _, streams in paid:
                if not streams:
                    raise ModelError(
                        f"user {user!r} pays artist {artist!r} they never streamed")


@dataclass(frozen=True)
class FlowCoreResult:
    """Verdict of the flow oracle, with the decomposition when it exists.

    When the fees cannot all be routed, ``blocking_coalition`` names the
    artists on the source side of a minimum cut, a coalition paid less than
    its worth.  It is None for in-core verdicts and for allocations screened
    out before the network is built.
    """

    in_core: bool
    decomposition: CoreDecomposition | None
    reason: str = ""
    blocking_coalition: frozenset[str] | None = None

    def __bool__(self) -> bool:
        return self.in_core


class _FlowNetwork:
    """Integer max-flow by Dinic's algorithm (Dinic 1970).

    Each phase runs one BFS over arcs with residual capacity, labelling every
    node with its distance from the source, and then saturates that level
    graph with a blocking flow.  The blocking flow walks a per-node arc
    pointer and keeps the current path on an explicit stack, so it uses no
    recursion and handles networks of any depth.  There are at most V
    phases of O(VE) each, O(V**2 E) in total.
    """

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

    def levels(self, source: int) -> list[int]:
        """Residual distance of every node from the source, -1 if unreachable."""
        to, cap = self.to, self.cap
        level = [-1] * len(self.adj)
        level[source] = 0
        queue = [source]
        for u in queue:
            step = level[u] + 1
            for idx in self.adj[u]:
                v = to[idx]
                if level[v] < 0 and cap[idx]:
                    level[v] = step
                    queue.append(v)
        return level

    def max_flow(self, source: int, sink: int) -> int:
        adj, to, cap = self.adj, self.to, self.cap
        total = 0
        while True:
            level = self.levels(source)
            if level[sink] < 0:
                return total
            pointer = [0] * len(adj)
            path: list[int] = []
            u = source
            while True:
                if u == sink:
                    pushed = min(map(cap.__getitem__, path))
                    for idx in path:
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                    total += pushed
                    # Resume from the tail of the first arc the push saturated.
                    first = next(k for k, idx in enumerate(path) if not cap[idx])
                    u = to[path[first] ^ 1]
                    del path[first:]
                    continue
                arcs = adj[u]
                i, end, step = pointer[u], len(arcs), level[u] + 1
                while i < end and not (cap[arcs[i]] and level[to[arcs[i]]] == step):
                    i += 1
                pointer[u] = i
                if i < end:
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif path:
                    u = to[path.pop() ^ 1]
                    pointer[u] += 1
                else:
                    break

    def flow_through(self, idx: int) -> int:
        return self.cap[idx ^ 1]


def in_core_flow(problem: StreamingProblem,
                 allocation: Allocation | Sequence[Fraction]) -> FlowCoreResult:
    """Check core membership by trying to route every user's fee.

    The allocation is stable exactly when each user's fee can flow to
    artists that user streamed, filling each artist's payout exactly.
    Negative entries and wrong totals are screened out, on the fee and
    amounts cleared of denominators, before the network is built.  Node 0
    is the source, users are 1..m, artists m+1..m+n, and the sink is last.

    When the flow falls short, the artists S reachable from the source in
    the residual network form a blocking coalition (max-flow/min-cut; Gale
    1957).  A user-to-artist arc saturates only when the user's whole fee
    goes to that artist, and the user is then reachable only through that
    artist; so every artist a reachable user streamed lies in S.  The cut
    costs x(S) plus the fees of the unreachable users, and it is below the
    sum of all fees, so x(S) < fee * #{users whose listened set lies in S},
    the worth of S.
    """
    amounts = _amounts(allocation, problem.artist_count)
    scale, (fee_units, *units) = _over_common_denominator((problem.fee, *amounts))
    if any(u < 0 for u in units):
        return FlowCoreResult(False, None, "negative amount")
    n, m = problem.artist_count, problem.user_count
    if sum(units) != m * fee_units:
        return FlowCoreResult(False, None, "amounts do not sum to the revenue")
    source, sink = 0, 1 + m + n
    net = _FlowNetwork(n + m + 2)
    for j in range(m):
        net.add_edge(source, 1 + j, fee_units)
    user_arcs: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for i, row in enumerate(problem.streams):
        for j, count in enumerate(row):
            if count > 0:
                user_arcs[j].append((i, net.add_edge(1 + j, 1 + m + i, fee_units)))
    for i, unit in enumerate(units):
        net.add_edge(1 + m + i, sink, unit)
    if net.max_flow(source, sink) != m * fee_units:
        level = net.levels(source)[1 + m:sink]
        coalition = frozenset(a for a, d in zip(problem.artists, level) if d >= 0)
        return FlowCoreResult(False, None, "some user's fee cannot reach their artists",
                              coalition)
    shares = []
    for arcs in user_arcs:
        row = [Fraction(0)] * n
        for i, idx in arcs:
            row[i] = Fraction(net.flow_through(idx), scale)
        shares.append(tuple(row))
    decomposition = _trusted(CoreDecomposition, artists=problem.artists, users=problem.users,
                             shares=tuple(shares), fee=problem.fee)
    return FlowCoreResult(True, decomposition)


def extract_decomposition(problem: StreamingProblem,
                          allocation: Allocation | Sequence[Fraction]) -> CoreDecomposition:
    """Return a per-user decomposition of the allocation, or raise NotInCore."""
    result = in_core_flow(problem, allocation)
    if not result.in_core:
        raise NotInCore(result.reason)
    return result.decomposition


def in_domain_pstar(problem: StreamingProblem) -> bool:
    """True when the problem has at least three users, none with full reach.

    This is the restricted domain on which stability plus the scaling and
    market-merge properties single out the user-centric payout.
    """
    if problem.user_count < 3:
        return False
    return all(0 in column for column in zip(*problem.streams))


# -- serialization -----------------------------------------------------

def _coalition_keys(players: tuple[str, ...], separator: str) -> list[str]:
    """The members of every mask joined by ``separator``, one concatenation per mask.

    The masks whose highest player is p are the smaller masks with p appended.
    """
    keys = [""]
    for player in players:
        keys += [player] + [key + separator + player for key in keys[1:]]
    return keys


def _json_dict(items: Iterable[tuple[str, object]]) -> dict:
    """The dict of JSON items, with every iterator among the values made a dict in turn."""
    return {key: _json_dict(value) if isinstance(value, Iterator) else value
            for key, value in items}


def game_items(game: CoalitionalGame) -> Iterator[tuple[str, object]]:
    """The items of :func:`game_to_dict`, with the worths as a lazy iterator of items."""
    yield "players", list(game.players)
    yield "values", _worth_items(game)


def _worth_items(game: CoalitionalGame, separator: str = ",") -> Iterator[tuple[str, str]]:
    """Coalition key and worth of every nonempty coalition, in mask order.

    Made from the integers a block of ``2**low`` masks at a time: in one
    block the masks share their high players and run through every
    coalition of the low ones, whose keys are joined once.
    """
    d, worths = game._integers
    players = game.players
    low = min(len(players), _BLOCK.bit_length() - 1)
    low_keys = _coalition_keys(players[:low], separator)
    for start in range(0, len(worths), len(low_keys)):
        high = separator.join(_members(players[low:], start >> low))
        keys = [high] + [key + separator + high for key in low_keys[1:]] if high else low_keys
        block = worths[start:start + len(low_keys)]
        text = {t: str(Fraction(t, d)) for t in set(block)}
        items = zip(keys, map(text.__getitem__, block))
        if not start:
            next(items)  # the empty coalition
        yield from items


def game_to_dict(game: CoalitionalGame) -> dict:
    """JSON-ready dict: players plus a worth per nonempty coalition."""
    return _json_dict(game_items(game))


def dividends_to_dict(table: DividendTable) -> dict:
    """JSON-ready dict of the nonzero dividends.

    A streaming game has a nonzero dividend only on listened sets, so keys
    are joined per nonzero mask rather than tabled for all 2**n.
    """
    return {
        "players": list(table.players),
        "dividends": {
            ",".join(_members(table.players, mask)): str(value)
            for mask, value in table.nonzero()
        },
    }


def decomposition_items(decomposition: CoreDecomposition) -> Iterator[tuple[str, object]]:
    """The items of :func:`decomposition_to_dict`, with the shares as a lazy iterator."""
    yield "artists", list(decomposition.artists)
    yield "fee", str(decomposition.fee)
    yield "shares", ((user, list(map(str, row)))
                     for user, row in zip(decomposition.users, decomposition.shares))


def decomposition_to_dict(decomposition: CoreDecomposition) -> dict:
    """JSON-ready dict: per-user share vectors in artist order."""
    return _json_dict(decomposition_items(decomposition))
