from __future__ import annotations

import copy
import operator
import pickle
import random
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import (
    Allocation,
    CoalitionalGame,
    CoreDecomposition,
    DimensionMismatch,
    DividendTable,
    EQUAL_SPLIT,
    ModelError,
    NotInCore,
    PRO_RATA,
    TooManyPlayers,
    USER_CENTRIC,
    UnknownArtist,
    banded_index,
    extract_decomposition,
    harsanyi_dividends,
    in_core_direct,
    in_core_flow,
    in_domain_pstar,
    is_supermodular,
    new_problem,
    reconstruct_from_dividends,
    rewards,
    streaming_game,
)
from streamshare.axioms import ProblemGenerator
from streamshare.game import (
    MAX_ENUMERABLE_PLAYERS,
    _BLOCK,
    _FlowNetwork,
    _listened_sets,
    _streaming_in_core_direct,
    _subset_sum_blocks,
    _subset_sums,
    decomposition_items,
    decomposition_to_dict,
    dividends_to_dict,
    game_items,
    game_to_dict,
    listened_mask,
)

from helpers import (
    ReferenceFlowNetwork,
    perturbed_allocation,
    random_member,
    reference_decomposition_amounts,
    reference_decomposition_to_dict,
    reference_doubling_in_core_direct,
    reference_game_to_dict,
    reference_compressed_is_supermodular,
    reference_harsanyi_dividends,
    reference_in_core_flow,
    reference_in_core_direct,
    reference_is_supermodular,
    reference_local_is_supermodular,
    reference_reconstruct_from_dividends,
    reference_scaled_streaming_game,
    reference_sliced_subset_sums,
    reference_streaming_game,
    reference_subset_sums,
    shapley_from_dividends,
    three_user_problem,
)

F = Fraction


def brute_worth(problem, coalition: set[str]) -> Fraction:
    """Independent oracle: count users whose whole listening sits inside."""
    covered = sum(
        1 for u in problem.users if problem.listened_set(u) <= coalition
    )
    return covered * problem.fee


# -- game construction ----------------------------------------------------


def test_two_user_worth_table(two_user):
    g = streaming_game(two_user)
    assert g.players == ("1", "2")
    assert [g.values[m] for m in range(4)] == [0, 1, 1, 2]
    assert g.grand_value == two_user.revenue


def test_three_user_worth_table(three_user):
    g = streaming_game(three_user)
    assert g.value(g.mask_of({"1"})) == 1
    assert g.value(g.mask_of({"2"})) == 1
    assert g.grand_value == 3


def test_worth_matches_brute_force_generated():
    for problem in ProblemGenerator(seed=21, max_artists=5).sample(40):
        g = streaming_game(problem)
        for mask in range(1 << problem.artist_count):
            members = set(g.coalition_members(mask))
            assert g.value(mask) == brute_worth(problem, members)


def test_listened_mask(three_user):
    assert listened_mask(three_user, "a") == 0b01
    assert listened_mask(three_user, "b") == 0b10
    assert listened_mask(three_user, "c") == 0b11


def test_game_scales_with_fee(two_user):
    g = streaming_game(two_user.with_fee("1/2"))
    assert [g.values[m] for m in range(4)] == [0, F(1, 2), F(1, 2), 1]


def test_game_validation():
    with pytest.raises(ValueError):
        CoalitionalGame(("1",), (F(1), F(1)))  # empty coalition must be 0
    with pytest.raises(ValueError):
        CoalitionalGame(("1",), (F(0),))  # wrong table length
    with pytest.raises(ValueError):
        CoalitionalGame(("1", "1"), (F(0),) * 4)


def test_too_many_players():
    artists = [f"a{i}" for i in range(21)]
    streams = [[1] for _ in range(21)]
    problem = new_problem(artists, ["u"], streams)
    with pytest.raises(TooManyPlayers):
        streaming_game(problem)
    with pytest.raises(TooManyPlayers):
        CoalitionalGame(tuple(f"p{i}" for i in range(21)), (F(0),) * (1 << 21))


def test_player_cap_is_checked_before_values():
    values = (F(0),) * ((1 << 21) - 1) + (0.5,)
    with pytest.raises(TooManyPlayers):
        CoalitionalGame(tuple(f"p{i}" for i in range(21)), values)


# -- supermodularity --------------------------------------------------------


def test_streaming_games_are_supermodular_generated():
    for problem in ProblemGenerator(seed=22).sample(60):
        assert is_supermodular(streaming_game(problem))


def test_supermodularity_witness_on_handmade_game():
    # v({1}) = v({2}) = v({1,2}) = 1 violates increasing returns
    g = CoalitionalGame(("1", "2"), (F(0), F(1), F(1), F(1)))
    result = is_supermodular(g)
    assert not result
    small, large, bit = result.witness
    assert bit & (bit - 1) == 0  # a single player, as a one-bit mask
    assert small & bit == 0 and large & bit == 0
    assert small & large == small  # small is a subset of large
    gain_small = g.values[small | bit] - g.values[small]
    gain_large = g.values[large | bit] - g.values[large]
    assert gain_large < gain_small


def games_with_negative_dividends(seed: int, count: int):
    """Seeded 2-9 player games rebuilt from dividends, some pairs negative.

    A negative dividend on a pair breaks supermodularity unless positive
    dividends on the larger coalitions around it make up for it.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 9)
        dividends = {1 << i: F(rng.randint(0, 5)) for i in range(n)}
        for mask in rng.sample(range(3, 1 << n), min(12, (1 << n) - 3)):
            low = -4 if bin(mask).count("1") == 2 else 0
            dividends[mask] = F(rng.randint(low, 6), rng.randint(1, 3))
        yield reconstruct_from_dividends(dividends, tuple(f"p{i}" for i in range(n)))


def test_packed_supermodularity_matches_the_full_table():
    verdicts = Counter()
    games = [*arbitrary_games(seed=90, count=150), *games_with_negative_dividends(91, 150)]
    for problem in ProblemGenerator(seed=92, max_artists=7, max_users=9).sample(30):
        games.append(streaming_game(problem))
    for game in games:
        result = is_supermodular(game)
        assert result == reference_local_is_supermodular(game)
        if game.player_count <= 6:  # the exhaustive scan is O(n * 3**n)
            assert result.holds == reference_is_supermodular(game).holds
        verdicts[result.holds] += 1
    assert verdicts[True] >= 60 and verdicts[False] >= 60


def seeded_streaming_problem(seed: int, artists: int, users: int):
    """Each user streams one to five artists, the low-numbered ones more often."""
    rng = random.Random(seed)
    streams = [[0] * users for _ in range(artists)]
    weights = [1 / (i + 1) for i in range(artists)]
    for j in range(users):
        for i in set(rng.choices(range(artists), weights, k=rng.randint(1, 5))):
            streams[i][j] = rng.randint(1, 40)
    return new_problem([f"a{i}" for i in range(artists)], [f"u{j}" for j in range(users)],
                       streams, fee=F(7, 3))


def test_sixteen_artist_game_is_supermodular_and_round_trips():
    g = streaming_game(seeded_streaming_problem(seed=16, artists=16, users=400))
    result = is_supermodular(g)
    assert result.holds is True and result.witness is None
    dividends = harsanyi_dividends(g)
    assert min(dividends.dividends) >= 0
    assert reconstruct_from_dividends(dividends).values == g.values


# -- dividends ----------------------------------------------------------------


def test_dividends_count_exact_audiences(three_user):
    dv = harsanyi_dividends(streaming_game(three_user))
    assert dv.of(0b01) == 1  # user a only
    assert dv.of(0b10) == 1  # user b only
    assert dv.of(0b11) == 1  # user c streams both
    assert dv.of(0b00) == 0


def test_dividends_match_histogram_generated():
    for problem in ProblemGenerator(seed=23).sample(60):
        g = streaming_game(problem)
        dv = harsanyi_dividends(g)
        hist = Counter(listened_mask(problem, u) for u in problem.users)
        for mask in range(1 << problem.artist_count):
            assert dv.of(mask) == hist.get(mask, 0) * problem.fee
        assert reconstruct_from_dividends(dv).values == g.values


@pytest.mark.parametrize("fee", [F(1), F(7, 3), F(1, 2), F(5)])
def test_listened_sets_are_the_user_histogram(fee):
    problems = [seeded_streaming_problem(seed=31, artists=12, users=300)]
    problems += ProblemGenerator(seed=31, max_artists=8, max_users=9).sample(40)
    for problem in problems:
        problem = problem.with_fee(fee)
        hist = Counter(listened_mask(problem, u) for u in problem.users)
        assert _listened_sets(problem) == sorted(hist.items())


def test_dividends_nonzero_listing(two_user):
    dv = harsanyi_dividends(streaming_game(two_user))
    assert dv.nonzero() == [(0b01, F(1)), (0b10, F(1))]


def test_reconstruct_from_mapping():
    g = reconstruct_from_dividends({0b11: F(1)}, players=("x", "y"))
    # a single joint dividend behaves like a unanimity game
    assert g.values == (F(0), F(0), F(0), F(1))
    with pytest.raises(ValueError):
        reconstruct_from_dividends({0b1: F(1)})


@pytest.mark.parametrize("mask", [-1, 4, 1 << 40, "1", 1.0, True, None])
def test_reconstruct_rejects_dividend_keys_that_are_not_masks(mask):
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"dividend key {mask!r} is not a coalition mask")):
        reconstruct_from_dividends({0b10: F(1), mask: F(1)}, players=("x", "y"))


@pytest.mark.parametrize("n", [21, 40])
def test_reconstruct_checks_the_player_cap_before_allocating(n):
    players = tuple(f"p{i}" for i in range(n))
    tracemalloc.start()
    try:
        with pytest.raises(TooManyPlayers,
                           match=f"^{n} players exceeds the {MAX_ENUMERABLE_PLAYERS}-player cap$"):
            reconstruct_from_dividends({1: F(1)}, players)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mask_of_names_an_unknown_player(two_user):
    g = streaming_game(two_user)
    assert g.mask_of(["2", "1"]) == 0b11 and g.mask_of([]) == 0
    with pytest.raises(UnknownArtist, match=re.escape("unknown artist 'z'")) as caught:
        g.mask_of(["1", "z"])
    assert caught.value.artist == "z"


# -- core oracles ---------------------------------------------------------------


def test_pro_rata_two_user_rejected_by_both(two_user):
    g = streaming_game(two_user)
    pay = rewards(two_user, PRO_RATA(two_user))
    direct = in_core_direct(g, pay)
    assert not direct and direct.efficient
    assert direct.blocking_coalition == {"1"}
    flow = in_core_flow(two_user, pay)
    assert not flow and flow.decomposition is None
    with pytest.raises(NotInCore):
        extract_decomposition(two_user, pay)


def test_user_centric_two_user_accepted_by_both(two_user):
    g = streaming_game(two_user)
    pay = rewards(two_user, USER_CENTRIC(two_user))
    assert in_core_direct(g, pay)
    flow = in_core_flow(two_user, pay)
    assert flow
    flow.decomposition.validate(two_user)
    assert flow.decomposition.allocation().as_dict() == pay.as_dict()


def test_wrong_total_fails_efficiency(two_user):
    g = streaming_game(two_user)
    result = in_core_direct(g, [F(1), F(2)])
    assert not result and not result.efficient and result.blocking_mask is None
    flow = in_core_flow(two_user, [F(1), F(2)])
    assert not flow and "sum" in flow.reason


def test_negative_amount_screened(two_user):
    flow = in_core_flow(two_user, [F(-1), F(3)])
    assert not flow and flow.reason == "negative amount"


def test_direct_reports_smallest_blocking_mask():
    # artist 2 is underpaid; {2} has mask 0b10, smaller than {1,2}
    g = CoalitionalGame(("1", "2"), (F(0), F(0), F(1), F(2)))
    result = in_core_direct(g, [F(2), F(0)])
    assert result.blocking_mask == 0b10


def test_allocation_object_accepted(two_user):
    g = streaming_game(two_user)
    pay = Allocation(("1", "2"), (F(1), F(1)))
    assert in_core_direct(g, pay)
    assert in_core_flow(two_user, pay)


def test_oracles_agree_on_random_allocations():
    rng = random.Random(99)
    checked = 0
    for problem in ProblemGenerator(seed=24).sample(80):
        g = streaming_game(problem)
        for _ in range(4):
            member = random_member(problem, rng)
            assert in_core_direct(g, member)
            assert in_core_flow(problem, member)
            probe = perturbed_allocation(problem, rng)
            assert bool(in_core_direct(g, probe)) == bool(in_core_flow(problem, probe))
            checked += 2
    assert checked >= 300


def test_flow_decompositions_validate():
    rng = random.Random(5)
    for problem in ProblemGenerator(seed=25).sample(40):
        member = random_member(problem, rng)
        result = in_core_flow(problem, member)
        assert result
        result.decomposition.validate(problem)
        assert result.decomposition.allocation().as_dict() == dict(
            zip(problem.artists, member)
        )


def test_core_verdict_invariant_under_fee_scaling(two_user):
    pay = rewards(two_user, USER_CENTRIC(two_user))
    scaled = two_user.with_fee(3)
    tripled = [3 * x for x in (pay["1"], pay["2"])]
    assert in_core_flow(scaled, tripled)
    assert in_core_direct(streaming_game(scaled), tripled)


def test_decomposition_validate_rejects_mismatch(two_user, three_user):
    result = in_core_flow(two_user, [F(1), F(1)])
    with pytest.raises(ValueError):
        result.decomposition.validate(three_user)
    with pytest.raises(ValueError):
        result.decomposition.validate(two_user.with_fee(2))


def test_fractional_fee_flow(two_user):
    p = two_user.with_fee("1/3")
    pay = rewards(p, USER_CENTRIC(p))
    result = in_core_flow(p, pay)
    assert result
    result.decomposition.validate(p)


def test_validate_rejects_negative_and_unbalanced_rows(two_user):
    def broken(rows):
        return CoreDecomposition(two_user.artists, two_user.users, rows, two_user.fee)

    with pytest.raises(ModelError, match="negative share for user 'a'"):
        broken(((F(2), F(-1)), (F(0), F(1)))).validate(two_user)
    with pytest.raises(ModelError, match="user 'b' shares do not sum to the fee"):
        broken(((F(1), F(0)), (F(0), F(1, 2)))).validate(two_user)
    with pytest.raises(ModelError, match="user 'a' shares do not sum to the fee"):
        broken(((F(0), F(0)), (F(0), F(1)))).validate(two_user)


# -- the flow oracle: Dinic against Edmonds-Karp, and the min-cut witness ------


def audience_worth(problem, coalition: frozenset[str]) -> Fraction:
    """Fee times the users whose listened set lies in the coalition, in O(nm)."""
    inside = [a in coalition for a in problem.artists]
    audience = sum(all(s for s, c in zip(inside, column) if c)
                   for column in zip(*problem.streams))
    return audience * problem.fee


def test_max_flow_matches_edmonds_karp_on_random_networks():
    rng = random.Random(70)
    positive = 0
    for _ in range(1500):
        nodes = rng.randint(2, 9)
        source, sink = rng.sample(range(nodes), 2)
        dinic, reference = _FlowNetwork(nodes), ReferenceFlowNetwork(nodes)
        arcs = [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(rng.randint(0, 24))]
        # Parallel arcs, arcs straight from source to sink, and zero capacities.
        arcs += [arcs[0]] * rng.randint(0, 2) if arcs else []
        arcs += [(source, sink)] * rng.randint(0, 1)
        for u, v in arcs:
            capacity = rng.choice((0, 0, 1, 2, 3, 5, 8, 13, 10**20))
            assert dinic.add_edge(u, v, capacity) == reference.add_edge(u, v, capacity)
        value = dinic.max_flow(source, sink)
        assert value == reference.max_flow(source, sink)
        positive += value > 0
        # The final residual network has no augmenting path left.
        assert dinic.levels(source)[sink] == -1
    assert positive >= 500


def test_max_flow_on_a_path_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    net = _FlowNetwork(depth + 1)
    for u in range(depth):
        net.add_edge(u, u + 1, 7 + u % 5)
        if u % 3 == 0:
            net.add_edge(u, u + 1, 1)  # a parallel arc every third hop
    assert net.max_flow(0, depth) == 7


def test_flow_oracle_matches_edmonds_karp_on_generated_problems():
    rng = random.Random(71)
    verdicts = Counter()
    for k, problem in enumerate(ProblemGenerator(seed=72, max_artists=7, max_users=9).sample(150)):
        if k % 2:
            problem = problem.with_fee(F(7, 2))
        for amounts in (random_member(problem, rng), perturbed_allocation(problem, rng),
                        rewards(problem, PRO_RATA(problem)).amounts):
            result = in_core_flow(problem, amounts)
            reference = reference_in_core_flow(problem, amounts)
            assert result.in_core == reference.in_core
            assert result.reason == reference.reason
            if result.in_core:
                assert result.decomposition.shares == reference.decomposition.shares
            verdicts[result.in_core] += 1
    assert verdicts[True] >= 200 and verdicts[False] >= 50


def drained_allocation(problem, rng: random.Random) -> list[Fraction]:
    """A core member with one artist's whole payout moved to another; never negative."""
    amounts = random_member(problem, rng)
    i, k = rng.sample(range(problem.artist_count), 2)
    amounts[i] += amounts[k]
    amounts[k] = F(0)
    return amounts


def test_flow_blocking_coalition_blocks():
    rng = random.Random(73)
    blocked = 0
    generator = ProblemGenerator(seed=74, max_artists=7, max_users=9, min_artists=3,
                                 sparsity=0.75)
    for k, problem in enumerate(generator.sample(400)):
        if k % 2:
            problem = problem.with_fee(F(5, 3))
        g = streaming_game(problem)
        for amounts in (drained_allocation(problem, rng),
                        rewards(problem, PRO_RATA(problem)).amounts):
            result = in_core_flow(problem, amounts)
            if result.in_core:
                assert result.blocking_coalition is None
                continue
            coalition = result.blocking_coalition
            assert coalition
            paid = sum(a for artist, a in zip(problem.artists, amounts) if artist in coalition)
            assert audience_worth(problem, coalition) > paid
            assert audience_worth(problem, coalition) == g.value(g.mask_of(coalition))
            blocked += 1
    assert blocked >= 150


def test_screened_allocations_name_no_coalition(two_user):
    negative = in_core_flow(two_user, [F(3), F(-1)])
    short = in_core_flow(two_user, [F(1), F(1, 2)])
    assert (negative.reason, short.reason) == (
        "negative amount", "amounts do not sum to the revenue")
    assert negative.blocking_coalition is None and short.blocking_coalition is None
    cut = in_core_flow(two_user, [F(1, 2), F(3, 2)])
    assert cut.blocking_coalition == {"1"}


def test_flow_only_scale_user_centric_is_in_core():
    rng = random.Random(75)
    n, m = 200, 4000
    columns = []
    for _ in range(m):
        column = [rng.randint(1, 30) if rng.random() < 0.05 else 0 for _ in range(n)]
        if not any(column):
            column[rng.randrange(n)] = rng.randint(1, 3)
        columns.append(column)
    problem = new_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(m)],
                          [[column[i] for column in columns] for i in range(n)])
    payout = rewards(problem, USER_CENTRIC(problem))
    result = in_core_flow(problem, payout)
    assert result and result.blocking_coalition is None
    result.decomposition.validate(problem)
    paid = [F(0)] * n
    for row in result.decomposition.shares:
        for i, x in enumerate(row):
            if x:
                paid[i] += x
    assert tuple(paid) == payout.amounts


def test_decomposition_allocation_matches_reference_column_sums():
    for seed in range(3):
        rng = random.Random(seed)
        n, m = 30, 500
        columns = []
        for _ in range(m):
            column = [rng.randint(1, 30) if rng.random() < 0.08 else 0 for _ in range(n)]
            if not any(column):
                column[rng.randrange(n)] = rng.randint(1, 3)
            columns.append(column)
        problem = new_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(m)],
                              [[column[i] for column in columns] for i in range(n)],
                              fee=F(7, 3))
        for index in (USER_CENTRIC, banded_index(5, 40)):
            payout = rewards(problem, index(problem))
            decomposition = in_core_flow(problem, payout).decomposition
            allocation = decomposition.allocation()
            assert allocation.amounts == reference_decomposition_amounts(decomposition)
            assert allocation == payout
    empty = CoreDecomposition(("1", "2"), (), (), F(1))
    assert empty.allocation().amounts == reference_decomposition_amounts(empty) == (0, 0)


# -- differential: integer coalition tables against the Fraction loops ----------


def arbitrary_games(seed: int, count: int):
    """Seeded games of 1-7 players with negative and non-integer worths.

    A third have arbitrary worths (rarely supermodular), a third nonnegative
    dividends on every coalition of two or more (always supermodular, with
    negative singletons), and a third are the latter with one worth nudged.
    """
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 7)
        players = tuple(f"p{i}" for i in range(n))
        if k % 3 == 0:
            values = [F(0)] + [F(rng.randint(-20, 20), rng.randint(1, 6))
                               for _ in range((1 << n) - 1)]
            yield CoalitionalGame(players, tuple(values))
            continue
        dividends = {}
        for mask in range(1, 1 << n):
            if mask & (mask - 1) == 0:
                dividends[mask] = F(rng.randint(-9, 9), rng.randint(1, 4))
            elif rng.random() < 0.5:
                dividends[mask] = F(rng.randint(0, 6), rng.randint(1, 5))
        game = reference_reconstruct_from_dividends(dividends, players)
        if k % 3 == 2:
            values = list(game.values)
            values[rng.randrange(1, 1 << n)] += F(rng.choice((-1, 1)), rng.randint(1, 3))
            game = CoalitionalGame(players, tuple(values))
        yield game


def marginal_vector(game: CoalitionalGame, order: list[int]) -> list[Fraction]:
    amounts = [F(0)] * game.player_count
    mask = 0
    for i in order:
        amounts[i] = game.values[mask | 1 << i] - game.values[mask]
        mask |= 1 << i
    return amounts


def probe_allocations(game: CoalitionalGame, rng: random.Random) -> list[list[Fraction]]:
    """Marginal vectors, transfers between them, and allocations with wrong totals."""
    n = game.player_count
    order = list(range(n))
    probes = []
    for _ in range(3):
        rng.shuffle(order)
        amounts = marginal_vector(game, order)
        probes.append(list(amounts))
        i, k = rng.randrange(n), rng.randrange(n)
        shift = F(rng.randint(1, 5), rng.randint(1, 4))
        amounts[i] += shift
        amounts[k] -= shift
        probes.append(list(amounts))
        amounts[rng.randrange(n)] += F(1, rng.randint(1, 7))
        probes.append(amounts)
    return probes


def assert_same_fractions(actual: tuple, expected: tuple) -> None:
    assert all(type(x) is Fraction for x in actual)
    assert list(map(str, actual)) == list(map(str, expected))


def assert_coalition_layer_matches_reference(game, allocations) -> None:
    assert is_supermodular(game) == reference_is_supermodular(game)
    dividends = harsanyi_dividends(game)
    reference = reference_harsanyi_dividends(game)
    assert dividends.players == reference.players
    assert_same_fractions(dividends.dividends, reference.dividends)
    assert_same_fractions(reconstruct_from_dividends(dividends).values, game.values)
    mapping = {mask: value for mask, value in reference.nonzero()}
    assert_same_fractions(reconstruct_from_dividends(mapping, game.players).values,
                          reference_reconstruct_from_dividends(mapping, game.players).values)
    for amounts in allocations:
        assert in_core_direct(game, amounts) == reference_in_core_direct(game, amounts)


def test_coalition_layer_matches_reference_on_arbitrary_games():
    rng = random.Random(61)
    verdicts, blocking, inefficient = Counter(), Counter(), 0
    for game in arbitrary_games(seed=60, count=240):
        allocations = probe_allocations(game, rng)
        assert_coalition_layer_matches_reference(game, allocations)
        verdicts[bool(is_supermodular(game)), game.player_count > 1] += 1
        for amounts in allocations:
            result = in_core_direct(game, amounts)
            inefficient += not result.efficient
            blocking[result.blocking_mask is not None] += 1
    assert verdicts[True, True] >= 60 and verdicts[False, True] >= 60
    assert inefficient >= 100 and blocking[True] >= 100 and blocking[False] >= 100


def test_coalition_layer_matches_reference_on_streaming_games():
    rng = random.Random(62)
    for k, problem in enumerate(ProblemGenerator(seed=63, max_artists=7).sample(120)):
        if k % 2:
            problem = problem.with_fee(F(5, 3))
        game = streaming_game(problem)
        reference = reference_streaming_game(problem)
        assert game.players == reference.players
        assert_same_fractions(game.values, reference.values)
        allocations = [perturbed_allocation(problem, rng), random_member(problem, rng),
                       rewards(problem, PRO_RATA(problem)),
                       rewards(problem, USER_CENTRIC(problem))]
        assert_coalition_layer_matches_reference(game, allocations)


def _repeated_users(problem, copies: int, fee):
    """The problem at ``fee`` with every user column repeated ``copies`` times."""
    users = [f"{u}{k}" for k in range(copies) for u in problem.users]
    return new_problem(problem.artists, users, [row * copies for row in problem.streams], fee)


@pytest.mark.parametrize("fee, copies", [(1, 1), (F(7, 3), 1), (F(7, 3), 3), (F(1, 2), 1),
                                         (F(1, 2), 2)])
def test_streaming_game_integer_table_matches_a_validated_game(fee, copies):
    """The integer table a streaming game carries answers like the one a game recomputes.

    With every coalition count a multiple of the fee's denominator, the worths
    are integers, so a validated game reduces them to denominator 1 while the
    streaming game keeps the fee's.
    """
    rng = random.Random(66)
    for problem in ProblemGenerator(seed=67, max_artists=6).sample(60):
        problem = _repeated_users(problem, copies, fee)
        g = streaming_game(problem)
        d, worths = g._integers
        assert len(worths) == len(g.values)
        assert all(value == F(worth, d) for value, worth in zip(g.values, worths))
        validated = CoalitionalGame(g.players, g.values)
        assert validated == g
        if copies > 1:
            assert validated._integers[0] == 1 and d == F(fee).denominator > 1
        assert harsanyi_dividends(g) == harsanyi_dividends(validated)
        assert is_supermodular(g) == is_supermodular(validated)
        for amounts in (perturbed_allocation(problem, rng), random_member(problem, rng),
                        rewards(problem, PRO_RATA(problem)),
                        rewards(problem, USER_CENTRIC(problem))):
            assert in_core_direct(g, amounts) == in_core_direct(validated, amounts)


def test_validate_and_domain_agree_with_listened_sets():
    rng = random.Random(64)
    moved = 0
    for problem in ProblemGenerator(seed=65, max_artists=5, max_users=7).sample(80):
        full = frozenset(problem.artists)
        assert in_domain_pstar(problem) == (
            problem.user_count >= 3
            and all(problem.listened_set(u) != full for u in problem.users))
        decomposition = in_core_flow(problem, random_member(problem, rng)).decomposition
        decomposition.validate(problem)
        strays = [(j, i) for j, user in enumerate(problem.users)
                  for i, artist in enumerate(problem.artists)
                  if artist not in problem.listened_set(user)]
        if not strays:
            continue
        # Move one user's share onto an artist that user never streamed.
        j, i = rng.choice(strays)
        shares = [list(row) for row in decomposition.shares]
        source = next(k for k, x in enumerate(shares[j]) if x > 0)
        shares[j][i], shares[j][source] = shares[j][source], shares[j][i]
        broken = CoreDecomposition(problem.artists, problem.users,
                                   tuple(map(tuple, shares)), problem.fee)
        message = f"user {problem.users[j]!r} pays artist {problem.artists[i]!r} they never"
        with pytest.raises(ModelError, match=re.escape(message)):
            broken.validate(problem)
        moved += 1
    assert moved >= 40


# -- restricted domain ----------------------------------------------------------


def test_domain_membership(two_user, three_user):
    assert not in_domain_pstar(two_user)  # only two users
    assert not in_domain_pstar(three_user)  # user c reaches everyone
    wide = new_problem(
        ["1", "2", "3"],
        ["a", "b", "c"],
        [[1, 0, 0], [0, 1, 1], [0, 1, 0]],
    )
    assert in_domain_pstar(wide)


# -- serialization ----------------------------------------------------------------


def test_game_to_dict(two_user):
    payload = game_to_dict(streaming_game(two_user))
    assert payload["values"] == {"1": "1", "2": "1", "1,2": "2"}


def test_coalition_keys_list_members_in_player_order():
    players = tuple(f"p{i}" for i in range(9))
    game = CoalitionalGame(players, tuple(F(mask) for mask in range(1 << 9)))
    values = game_to_dict(game)["values"]
    assert list(values) == [",".join(p for i, p in enumerate(players) if mask >> i & 1)
                            for mask in range(1, 1 << 9)]
    assert values["p0,p3,p8"] == str(1 | 1 << 3 | 1 << 8)


def test_dividends_to_dict(three_user):
    payload = dividends_to_dict(harsanyi_dividends(streaming_game(three_user)))
    assert payload["dividends"] == {"1": "1", "2": "1", "1,2": "1"}


def test_decomposition_to_dict(two_user):
    result = in_core_flow(two_user, [F(1), F(1)])
    payload = decomposition_to_dict(result.decomposition)
    assert payload["shares"]["a"] == ["1", "0"]
    assert payload["shares"]["b"] == ["0", "1"]


# -- exact tables: construction gates and Fractions made on first read -------------

INEXACT_ENTRIES = st.one_of(st.floats(), st.just(float("nan")), st.booleans(), st.decimals())

# Each row puts the inexact value where the public constructor must coerce it.
INEXACT_GATES = {
    "dividend": lambda v: DividendTable(("a",), (0, v)),
    "dividend of a pair": lambda v: DividendTable(("a", "b"), (0, 1, v, F(1, 2))),
    "share": lambda v: CoreDecomposition(("x", "y"), ("a",), ((v, F(1, 2)),), 1),
    "fee": lambda v: CoreDecomposition(("x", "y"), ("a",), ((F(1, 2), F(1, 2)),), v),
}


@settings(max_examples=60, deadline=None)
@given(INEXACT_ENTRIES)
@pytest.mark.parametrize("gate", sorted(INEXACT_GATES))
def test_dividend_tables_and_decompositions_reject_inexact_numbers_when_built(gate, value):
    with pytest.raises(TypeError):
        INEXACT_GATES[gate](value)


class Unreadable:
    """Entries that fail the test if the constructor reads them."""

    def __iter__(self):
        raise AssertionError("an entry was read before the players were checked")


# Each row is a malformed (players, entries) pair that CoalitionalGame refuses.
MALFORMED_TABLES = {
    "wrong length": (("a", "b"), (0, 1, 2)),
    "no players": ((), (0,)),
    "duplicate players": (("a", "a"), (0, 1, 1, 2)),
    "21 players": (tuple(f"p{i}" for i in range(21)), Unreadable()),
    "nonzero empty entry": (("a",), (F(1, 3), 1)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_dividend_tables_are_checked_like_games_when_built(case):
    players, entries = MALFORMED_TABLES[case]
    with pytest.raises(ModelError) as game_error:
        CoalitionalGame(players, entries)
    with pytest.raises(ModelError) as table_error:
        DividendTable(players, entries)
    assert type(table_error.value) is type(game_error.value)
    if case != "wrong length":
        assert str(table_error.value) == str(game_error.value)


def lazy_tables(problem):
    """Each exact table the game layer builds, with its public twin and its field."""
    expected = reference_streaming_game(problem)
    return [
        (lambda: streaming_game(problem), expected, "values"),
        (lambda: harsanyi_dividends(streaming_game(problem)),
         reference_harsanyi_dividends(expected), "dividends"),
        (lambda: reconstruct_from_dividends(harsanyi_dividends(streaming_game(problem))),
         expected, "values"),
    ]


def test_game_tables_build_their_fractions_on_first_read():
    rng = random.Random(27)
    for problem in ProblemGenerator(seed=26, fee=F(7, 3)).sample(30) + [three_user_problem()]:
        allocations = [rewards(problem, USER_CENTRIC(problem)), perturbed_allocation(problem, rng)]
        for build, expected, field in lazy_tables(problem):
            fresh = [build() for _ in range(6)]
            for table in fresh:
                if field == "values":
                    assert is_supermodular(table) == is_supermodular(expected)
                    for amounts in allocations:
                        assert in_core_direct(table, amounts) == in_core_direct(expected, amounts)
                else:
                    assert table.nonzero() == expected.nonzero()
                    assert dividends_to_dict(table) == dividends_to_dict(expected)
            assert all(vars(t).keys() == {"players", "_integers"} for t in fresh)
            assert fresh[0] == expected and expected == fresh[1]
            assert hash(fresh[2]) == hash(expected)
            assert repr(fresh[3]) == repr(expected)
            made = getattr(fresh[4], field)
            assert all(type(x) is Fraction for x in made) and made == getattr(expected, field)
            assert vars(fresh[4])[field] is made  # built once, then kept
            assert not hasattr(fresh[5], "scores") and not hasattr(fresh[5], "total")


def test_game_tables_survive_pickle_copy_and_replace(three_user):
    for build, expected, field in lazy_tables(three_user):
        for clone in (pickle.loads(pickle.dumps(build())), copy.copy(build()),
                      copy.deepcopy(build())):
            assert vars(clone).keys() == {"players", "_integers"}
            assert clone == expected and hash(clone) == hash(expected)
        table = build()
        assert replace(table) == expected
        renamed = replace(table, players=("x", "y"))
        assert renamed == type(expected)(("x", "y"), getattr(expected, field))
        assert pickle.loads(pickle.dumps(table)) == expected  # after the field was read


def test_single_entries_are_read_without_building_the_table():
    for problem in ProblemGenerator(seed=28, fee=F(7, 3)).sample(30) + [three_user_problem()]:
        game = streaming_game(problem)
        dividends = harsanyi_dividends(game)
        public_game = reference_streaming_game(problem)
        public_dividends = reference_harsanyi_dividends(public_game)
        for mask in range(1 << game.player_count):
            assert game.value(mask) == public_game.values[mask]
            assert dividends.of(mask) == public_dividends.dividends[mask]
        assert game.grand_value == public_game.values[-1]
        assert type(game.value(1)) is type(dividends.of(1)) is type(game.grand_value) is Fraction
        assert vars(game).keys() == vars(dividends).keys() == {"players", "_integers"}


def test_decomposition_stores_its_names_as_tuples():
    decomposition = CoreDecomposition(["x", "y"], ["a"], [[1, 0]], 1)
    assert decomposition.artists == ("x", "y") and decomposition.users == ("a",)
    decomposition.validate(new_problem(["x", "y"], ["a"], [[1], [1]]))


def test_shapley_value_of_the_streaming_game_is_the_equal_split_payout():
    for problem in ProblemGenerator(seed=4).sample(200):
        shapley = shapley_from_dividends(harsanyi_dividends(streaming_game(problem)))
        assert shapley == rewards(problem, EQUAL_SPLIT(problem)).amounts


# -- the block walk of the enumeration oracle against the doubling table ---------


def paid_by_coalition(amounts: list[Fraction]) -> list[Fraction]:
    paid = [F(0)]
    for amount in amounts:
        paid += [p + amount for p in paid]
    return paid


def blocked_at(mask: int, n: int, rng: random.Random, denominators: int):
    """A game and an efficient payout whose smallest blocking coalition is ``mask``.

    Every smaller coalition is worth at most its payout, some exactly that;
    ``mask`` is worth more; larger coalitions are worth anything, apart from
    the grand coalition, which is worth the total.  So with the grand
    coalition as ``mask`` the payout is in the core.
    """
    def number(low: int) -> Fraction:
        return F(rng.randint(low, 9), rng.randint(1, denominators))

    amounts = [number(-9) for _ in range(n)]
    paid = paid_by_coalition(amounts)
    values = [F(0)]
    for m in range(1, 1 << n):
        if m < mask:
            values.append(paid[m] - rng.choice((F(0), number(0))))
        else:
            values.append(paid[m] + (number(1) if m == mask else number(-9)))
    values[-1] = paid[-1]
    return CoalitionalGame(tuple(f"p{i}" for i in range(n)), tuple(values)), amounts


def block_boundaries(n: int) -> set[int]:
    """Masks at the seams of the walk that can block an efficient payout.

    The first and last mask of the block of each high coalition, mask 1, and
    2**n - 2, the last mask before the grand coalition, which never blocks
    an efficient payout.
    """
    half, full = (n + 1) // 2, (1 << n) - 1
    starts = range(0, 1 << n, 1 << half)
    masks = {1, full - 1, *starts, *(s + (1 << half) - 1 for s in starts)}
    return {m for m in masks if 0 < m < full}


@pytest.mark.parametrize("n", range(1, 11))
def test_direct_oracle_finds_the_smallest_blocking_mask_at_every_block_boundary(n):
    rng = random.Random(70 + n)
    targets = block_boundaries(n)
    assert n == 1 or {1, 1 << (n + 1) // 2, (1 << n) - 2} <= targets
    for mask in sorted(targets):
        for denominators in (1, 6):
            game, amounts = blocked_at(mask, n, rng, denominators)
            result = in_core_direct(game, amounts)
            assert result == reference_doubling_in_core_direct(game, amounts)
            assert (result.in_core, result.efficient, result.blocking_mask) == (False, True, mask)
    for denominators in (1, 6):
        game, amounts = blocked_at((1 << n) - 1, n, rng, denominators)
        result = in_core_direct(game, amounts)
        assert result == reference_doubling_in_core_direct(game, amounts)
        assert (result.in_core, result.efficient, result.blocking_mask) == (True, True, None)
        amounts[rng.randrange(n)] += F(1, denominators)
        result = in_core_direct(game, amounts)
        assert result == reference_doubling_in_core_direct(game, amounts)
        assert (result.in_core, result.efficient, result.blocking_mask) == (False, False, None)


def signed_payout(amounts: list[Fraction], rng: random.Random) -> list[Fraction]:
    """The payout with one amount moved to the next, leaving it negative (unless n is 1)."""
    amounts = list(amounts)
    i = rng.randrange(len(amounts))
    k = (i + 1) % len(amounts)
    shift = amounts[i] + F(rng.randint(1, 5), rng.randint(1, 4))
    amounts[i] -= shift
    amounts[k] += shift
    return amounts


@pytest.mark.parametrize("fee", [F(1), F(7, 3), F(1, 2), F(5)])
def test_streaming_game_and_direct_oracle_match_the_doubling_code(fee):
    rng = random.Random(str(fee))
    verdicts = Counter()
    for n in range(1, 11):
        for seed in range(3):
            problem = seeded_streaming_problem(seed=100 * n + seed, artists=n,
                                               users=rng.randint(1, 40)).with_fee(fee)
            game = streaming_game(problem)
            assert game._integers == reference_scaled_streaming_game(problem)._integers
            assert game.values == reference_streaming_game(problem).values
            member = random_member(problem, rng)
            off_total = list(member)
            off_total[rng.randrange(n)] += F(1, rng.randint(1, 9))
            payouts = [rewards(problem, USER_CENTRIC(problem)),
                       rewards(problem, PRO_RATA(problem)), member,
                       perturbed_allocation(problem, rng), off_total,
                       signed_payout(member, rng)]
            for amounts in payouts:
                for g in (game, CoalitionalGame(game.players, game.values)):
                    result = in_core_direct(g, amounts)
                    assert result == reference_doubling_in_core_direct(g, amounts)
                verdicts[result.in_core, result.efficient] += 1
    assert verdicts[True, True] >= 60 and verdicts[False, True] >= 30
    assert verdicts[False, False] >= 30


def test_direct_oracle_and_game_table_work_in_bounded_memory():
    """The oracle builds no table of 2**16 payouts; the game builds its table once."""
    problem = seeded_streaming_problem(seed=16, artists=16, users=400)
    payout = rewards(problem, USER_CENTRIC(problem))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        game = streaming_game(problem)
        kept, game_peak = (size - start for size in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = in_core_direct(game, payout)
        oracle_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert result.in_core  # user-centric payouts are in the core: every mask is visited
    assert oracle_peak < 256 << 10
    assert game_peak < 1.75 * kept


@pytest.mark.parametrize("fee", [1, F(7, 3)])
def test_game_table_is_transformed_in_place(fee):
    """The transform frees the values it replaces a block at a time, so the peak is the table.

    At fee 1 most worths are new ints; at 7/3 every worth is, as in the pin above.
    """
    problem = seeded_streaming_problem(seed=16, artists=16, users=400).with_fee(fee)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        game = streaming_game(problem)
        kept, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(game.values) == 1 << 16
    assert peak <= 1.1 * kept


@pytest.mark.parametrize("block", [3, 511, 512, 513, _BLOCK])
@pytest.mark.parametrize("combine", [operator.add, operator.sub], ids=["zeta", "moebius"])
def test_blocked_subset_sums_match_the_sliced_transform(block, combine, monkeypatch):
    """Slice pairs run in blocks give the whole-slice transform's table.

    The longest pair at n players holds 2**(n - 1) entries, so n = 0..14 runs
    pairs shorter and longer than every block size here, and as long as 512
    and 1,024.
    """
    monkeypatch.setattr("streamshare.game._BLOCK", block)
    rng = random.Random(block)
    for n in range(15):
        table = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(1 << n)]
        expected = list(table)
        reference_sliced_subset_sums(expected, n, combine)
        _subset_sums(table, n, combine)
        assert table == expected


# -- JSON items: built a block at a time, one source for the dicts and the CLI -----


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 12])
def test_game_to_dict_matches_the_tabled_keys(n):
    """Worth keys are joined a block of 1,024 masks at a time, in mask order."""
    rng = random.Random(n)
    players = tuple(f"p{i}" for i in range(n))
    game = CoalitionalGame(players, [F(0)] + [F(rng.randint(-30, 30), rng.randint(1, 4))
                                              for _ in range((1 << n) - 1)])
    for g in (game, streaming_game(seeded_streaming_problem(seed=n, artists=n, users=80))):
        expected = reference_game_to_dict(g)
        payload = game_to_dict(g)
        assert list(payload) == list(expected) == ["players", "values"]
        assert list(payload["values"].items()) == list(expected["values"].items())
        assert payload == expected
        items = dict(game_items(g))
        assert list(items) == ["players", "values"] and items["players"] == list(g.players)
        assert dict(items["values"]) == expected["values"]


def test_decomposition_to_dict_matches_the_row_dict():
    problem = seeded_streaming_problem(seed=5, artists=12, users=200)
    decomposition = in_core_flow(problem, rewards(problem, USER_CENTRIC(problem))).decomposition
    expected = reference_decomposition_to_dict(decomposition)
    payload = decomposition_to_dict(decomposition)
    assert list(payload) == list(expected) == ["artists", "fee", "shares"]
    assert list(payload["shares"].items()) == list(expected["shares"].items())
    items = dict(decomposition_items(decomposition))
    assert items["fee"] == "7/3" and dict(items["shares"]) == expected["shares"]


# -- packed worths: lanes of one integer per block, read once by the oracle -----


def packed_sums(counts: dict[int, int], n: int, total: int, scale: int = 1) -> list[int]:
    blocks = list(_subset_sum_blocks(counts.items(), n, total, scale))
    assert [len(block) for block in blocks] == [min(_BLOCK, 1 << n)] * max(1, (1 << n) // _BLOCK)
    return list(chain.from_iterable(blocks))


@pytest.mark.parametrize("total", [255, 256, 65_535, 65_536, 2 ** 32 - 1, 2 ** 32])
@pytest.mark.parametrize("n", [1, 3, 10, 12])
def test_packed_subset_sums_match_the_list_transform_at_every_lane_width(total, n):
    """Totals on both sides of each lane width, up to lanes of 8 bytes.

    The grand coalition sums every count, so its lane holds ``total``
    exactly; n = 10 is one whole block and n = 12 adds whole blocks.
    """
    rng = random.Random(total * 100 + n)
    tables = [{0: total}]
    for _ in range(3):
        masks = rng.sample(range(1 << n), min(1 << n, 40))
        cuts = sorted(rng.randint(0, total) for _ in masks[1:])
        tables.append({m: b - a for m, a, b in zip(masks, [0, *cuts], [*cuts, total]) if b > a})
    for counts in tables:
        expected = [counts.get(mask, 0) for mask in range(1 << n)]
        reference_subset_sums(expected, n)
        assert expected[-1] == total
        assert packed_sums(counts, n, total) == expected
        assert packed_sums(counts, n, total, 7) == [7 * x for x in expected]
    if total & (total + 1) == 0:  # a full lane: one more count does not fit
        with pytest.raises(ValueError):
            packed_sums({0: total + 1}, n, total)


def core_check_block_path(problem, payout):
    """The block path next to the doubling oracle on the scaled game it replaces."""
    result = _streaming_in_core_direct(problem, payout)
    assert result == reference_doubling_in_core_direct(
        reference_scaled_streaming_game(problem), payout)
    return result


@pytest.mark.parametrize("fee", [F(1), F(7, 3), F(1, 2), F(5)])
def test_core_check_block_path_matches_the_doubling_code(fee):
    rng = random.Random(f"blocks {fee}")
    verdicts = Counter()
    for n in range(1, 13):
        for seed in range(2):
            problem = seeded_streaming_problem(seed=200 * n + seed, artists=n,
                                               users=rng.randint(1, 300)).with_fee(fee)
            member = random_member(problem, rng)
            off_total = list(member)
            off_total[rng.randrange(n)] -= F(1, rng.randint(1, 9))
            for amounts in (member, rewards(problem, USER_CENTRIC(problem)),
                            rewards(problem, PRO_RATA(problem)),
                            perturbed_allocation(problem, rng), off_total,
                            signed_payout(member, rng)):
                result = core_check_block_path(problem, amounts)
                verdicts[result.in_core, result.efficient] += 1
    assert verdicts[True, True] >= 40 and verdicts[False, True] >= 20
    assert verdicts[False, False] >= 24


def blocked_streaming_problem(mask: int, n: int, fee: Fraction, inside: bool):
    """A streaming problem and payout whose smallest blocking coalition is ``mask``.

    Every artist has a user of their own, and one more user streams exactly
    ``mask``.  Each artist is paid one fee, and the extra fee goes to an
    artist outside ``mask``: every smaller mask then lacks some artist of
    ``mask``, so it holds only users of its own and is paid their fees, while
    ``mask`` holds one user more than it is paid for.  With ``inside`` the
    extra fee goes to an artist in ``mask`` instead, and the payout is stable.
    """
    members = [i for i in range(n) if mask >> i & 1]
    paid_more = members[-1] if inside else min(set(range(n)) - set(members))
    streams = [[int(i == j) for j in range(n)] + [mask >> i & 1] for i in range(n)]
    problem = new_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(n + 1)],
                          streams, fee=fee)
    payout = [fee * (1 + (i == paid_more)) for i in range(n)]
    return problem, payout


@pytest.mark.parametrize("n", range(1, 13))
def test_core_check_block_path_finds_blocking_masks_at_block_edges(n):
    """The first and last mask of every unpacked block and of every block of
    low coalitions, mask 1 and 2**n - 2, at four fees."""
    full = (1 << n) - 1
    edges = {s + d for s in range(0, full + 1, _BLOCK) for d in (-1, 0)}
    targets = {m for m in block_boundaries(n) | edges if 0 < m < full}
    assert {1, full - 1} <= targets or n == 1
    for fee in (F(1), F(7, 3), F(1, 2), F(5)):
        for mask in sorted(targets):
            problem, payout = blocked_streaming_problem(mask, n, fee, inside=False)
            result = core_check_block_path(problem, payout)
            assert (result.in_core, result.efficient, result.blocking_mask) == (False, True, mask)
            problem, payout = blocked_streaming_problem(mask, n, fee, inside=True)
            result = core_check_block_path(problem, payout)
            assert (result.in_core, result.efficient, result.blocking_mask) == (True, True, None)


def test_core_check_block_path_holds_no_worth_table():
    """At 16 artists and 400 users the packed lanes are 128 KiB, and the
    tabled game the path replaces held 594 KiB at fee 1 and 2,293 KiB at 7/3."""
    for fee in (1, F(7, 3)):
        problem = seeded_streaming_problem(seed=16, artists=16, users=400).with_fee(fee)
        payout = rewards(problem, USER_CENTRIC(problem))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = _streaming_in_core_direct(problem, payout)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert result.in_core  # every mask is read
        assert peak < 3 * (2 << 16)


def signed_games(seed: int, count: int):
    """Seeded 8-10 player games from dividends of either sign, a few per coalition size."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(8, 10)
        dividends = {mask: F(rng.randint(-6, 9), rng.randint(1, 3))
                     for mask in rng.sample(range(1, 1 << n), 40)}
        yield reconstruct_from_dividends(dividends, tuple(f"p{i}" for i in range(n)))


def test_supermodularity_gains_from_slices_match_the_flagged_gains():
    verdicts = Counter()
    games = [*arbitrary_games(seed=93, count=120), *games_with_negative_dividends(94, 120),
             *signed_games(95, 40)]
    for problem in ProblemGenerator(seed=96, max_artists=10, max_users=12).sample(20):
        games.append(streaming_game(problem))
    for game in games:
        result = is_supermodular(game)
        assert result == reference_compressed_is_supermodular(game)
        verdicts[result.holds] += 1
    assert verdicts[True] >= 60 and verdicts[False] >= 60


def test_supermodularity_check_builds_no_flag_list():
    """The 16-artist check at fee 7/3 peaked at 3,226 KiB with a 2**16 flag list
    and a shifted copy of the worths beside its gains; filled from slice pairs
    its largest transient is a quarter table."""
    game = streaming_game(seeded_streaming_problem(seed=16, artists=16, users=400))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = is_supermodular(game)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert result.holds
    assert peak < 2.5 * (1 << 20)
