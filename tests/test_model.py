from __future__ import annotations

import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamshare
from streamshare import claims, game
from streamshare import (
    PRO_RATA,
    Allocation,
    AllZeroMatrix,
    ArtistMismatch,
    DimensionMismatch,
    DuplicateIdentifier,
    EmptyUserColumn,
    FeeMismatch,
    IndexValues,
    InvalidPartition,
    ModelError,
    NonPositiveFee,
    OverlappingUsers,
    ParseError,
    StreamingProblem,
    UnknownArtist,
    UnknownUser,
    WeightSystem,
    WouldBeEmpty,
    as_rational,
    decimal_display,
    merge_problems,
    new_problem,
    parse_problem,
    problem_from_dict,
    problem_to_dict,
    reorder_users,
    serialize_problem,
    split_problem,
)
from streamshare.axioms import ProblemGenerator, _resampled_column, check_homogeneity
from streamshare.indices import NonPositiveWeight, weighted_index
from streamshare.model import _exact_sum, _fractions, _over_common_denominator

from helpers import revalidated, three_user_problem, two_user_problem


# -- construction and aggregates ---------------------------------------


def test_package_names_resolve_on_first_use():
    assert {"game", "claims", "axioms", "CoalitionalGame", "two_stage_rule",
            "axiom_matrix", "StreamingProblem", "rewards"} <= set(dir(streamshare))
    assert streamshare.two_stage_rule is claims.two_stage_rule
    assert streamshare.streaming_game is game.streaming_game
    assert streamshare.game is game
    assert not hasattr(streamshare, "nope")


def test_two_user_totals(two_user):
    assert two_user.artist_total("1") == 10
    assert two_user.artist_total("2") == 90
    assert two_user.user_total("a") == 10
    assert two_user.user_total("b") == 90
    assert two_user.total_streams == 100
    assert two_user.revenue == 2


def test_three_user_totals(three_user):
    assert three_user.user_total("c") == 40
    assert three_user.artist_total("1") == 15
    assert three_user.artist_total("2") == 125
    assert three_user.revenue == 3


def test_listened_sets_and_fans(three_user):
    assert three_user.listened_set("a") == {"1"}
    assert three_user.listened_set("b") == {"2"}
    assert three_user.listened_set("c") == {"1", "2"}
    assert three_user.fans("1") == {"a", "c"}
    assert three_user.fans("2") == {"b", "c"}


def test_profile_and_count(three_user):
    assert three_user.profile("c") == (5, 35)
    assert three_user.count("2", "c") == 35


def test_fee_is_normalized_to_fraction():
    p = new_problem(["x"], ["u"], [[1]], fee="2/3")
    assert p.fee == Fraction(2, 3)
    assert p.revenue == Fraction(2, 3)


def test_lists_are_frozen_to_tuples():
    p = new_problem(["x"], ["u"], [[1]])
    assert isinstance(p.artists, tuple)
    assert isinstance(p.streams[0], tuple)


# -- validation ---------------------------------------------------------


def test_empty_user_column_rejected():
    with pytest.raises(EmptyUserColumn) as exc:
        new_problem(["1", "2"], ["a", "b"], [[10, 0], [5, 0]])
    assert "b" in str(exc.value)


def test_all_zero_matrix_rejected_before_column_check():
    with pytest.raises(AllZeroMatrix):
        new_problem(["1"], ["a", "b"], [[0, 0]])


@pytest.mark.parametrize("fee", [0, -1, Fraction(-1, 2), "0/5"])
def test_non_positive_fee_rejected(fee):
    with pytest.raises(NonPositiveFee):
        new_problem(["1"], ["a"], [[1]], fee=fee)


def test_float_fee_rejected():
    with pytest.raises(NonPositiveFee):
        new_problem(["1"], ["a"], [[1]], fee=0.5)


@pytest.mark.parametrize(
    "streams",
    [
        [[1, 2]],           # row too wide
        [[1], [2]],         # too many rows
        [[-1]],             # negative count
        [[1.5]],            # float count
        [[True]],           # bool is not a stream count
    ],
)
def test_bad_matrix_rejected(streams):
    with pytest.raises(DimensionMismatch):
        new_problem(["1"], ["a"], streams)


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateIdentifier):
        new_problem(["1", "1"], ["a"], [[1], [1]])
    with pytest.raises(DuplicateIdentifier):
        new_problem(["1"], ["a", "a"], [[1, 1]])


def test_empty_axes_rejected():
    with pytest.raises(DimensionMismatch):
        new_problem([], ["a"], [])
    with pytest.raises(DimensionMismatch):
        new_problem(["1"], [], [[]])


def test_unknown_lookups(two_user):
    with pytest.raises(UnknownArtist):
        two_user.artist_index("9")
    with pytest.raises(UnknownUser):
        two_user.user_total("z")


def test_model_errors_are_value_errors():
    assert issubclass(EmptyUserColumn, ModelError)
    assert issubclass(ModelError, ValueError)


# -- editing operations --------------------------------------------------


def test_remove_user_golden(three_user, two_user):
    assert three_user.remove_user("c") == two_user


def test_remove_only_user_raises():
    p = new_problem(["1"], ["a"], [[3]])
    with pytest.raises(WouldBeEmpty):
        p.remove_user("a")


def test_remove_user_may_silence_an_artist():
    # dropping b leaves artist 2 with an all-zero row, which is allowed
    p = new_problem(["1", "2"], ["a", "b"], [[1, 1], [0, 5]])
    q = p.remove_user("b")
    assert q.artist_total("2") == 0
    assert q.fans("2") == frozenset()


def test_with_fee(two_user):
    assert two_user.with_fee("1/2").revenue == 1
    assert two_user.with_fee(3).streams == two_user.streams


def test_select_users_preserves_order(three_user):
    q = three_user.select_users({"c", "a"})
    assert q.users == ("a", "c")
    assert q.streams == ((10, 5), (0, 35))


def test_select_users_empty_subset(three_user):
    with pytest.raises(InvalidPartition):
        three_user.select_users([])


# -- merge and split ------------------------------------------------------


def test_split_then_merge_prefix(three_user):
    first, second = split_problem(three_user, ["a", "b"])
    assert first.users == ("a", "b")
    assert second.users == ("c",)
    assert merge_problems(first, second) == three_user


def test_split_then_merge_any_partition(three_user):
    first, second = split_problem(three_user, ["b"])
    merged = merge_problems(first, second)
    assert reorder_users(merged, three_user.users) == three_user


def test_split_rejects_trivial_partitions(three_user):
    with pytest.raises(InvalidPartition):
        split_problem(three_user, [])
    with pytest.raises(InvalidPartition):
        split_problem(three_user, ["a", "b", "c"])


def test_unknown_user_named_in_callers_order(three_user):
    # The first unknown user in the caller's order is named, whatever the hash seed.
    for users, named in ((["x", "y", "z"], "x"), (["a", "z", "y"], "z"), (("c", "q"), "q")):
        with pytest.raises(UnknownUser, match=f"^unknown user '{named}'$"):
            split_problem(three_user, users)
        with pytest.raises(UnknownUser, match=f"^unknown user '{named}'$"):
            three_user.select_users(iter(users))


def test_merge_requires_same_artists(two_user):
    other = new_problem(["2", "1"], ["z"], [[1], [1]])
    with pytest.raises(ArtistMismatch):
        merge_problems(two_user, other)


def test_merge_requires_same_fee(two_user):
    other = new_problem(["1", "2"], ["z"], [[1], [1]], fee=2)
    with pytest.raises(FeeMismatch):
        merge_problems(two_user, other)


def test_merge_rejects_shared_users(two_user):
    other = new_problem(["1", "2"], ["b"], [[1], [1]])
    with pytest.raises(OverlappingUsers):
        merge_problems(two_user, other)


def test_reorder_users_requires_permutation(three_user):
    with pytest.raises(InvalidPartition):
        reorder_users(three_user, ["a", "b"])
    with pytest.raises(InvalidPartition):
        reorder_users(three_user, ["a", "b", "b"])


def test_split_merge_roundtrip_generated():
    gen = ProblemGenerator(seed=11, min_users=2)
    for problem in gen.sample(40):
        rng = random.Random(problem.total_streams)
        k = rng.randrange(1, problem.user_count)
        chosen = rng.sample(problem.users, k)
        merged = merge_problems(*split_problem(problem, chosen))
        assert reorder_users(merged, problem.users) == problem


def test_row_and_column_totals_agree_generated():
    for problem in ProblemGenerator(seed=7).sample(60):
        by_artist = sum(problem.artist_total(a) for a in problem.artists)
        by_user = sum(problem.user_total(u) for u in problem.users)
        assert by_artist == by_user == problem.total_streams


def test_fans_listened_duality_generated():
    for problem in ProblemGenerator(seed=8).sample(60):
        for artist in problem.artists:
            for user in problem.users:
                assert (user in problem.fans(artist)) == (
                    artist in problem.listened_set(user)
                )
        for user in problem.users:
            assert problem.listened_set(user)  # never empty by construction


# -- derived problems skip revalidation ------------------------------------


def _assert_same_as_revalidated(derived: StreamingProblem) -> None:
    reference = revalidated(derived)
    assert derived == reference and hash(derived) == hash(reference)
    assert [type(field) for field in (derived.artists, derived.users, derived.streams)] == [
        tuple, tuple, tuple]
    assert all(type(row) is tuple for row in derived.streams)
    assert type(derived.fee) is Fraction
    assert [derived.user_index(u) for u in derived.users] == list(range(derived.user_count))
    assert [derived.artist_index(a) for a in derived.artists] == list(
        range(derived.artist_count))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trusted_derived_problems_match_validated_construction(seed):
    rng = random.Random(seed)
    derived = 0
    for problem in ProblemGenerator(seed=seed).sample(200):
        users = problem.users
        if len(users) > 1:
            for user in users:
                _assert_same_as_revalidated(problem.remove_user(user))
            chosen = rng.sample(users, rng.randrange(1, len(users)))
            first, second = split_problem(problem, chosen)
            merged = merge_problems(first, second)
            for part in (first, second, merged, reorder_users(merged, users)):
                _assert_same_as_revalidated(part)
            assert reorder_users(merged, users) == problem
            derived += len(users) + 4
        _assert_same_as_revalidated(problem.select_users(rng.sample(users, 1)))
        _assert_same_as_revalidated(reorder_users(problem, rng.sample(users, len(users))))
        for user in users:
            _assert_same_as_revalidated(_resampled_column(problem, user, rng))
        derived += 2 + len(users)
    assert derived > 1000


def test_trusted_problems_pickle_and_look_up_like_validated_ones(three_user):
    derived = three_user.select_users(["c", "a"])
    assert derived.user_index("c") == 1 and derived.artist_index("2") == 1
    assert reorder_users(three_user, iter(["c", "b", "a"])) == reorder_users(
        three_user, ["c", "b", "a"])
    copy = pickle.loads(pickle.dumps(derived))
    assert copy == derived and hash(copy) == hash(derived)
    assert copy.user_index("c") == 1
    for bad in ("z", ["a"]):
        with pytest.raises(UnknownUser):
            derived.user_index(bad)
        with pytest.raises(UnknownArtist):
            derived.artist_index(bad)


# -- rationals and display -------------------------------------------------


def test_as_rational_accepts_exact_forms():
    assert as_rational(3) == 3
    assert as_rational("5/4") == Fraction(5, 4)
    assert as_rational(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [0.5, True, None, [1]])
def test_as_rational_rejects_inexact_types(bad):
    with pytest.raises(TypeError):
        as_rational(bad)


@pytest.mark.parametrize("bad", ["1/0", "three", ""])
def test_as_rational_rejects_bad_strings(bad):
    with pytest.raises(ParseError):
        as_rational(bad)


@pytest.mark.parametrize("bad", ["0.5", "1.0", "1e3", "-2.5", "nan", "inf", "1/2.0", " 3 / 4"])
def test_as_rational_rejects_decimal_and_exponent_strings(bad):
    with pytest.raises(ParseError, match="expected an integer or 'p/q'"):
        as_rational(bad)


def test_decimal_display_rounds_half_away_from_zero():
    assert decimal_display(Fraction(1, 5), 4) == "0.2000"
    assert decimal_display(Fraction(27, 10), 1) == "2.7"
    assert decimal_display(Fraction(1, 8), 2) == "0.13"
    assert decimal_display(Fraction(-1, 8), 2) == "-0.13"
    assert decimal_display(Fraction(3), 0) == "3"
    assert decimal_display(Fraction(9, 28), 4) == "0.3214"


# -- value containers --------------------------------------------------------


def test_index_values_basics():
    v = IndexValues(("1", "2"), (Fraction(1, 5), Fraction(9, 5)))
    assert v["2"] == Fraction(9, 5)
    assert v.total == 2
    assert v.scaled(10).as_dict() == {"1": 2, "2": 18}


def test_index_values_reject_zero_sum_and_negatives():
    with pytest.raises(ModelError):
        IndexValues(("1",), (Fraction(0),))
    with pytest.raises(ModelError):
        IndexValues(("1", "2"), (Fraction(-1), Fraction(3)))


def test_allocation_allows_zero_but_not_negative():
    a = Allocation(("1", "2"), (Fraction(0), Fraction(2)))
    assert a.total == 2
    with pytest.raises(ModelError):
        Allocation(("1",), (Fraction(-1),))


def test_allocation_unknown_artist():
    a = Allocation(("1",), (Fraction(1),))
    with pytest.raises(UnknownArtist):
        a["2"]


@pytest.mark.parametrize("container", [IndexValues, Allocation])
@pytest.mark.parametrize("bad", [0.1, 1.0, True])
def test_containers_reject_inexact_entries(container, bad):
    with pytest.raises(TypeError):
        container(("1",), (bad,))


# -- serialization ------------------------------------------------------------


def test_csv_golden(two_user):
    text = serialize_problem(two_user, "csv")
    assert text == "artist,a,b\n1,10,0\n2,0,90\n"
    assert parse_problem(text, "csv") == two_user


def test_csv_accepts_crlf_and_spaces(two_user):
    text = "artist, a, b\r\n1, 10, 0\r\n2, 0, 90\r\n"
    assert parse_problem(text, "csv") == two_user


def test_csv_parse_error_locations():
    with pytest.raises(ParseError) as exc:
        parse_problem("artist,a\n1,x\n", "csv")
    assert exc.value.line == 2 and exc.value.field == 2

    with pytest.raises(ParseError) as exc:
        parse_problem("artist,a\n1,-3\n", "csv")
    assert exc.value.line == 2 and exc.value.field == 2

    with pytest.raises(ParseError) as exc:
        parse_problem("name,a\n1,3\n", "csv")
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        parse_problem("artist,a\n1,2,3\n", "csv")
    assert exc.value.line == 2


def test_csv_serialize_rejects_awkward_ids():
    p = new_problem(["x,y"], ["u"], [[1]])
    with pytest.raises(ParseError):
        serialize_problem(p, "csv")


def test_csv_has_no_fee_channel(two_user):
    # the CSV form always parses at the default fee
    p = two_user.with_fee(5)
    again = parse_problem(serialize_problem(p, "csv"), "csv")
    assert again.fee == 1
    assert again.with_fee(5) == p


def test_json_roundtrip_with_fractional_fee(three_user):
    p = three_user.with_fee("7/3")
    text = serialize_problem(p, "json")
    assert parse_problem(text, "json") == p
    payload = json.loads(text)
    assert payload["fee"] == "7/3"


def test_json_missing_key():
    with pytest.raises(ParseError):
        parse_problem(json.dumps({"artists": ["1"], "users": ["a"]}), "json")


def test_json_bad_syntax_has_location():
    with pytest.raises(ParseError) as exc:
        parse_problem("{", "json")
    assert exc.value.line == 1


def test_json_rejects_float_cells_and_fee():
    base = {"artists": ["1"], "users": ["a"], "streams": [[1]]}
    with pytest.raises(ParseError):
        parse_problem(json.dumps({**base, "streams": [[1.5]]}), "json")
    with pytest.raises(ParseError):
        parse_problem(json.dumps({**base, "fee": 0.5}), "json")


def test_problem_dict_roundtrip(three_user):
    assert problem_from_dict(problem_to_dict(three_user)) == three_user


def test_unknown_format(two_user):
    with pytest.raises(ParseError):
        serialize_problem(two_user, "yaml")
    with pytest.raises(ParseError):
        parse_problem("x", "yaml")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_serialization_roundtrip_property(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    cells = data.draw(
        st.lists(st.lists(st.integers(0, 50), min_size=m, max_size=m),
                 min_size=n, max_size=n)
    )
    artists = [f"art{i}" for i in range(n)]
    users = [f"u{j}" for j in range(m)]
    # patch so no user column is all zero and the matrix is nonzero
    for j in range(m):
        if all(row[j] == 0 for row in cells):
            cells[data.draw(st.integers(0, n - 1))][j] = 1
    problem = new_problem(artists, users, cells)
    for fmt in ("csv", "json"):
        assert parse_problem(serialize_problem(problem, fmt), fmt) == problem


# -- the one number gate ------------------------------------------------------

INEXACT = st.one_of(st.floats(), st.just(float("nan")), st.booleans(), st.decimals(),
                    st.none())


def _boundaries(problem):
    """Every public entry point a number crosses, with the error it documents."""
    def bad_weights(value):
        return weighted_index(problem, WeightSystem("bad", lambda user, profile: value))

    def bad_issue_weights(value):
        weights = claims.IssueWeightFunction("bad", lambda totals, endowment: (value,))
        return weights((Fraction(1),), Fraction(1))

    return [
        (NonPositiveFee, lambda v: new_problem(["1"], ["a"], [[1]], fee=v)),
        (TypeError, lambda v: IndexValues(("1",), (v,))),
        (TypeError, lambda v: Allocation(("1",), (v,))),
        (TypeError, as_rational),
        (claims.InvalidProblem, lambda v: claims.BankruptcyProblem(("x",), (v,), 0)),
        (TypeError, lambda v: claims.BankruptcyProblem(("x",), (1,), v)),
        (claims.InvalidProblem, lambda v: claims.MultiIssueClaims(("x",), ("a",), ((v,),), 0)),
        (TypeError, lambda v: claims.MultiIssueClaims(("x",), ("a",), ((1,),), v)),
        (NonPositiveWeight, bad_weights),
        (claims.WeightContractViolated, bad_issue_weights),
        (TypeError, lambda v: game.CoalitionalGame(("1",), (0, v))),
        (TypeError, lambda v: game.in_core_direct(game.streaming_game(problem), [v, 1])),
        (TypeError, lambda v: game.in_core_flow(problem, [v, 1])),
        (TypeError, lambda v: game.reconstruct_from_dividends({1: v}, ["1"])),
        (TypeError, lambda v: check_homogeneity(PRO_RATA, problem, "1", "2", v)),
    ]


@settings(max_examples=60, deadline=None)
@given(INEXACT)
def test_every_boundary_rejects_inexact_numbers(value):
    problem = new_problem(["1", "2"], ["a", "b"], [[2, 0], [1, 3]])
    for error, construct in _boundaries(problem):
        with pytest.raises(error):
            construct(value)


@settings(max_examples=60, deadline=None)
@given(INEXACT)
def test_dividend_tables_decompositions_and_displays_reject_inexact_numbers(value):
    for construct in (
            lambda: game.reconstruct_from_dividends(game.DividendTable(("a",), (0, value))),
            lambda: game.CoreDecomposition(("x",), ("a",), ((value,),), 1).allocation(),
            lambda: decimal_display(value, 2)):
        with pytest.raises(TypeError):
            construct()


def test_every_exported_exception_is_a_model_error():
    exported = [obj for obj in vars(streamshare).values()
                if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert len(exported) >= 20
    assert [cls.__name__ for cls in exported if not issubclass(cls, ModelError)] == []


# -- the common-denominator kernel ------------------------------------------

RATIONALS = st.lists(st.one_of(st.integers(-30, 30), st.fractions(max_denominator=40)),
                     max_size=12)


@settings(max_examples=200, deadline=None)
@given(RATIONALS)
def test_common_denominator_kernel_matches_fraction_arithmetic(values):
    d, numerators = _over_common_denominator(values)
    assert d == math.lcm(*(Fraction(v).denominator for v in values))
    assert len(numerators) == len(values)
    assert all(type(n) is int and Fraction(n, d) == v for n, v in zip(numerators, values))
    total = _exact_sum(v for v in values)
    assert type(total) is Fraction and total == sum(values, Fraction(0))
    assert _exact_sum(values) == total


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-8, 8), max_size=12), st.integers(1, 30))
def test_fractions_share_one_object_per_distinct_value(numerators, denominator):
    made = _fractions(numerators, denominator)
    assert made == tuple(Fraction(n, denominator) for n in numerators)
    assert all(type(x) is Fraction for x in made)
    assert len({id(x) for x in made}) == len(set(numerators))
