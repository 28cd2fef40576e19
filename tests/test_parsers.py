"""Differential test of the whole-row CSV parser and constructor checks.

The CSV parser converts and checks each row as a whole, and the validating
constructor checks whole rows at once; either reads cell by cell only where
a check fails, to name the fault.  Every input here must give what the
per-cell parsers and constructor in ``helpers`` give: an equal problem with
the same stored fields, or an error of the same type, message, line and
field.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import (ParseError, ProblemGenerator, new_problem, parse_problem,
                         problem_from_dict)
from streamshare.model import MAX_INPUT_DIGITS, problem_to_dict, serialize_problem

from helpers import (
    reference_new_problem,
    reference_parse_csv,
    reference_problem_from_dict,
    revalidated,
    sparse_problem_with_silent_artists,
    three_user_problem,
)


def _outcome(parse, data):
    try:
        return parse(data)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "field", None))


def _stored(problem):
    """The stored fields, with the exact type of every field, identifier, row and cell."""
    return ({name: (value, type(value)) for name, value in vars(problem).items()},
            set(map(type, problem.artists + problem.users)),
            set(map(type, problem.streams)),
            {type(c) for row in problem.streams for c in row})


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got == want and hash(got) == hash(want)
    assert _stored(got) == _stored(want)
    again = revalidated(got)
    assert vars(got).keys() == vars(again).keys()
    assert got == again and hash(got) == hash(again)


def assert_csv_agrees(text):
    assert_same(_outcome(lambda t: parse_problem(t, "csv"), text),
                _outcome(reference_parse_csv, text))


def assert_json_agrees(data):
    assert_same(_outcome(problem_from_dict, data), _outcome(reference_problem_from_dict, data))


def _uniform(seed, artists, users, density=0.05):
    """A seeded uniform catalog whose every user streams at least one artist."""
    rng = random.Random(seed)
    streams = [[rng.randint(1, 9) if rng.random() < density else 0 for _ in range(users)]
               for _ in range(artists)]
    for j in range(users):
        streams[rng.randrange(artists)][j] = rng.randint(1, 9)
    return new_problem([f"r{i}" for i in range(artists)], [f"u{j}" for j in range(users)],
                       streams, F(3, 2))


def _valid_problems():
    yield three_user_problem()
    yield sparse_problem_with_silent_artists(22)
    yield _uniform(0, 60, 1200)
    yield _uniform(1, 3, 50, density=0.5)
    yield from ProblemGenerator(seed=11, max_artists=5, max_users=5).sample(40)


def test_valid_catalogs_parse_alike():
    for problem in _valid_problems():
        text = serialize_problem(problem, "csv")
        assert_csv_agrees(text)
        assert parse_problem(text, "csv") == problem.with_fee(1)
        data = problem_to_dict(problem)
        assert_json_agrees(data)
        assert_json_agrees(json.loads(json.dumps(data)))
        assert problem_from_dict(data) == problem


BASE_CSV = "artist,a,b,c\nx,3,0,1\ny,0,2,4\n"

CSV_MUTATIONS = {
    "valid": BASE_CSV,
    "negative count": "artist,a,b,c\nx,3,-1,1\ny,0,2,4\n",
    "negative zero": "artist,a,b,c\nx,3,-0,1\ny,0,2,4\n",
    "non-integer": "artist,a,b,c\nx,3,x,1\ny,0,2,4\n",
    "empty cell": "artist,a,b,c\nx,3,,1\ny,0,2,4\n",
    "short row": "artist,a,b,c\nx,3,0,1\ny,0,2\n",
    "long row": "artist,a,b,c\nx,3,0,1,5\ny,0,2,4\n",
    "row without a comma": "artist,a\nx\n",
    "blank middle line": "artist,a,b,c\nx,3,0,1\n\ny,0,2,4\n",
    "empty column": "artist,a,b,c\nx,3,0,1\ny,0,0,4\n",
    "all-zero matrix": "artist,a,b,c\nx,0,0,0\ny,0,0,0\n",
    "duplicate artist": "artist,a,b,c\nx,3,0,1\nx,0,2,4\n",
    "empty artist": "artist,a,b,c\n ,3,0,1\ny,0,2,4\n",
    "duplicate user": "artist,a,b,a\nx,3,0,1\ny,0,2,4\n",
    "empty user": "artist,a,,c\nx,3,0,1\ny,0,2,4\n",
    "plus sign": "artist,a,b,c\nx,+5,0,1\ny,0,2,4\n",
    "underscore": "artist,a,b,c\nx,1_000,0,1\ny,0,2,4\n",
    "arabic-indic digit": "artist,a,b,c\nx,٣,0,1\ny,0,2,4\n",
    "separator whitespace": "artist,a,b,c\nx,\x1c5\x1c,0,1\ny,0,2,4\n",
    "spaces and tabs": "artist, a ,b\t,c\nx , 3 ,\t0,1 \ny,0,2,4\n",
    "crlf": BASE_CSV.replace("\n", "\r\n"),
    "cr": BASE_CSV.replace("\n", "\r"),
    "trailing blank lines": BASE_CSV + "\n\n\r\n",
    "header only": "artist,a,b,c\n",
    "empty input": "\n\n",
    "bad header": "name,a,b,c\nx,3,0,1\n",
    "no users": "artist\nx\n",
    # Several faults in one input: the first one in reading order is named.
    "negative after non-integer": "artist,a,b,c\nx,3,x,1\ny,0,-2,4\n",
    "short row after negative": "artist,a,b,c\nx,3,-1,1\ny,0,2\n",
    "duplicate user and negative": "artist,a,a,c\nx,3,0,1\ny,0,-2,4\n",
    "empty column and duplicate artist": "artist,a,b,c\nx,3,0,1\nx,0,0,4\n",
    "empty column and empty user": "artist,a,,c\nx,3,0,1\ny,0,0,4\n",
}


@pytest.mark.parametrize("text", CSV_MUTATIONS.values(), ids=CSV_MUTATIONS.keys())
def test_csv_mutations_parse_alike(text):
    assert_csv_agrees(text)


class Count(int):
    """An int subclass, which both parsers store as given."""


class Name(str):
    """A str subclass, which both parsers store as given."""


BASE_DICT = {"artists": ["x", "y"], "users": ["a", "b"], "streams": [[3, 0], [0, 2]]}

DICT_MUTATIONS = {
    "valid": {},
    "fee": {"fee": "7/3"},
    "int fee": {"fee": 2},
    "zero fee": {"fee": 0},
    "negative fee": {"fee": "-1"},
    "float fee": {"fee": 0.5},
    "bad fee and bad cell": {"fee": 0.5, "streams": [[3, 0.5], [0, 2]]},
    "negative count": {"streams": [[3, -1], [0, 2]]},
    "bool count": {"streams": [[3, True], [0, 2]]},
    "float count": {"streams": [[3.0, 1], [0, 2]]},
    "string count": {"streams": [[3, "1"], [0, 2]]},
    "null count": {"streams": [[3, None], [0, 2]]},
    "int subclass count": {"streams": [[Count(3), Count(1)], [0, 2]]},
    "row not an array": {"streams": [[3, 1], 2]},
    "short row": {"streams": [[3, 1], [2]]},
    "empty rows": {"streams": [[], []]},
    "no rows": {"streams": []},
    "row count": {"streams": [[3, 1]]},
    "empty column": {"streams": [[3, 0], [1, 0]]},
    "all-zero matrix": {"streams": [[0, 0], [0, 0]]},
    "duplicate artist": {"artists": ["x", "x"]},
    "empty artist": {"artists": ["", "y"]},
    "non-string artist": {"artists": [1, "y"]},
    "str subclass artist": {"artists": [Name("x"), "y"]},
    "str subclass duplicate": {"artists": [Name("x"), "x"]},
    "unhashable user": {"users": [["a"], "b"]},
    "duplicate user": {"users": ["a", "a"]},
    "no users": {"users": [], "streams": [[], []]},
    "no artists": {"artists": [], "streams": []},
}


@pytest.mark.parametrize("change", DICT_MUTATIONS.values(), ids=DICT_MUTATIONS.keys())
def test_dict_mutations_parse_alike(change):
    assert_json_agrees({**BASE_DICT, **change})


COUNTS = ["0", "1", "7", "12", " 5 ", "+5", "1_000", "٣", "\t2", "-0"]
TOKENS = ["x", "", "\x1c5\x1c", "a", " a", "x,y", "-0", "3"]


@st.composite
def csv_catalogs(draw):
    """A valid catalog's CSV text with up to two cells, rows or lines changed.

    Counts, names and the changes come from the fixed tables above, so nearly
    half of the drawn texts parse and the rest fail in every known way.
    """
    users = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    artists = draw(st.lists(st.sampled_from("wxyz"), min_size=1, max_size=4, unique=True))
    counts = st.lists(st.sampled_from(COUNTS), min_size=len(users), max_size=len(users))
    table = [["artist", *users]] + [[a, *draw(counts)] for a in artists]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from([row for row in table if row]))
        where = draw(st.integers(0, len(row) - 1))
        change = draw(st.sampled_from(["negative", "token", "drop", "add", "blank"]))
        if change == "negative":
            row[where] = "-" + draw(st.sampled_from(COUNTS[1:4]))
        elif change == "token":
            row[where] = draw(st.sampled_from(TOKENS))
        elif change == "drop":
            del row[where]
        elif change == "add":
            row.insert(where, draw(st.sampled_from(COUNTS + TOKENS)))
        else:
            table.insert(draw(st.integers(1, len(table))), [])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(map(",".join, table)) + end * draw(st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(csv_catalogs())
def test_drawn_csv_parses_alike(text):
    assert_csv_agrees(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=list("0123456789-+_x ,\n\r\t٣\x1cab"), max_size=40))
def test_drawn_csv_text_parses_alike(body):
    assert_csv_agrees("artist,a,b\n" + body)
    assert_csv_agrees(body)


JSON_CELLS = st.sampled_from([0, 1, 5, -1, True, 1.5, "1", None, Count(2)])


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({
    "artists": st.lists(st.sampled_from(["x", "y", "", 1]), max_size=3),
    "users": st.lists(st.sampled_from(["a", "b", "", None]), max_size=3),
    "streams": st.lists(st.lists(st.integers(0, 3) | JSON_CELLS, max_size=3), max_size=3),
}, optional={"fee": st.sampled_from([1, 2, "1/2", 0, "-3", 1.0, True])}))
def test_drawn_dicts_parse_alike(data):
    assert_json_agrees(data)


def assert_constructor_agrees(artists, users, streams, fee=1):
    assert_same(_outcome(lambda a: new_problem(*a), (artists, users, streams, fee)),
                _outcome(lambda a: reference_new_problem(*a), (artists, users, streams, fee)))


def test_valid_problems_construct_alike():
    for problem in _valid_problems():
        assert_constructor_agrees(problem.artists, problem.users, problem.streams, problem.fee)
        assert_constructor_agrees(list(problem.artists), problem.users,
                                  [list(row) for row in problem.streams], str(problem.fee))


ODD_NAMES = ["", Name("x"), 1, None, b"a"]
ODD_CELLS = [-1, True, 1.5, "1", None, Count(2)]


@st.composite
def constructor_arguments(draw):
    """Arguments of a valid problem with up to two names, cells, rows or the fee changed.

    Names and changes come from the fixed tables above, so about half of the
    drawn arguments are valid and the rest fail in every known way.
    """
    artists = draw(st.lists(st.sampled_from("wxyz"), min_size=1, max_size=4, unique=True))
    users = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    streams = [draw(st.lists(st.integers(0, 3), min_size=len(users), max_size=len(users)))
               for _ in artists]
    for j in range(len(users)):
        streams[draw(st.integers(0, len(artists) - 1))][j] = draw(st.integers(1, 3))
    fee = draw(st.sampled_from([1, 2, "1/2", F(3, 4)]))
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(["name", "cell", "zero", "drop", "add", "fee"]))
        names = draw(st.sampled_from([artists, users]))
        row = draw(st.sampled_from(streams)) if streams else []
        if change == "name" and names:
            names[draw(st.integers(0, len(names) - 1))] = draw(
                st.sampled_from(ODD_NAMES + artists + users))
        elif change == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif change == "zero" and row:
            row[draw(st.integers(0, len(row) - 1))] = 0
        elif change == "drop":
            del draw(st.sampled_from([names, streams, row]))[:1]
        elif change == "add":
            draw(st.sampled_from([names, row])).append(draw(st.sampled_from(["v", 0, 1])))
        elif change == "fee":
            fee = draw(st.sampled_from([0, "-3", -1, 1.0, True, "0.5"]))
    return artists, users, streams, fee


@settings(max_examples=400, deadline=None)
@given(constructor_arguments())
def test_drawn_arguments_construct_alike(arguments):
    assert_constructor_agrees(*arguments)


# Faults planted late in a seeded 60 x 1,200 catalog, so that the first fault is
# found only after many valid rows.  Each case: {(row, column): new count}, a new
# last user or None, and the message of the fault named first, or None where the
# arguments stay valid.  Case names count rows from 1 and cells from 0, so the
# cell (58, 700) is in row 59.
LARGE = _uniform(2, 60, 1200)
LATE_FAULTS = {
    "negative in row 59 before a float in row 60":
        ({(58, 700): -3, (59, 3): 1.5}, None, "stream counts must be nonnegative, got -3"),
    "float in row 59 before a negative in row 60":
        ({(58, 1199): 1.5, (59, 0): -3}, None, "stream counts must be integers, got 1.5"),
    "bool before a negative in row 60":
        ({(59, 10): True, (59, 11): -1}, None, "stream counts must be integers, got True"),
    "int-subclass row":
        ({(59, j): Count(c) for j, c in enumerate(LARGE.streams[59])}, None, None),
    "negative in an int-subclass row":
        ({**{(59, j): Count(c) for j, c in enumerate(LARGE.streams[59])}, (59, 900): Count(-4)},
         None, "stream counts must be nonnegative, got -4"),
    "str-subclass last user": ({}, Name("u1199"), None),
    "empty last column":
        ({(i, 1199): 0 for i in range(60)}, None, "user 'u1199' has no positive stream count"),
    "empty columns 600 and 1200":
        ({(i, j): 0 for i in range(60) for j in (599, 1199)}, None,
         "user 'u599' has no positive stream count"),
    "all-zero matrix":
        ({(i, j): 0 for i in range(60) for j in range(1200)}, None, "every stream count is zero"),
}


@pytest.mark.parametrize("cells, last_user, message", LATE_FAULTS.values(),
                         ids=LATE_FAULTS.keys())
def test_late_faults_in_a_large_catalog_construct_alike(cells, last_user, message):
    users = [*LARGE.users[:-1], last_user or LARGE.users[-1]]
    streams = [list(row) for row in LARGE.streams]
    for (i, j), count in cells.items():
        streams[i][j] = count
    assert_constructor_agrees(LARGE.artists, users, streams, LARGE.fee)
    got = _outcome(lambda a: new_problem(*a), (LARGE.artists, users, streams, LARGE.fee))
    assert (got[1] if isinstance(got, tuple) else None) == message


# A row of short cells converts each distinct cell text once and looks every cell up,
# so these rows repeat their texts among zeros, with a fault or an odd cell among them.
def _sparse_csv(*rows, width=16):
    """CSV text of ``rows`` of cell texts, each padded with "0" cells to ``width``, and a
    last row of ones, so that every user streams."""
    lines = ["artist," + ",".join(f"u{j}" for j in range(width))]
    for i, cells in enumerate([*rows, ["1"] * width]):
        lines.append(f"r{i}," + ",".join([*cells, *["0"] * (width - len(cells))]))
    return "\n".join(lines) + "\n"


SPARSE_ROWS = {
    "fault in a later row after repeated texts":
        _sparse_csv(["5", "5", "7", "5"], ["5", "7", "x", "-3", "5", "x"]),
    "negative after repeated texts": _sparse_csv(["1"] * 5, ["2", "2", "-2", "2", "-2"]),
    "padded and bare five in one row": _sparse_csv([" 5", "5", "5 ", "\t5", "5"]),
    "separator whitespace in two rows":
        _sparse_csv(["\x1c5\x1c", "\x1c5\x1c", "1"], ["\x1c5\x1c", "3", "\x1c5\x1c"]),
    "repeated negative zero": _sparse_csv(["-0", "-0", "3", "-0"], ["1"]),
    "all-distinct dense row": _sparse_csv([str(10 ** 6 + 7 * j) for j in range(16)], ["1"]),
    "all-distinct short row": _sparse_csv([str(j) for j in range(16)], ["1"] * 16),
    "short row of repeated texts": _sparse_csv(["1", "1"], ["0", "1"], width=2) + "r3,1\n",
}


@pytest.mark.parametrize("text", SPARSE_ROWS.values(), ids=SPARSE_ROWS.keys())
def test_rows_of_repeated_texts_parse_alike(text):
    assert_csv_agrees(text)


def test_a_cell_over_the_digit_cap_after_repeated_texts_is_named():
    """The reference parser predates the digit cap, so this case pins the message."""
    over = MAX_INPUT_DIGITS + 1
    text = _sparse_csv(["5", "5", "1", "5"], ["5", "5", "1", "5", "1" * over, "x"])
    with pytest.raises(ParseError) as caught:
        parse_problem(text, "csv")
    assert str(caught.value) == (f"line 3, field 6: stream count has {over} digits, "
                                 f"over the {MAX_INPUT_DIGITS}-digit cap on one input number")


def test_a_sparse_row_converts_each_distinct_text_once():
    """Equal texts in one row share one int; the next row converts its own."""
    problem = parse_problem(_sparse_csv(["1000", "1000", "7"], ["1000"]), "csv")
    first, second, _ = problem.streams
    assert first[0] == second[0] == 1000
    assert first[0] is first[1]
    assert first[0] is not second[0]


SPARSE_CELLS = ["0", "0", "0", "0", "1", "7", "12", " 5", "5", "-0", "\x1c5\x1c", "+5", "1_0",
                "٣", "x", "", "-2", "123456"]


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 12).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from(SPARSE_CELLS), min_size=width - 1, max_size=width + 1),
    min_size=1, max_size=4)))
def test_drawn_rows_of_repeated_texts_parse_alike(rows):
    width = max(map(len, rows))
    lines = ["artist," + ",".join(f"u{j}" for j in range(width))]
    lines += [f"r{i}," + ",".join(cells) for i, cells in enumerate(rows)]
    assert_csv_agrees("\n".join(lines) + "\n")
