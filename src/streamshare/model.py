"""Streaming problems and allocation containers.

A streaming problem records how many times each user streamed each artist
during one period, together with the per-user subscription fee.  Everything
downstream (allocation indices, fairness checks, core membership, claims
rules) consumes the immutable :class:`StreamingProblem` defined here.

All arithmetic is exact: stream counts are integers and money amounts are
`fractions.Fraction` values.  Floats are rejected at every boundary.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from numbers import Rational
from operator import itemgetter
from typing import ClassVar, Iterable, Mapping, Sequence


class ModelError(ValueError):
    """Base class for invalid streaming-problem inputs."""


class DimensionMismatch(ModelError):
    """Matrix shape does not match the artist and user lists."""


class DuplicateIdentifier(ModelError):
    """An artist or user identifier appears more than once."""


class EmptyUserColumn(ModelError):
    """A user streamed nothing at all, which the model does not allow."""

    def __init__(self, user: str):
        super().__init__(f"user {user!r} has no positive stream count")
        self.user = user


class NonPositiveFee(ModelError):
    """The subscription fee must be a strictly positive rational."""


class AllZeroMatrix(ModelError):
    """Every entry of the stream matrix is zero."""


class UnknownArtist(ModelError):
    def __init__(self, artist: str):
        super().__init__(f"unknown artist {artist!r}")
        self.artist = artist


class UnknownUser(ModelError):
    def __init__(self, user: str):
        super().__init__(f"unknown user {user!r}")
        self.user = user


class WouldBeEmpty(ModelError):
    """Removing the user would leave a problem with no users."""


class ArtistMismatch(ModelError):
    """Two problems, or a problem and its index values, list different artists."""


class OverlappingUsers(ModelError):
    """Two problems cannot be merged when they share a user."""


class FeeMismatch(ModelError):
    """Two problems cannot be merged when their fees differ."""


class InvalidPartition(ModelError):
    """A user split must name a nonempty proper subset of existing users."""


class TooManyPlayers(ModelError):
    """Coalition enumeration is capped to keep 2**n tables in memory."""


class NotInCore(ModelError):
    """No per-user decomposition exists for this allocation."""


class InvalidProblem(ModelError):
    """Claims data violating the model: negative claims, short endowment, ..."""


class WeightContractViolated(ModelError):
    """An issue-weight function must return a probability vector."""


class PremiseViolated(ModelError):
    """The supplied arguments do not satisfy the property's premise."""


class ParseError(ModelError):
    """Malformed serialized problem, with a location when one is known."""

    def __init__(self, message: str, line: int | None = None, field: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if field is not None:
                loc += f", field {field}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.field = field


_RATIONAL_TEXT = re.compile(r"\s*[+-]?([0-9]+)(?:/([0-9]+))?\s*")

# The most digits one number read from text may have: a CSV or JSON stream
# count, or either part of a string such as a fee.  CPython converts decimal
# text to int in quadratic time, so the cap is checked before converting.
MAX_INPUT_DIGITS = 100_000


def _check_digits(digits: int, what: str, line: int | None = None,
                  field: int | None = None) -> None:
    if digits > MAX_INPUT_DIGITS:
        raise ParseError(f"{what} has {digits} digits, over the {MAX_INPUT_DIGITS}-digit "
                         "cap on one input number", line, field)


def as_rational(value: int | str | Fraction, what: str = "value",
                error: type[Exception] = TypeError) -> Fraction:
    """The one number gate: coerce ``value`` to an exact Fraction.

    Accepts Fractions (returned as they are), ints, any other
    ``numbers.Rational`` and strings holding an integer or ``"p/q"``.  Any
    other string, decimal and exponent notation such as ``"0.5"`` or
    ``"1e3"`` included, raises ParseError.  bool, float, Decimal, None and
    every other type raise ``error``, so no inexact number can leak into a
    computation.
    """
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is not int and (kind is bool or not isinstance(value, (str, Rational))):
        raise error(f"{what} must be an exact rational (int, Fraction, or 'p/q' string), "
                    f"got {kind.__name__}")
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if not match:
            raise ParseError(f"{what} {value!r} is not a valid rational: "
                             "expected an integer or 'p/q'")
        _check_digits(max(len(match[1]), len(match[2] or "")), what)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{what} {value!r} is not a valid rational: {exc}") from None


def _over_lcm(numerators: Sequence[int], denominators: Sequence[int]) -> tuple[int, list[int]]:
    """The lcm d of the positive denominators, and each numerator over its denominator times d.

    Adding Fractions one at a time reduces by a gcd at every step; integers
    over one denominator are reduced once, into the Fraction built at the end.
    """
    d = math.lcm(*set(denominators))
    if d == 1:
        return 1, list(numerators)
    return d, [p * (d // q) for p, q in zip(numerators, denominators)]


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm d of the denominators and every value times d, as integers."""
    return _over_lcm([v.numerator for v in values], [v.denominator for v in values])


def _fractions(numerators: list[int], denominator: int) -> tuple[Fraction, ...]:
    """Each numerator over the denominator, with one Fraction per distinct value."""
    made = {t: Fraction(t, denominator) for t in set(numerators)}
    return tuple(map(made.__getitem__, numerators))


def _exact_sum(values: Iterable[Fraction]) -> Fraction:
    """Sum rationals as integers over the lcm of their denominators."""
    d, numerators = _over_common_denominator(list(values))
    return Fraction(sum(numerators), d)


def _trusted(cls: type, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given.

    Skips ``__post_init__``, so it is only for values derived from valid ones:
    every field must already have the type and the invariants that the public
    constructor establishes.  A field may also prefill a ``cached_property``.
    """
    out = object.__new__(cls)
    vars(out).update(fields)
    return out


def _check_fee(fee: Fraction) -> None:
    if fee <= 0:
        raise NonPositiveFee(f"fee must be positive, got {fee}")


def decimal_display(value: Fraction, places: int) -> str:
    """Render ``value`` with ``places`` decimals, rounding halves away from zero.

    Pure integer arithmetic, so ties like 1.875 -> 1.9 are exact.  An
    inexact ``value`` raises TypeError; ``places`` must be an int.
    """
    value = as_rational(value)
    if type(places) is not int or places < 0:
        raise ModelError("places must be a nonnegative integer")
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10 ** places
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    if places == 0:
        return f"{sign}{q}"
    whole, frac = divmod(q, 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


@dataclass(frozen=True)
class StreamingProblem:
    """One period of platform data: who streamed whom, and the fee.

    ``streams[i][j]`` is the number of times user ``users[j]`` streamed
    artist ``artists[i]``.  Rows may be all zero (an artist nobody played)
    but columns may not: a paying user with no streams has no defined way
    to split their fee.  Instances are immutable.  Public construction
    validates; derived problems (a removed, selected or reordered user set,
    a merge) are valid by construction and skip the checks, so any
    reachable problem is well formed.
    """

    artists: tuple[str, ...]
    users: tuple[str, ...]
    streams: tuple[tuple[int, ...], ...]
    fee: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "artists", tuple(self.artists))
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "streams", tuple(map(tuple, self.streams)))
        object.__setattr__(self, "fee", as_rational(self.fee, "fee", NonPositiveFee))
        artists, users, streams, fee = self.artists, self.users, self.streams, self.fee

        # Each invariant once, in a fixed order; the first fault raises.  Identifiers
        # and rows are checked whole, and only a row that fails is read cell by cell,
        # to name its first bad count.
        for name, ids in (("artist", artists), ("user", users)):
            if not all(map(isinstance, ids, repeat(str))) or not all(ids):
                raise DimensionMismatch(f"every {name} identifier must be a nonempty string")
            if len(set(ids)) != len(ids):
                raise DuplicateIdentifier(f"duplicate {name} identifier")
        if not artists:
            raise DimensionMismatch("need at least one artist")
        if not users:
            raise DimensionMismatch("need at least one user")
        if len(streams) != len(artists):
            raise DimensionMismatch(f"{len(artists)} artists but {len(streams)} matrix rows")
        for row in streams:
            if len(row) != len(users):
                raise DimensionMismatch(
                    f"{len(users)} users but a matrix row of length {len(row)}")
            if set(map(type, row)) != {int} or min(row) < 0:
                for cell in row:
                    if isinstance(cell, bool) or not isinstance(cell, int):
                        raise DimensionMismatch(f"stream counts must be integers, got {cell!r}")
                    if cell < 0:
                        raise DimensionMismatch(f"stream counts must be nonnegative, got {cell}")
        _check_fee(fee)
        # Counts are nonnegative now, so a matrix whose every column is nonempty has a
        # positive total, and one whose every column is empty is all zero.
        filled = list(map(any, zip(*streams)))
        if not all(filled):
            if not any(filled):
                raise AllZeroMatrix("every stream count is zero")
            raise EmptyUserColumn(users[filled.index(False)])

    @cached_property
    def _artist_position(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.artists)}

    @cached_property
    def _user_position(self) -> dict[str, int]:
        return {u: j for j, u in enumerate(self.users)}

    # -- aggregates ----------------------------------------------------

    @property
    def artist_count(self) -> int:
        return len(self.artists)

    @property
    def user_count(self) -> int:
        return len(self.users)

    @property
    def total_streams(self) -> int:
        return sum(sum(row) for row in self.streams)

    @property
    def revenue(self) -> Fraction:
        """Total money to divide: one fee per user."""
        return self.user_count * self.fee

    def artist_index(self, artist: str) -> int:
        try:
            return self._artist_position[artist]
        except (KeyError, TypeError):
            raise UnknownArtist(artist) from None

    def user_index(self, user: str) -> int:
        try:
            return self._user_position[user]
        except (KeyError, TypeError):
            raise UnknownUser(user) from None

    def count(self, artist: str, user: str) -> int:
        return self.streams[self.artist_index(artist)][self.user_index(user)]

    def artist_total(self, artist: str) -> int:
        """Total streams of one artist across all users."""
        return sum(self.streams[self.artist_index(artist)])

    def user_total(self, user: str) -> int:
        """Total streams of one user across all artists."""
        j = self.user_index(user)
        return sum(row[j] for row in self.streams)

    def profile(self, user: str) -> tuple[int, ...]:
        """The user's column of the matrix, in artist order."""
        j = self.user_index(user)
        return tuple(row[j] for row in self.streams)

    def listened_set(self, user: str) -> frozenset[str]:
        """Artists this user streamed at least once.  Never empty."""
        j = self.user_index(user)
        return frozenset(a for i, a in enumerate(self.artists) if self.streams[i][j] > 0)

    def fans(self, artist: str) -> frozenset[str]:
        """Users who streamed this artist at least once.  May be empty."""
        i = self.artist_index(artist)
        return frozenset(u for j, u in enumerate(self.users) if self.streams[i][j] > 0)

    # -- derived problems ----------------------------------------------

    def remove_user(self, user: str) -> "StreamingProblem":
        """The same problem without one user's column."""
        j = self.user_index(user)
        if self.user_count == 1:
            raise WouldBeEmpty("removing the only user leaves nothing to divide")
        return self._columns([k for k in range(self.user_count) if k != j])

    def with_fee(self, fee: int | str | Fraction) -> "StreamingProblem":
        """The same problem at another fee; only the new fee is checked."""
        fee = as_rational(fee, "fee", NonPositiveFee)
        _check_fee(fee)
        return _trusted(StreamingProblem, artists=self.artists, users=self.users,
                        streams=self.streams, fee=fee)

    def select_users(self, subset: Iterable[str]) -> "StreamingProblem":
        """Restriction to a nonempty subset of users (input order preserved)."""
        cols = sorted({self.user_index(u) for u in subset})
        if not cols:
            raise InvalidPartition("user subset is empty")
        return self._columns(cols)

    def _columns(self, cols: Sequence[int]) -> "StreamingProblem":
        """The problem on the user columns ``cols``, in that order; ``cols`` must be nonempty."""
        # itemgetter of one position returns the entry itself; a slice keeps a 1-tuple.
        pick = itemgetter(*cols) if len(cols) > 1 else itemgetter(slice(cols[0], cols[0] + 1))
        return _trusted(StreamingProblem, artists=self.artists, users=pick(self.users),
                        streams=tuple(map(pick, self.streams)), fee=self.fee)


def new_problem(
    artists: Sequence[str],
    users: Sequence[str],
    streams: Sequence[Sequence[int]],
    fee: int | str | Fraction = 1,
) -> StreamingProblem:
    """Build a validated streaming problem.  See :class:`StreamingProblem`."""
    return StreamingProblem(artists, users, streams, fee)


def reorder_users(problem: StreamingProblem, users: Sequence[str]) -> StreamingProblem:
    """The same problem with its user columns in the given order.

    ``users`` must be a permutation of the problem's users.  Useful for
    comparing problems that differ only in column order, such as a merge
    of two split halves against the original.
    """
    users = tuple(users)
    if sorted(users) != sorted(problem.users):
        raise InvalidPartition("user order must be a permutation of the users")
    return problem._columns([problem.user_index(u) for u in users])


def merge_problems(first: StreamingProblem, second: StreamingProblem) -> StreamingProblem:
    """Combine two periods over the same artists into one problem.

    The artist lists must match exactly (same names, same order), the fees
    must agree, and the user sets must be disjoint.  The result carries the
    first problem's users followed by the second's.
    """
    if first.artists != second.artists:
        raise ArtistMismatch("problems list different artists")
    if first.fee != second.fee:
        raise FeeMismatch(f"fees differ: {first.fee} vs {second.fee}")
    if set(first.users) & set(second.users):
        raise OverlappingUsers(f"shared users: {sorted(set(first.users) & set(second.users))}")
    streams = tuple(a + b for a, b in zip(first.streams, second.streams))
    return _trusted(StreamingProblem, artists=first.artists, users=first.users + second.users,
                    streams=streams, fee=first.fee)


def split_problem(
    problem: StreamingProblem, first_users: Iterable[str]
) -> tuple[StreamingProblem, StreamingProblem]:
    """Split a problem into two user groups.  Inverse of :func:`merge_problems`.

    ``first_users`` must be a nonempty proper subset of the users; the
    complement forms the second part.  Column order is preserved on both
    sides, so ``merge_problems(*split_problem(p, g))`` returns a problem
    equal to ``p`` up to user ordering.
    """
    chosen = {problem.user_index(u) for u in first_users}
    first = sorted(chosen)
    rest = [j for j in range(problem.user_count) if j not in chosen]
    if not first:
        raise InvalidPartition("first part of the split is empty")
    if not rest:
        raise InvalidPartition("second part of the split is empty")
    return problem._columns(first), problem._columns(rest)


class _ExactTable:
    """Base of the exact tables: the Fractions of field ``_field``, stored as integers.

    ``_integers = (d, numerators)`` holds entry k as ``numerators[k] / d``.
    Public constructors coerce every entry once, in :meth:`_store`.  A value
    built by :func:`_trusted` may hold only ``_integers``; its Fractions are
    made on first read and then kept, as a ``cached_property`` would.
    """

    _field: ClassVar[str]

    def _store(self, values: Iterable, what: str) -> tuple[int, list[int]]:
        values = tuple(as_rational(v, what) for v in values)
        integers = _over_common_denominator(values)
        object.__setattr__(self, self._field, values)
        object.__setattr__(self, "_integers", integers)
        return integers

    def __getattr__(self, name: str):
        # Only reached when ``name`` is not stored on the instance.
        if name != self._field:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d, numerators = self._integers
        value = vars(self)[name] = _fractions(numerators, d)
        return value


@dataclass(frozen=True)
class _ArtistValues(_ExactTable):
    """Base of IndexValues and Allocation: one exact rational per artist.

    ``_positive`` forbids an all-zero total.  :func:`_trusted` builds an
    Allocation from nonnegative ``_integers`` and their sum as ``total``, and
    an IndexValues from ``_integers`` alone.
    """

    artists: tuple[str, ...]
    _positive: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "artists", tuple(self.artists))
        numerators = self._store(getattr(self, self._field), self._field)[1]
        if len(self.artists) != len(numerators):
            raise DimensionMismatch(f"one entry of {self._field} per artist required")
        if any(n < 0 for n in numerators):
            raise ModelError(f"{self._field} must be nonnegative")
        if self._positive and not any(numerators):
            raise ModelError(f"{self._field} must not all be zero")

    @cached_property
    def total(self) -> Fraction:
        return Fraction(sum(self._integers[1]), self._integers[0])

    @cached_property
    def _position(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.artists)}

    def _locate(self, artist: str) -> int:
        """The position of ``artist`` among these values' own artists."""
        try:
            return self._position[artist]
        except KeyError:
            raise UnknownArtist(artist) from None

    def __getitem__(self, artist: str) -> Fraction:
        return getattr(self, self._field)[self._locate(artist)]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.artists, getattr(self, self._field)))


@dataclass(frozen=True)
class IndexValues(_ArtistValues):
    """Nonnegative per-artist scores produced by an allocation index.

    Scores are meaningful only up to positive scaling; :func:`indices.rewards`
    turns them into money.  The sum must be strictly positive so that the
    normalization is defined.

    Values built by the indices hold only ``artists`` and ``_integers``; the
    fairness checks never build ``scores`` or ``total``.
    """

    scores: tuple[Fraction, ...]
    _field = "scores"
    _positive = True

    def scaled(self, factor: int | str | Fraction) -> "IndexValues":
        """The same scores multiplied by a positive rational factor."""
        lam = as_rational(factor, "scale factor")
        if lam <= 0:
            raise ModelError("scale factor must be positive")
        return IndexValues(self.artists, tuple(lam * s for s in self.scores))


@dataclass(frozen=True)
class Allocation(_ArtistValues):
    """A division of the platform's revenue among the artists.

    Entries are nonnegative exact rationals.  For an allocation produced by
    :func:`indices.rewards` the entries always sum to the problem revenue
    (user count times fee).
    """

    amounts: tuple[Fraction, ...]
    _field = "amounts"


# -- serialization -----------------------------------------------------

_FORMATS = ("csv", "json")


def problem_to_dict(problem: StreamingProblem) -> dict:
    """JSON-ready dict form of a problem.  Rationals become 'p/q' strings."""
    return {
        "artists": list(problem.artists),
        "users": list(problem.users),
        "streams": [list(row) for row in problem.streams],
        "fee": str(problem.fee),
    }


def problem_from_dict(data: Mapping) -> StreamingProblem:
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
    return new_problem(artists, users, streams, fee)


def _parse_csv(text: str) -> StreamingProblem:
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
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        name, _, rest = raw.partition(",")
        row = _whole_row(rest)
        if len(row) != len(users):
            row = _csv_counts(raw, lineno, len(header))
        artists.append(name.strip())
        rows.append(row)
    if not artists:
        raise ParseError("no artist rows", line=2)
    return new_problem(artists, users, rows)


def _csv_counts(raw: str, lineno: int, fields: int) -> tuple[int, ...]:
    """The counts of one CSV row, read cell by cell; raises on the row's first fault.

    Only for a row that failed whole-row conversion or holds a cell longer than
    the digit cap: this names the field, refuses a count over the cap before
    converting it, and accepts the rare cell that ``str.strip`` cleans but
    ``int`` alone does not.
    """
    cells = [cell.strip() for cell in raw.split(",")]
    if len(cells) != fields:
        raise ParseError(f"expected {fields} fields, got {len(cells)}", line=lineno)
    row = []
    for fieldno, cell in enumerate(cells[1:], start=2):
        _check_digits(len(cell.lstrip("+-")), "stream count", lineno, fieldno)
        try:
            value = int(cell)
        except ValueError:
            raise ParseError(f"not an integer: {cell!r}", line=lineno, field=fieldno) from None
        if value < 0:
            raise ParseError(f"negative stream count: {value}", line=lineno, field=fieldno)
        row.append(value)
    return tuple(row)


def _serialize_csv(problem: StreamingProblem) -> str:
    for ident in problem.artists + problem.users:
        if "," in ident or "\n" in ident or "\r" in ident:
            raise ParseError(f"identifier {ident!r} cannot be written as CSV")
    lines = ["artist," + ",".join(problem.users)]
    for artist, row in zip(problem.artists, problem.streams):
        lines.append(artist + "," + ",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def parse_problem(data: str | bytes, format: str) -> StreamingProblem:
    """Parse a problem from ``csv`` or ``json`` text.

    The CSV form carries no fee (use :meth:`StreamingProblem.with_fee` for a
    fee other than 1).  Raises :class:`ParseError` with a line and field
    where that is meaningful, and the usual construction errors otherwise.
    """
    if format not in _FORMATS:
        raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from None
    if format == "csv":
        return _parse_csv(data)
    try:
        payload = _json_loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", line=exc.lineno, field=exc.colno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    return problem_from_dict(payload)


# A run of digits over the cap.  The lookbehind starts a match only where a run
# starts, so the search is linear: without it, each digit of a long run would
# start a scan of the rest of that run.
_LONG_DIGIT_RUN = re.compile(f"(?<![0-9])[0-9]{{{MAX_INPUT_DIGITS + 1}}}")


def _json_loads(text: str):
    """``json.loads``, refusing a number over the digit cap before converting it.

    Only a text with a run of more digits than the cap holds such a number,
    so only that text sends its integers through the hook :func:`_json_int`.
    """
    long_run = len(text) > MAX_INPUT_DIGITS and _LONG_DIGIT_RUN.search(text)
    return json.loads(text, parse_int=_json_int if long_run else None)


def _json_int(text: str) -> int:
    """A JSON integer, refused before conversion when it has too many digits."""
    _check_digits(len(text) - text.startswith("-"), "JSON number")
    return int(text)


def serialize_problem(problem: StreamingProblem, format: str) -> str:
    """Serialize to ``csv`` or ``json``.  ``parse_problem`` inverts both forms."""
    if format not in _FORMATS:
        raise ParseError(f"unknown format {format!r}; expected one of {_FORMATS}")
    if format == "csv":
        return _serialize_csv(problem)
    return json.dumps(problem_to_dict(problem), indent=2) + "\n"


def _whole_row(rest: str) -> tuple[int, ...]:
    """The counts of one CSV row after its name, or () if a cell fails ``int``, is too long
    or is negative.

    ``int`` strips whitespace.  Cells two characters long or shorter on average repeat
    their texts, so such a row converts and sign-checks each distinct text once, then looks
    every cell up.
    """
    texts = rest.split(",")
    # A row no longer than the digit cap holds no cell over it.
    if len(rest) > MAX_INPUT_DIGITS and max(map(len, texts)) > MAX_INPUT_DIGITS:
        return ()
    try:
        if 1 < len(texts) and len(rest) < 3 * len(texts):
            made = {text: int(text) for text in set(texts)}
            return itemgetter(*texts)(made) if min(made.values()) >= 0 else ()
        row = tuple(map(int, texts))
    except ValueError:
        return ()
    return row if min(row) >= 0 else ()
