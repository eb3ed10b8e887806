"""Delimited plain-text tables: dialect detection, parsing, and csvy front matter.

The quoting rules are pinned to what this package serializes, so that
errors carry 1-based record numbers and cells round-trip byte-exactly: a
field that starts with a double quote runs, delimiters and newlines
included, until the matching close quote, and a doubled quote inside it is
a literal quote (RFC 4180, narrowed to these rules).  A table's first
record is always its header, so a ``Dialect`` is just the delimiter, and
detection decides only that.  Every table has a header: ``CsvTable``
refuses an empty one, so text with no record raises the same ``CsvError``
from every reader, and no caller needs to check for a header of its own.

A ``CsvTable`` is stored by column: one tuple of cells per column, in row
order.  Every reader here reads columns (digit shapes, ``column()``,
validation, serializing, chunking), so a parse builds the columns straight
from each block of text, and ``CsvTable.rows`` is a view built on request.

A record ends at a line break outside quotes: LF, CRLF or a lone CR, as
the stdlib's ``csv`` reader reads lines (``_BREAK_RE``).  Inside a quoted
field all three are cell content, and form feeds and Unicode line
separators never break a line.

Most tables hold no quote at all.  When the decoded text has no double
quote, its records are simply its non-empty lines, split on LF after CRLF
and then CR are folded to LF (``_plain_text``), about a mebibyte at a
time.  Each block's widths are checked exactly, by counting every line's
delimiters; a block that passes is split into cells in one call and
sliced into its columns, and a block that fails names its ragged row.
Other text is read by the C ``csv`` reader in strict mode, a batch of
records at a time, and each batch is transposed into columns.  The reader
reads valid text by these same rules and refuses, rather than repairs,
what they read differently: text after a close quote and an unterminated
quote.  The tokenizer, one compiled regex per delimiter with one match per
token (the quote-free rest of a record, which is split on the delimiter,
or a single field), reads what the reader refuses, from the end of the
last batch it completed on.  Detection reads the widths of the first
records the same way: from each line's delimiter count when they are
plain, and otherwise by one tokenizer pass per candidate delimiter, which
also tells whether that candidate reads every quote around a whole field.
All paths give the same records, so record numbers in errors do not
depend on which one ran.

Serializing is canonical: every record ends in LF, a cell is quoted
exactly when it holds a character of ``_QUOTED_BY`` (a quote, a line break
or any candidate delimiter), a width-1 empty cell is written ``""``, and
a header's first cell that begins with U+FEFF is written quoted, so that it
is not read back as a byte order mark.  Detection scores only the
delimiters that read every quote around a whole field, when some do, so it
reads canonical text back as the same table.
Text in that form passes the canonical test, ``_canonical``, and chunking
cuts and copies it (``_csvy_pieces``), as it does quote-free text that
differs from it only in its line ends, once folded to LF.  Any other text is
rendered a batch at a time as it is parsed, and no table is built.  Only
text that parses cleanly passes, so every error still comes from the parser.

A parsed ``CsvTable`` builds one ``ColumnShapes`` per column on first use:
the column's cells, and how many of them have each digit shape, a cell with
every ASCII digit mapped to ``0``.  The type checks here use
``[0-9]`` classes only, so a value passes one exactly when its shape does,
and ``schema`` and ``lint`` judge a column of a million numbers by its few
shapes instead of by each value.
"""

from __future__ import annotations

import datetime
import io
import re
import sys
from collections import Counter, deque, namedtuple
from functools import cache, cached_property
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Sequence

from .errors import CsvError, EncodingError, FrontMatterError, checked_tuple

LF = "\n"
CRLF = "\r\n"

#: Candidate delimiters, in preference order for detection ties.
DELIMITERS = (",", "\t", ";")

QUOTE = '"'

#: U+FEFF, the byte order mark that a text's first character may be.
BOM = "\ufeff"

# A line break outside quotes, which ends a record: LF, CRLF or a lone CR.
_BREAK_RE = re.compile(r"\r\n?|\n")

# A non-empty line: a record when the text has no quote.  Text with no such
# line holds no record.
_RECORD_LINE_RE = re.compile(r"[^\r\n]+")

#: Tokens that commonly stand in for a missing value.  Cells equal to one of
#: these are flagged when they are not declared as missing codes.
MISSING_WATCHLIST = frozenset({"NA", "N/A", "", "-99", "-999", "unknown", "NULL", "."})

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_DATE_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")
_BOOLEAN_TOKENS = frozenset({"true", "false", "TRUE", "FALSE"})


def is_integer_token(cell: str) -> bool:
    """True for an optionally signed run of digits, e.g. ``-42``."""
    return _INTEGER_RE.fullmatch(cell) is not None


def is_number_token(cell: str) -> bool:
    """True for a decimal number with optional sign, fraction, and exponent.

    Thousands separators and other locale decorations do not count.
    """
    return _NUMBER_RE.fullmatch(cell) is not None


def is_boolean_token(cell: str) -> bool:
    """True for exactly ``true``, ``false``, ``TRUE``, or ``FALSE``."""
    return cell in _BOOLEAN_TOKENS


def is_date_token(cell: str) -> bool:
    """True for a calendar-valid ``YYYY-MM-DD`` date.

    The shape must match exactly (four digits, dash, two, dash, two) and the
    date must exist: ``2019-02-30`` and ``22-01-2019`` are both rejected.
    """
    m = _DATE_RE.fullmatch(cell)
    if m is None:
        return False
    year, month, day = (int(g) for g in m.groups())
    try:
        datetime.date(year, month, day)
    except ValueError:
        return False
    return True


#: Maps each ASCII digit to ``0``: ``cell.translate`` gives the cell's digit
#: shape.  Other digits (``٣``, ``²``, ``１``) stay, as ``[0-9]`` rejects them.
_TO_SHAPE = str.maketrans("123456789", "000000000")

#: The one shape a date has; ``is_date_token`` also wants it on the calendar.
DATE_SHAPE = "0000-00-00"

#: Cells per slice: a slice's text and shapes are all the per-cell memory a
#: summary holds at once.
_SLICE_CELLS = 4096


@cache  # compiled on first use: most runs classify no column
def _odd_date_re() -> re.Pattern[str]:
    """Date-shaped lines of LF-joined cells outside the class every
    calendar has (year not 0000, month 01-12, day 01-28)."""
    return re.compile(
        r"^(?!(?!0000)[0-9]{4}-(?:0[1-9]|1[0-2])-(?:0[1-9]|1[0-9]|2[0-8])$)"
        r"[0-9]{4}-[0-9]{2}-[0-9]{2}$",
        re.M,
    )


def _slices(cells: Sequence[str]) -> Iterator[tuple[Sequence[str], str | None]]:
    """``(cells, text)`` per slice of at most ``_SLICE_CELLS`` cells, in row
    order: ``text`` is the slice LF-joined, or None when the LF count shows
    that a cell holds an LF."""
    for start in range(0, len(cells), _SLICE_CELLS):
        chunk = cells[start : start + _SLICE_CELLS]
        text = LF.join(chunk)
        yield chunk, (text if text.count(LF) == len(chunk) - 1 else None)


def _shapes_of(chunk: Sequence[str], text: str | None) -> list[str]:
    if text is None:
        return [cell.translate(_TO_SHAPE) for cell in chunk]
    return text.translate(_TO_SHAPE).split(LF)


class ColumnShapes:
    """The digit shapes of one column's cells, taken on first use a slice
    at a time: nothing per cell is kept past its slice."""

    def __init__(self, cells: Iterable[str]):
        self.cells = cells if isinstance(cells, (tuple, list)) else tuple(cells)

    @cached_property
    def counts(self) -> Counter[str]:
        """How many cells have each shape."""
        counts: Counter[str] = Counter()
        for chunk, text in _slices(self.cells):
            counts.update(_shapes_of(chunk, text))
        return counts

    @cached_property
    def bad_dates(self) -> frozenset[str]:
        """The date-shaped values that are not on the calendar.  Only those
        outside the always-valid class, found by one regex over each slice's
        text, reach ``is_date_token``."""
        odd: set[str] = set()
        if DATE_SHAPE in self.counts:
            for chunk, text in _slices(self.cells):
                if text is None:
                    odd.update(c for c in chunk if c.translate(_TO_SHAPE) == DATE_SHAPE)
                else:
                    odd.update(_odd_date_re().findall(text))
        return frozenset(d for d in odd if not is_date_token(d))

    def present(self, values: Iterable[str]) -> set[str]:
        """Those of ``values`` that are cells of the column; the column is
        searched only for a value whose shape it has."""
        counts = self.counts
        return {v for v in set(values) if v.translate(_TO_SHAPE) in counts and v in self.cells}

    def shapes(self, excluded: Iterable[str]) -> AbstractSet[str]:
        """The shapes of the cells not in ``excluded``: ``-99`` shapes like
        ``-12``, so a shape goes only with its last cell."""
        counts = self.counts
        gone: Counter[str] = Counter()
        for value in self.present(excluded):
            gone[value.translate(_TO_SHAPE)] += self.cells.count(value)
        emptied = {shape for shape, n in gone.items() if n == counts[shape]}
        return counts.keys() - emptied if emptied else counts.keys()

    def rows_where(
        self, shapes: AbstractSet[str], odd: AbstractSet[str], excluded: AbstractSet[str]
    ) -> Iterator[tuple[int, str]]:
        """``(row, cell)``, rows counted from 0, for each cell not in ``excluded``
        whose shape is in ``shapes`` or that is in ``odd``, in row order."""
        if not shapes and not odd:
            return
        for start, (chunk, text) in zip(count(0, _SLICE_CELLS), _slices(self.cells)):
            hits = map(shapes.__contains__, _shapes_of(chunk, text))
            if odd:
                hits = map(bool.__or__, hits, map(odd.__contains__, chunk))
            yield from (hit for hit in compress(zip(count(start), chunk), hits) if hit[1] not in excluded)


class Dialect(checked_tuple("Dialect", "delimiter")):
    """How a delimited table is written down: its delimiter.  Every table's
    first record is its header."""

    __slots__ = ()

    def __new__(cls, delimiter: str = ","):
        if delimiter not in DELIMITERS:
            raise CsvError(f"unsupported delimiter {delimiter!r}; use comma, tab, or semicolon")
        return tuple.__new__(cls, (delimiter,))


class CsvTable(checked_tuple("CsvTable", "header columns dialect source")):
    """An in-memory table: a header row plus equal-length columns.

    Cells are kept verbatim; nothing is trimmed or type-coerced here.
    ``columns`` holds one tuple per column, in row order, and every reader
    in this package reads columns.  A parse checks every record's width
    as it splits, a block at a time, and passes ``columns=``: the
    constructor then checks only the column count against the header and
    the column lengths, so its cost grows with the width, not the rows.
    ``CsvTable(header, rows)`` builds the columns from rows and checks each
    row's width.  ``rows`` is a view built from the columns on each access,
    ``rows[i][j]`` being cell ``j`` of row ``i``; nothing here reads it.
    The header names every column, and every table has one: a table with
    no header has no columns, and is refused in every form (``rows=``,
    ``columns=`` or neither) with the error a text with no record gives.
    The fields are ``header``, ``columns``, ``dialect`` and ``source``; a
    table keeps its ``shapes`` in its ``__dict__``, and a copy builds them again.
    """

    def __new__(
        cls,
        header: list[str],
        rows: Sequence[Sequence[str]] = (),
        dialect: Dialect | None = None,
        source: str | None = None,
        *,
        columns: tuple[tuple[str, ...], ...] | None = None,
    ):
        if not header:
            raise CsvError("table is empty; expected a header row")
        if columns is None:
            columns = _transpose(rows, len(header), 1)
        elif len(columns) != len(header):
            raise CsvError(f"expected {len(header)} columns, found {len(columns)}")
        elif len(set(map(len, columns))) > 1:
            raise CsvError("columns must all have the same length")
        seen: set[str] = set()
        for name in map(str.strip, header):
            if name in seen:
                raise CsvError(f"duplicate column name {name!r}")
            seen.add(name)
        return tuple.__new__(cls, (header, columns, Dialect() if dialect is None else dialect, source))

    @property
    def column_names(self) -> list[str]:
        """Header cells with surrounding whitespace trimmed."""
        return [name.strip() for name in self.header]

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def height(self) -> int:
        """The number of data rows."""
        return len(self.columns[0])

    @property
    def rows(self) -> list[list[str]]:
        """The data rows, built from the columns on each access."""
        return [list(row) for row in zip(*self.columns)]

    @cached_property
    def shapes(self) -> tuple[ColumnShapes, ...]:
        """One ``ColumnShapes`` per column.  Built on first use and then
        kept, so inference, validation and lint classify a column once."""
        return tuple(map(ColumnShapes, self.columns))

    def column(self, name: str) -> list[str]:
        """All cells under the named column, in row order."""
        names = self.column_names
        try:
            index = names.index(name.strip())
        except ValueError:
            raise CsvError(f"no column named {name!r}; have {names}") from None
        return list(self.columns[index])


def _transpose(rows: Sequence[Sequence[str]], width: int, before: int) -> tuple[tuple[str, ...], ...]:
    """``rows`` as ``width`` column tuples.  A row of another width raises
    ``CsvError`` naming its record number, ``before`` records coming ahead
    of ``rows``."""
    if not {width}.issuperset(map(len, rows)):
        index = next(i for i, row in enumerate(rows) if len(row) != width)
        raise CsvError(f"expected {width} cells, found {len(rows[index])}", row=before + index + 1)
    return tuple(zip(*rows)) if rows else ((),) * width


class FrontMatter(checked_tuple("FrontMatter", "raw_yaml mapping")):
    """YAML front matter attached to a table.

    ``raw_yaml`` holds the verbatim text between the fences so a parse and
    re-serialize round trip reproduces the input byte for byte.  ``mapping``
    is the parsed value.  A ``schema`` block in it is not checked here;
    ``schema.schema_from_front_matter(mapping)`` reads it on request.
    """

    __slots__ = ()

    def __new__(cls, raw_yaml: str = "", mapping: dict | None = None):
        if _FENCE_LINE.search(raw_yaml):
            raise FrontMatterError(
                "raw_yaml may not contain a bare '---' line; it would close the fence early"
            )
        return tuple.__new__(cls, (raw_yaml, {} if mapping is None else mapping))


def _decode(data: bytes) -> str:
    """Decode UTF-8 input, tolerating and stripping a leading BOM."""
    if data[:3] == b"\xef\xbb\xbf":
        data = data[3:]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"input is not valid UTF-8: {exc}") from None


def _plain_text(text: str) -> str | None:
    """``text`` with every line break folded to LF, CRLF first and then a
    lone CR, when it holds no double quote and so no quoted field: its
    records are then its non-empty lines.  None for any other text."""
    if QUOTE in text:
        return None
    return text.replace(CRLF, LF).replace("\r", LF) if "\r" in text else text


def _batches(text: str, delimiter: str) -> Iterator[Sequence[Sequence[str]]]:
    """Batches of columns of the records of text, the first of which starts
    with the first record: a parse gathers them, and a render writes them.

    Lines with no characters at all are skipped.  Every record must have
    the first record's width: ``CsvError`` names the first one that does
    not, and an unterminated quote, with their 1-based record numbers.
    Plain text is split by its lines, ``_line_columns``; any other text is
    read by ``_read_quoted``.
    """
    lines = _plain_text(text)
    if lines is not None:
        return _line_columns(lines, delimiter)
    return _record_columns(_read_quoted(text, delimiter))


def _gather(batches: Iterator[Sequence[Sequence[str]]], dialect: Dialect) -> CsvTable:
    """Join batches of columns, the first of which starts with the first
    record, into a table whose header is that record: with no record the
    header is empty, and ``CsvTable`` refuses it."""
    columns: list[list[str]] = []
    for batch in batches:
        if not columns:  # a list in the first batch is taken over as it is
            columns = [column if isinstance(column, list) else list(column) for column in batch]
            continue
        for cells, column in zip(columns, batch):
            cells += column
    header = [cells[0] for cells in columns]
    for index, cells in enumerate(columns):  # one list at a time is alive next to its tuple
        del cells[0]
        columns[index] = tuple(cells)
    return CsvTable(header=header, dialect=dialect, columns=tuple(columns))


#: Characters per block of ``_line_columns``.
_BLOCK_CHARS = 1 << 20


def _blocks(text: str, size: int) -> Iterator[str]:
    """``text`` cut after the first line break past every ``size``
    characters, never inside a CRLF."""
    start = 0
    while start < len(text):
        found = _BREAK_RE.search(text, start + size)
        end = found.end() if found else len(text)
        yield text[start:end]
        start = end


def _line_columns(text: str, delimiter: str) -> Iterator[Sequence[Sequence[str]]]:
    """The columns of plain LF text's non-empty lines split on the
    delimiter, a block of ``_BLOCK_CHARS`` at a time, so only one block's
    line strings are alive at once.

    Every line of a block must hold one delimiter fewer than the first
    line's width: a block with a ragged line goes to ``_transpose``, which
    raises with its record number.  The lines of a block are joined and
    split in one call, and column ``j`` is every ``width``-th cell from
    cell ``j``.
    """
    width = before = 0  # before: records in the blocks already split
    for block in _blocks(text, _BLOCK_CHARS):
        lines = list(filter(None, block.split(LF)))
        if not lines:
            continue
        width = width or lines[0].count(delimiter) + 1
        if not {width - 1}.issuperset(map(str.count, lines, repeat(delimiter))):
            _transpose([line.split(delimiter) for line in lines], width, before)  # raises at the ragged line
        before += len(lines)
        cells = delimiter.join(lines)
        del lines  # before the cells are made
        cells = cells.split(delimiter)
        yield [cells[j::width] for j in range(width)]


def _record_columns(batches: Iterator[list[list[str]]]) -> Iterator[Sequence[Sequence[str]]]:
    """Batches of non-empty records as batches of columns, every record
    checked against the first one's width.  A ragged record is reported
    only once the remaining batches have been read, so an unterminated
    quote later in the text is reported first, as a split that reads the
    whole text before any width reports it."""
    width = before = 0
    for rows in batches:
        if not rows:
            continue
        width = width or len(rows[0])
        try:
            columns = _transpose(rows, width, before)
        except CsvError:
            deque(batches, maxlen=0)
            raise
        yield columns
        before += len(rows)


#: Characters per block fed to the ``csv`` reader: ``StringIO`` may keep four bytes per character.
_READER_BLOCK_CHARS = 1 << 16

#: Records per batch read from the ``csv`` reader.
_READER_BATCH = 2048


def _read_quoted(text: str, delimiter: str) -> Iterator[list[list[str]]]:
    """Batches of the non-empty records of text, as the C ``csv`` reader
    reads them.  When the reader refuses the text, the tokenizer reads the
    rest, from the end of the last batch the reader completed.

    Strict mode refuses just what these rules read differently: text after
    a close quote (``"ab"cd``) and an unterminated quote, which non-strict
    mode would silently close.  The reader also refuses a field over
    ``csv.field_size_limit()`` and, before Python 3.11, a NUL.  The text is
    fed in blocks cut after a line break; the reader carries an open quote
    across a block edge itself.  Each line it reads ends at one line break,
    LF, CRLF or a lone CR, and it reads no further than the record it
    returns, so a batch ends after the ``reader.line_num``-th line break.
    """
    import csv  # only quoted text is read with it

    lines = chain.from_iterable(io.StringIO(b, newline="") for b in _blocks(text, _READER_BLOCK_CHARS))
    reader = csv.reader(lines, delimiter=delimiter, strict=True)
    records = done = 0  # records and lines in the batches read so far
    try:
        while batch := list(islice(reader, _READER_BATCH)):
            rows = list(filter(None, batch))  # a blank line reads as []
            yield rows
            records += len(rows)
            done = reader.line_num
    except csv.Error:
        start = next(islice(_BREAK_RE.finditer(text), done - 1, None)).end() if done else 0
        yield _split_quoted(text, delimiter, start=start, before=records)[0]


@cache  # compiled on first use: most runs read no quoted text
def _token_re(delimiter: str) -> re.Pattern[str]:
    """One match per token, tried at every field start: either the
    quote-free rest of a record (group 1), or one field, quoted (groups
    2-3, the close quote missing when the text ends first) or not, then any
    unquoted text up to its delimiter or line break (groups 4-5).  A record
    ends at a ``_BREAK_RE`` line break; inside quotes a line break is cell
    content.  The second alternative matches wherever the first fails, so
    ``finditer`` never skips text."""
    d = re.escape(delimiter)
    brk = _BREAK_RE.pattern
    quoted = r'[^"]*(?:""[^"]*)*'
    return re.compile(
        rf'([^"\r\n]*)(?:{brk}|\Z)|(?:"({quoted})(?:(")|\Z)|)([^{d}\r\n]*)({d}|{brk}|\Z)'
    )


def _split_quoted(
    text: str,
    delimiter: str,
    *,
    limit: int | None = None,
    start: int = 0,
    before: int = 0,
) -> tuple[list[list[str]], bool]:
    """The non-empty records of any text from offset ``start``, a record
    boundary that ``before`` records precede, or its first ``limit``, read
    by a token regex that honors quoted fields; and whether each quote read
    opens or closes a whole field or is doubled inside one.  A whole read
    raises ``CsvError`` with the 1-based record number of an unterminated
    quote; a limited read is a sample, and closes a quote open at its end."""
    records: list[list[str]] = []
    cells: list[str] = []  # the open record's cells so far
    clean = True
    for match in _token_re(delimiter).finditer(text, start):
        tail, quoted, closed, plain, end = match.groups()
        if tail is not None:
            if not (tail or cells):
                continue  # a line with no characters is not a record
            cells += tail.split(delimiter)
        else:
            if quoted is None:
                cells.append(plain)
                clean = clean and QUOTE not in plain  # a quote inside a bare field
            elif closed is None and limit is None:
                raise CsvError("unterminated quoted field", row=before + len(records) + 1)
            else:
                cells.append(quoted.replace('""', QUOTE) + plain)
                clean = clean and not plain  # text after a close quote
            if end == delimiter:
                continue
        records.append(cells)
        cells = []
        if limit is not None and len(records) >= limit:
            break
    return records, clean


def parse_table(data: bytes, dialect: Dialect) -> CsvTable:
    """Parse delimited bytes into a table with the given delimiter; the
    first record is the header.  A record ends at LF, CRLF or a lone CR
    outside quotes; inside quotes each is cell content.

    Raises ``CsvError`` with the offending 1-based record number for ragged
    rows and unterminated quotes, ``CsvError`` for text with no record, and
    ``EncodingError`` for non-UTF-8 input.
    """
    return _gather(_batches(_decode(data), dialect.delimiter), dialect)


def _detect_from_text(text: str) -> Dialect:
    """The dialect of decoded text, from the widths of its first 20 records:
    each plain line's delimiter count or, when the head holds a quote, one
    tokenizer pass per candidate, which also gives its clean-quoting verdict."""
    found = list(islice(_RECORD_LINE_RE.finditer(text), 20))
    head = _plain_text(text[: found[-1].end() + 1] if found else "")

    # Canonical text quotes every cell that holds a candidate delimiter, so
    # another candidate reads a quote inside a bare field, or text after a
    # close quote, and may split those cells consistently: when some
    # candidate reads cleanly, only those count.
    if head is None:
        samples = {d: _split_quoted(text, d, limit=20) for d in DELIMITERS}
        candidates = [d for d in DELIMITERS if samples[d][1]] or DELIMITERS
        widths = {d: [len(cells) for cells in samples[d][0]] for d in candidates}
    else:
        widths = {d: [line.count(d) + 1 for line in head.split(LF) if line] for d in DELIMITERS}
    consistent = {d: w[0] for d, w in widths.items() if len(set(w)) == 1}

    # When only one-column candidates are consistent, one that splits the
    # header and another record outranks them: the table is read with it and
    # its ragged record raises, rather than becoming one column named by the
    # header line.  A header alone proves nothing: a one-column table may
    # name its column "a;b".
    splits = {d: w[0] for d, w in widths.items() if w and w[0] > 1 and any(n > 1 for n in w[1:])}
    scores = consistent
    if not consistent:
        scores = {",": 1}
    elif max(consistent.values()) == 1 and splits:
        scores = splits
    best = max(scores.values())
    return Dialect(next(d for d in DELIMITERS if scores.get(d) == best))


def detect_dialect(sample: bytes) -> Dialect:
    """Guess the delimiter of a sample: the ``Dialect`` holds nothing else.

    Candidates are comma, tab, and semicolon.  Each is scored over the first
    20 records (quote-aware, blank lines skipped): a candidate is consistent
    when every record has the same field count.  Among consistent candidates
    the one with the most fields wins; ties fall to comma, then tab, then
    semicolon.  When only one-column candidates are consistent but another
    splits the first record and a later one into more than one cell, the
    candidate that splits the first record into the most cells wins (same
    tie order), so parsing raises the ragged record rather than reading one
    column named by the whole header line.  When none is consistent the
    comma wins.  In a sample with a quote, only the candidates that read
    every quote around a whole field are scored, when there are any.

    Raises ``CsvError`` on an empty sample.
    """
    if not sample:
        raise CsvError("cannot detect a dialect from an empty sample")
    return _detect_from_text(_decode(sample))


# A line that is exactly ``---``, starting and ending where a record does
# (``_BREAK_RE``), CRs before an LF aside: the first opens front matter, the next closes it.
_FENCE_LINE = re.compile(r"(?:^|(?<=\r))---(?:\r*(?:\n|\Z)|\r)", re.M)


def _split_front_matter(text: str) -> tuple[str, str]:
    """Split text into verbatim front-matter YAML and the body after it.

    Text that does not open with a fence line has no front matter.  A fence
    line ends where a record does, trailing CRs before an LF included, never
    at the form feeds and Unicode separators ``str.splitlines`` breaks on.
    """
    opening = _FENCE_LINE.match(text)
    if opening is None:
        return "", text
    closing = _FENCE_LINE.search(text, opening.end())
    if closing is None:
        raise FrontMatterError("front matter fence '---' is never closed")
    return text[opening.end() : closing.start()], text[closing.end() :]


@cache
def _front_matter_loader():
    """SafeLoader minus implicit timestamps, so dates stay strings.

    Built on the first front-matter parse: PyYAML is imported only by a
    process that reads front matter.
    """
    import yaml

    class _FrontMatterLoader(yaml.SafeLoader):
        yaml_implicit_resolvers = {
            key: [(tag, regexp) for tag, regexp in resolvers if tag != "tag:yaml.org,2002:timestamp"]
            for key, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
        }

    return _FrontMatterLoader


_ALLOWED_YAML_TAGS = frozenset(
    f"tag:yaml.org,2002:{name}"
    for name in ("str", "int", "float", "bool", "null", "map", "seq")
)


def _load_front_matter_mapping(raw: str) -> dict:
    """Parse front-matter YAML restricted to a plain-data subset.

    Allowed: one document whose value is a mapping built from mappings,
    sequences, strings, numbers, booleans, and null.  Anchors, aliases,
    non-core tags, and multiple documents are rejected.
    """
    import yaml

    loader = _front_matter_loader()
    documents = 0
    try:
        for event in yaml.parse(raw, Loader=loader):
            if isinstance(event, yaml.DocumentStartEvent):
                documents += 1
                if documents > 1:
                    raise FrontMatterError("front matter must be a single YAML document")
            if getattr(event, "anchor", None):
                raise FrontMatterError("YAML anchors and aliases are not supported in front matter")
            tag = getattr(event, "tag", None)
            if tag and tag not in _ALLOWED_YAML_TAGS:
                raise FrontMatterError(f"YAML tag is not supported in front matter: {tag}")
        value = yaml.load(raw, Loader=loader)
    except yaml.YAMLError as exc:
        raise FrontMatterError(f"front matter is not valid YAML: {exc}") from None
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise FrontMatterError("front matter must be a YAML mapping")
    return value


def parse_csvy(data: bytes) -> tuple[FrontMatter, CsvTable]:
    """Parse a table with optional YAML front matter.

    The front matter, when present, is fenced by lines that are exactly
    ``---``; everything between the fences is kept verbatim in
    ``FrontMatter.raw_yaml``.  The body's delimiter is detected, and its
    first record is the header, as in every table here: the same body
    parses as ``parse_table(body, detect_dialect(body))``, and a body with
    no record raises the same ``CsvError``.

    Raises ``FrontMatterError`` for an unclosed fence or YAML outside the
    supported subset, and ``CsvError``/``EncodingError`` for a bad body.
    """
    raw_yaml, body = _split_front_matter(_decode(data))
    mapping: dict = {}
    if raw_yaml:
        mapping = _load_front_matter_mapping(raw_yaml)

    front = FrontMatter(raw_yaml=raw_yaml, mapping=mapping)
    dialect = _detect_from_text(body)
    return front, _gather(_batches(body, dialect.delimiter), dialect)


#: The quoting rule: a cell is written quoted, its quotes doubled, exactly
#: when it holds one of these characters.  Every candidate delimiter counts,
#: not only the table's own: a bare one could make detection read another.
_QUOTED_BY = QUOTE + "".join(DELIMITERS) + "\r" + LF


def _render_column(cells: Sequence[str]) -> Sequence[str]:
    """The cells as written, by ``_QUOTED_BY``."""
    q, d1, d2, d3, cr, lf = _QUOTED_BY  # each tested with ``in``, the fastest test of a cell
    text = "".join(cells)  # one scan of the whole column: most need no quoting at all
    if any(special in text for special in _QUOTED_BY):
        return [
            QUOTE + c.replace(QUOTE, QUOTE + QUOTE) + QUOTE
            if q in c or d1 in c or d2 in c or d3 in c or cr in c or lf in c
            else c
            for c in cells
        ]
    return cells


def _render_rows(columns: Sequence[Sequence[str]], delimiter: str) -> Iterator[str]:
    """The canonical lines, without their LF, of the records whose cells
    ``columns`` hold: none is empty, as a width-1 empty cell is written ``""``."""
    rows = map(delimiter.join, zip(*map(_render_column, columns)))
    return (row or '""' for row in rows) if len(columns) == 1 else rows


def _header_text(header: Sequence[str], delimiter: str) -> str:
    """The canonical text of a header record.  A first cell that begins with
    U+FEFF is written quoted, bare or not: at the start of a file, a reader
    drops it as the byte order mark."""
    text = next(_render_rows([[name] for name in header], delimiter)) + LF
    return f'"{header[0]}"{text[len(header[0]) :]}' if text.startswith(BOM) else text


def _table_text(table: CsvTable) -> str:
    delimiter = table.dialect.delimiter
    text = LF.join(_render_rows(table.columns, delimiter))
    return _header_text(table.header, delimiter) + (text and text + LF)


def serialize_table(table: CsvTable) -> bytes:
    """Serialize a table canonically: LF endings, a cell quoted exactly when
    it holds a candidate delimiter, a double quote or a line break, and a
    lone empty cell, which parsers would skip as a blank line, written ``""``."""
    return _table_text(table).encode("utf-8")


def _csvy_bytes(raw_yaml: str, pieces: Sequence[str]) -> bytes:
    """A front-matter block of ``raw_yaml`` (none when it is empty), then the
    canonical text ``pieces``, the first of which starts with the header."""
    block = ""
    if raw_yaml:
        if not raw_yaml.endswith(("\n", "\r")):  # a line break, so the closing fence starts a line
            raw_yaml += "\n"
        block = f"---\n{raw_yaml}---\n"
    elif pieces[0].startswith("---\n"):
        # A first line of exactly --- would reparse as a front-matter
        # fence; quote that lone cell so the table stays a table.
        pieces = ['"---"' + pieces[0][3:], *pieces[1:]]
    return "".join([block, *pieces]).encode("utf-8")


def serialize_csvy(front: FrontMatter | None, table: CsvTable) -> bytes:
    """Serialize front matter (when any) and a table to canonical bytes.

    The front-matter block is emitted verbatim from ``raw_yaml`` between
    ``---`` fences; an empty ``raw_yaml`` means no block at all, so plain
    tables pass through unchanged.
    """
    return _csvy_bytes("" if front is None else front.raw_yaml, [_table_text(table)])


#: Records per match of the canonical test: a repeat keeps a backtracking mark
#: per record, and on quoted text blocks of 1,024 take twice as long as 64.
_CANONICAL_RECORDS = 64


def _canonical_record(delimiter: str, width: int) -> str:
    """The regex of one canonical record of ``width`` cells."""
    special = f"[{re.escape(_QUOTED_BY)}]"
    plain = "[^" + special[1:]
    quoted = f'"{plain}*(?:""|(?!"){special})[^"]*(?:""[^"]*)*"'  # holding a special character
    if width == 1:
        return f'(?:""|{quoted}|{plain}+)\n'
    cell = f"(?:{plain}*|{quoted})"
    return f"{cell}(?:{re.escape(delimiter)}{cell}){{{width - 1}}}\n"


@cache
def _records_re(record: str, count: int) -> re.Pattern[str]:
    return re.compile(f"(?:{record}){{{count}}}")


def _plain_lines(body: str, delimiter: str, width: int) -> bool:
    """Whether no line of ``body`` is blank and each holds ``width - 1``
    delimiters: checked at once in the skeleton of delimiters and LFs of its
    bytes, as UTF-8 writes an ASCII character as its own byte, and no other."""
    if body.startswith(LF) or LF + LF in body:
        return False
    keep = (delimiter + LF).encode()
    skeleton = body.encode("utf-8").translate(None, bytes(b for b in range(256) if b not in keep))
    record = (delimiter * (width - 1) + LF).encode()
    return skeleton == record * (len(skeleton) // len(record))


def _canonical(body: str, delimiter: str, every: int = sys.maxsize) -> tuple[list[str], int, list[int]] | None:
    """The canonical test: whether ``body`` is what ``serialize_table`` writes
    for the table it parses as.  If so, returns the header, the number of
    data rows, and the offsets after the header, after every ``every``-th
    data record and at the end; else None.  Only text that parses cleanly
    passes.  Records are matched a bounded block at a time; text with no
    quote and no CR, whose records are its lines, is checked by
    ``_plain_lines`` first, once it holds no other candidate delimiter.  A
    body that begins with U+FEFF fails: that header cell is written quoted.
    """
    if body.startswith(BOM):
        return None
    first = _split_quoted(body, delimiter, limit=1)[0]
    try:
        header = CsvTable(first[0] if first else []).header  # the header rules of every table
    except CsvError:
        return None
    if QUOTE in body or "\r" in body:
        record = _canonical_record(delimiter, len(header))
    elif any(other in body for other in DELIMITERS if other != delimiter):
        return None  # a cell holding it is written quoted
    elif _plain_lines(body, delimiter, len(header)):
        record = "[^\n]*\n"
    else:
        return None
    pos, rows, cuts, block = 0, -1, [], _CANONICAL_RECORDS  # the header is record -1, matched alone
    while pos < len(body):
        count = min(block, every - rows % every)
        found = _records_re(record, count).match(body, pos)
        if found is None:
            if count == 1:
                return None
            block = 1  # fewer than count records are left, or one of them is not canonical
            continue
        pos, rows = found.end(), rows + count
        if rows % every == 0 or pos == len(body):
            cuts.append(pos)
    return header, rows, cuts


def _csvy_pieces(
    data: bytes, every: int = sys.maxsize, checked_yaml: str = ""
) -> tuple[str, Dialect, list[str], list[str], int]:
    """A csvy file read as ``parse_csvy`` reads it, and raising what it
    raises: its front matter, dialect and header, its canonical text cut
    after the header and after every ``every``-th data row, and its number
    of data rows.  Front matter equal to ``checked_yaml`` is not parsed
    again.  A quote-free body is folded to LF first, as a parse reads it,
    and a body that then passes ``_canonical`` is cut as it is.  Any other
    is rendered a batch at a time as it is parsed, each piece cut as soon
    as its rows are; the header is checked after the last batch, as a parse does.
    """
    raw_yaml, body = _split_front_matter(_decode(data))
    del data  # hold at most the text and its pieces, each the size of the file
    if raw_yaml and raw_yaml != checked_yaml:
        _load_front_matter_mapping(raw_yaml)
    dialect = _detect_from_text(body)
    text = _plain_text(body) or body
    del body
    found = _canonical(text, dialect.delimiter, every)
    if found is not None:
        header, count, cuts = found
        return raw_yaml, dialect, header, [text[start:end] for start, end in zip([0, *cuts], cuts)], count
    header: list[str] = []
    pieces: list[str] = []
    rows: list[str] = []  # rendered, not yet cut
    for batch in _batches(text, dialect.delimiter):
        lines = _render_rows(batch, dialect.delimiter)
        if not header:
            header = [column[0] for column in batch]
            next(lines)  # the header's own line
        rows += lines
        cut = len(rows) - len(rows) % every
        pieces += (LF.join(rows[start : start + every]) + LF for start in range(0, cut, every))
        del rows[:cut]
    header = CsvTable(header).header  # the header rules of every table
    count = every * len(pieces) + len(rows)
    if rows:
        pieces.append(LF.join(rows) + LF)
    return raw_yaml, dialect, header, [_header_text(header, dialect.delimiter), *pieces], count


def read_csvy(path: str | Path) -> tuple[FrontMatter, CsvTable]:
    """Read and parse a table file (with or without front matter) from disk."""
    path = Path(path)
    front, table = parse_csvy(path.read_bytes())
    return front, table._replace(source=str(path))


class MissingProfile(namedtuple("MissingProfile", "count seen suspects")):
    """What a column's cells say about missing values.

    ``count`` tallies cells equal to a declared missing code, ``seen`` is
    the set of declared codes actually present, and ``suspects`` is the set
    of undeclared cells that look like missing-value stand-ins.
    """

    __slots__ = ()


def detect_missing_tokens(
    cells: Iterable[str], declared: Iterable[str] = ()
) -> MissingProfile:
    """Profile a column against declared missing codes and the watchlist.

    The codes and suspects come from the column's distinct values; the
    cells are counted once per declared code present.
    """
    cells = cells if isinstance(cells, (tuple, list)) else tuple(cells)
    declared_set = frozenset(declared)
    distinct = set(cells)
    seen = frozenset(distinct.intersection(declared_set))
    suspects = frozenset(distinct.intersection(MISSING_WATCHLIST).difference(declared_set))
    return MissingProfile(count=sum(map(cells.count, seen)), seen=seen, suspects=suspects)
