"""Tables, dialect detection, and front matter."""

from __future__ import annotations

import csv
import datetime
import gc
import io
import itertools
import random
import re
import string
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tidypack import (
    CsvError,
    CsvTable,
    Dialect,
    EncodingError,
    FrontMatter,
    FrontMatterError,
    SchemaError,
    detect_dialect,
    detect_missing_tokens,
    is_boolean_token,
    is_date_token,
    is_integer_token,
    is_number_token,
    parse_csvy,
    parse_table,
    schema_from_front_matter,
    serialize_csvy,
    serialize_table,
    tabular,
)

# ---------------------------------------------------------------------------
# Token predicates


def test_integer_tokens():
    for cell in ("0", "7", "-42", "+13", "007", "123456789012345678901234567890"):
        assert is_integer_token(cell), cell
    for cell in ("", " 7", "7 ", "1.0", "1e3", "--1", "+-1", "0x10", "1,000", "NA"):
        assert not is_integer_token(cell), cell


def test_number_tokens():
    for cell in ("0", "-42", "161.5", ".5", "5.", "+0.25", "1e3", "1E-4", "-2.5e+10"):
        assert is_number_token(cell), cell
    for cell in ("", "1,000", "1.2.3", "e3", "1e", "inf", "NaN", "1 000", "12%"):
        assert not is_number_token(cell), cell


def test_boolean_tokens():
    for cell in ("true", "false", "TRUE", "FALSE"):
        assert is_boolean_token(cell), cell
    for cell in ("True", "False", "T", "F", "yes", "no", "0", "1", ""):
        assert not is_boolean_token(cell), cell


def test_date_tokens():
    assert is_date_token("2019-01-22")
    assert is_date_token("2020-02-29")  # leap year
    assert is_date_token("2000-02-29")  # 400-year leap rule
    for cell in (
        "22-01-2019",
        "2019-02-30",
        "2019-2-2",
        "2019/01/22",
        "1900-02-29",  # 100-year rule: not a leap year
        "2019-13-01",
        "2019-00-10",
        "2019-01-00",
        "2019-01-22 ",
        "20190122",
        "",
    ):
        assert not is_date_token(cell), cell


# ---------------------------------------------------------------------------
# Dialect detection


def test_detects_semicolon_with_header():
    assert detect_dialect(b"a;b;c\n1;2;3\n4;5;6\n") == Dialect(delimiter=";")


@pytest.mark.parametrize("removed", ["line_ending", "has_header", "fallback"])
def test_a_dialect_is_only_its_delimiter(removed):
    with pytest.raises(TypeError):
        Dialect(**{removed: None})


def test_detects_tab():
    assert detect_dialect(b"x\ty\n1\t2\n").delimiter == "\t"


def test_tie_prefers_comma_over_tab():
    # One record; both comma and tab split it into two fields.
    assert detect_dialect(b"a,b\tc\n").delimiter == ","


def test_more_fields_beats_preference_order():
    # Comma gives a consistent 1 field, semicolon a consistent 3.
    assert detect_dialect(b"a;b;c\nd;e;f\n").delimiter == ";"


def test_no_consistent_candidate_falls_back_to_comma():
    assert detect_dialect(b"a,b\nc\td\ne;f;g\nh\n") == Dialect(delimiter=",")


def test_a_ragged_record_in_the_sample_is_not_read_as_one_column():
    # Record 6 has six comma cells: only the one-column tab and semicolon
    # candidates stay consistent, but the comma splits the header into five.
    lines = [b"id,code,day,amount,flag", *(b"%d,C1,2020-01-01,1.5,true" % k for k in range(30))]
    lines[5] += b",extra"
    data = b"\n".join(lines) + b"\n"
    dialect = detect_dialect(data)
    assert dialect == Dialect(delimiter=",")
    with pytest.raises(CsvError, match=r"^row 6: expected 5 cells, found 6$"):
        parse_table(data, dialect)
    with pytest.raises(CsvError, match=r"^row 6: expected 5 cells, found 6$"):
        parse_csvy(data)


def test_the_candidate_that_splits_the_header_most_is_taken():
    # Comma and tab read one column throughout; the semicolon splits the header.
    assert detect_dialect(b"a;b;c\n1;2;3\n4;5\n") == Dialect(delimiter=";")


def test_a_one_column_table_keeps_the_commas_in_its_cells():
    data = b"note\nred, green\nblue\n"
    _, table = parse_csvy(data)
    assert (table.header, table.columns) == (["note"], (("red, green", "blue"),))
    assert parse_table(data, detect_dialect(data)) == table
    # A header that another delimiter splits, with no record below it that does.
    named = CsvTable(header=["a;b"], rows=[["x"], ["y"]])
    assert parse_csvy(serialize_table(named))[1] == named


def test_quoted_delimiters_do_not_skew_detection():
    data = b'name,note\n"a;b;c;d;e","x\ty\tz"\n"p;q;r;s;t",w\n'
    assert detect_dialect(data).delimiter == ","


def test_blank_lines_do_not_change_detection():
    with_blanks = detect_dialect(b"a;b\n\n1;2\n\n\n3;4\n")
    without = detect_dialect(b"a;b\n1;2\n3;4\n")
    assert with_blanks == without


def test_empty_sample_is_an_error():
    with pytest.raises(CsvError):
        detect_dialect(b"")


# ---------------------------------------------------------------------------
# Parsing


def test_parses_simple_table():
    table = parse_table(b"age,height\n12,161.5\n21,181.2\n", Dialect())
    assert table.header == ["age", "height"]
    assert table.rows == [["12", "161.5"], ["21", "181.2"]]


def test_quoted_field_keeps_delimiters_and_newlines():
    data = b'name,note\n"Smith, John","line1\nline2"\n'
    table = parse_table(data, Dialect())
    assert table.rows == [["Smith, John", "line1\nline2"]]


def test_doubled_quote_is_literal():
    table = parse_table(b'a,b\n"say ""hi""",x\n', Dialect())
    assert table.rows == [['say "hi"', "x"]]


def test_ragged_row_reports_record_number():
    with pytest.raises(CsvError) as excinfo:
        parse_table(b"a,b\n1\n", Dialect())
    assert excinfo.value.row == 2
    with pytest.raises(CsvError) as excinfo:
        parse_table(b"a,b\n1,2\n3,4,5\n", Dialect())
    assert excinfo.value.row == 3


def test_ragged_row_outranks_duplicate_header():
    with pytest.raises(CsvError) as excinfo:
        parse_table(b"a,a\n1,2\n3\n", Dialect())
    assert excinfo.value.row == 3
    assert "expected 2 cells, found 1" in str(excinfo.value)
    with pytest.raises(CsvError) as excinfo:  # tab and semicolon keep detection on comma
        parse_csvy(b"a,a\n1,2\n3\t;\n")
    assert excinfo.value.row == 3


def test_unterminated_quote_is_an_error():
    with pytest.raises(CsvError) as excinfo:
        parse_table(b'a,b\n"x,y\n', Dialect())
    assert excinfo.value.row == 2


def test_blank_lines_are_skipped():
    table = parse_table(b"a,b\n\n1,2\n\n", Dialect())
    assert table.rows == [["1", "2"]]


def test_quoted_empty_is_a_record_but_blank_line_is_not():
    table = parse_table(b'a\n""\n\n', Dialect())
    assert table.rows == [[""]]


def test_bom_is_stripped():
    table = parse_table(b"\xef\xbb\xbfa,b\n1,2\n", Dialect())
    assert table.header == ["a", "b"]


@pytest.mark.parametrize(
    "data, written",
    [
        (b"\n\xef\xbb\xbfid,v\n1,2\n3,4\n", b'"\xef\xbb\xbfid",v\n1,2\n3,4\n'),
        (b"\n\xef\xbb\xbf---\ntitle: t\n---\n", b'"\xef\xbb\xbf---"\ntitle: t\n---\n'),
        (b"---\nname: q\n---\n\xef\xbb\xbfid\n1\n", b'---\nname: q\n---\n"\xef\xbb\xbfid"\n1\n'),
    ],
    ids=["after-a-blank-line", "a-fence-after-a-blank-line", "after-front-matter"],
)
def test_a_header_cell_that_begins_with_u_feff_is_written_quoted(data, written):
    # Bare at the start of a file, U+FEFF would be read back as a byte order mark.
    front, table = parse_csvy(data)
    assert table.header[0].startswith("\ufeff")
    assert serialize_csvy(front, table) == written
    assert parse_csvy(written) == (front, table)
    if not front.raw_yaml:
        assert serialize_table(table) == written


def test_crlf_input_parses():
    table = parse_table(b"a,b\r\n1,2\r\n", Dialect())
    assert table.rows == [["1", "2"]]


def test_lone_carriage_return_is_cell_content():
    table = parse_table(b'a,b\n"x\ry",z\r', Dialect())
    assert table.rows == [["x\ry", "z"]]


def test_lone_carriage_return_ends_an_unquoted_record():
    table = parse_table(b"a,b\rx,y\rz,w", Dialect())
    assert table.rows == [["x", "y"], ["z", "w"]]
    with pytest.raises(CsvError, match="row 2: expected 2 cells, found 1"):
        parse_table(b"a,b\nx\ry,z\n", Dialect())


def test_non_utf8_is_an_encoding_error():
    with pytest.raises(EncodingError):
        parse_table(b"a,b\n\xff\xfe,2\n", Dialect())


def test_empty_table_with_header_dialect_is_an_error():
    with pytest.raises(CsvError):
        parse_table(b"", Dialect())


def test_duplicate_column_names_rejected():
    with pytest.raises(CsvError):
        parse_table(b"a,a\n1,2\n", Dialect())
    with pytest.raises(CsvError):
        CsvTable(header=["x", " x "], rows=[])  # duplicates after trimming


def test_table_access_helpers():
    table = parse_table(b"a, b \n1,2\n", Dialect())
    assert table.column_names == ["a", "b"]
    assert table.column("b") == ["2"]
    assert table.width == 2
    with pytest.raises(CsvError):
        table.column("missing")


# ---------------------------------------------------------------------------
# Serialization


def test_serialize_quotes_exactly_when_needed():
    table = CsvTable(
        header=["plain", "comma", "quote", "newline"],
        rows=[["ab", "a,b", 'a"b', "a\nb"]],
    )
    assert (
        serialize_table(table)
        == b'plain,comma,quote,newline\nab,"a,b","a""b","a\nb"\n'
    )


def test_serialize_lone_empty_cell_survives():
    table = CsvTable(header=["h"], rows=[[""], ["x"]])
    data = serialize_table(table)
    assert data == b'h\n""\nx\n'
    again = parse_table(data, Dialect())
    assert again.rows == table.rows


def test_zero_width_rows_rejected():
    with pytest.raises(CsvError):
        CsvTable(header=[], rows=[[]])


def test_rows_without_a_header_are_refused():
    # Every form of an empty header gets the error of a text with no record.
    for table in (
        lambda: CsvTable(header=[], rows=[["1", "2"]]),
        lambda: CsvTable(header=[], columns=(("1",),)),
        lambda: CsvTable(header=[], rows=[]),
        lambda: CsvTable(header=[]),
    ):
        with pytest.raises(CsvError, match="^table is empty; expected a header row$"):
            table()


# ---------------------------------------------------------------------------
# csvy front matter

_CSVY = b"""---
name: teaching
schema:
  fields:
    - name: age
      type: integer
---
age
12
"""


def test_csvy_parses_front_matter_and_schema():
    front, table = parse_csvy(_CSVY)
    assert front.raw_yaml == "name: teaching\nschema:\n  fields:\n    - name: age\n      type: integer\n"
    assert front.mapping["name"] == "teaching"
    schema = schema_from_front_matter(front.mapping)
    assert schema.name == "teaching"
    assert [(f.name, f.type) for f in schema.fields] == [("age", "integer")]
    assert table.header == ["age"]
    assert table.rows == [["12"]]


def test_csvy_round_trips_byte_exactly():
    front, table = parse_csvy(_CSVY)
    assert serialize_csvy(front, table) == _CSVY


def test_plain_table_has_empty_front_matter():
    front, table = parse_csvy(b"a,b\n1,2\n")
    assert front == FrontMatter()
    assert front.raw_yaml == ""
    assert front.mapping == {}
    with pytest.raises(SchemaError, match="front matter: missing required key 'name'"):
        schema_from_front_matter(front.mapping)
    assert table.rows == [["1", "2"]]


def test_csvy_first_record_is_always_the_header():
    _, table = parse_csvy(b"alpha,beta\ngamma,delta\n")
    assert table.header == ["alpha", "beta"]
    assert table.rows == [["gamma", "delta"]]


def test_unclosed_fence_is_an_error():
    with pytest.raises(FrontMatterError):
        parse_csvy(b"---\nname: x\n")


def test_empty_front_matter_normalizes_away():
    front, table = parse_csvy(b"---\n---\na\n1\n")
    assert front.raw_yaml == ""
    assert serialize_csvy(front, table) == b"a\n1\n"


def test_front_matter_must_be_a_mapping():
    with pytest.raises(FrontMatterError):
        parse_csvy(b"---\n- a\n- b\n---\na\n1\n")


def test_front_matter_rejects_anchors_and_aliases():
    with pytest.raises(FrontMatterError):
        parse_csvy(b"---\na: &x 1\nb: *x\n---\nc\n1\n")


def test_front_matter_rejects_custom_tags():
    with pytest.raises(FrontMatterError):
        parse_csvy(b"---\na: !boom 1\n---\nc\n1\n")
    with pytest.raises(FrontMatterError):
        parse_csvy(b"---\na: !!python/object:os.system x\n---\nc\n1\n")


def test_front_matter_rejects_multiple_documents():
    # "--- " (trailing blank) is not a fence line but still starts a second
    # YAML document.
    with pytest.raises(FrontMatterError):
        parse_csvy(b"---\na: 1\n--- \nb: 2\n---\nc\n1\n")


def test_front_matter_dates_stay_strings():
    front, _ = parse_csvy(b"---\nmeasured: 2019-01-22\n---\na\n1\n")
    assert front.mapping["measured"] == "2019-01-22"


def test_front_matter_plain_scalars_load_naturally():
    front, _ = parse_csvy(b"---\nn: 7\nf: 1.5\nflag: true\nnothing: null\nwords: [a, b]\n---\nc\n1\n")
    assert front.mapping == {"n": 7, "f": 1.5, "flag": True, "nothing": None, "words": ["a", "b"]}


def test_front_matter_raw_yaml_may_not_contain_a_fence_line():
    for raw in ("a: 1\n---\nb: 2\n", "a: 1\r---\rb: 2\r"):
        with pytest.raises(FrontMatterError):
            FrontMatter(raw_yaml=raw)


def test_front_matter_schema_block_must_be_complete():
    front, table = parse_csvy(b"---\nschema: nope\n---\na\n1\n")
    assert front.mapping == {"schema": "nope"}
    assert (table.header, table.rows) == (["a"], [["1"]])
    with pytest.raises(SchemaError, match="front matter: missing required key 'name'"):
        schema_from_front_matter(front.mapping)
    with pytest.raises(SchemaError, match="front matter: missing required key 'schema'"):
        schema_from_front_matter({**front.mapping, "name": "t"})


def test_first_cell_fence_lookalike_round_trips():
    table = CsvTable(header=["---"], rows=[["x"]])
    data = serialize_csvy(None, table)
    assert data == b'"---"\nx\n'
    _, again = parse_csvy(data)
    assert again.header == ["---"]
    assert again.rows == [["x"]]


def test_serialize_adds_missing_trailing_newline_to_raw_yaml():
    front = FrontMatter(raw_yaml="name: x")
    data = serialize_csvy(front, CsvTable(header=["a"], rows=[]))
    assert data == b"---\nname: x\n---\na\n"


# ---------------------------------------------------------------------------
# Missing-token profiling


def test_detect_missing_tokens_profile():
    profile = detect_missing_tokens(["1", "NA", "", "-99", "x", "NA"], declared=["NA"])
    assert profile.count == 2
    assert profile.seen == frozenset({"NA"})
    assert profile.suspects == frozenset({"", "-99"})


def test_detect_missing_tokens_watchlist():
    profile = detect_missing_tokens(["N/A", "NULL", "unknown", ".", "-999", "ok"])
    assert profile.suspects == frozenset({"N/A", "NULL", "unknown", ".", "-999"})
    assert profile.count == 0


# ---------------------------------------------------------------------------
# Round-trip properties

_FULL_CELL_CHARS = list(string.ascii_letters + string.digits + " ._-'") + [
    '"',
    "\n",
    "\r",
    ",",
    "\t",
    ";",
    "é",
    "中",
]


def _header_names(draw, width: int, alphabet: list[str]) -> list[str]:
    # Distinct after trimming, thanks to the per-column numeric suffix.
    names = []
    for index in range(width):
        prefix = draw(st.text(alphabet=st.sampled_from(alphabet), max_size=6))
        names.append(f"{prefix}#{index}")
    return names


@st.composite
def _any_tables(draw):
    """Tables for the pure tokenizer round trip; cells may contain anything."""
    delimiter = draw(st.sampled_from([",", "\t", ";"]))
    width = draw(st.integers(min_value=1, max_value=5))
    header = _header_names(draw, width, _FULL_CELL_CHARS)
    cell = st.text(alphabet=st.sampled_from(_FULL_CELL_CHARS), max_size=10)
    rows = draw(
        st.lists(
            st.lists(cell, min_size=width, max_size=width),
            min_size=0,
            max_size=8,
        )
    )
    return CsvTable(header=header, rows=rows, dialect=Dialect(delimiter=delimiter))


@given(_any_tables())
@settings(max_examples=150)
def test_tokenizer_round_trip(table):
    data = serialize_table(table)
    again = parse_table(data, table.dialect)
    assert again.header == table.header
    assert again.rows == table.rows


# ---------------------------------------------------------------------------
# Record splitting: the column split against the row-wise split it replaced

_SPLITTER_CHARS = [",", ";", "\t", '"', "\r", "\n", "a"]


def _rowwise_split(text: str, delimiter: str) -> list[list[str]]:
    """The row-wise split the column split replaced: quote-free lines,
    CRLF and CR folded to LF, split one by one, other text read by the C
    ``csv`` reader, and what the reader refuses by the per-character state
    machine from the start of the text."""
    if '"' not in text:
        lines = text.replace("\r\n", "\n").replace("\r", "\n")
        return [line.split(delimiter) for line in lines.split("\n") if line]
    try:
        return [r for r in csv.reader(io.StringIO(text, newline=""), delimiter=delimiter, strict=True) if r]
    except csv.Error:
        return _reference_split(text, delimiter)


def _rowwise_table(text: str, delimiter: str, split=_rowwise_split):
    """What the row-wise parse gave: header and rows, checked row by row
    after the whole split, or the error and its record number."""
    try:
        records = split(text, delimiter)
        if not records:
            raise CsvError("table is empty; expected a header row")
        for number, record in enumerate(records, start=1):
            if len(record) != len(records[0]):
                raise CsvError(f"expected {len(records[0])} cells, found {len(record)}", row=number)
        header, rows = records[0], records[1:]
        names = [name.strip() for name in header]
        for index, name in enumerate(names):
            if name in names[:index]:
                raise CsvError(f"duplicate column name {name!r}")
    except CsvError as exc:
        return ("error", str(exc), exc.row)
    return ("table", header, rows)


def _column_outcome(text: str, delimiter: str):
    try:
        table = tabular._table_from_text(text, Dialect(delimiter=delimiter))
    except CsvError as exc:
        return ("error", str(exc), exc.row)
    assert all(type(column) is tuple for column in table.columns)
    return ("table", table.header, table.rows)


def _parse_outcome(data: bytes, dialect: Dialect):
    try:
        table = parse_table(data, dialect)
    except CsvError as exc:
        return ("error", str(exc), exc.row)
    return ("table", table.header, table.rows)


def _detect_outcome(data: bytes):
    try:
        return detect_dialect(data)
    except CsvError as exc:
        return ("error", str(exc), exc.row)


def _tokenized_sample(text: str, delimiter: str, limit: int | None) -> list[list[str]]:
    return tabular._split_quoted(text, delimiter, limit=limit)[0]


def _tokenized_table(text: str, delimiter: str):
    records = tabular._split_quoted(text, delimiter)[0]
    return tabular._gather(tabular._record_columns(iter([records])))


def _tokenized_detection(text: str) -> Dialect:
    """Detection with every candidate's sample read by the tokenizer, as
    ``_tokenized_sample`` reads it with a limit of 21."""
    with mock.patch.object(tabular, "_plain_text", lambda text: None):
        return tabular._detect_from_text(text)


@given(
    st.one_of(
        st.text(alphabet=st.sampled_from(_SPLITTER_CHARS), max_size=30),
        st.text(alphabet=st.sampled_from([c for c in _SPLITTER_CHARS if c != '"']), max_size=30),
    )
)
@settings(max_examples=400)
def test_fast_path_matches_the_state_machine(text):
    data = text.encode()
    dialects = [Dialect(delimiter=delimiter) for delimiter in tabular.DELIMITERS]
    fast = [_parse_outcome(data, d) for d in dialects] + [_detect_outcome(data)]
    with mock.patch.object(tabular, "_split_table", _tokenized_table), mock.patch.object(
        tabular, "_plain_text", lambda text: None
    ):
        forced = [_parse_outcome(data, d) for d in dialects] + [_detect_outcome(data)]
    assert fast == forced
    # Detection samples 20 records; leading records put the text's own
    # records, quotes and bare CRs at the edge of that head.
    for before in (18, 19, 20):
        text_after = "n\n" + "1\n" * before + text
        assert tabular._detect_from_text(text_after) == _tokenized_detection(text_after)


def _no_state_machine(*args, **kwargs):
    raise AssertionError("state machine reached")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_quote_free_text_skips_the_state_machine(monkeypatch, newline):
    monkeypatch.setattr(tabular, "_split_quoted", _no_state_machine)
    # Form feed and U+2028 are line breaks to str.splitlines, not to a table.
    lines = ["name;n", "", "x\x0cy;1", newline, "p\u2028q;2", "", "\x85;3", ""]
    data = b"\xef\xbb\xbf" + newline.join(lines).encode("utf-8")
    rows = [["x\x0cy", "1"], ["p\u2028q", "2"], ["\x85", "3"]]
    dialect = detect_dialect(data)
    assert dialect == Dialect(delimiter=";")
    table = parse_table(data, dialect)
    assert (table.header, table.rows) == (["name", "n"], rows)
    assert parse_csvy(data)[1] == table
    with pytest.raises(CsvError, match="row 3: expected 2 cells, found 3"):
        parse_table(data.replace(b";2", b";2;2"), dialect)


@pytest.mark.parametrize(
    "text, records",
    [
        ('a,b\n"x",1\n', [["a", "b"], ["x", "1"]]),
        ('a,b\nx"y,1\n', [["a", "b"], ['x"y', "1"]]),
        ('a,b\r\n\r\n"x\r\n""y""",1\r\n"",\r\n', [["a", "b"], ['x\r\n"y"', "1"], ["", ""]]),
    ],
    ids=["quoted", "quote-inside-a-field", "crlf-and-doubled-quotes"],
)
def test_full_parse_of_quoted_text_skips_the_state_machine(monkeypatch, text, records):
    monkeypatch.setattr(tabular, "_split_quoted", _no_state_machine)
    table = parse_table(text.encode(), Dialect())
    assert [table.header, *table.rows] == records


@pytest.mark.parametrize("text", ["a,b\rx,1\n", "a,b\r\nx,1\r", 'a,b\r"x",1\n', 'a,b\n"x\ry",1\n'])
def test_bare_cr_skips_the_state_machine(monkeypatch, text):
    expected = _rowwise_table(text, ",", split=_reference_split)
    monkeypatch.setattr(tabular, "_split_quoted", _no_state_machine)
    assert _parse_outcome(text.encode(), Dialect()) == expected


def test_limited_splits_reach_the_state_machine(monkeypatch):
    head = "name,n\n" + "".join(f"x{i},{i}\n" for i in range(19))  # 20 records
    with mock.patch.object(tabular, "_split_quoted", _no_state_machine):
        with pytest.raises(AssertionError, match="state machine reached"):
            detect_dialect(b'a,b\n"x",1\n')
        with pytest.raises(AssertionError, match="state machine reached"):
            detect_dialect(head.replace("x18", '"x18"').encode())
        # A quote after the 20th record is not sampled.
        after = head + '"x;y",19\n'
        assert detect_dialect(after.encode()) == Dialect(delimiter=",")
    assert _tokenized_sample(after, ",", 20) == [line.split(",") for line in head.splitlines()]
    assert tabular._detect_from_text(after) == _tokenized_detection(after)


def test_detection_tokenizes_each_candidate_once(monkeypatch):
    calls: list[tuple[str, dict]] = []
    split_quoted = tabular._split_quoted

    def spy(text, delimiter, **kwargs):
        calls.append((delimiter, kwargs))
        return split_quoted(text, delimiter, **kwargs)

    monkeypatch.setattr(tabular, "_split_quoted", spy)
    assert detect_dialect(b'a;b\n"x,y";1\n2;3\n') == Dialect(delimiter=";")
    assert calls == [(d, {"limit": 20}) for d in tabular.DELIMITERS]
    calls.clear()
    assert detect_dialect(b"a;b\nx,y;1\n2;3\n") == Dialect(delimiter=";")
    assert calls == []


def _spy_on_the_tokenizer(monkeypatch) -> list[dict]:
    """Record the keyword arguments of each tokenizer call."""
    calls: list[dict] = []
    split_quoted = tabular._split_quoted

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return split_quoted(*args, **kwargs)

    monkeypatch.setattr(tabular, "_split_quoted", spy)
    return calls


@pytest.mark.parametrize(
    "text, outcome, tokenized",
    [
        ('a,b\n"x"y,1\n', [["a", "b"], ["xy", "1"]], True),
        ('a,b\n1,"x\n2,y\n', ("error", "row 2: unterminated quoted field", 2), True),
        ('a,b\n"' + "x" * 200_000 + '",1\n', [["a", "b"], ["x" * 200_000, "1"]], True),
        # The C reader takes NUL as any other character from Python 3.11 on.
        ('a,b\n"x\x00y",1\n', [["a", "b"], ["x\x00y", "1"]], sys.version_info < (3, 11)),
    ],
    ids=["text-after-close-quote", "unterminated", "field-over-the-reader-limit", "nul"],
)
def test_what_the_reader_refuses_reaches_the_state_machine(monkeypatch, text, outcome, tokenized):
    calls = _spy_on_the_tokenizer(monkeypatch)
    expected = outcome if isinstance(outcome, tuple) else ("table", outcome[0], outcome[1:])
    assert _column_outcome(text, ",") == expected
    assert _rowwise_table(text, ",") == expected
    assert bool(calls) == tokenized


def _tokenized_outcome(text: str, delimiter: str):
    """The tokenizer-only parse of the whole text."""
    try:
        header, columns = _tokenized_table(text, delimiter)
    except CsvError as exc:
        return ("error", str(exc), exc.row)
    return ("table", header, [list(row) for row in zip(*columns)])


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("batch", [1, 3, 2048])
def test_the_tokenizer_resumes_where_the_reader_stopped(monkeypatch, where, batch):
    # "ab"cd in one record makes the C reader refuse the text.
    rows = [[str(i), f'"n{i}, x"', f'"say ""{i}"""'] for i in range(5_000)]
    refused = {"first": 0, "middle": 2_500, "last": 4_999}[where]
    rows[refused][1] = '"ab"cd'
    text = "id,name,note\r\n\r\n" + "".join(",".join(row) + "\r\n" for row in rows)
    expected = _tokenized_outcome(text, ",")
    assert expected[2][refused][1] == "abcd"

    calls = _spy_on_the_tokenizer(monkeypatch)
    monkeypatch.setattr(tabular, "_READER_BATCH", batch)
    monkeypatch.setattr(tabular, "_READER_BLOCK_CHARS", 64)
    assert _column_outcome(text, ",") == expected
    # The tokenizer starts after the last batch the reader completed: a
    # record boundary that fewer than a batch of records separate from the
    # refused one, which the header and the rows before it precede.
    (call,) = calls
    start, before = call.get("start", 0), call.get("before", 0)
    assert start == 0 or text[start - 2 : start] == "\r\n"
    assert len(_rowwise_split(text[:start], ",")) == before
    assert 0 <= refused + 1 - before < batch

    # An unterminated quote after the refusal keeps its record number.
    calls.clear()
    broken = text + '5000,"open\r\n'
    assert _column_outcome(broken, ",") == ("error", "row 5002: unterminated quoted field", 5002)
    assert _tokenized_outcome(broken, ",") == ("error", "row 5002: unterminated quoted field", 5002)


def test_columns_are_built_once():
    table = parse_table(b"a,b\n1,2\n3,4\n", Dialect())
    assert table.columns == (("1", "3"), ("2", "4"))
    assert table.shapes is table.shapes
    assert [column.cells for column in table.shapes] == [("1", "3"), ("2", "4")]
    assert all(shapes.cells is column for shapes, column in zip(table.shapes, table.columns))
    assert table.column("b") == ["2", "4"]
    assert table.column(" a ") == ["1", "3"]
    with pytest.raises(CsvError, match="no column named 'c'"):
        table.column("c")
    # Rows are a view built from the columns on each access.
    assert (table.height, table.rows) == (2, [["1", "2"], ["3", "4"]])
    assert table.rows is not table.rows
    assert CsvTable(header=table.header, rows=table.rows) == table
    empty = CsvTable(header=["a", "b"], rows=[])
    assert [column.cells for column in empty.shapes] == [(), ()]
    assert empty.column("a") == []
    assert (empty.height, empty.rows) == (0, [])


def test_a_table_of_columns_checks_only_their_count_and_lengths():
    assert CsvTable(header=["a"], columns=(("1", "2"),)).rows == [["1"], ["2"]]
    with pytest.raises(CsvError, match="expected 2 columns, found 1"):
        CsvTable(header=["a", "b"], columns=(("1",),))
    with pytest.raises(CsvError, match="columns must all have the same length"):
        CsvTable(header=["a", "b"], columns=(("1",), ("2", "3")))
    with pytest.raises(CsvError, match="duplicate column name 'a'"):
        CsvTable(header=["a", "a"], columns=((), ()))


@given(
    st.lists(st.sampled_from(["a", "b1", ",", ";", "\t", "\n", "\r\n", "\x0c", "\u2028"]), max_size=40).map("".join),
    st.sampled_from(tabular.DELIMITERS),
    st.integers(17, 20),
    st.integers(1, 6),
)
@settings(max_examples=400)
def test_quote_free_split_is_the_same_in_tiny_blocks(text, delimiter, before, block):
    # Leading records put the text's own at the edge of detection's sample.
    text_after = "n\n" + "1\n" * before + text
    assert tabular._detect_from_text(text_after) == _tokenized_detection(text_after)
    if text:
        assert detect_dialect(text.encode()) == _tokenized_detection(text)
    whole = _column_outcome(text, delimiter)
    assert whole == _rowwise_table(text, delimiter)
    with mock.patch.object(tabular, "_BLOCK_CHARS", block):
        assert _column_outcome(text, delimiter) == whole


#: Cells for the split property: quote-free ones, ones the C reader reads,
#: ones it refuses (text after a close quote, an unterminated quote), and a
#: bare CR, which ends an unquoted record.
_PLAIN_CELLS = ["", "a", "12", "a;b", "a\tb", "a,b", "\x0c"]
_QUOTED_CELLS = ['"q"', '"a,b"', '"x""y"', '"l\nm"', '"r\r\ns"', '""', '"ab"cd', '"open', "x\ry"]


@st.composite
def _split_cases(draw):
    """Tables written line by line: mostly rows of the header's width, with
    blank lines and ragged rows among them, LF or CRLF, with or without a
    final line break, quote-free or not."""
    delimiter = draw(st.sampled_from(tabular.DELIMITERS))
    width = draw(st.integers(1, 4))
    cell = st.sampled_from(_PLAIN_CELLS + (_QUOTED_CELLS if draw(st.booleans()) else []))
    lines = []
    for kind in draw(st.lists(st.sampled_from(["row"] * 6 + ["blank", "ragged"]), max_size=12)):
        count = width if kind == "row" else 0 if kind == "blank" else draw(st.integers(1, width + 2))
        lines.append(delimiter.join(draw(cell) for _ in range(count)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""])), delimiter


@given(_split_cases(), st.integers(1, 24), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=1000)
def test_column_split_matches_the_row_wise_reference(case, block, reader_block, batch):
    text, delimiter = case
    expected = _rowwise_table(text, delimiter)
    assert _column_outcome(text, delimiter) == expected
    # Blocks and batches of a few characters and records put ragged rows
    # and quoted fields at their edges.
    with mock.patch.multiple(tabular, _BLOCK_CHARS=block, _READER_BLOCK_CHARS=reader_block, _READER_BATCH=batch):
        assert _column_outcome(text, delimiter) == expected


def _rewrite_breaks(text: str, delimiter: str, breaks: list[str]) -> tuple[str, str]:
    """``text`` with every unquoted line break written as LF, and as
    ``breaks`` in turn, repeated as needed.  A break is quoted when the
    reference, reading the text up to it, finds a quote still open."""
    parts, start, unquoted = [], 0, itertools.cycle(breaks)
    for found in re.finditer(r"\r\n?|\n", text):
        try:
            _reference_split(text[: found.start()], delimiter)
        except CsvError:
            continue  # inside quotes: cell content
        parts.append(text[start : found.start()])
        start = found.end()
    parts.append(text[start:])
    return "\n".join(parts), parts[0] + "".join(next(unquoted) + part for part in parts[1:])


@given(
    _split_cases(),
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 3),
)
@example(("a,b\n1,2\n", ","), ["\r"], 1, 1, 1)
@example(('a;"b\r"\r\n"x""\n";2\r\n\r\n3;4', ";"), ["\r", "\r\n"], 2, 1, 1)
def test_line_breaks_are_interchangeable(case, breaks, block, reader_block, batch):
    # LF, CRLF and a lone CR each end a record on every path, and give the
    # same table or the same error at the same record.  Blocks and batches
    # of a few characters and records put the breaks at their edges.
    text, delimiter = case
    as_lf, written = _rewrite_breaks(text, delimiter, breaks)
    with mock.patch.multiple(tabular, _BLOCK_CHARS=block, _READER_BLOCK_CHARS=reader_block, _READER_BATCH=batch):
        assert _column_outcome(written, delimiter) == _column_outcome(as_lf, delimiter)


def _reference_reads_cleanly(text: str, delimiter: str) -> bool:
    """Whether ``delimiter`` reads each quote of the first 20 records only
    around a whole field, a character at a time: a quote opens a field at
    its start, and a close quote ends the field."""
    records, i = 0, 0
    field_start, in_quotes, closed, started = True, False, False, False
    while i < len(text) and records < 20:
        ch = text[i]
        if in_quotes:
            if text.startswith('""', i):  # a doubled quote
                i += 1
            elif ch == '"':
                in_quotes = False
                closed = True
            i += 1
            continue
        if ch == delimiter or ch in "\r\n":
            field_start, closed = True, False
            if ch == delimiter:
                started = True
                i += 1
            else:
                records += started
                started = False
                i += 2 if text.startswith("\r\n", i) else 1
            continue
        if closed or (ch == '"' and not field_start):
            return False
        in_quotes, field_start, started = ch == '"', False, True
        i += 1
    return True


def _reference_detection(text: str) -> str:
    """The delimiter the split-based detection chose: each candidate split
    the first 21 records, the state machine reading a head with a quote,
    and the widths of the first 20 scored it.  With a quote in the head,
    only the candidates that read every quote of those records around a
    whole field are scored, when there are any."""
    found = list(itertools.islice(tabular._RECORD_LINE_RE.finditer(text), 21))
    lines = tabular._plain_text(text[: found[-1].end() + 1] if found else "")
    samples: dict[str, list[list[str]]] = {}
    consistent: dict[str, int] = {}
    candidates = tabular.DELIMITERS
    if lines is None:
        candidates = [d for d in tabular.DELIMITERS if _reference_reads_cleanly(text, d)] or tabular.DELIMITERS
    for delimiter in candidates:
        if lines is None:
            samples[delimiter] = _reference_split(text, delimiter, lenient=True, limit=21)
        else:
            samples[delimiter] = [line.split(delimiter) for line in lines.split("\n") if line]
        widths = {len(cells) for cells in samples[delimiter][:20]}
        if len(widths) == 1:
            consistent[delimiter] = widths.pop()
    splits = {
        d: len(records[0])
        for d, records in samples.items()
        if records and len(records[0]) > 1 and any(len(cells) > 1 for cells in records[1:20])
    }
    scores = consistent
    if not consistent:
        scores = {",": 1}
    elif max(consistent.values()) == 1 and splits:
        scores = splits
    best = max(scores.values())
    return next(d for d in tabular.DELIMITERS if scores.get(d) == best)


@st.composite
def _detection_cases(draw):
    """Texts of up to 40 records: rows of one width and one delimiter, with
    blank lines and ragged rows, on any delimiter, among them; quoted or
    not; LF, CRLF, or a mix of those and bare CRs."""
    delimiter = draw(st.sampled_from(tabular.DELIMITERS))
    width = draw(st.integers(1, 4))
    # A few cells per text, so that another delimiter inside them can split
    # every row alike.
    pool = _PLAIN_CELLS + (_QUOTED_CELLS if draw(st.booleans()) else [])
    cell = st.sampled_from(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
    newline = st.sampled_from(draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n", "\r"]])))
    # Leading rows put the mix at the edge of detection's 20-record sample.
    lead = draw(st.integers(0, 22))
    text = ""
    for kind in ["row"] * lead + draw(st.lists(st.sampled_from(["row"] * 6 + ["blank", "ragged"]), max_size=40 - lead)):
        if kind == "row":
            text += delimiter.join(draw(cell) for _ in range(width))
        elif kind == "ragged":
            text += draw(st.sampled_from(tabular.DELIMITERS)).join(draw(cell) for _ in range(draw(st.integers(1, 6))))
        text += draw(newline)
    return text


def _csvy_outcome(data: bytes):
    try:
        return ("table", parse_csvy(data)[1])
    except CsvError as exc:
        return ("error", str(exc), exc.row)


@given(_detection_cases())
@example('"a,b"\t"a,b"\n')  # a tab table: the comma reads text after a close quote
def test_detection_matches_the_split_based_reference(text):
    delimiter = _reference_detection(text)
    if text:
        assert detect_dialect(text.encode()) == Dialect(delimiter=delimiter)
    expected = _rowwise_table(text, delimiter)
    outcome = _csvy_outcome(text.encode())
    if outcome[0] == "table":
        outcome = ("table", outcome[1].header, outcome[1].rows)
    assert outcome == expected


@given(_detection_cases())
@example("note\nred, green\nblue\n")
@example("\r")
@example("\n\r\n")
@example("")
def test_a_text_has_one_reading(text):
    # Front matter needs a line of "---", which these texts cannot hold.
    data = text.encode()
    try:
        # An empty sample has no delimiter to detect.
        one = ("table", parse_table(data, detect_dialect(data) if data else Dialect()))
    except CsvError as exc:
        one = ("error", str(exc), exc.row)
    assert one == _csvy_outcome(data)
    # Front matter leaves the body's reading as it is, also when the body
    # holds no record.
    assert _csvy_outcome(b"---\ntitle: x\n---\n" + data) == one


def test_column_shapes_are_summarized_once():
    table = parse_table(b"n,d\n1,2019-02-30\n-12,2020-02-29\n", Dialect())
    assert table.shapes is table.shapes
    n, d = table.shapes
    assert n.counts == {"0": 1, "-00": 1}
    assert d.counts == {tabular.DATE_SHAPE: 2}
    assert d.bad_dates == {"2019-02-30"}
    assert n.shapes(["-12", "-99"]) == {"0"}
    assert n.values({"-00"}) == {"-12"}


_SAFE_KEY = st.text(alphabet=st.sampled_from(string.ascii_lowercase), min_size=1, max_size=8).filter(
    lambda k: k != "schema"
)
_SAFE_VALUE = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.text(alphabet=st.sampled_from(string.ascii_lowercase + "0123456789_"), min_size=1, max_size=10),
    st.lists(st.integers(0, 9), max_size=3),
)


@st.composite
def _detectable_tables(draw):
    """Tables whose serialization detection can reconstruct exactly."""
    width = draw(st.integers(min_value=1, max_value=5))
    delimiter = "," if width == 1 else draw(st.sampled_from([",", "\t", ";"]))
    foreign = {",", "\t", ";"} - {delimiter}
    chars = [c for c in _FULL_CELL_CHARS if c not in foreign and c != "\r"]
    header = _header_names(draw, width, [c for c in chars if c not in ('"', "\n", delimiter)])
    cell = st.text(alphabet=st.sampled_from(chars), max_size=10)
    rows = draw(
        st.lists(
            st.lists(cell, min_size=width, max_size=width), min_size=0, max_size=8
        )
    )
    return CsvTable(header=header, rows=rows, dialect=Dialect(delimiter=delimiter))


@st.composite
def _front_matters(draw):
    mapping = draw(st.dictionaries(_SAFE_KEY, _SAFE_VALUE, min_size=0, max_size=4))
    if not mapping:
        return FrontMatter()
    raw = yaml.safe_dump(mapping, default_flow_style=False, sort_keys=True)
    return FrontMatter(raw_yaml=raw, mapping=mapping)


@given(_front_matters(), _detectable_tables())
@settings(max_examples=150)
def test_csvy_round_trip_property(front, table):
    data = serialize_csvy(front, table)
    front2, table2 = parse_csvy(data)
    assert front2.raw_yaml == front.raw_yaml
    assert front2.mapping == front.mapping
    assert table2 == replace(table, source=None)
    assert serialize_csvy(front2, table2) == data


# ---------------------------------------------------------------------------
# The token regex against the per-character state machine it replaced


def _reference_split(
    text: str,
    delimiter: str,
    *,
    lenient: bool = False,
    limit: int | None = None,
) -> list[list[str]]:
    """The tokenizer's records: a per-character state machine that
    honors quoted fields and raises ``CsvError`` with the 1-based record
    number of an unterminated quote."""
    QUOTE = tabular.QUOTE
    records: list[list[str]] = []
    cells: list[str] = []
    buf: list[str] = []
    in_quotes = False
    quoted_field = False  # current field began with an opening quote
    started = False  # current record has consumed at least one character
    i = 0
    n = len(text)

    def end_record() -> None:
        nonlocal quoted_field, started
        cells.append("".join(buf))
        buf.clear()
        records.append(cells.copy())
        cells.clear()
        quoted_field = False
        started = False

    while i < n:
        ch = text[i]
        if in_quotes:
            if ch == QUOTE:
                if i + 1 < n and text[i + 1] == QUOTE:
                    buf.append(QUOTE)
                    i += 2
                    continue
                in_quotes = False
                i += 1
                continue
            buf.append(ch)
            i += 1
            continue
        if ch == QUOTE and not buf and not quoted_field:
            in_quotes = True
            quoted_field = True
            started = True
            i += 1
            continue
        if ch == delimiter:
            cells.append("".join(buf))
            buf.clear()
            quoted_field = False
            started = True
            i += 1
            continue
        if ch in "\r\n":
            i += 2 if text.startswith("\r\n", i) else 1
            if not started:
                continue  # a line with no characters is not a record
            end_record()
            if limit is not None and len(records) >= limit:
                return records
            continue
        buf.append(ch)
        started = True
        i += 1

    if in_quotes and not lenient:
        raise CsvError("unterminated quoted field", row=len(records) + 1)
    if started:
        end_record()
    return records


def _split_outcome(split, text: str, delimiter: str, limit: int | None, **lenient):
    try:
        return split(text, delimiter, limit=limit, **lenient)
    except CsvError as exc:
        return ("error", str(exc), exc.row)


# Form feed, NEL and U+2028 break lines for str.splitlines but not for a table.
_TOKENIZER_CHARS = _SPLITTER_CHARS + [" ", "\x0c", "\x85", "\u2028"]


@given(
    st.text(alphabet=st.sampled_from(_TOKENIZER_CHARS), max_size=40),
    st.sampled_from(tabular.DELIMITERS),
    st.sampled_from([None, 1, 2, 3]),
)
@settings(max_examples=1000)
def test_tokenizer_matches_the_reference(text, delimiter, limit):
    # A limited read is a sample: it closes a quote open at its end.
    lenient = limit is not None
    assert _split_outcome(_tokenized_sample, text, delimiter, limit) == _split_outcome(
        _reference_split, text, delimiter, limit, lenient=lenient
    )


@given(
    st.one_of(
        st.text(alphabet=st.sampled_from(_TOKENIZER_CHARS), max_size=40),
        # Past 20 records, where the check stops.
        st.lists(st.text(alphabet=st.sampled_from(_TOKENIZER_CHARS), max_size=4), min_size=18, max_size=24).map("\n".join),
    ),
    st.sampled_from(tabular.DELIMITERS),
)
@example('"a,b"\t"a,b"\n', ",")  # text after a close quote
@example('a;"b,c"\n', ",")  # a quote inside a bare field
@example('"a\n""b', ";")  # a sample that stops inside a quoted field
def test_clean_reading_matches_the_state_machine(text, delimiter):
    assert tabular._split_quoted(text, delimiter, limit=20)[1] == _reference_reads_cleanly(text, delimiter)


_READER_CHARS = ['"', '""', ",", ";", "\t", "\n", "\r\n", "\r", "\x00", " ", "\x0c", "\u2028", "a", "b"]


@given(
    st.one_of(
        st.lists(st.sampled_from(_READER_CHARS), max_size=40),
        st.lists(st.sampled_from([c for c in _READER_CHARS if c != "\r"]), max_size=40),
    ).map("".join),
    st.sampled_from(tabular.DELIMITERS),
    st.integers(1, 6),
)
def test_full_split_matches_the_reference(text, delimiter, block):
    # Blocks of a few characters make quoted fields straddle block edges.
    with mock.patch.object(tabular, "_READER_BLOCK_CHARS", block):
        assert _column_outcome(text, delimiter) == _rowwise_table(text, delimiter, split=_reference_split)


_BIG = 100_000


@pytest.mark.parametrize(
    "make",
    [
        lambda d: '"' * _BIG,
        lambda d: '"' + "a" * _BIG,
        lambda d: '"a"' + d * _BIG,
        lambda d: '"' + "\r\n" * _BIG,
        # One token per blank line: linear, but slower than the state machine.
        lambda d: '""' + "\r\n" * _BIG,
    ],
    ids=["quotes", "open-quote-then-text", "quoted-then-delimiters", "open-quote-then-blank-lines", "quoted-then-blank-lines"],
)
@pytest.mark.parametrize("delimiter", tabular.DELIMITERS)
def test_tokenizer_matches_the_reference_at_scale(make, delimiter):
    text = make(delimiter)
    # A whole read raises at an unterminated quote; a limited one closes it.
    for limit in (None, 2):
        expected = _split_outcome(_reference_split, text, delimiter, limit, lenient=limit is not None)
        assert _split_outcome(_tokenized_sample, text, delimiter, limit) == expected
    assert _column_outcome(text, delimiter) == _rowwise_table(text, delimiter, split=_reference_split)


def _reference_front_matter(text: str) -> tuple[str, str]:
    """The front-matter split as a line list: raw YAML and body, or an error.

    Lines end at LF, CRLF or a lone CR, as records do.  A fence is a line
    that is ``---``; when it ends at a lone CR, the blank lone-CR lines after
    it, up to a CRLF or the end of the text, are its trailing CRs.
    """
    lines = io.StringIO(text, newline="").readlines()  # split at LF, CRLF and a lone CR

    def fence_end(index: int) -> int | None:
        """One past the last line of the fence at ``index``, or None if there is none."""
        if lines[index].rstrip("\r\n") != "---":
            return None
        end = index + 1
        if lines[index].endswith("\r"):
            while end < len(lines) and lines[end] == "\r":
                end += 1
            if end < len(lines):
                end = end + 1 if lines[end] == "\r\n" else index + 1
        return end

    opening = fence_end(0) if lines else None
    if opening is None:
        return "", text
    for index in range(opening, len(lines)):
        closing = fence_end(index)
        if closing is not None:
            return "".join(lines[opening:index]), "".join(lines[closing:])
    raise FrontMatterError("front matter fence '---' is never closed")


def _lf_reference_front_matter(text: str) -> tuple[str, str]:
    """The split as it was when fences ended only at LF, trailing CRs aside."""
    if not re.match(r"---\r*(?:\n|\Z)", text):
        return "", text
    parts = text.split("\n")
    lines = [line + "\n" for line in parts[:-1]]
    if parts[-1]:
        lines.append(parts[-1])
    close_index = None
    for index in range(1, len(lines)):
        if lines[index].rstrip("\r\n") == "---":
            close_index = index
            break
    if close_index is None:
        raise FrontMatterError("front matter fence '---' is never closed")
    return "".join(lines[1:close_index]), "".join(lines[close_index + 1 :])


def _front_matter_outcome(split, text: str):
    try:
        return split(text)
    except FrontMatterError as exc:
        return ("error", str(exc))


_LONE_CR = re.compile(r"\r(?!\r*\n)")  # a CR that no LF follows after CRs


def test_closing_fence_search_matches_the_line_split():
    # Every string of up to 7 of these characters, after each opening line.
    # Text with no lone CR splits exactly as it did when fences ended only at LF.
    strings = ["".join(p) for n in range(8) for p in itertools.product("-\r\na,", repeat=n)]
    prefixes = ["---\n", "---\r\n", "---\r\r\n", "---", "---\r", "---\r\r"]
    for prefix in prefixes:
        for rest in strings:
            text = prefix + rest
            outcome = _front_matter_outcome(tabular._split_front_matter, text)
            assert outcome == _front_matter_outcome(_reference_front_matter, text), text
            if not _LONE_CR.search(text):
                assert outcome == _front_matter_outcome(_lf_reference_front_matter, text), text


@pytest.mark.parametrize("newline", ["\r", "\n", "\r\n"], ids=["cr", "lf", "crlf"])
def test_front_matter_fences_end_at_every_line_break(newline):
    data = "---{0}title: x{0}---{0}id,v{0}1,2{0}".format(newline).encode()
    front, table = parse_csvy(data)
    assert (front.raw_yaml, front.mapping) == (f"title: x{newline}", {"title": "x"})
    assert (table.header, table.rows) == (["id", "v"], [["1", "2"]])
    assert parse_csvy(serialize_csvy(front, table)) == (front, table)


# ---------------------------------------------------------------------------
# Column-wise rendering against the row-wise loop it replaced


def _reference_render_cell(cell: str, delimiter: str) -> str:
    # Every candidate delimiter, not only the table's own, so that
    # detection reads the text back as the same table.
    if '"' in cell or any(d in cell for d in tabular.DELIMITERS) or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _reference_render_line(cells: list[str], delimiter: str) -> str:
    line = delimiter.join(_reference_render_cell(cell, delimiter) for cell in cells)
    # A lone empty cell would render as a blank line, which parsers skip;
    # write it as a quoted empty instead so the record survives.
    return '""' if line == "" else line


def _reference_serialize_csvy(front: FrontMatter | None, table: CsvTable) -> bytes:
    delimiter = table.dialect.delimiter
    lines: list[str] = []
    if table.header:
        lines.append(_reference_render_line(table.header, delimiter))
    for row in table.rows:
        lines.append(_reference_render_line(row, delimiter))
    body = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
    parts: list[bytes] = []
    if front is not None and front.raw_yaml:
        raw = front.raw_yaml
        if not raw.endswith("\n"):
            raw += "\n"
        parts.append(b"---\n")
        parts.append(raw.encode("utf-8"))
        parts.append(b"---\n")
    if not parts and body.startswith(b"---\n"):
        body = b'"---"' + body[3:]
    parts.append(body)
    return b"".join(parts)


_RENDER_CELLS = st.one_of(
    st.sampled_from(["", "---", '"', "\r", "\n", "\r\n"]),
    st.text(alphabet=st.sampled_from([",", "\t", ";", '"', "\r", "\n", "-", "a", " "]), max_size=6),
)


@st.composite
def _render_cases(draw):
    delimiter = draw(st.sampled_from(tabular.DELIMITERS))
    width = draw(st.integers(min_value=1, max_value=4))
    header = draw(st.lists(_RENDER_CELLS, min_size=width, max_size=width, unique_by=str.strip))
    rows = draw(st.lists(st.lists(_RENDER_CELLS, min_size=width, max_size=width), max_size=6))
    front = draw(st.sampled_from([None, FrontMatter(), FrontMatter(raw_yaml="title: x")]))
    return front, CsvTable(header=header, rows=rows, dialect=Dialect(delimiter=delimiter))


@given(_render_cases())
@settings(max_examples=1000)
def test_serialize_matches_the_row_wise_reference(case):
    front, table = case
    assert serialize_csvy(front, table) == _reference_serialize_csvy(front, table)


@given(_render_cases())
@example((None, CsvTable(header=["a,b", "c"], rows=[["1,2", "3"], ["4,5", "6"]], dialect=Dialect(delimiter=";"))))
@example((None, CsvTable(header=["a", "b,c,d"], rows=[["1", "2,3,4"]], dialect=Dialect(delimiter=";"))))
@example((None, CsvTable(header=["t\tz"], rows=[[""], ["\t"]])))
@settings(max_examples=1000)
def test_canonical_text_reads_back_as_the_table_it_was_written_from(case):
    # Cells mix every candidate delimiter, quotes and line breaks.  One
    # holding another candidate delimiter is written quoted, and detection
    # counts only readings that find every quote around a whole field, so
    # no other delimiter reads the text as another table.
    front, table = case
    data = serialize_csvy(front, table)
    _, again = parse_csvy(data)
    assert (again.header, again.columns) == (table.header, table.columns)
    assert serialize_csvy(front, again) == data


# ---------------------------------------------------------------------------
# Memory


def _quote_free_table(rows: int) -> bytes:
    """A seeded quote-free table: an integer id, a code, a date, a decimal and a flag."""
    rng = random.Random(1)
    lines = ["id,code,day,amount,flag"]
    for index in range(rows):
        day = datetime.date(2000, 1, 1) + datetime.timedelta(days=rng.randrange(9000))
        flag = rng.choice(("true", "false", "NA"))
        lines.append(f"{index * 7},{rng.choice('ABCDEFGH')}{rng.randrange(10_000):04d},{day},{rng.randrange(10**7) / 100:.2f},{flag}")
    return ("\n".join(lines) + "\n").encode()


#: Peak traced allocation of parsing that table, as a multiple of its size.
#: Column storage peaks at 11.0x (Python 3.11); a list of cells per row
#: peaked at 15.3x.
_PARSE_PEAK_LIMIT = 13


def test_parsing_a_quote_free_table_peaks_below_a_fixed_multiple_of_its_size():
    data = _quote_free_table(50_000)
    gc.collect()
    tracemalloc.start()
    try:
        _, table = parse_csvy(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.height == 50_000
    assert peak < _PARSE_PEAK_LIMIT * len(data), f"peak {peak / len(data):.1f}x the file"
