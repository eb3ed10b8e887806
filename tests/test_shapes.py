"""Column verdicts by digit shape give the same answers as checking each value.

The references below are the per-value implementations that the shape
summaries (``tabular.ColumnShapes``) replaced, kept verbatim.  CI runs this
file a second time with ``--hypothesis-profile=ci`` (see ``conftest.py``).
"""

from __future__ import annotations

import contextlib
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tidypack import (
    CsvTable,
    ToolError,
    FieldDescriptor,
    TableSchema,
    infer_schema,
    lint,
    tabular,
    validate_table,
)
from tidypack.schema import (
    _INFERENCE_ORDER,
    _TYPE_CHECKS,
    DEFAULT_MISSING_VALUES,
    ValidationReport,
    Violation,
    _infer,
    count_violations,
    _violation_kind,
)
from tidypack.schema import violations as listed_violations
from tidypack.tabular import MISSING_WATCHLIST, ColumnShapes, MissingProfile, is_date_token


def infer_field_type(cells: Iterable[str], missing_values: Iterable[str] = DEFAULT_MISSING_VALUES) -> str:
    """The shape verdict on one column of cells, as ``infer_schema`` gives it."""
    return _infer(ColumnShapes(tuple(cells), list(missing_values)), frozenset(missing_values))


# ---------------------------------------------------------------------------
# References: the per-value code, verbatim, reading cells from ``table.rows``


def _columns(table: CsvTable) -> list[list[str]]:
    """Each column's cells in row order, straight from the rows."""
    return [[row[j] for row in table.rows] for j in range(table.width)]


def _reference_infer_field_type(
    cells: Iterable[str], missing_values: Iterable[str] = DEFAULT_MISSING_VALUES
) -> str:
    """Pick the most specific field type every non-missing cell satisfies."""
    # The checks are pure, so each distinct value is tested once.
    observed = set(cells).difference(missing_values)
    if not observed:
        return "string"
    for candidate in _INFERENCE_ORDER:
        check = _TYPE_CHECKS[candidate]
        if all(check(cell) for cell in observed):
            return candidate
    return "string"


def _reference_validate_table(table: CsvTable, schema: TableSchema) -> ValidationReport:
    violations: list[Violation] = []
    names = table.column_names
    present = set(names)
    schema_names = set(schema.field_names())

    for f in schema.fields:
        if f.name not in present:
            violations.append(Violation(kind="missing_column", field=f.name))
    for column_name in names:
        if column_name not in schema_names:
            violations.append(Violation(kind="unknown_column", field=column_name))

    # Each distinct value is classified once; only columns holding a bad
    # value are walked again, row by row, to keep the violation order.
    failing = []
    for index, name in enumerate(names):
        if name not in schema_names:
            continue
        type_name = schema.field(name).type
        if type_name == "string":
            continue
        check = _TYPE_CHECKS[type_name]
        kinds = {
            cell: _violation_kind(cell, type_name)
            for cell in {row[index] for row in table.rows}.difference(schema.missing_values)
            if not check(cell)
        }
        if kinds:
            failing.append((index, name, kinds))
    for row_number, row in enumerate(table.rows, start=1):
        for index, name, kinds in failing:
            kind = kinds.get(row[index])
            if kind is not None:
                violations.append(
                    Violation(kind=kind, field=name, row=row_number, value=row[index])
                )
    return ValidationReport(violations=violations)


def _reference_detect_missing_tokens(
    cells: Iterable[str], declared: Iterable[str] = ()
) -> MissingProfile:
    """Profile a column against declared missing codes and the watchlist."""
    declared_set = frozenset(declared)
    count = 0
    seen: set[str] = set()
    suspects: set[str] = set()
    for cell in cells:
        if cell in declared_set:
            count += 1
            seen.add(cell)
        elif cell in MISSING_WATCHLIST:
            suspects.add(cell)
    return MissingProfile(count=count, seen=frozenset(seen), suspects=frozenset(suspects))


_f = lint._f
_looks_dateish = lint._looks_dateish


def _reference_eval_r14(ctx):
    for ds in ctx.pkg.datasets:
        declared = ctx.declared_missing(ds)
        for ref, table in ctx.dataset_tables(ds):
            for name, cells in zip(table.column_names, _columns(table)):
                # Each distinct value is tested once; the column is walked
                # again only to count and order the offending cells.
                considered = set(cells).difference(declared, ("",))
                if not considered or not all(_looks_dateish(c) for c in considered):
                    continue
                bad = {c for c in considered if not is_date_token(c)}
                if bad:
                    offending = [c for c in cells if c in bad]
                    yield _f(
                        f"column {name!r} holds dates but {len(offending)} value(s) "
                        f"are not calendar-valid YYYY-MM-DD (e.g. {offending[0]!r})",
                        path=ref.path,
                        column=name,
                        example=offending[0],
                    )


def _reference_eval_r15(ctx):
    for ds in ctx.pkg.datasets:
        declared = ctx.declared_missing(ds)
        for ref, table in ctx.dataset_tables(ds):
            suspicious: list[str] = []
            for name, cells in zip(table.column_names, _columns(table)):
                profile = _reference_detect_missing_tokens(cells, declared)
                if profile.suspects:
                    tokens = ", ".join(repr(t) for t in sorted(profile.suspects))
                    suspicious.append(f"{name}: {tokens}")
            if suspicious:
                yield _f(
                    "undeclared missing-value token(s) found -- " + "; ".join(suspicious),
                    path=ref.path,
                )


class _Profiled(tabular.TableProfile):
    """A table's profile that also holds the table's rows and width, which
    the references read."""


class _OneTableContext:
    """What R14 and R15 read of a lint context: one dataset, one table's
    profile, watching the watchlist, ``declared`` and ``watch``, whose second
    read is the table's columns as one part."""

    def __init__(self, table: CsvTable, declared: frozenset[str], watch: Iterable[str] = ()):
        self.ds = SimpleNamespace(name="d")
        self.pkg = SimpleNamespace(datasets=[self.ds])
        self.csv = _Profiled._make(tabular.profile_table(table, MISSING_WATCHLIST | declared | set(watch)))
        self.csv.rows, self.csv.width, self.columns = table.rows, table.width, table.columns
        self.declared = declared

    def declared_missing(self, ds):
        return self.declared

    def dataset_tables(self, ds):
        return [(SimpleNamespace(path="data/d.csv"), self.csv)]

    def parts(self, rel):
        return iter([(0, self.columns)])


class _OneSchemaContext(_OneTableContext):
    """What R09 reads of a lint context: one dataset whose one schema file,
    with no ``path``, types its one table."""

    def __init__(self, table: CsvTable, schema: TableSchema):
        super().__init__(table, frozenset(), schema.missing_values)
        self.schema = schema
        self.ds.data_files = [SimpleNamespace(path="data/d.csv")]
        self.pkg.pool = SimpleNamespace()
        self.pkg.all_paths = lambda: ["data/d.csv", "metadata/d.json"]

    def json_metadata_refs(self, owner):
        return [SimpleNamespace(path="metadata/d.json")] if owner is self.ds else []

    read_table = None  # a loader ``load`` is given, and answers with the table

    def load(self, loader, rel):
        return (self.schema if loader is lint._load_schema else self.csv), None


# ---------------------------------------------------------------------------
# Cells

_CHARS = list("0123456789+-.eE/ a") + ["٣", "²", "１", "\n", "\r", "\u2028"]
_TOKENS = ["NA", "N/A", "", "-99", "-999", "-12", "NULL", ".", "unknown", "true", "FALSE", "1e5", "+.5"]


@st.composite
def _dates(draw):
    year = draw(st.sampled_from(["0000", "0001", "1999", "2019", "2020", "9999", "٣٣٣٣", "２０１９"]))
    month = draw(st.sampled_from(["00", "01", "02", "04", "09", "12", "13", "1", "99"]))
    day = draw(st.sampled_from(["00", "01", "09", "28", "29", "30", "31", "32", "3"]))
    sep = draw(st.sampled_from(["-", "-", "/"]))
    if draw(st.booleans()):
        return sep.join((year, month, day))
    return sep.join((day, month, year))


_CELLS = st.one_of(
    st.text(alphabet=st.sampled_from(_CHARS), max_size=8),
    st.sampled_from(_TOKENS),
    _dates(),
)
#: A column drawn from one kind of cell is often all numbers or all dates.
_KINDS = (
    _CELLS,
    st.one_of(_dates(), st.sampled_from(["NA", "", "-99", "2019-01-02", "0000-01-01\n2019-02-30"])),
    st.one_of(
        st.text(alphabet=st.sampled_from(list("0123456789+-.eE٣")), min_size=1, max_size=6),
        st.sampled_from(_TOKENS),
    ),
)
_MISSING = st.sets(st.sampled_from(["NA", "-99", "-999", "", "2019-02-30", "0000-01-01"]))
#: Small slices make a short column span several; 4096 is the real size.
_SLICES = st.sampled_from([1, 2, 3, 4096])


def _sliced(size: int):
    return mock.patch.object(tabular, "_SLICE_CELLS", size)


# ---------------------------------------------------------------------------
# Properties


@given(st.sampled_from(_KINDS).flatmap(lambda kind: st.lists(kind, max_size=30)), _MISSING, _SLICES)
def test_inference_matches_the_per_value_checks(cells, missing, slice_size):
    with _sliced(slice_size):
        assert infer_field_type(cells, missing) == _reference_infer_field_type(cells, missing)
        assert infer_field_type(iter(cells), missing) == _reference_infer_field_type(cells, missing)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 3))
    height = draw(st.integers(0, 20))
    columns = [
        draw(st.lists(draw(st.sampled_from(_KINDS)), min_size=height, max_size=height)) for _ in range(width)
    ]
    return CsvTable(header=[f"c{j}" for j in range(width)], rows=[list(row) for row in zip(*columns)])


_TYPES = st.lists(st.sampled_from(["string", "integer", "number", "boolean", "date"]), min_size=3, max_size=3)


@given(_tables(), _TYPES, _MISSING, _SLICES)
def test_validation_matches_the_per_value_checks(table, types, missing, slice_size):
    schema = TableSchema(
        name="t",
        fields=[FieldDescriptor(f"c{j}", type_name) for j, type_name in enumerate(types)],
        missing_values=missing,
    )
    with _sliced(slice_size):
        assert validate_table(table, schema) == _reference_validate_table(table, schema)
        inferred = infer_schema(table, missing_values=missing)
    assert [f.type for f in inferred.fields] == [
        _reference_infer_field_type(cells, missing) for cells in _columns(table)
    ]


@given(_tables(), _MISSING, _SLICES)
def test_r14_and_r15_match_the_per_value_checks(table, declared, slice_size):
    declared = frozenset(declared)
    with _sliced(slice_size):
        for rule, reference in ((lint._eval_r14, _reference_eval_r14), (lint._eval_r15, _reference_eval_r15)):
            ctx = _OneTableContext(table, declared)
            assert list(rule(ctx)) == list(reference(ctx))


@st.composite
def _typed_tables(draw):
    """A table, and a schema that types most of its columns in any order,
    now and then naming a column the table lacks."""
    table = draw(_tables())
    names = [name for name in draw(st.permutations(table.column_names)) if draw(st.integers(0, 5))]
    if not draw(st.integers(0, 5)):
        names.insert(draw(st.integers(0, len(names))), "c3")
    types = st.sampled_from(["integer", "number", "boolean", "date", "string"])
    fields = [FieldDescriptor(name, draw(types)) for name in names]
    return table, TableSchema(name="t", fields=fields, missing_values=draw(_MISSING))


@given(_typed_tables(), _SLICES)
def test_r09_counts_and_first_match_the_per_value_checks(typed, slice_size):
    table, schema = typed
    violations = _reference_validate_table(table, schema).violations
    expected = [
        _f(
            f"data/d.csv does not match the schema: {len(violations)} violation(s); "
            f"first: {lint._describe_violation(violations[0])}",
            path="metadata/d.json",
            violations=str(len(violations)),
        )
    ] if violations else []
    with _sliced(slice_size):
        # A finding's machine data is one of its fields, so it is compared too.
        assert list(lint._eval_r09(_OneSchemaContext(table, schema))) == expected


@given(st.lists(_CELLS, max_size=30), st.sets(st.sampled_from(["NA", "-99", "", "x", "1"])))
def test_missing_profile_matches_the_cell_walk(cells, declared):
    expected = _reference_detect_missing_tokens(cells, declared)
    assert tabular.detect_missing_tokens(cells, declared) == expected
    assert tabular.detect_missing_tokens(iter(cells), declared) == expected


# ---------------------------------------------------------------------------
# Profiles folded over the parser's batches


def _odd(cell: str) -> bool:
    """Date-shaped, and outside the class every calendar has: the per-cell
    reading of the odd dates a profile counts."""
    if len(cell) != 10 or cell.translate(tabular._TO_SHAPE) != tabular.DATE_SHAPE:
        return False
    year, month, day = cell[:4], int(cell[5:7]), int(cell[8:])
    return year == "0000" or not 1 <= month <= 12 or not 1 <= day <= 28


_PLAIN_CELLS = st.one_of(
    st.text(alphabet=st.sampled_from(list("0123456789+-./ a٣")), max_size=6),
    st.sampled_from(_TOKENS),
    _dates(),
    st.sampled_from(["2019-02-29", "2020-02-29", "2019-04-31", "0000-01-01", "2019-13-01", "2019-01-02", "1"]),
)
_QUOTED_CELLS = st.one_of(_PLAIN_CELLS, st.text(alphabet=st.sampled_from(list('09a-,"\r\n')), max_size=5))


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def _texts(draw):
    """The bytes of a table: quote-free with any line ends, or quoted, its
    rows drawn from a few repeated rows or all new, now and then a row one
    cell short, a blank line, front matter or no line end at the end."""
    quoted = draw(st.booleans())
    cells = _QUOTED_CELLS if quoted else _PLAIN_CELLS
    width = draw(st.integers(1, 3))
    row = st.lists(cells, min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=3))
    if draw(st.booleans()):  # a few rows, repeated, so blocks count their row shapes
        rows = draw(st.lists(st.sampled_from(pool), min_size=8, max_size=40))
    else:
        rows = draw(st.lists(st.one_of(st.sampled_from(pool), row), min_size=1, max_size=20))
    lines = [",".join(f"c{j}" for j in range(width))]
    for cells in rows:
        if quoted:
            cells = [_quoted(c) if draw(st.integers(0, 3)) == 0 or set(c) & set(',"\r\n') else c for c in cells]
        if not draw(st.integers(0, 30)):
            cells = cells[:-1]
        lines.append(",".join(cells))
        if not draw(st.integers(0, 30)):
            lines.append("")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    front = draw(st.sampled_from(["", "---\ntitle: t\n---\n"]))
    return (front + end.join(lines) + draw(st.sampled_from([end, ""]))).encode()


#: Batch sizes: characters per block of lines and per block fed to the
#: ``csv`` reader, and records per reader batch.  Sizes of 1 to 3 put a
#: batch edge after every record; the others leave several records, with
#: their repeated row shapes, in one block.
_BATCHES = st.sampled_from([None, None, (1, 1, 1), (2, 3, 1), (3, 2, 2), (64, 16, 3)])


def _batched(sizes):
    stack = contextlib.ExitStack()
    if sizes is not None:
        for name, size in zip(("_BLOCK_CHARS", "_READER_BLOCK_CHARS", "_READER_BATCH"), sizes):
            stack.enter_context(mock.patch.object(tabular, name, size))
    return stack


def _outcome(read):
    try:
        return read()
    except ToolError as exc:
        return ("error", type(exc).__name__, str(exc))


class _ProfileContext(_OneSchemaContext):
    """A lint context on a table's folded profile, whose second read is of the file."""

    def __init__(self, table, profile, path, schema, declared):
        super().__init__(table, schema)
        self.csv = profile
        self.declared = declared
        self.path = path

    def parts(self, rel):
        return tabular.read_parts(self.path)


@given(_texts(), _MISSING, _TYPES, _BATCHES)
@example(b"c0\n-99\n-12\n-99\n", {"-99"}, ["boolean"] * 3, None)  # a missing value shares a failing shape
@example(b"c0\n2019-02-30\n2019-02-31\n2019-02-30\n", {"2019-02-30"}, ["date"] * 3, None)  # and an odd date
@example(b"c0,c1\n1,2\n3", set(), ["string"] * 3, None)  # a short last line with no line end
@example(b"c0,c1\n" + b"1,a\n" * 8 + b"22,-99\n", {"-99"}, ["integer"] * 3, None)  # counted by row shapes
@settings(deadline=None)
def test_a_profile_folded_over_batches_matches_the_whole_table(data, missing, types, sizes):
    missing = frozenset(missing)
    whole = _outcome(lambda: tabular.parse_csvy(data)[1])
    with _batched(sizes):
        profile = _outcome(lambda: tabular.profile_csvy(data, MISSING_WATCHLIST | missing))
    if type(whole) is tuple:  # an error: the same one, from the same record, before any listing
        assert profile == whole
        return
    table = whole
    assert (profile.header, profile.dialect) == (table.header, table.dialect)
    for column, cells in zip(profile.shapes, _columns(table)):
        assert column.counts == Counter(cell.translate(tabular._TO_SHAPE) for cell in cells)
        assert +column.odd == Counter(filter(_odd, cells))
        for value in MISSING_WATCHLIST | missing:
            assert column.count(value) == cells.count(value)
    inferred = infer_schema(profile, missing_values=missing)
    assert inferred == infer_schema(table, missing_values=missing)
    assert [f.type for f in inferred.fields] == [
        _reference_infer_field_type(cells, missing) for cells in _columns(table)
    ]

    schema = TableSchema(
        name="t",
        fields=[FieldDescriptor(name, type_name) for name, type_name in zip(table.column_names, types)],
        missing_values=missing,
    )
    violations = _reference_validate_table(table, schema).violations
    expected = [
        _f(
            f"data/d.csv does not match the schema: {len(violations)} violation(s); "
            f"first: {lint._describe_violation(violations[0])}",
            path="metadata/d.json",
            violations=str(len(violations)),
        )
    ] if violations else []
    with tempfile.TemporaryDirectory() as scratch, _batched(sizes):
        path = Path(scratch) / "d.csv"
        path.write_bytes(data)
        assert count_violations(profile, schema) == len(violations)
        # The whole list, the folded profile's failing shapes picking each
        # part's cells, as schema validate lists it, and the library's.
        assert list(listed_violations(profile, tabular.read_parts(path), schema)) == violations
        assert validate_table(table, schema).violations == violations
        assert list(lint._eval_r09(_ProfileContext(table, profile, path, schema, missing))) == expected
        for rule, reference in ((lint._eval_r14, _reference_eval_r14), (lint._eval_r15, _reference_eval_r15)):
            folded = _ProfileContext(table, profile, path, schema, missing)
            assert list(rule(folded)) == list(reference(_OneTableContext(table, missing)))


def test_the_table_commands_gather_no_table(tmp_path, monkeypatch, capsys):
    from tidypack.cli import main

    def gathered(*args, **kwargs):
        raise AssertionError("a table was gathered")

    seeds = {
        "plain.csv": b"id,day,v\n1,2019-02-30,-99\n2,2020-01-02,x\n",
        "quoted.csvy": b'---\r\ntitle: t\r\n---\r\n"id","note"\r\n"1","a, b"\r\n"2","-99"\r\n',
    }
    for name, data in seeds.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.setattr(tabular, "_gather", gathered)
    for name in seeds:
        package = tmp_path / f"pkg-{name}"
        assert main(["init", str(package), "--dataset", "d", "--seed", str(tmp_path / name)]) == 0
        schema = package / "metadata" / "d.json"
        validate = ["schema", "validate", str(tmp_path / name), str(schema)]
        assert [main(validate), main([*validate, "--format", "json"])] == [0, 0]
        schema.write_text(schema.read_text().replace('"string"', '"integer"'))
        assert [main(validate), main([*validate, "--format", "json"])] == [1, 1]  # the violations read again
        assert main(["lint", str(package)]) == 1  # R09 counts, and reads the first violation again
        assert main(["schema", "infer", str(tmp_path / name)]) == 0
    assert "R09" in capsys.readouterr().out
