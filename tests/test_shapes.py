"""Column verdicts by digit shape give the same answers as checking each value.

The references below are the per-value implementations that the shape
summaries (``tabular.ColumnShapes``) replaced, kept verbatim.  CI runs this
file a second time with ``--hypothesis-profile=ci`` (see ``conftest.py``).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from tidypack import (
    CsvTable,
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
    _violation_kind,
)
from tidypack.tabular import MISSING_WATCHLIST, ColumnShapes, MissingProfile, is_date_token


def infer_field_type(cells: Iterable[str], missing_values: Iterable[str] = DEFAULT_MISSING_VALUES) -> str:
    """The shape verdict on one column of cells, as ``infer_schema`` gives it."""
    return _infer(ColumnShapes(cells), frozenset(missing_values))


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


class _OneTableContext:
    """What R14 and R15 read of a lint context: one dataset, one table."""

    def __init__(self, table: CsvTable, declared: frozenset[str]):
        self.ds = SimpleNamespace(name="d")
        self.pkg = SimpleNamespace(datasets=[self.ds])
        self.table = table
        self.declared = declared

    def declared_missing(self, ds):
        return self.declared

    def dataset_tables(self, ds):
        return [(SimpleNamespace(path="data/d.csv"), self.table)]


class _OneSchemaContext(_OneTableContext):
    """What R09 reads of a lint context: one dataset whose one schema file,
    with no ``path``, types its one table."""

    def __init__(self, table: CsvTable, schema: TableSchema):
        super().__init__(table, frozenset())
        self.schema = schema
        self.ds.data_files = [SimpleNamespace(path="data/d.csv")]
        self.pkg.pool = SimpleNamespace()
        self.pkg.all_paths = lambda: ["data/d.csv", "metadata/d.json"]

    def json_metadata_refs(self, owner):
        return [SimpleNamespace(path="metadata/d.json")] if owner is self.ds else []

    def load(self, loader, rel):
        return (self.schema if loader is lint._load_schema else self.table), None


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
