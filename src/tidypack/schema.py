"""Table schemas and data dictionaries: inference, validation, serialization.

A schema types each column with one of five field types.  Inference picks
the most specific type every non-missing cell satisfies: ``integer`` is
inside ``number``; ``boolean`` and ``date`` stand apart; ``string`` accepts
anything.  A column with no non-missing cells is a ``string`` column.

Inference and validation judge a column by its cells' digit shapes
(``tabular.ColumnShapes``): a value passes a type's check exactly when its
shape does, and a date must also be on the calendar.  Only the cells with a
failing shape, or an odd date, are looked at one by one.
"""

from __future__ import annotations

import heapq
import json
from collections import namedtuple
from pathlib import PurePath
from typing import Any, Iterable, Iterator, Mapping

from .errors import DictionaryError, SchemaError, checked_tuple
from .tabular import (
    DATE_SHAPE,
    MISSING_WATCHLIST,
    ColumnShapes,
    CsvTable,
    is_boolean_token,
    is_date_token,
    is_integer_token,
    is_number_token,
    parse_csvy,
    serialize_table,
)

FIELD_TYPES = ("string", "integer", "number", "boolean", "date")

#: Default declared missing values when nothing else is specified.
DEFAULT_MISSING_VALUES = frozenset({"NA"})

_TYPE_CHECKS = {
    "integer": is_integer_token,
    "number": is_number_token,
    "boolean": is_boolean_token,
    "date": is_date_token,
}

# The checks above applied to digit shapes: date shapes still need the
# calendar, which ``ColumnShapes.bad_dates`` has checked.
_SHAPE_CHECKS = {**_TYPE_CHECKS, "date": DATE_SHAPE.__eq__}

# Most specific first; the first type every cell satisfies wins.
_INFERENCE_ORDER = ("integer", "number", "boolean", "date")


class FieldDescriptor(checked_tuple("FieldDescriptor", "name type description codes")):
    """One column in a table schema."""

    __slots__ = ()

    def __new__(cls, name: str, type: str = "string", description: str = "", codes: dict[str, str] | None = None):
        if not name or not name.strip():
            raise SchemaError("field name must be non-empty")
        if type not in FIELD_TYPES:
            allowed = ",".join(FIELD_TYPES)
            raise SchemaError(f"unknown field type {type!r}; allowed: {allowed}")
        if codes and type not in ("string", "integer"):
            raise SchemaError(
                f"field {name!r}: codes only make sense on string or integer fields, not {type}"
            )
        return tuple.__new__(cls, (name, type, description, {} if codes is None else codes))


class TableSchema(checked_tuple("TableSchema", "name fields path missing_values license_id")):
    """Column types and missing-value declarations for one table."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        fields: list[FieldDescriptor],
        path: str | None = None,
        missing_values: Iterable[str] = DEFAULT_MISSING_VALUES,
        license_id: str | None = None,
    ):
        if not name or not name.strip():
            raise SchemaError("schema name must be non-empty")
        seen: set[str] = set()
        for f in fields:
            if f.name in seen:
                raise SchemaError(f"duplicate field name {f.name!r}")
            seen.add(f.name)
        return tuple.__new__(cls, (name, fields, path, frozenset(missing_values), license_id))

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> FieldDescriptor:
        for f in self.fields:
            if f.name == name:
                return f
        raise SchemaError(f"schema has no field named {name!r}")


class Violation(namedtuple("Violation", "kind field row value", defaults=(None, ""))):
    """One way a table fails its schema.

    ``kind`` is type_mismatch, bad_date_format, undeclared_missing_token,
    missing_column or unknown_column.  ``row`` is the 1-based data-row index,
    or ``None`` for structural problems (missing or unknown columns).
    """

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _infer(column: ColumnShapes, missing: frozenset[str]) -> str:
    """The most specific field type every non-missing cell satisfies."""
    # A type fits when every shape left once the missing values are taken
    # out passes its check, and, for dates, every odd date is missing.
    shapes = column.shapes(missing)
    if not shapes:
        return "string"
    for candidate in _INFERENCE_ORDER:
        if all(map(_SHAPE_CHECKS[candidate], shapes)) and (
            candidate != "date" or column.bad_dates <= missing
        ):
            return candidate
    return "string"


def failing_cells(column: ColumnShapes, type_name: str, missing: frozenset[str]) -> Iterator[tuple[int, str]]:
    """``(row, cell)`` for each non-missing cell of a column that fails the
    type's check, rows counted from 0, in row order."""
    check = _SHAPE_CHECKS[type_name]
    shapes = {shape for shape in column.shapes(missing) if not check(shape)}
    return column.rows_where(shapes, column.bad_dates if type_name == "date" else frozenset(), missing)


def infer_schema(
    table: CsvTable,
    *,
    name: str | None = None,
    path: str | None = None,
    missing_values: Iterable[str] = DEFAULT_MISSING_VALUES,
) -> TableSchema:
    """Infer a schema from a table's header and cells.

    Column order follows the table, whose header names every column.
    Raises ``SchemaError`` for a column with an empty name, naming its
    1-based number.
    """
    names = table.column_names
    if "" in names:
        raise SchemaError(f"column {names.index('') + 1} has an empty name")
    if name is None:
        if table.source:
            name = PurePath(table.source).stem
        else:
            name = "table"
    missing = frozenset(missing_values)
    fields = [
        FieldDescriptor(name=column_name, type=_infer(column, missing))
        for column_name, column in zip(names, table.shapes)
    ]
    return TableSchema(name=name, fields=fields, path=path, missing_values=missing)


def validate_table(table: CsvTable, schema: TableSchema) -> ValidationReport:
    """Check a table against a schema; the report lists what ``iter_violations`` yields.

    Structural violations (schema columns absent from the table, table
    columns unknown to the schema) come first, then cell violations ordered
    by row and column.  Cells equal to a declared missing value are skipped.
    A cell that fails its type but matches the common missing-value
    watchlist is reported as ``undeclared_missing_token``; a bad cell under
    a ``date`` field is ``bad_date_format``; anything else is
    ``type_mismatch``.
    """
    return ValidationReport(violations=list(iter_violations(table, schema)))


def iter_violations(table: CsvTable, schema: TableSchema) -> Iterator[Violation]:
    """The violations ``validate_table`` lists, in its order, one at a time:
    one row scan per column finds its failing cells, merged by row, then column."""
    structural, typed = _checked_columns(table, schema)
    yield from structural
    runs = [_column_violations(*checked, schema.missing_values) for checked in typed]
    for _, _, violation in heapq.merge(*runs):
        yield violation


def count_violations(table: CsvTable, schema: TableSchema) -> int:
    """How many violations ``iter_violations`` yields, with no ``Violation`` built per failing cell."""
    structural, typed = _checked_columns(table, schema)
    cells = (failing_cells(shapes, kind, schema.missing_values) for *_, kind, shapes in typed)
    return len(structural) + sum(1 for run in cells for _ in run)


def _checked_columns(table: CsvTable, schema: TableSchema) -> tuple[list[Violation], list[tuple]]:
    """The structural violations, and ``(index, name, type, shapes)`` per column not typed ``string``."""
    names = table.column_names
    types = {f.name: f.type for f in schema.fields}
    present = set(names)
    structural = [Violation(kind="missing_column", field=name) for name in types if name not in present]
    structural += [Violation(kind="unknown_column", field=name) for name in names if name not in types]
    typed = [
        (index, name, types[name], column)
        for index, (name, column) in enumerate(zip(names, table.shapes))
        if types.get(name, "string") != "string"
    ]
    return structural, typed


def _column_violations(index: int, name: str, type_name: str, column: ColumnShapes, missing: frozenset[str]):
    """``(row, index, Violation)`` for each failing cell of one column, in row order."""
    for row, cell in failing_cells(column, type_name, missing):
        yield row, index, Violation(_violation_kind(cell, type_name), name, row + 1, cell)


def _violation_kind(cell: str, type_name: str) -> str:
    if cell in MISSING_WATCHLIST:
        return "undeclared_missing_token"
    if type_name == "date":
        return "bad_date_format"
    return "type_mismatch"


def _field_to_obj(f: FieldDescriptor) -> dict[str, Any]:
    obj: dict[str, Any] = {"name": f.name, "type": f.type}
    if f.description:
        obj["description"] = f.description
    if f.codes:
        obj["codes"] = {key: f.codes[key] for key in sorted(f.codes)}
    return obj


def schema_to_json(schema: TableSchema) -> bytes:
    """Serialize a schema to canonical JSON bytes.

    Canonical means: fixed key order (``name``, ``path``, ``schema``,
    ``missingValues``, ``license``), two-space indent, LF line endings, a
    trailing newline, and non-ASCII characters kept as-is.  ``path`` and
    ``license`` are omitted when unset; ``missingValues`` is always present
    and sorted.  A lone surrogate, which a file name that is not UTF-8
    holds, is written as its ``\\udcXX`` escape.
    """
    obj: dict[str, Any] = {"name": schema.name}
    if schema.path is not None:
        obj["path"] = schema.path
    obj["schema"] = {"fields": [_field_to_obj(f) for f in schema.fields]}
    obj["missingValues"] = sorted(schema.missing_values)
    if schema.license_id is not None:
        obj["license"] = schema.license_id
    return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8", "backslashreplace")


def _field_from_obj(obj: Any, where: str) -> FieldDescriptor:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name.strip():
        raise SchemaError(f"{where} is missing a non-empty 'name'")
    description = obj.get("description", "")
    if not isinstance(description, str):
        raise SchemaError(f"{where}: 'description' must be a string")
    codes_obj = obj.get("codes", {})
    if not isinstance(codes_obj, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in codes_obj.items()
    ):
        raise SchemaError(f"{where}: 'codes' must map strings to strings")
    return FieldDescriptor(
        name=name, type=obj.get("type", "string"), description=description, codes=dict(codes_obj)
    )


def _schema_from_mapping(obj: Mapping[str, Any], *, where: str) -> TableSchema:
    name = obj.get("name")
    if not isinstance(name, str) or not name.strip():
        raise SchemaError(f"{where}: missing required key 'name'")
    schema_obj = obj.get("schema")
    if not isinstance(schema_obj, Mapping):
        raise SchemaError(f"{where}: missing required key 'schema'")
    fields_obj = schema_obj.get("fields")
    if not isinstance(fields_obj, list):
        raise SchemaError(f"{where}: missing required key 'schema.fields'")
    fields = [
        _field_from_obj(f, f"{where}: schema.fields[{i}]")
        for i, f in enumerate(fields_obj)
    ]
    path = obj.get("path")
    if path is not None and not isinstance(path, str):
        raise SchemaError(f"{where}: 'path' must be a string")
    missing_obj = obj.get("missingValues", sorted(DEFAULT_MISSING_VALUES))
    if not isinstance(missing_obj, list) or not all(
        isinstance(v, str) for v in missing_obj
    ):
        raise SchemaError(f"{where}: 'missingValues' must be a list of strings")
    license_id = obj.get("license")
    if license_id is not None and not isinstance(license_id, str):
        raise SchemaError(f"{where}: 'license' must be a string")
    return TableSchema(
        name=name,
        fields=fields,
        path=path,
        missing_values=frozenset(missing_obj),
        license_id=license_id,
    )


def schema_from_json(data: bytes | str) -> TableSchema:
    """Parse schema JSON produced by ``schema_to_json`` (or shaped like it).

    Unknown keys are ignored so hand-edited files with extra metadata still
    load.  Raises ``SchemaError`` for invalid JSON, a missing ``name`` or
    ``schema.fields``, or an unknown field type.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"schema JSON is not valid UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError("schema JSON must be an object")
    return _schema_from_mapping(obj, where="schema JSON")


def schema_from_front_matter(mapping: Mapping[str, Any]) -> TableSchema:
    """Extract a schema from parsed front matter carrying a ``schema`` block."""
    return _schema_from_mapping(mapping, where="front matter")


# ---------------------------------------------------------------------------
# Data dictionaries


#: How R reports column classes, mapped onto our field types.
R_CLASS_MAP = {
    "character": "string",
    "factor": "string",
    "double": "number",
    "numeric": "number",
    "integer": "integer",
    "logical": "boolean",
    "date": "date",
}


def normalize_class(raw: str) -> str:
    """Map a column-class label onto a field type where possible.

    Labels already naming a field type pass through; R class names map per
    ``R_CLASS_MAP``; a parenthetical qualifier is dropped before matching,
    so ``integer (date)`` normalizes to ``integer``.  Anything unrecognized
    is kept verbatim (trimmed) rather than guessed at.
    """
    trimmed = raw.strip()
    base = trimmed.split("(", 1)[0].strip().lower()
    if base in FIELD_TYPES:
        return base
    if base in R_CLASS_MAP:
        return R_CLASS_MAP[base]
    return trimmed


#: Separators used by the dictionary CSV encoding; they may not occur inside
#: the values they separate.
_CODE_PAIR_SEP = "; "
_CODE_KV_SEP = " = "


class DictionaryEntry(checked_tuple("DictionaryEntry", "variable_name class_name label description codes missing_codes")):
    """One variable in a data dictionary."""

    __slots__ = ()

    def __new__(
        cls,
        variable_name: str,
        class_name: str,
        label: str = "",
        description: str = "",
        codes: dict[str, str] | None = None,
        missing_codes: Iterable[str] = frozenset(),
    ):
        if not variable_name or not variable_name.strip():
            raise DictionaryError("dictionary entry is missing a variable name")
        if not class_name or not class_name.strip():
            raise DictionaryError(
                f"dictionary entry {variable_name!r} is missing a class"
            )
        codes = {} if codes is None else codes
        missing_codes = frozenset(missing_codes)
        for key, value in codes.items():
            if ";" in key or ";" in value:
                raise DictionaryError(
                    f"variable {variable_name!r}: ';' cannot occur in a code or its label"
                )
            if "=" in key:
                raise DictionaryError(
                    f"variable {variable_name!r}: '=' cannot occur in a code"
                )
        for token in missing_codes:
            if ";" in token:
                raise DictionaryError(
                    f"variable {variable_name!r}: ';' cannot occur in a missing code"
                )
        return tuple.__new__(cls, (variable_name, class_name, label, description, codes, missing_codes))


class DataDictionary(checked_tuple("DataDictionary", "entries")):
    """An ordered collection of variable descriptions."""

    __slots__ = ()

    def __new__(cls, entries: list[DictionaryEntry]):
        seen: set[str] = set()
        for entry in entries:
            if entry.variable_name in seen:
                raise DictionaryError(f"duplicate variable {entry.variable_name!r}")
            seen.add(entry.variable_name)
        return tuple.__new__(cls, (entries,))

    def variable_names(self) -> list[str]:
        return [entry.variable_name for entry in self.entries]


def dictionary_from_schema(schema: TableSchema) -> DataDictionary:
    """Build a dictionary skeleton from a schema, one entry per field."""
    entries = [
        DictionaryEntry(
            variable_name=f.name,
            class_name=f.type,
            description=f.description,
            codes=dict(f.codes),
            missing_codes=schema.missing_values,
        )
        for f in schema.fields
    ]
    return DataDictionary(entries=entries)


_DICTIONARY_COLUMNS = ("variable", "class", "description", "codes", "missing_codes")


def _parse_codes_cell(cell: str, variable: str) -> dict[str, str]:
    cell = cell.strip()
    if not cell:
        return {}
    codes: dict[str, str] = {}
    for pair in cell.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise DictionaryError(
                f"variable {variable!r}: malformed codes cell; expected 'code = label' pairs"
            )
        key, _, value = pair.partition("=")
        codes[key.strip()] = value.strip()
    return codes


def _parse_missing_cell(cell: str) -> frozenset[str]:
    cell = cell.strip()
    if not cell:
        return frozenset()
    return frozenset(token.strip() for token in cell.split(";") if token.strip())


def dictionary_from_table(table: CsvTable) -> DataDictionary:
    """Read a dictionary from a parsed table.

    Columns are matched case-insensitively; ``variable`` and ``class`` are
    required, ``description``, ``codes``, and ``missing_codes`` optional.
    Class labels are normalized (``character`` becomes ``string``,
    ``integer (date)`` becomes ``integer``, and so on).
    """
    lowered = {name.lower(): name for name in table.column_names}
    for required in ("variable", "class"):
        if required not in lowered:
            have = ", ".join(table.column_names)
            raise DictionaryError(
                f"dictionary table needs a {required!r} column; found: {have}"
            )

    def cells(key: str) -> list[str]:
        """The column's cells; an absent optional column reads as empty cells."""
        if key in lowered:
            return table.column(lowered[key])
        return [""] * table.height

    variables = cells("variable")
    classes = cells("class")
    descriptions = cells("description")
    codes_cells = cells("codes")
    missing_cells = cells("missing_codes")

    entries = []
    for index, variable in enumerate(variables):
        variable = variable.strip()
        entries.append(
            DictionaryEntry(
                variable_name=variable,
                class_name=normalize_class(classes[index]),
                description=descriptions[index].strip(),
                codes=_parse_codes_cell(codes_cells[index], variable),
                missing_codes=_parse_missing_cell(missing_cells[index]),
            )
        )
    return DataDictionary(entries=entries)


def dictionary_from_csv(data: bytes) -> DataDictionary:
    """Parse dictionary CSV bytes (front matter tolerated and ignored)."""
    _, table = parse_csvy(data)
    return dictionary_from_table(table)


def _render_codes(codes: dict[str, str]) -> str:
    return _CODE_PAIR_SEP.join(
        f"{key}{_CODE_KV_SEP}{codes[key]}" for key in sorted(codes)
    )


def _render_missing(missing: frozenset[str]) -> str:
    return _CODE_PAIR_SEP.join(sorted(missing))


def dictionary_to_csv(dictionary: DataDictionary) -> bytes:
    """Serialize a dictionary to its five-column CSV form.

    The header is exactly ``variable,class,description,codes,missing_codes``.
    Codes render as ``code = label`` pairs joined by ``"; "`` in sorted
    order; missing codes are sorted and joined the same way.  Labels are an
    in-memory convenience and are not serialized.
    """
    rows = [
        [
            entry.variable_name,
            entry.class_name,
            entry.description,
            _render_codes(entry.codes),
            _render_missing(entry.missing_codes),
        ]
        for entry in dictionary.entries
    ]
    table = CsvTable(header=list(_DICTIONARY_COLUMNS), rows=rows)
    return serialize_table(table)


def _markdown_escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def dictionary_to_markdown(dictionary: DataDictionary) -> str:
    """Render a dictionary as a Markdown pipe table.

    Always shows Variable, Class, and Description; adds Codes and Missing
    columns only when some entry has content for them.
    """
    show_codes = any(entry.codes for entry in dictionary.entries)
    show_missing = any(entry.missing_codes for entry in dictionary.entries)
    columns = ["Variable", "Class", "Description"]
    if show_codes:
        columns.append("Codes")
    if show_missing:
        columns.append("Missing")

    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for entry in dictionary.entries:
        cells = [entry.variable_name, entry.class_name, entry.description]
        if show_codes:
            cells.append(_render_codes(entry.codes))
        if show_missing:
            cells.append(_render_missing(entry.missing_codes))
        lines.append("| " + " | ".join(_markdown_escape(cell) for cell in cells) + " |")
    return "\n".join(lines) + "\n"
