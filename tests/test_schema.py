"""Schema inference, validation, canonical JSON, and data dictionaries."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tidypack import (
    CsvTable,
    DataDictionary,
    DictionaryEntry,
    DictionaryError,
    FieldDescriptor,
    SchemaError,
    TableSchema,
    Violation,
    dictionary_from_csv,
    dictionary_from_schema,
    dictionary_from_table,
    dictionary_to_csv,
    dictionary_to_markdown,
    infer_schema,
    normalize_class,
    parse_table,
    schema_from_front_matter,
    schema_from_json,
    schema_to_json,
    validate_table,
)
from tidypack.schema import DEFAULT_MISSING_VALUES
from tidypack.tabular import Dialect


def infer_field_type(cells, missing_values=DEFAULT_MISSING_VALUES) -> str:
    """The type ``infer_schema`` gives a one-column table of ``cells``."""
    table = CsvTable(header=["c"], rows=[[cell] for cell in cells])
    return infer_schema(table, missing_values=missing_values).fields[0].type


# ---------------------------------------------------------------------------
# Type inference


def test_infers_most_specific_type_per_column():
    data = b"age,height,nationality\n12,161.5,Spanish\n21,181.2,French\nNA,172.0,NA\n"
    table = parse_table(data, Dialect())
    schema = infer_schema(table, name="survey")
    assert [(f.name, f.type) for f in schema.fields] == [
        ("age", "integer"),
        ("height", "number"),
        ("nationality", "string"),
    ]


def test_infer_field_type_vectors():
    assert infer_field_type(["12", "21"]) == "integer"
    assert infer_field_type(["12", "21.5"]) == "number"
    assert infer_field_type(["1e3", "2"]) == "number"
    assert infer_field_type(["true", "FALSE"]) == "boolean"
    assert infer_field_type(["2019-01-22", "2020-02-29"]) == "date"
    assert infer_field_type(["12", "true"]) == "string"
    assert infer_field_type(["2019-01-22", "x"]) == "string"
    assert infer_field_type([]) == "string"
    assert infer_field_type(["NA", "NA"]) == "string"  # nothing observed
    assert infer_field_type(["NA", "7"]) == "integer"  # declared values skipped


def test_infer_respects_custom_missing_values():
    assert infer_field_type(["12", "unknown"], missing_values={"unknown"}) == "integer"
    assert infer_field_type(["12", "unknown"]) == "string"
    # With nothing declared, literal NA cells are data.
    assert infer_field_type(["12", "NA"], missing_values=()) == "string"


def test_integer_is_inside_number():
    # All-integer columns must come out integer, never the wider number.
    assert infer_field_type(["1", "2", "3"]) == "integer"
    assert infer_field_type(["1", "2", "3.0"]) == "number"


def test_infer_schema_names_and_errors():
    table = parse_table(b"a\n1\n", Dialect())
    assert infer_schema(table).name == "table"
    assert infer_schema(table, name="given").name == "given"

    sourced = table._replace(source="data/teaching.csv")
    assert infer_schema(sourced).name == "teaching"

    # A header cell of only spaces is an empty name once trimmed.
    with pytest.raises(SchemaError, match="^column 2 has an empty name$"):
        infer_schema(CsvTable(header=["a", " ", "c"], rows=[]))


_CELL_POOL = [
    "1",
    "-2",
    "+30",
    "3.5",
    ".5",
    "0.5e3",
    "true",
    "FALSE",
    "2019-01-22",
    "2019-02-30",
    "NA",
    "N/A",
    "-99",
    "",
    "x y",
    "NULL",
    "unknown",
]


@given(st.lists(st.sampled_from(_CELL_POOL), max_size=20))
@settings(max_examples=200)
def test_inference_is_sound_and_most_specific(cells):
    from tidypack.schema import _INFERENCE_ORDER, _TYPE_CHECKS

    inferred = infer_field_type(cells)
    observed = [cell for cell in cells if cell != "NA"]
    if inferred == "string":
        if observed:
            # string only when every narrower candidate fails somewhere
            for candidate in _INFERENCE_ORDER:
                assert not all(_TYPE_CHECKS[candidate](c) for c in observed)
        return
    check = _TYPE_CHECKS[inferred]
    assert all(check(cell) for cell in observed)
    # nothing earlier in the order also fits
    for candidate in _INFERENCE_ORDER:
        if candidate == inferred:
            break
        assert not all(_TYPE_CHECKS[candidate](c) for c in observed)


@given(st.lists(st.sampled_from(_CELL_POOL), min_size=0, max_size=15), st.integers(1, 4))
@settings(max_examples=100)
def test_validation_accepts_inferred_schema(cells, width):
    rows = [cells[i : i + width] for i in range(0, len(cells) - width + 1, width)]
    table = CsvTable(header=[f"c{i}" for i in range(width)], rows=rows)
    report = validate_table(table, infer_schema(table, name="t"))
    assert report.ok, report.violations


# ---------------------------------------------------------------------------
# Validation


def test_validation_walks_rows_then_columns():
    table = parse_table(
        b"id,when,score\n"
        b"1,2019-01-22,3.5\n"
        b"N/A,2019-02-30,x\n"
        b"NA,22-01-2019,NULL\n",
        Dialect(),
    )
    schema = TableSchema(
        name="t",
        fields=[
            FieldDescriptor("id", "integer"),
            FieldDescriptor("when", "date"),
            FieldDescriptor("score", "number"),
        ],
    )
    report = validate_table(table, schema)
    assert not report.ok
    assert report.violations == [
        Violation("undeclared_missing_token", "id", 2, "N/A"),
        Violation("bad_date_format", "when", 2, "2019-02-30"),
        Violation("type_mismatch", "score", 2, "x"),
        Violation("bad_date_format", "when", 3, "22-01-2019"),
        Violation("undeclared_missing_token", "score", 3, "NULL"),
    ]


def _cell_by_cell_violations(table, schema):
    """Reference for validate_table's cell violations: every cell, row by row."""
    from tidypack.schema import _TYPE_CHECKS
    from tidypack.tabular import MISSING_WATCHLIST

    out = []
    for row_number, row in enumerate(table.rows, start=1):
        for name, cell in zip(table.column_names, row):
            type_name = schema.field(name).type
            if cell in schema.missing_values or type_name == "string" or _TYPE_CHECKS[type_name](cell):
                continue
            if cell in MISSING_WATCHLIST:
                kind = "undeclared_missing_token"
            elif type_name == "date":
                kind = "bad_date_format"
            else:
                kind = "type_mismatch"
            out.append(Violation(kind, name, row_number, cell))
    return out


@given(
    st.lists(st.sampled_from(_CELL_POOL), max_size=24),
    st.lists(st.sampled_from(["string", "integer", "number", "boolean", "date"]), min_size=3, max_size=3),
    st.sets(st.sampled_from(["NA", "", "-99"])),
)
@settings(max_examples=200)
def test_validation_matches_a_cell_by_cell_walk(cells, types, missing):
    # Repeated values matter: each distinct value is classified once.
    rows = [cells[i : i + 3] for i in range(0, len(cells) - 2, 3)]
    table = CsvTable(header=["a", "b", "c"], rows=rows)
    schema = TableSchema(
        name="t",
        fields=[FieldDescriptor(name, type_name) for name, type_name in zip("abc", types)],
        missing_values=missing,
    )
    assert validate_table(table, schema).violations == _cell_by_cell_violations(table, schema)


#: Dates off the calendar with a day below 29: a check of only the days
#: 29-31 would pass them.
_OFF_CALENDAR = ["0000-01-01", "2019-00-10", "2019-13-01", "2019-01-00"]


@pytest.mark.parametrize("bad", [*_OFF_CALENDAR, "2019-02-29"])
def test_inference_rejects_every_date_off_the_calendar(bad):
    assert infer_field_type(["2019-01-01", "2020-02-29", bad]) == "string"
    assert infer_field_type(["2019-01-01", "2020-02-29", bad], missing_values=[bad]) == "date"


def test_validation_names_every_date_off_the_calendar():
    cells = ["2019-01-01", *_OFF_CALENDAR, "2020-02-29", "2019-02-29", "NA"]
    table = CsvTable(header=["day"], rows=[[cell] for cell in cells])
    report = validate_table(table, TableSchema(name="t", fields=[FieldDescriptor("day", "date")]))
    assert report.violations == [
        Violation("bad_date_format", "day", 2, "0000-01-01"),
        Violation("bad_date_format", "day", 3, "2019-00-10"),
        Violation("bad_date_format", "day", 4, "2019-13-01"),
        Violation("bad_date_format", "day", 5, "2019-01-00"),
        Violation("bad_date_format", "day", 7, "2019-02-29"),
    ]


def test_validation_structural_violations_come_first():
    table = parse_table(b"id,extra\n1,x\n", Dialect())
    schema = TableSchema(
        name="t",
        fields=[FieldDescriptor("id", "integer"), FieldDescriptor("ghost", "number")],
    )
    report = validate_table(table, schema)
    assert report.violations == [
        Violation("missing_column", "ghost"),
        Violation("unknown_column", "extra"),
    ]


def test_validation_skips_declared_missing_and_strings():
    table = parse_table(b"id,note\nNA,anything at all\n-1,NULL\n", Dialect())
    schema = TableSchema(
        name="t",
        fields=[FieldDescriptor("id", "integer"), FieldDescriptor("note", "string")],
    )
    assert validate_table(table, schema).ok


def test_validation_boolean_tokens_are_case_exact():
    table = parse_table(b"flag\ntrue\nTrue\n", Dialect())
    schema = TableSchema(name="t", fields=[FieldDescriptor("flag", "boolean")])
    report = validate_table(table, schema)
    assert report.violations == [Violation("type_mismatch", "flag", 2, "True")]


def test_validation_empty_cell_is_undeclared_missing():
    table = parse_table(b'id\n1\n""\n', Dialect())  # rows: "1" then ""
    schema = TableSchema(name="t", fields=[FieldDescriptor("id", "integer")])
    report = validate_table(table, schema)
    assert report.violations == [Violation("undeclared_missing_token", "id", 2, "")]
    padded = TableSchema(
        name="t", fields=[FieldDescriptor("id", "integer")], missing_values={"NA", ""}
    )
    assert validate_table(table, padded).ok


# ---------------------------------------------------------------------------
# Canonical schema JSON

_CANONICAL = """\
{
  "name": "teaching",
  "path": "data/teaching.csv",
  "schema": {
    "fields": [
      {
        "name": "age",
        "type": "integer"
      },
      {
        "name": "nationality",
        "type": "string",
        "description": "Country of citizenship",
        "codes": {
          "1": "Spanish",
          "2": "French"
        }
      }
    ]
  },
  "missingValues": [
    "-99",
    "NA"
  ],
  "license": "CC-BY-4.0"
}
""".encode()


def _canonical_schema() -> TableSchema:
    return TableSchema(
        name="teaching",
        path="data/teaching.csv",
        fields=[
            FieldDescriptor("age", "integer"),
            FieldDescriptor(
                "nationality",
                "string",
                description="Country of citizenship",
                codes={"2": "French", "1": "Spanish"},
            ),
        ],
        missing_values={"NA", "-99"},
        license_id="CC-BY-4.0",
    )


def test_schema_json_is_byte_stable():
    assert schema_to_json(_canonical_schema()) == _CANONICAL


def test_schema_json_round_trip():
    schema = _canonical_schema()
    assert schema_from_json(schema_to_json(schema)) == schema


def test_schema_json_minimal_shape():
    schema = TableSchema(name="t", fields=[FieldDescriptor("a")])
    assert schema_to_json(schema) == (
        b'{\n  "name": "t",\n  "schema": {\n    "fields": [\n      {\n'
        b'        "name": "a",\n        "type": "string"\n      }\n    ]\n  },\n'
        b'  "missingValues": [\n    "NA"\n  ]\n}\n'
    )


def test_schema_json_keeps_unicode():
    schema = TableSchema(name="café", fields=[FieldDescriptor("a")])
    assert "café".encode() in schema_to_json(schema)


def test_schema_from_json_ignores_unknown_keys():
    data = (
        b'{"name": "t", "publisher": "x", "schema": {"fields": ['
        b'{"name": "a", "note": 3}], "primaryKey": "a"}}'
    )
    schema = schema_from_json(data)
    assert schema.name == "t"
    assert schema.fields == [FieldDescriptor("a", "string")]
    assert schema.missing_values == frozenset({"NA"})
    assert schema.path is None and schema.license_id is None


def test_schema_from_json_defaults():
    schema = schema_from_json(b'{"name": "t", "schema": {"fields": []}}')
    assert schema.fields == []
    assert schema.missing_values == frozenset({"NA"})


def test_schema_from_json_errors():
    with pytest.raises(SchemaError):
        schema_from_json(b"not json")
    with pytest.raises(SchemaError):
        schema_from_json(b"[]")
    with pytest.raises(SchemaError):
        schema_from_json(b'{"schema": {"fields": []}}')  # no name
    with pytest.raises(SchemaError):
        schema_from_json(b'{"name": "t"}')  # no schema block
    with pytest.raises(SchemaError):
        schema_from_json(b'{"name": "t", "schema": {"fields": 3}}')
    with pytest.raises(SchemaError):
        schema_from_json(b'{"name": "t", "schema": {"fields": [{"name": "a", "type": "text"}]}}')
    with pytest.raises(SchemaError):
        schema_from_json(b'{"name": "t", "schema": {"fields": []}, "missingValues": "NA"}')
    with pytest.raises(SchemaError):
        schema_from_json(b"\xff\xfe")


@pytest.mark.parametrize("type_json, shown", [('"text"', "'text'"), ("3", "3"), ("null", "None"), ('["date"]', "['date']")])
def test_schema_from_json_field_types_are_checked_by_the_descriptor(type_json, shown):
    field = b'{"name": "a", "type": %s}' % type_json.encode()
    with pytest.raises(SchemaError) as excinfo:
        schema_from_json(b'{"name": "t", "schema": {"fields": [%s]}}' % field)
    assert str(excinfo.value) == f"unknown field type {shown}; allowed: string,integer,number,boolean,date"
    # The reader checks a field's description and codes before building it.
    field = b'{"name": "a", "type": %s, "description": 1}' % type_json.encode()
    with pytest.raises(SchemaError, match=r"'description' must be a string$"):
        schema_from_json(b'{"name": "t", "schema": {"fields": [%s]}}' % field)


def test_schema_from_front_matter_defaults():
    schema = schema_from_front_matter(
        {"name": "x", "schema": {"fields": [{"name": "a"}]}}
    )
    assert schema.fields == [FieldDescriptor("a", "string")]
    with pytest.raises(SchemaError):
        schema_from_front_matter({"name": "x", "schema": "nope"})


def test_field_descriptor_guards():
    with pytest.raises(SchemaError) as excinfo:
        FieldDescriptor("a", "text")
    assert str(excinfo.value) == (
        "unknown field type 'text'; allowed: string,integer,number,boolean,date"
    )
    with pytest.raises(SchemaError):
        FieldDescriptor("", "string")
    with pytest.raises(SchemaError):
        FieldDescriptor("a", "number", codes={"1": "one"})
    # codes are fine on string and integer fields
    FieldDescriptor("a", "integer", codes={"1": "one"})
    FieldDescriptor("a", "string", codes={"y": "yes"})


def test_table_schema_guards():
    with pytest.raises(SchemaError):
        TableSchema(name="", fields=[])
    with pytest.raises(SchemaError):
        TableSchema(name="t", fields=[FieldDescriptor("a"), FieldDescriptor("a")])
    schema = TableSchema(name="t", fields=[], missing_values=["NA", "NA"])
    assert isinstance(schema.missing_values, frozenset)
    with pytest.raises(SchemaError):
        TableSchema(name="t", fields=[]).field("ghost")


_NAME = st.text(alphabet=st.sampled_from(string.ascii_lowercase), min_size=1, max_size=8)
_PLAIN_TEXT = st.text(
    alphabet=st.sampled_from(string.ascii_letters + string.digits + " .,'-é中"),
    max_size=16,
)
_CODE_LABEL = st.text(
    alphabet=st.sampled_from(string.ascii_letters + " -"), min_size=1, max_size=8
)


@st.composite
def _schemas(draw):
    fields = []
    for index in range(draw(st.integers(min_value=0, max_value=5))):
        ftype = draw(st.sampled_from(["string", "integer", "number", "boolean", "date"]))
        codes = {}
        if ftype in ("string", "integer") and draw(st.booleans()):
            codes = {
                str(key): draw(_CODE_LABEL)
                for key in range(draw(st.integers(min_value=1, max_value=3)))
            }
        fields.append(
            FieldDescriptor(
                name=f"{draw(_NAME)}_{index}",
                type=ftype,
                description=draw(_PLAIN_TEXT),
                codes=codes,
            )
        )
    missing = draw(
        st.sets(st.sampled_from(["NA", "-99", "", "NULL", ".", "unknown"]), max_size=3)
    )
    return TableSchema(
        name=draw(_NAME),
        fields=fields,
        path=draw(st.none() | st.just("data/x.csv")),
        missing_values=missing,
        license_id=draw(st.none() | st.just("CC0-1.0")),
    )


@given(_schemas())
@settings(max_examples=100)
def test_schema_json_round_trip_property(schema):
    data = schema_to_json(schema)
    again = schema_from_json(data)
    assert again == schema
    assert schema_to_json(again) == data


# ---------------------------------------------------------------------------
# Class-name normalization


def test_normalize_class_map():
    assert normalize_class("character") == "string"
    assert normalize_class("factor") == "string"
    assert normalize_class("double") == "number"
    assert normalize_class("numeric") == "number"
    assert normalize_class("integer") == "integer"
    assert normalize_class("logical") == "boolean"
    assert normalize_class("date") == "date"
    assert normalize_class("Date") == "date"
    assert normalize_class("  Character ") == "string"
    assert normalize_class("string") == "string"
    assert normalize_class("integer (date)") == "integer"
    assert normalize_class("numeric (seconds)") == "number"
    assert normalize_class("POSIXct") == "POSIXct"
    assert normalize_class("weird (x)") == "weird (x)"


# ---------------------------------------------------------------------------
# Data dictionaries

_DICT_CSV = (
    b"variable,class,description,codes,missing_codes\n"
    b"age,integer,Age in years,,NA\n"
    b"nationality,character,Country of citizenship,1 = Spanish; 2 = French,NA; -99\n"
    b"height,double,Height in cm,,\n"
)


def test_dictionary_import_oracle():
    dictionary = dictionary_from_csv(_DICT_CSV)
    assert dictionary.variable_names() == ["age", "nationality", "height"]
    age, nationality, height = dictionary.entries
    assert age == DictionaryEntry(
        variable_name="age",
        class_name="integer",
        description="Age in years",
        missing_codes=frozenset({"NA"}),
    )
    assert nationality.class_name == "string"  # character normalizes
    assert nationality.codes == {"1": "Spanish", "2": "French"}
    assert nationality.missing_codes == frozenset({"NA", "-99"})
    assert height.class_name == "number"  # double normalizes
    assert height.codes == {} and height.missing_codes == frozenset()


def test_dictionary_columns_match_case_insensitively():
    data = b"Variable,CLASS,Description\nage,integer,Age\n"
    dictionary = dictionary_from_csv(data)
    assert dictionary.entries[0].variable_name == "age"
    assert dictionary.entries[0].description == "Age"


def test_dictionary_extra_columns_ignored():
    data = b"variable,class,notes\nage,integer,whatever\n"
    dictionary = dictionary_from_csv(data)
    assert dictionary.entries[0].codes == {}


def test_dictionary_requires_variable_and_class():
    with pytest.raises(DictionaryError) as excinfo:
        dictionary_from_csv(b"variable,description\nage,Age\n")
    assert "'class'" in str(excinfo.value)
    assert "variable, description" in str(excinfo.value)
    with pytest.raises(DictionaryError):
        dictionary_from_csv(b"class,description\ninteger,Age\n")


def test_dictionary_malformed_codes_cell():
    with pytest.raises(DictionaryError):
        dictionary_from_csv(b"variable,class,codes\nage,integer,1 Spanish\n")


def test_dictionary_duplicate_variable():
    with pytest.raises(DictionaryError):
        dictionary_from_csv(b"variable,class\nage,integer\nage,integer\n")


def test_dictionary_tolerates_front_matter():
    data = b"---\nname: dict\n---\nvariable,class\nage,integer\n"
    assert dictionary_from_csv(data).variable_names() == ["age"]


def test_dictionary_serializes_five_columns_exactly():
    dictionary = DataDictionary(
        entries=[
            DictionaryEntry(
                variable_name="vote",
                class_name="integer",
                label="in-memory only",
                description="Did they vote",
                codes={"1": "yes", "0": "no"},
                missing_codes=frozenset({"NA", "-99"}),
            )
        ]
    )
    assert dictionary_to_csv(dictionary) == (
        b"variable,class,description,codes,missing_codes\n"
        b'vote,integer,Did they vote,"0 = no; 1 = yes","-99; NA"\n'
    )


def test_dictionary_codes_sort_as_strings():
    entry = DictionaryEntry(
        variable_name="v", class_name="integer", codes={"10": "ten", "2": "two"}
    )
    line = dictionary_to_csv(DataDictionary(entries=[entry])).splitlines()[1]
    assert line == b'v,integer,,"10 = ten; 2 = two",'


def test_dictionary_csv_round_trip_drops_label_only():
    original = DataDictionary(
        entries=[
            DictionaryEntry(
                variable_name="age",
                class_name="integer",
                label="Age",
                description="Age in years",
                missing_codes=frozenset({"NA"}),
            ),
            DictionaryEntry(
                variable_name="nationality",
                class_name="string",
                codes={"1": "Spanish", "2": "French"},
            ),
        ]
    )
    again = dictionary_from_csv(dictionary_to_csv(original))
    assert again.entries[0].label == ""
    assert again.entries[0].description == "Age in years"
    assert again.entries[1] == original.entries[1]


def test_dictionary_from_schema_carries_missing_values():
    schema = TableSchema(
        name="t",
        fields=[
            FieldDescriptor("age", "integer"),
            FieldDescriptor("vote", "string", codes={"y": "yes"}),
        ],
        missing_values={"NA", "-99"},
    )
    dictionary = dictionary_from_schema(schema)
    assert all(
        entry.missing_codes == frozenset({"NA", "-99"}) for entry in dictionary.entries
    )
    assert dictionary.entries[1].codes == {"y": "yes"}


def test_dictionary_entry_guards():
    with pytest.raises(DictionaryError):
        DictionaryEntry(variable_name="", class_name="integer")
    with pytest.raises(DictionaryError):
        DictionaryEntry(variable_name="v", class_name=" ")
    with pytest.raises(DictionaryError):
        DictionaryEntry(variable_name="v", class_name="string", codes={"a;b": "x"})
    with pytest.raises(DictionaryError):
        DictionaryEntry(variable_name="v", class_name="string", codes={"a": "x;y"})
    with pytest.raises(DictionaryError):
        DictionaryEntry(variable_name="v", class_name="string", codes={"a=b": "x"})
    with pytest.raises(DictionaryError):
        DictionaryEntry(
            variable_name="v", class_name="string", missing_codes=frozenset({"a;b"})
        )


def test_dictionary_markdown_minimal():
    dictionary = DataDictionary(
        entries=[DictionaryEntry(variable_name="age", class_name="integer", description="Age")]
    )
    assert dictionary_to_markdown(dictionary) == (
        "| Variable | Class | Description |\n"
        "| --- | --- | --- |\n"
        "| age | integer | Age |\n"
    )


def test_dictionary_markdown_full_and_escaped():
    dictionary = DataDictionary(
        entries=[
            DictionaryEntry(
                variable_name="vote",
                class_name="integer",
                description="a|b\nc",
                codes={"0": "no", "1": "yes"},
                missing_codes=frozenset({"NA"}),
            ),
            DictionaryEntry(variable_name="age", class_name="integer"),
        ]
    )
    rendered = dictionary_to_markdown(dictionary)
    assert rendered == (
        "| Variable | Class | Description | Codes | Missing |\n"
        "| --- | --- | --- | --- | --- |\n"
        "| vote | integer | a\\|b c | 0 = no; 1 = yes | NA |\n"
        "| age | integer |  |  |  |\n"
    )


@st.composite
def _dictionaries(draw):
    entries = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        # Labels are stripped on import, so generate them strip-stable.
        codes = {
            str(key): draw(_CODE_LABEL).strip()
            for key in range(draw(st.integers(min_value=0, max_value=3)))
        }
        missing = draw(st.sets(st.sampled_from(["NA", "-99", "NULL", "."]), max_size=2))
        entries.append(
            DictionaryEntry(
                variable_name=f"{draw(_NAME)}_{index}",
                class_name=draw(st.sampled_from(["string", "integer", "number", "boolean", "date"])),
                description=draw(_PLAIN_TEXT).strip(),
                codes=codes,
                missing_codes=frozenset(missing),
            )
        )
    return DataDictionary(entries=entries)


@given(_dictionaries())
@settings(max_examples=100)
def test_dictionary_csv_round_trip_property(dictionary):
    again = dictionary_from_csv(dictionary_to_csv(dictionary))
    assert again == dictionary
