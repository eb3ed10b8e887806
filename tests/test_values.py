"""Every public value type is a named tuple: copies, pickles, checks and defaults.

A checked type's constructor checks what it is given, and ``_replace`` goes
through it; ``_make`` builds a value unchecked.  Copies and pickles are
rebuilt from the fields, whatever the constructor's parameters are.
"""

from __future__ import annotations

import copy
import pickle
from pathlib import Path

import pytest

import tidypack
from tidypack import (
    RULES,
    Author,
    ChecksumManifest,
    ChunkError,
    ChunkPlan,
    ConfigError,
    CsvError,
    CsvTable,
    DataDictionary,
    DataPackage,
    Dataset,
    Dialect,
    DictionaryEntry,
    DictionaryError,
    FieldDescriptor,
    FileKind,
    FileRef,
    Finding,
    FrontMatter,
    FrontMatterError,
    LicenseKind,
    LicenseRef,
    LintConfig,
    LintReport,
    ManifestEntry,
    ManifestError,
    MissingProfile,
    PackagePool,
    ScaffoldError,
    ScaffoldRequest,
    ScanError,
    SchemaError,
    TableSchema,
    ValidationReport,
    VerifyReport,
    Violation,
)

_ENTRY = ManifestEntry("a.csv", "0" * 32)
_REF = FileRef("data/t.csv", 10, FileKind.PLAIN_TEXT_TABLE)
_LICENSE = LicenseRef("LICENSE", 5, FileKind.OTHER, detected=LicenseKind.CC0_1)
_DATASET = Dataset(data_files=[_REF], name="t")
_FIELD = FieldDescriptor("id", "integer", "Row id", {"1": "one"})
_VARIABLE = DictionaryEntry("id", "integer", "Id", "Row id", {"1": "one"}, ["NA"])
_VIOLATION = Violation("type_mismatch", "id", 1, "x")
_FINDING = Finding("R01", "error", "no README", "README.md", {"k": "v"})
_AUTHOR = Author("A Person", "0000-0002-1825-0097")

VALUES = {
    "ManifestEntry": _ENTRY,
    "ChecksumManifest": ChecksumManifest([_ENTRY]),
    "VerifyReport": VerifyReport([], ["gone.csv"], ["new.csv"]),
    "ChunkPlan": ChunkPlan("t.csv", 2, 3, ["t-1.csv", "t-2.csv"]),
    "FileRef": _REF,
    "LicenseRef": _LICENSE,
    "PackagePool": PackagePool(raw_files=[_REF]),
    "Dataset": _DATASET,
    "DataPackage": DataPackage(Path("pkg"), [_DATASET], None, _LICENSE, None, None, unclassified=[_REF]),
    "Dialect": Dialect(";"),
    # Three rows of two columns: a copy that took the fields for the
    # constructor's parameters (``rows`` second) would be refused.
    "CsvTable": CsvTable(["id", "v"], [["1", "a"], ["2", "b"], ["3", "c"]], Dialect(), "t.csv"),
    "FrontMatter": FrontMatter("title: t\n", {"title": "t"}),
    "MissingProfile": MissingProfile(1, frozenset({"NA"}), frozenset({"-99"})),
    "FieldDescriptor": _FIELD,
    "TableSchema": TableSchema("t", [_FIELD], "data/t.csv", ["NA"], "CC0-1.0"),
    "Violation": _VIOLATION,
    "ValidationReport": ValidationReport([_VIOLATION]),
    "DictionaryEntry": _VARIABLE,
    "DataDictionary": DataDictionary([_VARIABLE]),
    "LintRule": RULES[0],
    "Finding": _FINDING,
    "LintReport": LintReport([_FINDING], {"error": 1, "warning": 0, "info": 0}, False),
    "LintConfig": LintConfig({"R02": "off"}),
    "Author": _AUTHOR,
    "ScaffoldRequest": ScaffoldRequest(
        "p", ["t"], authors=[_AUTHOR], doi="10.1234/x", year=2020, seed_tables=[Path("t.csv")]
    ),
}


def test_every_public_value_type_is_covered():
    exported = {name: getattr(tidypack, name) for name in tidypack.__all__}
    tuples = {name for name, value in exported.items() if isinstance(value, type) and issubclass(value, tuple)}
    assert tuples == VALUES.keys()


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copy_is_an_equal_value_of_the_same_type(name, duplicate):
    value = VALUES[name]
    copied = duplicate(value)
    assert type(copied) is type(value)
    assert copied == value and copied._asdict() == value._asdict()


def test_a_value_is_a_tuple_of_its_fields():
    table = VALUES["CsvTable"]
    assert len(table) == 4 and table == (["id", "v"], table.columns, Dialect(","), "t.csv")
    assert list(_REF) == ["data/t.csv", 10, FileKind.PLAIN_TEXT_TABLE]
    assert isinstance(_LICENSE, FileRef) and isinstance(_DATASET, PackagePool)
    assert copy.deepcopy(table).columns[1] == ("a", "b", "c")


#: One field each that the type's constructor refuses, with its error.
BAD_FIELDS = {
    "ManifestEntry": ("md5", "A" * 32, ManifestError),
    "ChecksumManifest": ("entries", [_ENTRY, _ENTRY], ManifestError),
    "ChunkPlan": ("max_rows_per_chunk", 0, ChunkError),
    "FileRef": ("size_bytes", -1, ScanError),
    "LicenseRef": ("path", "../LICENSE", ScanError),
    "Dataset": ("name", "", ScanError),
    "Dialect": ("delimiter", "|", CsvError),
    "CsvTable": ("header", ["id", "id "], CsvError),
    "FrontMatter": ("raw_yaml", "a: 1\n---\n", FrontMatterError),
    "FieldDescriptor": ("type", "float", SchemaError),
    "TableSchema": ("name", " ", SchemaError),
    "DictionaryEntry": ("class_name", "", DictionaryError),
    "DataDictionary": ("entries", [_VARIABLE, _VARIABLE], DictionaryError),
    "LintConfig": ("levels", {"R99": "off"}, ConfigError),
    "Author": ("orcid", "0000", ScaffoldError),
    "ScaffoldRequest": ("year", 20, ScaffoldError),
}


@pytest.mark.parametrize("name", BAD_FIELDS)
def test_replace_checks_and_make_does_not(name):
    value = VALUES[name]
    field, bad, error = BAD_FIELDS[name]
    with pytest.raises(error):
        value._replace(**{field: bad})
    fields = value._asdict()
    fields[field] = bad
    made = type(value)._make(fields.values())
    assert type(made) is type(value) and getattr(made, field) == bad


@pytest.mark.parametrize("name", VALUES)
def test_replace_refuses_a_name_that_is_not_a_field(name):
    # CsvTable's constructor takes ``rows``, but a table's field is
    # ``columns``: replacing ``rows`` must not give back the same table.
    with pytest.raises(ValueError, match="unexpected field names: \\['rows'\\]"):
        VALUES[name]._replace(rows=[["9", "z"]])


def test_replace_normalizes_as_the_constructor_does():
    schema = VALUES["TableSchema"]._replace(missing_values=["", "NA"])
    assert schema.missing_values == frozenset({"", "NA"})
    assert VALUES["DictionaryEntry"]._replace(missing_codes=("-9",)).missing_codes == frozenset({"-9"})


def _containers(value) -> list:
    """The lists and dicts a value holds, in nested tuples too."""
    found = []
    for item in value:
        if isinstance(item, (list, dict)):
            found.append(item)
        elif isinstance(item, tuple):
            found += _containers(item)
    return found


@pytest.mark.parametrize(
    "build",
    [
        PackagePool,
        lambda: Dataset(name="t"),
        lambda: DataPackage(Path("pkg"), [], None, None, None, None),
        lambda: Finding("R01", "error", "detail"),
        LintConfig,
        lambda: FieldDescriptor("id"),
        lambda: DictionaryEntry("id", "string"),
        FrontMatter,
        lambda: ScaffoldRequest("p", ["t"]),
    ],
    ids=[
        "PackagePool", "Dataset", "DataPackage", "Finding", "LintConfig", "FieldDescriptor", "DictionaryEntry",
        "FrontMatter", "ScaffoldRequest",
    ],
)
def test_default_lists_and_dicts_are_new_for_each_value(build):
    first, second = build(), build()
    assert first == second
    shared = {id(c) for c in _containers(first)} & {id(c) for c in _containers(second)}
    assert _containers(first) and not shared
