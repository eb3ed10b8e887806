"""Each command imports only the code it runs, and the package namespace is lazy.

Import sets are read in fresh interpreters: the test process has loaded
every module long before these tests run.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tidypack
from tidypack.cli import EXIT_OK, main

#: The public names of the package, by home module, as they were when
#: ``tidypack/__init__.py`` imported every module eagerly.
PUBLIC = {
    "errors": [
        "ChunkError", "ConfigError", "CsvError", "DictionaryError", "EncodingError", "FrontMatterError",
        "ManifestError", "PackError", "ScaffoldError", "ScanError", "SchemaError", "ToolError",
    ],
    "integrity": [
        "ChecksumManifest", "ChunkPlan", "ManifestEntry", "VerifyReport", "chunk_table", "compute_manifest",
        "md5_hex", "pack", "parse_manifest", "serialize_manifest", "unchunk", "verify_manifest",
    ],
    "licenses": ["LicenseKind", "SPDX_IDS", "detect_license", "license_text"],
    "lint": [
        "Finding", "LintConfig", "LintReport", "LintRule", "RULES", "lint_package", "load_config",
        "parse_config", "report_to_json", "report_to_text",
    ],
    "model": [
        "DataPackage", "Dataset", "FileKind", "FileRef", "LicenseRef", "PackagePool",
        "classify_file", "iter_files", "scan_package",
    ],
    "scaffold": ["Author", "ScaffoldRequest", "scaffold"],
    "schema": [
        "DataDictionary", "DictionaryEntry", "FieldDescriptor", "TableSchema", "ValidationReport", "Violation",
        "dictionary_from_csv", "dictionary_from_schema", "dictionary_from_table", "dictionary_to_csv",
        "dictionary_to_markdown", "infer_schema", "normalize_class",
        "schema_from_front_matter", "schema_from_json", "schema_to_json", "validate_table",
    ],
    "tabular": [
        "CsvTable", "Dialect", "FrontMatter", "MissingProfile", "detect_dialect", "detect_missing_tokens",
        "is_boolean_token", "is_date_token", "is_integer_token", "is_number_token", "parse_csvy",
        "parse_table", "read_csvy", "serialize_csvy", "serialize_table",
    ],
}


def _child(script: str, *argv: str, options: tuple[str, ...] = ()) -> str:
    """Run ``script`` in a fresh interpreter started with ``options`` and
    return the last line it prints."""
    child = subprocess.run(
        [sys.executable, *options, "-c", script, *argv], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1]


# ---------------------------------------------------------------------------
# Import set of each command

_COMMAND = """
import json, sys
from tidypack import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print()
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("tidypack.") or m in ("yaml", "csv", "_csv", "hashlib"))]))
"""

#: What every command loads: the CLI and its error and license-choice tables.
CLI = {"tidypack.cli", "tidypack.errors", "tidypack.licenses"}
#: The walk and the checksum code: ``checksum``, ``verify``, ``chunk``,
#: ``unchunk`` and a plain ``pack`` load no package scanner.
FIXITY = {"tidypack.integrity"}
#: The package scanner, which reads the fixity code's walk.
TREE = FIXITY | {"tidypack.model"}
#: Loaded only by code that hashes: ``chunk`` and ``unchunk`` load no OpenSSL.
HASH = {"hashlib"}
TABLE = {"tidypack.tabular"}
SCHEMA = TABLE | {"tidypack.schema"}
LINT = TREE | SCHEMA | {"tidypack.lint"}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """A package seeded with a plain CSV, three csvy tables with front
    matter (one with a schema block, one with quoted cells), and the chunks
    of a copy of the quoted one."""
    root = tmp_path_factory.mktemp("imports")
    plain = root / "plain.csv"
    plain.write_bytes(b"id,score\n1,2.5\n2,3.5\n")
    csvy = root / "fronted.csvy"
    csvy.write_bytes(b"---\nname: fronted\n---\nid,score\n1,2.5\n2,3.5\n")
    nameless = root / "nameless.csvy"
    nameless.write_bytes(b"---\ntitle: t\nschema:\n  fields:\n    - name: id\n---\nid\n1\n2\n")
    quoted = root / "quoted.csvy"
    quoted.write_bytes(b'---\nname: quoted\n---\nid,note\r\n1,"a, b"\r\n2,"say ""hi"""\r\n')
    # Chunks that chunk wrote from the quoted csvy: canonical text, copied by unchunk.
    (root / "split.csvy").write_bytes(quoted.read_bytes())
    assert main(["chunk", str(root / "split.csvy"), "--max-rows", "1", "--format", "json"]) == EXIT_OK
    (root / "piece-1.csv").write_bytes(b"id,score\n1,2.5\n")
    (root / "piece-2.csv").write_bytes(b"id,score\n2,3.5\n")
    assert main(["init", str(root / "pkg"), "--dataset", "obs", "--seed", str(plain), "--format", "json"]) == EXIT_OK
    return root


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--help"], CLI),
        (["checksum", "{root}/pkg"], CLI | FIXITY | HASH),
        (["checksum", "{root}/pkg", "--format", "json"], CLI | FIXITY | HASH),
        (["verify", "{root}/pkg"], CLI | FIXITY | HASH),
        (["chunk", "{root}/plain.csv", "--max-rows", "1"], CLI | FIXITY | TABLE),
        (["unchunk", "{root}/piece-1.csv", "{root}/piece-2.csv", "--output", "{root}/whole.csv"], CLI | FIXITY | TABLE),
        (["lint", "{root}/pkg"], CLI | LINT | HASH),
        (["pack", "{root}/pkg", "--output", "{root}/plain.tar"], CLI | FIXITY | HASH),
        (["pack", "{root}/pkg", "--output", "{root}/pkg.tar", "--require-lint"], CLI | LINT | HASH),
        (["schema", "infer", "{root}/plain.csv"], CLI | SCHEMA),
        (["schema", "validate", "{root}/plain.csv", "{root}/pkg/metadata/obs.json"], CLI | SCHEMA),
        (["init", "{root}/fresh", "--dataset", "obs"], CLI | TREE | SCHEMA | HASH | {"tidypack.scaffold"}),
        (["chunk", "{root}/fronted.csvy", "--max-rows", "1"], CLI | FIXITY | TABLE | {"yaml"}),
        # A schema block in the front matter is not read by a command that does not use it.
        (["chunk", "{root}/nameless.csvy", "--max-rows", "1"], CLI | FIXITY | TABLE | {"yaml"}),
        # Only quoted text is read with the stdlib csv reader.
        (["chunk", "{root}/quoted.csvy", "--max-rows", "1"], CLI | FIXITY | TABLE | {"yaml", "csv", "_csv"}),
        # What chunk wrote is canonical, so unchunk copies it and reads no cell.
        (
            ["unchunk", "{root}/split-1.csvy", "{root}/split-2.csvy", "--output", "{root}/joined.csvy"],
            CLI | FIXITY | TABLE | {"yaml"},
        ),
    ],
    ids=[
        "help", "checksum", "checksum-json", "verify", "chunk-plain", "unchunk", "lint", "pack", "pack-require-lint",
        "schema-infer", "schema-validate", "init", "chunk-csvy", "chunk-csvy-schema", "chunk-quoted-csvy",
        "unchunk-quoted-csvy",
    ],
)
def test_each_command_imports_only_what_it_runs(tables, argv, expected):
    code, modules = json.loads(_child(_COMMAND, *(arg.format(root=tables) for arg in argv)))
    assert code == EXIT_OK
    assert set(modules) == expected


#: Machinery that ``--help`` and a text-mode usage error never run: the
#: dataclass and JSON libraries, the license-text reader and OpenSSL.
NOT_AT_START = ("dataclasses", "inspect", "json", "typing", "importlib.resources", "hashlib")

# Its own script: ``_COMMAND`` imports ``json`` itself.
_START = f"""
import sys
from tidypack import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print()
print(code, [m for m in {NOT_AT_START!r} if m in sys.modules])
"""


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2)], ids=["help", "usage-error"])
def test_start_up_loads_no_machinery_it_does_not_run(monkeypatch, argv, code):
    # ``-S``: site hooks may import typing or importlib.resources themselves.
    monkeypatch.setenv("PYTHONPATH", str(Path(tidypack.__file__).resolve().parents[1]))
    assert _child(_START, *argv, options=("-S",)) == f"{code} []"


@pytest.mark.parametrize(
    "argv",
    [["checksum", "{root}/pkg"], ["verify", "{root}/pkg"], ["pack", "{root}/pkg", "--output", "{root}/bare.tar"]],
    ids=["checksum", "verify", "pack"],
)
def test_fixity_commands_load_no_dataclass_machinery(tables, monkeypatch, argv):
    # The manifest types are named tuples: no dataclasses, and no inspect under it.
    monkeypatch.setenv("PYTHONPATH", str(Path(tidypack.__file__).resolve().parents[1]))
    code, _, loaded = _child(_START, *(arg.format(root=tables) for arg in argv), options=("-S",)).partition(" ")
    assert code == "0" and "hashlib" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_a_json_usage_error_in_a_fresh_interpreter_is_one_document():
    child = subprocess.run(
        [sys.executable, "-m", "tidypack", "--format", "json", "bogus"], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 2
    assert child.stderr == ""
    error = json.loads(child.stdout)["error"]  # a second document would be extra data
    assert error["code"] == 2
    assert error["message"].startswith("argument command: invalid choice: ")


def test_the_parser_names_the_manifest_the_scanner_claims():
    from tidypack import cli, integrity, model

    assert cli._CHECKSUMS_NAME == integrity.CHECKSUMS_NAME == model.CHECKSUMS_NAME


# ---------------------------------------------------------------------------
# The lazy namespace


def test_public_names_are_unchanged():
    assert sorted(tidypack.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    assert len(tidypack.__all__) == 82


def test_every_name_the_bench_tracer_wraps_is_callable():
    # The traced bench run wraps these names in their home modules; a name
    # deleted or moved would break it, and that run is not part of the tests.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"tidypack.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"tidypack.{layer}.{name}"


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_each_name_is_its_home_modules_object(home):
    module = importlib.import_module(f"tidypack.{home}")
    for name in PUBLIC[home]:
        assert getattr(tidypack, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from tidypack import *", namespace)
    for name in tidypack.__all__:
        assert namespace[name] is getattr(tidypack, name), name
    assert set(tidypack.__all__) <= set(dir(tidypack))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        tidypack.nope  # noqa: B018 - the access is the test


def test_bare_import_loads_no_submodule():
    script = "import sys, tidypack; print(sorted(m for m in sys.modules if m.startswith('tidypack.') or m == 'yaml'))"
    assert _child(script) == "[]"
    # A submodule is still reachable as an attribute, as when every module loaded eagerly.
    assert _child("import tidypack; print(tidypack.lint.__name__)") == "tidypack.lint"


_SCAFFOLD = """
import sys
import tidypack
from tidypack import cli
if sys.argv[1] == "import":
    import tidypack.scaffold
else:
    assert cli.main(["init", sys.argv[2], "--dataset", "obs", "--format", "json"]) == 0
print()
print(tidypack.scaffold is sys.modules["tidypack.scaffold"].scaffold)
"""


@pytest.mark.parametrize("first_load", ["import", "init"])
def test_scaffold_stays_the_function_after_its_module_loads(tmp_path, first_load):
    assert _child(_SCAFFOLD, first_load, str(tmp_path / "pkg")) == "True"


# ---------------------------------------------------------------------------
# Front matter on the deferred YAML path

_FRONT_MATTER = """
import json, sys
from tidypack.errors import FrontMatterError
from tidypack.tabular import parse_csvy
loaded_before = "yaml" in sys.modules
front, _ = parse_csvy(b"---\\ndate: 2020-01-01\\n---\\nid\\n1\\n")
try:
    parse_csvy(b"---\\nx: !!python/object:os.getcwd {}\\n---\\nid\\n1\\n")
    refused = None
except FrontMatterError as exc:
    refused = str(exc)
print(json.dumps([loaded_before, front.mapping, refused]))
"""


def test_first_front_matter_parse_loads_the_restricted_loader():
    loaded_before, mapping, refused = json.loads(_child(_FRONT_MATTER))
    assert loaded_before is False
    assert mapping == {"date": "2020-01-01"}
    assert refused == "YAML tag is not supported in front matter: tag:yaml.org,2002:python/object:os.getcwd"
