"""Tools for tidy research data packages.

Scaffold a package skeleton, describe tables with schemas and data
dictionaries, lint the result against conformance rules, checksum and
verify every file, split oversized tables into chunks, and pack the whole
thing into a byte-reproducible archive.

The namespace is lazy (PEP 562): ``import tidypack`` loads no submodule,
and each public name imports its home module on first access.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

#: Each home module and the public names it exports.
_EXPORTS = {
    "errors": (
        "ChunkError", "ConfigError", "CsvError", "DictionaryError", "EncodingError", "FrontMatterError",
        "ManifestError", "PackError", "ScaffoldError", "ScanError", "SchemaError", "ToolError",
    ),
    "integrity": (
        "ChecksumManifest", "ChunkPlan", "ManifestEntry", "VerifyReport", "chunk_table", "compute_manifest",
        "md5_hex", "pack", "parse_manifest", "serialize_manifest", "unchunk", "verify_manifest",
    ),
    "licenses": ("LicenseKind", "SPDX_IDS", "detect_license", "license_text"),
    "lint": (
        "Finding", "LintConfig", "LintReport", "LintRule", "RULES", "lint_package", "load_config",
        "parse_config", "report_to_json", "report_to_text",
    ),
    "model": (
        "DataPackage", "Dataset", "FileKind", "FileRef", "LicenseRef", "PackagePool",
        "classify_file", "iter_files", "scan_package",
    ),
    "scaffold": ("Author", "ScaffoldRequest", "scaffold"),
    "schema": (
        "DataDictionary", "DictionaryEntry", "FieldDescriptor", "TableSchema", "ValidationReport", "Violation",
        "dictionary_from_csv", "dictionary_from_schema", "dictionary_from_table", "dictionary_to_csv",
        "dictionary_to_markdown", "infer_schema", "normalize_class",
        "schema_from_front_matter", "schema_from_json", "schema_to_json", "validate_table",
    ),
    "tabular": (
        "CsvTable", "Dialect", "FrontMatter", "MissingProfile", "detect_dialect", "detect_missing_tokens",
        "is_boolean_token", "is_date_token", "is_integer_token", "is_number_token", "parse_csvy",
        "parse_table", "read_csvy", "serialize_csvy", "serialize_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        if name in _EXPORTS:  # a submodule, such as ``tidypack.lint``
            return import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Namespace(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on the package, but the public name
        # ``scaffold`` is the function, not the module that defines it.
        if not (name == "scaffold" and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
