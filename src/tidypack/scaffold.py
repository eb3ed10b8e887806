"""Create new data packages that pass their own lint.

Scaffolding is planned entirely in memory (every file as bytes), then
published all or nothing, so a failing precondition or write leaves the
destination as it was, and the same request always produces byte-identical
trees.  The generated ``checksums.txt`` is computed from the planned bytes,
covering every file except itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ScaffoldError, SchemaError, ToolError
from .integrity import ChecksumManifest, ManifestEntry, md5_hex, publish, serialize_manifest
from .licenses import SPDX_IDS, LicenseKind, license_text
from .model import (
    CHECKSUMS_NAME,
    DOI_PATTERN,
    DataPackage,
    FileKind,
    classify_file,
    is_dictionary_stem,
    scan_package,
)
from .schema import (
    DataDictionary,
    dictionary_from_schema,
    dictionary_to_csv,
    dictionary_to_markdown,
    infer_schema,
    schema_to_json,
)
from .tabular import parse_csvy

_SAFE_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
_ORCID_RE = re.compile(r"[0-9]{4}-[0-9]{4}-[0-9]{4}-[0-9]{3}[0-9X]")
_DOI_RE = re.compile(DOI_PATTERN)


@dataclass(frozen=True)
class Author:
    """A contributor: a display name and an optional ORCID iD."""

    name: str
    orcid: str | None = None

    def __post_init__(self):
        if not self.name or not self.name.strip() or "\n" in self.name:
            raise ScaffoldError(f"author name must be a non-empty single line: {self.name!r}")
        if self.orcid is not None and not _ORCID_RE.fullmatch(self.orcid):
            raise ScaffoldError(
                f"ORCID must look like 0000-0000-0000-0000 (last digit may be X): {self.orcid!r}"
            )


@dataclass(frozen=True)
class ScaffoldRequest:
    """Everything needed to lay out a new package.

    ``seed_tables`` pairs with the first ``len(seed_tables)`` entries of
    ``dataset_names``; each seed file is copied verbatim into ``data/``
    (keeping its suffix where lint reads that as a table's, else as
    ``.csv``) and its schema inferred.  A dataset without a seed is seeded
    the same way with a one-column placeholder table, ``value``.  ``year``
    feeds the citation; nothing reads the clock, so scaffolding is
    reproducible.
    """

    package_name: str
    dataset_names: list[str]
    license: LicenseKind = LicenseKind.CC0_1
    authors: list[Author] = field(default_factory=list)
    doi: str | None = None
    year: int | None = None
    seed_tables: list[Path] = field(default_factory=list)

    def __post_init__(self):
        if not _SAFE_NAME_RE.fullmatch(self.package_name):
            raise ScaffoldError(
                f"package name must be filesystem-safe (letters, digits, . _ -): {self.package_name!r}"
            )
        if not self.dataset_names:
            raise ScaffoldError("at least one dataset name is required")
        seen: set[str] = set()
        for name in self.dataset_names:
            if not _SAFE_NAME_RE.fullmatch(name):
                raise ScaffoldError(
                    f"dataset name must be filesystem-safe (letters, digits, . _ -): {name!r}"
                )
            if is_dictionary_stem(name):
                raise ScaffoldError(
                    f"dataset name {name!r} would collide with dictionary file naming"
                )
            if name in seen:
                raise ScaffoldError(f"duplicate dataset name {name!r}")
            seen.add(name)
        if self.license not in SPDX_IDS:
            options = ", ".join(sorted(kind.value for kind in SPDX_IDS))
            raise ScaffoldError(f"unsupported license; choose one of: {options}")
        if self.doi is not None and not _DOI_RE.fullmatch(self.doi):
            raise ScaffoldError(f"DOI must look like 10.NNNN/suffix: {self.doi!r}")
        if self.year is not None and not 1000 <= self.year <= 9999:
            raise ScaffoldError(f"year must be four digits: {self.year!r}")
        if len(self.seed_tables) > len(self.dataset_names):
            raise ScaffoldError(
                f"{len(self.seed_tables)} seed tables for {len(self.dataset_names)} datasets"
            )


_PLACEHOLDERS = {
    "when": "_Describe the period the observations cover (use YYYY-MM-DD dates)._",
    "where": "_Describe the location or source the observations come from._",
    "why": "_State the purpose this data was collected for._",
    "how": "_Describe the method of collection; the scripts under `data-raw/` "
    "rebuild `data/` from the raw inputs._",
}


def _render_authors(authors: list[Author]) -> str:
    if not authors:
        return "_List the people or organizations that collected the data._"
    lines = []
    for author in authors:
        if author.orcid:
            lines.append(f"- {author.name} (ORCID: {author.orcid})")
        else:
            lines.append(f"- {author.name}")
    return "\n".join(lines)


def _render_readme(
    request: ScaffoldRequest,
    data_filenames: dict[str, str],
    dictionaries: dict[str, DataDictionary],
) -> str:
    names = sorted(request.dataset_names)
    plural = "datasets" if len(names) != 1 else "dataset"
    parts: list[str] = []
    parts.append(f"# {request.package_name}")
    parts.append("")
    parts.append(
        f"A data package with {len(names)} {plural}: "
        + ", ".join(f"`{name}`" for name in names)
        + "."
    )
    parts.append("")
    parts.append("## Who collected the data?")
    parts.append("")
    parts.append(_render_authors(request.authors))
    parts.append("")
    parts.append("<!-- keywords: add searchable keywords here -->")
    parts.append("<!-- funding: acknowledge funders here -->")
    parts.append("")
    parts.append("## What is the data?")
    for name in names:
        parts.append("")
        parts.append(f"### {name}")
        parts.append("")
        parts.append(f"- table: `data/{data_filenames[name]}`")
        parts.append(f"- schema: `metadata/{name}.json`")
        parts.append(f"- dictionary: `metadata/{name}-dictionary.csv`")
        parts.append("")
        parts.append(dictionary_to_markdown(dictionaries[name]).rstrip("\n"))
    for question, placeholder in _PLACEHOLDERS.items():
        parts.append("")
        parts.append(f"## {question.capitalize()} was the data collected?")
        parts.append("")
        parts.append(placeholder)
    parts.append("")
    parts.append("## Checking your copy")
    parts.append("")
    parts.append(
        "`checksums.txt` lists an MD5 digest for every file in this package, "
        "so a recipient can confirm nothing was corrupted or lost in transit."
    )
    parts.append("")
    parts.append("## License")
    parts.append("")
    parts.append(f"Released under {SPDX_IDS[request.license]}; see [LICENSE](LICENSE).")
    if request.doi:
        parts.append("")
        parts.append("## Citing this data")
        parts.append("")
        parts.append(
            f"Please cite DOI [{request.doi}](https://doi.org/{request.doi}); "
            "a BibTeX entry lives in [citation](citation)."
        )
    parts.append("")
    return "\n".join(parts)


def _render_citation(request: ScaffoldRequest) -> str:
    assert request.doi is not None
    lines = [f"@misc{{{request.package_name},"]
    if request.authors:
        joined = " and ".join(author.name for author in request.authors)
        lines.append(f"  author = {{{joined}}},")
    lines.append(f"  title = {{{request.package_name}}},")
    if request.year is not None:
        lines.append(f"  year = {{{request.year}}},")
    lines.append(f"  doi = {{{request.doi}}},")
    lines.append(f"  url = {{https://doi.org/{request.doi}}},")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_cleaning_stub(dataset: str, filename: str) -> str:
    return (
        f'"""Rebuild data/{filename} from the raw inputs for {dataset!r}.\n'
        '\n'
        "Drop the raw exports next to this script, rewrite the steps below,\n"
        "and refresh checksums.txt when the output changes.\n"
        '"""\n'
        "\n"
        f"RAW_INPUTS: list[str] = []  # e.g. [\"data-raw/{dataset}-export.xlsx\"]\n"
        "\n"
        "\n"
        "def main() -> None:\n"
        f"    raise NotImplementedError(\"document how data/{filename} is produced\")\n"
        "\n"
        "\n"
        'if __name__ == "__main__":\n'
        "    main()\n"
    )


def scaffold(request: ScaffoldRequest, destination: str | Path) -> DataPackage:
    """Write a complete package skeleton and return its scanned model.

    The destination must not exist or must be an empty directory; anything
    else raises ``ScaffoldError`` before a single byte is written, and a
    failed write leaves the destination as it was.  The result always
    carries a README, LICENSE, per-dataset table, schema, dictionary, a
    cleaning-script stub, a checksum manifest, and (when a DOI is given) a
    citation file, and lints with zero errors.
    """
    destination = Path(destination)
    not_empty = f"destination directory is not empty: {destination}"
    try:
        if any(destination.iterdir()):
            raise ScaffoldError(not_empty)
    except FileNotFoundError:
        pass
    except NotADirectoryError:
        raise ScaffoldError(f"destination exists and is not a directory: {destination}") from None

    planned: dict[str, bytes] = {}
    dictionaries: dict[str, DataDictionary] = {}
    data_filenames: dict[str, str] = {}

    for index, name in enumerate(request.dataset_names):
        seed = Path(request.seed_tables[index]) if index < len(request.seed_tables) else None
        raw, suffix = (seed.read_bytes(), seed.suffix) if seed is not None else (b"value\n", ".csv")
        try:
            _, table = parse_csvy(raw)
        except ToolError as exc:
            raise ScaffoldError(f"seed table {seed} cannot be parsed: {exc}") from None
        filename = f"{name}{suffix}"
        if classify_file(f"data/{filename}") is not FileKind.PLAIN_TEXT_TABLE:
            filename = f"{name}.csv"
        planned[f"data/{filename}"] = raw
        try:
            schema = infer_schema(table, name=name, path=f"data/{filename}")
        except SchemaError as exc:
            raise ScaffoldError(f"seed table {seed}: {exc}") from None
        schema = replace(schema, license_id=SPDX_IDS[request.license])
        dictionary = dictionary_from_schema(schema)
        planned[f"metadata/{name}.json"] = schema_to_json(schema)
        planned[f"metadata/{name}-dictionary.csv"] = dictionary_to_csv(dictionary)
        planned[f"data-raw/{name}-cleaning.py"] = _render_cleaning_stub(
            name, filename
        ).encode("utf-8")
        dictionaries[name] = dictionary
        data_filenames[name] = filename

    planned["README.md"] = _render_readme(request, data_filenames, dictionaries).encode("utf-8")
    planned["LICENSE"] = license_text(request.license).encode("utf-8")
    if request.doi is not None:
        planned["citation"] = _render_citation(request).encode("utf-8")

    manifest = ChecksumManifest(
        entries=[
            ManifestEntry(path=rel, md5=md5_hex(data)) for rel, data in planned.items()
        ]
    )
    planned[CHECKSUMS_NAME] = serialize_manifest(manifest)

    try:
        publish({destination / rel: planned[rel] for rel in sorted(planned)}, parents=True)
    except FileExistsError:
        raise ScaffoldError(not_empty) from None

    return scan_package(destination)
