"""File classification and the package scanner."""

from __future__ import annotations

from pathlib import PurePosixPath

import pytest

from tidypack import (
    DataPackage,
    FileKind,
    FileRef,
    LicenseKind,
    ScanError,
    classify_file,
    iter_files,
    scan_package,
)
from tidypack.licenses import license_text
from tidypack.model import escapes_root, walk_files


def _write(root, rel: str, data: bytes = b"x\n") -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


# ---------------------------------------------------------------------------
# Classification


def test_classify_by_extension():
    cases = {
        "data/x.csv": FileKind.PLAIN_TEXT_TABLE,
        "data/x.TSV": FileKind.PLAIN_TEXT_TABLE,
        "data/x.csvy": FileKind.PLAIN_TEXT_TABLE,
        "data/x.txt": FileKind.PLAIN_TEXT_TABLE,
        "notes.txt": FileKind.DOCUMENT,  # txt is a document at the top level
        "data-raw/x.rds": FileKind.BINARY_DATA,
        "data-raw/x.RData": FileKind.BINARY_DATA,
        "data-raw/x.xlsx": FileKind.BINARY_DATA,
        "data-raw/x.sav": FileKind.BINARY_DATA,
        "data-raw/x.parquet": FileKind.BINARY_DATA,
        "data-raw/x.fits": FileKind.BINARY_DATA,
        "data-raw/01-tidy.R": FileKind.SCRIPT,
        "data-raw/clean.py": FileKind.SCRIPT,
        "data-raw/load.sql": FileKind.SCRIPT,
        "data-raw/model.do": FileKind.SCRIPT,
        "metadata/x.json": FileKind.METADATA,
        "metadata/x.yml": FileKind.METADATA,
        "metadata/x.yaml": FileKind.METADATA,
        "README.md": FileKind.DOCUMENT,
        "report.pdf": FileKind.DOCUMENT,
        "LICENSE": FileKind.OTHER,
        ".gitignore": FileKind.OTHER,
        "data/archive.zip": FileKind.OTHER,
    }
    for path, expected in cases.items():
        assert classify_file(path) is expected, path


def test_classify_agrees_with_pure_posix_path_on_walk_shaped_paths():
    def by_pure_path(path: str) -> FileKind:
        pure = PurePosixPath(path)
        extension, top_level = pure.suffix[1:].lower(), len(pure.parts) == 1
        if extension == "txt":
            return FileKind.DOCUMENT if top_level else FileKind.PLAIN_TEXT_TABLE
        return {"csv": FileKind.PLAIN_TEXT_TABLE, "md": FileKind.DOCUMENT}.get(extension, FileKind.OTHER)

    tokens = ("a", ".", "/", "txt", "TXT", "csv", "Md")
    paths = {""}
    for _ in range(5):
        paths |= {path + token for path in paths for token in tokens}
    # As walk_files gives them: no empty, "." or ".." components.
    walked = [p for p in paths if not {"", ".", ".."} & set(p.split("/"))]
    assert len(walked) == 13213
    for path in walked:
        assert classify_file(path) is by_pure_path(path), path


# ---------------------------------------------------------------------------
# File references


def test_file_ref_rejects_escaping_paths():
    with pytest.raises(ScanError):
        FileRef(path="/etc/passwd", size_bytes=1, kind=FileKind.OTHER)
    with pytest.raises(ScanError):
        FileRef(path="data/../../x", size_bytes=1, kind=FileKind.OTHER)
    with pytest.raises(ScanError):
        FileRef(path="", size_bytes=1, kind=FileKind.OTHER)
    with pytest.raises(ScanError):
        FileRef(path="x.csv", size_bytes=-1, kind=FileKind.PLAIN_TEXT_TABLE)


def test_file_ref_name_and_stem():
    ref = FileRef(path="data/teaching.csv", size_bytes=0, kind=FileKind.PLAIN_TEXT_TABLE)
    assert ref.name == "teaching.csv"
    assert ref.stem == "teaching"


@pytest.mark.parametrize(
    "path", ["a/b", "/a", "//a", "a/../b", "..", "./a", "a//b", ".hidden", "a/b."]
)
def test_escapes_root_matches_pure_posix_path(path):
    pure = PurePosixPath(path)
    assert escapes_root(path) == (pure.is_absolute() or ".." in pure.parts)


# ---------------------------------------------------------------------------
# Directory walking


def test_iter_files_sorted_and_recursive(tmp_path):
    for rel in ("b.txt", "a/z.txt", "a/a.txt", "c/d/e.txt"):
        _write(tmp_path, rel)
    rels = [p.relative_to(tmp_path).as_posix() for p in iter_files(tmp_path)]
    assert rels == ["a/a.txt", "a/z.txt", "b.txt", "c/d/e.txt"]


def test_iter_files_skips_symlinks(tmp_path):
    _write(tmp_path, "real.txt")
    (tmp_path / "link.txt").symlink_to(tmp_path / "real.txt")
    (tmp_path / "dirlink").symlink_to(tmp_path, target_is_directory=True)
    rels = [p.relative_to(tmp_path).as_posix() for p in iter_files(tmp_path)]
    assert rels == ["real.txt"]


def test_walk_files_gives_sorted_paths_and_sizes(tmp_path):
    _write(tmp_path, "b.txt", b"12345")
    _write(tmp_path, "a/z.txt", b"")
    _write(tmp_path, "a-b/c.txt", b"xy")
    (tmp_path / "link.txt").symlink_to(tmp_path / "b.txt")
    # Plain string order, as in a manifest: "a-b/" sorts before "a/".
    assert walk_files(tmp_path) == [("a-b/c.txt", 2), ("a/z.txt", 0), ("b.txt", 5)]
    assert iter_files(tmp_path) == [tmp_path / rel for rel, _ in walk_files(tmp_path)]


# ---------------------------------------------------------------------------
# Scanning


def _single_dataset_tree(root):
    _write(root, "README.md", b"# teaching\n")
    _write(root, "LICENSE", license_text(LicenseKind.CC_BY_4).encode())
    _write(root, "citation", b"cite me\n")
    _write(root, "checksums.txt", b"")
    _write(root, "data/teaching.csv", b"age\n12\n")
    _write(root, "data/teaching-dictionary.csv", b"variable,class\nage,integer\n")
    _write(root, "data-raw/teaching-raw.xlsx", b"\x00")
    _write(root, "data-raw/01-tidy.R", b"# tidy\n")
    _write(root, "metadata/teaching.json", b"{}\n")


def test_scan_single_dataset_package(tmp_path):
    _single_dataset_tree(tmp_path)
    package = scan_package(tmp_path)

    assert package.readme is not None and package.readme.path == "README.md"
    assert package.citation is not None and package.citation.path == "citation"
    assert package.checksums is not None and package.checksums.path == "checksums.txt"
    assert package.license is not None
    assert package.license.detected is LicenseKind.CC_BY_4

    assert [ds.name for ds in package.datasets] == ["teaching"]
    ds = package.dataset("teaching")
    assert [ref.path for ref in ds.data_files] == ["data/teaching.csv"]
    assert [ref.path for ref in ds.dictionary_files] == ["data/teaching-dictionary.csv"]
    assert [ref.path for ref in ds.raw_files] == ["data-raw/teaching-raw.xlsx"]
    # No shared prefix, but a single-dataset package has no ambiguity.
    assert [ref.path for ref in ds.scripts] == ["data-raw/01-tidy.R"]
    assert [ref.path for ref in ds.metadata_files] == ["metadata/teaching.json"]

    assert package.pool == type(package.pool)()
    assert package.unclassified == []
    assert package.all_paths() == sorted(
        [
            "README.md",
            "LICENSE",
            "citation",
            "checksums.txt",
            "data/teaching.csv",
            "data/teaching-dictionary.csv",
            "data-raw/teaching-raw.xlsx",
            "data-raw/01-tidy.R",
            "metadata/teaching.json",
        ]
    )


def test_scan_multi_dataset_attachment(tmp_path):
    _write(tmp_path, "data/alpha.csv", b"a\n1\n")
    _write(tmp_path, "data/beta.csv", b"b\n2\n")
    _write(tmp_path, "data/beta-dictionary.csv", b"variable,class\nb,integer\n")
    _write(tmp_path, "data/notes.rds", b"\x00")
    _write(tmp_path, "data-raw/alpha-source.xlsx", b"\x00")
    _write(tmp_path, "data-raw/beta-clean.R", b"#\n")
    _write(tmp_path, "data-raw/00-shared.R", b"#\n")
    _write(tmp_path, "metadata/alpha.json", b"{}\n")
    _write(tmp_path, "metadata/gamma.json", b"{}\n")
    _write(tmp_path, "metadata/dictionary.csv", b"variable,class\nx,integer\n")
    _write(tmp_path, "metadata/readme.md", b"notes\n")

    package = scan_package(tmp_path)
    assert [ds.name for ds in package.datasets] == ["alpha", "beta"]

    alpha = package.dataset("alpha")
    beta = package.dataset("beta")
    assert [r.path for r in alpha.raw_files] == ["data-raw/alpha-source.xlsx"]
    assert [r.path for r in alpha.metadata_files] == ["metadata/alpha.json"]
    assert [r.path for r in beta.scripts] == ["data-raw/beta-clean.R"]
    assert [r.path for r in beta.dictionary_files] == ["data/beta-dictionary.csv"]

    # With two datasets, unmatched files stay in the package pool.
    assert [r.path for r in package.pool.scripts] == ["data-raw/00-shared.R"]
    assert [r.path for r in package.pool.metadata_files] == ["metadata/gamma.json"]
    assert [r.path for r in package.pool.dictionary_files] == ["metadata/dictionary.csv"]
    assert [r.path for r in package.pool.data_files] == ["data/notes.rds"]

    # A document inside metadata/ follows no layout rule.
    assert [r.path for r in package.unclassified] == ["metadata/readme.md"]
    # README slot is top-level only.
    assert package.readme is None


def test_scan_longest_prefix_wins(tmp_path):
    _write(tmp_path, "data/alpha.csv", b"a\n1\n")
    _write(tmp_path, "data/alpha-v2.csv", b"a\n1\n")
    _write(tmp_path, "data-raw/alpha-v2-raw.csv", b"a\n1\n")
    package = scan_package(tmp_path)
    assert [r.path for r in package.dataset("alpha-v2").raw_files] == [
        "data-raw/alpha-v2-raw.csv"
    ]
    assert package.dataset("alpha").raw_files == []


def test_scan_special_slot_preference(tmp_path):
    _write(tmp_path, "README.md", b"# a\n")
    _write(tmp_path, "readme.txt", b"b\n")
    _write(tmp_path, "license.md", b"no known license\n")
    _write(tmp_path, "LICENSE", b"also not a license\n")
    package = scan_package(tmp_path)
    assert package.readme.path == "README.md"
    # .md beats the bare file; unrecognized content scans as unknown.
    assert package.license.path == "license.md"
    assert package.license.detected is LicenseKind.UNKNOWN
    unclaimed = {r.path for r in package.unclassified}
    assert unclaimed == {"readme.txt", "LICENSE"}


def test_scan_checksums_slot_is_case_insensitive(tmp_path):
    _write(tmp_path, "CHECKSUMS.TXT", b"")
    package = scan_package(tmp_path)
    assert package.checksums is not None
    assert package.checksums.path == "CHECKSUMS.TXT"


def test_scan_detects_each_license(tmp_path):
    for kind in (LicenseKind.CC_BY_4, LicenseKind.CC0_1, LicenseKind.ODBL_1):
        root = tmp_path / kind.value
        _write(root, "LICENSE", license_text(kind).encode())
        assert scan_package(root).license.detected is kind


def test_scan_dictionary_for_unknown_dataset_stays_in_pool(tmp_path):
    _write(tmp_path, "data/alpha.csv", b"a\n1\n")
    _write(tmp_path, "data/beta.csv", b"b\n1\n")
    _write(tmp_path, "data/gamma-dictionary.csv", b"variable,class\nx,integer\n")
    package = scan_package(tmp_path)
    assert [r.path for r in package.pool.dictionary_files] == [
        "data/gamma-dictionary.csv"
    ]


def test_scan_empty_root(tmp_path):
    package = scan_package(tmp_path)
    assert package.datasets == []
    assert package.readme is None
    assert package.all_paths() == []


def test_scan_bad_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        scan_package(tmp_path / "missing")
    target = tmp_path / "afile"
    target.write_bytes(b"x")
    with pytest.raises(NotADirectoryError):
        scan_package(target)


def test_scan_inventories_every_file_exactly_once(tmp_path):
    _single_dataset_tree(tmp_path)
    _write(tmp_path, "extras/misc.bin", b"\x00")
    _write(tmp_path, ".gitignore", b"*.tmp\n")
    package = scan_package(tmp_path)
    on_disk = sorted(
        p.relative_to(tmp_path).as_posix() for p in iter_files(tmp_path)
    )
    assert package.all_paths() == on_disk
    # And no path is double-counted.
    assert len(package.all_paths()) == len(set(package.all_paths()))


def test_dataset_lookup_raises_for_unknown_name(tmp_path):
    _write(tmp_path, "data/alpha.csv", b"a\n1\n")
    package = scan_package(tmp_path)
    with pytest.raises(KeyError):
        package.dataset("missing")
    assert isinstance(package, DataPackage)
