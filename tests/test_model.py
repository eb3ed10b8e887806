"""File classification and the package scanner."""

from __future__ import annotations

import hashlib
import tempfile
import tracemalloc
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tidypack import (
    ChecksumManifest,
    DataPackage,
    FileKind,
    FileRef,
    LicenseKind,
    LicenseRef,
    ManifestEntry,
    PackagePool,
    ScanError,
    classify_file,
    compute_manifest,
    detect_license,
    iter_files,
    parse_manifest,
    scan_package,
    serialize_manifest,
)
from tidypack.licenses import license_text
from tidypack.model import (
    CHECKSUMS_NAME,
    DATA_DIR,
    METADATA_DIR,
    RAW_DIR,
    _dictionary_prefix,
    _special_rank,
    escapes_root,
    is_dictionary_stem,
    walk_files,
)


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


def test_scan_checksums_slot_is_exactly_checksums_txt(tmp_path):
    # The manifest is the file verify and pack read; another case is a stray file.
    _write(tmp_path, "CHECKSUMS.TXT", b"")
    package = scan_package(tmp_path)
    assert package.checksums is None
    assert [ref.path for ref in package.unclassified] == ["CHECKSUMS.TXT"]

    _write(tmp_path, "checksums.txt", b"")
    package = scan_package(tmp_path)
    assert package.checksums.path == "checksums.txt"
    assert [ref.path for ref in package.unclassified] == ["CHECKSUMS.TXT"]


def test_scan_detects_each_license(tmp_path):
    for kind in (LicenseKind.CC_BY_4, LicenseKind.CC0_1, LicenseKind.ODBL_1):
        root = tmp_path / kind.value
        _write(root, "LICENSE", license_text(kind).encode())
        assert scan_package(root).license.detected is kind


def test_a_huge_license_is_recognized_from_its_first_mebibyte(tmp_path):
    _write(tmp_path, "LICENSE", license_text(LicenseKind.CC0_1).encode() + b"\n" * (16 << 20))
    tracemalloc.start()
    try:
        package = scan_package(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert package.license.detected is LicenseKind.CC0_1
    assert peak < 8 << 20, f"peak {peak / (1 << 20):.1f} MiB"


def test_a_license_title_after_the_first_mebibyte_is_not_recognized(tmp_path):
    _write(tmp_path, "LICENSE", b"\n" * (1 << 20) + license_text(LicenseKind.CC0_1).encode())
    assert scan_package(tmp_path).license.detected is LicenseKind.UNKNOWN


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


def test_documentation_slots_are_scanned_file_refs(tmp_path):
    _single_dataset_tree(tmp_path)
    package = scan_package(tmp_path)
    slots = (package.readme, package.license, package.citation, package.checksums)
    assert None not in slots
    assert isinstance(package.license, LicenseRef)
    refs = package.all_refs()
    for slot in slots:
        assert isinstance(slot, FileRef)
        assert slot.kind is classify_file(slot.path), slot.path
        assert sum(ref is slot for ref in refs) == 1, slot.path


# ---------------------------------------------------------------------------
# The scanner against the eight-pass reference


def _paths(owner: PackagePool) -> dict[str, list[str]]:
    return {
        bucket: [ref.path for ref in getattr(owner, bucket)] for bucket in PackagePool._fields
    }


def _summary(package: DataPackage) -> dict:
    """What a scan found, as plain values."""
    license_ref = package.license
    return {
        "readme": package.readme and package.readme.path,
        "license": license_ref and (license_ref.path, license_ref.detected),
        "citation": package.citation and package.citation.path,
        "checksums": package.checksums and package.checksums.path,
        "datasets": [(ds.name, _paths(ds)) for ds in package.datasets],
        "pool": _paths(package.pool),
        "unclassified": [ref.path for ref in package.unclassified],
    }


def _reference_scan(root: Path) -> dict:
    """``scan_package`` as it was before the one-pass grouping, as a summary.

    Each slot search, each layout directory and the unclaimed filter make
    their own pass over every path.
    """
    refs = {
        rel: FileRef(path=rel, size_bytes=size, kind=classify_file(rel))
        for rel, size in walk_files(root)
    }
    claimed: set[str] = set()

    def claim(rel: str) -> FileRef:
        claimed.add(rel)
        return refs[rel]

    special: dict[str, str] = {}
    for slot in ("readme", "license", "citation"):
        candidates = [
            rel
            for rel in refs
            if "/" not in rel and PurePosixPath(rel).stem.casefold() == slot
        ]
        if candidates:
            special[slot] = min(candidates, key=_special_rank)
    for rel in special.values():
        claim(rel)
    license_ref = None
    if "license" in special:
        text = (root / special["license"]).read_bytes().decode("utf-8", errors="replace")
        license_ref = (special["license"], detect_license(text))
    checksums = CHECKSUMS_NAME if CHECKSUMS_NAME in refs else None
    if checksums is not None:
        claim(checksums)

    def direct_children(directory: str) -> list[FileRef]:
        prefix = directory + "/"
        return [
            ref
            for rel, ref in refs.items()
            if rel.startswith(prefix) and "/" not in rel[len(prefix):]
        ]

    data_children = direct_children(DATA_DIR)
    dataset_names = sorted(
        {
            ref.stem
            for ref in data_children
            if ref.kind is FileKind.PLAIN_TEXT_TABLE and not is_dictionary_stem(ref.stem)
        }
    )
    datasets = {name: PackagePool() for name in dataset_names}
    pool = PackagePool()

    def attach(ref: FileRef, bucket: str, owner: PackagePool) -> None:
        getattr(owner, bucket).append(claim(ref.path))

    def by_prefix(ref: FileRef) -> PackagePool:
        matches = [name for name in dataset_names if ref.stem.startswith(name)]
        return datasets[max(matches, key=len)] if matches else pool

    def attach_dictionary(ref: FileRef) -> None:
        attach(ref, "dictionary_files", datasets.get(_dictionary_prefix(ref.stem), pool))

    for ref in data_children:
        if ref.kind is FileKind.PLAIN_TEXT_TABLE and is_dictionary_stem(ref.stem):
            attach_dictionary(ref)
        elif ref.kind is FileKind.PLAIN_TEXT_TABLE:
            attach(ref, "data_files", datasets[ref.stem])
        else:
            attach(ref, "data_files", pool)
    for ref in direct_children(RAW_DIR):
        attach(ref, "scripts" if ref.kind is FileKind.SCRIPT else "raw_files", by_prefix(ref))
    for ref in direct_children(METADATA_DIR):
        if ref.kind is FileKind.PLAIN_TEXT_TABLE and is_dictionary_stem(ref.stem):
            attach_dictionary(ref)
        elif ref.kind is FileKind.METADATA:
            attach(ref, "metadata_files", by_prefix(ref))

    if len(datasets) == 1:
        (only,) = datasets.values()
        for bucket in PackagePool._fields:
            if bucket != "data_files":
                getattr(only, bucket).extend(getattr(pool, bucket))
        pool = PackagePool(data_files=pool.data_files)

    return {
        "readme": special.get("readme"),
        "license": license_ref,
        "citation": special.get("citation"),
        "checksums": checksums,
        "datasets": [(name, _paths(datasets[name])) for name in dataset_names],
        "pool": _paths(pool),
        "unclassified": [rel for rel in refs if rel not in claimed],
    }


_TOP_LEVEL = st.builds(
    str.__add__,
    st.sampled_from(
        ["README", "readme", "ReadMe", "LICENSE", "license", "Licence", "citation", "CITATION",
         "checksums", "CHECKSUMS", "notes"]
    ),
    st.sampled_from(["", ".md", ".MD", ".txt", ".TXT", ".rst", ".cff", ".md.bak", "."]),
)
_STEMS = st.sampled_from(
    ["alpha", "alpha-v2", "alpha-v2-raw", "alpha-dictionary", "alpha-v2-dictionary", "beta", "dictionary",
     "gamma-dictionary", "00-shared", "readme"]
)
_SUFFIXES = st.sampled_from([".csv", ".TSV", ".txt", ".csvy", ".rds", ".R", ".py", ".json", ".yml", ".md", ""])
#: Direct children of the layout directories, which the layout rules sort.
_IN_LAYOUT = st.builds(
    "{}/{}{}".format, st.sampled_from([DATA_DIR, RAW_DIR, METADATA_DIR]), _STEMS, _SUFFIXES
)
#: Paths that follow no layout rule: nested, or under another directory.
_ELSEWHERE = st.builds(
    "{}/{}{}".format,
    st.sampled_from(
        [f"{DATA_DIR}/nested", f"{RAW_DIR}/nested/deeper", f"{METADATA_DIR}/nested", "Data", "extras"]
    ),
    _STEMS,
    _SUFFIXES,
)
_CONTENTS = st.sampled_from(
    [b"", b"x\n", license_text(LicenseKind.CC_BY_4).encode(), license_text(LicenseKind.CC0_1).encode()]
)


@given(
    st.sets(st.sampled_from(["alpha", "alpha-v2", "beta"])),
    st.dictionaries(st.one_of(_TOP_LEVEL, _IN_LAYOUT, _IN_LAYOUT, _ELSEWHERE), _CONTENTS, max_size=30),
)
def test_scan_matches_the_reference(tables, tree):
    # The tables name the datasets that most other files attach to.
    tree = {f"{DATA_DIR}/{stem}.csv": b"x\n" for stem in tables} | tree
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for rel, data in tree.items():
            _write(root, rel, data)
        assert _summary(scan_package(root)) == _reference_scan(root)


@given(st.dictionaries(st.one_of(_TOP_LEVEL, _IN_LAYOUT, _ELSEWHERE), _CONTENTS, max_size=30))
def test_compute_manifest_matches_the_public_constructors(tree):
    # compute_manifest builds its entries without the constructors' checks.
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for rel, data in tree.items():
            _write(root, rel, data)
        manifest = compute_manifest(root)
        expected = ChecksumManifest([ManifestEntry(rel, hashlib.md5(data).hexdigest()) for rel, data in tree.items()])
        assert manifest == expected
        assert type(manifest) is ChecksumManifest
        assert all(type(entry) is ManifestEntry for entry in manifest.entries)
        assert parse_manifest(serialize_manifest(manifest)) == manifest
        assert scan_package(root).walk == walk_files(root)
