"""Checksums, manifests, chunking, and deterministic archives."""

from __future__ import annotations

import hashlib
import os
import shutil
import string
import subprocess
import tarfile
import time
from dataclasses import dataclass

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tidypack import (
    ChecksumManifest,
    ChunkError,
    ChunkPlan,
    CsvError,
    ManifestEntry,
    ManifestError,
    PackError,
    chunk_table,
    compute_manifest,
    md5_hex,
    pack,
    parse_manifest,
    serialize_manifest,
    unchunk,
    verify_manifest,
)

# ---------------------------------------------------------------------------
# MD5 reference vectors (the classic published test suite for the algorithm)

_MD5_VECTORS = {
    b"": "d41d8cd98f00b204e9800998ecf8427e",
    b"a": "0cc175b9c0f1b6a831c399e269772661",
    b"abc": "900150983cd24fb0d6963f7d28e17f72",
    b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
    b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789": "d174ab98d277d9f5a5611c2c9f419d9f",
    b"1234567890" * 8: "57edf4a22be3c955ac49da2e2107b67a",
}


def test_md5_reference_vectors():
    for data, expected in _MD5_VECTORS.items():
        assert md5_hex(data) == expected


def test_a_file_is_hashed_a_mebibyte_at_a_time(tmp_path, monkeypatch):
    from tidypack import integrity

    data = os.urandom(5 * 512 * 1024)  # two and a half reads
    (tmp_path / "big.bin").write_bytes(data)
    sizes = []
    real_read = os.read

    def recording_read(fd, size):
        sizes.append(size)
        return real_read(fd, size)

    monkeypatch.setattr(os, "read", recording_read)
    assert integrity._md5_file(str(tmp_path / "big.bin")) == hashlib.md5(data).hexdigest()
    assert sizes == [1024 * 1024] * 4  # the fourth read finds the end


def test_a_file_that_cannot_be_hashed_is_named(tmp_path, monkeypatch):
    from tidypack import integrity

    for path in (tmp_path / "gone.bin", tmp_path):  # open fails; the first read fails
        with pytest.raises(OSError) as caught:
            integrity._md5_file(str(path))
        assert caught.value.filename == str(path)

    (tmp_path / "x.bin").write_bytes(b"x")

    def failing_read(fd, size):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "read", failing_read)
    with pytest.raises(OSError, match=r"^\[Errno 5\] Input/output error: '.*x\.bin'$"):
        integrity._md5_file(str(tmp_path / "x.bin"))


# ---------------------------------------------------------------------------
# Manifest format


def test_manifest_serializes_sorted_two_space_lines():
    manifest = ChecksumManifest(
        entries=[
            ManifestEntry(path="data/z.csv", md5="a" * 32),
            ManifestEntry(path="README.md", md5="b" * 32),
        ]
    )
    assert serialize_manifest(manifest) == (
        b"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb  README.md\n"
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa  data/z.csv\n"
    )


def test_manifest_empty_serializes_to_nothing():
    assert serialize_manifest(ChecksumManifest(entries=[])) == b""
    assert parse_manifest(b"").entries == []


def test_manifest_parse_round_trip():
    data = (
        b"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb  README.md\n"
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa  data/with  spaces.csv\n"
    )
    manifest = parse_manifest(data)
    assert serialize_manifest(manifest) == data


def test_manifest_parse_tolerates_blank_lines_and_crlf():
    data = b"\r\n" + b"a" * 32 + b"  x.csv\r\n\r\n"
    manifest = parse_manifest(data)
    assert manifest.paths() == ["x.csv"]


def test_manifest_parse_accepts_md5_prefix_and_uppercase():
    manifest = parse_manifest(b"md5:ABCDEF0123456789abcdef0123456789  x.csv\n")
    assert manifest.entries[0].md5 == "abcdef0123456789abcdef0123456789"


def test_manifest_parse_rejects_other_algorithms():
    line = b"sha256:" + b"a" * 64 + b"  x.csv\n"
    with pytest.raises(ManifestError) as excinfo:
        parse_manifest(line)
    assert "sha256" in str(excinfo.value)


def test_manifest_parse_rejects_malformed_lines():
    with pytest.raises(ManifestError):
        parse_manifest(b"a" * 32 + b" x.csv\n")  # one space
    with pytest.raises(ManifestError):
        parse_manifest(b"a" * 31 + b"  x.csv\n")  # short digest
    with pytest.raises(ManifestError):
        parse_manifest(b"a" * 33 + b"  x.csv\n")  # long digest
    with pytest.raises(ManifestError):
        parse_manifest(b"zz" * 16 + b"  x.csv\n")  # not hex
    with pytest.raises(ManifestError):
        parse_manifest(b"\xff\xfe")


def test_manifest_entry_guards():
    with pytest.raises(ManifestError):
        ManifestEntry(path="/abs", md5="a" * 32)
    with pytest.raises(ManifestError):
        ManifestEntry(path="a/../b", md5="a" * 32)
    with pytest.raises(ManifestError):
        ManifestEntry(path="x", md5="A" * 32)  # uppercase not canonical
    with pytest.raises(ManifestError):
        ManifestEntry(path="", md5="a" * 32)


def test_manifest_duplicate_paths_rejected():
    with pytest.raises(ManifestError) as excinfo:
        ChecksumManifest(
            entries=[
                ManifestEntry(path="x.csv", md5="a" * 32),
                ManifestEntry(path="x.csv", md5="b" * 32),
            ]
        )
    assert "x.csv" in str(excinfo.value)


def test_manifest_duplicate_check_is_linear():
    lines = [f"{'a' * 32}  dir/file{index:06d}.bin" for index in range(100_000)]
    lines[70_000] = f"{'b' * 32}  dir/file000007.bin"
    lines[90_000] = f"{'c' * 32}  dir/file000042.bin"
    data = ("\n".join(lines) + "\n").encode()
    started = time.perf_counter()
    with pytest.raises(ManifestError) as excinfo:
        parse_manifest(data)
    assert time.perf_counter() - started < 5
    assert str(excinfo.value) == (
        "duplicate manifest paths: dir/file000007.bin, dir/file000042.bin"
    )


_PATH_SEGMENT = st.text(
    alphabet=st.sampled_from(string.ascii_lowercase + string.digits), min_size=1, max_size=8
)


@st.composite
def _manifests(draw):
    count = draw(st.integers(min_value=0, max_value=6))
    paths = set()
    entries = []
    for index in range(count):
        segments = draw(st.lists(_PATH_SEGMENT, min_size=1, max_size=3))
        path = "/".join(segments) + f"-{index}.bin"
        paths.add(path)
        payload = draw(st.binary(max_size=16))
        entries.append(ManifestEntry(path=path, md5=hashlib.md5(payload).hexdigest()))
    return ChecksumManifest(entries=entries)


@given(_manifests())
@settings(max_examples=100)
def test_manifest_round_trip_property(manifest):
    data = serialize_manifest(manifest)
    again = parse_manifest(data)
    assert again == manifest
    assert serialize_manifest(again) == data


# ---------------------------------------------------------------------------
# Computing and verifying


def _fill(root, files: dict[str, bytes]):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_compute_manifest_matches_hashlib(tmp_path):
    files = {"a.txt": b"alpha\n", "sub/b.bin": b"\x00\x01", "sub/c.txt": b""}
    _fill(tmp_path, files)
    manifest = compute_manifest(tmp_path)
    assert manifest.paths() == ["a.txt", "sub/b.bin", "sub/c.txt"]
    for rel, data in files.items():
        assert manifest.digest_for(rel) == hashlib.md5(data).hexdigest()


def test_compute_manifest_include_filter(tmp_path):
    _fill(tmp_path, {"keep.txt": b"1", "skip.txt": b"2"})
    manifest = compute_manifest(tmp_path, include=lambda rel: rel == "keep.txt")
    assert manifest.paths() == ["keep.txt"]


def test_verify_manifest_clean_modified_missing_extra(tmp_path):
    _fill(tmp_path, {"a.txt": b"alpha", "b.txt": b"beta"})
    manifest = compute_manifest(tmp_path)

    clean = verify_manifest(tmp_path, manifest)
    assert clean.ok and clean.extra == []

    (tmp_path / "a.txt").write_bytes(b"ALPHA")
    report = verify_manifest(tmp_path, manifest)
    assert report.mismatched == ["a.txt"] and not report.ok

    (tmp_path / "a.txt").unlink()
    report = verify_manifest(tmp_path, manifest)
    assert report.missing == ["a.txt"] and not report.ok

    _fill(tmp_path, {"a.txt": b"alpha", "new.txt": b"!"})
    report = verify_manifest(tmp_path, manifest)
    assert report.ok  # extras alone do not fail verification
    assert report.extra == ["new.txt"]


# ---------------------------------------------------------------------------
# Chunking

_TABLE = b"id,name\n1,ann\n2,bob\n3,cat\n4,dan\n5,eve\n"


def test_chunk_splits_with_repeated_header(tmp_path):
    source = tmp_path / "people.csv"
    source.write_bytes(_TABLE)
    plan = chunk_table(source, max_rows_per_chunk=2)
    assert plan.data_rows == 5
    assert [p.split("/")[-1] for p in plan.chunk_paths] == [
        "people-1.csv",
        "people-2.csv",
        "people-3.csv",
    ]
    assert (tmp_path / "people-1.csv").read_bytes() == b"id,name\n1,ann\n2,bob\n"
    assert (tmp_path / "people-2.csv").read_bytes() == b"id,name\n3,cat\n4,dan\n"
    assert (tmp_path / "people-3.csv").read_bytes() == b"id,name\n5,eve\n"


def test_chunk_counts_follow_the_ceiling():
    for rows, per_chunk, expected in ((1, 1, 1), (2, 1, 2), (10, 3, 4), (0, 7, 1), (6, 3, 2)):
        plan = ChunkPlan(
            source="x.csv",
            max_rows_per_chunk=per_chunk,
            data_rows=rows,
            chunk_paths=[f"x-{i}.csv" for i in range(1, expected + 1)],
        )
        assert len(plan.chunk_paths) == expected
    with pytest.raises(ChunkError):
        ChunkPlan(source="x.csv", max_rows_per_chunk=3, data_rows=10, chunk_paths=["x-1.csv"])
    with pytest.raises(ChunkError):
        ChunkPlan(source="x.csv", max_rows_per_chunk=0, data_rows=1, chunk_paths=["x-1.csv"])


def test_chunk_zero_rows_yields_one_header_chunk(tmp_path):
    source = tmp_path / "empty.csv"
    source.write_bytes(b"id,name\n")
    plan = chunk_table(source, max_rows_per_chunk=10)
    assert plan.data_rows == 0
    assert (tmp_path / "empty-1.csv").read_bytes() == b"id,name\n"


def test_chunk_carries_front_matter(tmp_path):
    source = tmp_path / "noted.csvy"
    source.write_bytes(b"---\nname: noted\n---\nid\n1\n2\n3\n")
    chunk_table(source, max_rows_per_chunk=2)
    assert (tmp_path / "noted-1.csvy").read_bytes() == b"---\nname: noted\n---\nid\n1\n2\n"
    assert (tmp_path / "noted-2.csvy").read_bytes() == b"---\nname: noted\n---\nid\n3\n"


def test_chunk_refuses_to_overwrite_and_writes_nothing(tmp_path):
    source = tmp_path / "people.csv"
    source.write_bytes(_TABLE)
    blocker = tmp_path / "people-2.csv"
    blocker.write_bytes(b"already here")
    with pytest.raises(ChunkError):
        chunk_table(source, max_rows_per_chunk=2)
    assert not (tmp_path / "people-1.csv").exists()
    assert blocker.read_bytes() == b"already here"


def test_chunk_rejects_headerless_and_empty_sources(tmp_path):
    # Text with no record has no header: the parser's own error, and no chunk.
    for name, data in (("none.csv", b""), ("blank.csv", b"\n\r\n"), ("front.csvy", b"---\na: 1\n---\n")):
        empty = tmp_path / name
        empty.write_bytes(data)
        with pytest.raises(CsvError, match="^table is empty; expected a header row$"):
            chunk_table(empty, max_rows_per_chunk=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blank.csv", "front.csvy", "none.csv"]

    good = tmp_path / "ok.csv"
    good.write_bytes(b"a\n1\n")
    with pytest.raises(ChunkError):
        chunk_table(good, max_rows_per_chunk=0)


def test_unchunk_restores_canonical_bytes(tmp_path):
    source = tmp_path / "people.csv"
    source.write_bytes(_TABLE)
    plan = chunk_table(source, max_rows_per_chunk=2)
    assert unchunk(plan.chunk_paths) == _TABLE


def test_unchunk_round_trip_with_front_matter(tmp_path):
    original = b"---\nname: noted\n---\nid\n1\n2\n3\n"
    source = tmp_path / "noted.csvy"
    source.write_bytes(original)
    plan = chunk_table(source, max_rows_per_chunk=1)
    assert len(plan.chunk_paths) == 3
    assert unchunk(plan.chunk_paths) == original


def test_unchunk_detects_gaps(tmp_path):
    for name in ("part-1.csv", "part-3.csv"):
        (tmp_path / name).write_bytes(b"a\n1\n")
    with pytest.raises(ChunkError) as excinfo:
        unchunk([tmp_path / "part-1.csv", tmp_path / "part-3.csv"])
    assert "part-2.csv" in str(excinfo.value)


def test_unchunk_rejects_foreign_and_malformed_names(tmp_path):
    (tmp_path / "alpha-1.csv").write_bytes(b"a\n1\n")
    (tmp_path / "beta-2.csv").write_bytes(b"a\n2\n")
    with pytest.raises(ChunkError):
        unchunk([tmp_path / "alpha-1.csv", tmp_path / "beta-2.csv"])
    (tmp_path / "plain.csv").write_bytes(b"a\n1\n")
    with pytest.raises(ChunkError):
        unchunk([tmp_path / "plain.csv"])
    with pytest.raises(ChunkError):
        unchunk([])


def test_unchunk_names_first_inconsistent_file(tmp_path):
    (tmp_path / "x-1.csv").write_bytes(b"a,b\n1,2\n")
    (tmp_path / "x-2.csv").write_bytes(b"a,c\n3,4\n")
    with pytest.raises(ChunkError) as excinfo:
        unchunk([tmp_path / "x-1.csv", tmp_path / "x-2.csv"])
    assert "x-2.csv" in str(excinfo.value) and "header" in str(excinfo.value)

    (tmp_path / "y-1.csv").write_bytes(b"---\nname: y\n---\na\n1\n")
    (tmp_path / "y-2.csv").write_bytes(b"---\nname: z\n---\na\n2\n")
    with pytest.raises(ChunkError) as excinfo:
        unchunk([tmp_path / "y-1.csv", tmp_path / "y-2.csv"])
    assert "front matter" in str(excinfo.value)

    (tmp_path / "z-1.csv").write_bytes(b"a,b\n1,2\n")
    (tmp_path / "z-2.csv").write_bytes(b"a;b\n3;4\n")
    with pytest.raises(ChunkError) as excinfo:
        unchunk([tmp_path / "z-1.csv", tmp_path / "z-2.csv"])
    assert "delimiter" in str(excinfo.value)


# Column names as wide research tables have them, years and other numbers
# among them: the first record is the header whatever it holds.
_HEADER_NAMES = st.lists(
    st.one_of(st.sampled_from(["id", "name", "site"]), st.from_regex(r"[0-9]{1,4}", fullmatch=True)),
    min_size=1,
    max_size=4,
    unique=True,
)


@given(_HEADER_NAMES, st.integers(min_value=0, max_value=23), st.integers(min_value=1, max_value=7))
@example(["site", "2019", "2020"], 2, 1)
@settings(max_examples=60)
def test_chunk_unchunk_identity_property(tmp_path_factory, names, rows, per_chunk):
    import math

    root = tmp_path_factory.mktemp("chunks")
    body = "".join(",".join(str(i * len(names) + j) for j in range(len(names))) + "\n" for i in range(rows))
    original = (",".join(names) + "\n" + body).encode()
    source = root / "t.csv"
    source.write_bytes(original)
    plan = chunk_table(source, max_rows_per_chunk=per_chunk)
    assert len(plan.chunk_paths) == max(1, math.ceil(rows / per_chunk))
    assert unchunk(plan.chunk_paths) == original


# ---------------------------------------------------------------------------
# Deterministic packing


@dataclass
class _TarHeader:
    name: str
    mode: int
    uid: int
    gid: int
    size: int
    mtime: int
    typeflag: bytes
    magic: bytes
    uname: str
    gname: str


def _octal(field: bytes) -> int:
    text = field.rstrip(b" \x00")
    return int(text, 8) if text else 0


def _read_tar_headers(data: bytes) -> list[_TarHeader]:
    """Walk raw 512-byte tar blocks, independent of the tarfile module."""
    headers = []
    offset = 0
    while offset + 512 <= len(data):
        block = data[offset : offset + 512]
        if block == b"\x00" * 512:
            break
        stored = _octal(block[148:156])
        summed = sum(block[:148]) + sum(b" " * 8) + sum(block[156:])
        assert stored == summed, "tar header checksum mismatch"
        headers.append(
            _TarHeader(
                name=block[0:100].split(b"\x00", 1)[0].decode(),
                mode=_octal(block[100:108]),
                uid=_octal(block[108:116]),
                gid=_octal(block[116:124]),
                size=_octal(block[124:136]),
                mtime=_octal(block[136:148]),
                typeflag=block[156:157],
                magic=block[257:263],
                uname=block[265:297].split(b"\x00", 1)[0].decode(),
                gname=block[297:329].split(b"\x00", 1)[0].decode(),
            )
        )
        offset += 512 + (headers[-1].size + 511) // 512 * 512
    return headers


def _package_tree(root):
    _fill(
        root,
        {
            "README.md": b"# demo\n",
            "LICENSE": b"license text\n",
            "data/t.csv": b"a\n1\n",
            "metadata/t.json": b"{}\n",
        },
    )
    return compute_manifest(root, include=lambda rel: rel != "checksums.txt")


def test_pack_writes_pinned_ustar_members(tmp_path):
    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    archive = pack(root, manifest, tmp_path / "pkg.tar")

    headers = _read_tar_headers(archive.read_bytes())
    names = [h.name for h in headers]
    assert names == sorted(names)
    assert names == [
        "LICENSE",
        "README.md",
        "checksums.txt",
        "data/",
        "data/t.csv",
        "metadata/",
        "metadata/t.json",
    ]
    for header in headers:
        assert header.magic == b"ustar\x00"
        assert header.mtime == 0
        assert header.uid == 0 and header.gid == 0
        assert header.uname == "" and header.gname == ""
        if header.typeflag == b"5":
            assert header.mode == 0o755
        else:
            assert header.typeflag == b"0"
            assert header.mode == 0o644


def test_pack_is_byte_deterministic(tmp_path):
    import os

    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    first = pack(root, manifest, tmp_path / "one.tar").read_bytes()
    # Shift every mtime; the archive must not care.
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            os.utime(os.path.join(dirpath, filename), (12345, 12345))
    second = pack(root, manifest, tmp_path / "two.tar").read_bytes()
    assert first == second


def test_pack_embeds_fresh_manifest_and_payloads(tmp_path):
    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    archive = pack(root, manifest, tmp_path / "pkg.tar")
    with tarfile.open(archive) as handle:
        embedded = handle.extractfile("checksums.txt").read()
        assert embedded == serialize_manifest(manifest)
        assert handle.extractfile("data/t.csv").read() == b"a\n1\n"


def test_pack_archives_only_manifest_files(tmp_path):
    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    (root / "stray.tmp").write_bytes(b"not listed")
    archive = pack(root, manifest, tmp_path / "pkg.tar")
    names = [h.name for h in _read_tar_headers(archive.read_bytes())]
    assert "stray.tmp" not in names


def test_pack_refuses_existing_destination(tmp_path):
    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    target = tmp_path / "pkg.tar"
    target.write_bytes(b"occupied")
    with pytest.raises(PackError):
        pack(root, manifest, target)
    assert target.read_bytes() == b"occupied"


def test_pack_verifies_first(tmp_path):
    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    (root / "data/t.csv").write_bytes(b"tampered\n")
    with pytest.raises(PackError) as excinfo:
        pack(root, manifest, tmp_path / "pkg.tar")
    assert "data/t.csv" in str(excinfo.value)
    assert not (tmp_path / "pkg.tar").exists()

    (root / "data/t.csv").unlink()
    with pytest.raises(PackError) as excinfo:
        pack(root, manifest, tmp_path / "pkg.tar")
    assert "missing" in str(excinfo.value)


def test_pack_rejects_manifest_listing_checksums(tmp_path):
    root = tmp_path / "pkg"
    _package_tree(root)
    (root / "checksums.txt").write_bytes(b"")
    manifest = compute_manifest(root)
    assert "checksums.txt" in manifest.paths()
    with pytest.raises(PackError) as excinfo:
        pack(root, manifest, tmp_path / "pkg.tar")
    assert "checksums.txt" in str(excinfo.value)


def test_pack_reports_file_behind_symlinked_directory_missing(tmp_path):
    root = tmp_path / "pkg"
    _package_tree(root)
    _fill(tmp_path / "outside", {"x.txt": b"linked\n"})
    (root / "linked").symlink_to(tmp_path / "outside", target_is_directory=True)
    manifest = compute_manifest(root, include=lambda rel: rel != "checksums.txt")
    manifest = ChecksumManifest(
        entries=manifest.entries + [ManifestEntry("linked/x.txt", md5_hex(b"linked\n"))]
    )
    with pytest.raises(PackError) as excinfo:
        pack(root, manifest, tmp_path / "pkg.tar")
    assert str(excinfo.value) == "manifest verification failed; missing: linked/x.txt"
    assert not (tmp_path / "pkg.tar").exists()


def test_pack_lists_mismatched_before_missing(tmp_path):
    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    (root / "data/t.csv").write_bytes(b"tampered\n")
    (root / "README.md").write_bytes(b"# tampered\n")
    (root / "metadata/t.json").unlink()
    (root / "LICENSE").unlink()
    with pytest.raises(PackError) as excinfo:
        pack(root, manifest, tmp_path / "pkg.tar")
    assert str(excinfo.value) == (
        "manifest verification failed; mismatched: README.md, data/t.csv; "
        "missing: LICENSE, metadata/t.json"
    )
    assert not (tmp_path / "pkg.tar").exists()


def test_pack_refuses_listed_checksums_and_leaves_no_archive(tmp_path, monkeypatch):
    root = tmp_path / "pkg"
    _package_tree(root)
    (root / "checksums.txt").write_bytes(b"")
    manifest = compute_manifest(root)
    opened = _counting_open(monkeypatch, root)
    with pytest.raises(PackError) as excinfo:
        pack(root, manifest, tmp_path / "pkg.tar")
    assert str(excinfo.value) == (
        "the manifest may not list checksums.txt; the archive embeds a fresh copy"
    )
    assert opened == []  # refused before any package file or temporary is opened
    assert not (tmp_path / "pkg.tar").exists()


def _counting_open(monkeypatch, root) -> list[str]:
    """Record, relative to ``root``, every path opened with ``os.open``, which
    ``integrity`` reads and writes through: package files, and the archive's
    temporary and claimed name beside the package (as ``../...``)."""
    real_open = os.open
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.relpath(file, root))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    return opened


def test_pack_opens_each_manifest_file_once(tmp_path, monkeypatch):
    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    opened = _counting_open(monkeypatch, root)
    pack(root, manifest, tmp_path / "pkg.tar")
    assert sorted(rel for rel in opened if not rel.startswith("..")) == manifest.paths()


def test_pack_refuses_too_long_path_before_opening_anything(tmp_path, monkeypatch):
    root = tmp_path / "pkg"
    _package_tree(root)
    # No '/' leaves at most 100 bytes after it: the last component alone is 101.
    long_rel = "data/" + "x" * 97 + ".csv"
    _fill(root, {long_rel: b"a\n1\n"})
    manifest = compute_manifest(root, include=lambda rel: rel != "checksums.txt")
    (root / "README.md").write_bytes(b"# tampered\n")  # the path outranks verification
    opened = _counting_open(monkeypatch, root)
    with pytest.raises(PackError, match=f"cannot archive {long_rel}: ustar paths take"):
        pack(root, manifest, tmp_path / "pkg.tar")
    assert opened == []
    assert not (tmp_path / "pkg.tar").exists()


def test_pack_refuses_8_gib_file_before_reading_anything(tmp_path, monkeypatch):
    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    (root / "huge.bin").write_bytes(b"")
    os.truncate(root / "huge.bin", 8**11)  # sparse: no block is written or read
    entry = ManifestEntry("huge.bin", "0" * 32)  # hand-written: hashing 8 GiB is the cost avoided
    manifest = ChecksumManifest(entries=manifest.entries + [entry])
    opened = _counting_open(monkeypatch, root)
    with pytest.raises(PackError, match=f"cannot archive huge.bin: {8**11} bytes is over"):
        pack(root, manifest, tmp_path / "pkg.tar")
    assert opened == []
    assert not (tmp_path / "pkg.tar").exists()


def test_pack_onto_existing_archive_opens_no_package_file(tmp_path, monkeypatch, capsys):
    from tidypack.cli import EXIT_USAGE, main

    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    (root / "checksums.txt").write_bytes(serialize_manifest(manifest))
    (root / "data/t.csv").write_bytes(b"stale\n")  # the existing archive outranks it
    archive = tmp_path / "pkg.tar"
    archive.write_bytes(b"occupied")
    opened = _counting_open(monkeypatch, root)
    assert main(["pack", str(root), "--output", str(archive)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: refusing to overwrite existing archive {archive}\n"
    assert opened == []
    assert archive.read_bytes() == b"occupied"


def _pack_with_files_resized_when_opened(tmp_path, monkeypatch, capsys, delta: int) -> None:
    """Pack from the CLI while each package file's size changes by ``delta``
    bytes as it is opened: after the walk took its size and its header was
    written, before the copy.  The run exits 3 naming the first file read,
    and leaves nothing behind."""
    from tidypack.cli import EXIT_IO, main

    root = tmp_path / "pkg"
    manifest = _package_tree(root)
    (root / "checksums.txt").write_bytes(serialize_manifest(manifest))
    real_open = os.open

    def resizing_open(file, *args, **kwargs):
        if not os.path.relpath(file, root).startswith(".."):
            os.truncate(file, os.stat(file).st_size + delta)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", resizing_open)
    assert main(["pack", str(root), "--output", str(tmp_path / "pkg.tar")]) == EXIT_IO
    first = root / "LICENSE"
    assert capsys.readouterr().err == f"error: [Errno 5] file changed size while it was archived: '{first}'\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pkg"]


def test_pack_file_shrinking_mid_copy_exits_3_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    _pack_with_files_resized_when_opened(tmp_path, monkeypatch, capsys, -1)


def test_pack_file_growing_mid_copy_exits_3_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    _pack_with_files_resized_when_opened(tmp_path, monkeypatch, capsys, 1)


# ---------------------------------------------------------------------------
# The ustar writer against ``tarfile``, which serves as the oracle

_BOUNDARIES = (99, 100, 101, 154, 155, 156, 255, 256)


@st.composite
def _boundary_paths(draw, alphabet: str = "aé€\U0001f600"):
    """A relative path of ASCII or multi-byte components whose encoded length
    sits at a ustar boundary (100 bytes of name, 155 of prefix, 255 in all),
    often with a '/' just where a split would fall."""

    def part(length: int) -> str:
        """Exactly ``length`` bytes: random components, then 'x' padding."""
        heads = draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=30), max_size=3))
        head = "".join(f"{h}/" for h in heads)
        while len(os.fsencode(head)) >= length:
            head = head[:-1]
        return head + "x" * (length - len(os.fsencode(head)))

    target = draw(st.sampled_from(_BOUNDARIES))
    cut = draw(st.sampled_from((0, target - 101, target - 100, target - 99, 154, 155, 156)))
    if not 0 < cut < target - 1:
        return part(target)
    return part(cut) + "/" + part(target - cut - 1)


def _tarinfo(name: str, size: int | None) -> tarfile.TarInfo:
    """The pinned member ``pack`` describes: a directory when ``size`` is None."""
    info = tarfile.TarInfo(name)
    if size is None:
        info.type, info.mode = tarfile.DIRTYPE, 0o755
    else:
        info.type, info.mode, info.size = tarfile.REGTYPE, 0o644, size
    info.mtime, info.uid, info.gid, info.uname, info.gname = 0, 0, 0, "", ""
    return info


@given(
    name=st.one_of(_boundary_paths(), _boundary_paths(alphabet="a\udcff")),
    size=st.one_of(st.none(), st.integers(0, 10**9), st.sampled_from([8**11 - 1, 8**11])),
)
@settings(max_examples=400)
def test_ustar_header_matches_tarfile(name, size):
    from tidypack.integrity import _ustar_header

    try:
        expected = _tarinfo(name, size).tobuf(tarfile.USTAR_FORMAT, "utf-8", "surrogateescape")
    except ValueError:  # "name is too long" or "overflow in number field"
        with pytest.raises(PackError, match=f"cannot archive {name}"):
            _ustar_header(name, size)
        return
    assert _ustar_header(name, size) == expected


def _tarfile_pack(root, manifest) -> bytes:
    """What ``pack`` wrote when it wrote through ``tarfile``."""
    import io

    members = {"checksums.txt": serialize_manifest(manifest)}
    for rel in manifest.paths():
        members[rel] = (root / rel).read_bytes()
        parent = rel.rpartition("/")[0]
        while parent:
            members[parent] = None
            parent = parent.rpartition("/")[0]
    out = io.BytesIO()
    with tarfile.open(fileobj=out, mode="w", format=tarfile.USTAR_FORMAT) as archive:
        for name in sorted(members):
            payload = members[name]
            size = None if payload is None else len(payload)
            archive.addfile(_tarinfo(name, size), None if payload is None else io.BytesIO(payload))
    return out.getvalue()


@given(
    rels=st.lists(_boundary_paths(), min_size=1, max_size=4, unique=True),
    data=st.binary(max_size=1500),
)
@settings(max_examples=40, deadline=None)
def test_pack_matches_tarfile_reference_archive(tmp_path_factory, rels, data):
    assume(all(len(os.fsencode(part)) <= 255 for rel in rels for part in rel.split("/")))
    assume(not any(other.startswith(rel + "/") for rel in rels for other in rels))
    root = tmp_path_factory.mktemp("pkg")
    _fill(root, {rel: data[: index * 500] for index, rel in enumerate(rels)})
    manifest = compute_manifest(root)
    destination = root.parent / f"{root.name}.tar"
    try:
        expected = _tarfile_pack(root, manifest)
    except ValueError:
        with pytest.raises(PackError, match="cannot archive"):
            pack(root, manifest, destination)
        assert not destination.exists()
        return
    assert pack(root, manifest, destination).read_bytes() == expected


@pytest.mark.skipif(shutil.which("tar") is None, reason="no tar on PATH")
def test_pack_round_trips_through_system_tar(tmp_path):
    root = tmp_path / "pkg"
    deep = "data/" + "/".join(["répertoire-" + "d" * 30] * 3) + "/table.csv"  # over 100 bytes
    big = bytes(range(256)) * 4097  # over the 1 MiB copy buffer
    _fill(root, {deep: b"a\n1\n", "data/€.csv": b"b\n2\n", "README.md": b"# demo\n", "raw.bin": big})
    manifest = compute_manifest(root)
    archive = pack(root, manifest, tmp_path / "pkg.tar")
    out = tmp_path / "out"
    out.mkdir()
    subprocess.run(["tar", "-xf", str(archive), "-C", str(out)], check=True)
    embedded = parse_manifest((out / "checksums.txt").read_bytes())
    assert embedded == manifest
    report = verify_manifest(out, embedded, include=lambda rel: rel != "checksums.txt")
    assert report.ok and report.extra == []


def test_verify_manifest_hashes_only_listed_files(tmp_path, monkeypatch):
    from tidypack import integrity

    _fill(tmp_path, {"a.txt": b"alpha", "b.txt": b"beta"})
    manifest = compute_manifest(tmp_path)
    _fill(tmp_path, {"extra/big.bin": b"x" * 4096, "new.txt": b"!"})
    (tmp_path / "b.txt").unlink()
    hashed = []
    real_md5_file = integrity._md5_file

    def recording_md5_file(path):
        hashed.append(os.path.relpath(path, tmp_path))
        return real_md5_file(path)

    monkeypatch.setattr(integrity, "_md5_file", recording_md5_file)
    report = verify_manifest(tmp_path, manifest)
    assert hashed == ["a.txt"]
    assert (report.mismatched, report.missing, report.extra) == ([], ["b.txt"], ["extra/big.bin", "new.txt"])
