"""Output files: staged, then published all or nothing, never overwriting."""

from __future__ import annotations

import errno
import io
import os
import stat

import pytest

from tidypack import (
    ChunkError,
    PackError,
    ScaffoldRequest,
    chunk_table,
    compute_manifest,
    pack,
    scaffold,
    serialize_manifest,
)
from tidypack import tabular
from tidypack.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main

_TABLE = b"id,name\n1,ann\n2,bob\n3,cat\n4,dan\n5,eve\n"


def _fail_nth_write(monkeypatch, n: int) -> None:
    """Make the ``n``-th file opened for writing (from 1) fail on write, as a full disk does."""
    real_open = io.open
    opened = 0

    def patched(file, mode="r", *args, **kwargs):
        nonlocal opened
        handle = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            opened += 1
            if opened == n:
                def full(data):
                    raise OSError(errno.ENOSPC, "No space left on device")

                handle.write = full
        return handle

    monkeypatch.setattr(io, "open", patched)


def _listing(root) -> list[str]:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


def _package(root):
    for rel, data in {"README.md": b"# demo\n", "data/t.csv": b"a\n1\n"}.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return compute_manifest(root)


def test_chunk_failing_second_piece_leaves_no_piece_and_no_temporary(tmp_path, monkeypatch):
    source = tmp_path / "people.csv"
    source.write_bytes(_TABLE)
    _fail_nth_write(monkeypatch, 2)
    with pytest.raises(OSError):
        chunk_table(source, max_rows_per_chunk=2)
    assert _listing(tmp_path) == ["people.csv"]


def test_chunk_target_created_while_staging_keeps_its_bytes(tmp_path, monkeypatch):
    source = tmp_path / "people.csv"
    source.write_bytes(_TABLE)
    theirs = tmp_path / "people-2.csv"
    real_csvy_bytes = tabular._csvy_bytes

    def racing_csvy_bytes(*args, **kwargs):
        if not theirs.exists():
            theirs.write_bytes(b"theirs")
        return real_csvy_bytes(*args, **kwargs)

    # chunk_table imports it when it runs, so the home module's name is patched.
    monkeypatch.setattr(tabular, "_csvy_bytes", racing_csvy_bytes)
    with pytest.raises(ChunkError, match=f"refusing to overwrite existing file {theirs}"):
        chunk_table(source, max_rows_per_chunk=2)
    assert theirs.read_bytes() == b"theirs"
    assert _listing(tmp_path) == ["people-2.csv", "people.csv"]


def test_pack_target_created_while_staging_keeps_its_bytes(tmp_path, monkeypatch):
    root = tmp_path / "pkg"
    manifest = _package(root)
    destination = tmp_path / "pkg.tar"
    real_open = os.open

    def racing_open(file, *args, **kwargs):
        if os.path.dirname(file) == str(root) and not destination.exists():  # a package file is copied
            destination.write_bytes(b"theirs")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", racing_open)
    with pytest.raises(PackError, match=f"refusing to overwrite existing archive {destination}"):
        pack(root, manifest, destination)
    assert destination.read_bytes() == b"theirs"
    assert _listing(tmp_path) == ["pkg", "pkg.tar", *(f"pkg/{rel}" for rel in _listing(root))]


def test_pack_disk_full_while_copying_names_no_package_file(tmp_path, monkeypatch, capsys):
    # The archive's disk fills while README.md's bytes are copied into it:
    # the write failed, not the read, so the error does not name README.md.
    root = tmp_path / "pkg"
    manifest = _package(root)
    (root / "checksums.txt").write_bytes(serialize_manifest(manifest))
    real_open = io.open

    def patched(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            real_write = handle.write

            def write(data):
                if bytes(data) == b"# demo\n":
                    raise OSError(errno.ENOSPC, "No space left on device")
                return real_write(data)

            handle.write = write
        return handle

    monkeypatch.setattr(io, "open", patched)
    listing = _listing(tmp_path)
    assert main(["pack", str(root), "--output", str(tmp_path / "pkg.tar")]) == EXIT_IO
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert _listing(tmp_path) == listing


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "empty"])
def test_scaffold_failing_kth_file_leaves_destination_as_found(tmp_path, monkeypatch, existing):
    destination = tmp_path / "pkg"
    if existing:
        destination.mkdir()
    request = ScaffoldRequest(package_name="demo", dataset_names=["obs"])
    _fail_nth_write(monkeypatch, 3)
    with pytest.raises(OSError):
        scaffold(request, destination)
    assert _listing(tmp_path) == (["pkg"] if existing else [])

    monkeypatch.undo()
    package = scaffold(request, destination)
    assert "checksums.txt" in package.all_paths()


def test_failing_checksum_output_keeps_the_old_manifest(tmp_path, monkeypatch, capsys):
    (tmp_path / "data.csv").write_bytes(b"id\n1\n")
    manifest = tmp_path / "checksums.txt"
    manifest.write_bytes(b"old manifest\n")
    _fail_nth_write(monkeypatch, 1)
    assert main(["checksum", str(tmp_path), "--output", str(manifest)]) == EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert manifest.read_bytes() == b"old manifest\n"
    assert _listing(tmp_path) == ["checksums.txt", "data.csv"]


def test_replaced_output_keeps_its_permission_bits(tmp_path, capsys):
    (tmp_path / "data.csv").write_bytes(b"id\n1\n")
    manifest = tmp_path / "checksums.txt"
    manifest.write_bytes(b"old manifest\n")
    manifest.chmod(0o600)
    assert main(["checksum", str(tmp_path), "--output", str(manifest)]) == EXIT_OK
    assert b"data.csv" in manifest.read_bytes()
    assert stat.S_IMODE(manifest.stat().st_mode) == 0o600


def test_write_error_names_the_target_not_a_temporary(tmp_path, capsys):
    (tmp_path / "data.csv").write_bytes(b"id\n1\n")
    target = tmp_path / "absent" / "checksums.txt"
    assert main(["checksum", str(tmp_path), "--output", str(target)]) == EXIT_IO
    err = capsys.readouterr().err
    assert str(target) in err and ".tmp" not in err


def test_refusals_keep_their_messages_and_exit_codes(tmp_path, capsys):
    root = tmp_path / "pkg"
    _package(root)
    main(["checksum", str(root), "--output", str(root / "checksums.txt")])
    archive = tmp_path / "pkg.tar"
    archive.write_bytes(b"occupied")
    capsys.readouterr()
    assert main(["pack", str(root), "--output", str(archive)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: refusing to overwrite existing archive {archive}\n"
    assert archive.read_bytes() == b"occupied"


def test_output_modes_follow_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        package = scaffold(ScaffoldRequest(package_name="demo", dataset_names=["obs"]), tmp_path / "init")
        plan = chunk_table(package.root / "data" / "obs.csv", max_rows_per_chunk=1)
        root = tmp_path / "pkg"
        archive = pack(root, _package(root), tmp_path / "pkg.tar")
    finally:
        os.umask(old)
    outputs = [*(tmp_path / "init").rglob("*"), *map(type(archive), plan.chunk_paths), archive]
    for path in outputs:
        expected = 0o777 & ~0o027 if path.is_dir() else 0o666 & ~0o027
        assert stat.S_IMODE(path.stat().st_mode) == expected, path
