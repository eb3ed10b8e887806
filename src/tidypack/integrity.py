"""Checksum manifests, table chunking, deterministic archives, and output files.

Manifests use MD5 in the classic ``md5sum`` layout: 32 hex digits, two
spaces, a root-relative POSIX path, one file per line, sorted.  MD5 is a
fixity check against bit rot and truncated copies here, not a defense
against an adversary; the format reserves an ``algorithm:`` prefix on the
digest so stronger hashes can appear later without breaking parsers.

``checksum``, ``verify`` and ``pack`` share one name check on the walk,
``_named_files``, and one read loop, ``_md5_file``, through which ``pack``
copies each file into the archive: all three see the same files, refuse
the same names, and name a file a read fails on the same way.  The walk
(``walk_files``) and the path rules live here, and the package scanner in
``model`` reads them, so these commands never load the scanner.  Each
command walks the tree once: lint's R16 and ``pack --require-lint`` hand
``verify_manifest`` and ``pack`` the scanner's walk (``walk=``), and a file
in it that is gone when opened counts as missing.

Untrusted values are checked once, trusted ones not at all: the public
constructors of the named tuples ``ManifestEntry``, ``ChecksumManifest`` and
``ChunkPlan`` check what they are given (``_replace`` goes through them),
and ``parse_manifest`` each line of a manifest, while ``compute_manifest``
builds entries with the unchecked ``_make`` from the walk's sorted, unique
paths and ``hashlib``'s digests.  ``pack`` writes each 512-byte ustar
header itself from pinned fields, the bytes ``tarfile`` writes for the
same member.  ``hashlib`` (and with it OpenSSL) is imported by the
functions that hash, so ``chunk`` and ``unchunk`` never load it.

``chunk_table`` and ``unchunk`` copy a table body that passes ``tabular``'s
canonical test, as every chunk does, or differs from one only in its line
ends, and render any other batch by batch as it is parsed, with the same
output and errors either way.

``publish`` is the only code in tidypack that creates an output file.  It
writes all of a command's files or none: ``init``, ``chunk`` and ``pack``
never overwrite, and ``checksum --output`` and ``unchunk --output`` replace
their target atomically.
"""

from __future__ import annotations

import errno
import math
import os
import re
from collections import Counter
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO, Callable, Mapping, Sequence

from .errors import ChunkError, CsvError, EncodingError, FrontMatterError, ManifestError, PackError, ScanError, checked_tuple

CHECKSUMS_NAME = "checksums.txt"

_MD5_HEX_RE = re.compile(r"[0-9a-f]{32}")
_MANIFEST_LINE_RE = re.compile(r"(?:(?P<algo>[a-z0-9]+):)?(?P<hex>[0-9a-fA-F]+)  (?P<path>.+)")

_READ_BLOCK = 1024 * 1024
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL  # a new file; fails if the name exists


def escapes_root(path: str) -> bool:
    """True when a POSIX path is absolute or climbs out through a ``..`` part.

    Decides what ``PurePosixPath.is_absolute()`` or ``".." in .parts``
    decide, without building a path object.
    """
    return path.startswith("/") or ".." in path.split("/")


def printable_path(path: str) -> str:
    """``path`` with the bytes of a name that is not UTF-8 as backslash
    escapes (``bad\\xff.txt``), and a CR or LF as ``\\r`` or ``\\n``.
    ``os.scandir`` decodes such bytes to lone surrogates, which no UTF-8
    output can carry; any other path is returned as it is."""
    if not path.isascii():
        path = path.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    return path.replace("\r", "\\r").replace("\n", "\\n") if "\r" in path or "\n" in path else path


# A lone surrogate, as ``os.scandir`` decodes a byte of a name that is not UTF-8, or a line break.
_UNNAMABLE_RE = re.compile("[\ud800-\udfff\r\n]")


def unnamable(path: str) -> str | None:
    """Why no manifest line can name ``path`` (``"is not valid UTF-8"`` or
    ``"holds a line break"``), or None when one can."""
    if _UNNAMABLE_RE.search(path) is None:
        return None
    try:
        path.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return "is not valid UTF-8"
    return "holds a line break"


def walk_files(root: str | Path) -> list[tuple[str, int]]:
    """Every regular file under ``root`` as ``(relative POSIX path, size)``, sorted by path.

    One iterative ``os.scandir`` walk on plain strings, so a deep tree costs
    memory, not interpreter recursion.  Symbolic links are skipped, never
    followed.  A directory reached twice (same ``st_dev``/``st_ino``, for
    example through a bind mount) raises ``ScanError`` instead of hanging.
    """
    files: list[tuple[str, int]] = []
    seen_dirs: set[tuple[int, int]] = set()
    stack = [("", os.fspath(root))]
    while stack:
        prefix, directory = stack.pop()
        info = os.stat(directory)
        if (info.st_dev, info.st_ino) in seen_dirs:
            raise ScanError(f"directory cycle detected at {directory}")
        seen_dirs.add((info.st_dev, info.st_ino))
        with os.scandir(directory) as entries:
            for entry in entries:
                if entry.is_symlink():
                    continue
                if entry.is_dir():
                    stack.append((prefix + entry.name + "/", entry.path))
                elif entry.is_file():
                    files.append((prefix + entry.name, entry.stat().st_size))
    files.sort()
    return files


def publish(
    outputs: Mapping[Path, bytes | Callable[[BinaryIO], object]],
    *,
    replace: bool = False,
    parents: bool = False,
) -> None:
    """Write each target's content (bytes, or a callable given a binary handle), all or none.

    Each is staged, through a 1 MiB buffer, in a hidden temporary sibling
    with mode ``0o666`` less the umask, as ``open`` gives.  Unless
    ``replace``, every target name is then claimed with ``O_EXCL``: one that
    exists or appears raises ``FileExistsError`` and is never overwritten.
    A replaced target keeps its permission bits.  On any exception, only
    what this call made is removed (temporaries, claimed names, ``parents``
    directories), and an ``OSError`` names the target, not its temporary.
    """
    if not replace:  # an advisory look, so nothing is staged for a target that exists
        for target in outputs:
            if os.path.lexists(target):
                raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), target)
    made: list[Path] = []  # removed last first, so files go before their directories
    staged: dict[str, Path] = {}  # temporary -> target
    try:
        for target, content in outputs.items():
            if parents:
                made.extend(reversed([d for d in target.parents if not d.is_dir()]))
                target.parent.mkdir(parents=True, exist_ok=True)
            temp = os.path.join(target.parent, f".tidypack-{os.urandom(6).hex()}.tmp")
            staged[temp] = target
            fd = os.open(temp, _CREATE, 0o666)
            made.append(Path(temp))
            with os.fdopen(fd, "wb", _READ_BLOCK) as handle:
                if replace:
                    with suppress(FileNotFoundError):
                        os.chmod(temp, os.stat(target).st_mode & 0o7777)
                if callable(content):
                    content(handle)
                else:
                    handle.write(content)
        if not replace:
            for target in staged.values():
                os.close(os.open(target, _CREATE, 0o666))
                made.append(target)
        for temp, target in staged.items():
            os.replace(temp, target)
    except BaseException as exc:
        for path in reversed(made):
            with suppress(OSError):
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink()
        if isinstance(exc, OSError) and exc.filename in staged:
            exc.filename, exc.filename2 = str(staged[exc.filename]), None
        raise


def md5_hex(data: bytes) -> str:
    """MD5 digest of the given bytes, as lowercase hex."""
    import hashlib

    return hashlib.md5(data).hexdigest()


def _md5_file(path: str, copy: BinaryIO | None = None, size: int | None = None) -> str:
    """MD5 of a file's bytes, read 1 MiB at a time with no buffered reader.

    Each block is also written to ``copy``, if given.  An ``OSError`` from
    opening or reading names ``path`` (reading a directory fails only at the
    first read); one from writing to ``copy`` is raised unchanged.  When
    ``size`` is given and the file did not hold exactly that many bytes up
    to its end, an ``OSError`` (``EIO``) names ``path``: it changed size.
    """
    import hashlib

    digest = hashlib.md5()
    copied = 0
    fd = os.open(path, os.O_RDONLY)
    try:
        while True:
            try:
                block = os.read(fd, _READ_BLOCK)
            except OSError as exc:  # os.read names no file
                exc.filename = path
                raise
            if not block:
                if size is not None and copied != size:
                    raise OSError(errno.EIO, "file changed size while it was archived", path)
                return digest.hexdigest()
            copied += len(block)
            digest.update(block)
            if copy is not None:
                copy.write(block)
    finally:
        os.close(fd)


class ManifestEntry(checked_tuple("ManifestEntry", "path md5")):
    """One checksummed file.

    The constructor refuses a path that is empty or escapes the root and a
    digest that is not 32 lowercase hex digits; ``_make`` builds an entry
    without these checks, from values known to pass them.
    """

    __slots__ = ()

    def __new__(cls, path: str, md5: str):
        if not path or escapes_root(path):
            raise ManifestError(f"manifest path must be relative: {path!r}")
        if not _MD5_HEX_RE.fullmatch(md5):
            raise ManifestError(f"digest for {path!r} must be 32 lowercase hex characters")
        return tuple.__new__(cls, (path, md5))


class ChecksumManifest(checked_tuple("ChecksumManifest", "entries")):
    """A sorted set of path/digest pairs.

    The constructor refuses duplicate paths and sorts the entries by path;
    ``_make`` takes a list that is already sorted and unique as it is.
    """

    __slots__ = ()

    def __new__(cls, entries: list[ManifestEntry]):
        counts = Counter(entry.path for entry in entries)
        duplicates = sorted(path for path, count in counts.items() if count > 1)
        if duplicates:
            raise ManifestError(f"duplicate manifest paths: {', '.join(duplicates)}")
        return tuple.__new__(cls, (sorted(entries, key=lambda entry: entry.path),))

    def paths(self) -> list[str]:
        return [entry.path for entry in self.entries]

    def digest_for(self, path: str) -> str | None:
        for entry in self.entries:
            if entry.path == path:
                return entry.md5
        return None


def serialize_manifest(manifest: ChecksumManifest) -> bytes:
    """Render ``<md5>  <path>`` lines, LF-terminated, sorted by path."""
    lines = [f"{entry.md5}  {entry.path}" for entry in manifest.entries]
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_manifest(data: bytes) -> ChecksumManifest:
    """Parse manifest bytes.

    Blank lines are tolerated.  A digest may carry an ``algorithm:`` prefix;
    only ``md5:`` (or none) is accepted today, anything else raises
    ``ManifestError`` naming the unsupported algorithm.  Each line's digest
    and path are checked once, as ``ManifestEntry`` checks them.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest is not valid UTF-8: {exc}") from None
    entries: list[ManifestEntry] = []
    for line_number, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line:
            continue
        match = _MANIFEST_LINE_RE.fullmatch(line)
        if match is None:
            raise ManifestError(
                f"line {line_number}: expected '<md5>  <path>' (two spaces), got {line!r}"
            )
        algorithm, hex_digest, path = match.groups()
        if algorithm is not None and algorithm != "md5":
            raise ManifestError(
                f"line {line_number}: unsupported digest algorithm {algorithm!r}; only md5 is supported"
            )
        if len(hex_digest) != 32:  # the line's pattern takes only hex digits
            raise ManifestError(f"line {line_number}: digest must be 32 hex characters, got {hex_digest!r}")
        if escapes_root(path):  # never empty: the line's pattern takes at least one character
            raise ManifestError(f"manifest path must be relative: {path!r}")
        entries.append(ManifestEntry._make((path, hex_digest.lower())))
    return ChecksumManifest(entries)


def _named_files(
    root: str | Path,
    include: Callable[[str], bool] | None = None,
    walk: list[tuple[str, int]] | None = None,
) -> list[tuple[str, int]]:
    """The ``(relative path, size)`` pairs of ``walk``, or of a new
    ``walk_files`` walk of ``root`` when it is None, that ``include`` keeps,
    refusing with ``ScanError`` a kept name that a manifest line could not
    hold (``unnamable``)."""
    files = walk_files(root) if walk is None else walk
    if include is not None:
        files = [(rel, size) for rel, size in files if include(rel)]
    for rel, _ in files:
        problem = unnamable(rel)
        if problem:
            raise ScanError(f"file name {problem}: {printable_path(rel)}")
    return files


def compute_manifest(
    root: str | Path, include: Callable[[str], bool] | None = None
) -> ChecksumManifest:
    """Checksum every regular file under ``root`` (symlinks skipped).

    ``include`` filters by root-relative POSIX path; by default everything
    is checksummed, including any existing ``checksums.txt`` (callers that
    maintain a package manifest exclude it themselves).  An included name
    that is not UTF-8 or holds a line break raises ``ScanError``, naming it
    with backslash escapes.  The walk's paths are sorted and unique, so the
    entries are built without the constructors' checks.
    """
    prefix = os.path.join(root, "")
    entries = [ManifestEntry._make((rel, _md5_file(prefix + rel))) for rel, _ in _named_files(root, include)]
    return ChecksumManifest._make((entries,))


class VerifyReport(checked_tuple("VerifyReport", "mismatched missing extra")):
    """How the tree compares against a manifest.

    ``mismatched`` lists manifest paths whose current digest differs,
    ``missing`` lists manifest paths with no file, and ``extra`` lists
    files on disk the manifest does not cover.  Extras are reported but do
    not fail verification.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatched and not self.missing


def verify_manifest(
    root: str | Path,
    manifest: ChecksumManifest,
    include: Callable[[str], bool] | None = None,
    *,
    walk: list[tuple[str, int]] | None = None,
) -> VerifyReport:
    """Recompute digests under ``root`` and compare with the manifest.

    One walk: files the manifest lists are hashed, extras are only named.
    ``walk`` is a walk of ``root`` made earlier, as ``walk_files`` gives it
    (``scan_package`` keeps one); when it is None, the tree is walked here.
    A listed file that is gone when it is opened counts as missing.  An
    included file name that is not UTF-8 or holds a line break raises
    ``ScanError``, as in ``compute_manifest``.
    """
    expected = {entry.path: entry.md5 for entry in manifest.entries}
    mismatched: list[str] = []
    extra: list[str] = []
    prefix = os.path.join(root, "")
    for rel, _ in _named_files(root, include, walk):
        if rel not in expected:
            extra.append(rel)
            continue
        try:
            digest = _md5_file(prefix + rel)
        except FileNotFoundError:  # gone since the walk: left in ``expected``, so missing
            continue
        if digest != expected.pop(rel):
            mismatched.append(rel)
    return VerifyReport(mismatched, sorted(expected), extra)


# ---------------------------------------------------------------------------
# Chunking


class ChunkPlan(checked_tuple("ChunkPlan", "source max_rows_per_chunk data_rows chunk_paths")):
    """What a chunking run produced.

    The constructor refuses a row limit under 1 and a chunk count that the
    rows and the limit do not give.
    """

    __slots__ = ()

    def __new__(cls, source: str, max_rows_per_chunk: int, data_rows: int, chunk_paths: list[str]):
        if max_rows_per_chunk < 1:
            raise ChunkError("max_rows_per_chunk must be at least 1")
        expected = max(1, math.ceil(data_rows / max_rows_per_chunk))
        if len(chunk_paths) != expected:
            raise ChunkError(
                f"{data_rows} rows at {max_rows_per_chunk} per chunk "
                f"needs {expected} chunks, not {len(chunk_paths)}"
            )
        return tuple.__new__(cls, (source, max_rows_per_chunk, data_rows, chunk_paths))


def _chunk_name(stem: str, index: int, suffix: str) -> str:
    return f"{stem}-{index}{suffix}"


_CHUNK_STEM_RE = re.compile(r"(?P<stem>.+)-(?P<index>[0-9]+)")


def chunk_table(source: str | Path, max_rows_per_chunk: int) -> ChunkPlan:
    """Split a table file into row-limited chunks next to it.

    Chunks are named ``<stem>-<k><ext>`` with ``k`` counting from 1, each
    repeating the source's header (and front matter, if any).  A table of
    ``n`` data rows yields ``ceil(n / max_rows_per_chunk)`` chunks, except
    that zero rows still yield one header-only chunk.  The first record is
    the header, whatever it holds, as for every table; a file with no
    record raises the parser's ``CsvError``.  Refuses to overwrite: if any
    target chunk path exists, or appears while the chunks are written, no
    chunk is left behind.
    """
    from .tabular import _csvy_bytes, _csvy_pieces

    if max_rows_per_chunk < 1:
        raise ChunkError("max_rows_per_chunk must be at least 1")
    source = Path(source)
    raw_yaml, _, _, (head, *parts), rows = _csvy_pieces(source.read_bytes(), max_rows_per_chunk)
    parts = parts or [""]  # zero rows still make one header-only chunk
    targets = [
        source.with_name(_chunk_name(source.stem, index, source.suffix))
        for index in range(1, len(parts) + 1)
    ]

    def piece(part: str) -> Callable[[BinaryIO], object]:
        return lambda out: out.write(_csvy_bytes(raw_yaml, [head, part]))

    try:
        publish({target: piece(part) for target, part in zip(targets, parts)})
    except FileExistsError as exc:
        raise ChunkError(f"refusing to overwrite existing file {exc.filename}") from None

    return ChunkPlan(
        source=str(source),
        max_rows_per_chunk=max_rows_per_chunk,
        data_rows=rows,
        chunk_paths=[str(target) for target in targets],
    )


def unchunk(chunk_paths: Sequence[str | Path]) -> bytes:
    """Reassemble chunk files into one canonical table.

    The chunks must share one stem and extension, be numbered contiguously
    from 1 in the order given, and agree on header, front matter, and
    delimiter; the first offending file is named in the error, also when it
    does not parse (``r-2.csv: row 3: unterminated quoted field``).  Returns the
    canonical serialization (LF endings) of the concatenated table.
    """
    if not chunk_paths:
        raise ChunkError("no chunk files given")

    paths = [Path(p) for p in chunk_paths]
    base_stem: str | None = None
    base_suffix: str | None = None
    for expected_index, path in enumerate(paths, start=1):
        match = _CHUNK_STEM_RE.fullmatch(path.stem)
        if match is None:
            raise ChunkError(
                f"{path.name} is not a chunk name; expected '<stem>-<number>{path.suffix or '.csv'}'"
            )
        stem = match.group("stem")
        index = int(match.group("index"))
        if base_stem is None:
            base_stem, base_suffix = stem, path.suffix
        elif stem != base_stem or path.suffix != base_suffix:
            raise ChunkError(
                f"{path.name} does not belong to the {base_stem!r} chunk family"
            )
        if index != expected_index:
            raise ChunkError(
                f"chunk sequence is broken: expected {base_stem}-{expected_index}{base_suffix}, "
                f"got {path.name}"
            )

    from .tabular import _csvy_bytes, _csvy_pieces

    yaml0 = dialect0 = header0 = None  # the first chunk's
    pieces: list[str] = []
    for path in paths:
        try:
            raw_yaml, dialect, header, (head, *rows), _ = _csvy_pieces(path.read_bytes(), checked_yaml=yaml0 or "")
        except (CsvError, EncodingError, FrontMatterError) as exc:
            exc.args = (f"{path.name}: {exc}",)
            raise
        if header0 is None:
            yaml0, dialect0, header0 = raw_yaml, dialect, header
            pieces.append(head)
        elif header != header0:
            raise ChunkError(f"{path.name} has a different header than the first chunk")
        elif raw_yaml != yaml0:
            raise ChunkError(f"{path.name} has different front matter than the first chunk")
        elif dialect != dialect0:
            raise ChunkError(f"{path.name} uses a different delimiter than the first chunk")
        pieces += rows
    return _csvy_bytes(yaml0, pieces)


# ---------------------------------------------------------------------------
# Packing


#: A ustar header's pinned fields, for a file and for a directory (``True``):
#: mode, uid and gid after the name; mtime after the size; and after the
#: checksum, the type flag, link name, magic, version, owner names and device
#: numbers.  ``_FIELDS_SUM`` is their share of the checksum, in which the
#: checksum field itself counts as eight spaces.
_FIELDS = {
    is_dir: (mode + b"0000000\0" b"0000000\0", b"00000000000\0", flag + bytes(100) + b"ustar\x0000" + bytes(80))
    for is_dir, mode, flag in ((False, b"0000644\0", b"0"), (True, b"0000755\0", b"5"))
}
_FIELDS_SUM = {is_dir: sum(b"".join(fields)) + 8 * ord(" ") for is_dir, fields in _FIELDS.items()}


def _ustar_header(name: str, size: int | None) -> bytes:
    """The pinned 512-byte ustar header of a member: a directory when ``size`` is None.

    Byte for byte what ``tarfile`` writes in USTAR format for the member with
    mode 0755 or 0644, owner 0:0, blank owner names and mtime 0.  A name over
    100 bytes is split, as ``tarfile`` splits it, at the first ``/`` that
    leaves at most 100 bytes after it and at most 155 before it.  A name no
    ``/`` splits so, or a size of 8 GiB or more, raises ``PackError``.
    """
    is_dir = size is None
    raw = (name + "/" if is_dir else name).encode("utf-8", "surrogateescape")
    prefix = b""
    if len(raw) > 100:
        cut = raw.find(b"/", len(raw) - 101)  # the first '/' with at most 100 bytes after it
        if not 0 <= cut <= 155:
            raise PackError(f"cannot archive {name}: ustar paths take at most 155 bytes, '/', 100 bytes")
        prefix, raw = raw[:cut], raw[cut + 1 :]
    if not is_dir and size >= 8**11:  # a size field holds 11 octal digits
        raise PackError(f"cannot archive {name}: {size} bytes is over the ustar limit of 8 GiB")
    size_field = b"%011o\0" % (size or 0)
    checksum = _FIELDS_SUM[is_dir] + sum(raw) + sum(prefix) + sum(size_field)
    owner, mtime, rest = _FIELDS[is_dir]
    return b"".join((
        raw.ljust(100, b"\0"), owner, size_field, mtime, b"%06o\0 " % checksum, rest, prefix.ljust(155, b"\0"), bytes(12)
    ))


def pack(
    root: str | Path,
    manifest: ChecksumManifest,
    destination: str | Path,
    *,
    walk: list[tuple[str, int]] | None = None,
) -> Path:
    """Write a byte-reproducible USTAR archive of the manifest's files.

    Each file is read once, through ``_md5_file``: its MD5 is taken over the
    very bytes copied into the archive.  Any mismatched or missing manifest
    entry aborts the pack and leaves nothing at ``destination``, which is
    never overwritten; so does a file whose size changed since the walk,
    with an ``OSError`` naming it.  The archive contains exactly the
    manifest's files plus a generated ``checksums.txt``, with entries sorted
    by path, ``mtime`` pinned to zero, numeric owner 0:0, blank owner names,
    mode 0644 for files and 0755 for directories, and no compression, so
    packing the same tree twice yields identical bytes.

    ``walk`` is a walk of ``root`` made earlier, as ``walk_files`` gives it
    (``scan_package`` keeps one); when it is None, the tree is walked here.
    A listed file that is gone when it is opened counts as missing.

    Headers are written directly, the bytes ``tarfile`` writes for the same
    members.  Before any file is opened, pack refuses a manifest listing
    ``checksums.txt``, a file name that is not UTF-8 or holds a line break
    (``ScanError``, as ``checksum`` and ``verify`` do), a path over ustar's
    255-byte split and a file of 8 GiB or more.
    """
    destination = Path(destination)
    expected = {entry.path: entry.md5 for entry in manifest.entries}
    if CHECKSUMS_NAME in expected:
        raise PackError(f"the manifest may not list {CHECKSUMS_NAME}; the archive embeds a fresh copy")
    sizes = {rel: size for rel, size in _named_files(root, walk=walk) if rel in expected}
    missing = sorted(expected.keys() - sizes.keys())

    directories: set[str] = set()
    for rel in sizes:
        parent = rel.rpartition("/")[0]
        while parent and parent not in directories:
            directories.add(parent)
            parent = parent.rpartition("/")[0]

    manifest_bytes = serialize_manifest(manifest)
    # (name, size, payload): a directory's payload is empty, a file's is None (read from disk).
    members: list[tuple[str, int | None, bytes | None]] = [(d, None, b"") for d in directories]
    members.extend((rel, size, None) for rel, size in sizes.items())
    members.append((CHECKSUMS_NAME, len(manifest_bytes), manifest_bytes))
    members.sort(key=lambda member: member[0])
    headers = [_ustar_header(name, size) for name, size, _ in members]
    prefix = os.path.join(root, "")

    def write(out: BinaryIO) -> None:
        mismatched: list[str] = []
        for (name, size, payload), header in zip(members, headers):
            out.write(header)
            if payload is None:
                try:
                    digest = _md5_file(prefix + name, out, size)
                except FileNotFoundError:  # gone since the walk; the archive is not kept
                    missing.append(name)
                    continue
                if digest != expected[name]:
                    mismatched.append(name)
            else:
                out.write(payload)
            out.write(bytes(-(size or 0) % 512))
        out.write(bytes(1024))  # two zero blocks end the archive
        out.write(bytes(-out.tell() % 10240))  # then tarfile's 20-block record
        problems = []
        if mismatched:
            problems.append("mismatched: " + ", ".join(mismatched))
        if missing:
            problems.append("missing: " + ", ".join(sorted(missing)))
        if problems:
            raise PackError("manifest verification failed; " + "; ".join(problems))

    try:
        publish({destination: write})
    except FileExistsError:
        raise PackError(f"refusing to overwrite existing archive {destination}") from None
    return destination
