"""The data-package domain model and the directory scanner that builds it.

A package follows a fixed layout: documentation files at the top level
(README, LICENSE, citation, checksums.txt), analysis-ready tables under
``data/``, raw inputs and cleaning scripts under ``data-raw/``, and
machine-readable descriptions under ``metadata/``.  Scanning inventories
every regular file exactly once: into a dataset, the package-level pool,
one of the special top-level slots, or the unclassified list.  A dataset
and the pool share one bucket type, ``PackagePool``, so each of the five
file buckets is declared once.

The scanner reads the fixity code's walk and path rules (``integrity``,
which loads none of this module), so it sees the files ``checksum`` sees.
It walks the tree once and keeps the walk on the package
(``DataPackage.walk``), which lint's R16 and ``pack --require-lint`` read
instead of walking again.  Each file has one reference, the ``FileRef``
built from the walk without the constructor's checks (``_walked_ref``): a
slot holds that same object (the license slot a ``LicenseRef`` copy that
adds what its content was recognized as), and one pass over the walk sorts
the files into the top-level names and the direct children of the three
layout directories before anything is claimed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from pathlib import Path, PurePosixPath

from .errors import ScanError
from .integrity import CHECKSUMS_NAME, escapes_root, printable_path, walk_files
from .licenses import LicenseKind, detect_license

DATA_DIR = "data"
RAW_DIR = "data-raw"
METADATA_DIR = "metadata"

#: A DOI, which ``init`` accepts only in full and lint's R07 finds by search:
#: its suffix holds no whitespace, double quote or angle bracket.
DOI_PATTERN = r'10\.[0-9]{4,}(?:\.[0-9]+)*/[^\s"<>]+'

_DICTIONARY_SUFFIX = "-dictionary"

#: A license is recognized from this much of its file: a title past it is not seen.
_LICENSE_PREFIX_BYTES = 1 << 20


class FileKind(str, enum.Enum):
    """What a file is, judged by extension and location."""

    PLAIN_TEXT_TABLE = "plain_text_table"
    BINARY_DATA = "binary_data"
    SCRIPT = "script"
    METADATA = "metadata"
    DOCUMENT = "document"
    OTHER = "other"


_TABLE_EXTENSIONS = frozenset({"csv", "tsv", "txt", "csvy"})
_BINARY_EXTENSIONS = frozenset(
    {"rds", "rda", "rdata", "sav", "dta", "sas7bdat", "xlsx", "xls", "parquet", "feather", "fits"}
)
_SCRIPT_EXTENSIONS = frozenset({"r", "py", "jl", "sh", "do", "sas", "sql"})
_METADATA_EXTENSIONS = frozenset({"json", "yml", "yaml"})
_DOCUMENT_EXTENSIONS = frozenset({"md", "pdf"})


def classify_file(path: str | PurePosixPath) -> FileKind:
    """Classify a relative path by extension.

    ``.txt`` counts as a document at the package top level and as a
    plain-text table anywhere else.  Unknown or missing extensions are
    ``OTHER``.
    """
    path = str(path)
    name = path.rpartition("/")[2]
    dot = name.rfind(".")  # PurePosixPath.suffix: not a leading or trailing dot
    extension = name[dot + 1 :].lower() if 0 < dot < len(name) - 1 else ""
    top_level = "/" not in path
    if extension in _TABLE_EXTENSIONS:
        if extension == "txt" and top_level:
            return FileKind.DOCUMENT
        return FileKind.PLAIN_TEXT_TABLE
    if extension in _BINARY_EXTENSIONS:
        return FileKind.BINARY_DATA
    if extension in _SCRIPT_EXTENSIONS:
        return FileKind.SCRIPT
    if extension in _METADATA_EXTENSIONS:
        return FileKind.METADATA
    if extension in _DOCUMENT_EXTENSIONS:
        return FileKind.DOCUMENT
    return FileKind.OTHER


@dataclass(frozen=True)
class FileRef:
    """One regular file inside a package, by root-relative POSIX path."""

    path: str
    size_bytes: int
    kind: FileKind

    def __post_init__(self):
        if not self.path:
            raise ScanError("file path must be non-empty")
        if escapes_root(self.path):
            raise ScanError(f"file path must be relative and stay inside the package: {self.path!r}")
        if self.size_bytes < 0:
            raise ScanError(f"negative size for {self.path!r}")

    @property
    def name(self) -> str:
        return PurePosixPath(self.path).name

    @property
    def stem(self) -> str:
        return PurePosixPath(self.path).stem


def _walked_ref(rel: str, size: int) -> FileRef:
    """The ``FileRef`` of a file the walk found, without ``__post_init__``'s
    checks: the walk makes only non-empty paths inside the root."""
    ref = object.__new__(FileRef)
    vars(ref).update(path=rel, size_bytes=size, kind=classify_file(rel))  # a frozen class takes no setattr
    return ref


@dataclass(frozen=True)
class LicenseRef(FileRef):
    """The package's license file plus what its content was recognized as."""

    detected: LicenseKind = field(kw_only=True)


@dataclass(frozen=True)
class PackagePool:
    """Files that follow the layout but belong to no single dataset.

    The five buckets are also the shape of a ``Dataset``.
    """

    data_files: list[FileRef] = field(default_factory=list)
    raw_files: list[FileRef] = field(default_factory=list)
    scripts: list[FileRef] = field(default_factory=list)
    metadata_files: list[FileRef] = field(default_factory=list)
    dictionary_files: list[FileRef] = field(default_factory=list)

    def file_refs(self) -> list[FileRef]:
        """Every FileRef in the buckets, bucket by bucket in declaration order."""
        return [ref for bucket in fields(PackagePool) for ref in getattr(self, bucket.name)]


@dataclass(frozen=True)
class Dataset(PackagePool):
    """One dataset and every file attached to it.

    A dataset is named by the stem of a table directly under ``data/``.
    Raw files, scripts, metadata, and dictionaries attach by stem prefix.
    """

    name: str = field(kw_only=True)

    def __post_init__(self):
        if not self.name:
            raise ScanError("dataset name must be non-empty")


@dataclass(frozen=True)
class DataPackage:
    """Everything the scanner found, with each file in exactly one place.

    The documentation slots ``readme``, ``citation`` and ``checksums`` are
    each a ``FileRef`` or None, and ``license`` a ``LicenseRef`` or None.
    ``walk`` is the scan's walk of ``root``, every regular file as
    ``(path, size)`` sorted by path, as ``walk_files`` gives it; it is None
    in a package the scanner did not build, and takes no part in equality.
    """

    root: Path
    datasets: list[Dataset]
    readme: FileRef | None
    license: LicenseRef | None
    citation: FileRef | None
    checksums: FileRef | None
    pool: PackagePool = field(default_factory=PackagePool)
    unclassified: list[FileRef] = field(default_factory=list)
    walk: list[tuple[str, int]] | None = field(default=None, compare=False, repr=False)

    def dataset(self, name: str) -> Dataset:
        for ds in self.datasets:
            if ds.name == name:
                return ds
        raise KeyError(f"no dataset named {name!r}")

    def all_refs(self) -> list[FileRef]:
        """Every inventoried file, documentation slots included, sorted by path."""
        refs = [ref for owner in (*self.datasets, self.pool) for ref in owner.file_refs()]
        slots = (self.readme, self.license, self.citation, self.checksums)
        documents = [doc for doc in slots if doc is not None]
        return sorted(refs + self.unclassified + documents, key=lambda ref: ref.path)

    def all_paths(self) -> list[str]:
        """Every inventoried path, documentation slots included, sorted."""
        return [ref.path for ref in self.all_refs()]


def iter_files(root: str | Path) -> list[Path]:
    """All regular files under ``root`` as paths, sorted by relative POSIX path.

    The ``Path`` view of ``walk_files``: same files, same order, same
    handling of symlinks and cycles.
    """
    root = Path(root)
    return [root / rel for rel, _ in walk_files(root)]


_SPECIAL_STEMS = ("readme", "license", "citation")


def _special_rank(name: str) -> tuple[int, str]:
    suffix = PurePosixPath(name).suffix.lower()
    if suffix == ".md":
        return (0, name)
    if suffix == "":
        return (1, name)
    return (2, name)


def is_dictionary_stem(stem: str) -> bool:
    return stem == "dictionary" or stem.endswith(_DICTIONARY_SUFFIX)


def _dictionary_prefix(stem: str) -> str | None:
    """The dataset stem a dictionary file names, or None for a bare one."""
    if stem.endswith(_DICTIONARY_SUFFIX):
        return stem[: -len(_DICTIONARY_SUFFIX)]
    return None


def scan_package(root: str | Path) -> DataPackage:
    """Inventory a package directory into the domain model.

    Reads the directory tree, once, and the license file's first MiB (for
    recognition); nothing is written.  Raises ``FileNotFoundError`` or
    ``NotADirectoryError`` for a bad root and lets other ``OSError``s
    propagate.
    """
    root = Path(root)
    if not root.exists():
        raise FileNotFoundError(f"package root does not exist: {root}")
    if not root.is_dir():
        raise NotADirectoryError(f"package root is not a directory: {root}")

    # Keyed in walk_files' sorted path order, which every listing below keeps.
    walk = walk_files(root)
    refs = {rel: _walked_ref(rel, size) for rel, size in walk}

    # The one pass over every file: the layout names only top-level files
    # and the direct children of its three directories.  Deeper paths follow
    # no layout rule.
    top_level: list[str] = []
    children: dict[str, list[FileRef]] = {DATA_DIR: [], RAW_DIR: [], METADATA_DIR: []}
    for rel, ref in refs.items():
        directory, _, name = rel.partition("/")
        if not name:
            top_level.append(rel)
        elif directory in children and "/" not in name:
            children[directory].append(ref)

    def claim(rel: str) -> FileRef:
        """The file's reference, taken out of ``refs``: what is left there is unclassified."""
        return refs.pop(rel)

    # Special top-level slots.  Among case-insensitive stem matches, prefer
    # .md, then no extension, then anything else (alphabetically).
    special: dict[str, FileRef] = {}
    for slot in _SPECIAL_STEMS:
        candidates = [
            rel for rel in top_level if PurePosixPath(rel).stem.casefold() == slot
        ]
        if candidates:
            special[slot] = claim(min(candidates, key=_special_rank))

    license_ref = None
    if "license" in special:
        ref = special["license"]
        try:
            with open(root / ref.path, "rb") as handle:
                text = handle.read(_LICENSE_PREFIX_BYTES).decode("utf-8", errors="replace")
            detected = detect_license(text)
        except OSError:
            detected = LicenseKind.UNKNOWN
        license_ref = LicenseRef(
            path=ref.path, size_bytes=ref.size_bytes, kind=ref.kind, detected=detected
        )

    # The manifest is exactly the file ``verify`` and ``pack`` read.
    checksums = refs.pop(CHECKSUMS_NAME, None)

    # Datasets are named by table stems directly under data/, dictionaries
    # excluded.
    dataset_names = sorted(
        {
            ref.stem
            for ref in children[DATA_DIR]
            if ref.kind is FileKind.PLAIN_TEXT_TABLE and not is_dictionary_stem(ref.stem)
        }
    )

    datasets = {name: Dataset(name=name) for name in dataset_names}
    pool = PackagePool()

    def attach(ref: FileRef, bucket: str, owner: PackagePool) -> None:
        getattr(owner, bucket).append(claim(ref.path))

    def by_prefix(ref: FileRef) -> PackagePool:
        """The dataset whose name is the longest prefix of the file stem; else the pool."""
        matches = [name for name in dataset_names if ref.stem.startswith(name)]
        return datasets[max(matches, key=len)] if matches else pool

    def attach_dictionary(ref: FileRef) -> None:
        attach(ref, "dictionary_files", datasets.get(_dictionary_prefix(ref.stem), pool))

    for ref in children[DATA_DIR]:
        if ref.kind is FileKind.PLAIN_TEXT_TABLE and is_dictionary_stem(ref.stem):
            attach_dictionary(ref)
        elif ref.kind is FileKind.PLAIN_TEXT_TABLE:
            attach(ref, "data_files", datasets[ref.stem])
        else:
            attach(ref, "data_files", pool)

    for ref in children[RAW_DIR]:
        attach(ref, "scripts" if ref.kind is FileKind.SCRIPT else "raw_files", by_prefix(ref))

    for ref in children[METADATA_DIR]:
        if ref.kind is FileKind.PLAIN_TEXT_TABLE and is_dictionary_stem(ref.stem):
            attach_dictionary(ref)
        elif ref.kind is FileKind.METADATA:
            attach(ref, "metadata_files", by_prefix(ref))
        # anything else under metadata/ stays unclaimed -> unclassified

    # A single-dataset package has no attachment ambiguity: everything left
    # in the pool belongs to that dataset, except the non-table files under
    # data/, which no dataset can own.
    if len(datasets) == 1:
        (only,) = datasets.values()
        for bucket in fields(PackagePool):
            if bucket.name != "data_files":
                getattr(only, bucket.name).extend(getattr(pool, bucket.name))
        pool = PackagePool(data_files=pool.data_files)

    return DataPackage(
        root=root,
        datasets=[datasets[name] for name in dataset_names],
        readme=special.get("readme"),
        license=license_ref,
        citation=special.get("citation"),
        checksums=checksums,
        pool=pool,
        unclassified=list(refs.values()),
        walk=walk,
    )
