"""Independent checks of tidypack's outputs against what the generator knows.

Nothing here imports tidypack.  Each ``check_*`` function takes a command's
exit code and standard output (plus the files it wrote) and returns a list
of problems; an empty list means the output is right.  Digests come from
``hashlib``, archive members from ``tarfile`` and the expected tables from
``fixtures.canonical_table``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tarfile
from pathlib import Path, PurePosixPath

from fixtures import DATASET, EXPECTED_FINDINGS, Fixture

CHECKSUMS = "checksums.txt"

#: Every file ``init`` writes for one dataset with a DOI.
SCAFFOLD_FILES = frozenset(
    {
        "LICENSE",
        "README.md",
        CHECKSUMS,
        "citation",
        f"data/{DATASET}.csv",
        f"data-raw/{DATASET}-cleaning.py",
        f"metadata/{DATASET}-dictionary.csv",
        f"metadata/{DATASET}.json",
    }
)


def _json(stdout: bytes) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"output is not one JSON document: {exc}"]


def _expect_exit(rc: int, want: int = 0) -> list[str]:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def check_help(rc: int, stdout: bytes) -> list[str]:
    problems = _expect_exit(rc)
    if not stdout.startswith(b"usage: tidypack"):
        problems.append("help text does not start with the usage line")
    return problems


def check_init(rc: int, stdout: bytes, fixture: Fixture, dest: Path) -> list[str]:
    doc, problems = _json(stdout)
    problems += _expect_exit(rc)
    if doc is not None and set(doc.get("files", [])) != SCAFFOLD_FILES:
        problems.append(f"init listed {sorted(doc.get('files', []))}")
    copied = dest / "data" / f"{DATASET}.csv"
    if not copied.is_file() or hashlib.md5(copied.read_bytes()).hexdigest() != fixture.seed_md5:
        problems.append("seed table was not copied byte for byte")
    return problems


def package_digests(fixture: Fixture, package: Path) -> dict[str, str]:
    """The manifest a package should have: every file except the manifest.

    Files the generator wrote carry the digest of the bytes it wrote; the
    files ``init`` generated are hashed from disk.
    """
    known = {rel: hashlib.md5(payload).hexdigest() for rel, payload in fixture.extra_files.items()}
    known[f"data/{DATASET}.csv"] = fixture.seed_md5
    digests = {}
    for dirpath, _, filenames in os.walk(package):
        for name in filenames:
            path = Path(dirpath, name)
            rel = path.relative_to(package).as_posix()
            if rel == CHECKSUMS:
                continue
            digests[rel] = known.get(rel) or hashlib.md5(path.read_bytes()).hexdigest()
    missing = set(known) - set(digests)
    if missing:
        raise FileNotFoundError(f"generated files vanished from the package: {sorted(missing)[:3]}")
    return digests


def _read_manifest(data: bytes) -> dict[str, str]:
    manifest = {}
    for line in data.decode("utf-8").splitlines():
        digest, _, path = line.partition("  ")
        manifest[path] = digest
    return manifest


def check_checksum(rc: int, stdout: bytes, expected: dict[str, str], written: Path) -> list[str]:
    doc, problems = _json(stdout)
    problems += _expect_exit(rc)
    if doc is not None:
        reported = {entry["path"]: entry["md5"] for entry in doc.get("entries", [])}
        if reported != expected:
            wrong = sorted(set(reported.items()) ^ set(expected.items()))
            problems.append(f"reported digests differ from the generator's, e.g. {wrong[:2]}")
    if not written.is_file() or _read_manifest(written.read_bytes()) != expected:
        problems.append(f"{written.name} does not hold the expected digests")
    return problems


def check_verify(rc: int, stdout: bytes) -> list[str]:
    doc, problems = _json(stdout)
    problems += _expect_exit(rc)
    if doc is not None and (not doc.get("ok") or doc.get("mismatched") or doc.get("missing") or doc.get("extra")):
        problems.append(f"verify verdict {doc}")
    return problems


def check_lint(rc: int, stdout: bytes) -> list[str]:
    doc, problems = _json(stdout)
    problems += _expect_exit(rc)
    if doc is not None:
        found = tuple((f["rule_id"], f["severity"]) for f in doc.get("findings", []))
        if doc.get("pass") is not True or found != EXPECTED_FINDINGS:
            problems.append(f"lint verdict pass={doc.get('pass')} findings={found}")
    return problems


def check_infer(rc: int, stdout: bytes, fixture: Fixture) -> list[str]:
    doc, problems = _json(stdout)
    problems += _expect_exit(rc)
    if doc is not None:
        fields = [(f["name"], f["type"]) for f in doc.get("schema", {}).get("fields", [])]
        if fields != [tuple(pair) for pair in fixture.seed_types]:
            problems.append(f"inferred {fields}, generator wrote {fixture.seed_types}")
    return problems


def check_validate(rc: int, stdout: bytes) -> list[str]:
    doc, problems = _json(stdout)
    problems += _expect_exit(rc)
    if doc is not None and (doc.get("ok") is not True or doc.get("violations")):
        problems.append(f"validate found {len(doc.get('violations', []))} violation(s) in a conforming table")
    return problems


def archive_members(manifest_paths) -> list[str]:
    """Manifest files, every directory above them, and the embedded manifest."""
    names = {CHECKSUMS}
    for rel in manifest_paths:
        names.add(rel)
        parent = PurePosixPath(rel).parent
        while parent != PurePosixPath("."):
            names.add(parent.as_posix())
            parent = parent.parent
    return sorted(names)


def check_pack(rc: int, stdout: bytes, archive: Path, manifest_paths) -> list[str]:
    _, problems = _json(stdout)
    problems += _expect_exit(rc)
    if not archive.is_file():
        return problems + ["no archive written"]
    with tarfile.open(archive) as tar:
        names = tar.getnames()
    if names != archive_members(manifest_paths):
        problems.append(f"archive holds {len(names)} members, expected {len(archive_members(manifest_paths))}")
    return problems


def check_chunk(rc: int, stdout: bytes, fixture: Fixture) -> list[str]:
    doc, problems = _json(stdout)
    problems += _expect_exit(rc)
    if doc is not None:
        if doc.get("data_rows") != fixture.table_rows:
            problems.append(f"chunk counted {doc.get('data_rows')} rows, generator wrote {fixture.table_rows}")
        chunks = doc.get("chunks", [])
        if len(chunks) != fixture.chunk_count or not all(Path(c).is_file() for c in chunks):
            problems.append(f"expected {fixture.chunk_count} chunk files, got {chunks}")
    return problems


def check_unchunk(rc: int, stdout: bytes, fixture: Fixture, output: Path) -> list[str]:
    _, problems = _json(stdout)
    problems += _expect_exit(rc)
    if not output.is_file() or output.read_bytes() != fixture.canonical:
        problems.append("reassembled table differs from the generator's canonical rendering")
    return problems
