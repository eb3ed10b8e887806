"""Seeded fixtures for the tidypack benchmark, and the answers they imply.

Every workload is generated from ``(workload, seed)`` alone: the same pair
always writes byte-identical files.  The generator also returns what it knows
about those files without asking tidypack: column types, digests of the bytes
it wrote, and the canonical rendering (LF endings, minimal quoting) of every
table it chunks.  ``oracle.py`` compares the program's outputs against these.
"""

from __future__ import annotations

import datetime
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: Name of the dataset every workload scaffolds.
DATASET = "survey"

#: Fixture sizes per workload.  ``seed_rows`` sizes the quote-free table
#: scaffolded into the package, which lint and schema read.  With
#: ``quoted_rows`` set, ``chunk`` splits a quote-heavy csvy file of that many
#: rows; otherwise it splits a copy of the seed table.
SIZES = {
    "table-lint": {"seed_rows": 20_000, "quoted_rows": 20_000, "chunks": 8, "files": 0, "dirs": 0},
    "tree-fixity": {"seed_rows": 300, "quoted_rows": 0, "chunks": 4, "files": 2_000, "dirs": 200},
}

WORKLOADS = tuple(SIZES)

#: Field types of the quote-free table, in column order.
PLAIN_COLUMNS = (("id", "integer"), ("code", "string"), ("day", "date"), ("amount", "number"), ("flag", "boolean"))

#: Extra ``init`` arguments; with them a scaffolded package lints with a
#: single finding, R10 (no raw data), at info severity.
INIT_ARGS = ("--license", "ccby", "--author", "Ada Bench <0000-0002-1825-0097>", "--doi", "10.5281/zenodo.123456", "--year", "2020")
EXPECTED_FINDINGS = (("R10", "info"),)

_WORDS = (
    "alpha", "basin", "cedar", "delta", "ember", "fjord", "glade", "heath", "inlet", "jetty",
    "knoll", "ledge", "marsh", "nook", "oasis", "plain", "quay", "ridge", "shoal", "tundra",
)
_USTAR_PATH_LIMIT = 255


@dataclass
class Fixture:
    """Generated inputs plus the answers the oracle checks against."""

    root: Path
    seed_table: Path  # scaffolded into the package by ``init --seed``
    seed_md5: str
    seed_types: list[tuple[str, str]]  # (column, field type) of seed_table
    table: Path  # what ``chunk`` splits
    table_rows: int
    chunk_rows: int  # the ``--max-rows`` argument
    canonical: bytes  # canonical rendering of ``table``, what ``unchunk`` must return
    extra_files: dict[str, bytes]  # tree-fixity files: package-relative path -> content

    @property
    def chunk_count(self) -> int:
        return max(1, math.ceil(self.table_rows / self.chunk_rows))


def _plain_rows(rng: random.Random, count: int) -> list[list[str]]:
    start = datetime.date(2000, 1, 1).toordinal()
    span = datetime.date(2024, 12, 31).toordinal() - start
    rows = []
    for index in range(count):
        rows.append(
            [
                str(index * 7 + rng.randrange(7)),
                rng.choice("ABCDEFGH") + f"{rng.randrange(10_000):04d}",
                datetime.date.fromordinal(start + rng.randrange(span + 1)).isoformat(),
                f"{rng.randrange(10_000_000) / 100:.2f}",
                rng.choices(("true", "false", "NA"), weights=(45, 45, 10))[0],
            ]
        )
    return rows


def _quoted_rows(rng: random.Random, count: int) -> list[list[str]]:
    rows = []
    for index in range(count):
        words = rng.sample(_WORDS, 4)
        name = f'{words[0].title()}, "{words[1]}" {words[2].title()}'
        note = " ".join(rng.choices(_WORDS, k=rng.randrange(2, 7)))
        if rng.random() < 0.3:
            note = note.replace(" ", "\n", 1)
        if rng.random() < 0.3:
            note = f'{note} ""{words[3]}""'
        rows.append([str(index + 1), name, note, f"{rng.randrange(100_000) / 10:.1f}", words[3]])
    return rows


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def _render_canonical(cell: str) -> str:
    if '"' in cell or "," in cell or "\n" in cell or "\r" in cell:
        return _quote(cell)
    return cell


def canonical_table(header: list[str], rows: list[list[str]], front_yaml: str = "") -> bytes:
    """Canonical bytes of a table: front matter verbatim, LF, minimal quoting."""
    lines = [",".join(_render_canonical(c) for c in row) for row in [header, *rows]]
    body = ("\n".join(lines) + "\n").encode("utf-8")
    if front_yaml:
        return b"---\n" + front_yaml.encode("utf-8") + b"---\n" + body
    return body


def _plain_table(rng: random.Random, count: int) -> tuple[list[list[str]], bytes]:
    rows = _plain_rows(rng, count)
    return rows, canonical_table([name for name, _ in PLAIN_COLUMNS], rows)


def _csvy_table(rng: random.Random, count: int, seed: int) -> tuple[bytes, bytes]:
    """A CRLF csvy file with every text cell quoted, and its canonical form."""
    header = ["id", "name", "note", "score", "place"]
    rows = _quoted_rows(rng, count)
    front_yaml = "".join(
        f"{line}\r\n"
        for line in ("title: Seeded field notes", "source: tidypack benchmark generator", f"seed: {seed}", f"rows: {count}")
    )
    lines = [",".join(_quote(c) for c in header)]
    lines.extend(",".join((row[0], _quote(row[1]), _quote(row[2]), row[3], _quote(row[4]))) for row in rows)
    raw = ("---\r\n" + front_yaml + "---\r\n" + "\r\n".join(lines) + "\r\n").encode("utf-8")
    return raw, canonical_table(header, rows, front_yaml)


def _tree_files(rng: random.Random, files: int, dirs: int) -> dict[str, bytes]:
    """``files`` random payloads of 64 B to 4 KB spread over ``dirs`` directories.

    The directories form one random tree under ``assets/``, of depth 1 to 16:
    a first chain reaches depth 16, and each later directory hangs under a
    random directory above that depth.
    """
    depth = {"assets": 0}
    for index in range(dirs):
        if index < 16:
            parent = "assets" if index == 0 else next(reversed(depth))
        else:
            parent = rng.choice([name for name, level in depth.items() if level < 16])
        depth[f"{parent}/{rng.choice(_WORDS)[:4]}{index}"] = depth[parent] + 1
    directories = list(depth)[1:]
    tree = {}
    for index in range(files):
        path = f"{directories[index % dirs]}/f{index:05d}.bin"
        if len(path.encode("utf-8")) > _USTAR_PATH_LIMIT:
            raise ValueError(f"generated path exceeds the USTAR limit: {path}")
        tree[path] = rng.randbytes(64 + rng.randrange(4096 - 64 + 1))
    return tree


def generate(workload: str, seed: int, root: str | Path, sizes: dict | None = None) -> Fixture:
    """Write the inputs of one workload under ``root`` (created, must be new).

    The package itself is not written here: ``init --seed`` builds it from
    ``seed_table``, and ``add_extra_files`` then writes ``extra_files``.
    """
    sizes = dict(SIZES[workload], **(sizes or {}))
    rng = random.Random(f"{workload}:{seed}")
    root = Path(root)
    root.mkdir(parents=True)
    inputs = root / "inputs"
    inputs.mkdir()

    rows, seed_bytes = _plain_table(rng, sizes["seed_rows"])
    seed_table = inputs / f"{DATASET}.csv"
    seed_table.write_bytes(seed_bytes)

    chunk_dir = root / "chunks"
    chunk_dir.mkdir()
    if sizes["quoted_rows"]:
        raw, canonical = _csvy_table(rng, sizes["quoted_rows"], seed)
        table = chunk_dir / "notes.csvy"
        table.write_bytes(raw)
        table_rows = sizes["quoted_rows"]
    else:
        # The quote-free table is already canonical; chunk a copy of it.
        table = chunk_dir / f"{DATASET}.csv"
        table.write_bytes(seed_bytes)
        canonical, table_rows = seed_bytes, len(rows)

    return Fixture(
        root=root,
        seed_table=seed_table,
        seed_md5=hashlib.md5(seed_bytes).hexdigest(),
        seed_types=list(PLAIN_COLUMNS),
        table=table,
        table_rows=table_rows,
        chunk_rows=math.ceil(table_rows / sizes["chunks"]),
        canonical=canonical,
        extra_files=_tree_files(rng, sizes["files"], sizes["dirs"]),
    )


def add_extra_files(fixture: Fixture, package: Path) -> None:
    """Write the tree-fixity files into a scaffolded package."""
    made: set[Path] = set()
    for rel, payload in fixture.extra_files.items():
        target = package / rel
        if target.parent not in made:
            target.parent.mkdir(parents=True, exist_ok=True)
            made.add(target.parent)
        target.write_bytes(payload)
