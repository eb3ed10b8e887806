"""Child process of the traced run: spans around calls into tidypack's layers.

Run by ``run.py --trace 1``, never by hand::

    python3 bench/tracing.py command OUT.json WORKLOAD -- ARGV...
    python3 bench/tracing.py layers OUT.json WORKLOAD GROUP PARAMS.json

``command`` replays one CLI command through ``tidypack.cli.main`` and
records its ``/proc/self/io`` read and write counters.  ``layers`` calls
one group of layer functions directly and times each call.  Both wrap the
public functions listed in ``LAYERS`` in every tidypack module that binds
them, keep the spans in memory and write them, with the results, to
``OUT.json`` when the work is done.  Each replay runs in a fresh process,
so no parsed table survives from one timed call into the next.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import json
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

#: Public functions wrapped per layer.  Per-cell helpers such as
#: ``is_date_token`` are left out: a span per cell would swamp the work.
LAYERS = {
    "cli": ("main",),
    "tabular": ("parse_table", "parse_csvy", "read_csvy", "detect_dialect", "serialize_table", "serialize_csvy", "detect_missing_tokens"),
    "schema": (
        "infer_schema",
        "validate_table",
        "schema_from_json",
        "schema_to_json",
        "dictionary_from_schema",
        "dictionary_from_csv",
        "dictionary_to_csv",
        "dictionary_to_markdown",
    ),
    "lint": ("lint_package", "load_config", "report_to_json", "report_to_text"),
    "model": ("iter_files", "scan_package"),
    "integrity": ("compute_manifest", "verify_manifest", "parse_manifest", "serialize_manifest", "chunk_table", "unchunk", "pack", "md5_hex"),
    "scaffold": ("scaffold",),
}

#: Rules that read the data tables; their time includes a table parse.
TABLE_RULES = ("R04", "R09", "R12", "R13", "R14", "R15")


class Tracer:
    """Records one span per wrapped call: name, start, end and parent."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter_ns(), "end": None,
                    "parent": self._open[-1] if self._open else None, "workload": self.workload}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._open.pop()

        return traced

    def install(self) -> None:
        """Replace each listed function in every tidypack module that binds it."""
        modules = [importlib.import_module(f"tidypack.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("tidypack"))
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"tidypack.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr in [a for a, value in vars(module).items() if value is original]:
                        setattr(module, attr, wrapped)

    def seconds(self, name: str, since: int = 0) -> float:
        """Total time in outermost spans called ``name`` recorded from ``since`` on."""
        total = 0
        for span in self.spans[since:]:
            if span["name"] == name and not self._inside(span, name):
                total += span["end"] - span["start"]
        return total / 1e9

    def _inside(self, span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False


def _read_io() -> dict[str, int]:
    counters = {}
    with open("/proc/self/io") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            counters[key] = int(value)
    return counters


def _timed(function, *args, **kwargs):
    gc.collect()
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def replay_command(argv: list[str]) -> dict:
    from tidypack import cli

    before = _read_io()
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
    after = _read_io()
    return {
        "rc": rc,
        "read_bytes": after["rchar"] - before["rchar"],
        "write_bytes": after["wchar"] - before["wchar"],
    }


def layer_table(tracer: Tracer, params: dict) -> dict:
    """tabular and schema on the package's data table, one timed call each."""
    from tidypack.schema import DEFAULT_MISSING_VALUES, infer_schema, validate_table
    from tidypack.tabular import CsvTable, detect_missing_tokens, parse_csvy, serialize_csvy

    data = Path(params["table"]).read_bytes()
    (front, table), parse_s = _timed(parse_csvy, data)
    _, ctor_s = _timed(CsvTable, header=table.header, rows=table.rows, dialect=table.dialect)
    _, serialize_s = _timed(serialize_csvy, front, table)

    def profile():
        for index in range(table.width):
            detect_missing_tokens([row[index] for row in table.rows], DEFAULT_MISSING_VALUES)

    _, missing_s = _timed(profile)
    schema, infer_s = _timed(infer_schema, table)
    report, validate_s = _timed(validate_table, table, schema)
    return {
        "tabular.parse_s": parse_s,
        "tabular.parse_mb_per_s": len(data) / 1e6 / parse_s,
        "tabular.table_ctor_s": ctor_s,
        "tabular.serialize_s": serialize_s,
        "tabular.missing_profile_s": missing_s,
        "tabular.rows": len(table.rows),
        "tabular.cells": len(table.rows) * table.width,
        "schema.infer_s": infer_s,
        "schema.validate_s": validate_s,
        "schema.violations": len(report.violations),
    }


def layer_alloc(tracer: Tracer, params: dict) -> dict:
    """Peak traced allocation of one parse, in a pass of its own."""
    from tidypack.tabular import parse_csvy

    data = Path(params["table"]).read_bytes()
    gc.collect()
    tracemalloc.start()
    try:
        parse_csvy(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"tabular.parse_peak_alloc_x": peak / len(data)}


def layer_lint(tracer: Tracer, params: dict) -> dict:
    """The whole lint, then each rule alone with every other rule off."""
    from tidypack.lint import RULES, LintConfig, lint_package
    from tidypack.model import scan_package

    package = scan_package(params["package"])
    mark = len(tracer.spans)
    report, total_s = _timed(lint_package, package)
    table_parse_s = tracer.seconds("tabular.read_csvy", mark)
    out = {
        "lint.total_s": total_s,
        "lint.table_parse_s": table_parse_s,
        "lint.parse_share": table_parse_s / total_s,
        "lint.findings": len(report.findings),
    }
    del report
    for rule in RULES:
        config = LintConfig(levels={other.id: "off" for other in RULES if other is not rule})
        mark = len(tracer.spans)
        _, rule_s = _timed(lint_package, package, config)
        out[f"lint.rule.{rule.id}_s"] = rule_s
        if rule.id in TABLE_RULES:
            out[f"lint.rule.{rule.id}.self_s"] = rule_s - tracer.seconds("tabular.read_csvy", mark)
    return out


def layer_tree(tracer: Tracer, params: dict) -> dict:
    """model, integrity and scaffold on the package, chunking the chunk source."""
    from tidypack.integrity import chunk_table, compute_manifest, pack, unchunk, verify_manifest
    from tidypack.licenses import CLI_CHOICES
    from tidypack.model import iter_files, scan_package
    from tidypack.scaffold import Author, ScaffoldRequest, scaffold

    root = Path(params["package"])
    scratch = Path(params["scratch"])
    files, iter_s = _timed(iter_files, root)
    dirs = {parent for path in files for parent in path.relative_to(root).parents if parent != Path(".")}
    _, scan_s = _timed(scan_package, root)
    def covered(rel: str) -> bool:  # the CLI's own filter
        return rel != "checksums.txt"

    manifest, manifest_s = _timed(compute_manifest, root, include=covered)
    hashed = sum((root / entry.path).stat().st_size for entry in manifest.entries)
    _, verify_s = _timed(verify_manifest, root, manifest, include=covered)
    archive = scratch / "layer.tar"
    _, pack_s = _timed(pack, root, manifest, archive)
    tar_bytes = archive.stat().st_size
    archive.unlink()

    source = scratch / "chunks" / Path(params["chunk_source"]).name
    source.parent.mkdir()
    shutil.copyfile(params["chunk_source"], source)
    plan, chunk_s = _timed(chunk_table, source, params["chunk_rows"])
    data, unchunk_s = _timed(unchunk, plan.chunk_paths)
    unchunk_md5 = hashlib.md5(data).hexdigest()
    shutil.rmtree(source.parent)

    request = ScaffoldRequest(
        package_name="layer",
        dataset_names=[params["dataset"]],
        license=CLI_CHOICES["ccby"],
        authors=[Author(name="Ada Bench", orcid="0000-0002-1825-0097")],
        doi="10.5281/zenodo.123456",
        year=2020,
        seed_tables=[Path(params["seed_table"])],
    )
    _, scaffold_s = _timed(scaffold, request, scratch / "layer-package")
    shutil.rmtree(scratch / "layer-package")
    return {
        "model.iter_files_s": iter_s,
        "model.scan_s": scan_s,
        "model.files": len(files),
        "model.dirs": len(dirs),
        "integrity.manifest_s": manifest_s,
        "integrity.hash_mb_per_s": hashed / 1e6 / manifest_s,
        "integrity.bytes_hashed": hashed,
        "integrity.verify_s": verify_s,
        "integrity.pack_s": pack_s,
        "integrity.tar_bytes": tar_bytes,
        "integrity.chunk_s": chunk_s,
        "integrity.unchunk_s": unchunk_s,
        "integrity.unchunk_md5": unchunk_md5,
        "scaffold.s": scaffold_s,
    }


LAYER_GROUPS = {"table": layer_table, "alloc": layer_alloc, "lint": layer_lint, "tree": layer_tree}


def main(argv: list[str]) -> int:
    mode, out, workload, *rest = argv
    tracer = Tracer(workload)
    tracer.install()
    if mode == "command" and rest[:1] == ["--"]:
        result = replay_command(rest[1:])
    elif mode == "layers" and len(rest) == 2:
        group, params = rest
        result = LAYER_GROUPS[group](tracer, json.loads(Path(params).read_text()))
    else:
        raise SystemExit(__doc__)
    result["spans"] = tracer.spans
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
