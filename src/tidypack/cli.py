"""Command-line interface.

Subcommands: init, lint, schema (infer/validate), dict, checksum, verify,
chunk, unchunk, pack.  Exit codes are uniform: 0 on success, 1 when a
check found problems (lint errors, failed verification, schema
violations), 2 for usage, configuration, or malformed-input errors, and 3
for I/O failures and unexpected internal errors.  With ``--format json``
every command writes exactly one JSON document to stdout, in UTF-8 whatever
the locale, also on failure (an ``error`` object), and nothing else; a
text-mode error is one ``error:`` line on stderr only.  A failed write to
stdout, or text the stdout encoding cannot carry, exits 3 with one
``error:`` line on stderr.  Output is plain text; no color escapes are
emitted, so ``NO_COLOR`` has nothing to strip.

Handlers return a ``_Result`` and write nothing: ``_render`` is the only
code that writes to stdout or stderr.  Each handler imports the code it
runs, so a command loads no module it does not use.  Start-up is the floor
under every command, so ``--help`` and a text-mode usage error load only
the parser and the license choices: ``_Result`` is a named tuple, not a
dataclass (no ``dataclasses`` or ``inspect``), and ``json`` is imported
only to render a JSON document.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import namedtuple
from pathlib import Path

from .errors import ToolError
from .licenses import CLI_CHOICES

#: ``integrity.CHECKSUMS_NAME``, which a test holds equal: the parser names
#: it without loading the fixity code.
_CHECKSUMS_NAME = "checksums.txt"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


class _Result(namedtuple("_Result", "code document text error", defaults=("", ""))):
    """One command's exit code and output in both formats.

    ``document`` is an object to dump as JSON, or canonical JSON bytes passed
    on unchanged.  ``text`` (str or bytes) and ``error`` are text mode's
    stdout and stderr.
    """

    __slots__ = ()


def _error(code: int, message: str) -> _Result:
    return _Result(code, {"error": {"code": code, "message": message}}, error=f"error: {message}\n")


def _lines(*lines: str) -> str:
    return "".join(f"{line}\n" for line in lines)


_AUTHOR_RE = re.compile(r"(?P<name>[^<>]+?)\s*<(?P<orcid>[^<>]+)>\s*\Z")


def _parse_author(text: str):
    from .scaffold import Author

    match = _AUTHOR_RE.fullmatch(text)
    if match:
        return Author(name=match.group("name").strip(), orcid=match.group("orcid").strip())
    return Author(name=text.strip())


# ---------------------------------------------------------------------------
# Handlers


def _cmd_init(args) -> _Result:
    from .scaffold import ScaffoldRequest, scaffold

    request = ScaffoldRequest(
        package_name=args.name or Path(args.destination).name,
        dataset_names=list(args.dataset),
        license=CLI_CHOICES[args.license],
        authors=[_parse_author(a) for a in args.author],
        doi=args.doi,
        year=args.year,
        seed_tables=[Path(s) for s in args.seed],
    )
    package = scaffold(request, args.destination)
    paths = package.all_paths()
    return _Result(
        EXIT_OK,
        {"root": str(package.root), "files": paths},
        _lines(f"created {package.root} with {len(paths)} files", *(f"  {rel}" for rel in paths)),
    )


def _cmd_lint(args) -> _Result:
    from .lint import LintConfig, lint_package, load_config, report_to_json, report_to_text
    from .model import scan_package

    config = load_config(args.config) if args.config else LintConfig()
    package = scan_package(args.target)
    report = lint_package(package, config)
    failed = not report.passed or (args.strict and report.counts["warning"] > 0)
    return _Result(EXIT_FINDINGS if failed else EXIT_OK, report_to_json(report), report_to_text(report))


def _cmd_schema_infer(args) -> _Result:
    from .schema import infer_schema, schema_to_json
    from .tabular import read_csvy

    _, table = read_csvy(args.table)
    schema = infer_schema(
        table, name=Path(args.table).stem, path=str(args.table)
    )
    document = schema_to_json(schema)
    return _Result(EXIT_OK, document, document.decode("utf-8"))


def _cmd_schema_validate(args) -> _Result:
    from .schema import schema_from_json, validate_table
    from .tabular import read_csvy

    schema = schema_from_json(Path(args.schema).read_bytes())
    _, table = read_csvy(args.table)
    result = validate_table(table, schema)
    lines = [f"{args.table} matches {args.schema}" if result.ok else f"{args.table} violates {args.schema}:"]
    for v in result.violations:
        place = "table" if v.row is None else f"row {v.row}"
        lines.append(f"  {place}, field {v.field!r}: {v.kind}" + (f" (value {v.value!r})" if v.value else ""))
    document = {
        "ok": result.ok,
        "violations": [
            {"kind": v.kind, "field": v.field, "row": v.row, "value": v.value}
            for v in result.violations
        ],
    }
    return _Result(EXIT_OK if result.ok else EXIT_FINDINGS, document, _lines(*lines))


def _cmd_dict(args) -> _Result:
    from .schema import (
        dictionary_from_csv,
        dictionary_from_schema,
        dictionary_to_csv,
        dictionary_to_markdown,
        schema_from_json,
    )

    source = Path(args.source)
    if source.suffix.lower() == ".json":
        dictionary = dictionary_from_schema(schema_from_json(source.read_bytes()))
    else:
        dictionary = dictionary_from_csv(source.read_bytes())
    document = {
        "entries": [
            {
                "variable": entry.variable_name,
                "class": entry.class_name,
                "description": entry.description,
                "codes": dict(sorted(entry.codes.items())),
                "missing_codes": sorted(entry.missing_codes),
            }
            for entry in dictionary.entries
        ]
    }
    if args.to == "csv":
        return _Result(EXIT_OK, document, dictionary_to_csv(dictionary).decode("utf-8"))
    return _Result(EXIT_OK, document, dictionary_to_markdown(dictionary))


def _inside(path: Path, root: Path) -> str | None:
    """``path`` as a POSIX path relative to ``root``, or None when outside it.

    None never equals a relative path, so it can sit in an exclusion set.
    """
    path, root = path.resolve(), root.resolve()
    return path.relative_to(root).as_posix() if path.is_relative_to(root) else None


def _manifest_path(args) -> Path:
    """The manifest ``verify`` and ``pack`` read: ``--manifest``, or the root's own."""
    return Path(args.manifest) if args.manifest else Path(args.root) / _CHECKSUMS_NAME


def _cmd_checksum(args) -> _Result:
    from .integrity import compute_manifest, publish, serialize_manifest

    root = Path(args.root)
    excluded = {_CHECKSUMS_NAME}
    output = Path(args.output) if args.output else None
    if output is not None:
        excluded.add(_inside(output, root))
    manifest = compute_manifest(root, include=lambda rel: rel not in excluded)
    text = serialize_manifest(manifest)
    if output is not None:
        publish({output: text}, replace=True)
    document = _checksum_json(manifest.entries, output) if args.format == "json" else None
    summary = text.decode("utf-8") if output is None else _lines(f"wrote {len(manifest.entries)} checksums to {output}")
    return _Result(EXIT_OK, document, summary)


def _checksum_json(entries, output: Path | None) -> bytes:
    """The checksum document, byte for byte as ``json.dumps`` writes it with
    ``indent=2`` and ``ensure_ascii=False``.

    That indenting encoder is pure Python, and this document holds an object
    per file, so it is filled in from a template instead: each string is
    escaped by the function ``json`` itself uses for it, and an MD5 is hex.
    """
    from json.encoder import encode_basestring as quote

    items = ",\n".join(f'    {{\n      "path": {quote(e.path)},\n      "md5": "{e.md5}"\n    }}' for e in entries)
    listed = f"[\n{items}\n  ]" if entries else "[]"
    written = "null" if output is None else quote(str(output))
    return f'{{\n  "entries": {listed},\n  "written": {written}\n}}\n'.encode("utf-8")


def _cmd_verify(args) -> _Result:
    from .integrity import parse_manifest, verify_manifest

    root = Path(args.root)
    manifest_path = _manifest_path(args)
    manifest = parse_manifest(manifest_path.read_bytes())
    excluded = {_inside(manifest_path, root)}
    report = verify_manifest(root, manifest, include=lambda rel: rel not in excluded)
    document = {
        "ok": report.ok,
        "mismatched": report.mismatched,
        "missing": report.missing,
        "extra": report.extra,
    }
    text = _lines(
        *([f"OK: {len(manifest.entries)} files verified"] if report.ok else []),
        *(f"MISMATCH {path}" for path in report.mismatched),
        *(f"MISSING  {path}" for path in report.missing),
        *(f"EXTRA    {path}" for path in report.extra),
    )
    return _Result(EXIT_OK if report.ok else EXIT_FINDINGS, document, text)


def _cmd_chunk(args) -> _Result:
    from .integrity import chunk_table

    plan = chunk_table(args.table, args.max_rows)
    document = {
        "source": plan.source,
        "data_rows": plan.data_rows,
        "max_rows_per_chunk": plan.max_rows_per_chunk,
        "chunks": plan.chunk_paths,
    }
    text = _lines(
        f"split {plan.source} ({plan.data_rows} rows) into {len(plan.chunk_paths)} "
        f"chunk(s) of at most {plan.max_rows_per_chunk} rows",
        *(f"  {path}" for path in plan.chunk_paths),
    )
    return _Result(EXIT_OK, document, text)


def _cmd_unchunk(args) -> _Result:
    if args.format == "json" and not args.output:
        raise _UsageError("--output is required with --format json")
    from .integrity import publish, unchunk

    data = unchunk(args.chunks)
    if not args.output:
        return _Result(EXIT_OK, None, data)
    publish({Path(args.output): data}, replace=True)
    return _Result(
        EXIT_OK,
        {"output": args.output, "bytes": len(data)},
        _lines(f"wrote {len(data)} bytes to {args.output}"),
    )


def _cmd_pack(args) -> _Result:
    from .integrity import pack, parse_manifest

    root = Path(args.root)
    walk = None  # pack walks the tree itself
    if args.require_lint:
        from .lint import RULES, LintConfig, lint_package
        from .model import scan_package

        # Only error-ceiling rules can fail a package; pack checks every MD5 itself.
        blocking = LintConfig(levels={r.id: "off" for r in RULES if r.severity != "error"})
        package = scan_package(root)
        report = lint_package(package, blocking)
        if not report.passed:
            message = f"lint found {report.counts['error']} error(s); fix them or drop --require-lint"
            return _error(EXIT_FINDINGS, message)
        walk = package.walk  # so the tree is walked once
    manifest = parse_manifest(_manifest_path(args).read_bytes())
    destination = Path(args.output) if args.output else Path(f"{root.resolve().name}.tar")
    archive = pack(root, manifest, destination, walk=walk)
    return _Result(
        EXIT_OK,
        {"archive": str(archive), "files": len(manifest.entries) + 1},
        _lines(f"wrote {archive} ({len(manifest.entries)} files plus {_CHECKSUMS_NAME})"),
    )


# ---------------------------------------------------------------------------
# Parser


def _add_command(parser: argparse.ArgumentParser, handler) -> None:
    """Give a subcommand parser the shared ``--format`` option, last, and its handler."""
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json prints exactly one document)",
    )
    parser.set_defaults(handler=handler)


def build_parser() -> _Parser:
    parser = _Parser(prog="tidypack", description="Scaffold, document, and check research data packages.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("init", help="create a new data package skeleton")
    p.add_argument("destination", help="directory to create (must be absent or empty)")
    p.add_argument("--dataset", action="append", required=True, metavar="NAME", help="dataset name (repeatable)")
    p.add_argument("--license", choices=sorted(CLI_CHOICES), default="cc0", help="license to write")
    p.add_argument("--doi", help="DOI for the citation file, e.g. 10.5281/zenodo.123456")
    p.add_argument("--author", action="append", default=[], metavar='"Name <ORCID>"', help="author (repeatable); ORCID optional")
    p.add_argument("--year", type=int, help="publication year for the citation file")
    p.add_argument("--seed", action="append", default=[], metavar="TABLE", help="existing table to seed a dataset with (pairs with --dataset order)")
    p.add_argument("--name", help="package name (defaults to the destination directory name)")
    _add_command(p, _cmd_init)

    p = sub.add_parser("lint", help="check a package against the conformance rules")
    p.add_argument("target", help="package root directory")
    p.add_argument("--config", help="rule severity overrides (RNN = off|error|warning|info)")
    p.add_argument("--strict", action="store_true", help="also fail (exit 1) on warnings")
    _add_command(p, _cmd_lint)

    p = sub.add_parser("schema", help="infer or validate table schemas")
    schema_sub = p.add_subparsers(dest="schema_command", required=True, metavar="action")
    pi = schema_sub.add_parser("infer", help="infer a schema from a table and print JSON")
    pi.add_argument("table", help="delimited table file")
    _add_command(pi, _cmd_schema_infer)
    pv = schema_sub.add_parser("validate", help="check a table against a schema")
    pv.add_argument("table", help="delimited table file")
    pv.add_argument("schema", help="schema JSON file")
    _add_command(pv, _cmd_schema_validate)

    p = sub.add_parser("dict", help="convert a schema or dictionary table")
    p.add_argument("source", help="schema .json or dictionary table file")
    p.add_argument("--to", choices=("markdown", "csv"), default="markdown", help="text output form")
    _add_command(p, _cmd_dict)

    p = sub.add_parser("checksum", help="compute an MD5 manifest for a tree")
    p.add_argument("root", help="directory to checksum")
    p.add_argument("--output", help="write the manifest here instead of stdout")
    _add_command(p, _cmd_checksum)

    p = sub.add_parser("verify", help="verify a tree against its manifest")
    p.add_argument("root", help="directory to verify")
    p.add_argument("--manifest", help=f"manifest file (default: <root>/{_CHECKSUMS_NAME})")
    _add_command(p, _cmd_verify)

    p = sub.add_parser("chunk", help="split a table into row-limited chunks")
    p.add_argument("table", help="table file to split")
    p.add_argument("--max-rows", type=int, required=True, metavar="N", help="maximum data rows per chunk")
    _add_command(p, _cmd_chunk)

    p = sub.add_parser("unchunk", help="reassemble chunks into one table")
    p.add_argument("chunks", nargs="+", help="chunk files in order (name-1.csv name-2.csv ...)")
    p.add_argument("--output", help="write the reassembled table here (required with --format json)")
    _add_command(p, _cmd_unchunk)

    p = sub.add_parser("pack", help="write a reproducible tar archive of a package")
    p.add_argument("root", help="package root directory")
    p.add_argument("--output", help="archive path (default: <root-name>.tar)")
    p.add_argument("--manifest", help=f"manifest to pack from (default: <root>/{_CHECKSUMS_NAME})")
    p.add_argument("--require-lint", action="store_true", help="refuse to pack unless lint passes")
    _add_command(p, _cmd_pack)

    return parser


def _json_requested(argv: list[str]) -> bool:
    """Whether ``argv`` asks for JSON, with argparse's own ``--format`` matching.

    Decided apart from the full parse, so a usage error is reported in the
    format asked for too: an abbreviation such as ``--form`` counts, and
    the last occurrence wins.
    """
    parser = _Parser(add_help=False)
    parser.add_argument("--format")
    try:
        return parser.parse_known_args(argv)[0].format == "json"
    except _UsageError:
        return False


def _render(result: _Result, json_mode: bool) -> int:
    """Write ``result`` in the format asked for and return its exit code.

    JSON is written as UTF-8 bytes whatever the stdout encoding (RFC 8259
    section 8.1).  Text that the stdout encoding cannot carry is refused
    whole: nothing reaches stdout and one ``error:`` line says so.
    """
    if not json_mode:
        out, err = result.text, result.error
    elif isinstance(result.document, bytes):
        out, err = result.document, ""
    else:
        import json

        out, err = (json.dumps(result.document, indent=2, ensure_ascii=False) + "\n").encode("utf-8"), ""
    try:
        if sys.stdout is None or sys.stdout.closed:  # None: started with file descriptor 1 closed
            raise OSError("stdout is closed")
        if isinstance(out, bytes):
            sys.stdout.buffer.write(out)
        else:
            sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as exc:  # no stdout left to carry a document, so stderr in either format
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except UnicodeEncodeError as exc:  # text mode only: the encoder rejects the whole string
        sys.stderr.write(
            f"error: output cannot be written in the stdout encoding {exc.encoding!r}; "
            "set PYTHONIOENCODING=utf-8\n"
        )
        return EXIT_IO
    sys.stderr.write(err)
    return result.code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    json_mode = _json_requested(argv)
    try:
        args = build_parser().parse_args(argv)
        # Inside the try: a defect while rendering becomes an error result too.
        return _render(args.handler(args), json_mode)
    except (_UsageError, ToolError) as exc:
        result = _error(EXIT_USAGE, str(exc))
    except OSError as exc:
        result = _error(EXIT_IO, str(exc))
    except Exception as exc:
        # Last resort: even a defect keeps the exit-code and one-document contract.
        result = _error(EXIT_IO, f"internal error: {type(exc).__name__}: {exc}")
    return _render(result, json_mode)


if __name__ == "__main__":
    raise SystemExit(main())
