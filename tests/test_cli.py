"""Command-line interface: exit codes, output contracts, JSON mode."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tidypack import ScanError, SchemaError, compute_manifest, parse_csvy, schema_from_front_matter, serialize_manifest
from tidypack.cli import EXIT_FINDINGS, EXIT_IO, EXIT_OK, EXIT_USAGE, _cmd_checksum, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_json(out: str):
    """Parse stdout as exactly one JSON document."""
    return json.loads(out)


def _write(root, rel: str, data: bytes) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


@pytest.fixture()
def package(tmp_path, capsys):
    dest = tmp_path / "demo"
    code = main(
        [
            "init",
            str(dest),
            "--dataset",
            "obs",
            "--doi",
            "10.1234/abcd",
            "--year",
            "2020",
            "--author",
            "A Person <0000-0002-1825-0097>",
            "--license",
            "ccby",
        ]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    return dest


# ---------------------------------------------------------------------------
# init


def test_init_json(tmp_path, capsys):
    dest = tmp_path / "demo"
    code, out, err = run(capsys, "init", str(dest), "--dataset", "obs", "--format", "json")
    assert code == EXIT_OK
    doc = one_json(out)
    assert doc["root"] == str(dest)
    assert "README.md" in doc["files"] and "data/obs.csv" in doc["files"]
    assert err == ""


def test_init_text_lists_files(tmp_path, capsys):
    dest = tmp_path / "demo"
    code, out, _ = run(capsys, "init", str(dest), "--dataset", "obs")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == f"created {dest} with 7 files"
    assert "  data/obs.csv" in lines


def test_init_refuses_non_empty(tmp_path, capsys):
    dest = tmp_path / "demo"
    _write(dest, "keep.txt", b"x")
    code, out, err = run(capsys, "init", str(dest), "--dataset", "obs")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")

    code, out, err = run(capsys, "init", str(dest), "--dataset", "obs", "--format", "json")
    assert code == EXIT_USAGE
    assert err == ""
    doc = one_json(out)
    assert doc["error"]["code"] == EXIT_USAGE
    assert "not empty" in doc["error"]["message"]


def test_init_full_options(tmp_path, capsys, package):
    assert (package / "citation").exists()
    citation = (package / "citation").read_text()
    assert "doi = {10.1234/abcd}," in citation
    assert "A Person" in citation
    readme = (package / "README.md").read_text()
    assert "ORCID: 0000-0002-1825-0097" in readme
    assert readme.startswith("# demo\n")
    assert "Released under CC-BY-4.0" in readme
    assert "Attribution 4.0 International" in (package / "LICENSE").read_text()


def test_init_refuses_a_doi_lint_would_not_find(tmp_path, capsys):
    dest = tmp_path / "p"
    code, out, err = run(capsys, "init", str(dest), "--dataset", "obs", "--doi", "10.1234/<x>")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: DOI must look like 10.NNNN/suffix: '10.1234/<x>'\n"
    assert not dest.exists()


def test_init_name_override(tmp_path, capsys):
    dest = tmp_path / "demo"
    code, _, _ = run(capsys, "init", str(dest), "--dataset", "obs", "--name", "custom.pkg")
    assert code == EXIT_OK
    assert (dest / "README.md").read_text().startswith("# custom.pkg\n")


def test_init_invalid_dataset_name(tmp_path, capsys):
    code, _, err = run(capsys, "init", str(tmp_path / "p"), "--dataset", "a/b")
    assert code == EXIT_USAGE
    assert "filesystem-safe" in err


# ---------------------------------------------------------------------------
# lint


def test_lint_passing_package(package, capsys):
    code, out, _ = run(capsys, "lint", str(package))
    assert code == EXIT_OK
    assert out.startswith("PASS: 0 error(s)")


def test_lint_strict_fails_on_warnings(tmp_path, capsys):
    dest = tmp_path / "demo"
    run(capsys, "init", str(dest), "--dataset", "obs")  # no DOI: R07 warning
    code, _, _ = run(capsys, "lint", str(dest))
    assert code == EXIT_OK
    code, _, _ = run(capsys, "lint", str(dest), "--strict")
    assert code == EXIT_FINDINGS


def test_lint_failing_package(tmp_path, capsys):
    code, out, _ = run(capsys, "lint", str(tmp_path))
    assert code == EXIT_FINDINGS
    assert out.startswith("FAIL: 4 error(s), 2 warning(s), 1 info\n")


def test_lint_json_is_single_document(tmp_path, capsys):
    code, out, err = run(capsys, "lint", str(tmp_path), "--format", "json")
    assert code == EXIT_FINDINGS
    doc = one_json(out)
    assert doc["pass"] is False
    assert doc["counts"]["error"] == 4
    assert err == ""


def test_lint_config_file(tmp_path, capsys):
    config = tmp_path / "lint.cfg"
    config.write_text("R01 = off\nR03 = off\nR05 = off\nR12 = warning\n")
    target = tmp_path / "pkg"
    target.mkdir()
    code, out, _ = run(capsys, "lint", str(target), "--config", str(config))
    assert code == EXIT_OK
    assert out.startswith("PASS:")

    config.write_text("R99 = off\n")
    code, _, err = run(capsys, "lint", str(target), "--config", str(config))
    assert code == EXIT_USAGE
    assert "R99" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lint_config_that_is_not_utf8_is_a_config_error(package, tmp_path, capsys, fmt):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"R02 = off\n\xff\n")
    code, out, err = run(capsys, "lint", str(package), "--config", str(config), "--format", fmt)
    assert code == EXIT_USAGE
    message = one_json(out)["error"]["message"] if fmt == "json" else err
    assert str(config) in message and "not valid UTF-8" in message
    assert "internal error" not in message


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lint_config_drops_a_leading_bom(tmp_path, capsys, fmt):
    target = tmp_path / "pkg"
    target.mkdir()
    config = tmp_path / "lint.cfg"
    config.write_bytes(b"\xef\xbb\xbfR01 = off\nR03 = off\nR05 = off\nR12 = warning\n")
    code, out, err = run(capsys, "lint", str(target), "--config", str(config), "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert one_json(out)["pass"] is True if fmt == "json" else out.startswith("PASS:")


def test_lint_missing_target_is_io_error(tmp_path, capsys):
    code, out, err = run(capsys, "lint", str(tmp_path / "nope"))
    assert code == EXIT_IO
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# schema


def test_schema_infer(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"id,score\n1,2.5\n")
    code, out, _ = run(capsys, "schema", "infer", str(table))
    assert code == EXIT_OK
    doc = one_json(out)
    assert doc["name"] == "t"
    assert doc["path"] == str(table)
    assert [(f["name"], f["type"]) for f in doc["schema"]["fields"]] == [
        ("id", "integer"),
        ("score", "number"),
    ]


def test_schema_validate_ok_and_violations(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"id\n1\n")
    schema = tmp_path / "t.json"
    run(capsys, "schema", "infer", str(table))
    schema.write_bytes(
        b'{"name": "t", "schema": {"fields": [{"name": "id", "type": "integer"}]}}'
    )
    code, out, _ = run(capsys, "schema", "validate", str(table), str(schema))
    assert code == EXIT_OK
    assert "matches" in out

    table.write_bytes(b"id\nx\n")
    code, out, _ = run(capsys, "schema", "validate", str(table), str(schema))
    assert code == EXIT_FINDINGS
    assert "  row 1, field 'id': type_mismatch (value 'x')" in out

    code, out, _ = run(
        capsys, "schema", "validate", str(table), str(schema), "--format", "json"
    )
    assert code == EXIT_FINDINGS
    doc = one_json(out)
    assert doc["ok"] is False
    assert doc["violations"] == [
        {"kind": "type_mismatch", "field": "id", "row": 1, "value": "x"}
    ]


def test_schema_validate_error_codes(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"id\n1\n")
    schema = tmp_path / "t.json"
    schema.write_bytes(b"{broken")
    code, out, _ = run(capsys, "schema", "validate", str(table), str(schema), "--format", "json")
    assert code == EXIT_USAGE
    assert one_json(out)["error"]["code"] == EXIT_USAGE

    code, _, _ = run(capsys, "schema", "validate", str(table), str(tmp_path / "gone.json"))
    assert code == EXIT_IO


@pytest.mark.parametrize("rewritten", [b"id\n1\n2\n", b"id\nx\nx\n"], ids=["fewer", "more"])
def test_schema_validate_names_a_table_that_changed_between_its_two_reads(tmp_path, capsys, monkeypatch, rewritten):
    from tidypack import tabular

    table = tmp_path / "t.csv"
    table.write_bytes(b"id\n1\nx\n")
    schema = tmp_path / "t.json"
    schema.write_bytes(b'{"name": "t", "schema": {"fields": [{"name": "id", "type": "integer"}]}}')
    real = tabular.read_parts

    def rewrite_then_read(path):
        table.write_bytes(rewritten)
        return real(path)

    monkeypatch.setattr(tabular, "read_parts", rewrite_then_read)
    message = f"{table} changed while it was read"
    assert run(capsys, "schema", "validate", str(table), str(schema)) == (EXIT_IO, "", f"error: {message}\n")
    table.write_bytes(b"id\n1\nx\n")
    code, out, err = run(capsys, "schema", "validate", str(table), str(schema), "--format", "json")
    assert (code, one_json(out), err) == (EXIT_IO, {"error": {"code": EXIT_IO, "message": message}}, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["schema", "init"])
def test_an_empty_column_name_is_named(tmp_path, capsys, command, fmt):
    table = tmp_path / "t.csv"
    table.write_bytes(b"a,,c\n1,2,3\n")
    if command == "init":
        argv = ["init", str(tmp_path / "pkg"), "--dataset", "d", "--seed", str(table)]
        message = f"seed table {table}: column 2 has an empty name"
    else:
        argv = ["schema", "infer", str(table)]
        message = "column 2 has an empty name"
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == EXIT_USAGE
    if fmt == "json":
        assert (one_json(out), err) == ({"error": {"code": EXIT_USAGE, "message": message}}, "")
    else:
        assert (out, err) == ("", f"error: {message}\n")
    assert not (tmp_path / "pkg").exists()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("row", [6, 31])
def test_a_ragged_row_is_an_error_inside_the_detection_sample_too(tmp_path, capsys, row, fmt):
    lines = ["id,code,day,amount,flag", *(f"{k},C1,2020-01-01,1.5,true" for k in range(40))]
    lines[row - 1] += ",extra"
    table = tmp_path / "t.csv"
    table.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "schema", "infer", str(table), "--format", fmt)
    message = f"row {row}: expected 5 cells, found 6"
    assert code == EXIT_USAGE
    if fmt == "json":
        assert (one_json(out), err) == ({"error": {"code": EXIT_USAGE, "message": message}}, "")
    else:
        assert (out, err) == ("", f"error: {message}\n")


# ---------------------------------------------------------------------------
# dict


def test_dict_conversions(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"id,score\n1,2.5\n")
    schema_path = tmp_path / "t.json"
    code, out, _ = run(capsys, "schema", "infer", str(table))
    schema_path.write_text(out)

    code, out, _ = run(capsys, "dict", str(schema_path))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "| Variable | Class | Description | Missing |"

    code, csv_out, _ = run(capsys, "dict", str(schema_path), "--to", "csv")
    assert code == EXIT_OK
    assert csv_out.splitlines()[0] == "variable,class,description,codes,missing_codes"
    assert "id,integer" in csv_out

    code, out, _ = run(capsys, "dict", str(schema_path), "--format", "json")
    doc = one_json(out)
    assert [e["variable"] for e in doc["entries"]] == ["id", "score"]
    assert doc["entries"][0]["class"] == "integer"

    dictionary_path = tmp_path / "d.csv"
    dictionary_path.write_text(csv_out)
    code, out, _ = run(capsys, "dict", str(dictionary_path), "--format", "json")
    assert code == EXIT_OK
    assert [e["variable"] for e in one_json(out)["entries"]] == ["id", "score"]


# ---------------------------------------------------------------------------
# checksum / verify


def test_checksum_stdout_and_output(tmp_path, capsys):
    _write(tmp_path, "data/t.csv", b"id\n1\n")
    code, out, _ = run(capsys, "checksum", str(tmp_path))
    assert code == EXIT_OK
    expected = serialize_manifest(compute_manifest(tmp_path)).decode()
    assert out == expected

    manifest_path = tmp_path / "checksums.txt"
    code, out, _ = run(capsys, "checksum", str(tmp_path), "--output", str(manifest_path))
    assert code == EXIT_OK
    assert out == f"wrote 1 checksums to {manifest_path}\n"
    # The manifest never lists itself.
    assert b"checksums.txt" not in manifest_path.read_bytes()

    code, out, _ = run(
        capsys, "checksum", str(tmp_path), "--output", str(manifest_path), "--format", "json"
    )
    doc = one_json(out)
    assert doc["written"] == str(manifest_path)
    assert [e["path"] for e in doc["entries"]] == ["data/t.csv"]


#: File name characters that JSON escapes or that ``ensure_ascii=False``
#: keeps: a quote, a backslash, control characters, DEL, non-ASCII
#: characters and the line and paragraph separators.
_NAME_CHARS = st.sampled_from(['"', "\\", "\x01", "\t", "\n", "\x1f", "\x7f", "\x80", "é", "\u2028", "\u2029", "😀", "a"])
_NAMES = st.text(_NAME_CHARS, min_size=1, max_size=6)


@given(
    st.lists(st.tuples(st.booleans(), _NAMES), unique_by=lambda f: f[1], max_size=6),
    st.one_of(st.none(), _NAMES),
)
@example([], None)  # an empty tree: "entries": []
@example([], 'out"\\\x01.txt')
@example([(True, '"\\\u2028\x7f')], None)
@settings(deadline=None)
def test_checksum_json_is_the_indented_json_dumps_document(files, output_name):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch, "root")
        root.mkdir()
        paths = []
        for nested, name in files:  # "sub" is no name _NAMES makes
            rel = f"sub/{name}" if nested else name
            _write(root, rel, rel.encode())
            paths.append(rel)
        output = None if output_name is None else Path(scratch, output_name)
        args = argparse.Namespace(root=str(root), output=output and str(output), format="json")
        if any("\n" in rel for rel in paths):  # no manifest line can hold the name; the output's can be named
            with pytest.raises(ScanError, match="^file name holds a line break: "):
                _cmd_checksum(args)
            return
        document = {
            "entries": [{"path": rel, "md5": hashlib.md5(rel.encode()).hexdigest()} for rel in sorted(paths)],
            "written": output and str(output),
        }
        expected = (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        assert _cmd_checksum(args).document == expected


def test_verify_roundtrip_and_failures(tmp_path, capsys):
    _write(tmp_path, "data/t.csv", b"id\n1\n")
    manifest_path = tmp_path / "checksums.txt"
    run(capsys, "checksum", str(tmp_path), "--output", str(manifest_path))

    code, out, _ = run(capsys, "verify", str(tmp_path))
    assert code == EXIT_OK
    assert out == "OK: 1 files verified\n"

    _write(tmp_path, "extra.bin", b"new")
    code, out, _ = run(capsys, "verify", str(tmp_path))
    assert code == EXIT_OK
    assert "EXTRA    extra.bin" in out
    (tmp_path / "extra.bin").unlink()

    _write(tmp_path, "data/t.csv", b"id\n2\n")
    code, out, _ = run(capsys, "verify", str(tmp_path), "--format", "json")
    assert code == EXIT_FINDINGS
    doc = one_json(out)
    assert doc["ok"] is False
    assert doc["mismatched"] == ["data/t.csv"]

    manifest_path.write_bytes(b"not a manifest\n")
    code, _, err = run(capsys, "verify", str(tmp_path))
    assert code == EXIT_USAGE

    manifest_path.unlink()
    code, _, _ = run(capsys, "verify", str(tmp_path))
    assert code == EXIT_IO


# ---------------------------------------------------------------------------
# chunk / unchunk


def test_chunk_and_unchunk_roundtrip(tmp_path, capsys):
    table = tmp_path / "people.csv"
    original = b"id,name\n1,ada\n2,bob\n3,cyd\n4,dee\n5,eli\n"
    table.write_bytes(original)

    code, out, _ = run(capsys, "chunk", str(table), "--max-rows", "2", "--format", "json")
    assert code == EXIT_OK
    doc = one_json(out)
    assert doc["data_rows"] == 5
    assert len(doc["chunks"]) == 3
    chunk_paths = doc["chunks"]
    assert all((tmp_path / f"people-{k}.csv").exists() for k in (1, 2, 3))

    output = tmp_path / "rebuilt.csv"
    code, out, _ = run(capsys, "unchunk", *chunk_paths, "--output", str(output))
    assert code == EXIT_OK
    assert output.read_bytes() == original

    code, out, _ = run(
        capsys, "unchunk", *chunk_paths, "--output", str(output), "--format", "json"
    )
    doc = one_json(out)
    assert doc == {"output": str(output), "bytes": len(original)}


_NAMELESS_SCHEMA = b"""---
title: Field notes
schema:
  fields:
    - name: id
      type: integer
    - name: day
      type: date
---
id,day
1,2020-01-02
2,2020-01-03
3,2020-01-04
"""


@pytest.fixture()
def nameless_schema(tmp_path):
    """A csvy table whose front matter has a schema block but no ``name``:
    ``schema_from_front_matter`` refuses it, and the table commands, which
    do not read that block, take it as it is."""
    table = tmp_path / "notes.csvy"
    table.write_bytes(_NAMELESS_SCHEMA)
    with pytest.raises(SchemaError, match="^front matter: missing required key 'name'$"):
        schema_from_front_matter(parse_csvy(_NAMELESS_SCHEMA)[0].mapping)
    return table


def test_nameless_schema_csvy_chunks_and_unchunks_byte_exactly(nameless_schema, tmp_path, capsys):
    code, out, err = run(capsys, "chunk", str(nameless_schema), "--max-rows", "2", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    chunks = one_json(out)["chunks"]
    assert len(chunks) == 2
    merged = tmp_path / "merged.csvy"
    code, _, err = run(capsys, "unchunk", *chunks, "--output", str(merged))
    assert (code, err) == (EXIT_OK, "")
    assert merged.read_bytes() == _NAMELESS_SCHEMA


def test_nameless_schema_csvy_infers(nameless_schema, capsys):
    code, out, err = run(capsys, "schema", "infer", str(nameless_schema))
    assert (code, err) == (EXIT_OK, "")
    assert [(f["name"], f["type"]) for f in one_json(out)["schema"]["fields"]] == [
        ("id", "integer"),
        ("day", "date"),
    ]


def test_nameless_schema_csvy_seeds_a_package_that_lints(nameless_schema, tmp_path, capsys):
    package = tmp_path / "pkg"
    code, _, err = run(capsys, "init", str(package), "--dataset", "notes", "--seed", str(nameless_schema))
    assert (code, err) == (EXIT_OK, "")
    assert (package / "data" / "notes.csvy").read_bytes() == _NAMELESS_SCHEMA
    code, out, err = run(capsys, "lint", str(package), "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    report = one_json(out)
    assert report["pass"] is True
    assert [f["rule_id"] for f in report["findings"] if f["rule_id"] in ("R09", "R12")] == []


def test_chunk_reads_any_first_record_as_the_header(tmp_path, capsys):
    years = tmp_path / "years.csv"
    years.write_bytes(b"site,2019,2020\na,1,2\nb,3,4\n")
    code, out, err = run(capsys, "chunk", str(years), "--max-rows", "1", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    assert one_json(out)["chunks"] == [str(tmp_path / "years-1.csv"), str(tmp_path / "years-2.csv")]

    blank = tmp_path / "blank.csv"
    blank.write_bytes(b"\n")
    code, out, err = run(capsys, "chunk", str(blank), "--max-rows", "1")
    assert (code, out, err) == (EXIT_USAGE, "", "error: table is empty; expected a header row\n")


def test_unchunk_to_stdout(tmp_path, capsysbinary):
    table = tmp_path / "t.csv"
    table.write_bytes(b"id\n1\n2\n")
    main(["chunk", str(table), "--max-rows", "1"])
    capsysbinary.readouterr()
    code = main(["unchunk", str(tmp_path / "t-1.csv"), str(tmp_path / "t-2.csv")])
    assert code == EXIT_OK
    assert capsysbinary.readouterr().out == b"id\n1\n2\n"


def test_unchunk_json_requires_output(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"id\n1\n")
    main(["chunk", str(table), "--max-rows", "1"])
    capsys.readouterr()
    code, out, _ = run(capsys, "unchunk", str(tmp_path / "t-1.csv"), "--format", "json")
    assert code == EXIT_USAGE
    doc = one_json(out)
    assert doc["error"]["message"] == "--output is required with --format json"


@pytest.mark.parametrize(
    "body, message",
    [
        (b'id,name\n1,ada\n2,"bob\n', "row 3: unterminated quoted field"),
        # Past the 20 records that dialect detection reads.
        (b"id,name\n" + b"".join(b"%d,x\n" % k for k in range(25)) + b"25,x,y\n", "row 27: expected 2 cells, found 3"),
        (
            b"id,name\n1,\xff\n",
            "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
        ),
        (b"---\nname: t\nid,name\n1,ada\n", "front matter fence '---' is never closed"),
    ],
    ids=["unterminated-quote", "ragged-row", "invalid-utf8", "unclosed-front-matter"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unchunk_names_the_chunk_that_does_not_parse(tmp_path, capsys, body, message, fmt):
    (tmp_path / "r-1.csv").write_bytes(b"id,name\n0,zed\n")
    (tmp_path / "r-2.csv").write_bytes(body)
    output = tmp_path / "merged.csv"
    code, out, err = run(
        capsys, "unchunk", str(tmp_path / "r-1.csv"), str(tmp_path / "r-2.csv"), "--output", str(output), "--format", fmt
    )
    assert code == EXIT_USAGE
    if fmt == "json":
        assert (one_json(out), err) == ({"error": {"code": EXIT_USAGE, "message": f"r-2.csv: {message}"}}, "")
    else:
        assert (out, err) == ("", f"error: r-2.csv: {message}\n")
    assert not output.exists()


def test_chunk_usage_errors(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"id\n1\n")
    _write(tmp_path, "t-1.csv", b"occupied")
    code, _, err = run(capsys, "chunk", str(table), "--max-rows", "1")
    assert code == EXIT_USAGE
    assert (tmp_path / "t-1.csv").read_bytes() == b"occupied"

    (tmp_path / "t-1.csv").unlink()
    code, _, _ = run(capsys, "chunk", str(table), "--max-rows", "0")
    assert code == EXIT_USAGE

    code, _, _ = run(capsys, "unchunk", str(tmp_path / "t-1.csv"), str(tmp_path / "t-3.csv"))
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# pack


def test_pack_flow(package, tmp_path, capsys):
    archive = tmp_path / "demo.tar"
    code, out, _ = run(
        capsys, "pack", str(package), "--output", str(archive), "--format", "json"
    )
    assert code == EXIT_OK
    doc = one_json(out)
    assert doc["archive"] == str(archive)
    assert doc["files"] == 8  # 7 manifest entries plus checksums.txt
    assert archive.exists()


def test_pack_default_output_name(package, tmp_path, capsys, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code, out, _ = run(capsys, "pack", str(package))
    assert code == EXIT_OK
    assert (workdir / "demo.tar").exists()
    assert "demo.tar" in out


def test_pack_require_lint(package, tmp_path, capsys):
    (package / "LICENSE").unlink()
    code, out, err = run(
        capsys, "pack", str(package), "--require-lint", "--format", "json"
    )
    assert code == EXIT_FINDINGS
    doc = one_json(out)
    assert doc["error"]["code"] == EXIT_FINDINGS
    assert "lint found 1 error(s)" in doc["error"]["message"]
    assert not (tmp_path / "demo.tar").exists()


def test_pack_require_lint_refuses_when_rules_crash(package, tmp_path, capsys, monkeypatch):
    from tidypack import lint

    def boom(ctx):
        raise RuntimeError("boom")

    monkeypatch.setattr(lint, "_EVALUATORS", tuple((rule, boom) for rule in lint.RULES))
    archive = tmp_path / "demo.tar"
    code, out, err = run(capsys, "pack", str(package), "--require-lint", "--output", str(archive))
    errors = sum(rule.severity == "error" for rule in lint.RULES)
    assert (code, out, err) == (EXIT_FINDINGS, "", f"error: lint found {errors} error(s); fix them or drop --require-lint\n")
    assert not archive.exists()


def test_pack_require_lint_opens_each_manifest_file_once(package, tmp_path, capsys, monkeypatch):
    # Only error rules can block a pack, and pack checks every MD5 on the
    # bytes it archives, so the lint gate must not hash the tree a second time.
    from tidypack import parse_manifest

    real_open = os.open
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.relpath(file, package))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    archive = tmp_path / "demo.tar"
    code, _, _ = run(capsys, "pack", str(package), "--require-lint", "--output", str(archive))
    assert code == EXIT_OK
    assert archive.exists()
    manifest = parse_manifest((package / "checksums.txt").read_bytes())
    assert sorted(rel for rel in opened if not rel.startswith("..")) == manifest.paths()


def test_pack_refuses_stale_manifest(package, tmp_path, capsys):
    (package / "data/obs.csv").write_bytes(b"value\ntampered\n")
    archive = tmp_path / "demo.tar"
    code, _, err = run(capsys, "pack", str(package), "--output", str(archive))
    assert code == EXIT_USAGE
    assert "data/obs.csv" in err
    assert not archive.exists()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("failure", ["ends-early", "read-error"])
def test_pack_names_the_file_a_read_fails_on(package, tmp_path, capsys, monkeypatch, fmt, failure):
    import errno

    real_open, real_read = os.open, os.read
    failing: set[int] = set()

    def tracking_open(file, *args, **kwargs):
        fd = real_open(file, *args, **kwargs)
        if str(file).endswith("obs.csv"):
            failing.add(fd)
        return fd

    def failing_read(fd, size):
        if fd not in failing:
            return real_read(fd, size)
        if failure == "ends-early":  # fewer bytes than the walk found
            return b""
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "open", tracking_open)
    monkeypatch.setattr(os, "read", failing_read)
    archive = tmp_path / "demo.tar"
    code, out, err = run(capsys, "pack", str(package), "--output", str(archive), "--format", fmt)
    message = "file changed size while it was archived" if failure == "ends-early" else os.strerror(errno.EIO)
    expected = f"[Errno {errno.EIO}] {message}: '{package / 'data/obs.csv'}'"
    assert code == EXIT_IO
    if fmt == "json":
        assert (one_json(out), err) == ({"error": {"code": EXIT_IO, "message": expected}}, "")
    else:
        assert (out, err) == ("", f"error: {expected}\n")
    assert not archive.exists()


def test_pack_missing_manifest(tmp_path, capsys):
    root = tmp_path / "bare"
    root.mkdir()
    code, _, _ = run(capsys, "pack", str(root), "--output", str(tmp_path / "x.tar"))
    assert code == EXIT_IO


# ---------------------------------------------------------------------------
# Global behavior


def test_usage_errors(capsys):
    code, _, err = run(capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: ")

    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_parse_time_failure_still_emits_one_json_doc(capsys):
    code, out, err = run(capsys, "lint", "--format", "json")
    assert code == EXIT_USAGE
    doc = one_json(out)
    assert doc["error"]["code"] == EXIT_USAGE
    assert err == ""

    code, out, _ = run(capsys, "lint", "--format=json")
    assert code == EXIT_USAGE
    assert one_json(out)["error"]["code"] == EXIT_USAGE


def test_deep_tree_keeps_the_json_contract(tmp_path, capsys):
    depth = sys.getrecursionlimit() + 100
    root = tmp_path / "deep"
    levels = [root]
    for _ in range(depth):  # Path.mkdir(parents=True) would recurse once per level
        levels.append(levels[-1] / "d")
    for level in levels:
        level.mkdir()
    (levels[-1] / "bottom.txt").write_bytes(b"deep\n")
    try:
        manifest = root / "checksums.txt"
        for argv in (
            ["checksum", str(root), "--output", str(manifest)],
            ["verify", str(root)],
            ["lint", str(root)],
        ):
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code in (EXIT_OK, EXIT_FINDINGS), (argv[0], out)
            assert "error" not in one_json(out)
    finally:
        # Bottom-up in a loop: a recursive rmtree can hit the same limit.
        for level in reversed(levels):
            for child in level.iterdir():
                if not child.is_dir():
                    child.unlink()
            level.rmdir()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch, fmt):
    from tidypack import integrity

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    # The handler imports it when it runs, so the home module's name is patched.
    monkeypatch.setattr(integrity, "compute_manifest", crash)
    code, out, err = run(capsys, "checksum", str(tmp_path), "--format", fmt)
    assert code == EXIT_IO
    if fmt == "json":
        assert one_json(out) == {
            "error": {"code": EXIT_IO, "message": "internal error: RuntimeError: boom"}
        }
    else:
        assert out == ""
        assert err == "error: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "command, code", [("lint", EXIT_FINDINGS), ("checksum", EXIT_USAGE), ("verify", EXIT_USAGE), ("pack", EXIT_USAGE)]
)
def test_a_file_name_that_is_not_utf8_is_named_with_escapes(package, capsys, monkeypatch, command, code, fmt):
    monkeypatch.chdir(package.parent)  # where pack would write its archive
    (package / os.fsdecode(b"data-raw/bad\xff.txt")).write_bytes(b"x")
    escaped = "data-raw/bad\\xff.txt"
    got, out, err = run(capsys, command, str(package), "--format", fmt)
    assert got == code
    if command == "lint":
        # An error finding fails the package; the checksum rule cannot run.
        finding = {"rule_id": "R00", "severity": "error", "path": escaped}
        if fmt == "json":
            assert finding.items() <= one_json(out)["findings"][0].items()
        else:
            assert out.startswith("FAIL: 1 error(s)")
            assert f"  {escaped}: R00 [internal] file name is not valid UTF-8" in out
            assert "could not be evaluated" not in out  # R16 checks the files it can name
    elif fmt == "json":
        assert one_json(out) == {"error": {"code": code, "message": f"file name is not valid UTF-8: {escaped}"}}
    else:
        assert (out, err) == ("", f"error: file name is not valid UTF-8: {escaped}\n")
    assert not (package.parent / "demo.tar").exists()


#: The byte 0xFF of a command-line name, as Python holds it: a lone surrogate.
_NOT_UTF8 = os.fsdecode(b"\xff")


@pytest.mark.parametrize(
    "before, argv, code",
    [
        ([], "chunk bad{x}.csv --max-rows 1", EXIT_OK),
        (["chunk bad{x}.csv --max-rows 1"], "chunk bad{x}.csv --max-rows 1", EXIT_USAGE),
        ([], "unchunk bad{x}.csv --output u.csv", EXIT_USAGE),
        (["chunk bad{x}.csv --max-rows 1"], "unchunk bad{x}-1.csv bad{x}-2.csv --output u{x}.csv", EXIT_OK),
        ([], "checksum demo --output m{x}.txt", EXIT_OK),
        ([], "pack demo --output x{x}.tar", EXIT_OK),
        ([], "init d{x}q --dataset obs --name ok", EXIT_OK),
        ([], "schema infer bad{x}.csv", EXIT_OK),
    ],
    ids=["chunk", "chunk-refused", "unchunk-refused", "unchunk", "checksum", "pack", "init", "schema-infer"],
)
def test_a_json_document_carries_a_name_that_is_not_utf8_as_an_escape(package, capsys, monkeypatch, before, argv, code):
    # JSON is UTF-8 bytes, which a lone surrogate is not: it is written as
    # its \udcXX escape, which json.loads turns back into the same str.
    monkeypatch.chdir(package.parent)
    (package.parent / f"bad{_NOT_UTF8}.csv").write_bytes(b"id,v\n1,2\n3,4\n")
    for command in before:
        assert main([*command.format(x=_NOT_UTF8).split(), "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    got, out, err = run(capsys, *argv.format(x=_NOT_UTF8).split(), "--format", "json")
    document = one_json(out)
    assert (got, err) == (code, "")
    assert "\\udcff" in out and _NOT_UTF8 in json.dumps(document, ensure_ascii=False)
    if code == EXIT_OK:
        assert "error" not in document
    else:
        assert document["error"]["code"] == code


@pytest.mark.parametrize("name", ["odd\r", "two\nlines"], ids=["cr", "lf"])
@pytest.mark.parametrize(
    "command, code", [("lint", EXIT_FINDINGS), ("checksum", EXIT_USAGE), ("verify", EXIT_USAGE), ("pack", EXIT_USAGE)]
)
def test_a_file_name_that_holds_a_line_break_is_refused_and_named_with_escapes(
    package, capsys, monkeypatch, command, code, name
):
    # A manifest line could not hold it: checksum would write a manifest
    # that verify misreads.
    monkeypatch.chdir(package.parent)
    (package / "data-raw" / name).write_bytes(b"x")
    escaped = "data-raw/" + name.replace("\r", "\\r").replace("\n", "\\n")
    got, out, err = run(capsys, command, str(package))
    assert got == code
    if command == "lint":
        assert out.startswith("FAIL: 1 error(s)")
        assert f"  {escaped}: R00 [internal] file name holds a line break; rename it" in out
        assert "could not be evaluated" not in out  # R16 checks the files it can name
    else:
        assert (out, err) == ("", f"error: file name holds a line break: {escaped}\n")
    assert not (package.parent / "demo.tar").exists()


@pytest.mark.parametrize("argv", [["lint"], ["pack", "--require-lint"]], ids=["lint", "pack"])
def test_lint_and_a_linted_pack_walk_the_tree_once(package, capsys, monkeypatch, argv):
    monkeypatch.chdir(package.parent)
    listed = []
    scandir = os.scandir
    monkeypatch.setattr(os, "scandir", lambda path=".": listed.append(os.fspath(path)) or scandir(path))
    assert run(capsys, argv[0], str(package), *argv[1:])[0] == EXIT_OK
    assert listed.count(str(package)) == 1


def test_a_file_deleted_between_the_scan_and_the_pack_is_missing(package, capsys, monkeypatch):
    from tidypack import lint

    monkeypatch.chdir(package.parent)
    lint_package = lint.lint_package

    def then_delete(*args):
        report = lint_package(*args)
        (package / "README.md").unlink()
        return report

    monkeypatch.setattr(lint, "lint_package", then_delete)
    code, out, err = run(capsys, "pack", str(package), "--require-lint")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: manifest verification failed; missing: README.md\n"
    assert not (package.parent / "demo.tar").exists()


def test_lint_judges_the_manifest_verify_reads(package, capsys):
    # A CHECKSUMS.TXT regenerated after an edit does not stand in for the
    # stale checksums.txt: lint judges the file verify reads.
    with open(package / "data/obs.csv", "ab") as handle:
        handle.write(b"tampered\n")
    assert run(capsys, "checksum", str(package), "--output", str(package / "CHECKSUMS.TXT"))[0] == EXIT_OK
    code, out, _ = run(capsys, "verify", str(package))
    assert (code, out.splitlines()[0]) == (EXIT_FINDINGS, "MISMATCH data/obs.csv")
    code, out, _ = run(capsys, "lint", str(package), "--strict", "--format", "json")
    assert code == EXIT_FINDINGS
    r16 = [f["detail"] for f in one_json(out)["findings"] if f["rule_id"] == "R16"]
    assert r16 == ["checksum mismatch for: data/obs.csv", "file(s) not covered by the manifest: CHECKSUMS.TXT"]


# One row per handler and outcome; the exit code is the README's table:
# 0 success, 1 a check found problems, 2 usage or malformed input, 3 I/O.
CONTRACT = [
    ("init", "ok", ["init", "{w}/new", "--dataset", "obs"], EXIT_OK),
    ("init", "error", ["init", "{w}/demo", "--dataset", "obs"], EXIT_USAGE),
    ("lint", "ok", ["lint", "{w}/demo"], EXIT_OK),
    ("lint", "findings", ["lint", "{w}/empty"], EXIT_FINDINGS),
    ("lint", "error", ["lint", "{w}/gone"], EXIT_IO),
    ("schema infer", "ok", ["schema", "infer", "{w}/t.csv"], EXIT_OK),
    ("schema infer", "error", ["schema", "infer", "{w}/gone.csv"], EXIT_IO),
    ("schema validate", "ok", ["schema", "validate", "{w}/t.csv", "{w}/t.json"], EXIT_OK),
    ("schema validate", "findings", ["schema", "validate", "{w}/bad.csv", "{w}/t.json"], EXIT_FINDINGS),
    ("schema validate", "error", ["schema", "validate", "{w}/t.csv", "{w}/broken.json"], EXIT_USAGE),
    ("dict", "ok", ["dict", "{w}/t.json"], EXIT_OK),
    ("dict", "error", ["dict", "{w}/broken.json"], EXIT_USAGE),
    ("checksum", "ok", ["checksum", "{w}/demo"], EXIT_OK),
    ("checksum", "error", ["checksum", "{w}/gone"], EXIT_IO),
    ("verify", "ok", ["verify", "{w}/demo"], EXIT_OK),
    ("verify", "findings", ["verify", "{w}/demo", "--manifest", "{w}/stale.txt"], EXIT_FINDINGS),
    ("verify", "error", ["verify", "{w}/empty"], EXIT_IO),
    ("chunk", "ok", ["chunk", "{w}/t.csv", "--max-rows", "1"], EXIT_OK),
    ("chunk", "error", ["chunk", "{w}/t.csv", "--max-rows", "0"], EXIT_USAGE),
    ("unchunk", "ok", ["unchunk", "{w}/c-1.csv", "{w}/c-2.csv", "--output", "{w}/merged.csv"], EXIT_OK),
    ("unchunk", "error", ["unchunk", "{w}/gone-1.csv", "--output", "{w}/merged.csv"], EXIT_IO),
    ("pack", "ok", ["pack", "{w}/demo", "--output", "{w}/demo.tar", "--require-lint"], EXIT_OK),
    ("pack", "error", ["pack", "{w}/empty", "--output", "{w}/empty.tar", "--require-lint"], EXIT_FINDINGS),
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv, outcome, expected", [(argv, outcome, code) for _, outcome, argv, code in CONTRACT],
    ids=[f"{command}-{outcome}" for command, outcome, _, _ in CONTRACT],
)
def test_output_contract(package, tmp_path, capsys, argv, outcome, expected, fmt):
    (tmp_path / "empty").mkdir()
    _write(tmp_path, "t.csv", b"id,score\n1,2.5\n2,3\n")
    _write(tmp_path, "bad.csv", b"id,score\nx,2.5\n")
    _write(tmp_path, "t.json", b'{"name": "t", "schema": {"fields": [{"name": "id", "type": "integer"}, {"name": "score", "type": "number"}]}}')
    _write(tmp_path, "broken.json", b"{broken")
    _write(tmp_path, "c-1.csv", b"id\n1\n")
    _write(tmp_path, "c-2.csv", b"id\n2\n")
    stale = (package / "checksums.txt").read_bytes().replace(b"data/obs.csv", b"data/gone.csv")
    _write(tmp_path, "stale.txt", stale)

    code, out, err = run(capsys, *(a.format(w=tmp_path) for a in argv), "--format", fmt)
    assert code == expected
    if fmt == "json":
        doc = one_json(out)
        assert ("error" in doc) == (outcome == "error")
        assert err == ""
    elif outcome == "error":
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert out != ""
        assert err == ""


@pytest.mark.parametrize(
    "argv, json_mode",
    [
        (["--form", "json"], True),
        (["--fo=json"], True),
        (["--format", "text", "--format", "json"], True),
        (["--format", "json", "--format", "text"], False),
    ],
)
def test_parse_error_reads_format_as_argparse_does(tmp_path, capsys, argv, json_mode):
    # argparse accepts any unambiguous prefix of --format and keeps the last one.
    code, out, err = run(capsys, "lint", str(tmp_path), *argv, "--bogus")
    assert code == EXIT_USAGE
    if json_mode:
        assert one_json(out) == {"error": {"code": EXIT_USAGE, "message": "unrecognized arguments: --bogus"}}
        assert err == ""
    else:
        assert out == ""
        assert err == "error: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["checksum", "lint", "verify"])
def test_closed_stdout_pipe_exits_3_with_one_error_line(package, command, fmt):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "tidypack", command, str(package), "--format", fmt],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert child.returncode == EXIT_IO
    assert child.stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_missing_stdout_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch, fmt):
    # A process started with file descriptor 1 closed has sys.stdout set to None.
    monkeypatch.setattr(sys, "stdout", None)
    code = main(["checksum", str(tmp_path), "--format", fmt])
    monkeypatch.undo()
    assert code == EXIT_IO
    assert capsys.readouterr().err == "error: stdout is closed\n"


def _checksum_under_encoding(root, fmt: str, encoding: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tidypack", "checksum", str(root), "--format", fmt],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": encoding},
    )


def test_json_is_utf8_whatever_the_stdout_encoding(tmp_path):
    # RFC 8259 section 8.1: JSON exchanged between systems is UTF-8.
    (tmp_path / "é.txt").write_bytes(b"")
    ascii_run = _checksum_under_encoding(tmp_path, "json", "ascii")
    utf8_run = _checksum_under_encoding(tmp_path, "json", "utf-8")
    assert ascii_run.returncode == utf8_run.returncode == EXIT_OK
    assert ascii_run.stderr == utf8_run.stderr == b""
    assert ascii_run.stdout == utf8_run.stdout
    assert one_json(ascii_run.stdout.decode("utf-8"))["entries"][0]["path"] == "é.txt"


def test_text_the_stdout_encoding_cannot_carry_is_not_an_internal_error(tmp_path):
    (tmp_path / "é.txt").write_bytes(b"")
    child = _checksum_under_encoding(tmp_path, "text", "ascii")
    assert child.returncode == EXIT_IO
    assert child.stdout == b""
    assert child.stderr == (
        b"error: output cannot be written in the stdout encoding 'ascii'; "
        b"set PYTHONIOENCODING=utf-8\n"
    )


def test_entry_points_run():
    module = subprocess.run(
        [sys.executable, "-m", "tidypack", "--help"], capture_output=True, text=True
    )
    assert module.returncode == 0
    assert module.stdout.startswith("usage: tidypack")

    script = subprocess.run(["tidypack", "--help"], capture_output=True, text=True)
    assert script.returncode == 0
    assert script.stdout.startswith("usage: tidypack")
