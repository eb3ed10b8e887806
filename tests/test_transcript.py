"""Golden transcript of the table commands: ``init --seed``, ``lint``,
``schema infer`` and ``schema validate``, each in text and JSON, on small
tables and packages built in a temporary directory.

Every run goes through ``cli.main`` with relative paths from inside that
directory, and records its argv, exit code, stdout, stderr and the MD5 of
each file it created or changed.  The list is compared with
``transcript.golden.json`` next to this file: a difference is a change to
what a user sees.  A change that means to alter the output rewrites the
file by running this module as a script::

    PYTHONPATH=src python tests/test_transcript.py

and names each changed entry in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from tidypack.cli import main

GOLDEN = Path(__file__).with_name("transcript.golden.json")

_SURVEY = [
    "id,code,day,amount,flag",
    "1,A0001,2020-01-02,3.50,true",
    "2,B0002,2020-02-29,-99,false",
    "3,C0003,2021-12-31,12,NA",
    "4,A0004,2019-07-04,0.25,true",
]

#: Seed tables, by file name.
TABLES = {
    "survey.csv": "\n".join(_SURVEY).encode() + b"\n",
    "survey-crlf.csv": "\r\n".join(_SURVEY).encode() + b"\r\n",
    "survey-cr.csv": "\r".join(_SURVEY).encode() + b"\r",
    "notes.csvy": (
        b'---\r\ntitle: notes\r\nrows: 3\r\n---\r\n"id","note","score"\r\n'
        b'"1","say ""hi"", then go","3.5"\r\n"2","two\r\nlines","NA"\r\n"3","plain; text","-99"\r\n'
    ),
    "ragged.csv": b"a,b\n1,2\n3\n4,5\n",
    "unterminated.csv": b'a,b\n1,2\n3,"open\n4,5\n',
    "dupes.csv": b"a,b,a\n1,2,3\n",
    "unnamed.csv": b"a,,c\n1,2,3\n",
    "blank.csv": b"\n\n\n",
    "latin1.csv": b"name,n\ncaf\xe9,1\n",
    "dates.csv": b"id,when,born\n1,2019-02-30,2000-01-01\n2,2020-02-29,0000-01-01\n3,2021-03-04,1999-12-31\n",
    "digits.csv": "id,score\n1,٣\n2,4\n".encode(),
    # A csvy whose own schema block contradicts its table (an untrusted verdict).
    "front.csvy": (
        b"---\nname: front\nschema:\n  fields:\n    - name: id\n      type: date\n"
        b"    - name: extra\n      type: string\n---\nid,day\nabc,2020-01-02\n"
    ),
    "smoker.csv": b"id,smoker\n1,1\n2,2\n3,7\n",
    "dictclass.csv": b"id,v\n1,a\n2,b\n",
    "awkward.csv": b"first name,Score%,x\n1,2,3\n",
}

#: Tables whose ``init --seed`` makes a package that the transcript then lints.
_PACKAGES = ("survey.csv", "survey-crlf.csv", "survey-cr.csv", "notes.csvy", "dates.csv", "digits.csv", "front.csvy", "smoker.csv", "dictclass.csv", "awkward.csv")

_FORMATS = ((), ("--format", "json"))


def _files(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.md5(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _run(root: Path, argv: list[str]) -> dict:
    before = _files(root)
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    after = _files(root)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.buffer.getvalue().decode("utf-8", "backslashreplace"),
        "stderr": err.getvalue(),
        "files": {rel: md5 for rel, md5 in after.items() if before.get(rel) != md5},
    }


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _edit_schema(path: Path, change) -> None:
    schema = json.loads(path.read_text(encoding="utf-8"))
    change(schema)
    path.write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")


def _field(schema: dict, name: str) -> dict:
    return next(f for f in schema["schema"]["fields"] if f["name"] == name)


def transcript(root: Path) -> list[dict]:
    """Build the tables and packages under ``root`` (the working directory)
    and run every command of the transcript."""
    runs = []
    tables = root / "tables"
    tables.mkdir()
    for name, data in TABLES.items():
        (tables / name).write_bytes(data)

    for name in TABLES:
        for fmt in _FORMATS:
            dest = f"pkg-{Path(name).stem}{'-json' if fmt else ''}"
            runs.append(_run(root, ["init", dest, "--dataset", "obs", "--seed", f"tables/{name}", *fmt]))
            runs.append(_run(root, ["schema", "infer", f"tables/{name}", *fmt]))

    # A dictionary and schema that declare -99 missing.
    declared = root / "pkg-survey"
    _edit_schema(declared / "metadata/obs.json", lambda s: s.update(missingValues=["-99", "NA"]))
    _edit(declared / "metadata/obs-dictionary.csv", "amount,number,,,NA", "amount,number,,,-99; NA")
    # A schema that mistypes code as integer.
    _edit_schema(root / "pkg-survey-crlf/metadata/obs.json", lambda s: _field(s, "code").update(type="integer"))
    # Codes that the data break, in the schema and its dictionary.
    _edit_schema(root / "pkg-smoker/metadata/obs.json", lambda s: _field(s, "smoker").update(codes={"1": "yes", "2": "no"}))
    _edit(root / "pkg-smoker/metadata/obs-dictionary.csv", "smoker,integer,,,NA", "smoker,integer,,1 = yes; 2 = no,NA")
    # An odd date in a column typed date, and a column the dictionary leaves out.
    _edit_schema(root / "pkg-dates/metadata/obs.json", lambda s: _field(s, "born").update(type="date"))
    _edit(root / "pkg-dates/metadata/obs-dictionary.csv", "born,string,,,NA\n", "")
    # A schema field the table lacks.
    _edit_schema(root / "pkg-notes/metadata/obs.json", lambda s: s["schema"]["fields"].append({"name": "extra", "type": "integer"}))
    # A second table that does not parse.
    (root / "pkg-awkward/data/broken.csv").write_bytes(TABLES["ragged.csv"])
    # A dictionary class that the schema contradicts.
    _edit(root / "pkg-dictclass/metadata/obs-dictionary.csv", "id,integer,,,NA", "id,date,,,NA")

    for name in _PACKAGES:
        package = f"pkg-{Path(name).stem}"
        table = f"{package}/data/obs{Path(name).suffix}"
        for fmt in _FORMATS:
            runs.append(_run(root, ["lint", package, *fmt]))
            runs.append(_run(root, ["schema", "validate", table, f"{package}/metadata/obs.json", *fmt]))
    for fmt in _FORMATS:
        runs.append(_run(root, ["schema", "validate", "tables/survey.csv", "pkg-survey-crlf/metadata/obs.json", *fmt]))
    return runs


def _render(runs: list[dict]) -> str:
    return json.dumps(runs, indent=1, ensure_ascii=False) + "\n"


def test_the_table_commands_match_the_golden_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _render(transcript(tmp_path)) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        os.chdir(scratch)
        try:
            text = _render(transcript(Path(scratch)))
        finally:
            os.chdir(home)
    GOLDEN.write_text(text, encoding="utf-8")
    sys.exit(0)
