"""Lint rules, configuration, and report rendering."""

from __future__ import annotations

import json
import os
import re

import pytest

from tidypack import (
    ConfigError,
    DataPackage,
    FileKind,
    FileRef,
    LicenseKind,
    LicenseRef,
    LintConfig,
    PackagePool,
    compute_manifest,
    lint_package,
    load_config,
    parse_config,
    report_to_json,
    report_to_text,
    scan_package,
    serialize_manifest,
)
from tidypack import lint
from tidypack.licenses import license_text
from tidypack.lint import RULES, RULES_BY_ID


def _write(root, rel: str, data: bytes) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _freshen_checksums(root) -> None:
    manifest = compute_manifest(root, include=lambda rel: rel != "checksums.txt")
    _write(root, "checksums.txt", serialize_manifest(manifest))


_README = b"""# demo

## Who collected the data?
A. Person.

## What is the data?
One table of scores.

## When was it collected?
During 2020.

## Where was it collected?
In the lab.

## Why was it collected?
Purpose: testing.

## How was it collected?
Methods: by hand.
"""

_SCHEMA_JSON = b"""{
  "name": "t",
  "path": "data/t.csv",
  "schema": {
    "fields": [
      {
        "name": "id",
        "type": "integer"
      },
      {
        "name": "score",
        "type": "number"
      }
    ]
  },
  "missingValues": [
    "NA"
  ]
}
"""


def _clean_package(root) -> None:
    """A package that produces zero findings of any severity."""
    _write(root, "README.md", _README)
    _write(root, "LICENSE", license_text(LicenseKind.CC_BY_4).encode())
    _write(root, "citation", b"Person, A. (2020). Demo data. https://doi.org/10.1234/abcd\n")
    _write(root, "data/t.csv", b"id,score\n1,3.5\n2,NA\n")
    _write(
        root,
        "data/t-dictionary.csv",
        b"variable,class,description,codes,missing_codes\n"
        b"id,integer,Row id,,NA\n"
        b"score,number,Score,,NA\n",
    )
    _write(root, "metadata/t.json", _SCHEMA_JSON)
    _write(root, "data-raw/t-raw.csv", b"id,score\n1,3.50\n2,NA\n")
    _write(root, "data-raw/t-clean.py", b"print('tidy')\n")
    _freshen_checksums(root)


def _lint(root, config=None):
    return lint_package(scan_package(root), config)


def _by_rule(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# Whole-report oracles


def test_empty_directory_report(tmp_path):
    report = _lint(tmp_path)
    assert not report.passed
    assert report.counts == {"error": 4, "warning": 2, "info": 1}
    assert [(f.rule_id, f.severity) for f in report.findings] == [
        ("R01", "error"),
        ("R03", "error"),
        ("R05", "error"),
        ("R12", "error"),
        ("R07", "warning"),
        ("R16", "warning"),
        ("R10", "info"),
    ]


def test_empty_directory_text_report(tmp_path):
    assert report_to_text(_lint(tmp_path)) == (
        "FAIL: 4 error(s), 2 warning(s), 1 info\n"
        "\n"
        "ERROR\n"
        "  R01 [§2.1] no README file at the package top level\n"
        "  R03 [§2.2] no data dictionary anywhere in the package\n"
        "  R05 [§2.3] no license file at the package top level\n"
        "  R12 [§2.8] no analysis-ready tables under data/\n"
        "\n"
        "WARNING\n"
        "  R07 [§2.4] no citation file at the package top level\n"
        "  R16 [Rule 8] no checksums.txt manifest at the package top level\n"
        "\n"
        "INFO\n"
        "  R10 [§2.6] no raw data under data-raw/; share the untouched originals when you can\n"
    )


def test_empty_directory_json_report(tmp_path):
    data = report_to_json(_lint(tmp_path))
    assert data.startswith(
        b'{\n  "pass": false,\n  "counts": {\n    "error": 4,\n'
        b'    "warning": 2,\n    "info": 1\n  },\n  "findings": [\n'
    )
    obj = json.loads(data)
    assert list(obj) == ["pass", "counts", "findings"]
    assert list(obj["counts"]) == ["error", "warning", "info"]
    first = obj["findings"][0]
    assert list(first) == ["rule_id", "severity", "path", "detail"]
    assert first["path"] is None
    assert "machine_data" not in json.dumps(obj)


def test_clean_package_has_zero_findings(tmp_path):
    _clean_package(tmp_path)
    report = _lint(tmp_path)
    assert report.findings == []
    assert report.passed
    assert report.counts == {"error": 0, "warning": 0, "info": 0}
    assert report_to_text(report) == "PASS: 0 error(s), 0 warning(s), 0 info\n"


def test_linting_is_deterministic_and_read_only(tmp_path):
    _clean_package(tmp_path)
    before = compute_manifest(tmp_path)
    first = report_to_json(_lint(tmp_path))
    second = report_to_json(_lint(tmp_path))
    assert first == second
    assert compute_manifest(tmp_path) == before


# ---------------------------------------------------------------------------
# Individual rules, each tripped from the clean baseline


def test_r01_missing_readme(tmp_path):
    _clean_package(tmp_path)
    (tmp_path / "README.md").unlink()
    findings = _by_rule(_lint(tmp_path), "R01")
    assert [f.severity for f in findings] == ["error"]


def test_r02_unanswered_questions(tmp_path):
    _clean_package(tmp_path)
    _write(tmp_path, "README.md", b"# demo\n\nWho made this data?\n")
    findings = _by_rule(_lint(tmp_path), "R02")
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert findings[0].path == "README.md"
    assert findings[0].detail == "README does not appear to answer: when, where, why, how"


def test_r03_missing_dictionary(tmp_path):
    _clean_package(tmp_path)
    (tmp_path / "data/t-dictionary.csv").unlink()
    findings = _by_rule(_lint(tmp_path), "R03")
    assert len(findings) == 1
    assert findings[0].severity == "error"
    assert "'t'" in findings[0].detail


def test_r03_pool_dictionary_covers_all_datasets(tmp_path):
    _write(tmp_path, "data/a.csv", b"x\n1\n")
    _write(tmp_path, "data/b.csv", b"x\n2\n")
    _write(tmp_path, "metadata/dictionary.csv", b"variable,class\nx,integer\n")
    assert _by_rule(_lint(tmp_path), "R03") == []


def test_r04_undescribed_columns(tmp_path):
    _clean_package(tmp_path)
    _write(
        tmp_path,
        "data/t-dictionary.csv",
        b"variable,class,description,codes,missing_codes\nid,integer,Row id,,NA\n",
    )
    findings = _by_rule(_lint(tmp_path), "R04")
    assert len(findings) == 1
    assert findings[0].severity == "error"
    assert findings[0].path == "data/t.csv"
    assert findings[0].detail == "dictionary does not describe column(s): score"


def test_r04_unparseable_dictionary(tmp_path):
    _clean_package(tmp_path)
    _write(tmp_path, "data/t-dictionary.csv", b"name,kind\nid,integer\n")
    findings = _by_rule(_lint(tmp_path), "R04")
    assert len(findings) == 1
    assert "cannot be parsed" in findings[0].detail
    assert findings[0].path == "data/t-dictionary.csv"
    # Presence-wise the file still counts, so R03 stays quiet.
    assert _by_rule(_lint(tmp_path), "R03") == []


def test_r05_r06_license(tmp_path):
    _clean_package(tmp_path)
    (tmp_path / "LICENSE").unlink()
    report = _lint(tmp_path)
    assert [f.severity for f in _by_rule(report, "R05")] == ["error"]
    assert _by_rule(report, "R06") == []

    _write(tmp_path, "LICENSE", b"all rights reserved, probably\n")
    report = _lint(tmp_path)
    assert _by_rule(report, "R05") == []
    findings = _by_rule(report, "R06")
    assert [f.severity for f in findings] == ["warning"]
    assert findings[0].path == "LICENSE"


def test_r07_citation_levels(tmp_path):
    _clean_package(tmp_path)
    (tmp_path / "citation").unlink()
    findings = _by_rule(_lint(tmp_path), "R07")
    assert [f.severity for f in findings] == ["warning"]

    _write(tmp_path, "citation", b"Person, A. (2020). Demo data.\n")
    findings = _by_rule(_lint(tmp_path), "R07")
    assert [f.severity for f in findings] == ["info"]
    assert "DOI" in findings[0].detail


def test_r08_missing_metadata(tmp_path):
    _clean_package(tmp_path)
    (tmp_path / "metadata/t.json").unlink()
    findings = _by_rule(_lint(tmp_path), "R08")
    assert [f.severity for f in findings] == ["warning"]
    assert findings[0].path == "data/t.csv"


def test_r09_invalid_json(tmp_path):
    _clean_package(tmp_path)
    _write(tmp_path, "metadata/t.json", b"{not json")
    findings = _by_rule(_lint(tmp_path), "R09")
    assert len(findings) == 1
    assert findings[0].severity == "error"
    assert "not valid schema JSON" in findings[0].detail


def test_r09_path_safety_and_missing_target(tmp_path):
    _clean_package(tmp_path)
    escaping = _SCHEMA_JSON.replace(b"data/t.csv", b"../outside.csv")
    _write(tmp_path, "metadata/t.json", escaping)
    findings = _by_rule(_lint(tmp_path), "R09")
    assert len(findings) == 1 and "stay inside the package" in findings[0].detail

    gone = _SCHEMA_JSON.replace(b"data/t.csv", b"data/gone.csv")
    _write(tmp_path, "metadata/t.json", gone)
    findings = _by_rule(_lint(tmp_path), "R09")
    assert len(findings) == 1 and "missing table" in findings[0].detail


@pytest.mark.parametrize("link", ["data/link.csv", "data/linked/t.csv"], ids=["file", "directory"])
def test_r09_reads_no_table_behind_a_symbolic_link(tmp_path, link):
    # The walk skips symbolic links, so no other command sees the target:
    # R09 does not validate the cells of a file outside the package either.
    root = tmp_path / "pkg"
    _clean_package(root)
    outside = tmp_path / "outside"
    _write(outside, "t.csv", b"id,score\nSECRET,x\n")
    if link.endswith("link.csv"):
        (root / link).symlink_to(outside / "t.csv")
    else:
        (root / "data/linked").symlink_to(outside, target_is_directory=True)
    _write(root, "metadata/t.json", _SCHEMA_JSON.replace(b"data/t.csv", link.encode()))
    findings = _by_rule(_lint(root), "R09")
    assert [f.detail for f in findings] == [f"schema points at a missing table: {link}"]
    assert link not in scan_package(root).all_paths()


def test_r09_reads_an_inventoried_table_however_its_path_is_spelled(tmp_path):
    _clean_package(tmp_path)
    stricter = _SCHEMA_JSON.replace(b'"type": "number"', b'"type": "integer"')
    _write(tmp_path, "metadata/t.json", stricter.replace(b'"data/t.csv"', b'"./data//t.csv"'))
    findings = _by_rule(_lint(tmp_path), "R09")
    assert [f.detail.partition(":")[0] for f in findings] == ["./data//t.csv does not match the schema"]


def test_r09_schema_mismatch_names_first_violation(tmp_path):
    _clean_package(tmp_path)
    stricter = _SCHEMA_JSON.replace(b'"type": "number"', b'"type": "integer"')
    _write(tmp_path, "metadata/t.json", stricter)
    findings = _by_rule(_lint(tmp_path), "R09")
    assert len(findings) == 1
    assert findings[0].severity == "error"
    assert findings[0].path == "metadata/t.json"
    assert findings[0].detail == (
        "data/t.csv does not match the schema: 1 violation(s); "
        "first: type_mismatch at row 1, field 'score', value '3.5'"
    )


def test_r09_default_target_is_the_datasets_table(tmp_path):
    _clean_package(tmp_path)
    pathless = _SCHEMA_JSON.replace(b'  "path": "data/t.csv",\n', b"")
    _write(tmp_path, "metadata/t.json", pathless)
    assert _by_rule(_lint(tmp_path), "R09") == []

    wrong = pathless.replace(b'"type": "number"', b'"type": "boolean"')
    _write(tmp_path, "metadata/t.json", wrong)
    findings = _by_rule(_lint(tmp_path), "R09")
    assert len(findings) == 1 and "data/t.csv does not match" in findings[0].detail


def test_r10_r11_raw_data_and_scripts(tmp_path):
    _clean_package(tmp_path)
    (tmp_path / "data-raw/t-clean.py").unlink()
    report = _lint(tmp_path)
    assert _by_rule(report, "R10") == []
    findings = _by_rule(report, "R11")
    assert [f.severity for f in findings] == ["warning"]
    assert findings[0].path == "data-raw/t-raw.csv"

    (tmp_path / "data-raw/t-raw.csv").unlink()
    report = _lint(tmp_path)
    assert _by_rule(report, "R11") == []
    assert [f.severity for f in _by_rule(report, "R10")] == ["info"]


def test_r12_binary_and_broken_tables(tmp_path):
    _clean_package(tmp_path)
    _write(tmp_path, "data/blob.rds", b"\x00\x01")
    findings = _by_rule(_lint(tmp_path), "R12")
    assert len(findings) == 1
    assert findings[0].severity == "error"
    assert findings[0].path == "data/blob.rds"
    assert "binary data" in findings[0].detail

    (tmp_path / "data/blob.rds").unlink()
    _write(tmp_path, "data/t.csv", b'id,score\n"1,2\n')  # unterminated quote
    findings = _by_rule(_lint(tmp_path), "R12")
    assert len(findings) == 1
    assert "cannot be parsed" in findings[0].detail
    assert findings[0].path == "data/t.csv"

    # A blank table has no header, so it is no table.
    _write(tmp_path, "data/t.csv", b"\n\r\n")
    report = _lint(tmp_path)
    assert [(f.path, f.severity, f.detail) for f in _by_rule(report, "R12")] == [
        ("data/t.csv", "error", "table cannot be parsed: table is empty; expected a header row")
    ]
    assert not report.passed


def test_r13_column_names(tmp_path):
    _clean_package(tmp_path)
    long_name = "a" * 33
    _write(tmp_path, "data/u.csv", f"my col,_x,{long_name}\n1,2,3\n".encode())
    findings = _by_rule(_lint(tmp_path), "R13")
    assert len(findings) == 2
    warning, info = findings
    assert warning.severity == "warning"
    assert warning.path == "data/u.csv"
    assert "'my col', '_x'" in warning.detail
    assert info.severity == "info"
    assert long_name in info.detail


def test_r14_almost_dates(tmp_path):
    _clean_package(tmp_path)
    _write(tmp_path, "data/d.csv", b"when\n2019-01-22\n2019-02-30\n")
    findings = _by_rule(_lint(tmp_path), "R14")
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert findings[0].path == "data/d.csv"
    assert "'2019-02-30'" in findings[0].detail

    # All calendar-valid: nothing to say.
    _write(tmp_path, "data/d.csv", b"when\n2019-01-22\n2020-02-29\n")
    assert _by_rule(_lint(tmp_path), "R14") == []

    # A non-dateish cell means the column is not a date column.
    _write(tmp_path, "data/d.csv", b"when\n2019-02-30\nnever\n")
    assert _by_rule(_lint(tmp_path), "R14") == []


def test_r14_counts_every_offending_cell_and_names_the_first(tmp_path):
    _clean_package(tmp_path)
    _write(
        tmp_path,
        "data/d.csv",
        b"when\n2019-04-31\n2019-01-22\n2019-02-30\n\n2019-04-31\n2019-13-01\n",
    )
    (finding,) = _by_rule(_lint(tmp_path), "R14")
    assert "holds dates but 4 value(s)" in finding.detail
    assert finding.machine_data["example"] == "2019-04-31"


def test_r14_names_dates_off_the_calendar_below_day_29(tmp_path):
    _clean_package(tmp_path)
    _write(
        tmp_path,
        "data/d.csv",
        b"when\n2019-01-22\n2020-02-29\n2019-00-10\n0000-01-01\n2019-13-01\n2019-01-00\n2019-02-29\n2019-00-10\n",
    )
    (finding,) = _by_rule(_lint(tmp_path), "R14")
    assert "holds dates but 6 value(s)" in finding.detail
    assert finding.machine_data["example"] == "2019-00-10"


def _rewrite_before_the_second_read(monkeypatch, path, data: bytes) -> None:
    """Make lint's second read of a table rewrite ``path`` with ``data`` first."""
    real = lint.read_parts

    def rewrite_then_read(target):
        path.write_bytes(data)
        return real(target)

    monkeypatch.setattr(lint, "read_parts", rewrite_then_read)


def test_r09_names_a_table_that_changed_between_its_two_reads(tmp_path, monkeypatch):
    _clean_package(tmp_path)
    _write(tmp_path, "metadata/t.json", _SCHEMA_JSON.replace(b'"type": "number"', b'"type": "integer"'))
    _rewrite_before_the_second_read(monkeypatch, tmp_path / "data/t.csv", b"id,score\n1,3\n2,NA\n")
    report = _lint(tmp_path)
    assert _by_rule(report, "R09") == []
    (crash,) = _by_rule(report, "R00")
    assert crash.severity == "error"
    assert crash.detail == f"R09 ({RULES_BY_ID['R09'].title}) could not be evaluated: data/t.csv changed while it was read"


def test_r14_names_a_table_that_changed_between_its_two_reads(tmp_path, monkeypatch):
    _clean_package(tmp_path)
    _write(tmp_path, "data/d.csv", b"when\n2019-01-22\n2019-02-30\n")
    _rewrite_before_the_second_read(monkeypatch, tmp_path / "data/d.csv", b"when\n2019-01-22\n2019-02-28\n")
    report = _lint(tmp_path)
    assert _by_rule(report, "R14") == []
    (crash,) = _by_rule(report, "R00")
    assert crash.severity == "warning"
    assert crash.detail == f"R14 ({RULES_BY_ID['R14'].title}) could not be evaluated: data/d.csv changed while it was read"


def test_r15_undeclared_missing_tokens(tmp_path):
    _clean_package(tmp_path)
    _write(tmp_path, "data/m.csv", b"v\n-99\n1\n")
    findings = _by_rule(_lint(tmp_path), "R15")
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert findings[0].path == "data/m.csv"
    assert findings[0].detail == "undeclared missing-value token(s) found -- v: '-99'"
    # The clean dataset declares NA, so it stays quiet.
    assert all(f.path != "data/t.csv" for f in findings)


def test_r16_manifest_states(tmp_path):
    _clean_package(tmp_path)

    (tmp_path / "checksums.txt").unlink()
    findings = _by_rule(_lint(tmp_path), "R16")
    assert [f.severity for f in findings] == ["warning"]
    assert "no checksums.txt" in findings[0].detail

    _write(tmp_path, "checksums.txt", b"garbage here\n")
    findings = _by_rule(_lint(tmp_path), "R16")
    assert len(findings) == 1 and "cannot be parsed" in findings[0].detail

    _freshen_checksums(tmp_path)
    with open(tmp_path / "data/t.csv", "ab") as handle:
        handle.write(b"3,4.5\n")
    findings = _by_rule(_lint(tmp_path), "R16")
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert findings[0].detail == "checksum mismatch for: data/t.csv"

    _freshen_checksums(tmp_path)
    with open(tmp_path / "checksums.txt", "ab") as handle:
        handle.write(b"a" * 32 + b"  ghost.bin\n")
    findings = _by_rule(_lint(tmp_path), "R16")
    assert len(findings) == 1
    assert "ghost.bin" in findings[0].detail and "do not exist" in findings[0].detail

    _freshen_checksums(tmp_path)
    _write(tmp_path, "extras/new.txt", b"uncovered\n")
    findings = _by_rule(_lint(tmp_path), "R16")
    assert [f.severity for f in findings] == ["info"]
    assert "extras/new.txt" in findings[0].detail
    # Extras alone never fail the package.
    assert _lint(tmp_path).passed


def test_r16_verifies_the_files_it_can_name_beside_one_it_cannot(tmp_path):
    # The unnamed file is R00's error; it must not stop R16 seeing the mismatch.
    _clean_package(tmp_path)
    _write(tmp_path, os.fsdecode(b"data-raw/bad\xff.txt"), b"x")
    with open(tmp_path / "data/t.csv", "ab") as handle:
        handle.write(b"3,4.5\n")
    report = _lint(tmp_path)
    assert [f.detail for f in _by_rule(report, "R16")] == ["checksum mismatch for: data/t.csv"]
    assert [(f.severity, f.path) for f in _by_rule(report, "R00")] == [("error", "data-raw/bad\\xff.txt")]


def test_r17_hosting_limits(tmp_path):
    def synthetic(size: int) -> DataPackage:
        ref = FileRef(path="data/big.csv", size_bytes=size, kind=FileKind.PLAIN_TEXT_TABLE)
        return DataPackage(
            root=tmp_path,
            datasets=[],
            readme=None,
            license=None,
            citation=None,
            checksums=None,
            pool=PackagePool(data_files=[ref]),
        )

    small = lint_package(synthetic(1_999_999_999))
    assert _by_rule(small, "R17") == []

    over_release = lint_package(synthetic(2_000_000_001))
    findings = _by_rule(over_release, "R17")
    assert len(findings) == 1
    assert findings[0].severity == "info"
    assert "2 GB" in findings[0].detail
    assert over_release.passed is False  # R12 binary rule aside, errors from emptiness

    over_archive = lint_package(synthetic(50_000_000_001))
    findings = _by_rule(over_archive, "R17")
    assert len(findings) == 2
    assert "2 GB" in findings[0].detail and "50 GB" in findings[1].detail


def test_r17_covers_documentation_slots(tmp_path):
    size = 2_000_000_001
    package = DataPackage(
        root=tmp_path,
        datasets=[],
        readme=FileRef(path="README.md", size_bytes=size, kind=FileKind.DOCUMENT),
        license=LicenseRef(
            path="LICENSE", size_bytes=size, kind=FileKind.OTHER, detected=LicenseKind.CC0_1
        ),
        citation=None,
        checksums=None,
    )
    findings = _by_rule(lint_package(package), "R17")
    assert [(f.path, f.severity) for f in findings] == [("LICENSE", "info"), ("README.md", "info")]
    assert all("2 GB" in f.detail for f in findings)


def test_each_table_is_read_once_per_run(tmp_path, monkeypatch):
    _clean_package(tmp_path)
    _write(tmp_path, "data/u.csv", b"id,day\n1,2020-01-02\n")
    _write(tmp_path, "data/bad.csv", b"id,id\n1,2\n")
    reads: list[bytes] = []
    real = lint.profile_csvy
    monkeypatch.setattr(lint, "profile_csvy", lambda data, watch: reads.append(data) or real(data, watch))
    report = _lint(tmp_path)
    assert _by_rule(report, "R12")  # the unparsable table is reported
    assert sorted(reads) == sorted((tmp_path / rel).read_bytes() for rel in ("data/bad.csv", "data/t.csv", "data/u.csv"))


def test_r18_conflicting_code_labels(tmp_path):
    _clean_package(tmp_path)
    _write(
        tmp_path,
        "data/t-dictionary.csv",
        b"variable,class,description,codes,missing_codes\n"
        b"id,integer,Row id,,NA\n"
        b"score,number,Score,,NA\n"
        b"vote,integer,Voted,0 = no; 1 = yes,NA\n"
        b"agree,integer,Agreed,0 = No; 1 = yes,NA\n",
    )
    findings = _by_rule(_lint(tmp_path), "R18")
    assert len(findings) == 1
    assert findings[0].severity == "info"
    assert findings[0].detail == (
        "code '0' means different things across variables sharing "
        "a code set (agree, vote): No, no"
    )

    # Agreeing labels are fine.
    _write(
        tmp_path,
        "data/t-dictionary.csv",
        b"variable,class,description,codes,missing_codes\n"
        b"id,integer,Row id,,NA\n"
        b"score,number,Score,,NA\n"
        b"vote,integer,Voted,0 = no; 1 = yes,NA\n"
        b"agree,integer,Agreed,0 = no; 1 = yes,NA\n",
    )
    assert _by_rule(_lint(tmp_path), "R18") == []


def _crashing(monkeypatch, *rule_ids):
    """Make the given rules, and only those, raise when evaluated."""

    def boom(ctx):
        raise RuntimeError("boom")

    monkeypatch.setattr(lint, "_EVALUATORS", tuple((RULES_BY_ID[rule_id], boom) for rule_id in rule_ids))


def test_r00_catches_crashing_evaluators(tmp_path, monkeypatch):
    _crashing(monkeypatch, "R01")
    report = _lint(tmp_path)
    assert [f.rule_id for f in report.findings] == ["R00"]
    finding = report.findings[0]
    assert finding.severity == "error"
    assert finding.detail == (
        "R01 (README file at the package top level) could not be evaluated: boom"
    )
    assert not report.passed  # a check that could not run does not pass


def test_r00_of_a_warning_rule_is_a_warning(tmp_path, monkeypatch):
    _crashing(monkeypatch, "R02")
    report = _lint(tmp_path)
    # The evaluator raised outside tidypack, so the runner's frame is the innermost one in it.
    where = report.findings[0].machine_data.get("where", "")
    assert re.fullmatch(r"lint\.py:\d+ in lint_package", where)
    expected = {"rule": "R02", "exception": "RuntimeError", "where": where}
    assert [(f.rule_id, f.severity, f.machine_data) for f in report.findings] == [("R00", "warning", expected)]
    assert report.passed


def test_r00_names_the_exception_and_where_it_was_raised(tmp_path):
    _clean_package(tmp_path)
    pkg = scan_package(tmp_path)
    (tmp_path / "README.md").rename(tmp_path / "README.txt")
    (crash,) = _by_rule(lint_package(pkg), "R00")
    assert crash.severity == "warning"
    assert crash.machine_data["rule"] == "R02"
    assert crash.machine_data["exception"] == "FileNotFoundError"
    assert re.fullmatch(r"lint\.py:\d+ in \w+", crash.machine_data["where"])


def test_a_table_gone_after_the_scan_is_r12s_error(tmp_path):
    _clean_package(tmp_path)
    pkg = scan_package(tmp_path)
    (tmp_path / "data" / "t.csv").unlink()
    report = lint_package(pkg)
    assert not report.passed
    assert _by_rule(report, "R00") == []
    (finding,) = _by_rule(report, "R12")
    assert (finding.severity, finding.path) == ("error", "data/t.csv")
    assert finding.detail.startswith("table cannot be parsed: ") and "t.csv" in finding.detail


def test_r00_takes_the_configured_level(tmp_path, monkeypatch):
    _crashing(monkeypatch, "R01", "R12", "R16")
    report = _lint(tmp_path, LintConfig(levels={"R01": "info", "R12": "off"}))
    assert [(f.severity, f.machine_data["rule"]) for f in report.findings] == [("warning", "R16"), ("info", "R01")]
    assert report.passed


# ---------------------------------------------------------------------------
# Configuration


def test_rule_registry_shape():
    assert [rule.id for rule in RULES] == [f"R{i:02d}" for i in range(1, 19)]
    assert {rule.severity for rule in RULES} == {"error", "warning", "info"}
    assert RULES_BY_ID["R16"].anchor == "Rule 8"


def test_every_rule_has_exactly_one_evaluator():
    # An evaluator no rule names would silently never run.
    evaluators = sorted(name for name in vars(lint) if name.startswith("_eval_r"))
    assert evaluators == [f"_eval_{rule.id.lower()}" for rule in RULES]
    assert [rule.id for rule, _ in lint._EVALUATORS] == [rule.id for rule in RULES]


def test_config_off_disables_a_rule(tmp_path):
    report = _lint(tmp_path, LintConfig(levels={"R01": "off"}))
    assert _by_rule(report, "R01") == []
    assert report.counts["error"] == 3


def test_config_can_lower_to_passing(tmp_path):
    config = LintConfig(
        levels={"R01": "off", "R03": "off", "R05": "off", "R12": "warning"}
    )
    report = _lint(tmp_path, config)
    assert report.passed
    assert [f.severity for f in _by_rule(report, "R12")] == ["warning"]


def test_config_cannot_raise_severity(tmp_path):
    report = _lint(tmp_path, LintConfig(levels={"R10": "error", "R16": "error"}))
    assert [f.severity for f in _by_rule(report, "R10")] == ["info"]
    assert [f.severity for f in _by_rule(report, "R16")] == ["warning"]


def test_config_guards():
    with pytest.raises(ConfigError):
        LintConfig(levels={"R99": "off"})
    with pytest.raises(ConfigError):
        LintConfig(levels={"R01": "silent"})


def test_parse_config_format():
    config = parse_config("# comment\n\nR01 = off\nR12=warning\n")
    assert config.levels == {"R01": "off", "R12": "warning"}
    with pytest.raises(ConfigError):
        parse_config("R01 off\n")


def test_load_config(tmp_path):
    path = tmp_path / "lint.cfg"
    path.write_text("R10 = off\n")
    assert load_config(path).levels == {"R10": "off"}
