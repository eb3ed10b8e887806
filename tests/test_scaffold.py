"""Scaffolding new packages: layout, determinism, and lint closure."""

from __future__ import annotations

import importlib
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tidypack import (
    Author,
    LicenseKind,
    ScaffoldError,
    ScaffoldRequest,
    lint,
    lint_package,
    parse_manifest,
    scaffold,
    scan_package,
    schema_from_json,
    verify_manifest,
)


def _tree(root) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


_MINIMAL = ScaffoldRequest(package_name="demo", dataset_names=["obs"])

_FULL = ScaffoldRequest(
    package_name="demo",
    dataset_names=["obs"],
    license=LicenseKind.CC_BY_4,
    authors=[Author(name="A Person", orcid="0000-0002-1825-0097"), Author(name="B Person")],
    doi="10.1234/abcd",
    year=2020,
)


def test_minimal_layout(tmp_path):
    dest = tmp_path / "pkg"
    package = scaffold(_MINIMAL, dest)
    assert sorted(_tree(dest)) == [
        "LICENSE",
        "README.md",
        "checksums.txt",
        "data-raw/obs-cleaning.py",
        "data/obs.csv",
        "metadata/obs-dictionary.csv",
        "metadata/obs.json",
    ]
    assert (dest / "data/obs.csv").read_bytes() == b"value\n"
    stub = (dest / "data-raw/obs-cleaning.py").read_text()
    assert "data/obs.csv" in stub and "NotImplementedError" in stub
    assert package.readme is not None
    assert package.license is not None
    assert package.checksums is not None
    assert package.citation is None
    assert [ds.name for ds in package.datasets] == ["obs"]
    schema = schema_from_json((dest / "metadata/obs.json").read_bytes())
    assert [(f.name, f.type) for f in schema.fields] == [("value", "string")]
    assert schema.license_id == "CC0-1.0"


def test_scaffold_is_deterministic(tmp_path):
    scaffold(_FULL, tmp_path / "a")
    scaffold(_FULL, tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


def test_refuses_non_empty_destination(tmp_path):
    dest = tmp_path / "pkg"
    dest.mkdir()
    (dest / "keep.txt").write_bytes(b"precious")
    with pytest.raises(ScaffoldError, match="not empty"):
        scaffold(_MINIMAL, dest)
    assert _tree(dest) == {"keep.txt": b"precious"}

    plain_file = tmp_path / "occupied"
    plain_file.write_bytes(b"")
    with pytest.raises(ScaffoldError, match="not a directory"):
        scaffold(_MINIMAL, plain_file)


def test_empty_existing_directory_is_fine(tmp_path):
    dest = tmp_path / "pkg"
    dest.mkdir()
    scaffold(_MINIMAL, dest)
    assert "README.md" in _tree(dest)


def test_seed_table_copied_verbatim(tmp_path):
    seed = tmp_path / "survey.csv"
    seed_bytes = b"id,score\n1,2.5\n2,NA\n"
    seed.write_bytes(seed_bytes)
    request = ScaffoldRequest(
        package_name="demo", dataset_names=["obs"], seed_tables=[seed]
    )
    dest = tmp_path / "pkg"
    scaffold(request, dest)
    assert (dest / "data/obs.csv").read_bytes() == seed_bytes
    schema = schema_from_json((dest / "metadata/obs.json").read_bytes())
    assert [(f.name, f.type) for f in schema.fields] == [
        ("id", "integer"),
        ("score", "number"),
    ]
    dictionary = (dest / "metadata/obs-dictionary.csv").read_text()
    assert dictionary.splitlines()[0] == "variable,class,description,codes,missing_codes"
    assert "id,integer" in dictionary


def test_seed_with_front_matter_and_foreign_suffix(tmp_path):
    seed = tmp_path / "survey.tsv"
    seed_bytes = b"---\nsource: lab\n---\nid\tscore\n1\t2.5\n"
    seed.write_bytes(seed_bytes)
    request = ScaffoldRequest(
        package_name="demo", dataset_names=["obs"], seed_tables=[seed]
    )
    dest = tmp_path / "pkg"
    scaffold(request, dest)
    assert (dest / "data/obs.tsv").read_bytes() == seed_bytes
    assert not (dest / "data/obs.csv").exists()


def test_seed_with_a_suffix_lint_does_not_read_becomes_csv(tmp_path):
    # A seed named .dat copied as data/obs.dat would be no table to lint (R12).
    seed = tmp_path / "seed.dat"
    seed_bytes = b"id,score\n1,2.5\n"
    seed.write_bytes(seed_bytes)
    request = ScaffoldRequest(package_name="demo", dataset_names=["obs"], seed_tables=[seed])
    dest = tmp_path / "pkg"
    scaffold(request, dest)
    assert (dest / "data/obs.csv").read_bytes() == seed_bytes
    assert not (dest / "data/obs.dat").exists()
    assert schema_from_json((dest / "metadata/obs.json").read_bytes()).path == "data/obs.csv"
    assert lint_package(scan_package(dest)).passed


def test_unparseable_seed_writes_nothing(tmp_path):
    seed = tmp_path / "bad.csv"
    seed.write_bytes(b'id\n"oops\n')
    dest = tmp_path / "pkg"
    with pytest.raises(ScaffoldError, match="cannot be parsed"):
        scaffold(
            ScaffoldRequest(package_name="demo", dataset_names=["obs"], seed_tables=[seed]),
            dest,
        )
    assert not dest.exists()


def test_citation_rendering(tmp_path):
    dest = tmp_path / "pkg"
    scaffold(_FULL, dest)
    citation = (dest / "citation").read_text()
    assert citation.startswith("@misc{demo,\n")
    assert "  author = {A Person and B Person},\n" in citation
    assert "  year = {2020},\n" in citation
    assert "  doi = {10.1234/abcd},\n" in citation
    assert citation.endswith("}\n")
    readme = (dest / "README.md").read_text()
    assert "## Citing this data" in readme
    assert "ORCID: 0000-0002-1825-0097" in readme
    assert "CC-BY-4.0" in readme


def test_scaffold_lints_clean(tmp_path):
    package = scaffold(_FULL, tmp_path / "pkg")
    report = lint_package(package)
    assert report.passed
    assert report.counts == {"error": 0, "warning": 0, "info": 1}
    assert [f.rule_id for f in report.findings] == ["R10"]


@pytest.mark.parametrize("doi", ["10.1234/abcd", "10.12345.6/x(y)-z;1", "10.1234/ä}b"])
def test_an_accepted_doi_gets_no_r07(tmp_path, doi):
    package = scaffold(replace(_FULL, doi=doi), tmp_path / "pkg")
    assert [f.rule_id for f in lint_package(package).findings] == ["R10"]


@given(st.text(alphabet=st.sampled_from(list('ab1/.<>"{}() \t\nä')), max_size=8))
def test_lint_finds_every_doi_init_accepts(suffix):
    try:
        request = replace(_FULL, doi="10.1234/" + suffix)
    except ScaffoldError as exc:
        assert repr("10.1234/" + suffix) in str(exc)
        return
    citation = importlib.import_module("tidypack.scaffold")._render_citation(request)
    found = lint._DOI_RE.search(citation)
    assert found is not None and found.group().startswith(request.doi)


def test_scaffold_without_doi_lints_with_citation_nudge(tmp_path):
    report = lint_package(scaffold(_MINIMAL, tmp_path / "pkg"))
    assert report.passed
    assert sorted(f.rule_id for f in report.findings) == ["R07", "R10"]


def test_multi_dataset_scaffold(tmp_path):
    seed = tmp_path / "first.csv"
    seed.write_bytes(b"x\n1\n")
    request = ScaffoldRequest(
        package_name="demo",
        dataset_names=["beta", "alpha"],
        doi="10.1234/abcd",
        seed_tables=[seed],
    )
    dest = tmp_path / "pkg"
    package = scaffold(request, dest)
    assert sorted(ds.name for ds in package.datasets) == ["alpha", "beta"]
    # Seeds pair positionally: beta got the seed, alpha the placeholder.
    assert (dest / "data/beta.csv").read_bytes() == b"x\n1\n"
    assert (dest / "data/alpha.csv").read_bytes() == b"value\n"
    readme = (dest / "README.md").read_text()
    assert "A data package with 2 datasets: `alpha`, `beta`." in readme
    assert lint_package(package).counts["error"] == 0


def test_manifest_covers_everything(tmp_path):
    dest = tmp_path / "pkg"
    scaffold(_FULL, dest)
    manifest = parse_manifest((dest / "checksums.txt").read_bytes())
    report = verify_manifest(dest, manifest, include=lambda rel: rel != "checksums.txt")
    assert report.ok
    assert report.extra == []


def test_rescan_matches_returned_model(tmp_path):
    dest = tmp_path / "pkg"
    package = scaffold(_FULL, dest)
    rescan = scan_package(dest)
    assert package.all_paths() == rescan.all_paths()
    assert package.dataset("obs").name == "obs"


def test_request_guards(tmp_path):
    with pytest.raises(ScaffoldError, match="filesystem-safe"):
        ScaffoldRequest(package_name="bad name", dataset_names=["obs"])
    with pytest.raises(ScaffoldError, match="at least one dataset"):
        ScaffoldRequest(package_name="demo", dataset_names=[])
    with pytest.raises(ScaffoldError, match="filesystem-safe"):
        ScaffoldRequest(package_name="demo", dataset_names=["obs/evil"])
    with pytest.raises(ScaffoldError, match="dictionary file naming"):
        ScaffoldRequest(package_name="demo", dataset_names=["dictionary"])
    with pytest.raises(ScaffoldError, match="dictionary file naming"):
        ScaffoldRequest(package_name="demo", dataset_names=["obs-dictionary"])
    with pytest.raises(ScaffoldError, match="duplicate"):
        ScaffoldRequest(package_name="demo", dataset_names=["obs", "obs"])
    with pytest.raises(ScaffoldError, match="DOI"):
        ScaffoldRequest(package_name="demo", dataset_names=["obs"], doi="not-a-doi")
    with pytest.raises(ScaffoldError, match="year"):
        ScaffoldRequest(package_name="demo", dataset_names=["obs"], year=99)
    with pytest.raises(ScaffoldError, match="seed tables"):
        ScaffoldRequest(
            package_name="demo",
            dataset_names=["obs"],
            seed_tables=[tmp_path / "a.csv", tmp_path / "b.csv"],
        )


def test_author_guards():
    assert Author(name="A Person", orcid="0000-0002-1825-009X").orcid.endswith("X")
    with pytest.raises(ScaffoldError, match="non-empty single line"):
        Author(name="  ")
    with pytest.raises(ScaffoldError, match="non-empty single line"):
        Author(name="two\nlines")
    with pytest.raises(ScaffoldError, match="ORCID"):
        Author(name="A Person", orcid="12345")
