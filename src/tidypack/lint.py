"""Conformance linting for data packages.

Eighteen rules cover documentation, dictionaries, licensing, citation,
metadata, raw data, plain-text data, naming, dates, missing values,
checksums, hosting limits, and code consistency.  ``RULES`` is the one
place a rule is named: rule ``RNN`` is evaluated by ``_eval_rNN``, and the
runner stamps each finding with the rule's id and severity.  Each rule
carries a fixed severity ceiling; a configuration may lower a rule's
severity or switch it off, never raise it.  A package passes when linting
produces zero error-severity findings.

Linting only reads: no file under the package root is created, modified,
or deleted.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from pathlib import Path, PurePosixPath
from typing import Any, Callable, Iterable, Iterator

from .errors import ConfigError, ManifestError, ToolError, checked_tuple
from .integrity import parse_manifest, unnamable, verify_manifest
from .model import (
    CHECKSUMS_NAME,
    DOI_PATTERN,
    DataPackage,
    Dataset,
    FileKind,
    FileRef,
    PackagePool,
    escapes_root,
    printable_path,
)
from .licenses import LicenseKind
from .schema import (
    DataDictionary,
    TableSchema,
    count_violations,
    dictionary_from_csv,
    failing_cells,
    iter_violations,
    schema_from_json,
)
from .tabular import MISSING_WATCHLIST, CsvTable, read_csvy

SEVERITIES = ("error", "warning", "info")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

_CATCHALL_RULE_ID = "R00"


class LintRule(namedtuple("LintRule", "id title severity anchor")):
    """One check: an identifier, what it wants, how bad a miss is, and the
    doctrine anchor printed in text reports."""

    __slots__ = ()


RULES: tuple[LintRule, ...] = (
    LintRule("R01", "README file at the package top level", "error", "§2.1"),
    LintRule("R02", "README answers who, what, when, where, why, and how", "warning", "§2.1"),
    LintRule("R03", "data dictionary shipped as a plain-text table", "error", "§2.2"),
    LintRule("R04", "dictionary describes every column of the data tables", "error", "§2.2"),
    LintRule("R05", "license file at the package top level", "error", "§2.3"),
    LintRule("R06", "license text recognized (CC BY 4.0, CC0 1.0, or ODbL)", "warning", "§2.3"),
    LintRule("R07", "citation file present, with a DOI", "warning", "§2.4"),
    LintRule("R08", "machine-readable metadata per dataset", "warning", "§2.5"),
    LintRule("R09", "schema JSON is valid and matches its table", "error", "§2.5"),
    LintRule("R10", "raw data shared under data-raw/", "info", "§2.6"),
    LintRule("R11", "cleaning scripts accompany raw data", "warning", "§2.7"),
    LintRule("R12", "analysis-ready data is plain text under data/", "error", "§2.8"),
    LintRule("R13", "column names are short and machine-friendly", "warning", "§2.2"),
    LintRule("R14", "date columns use YYYY-MM-DD", "warning", "§2.2"),
    LintRule("R15", "missing-value tokens are declared", "warning", "§2.2"),
    LintRule("R16", "checksum manifest present and verified", "warning", "Rule 8"),
    LintRule("R17", "file sizes fit common hosting limits", "info", "§5"),
    LintRule("R18", "value codes agree across variables", "info", "§2.2"),
)

RULES_BY_ID = {rule.id: rule for rule in RULES}

_CATCHALL_ANCHOR = "internal"

_UNNAMED_DETAIL = "file name {}; rename it so that manifests and reports can name it"


class Finding(checked_tuple("Finding", "rule_id severity detail path machine_data")):
    """One lint result.

    ``machine_data`` carries structured details for tooling and tests; it
    is never serialized into reports.
    """

    __slots__ = ()

    def __new__(cls, rule_id: str, severity: str, detail: str, path: str | None = None, machine_data: dict | None = None):
        return tuple.__new__(cls, (rule_id, severity, detail, path, {} if machine_data is None else machine_data))


class LintReport(namedtuple("LintReport", "findings counts passed")):
    __slots__ = ()


class LintConfig(checked_tuple("LintConfig", "levels")):
    """Per-rule severity overrides.

    ``levels`` maps rule ids to ``off`` or a severity.  A configured
    severity below the rule's ceiling (e.g. ``error`` for a ``warning``
    rule) cannot raise it; the ceiling wins.
    """

    __slots__ = ()

    def __new__(cls, levels: dict[str, str] | None = None):
        levels = {} if levels is None else levels
        for rule_id, level in levels.items():
            if rule_id not in RULES_BY_ID:
                known = ", ".join(sorted(RULES_BY_ID))
                raise ConfigError(f"unknown rule {rule_id!r}; known rules: {known}")
            if level != "off" and level not in _SEVERITY_RANK:
                raise ConfigError(
                    f"rule {rule_id}: level must be one of off, error, warning, info; got {level!r}"
                )
        return tuple.__new__(cls, (levels,))

    def effective_severity(self, rule: LintRule) -> str | None:
        """The severity this configuration gives a rule, or None for off."""
        configured = self.levels.get(rule.id)
        if configured is None:
            return rule.severity
        if configured == "off":
            return None
        if _SEVERITY_RANK[configured] < _SEVERITY_RANK[rule.severity]:
            return rule.severity
        return configured


def parse_config(text: str) -> LintConfig:
    """Parse ``RNN = level`` lines; ``#`` comments and blank lines ignored."""
    levels: dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {line_number}: expected 'RULE = level', got {line!r}"
            )
        rule_id, _, level = line.partition("=")
        levels[rule_id.strip()] = level.strip()
    return LintConfig(levels=levels)


def load_config(path) -> LintConfig:
    """Read a UTF-8 configuration file, less a leading BOM; see ``parse_config`` for the format."""
    try:
        return parse_config(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"lint configuration {path} is not valid UTF-8: {exc}") from None


# ---------------------------------------------------------------------------
# Evaluation context


def _load_table(path: Path) -> CsvTable:
    # Looks up read_csvy at call time, so a wrapper installed on this
    # module's global sees every table parse lint makes.
    return read_csvy(path)[1]


def _load_schema(path: Path) -> TableSchema:
    return schema_from_json(path.read_bytes())


def _load_dictionary(path: Path) -> DataDictionary:
    return dictionary_from_csv(path.read_bytes())


class _Context:
    """Memoized file access shared by the rule evaluators.

    ``load`` reads each package file at most once per loader, so every
    rule after the first reuses a parsed table, schema, or dictionary, and
    the same failure message.  The views trust ``scan_package``: each file
    sits in exactly one bucket and only plain-text tables are dictionaries.
    Their order is irrelevant, because ``lint_package`` sorts the findings.
    """

    def __init__(self, pkg: DataPackage):
        self.pkg = pkg
        self._loaded: dict[tuple[Callable, str], tuple[Any, str | None]] = {}

    def load(self, loader: Callable[[Path], Any], rel: str) -> tuple[Any, str | None]:
        """``(value, None)`` from ``loader(root / rel)``, or ``(None, message)``
        when it raised a ``ToolError`` or an ``OSError``."""
        key = (loader, rel)
        if key not in self._loaded:
            try:
                self._loaded[key] = (loader(self.pkg.root / rel), None)
            except (ToolError, OSError) as exc:
                self._loaded[key] = (None, str(exc))
        return self._loaded[key]

    # Shared derived views -------------------------------------------------

    def dataset_dictionary_refs(self, ds: Dataset) -> list[FileRef]:
        return ds.dictionary_files + self.pkg.pool.dictionary_files

    def all_dictionary_refs(self) -> list[FileRef]:
        return [
            ref for owner in (*self.pkg.datasets, self.pkg.pool) for ref in owner.dictionary_files
        ]

    def json_metadata_refs(self, owner: PackagePool) -> list[FileRef]:
        return [ref for ref in owner.metadata_files if ref.path.lower().endswith(".json")]

    def declared_missing(self, ds: Dataset) -> frozenset[str]:
        """Missing-value tokens declared by the dataset's schema files and
        dictionaries.  Nothing declared means an empty set, not a default."""
        declared: set[str] = set()
        for ref in self.json_metadata_refs(ds):
            schema, _ = self.load(_load_schema, ref.path)
            if schema is not None:
                declared |= schema.missing_values
        for ref in self.dataset_dictionary_refs(ds):
            dictionary, _ = self.load(_load_dictionary, ref.path)
            if dictionary is not None:
                for entry in dictionary.entries:
                    declared |= entry.missing_codes
        return frozenset(declared)

    def dataset_tables(self, ds: Dataset) -> list[tuple[FileRef, CsvTable]]:
        out = []
        for ref in ds.data_files:
            table, _ = self.load(_load_table, ref.path)
            if table is not None:
                out.append((ref, table))
        return out


# ---------------------------------------------------------------------------
# Rule evaluators.  ``_eval_rNN`` evaluates rule ``RNN`` and yields drafts
# from ``_f``; lint_package stamps each with its rule id and final severity.


def _f(detail: str, path: str | None = None, *, severity: str = "", **data: str) -> Finding:
    """A draft finding.  ``severity`` is given only to go below the rule's
    ceiling; the runner fills in ``rule_id`` and the severity."""
    return Finding(rule_id="", severity=severity, detail=detail, path=path, machine_data=data)


def _eval_r01(ctx: _Context) -> Iterator[Finding]:
    if ctx.pkg.readme is None:
        yield _f("no README file at the package top level")


_README_QUESTIONS = (
    ("who", re.compile(r"\bwho\b|\bauthor", re.IGNORECASE)),
    ("what", re.compile(r"\bwhat\b|\bdata\b", re.IGNORECASE)),
    ("when", re.compile(r"\bwhen\b|\bdate", re.IGNORECASE)),
    ("where", re.compile(r"\bwhere\b|\blocation", re.IGNORECASE)),
    ("why", re.compile(r"\bwhy\b|\bpurpose", re.IGNORECASE)),
    ("how", re.compile(r"\bhow\b|\bmethod", re.IGNORECASE)),
)


def _eval_r02(ctx: _Context) -> Iterator[Finding]:
    readme = ctx.pkg.readme
    if readme is None:
        return
    text = (ctx.pkg.root / readme.path).read_text(encoding="utf-8", errors="replace")
    unanswered = [name for name, pattern in _README_QUESTIONS if not pattern.search(text)]
    if unanswered:
        yield _f(
            "README does not appear to answer: " + ", ".join(unanswered),
            path=readme.path,
            questions=",".join(unanswered),
        )


def _eval_r03(ctx: _Context) -> Iterator[Finding]:
    pkg = ctx.pkg
    if not pkg.datasets and not ctx.all_dictionary_refs():
        yield _f("no data dictionary anywhere in the package")
    for ds in pkg.datasets:
        if not ctx.dataset_dictionary_refs(ds):
            path = ds.data_files[0].path if ds.data_files else None
            yield _f(
                f"dataset {ds.name!r} has no data dictionary (a plain-text table of variables)",
                path=path,
                dataset=ds.name,
            )


def _eval_r04(ctx: _Context) -> Iterator[Finding]:
    pkg = ctx.pkg
    for ref in ctx.all_dictionary_refs():
        _, error = ctx.load(_load_dictionary, ref.path)
        if error is not None:
            yield _f(f"data dictionary cannot be parsed: {error}", path=ref.path)
    for ds in pkg.datasets:
        refs = ctx.dataset_dictionary_refs(ds)
        if not refs:
            continue
        parsed = [ctx.load(_load_dictionary, ref.path)[0] for ref in refs]
        dictionaries = [d for d in parsed if d is not None]
        if not dictionaries:
            continue
        variables: set[str] = set()
        for dictionary in dictionaries:
            variables.update(dictionary.variable_names())
        for ref, table in ctx.dataset_tables(ds):
            undescribed = [
                name for name in table.column_names if name not in variables
            ]
            if undescribed:
                yield _f(
                    "dictionary does not describe column(s): " + ", ".join(undescribed),
                    path=ref.path,
                    columns=",".join(undescribed),
                )


def _eval_r05(ctx: _Context) -> Iterator[Finding]:
    if ctx.pkg.license is None:
        yield _f("no license file at the package top level")


def _eval_r06(ctx: _Context) -> Iterator[Finding]:
    license_ref = ctx.pkg.license
    if license_ref is None:
        return
    if license_ref.detected is LicenseKind.UNKNOWN:
        yield _f(
            "license text is not recognized; expected CC BY 4.0, CC0 1.0, or ODbL 1.0",
            path=license_ref.path,
        )


_DOI_RE = re.compile(r"\b" + DOI_PATTERN)


def _eval_r07(ctx: _Context) -> Iterator[Finding]:
    citation = ctx.pkg.citation
    if citation is None:
        yield _f("no citation file at the package top level")
        return
    text = (ctx.pkg.root / citation.path).read_text(encoding="utf-8", errors="replace")
    if not _DOI_RE.search(text):
        yield _f(
            "citation file has no DOI; add one once the data is archived",
            path=citation.path,
            severity="info",
        )


def _eval_r08(ctx: _Context) -> Iterator[Finding]:
    for ds in ctx.pkg.datasets:
        if not ds.metadata_files:
            path = ds.data_files[0].path if ds.data_files else None
            yield _f(
                f"dataset {ds.name!r} has no machine-readable metadata under metadata/",
                path=path,
                dataset=ds.name,
            )


def _describe_violation(v) -> str:
    if v.row is None:
        return f"{v.kind} for field {v.field!r}"
    return f"{v.kind} at row {v.row}, field {v.field!r}, value {v.value!r}"


def _eval_r09(ctx: _Context) -> Iterator[Finding]:
    pkg = ctx.pkg
    jobs: list[tuple[FileRef, Dataset | None]] = [
        (ref, ds) for ds in pkg.datasets for ref in ctx.json_metadata_refs(ds)
    ]
    jobs += [(ref, None) for ref in ctx.json_metadata_refs(pkg.pool)]
    inventoried = set(pkg.all_paths())
    for ref, ds in jobs:
        schema, error = ctx.load(_load_schema, ref.path)
        if schema is None:
            yield _f(f"not valid schema JSON: {error}", path=ref.path)
            continue
        target: str | None = None
        if schema.path is not None:
            if escapes_root(schema.path):
                yield _f(
                    f"schema 'path' must stay inside the package: {schema.path!r}",
                    path=ref.path,
                )
                continue
            if str(PurePosixPath(schema.path)) not in inventoried:  # a symbolic link, or no file at all
                yield _f(f"schema points at a missing table: {schema.path}", path=ref.path)
                continue
            target = schema.path
        elif ds is not None and ds.data_files:
            target = min(data.path for data in ds.data_files)
        if target is None:
            continue
        table, error = ctx.load(_load_table, target)
        if table is None:
            yield _f(f"table {target} cannot be parsed: {error}", path=ref.path)
            continue
        first = next(iter_violations(table, schema), None)
        if first is not None:
            total = count_violations(table, schema)
            yield _f(
                f"{target} does not match the schema: {total} violation(s); "
                f"first: {_describe_violation(first)}",
                path=ref.path,
                violations=str(total),
            )


def _eval_r10(ctx: _Context) -> Iterator[Finding]:
    pkg = ctx.pkg
    has_raw = any(ds.raw_files for ds in pkg.datasets) or bool(pkg.pool.raw_files)
    if not has_raw:
        yield _f("no raw data under data-raw/; share the untouched originals when you can")


def _eval_r11(ctx: _Context) -> Iterator[Finding]:
    pkg = ctx.pkg
    for ds in pkg.datasets:
        if ds.raw_files and not ds.scripts:
            yield _f(
                f"dataset {ds.name!r} has raw data but no cleaning script under data-raw/",
                path=ds.raw_files[0].path,
                dataset=ds.name,
            )
    any_scripts = bool(pkg.pool.scripts) or any(ds.scripts for ds in pkg.datasets)
    if pkg.pool.raw_files and not any_scripts:
        yield _f(
            "raw data is present but no cleaning script accompanies it",
            path=pkg.pool.raw_files[0].path,
        )


def _eval_r12(ctx: _Context) -> Iterator[Finding]:
    pkg = ctx.pkg
    if not pkg.datasets:
        yield _f("no analysis-ready tables under data/")
    for ds in pkg.datasets:
        for ref in ds.data_files:
            _, error = ctx.load(_load_table, ref.path)
            if error is not None:
                yield _f(f"table cannot be parsed: {error}", path=ref.path)
    for ref in pkg.pool.data_files:
        if ref.kind is FileKind.BINARY_DATA:
            yield _f(
                "binary data under data/; ship the analysis-ready table as plain text",
                path=ref.path,
            )


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NAME_LENGTH_LIMIT = 32


def _eval_r13(ctx: _Context) -> Iterator[Finding]:
    for ds in ctx.pkg.datasets:
        for ref, table in ctx.dataset_tables(ds):
            names = table.column_names
            awkward = [name for name in names if not _NAME_RE.fullmatch(name)]
            if awkward:
                yield _f(
                    "column name(s) are not machine-friendly: "
                    + ", ".join(repr(name) for name in awkward)
                    + "; use letters, digits, and underscores, starting with a letter",
                    path=ref.path,
                    columns=",".join(awkward),
                )
            lengthy = [name for name in names if len(name) > _NAME_LENGTH_LIMIT]
            if lengthy:
                yield _f(
                    f"column name(s) longer than {_NAME_LENGTH_LIMIT} characters: "
                    + ", ".join(repr(name) for name in lengthy),
                    path=ref.path,
                    severity="info",
                )


_DATEISH_RES = (
    re.compile(r"[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}"),
    re.compile(r"[0-9]{1,2}-[0-9]{1,2}-[0-9]{4}"),
    re.compile(r"[0-9]{4}/[0-9]{1,2}/[0-9]{1,2}"),
    re.compile(r"[0-9]{1,2}/[0-9]{1,2}/[0-9]{2,4}"),
)


def _looks_dateish(cell: str) -> bool:
    return any(pattern.fullmatch(cell) for pattern in _DATEISH_RES)


def _eval_r14(ctx: _Context) -> Iterator[Finding]:
    for ds in ctx.pkg.datasets:
        excluded = ctx.declared_missing(ds) | {""}
        for ref, table in ctx.dataset_tables(ds):
            for name, column in zip(table.column_names, table.shapes):
                # A value looks like a date, or has a date's shape, exactly
                # when its digit shape does.
                shapes = column.shapes(excluded)
                if not shapes or not all(map(_looks_dateish, shapes)):
                    continue
                cells = failing_cells(column, "date", excluded)
                _, example = next(cells, (None, None))
                if example is not None:
                    total = 1 + sum(1 for _ in cells)
                    yield _f(
                        f"column {name!r} holds dates but {total} value(s) "
                        f"are not calendar-valid YYYY-MM-DD (e.g. {example!r})",
                        path=ref.path,
                        column=name,
                        example=example,
                    )


def _eval_r15(ctx: _Context) -> Iterator[Finding]:
    for ds in ctx.pkg.datasets:
        declared = ctx.declared_missing(ds)
        for ref, table in ctx.dataset_tables(ds):
            suspicious: list[str] = []
            for name, column in zip(table.column_names, table.shapes):
                suspects = column.present(MISSING_WATCHLIST - declared)
                if suspects:
                    tokens = ", ".join(repr(t) for t in sorted(suspects))
                    suspicious.append(f"{name}: {tokens}")
            if suspicious:
                yield _f(
                    "undeclared missing-value token(s) found -- " + "; ".join(suspicious),
                    path=ref.path,
                )


def _eval_r16(ctx: _Context) -> Iterator[Finding]:
    pkg = ctx.pkg
    if pkg.checksums is None:
        yield _f(f"no {CHECKSUMS_NAME} manifest at the package top level")
        return
    try:
        manifest = parse_manifest((pkg.root / pkg.checksums.path).read_bytes())
    except ManifestError as exc:
        yield _f(f"manifest cannot be parsed: {exc}", path=pkg.checksums.path)
        return
    # A file name no manifest line can hold is already an R00 error; the rest
    # are checked, from the scan's walk.
    report = verify_manifest(
        pkg.root, manifest, include=lambda rel: rel != CHECKSUMS_NAME and not unnamable(rel), walk=pkg.walk
    )
    if report.mismatched:
        yield _f(
            "checksum mismatch for: " + ", ".join(report.mismatched),
            path=pkg.checksums.path,
            mismatched=",".join(report.mismatched),
        )
    if report.missing:
        yield _f(
            "manifest lists file(s) that do not exist: " + ", ".join(report.missing),
            path=pkg.checksums.path,
            missing=",".join(report.missing),
        )
    if report.extra:
        yield _f(
            "file(s) not covered by the manifest: " + ", ".join(report.extra),
            path=pkg.checksums.path,
            severity="info",
            extra=",".join(report.extra),
        )


_RELEASE_LIMIT_BYTES = 2_000_000_000
_ARCHIVE_LIMIT_BYTES = 50_000_000_000


def _eval_r17(ctx: _Context) -> Iterator[Finding]:
    for ref in ctx.pkg.all_refs():
        size = ref.size_bytes
        if size > _RELEASE_LIMIT_BYTES:
            yield _f(
                f"{size} bytes exceeds the 2 GB single-file ceiling common for "
                "repository releases; consider chunking",
                path=ref.path,
            )
        if size > _ARCHIVE_LIMIT_BYTES:
            yield _f(
                f"{size} bytes exceeds the 50 GB single-file ceiling common for "
                "archival deposits",
                path=ref.path,
            )


def _eval_r18(ctx: _Context) -> Iterator[Finding]:
    groups: dict[frozenset[str], list[tuple[str, dict[str, str]]]] = {}
    for ref in ctx.all_dictionary_refs():
        dictionary, _ = ctx.load(_load_dictionary, ref.path)
        if dictionary is None:
            continue
        for entry in dictionary.entries:
            if entry.codes:
                key = frozenset(entry.codes)
                groups.setdefault(key, []).append((entry.variable_name, entry.codes))
    for key in sorted(groups, key=sorted):
        members = groups[key]
        if len(members) < 2:
            continue
        for code in sorted(key):
            labels = {codes[code] for _, codes in members}
            if len(labels) > 1:
                variables = ", ".join(sorted(name for name, _ in members))
                yield _f(
                    f"code {code!r} means different things across variables sharing "
                    f"a code set ({variables}): " + ", ".join(sorted(labels)),
                    code=code,
                )


_EVALUATORS: tuple[tuple[LintRule, Callable[[_Context], Iterable[Finding]]], ...] = tuple(
    (rule, globals()[f"_eval_{rule.id.lower()}"]) for rule in RULES
)


def _crash_site(exc: Exception) -> str:
    """``file:line in function`` of the innermost frame of ``exc`` in tidypack's own source."""
    import traceback  # loaded only when a rule crashes

    frames = [f for f in traceback.extract_tb(exc.__traceback__) if Path(f.filename).parent == Path(__file__).parent]
    return f"{Path(frames[-1].filename).name}:{frames[-1].lineno} in {frames[-1].name}"


def lint_package(pkg: DataPackage, config: LintConfig | None = None) -> LintReport:
    """Run every enabled rule over a scanned package.

    Each finding gets its rule's id and the less severe of the rule's
    effective severity and the one the evaluator declared.  Findings are
    ordered by severity (errors first), rule id, path, and detail, so the
    same package always yields the same report.  A rule evaluator that
    crashes becomes a single ``R00`` finding naming the rule, at the rule's
    effective severity, instead of taking the whole run down: a check that
    could not run does not pass, so a crash in an error rule fails the
    package; its ``machine_data`` names the rule, the exception and where it
    was raised.  Each file whose name is not UTF-8 or holds a line break is
    an ``R00`` error.
    """
    config = config or LintConfig()
    ctx = _Context(pkg)
    findings: list[Finding] = []
    for rule, evaluator in _EVALUATORS:
        effective = config.effective_severity(rule)
        if effective is None:
            continue
        try:
            produced = list(evaluator(ctx))
        except Exception as exc:  # noqa: BLE001 - the catch-all rule reports it
            findings.append(
                Finding(
                    rule_id=_CATCHALL_RULE_ID,
                    severity=effective,
                    detail=f"{rule.id} ({rule.title}) could not be evaluated: {exc}",
                    machine_data={"rule": rule.id, "exception": type(exc).__name__, "where": _crash_site(exc)},
                )
            )
            continue
        for finding in produced:
            declared = finding.severity or rule.severity
            final_rank = max(_SEVERITY_RANK[effective], _SEVERITY_RANK[declared])
            findings.append(finding._replace(rule_id=rule.id, severity=SEVERITIES[final_rank]))

    # A file name that is not UTF-8 or holds a line break fits in no manifest
    # line: it fails the package, and every finding names such files with
    # backslash escapes.  A detail can hold a line break of its own, so only
    # its bytes that are not UTF-8 are escaped.
    unnamed = [(path, problem) for path in pkg.all_paths() if (problem := unnamable(path))]
    if unnamed:
        findings += [
            Finding(rule_id=_CATCHALL_RULE_ID, severity="error", detail=_UNNAMED_DETAIL.format(problem), path=path)
            for path, problem in unnamed
        ]
        findings = [
            f._replace(
                path=f.path and printable_path(f.path),
                detail=f.detail.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace"),
            )
            for f in findings
        ]
    findings.sort(
        key=lambda f: (_SEVERITY_RANK[f.severity], f.rule_id, f.path or "", f.detail)
    )
    counts = {name: 0 for name in SEVERITIES}
    for finding in findings:
        counts[finding.severity] += 1
    return LintReport(findings=findings, counts=counts, passed=counts["error"] == 0)


def report_to_json(report: LintReport) -> bytes:
    """Serialize a report to stable JSON bytes.

    Key order is fixed (``pass``, ``counts``, ``findings``), the indent is
    two spaces, lines end with LF, and the output ends with a newline, so
    linting the same package twice yields identical bytes.
    """
    obj = {
        "pass": report.passed,
        "counts": {name: report.counts[name] for name in SEVERITIES},
        "findings": [
            {
                "rule_id": f.rule_id,
                "severity": f.severity,
                "path": f.path,
                "detail": f.detail,
            }
            for f in report.findings
        ],
    }
    return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8", "backslashreplace")


def _anchor_for(rule_id: str) -> str:
    rule = RULES_BY_ID.get(rule_id)
    return rule.anchor if rule is not None else _CATCHALL_ANCHOR


def report_to_text(report: LintReport) -> str:
    """Render a report for the terminal, grouped by severity."""
    counts = report.counts
    lines = [
        ("PASS" if report.passed else "FAIL")
        + f": {counts['error']} error(s), {counts['warning']} warning(s), {counts['info']} info"
    ]
    for severity in SEVERITIES:
        group = [f for f in report.findings if f.severity == severity]
        if not group:
            continue
        lines.append("")
        lines.append(severity.upper())
        for f in group:
            location = f"  {f.path}: " if f.path else "  "
            lines.append(f"{location}{f.rule_id} [{_anchor_for(f.rule_id)}] {f.detail}")
    return "\n".join(lines) + "\n"
