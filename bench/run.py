"""tidypack benchmark: seeded fixtures, real CLI processes, checked outputs.

    python3 bench/run.py --workload table-lint --seed 1 --seconds 45 --trace 0

One simulated user runs tidypack commands one after another (a closed loop
with one client and one command in flight), each in its own
``python -m tidypack`` child process, for at least ``--seconds`` seconds and
at least three cycles.  Every output is checked by ``oracle.py`` against
answers the fixture generator computed without tidypack.

``--trace 0`` prints the end-to-end metrics: median wall seconds per
command and the children's peak RSS from ``os.wait4``.  ``--trace 1``
replays every command once untraced and once through ``tracing.py``, which
wraps each layer's public functions in spans, then times each layer directly,
and prints the per-layer metrics.  A table for people comes first; the last
line of standard output is one JSON object for machines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import fixtures
import oracle
from fixtures import DATASET, INIT_ARGS
from tracing import LAYERS, TABLE_RULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"

#: The host's speed drifts: on a 2-vCPU VM every command slowed by a quarter
#: over ten minutes, all alike.  Three times a cycle a reference child runs
#: REFERENCE, fixed pure-Python work with the interpreter and imports tidypack
#: uses but none of its code.  End-to-end times are scaled by REFERENCE_S over
#: the reference's median in the run, so they read as wall seconds at one
#: reference speed; the table also prints the raw medians.
REFERENCE_S = 0.25
REFERENCE = """
import argparse, dataclasses, hashlib, json, re, tarfile, yaml
rows = [",".join((str(i), "K%04d" % (i % 9973), "2020-01-%02d" % (1 + i % 28), "%.2f" % (i / 7), "true")) for i in range(20000)]
text = "\\n".join(rows)
cells = [line.split(",") for line in text.split("\\n")]
total = sum(1 for row in cells for cell in row if re.fullmatch(r"[0-9]+", cell))
json.dumps({"total": total, "digest": hashlib.md5(text.encode()).hexdigest()})
"""

SETUPS = 3  # set-up repetitions per run; setup_s is their median
MIN_CYCLES = 3
HELP_PER_CYCLE = 2  # --help is the shortest command, so sample it twice

#: Commands in cycle order, each with the end-to-end metric it feeds.  The
#: manifest is refreshed first, so verify, lint and pack see every file.
COMMANDS = ("startup", "init", "checksum", "verify", "lint", "schema_infer", "schema_validate", "pack", "chunk", "unchunk")

END_TO_END = [
    ("setup_s", "s"),
    *[(f"{name}_s", "s") for name in COMMANDS],
    ("lint_rss_mb", "MB"),
    ("schema_validate_rss_mb", "MB"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("tabular.parse_s", "s", "lower"),
    ("tabular.parse_mb_per_s", "MB/s", "higher"),
    ("tabular.parse_peak_alloc_x", "x", "lower"),
    ("tabular.table_ctor_s", "s", "lower"),
    ("tabular.serialize_s", "s", "lower"),
    ("tabular.missing_profile_s", "s", "lower"),
    ("tabular.rows", "count", "higher"),
    ("tabular.cells", "count", "higher"),
    ("schema.infer_s", "s", "lower"),
    ("schema.validate_s", "s", "lower"),
    ("schema.violations", "count", "lower"),
    ("lint.total_s", "s", "lower"),
    ("lint.table_parse_s", "s", "lower"),
    ("lint.parse_share", "ratio", "lower"),
    ("lint.findings", "count", "lower"),
    *[(f"lint.rule.R{n:02d}_s", "s", "lower") for n in range(1, 19)],
    *[(f"lint.rule.{rule}.self_s", "s", "lower") for rule in TABLE_RULES],
    ("model.iter_files_s", "s", "lower"),
    ("model.scan_s", "s", "lower"),
    ("model.files", "count", "higher"),
    ("model.dirs", "count", "higher"),
    ("integrity.manifest_s", "s", "lower"),
    ("integrity.hash_mb_per_s", "MB/s", "higher"),
    ("integrity.bytes_hashed", "bytes", "lower"),
    ("integrity.verify_s", "s", "lower"),
    ("integrity.pack_s", "s", "lower"),
    ("integrity.tar_bytes", "bytes", "lower"),
    ("integrity.chunk_s", "s", "lower"),
    ("integrity.unchunk_s", "s", "lower"),
    ("scaffold.s", "s", "lower"),
    *[
        (f"cli.{cmd}.{what}", unit, "lower")
        for cmd in COMMANDS[1:]
        for what, unit in (("read_bytes", "bytes"), ("write_bytes", "bytes"), ("read_amplification", "x"), ("span_s", "s"), ("untraced_s", "s"))
    ],
    ("trace.overhead_x", "x", "lower"),
    *[(f"layer.{layer}.{what}", unit, "lower") for layer in LAYERS for what, unit in (("self_s", "s"), ("share", "ratio"))],
]


@dataclass
class Run:
    rc: int
    stdout: bytes
    stderr: bytes
    wall: float
    rss_mb: float


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[Run], list[str]]
    payload: Callable[[], int]  # input bytes the command has to read
    cleanup: Callable[[], None] = lambda: None


@dataclass
class Bench:
    workload: str
    seed: int
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    archive_md5: str | None = None
    reference: list[float] = field(default_factory=list)

    def spawn(self, argv: list[str]) -> Run:
        """Run one child to completion; wall time from launch to reap."""
        env = dict(os.environ, PYTHONPATH=str(SOURCE))
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.work)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        return Run(child.returncode, out_path.read_bytes(), err_path.read_bytes(), wall, usage.ru_maxrss / 1024)

    def tidypack(self, *args) -> Run:
        return self.spawn([sys.executable, "-m", "tidypack", *map(str, args)])

    def record(self, what: str, problems: list[str], run: Run | None = None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            detail = f" ({run.stderr.decode(errors='replace').strip()[-200:]})" if run and run.stderr else ""
            self.problems.append(f"{what}: {problems[0]}{detail}")

    # -- set-up ---------------------------------------------------------------

    def setup(self, index: int) -> tuple[fixtures.Fixture, Path, float]:
        """Generate the fixture and scaffold its package; returns the seconds taken."""
        start = time.perf_counter()
        fixture = fixtures.generate(self.workload, self.seed, self.work / f"setup-{index}")
        package = fixture.root / "package"
        run = self.tidypack("init", package, "--dataset", DATASET, "--seed", fixture.seed_table, *INIT_ARGS, "--format", "json")
        fixtures.add_extra_files(fixture, package)
        seconds = time.perf_counter() - start
        self.record("setup init", oracle.check_init(run.rc, run.stdout, fixture, package), run)
        return fixture, package, seconds

    # -- the command cycle ------------------------------------------------------

    def commands(self, fixture: fixtures.Fixture, package: Path) -> list[Command]:
        digests = oracle.package_digests(fixture, package)
        data = package / "data" / f"{DATASET}.csv"
        schema = package / "metadata" / f"{DATASET}.json"
        init_dest = self.work / "init-dest"
        archive = self.work / "pack.tar"
        merged = self.work / f"unchunked{fixture.table.suffix}"
        chunks = [fixture.table.with_name(f"{fixture.table.stem}-{k}{fixture.table.suffix}") for k in range(1, fixture.chunk_count + 1)]

        def size(*paths: Path) -> int:
            return sum(p.stat().st_size for p in paths)

        def tree_size(with_manifest: bool) -> int:
            return sum(size(package / rel) for rel in digests) + (size(package / oracle.CHECKSUMS) if with_manifest else 0)

        def check_pack(run: Run) -> list[str]:
            problems = oracle.check_pack(run.rc, run.stdout, archive, digests)
            if archive.is_file():
                digest = hashlib.md5(archive.read_bytes()).hexdigest()
                self.archive_md5 = self.archive_md5 or digest
                if digest != self.archive_md5:
                    problems.append("two packs of one tree differ")
            return problems

        def drop_chunks() -> None:
            for path in [*chunks, merged]:
                path.unlink(missing_ok=True)

        json_mode = ("--format", "json")
        return [
            Command("startup", ["--help"], lambda r: oracle.check_help(r.rc, r.stdout), lambda: 0),
            Command(
                "init",
                ["init", init_dest, "--dataset", DATASET, "--seed", fixture.seed_table, *INIT_ARGS, *json_mode],
                lambda r: oracle.check_init(r.rc, r.stdout, fixture, init_dest),
                lambda: size(fixture.seed_table),
                lambda: shutil.rmtree(init_dest, ignore_errors=True),
            ),
            Command(
                "checksum",
                ["checksum", package, "--output", package / oracle.CHECKSUMS, *json_mode],
                lambda r: oracle.check_checksum(r.rc, r.stdout, digests, package / oracle.CHECKSUMS),
                lambda: tree_size(False),
            ),
            Command("verify", ["verify", package, *json_mode], lambda r: oracle.check_verify(r.rc, r.stdout), lambda: tree_size(True)),
            Command("lint", ["lint", package, *json_mode], lambda r: oracle.check_lint(r.rc, r.stdout), lambda: tree_size(True)),
            Command(
                "schema_infer",
                ["schema", "infer", data, *json_mode],
                lambda r: oracle.check_infer(r.rc, r.stdout, fixture),
                lambda: size(data),
            ),
            Command(
                "schema_validate",
                ["schema", "validate", data, schema, *json_mode],
                lambda r: oracle.check_validate(r.rc, r.stdout),
                lambda: size(data, schema),
            ),
            Command(
                "pack",
                ["pack", package, "--require-lint", "--output", archive, *json_mode],
                check_pack,
                lambda: tree_size(True),
                lambda: archive.unlink(missing_ok=True),
            ),
            Command(
                "chunk",
                ["chunk", fixture.table, "--max-rows", fixture.chunk_rows, *json_mode],
                lambda r: oracle.check_chunk(r.rc, r.stdout, fixture),
                lambda: size(fixture.table),
            ),
            Command(
                "unchunk",
                ["unchunk", *chunks, "--output", merged, *json_mode],
                lambda r: oracle.check_unchunk(r.rc, r.stdout, fixture, merged),
                lambda: size(*chunks),
                drop_chunks,
            ),
        ]

    def measure(self, fixture, package, seconds: float) -> tuple[dict, dict]:
        """Closed loop over the command cycle; returns metrics and sample counts."""
        walls: dict[str, list[float]] = defaultdict(list)
        rss: dict[str, list[float]] = defaultdict(list)
        commands = self.commands(fixture, package)
        start, cycles = time.perf_counter(), 0
        while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
            for command in commands:
                if command.name in ("init", "lint", "pack"):
                    self.reference.append(self.spawn([sys.executable, "-c", REFERENCE]).wall)
                for _ in range(HELP_PER_CYCLE if command.name == "startup" else 1):
                    run = self.tidypack(*command.argv)
                    walls[command.name].append(run.wall)
                    rss[command.name].append(run.rss_mb)
                    self.record(command.name, command.check(run), run)
                    command.cleanup()
            cycles += 1
        metrics = {f"{name}_s": statistics.median(walls[name]) for name in COMMANDS}
        metrics["lint_rss_mb"] = statistics.median(rss["lint"])
        metrics["schema_validate_rss_mb"] = statistics.median(rss["schema_validate"])
        metrics["peak_rss_mb"] = max(max(values) for values in rss.values())
        counts = {f"{name}_s": len(walls[name]) for name in COMMANDS}
        counts.update(lint_rss_mb=len(rss["lint"]), schema_validate_rss_mb=len(rss["schema_validate"]))
        counts["peak_rss_mb"] = sum(len(values) for values in rss.values())
        return metrics, counts

    # -- the traced run ---------------------------------------------------------

    def trace_round(self, fixture, package) -> dict:
        """Each command untraced and traced, then the direct layer passes."""
        metrics: dict[str, float] = {}
        spans_by_command = {}
        traced_wall = untraced_wall = 0.0
        out = self.work / "trace.json"
        commands = self.commands(fixture, package)[1:]
        plain_wall = {}
        for command in commands:
            plain = self.tidypack(*command.argv)
            self.record(command.name, command.check(plain), plain)
            command.cleanup()
            plain_wall[command.name] = plain.wall
        for command in commands:
            payload = command.payload()
            out.unlink(missing_ok=True)
            traced = self.spawn([sys.executable, str(BENCH / "tracing.py"), "command", str(out), self.workload, "--", *map(str, command.argv)])
            self.record(f"traced {command.name}", command.check(traced), traced)
            command.cleanup()
            if not out.is_file():
                continue
            result = json.loads(out.read_text())
            spans_by_command[command.name] = result["spans"]
            top = [s for s in result["spans"] if s["parent"] is None]
            prefix = f"cli.{command.name}."
            metrics[prefix + "read_bytes"] = result["read_bytes"]
            metrics[prefix + "write_bytes"] = result["write_bytes"]
            metrics[prefix + "read_amplification"] = result["read_bytes"] / payload
            metrics[prefix + "span_s"] = sum(s["end"] - s["start"] for s in top) / 1e9
            metrics[prefix + "untraced_s"] = plain_wall[command.name]
            traced_wall += traced.wall
            untraced_wall += plain_wall[command.name]
        metrics["trace.overhead_x"] = traced_wall / untraced_wall
        metrics.update(layer_shares(spans_by_command))

        params = self.work / "layers.json"
        scratch = self.work / "layer-scratch"
        params.write_text(
            json.dumps(
                {
                    "table": str(package / "data" / f"{DATASET}.csv"),
                    "chunk_source": str(fixture.table),
                    "package": str(package),
                    "seed_table": str(fixture.seed_table),
                    "chunk_rows": fixture.chunk_rows,
                    "dataset": DATASET,
                    "scratch": str(scratch),
                }
            )
        )
        for group in ("table", "alloc", "lint", "tree"):
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir()
            out.unlink(missing_ok=True)
            run = self.spawn([sys.executable, str(BENCH / "tracing.py"), "layers", str(out), self.workload, group, str(params)])
            self.record(f"layers {group}", [] if run.rc == 0 else [f"exit code {run.rc}"], run)
            if run.rc != 0:
                continue
            result = json.loads(out.read_text())
            del result["spans"]
            unchunk_md5 = result.pop("integrity.unchunk_md5", None)
            if unchunk_md5 is not None:
                ok = unchunk_md5 == hashlib.md5(fixture.canonical).hexdigest()
                self.record("layers unchunk", [] if ok else ["unchunk result differs from the canonical rendering"])
            metrics.update(result)
        shutil.rmtree(scratch, ignore_errors=True)
        return metrics

    def trace(self, fixture, package, seconds: float) -> tuple[dict, dict]:
        rounds: dict[str, list[float]] = defaultdict(list)
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            for name, value in self.trace_round(fixture, package).items():
                rounds[name].append(value)
        return {name: statistics.median(values) for name, values in rounds.items()}, {name: len(v) for name, v in rounds.items()}


def layer_shares(spans_by_command: dict[str, list[dict]]) -> dict[str, float]:
    """Self time per layer over all replays, and its share of the traced time.

    A span's self time is its duration minus the time its child spans cover;
    the traced time is the sum of the top-level ``cli.main`` spans.
    """
    self_ns = dict.fromkeys(LAYERS, 0)
    total = 0
    for spans in spans_by_command.values():
        child_ns = [0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end"] - span["start"]
            else:
                total += span["end"] - span["start"]
        for span, children in zip(spans, child_ns):
            self_ns[span["name"].split(".")[0]] += span["end"] - span["start"] - children
    out = {}
    for layer, ns in self_ns.items():
        out[f"layer.{layer}.self_s"] = ns / 1e9
        out[f"layer.{layer}.share"] = ns / total
    return out


def source_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in (SOURCE / "tidypack").glob("*.py"))


def report(args, metrics: dict, raw: dict, counts: dict, units: dict, bench: Bench, seconds: float) -> None:
    mode = "traced run, per-layer metrics" if args.trace else "closed loop, one client, end-to-end metrics"
    print(f"tidypack benchmark  workload={args.workload} seed={args.seed} {mode}  {seconds:.1f} s")
    print(f"  nproc={os.cpu_count()} python={platform.python_version()} source_lines={source_lines()}")
    if bench.reference:
        print(f"  reference median {statistics.median(bench.reference):.4f} s over {len(bench.reference)} runs; times scaled to {REFERENCE_S} s")
    print(f"  {'metric':42} {'value':>14} {'unit':6} {'samples':>7} {'raw median':>14}")
    rows = [(name, metrics[name], units[name], counts.get(name, 1), raw[name]) for name in units]
    for name, value, unit, samples, unscaled in rows:
        print(f"  {name:42} {value:14.6g} {unit:6} {samples:7} {unscaled:14.6g}")
    print(f"  {'failed_share':42} {bench.failed / max(bench.attempted, 1):14.6g} {'ratio':6} {bench.attempted:7}")
    if args.trace:
        share = {layer: metrics[f"layer.{layer}.share"] for layer in LAYERS}
        print(f"  tabular+schema share {share['tabular'] + share['schema']:.4f}, model+integrity share {share['model'] + share['integrity']:.4f}")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=fixtures.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "tidypack" / "__main__.py").is_file():
        print(f"error: no tidypack sources under {SOURCE}; run from a checkout of the repository", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        warm = bench.tidypack("--help")  # compiles bytecode outside any timing
        if warm.rc != 0:
            print(f"error: tidypack does not start: {warm.stderr.decode(errors='replace')[-500:]}", file=sys.stderr)
            return 2
        started = time.perf_counter()
        setups = [bench.setup(index) for index in range(SETUPS)]
        fixture, package, _ = setups[-1]
        if args.trace:
            metrics, counts = bench.trace(fixture, package, args.seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, counts = bench.measure(fixture, package, args.seconds)
            metrics["setup_s"] = statistics.median(seconds for _, _, seconds in setups)
            counts["setup_s"] = SETUPS
            units = dict(END_TO_END)
        raw = dict(metrics)
        if bench.reference:
            speed = REFERENCE_S / statistics.median(bench.reference)
            metrics = {name: value * speed if units[name] == "s" else value for name, value in metrics.items()}
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [name for name in units if name not in metrics]
    report(args, metrics, raw, counts, units, bench, elapsed)
    result = {
        "correct": bench.failed == 0 and not missing,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
