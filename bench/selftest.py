"""Self-tests of the benchmark: seeded fixtures and oracles that catch faults.

    python3 bench/selftest.py

Uses small fixtures and real ``python -m tidypack`` commands; takes a few
seconds.  Scratch files go under ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import fixtures
import oracle
import run
from fixtures import DATASET, INIT_ARGS

SMALL = {
    "table-lint": {"seed_rows": 40, "quoted_rows": 40},
    "tree-fixity": {"seed_rows": 30, "files": 25, "dirs": 5},
}


def tidypack(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(run.SOURCE))
    return subprocess.run([sys.executable, "-m", "tidypack", *map(str, args)], capture_output=True, env=env)


def remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class Scratch(unittest.TestCase):
    def setUp(self):
        self.work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}-{self._testMethodName}"
        self.work.mkdir(parents=True)
        self.addCleanup(remove_if_empty, self.work.parent)
        self.addCleanup(shutil.rmtree, self.work, True)

    def fixture(self, workload: str, seed: int = 7, name: str = "fx") -> tuple[fixtures.Fixture, Path]:
        """A small fixture with its package scaffolded, as a benchmark set-up makes it."""
        fixture = fixtures.generate(workload, seed, self.work / name, SMALL[workload])
        package = fixture.root / "package"
        done = tidypack("init", package, "--dataset", DATASET, "--seed", fixture.seed_table, *INIT_ARGS, "--format", "json")
        self.assertEqual(oracle.check_init(done.returncode, done.stdout, fixture, package), [])
        fixtures.add_extra_files(fixture, package)
        return fixture, package


class FixtureTests(Scratch):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in fixtures.WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = self.fixture(workload, 3, f"{workload}-a")
                again, _ = self.fixture(workload, 3, f"{workload}-b")
                other, _ = self.fixture(workload, 4, f"{workload}-c")
                self.assertEqual(tree_bytes(first.root), tree_bytes(again.root))
                self.assertNotEqual(tree_bytes(first.root), tree_bytes(other.root))

    def test_tree_paths_fit_ustar(self):
        fixture = fixtures.generate("tree-fixity", 1, self.work / "fx")
        self.assertEqual(len(fixture.extra_files), fixtures.SIZES["tree-fixity"]["files"])
        self.assertLessEqual(max(len(path) for path in fixture.extra_files), 255)
        self.assertEqual(max(path.count("/") for path in fixture.extra_files), 17)  # assets/ + 16 levels


class OracleTests(Scratch):
    """Each oracle passes the real output and flags a planted fault."""

    def test_one_byte_tamper_fails_checksum_and_verify(self):
        fixture, package = self.fixture("tree-fixity")
        manifest = package / oracle.CHECKSUMS
        expected = oracle.package_digests(fixture, package)
        done = tidypack("checksum", package, "--output", manifest, "--format", "json")
        self.assertEqual(oracle.check_checksum(done.returncode, done.stdout, expected, manifest), [])
        done = tidypack("verify", package, "--format", "json")
        self.assertEqual(oracle.check_verify(done.returncode, done.stdout), [])

        victim = package / next(iter(fixture.extra_files))
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        done = tidypack("verify", package, "--format", "json")
        self.assertNotEqual(oracle.check_verify(done.returncode, done.stdout), [])
        done = tidypack("checksum", package, "--output", manifest, "--format", "json")
        self.assertNotEqual(oracle.check_checksum(done.returncode, done.stdout, expected, manifest), [])

    def test_dropped_chunk_row_fails_unchunk(self):
        for workload in fixtures.WORKLOADS:
            with self.subTest(workload=workload):
                fixture, _ = self.fixture(workload, name=workload)
                done = tidypack("chunk", fixture.table, "--max-rows", fixture.chunk_rows, "--format", "json")
                self.assertEqual(oracle.check_chunk(done.returncode, done.stdout, fixture), [])
                chunks = json.loads(done.stdout)["chunks"]
                merged = self.work / f"{workload}-merged{fixture.table.suffix}"
                done = tidypack("unchunk", *chunks, "--output", merged, "--format", "json")
                self.assertEqual(oracle.check_unchunk(done.returncode, done.stdout, fixture, merged), [])

                # Drop the last row of a chunk.  csvy rows may hold quoted
                # newlines, so cut at the last line that opens a row (its id).
                second = Path(chunks[1])
                lines = second.read_bytes().splitlines(keepends=True)
                starts = [i for i, line in enumerate(lines) if line[:1].isdigit()]
                second.write_bytes(b"".join(lines[: starts[-1]]))
                merged.unlink()
                done = tidypack("unchunk", *chunks, "--output", merged, "--format", "json")
                self.assertNotEqual(oracle.check_unchunk(done.returncode, done.stdout, fixture, merged), [])

    def test_wrong_inferred_type_fails_infer(self):
        fixture, package = self.fixture("table-lint")
        done = tidypack("schema", "infer", package / "data" / f"{DATASET}.csv", "--format", "json")
        self.assertEqual(oracle.check_infer(done.returncode, done.stdout, fixture), [])
        wrong = done.stdout.replace(b'"date"', b'"string"')
        self.assertNotEqual(oracle.check_infer(done.returncode, wrong, fixture), [])

    def test_broken_package_fails_lint_validate_and_pack(self):
        fixture, package = self.fixture("table-lint")
        digests = oracle.package_digests(fixture, package)
        archive = self.work / "a.tar"
        done = tidypack("pack", package, "--require-lint", "--output", archive, "--format", "json")
        self.assertEqual(oracle.check_pack(done.returncode, done.stdout, archive, digests), [])
        self.assertNotEqual(oracle.check_pack(done.returncode, done.stdout, archive, [*digests, "data/extra.csv"]), [])

        schema = package / "metadata" / f"{DATASET}.json"
        schema.write_bytes(schema.read_bytes().replace(b'"number"', b'"integer"'))
        done = tidypack("schema", "validate", package / "data" / f"{DATASET}.csv", schema, "--format", "json")
        self.assertNotEqual(oracle.check_validate(done.returncode, done.stdout), [])
        (package / "LICENSE").unlink()
        done = tidypack("lint", package, "--format", "json")
        self.assertNotEqual(oracle.check_lint(done.returncode, done.stdout), [])


class ContractTests(Scratch):
    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({(m["name"], m["unit"]) for m in spec["end_to_end"]}, set(run.END_TO_END))
        self.assertEqual({(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}, set(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(fixtures.WORKLOADS))

    def test_fails_without_the_program(self):
        alone = self.work / "alone"
        shutil.copytree(run.BENCH, alone / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", alone)
        done = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "table-lint", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True,
            cwd=alone,
            timeout=60,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


if __name__ == "__main__":
    unittest.main()
