"""The benchmark's workloads: what one pass calls in polyposet and how its
result is checked.

A pass returns one outcome per op.  The expected values come from the b-file
fixtures under tests/fixtures, read here by the benchmark's own reader rather
than by polyposet's `load_bfile`, so a defect there cannot hide itself.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
OUT = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(ROOT / "src"))

from polyposet import bijection, census, cli, perm, polygon, poset  # noqa: E402
from polyposet.polygon import DissectionClass  # noqa: E402

VERIFY_MAX_N = 8
VERIFY_CHECKS = ("simple-share-poset", "overlap-closure",
                 "no-three-descendants", "tree-iff-no-triple-sum",
                 "image-framed-quad-free", "tree-image-noncrossing-quad-free",
                 "blockwise-image-noncrossing-tri-quad-free")
REALIZE_CAP = 10


def read_terms(path: Path) -> dict[int, int]:
    """'index value' lines of a b-file; '#' comments and blanks skipped."""
    terms = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            k, value = line.split()
            terms[int(k)] = int(value)
    return terms


@dataclasses.dataclass(frozen=True)
class CensusCommand:
    clazz: str
    first_n: int
    max_n: int
    fixture: str
    offset: int

    def expected(self) -> dict[int, int | None]:
        """Order -> aligned b-file term, or None where no term aligns."""
        terms = read_terms(FIXTURES / self.fixture)
        return {n: terms.get(n - self.offset)
                for n in range(self.first_n, self.max_n + 1)}

    def argv(self, out: Path) -> list[str]:
        return ["census", "--class", self.clazz, "--max-n", str(self.max_n),
                "--oeis", str(FIXTURES / self.fixture),
                "--offset", str(self.offset), "--out", str(out)]


def check_census(rc: int, report: str | None,
                 expected: dict[int, int | None]) -> list[bool]:
    """One outcome per expected row, plus a failure per unexpected row.  A
    row holds when both sides agree and equal the aligned term."""
    if rc != 0 or report is None:
        return [False] * len(expected)
    rows = {row["n"]: row for row in json.loads(report)["rows"]}
    outcomes = []
    for n, term in expected.items():
        row = rows.pop(n, None)
        outcomes.append(
            row is not None and row["match"] is True
            and row["poset_count"] == row["dissection_count"]
            and (term is None or row["poset_count"] == term))
    outcomes.extend(False for _ in rows)
    return outcomes


def verify_lines(max_n: int) -> list[str]:
    return [f"n={n} {name}: pass" for n in range(1, max_n + 1)
            for name in VERIFY_CHECKS]


def check_verify(rc: int, stdout: str, expected: list[str]) -> list[bool]:
    """One outcome per expected line, plus a failure per extra line."""
    lines = stdout.splitlines()
    outcomes = [rc == 0 and i < len(lines) and lines[i] == want
                and "FAIL" not in lines[i]
                for i, want in enumerate(expected)]
    outcomes.extend(False for _ in lines[len(expected):])
    return outcomes


def run_cli(argv: list[str]) -> tuple[int, str]:
    """polyposet's CLI in-process; an exception reads as exit code -1."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            rc = cli.run(argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, buffer.getvalue()


@dataclasses.dataclass(frozen=True)
class Pairing:
    clazz: DissectionClass
    m: int
    fixture: str
    k: int


PULLBACK = (
    Pairing(DissectionClass.FRAMED_QUAD_FREE, 9, "b348479.txt", 8),
    Pairing(DissectionClass.NONCROSSING_QUAD_FREE, 9, "b054515.txt", 7),
    Pairing(DissectionClass.NONCROSSING_TRI_QUAD_FREE, 11, "b054514.txt", 7),
)


def round_trip(clazz: DissectionClass, D) -> bool:
    """Read one dissection back to a permutation and check every step."""
    P = bijection.phi_inverse(D)
    n = P.n
    if not poset.validate_interval_family(P.intervals, n).ok:
        return False
    witness = census.realize(P.intervals, n, cap=REALIZE_CAP)
    if witness is None or poset.poset_of(witness) != P:
        return False
    if clazz is not DissectionClass.FRAMED_QUAD_FREE and not poset.is_tree(P):
        return False
    if (clazz is DissectionClass.NONCROSSING_TRI_QUAD_FREE
            and not perm.is_block_wise_simple(witness)):
        return False
    return True


@dataclasses.dataclass
class Workload:
    name: str
    expected_ops: int
    run_pass: Callable[[int], list[bool]]

    def score(self, outcomes: list[bool]) -> tuple[int, int]:
        return score(outcomes, self.expected_ops)


def census_workload(name: str, commands: list[CensusCommand]) -> Workload:
    expected = [command.expected() for command in commands]

    def run_pass(seed: int) -> list[bool]:
        outcomes = []
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            report_path = Path(tmp) / "census.json"
            for command, want in zip(commands, expected):
                report_path.unlink(missing_ok=True)
                rc, _stdout = run_cli(command.argv(report_path))
                report = (report_path.read_text(encoding="utf-8")
                          if report_path.exists() else None)
                outcomes += check_census(rc, report, want)
        return outcomes

    return Workload(name, sum(len(want) for want in expected), run_pass)


def verify_workload() -> Workload:
    expected = verify_lines(VERIFY_MAX_N)

    def run_pass(seed: int) -> list[bool]:
        rc, stdout = run_cli(["verify", "--max-n", str(VERIFY_MAX_N)])
        return check_verify(rc, stdout, expected)

    return Workload("verify", len(expected), run_pass)


def pullback_workload() -> Workload:
    counts = [read_terms(FIXTURES / p.fixture)[p.k] for p in PULLBACK]

    def run_pass(seed: int) -> list[bool]:
        outcomes: list[bool] = []
        todo = []
        for pairing, count in zip(PULLBACK, counts):
            found = list(polygon.enumerate_dissections(pairing.m, pairing.clazz))
            if len(found) != count:
                outcomes += [False] * max(count, len(found))
            else:
                todo += [(pairing.clazz, D) for D in found]
        random.Random(seed).shuffle(todo)
        failures_shown = 0
        for clazz, D in todo:
            try:
                ok = round_trip(clazz, D)
            except Exception:
                if failures_shown == 0:
                    traceback.print_exc()
                failures_shown += 1
                ok = False
            outcomes.append(ok)
        return outcomes

    return Workload("pullback", sum(counts), run_pass)


BUILDERS = {
    "census-all-tree": lambda: census_workload("census-all-tree", [
        CensusCommand("all", 1, 8, "b348479.txt", 0),
        CensusCommand("tree", 1, 8, "b054515.txt", 1)]),
    "census-blockwise": lambda: census_workload("census-blockwise", [
        CensusCommand("blockwise", 4, 10, "b054514.txt", 3)]),
    "verify": verify_workload,
    "pullback": pullback_workload,
}


def score(outcomes: list[bool], expected_ops: int) -> tuple[int, int]:
    """(attempted, failed) for one pass.  A pass that attempts fewer ops
    than its workload expects fails every expected op, so a pass that
    compares nothing cannot succeed."""
    if len(outcomes) < expected_ops:
        return expected_ops, expected_ops
    return len(outcomes), outcomes.count(False)
