"""Exhaustive verification engine: distinct interval posets over whole
symmetric groups, polygon dissections per class, the comparison of the two
sides of each correspondence, realization of interval families, the
structural identity and image checks, and OEIS b-file cross-checks.

Every poset-side route reads one prefix DFS over S_n (``_scan``), which
keeps each distinct family as a bitmask, bit ``lo * (n + 1) + hi`` per
interval, up to the verdict: the tree filter and the checks of ``poset``
and ``bijection`` read the mask, and only canonical keys decode it.  The
block-wise family prunes a prefix as soon as it holds a sum of two blocks,
so no rejected permutation is ever completed; the others record whether
the permutation holds a sum of three.  ``walk_all`` hands one scan of S_n
to ``check_identities`` and the all and tree image checks; the block-wise
check keeps its own pruned scan.  Above a per-family order the scan splits
by first entry over one worker per CPU, and the merge keeps the first
representative of each key in first-entry order, so results do not depend
on the worker count.
"""
from __future__ import annotations

import dataclasses
import enum
import json
import multiprocessing
import os
import time
from typing import IO, Iterable

from ._lines import MalformedLine, read_pairs  # noqa: F401 (re-exported)
# classify_image is re-exported for the benchmark's census.classify_image hook
from .bijection import _classify_mask, classify_image  # noqa: F401
from .perm import Permutation
from .polygon import (DissectionClass, CapExceeded, check_dissection_cap,
                      enumerate_dissections)
from .poset import (_closure_violation_mask, _family_of_mask,
                    _is_laminar_mask, _mask_of, _three_descendant_violation_mask,
                    _trivial_mask, key_of_family)


class Family(enum.Enum):
    """Permutation families whose distinct posets the census counts."""

    ALL = "all"
    TREE = "tree"
    BLOCKWISE_SIMPLE = "blockwise"


DEFAULT_POSET_CAPS = {
    Family.ALL: 8,
    Family.TREE: 8,
    Family.BLOCKWISE_SIMPLE: 10,
}

# highest order scanned serially whatever the CPU count: starting a pool
# costs more than it saves there (2-CPU Xeon: the scan of S_7 takes 0.042 s
# serial against 0.068 s pooled, the pruned block-wise scan of S_8 0.025 s
# against 0.046 s)
_SERIAL_THROUGH = {
    Family.ALL: 7,
    Family.TREE: 7,
    Family.BLOCKWISE_SIMPLE: 8,
}

PAIRED_CLASS = {
    Family.ALL: DissectionClass.FRAMED_QUAD_FREE,
    Family.TREE: DissectionClass.NONCROSSING_QUAD_FREE,
    Family.BLOCKWISE_SIMPLE: DissectionClass.NONCROSSING_TRI_QUAD_FREE,
}

# Orders 2 and 3 admit no block-wise simple permutation while the 3- and
# 4-gon already carry one tri/quad-free dissection each, so aligned
# block-wise reporting starts at order 4 (where the counting sequence's
# first entry lives).
BLOCKWISE_FIRST_ORDER = 4

REALIZE_CAP = 8
IDENTITY_CAP = 8


def _scan_block(args: tuple[int, int, bool]) -> dict[int, tuple[int, ...]]:
    """``mask << 1 | triple`` -> one representative permutation, over the
    permutations of 1..n starting with a fixed first entry.

    A prefix DFS places values left to right in increasing order, so leaves
    arrive in lexicographic order and each key keeps its smallest
    permutation.  Placing a value at position k completes exactly the
    windows [i..k]; one backward pass with a running min and max finds the
    blocks among them and ORs bit ``lo * (n + 1) + hi`` of each into the
    prefix's family mask, which at a leaf is exact.  Whether a window is a
    block depends on its entries alone, so a sum found in a prefix is
    permanent.  A new block [i..k] whose value range continues a block
    ending at i - 1 upward or downward is the second part of a sum of two:
    the block-wise family rejects the prefix there, and the other families
    record the block as such a part.  When the block ending at i - 1 is
    itself a second part stacked the same way, the three form a sum of
    three, and ``triple`` records that the permutation has one.
    """
    n, first, blockwise = args
    width = n + 1
    entries = [0] * n
    used = [False] * (n + 1)
    # value bitmasks of the his and los of the blocks ending at each
    # position, and of the his (ups) and los (downs) of those among them
    # that are the second part of an ascending or a descending sum of two
    his = [0] * n
    los = [0] * n
    ups = [0] * n
    downs = [0] * n
    found: dict[int, tuple[int, ...]] = {}

    def extend(k: int, mask: int, triple: int):
        if k == n:
            key = mask << 1 | triple
            if key not in found:
                found[key] = tuple(entries)
            return
        # values whose singleton continues a block ending at k - 1 upward
        # or downward (the adjacent +-1 pair is the smallest case); tested
        # before the window loop, so a block-wise prefix rejects them
        # without scanning any window
        after_his = his[k - 1] << 1
        stacked = after_his | los[k - 1] >> 1
        for v in range(1, n + 1):
            if used[v]:
                continue
            up_bits = down_bits = 0
            has_triple = triple
            if stacked >> v & 1:
                if blockwise:
                    continue
                if after_his >> v & 1:
                    up_bits = 1 << v
                    has_triple |= ups[k - 1] >> (v - 1) & 1
                else:
                    down_bits = 1 << v
                    has_triple |= downs[k - 1] >> (v + 1) & 1
            lo = hi = v
            grown = mask | 1 << (v * width + v)
            hi_bits = lo_bits = 1 << v
            for i in range(k - 1, -1, -1):
                e = entries[i]
                if e < lo:
                    lo = e
                elif e > hi:
                    hi = e
                if hi - lo == k - i:
                    if i and his[i - 1] >> (lo - 1) & 1:
                        if blockwise:
                            break
                        up_bits |= 1 << hi
                        has_triple |= ups[i - 1] >> (lo - 1) & 1
                    elif i and los[i - 1] >> (hi + 1) & 1:
                        if blockwise:
                            break
                        down_bits |= 1 << lo
                        has_triple |= downs[i - 1] >> (hi + 1) & 1
                    grown |= 1 << (lo * width + hi)
                    hi_bits |= 1 << hi
                    lo_bits |= 1 << lo
            else:
                entries[k] = v
                his[k] = hi_bits
                los[k] = lo_bits
                ups[k] = up_bits
                downs[k] = down_bits
                used[v] = True
                extend(k + 1, grown, has_triple)
                used[v] = False

    entries[0] = first
    his[0] = los[0] = 1 << first
    used[first] = True
    extend(1, 1 << (first * width + first), 0)
    return found


def _scan(n: int, family: Family) -> dict[int, tuple[int, ...]]:
    """``mask << 1 | triple`` -> lexicographically least permutation of
    order n in the family, in the order of those permutations.

    Orders above the family's serial cutoff split the scan by first entry
    over a pool with one worker per CPU.  Each part is in lexicographic
    order and the parts come in order of first entry, so keeping the first
    representative of each key keeps the least one.
    """
    jobs = [(n, first, family is Family.BLOCKWISE_SIMPLE)
            for first in range(1, n + 1)]
    threads = os.cpu_count() or 1
    if threads <= 1 or n <= _SERIAL_THROUGH[family]:
        partials = [_scan_block(job) for job in jobs]
    else:
        with multiprocessing.Pool(min(threads, n)) as pool:
            partials = pool.map(_scan_block, jobs)
    found: dict[int, tuple[int, ...]] = {}
    for part in partials:
        for key, entries in part.items():
            found.setdefault(key, entries)
    return found


@dataclasses.dataclass(frozen=True)
class Walk:
    """The scan of all permutations of order n (see ``_scan``), made by
    ``walk_all`` and read by any number of identity and image checks."""

    n: int
    keys: dict[int, tuple[int, ...]]


def _check_order(n: int, cap: int | None = None, name: str = "",
                 family: Family | None = None):
    """``ValueError`` below order 1, then, when ``cap`` is given,
    ``CapExceeded`` above it, naming "the <name> cap <cap>" and the family
    if one is given."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if cap is not None and n > cap:
        scope = f" for {family.value}" if family else ""
        raise CapExceeded(f"n={n} exceeds the {name} cap {cap}{scope}")


def walk_all(n: int, *, cap: int | None = None) -> Walk:
    """One walk of all permutations of order n, under the census cap of the
    all family (or ``cap``), to pass as ``walk=`` to ``check_identities``
    and to the all and tree image checks of the same order."""
    _check_order(n, DEFAULT_POSET_CAPS[Family.ALL] if cap is None else cap,
                 "census", Family.ALL)
    return Walk(n, _scan(n, Family.ALL))


def _scan_or_walk(n: int, family: Family,
                  walk: Walk | None) -> dict[int, tuple[int, ...]]:
    """The scan of order n in the family: the given walk, or a new scan
    when there is none.  A walk of another order, or one offered to the
    block-wise family, whose pruned scan is its own route, is a
    ``ValueError``."""
    if walk is None:
        return _scan(n, family)
    if family is Family.BLOCKWISE_SIMPLE:
        raise ValueError("the block-wise check takes no walk: it runs its "
                         "own pruned scan")
    if walk.n != n:
        raise ValueError(f"a walk of order {walk.n} cannot check order {n}")
    return walk.keys


def _distinct_families(n: int, family: Family, cap: int | None,
                       walk: Walk | None = None) -> dict[int, tuple[int, ...]]:
    """Family bitmask -> lexicographically least permutation of order n in
    the family with that interval set, in the order of those permutations.
    The tree family is the scan of all permutations kept to laminar masks.
    The scan is ``walk`` when one is given (see ``_scan_or_walk``).
    """
    _check_order(n, DEFAULT_POSET_CAPS[family] if cap is None else cap,
                 "census", family)
    reps: dict[int, tuple[int, ...]] = {}
    for key, entries in _scan_or_walk(n, family, walk).items():
        reps.setdefault(key >> 1, entries)
    if family is Family.TREE:
        return {mask: entries for mask, entries in reps.items()
                if _is_laminar_mask(mask, n)}
    return reps


def poset_census(n: int, family: Family, *,
                 cap: int | None = None) -> dict[str, tuple[int, ...]]:
    """Canonical key -> one representative entry tuple, over all
    permutations of order n in the family.

    Representatives are lexicographically least and keys appear in the
    order of their representatives.  The scan deduplicates by family
    bitmask; the Tree filter and the canonical key run once per distinct
    mask, and the block-wise condition prunes prefixes inside the scan, so
    permutations outside the family are never completed.
    """
    return {key_of_family(n, _family_of_mask(mask, n + 1)): entries
            for mask, entries in _distinct_families(n, family, cap).items()}


def distinct_posets(n: int, family: Family, *, cap: int | None = None) -> int:
    """Number of distinct interval posets over the family at order n.

    >>> distinct_posets(3, Family.ALL)
    3
    >>> distinct_posets(3, Family.TREE)
    2
    """
    return len(_distinct_families(n, family, cap))


def count_dissections(m: int, clazz: DissectionClass,
                      cap: int | None = None) -> int:
    """Number of dissections of the m-gon in the class.

    >>> count_dissections(4, DissectionClass.FRAMED_QUAD_FREE)
    3
    >>> count_dissections(4, DissectionClass.NONCROSSING_QUAD_FREE)
    2
    """
    return sum(1 for _ in enumerate_dissections(m, clazz, cap=cap))


@dataclasses.dataclass(frozen=True)
class CensusRow:
    n: int
    clazz: str
    poset_count: int
    dissection_count: int
    match: bool
    elapsed_ms: float
    poset_ms: float
    dissection_ms: float

    def as_dict(self) -> dict:
        return {"n": self.n, "class": self.clazz,
                "poset_count": self.poset_count,
                "dissection_count": self.dissection_count,
                "match": self.match, "elapsed_ms": self.elapsed_ms,
                "poset_ms": self.poset_ms,
                "dissection_ms": self.dissection_ms}


@dataclasses.dataclass
class CensusReport:
    rows: list[CensusRow] = dataclasses.field(default_factory=list)
    conventions: dict = dataclasses.field(default_factory=dict)

    def all_match(self) -> bool:
        return all(row.match for row in self.rows)

    def to_json(self) -> str:
        payload = {"rows": [row.as_dict() for row in self.rows],
                   "conventions": self.conventions}
        return json.dumps(payload, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"{'n':>4}  {'class':<10}  {'posets':>10}  "
                 f"{'dissections':>12}  {'match':>5}  {'elapsed_ms':>10}"]
        for row in self.rows:
            verdict = "yes" if row.match else "NO"
            lines.append(f"{row.n:>4}  {row.clazz:<10}  {row.poset_count:>10}  "
                         f"{row.dissection_count:>12}  {verdict:>5}  "
                         f"{row.elapsed_ms:>10.1f}")
        for key in sorted(self.conventions):
            lines.append(f"convention {key}: {self.conventions[key]}")
        return "\n".join(lines) + "\n"


def compare_counts(n: int, family: Family, *,
                   poset_cap: int | None = None) -> CensusRow:
    """Both sides of the pairing at m = n + 1, computed independently.

    The dissection side runs first: its cap check is immediate, so an
    out-of-range request fails before the factorial scan starts.  Each
    side's time is reported on its own next to their sum.
    """
    start = time.perf_counter()
    dissection_count = count_dissections(n + 1, PAIRED_CLASS[family])
    split = time.perf_counter()
    poset_count = distinct_posets(n, family, cap=poset_cap)
    end = time.perf_counter()
    return CensusRow(n=n, clazz=family.value, poset_count=poset_count,
                     dissection_count=dissection_count,
                     match=poset_count == dissection_count,
                     elapsed_ms=round((end - start) * 1000.0, 1),
                     poset_ms=round((end - split) * 1000.0, 1),
                     dissection_ms=round((split - start) * 1000.0, 1))


def run_census(family: Family, max_n: int, *,
               min_n: int | None = None) -> CensusReport:
    """Census rows for n = min_n..max_n (min_n >= 1); block-wise rows start
    at order 4 unless asked otherwise.  The requested max_n also authorizes
    the poset scan up to that order; polygon caps stay in force and are
    checked for the largest polygon before any order is computed.
    """
    if min_n is None:
        min_n = BLOCKWISE_FIRST_ORDER if family is Family.BLOCKWISE_SIMPLE else 1
    _check_order(min_n)
    if min_n <= max_n:
        check_dissection_cap(max_n + 1, PAIRED_CLASS[family])
    poset_cap = max(max_n, DEFAULT_POSET_CAPS[family])
    report = CensusReport(conventions={
        "pairing": f"{family.value} posets vs "
                   f"{PAIRED_CLASS[family].value} dissections at m = n + 1",
        "order_1_block_wise_simple": True,
        "blockwise_first_reported_order": BLOCKWISE_FIRST_ORDER,
        "bare_triangle_exempt_from_tri_free": True,
    })
    for n in range(min_n, max_n + 1):
        report.rows.append(compare_counts(n, family, poset_cap=poset_cap))
    return report


def realize(intervals: Iterable[tuple[int, int]], n: int,
            cap: int = REALIZE_CAP) -> Permutation | None:
    """Lexicographically smallest permutation of order n whose interval set
    equals the given family, or None.  An interval outside 1..n is an input
    error (``ValueError``), not an unrealizable family.

    A prefix DFS in the scan's layout places values left to right in
    increasing order.  ``allowed`` is the family's bitmask, ``spans`` the
    value bitmask of each interval of two or more values, and ``used`` the
    values placed so far.
    Two prunes make leaves exactly the realizers: the candidates are the
    unused values inside every span that is partly used (the values of an
    interval occupy consecutive positions), and a candidate is rejected when
    a window ending at it forms a block whose bit is not in ``allowed``.

    >>> singles = {(i, i) for i in range(1, 5)}
    >>> str(realize(singles | {(1, 4)}, 4))
    '2413'
    >>> realize(singles | {(1, 2), (2, 3), (1, 4)}, 4) is None
    True
    """
    _check_order(n, cap, "realization")
    width = n + 1
    allowed = _mask_of(intervals, n)
    spans = [(1 << hi + 1) - (1 << lo)
             for lo, hi in _family_of_mask(allowed, width) if lo < hi]
    # the singletons and (1, n), which every permutation has
    if _trivial_mask(n) & ~allowed:
        return None
    entries = [0] * n
    values = (1 << width) - 2

    def extend(k: int, used: int) -> bool:
        if k == n:
            return True
        free = values & ~used
        for span in spans:
            if 0 < span & used != span:
                free &= span
        while free:
            bit = free & -free
            free ^= bit
            lo = hi = v = bit.bit_length() - 1
            for i in range(k - 1, -1, -1):
                e = entries[i]
                if e < lo:
                    lo = e
                elif e > hi:
                    hi = e
                if hi - lo == k - i and not allowed >> (lo * width + hi) & 1:
                    break
            else:
                entries[k] = v
                if extend(k + 1, used | bit):
                    return True
        return False

    if extend(0, 0):
        return Permutation(tuple(entries))
    return None


@dataclasses.dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    counterexample: str | None = None


def check_identities(n: int, cap: int = IDENTITY_CAP, *,
                     walk: Walk | None = None) -> list[IdentityCheck]:
    """Four exhaustive checks over S_n, reporting the lexicographically
    least counterexample:

    - simple-share-poset: all simple permutations (order >= 2) yield one
      interval poset;
    - overlap-closure: unions, intersections and both differences of
      properly overlapping intervals are present in every interval poset;
    - no-three-descendants: no poset element has exactly 3 direct
      descendants;
    - tree-iff-no-triple-sum: the interval poset is a tree exactly when the
      permutation has no three-block sum interval.

    The walk is the census scan of all permutations: the least permutation
    of each (family mask, triple flag) pair, which ``poset``'s mask-level
    checks read with no tuple or poset built.  The triple flag is found per
    permutation by stacking blocks, so the last check sets two routes
    against each other.

    ``walk``, from ``walk_all(n)``, is read instead of a new scan; the
    results are the same.  The order and cap are checked before it is
    read, and a walk of another order is a ``ValueError``.
    """
    _check_order(n, cap, "identity-check")
    simple_masks: set[int] = set()
    fails: dict[str, str | None] = dict.fromkeys((
        "simple-share-poset", "overlap-closure", "no-three-descendants",
        "tree-iff-no-triple-sum"))

    def note(check: str, entries: tuple[int, ...]):
        if fails[check] is None:
            fails[check] = str(Permutation(entries))

    for key, entries in _scan_or_walk(n, Family.ALL, walk).items():
        mask = key >> 1
        if _closure_violation_mask(mask, n) is not None:
            note("overlap-closure", entries)
        if _three_descendant_violation_mask(mask, n) is not None:
            note("no-three-descendants", entries)
        if n >= 2 and mask.bit_count() == n + 1:
            simple_masks.add(mask)
            if len(simple_masks) > 1:
                note("simple-share-poset", entries)
        if _is_laminar_mask(mask, n) == bool(key & 1):
            note("tree-iff-no-triple-sum", entries)

    return [IdentityCheck(name, fail is None, fail)
            for name, fail in fails.items()]


IMAGE_CHECK_NAMES = {
    Family.ALL: "image-framed-quad-free",
    Family.TREE: "tree-image-noncrossing-quad-free",
    Family.BLOCKWISE_SIMPLE: "blockwise-image-noncrossing-tri-quad-free",
}

IMAGE_PREDICATES = {
    Family.ALL: lambda c: c.diagonally_framed and c.quad_free,
    Family.TREE: lambda c: c.noncrossing and c.quad_free,
    Family.BLOCKWISE_SIMPLE:
        lambda c: c.noncrossing and c.quad_free and c.triangle_free,
}


def check_images(n: int, family: Family, *, cap: int | None = None,
                 walk: Walk | None = None) -> IdentityCheck:
    """Forward image check for one family at order n: the chord image of
    every distinct poset arising from the family satisfies the predicate
    bundle paired with it (framed and quad-free for all permutations;
    non-crossing and quad-free for tree posets; additionally triangle-free
    for block-wise simple permutations), read from each family's mask by
    ``bijection``.  A failure names the least permutation in the family
    whose poset's image fails; n = 1, the degenerate 2-gon, is vacuous.

    The all and tree families read ``walk`` as ``check_identities`` does;
    any walk for the block-wise family is a ``ValueError``.
    """
    reps = _distinct_families(n, family, cap, walk)
    name = IMAGE_CHECK_NAMES[family]
    predicate = IMAGE_PREDICATES[family]
    if n == 1:
        return IdentityCheck(name, True)
    for mask, entries in reps.items():
        if not predicate(_classify_mask(mask, n)):
            return IdentityCheck(name, False, str(Permutation(entries)))
    return IdentityCheck(name, True)


def load_bfile(source: str | IO[str]) -> list[tuple[int, int]]:
    """Parse OEIS b-file text: 'index value' lines, '#' comments and blank
    lines ignored.  A repeated index is a ``MalformedLine`` naming the later
    line; line numbers in errors count every physical line.

    >>> load_bfile("# c\\n5 10\\n")
    [(5, 10)]
    """
    text = source.read() if hasattr(source, "read") else source
    return read_pairs(text, distinct_first=True)[1]


@dataclasses.dataclass(frozen=True)
class SequenceComparison:
    """Census counts against a reference sequence under a declared offset:
    sequence index k corresponds to order n = k + offset."""

    offset: int
    rows: tuple[tuple[int, int, int | None, int | None, bool], ...]
    census_values: tuple[int, ...]
    reference_values: tuple[int, ...]

    def all_match(self) -> bool:
        return all(row[4] for row in self.rows)

    def to_text(self) -> str:
        sign = "-" if self.offset < 0 else "+"
        lines = [f"alignment: sequence index k corresponds to order "
                 f"n = k {sign} {abs(self.offset)}",
                 f"{'n':>4}  {'census':>8}  {'k':>4}  {'reference':>9}  match"]
        for n, count, k, expected, match in self.rows:
            k_text = "-" if k is None else str(k)
            e_text = "-" if expected is None else str(expected)
            verdict = "n/a" if expected is None else ("yes" if match else "NO")
            lines.append(f"{n:>4}  {count:>8}  {k_text:>4}  {e_text:>9}  {verdict}")
        lines.append("census sequence:    "
                     + ", ".join(map(str, self.census_values)))
        lines.append("reference sequence: "
                     + ", ".join(map(str, self.reference_values)))
        return "\n".join(lines) + "\n"


def compare_with_bfile(counts: dict[int, int], pairs: list[tuple[int, int]],
                       offset: int) -> SequenceComparison:
    """Align census counts (order -> count) with b-file pairs; orders the
    b-file does not cover compare as vacuous matches but are marked."""
    reference = dict(pairs)
    rows = []
    for n in sorted(counts):
        k = n - offset
        expected = reference.get(k)
        match = expected is None or expected == counts[n]
        rows.append((n, counts[n], k if expected is not None else None,
                     expected, match))
    return SequenceComparison(
        offset=offset,
        rows=tuple(rows),
        census_values=tuple(counts[n] for n in sorted(counts)),
        reference_values=tuple(v for _k, v in sorted(pairs)),
    )
