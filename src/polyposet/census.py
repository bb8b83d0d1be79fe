"""Exhaustive verification engine: distinct interval posets over whole
symmetric groups, polygon dissections per class, the comparison of the two
sides of each correspondence, realization of interval families, the
structural identity and image checks, and OEIS b-file cross-checks.

Every poset-side route reads one prefix DFS over S_n (``_scan``), which
keeps each distinct family as a bitmask, bit ``lo * (n + 1) + hi`` per
interval, up to the verdict: the tree filter and the checks of ``poset``
and ``polygon`` read the mask, and only canonical keys decode it.  One
kernel, ``_scan_block``, runs the DFS for both routes, and its docstring
states its rules: the live starts it walks, the sum of three it records,
the block-wise family's prunes and why they are exact, and why only
permutations with p_1 < p_n are completed.  ``_scan`` keeps its last scan,
so ``check_identities`` and the all and tree image checks of one order, run
one after another as ``verify`` runs them, share one scan of S_n; the
block-wise check reads its own pruned scan.  The kept dict is shared, and
callers only read it.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import json
import time
from typing import IO, Iterable

from ._lines import MalformedLine, read_pairs  # noqa: F401 (re-exported)
# classify_image is re-exported for the benchmark's census.classify_image hook
from .bijection import classify_image  # noqa: F401
from .perm import Permutation
# enumerate_dissections is re-exported for the benchmark's
# census.enumerate_dissections hook
from .polygon import (DissectionClass, CapExceeded, _in_class, _members,
                      check_dissection_cap, enumerate_dissections)  # noqa: F401
from .poset import (_closure_violation_rows, _family_of_mask,
                    _is_laminar_rows, _mask_of, _mask_of_entries,
                    _mask_verdict, _node, _rows,
                    _three_descendant_violation_rows, _trivial_mask,
                    key_of_family)


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


def _scan_block(n: int, blockwise: bool) -> dict[int, tuple[int, ...]]:
    """``mask << 1 | triple`` -> least permutation of 1..n with that key,
    block-wise simple if ``blockwise`` (whose ``triple`` is always 0), in
    the order of those permutations, which for n >= 2 end above their
    first entry.

    A prefix DFS places values left to right in increasing order, so leaves
    arrive in lexicographic order and each key keeps its smallest
    permutation.  Placing a value at position k completes the windows
    [i..k]; each block among them ORs bit ``lo * (n + 1) + hi`` into the
    prefix's family mask, which at a leaf is exact.  ``used`` is the value
    bitmask of the placed entries.

    *Liveness.*  A start i is live when no value placed before position i
    lies in the value range (lo, hi) of the window [i..k] ending at the
    last placed position k.  Only a live start can begin a later block,
    and a dead one stays dead, so each prefix hands its live starts
    ``(i, lo, hi)`` to its children, and placing a value v tests only
    their windows and the new singleton.  A live window holds exactly the
    placed values of its range, so a placed value in the range that v
    newly covers sits before position i: the start dies just when ``used``
    meets that range.

    *Stacking.*  A new block whose value range continues a block ending at
    i - 1 upward or downward is the second part of a sum of two; when that
    block is itself a second part stacked the same way, the three form a
    sum of three, and ``triple`` records that the permutation has one.

    *Block-wise rules.*  A sum of two stays in every completion, so the
    block-wise scan rejects a value as soon as a block it closes stacks,
    drops the values whose singleton stacks before trying any, and returns
    from a prefix whose unplaced values form one run [a..b] when a block
    ending at k has hi = a - 1 or lo = b + 1 (every completion ends with a
    block over the run; a first entry of 1 yields nothing at once).  It
    also skips a prefix whose *state*, its family mask (whose singletons
    are the placed values) and the ranges of its live starts, an earlier
    prefix of the same length reached.  The state fixes every later test:

    - whether a later window [i..j] stays live, is a block and which bit
      it sets depend on its range, the placed values and the suffix;
    - it is a sum of two when a block ending at i - 1 has hi = lo' - 1 or
      lo = hi' + 1, for its range (lo', hi').  Then lo' - 1 can only be c,
      the nearest placed value below lo, and a block over (x, c) ends at
      i - 1 just when some live start has the range (x, hi) and x..c are
      all placed; likewise above hi;
    - the blocks ending at k, which the next value reads, are the live
      ranges with no unplaced value.

    Two prefixes in one state therefore pass the same tests on every
    suffix, and one ``seen`` set serves the whole walk, across first
    entries: the reverse prune below, the one test the state does not fix,
    keeps the suffixes whose last value exceeds the first entry, and the
    walk reaches a state first under the smaller or equal first entry, so
    the first prefix admits every completion a later one does, always as
    the smaller permutation.  No key, representative or insertion order
    changes.  One int holds the state: the mask, and above it one bit per
    live range.

    *Reverse prune.*  Only permutations with p_1 < p_n are completed
    (n >= 2), so a first entry of n yields nothing.  This loses no key and
    no least representative.  ``reverse(p)`` has the same intervals as
    ``p``; a sum of three read backwards is a skew sum of three, and
    ``triple`` records both kinds; the block-wise family rejects sums of
    two stacked either way.  So ``p`` and ``reverse(p)`` share a key, and
    when p_1 > p_n the reverse is the lexicographically smaller of the two.
    """
    width = n + 1
    cells = width * width
    values = (1 << width) - 2
    entries = [0] * n
    # value bitmasks of the his and los of the blocks ending just before
    # each position (0 before position 0), and of the his (ups) and los
    # (downs) of those among them that are the second part of an ascending
    # or a descending sum of two
    his = [0] * (n + 1)
    los = [0] * (n + 1)
    ups = [0] * (n + 1)
    downs = [0] * (n + 1)
    seen: set[int] = set()
    found: dict[int, tuple[int, ...]] = {}

    def extend(k: int, mask: int, triple: int, used: int,
               starts: list[tuple[int, int, int]]):
        if k == n:
            key = mask << 1 | triple
            if key not in found:
                found[key] = tuple(entries)
            return
        free = values & ~used
        if not free >> entries[0] + 1:  # p_n < p_1: the reverse is scanned
            return
        # values whose singleton continues a block ending at k - 1 upward
        # or downward (the adjacent +-1 pair is the smallest case)
        after_his = his[k] << 1
        stacked = after_his | los[k] >> 1
        if blockwise:
            low = free & -free
            if not free & free + low and (his[k] & low >> 1
                                          or los[k] & free + low):
                return  # the run of unplaced values stacks on a block
            free &= ~stacked
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            up_bits = down_bits = 0
            has_triple = triple
            if stacked & bit:
                if after_his & bit:
                    up_bits = bit
                    has_triple |= ups[k] >> (v - 1) & 1
                else:
                    down_bits = bit
                    has_triple |= downs[k] >> (v + 1) & 1
            live = 1 << (v * width + v)
            grown = mask | live
            hi_bits = lo_bits = bit
            kept = [(k, v, v)]
            for i, lo, hi in starts:
                if v < lo:
                    if used & (1 << lo) - bit:
                        continue  # the start dies
                    lo = v
                elif v > hi:
                    if used & bit - (2 << hi):
                        continue
                    hi = v
                if hi - lo == k - i:
                    if his[i] >> (lo - 1) & 1:
                        if blockwise:
                            break  # a sum of two
                        up_bits |= 1 << hi
                        has_triple |= ups[i] >> (lo - 1) & 1
                    elif los[i] >> (hi + 1) & 1:
                        if blockwise:
                            break
                        down_bits |= 1 << lo
                        has_triple |= downs[i] >> (hi + 1) & 1
                    grown |= 1 << (lo * width + hi)
                    hi_bits |= 1 << hi
                    lo_bits |= 1 << lo
                kept.append((i, lo, hi))
                if blockwise:
                    live |= 1 << (lo * width + hi)
            else:
                if blockwise:
                    state = live << cells | grown
                    if state in seen:
                        continue
                    seen.add(state)
                entries[k] = v
                his[k + 1] = hi_bits
                los[k + 1] = lo_bits
                ups[k + 1] = up_bits
                downs[k + 1] = down_bits
                extend(k + 1, grown, has_triple, used | bit, kept)

    extend(0, 0, 0, 0, [])
    del extend  # it refers to itself; the cycle would keep the walk's state
    return found


@functools.lru_cache(maxsize=1)
def _scan(n: int, blockwise: bool) -> dict[int, tuple[int, ...]]:
    """``mask << 1 | triple`` -> lexicographically least permutation of
    order n, block-wise simple if ``blockwise``, in the order of those
    permutations.  The last scan is kept, so checks of one order that read
    the same scan one after another walk S_n once; the dict is shared, and
    callers only read it.
    """
    return _scan_block(n, blockwise)


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


def _distinct_families(n: int, family: Family,
                       cap: int | None) -> dict[int, tuple[int, ...]]:
    """Family bitmask -> lexicographically least permutation of order n in
    the family with that interval set, in the order of those permutations.
    The tree family is the scan of all permutations kept to laminar masks.
    """
    _check_order(n, DEFAULT_POSET_CAPS[family] if cap is None else cap,
                 "census", family)
    reps: dict[int, tuple[int, ...]] = {}
    for key, entries in _scan(n, family is Family.BLOCKWISE_SIMPLE).items():
        reps.setdefault(key >> 1, entries)
    if family is Family.TREE:
        return {mask: entries for mask, entries in reps.items()
                if _is_laminar_rows(_rows(mask, n))}
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
    """Number of dissections of the m-gon in the class: the length of
    ``enumerate_dissections``, with the same checks, counted on the
    members' masks, which only ``enumerate_dissections`` decodes.

    >>> count_dissections(4, DissectionClass.FRAMED_QUAD_FREE)
    3
    >>> count_dissections(4, DissectionClass.NONCROSSING_QUAD_FREE)
    2
    """
    return len(_members(m, clazz, cap))


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
        fields = dataclasses.asdict(self)
        return {"n": fields.pop("n"), "class": fields.pop("clazz"), **fields}


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

    The answer is composed from the family's substitution-decomposition
    tree (``poset._node``), read from (1, n) down.  A linear node is
    increasing, placing its parts in value order, except under an
    increasing linear node, where it must be decreasing (two increasing
    nodes would merge into one), placing them in reverse.  A prime node of
    arity k places its parts by ``_simple_pattern(k)``.  This is the least
    realizer: sibling parts hold disjoint value ranges, so at the first
    position where two orders of the same parts differ, the part of
    smaller rank holds all the smaller values, and the order of the parts
    decides before their contents do.  Each part's contents are then
    chosen independently, except that a linear part's orientation is
    forced by its parent; increasing puts the lowest part first.

    A family lacking a singleton or (1, n) is None before either route
    runs.  The composed permutation is returned only when its own
    intervals are exactly the family.  Otherwise (the tree reading assumes
    a realizable family) a family that ``validate_interval_family`` refutes
    is None, and the answer to any other is ``_search``'s, so a None never
    rests on the decomposition theorem.

    >>> singles = {(i, i) for i in range(1, 5)}
    >>> str(realize(singles | {(1, 4)}, 4))
    '2413'
    >>> realize(singles | {(1, 2), (2, 3), (1, 4)}, 4) is None
    True
    """
    _check_order(n, cap, "realization")
    allowed = _mask_of(intervals, n)
    if _trivial_mask(n) & ~allowed:
        return None
    entries = _compose(allowed, n)
    if entries is None or _mask_of_entries(entries) != allowed:
        if not _mask_verdict(allowed, n).ok:
            return None
        entries = _search(allowed, n)
    return None if entries is None else Permutation(entries)


def _compose(allowed: int, n: int) -> tuple[int, ...] | None:
    """The permutation the decomposition tree of the family mask spells
    (see ``realize``), or None where the tree cannot be read: a prime node
    whose parts overlap, or a prime arity with no simple permutation.  The
    mask holds the trivial intervals.  An explicit stack walks the tree,
    each node's parts pushed in reverse of their placing order."""
    rows = _rows(allowed, n)
    out: list[int] = []
    stack = [(1, n, False)]
    while stack:
        lo, hi, under_increasing = stack.pop()
        if lo == hi:
            out.append(lo)
            continue
        linear, parts = _node(rows, lo, hi)
        if linear:
            stack += [(a, b, not under_increasing)
                      for a, b in (parts if under_increasing else parts[::-1])]
            continue
        if any(right[0] != left[1] + 1 for left, right in zip(parts, parts[1:])):
            return None
        pattern = _simple_pattern(len(parts))
        if pattern is None:
            return None
        stack += [(*parts[rank - 1], False) for rank in reversed(pattern)]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _simple_pattern(k: int) -> tuple[int, ...] | None:
    """The lexicographically least simple permutation of order k, which is
    ``_search``'s realizer of the trivial family; None for k = 3."""
    return _search(_trivial_mask(k), k)


def _search(allowed: int, n: int) -> tuple[int, ...] | None:
    """The lexicographically least realizer of the family mask, or None,
    by a prefix DFS in the scan's layout that places values left to right
    in increasing order.  ``spans`` is the value bitmask of each interval
    of two or more values, and ``used`` the values placed so far.
    Two prunes make leaves exactly the realizers: the candidates are the
    unused values inside every span that is partly used (the values of an
    interval occupy consecutive positions), and a candidate is rejected when
    a window ending at it forms a block whose bit is not in ``allowed``.
    The mask holds the singletons and (1, n), as ``realize`` checks.
    """
    width = n + 1
    spans = [(1 << hi + 1) - (1 << lo)
             for lo, hi in _family_of_mask(allowed, width) if lo < hi]
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

    realized = extend(0, 0)
    del extend  # as in _scan_block: free the walk's state now
    return tuple(entries) if realized else None


@dataclasses.dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    counterexample: str | None = None


def check_identities(n: int, cap: int = IDENTITY_CAP) -> list[IdentityCheck]:
    """Four exhaustive checks over S_n, reporting the lexicographically
    least counterexample:

    - simple-share-poset: all simple permutations (order >= 2) yield one
      interval poset, the trivial one, once every family holds the n
      singletons and (1, n): a family lacking one fails;
    - overlap-closure: unions, intersections and both differences of
      properly overlapping intervals are present in every interval poset;
    - no-three-descendants: no poset element has exactly 3 direct
      descendants;
    - tree-iff-no-triple-sum: the interval poset is a tree exactly when the
      permutation has no three-block sum interval.

    They read the census scan of all permutations: the least permutation
    of each (family mask, triple flag) pair, which ``poset``'s row-level
    checks read with no tuple or poset built.  The triple flag is found per
    permutation by stacking blocks, so the last check sets two routes
    against each other.  The order and cap are checked before the scan.
    """
    _check_order(n, cap, "identity-check")
    trivial = _trivial_mask(n)
    fails: dict[str, str | None] = dict.fromkeys((
        "simple-share-poset", "overlap-closure", "no-three-descendants",
        "tree-iff-no-triple-sum"))

    def note(check: str, entries: tuple[int, ...]):
        if fails[check] is None:
            fails[check] = str(Permutation(entries))

    for key, entries in _scan(n, False).items():
        rows = _rows(key >> 1, n)
        if _closure_violation_rows(rows) is not None:
            note("overlap-closure", entries)
        if _three_descendant_violation_rows(rows) is not None:
            note("no-three-descendants", entries)
        if trivial & ~(key >> 1):
            note("simple-share-poset", entries)
        if _is_laminar_rows(rows) == bool(key & 1):
            note("tree-iff-no-triple-sum", entries)

    return [IdentityCheck(name, fail is None, fail)
            for name, fail in fails.items()]


IMAGE_CHECK_NAMES = {
    Family.ALL: "image-framed-quad-free",
    Family.TREE: "tree-image-noncrossing-quad-free",
    Family.BLOCKWISE_SIMPLE: "blockwise-image-noncrossing-tri-quad-free",
}


def check_images(n: int, family: Family, *,
                 cap: int | None = None) -> IdentityCheck:
    """Forward image check for one family at order n: the chord image of
    every distinct poset arising from the family is in the family's paired
    dissection class, which ``polygon`` decides on the family's mask.  A
    failure names the least permutation in the family whose poset's image
    fails.  The all and tree families read the scan ``check_identities``
    reads.
    """
    name = IMAGE_CHECK_NAMES[family]
    clazz = PAIRED_CLASS[family]
    for mask, entries in _distinct_families(n, family, cap).items():
        if not _in_class(mask, n + 1, clazz):
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
