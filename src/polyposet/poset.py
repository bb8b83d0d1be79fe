"""Interval posets: the set of intervals of a permutation ordered by inclusion.

The poset of a permutation is identified with its labeled interval set; two
permutations have equal posets exactly when they have the same intervals.
Minimal elements are the singletons, the maximum is (1, n), and the cover
relation is inclusion-maximality.  Children of a node are ordered by their
minimum, which fixes the plane embedding used by the renderer.

This module alone defines a family's bitmask layout (``_mask_of``, and
``_mask_of_entries`` for a permutation's own intervals), its rows
(``_rows``), which a caller builds once and passes to each check, and
its Hasse children, of one member (``_children``) or of every member
(``_inner_members``); ``polygon`` and ``census`` (``_node``) read them.
"""
from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Sequence

from ._lines import read_pairs
from .perm import Permutation, all_intervals


class ElementNotInPoset(KeyError):
    """Queried interval is not an element of the poset."""


@dataclasses.dataclass(frozen=True)
class IntervalPoset:
    """An interval poset over ambient size n, as its set of value ranges.

    Always contains the n singletons and (1, n).  Order is containment:
    (a, b) <= (c, d) iff c <= a and b <= d.
    """

    n: int
    intervals: frozenset[tuple[int, int]]
    # the family in the census scan's layout, see ``_mask_of``
    mask: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # any collection is stored as a frozenset, so duplicates collapse
        # and the instance hashes; a frozenset is kept as the same object
        object.__setattr__(self, "intervals", frozenset(self.intervals))
        if self.n < 1:
            raise ValueError("poset needs n >= 1")
        object.__setattr__(self, "mask", _mask_of(self.intervals, self.n))
        if _trivial_mask(self.n) & ~self.mask:
            raise ValueError("trivial intervals must all be present")

    def __contains__(self, v: tuple[int, int]) -> bool:
        return v in self.intervals

    def __len__(self) -> int:
        return len(self.intervals)

    def sorted_elements(self) -> list[tuple[int, int]]:
        return sorted(self.intervals)


def poset_of(p: Permutation) -> IntervalPoset:
    """The interval poset of a permutation.

    >>> sorted(poset_of(Permutation((2, 4, 1, 3))).intervals)
    [(1, 1), (1, 4), (2, 2), (3, 3), (4, 4)]
    """
    return IntervalPoset(p.n, all_intervals(p))


def _mask_of(intervals, n: int) -> int:
    """The family as a bitmask in the census scan's layout, bit
    ``lo * (n + 1) + hi`` per interval.  An order below 1 or an interval
    outside 1..n, a reversed one included, is a ``ValueError`` naming the
    least such interval."""
    if n < 1:
        raise ValueError("order must be at least 1")
    # one binary digit per bit, least significant first, read as an int
    # once: time linear in the (n + 1)^2 bits, where OR-ing each bit into
    # an int, or shifting rows into it, copies the whole mask every time
    width, bad = n + 1, []
    digits = bytearray(b"0") * (width * width)
    for lo, hi in intervals:
        if 1 <= lo <= hi <= n:
            digits[lo * width + hi] = 49  # ord("1")
        else:
            bad.append((lo, hi))
    if bad:
        raise ValueError(f"interval {min(bad)} out of range for n={n}")
    return int(digits[::-1], 2)


def _mask_of_entries(entries: Sequence[int]) -> int:
    """``_mask_of(_intervals_of_entries(entries), n)`` of a raw value tuple
    of order n: the sliding min/max window loop of ``perm._iter_blocks``,
    setting each block's binary digit as it is found."""
    n = len(entries)
    width = n + 1
    digits = bytearray(b"0") * (width * width)
    for i in range(n):
        lo = hi = entries[i]
        digits[lo * width + lo] = 49  # ord("1")
        for j in range(i + 1, n):
            v = entries[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == j - i:
                digits[lo * width + hi] = 49
    return int(digits[::-1], 2)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _family_of_mask(mask: int, width: int) -> list[tuple[int, int]]:
    """The intervals whose bits ``lo * width + hi`` are set in the mask, in
    ascending order."""
    return [divmod(i, width) for i in _bits(mask)]


def _trivial_mask(n: int) -> int:
    """The bits of the n singletons and (1, n).  The singletons' bits are
    every (n + 2)th from bit n + 2, a repunit in base 2^(n+2)."""
    repunit = ((1 << n * (n + 2)) - 1) // ((1 << n + 2) - 1)
    return repunit << n + 2 | 1 << 2 * n + 1


def _rows(mask: int, n: int) -> list[int]:
    """Per minimum lo, the bitmask of the maxima hi of the family's members
    (lo, hi)."""
    full = (1 << n + 1) - 1
    return [mask >> lo * (n + 1) & full for lo in range(n + 1)]


def _children(rows: list[int], lo: int, hi: int) -> list[tuple[int, int]]:
    """Maximal members strictly inside (lo, hi), by ascending minimum: at
    each start p the longest member inside (lo, hi), other than itself, is
    maximal exactly when it reaches past those of all smaller starts."""
    children = []
    reach = lo - 1
    inside = (1 << hi + 1) - 1
    for p in range(lo, hi + 1):
        top = (rows[p] & (inside if p > lo else inside >> 1)).bit_length() - 1
        if top > reach:
            children.append((p, top))
            reach = top
    return children


def _inner_members(rows: list[int]) -> Iterator[tuple[tuple[int, int], list]]:
    """Members of two or more values, by (lo, hi), with their children."""
    for lo in range(1, len(rows) - 1):
        for hi in _bits(rows[lo] >> lo + 1 << lo + 1):
            yield (lo, hi), _children(rows, lo, hi)


def _node(rows: list[int], lo: int, hi: int) -> tuple[bool, list[tuple[int, int]]]:
    """The substitution-decomposition node at (lo, hi), as ``(linear,
    parts)`` with parts by ascending value.  A split point is an e with
    both (lo, e) and (e + 1, hi) members.  When there are some, the node
    is linear (a direct or skew sum) and its parts are the ranges between
    consecutive split points; otherwise it is prime and its parts are its
    Hasse children.  On a realizable family the parts are the maximal
    members strictly inside that properly overlap no other member.

    >>> rows = _rows(_mask_of(all_intervals(Permutation((1, 3, 2))), 3), 3)
    >>> _node(rows, 1, 3), _node(rows, 2, 3)
    ((True, [(1, 1), (2, 3)]), (True, [(2, 2), (3, 3)]))
    >>> rows = _rows(_mask_of(all_intervals(Permutation((2, 4, 1, 3))), 4), 4)
    >>> _node(rows, 1, 4)
    (False, [(1, 1), (2, 2), (3, 3), (4, 4)])
    """
    parts, start = [], lo
    ends = rows[lo] & (1 << hi) - (1 << lo)
    while ends:
        e = (ends & -ends).bit_length() - 1
        ends &= ends - 1
        if rows[e + 1] >> hi & 1:
            parts.append((start, e))
            start = e + 1
    if not parts:
        return False, _children(rows, lo, hi)
    parts.append((start, hi))
    return True, parts


def _is_laminar_rows(rows: list[int]) -> bool:
    """True iff no two members properly overlap (a < c <= b < d).  For a
    family holding the trivial intervals this is "the Hasse diagram is a
    tree": the supersets of an element form a chain exactly when none of
    them overlap.  Members (a, b) and (c, d) with a < c overlap exactly
    when some b of a smaller minimum lies in c..d-1 for the longest d."""
    maxima = 0  # maxima of the smaller minima
    for c in range(2, len(rows)):
        maxima |= rows[c - 1]
        top = rows[c].bit_length() - 1
        if top > c and maxima & (1 << top) - (1 << c):
            return False
    return True


def hasse_children(P: IntervalPoset, v: tuple[int, int]) -> list[tuple[int, int]]:
    """Direct descendants of v, sorted by ascending minimum.

    These are the maximal elements of P strictly below v; empty for
    singletons.
    """
    if v not in P.intervals:
        raise ElementNotInPoset(v)
    return _children(_rows(P.mask, P.n), *v)


def hasse_edges(P: IntervalPoset) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All cover pairs (parent, child), parents in (lo, hi) order and
    children in ascending-minimum order under each parent."""
    return [(v, c) for v, kids in _inner_members(_rows(P.mask, P.n))
            for c in kids]


def is_tree(P: IntervalPoset) -> bool:
    """True iff the Hasse diagram is a tree: every element except (1, n)
    has exactly one direct parent.

    >>> from .perm import parse_permutation
    >>> is_tree(poset_of(parse_permutation("2413")))
    True
    >>> is_tree(poset_of(parse_permutation("5123647")))
    False
    """
    return _is_laminar_rows(_rows(P.mask, P.n))


def children_histogram(P: IntervalPoset) -> dict[int, int]:
    """Map child-count k to the number of elements with exactly k direct
    descendants.

    >>> children_histogram(poset_of(Permutation((2, 4, 1, 3))))
    {0: 4, 4: 1}
    """
    rows = _rows(P.mask, P.n)
    sizes = [0] * P.n + [len(kids) for _, kids in _inner_members(rows)]
    return {k: sizes.count(k) for k in sorted(set(sizes))}


def canonical_key(P: IntervalPoset) -> str:
    """Deterministic identity key; equal posets have equal keys.

    >>> canonical_key(poset_of(Permutation((2, 4, 1, 3))))
    '4|1-1,1-4,2-2,3-3,4-4'
    """
    return key_of_family(P.n, P.intervals)


def key_of_family(n: int, intervals: Iterable[tuple[int, int]]) -> str:
    """``canonical_key`` for a raw interval family, without building a poset."""
    body = ",".join(f"{lo}-{hi}" for lo, hi in sorted(intervals))
    return f"{n}|{body}"


@dataclasses.dataclass(frozen=True)
class FamilyVerdict:
    """Outcome of ``validate_interval_family``.

    ``ok`` means no necessary condition was refuted; it does not certify
    that some permutation realizes the family.  On failure, ``failure``
    names the first violated condition and ``witnesses`` carries the
    offending intervals (plus the missing interval for closure failures).
    """

    ok: bool
    failure: str | None = None
    witnesses: tuple = ()


def _closure_violation_rows(rows: list[int]):
    """First closure failure among properly overlapping pairs (I, J), I
    before J in (lo, hi) order, which is bit order, as ``(I, J, missing,
    tag)``; None when there is none.  For I = (a, b) and a minimum c of J,
    the maxima d > b all fail from the least on when (c, b) or (a, c - 1)
    is missing, and otherwise fail where (a, d) or (b + 1, d) is."""
    for a in range(1, len(rows) - 1):
        his = rows[a] >> a + 1 << a + 1
        while his:
            b = (his & -his).bit_length() - 1
            his &= his - 1
            for c in range(a + 1, b + 1):
                ds = rows[c] >> b + 1 << b + 1
                if ds and rows[c] >> b & rows[a] >> c - 1 & 1:
                    ds &= ~(rows[a] & rows[b + 1])
                if ds:
                    d = (ds & -ds).bit_length() - 1
                    for (lo, hi), tag in (
                            ((c, b), "intersection"), ((a, d), "union"),
                            ((a, c - 1), "difference"), ((b + 1, d), "difference")):
                        if not rows[lo] >> hi & 1:
                            return ((a, b), (c, d), (lo, hi), tag)
    return None


def _three_descendant_violation_rows(rows: list[int]):
    """First member, in (lo, hi) order, with exactly 3 direct descendants,
    as ``(member, children)``; None when there is none.  Each child starts
    at its own position, so only members of three or more values are read,
    whether or not the singletons are members."""
    for lo in range(1, len(rows) - 2):
        his = rows[lo] >> lo + 2 << lo + 2
        while his:
            hi = (his & -his).bit_length() - 1
            his &= his - 1
            kids = _children(rows, lo, hi)
            if len(kids) == 3:
                return (lo, hi), tuple(kids)
    return None


def validate_interval_family(intervals: Iterable[tuple[int, int]],
                             n: int) -> FamilyVerdict:
    """Check the necessary conditions for a family to be an interval poset.

    Conditions, in checking order: the trivial intervals are present; for
    every properly overlapping pair the union, intersection and both
    differences are present; no element has exactly 3 direct descendants.
    Passing means "not refuted", realizability is a separate search
    (census ``realize``).  An order below 1 or an interval outside 1..n is
    an input error (``ValueError``), as in ``realize``.
    """
    return _mask_verdict(_mask_of(intervals, n), n)


def _mask_verdict(mask: int, n: int) -> FamilyVerdict:
    """``validate_interval_family`` on a family mask."""
    missing = _trivial_mask(n) & ~mask
    if missing:
        return FamilyVerdict(False, "trivial-intervals",
                             tuple(_family_of_mask(missing, n + 1)))
    rows = _rows(mask, n)
    bad = _closure_violation_rows(rows)
    if bad is not None:
        return FamilyVerdict(False, "closure", bad)
    bad = _three_descendant_violation_rows(rows)
    if bad is not None:
        return FamilyVerdict(False, "three-descendants", bad)
    return FamilyVerdict(True)


def format_interval(v: tuple[int, int]) -> str:
    """'{a}' for singletons, '[a,b]' otherwise."""
    lo, hi = v
    return f"{{{lo}}}" if lo == hi else f"[{lo},{hi}]"


def write_poset_text(P: IntervalPoset) -> str:
    """Serialize as a header line 'n <n>' plus one 'lo hi' line per interval."""
    lines = [f"n {P.n}"]
    lines.extend(f"{lo} {hi}" for lo, hi in P.sorted_elements())
    return "\n".join(lines) + "\n"


def parse_poset_text(text: str) -> IntervalPoset:
    """Inverse of ``write_poset_text``; blank lines and '#' comments are
    ignored, and the header must be the first data line."""
    (_, n), pairs = read_pairs(text, "n", header_required=True)
    return IntervalPoset(n, frozenset(pairs))
