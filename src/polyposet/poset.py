"""Interval posets: the set of intervals of a permutation ordered by inclusion.

The poset of a permutation is identified with its labeled interval set; two
permutations have equal posets exactly when they have the same intervals.
Minimal elements are the singletons, the maximum is (1, n), and the cover
relation is inclusion-maximality.  Children of a node are ordered by their
minimum, which fixes the plane embedding used by the renderer.
"""
from __future__ import annotations

import dataclasses
from typing import Iterable

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

    def __post_init__(self):
        # any collection is stored as a frozenset, so duplicates collapse
        # and the instance hashes; a frozenset is kept as the same object
        object.__setattr__(self, "intervals", frozenset(self.intervals))
        n = self.n
        if n < 1:
            raise ValueError("poset needs n >= 1")
        for lo, hi in self.intervals:
            if not (1 <= lo <= hi <= n):
                raise ValueError(f"interval ({lo}, {hi}) out of range for n={n}")
        if not _trivial_intervals(n) <= self.intervals:
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


def _trivial_intervals(n: int) -> set[tuple[int, int]]:
    """The n singletons and (1, n), present in every interval poset."""
    return {(i, i) for i in range(1, n + 1)} | {(1, n)}


def _nesting_order(intervals) -> list[tuple[int, int]]:
    """The family sorted by (lo, -hi): every member after all members
    that contain it."""
    return sorted(intervals, key=lambda w: (w[0], -w[1]))


def _family_children(ordered, v: tuple[int, int]) -> list[tuple[int, int]]:
    """Maximal members of the family strictly inside v, by ascending minimum.

    ``ordered`` is the family in ``_nesting_order``, where a member lies
    inside another exactly when some earlier member reaches at least as far
    right, and nothing after the first member starting past v lies inside
    v; callers sort once for all the members they ask about.
    """
    lo, hi = v
    children = []
    reach = lo - 1
    for w in ordered:
        if w[0] > hi:
            break
        if lo <= w[0] and w[1] <= hi and w[1] > reach and w != v:
            children.append(w)
            reach = w[1]
    return children


def _is_laminar(intervals) -> bool:
    """True iff no two members properly overlap (a < c <= b < d).

    For a family holding the trivial intervals this is exactly "the Hasse
    diagram is a tree": under [a, b] -> {a, b+1} proper overlaps are chord
    crossings, and the supersets of an element form a chain exactly when
    none of them overlap.  One pass in (lo, -hi) order keeps the members
    still open at the current minimum on a stack, innermost on top.
    """
    open_his: list[int] = []
    for lo, hi in _nesting_order(intervals):
        while open_his and open_his[-1] < lo:
            open_his.pop()
        if open_his and open_his[-1] < hi:
            return False
        open_his.append(hi)
    return True


def hasse_children(P: IntervalPoset, v: tuple[int, int]) -> list[tuple[int, int]]:
    """Direct descendants of v, sorted by ascending minimum.

    These are the maximal elements of P strictly below v; empty for
    singletons.
    """
    if v not in P.intervals:
        raise ElementNotInPoset(v)
    return _family_children(_nesting_order(P.intervals), v)


def hasse_edges(P: IntervalPoset) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All cover pairs (parent, child), parents in (lo, hi) order and
    children in ascending-minimum order under each parent."""
    ordered = _nesting_order(P.intervals)
    return [(v, c) for v in P.sorted_elements()
            for c in _family_children(ordered, v)]


def is_tree(P: IntervalPoset) -> bool:
    """True iff the Hasse diagram is a tree: every element except (1, n)
    has exactly one direct parent.

    >>> from .perm import parse_permutation
    >>> is_tree(poset_of(parse_permutation("2413")))
    True
    >>> is_tree(poset_of(parse_permutation("5123647")))
    False
    """
    return _is_laminar(P.intervals)


def children_histogram(P: IntervalPoset) -> dict[int, int]:
    """Map child-count k to the number of elements with exactly k direct
    descendants.

    >>> children_histogram(poset_of(Permutation((2, 4, 1, 3))))
    {0: 4, 4: 1}
    """
    ordered = _nesting_order(P.intervals)
    sizes = [len(_family_children(ordered, v)) for v in ordered]
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


def _closure_violation(intervals, n):
    """First Obs-style closure failure among properly overlapping pairs."""
    elems = sorted(intervals)
    for idx, I in enumerate(elems):
        a, b = I
        for J in elems[idx + 1:]:
            c, d = J
            # sorted order gives a <= c; proper overlap means a < c <= b < d
            if not (a < c <= b < d):
                continue
            for derived, tag in (((c, b), "intersection"), ((a, d), "union"),
                                 ((a, c - 1), "difference"), ((b + 1, d), "difference")):
                if derived not in intervals:
                    return (I, J, derived, tag)
    return None


def _three_descendant_violation(intervals):
    """First member, in (lo, hi) order, with exactly 3 direct descendants."""
    ordered = _nesting_order(intervals)
    for v in sorted(intervals):
        kids = _family_children(ordered, v)
        if len(kids) == 3:
            return (v, tuple(kids))
    return None


def validate_interval_family(intervals: Iterable[tuple[int, int]],
                             n: int) -> FamilyVerdict:
    """Check the necessary conditions for a family to be an interval poset.

    Conditions, in checking order: the trivial intervals are present; for
    every properly overlapping pair the union, intersection and both
    differences are present; no element has exactly 3 direct descendants.
    Passing means "not refuted", realizability is a separate search
    (census ``realize``).
    """
    fam = frozenset(intervals)
    missing = sorted(_trivial_intervals(n) - fam)
    if missing:
        return FamilyVerdict(False, "trivial-intervals", tuple(missing))
    bad = _closure_violation(fam, n)
    if bad is not None:
        I, J, miss, tag = bad
        return FamilyVerdict(False, "closure", (I, J, miss, tag))
    bad = _three_descendant_violation(fam)
    if bad is not None:
        v, kids = bad
        return FamilyVerdict(False, "three-descendants", (v, kids))
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
