"""Permutations in one-line notation and their interval structure.

A permutation of order n is stored as the tuple (a_1, ..., a_n) of its
values, each of 1..n appearing exactly once.  An interval (or block) is a
contiguous run of positions whose values are also contiguous; it is recorded
as the value range (lo, hi).  The trivial intervals are the n singletons and
(1, n); everything else is proper.

Classifiers built on top of interval detection:

- ``is_simple``: no proper intervals at all.
- ``has_sum_interval``: some interval splits into 2 or 3 smaller intervals
  sitting side by side with stacked value ranges (a direct or skew sum).
- ``is_block_wise_simple``: no interval is a direct or skew sum of two.
"""
from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence


class NotAPermutation(ValueError):
    """Input is not a permutation of 1..n."""


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((2, 4, 1, 3)).n
    4
    >>> str(Permutation((2, 4, 1, 3)))
    '2413'
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise NotAPermutation("empty permutation")
        if sorted(self.entries) != list(range(1, n + 1)):
            raise NotAPermutation(
                f"entries {self.entries} are not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.entries)
        return " ".join(str(v) for v in self.entries)


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, either compact digits or a separated list.

    The compact form ("2413") is only unambiguous for n <= 9; anything
    containing a comma or whitespace is treated as a separated list, which
    is the required form for n >= 10.

    >>> parse_permutation("2413").entries
    (2, 4, 1, 3)
    >>> parse_permutation("10 3 1 2 4 5 7 6 9 8").entries
    (10, 3, 1, 2, 4, 5, 7, 6, 9, 8)
    """
    stripped = text.strip()
    if not stripped:
        raise NotAPermutation("empty input")
    if "," in stripped or any(c.isspace() for c in stripped):
        parts = stripped.replace(",", " ").split()
        try:
            values = tuple(int(p) for p in parts)
        except ValueError:
            raise NotAPermutation(f"non-integer entry in {text!r}") from None
    else:
        if not stripped.isdigit():
            raise NotAPermutation(f"non-digit characters in {text!r}")
        values = tuple(int(c) for c in stripped)
        if 0 in values:
            raise NotAPermutation(
                "compact form is limited to digits 1..9; "
                "use a separated list for n >= 10")
    return Permutation(values)


def _iter_blocks(entries: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """Yield (i, j, lo, hi) for every window [i..j] (0-based, inclusive)
    whose values form the contiguous range lo..hi.  Includes singletons and
    the full window.  O(n^2) sliding min/max.
    """
    n = len(entries)
    for i in range(n):
        lo = hi = entries[i]
        yield i, i, lo, lo
        for j in range(i + 1, n):
            v = entries[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == j - i:
                yield i, j, lo, hi


def all_intervals(p: Permutation) -> frozenset[tuple[int, int]]:
    """All intervals of p as value ranges (lo, hi), singletons and (1, n)
    included.  Distinct windows cannot produce the same value range, so the
    set is in bijection with the blocks.

    >>> sorted(all_intervals(Permutation((2, 4, 1, 3))))
    [(1, 1), (1, 4), (2, 2), (3, 3), (4, 4)]
    """
    return _intervals_of_entries(p.entries)


def _intervals_of_entries(entries: Sequence[int]) -> frozenset[tuple[int, int]]:
    """``all_intervals`` of a raw value tuple."""
    return frozenset((lo, hi) for _, _, lo, hi in _iter_blocks(entries))


def interval_windows(p: Permutation) -> dict[tuple[int, int], tuple[int, int]]:
    """Map each interval (lo, hi) to its position window (i, j), 1-based.

    Diagnostic companion to ``all_intervals``; a value range determines its
    window uniquely (the positions of the values lo..hi).
    """
    return {(lo, hi): (i + 1, j + 1) for i, j, lo, hi in _iter_blocks(p.entries)}


def is_simple(p: Permutation) -> bool:
    """True iff p has no proper interval.

    >>> is_simple(Permutation((3, 5, 1, 7, 2, 4, 6)))
    True
    >>> is_simple(Permutation((1, 2, 3)))
    False
    """
    n = p.n
    return not any(0 < j - i < n - 1 for i, j, _, _ in _iter_blocks(p.entries))


def _tuple_has_sum_interval(entries: Sequence[int], parts: int) -> bool:
    """Detection on a raw value tuple; see ``has_sum_interval``.

    One pass over ``_iter_blocks``, which yields blocks by ascending start,
    so every block ending just before a block's start has been seen.
    ``ups[e]`` maps the hi of each block ending at position e - 1 to the
    most blocks stacked upward that end with it, and ``downs[e]`` its lo to
    the most stacked downward; a sum of ``parts`` exists exactly when a
    stack reaches ``parts`` blocks (its last ``parts`` blocks form one).
    A later block with the same end and hi (or lo) lies inside an earlier
    one, which is a sum with it, so it stacks higher and may overwrite.
    """
    ups: list[dict[int, int]] = [{} for _ in range(len(entries) + 1)]
    downs: list[dict[int, int]] = [{} for _ in range(len(entries) + 1)]
    for i, j, lo, hi in _iter_blocks(entries):
        up = ups[i].get(lo - 1, 0) + 1
        down = downs[i].get(hi + 1, 0) + 1
        if up >= parts or down >= parts:
            return True
        ups[j + 1][hi] = up
        downs[j + 1][lo] = down
    return False


def has_sum_interval(p: Permutation, parts: int) -> bool:
    """True iff p has an interval that is a direct sum (ascending) or skew
    sum (descending) of ``parts`` permutations.

    The parts are themselves intervals of p occupying consecutive position
    windows, with value ranges stacked consecutively upward (direct) or
    downward (skew) from left to right; their union is then automatically
    an interval of the required shape.

    >>> has_sum_interval(Permutation((1, 2)), 2)
    True
    >>> has_sum_interval(Permutation((4, 2, 5, 3, 7, 1, 6)), 2)
    False
    """
    if parts not in (2, 3):
        raise ValueError(f"parts must be 2 or 3, got {parts}")
    return _tuple_has_sum_interval(p.entries, parts)


def is_block_wise_simple(p: Permutation) -> bool:
    """True iff p has no interval of the form p1 (+) p2 or p1 (-) p2.

    The order-1 permutation is block-wise simple here (the condition is
    vacuous); census-level reporting can apply either convention.

    >>> is_block_wise_simple(Permutation((4, 2, 5, 3, 7, 1, 6)))
    True
    >>> is_block_wise_simple(Permutation((2, 3, 1)))
    False
    """
    return not _tuple_has_sum_interval(p.entries, 2)


def reverse(p: Permutation) -> Permutation:
    """Reverse the positions: a_1 ... a_n -> a_n ... a_1."""
    return Permutation(tuple(reversed(p.entries)))


def complement(p: Permutation) -> Permutation:
    """Complement the values: a_i -> n + 1 - a_i."""
    n = p.n
    return Permutation(tuple(n + 1 - v for v in p.entries))
