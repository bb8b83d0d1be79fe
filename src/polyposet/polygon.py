"""Convex polygon dissections and the three dissection classes.

Vertices of the m-gon are 1..m in circular order.  A chord {u, v} with
u < v is a diagonal when v - u >= 2 and (u, v) != (1, m); the outer edges
{i, i+1} and {1, m} are implicitly present in every dissection.  Crossings
between diagonals are allowed unless a class forbids them.

A k-gon "face" of a dissection is a set of k vertices whose k sides are all
present and whose open hull no other chord enters; emptiness is decided
combinatorially: a chord enters the hull interior iff face vertices lie
strictly on both sides of it (equivalently, its endpoints do not share a
closed arc between consecutive face vertices).

``Dissection.mask`` is ``poset``'s family mask of the intervals [u, v-1]
of the diagonals {u, v}, so a family's mask and its chord image's mask
share their diagonal bits.  The predicates read one table per m, built on
first use and keyed by those bits, in one walk over its rows per call.
It numbers each 3- and 4-subset of the vertices once, a 4-subset being
at once a face, a crossing pair and that pair's frame (see ``_Table``),
and only this module reads it.  The faces of a non-crossing dissection
are read from the family's Hasse children instead.  Class membership is decided here
alone, by ``_in_class`` on a mask: ``satisfies_class`` asks it on a
dissection, and ``census`` on a family's mask, whose trivial bits are no
row's bit.  The per-call originals of the predicates are kept as the
reference in ``tests/oracles.py``.

Enumeration is exhaustive and deterministic, and every class is built face
by face, without the table, each member as its ``Dissection.mask``; only
``enumerate_dissections`` decodes members into dissections.  The face on
the side (1, m) takes its other vertices from 2..m-1, and each gap between
consecutive face vertices is the smaller polygon on that chord, built the
same way.  A face is one of three kinds: a triangle (never in the tri-free
class), an empty k-gon with k >= 5, or, in the framed class only, a
complete k-gon with k >= 4, whose vertices are joined pairwise by chords.
A complete face's chords cross only inside it and frame each other, and
the kinds mirror the linear and prime nodes of the substitution
decomposition of the paired posets.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
from typing import Iterator

from ._lines import read_pairs
from .poset import (_bits, _family_of_mask, _inner_members, _is_laminar_rows,
                    _mask_of, _rows, _trivial_mask)

FRAMED_CAP = 9
NONCROSSING_CAP = 11


class CapExceeded(RuntimeError):
    """Requested size is above the configured enumeration cap."""


class DissectionClass(enum.Enum):
    FRAMED_QUAD_FREE = "framed-quad-free"
    NONCROSSING_QUAD_FREE = "noncrossing-quad-free"
    NONCROSSING_TRI_QUAD_FREE = "noncrossing-tri-quad-free"


def is_outer_edge(m: int, u: int, v: int) -> bool:
    return v - u == 1 or (u, v) == (1, m)


def is_diagonal(m: int, u: int, v: int) -> bool:
    return 1 <= u < v <= m and v - u >= 2 and (u, v) != (1, m)


def all_diagonals(m: int) -> list[tuple[int, int]]:
    """Diagonals of the m-gon in lexicographic order."""
    return [(u, v) for u in range(1, m + 1) for v in range(u + 2, m + 1)
            if (u, v) != (1, m)]


@dataclasses.dataclass(frozen=True)
class Dissection:
    """A convex m-gon plus a set of diagonals (outer edges implicit).

    m = 2 is allowed as the degenerate image of the one-element poset and
    carries no diagonals.

    >>> Dissection(5, frozenset({(1, 3), (2, 4)})).mask  # [1, 2] and [2, 3]
    8320
    """

    m: int
    diagonals: frozenset[tuple[int, int]]

    def __post_init__(self):
        # any collection is stored as a frozenset, so duplicates collapse
        # and the instance hashes; a frozenset is kept as the same object
        object.__setattr__(self, "diagonals", frozenset(self.diagonals))
        if self.m < 2:
            raise ValueError("polygon needs m >= 2")
        for u, v in self.diagonals:
            if not is_diagonal(self.m, u, v):
                raise ValueError(f"({u}, {v}) is not a diagonal of the {self.m}-gon")

    def sorted_diagonals(self) -> list[tuple[int, int]]:
        return sorted(self.diagonals)

    def has_chord(self, u: int, v: int) -> bool:
        """Present as a diagonal or as an implicit outer edge (u < v)."""
        return is_outer_edge(self.m, u, v) or (u, v) in self.diagonals

    @functools.cached_property
    def mask(self) -> int:
        """``poset``'s family mask of the intervals [u, v-1] per diagonal."""
        return _mask_of(((u, v - 1) for u, v in self.diagonals), self.m - 1)


def chords_cross(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Strict interleaving; chords sharing an endpoint never cross."""
    p, q = c1
    r, s = c2
    return (p < r < q < s) or (r < p < s < q)


@dataclasses.dataclass(frozen=True)
class _Table:
    """The faces of one m-gon: ``faces`` numbers each 4-subset and then
    each 3-subset of its vertices once, as ascending tuples, each size
    lexicographically, and ``quads`` and ``triangles`` mask each size's
    numbers.  A 4-subset (a, b, c, d) is at once a quadrilateral face, the
    crossing pair {a, c}, {b, d} and that pair's frame, the face's four
    sides.  ``rows`` holds per diagonal {u, v}, lexicographically, its
    ``Dissection.mask`` bit, that of the interval [u, v-1], and the masks
    of the numbers of the faces it is a side of, of the faces it enters,
    and of the 4-faces whose crossing pair holds it.
    """

    faces: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, int, int, int], ...]
    quads: int
    triangles: int


@functools.lru_cache(maxsize=None)
def _table(m: int) -> _Table:
    def numbers(flags) -> int:
        return sum(1 << k for k, flag in enumerate(flags) if flag)

    quads = list(itertools.combinations(range(1, m + 1), 4))
    faces = quads + list(itertools.combinations(range(1, m + 1), 3))
    sides = [{*zip(face, face[1:]), (face[0], face[-1])} for face in faces]
    rows = tuple((_mask_of([(u, v - 1)], m - 1),
                  numbers((u, v) in s for s in sides),
                  numbers(any(u < f < v for f in face)
                          and any(f < u or f > v for f in face)
                          for face in faces),
                  numbers((u, v) in ((a, c), (b, d))
                          for a, b, c, d in quads))
                 for u, v in all_diagonals(m))
    return _Table(tuple(faces), rows, (1 << len(quads)) - 1,
                  (1 << len(faces)) - (1 << len(quads)))


def _read(mask: int, m: int) -> tuple[int, int, int, int]:
    """The numbers in ``_table(m)`` of the empty 4-faces, the empty
    3-faces, the crossing 4-faces and the crossing 4-faces missing a side
    of the m-gon whose diagonals are the bits of ``mask`` that are rows'
    bits; other bits are ignored.  A face is open when a side of it is
    missing and empty when it is neither open nor entered by a present
    diagonal; a 4-face crosses when both chords of its crossing pair are
    present, and is then unframed when it is open."""
    table = _table(m)
    opened = entered = uncrossed = 0
    for bit, sides, pens, crosses in table.rows:
        if mask & bit:
            entered |= pens
        else:
            opened |= sides
            uncrossed |= crosses
    empty = ~(opened | entered)
    crossing = table.quads & ~uncrossed
    return (table.quads & empty, table.triangles & empty, crossing,
            crossing & opened)


def crossing_pairs(D: Dissection) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All crossing diagonal pairs, each oriented so the pair reads
    ({p, q}, {r, s}) with p < r < q < s, in lexicographic order."""
    faces = _table(D.m).faces
    return sorted(((a, c), (b, d)) for a, b, c, d in
                  (faces[i] for i in _bits(_read(D.mask, D.m)[2])))


def is_noncrossing(D: Dissection) -> bool:
    return not _read(D.mask, D.m)[2]


def is_diagonally_framed(D: Dissection) -> bool:
    """Every crossing pair {x1,x3}, {x2,x4} (x1<x2<x3<x4) must have all of
    {x1,x2}, {x2,x3}, {x3,x4}, {x1,x4} present as diagonals or outer edges."""
    return not _read(D.mask, D.m)[3]


def empty_faces(D: Dissection, k: int) -> list[tuple[int, ...]]:
    """All ascending k-tuples bounding an empty face: every side present and
    no chord of D inside the open hull.  Sides never enter the hull, so
    they need no special casing.

    >>> empty_faces(Dissection(4, frozenset()), 4)
    [(1, 2, 3, 4)]
    >>> empty_faces(Dissection(4, frozenset({(1, 3)})), 4)
    []
    """
    if k not in (3, 4):
        raise ValueError(f"face size must be 3 or 4, got {k}")
    faces = _table(D.m).faces
    return [faces[i] for i in _bits(_read(D.mask, D.m)[0 if k == 4 else 1])]


def faces_of_noncrossing(D: Dissection) -> list[tuple[int, ...]]:
    """The regions of a non-crossing dissection, each as its ascending
    vertex tuple, sorted; a dissection with crossing diagonals is a
    ``ValueError``.  Its chord family, the trivial intervals included, is
    laminar exactly when no two diagonals cross, and each non-singleton
    interval [lo, hi] of it bounds one region: the minima of its Hasse
    children, then hi + 1.  The 2-gon is its own region.

    >>> faces_of_noncrossing(Dissection(5, frozenset({(1, 3)})))
    [(1, 2, 3), (1, 3, 4, 5)]
    """
    n = D.m - 1
    rows = _rows(D.mask | _trivial_mask(n), n)
    if not _is_laminar_rows(rows):
        raise ValueError("dissection has crossing diagonals")
    if n == 1:
        return [(1, 2)]
    return sorted((*(p for p, _ in kids), hi + 1)
                  for (_, hi), kids in _inner_members(rows))


def _class_flags(clazz: DissectionClass) -> tuple[bool, bool]:
    """(noncrossing_required, triangle_free_required)."""
    if clazz is DissectionClass.FRAMED_QUAD_FREE:
        return False, False
    if clazz is DissectionClass.NONCROSSING_QUAD_FREE:
        return True, False
    if clazz is DissectionClass.NONCROSSING_TRI_QUAD_FREE:
        return True, True
    raise ValueError(f"unknown class {clazz!r}")


def satisfies_class(D: Dissection, clazz: DissectionClass) -> bool:
    """Class membership test: the conditions of ``is_noncrossing`` or
    ``is_diagonally_framed`` and of ``empty_faces``, from one ``_read``.

    The tri-free class exempts the undissected triangle itself (m = 3), the
    convention under which the class is never consulted below order 4.
    """
    return _in_class(D.mask, D.m, clazz)


def _in_class(mask: int, m: int, clazz: DissectionClass) -> bool:
    """``satisfies_class`` of the m-gon whose diagonals are the bits of
    ``mask`` that are ``_table(m)``'s row bits; other bits are ignored, so
    an interval family's mask asks for its chord image at m = n + 1."""
    noncrossing, tri_free = _class_flags(clazz)
    quads, triangles, crossing, unframed = _read(mask, m)
    return (not (crossing if noncrossing else unframed) and not quads
            and not (tri_free and m > 3 and triangles))


def check_dissection_cap(m: int, clazz: DissectionClass,
                         cap: int | None = None):
    """Raise ``CapExceeded`` if ``enumerate_dissections`` would refuse the
    m-gon in the class; the default cap depends on whether chords may
    cross.

    >>> check_dissection_cap(10, DissectionClass.FRAMED_QUAD_FREE)
    Traceback (most recent call last):
    ...
    polyposet.polygon.CapExceeded: m=10 exceeds the cap 9 for framed-quad-free
    """
    if cap is None:
        cap = NONCROSSING_CAP if _class_flags(clazz)[0] else FRAMED_CAP
    if m > cap:
        raise CapExceeded(f"m={m} exceeds the cap {cap} for {clazz.value}")


def enumerate_dissections(m: int, clazz: DissectionClass,
                          cap: int | None = None) -> Iterator[Dissection]:
    """Every dissection of the m-gon in the class, each exactly once,
    ordered by diagonal count and then lexicographically; the one decoder
    of ``_members``.

    >>> [sorted(D.diagonals) for D in
    ...  enumerate_dissections(4, DissectionClass.FRAMED_QUAD_FREE)]
    [[(1, 3)], [(2, 4)], [(1, 3), (2, 4)]]
    """
    members = _members(m, clazz, cap)
    chord = [(u, v + 1) for u, v in _family_of_mask((1 << m * m) - 1, m)]
    for chosen in sorted(([chord[i] for i in _bits(mask)] for mask in members),
                         key=lambda s: (len(s), s)):
        yield Dissection(m, chosen)


def _members(m: int, clazz: DissectionClass,
             cap: int | None = None) -> list[int]:
    """Each class member on the m-gon as its ``Dissection.mask``, in
    construction order, after the checks of ``enumerate_dissections`` and
    ``census.count_dissections``: an unknown class, m < 2 and m above the
    cap are refused.  ``inside[a, b]`` holds every member of the polygon
    a..b (see the module docstring), smaller polygons first: a face's own
    chords plus, per gap, its chord and a member of the gap, disjoint bits
    that sum to their union.  The local dict is freed on return."""
    noncrossing, tri_free = _class_flags(clazz)  # refuses an unknown class
    if m < 2:
        raise ValueError("polygon needs m >= 2")
    check_dissection_cap(m, clazz, cap)
    if m <= 3:
        # no diagonals exist; the bare triangle is exempt from the tri-free
        # rule (the class is consulted from order 4 on)
        return [0]
    kinds = [(k, False) for k in range(5 if tri_free else 3, m + 1) if k != 4]
    if not noncrossing:
        kinds += [(k, True) for k in range(4, m + 1)]
    bit = {(u, v): _mask_of([(u, v - 1)], m - 1)
           for u, v in all_diagonals(m)}
    inside: dict[tuple[int, int], list[int]] = {}
    for b in range(3, m + 1):
        for a in range(b - 2, 0, -1):  # every gap of a..b is built by now
            out = inside[a, b] = []
            for k, complete in kinds:
                for inner in itertools.combinations(range(a + 1, b), k - 2):
                    face = (a, *inner, b)
                    own = 0
                    if complete:  # every vertex pair that is not a face side
                        own = sum(bit[u, v] for i, u in enumerate(face)
                                  for v in face[i + 2:] if (u, v) != (a, b))
                    gaps = [[bit[u, v] + rest for rest in inside[u, v]]
                            for u, v in zip(face, face[1:]) if v - u >= 2]
                    out.extend(sum(pick, own)
                               for pick in itertools.product(*gaps))
    return inside[1, m]


def write_dissection_text(D: Dissection) -> str:
    """Header 'm <m>' plus one 'u v' line per diagonal."""
    lines = [f"m {D.m}"]
    lines.extend(f"{u} {v}" for u, v in D.sorted_diagonals())
    return "\n".join(lines) + "\n"


def parse_dissection_text(text: str) -> Dissection:
    """Inverse of ``write_dissection_text``; blank lines and '#' comments
    are ignored, and the header must be the first data line."""
    (_, m), pairs = read_pairs(text, "m", header_required=True)
    return Dissection(m, frozenset(pairs))
