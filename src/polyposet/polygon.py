"""Convex polygon dissections and the three dissection classes.

Vertices of the m-gon are 1..m in circular order.  A chord {u, v} with
u < v is a diagonal when v - u >= 2 and (u, v) != (1, m); the outer edges
{i, i+1} and {1, m} are implicitly present in every dissection.  Crossings
between diagonals are allowed unless a class forbids them.

A k-gon "face" of a dissection is a set of k vertices whose k sides are all
present and whose open hull no other chord enters; emptiness is decided
combinatorially by the arc rule: a chord stays out of the hull interior iff
both its endpoints lie in one closed arc between consecutive face vertices.

Enumeration is exhaustive and deterministic.  Non-crossing classes run a
backtracking search over diagonals in lexicographic order, pruning on
crossings (sound: adding a diagonal never removes a crossing) and tracking
face sizes incrementally.  The diagonally framed class admits crossings, so
neither of its predicates is monotone; there a three-state decided/undecided
search prunes only certain violations and re-validates at the leaves.
"""
from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Iterator

from ._lines import read_pairs

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
    """

    m: int
    diagonals: frozenset[tuple[int, int]]

    def __post_init__(self):
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


def chords_cross(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Strict interleaving; chords sharing an endpoint never cross."""
    p, q = c1
    r, s = c2
    return (p < r < q < s) or (r < p < s < q)


def crossing_pairs(D: Dissection) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All crossing diagonal pairs, each oriented so the pair reads
    ({p, q}, {r, s}) with p < r < q < s, in lexicographic order."""
    diags = D.sorted_diagonals()
    out = []
    for i, c1 in enumerate(diags):
        for c2 in diags[i + 1:]:
            if chords_cross(c1, c2):
                out.append((c1, c2) if c1[0] < c2[0] else (c2, c1))
    return out


def is_noncrossing(D: Dissection) -> bool:
    diags = D.sorted_diagonals()
    return not any(chords_cross(c1, c2)
                   for i, c1 in enumerate(diags) for c2 in diags[i + 1:])


def is_diagonally_framed(D: Dissection) -> bool:
    """Every crossing pair {x1,x3}, {x2,x4} (x1<x2<x3<x4) must have all of
    {x1,x2}, {x2,x3}, {x3,x4}, {x1,x4} present as diagonals or outer edges."""
    for (x1, x3), (x2, x4) in crossing_pairs(D):
        if not (D.has_chord(x1, x2) and D.has_chord(x2, x3)
                and D.has_chord(x3, x4) and D.has_chord(x1, x4)):
            return False
    return True


def _in_one_arc(face: tuple[int, ...], x: int, y: int) -> bool:
    """Arc rule: do x and y lie together in one closed arc between
    consecutive face vertices?  The last arc wraps around the polygon."""
    k = len(face)
    for i in range(k - 1):
        if face[i] <= x <= face[i + 1] and face[i] <= y <= face[i + 1]:
            return True
    hi, lo = face[-1], face[0]
    x_in = x >= hi or x <= lo
    y_in = y >= hi or y <= lo
    return x_in and y_in


def empty_faces(D: Dissection, k: int) -> list[tuple[int, ...]]:
    """All ascending k-tuples bounding an empty face: every side present and
    no chord of D inside the open hull.  Sides pass the arc rule themselves,
    so they need no special casing.

    >>> empty_faces(Dissection(4, frozenset()), 4)
    [(1, 2, 3, 4)]
    >>> empty_faces(Dissection(4, frozenset({(1, 3)})), 4)
    []
    """
    if k not in (3, 4):
        raise ValueError(f"face size must be 3 or 4, got {k}")
    out = []
    diags = D.sorted_diagonals()
    for face in itertools.combinations(range(1, D.m + 1), k):
        sides_ok = all(D.has_chord(face[i], face[i + 1]) for i in range(k - 1))
        if not (sides_ok and D.has_chord(face[0], face[-1])):
            continue
        if all(_in_one_arc(face, x, y) for x, y in diags):
            out.append(face)
    return out


def faces_of_noncrossing(D: Dissection) -> list[tuple[int, ...]]:
    """The regions of a non-crossing dissection, each as its ascending
    vertex tuple, sorted.  Splits recursively on any inner diagonal; only
    meaningful when ``is_noncrossing(D)`` holds.
    """
    faces = []

    def split(region: tuple[int, ...], chords: list[tuple[int, int]]):
        if not chords:
            faces.append(region)
            return
        u, v = chords[0]
        iu, iv = region.index(u), region.index(v)
        left = region[iu:iv + 1]
        right = region[:iu + 1] + region[iv:]
        left_chords, right_chords = [], []
        for c in chords[1:]:
            if u <= c[0] and c[1] <= v:
                left_chords.append(c)
            else:
                right_chords.append(c)
        split(left, left_chords)
        split(right, right_chords)

    split(tuple(range(1, D.m + 1)), D.sorted_diagonals())
    return sorted(faces)


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
    """Class membership test by the public predicates.

    The tri-free class exempts the undissected triangle itself (m = 3), the
    convention under which the class is never consulted below order 4.
    """
    noncrossing, tri_free = _class_flags(clazz)
    if D.m == 2:
        return True
    if noncrossing and not is_noncrossing(D):
        return False
    if not noncrossing and not is_diagonally_framed(D):
        return False
    if empty_faces(D, 4):
        return False
    if tri_free and D.m > 3 and empty_faces(D, 3):
        return False
    return True


def _enumerate_noncrossing(m: int, tri_free: bool) -> list[frozenset[tuple[int, int]]]:
    """Backtracking over diagonals in lex order with crossing pruning; face
    sizes are maintained incrementally (each added diagonal splits exactly
    one face in two)."""
    diags = all_diagonals(m)
    d = len(diags)
    cross = [0] * d
    for i in range(d):
        for j in range(i + 1, d):
            if chords_cross(diags[i], diags[j]):
                cross[i] |= 1 << j
                cross[j] |= 1 << i

    def badness(face: tuple[int, ...]) -> int:
        size = len(face)
        return int(size == 4 or (tri_free and size == 3))

    whole = tuple(range(1, m + 1))
    faces: list[tuple[int, ...]] = [whole]
    found: list[frozenset[tuple[int, int]]] = []
    chosen: list[tuple[int, int]] = []
    bad = badness(whole)

    def dfs(start: int, banned: int, bad: int):
        if bad == 0:
            found.append(frozenset(chosen))
        for idx in range(start, d):
            if banned >> idx & 1:
                continue
            u, v = diags[idx]
            for fi, face in enumerate(faces):
                if u in face and v in face:
                    break
            else:
                raise AssertionError("diagonal fits no face")
            iu, iv = face.index(u), face.index(v)
            left = face[iu:iv + 1]
            right = face[:iu + 1] + face[iv:]
            delta = badness(left) + badness(right) - badness(face)
            faces[fi] = left
            faces.append(right)
            chosen.append((u, v))
            dfs(idx + 1, banned | cross[idx], bad + delta)
            chosen.pop()
            faces.pop()
            faces[fi] = face

    dfs(0, 0, bad)
    return found


def _enumerate_framed_quadfree(m: int) -> list[frozenset[tuple[int, int]]]:
    """Decided/undecided search for the framed quad-free class.

    Framedness and quad-freeness are not monotone under adding diagonals, so
    branches are cut only when a violation is certain from decided chords: a
    crossing pair both included whose frame diagonal is excluded, or a
    4-tuple with all sides decided present and all potential penetrating
    chords decided absent.  Surviving leaves are re-validated with the
    public predicates before being reported.
    """
    diags = all_diagonals(m)
    d = len(diags)
    index = {c: i for i, c in enumerate(diags)}

    # frame requirements per crossing pair, as masks of required diagonals
    pair_req: dict[tuple[int, int], int] = {}
    partners: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    req_pairs: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if not chords_cross(diags[i], diags[j]):
                continue
            x1, x2, x3, x4 = sorted(diags[i] + diags[j])
            req = 0
            for edge in ((x1, x2), (x2, x3), (x3, x4), (x1, x4)):
                if not is_outer_edge(m, *edge):
                    req |= 1 << index[edge]
            pair_req[(i, j)] = req
            partners[i].append((1 << j, req))
            partners[j].append((1 << i, req))
    for (i, j), req in pair_req.items():
        bits = req
        pair_bits = (1 << i) | (1 << j)
        while bits:
            low = bits & -bits
            req_pairs[low.bit_length() - 1].append((pair_bits, req))
            bits ^= low

    # empty-quad data: side mask and penetrator mask per 4-tuple
    side_quads: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    pen_quads: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    outer_quads: list[tuple[int, int]] = []
    for face in itertools.combinations(range(1, m + 1), 4):
        sides = 0
        for u, v in ((face[0], face[1]), (face[1], face[2]),
                     (face[2], face[3]), (face[0], face[3])):
            if not is_outer_edge(m, u, v):
                sides |= 1 << index[(u, v)]
        pens = 0
        for c in diags:
            if not _in_one_arc(face, *c):
                pens |= 1 << index[c]
        pens &= ~sides
        entry = (sides, pens)
        bits = sides
        while bits:
            low = bits & -bits
            side_quads[low.bit_length() - 1].append(entry)
            bits ^= low
        bits = pens
        while bits:
            low = bits & -bits
            pen_quads[low.bit_length() - 1].append(entry)
            bits ^= low
        if sides == 0:
            outer_quads.append(entry)

    found: list[frozenset[tuple[int, int]]] = []
    full = (1 << d) - 1

    def leaf(inc: int):
        chosen = frozenset(diags[i] for i in range(d) if inc >> i & 1)
        D = Dissection(m, chosen)
        if is_diagonally_framed(D) and not empty_faces(D, 4):
            found.append(chosen)

    def dfs(k: int, inc: int, exc: int):
        if k == d:
            leaf(inc)
            return
        bit = 1 << k
        # exclude k
        exc2 = exc | bit
        ok = all(inc & pb != pb for pb, _ in req_pairs[k])
        if ok:
            for sides, pens in pen_quads[k]:
                if sides & inc == sides and pens & ~exc2 == 0:
                    ok = False
                    break
        if ok:
            dfs(k + 1, inc, exc2)
        # include k
        inc2 = inc | bit
        ok = all(not (inc & pb) or not (req & exc) for pb, req in partners[k])
        if ok:
            for sides, pens in side_quads[k]:
                if sides & inc2 == sides and pens & ~exc == 0:
                    ok = False
                    break
        if ok:
            dfs(k + 1, inc2, exc)

    # the undissected polygon is itself a forbidden quadrilateral at m = 4
    if not any(pens == 0 for _, pens in outer_quads):
        dfs(0, 0, 0)
    return found


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
    ordered by diagonal count and then lexicographically.

    >>> [sorted(D.diagonals) for D in
    ...  enumerate_dissections(4, DissectionClass.FRAMED_QUAD_FREE)]
    [[(1, 3)], [(2, 4)], [(1, 3), (2, 4)]]
    """
    noncrossing, tri_free = _class_flags(clazz)
    if m < 2:
        raise ValueError("polygon needs m >= 2")
    check_dissection_cap(m, clazz, cap)
    if m <= 3:
        # no diagonals exist; the bare triangle is exempt from the tri-free
        # rule (the class is consulted from order 4 on)
        yield Dissection(m, frozenset())
        return
    if noncrossing:
        found = _enumerate_noncrossing(m, tri_free)
    else:
        found = _enumerate_framed_quadfree(m)
    for chosen in sorted(found, key=lambda s: (len(s), sorted(s))):
        yield Dissection(m, chosen)


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
