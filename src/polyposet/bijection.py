"""The chord correspondence between interval posets and polygon dissections.

An interval [a, b] of values corresponds to the chord {a, b+1} of the
(n+1)-gon.  Singleton intervals land on the outer edges {i, i+1} and the
full interval on the outer edge {1, n+1}, so only the proper non-singleton
intervals contribute diagonals.
"""
from __future__ import annotations

import dataclasses
import functools

# empty_faces and is_diagonally_framed stay importable here for the
# benchmark's bijection.empty_faces and bijection.is_diagonally_framed hooks
from .polygon import (Dissection, _table, all_diagonals,  # noqa: F401
                      empty_faces, is_diagonally_framed)
from .poset import IntervalPoset


def phi(P: IntervalPoset) -> Dissection:
    """Dissection of the (n+1)-gon whose diagonals are {a, b+1} for each
    proper non-singleton interval [a, b].  The one-element poset maps to the
    degenerate 2-gon.

    >>> from .perm import parse_permutation
    >>> from .poset import poset_of
    >>> sorted(phi(poset_of(parse_permutation("5123647"))).diagonals)
    [(1, 3), (1, 4), (1, 7), (2, 4)]
    >>> phi(poset_of(parse_permutation("2413"))).diagonals
    frozenset()
    """
    n = P.n
    diagonals = frozenset((a, b + 1) for a, b in P.intervals
                          if b > a and (a, b) != (1, n))
    return Dissection(n + 1, diagonals)


def phi_inverse(D: Dissection) -> IntervalPoset:
    """Interval family read off a dissection: all singletons, the full
    interval, and [u, v-1] per diagonal {u, v}.

    No check is made that the family is the interval poset of any
    permutation; compose with ``poset.validate_interval_family`` or
    ``census.realize`` for certification.

    >>> from .polygon import Dissection
    >>> P = phi_inverse(Dissection(4, frozenset({(1, 3)})))
    >>> sorted(P.intervals)
    [(1, 1), (1, 2), (1, 3), (2, 2), (3, 3)]
    """
    n = D.m - 1
    return IntervalPoset(n, {(1, n), *((v, v) for v in range(1, n + 1)),
                             *((u, v - 1) for u, v in D.diagonals)})


@dataclasses.dataclass(frozen=True)
class ImageClassification:
    """Predicate bundle computed on the chord image of a poset."""

    diagonally_framed: bool
    quad_free: bool
    noncrossing: bool
    triangle_free: bool


def classify_image(P: IntervalPoset) -> ImageClassification:
    """Evaluate the four dissection predicates on phi(P); needs n >= 2.

    All four are reported exactly as computed — in particular the bare
    triangle at n = 2 counts as an empty triangular face.  They are read
    from P's family bitmask by ``_classify_mask``.
    """
    if P.n < 2:
        raise ValueError("classification needs n >= 2 (the 2-gon has no predicates)")
    return _classify_mask(P.mask, P.n)


@functools.lru_cache(maxsize=None)
def _image_table(n: int):
    """``polygon``'s table of the (n+1)-gon turned round: 4-faces, 3-faces
    and crossing pairs numbered in that order, then per diagonal {u, v} its
    bit ``u * (n + 1) + v - 1`` in the scan's layout (the interval [u, v-1])
    and the numbers of the faces it is a side of or the pairs it is in, of
    the faces it enters, and of the pairs it frames; then the masks of the
    4-face, 3-face and pair numbers."""
    table = _table(n + 1)
    faces = table.faces[4] + table.faces[3]
    entries = ([(sides, pens, 0) for _, sides, pens in faces]
               + [(pair, 0, frame) for pair, frame in table.frames])
    rows = [(1 << u * (n + 1) + v - 1,
             *(sum(1 << k for k, entry in enumerate(entries)
                   if entry[column] >> i & 1) for column in range(3)))
            for i, (u, v) in enumerate(all_diagonals(n + 1))]
    quads, pairs = len(table.faces[4]), len(faces)
    return (rows, (1 << quads) - 1, (1 << pairs) - (1 << quads),
            (1 << len(entries)) - (1 << pairs))


def _classify_mask(mask: int, n: int) -> ImageClassification:
    """``classify_image`` of the poset with this family bitmask (n >= 2),
    with no poset or dissection built.  A face or crossing pair is open when
    a side or member of it is missing.  A face is empty when it is neither
    open nor entered by a present diagonal, the image is non-crossing when
    every pair is open, and framed when no closed pair misses a frame chord.
    """
    rows, quads, triangles, pairs = _image_table(n)
    opened = entered = unframed = 0
    for bit, sides, pens, frames in rows:
        if mask & bit:
            entered |= pens
        else:
            opened |= sides
            unframed |= frames
    empty = ~(opened | entered)
    return ImageClassification(
        diagonally_framed=not unframed & ~opened,
        quad_free=not empty & quads,
        noncrossing=opened & pairs == pairs,
        triangle_free=not empty & triangles)
