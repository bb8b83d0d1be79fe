"""The chord correspondence between interval posets and polygon dissections.

An interval [a, b] of values corresponds to the chord {a, b+1} of the
(n+1)-gon.  Singleton intervals land on the outer edges {i, i+1} and the
full interval on the outer edge {1, n+1}, so only the proper non-singleton
intervals contribute diagonals.  A family's bitmask thus holds its image's
diagonal bits, and ``classify_image`` reads the image's four predicates from
it; whether an image is in a class is ``polygon``'s decision.
"""
from __future__ import annotations

import dataclasses

# empty_faces and is_diagonally_framed stay importable here for the
# benchmark's bijection.empty_faces and bijection.is_diagonally_framed hooks
from .polygon import (Dissection, _read,  # noqa: F401
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
    family = [(v, v) for v in range(1, n + 1)]
    family.append((1, n))
    family += [(u, v - 1) for u, v in D.diagonals]
    return IntervalPoset(n, family)


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
    from P's family bitmask, whose trivial intervals hold no diagonal bit,
    by one ``polygon._read``, with no dissection built.
    """
    if P.n < 2:
        raise ValueError("classification needs n >= 2 (the 2-gon has no predicates)")
    quads, triangles, crossing, unframed = _read(P.mask, P.n + 1)
    return ImageClassification(
        diagonally_framed=not unframed,
        quad_free=not quads,
        noncrossing=not crossing,
        triangle_free=not triangles)
