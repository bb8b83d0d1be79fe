"""Independent oracles used to cross-check the library.

Each oracle recomputes a quantity by a deliberately different route than
the implementation under test: intervals by scanning value ranges instead
of position windows, sum intervals by explicit window splitting, face
emptiness by geometric segment-vs-hull tests on the unit circle and by the
arc rule tested vertex tuple by vertex tuple, framedness and crossings by
pairwise chord tests instead of the polygon module's per-m bitmask table,
class enumeration by naive filtration of every diagonal subset through
those per-call predicates, the framed search by its leaf-checking original,
the non-crossing root-face construction by the backtracking search over
every non-crossing dissection that it replaced, realization by scanning
entire symmetric groups and by the backtracking search with per-interval
counters that the bitmask search replaced, tree posets by counting
Hasse parents instead of testing laminarity, the three-descendants check
by those per-member children, laminarity, overlap closure,
three-descendants and the family verdict by the tuple routines that the
mask-level checks replaced (a stack pass in nesting order, an all-pairs
loop and a children sweep per member), the image classification by
building the dissection ``phi(P)`` and asking its predicates, the poset
census by filtering whole permutations instead of pruning prefixes, the
identity checks by a second walk of S_n that keys each permutation's family
by string and finds its three-block sums on the whole permutation, and the
image checks by a walk that selects each family's permutations through
these oracles and classifies the image of every permutation's interval set
through ``phi``.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter

from polyposet import census
from polyposet.bijection import ImageClassification, phi
from polyposet.census import IDENTITY_CAP, Family, IdentityCheck
from polyposet.perm import Permutation, _intervals_of_entries, \
    _tuple_has_sum_interval
from polyposet.polygon import CapExceeded, Dissection, DissectionClass, \
    all_diagonals, chords_cross, empty_faces, is_diagonally_framed, \
    is_noncrossing, is_outer_edge
from polyposet.poset import FamilyVerdict, IntervalPoset, key_of_family

EPS = 1e-9


def _trivial_intervals(n: int) -> set[tuple[int, int]]:
    """The n singletons and (1, n), present in every interval poset."""
    return {(i, i) for i in range(1, n + 1)} | {(1, n)}


def oracle_intervals(entries) -> set[tuple[int, int]]:
    """Intervals found from the value side: (lo, hi) is an interval iff the
    positions of values lo..hi occupy a contiguous stretch."""
    n = len(entries)
    pos = {v: i for i, v in enumerate(entries)}
    out = set()
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            ps = [pos[v] for v in range(lo, hi + 1)]
            if max(ps) - min(ps) == hi - lo:
                out.add((lo, hi))
    return out


def oracle_has_sum_interval(entries, parts: int) -> bool:
    """Sum-interval existence by explicit enumeration of windows and cut
    points: every part must be a block and the parts' value ranges must be
    consecutive, all ascending or all descending."""
    n = len(entries)
    for i in range(n):
        for j in range(i + parts - 1, n):
            inner = range(i + 1, j + 1)
            for cuts in itertools.combinations(inner, parts - 1):
                bounds = [i, *cuts, j + 1]
                segs = [entries[bounds[t]:bounds[t + 1]] for t in range(parts)]
                if any(max(s) - min(s) != len(s) - 1 for s in segs):
                    continue
                asc = all(min(segs[t + 1]) == max(segs[t]) + 1
                          for t in range(parts - 1))
                desc = all(max(segs[t + 1]) == min(segs[t]) - 1
                           for t in range(parts - 1))
                if asc or desc:
                    return True
    return False


def oracle_realizers(family, n: int) -> list[tuple[int, ...]]:
    """All permutations of order n whose interval set equals the family,
    in lexicographic order, via full scan of S_n (practical to n = 6)."""
    fam = set(family)
    return [p for p in itertools.permutations(range(1, n + 1))
            if oracle_intervals(p) == fam]


def oracle_realize_backtrack(intervals, n: int) -> Permutation | None:
    """Lexicographically smallest realizer of the family, or None, by the
    backtracking search that ``census.realize`` replaced: per-interval
    counts of placed members, a value allowed only if it belongs to every
    partly placed interval (found by counting the open intervals holding
    it), and every completed block looked up in the family set.  An
    interval outside 1..n is a ``ValueError``; there is no order cap.
    """
    fam = frozenset(intervals)
    ivs = sorted(fam)
    for lo, hi in ivs:
        if not (1 <= lo <= hi <= n):
            raise ValueError(f"interval ({lo}, {hi}) out of range for n={n}")
    if not _trivial_intervals(n) <= fam:
        return None

    sizes = [hi - lo + 1 for lo, hi in ivs]
    members: list[list[int]] = [[] for _ in range(n + 1)]
    for idx, (lo, hi) in enumerate(ivs):
        if sizes[idx] > 1:
            for v in range(lo, hi + 1):
                members[v].append(idx)

    placed = [0] * len(ivs)
    open_count = 0
    entries: list[int] = []
    used = [False] * (n + 1)

    def extend() -> bool:
        nonlocal open_count
        k = len(entries)
        if k == n:
            return True
        for v in range(1, n + 1):
            if used[v]:
                continue
            open_with_v = sum(1 for idx in members[v]
                              if 0 < placed[idx] < sizes[idx])
            if open_with_v != open_count:
                continue
            entries.append(v)
            used[v] = True
            delta = 0
            for idx in members[v]:
                if placed[idx] == 0:
                    delta += 1
                elif placed[idx] == sizes[idx] - 1:
                    delta -= 1
                placed[idx] += 1
            open_count += delta
            ok = True
            mn = mx = v
            for i in range(k - 1, -1, -1):
                e = entries[i]
                mn = e if e < mn else mn
                mx = e if e > mx else mx
                if mx - mn == k - i and (mn, mx) not in fam:
                    ok = False
                    break
            if ok and extend():
                return True
            open_count -= delta
            for idx in members[v]:
                placed[idx] -= 1
            entries.pop()
            used[v] = False
        return False

    if extend():
        return Permutation(tuple(entries))
    return None


def _inside(outer, inner) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def oracle_children(family, v) -> list[tuple[int, int]]:
    """Maximal members of the family strictly inside v, found by testing
    every member against every other, in ascending-minimum order."""
    below = [w for w in family if w != v and _inside(v, w)]
    return sorted((w for w in below
                   if not any(x != w and _inside(x, w) for x in below)),
                  key=lambda iv: iv[0])


def oracle_is_tree(family, n: int) -> bool:
    """Tree test by counting Hasse parents: every member except (1, n) must
    be a child of exactly one member."""
    parents = Counter(c for v in family for c in oracle_children(family, v))
    return all(parents[v] == 1 for v in family if v != (1, n))


def oracle_three_descendant_violation(family):
    """First member, in (lo, hi) order, with exactly 3 children, as
    ``(member, children)``; None when there is none."""
    for v in sorted(family):
        kids = oracle_children(family, v)
        if len(kids) == 3:
            return (v, tuple(kids))
    return None


def _nesting_order(intervals) -> list[tuple[int, int]]:
    """The family sorted by (lo, -hi): every member after all members
    that contain it."""
    return sorted(intervals, key=lambda w: (w[0], -w[1]))


def _family_children(ordered, v: tuple[int, int]) -> list[tuple[int, int]]:
    """Maximal members of the family strictly inside v, by ascending
    minimum, from the family in ``_nesting_order``, where a member lies
    inside another exactly when some earlier member reaches at least as far
    right."""
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
    """True iff no two members properly overlap (a < c <= b < d), by one
    pass in (lo, -hi) order that keeps the members still open at the
    current minimum on a stack, innermost on top."""
    open_his: list[int] = []
    for lo, hi in _nesting_order(intervals):
        while open_his and open_his[-1] < lo:
            open_his.pop()
        if open_his and open_his[-1] < hi:
            return False
        open_his.append(hi)
    return True


def _closure_violation(intervals, n):
    """First closure failure among properly overlapping pairs, by testing
    every pair of members in sorted order."""
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
    """First member, in (lo, hi) order, with exactly 3 direct descendants,
    children found by the ``_nesting_order`` sweep."""
    ordered = _nesting_order(intervals)
    for v in sorted(intervals):
        kids = _family_children(ordered, v)
        if len(kids) == 3:
            return (v, tuple(kids))
    return None


def oracle_validate_interval_family(intervals, n: int) -> FamilyVerdict:
    """``validate_interval_family`` on the tuple family, by the routines
    above; an order below 1 or an interval outside 1..n is a
    ``ValueError``."""
    if n < 1:
        raise ValueError("order must be at least 1")
    fam = frozenset(intervals)
    for lo, hi in sorted(fam):
        if not (1 <= lo <= hi <= n):
            raise ValueError(f"interval ({lo}, {hi}) out of range for n={n}")
    missing = sorted(_trivial_intervals(n) - fam)
    if missing:
        return FamilyVerdict(False, "trivial-intervals", tuple(missing))
    bad = _closure_violation(fam, n)
    if bad is not None:
        return FamilyVerdict(False, "closure", bad)
    bad = _three_descendant_violation(fam)
    if bad is not None:
        return FamilyVerdict(False, "three-descendants", bad)
    return FamilyVerdict(True)


def oracle_poset_census(n: int, family: Family) -> dict[str, tuple[int, ...]]:
    """Canonical key -> lexicographically first permutation, in order of
    first appearance, by filtering every permutation of S_n: block-wise
    candidates must pass an adjacent-pair test and a whole-permutation
    sum-of-two test, every survivor's interval set is keyed by string, and
    tree keys are filtered after the scan.  This is the census scan before
    prefix pruning."""
    reps: dict[str, tuple[int, ...]] = {}
    for entries in itertools.permutations(range(1, n + 1)):
        if family is Family.BLOCKWISE_SIMPLE:
            if any(a - b in (1, -1) for a, b in zip(entries, entries[1:])):
                continue
            if _tuple_has_sum_interval(entries, 2):
                continue
        reps.setdefault(key_of_family(n, _intervals_of_entries(entries)),
                        entries)
    if family is Family.TREE:
        reps = {key: entries for key, entries in reps.items()
                if _is_laminar(_intervals_of_entries(entries))}
    return reps


def oracle_check_identities(n: int,
                            cap: int = IDENTITY_CAP) -> list[IdentityCheck]:
    """``check_identities`` by a walk of its own over S_n: every
    permutation's interval set is rebuilt and keyed by string, and its
    three-block sums are found on the whole permutation.  The poset-level
    predicates are this module's names, so a test can replace them here and
    in the census together."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the identity-check cap {cap}")
    simple_keys: set[str] = set()
    fails: dict[str, str | None] = {"simple-share-poset": None,
                                    "overlap-closure": None,
                                    "no-three-descendants": None,
                                    "tree-iff-no-triple-sum": None}
    per_key: dict[str, tuple[bool, bool, bool]] = {}

    def note(check: str, entries: tuple[int, ...]):
        if fails[check] is None:
            fails[check] = str(Permutation(entries))

    for entries in itertools.permutations(range(1, n + 1)):
        fam = _intervals_of_entries(entries)
        key = key_of_family(n, fam)
        info = per_key.get(key)
        if info is None:
            info = (_is_laminar(fam), _closure_violation(fam, n) is None,
                    _three_descendant_violation(fam) is None)
            per_key[key] = info
        tree, closure_ok, three_ok = info
        if not closure_ok:
            note("overlap-closure", entries)
        if not three_ok:
            note("no-three-descendants", entries)
        if n >= 2 and len(fam) == n + 1:
            simple_keys.add(key)
            if len(simple_keys) > 1:
                note("simple-share-poset", entries)
        if tree == _tuple_has_sum_interval(entries, 3):
            note("tree-iff-no-triple-sum", entries)

    return [IdentityCheck(name, fails[name] is None, fails[name])
            for name in ("simple-share-poset", "overlap-closure",
                         "no-three-descendants", "tree-iff-no-triple-sum")]


def oracle_classify_image(P: IntervalPoset) -> ImageClassification:
    """``classify_image`` by building the dissection ``phi(P)`` and asking
    ``polygon``'s predicates, each a pass over that polygon's own table, as
    the library did before it read the image predicates from the family
    bitmask (n >= 2)."""
    D = phi(P)
    return ImageClassification(
        diagonally_framed=is_diagonally_framed(D),
        quad_free=not empty_faces(D, 4),
        noncrossing=is_noncrossing(D),
        triangle_free=not empty_faces(D, 3))


def oracle_check_images(n: int, family: Family) -> IdentityCheck:
    """``check_images`` by a walk of its own over S_n: a permutation is in
    the tree family when ``oracle_is_tree`` holds for its value-side
    intervals and in the block-wise family when it has no sum of two; the
    first permutation in lexicographic order whose image fails the
    family's predicate is the counterexample.  The predicate is looked up
    in ``census.IMAGE_PREDICATES`` at call time, so a test can replace it
    for both routes at once."""
    name = census.IMAGE_CHECK_NAMES[family]
    if n == 1:
        return IdentityCheck(name, True)
    predicate = census.IMAGE_PREDICATES[family]
    fails: dict[frozenset[tuple[int, int]], bool] = {}
    for entries in itertools.permutations(range(1, n + 1)):
        if (family is Family.BLOCKWISE_SIMPLE
                and oracle_has_sum_interval(entries, 2)):
            continue
        fam = frozenset(oracle_intervals(entries))
        if fam not in fails:
            in_family = family is not Family.TREE or oracle_is_tree(fam, n)
            fails[fam] = in_family and not predicate(
                oracle_classify_image(IntervalPoset(n, fam)))
        if fails[fam]:
            return IdentityCheck(name, False, str(Permutation(entries)))
    return IdentityCheck(name, True)


def _vertex_xy(m: int, i: int) -> tuple[float, float]:
    ang = math.pi / 2 - 2 * math.pi * (i - 1) / m
    return (math.cos(ang), math.sin(ang))


def segment_enters_hull(m: int, face: tuple[int, ...],
                        chord: tuple[int, int]) -> bool:
    """Does the chord's segment meet the open interior of the convex hull
    of the face vertices?  Clips the segment against the hull's half-planes
    and then tests the clipped midpoint strictly; chords running along an
    edge or only touching a vertex therefore do not count.  Coordinates are
    on the unit circle, where every nonzero margin at these sizes is far
    above EPS."""
    pts = [_vertex_xy(m, v) for v in face]
    k = len(pts)
    a = _vertex_xy(m, chord[0])
    b = _vertex_xy(m, chord[1])
    area2 = sum(pts[i][0] * pts[(i + 1) % k][1] - pts[(i + 1) % k][0] * pts[i][1]
                for i in range(k))
    sign = 1.0 if area2 > 0 else -1.0

    def side(px, py, p, q):
        ex, ey = q[0] - p[0], q[1] - p[1]
        return sign * (ex * (py - p[1]) - ey * (px - p[0]))

    t0, t1 = 0.0, 1.0
    for i in range(k):
        p, q = pts[i], pts[(i + 1) % k]
        f_a = side(a[0], a[1], p, q)
        f_b = side(b[0], b[1], p, q)
        if abs(f_a - f_b) < EPS:
            if f_a < EPS:
                return False
            continue
        t_cross = f_a / (f_a - f_b)
        if f_a > f_b:
            t1 = min(t1, t_cross)
        else:
            t0 = max(t0, t_cross)
        if t0 >= t1 - EPS:
            return False
    tm = (t0 + t1) / 2
    px = a[0] + tm * (b[0] - a[0])
    py = a[1] + tm * (b[1] - a[1])
    return all(side(px, py, pts[i], pts[(i + 1) % k]) > EPS for i in range(k))


def geometric_empty_faces(D: Dissection, k: int) -> list[tuple[int, ...]]:
    """Empty k-gon faces decided geometrically instead of by the arc rule."""
    out = []
    for face in itertools.combinations(range(1, D.m + 1), k):
        sides = [(face[i], face[i + 1]) for i in range(k - 1)] + \
                [(face[0], face[-1])]
        if not all(D.has_chord(u, v) for u, v in sides):
            continue
        if any(segment_enters_hull(D.m, face, c) for c in D.diagonals):
            continue
        out.append(face)
    return out


def oracle_in_one_arc(face: tuple[int, ...], x: int, y: int) -> bool:
    """Arc rule: do x and y lie together in one closed arc between
    consecutive face vertices?  The last arc wraps around the polygon."""
    k = len(face)
    for i in range(k - 1):
        if face[i] <= x <= face[i + 1] and face[i] <= y <= face[i + 1]:
            return True
    hi, lo = face[-1], face[0]
    return (x >= hi or x <= lo) and (y >= hi or y <= lo)


def oracle_arc_empty_faces(D: Dissection, k: int) -> list[tuple[int, ...]]:
    """Empty k-gon faces by testing every ascending vertex tuple: all sides
    present by ``has_chord``, every diagonal in one arc of the face."""
    out = []
    diags = D.sorted_diagonals()
    for face in itertools.combinations(range(1, D.m + 1), k):
        sides_ok = all(D.has_chord(face[i], face[i + 1]) for i in range(k - 1))
        if not (sides_ok and D.has_chord(face[0], face[-1])):
            continue
        if all(oracle_in_one_arc(face, x, y) for x, y in diags):
            out.append(face)
    return out


def oracle_crossing_pairs(D: Dissection):
    """Crossing diagonal pairs by testing every pair, oriented p < r < q < s,
    in lexicographic order."""
    diags = D.sorted_diagonals()
    return [(c1, c2) if c1[0] < c2[0] else (c2, c1)
            for i, c1 in enumerate(diags) for c2 in diags[i + 1:]
            if chords_cross(c1, c2)]


def oracle_is_diagonally_framed(D: Dissection) -> bool:
    """Every crossing pair has its four frame chords, each tested with
    ``has_chord``."""
    return all(D.has_chord(x1, x2) and D.has_chord(x2, x3)
               and D.has_chord(x3, x4) and D.has_chord(x1, x4)
               for (x1, x3), (x2, x4) in oracle_crossing_pairs(D))


def oracle_is_noncrossing(D: Dissection) -> bool:
    diags = D.sorted_diagonals()
    return not any(chords_cross(c1, c2)
                   for i, c1 in enumerate(diags) for c2 in diags[i + 1:])


def oracle_satisfies_class(D: Dissection, clazz: DissectionClass) -> bool:
    """Class membership through the per-call oracles; the bare triangle is
    exempt from the tri-free rule, as in the library."""
    if D.m == 2:
        return True
    if clazz is DissectionClass.FRAMED_QUAD_FREE:
        if not oracle_is_diagonally_framed(D):
            return False
    elif not oracle_is_noncrossing(D):
        return False
    if oracle_arc_empty_faces(D, 4):
        return False
    return not (clazz is DissectionClass.NONCROSSING_TRI_QUAD_FREE
                and D.m > 3 and oracle_arc_empty_faces(D, 3))


def naive_class_dissections(m: int, clazz: DissectionClass) \
        -> list[frozenset[tuple[int, int]]]:
    """Every diagonal subset, filtered by ``oracle_satisfies_class``;
    practical through m = 7 (2^14 subsets)."""
    diags = all_diagonals(m)
    out = []
    for bits in range(1 << len(diags)):
        chosen = frozenset(d for i, d in enumerate(diags) if bits >> i & 1)
        if oracle_satisfies_class(Dissection(m, chosen), clazz):
            out.append(chosen)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def oracle_framed_quadfree_search(m: int) -> list[frozenset[tuple[int, int]]]:
    """The framed quad-free decided/undecided search, which the root-face
    construction replaced, as it was before the polygon table: crossing,
    frame and arc masks built here, and every leaf re-validated by
    ``oracle_is_diagonally_framed`` and ``oracle_arc_empty_faces`` before
    it is reported (m >= 4).  Results come in search order."""
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
            if not oracle_in_one_arc(face, *c):
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

    def leaf(inc: int):
        chosen = frozenset(diags[i] for i in range(d) if inc >> i & 1)
        D = Dissection(m, chosen)
        if oracle_is_diagonally_framed(D) and not oracle_arc_empty_faces(D, 4):
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


def oracle_noncrossing_search(m: int, tri_free: bool) \
        -> list[frozenset[tuple[int, int]]]:
    """The non-crossing class search as it was before the root-face
    construction: backtracking over every non-crossing dissection, diagonals
    in lex order with crossing pruning (crossings by pairwise chord tests
    here), face sizes maintained incrementally (each added diagonal splits
    exactly one face in two), a dissection kept when no face is bad.
    Results come in search order."""
    diags = all_diagonals(m)
    d = len(diags)
    cross = [sum(1 << j for j in range(d) if chords_cross(diags[i], diags[j]))
             for i in range(d)]

    def badness(face: tuple[int, ...]) -> int:
        size = len(face)
        return int(size == 4 or (tri_free and size == 3))

    whole = tuple(range(1, m + 1))
    faces: list[tuple[int, ...]] = [whole]
    found: list[frozenset[tuple[int, int]]] = []
    chosen: list[tuple[int, int]] = []

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

    dfs(0, 0, badness(whole))
    return found


def framed_quadfree_count_vectorized(m: int) -> int:
    """Count framed quad-free dissections by filtering all 2^d diagonal
    subsets with numpy bit masks.  Everything — diagonal order, crossings,
    frames, arc containment — is rederived here from first principles so
    the check shares no logic with the pruned search."""
    import numpy as np

    diags = [(u, v) for u in range(1, m + 1) for v in range(u + 2, m + 1)
             if (u, v) != (1, m)]
    index = {c: i for i, c in enumerate(diags)}
    d = len(diags)

    def outer(u, v):
        return v - u == 1 or (u, v) == (1, m)

    def in_one_arc(face, x, y):
        arcs = [(face[i], face[i + 1]) for i in range(3)]
        for lo, hi in arcs:
            if lo <= x <= hi and lo <= y <= hi:
                return True
        hi, lo = face[3], face[0]
        return (x >= hi or x <= lo) and (y >= hi or y <= lo)

    subsets = np.arange(1 << d, dtype=np.uint32)
    ok = np.ones(1 << d, dtype=bool)

    for i in range(d):
        for j in range(i + 1, d):
            (p, q), (r, s) = diags[i], diags[j]
            if not (p < r < q < s or r < p < s < q):
                continue
            x1, x2, x3, x4 = sorted((p, q, r, s))
            req = np.uint32(0)
            for e in ((x1, x2), (x2, x3), (x3, x4), (x1, x4)):
                if not outer(*e):
                    req |= np.uint32(1 << index[e])
            pair = np.uint32((1 << i) | (1 << j))
            ok &= ~(((subsets & pair) == pair) & ((subsets & req) != req))

    for face in itertools.combinations(range(1, m + 1), 4):
        sides = np.uint32(0)
        for e in ((face[0], face[1]), (face[1], face[2]),
                  (face[2], face[3]), (face[0], face[3])):
            if not outer(*e):
                sides |= np.uint32(1 << index[e])
        pens = np.uint32(0)
        for c in diags:
            if not in_one_arc(face, *c):
                pens |= np.uint32(1 << index[c])
        pens &= ~sides
        ok &= ~(((subsets & sides) == sides) & ((subsets & pens) == 0))

    return int(ok.sum())
