"""Tests for the interval-poset <-> polygon-dissection correspondence."""

import pytest
from hypothesis import given, settings, strategies as st

from polyposet import (
    Dissection,
    DissectionClass,
    Permutation,
    all_diagonals,
    canonical_key,
    all_intervals,
    chords_cross,
    classify_image,
    enumerate_dissections,
    parse_permutation,
    phi,
    phi_inverse,
    poset_of,
    realize,
    satisfies_class,
    validate_interval_family,
)

from polyposet import bijection, census
from polyposet.census import Family
from polyposet.polygon import _bits
from polyposet.poset import IntervalPoset, _family_of_mask

from oracles import oracle_classify_image, oracle_realizers


def pos(text):
    return poset_of(parse_permutation(text))


perms = (
    st.integers(min_value=1, max_value=8)
    .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
    .map(lambda e: Permutation(tuple(e)))
)


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------


def test_phi_simple_permutation_gives_empty_dissection():
    # only trivial intervals -> no proper non-singleton blocks -> no chords
    d = phi(pos("2413"))
    assert d == Dissection(5, frozenset())


def test_phi_worked_example():
    d = phi(pos("5123647"))
    assert d.m == 8
    assert set(d.diagonals) == {(1, 3), (2, 4), (1, 4), (1, 7)}


def test_phi_smallest_orders():
    assert phi(pos("1")) == Dissection(2, frozenset())
    assert phi(pos("12")) == Dissection(3, frozenset())
    assert phi(pos("21")) == Dissection(3, frozenset())


def test_phi_decreasing_permutation_is_fully_dissected():
    # every window of 4321 is a block, so every chord appears
    d = phi(pos("4321"))
    assert set(d.diagonals) == set(all_diagonals(5))


# ---------------------------------------------------------------------------
# inverse map
# ---------------------------------------------------------------------------


def test_phi_inverse_empty_dissection():
    p = phi_inverse(Dissection(5, frozenset()))
    assert p == pos("2413")


def test_phi_inverse_single_diagonal():
    p = phi_inverse(Dissection(4, frozenset({(1, 3)})))
    assert p == pos("213")


def test_phi_inverse_does_not_validate():
    # (1,3) and (2,4) in a pentagon pull back to the family
    # {singletons, [1,2], [2,3], [1,4]} which is not closed under
    # union of overlapping intervals -- yet the call must succeed.
    d = Dissection(5, frozenset({(1, 3), (2, 4)}))
    p = phi_inverse(d)
    assert p.n == 4
    assert (1, 2) in p.intervals and (2, 3) in p.intervals
    verdict = validate_interval_family(p.intervals, p.n)
    assert not verdict.ok
    assert verdict.failure == "closure"
    assert realize(p.intervals, p.n) is None


def test_phi_inverse_degenerate_digon():
    # m = 2 pulls back to the one-point poset
    p = phi_inverse(Dissection(2, frozenset()))
    assert p == pos("1")


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_round_trip_worked_example():
    p = pos("5123647")
    assert phi_inverse(phi(p)) == p


@settings(max_examples=120)
@given(perms)
def test_round_trip_random(p):
    q = poset_of(p)
    assert phi_inverse(phi(q)) == q


def test_phi_injective_on_order_five():
    import itertools

    seen = {}
    for p in itertools.permutations(range(1, 6)):
        q = poset_of(Permutation(p))
        key = canonical_key(q)
        img = phi(q)
        if key in seen:
            assert seen[key] == img
        else:
            assert img not in seen.values()
            seen[key] = img


def test_every_framed_quadfree_dissection_is_realizable():
    # surjectivity onto the image class, small orders
    for m in range(2, 7):
        for d in enumerate_dissections(m, DissectionClass.FRAMED_QUAD_FREE):
            p = phi_inverse(d)
            assert realize(p.intervals, p.n) is not None, d


# ---------------------------------------------------------------------------
# structure transport
# ---------------------------------------------------------------------------


@settings(max_examples=80)
@given(perms)
def test_chords_cross_iff_intervals_overlap_properly(p):
    q = poset_of(p)
    proper = [
        (lo, hi)
        for lo, hi in q.intervals
        if lo != hi and (lo, hi) != (1, q.n)
    ]
    for i, (a, c) in enumerate(proper):
        for b, d in proper[i + 1 :]:
            if (b, d) < (a, c):
                (a, c), (b, d) = (b, d), (a, c)
            overlap = a < b <= c < d
            assert chords_cross((a, c + 1), (b, d + 1)) == overlap


@settings(max_examples=80)
@given(perms)
def test_image_is_always_framed_and_quad_free(p):
    if len(p) < 2:
        return
    flags = classify_image(poset_of(p))
    assert flags.diagonally_framed
    assert flags.quad_free
    d = phi(poset_of(p))
    assert satisfies_class(d, DissectionClass.FRAMED_QUAD_FREE)


# ---------------------------------------------------------------------------
# image classification
# ---------------------------------------------------------------------------


def test_classify_worked_example():
    flags = classify_image(pos("5123647"))
    assert flags.diagonally_framed is True
    assert flags.quad_free is True
    assert flags.noncrossing is False
    assert flags.triangle_free is False


def test_classify_simple_permutation():
    for text in ("2413", "3517246"):
        flags = classify_image(pos(text))
        assert flags.diagonally_framed is True
        assert flags.quad_free is True
        assert flags.noncrossing is True
        assert flags.triangle_free is True


def test_classify_reports_raw_flags_at_tiny_orders():
    # the bare triangle has an empty triangular face; the flag is
    # reported as computed, without the small-order exemption that
    # the census classes grant
    flags = classify_image(pos("12"))
    assert flags.noncrossing is True
    assert flags.triangle_free is False


def test_classify_rejects_one_point_poset():
    with pytest.raises(ValueError):
        classify_image(pos("1"))


def test_classify_tree_poset_is_noncrossing():
    flags = classify_image(pos("214365"))
    assert flags.noncrossing is False  # overlapping intervals cross
    flags = classify_image(pos("4253716"))  # a tree poset
    assert flags.noncrossing is True


def test_mask_classification_matches_the_image_dissection_on_every_family():
    """The chord rule in the scan's layout against ``phi`` and
    ``Dissection.mask``, and the image predicates read from the family
    bitmask against those of the dissection ``phi(P)``, on every distinct
    interval poset of orders 2..8."""
    for n in range(2, 9):
        rows = bijection._image_table(n)[0]
        diagonal_bits = sum(row[0] for row in rows)
        for mask in census._distinct_families(n, Family.ALL, None):
            P = IntervalPoset(n, frozenset(_family_of_mask(mask, n + 1)))
            D = phi(P)
            assert sum(rows[i][0] for i in _bits(D.mask)) \
                == mask & diagonal_bits, P
            expected = oracle_classify_image(P)
            assert bijection._classify_mask(mask, n) == expected, P
            assert classify_image(P) == expected, P


def test_realizers_of_inverse_images_agree_with_oracle():
    for m in (4, 5):
        for d in enumerate_dissections(m, DissectionClass.FRAMED_QUAD_FREE):
            p = phi_inverse(d)
            wit = realize(p.intervals, p.n)
            allw = oracle_realizers(p.intervals, p.n)
            assert tuple(wit.entries) == allw[0]
            for w in allw:
                assert all_intervals(Permutation(w)) == p.intervals
