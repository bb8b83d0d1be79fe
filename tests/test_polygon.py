import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyposet.bijection import (ImageClassification, classify_image,
                                 phi_inverse)
from polyposet.census import Family, distinct_posets, load_bfile
from polyposet.polygon import (CapExceeded, Dissection, DissectionClass,
                               all_diagonals, chords_cross, crossing_pairs,
                               empty_faces, enumerate_dissections,
                               faces_of_noncrossing, is_diagonally_framed,
                               is_noncrossing, parse_dissection_text,
                               satisfies_class, write_dissection_text)
from polyposet import polygon
from polyposet.polygon import _members

from oracles import (geometric_empty_faces, naive_class_dissections,
                     oracle_arc_empty_faces, oracle_crossing_pairs,
                     oracle_faces_of_noncrossing,
                     oracle_framed_quadfree_search,
                     oracle_is_diagonally_framed, oracle_is_noncrossing,
                     oracle_noncrossing_search, oracle_root_face_tuples,
                     oracle_satisfies_class)


def dis(m, *chords):
    return Dissection(m, frozenset(chords))


dissections = st.integers(min_value=4, max_value=8).flatmap(
    lambda m: st.sets(st.sampled_from(all_diagonals(m))).map(
        lambda s: Dissection(m, frozenset(s))))


def test_dissection_validation():
    with pytest.raises(ValueError):
        Dissection(1, frozenset())
    with pytest.raises(ValueError):
        dis(4, (1, 2))       # outer edge
    with pytest.raises(ValueError):
        dis(4, (1, 4))       # closing outer edge
    with pytest.raises(ValueError):
        dis(4, (2, 5))       # out of range
    assert dis(2).m == 2     # degenerate 2-gon carries no diagonals


def test_all_diagonals_lex_and_count():
    assert all_diagonals(4) == [(1, 3), (2, 4)]
    assert all_diagonals(5) == [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]
    for m in range(3, 12):
        assert len(all_diagonals(m)) == m * (m - 3) // 2


def test_chords_cross():
    assert chords_cross((1, 3), (2, 4))
    assert chords_cross((2, 4), (1, 3))
    assert not chords_cross((1, 3), (3, 5))   # shared endpoint
    assert not chords_cross((1, 3), (1, 4))
    assert not chords_cross((1, 3), (4, 6))   # disjoint arcs


def test_crossing_pairs_orientation():
    D = dis(6, (1, 4), (2, 5), (3, 6), (2, 6))
    pairs = crossing_pairs(D)
    for (p, q), (r, s) in pairs:
        assert p < r < q < s
    assert ((1, 4), (2, 5)) in pairs
    assert ((1, 4), (3, 6)) in pairs
    assert ((2, 5), (3, 6)) in pairs


def test_framed_examples():
    assert is_diagonally_framed(dis(5))
    assert is_diagonally_framed(dis(4, (1, 3), (2, 4)))   # frame is all outer
    assert not is_diagonally_framed(dis(5, (1, 3), (2, 4)))
    assert is_diagonally_framed(dis(5, (1, 3), (2, 4), (1, 4)))
    assert is_diagonally_framed(dis(5, (1, 3), (1, 4)))   # non-crossing


def test_empty_faces_square():
    assert empty_faces(dis(4), 4) == [(1, 2, 3, 4)]
    assert empty_faces(dis(4, (1, 3)), 4) == []
    assert empty_faces(dis(4, (1, 3)), 3) == [(1, 2, 3), (1, 3, 4)]


def test_empty_faces_pentagon():
    # one diagonal leaves a triangle and an empty quadrilateral
    assert empty_faces(dis(5, (1, 3)), 3) == [(1, 2, 3)]
    assert empty_faces(dis(5, (1, 3)), 4) == [(1, 3, 4, 5)]
    # the crossing pair penetrates every candidate face except (1,4,5):
    # segment 2-4 crosses chord 1-3 inside triangles (1,2,3) and (1,3,4)
    D = dis(5, (1, 3), (2, 4), (1, 4))
    assert empty_faces(D, 4) == []
    assert empty_faces(D, 3) == [(1, 4, 5)]


def test_empty_faces_rejects_other_sizes():
    with pytest.raises(ValueError):
        empty_faces(dis(5), 5)


def test_faces_of_noncrossing():
    assert faces_of_noncrossing(dis(5)) == [(1, 2, 3, 4, 5)]
    assert faces_of_noncrossing(dis(6, (1, 3), (3, 5), (1, 5))) == \
        [(1, 2, 3), (1, 3, 5), (1, 5, 6), (3, 4, 5)]


def test_faces_of_noncrossing_rejects_crossings():
    with pytest.raises(ValueError, match="crossing diagonals"):
        faces_of_noncrossing(dis(4, (1, 3), (2, 4)))
    with pytest.raises(ValueError, match="crossing diagonals"):
        faces_of_noncrossing(dis(6, (1, 3), (1, 4), (2, 5)))


def test_faces_match_recursive_split_on_the_tree_class():
    for m in range(2, polygon.NONCROSSING_CAP + 1):
        for D in enumerate_dissections(m,
                                       DissectionClass.NONCROSSING_QUAD_FREE):
            assert faces_of_noncrossing(D) == oracle_faces_of_noncrossing(D)


def test_faces_match_recursive_split_on_random_dissections():
    # random non-crossing dissections have faces of every size, which the
    # quad-free class lacks; random subsets mostly cross and are refused
    rng = random.Random(20261019)
    for m in range(2, 10):
        diags = all_diagonals(m)
        for _ in range(200):
            chosen = []
            for c in rng.sample(diags, rng.randint(0, len(diags))):
                if not any(chords_cross(c, other) for other in chosen):
                    chosen.append(c)
            D = Dissection(m, frozenset(chosen))
            assert faces_of_noncrossing(D) == oracle_faces_of_noncrossing(D)
            D = Dissection(m, frozenset(
                rng.sample(diags, rng.randint(0, len(diags)))))
            if oracle_is_noncrossing(D):
                assert faces_of_noncrossing(D) == \
                    oracle_faces_of_noncrossing(D)
            else:
                with pytest.raises(ValueError, match="crossing diagonals"):
                    faces_of_noncrossing(D)


@given(dissections)
@settings(max_examples=150)
def test_arc_rule_matches_geometric_oracle(D):
    for k in (3, 4):
        assert empty_faces(D, k) == sorted(geometric_empty_faces(D, k))


@given(dissections)
@settings(max_examples=100)
def test_noncrossing_faces_are_the_empty_faces(D):
    # two routes: faces from Hasse children, empty faces from the table
    if not is_noncrossing(D):
        return
    faces = faces_of_noncrossing(D)
    assert len(faces) == len(D.diagonals) + 1
    assert sum(len(f) for f in faces) == D.m + 2 * len(D.diagonals)
    for k in (3, 4):
        assert [f for f in faces if len(f) == k] == empty_faces(D, k)


def assert_table_matches_oracles(D):
    # each oracle runs once and checks both the public predicates and the
    # image flags of the pulled-back family, read off its bitmask
    framed = oracle_is_diagonally_framed(D)
    noncrossing = oracle_is_noncrossing(D)
    quads, triangles = (oracle_arc_empty_faces(D, k) for k in (4, 3))
    assert empty_faces(D, 4) == quads, D
    assert empty_faces(D, 3) == triangles, D
    assert is_diagonally_framed(D) == framed, D
    assert is_noncrossing(D) == noncrossing, D
    if D.m >= 3:
        assert classify_image(phi_inverse(D)) == ImageClassification(
            diagonally_framed=framed, quad_free=not quads,
            noncrossing=noncrossing, triangle_free=not triangles), D
    assert crossing_pairs(D) == oracle_crossing_pairs(D), D
    for clazz in DissectionClass:
        assert satisfies_class(D, clazz) == oracle_satisfies_class(D, clazz)


def test_table_predicates_match_oracles_on_every_subset():
    for m in range(2, 8):
        diags = all_diagonals(m)
        for bits in range(1 << len(diags)):
            assert_table_matches_oracles(Dissection(m, frozenset(
                c for i, c in enumerate(diags) if bits >> i & 1)))


def test_table_predicates_match_oracles_on_larger_polygons():
    # random subsets of every density, and random non-crossing dissections,
    # which are the ones with many empty triangles and quadrilaterals
    rng = random.Random(20261018)
    for m in range(8, 12):
        diags = all_diagonals(m)
        for _ in range(150):
            assert_table_matches_oracles(Dissection(m, frozenset(
                rng.sample(diags, rng.randint(0, len(diags))))))
            chosen = []
            for c in rng.sample(diags, rng.randint(0, len(diags))):
                if not any(chords_cross(c, other) for other in chosen):
                    chosen.append(c)
            assert_table_matches_oracles(Dissection(m, frozenset(chosen)))


def test_mask_is_cached_and_leaves_equality_alone():
    D = dis(6, (1, 3), (2, 6))
    assert D.mask == (1 << 1 * 6 + 3 - 1) | (1 << 2 * 6 + 6 - 1)
    assert D.mask is D.mask
    twin = dis(6, (2, 6), (1, 3))
    assert D == twin and hash(D) == hash(twin)
    assert D != dis(6, (1, 3))


def test_diagonals_of_any_collection_are_stored_as_a_frozenset():
    # a list with a duplicate once summed the repeated bit into the next
    # diagonal's, and a set made the dissection unhashable
    D = dis(5, (1, 3))
    for diagonals in ([(1, 3), (1, 3)], {(1, 3)}):
        other = Dissection(5, diagonals)
        assert other == D and hash(other) == hash(D)
        assert other.mask == D.mask
        assert empty_faces(other, 4) == empty_faces(D, 4) == [(1, 3, 4, 5)]
        assert faces_of_noncrossing(other) == faces_of_noncrossing(D)


@pytest.mark.parametrize("m", range(4, 10))
def test_framed_search_matches_leaf_checking_original(m):
    # the root-face construction builds exactly the dissections the
    # decided/undecided search with leaf re-validation found, each once
    built = _members(m, DissectionClass.FRAMED_QUAD_FREE, cap=m)
    searched = oracle_framed_quadfree_search(m)
    assert len(set(built)) == len(built)
    assert len(set(searched)) == len(searched)
    assert set(built) == {Dissection(m, s).mask for s in searched}
    assert [D.diagonals for D in enumerate_dissections(
        m, DissectionClass.FRAMED_QUAD_FREE)] \
        == sorted(searched, key=lambda s: (len(s), sorted(s)))


def test_enumerate_frees_its_cache_without_the_cyclic_collector():
    # the sub-polygon cache must not outlive the call in a reference cycle
    gc.collect()
    gc.disable()
    try:
        _members(9, DissectionClass.FRAMED_QUAD_FREE, cap=9)
        assert gc.collect() < 100
    finally:
        gc.enable()


def test_framed_count_past_the_cap_matches_all_posets():
    # the first all-family pairing past FRAMED_CAP: the 10-gon's framed
    # quad-free dissections against the all-poset scan at order 9
    assert len(_members(10, DissectionClass.FRAMED_QUAD_FREE, cap=10)) \
        == distinct_posets(9, Family.ALL, cap=9)


@pytest.mark.parametrize("m", range(4, 12))
@pytest.mark.parametrize("clazz", [DissectionClass.NONCROSSING_QUAD_FREE,
                                   DissectionClass.NONCROSSING_TRI_QUAD_FREE])
def test_noncrossing_construction_matches_old_search(clazz, m):
    # the root-face construction builds exactly the dissections the
    # backtracking search over all non-crossing dissections kept, each once
    tri_free = clazz is DissectionClass.NONCROSSING_TRI_QUAD_FREE
    built = _members(m, clazz, cap=m)
    searched = oracle_noncrossing_search(m, tri_free)
    assert len(set(built)) == len(built)
    assert len(set(searched)) == len(searched)
    assert set(built) == {Dissection(m, s).mask for s in searched}
    assert [D.diagonals for D in enumerate_dissections(m, clazz)] \
        == sorted(searched, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("clazz", DissectionClass)
def test_member_masks_match_the_tuple_construction(clazz):
    # every member is built as its Dissection.mask: the same dissections
    # as the construction on chord tuples, from m = 4 to the class's cap
    # and, for the framed class, one past it
    top = 10 if clazz is DissectionClass.FRAMED_QUAD_FREE else 11
    for m in range(4, top + 1):
        assert sorted(Dissection(m, s).mask
                      for s in oracle_root_face_tuples(m, clazz)) \
            == sorted(_members(m, clazz, cap=m)), (clazz, m)


def test_framed_construction_at_m10_peaks_below_8_mib():
    # one int per member: the tuple-then-frozenset build peaked at 24 MiB
    tracemalloc.start()
    try:
        _members(10, DissectionClass.FRAMED_QUAD_FREE, cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_tri_quad_free_counts_past_the_cap_match_reference(fixtures_dir):
    # A054514 at offset 3 (index k is order k + 3, paired with the
    # (k + 4)-gon); the census stops at order 10, so orders 11..13 are
    # checked on the dissection side alone, at m = 12..14
    with open(fixtures_dir / "b054514.txt", encoding="utf-8") as handle:
        reference = dict(load_bfile(handle))
    for n in (11, 12, 13):
        built = _members(n + 1, DissectionClass.NONCROSSING_TRI_QUAD_FREE,
                         cap=n + 1)
        assert len(built) == reference[n - 3]


def test_enumerate_square_framed_order():
    out = [sorted(D.diagonals) for D in
           enumerate_dissections(4, DissectionClass.FRAMED_QUAD_FREE)]
    assert out == [[(1, 3)], [(2, 4)], [(1, 3), (2, 4)]]


def test_enumerate_square_noncrossing():
    out = [sorted(D.diagonals) for D in
           enumerate_dissections(4, DissectionClass.NONCROSSING_QUAD_FREE)]
    assert out == [[(1, 3)], [(2, 4)]]
    assert list(enumerate_dissections(4,
                DissectionClass.NONCROSSING_TRI_QUAD_FREE)) == []


def test_enumerate_degenerate_sizes():
    for clazz in DissectionClass:
        for m in (2, 3):
            out = list(enumerate_dissections(m, clazz))
            assert len(out) == 1 and out[0].diagonals == frozenset()


def test_enumerate_octagon_tri_quad_free():
    out = [sorted(D.diagonals) for D in
           enumerate_dissections(8, DissectionClass.NONCROSSING_TRI_QUAD_FREE)]
    # the empty octagon plus the four splits into two pentagons
    assert out == [[], [(1, 5)], [(2, 6)], [(3, 7)], [(4, 8)]]


def test_enumerate_matches_naive_filtration_m6():
    for clazz in DissectionClass:
        fast = [D.diagonals for D in enumerate_dissections(6, clazz)]
        assert fast == naive_class_dissections(6, clazz)


def test_enumerate_caps():
    with pytest.raises(CapExceeded):
        list(enumerate_dissections(12, DissectionClass.NONCROSSING_QUAD_FREE))
    with pytest.raises(CapExceeded):
        list(enumerate_dissections(10, DissectionClass.FRAMED_QUAD_FREE))
    with pytest.raises(CapExceeded):
        list(enumerate_dissections(5, DissectionClass.FRAMED_QUAD_FREE, cap=4))
    with pytest.raises(ValueError):
        list(enumerate_dissections(1, DissectionClass.FRAMED_QUAD_FREE))


def test_satisfies_class_small():
    for clazz in DissectionClass:
        assert satisfies_class(dis(2), clazz)
        assert satisfies_class(dis(3), clazz)
    assert not satisfies_class(dis(4), DissectionClass.FRAMED_QUAD_FREE)
    assert satisfies_class(dis(4, (1, 3)), DissectionClass.NONCROSSING_QUAD_FREE)
    assert not satisfies_class(dis(4, (1, 3)),
                               DissectionClass.NONCROSSING_TRI_QUAD_FREE)


def test_satisfies_class_reads_the_face_table_once(monkeypatch):
    members = list(enumerate_dissections(
        9, DissectionClass.NONCROSSING_QUAD_FREE))
    real_read, reads = polygon._read, []

    def spy_read(mask, m):
        reads.append(m)
        return real_read(mask, m)

    monkeypatch.setattr(polygon, "_read", spy_read)
    for clazz in (DissectionClass.NONCROSSING_QUAD_FREE,
                  DissectionClass.NONCROSSING_TRI_QUAD_FREE):
        reads.clear()
        for D in members:
            satisfies_class(D, clazz)
        assert len(reads) == len(members) == 1198, clazz


def test_dissection_text_roundtrip():
    D = dis(8, (1, 3), (2, 4), (1, 4), (1, 7))
    assert parse_dissection_text(write_dissection_text(D)) == D
    assert write_dissection_text(dis(5)) == "m 5\n"


def test_parse_dissection_text_rejects_garbage():
    for bad in ["", "5\n", "m x\n", "m 5\n1\n", "m 5\n1 two\n", "m 4\n1 2\n"]:
        with pytest.raises(ValueError):
            parse_dissection_text(bad)


def test_parse_dissection_text_skips_comments_and_names_lines():
    D = dis(8, (1, 3), (2, 4))
    text = "# two chords\n\n" + write_dissection_text(D)
    assert parse_dissection_text(text) == D
    with pytest.raises(ValueError, match="^line 3: cannot parse '1 x'$"):
        parse_dissection_text("m 8\n# chords\n1 x\n")
    with pytest.raises(ValueError, match="^line 2: expected a header"):
        parse_dissection_text("\n1 3\nm 8\n")
