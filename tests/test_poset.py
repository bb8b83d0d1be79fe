import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyposet import census
from polyposet.census import Family, poset_census
from polyposet.perm import Permutation, all_intervals, is_simple, \
    parse_permutation
from polyposet.poset import (ElementNotInPoset, IntervalPoset,
                             _closure_violation_mask, _family_of_mask,
                             _is_laminar_mask, _mask_of,
                             _three_descendant_violation_mask, canonical_key,
                             children_histogram, format_interval,
                             hasse_children, hasse_edges, is_tree,
                             key_of_family, parse_poset_text, poset_of,
                             validate_interval_family, write_poset_text)

from oracles import _closure_violation, _is_laminar, \
    _three_descendant_violation, oracle_children, oracle_is_tree, \
    oracle_three_descendant_violation, oracle_validate_interval_family

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(
    lambda e: Permutation(tuple(e)))

FAN_FAMILY_PERMS = ["5123647", "5321647", "4612357", "4632157",
              "7463215", "7461235", "7532164", "7512364"]
FAN_FAMILY_INTERVALS = {(i, i) for i in range(1, 8)} | \
    {(1, 2), (2, 3), (1, 3), (1, 6), (1, 7)}


def test_poset_requires_trivial_intervals():
    with pytest.raises(ValueError):
        IntervalPoset(3, frozenset({(1, 1), (2, 2), (3, 3)}))
    with pytest.raises(ValueError):
        IntervalPoset(2, frozenset({(1, 1), (1, 2)}))
    with pytest.raises(ValueError):
        IntervalPoset(2, frozenset({(1, 1), (2, 2), (1, 2), (0, 1)}))


def test_intervals_of_any_collection_are_stored_as_a_frozenset():
    P = IntervalPoset(3, frozenset({(1, 1), (2, 2), (3, 3), (1, 3)}))
    for intervals in ([(1, 1), (2, 2), (3, 3), (1, 3), (1, 3)],
                      {(1, 1), (2, 2), (3, 3), (1, 3)}):
        other = IntervalPoset(3, intervals)
        assert other == P and hash(other) == hash(P) and len(other) == 4


def test_poset_of_2413():
    P = poset_of(parse_permutation("2413"))
    assert sorted(P.intervals) == [(1, 1), (1, 4), (2, 2), (3, 3), (4, 4)]
    assert len(P) == 5


def test_eight_permutations_share_fan_family_poset():
    keys = {canonical_key(poset_of(parse_permutation(s))) for s in FAN_FAMILY_PERMS}
    assert keys == {key_of_family(7, FAN_FAMILY_INTERVALS)}


def test_canonical_key_format():
    assert canonical_key(poset_of(parse_permutation("2413"))) == \
        "4|1-1,1-4,2-2,3-3,4-4"


def test_hasse_children_of_fan_family_root():
    P = IntervalPoset(7, frozenset(FAN_FAMILY_INTERVALS))
    assert hasse_children(P, (1, 7)) == [(1, 6), (7, 7)]
    assert hasse_children(P, (1, 6)) == [(1, 3), (4, 4), (5, 5), (6, 6)]
    assert hasse_children(P, (1, 3)) == [(1, 2), (2, 3)]
    assert hasse_children(P, (1, 2)) == [(1, 1), (2, 2)]
    assert hasse_children(P, (3, 3)) == []


def test_hasse_children_unknown_element():
    P = poset_of(parse_permutation("2413"))
    with pytest.raises(ElementNotInPoset):
        hasse_children(P, (2, 3))


def test_hasse_edge_count_fan_family():
    P = IntervalPoset(7, frozenset(FAN_FAMILY_INTERVALS))
    assert len(P) == 12
    assert len(hasse_edges(P)) == 12


def test_overlapping_intervals_share_children():
    # 214365: [1,4] and [3,6] properly overlap, both cover [3,4]
    P = poset_of(parse_permutation("214365"))
    assert (1, 4) in P.intervals and (3, 6) in P.intervals
    assert (3, 4) in hasse_children(P, (1, 4))
    assert (3, 4) in hasse_children(P, (3, 6))
    assert not is_tree(P)


def test_children_histogram_examples():
    assert children_histogram(poset_of(parse_permutation("2413"))) == \
        {0: 4, 4: 1}
    assert children_histogram(poset_of(parse_permutation("1"))) == {0: 1}


def test_is_tree_examples():
    assert is_tree(poset_of(parse_permutation("2413")))
    assert is_tree(poset_of(parse_permutation("4253716")))
    assert not is_tree(poset_of(parse_permutation("123")))
    assert not is_tree(poset_of(parse_permutation("5123647")))


def test_poset_rejects_an_order_below_one():
    with pytest.raises(ValueError, match="poset needs n >= 1"):
        IntervalPoset(0, frozenset())


def test_poset_holds_its_family_bitmask():
    P = poset_of(parse_permutation("2413"))
    assert P.mask == _mask_of(P.intervals, 4)
    assert P == IntervalPoset(4, set(P.intervals)) and "mask" not in repr(P)


def test_long_permutations_are_checked_without_per_order_tables():
    """Orders far past the census caps: the checks read the family's rows,
    so the work stays polynomial and small (the identity of order 500 has
    125,250 intervals)."""
    identity = poset_of(Permutation(tuple(range(1, 501))))
    assert not is_tree(identity)
    assert hasse_children(identity, (1, 500)) == [(1, 499), (2, 500)]
    # 2 4 6 ... 500 1 3 ... 499: simple, so its poset is trivial, a tree
    p = Permutation(tuple(range(2, 501, 2)) + tuple(range(1, 501, 2)))
    assert is_tree(poset_of(p)) and len(poset_of(p)) == 501
    assert validate_interval_family(poset_of(p).intervals, 500).ok


def test_validate_rejects_missing_trivials():
    verdict = validate_interval_family({(1, 1), (2, 2), (1, 3)}, 3)
    assert not verdict.ok
    assert verdict.failure == "trivial-intervals"
    assert verdict.witnesses == ((3, 3),)


def test_validate_rejects_closure_failure():
    family = {(i, i) for i in range(1, 5)} | {(1, 2), (2, 3), (1, 4)}
    verdict = validate_interval_family(family, 4)
    assert not verdict.ok
    assert verdict.failure == "closure"
    I, J, missing, tag = verdict.witnesses
    assert (I, J) == ((1, 2), (2, 3))
    assert missing == (1, 3)
    assert tag == "union"


def test_validate_rejects_three_descendants():
    family = {(i, i) for i in range(1, 4)} | {(1, 3)}
    verdict = validate_interval_family(family, 3)
    assert not verdict.ok
    assert verdict.failure == "three-descendants"
    assert verdict.witnesses[0] == (1, 3)


def test_validate_rejects_an_interval_outside_the_order():
    family = {(1, 1), (2, 2), (3, 3), (1, 3), (2, 7)}
    with pytest.raises(ValueError, match=r"interval \(2, 7\) out of range for n=3"):
        validate_interval_family(family, 3)


def test_validate_rejects_a_reversed_interval():
    family = {(1, 1), (2, 2), (3, 3), (1, 3), (3, 2)}
    with pytest.raises(ValueError, match=r"interval \(3, 2\) out of range for n=3"):
        validate_interval_family(family, 3)


def test_validate_rejects_an_order_below_one():
    with pytest.raises(ValueError, match="order must be at least 1"):
        validate_interval_family(set(), 0)


def test_validate_passes_fan_family():
    assert validate_interval_family(FAN_FAMILY_INTERVALS, 7).ok


@given(perms)
def test_validate_passes_every_interval_poset(p):
    assert validate_interval_family(all_intervals(p), p.n).ok


@given(perms)
def test_children_sorted_by_minimum(p):
    P = poset_of(p)
    for v in P.intervals:
        kids = hasse_children(P, v)
        assert kids == sorted(kids, key=lambda iv: iv[0])
        # covers are strict subsets with no interval strictly between
        for c in kids:
            assert v != c and v[0] <= c[0] and c[1] <= v[1]


@given(perms)
def test_no_element_has_three_children(p):
    assert 3 not in children_histogram(poset_of(p))


@given(perms)
def test_tree_means_unique_parents(p):
    P = poset_of(p)
    parent_count = {}
    for parent, child in hasse_edges(P):
        parent_count[child] = parent_count.get(child, 0) + 1
    expected = all(parent_count.get(v, 0) == 1
                   for v in P.intervals if v != (1, P.n))
    assert is_tree(P) == expected


def test_tree_test_matches_parent_count_on_every_family():
    """Laminarity against the Hasse parent count, and the three-descendants
    check against per-member oracle children, on all 7,264 distinct
    interval posets of orders 1..8."""
    trees = []
    for n in range(1, 9):
        families = [all_intervals(Permutation(entries))
                    for entries in poset_census(n, Family.ALL).values()]
        for fam in families:
            assert is_tree(IntervalPoset(n, fam)) == oracle_is_tree(fam, n), fam
            assert _three_descendant_violation_mask(_mask_of(fam, n), n) \
                == oracle_three_descendant_violation(fam), fam
        trees.append(sum(oracle_is_tree(fam, n) for fam in families))
    assert trees == [1, 1, 2, 6, 21, 78, 301, 1198]


@st.composite
def families_with_trivial_intervals(draw):
    """The trivial intervals plus any proper ones; such a family need not
    be closed under overlap, nor be the poset of any permutation."""
    n = draw(st.integers(min_value=3, max_value=8))
    proper = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
              if (a, b) != (1, n)]
    extra = draw(st.frozensets(st.sampled_from(proper)))
    trivial = {(i, i) for i in range(1, n + 1)} | {(1, n)}
    return IntervalPoset(n, frozenset(trivial) | extra)


@given(families_with_trivial_intervals())
def test_tree_test_and_children_match_oracles_off_posets(P):
    assert is_tree(P) == oracle_is_tree(P.intervals, P.n)
    for v in P.intervals:
        assert hasse_children(P, v) == oracle_children(P.intervals, v)
    assert _three_descendant_violation_mask(_mask_of(P.intervals, P.n), P.n) \
        == oracle_three_descendant_violation(P.intervals)


def _assert_mask_checks_match_tuple_oracles(family, n):
    mask = _mask_of(family, n)
    assert _is_laminar_mask(mask, n) == _is_laminar(family)
    assert _closure_violation_mask(mask, n) == _closure_violation(family, n)
    assert _three_descendant_violation_mask(mask, n) \
        == _three_descendant_violation(family)
    assert validate_interval_family(family, n) \
        == oracle_validate_interval_family(family, n)


def test_mask_checks_match_tuple_oracles_on_every_family():
    """Laminarity, closure, three-descendants and the verdict, read from
    the family bitmask, against the tuple routines on all 7,264 distinct
    interval posets of orders 1..8."""
    for n in range(1, 9):
        for mask in census._distinct_families(n, Family.ALL, None):
            _assert_mask_checks_match_tuple_oracles(
                frozenset(_family_of_mask(mask, n + 1)), n)


@st.composite
def families_in_range(draw):
    """Intervals of an order up to 8: the trivial ones, one in four times
    less one of them, and any proper ones.  Such a family is seldom an
    interval poset."""
    n = draw(st.integers(min_value=1, max_value=8))
    trivial = sorted({(i, i) for i in range(1, n + 1)} | {(1, n)})
    proper = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
              if (a, b) != (1, n)]
    dropped = set()
    if draw(st.integers(min_value=0, max_value=3)) == 3:
        dropped = {draw(st.sampled_from(trivial))}
    extra = draw(st.sets(st.sampled_from(proper))) if proper else set()
    return n, frozenset(trivial) - dropped | extra


@settings(max_examples=300)
@given(families_in_range())
def test_mask_checks_match_tuple_oracles_off_posets(case):
    _assert_mask_checks_match_tuple_oracles(case[1], case[0])


@given(perms)
def test_simple_posets_are_trivial_families(p):
    P = poset_of(p)
    if is_simple(p) and p.n >= 2:
        assert len(P) == p.n + 1
        assert children_histogram(P) == {0: p.n, p.n: 1}


def test_key_equality_iff_same_intervals():
    for e1, e2 in itertools.combinations(itertools.permutations((1, 2, 3, 4)), 2):
        p1, p2 = Permutation(e1), Permutation(e2)
        same_key = canonical_key(poset_of(p1)) == canonical_key(poset_of(p2))
        assert same_key == (all_intervals(p1) == all_intervals(p2))


def test_format_interval():
    assert format_interval((3, 3)) == "{3}"
    assert format_interval((2, 5)) == "[2,5]"


def test_poset_text_roundtrip():
    P = poset_of(parse_permutation("5123647"))
    assert parse_poset_text(write_poset_text(P)) == P


def test_parse_poset_text_rejects_garbage():
    for bad in ["", "3\n1 1\n", "n 3\n1\n", "n 3\n1 x\n"]:
        with pytest.raises(ValueError):
            parse_poset_text(bad)


def test_parse_poset_text_skips_comments_and_names_lines():
    P = poset_of(parse_permutation("2413"))
    text = "# the simple poset of order 4\n" + write_poset_text(P) + "# end\n"
    assert parse_poset_text(text) == P
    for bad, line_no in [("# order\nn 4\n1 1\n\nn 4\n", 5),
                         ("# order\n1 1\nn 4\n", 2), ("\n\n", 3)]:
        with pytest.raises(ValueError, match=f"^line {line_no}: "):
            parse_poset_text(bad)
