"""Tests for the census, realization and verification layer."""

import gc
import io
import itertools
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from polyposet import (
    CapExceeded,
    DissectionClass,
    Family,
    Permutation,
    all_intervals,
    check_identities,
    check_images,
    compare_counts,
    compare_with_bfile,
    count_dissections,
    distinct_posets,
    enumerate_dissections,
    load_bfile,
    MalformedLine,
    parse_permutation,
    phi_inverse,
    poset_census,
    poset_of,
    realize,
    run_census,
    validate_interval_family,
)

import polyposet.census as census
from polyposet import bijection, polygon
from polyposet.perm import _intervals_of_entries, is_simple
from polyposet.poset import _family_of_mask, _trivial_mask
import oracles
from oracles import oracle_check_identities, oracle_check_images, \
    oracle_has_sum_interval, oracle_poset_census, oracle_realize_backtrack, \
    oracle_realizers, oracle_scan


FAN_FAMILY = frozenset(
    [(i, i) for i in range(1, 8)]
    + [(1, 2), (2, 3), (1, 3), (1, 6), (1, 7)]
)


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


def test_distinct_posets_small():
    assert distinct_posets(1, Family.ALL) == 1
    assert distinct_posets(2, Family.ALL) == 1
    assert distinct_posets(3, Family.ALL) == 3
    assert distinct_posets(3, Family.TREE) == 2
    assert distinct_posets(7, Family.BLOCKWISE_SIMPLE) == 5


def test_blockwise_has_no_members_at_orders_two_and_three():
    assert distinct_posets(2, Family.BLOCKWISE_SIMPLE) == 0
    assert distinct_posets(3, Family.BLOCKWISE_SIMPLE) == 0


def test_count_dissections_small():
    assert count_dissections(4, DissectionClass.FRAMED_QUAD_FREE) == 3
    assert count_dissections(4, DissectionClass.NONCROSSING_QUAD_FREE) == 2
    assert count_dissections(8, DissectionClass.NONCROSSING_TRI_QUAD_FREE) == 5


def test_count_dissections_is_the_length_of_the_enumeration():
    for clazz in DissectionClass:
        top = polygon.FRAMED_CAP if clazz is DissectionClass.FRAMED_QUAD_FREE \
            else polygon.NONCROSSING_CAP
        for m in range(2, top + 1):
            assert count_dissections(m, clazz) == \
                len(list(enumerate_dissections(m, clazz))), (clazz, m)
        # the same refusals, with the same messages
        for m, cap, error in ((top + 1, None, CapExceeded),
                              (6, 5, CapExceeded), (1, None, ValueError)):
            with pytest.raises(error) as counted:
                count_dissections(m, clazz, cap)
            with pytest.raises(error) as enumerated:
                list(enumerate_dissections(m, clazz, cap))
            assert str(counted.value) == str(enumerated.value), (clazz, m)
    with pytest.raises(ValueError, match="unknown class"):
        count_dissections(5, "framed")


@pytest.mark.parametrize("family, n", [
    *((family, n) for n in range(1, 9) for family in (Family.ALL, Family.TREE)),
    *((Family.BLOCKWISE_SIMPLE, n) for n in range(4, 11))])
def test_image_masks_are_the_class_members(family, n):
    # both sides as sets, not only as counts: a family mask less its
    # trivial bits is its image's Dissection.mask
    images = {mask & ~_trivial_mask(n)
              for mask in census._distinct_families(n, family, None)}
    assert images == set(polygon._members(n + 1, census.PAIRED_CLASS[family]))


def test_blockwise_scan_reaches_order_eleven(fixtures_dir):
    # one order past the census cap: the A054514 term (index k is order
    # k + 3) and, as a set, the tri/quad-free dissections of the 12-gon
    with open(fixtures_dir / "b054514.txt", encoding="utf-8") as handle:
        reference = dict(load_bfile(handle))
    masks = census._distinct_families(11, Family.BLOCKWISE_SIMPLE, 11)
    assert len(masks) == reference[8]
    images = {mask & ~_trivial_mask(11) for mask in masks}
    assert images == set(polygon._members(
        12, DissectionClass.NONCROSSING_TRI_QUAD_FREE, 12))


def test_compare_counts_row():
    row = compare_counts(4, Family.ALL)
    assert row.n == 4
    assert row.clazz == "all"
    assert row.poset_count == row.dissection_count == 12
    assert row.match is True
    assert row.elapsed_ms >= 0


def test_poset_caps():
    with pytest.raises(CapExceeded):
        distinct_posets(9, Family.ALL)
    with pytest.raises(CapExceeded):
        distinct_posets(11, Family.BLOCKWISE_SIMPLE)
    # an explicit cap authorizes larger orders
    assert distinct_posets(9, Family.TREE, cap=9) == 4888


@pytest.mark.parametrize("family, n", [(Family.ALL, 8), (Family.TREE, 8),
                                       (Family.BLOCKWISE_SIMPLE, 10)],
                         ids=lambda v: getattr(v, "value", str(v)))
def test_census_starts_no_process(family, n, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    census._scan.cache_clear()  # a kept scan would hide a started pool
    assert poset_census(n, family)


@pytest.mark.parametrize("family, max_n", [(Family.ALL, 8), (Family.TREE, 8),
                                           (Family.BLOCKWISE_SIMPLE, 9)],
                         ids=lambda v: getattr(v, "value", str(v)))
def test_prefix_scan_matches_whole_permutation_scan(family, max_n):
    # same keys, same representatives, same insertion order
    for n in range(1, max_n + 1):
        expected = oracle_poset_census(n, family)
        assert list(poset_census(n, family).items()) \
            == list(expected.items()), n
        assert distinct_posets(n, family) == len(expected), n


def test_scan_triple_flags_match_whole_permutation_sums():
    # same (family, flag) pairs, same least representatives, same order
    for n in range(1, 8):
        scanned = {(frozenset(census._family_of_mask(key >> 1, n + 1)),
                    key & 1): entries
                   for key, entries in census._scan(n, False).items()}
        expected = {}
        for entries in itertools.permutations(range(1, n + 1)):
            expected.setdefault(
                (all_intervals(Permutation(entries)),
                 int(oracle_has_sum_interval(entries, 3))), entries)
        assert list(scanned.items()) == list(expected.items()), n


def test_blockwise_representatives_have_no_sum_of_two():
    for n in range(1, 10):
        for entries in poset_census(n, Family.BLOCKWISE_SIMPLE).values():
            assert not oracle_has_sum_interval(entries, 2), entries


SCAN_ORDERS = [(False, n) for n in range(1, 9)] + \
    [(True, n) for n in range(1, 11)]


def test_scan_matches_the_unpruned_scan():
    # the reverse prune, and on the block-wise route the run prune and the
    # skip of repeated prefix states shared across first entries, keep
    # every key, representative and their order
    for blockwise, n in SCAN_ORDERS:
        assert list(census._scan(n, blockwise).items()) \
            == list(oracle_scan(n, blockwise).items()), (blockwise, n)


def test_finished_prefix_searches_leave_no_cyclic_garbage():
    # both DFSs recurse through a nested closure that refers to itself;
    # while that cycle stands, a finished walk's state stays alive until
    # the next full collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for blockwise, n in ((False, 7), (True, 9)):
            census._scan_block(n, blockwise)
            assert gc.collect() == 0, ("_scan_block", blockwise, n)
        for n in (3, 8):  # no simple permutation of order 3
            census._search(_trivial_mask(n), n)
            assert gc.collect() == 0, ("_search", n)
    finally:
        if enabled:
            gc.enable()


def test_unpruned_representatives_end_above_their_first_entry():
    # the prune's premise, checked on the scan that completes every
    # permutation: each key's least permutation has p_1 < p_n
    for blockwise in (False, True):
        for n in range(2, 8):
            for entries in oracle_scan(n, blockwise).values():
                assert entries[0] < entries[-1], (blockwise, entries)


def test_a_prune_on_the_wrong_side_changes_every_representative():
    # keeping p_1 > p_n instead still finds every key, since a reverse
    # shares its key, but never its least permutation
    for blockwise, orders in ((False, range(2, 8)), (True, range(4, 8))):
        for n in orders:
            wrong = oracle_scan(n, blockwise,
                                keep=lambda entries: entries[0] > entries[-1])
            right = census._scan(n, blockwise)
            assert wrong.keys() == right.keys(), (blockwise, n)
            assert all(wrong[key] != entries
                       for key, entries in right.items()), (blockwise, n)


@pytest.mark.parametrize("blockwise", [False, True],
                         ids=["all", "blockwise"])
def test_every_scanned_representative_ends_above_its_first_entry(blockwise):
    for n in range(2, 8):
        for entries in census._scan_block(n, blockwise).values():
            assert entries[0] < entries[-1], (blockwise, entries)
    # order 1: the one permutation is its own reverse
    assert census._scan_block(1, blockwise) == {_bit(1, 1, 1) << 1: (1,)}


@pytest.mark.parametrize("blockwise, max_n", [(False, 8), (True, 11)],
                         ids=["all", "blockwise"])
def test_one_walk_yields_representatives_in_lexicographic_order(blockwise,
                                                                 max_n):
    # the premise of sharing one seen set across first entries: the walk
    # meets prefixes, and so the leaves it keeps, in lexicographic order;
    # block-wise n = 11 lies past the orders the oracle compares
    for n in range(1, max_n + 1):
        kept = list(census._scan_block(n, blockwise).values())
        assert kept == sorted(kept), (blockwise, n)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_run_census_blockwise_starts_at_order_four():
    report = run_census(Family.BLOCKWISE_SIMPLE, 6)
    assert [row.n for row in report.rows] == [4, 5, 6]
    assert [row.poset_count for row in report.rows] == [1, 1, 1]
    assert report.all_match()


def test_run_census_other_families_start_at_order_one():
    report = run_census(Family.ALL, 4)
    assert [row.n for row in report.rows] == [1, 2, 3, 4]
    assert [row.poset_count for row in report.rows] == [1, 1, 3, 12]


def test_run_census_min_n_override():
    # order 2 mismatches (no block-wise simple permutations, but the
    # degenerate triangle counts once); order 3 pairs zero with zero
    report = run_census(Family.BLOCKWISE_SIMPLE, 3, min_n=2)
    assert [(row.poset_count, row.dissection_count) for row in report.rows] \
        == [(0, 1), (0, 0)]
    assert [row.match for row in report.rows] == [False, True]
    assert not report.all_match()


def test_report_json_schema():
    report = run_census(Family.TREE, 4)
    payload = json.loads(report.to_json())
    assert set(payload) == {"rows", "conventions"}
    for row in payload["rows"]:
        assert set(row) == {"n", "class", "poset_count",
                            "dissection_count", "match", "elapsed_ms",
                            "poset_ms", "dissection_ms"}
        assert row["class"] == "tree"
        assert row["poset_ms"] >= 0 and row["dissection_ms"] >= 0
        # each side is rounded on its own
        assert row["poset_ms"] + row["dissection_ms"] \
            <= row["elapsed_ms"] + 0.2
    assert payload["conventions"]["blockwise_first_reported_order"] == 4


def test_run_census_rejects_order_below_one_before_any_order(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("an order ran before min_n was checked")

    monkeypatch.setattr(census, "compare_counts", no_scan)
    for family in Family:
        with pytest.raises(ValueError, match="order must be at least 1"):
            run_census(family, 3, min_n=0)


def test_run_census_checks_polygon_cap_before_any_order(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the poset side ran before the cap check")

    monkeypatch.setattr(census, "distinct_posets", no_scan)
    monkeypatch.setattr(census, "count_dissections", no_scan)
    with pytest.raises(CapExceeded, match="m=11 exceeds the cap 9"):
        run_census(Family.ALL, 10)
    with pytest.raises(CapExceeded, match="m=13 exceeds the cap 11"):
        run_census(Family.BLOCKWISE_SIMPLE, 12)


def test_report_text_layout():
    text = run_census(Family.ALL, 3).to_text()
    lines = text.splitlines()
    assert lines[0].split() == ["n", "class", "posets", "dissections",
                                "match", "elapsed_ms"]
    assert lines[1].split()[:5] == ["1", "all", "1", "1", "yes"]
    assert any(line.startswith("convention pairing:") for line in lines)


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


def test_realize_worked_examples():
    assert str(realize(FAN_FAMILY, 7)) == "4612357"
    fam = frozenset([(i, i) for i in range(1, 5)] + [(1, 4)])
    assert str(realize(fam, 4)) == "2413"


def test_realize_rejects_non_closed_family():
    fam = frozenset([(i, i) for i in range(1, 5)] + [(1, 2), (2, 3), (1, 4)])
    assert realize(fam, 4) is None


def test_realize_requires_trivial_intervals():
    assert realize(frozenset([(1, 2)]), 2) is None
    assert realize(frozenset([(1, 1), (2, 2)]), 2) is None


def test_realize_rejects_out_of_range_interval():
    fam = frozenset([(i, i) for i in range(1, 5)] + [(1, 4), (0, 9)])
    with pytest.raises(ValueError, match=r"interval \(0, 9\) out of range"):
        realize(fam, 4)
    with pytest.raises(ValueError, match=r"interval \(3, 2\) out of range"):
        realize({(1, 1), (2, 2), (1, 2), (3, 2)}, 2)
    # the least bad interval is named, whatever the input order
    bad = [(5, 2), (1, 1), (0, 9), (2, 2), (1, 2), (3, 0)]
    for family in (bad, bad[::-1]):
        with pytest.raises(ValueError, match=r"interval \(0, 9\) out of"):
            realize(family, 2)


def test_realize_cap():
    fam = frozenset((i, i) for i in range(1, 10)) | {(1, 9)}
    with pytest.raises(CapExceeded):
        realize(fam, 9)
    assert realize(fam, 9, cap=9) is not None


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(
    lambda e: Permutation(tuple(e))))
def test_realize_agrees_with_exhaustive_scan(p):
    fam = frozenset(all_intervals(p))
    wit = realize(fam, len(p))
    assert wit is not None
    assert tuple(wit.entries) == oracle_realizers(fam, len(p))[0]
    assert all_intervals(wit) == fam


def test_realize_prefers_lexicographically_smallest():
    # 3142 and 2413 share a poset; the smaller one comes back
    fam = frozenset(all_intervals(parse_permutation("3142")))
    assert str(realize(fam, 4)) == "2413"


@pytest.mark.parametrize("clazz, top_m", [
    (DissectionClass.FRAMED_QUAD_FREE, 8),
    (DissectionClass.NONCROSSING_QUAD_FREE, 9),
    (DissectionClass.NONCROSSING_TRI_QUAD_FREE, 11),
], ids=lambda arg: getattr(arg, "value", arg))
def test_realize_matches_backtracking_on_class_pullbacks(clazz, top_m):
    for m in range(2, top_m + 1):
        for d in enumerate_dissections(m, clazz):
            p = phi_inverse(d)
            assert realize(p.intervals, p.n, cap=p.n) \
                == oracle_realize_backtrack(p.intervals, p.n), d


@st.composite
def trivial_plus_proper(draw):
    """The trivial intervals of an order up to 8 plus random proper ones;
    most such families have no realizer."""
    n = draw(st.integers(min_value=1, max_value=8))
    proper = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
              if (a, b) != (1, n)]
    extra = draw(st.sets(st.sampled_from(proper))) if proper else set()
    return n, {(i, i) for i in range(1, n + 1)} | {(1, n)} | extra


@settings(max_examples=300)
@given(trivial_plus_proper())
def test_realize_matches_backtracking_on_random_families(case):
    n, fam = case
    assert realize(fam, n) == oracle_realize_backtrack(fam, n)


def _scan_families(n: int, family: Family):
    """(interval family, least representative) of every scan family."""
    for mask, entries in census._distinct_families(n, family, None).items():
        yield _family_of_mask(mask, n + 1), entries


def test_realize_is_the_scan_representative():
    for n, family in ([(n, Family.ALL) for n in range(1, 9)]
                      + [(n, Family.BLOCKWISE_SIMPLE) for n in (9, 10)]):
        for intervals, entries in _scan_families(n, family):
            assert realize(intervals, n, cap=n).entries == entries


def _spy_search(monkeypatch) -> list[tuple[int, int]]:
    """(mask, n) of every later ``census._search`` call, after the simple
    patterns of arity up to 5 are cached."""
    for k in range(1, 6):
        census._simple_pattern(k)
    calls = []
    search = census._search

    def spy(allowed, n):
        calls.append((allowed, n))
        return search(allowed, n)

    monkeypatch.setattr(census, "_search", spy)
    return calls


def test_realize_matches_backtracking_on_every_small_family(monkeypatch):
    calls = _spy_search(monkeypatch)
    seen = unrealizable = 0
    for n in range(1, 7):
        proper = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                  if (a, b) != (1, n)]
        trivial = {(i, i) for i in range(1, n + 1)} | {(1, n)}
        for size in range(len(proper) + 1):
            for extra in itertools.combinations(proper, size):
                fam = trivial | set(extra)
                want = oracle_realize_backtrack(fam, n)
                assert realize(fam, n) == want, (n, extra)
                # validation alone decides realizability at these orders
                assert validate_interval_family(fam, n).ok == \
                    (want is not None), (n, extra)
                seen += 1
                unrealizable += want is None
    # the realizable ones are the 1 + 1 + 3 + 12 + 52 + 240 distinct posets
    assert (seen, unrealizable) == (16934, 16934 - 309)
    # a family that validation refutes is None without a search
    for allowed, n in calls:
        assert validate_interval_family(_family_of_mask(allowed, n + 1), n).ok


def test_realize_refuted_family_is_none_without_a_search(monkeypatch):
    # 20 1 19 2 ... 11 10 alternates 1 (-) p and 1 (+) p; without its
    # interval (5, 15) the family is refuted, though no search finds that
    # quickly (the search alone takes about 0.4 s on a 2-CPU Xeon)
    entries = tuple(v for pair in zip(range(20, 10, -1), range(1, 11))
                    for v in pair)
    fam = all_intervals(Permutation(entries)) - {(5, 15)}
    assert len(fam) == len(all_intervals(Permutation(entries))) - 1
    assert validate_interval_family(fam, 20).failure == "three-descendants"
    calls = _spy_search(monkeypatch)
    assert realize(fam, 20, cap=20) is None
    assert calls == []


def test_realize_composes_every_scan_family_without_searching(monkeypatch):
    # a wrong orientation or pattern on a realizable family would still
    # return the right answer through the search, only slower
    calls = []
    search = census._search

    def spy(allowed, n):
        calls.append((allowed, n))
        return search(allowed, n)

    monkeypatch.setattr(census, "_search", spy)
    census._simple_pattern.cache_clear()
    for n in range(1, 8):
        for intervals, entries in _scan_families(n, Family.ALL):
            assert realize(intervals, n).entries == entries
    # the only searches filled the pattern cache, once per prime arity
    assert [n for _, n in calls] == [4, 5, 6, 7]
    assert all(allowed == census._trivial_mask(n) for allowed, n in calls)
    assert census._simple_pattern.cache_info().misses == len(calls)


def test_realize_tests_trivial_intervals_before_either_route(monkeypatch):
    calls = []
    for name in ("_compose", "_search"):
        monkeypatch.setattr(census, name,
                            lambda *args, name=name: calls.append(name))
    for n in range(1, 5):
        every = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
        trivial = {(i, i) for i in range(1, n + 1)} | {(1, n)}
        for size in range(len(every) + 1):
            for fam in itertools.combinations(every, size):
                if not trivial <= set(fam):
                    assert realize(fam, n) is None, (n, fam)
    assert calls == []


def test_realize_deep_decomposition_tree():
    # 1 + (1 - (1 + ...)), one linear node per level: a walk that recursed
    # once per level would overflow the stack
    n = 1000
    entries = tuple(itertools.chain.from_iterable(
        zip(range(1, n // 2 + 1), range(n, n // 2, -1))))
    fam = _intervals_of_entries(entries)
    wit = realize(fam, n, cap=n)
    assert _intervals_of_entries(wit.entries) == fam
    assert wit.entries <= entries


def test_simple_pattern_is_the_least_simple_permutation():
    for k in range(1, 8):
        assert census._simple_pattern(k) == oracles.oracle_least_simple(k), k
    for k in range(4, 11):
        assert is_simple(Permutation(census._simple_pattern(k))), k


# ---------------------------------------------------------------------------
# identity and image checks
# ---------------------------------------------------------------------------


def test_check_identities_small_orders():
    for n in (1, 2, 4, 5):
        checks = check_identities(n)
        assert [c.name for c in checks] == [
            "simple-share-poset",
            "overlap-closure",
            "no-three-descendants",
            "tree-iff-no-triple-sum",
        ]
        assert all(c.passed for c in checks), (n, checks)
        assert all(c.counterexample is None for c in checks)


def test_check_identities_matches_whole_permutation_walk():
    for n in range(1, 8):
        expected = oracle_check_identities(n)
        assert check_identities(n) == expected, n


def _bit(lo, hi, n):
    return 1 << lo * (n + 1) + hi


def _size(rows):
    return sum(row.bit_count() for row in rows)


# census name -> (oracle name, wrong predicate on a family's rows, the
# check it fails); the oracle's tuple routine is replaced by the same
# predicate on the tuple family's rows
WRONG_PREDICATES = {
    "_is_laminar_rows": ("_is_laminar",
                         lambda rows: _size(rows) % 2 == 0,
                         "tree-iff-no-triple-sum"),
    "_closure_violation_rows": (
        "_closure_violation",
        lambda rows: (2, 4) if rows[2] >> 4 & 1
        and not rows[1] >> 2 & 1 else None,
        "overlap-closure"),
    "_three_descendant_violation_rows": (
        "_three_descendant_violation",
        lambda rows: (1, 1) if _size(rows) % 3 == 1 else None,
        "no-three-descendants"),
}


def _on_tuples(wrong):
    """The row-level predicate on a tuple family, whose order is its
    largest maximum."""
    def on_family(family, *_):
        rows = [0] * (max(hi for _, hi in family) + 1)
        for lo, hi in family:
            rows[lo] |= 1 << hi
        return wrong(rows)
    return on_family


@pytest.mark.parametrize("predicate", sorted(WRONG_PREDICATES))
def test_check_identities_reports_least_counterexample(predicate, monkeypatch):
    oracle_name, wrong, failing = WRONG_PREDICATES[predicate]
    monkeypatch.setattr(census, predicate, wrong)
    monkeypatch.setattr(oracles, oracle_name, _on_tuples(wrong))
    for n in (5, 6):
        checks = check_identities(n)
        assert checks == oracle_check_identities(n), n
        assert not {c.name: c.passed for c in checks}[failing], (n, checks)


def test_check_identities_splits_each_scan_key_once(monkeypatch):
    calls, real_rows = [], census._rows
    monkeypatch.setattr(
        census, "_rows", lambda mask, n: calls.append(mask) or real_rows(mask, n))
    check_identities(6)
    assert sorted(calls) == sorted(key >> 1 for key in census._scan(6, False))


def test_simple_share_poset_fails_on_a_scan_dropping_a_trivial_bit(
        monkeypatch):
    # a scan that loses (1, 4) from the family of 2413 leaves no family with
    # the n + 1 bits of the simple ones, which a count of such families
    # passed
    real_block = census._scan_block

    def broken_block(n, blockwise):
        return {key & ~(_bit(1, 4, 4) << 1) if entries == (2, 4, 1, 3)
                else key: entries
                for key, entries in real_block(n, blockwise).items()}

    monkeypatch.setattr(census, "_scan_block", broken_block)
    checks = {c.name: c for c in check_identities(4)}
    assert checks.pop("simple-share-poset") == census.IdentityCheck(
        "simple-share-poset", False, "2413")
    assert all(c.passed for c in checks.values()), checks


def test_check_identities_cap():
    with pytest.raises(CapExceeded):
        check_identities(9)
    with pytest.raises(ValueError):
        check_identities(0)


def test_check_images_small_orders():
    for n in (1, 2, 5):
        for family in Family:
            check = check_images(n, family)
            assert check.name.startswith(
                {"all": "image", "tree": "tree-image",
                 "blockwise": "blockwise-image"}[family.value])
            assert check.passed, (n, family, check)


def test_check_images_matches_whole_permutation_walk():
    for n in range(1, 8):
        for family in Family:
            expected = oracle_check_images(n, family)
            assert check_images(n, family) == expected, (n, family)


def _triangle_free(mask: int, m: int) -> bool:
    return not polygon._read(mask, m)[1]


# class rules that are wrong on some images but not on the first one, so
# the reported permutation shows which failing poset is named
WRONG_IMAGE_RULES = {
    Family.ALL: lambda mask, m, clazz: _triangle_free(mask, m),
    Family.TREE: lambda mask, m, clazz: _triangle_free(mask, m),
    Family.BLOCKWISE_SIMPLE:
        lambda mask, m, clazz: not _triangle_free(mask, m),
}


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_check_images_reports_least_counterexample(family, monkeypatch):
    rule = WRONG_IMAGE_RULES[family]
    monkeypatch.setattr(census, "_in_class", rule)
    for n in (5, 6):
        check = check_images(n, family)
        assert check == oracle_check_images(n, family, rule), n
        assert not check.passed and check.counterexample is not None, n


def test_check_images_builds_no_image_classification(monkeypatch):
    def no_bundle(**flags):
        raise AssertionError("an ImageClassification was built")

    monkeypatch.setattr(bijection, "ImageClassification", no_bundle)
    for family in Family:
        assert check_images(6, family).passed, family


def test_order_and_cap_are_checked_before_the_walk_is_read(monkeypatch):
    def no_scan(n, blockwise):
        raise AssertionError("a scan was started")

    monkeypatch.setattr(census, "_scan_block", no_scan)
    with pytest.raises(CapExceeded):
        check_identities(9, cap=8)
    with pytest.raises(ValueError, match="at least 1"):
        check_identities(0)
    for family in Family:
        with pytest.raises(CapExceeded):
            check_images(12, family)
        with pytest.raises(ValueError, match="at least 1"):
            check_images(0, family)


def _count_real_scans(monkeypatch) -> dict:
    """Spy on ``_scan_block``: (n, blockwise) -> real scans started."""
    real_block, scans = census._scan_block, {}

    def spy_block(n, blockwise):
        scans[n, blockwise] = scans.get((n, blockwise), 0) + 1
        return real_block(n, blockwise)

    monkeypatch.setattr(census, "_scan_block", spy_block)
    return scans


def test_checks_of_one_order_share_one_scan(monkeypatch):
    scans = _count_real_scans(monkeypatch)
    expected = (oracle_check_identities(6),
                [oracle_check_images(6, f) for f in (Family.ALL, Family.TREE)],
                oracle_poset_census(6, Family.TREE))
    assert (check_identities(6),
            [check_images(6, f) for f in (Family.ALL, Family.TREE)],
            poset_census(6, Family.TREE)) == expected
    assert distinct_posets(6, Family.ALL) == len(poset_census(6, Family.ALL))
    # the identity, all and tree reads of order 6 walk S_6 once
    assert scans == {(6, False): 1}
    assert check_images(6, Family.BLOCKWISE_SIMPLE) == \
        oracle_check_images(6, Family.BLOCKWISE_SIMPLE)
    assert scans == {(6, False): 1, (6, True): 1}


def test_scan_cache_keeps_only_the_last_scan(monkeypatch):
    scans = _count_real_scans(monkeypatch)
    for n, blockwise in ((5, False), (6, False), (5, False), (5, True),
                         (5, False)):
        census._scan(n, blockwise)
        assert census._scan.cache_info().currsize == 1
    # a scan is reused only by the very next read of the same key
    census._scan(5, False)
    assert scans == {(5, False): 3, (6, False): 1, (5, True): 1}


def test_import_builds_no_per_order_table():
    """The per-order face table is built on first use, never at import,
    so importing the package stays cheap."""
    probe = ("from polyposet import census, cli, polygon\n"
             "print(polygon._table.cache_info().currsize)\n"
             "print(census._scan.cache_info().currsize)")
    src = pathlib.Path(census.__file__).parent.parent
    result = subprocess.run([sys.executable, "-S", "-c", probe],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.split() == ["0", "0"]


def test_modules_import_in_one_direction():
    """perm -> poset -> polygon -> bijection -> census: no module imports a
    later one, so ``poset``, which alone holds the family layout and its
    tree, loads without ``polygon``.  The package's ``__init__`` imports
    every module, so the probe loads them into a bare package."""
    chain = ["perm", "poset", "polygon", "bijection", "census"]
    probe = ("import sys, types\n"
             "package = types.ModuleType('polyposet')\n"
             "package.__path__ = [sys.argv[1]]\n"
             "sys.modules['polyposet'] = package\n"
             f"chain = {chain!r}\n"
             "for i, name in enumerate(chain):\n"
             "    __import__('polyposet.' + name)\n"
             "    print(name, *(later for later in chain[i + 1:]\n"
             "                  if 'polyposet.' + later in sys.modules))")
    package = pathlib.Path(census.__file__).parent
    result = subprocess.run([sys.executable, "-S", "-c", probe, str(package)],
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.splitlines() == chain


def test_order_and_cap_messages():
    for call, message in (
            (lambda: distinct_posets(9, Family.ALL),
             "n=9 exceeds the census cap 8 for all"),
            (lambda: distinct_posets(9, Family.TREE),
             "n=9 exceeds the census cap 8 for tree"),
            (lambda: check_identities(9),
             "n=9 exceeds the identity-check cap 8"),
            (lambda: realize([], 9), "n=9 exceeds the realization cap 8")):
        with pytest.raises(CapExceeded) as err:
            call()
        assert str(err.value) == message
    for call in (lambda: distinct_posets(0, Family.ALL),
                 lambda: check_identities(0),
                 lambda: realize([], 0),
                 lambda: run_census(Family.ALL, 3, min_n=0)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "order must be at least 1"


# ---------------------------------------------------------------------------
# b-files
# ---------------------------------------------------------------------------


def test_load_bfile_plain():
    assert load_bfile("1 1\n2 1\n") == [(1, 1), (2, 1)]


def test_load_bfile_comments_blanks_and_streams():
    text = "# a comment\n\n5 10\n"
    assert load_bfile(text) == [(5, 10)]
    assert load_bfile(io.StringIO(text)) == [(5, 10)]


def test_load_bfile_reports_physical_line_numbers():
    with pytest.raises(MalformedLine) as err:
        load_bfile("5 ten\n")
    assert err.value.line_no == 1
    with pytest.raises(MalformedLine) as err:
        load_bfile("# comment\n1 2 3\n")
    assert err.value.line_no == 2
    assert err.value.line == "1 2 3"


def test_load_bfile_rejects_repeated_index():
    with pytest.raises(MalformedLine) as err:
        load_bfile("1 1\n# again\n1 5\n")
    assert err.value.line_no == 3
    assert err.value.line == "1 5"


def test_fixture_files_parse(fixtures_dir):
    for name, first in (("b348479.txt", (1, 1)),
                        ("b054515.txt", (1, 1)),
                        ("b054514.txt", (1, 1))):
        with open(fixtures_dir / name, encoding="utf-8") as handle:
            pairs = load_bfile(handle)
        assert pairs[0] == first
        assert len(pairs) >= 8


def test_compare_with_bfile_alignment():
    comparison = compare_with_bfile({4: 1, 5: 1, 6: 2},
                                    [(1, 1), (2, 9)], offset=3)
    assert comparison.rows == (
        (4, 1, 1, 1, True),
        (5, 1, 2, 9, False),
        (6, 2, None, None, True),
    )
    assert not comparison.all_match()
    text = comparison.to_text()
    assert "n = k + 3" in text
    assert "NO" in text and "n/a" in text
    assert "census sequence:    1, 1, 2" in text
    assert "reference sequence: 1, 9" in text


def test_compare_with_bfile_all_match():
    comparison = compare_with_bfile({1: 1, 2: 1, 3: 3},
                                    [(1, 1), (2, 1), (3, 3)], offset=0)
    assert comparison.all_match()
    assert all(row[4] for row in comparison.rows)
