"""Tests for the census, realization and verification layer."""

import io
import itertools
import json
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
    walk_all,
)

import polyposet.census as census
import oracles
from oracles import oracle_check_identities, oracle_check_images, \
    oracle_has_sum_interval, oracle_poset_census, oracle_realize_backtrack, \
    oracle_realizers


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


@pytest.mark.parametrize("family, n", [(Family.ALL, 7), (Family.TREE, 7),
                                       (Family.BLOCKWISE_SIMPLE, 9)],
                         ids=lambda v: getattr(v, "value", str(v)))
def test_census_is_thread_count_invariant(family, n, monkeypatch):
    def run():
        order = min(n, census.IDENTITY_CAP)
        walk = walk_all(order)
        return (poset_census(n, family), distinct_posets(n, family),
                check_identities(order), check_identities(order, walk=walk),
                [check_images(order, f, walk=walk)
                 for f in (Family.ALL, Family.TREE)])

    monkeypatch.setattr(census.os, "cpu_count", lambda: 1)
    solo = run()
    # no serial cutoff and three CPUs: every scan above runs on a pool
    real_pool, widths = census.multiprocessing.Pool, []

    def spy_pool(width):
        widths.append(width)
        return real_pool(width)

    monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(census, "_SERIAL_THROUGH", dict.fromkeys(Family, 0))
    monkeypatch.setattr(census.multiprocessing, "Pool", spy_pool)
    assert run() == solo
    # the walk's checks read it and start no scan of their own
    assert widths == [3, 3, 3, 3]


@pytest.mark.parametrize("family, n", [(f, census._SERIAL_THROUGH[f])
                                       for f in Family],
                         ids=lambda v: getattr(v, "value", str(v)))
def test_census_at_the_serial_cutoff_starts_no_pool(family, n, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(census.os, "cpu_count", lambda: 1)
    expected = poset_census(n, family)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(census.multiprocessing, "Pool", no_pool)
    assert poset_census(n, family) == expected


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
                   for key, entries in census._scan(n, Family.ALL).items()}
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
        assert check_identities(n, walk=walk_all(n)) == expected, n


def _bit(lo, hi, n):
    return 1 << lo * (n + 1) + hi


# census name -> (oracle name, wrong predicate on a family bitmask, the
# check it fails); the oracle's tuple routine is replaced by the same
# predicate on the tuple family's bitmask
WRONG_PREDICATES = {
    "_is_laminar_mask": ("_is_laminar",
                         lambda mask, n: mask.bit_count() % 2 == 0,
                         "tree-iff-no-triple-sum"),
    "_closure_violation_mask": (
        "_closure_violation",
        lambda mask, n: (2, 4) if mask & _bit(2, 4, n)
        and not mask & _bit(1, 2, n) else None,
        "overlap-closure"),
    "_three_descendant_violation_mask": (
        "_three_descendant_violation",
        lambda mask, n: (1, 1) if mask.bit_count() % 3 == 1 else None,
        "no-three-descendants"),
}


def _on_tuples(wrong):
    """The mask-level predicate on a tuple family, whose order is its
    largest maximum."""
    def on_family(family, *_):
        n = max(hi for _, hi in family)
        return wrong(sum(_bit(lo, hi, n) for lo, hi in family), n)
    return on_family


@pytest.mark.parametrize("predicate", sorted(WRONG_PREDICATES))
def test_check_identities_reports_least_counterexample(predicate, monkeypatch):
    oracle_name, wrong, failing = WRONG_PREDICATES[predicate]
    monkeypatch.setattr(census, predicate, wrong)
    monkeypatch.setattr(oracles, oracle_name, _on_tuples(wrong))
    for n in (5, 6):
        checks = check_identities(n)
        assert checks == oracle_check_identities(n), n
        assert check_identities(n, walk=walk_all(n)) == checks, n
        assert not {c.name: c.passed for c in checks}[failing], (n, checks)


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
        walk = walk_all(n)
        for family in Family:
            expected = oracle_check_images(n, family)
            assert check_images(n, family) == expected, (n, family)
            if family is not Family.BLOCKWISE_SIMPLE:
                assert check_images(n, family, walk=walk) == expected, \
                    (n, family)


# wrong on some images but not on the first one, so the reported
# permutation shows which failing poset is named
WRONG_IMAGE_PREDICATES = {
    Family.ALL: lambda c: c.triangle_free,
    Family.TREE: lambda c: c.triangle_free,
    Family.BLOCKWISE_SIMPLE: lambda c: not c.triangle_free,
}


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_check_images_reports_least_counterexample(family, monkeypatch):
    monkeypatch.setitem(census.IMAGE_PREDICATES, family,
                        WRONG_IMAGE_PREDICATES[family])
    for n in (5, 6):
        check = check_images(n, family)
        assert check == oracle_check_images(n, family), n
        if family is not Family.BLOCKWISE_SIMPLE:
            assert check_images(n, family, walk=walk_all(n)) == check, n
        assert not check.passed and check.counterexample is not None, n


def test_checks_reject_a_walk_they_cannot_read():
    walk = walk_all(4)
    with pytest.raises(ValueError, match="order 4"):
        check_identities(5, walk=walk)
    for family in (Family.ALL, Family.TREE):
        with pytest.raises(ValueError, match="order 4"):
            check_images(3, family, walk=walk)
    # the block-wise check keeps its own pruned scan
    with pytest.raises(ValueError, match="block-wise"):
        check_images(4, Family.BLOCKWISE_SIMPLE, walk=walk)


class _UntouchableWalk:
    def __getattr__(self, name):
        raise AssertionError(f"the walk was read ({name})")


def test_order_and_cap_are_checked_before_the_walk_is_read():
    walk = _UntouchableWalk()
    with pytest.raises(CapExceeded):
        check_identities(9, cap=8, walk=walk)
    with pytest.raises(ValueError, match="at least 1"):
        check_identities(0, walk=walk)
    for family in Family:
        with pytest.raises(CapExceeded):
            check_images(12, family, walk=walk)
        with pytest.raises(ValueError, match="at least 1"):
            check_images(0, family, walk=walk)


def test_import_builds_no_per_order_table():
    """The per-order mask tables are built on first use, never at import,
    so importing the package stays cheap."""
    probe = ("from polyposet import bijection, cli, polygon\n"
             "print(*[table.cache_info().currsize for table in "
             "(bijection._image_table, polygon._table)])")
    src = pathlib.Path(census.__file__).parent.parent
    result = subprocess.run([sys.executable, "-S", "-c", probe],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.split() == ["0", "0"]


def test_walk_all_cap():
    with pytest.raises(CapExceeded):
        walk_all(9)
    with pytest.raises(ValueError):
        walk_all(0)
    assert walk_all(3, cap=3).n == 3


def test_order_and_cap_messages():
    for call, message in (
            (lambda: walk_all(9), "n=9 exceeds the census cap 8 for all"),
            (lambda: distinct_posets(9, Family.TREE),
             "n=9 exceeds the census cap 8 for tree"),
            (lambda: check_identities(9),
             "n=9 exceeds the identity-check cap 8"),
            (lambda: realize([], 9), "n=9 exceeds the realization cap 8")):
        with pytest.raises(CapExceeded) as err:
            call()
        assert str(err.value) == message
    for call in (lambda: walk_all(0), lambda: check_identities(0),
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
