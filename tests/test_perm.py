import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyposet.perm import (NotAPermutation, Permutation, all_intervals,
                            complement, has_sum_interval, interval_windows,
                            is_block_wise_simple, is_simple,
                            parse_permutation, reverse)

from oracles import oracle_has_sum_interval, oracle_intervals

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(
    lambda e: Permutation(tuple(e)))


def test_parse_compact():
    assert parse_permutation("2413").entries == (2, 4, 1, 3)
    assert parse_permutation("1").entries == (1,)


def test_parse_separated():
    assert parse_permutation("2, 4, 1, 3").entries == (2, 4, 1, 3)
    assert parse_permutation("10 3 1 2 4 5 7 6 9 8").n == 10


def test_parse_rejects_garbage():
    for bad in ["", "  ", "2414", "120", "2z4", "0", "2 4 1"]:
        with pytest.raises(NotAPermutation):
            parse_permutation(bad)


def test_str_forms():
    assert str(parse_permutation("314297856")) == "314297856"
    assert str(parse_permutation("10 2 3 4 5 6 7 8 9 1")) == \
        "10 2 3 4 5 6 7 8 9 1"


def test_proper_intervals_of_314297856():
    p = parse_permutation("314297856")
    proper = {v for v in all_intervals(p) if v[0] != v[1] and v != (1, 9)}
    assert proper == {(5, 9), (1, 4), (5, 6), (7, 8), (7, 9), (5, 8)}


def test_interval_windows_positions():
    w = interval_windows(parse_permutation("314297856"))
    assert w[(1, 4)] == (1, 4)
    assert w[(5, 9)] == (5, 9)
    assert w[(7, 8)] == (6, 7)
    assert w[(1, 9)] == (1, 9)


def test_singletons_and_full_always_present():
    p = parse_permutation("35142")
    ivs = all_intervals(p)
    assert {(i, i) for i in range(1, 6)} <= ivs
    assert (1, 5) in ivs


def test_simple_examples():
    assert is_simple(parse_permutation("3517246"))
    assert is_simple(parse_permutation("2413"))
    assert is_simple(parse_permutation("1"))
    assert is_simple(parse_permutation("21"))
    assert not is_simple(parse_permutation("4253716"))
    assert not is_simple(parse_permutation("123"))


def test_no_simple_of_order_three():
    assert not any(is_simple(Permutation(e))
                   for e in itertools.permutations((1, 2, 3)))


def test_sum_interval_examples():
    assert has_sum_interval(parse_permutation("123"), 2)
    assert has_sum_interval(parse_permutation("123"), 3)
    assert has_sum_interval(parse_permutation("321"), 3)
    assert not has_sum_interval(parse_permutation("2413"), 2)
    # 4253716 contains 231-style blocks but no block splits as a sum
    assert not has_sum_interval(parse_permutation("4253716"), 2)
    # 45312 = the skew sum of 12, 3, and 21 patterns over values
    assert has_sum_interval(parse_permutation("45312"), 2)
    assert has_sum_interval(parse_permutation("45312"), 3)
    for n in range(1, 7):
        for entries in itertools.permutations(range(1, n + 1)):
            for parts in (2, 3):
                assert has_sum_interval(Permutation(entries), parts) == \
                    oracle_has_sum_interval(entries, parts), (entries, parts)


def test_sum_interval_parts_validation():
    p = parse_permutation("2413")
    for parts in (1, 4, 0, -2):
        with pytest.raises(ValueError):
            has_sum_interval(p, parts)


def test_block_wise_simple_examples():
    assert is_block_wise_simple(parse_permutation("4253716"))
    assert is_block_wise_simple(parse_permutation("2413"))
    assert not is_block_wise_simple(parse_permutation("123"))
    assert not is_block_wise_simple(parse_permutation("45312"))


def test_orders_two_and_three_have_no_block_wise_simple():
    for n in (2, 3):
        assert not any(is_block_wise_simple(Permutation(e))
                       for e in itertools.permutations(range(1, n + 1)))


def test_block_wise_simple_counts_small():
    counts = {n: sum(is_block_wise_simple(Permutation(e))
                     for e in itertools.permutations(range(1, n + 1)))
              for n in (4, 5, 6)}
    # orders 4..6: exactly the simple permutations (2, 6, 46)
    assert counts == {4: 2, 5: 6, 6: 46}


@given(perms)
def test_intervals_match_value_side_oracle(p):
    assert set(all_intervals(p)) == oracle_intervals(p.entries)


@given(perms, st.sampled_from([2, 3]))
@settings(max_examples=60)
def test_sum_interval_matches_split_oracle(p, parts):
    assert has_sum_interval(p, parts) == oracle_has_sum_interval(p.entries, parts)


@given(perms)
def test_triple_sum_implies_double_sum(p):
    if has_sum_interval(p, 3):
        assert has_sum_interval(p, 2)


@given(perms)
def test_simple_implies_block_wise_simple(p):
    # order 2 is the lone exception: 12 and 21 are simple, yet their full
    # window splits into two consecutive singletons
    if is_simple(p) and p.n != 2:
        assert is_block_wise_simple(p)


@given(perms)
def test_reverse_preserves_interval_set(p):
    assert all_intervals(reverse(p)) == all_intervals(p)


@given(perms)
def test_complement_mirrors_interval_set(p):
    n = p.n
    expected = {(n + 1 - hi, n + 1 - lo) for lo, hi in all_intervals(p)}
    assert set(all_intervals(complement(p))) == expected


@given(perms)
def test_reverse_and_complement_are_involutions(p):
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p
    assert is_block_wise_simple(p) == is_block_wise_simple(reverse(p))
    assert is_simple(p) == is_simple(complement(p))
