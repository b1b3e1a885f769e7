import pytest

from bellforge import iter_partitions, sequence
from reference import count_exact_parts, count_restricted_bruteforce


def test_iter_partitions_base_cases():
    assert list(iter_partitions(0)) == [()]
    assert list(iter_partitions(1)) == [(1,)]


def test_iter_partitions_n4_order_and_content():
    # hand enumeration of the partitions of 4: 4, 3+1, 2+2, 2+1+1, 1+1+1+1
    assert list(iter_partitions(4)) == [
        (0, 0, 0, 1),
        (1, 0, 1, 0),
        (0, 2, 0, 0),
        (2, 1, 0, 0),
        (4, 0, 0, 0),
    ]


def test_iter_partitions_order_is_reverse_lex_on_reversed_vector():
    for n in (5, 8, 11):
        vectors = list(iter_partitions(n))
        keys = [tuple(reversed(v)) for v in vectors]
        assert keys == sorted(keys, reverse=True)


def test_iter_partitions_weight_invariant_and_uniqueness():
    for n in range(26):
        seen = set()
        for vec in iter_partitions(n):
            assert len(vec) == n
            assert sum((j + 1) * k for j, k in enumerate(vec)) == n
            assert vec not in seen
            seen.add(vec)


def test_iter_partitions_cardinality_matches_pentagonal():
    for n in range(41):
        assert sum(1 for _ in iter_partitions(n)) == sequence("p", n, "series")[n]


def test_count_partitions_examples():
    assert sequence("p", 0, "series") == [1]
    # brute-force enumerations
    assert sequence("p", 5, "series")[5] == len(list(iter_partitions(5))) == 7
    assert sequence("p", 10, "series")[10] == len(list(iter_partitions(10))) == 42


def test_series_route_p_is_a_fresh_table():
    assert sequence("p", 10, "series") == [sequence("p", n, "series")[n] for n in range(11)]
    assert sequence("p", 10, "series") == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_count_exact_parts_examples():
    assert count_exact_parts(4, 2) == 2  # 3+1 and 2+2
    for n in range(1, 12):
        assert count_exact_parts(n, 1) == 1
        assert count_exact_parts(n, n) == 1
    assert count_exact_parts(0, 0) == 1
    assert count_exact_parts(3, 5) == 0


def test_count_exact_parts_sums_to_partition_count():
    for n in range(41):
        assert sum(count_exact_parts(n, m) for m in range(n + 1)) == sequence("p", n, "series")[n]


def test_count_exact_parts_matches_enumeration():
    for n in range(16):
        by_parts = {}
        for vec in iter_partitions(n):
            by_parts[sum(vec)] = by_parts.get(sum(vec), 0) + 1
        for m in range(n + 1):
            assert count_exact_parts(n, m) == by_parts.get(m, 0)


def test_count_restricted_examples():
    assert count_restricted_bruteforce(5, [1, 2]) == 3  # 1*5; 1+1+1+2; 1+2+2
    assert count_restricted_bruteforce(3, [2]) == 0
    for n in range(12):
        assert count_restricted_bruteforce(n, [1]) == 1
    assert count_restricted_bruteforce(0, [4, 9]) == 1


def test_count_restricted_rejects_bad_parts():
    with pytest.raises(ValueError):
        count_restricted_bruteforce(3, [0, 2])
    with pytest.raises(ValueError):
        count_restricted_bruteforce(3, [])
    with pytest.raises(ValueError):
        count_restricted_bruteforce(3, [2, 2])


def test_count_restricted_full_range_equals_partition_count():
    for n in range(1, 26):
        assert count_restricted_bruteforce(n, list(range(1, n + 1))) == sequence("p", n, "series")[n]
