import random

import pytest
from hypothesis import given, settings, strategies as st

from dmagic.zero_sum import (
    Case1SetSystem,
    ZeroSumPartition,
    case1_sets,
    symmetric_set,
    validate_partition,
    zero_sum_partition,
)
from oracles import check_zero_sum_partition, integer_partitions


def parts_as_sets(partition):
    return {frozenset(p) for p in partition.parts}


def test_symmetric_set_small():
    assert symmetric_set(4) == [-2, -1, 1, 2]
    assert symmetric_set(6) == [-3, -2, -1, 1, 2, 3]
    with pytest.raises(ValueError):
        symmetric_set(5)
    with pytest.raises(ValueError):
        symmetric_set(0)


def test_symmetric_set_is_antipodally_closed():
    for n in (4, 8, 12, 20):
        values = symmetric_set(n)
        assert len(values) == n
        assert sum(values) == 0
        assert set(values) == {-x for x in values}
        # as residues mod n + 2 the set covers everything except 0 and (n + 2) / 2
        covered = {x % (n + 2) for x in values}
        assert covered == set(range(n + 2)) - {0, (n + 2) // 2}


def test_two_pairs():
    p = zero_sum_partition(4, [2, 2])
    assert parts_as_sets(p) == {frozenset({1, -1}), frozenset({2, -2})}


def test_two_triples():
    p = zero_sum_partition(6, [3, 3])
    assert parts_as_sets(p) == {frozenset({1, 2, -3}), frozenset({-1, -2, 3})}


def test_mixed_sizes_validate():
    p = zero_sum_partition(10, [2, 3, 5])
    assert validate_partition(p, sizes=[2, 3, 5]) is None
    assert check_zero_sum_partition(10, [2, 3, 5], p.parts) is None


def test_sizes_order_is_respected():
    p = zero_sum_partition(10, [5, 2, 3])
    assert [len(part) for part in p.parts] == [5, 2, 3]
    sizes = [3, 5, 3, 5, 4, 3, 3]
    p = zero_sum_partition(sum(sizes), sizes)
    assert [len(part) for part in p.parts] == sizes
    for size in set(sizes):
        smallest = [min(abs(x) for x in part) for part in p.parts if len(part) == size]
        assert smallest == sorted(smallest), (size, smallest)


def test_all_triples_needs_backtracking():
    # t = 2 triples admit no mirrored solution {d, k, -(d+k)}, {-d, -k, d+k};
    # the non-mirrored triples P_1, N_1, P_2, N_2 of the construction cover it
    p = zero_sum_partition(12, [3, 3, 3, 3])
    assert validate_partition(p, sizes=[3, 3, 3, 3]) is None
    assert check_zero_sum_partition(12, [3, 3, 3, 3], p.parts) is None


def test_all_triples_up_to_3000():
    # every t, including t = 2, 3 mod 4 where mirrored triples do not exist
    for total in range(6, 3001, 6):
        sizes = [3] * (total // 3)
        p = zero_sum_partition(total, sizes)
        assert check_zero_sum_partition(total, sizes, p.parts) is None, total


def test_every_size_multiset_up_to_24():
    for total in range(4, 26, 2):
        for sizes in integer_partitions(total):
            p = zero_sum_partition(total, list(sizes))
            assert check_zero_sum_partition(total, list(sizes), p.parts) is None, (total, sizes)


def test_input_validation():
    with pytest.raises(ValueError):
        zero_sum_partition(5, [2, 3])
    with pytest.raises(ValueError):
        zero_sum_partition(6, [2, 3])
    with pytest.raises(ValueError):
        zero_sum_partition(6, [1, 5])
    with pytest.raises(ValueError):
        zero_sum_partition(0, [])


def test_determinism():
    a = zero_sum_partition(20, [3, 3, 4, 4, 6])
    b = zero_sum_partition(20, [3, 3, 4, 4, 6])
    assert a == b


def test_validate_partition_reports_first_defect():
    bad = ZeroSumPartition(4, ((1, -2), (2, -1)))
    assert "sum" in validate_partition(bad)
    bad = ZeroSumPartition(4, ((1, -1), (1, -1)))
    assert "more than one part" in validate_partition(bad)
    bad = ZeroSumPartition(4, ((1, -1), (3, -3)))
    assert "union mismatch" in validate_partition(bad)
    bad = ZeroSumPartition(4, ((1, -1, 2, -2),))
    assert validate_partition(bad, sizes=[2, 2]) is not None
    assert validate_partition(ZeroSumPartition(4, ((1, -1), (2, -2)))) is None


def test_case1_sets_smallest():
    system = case1_sets(2, 2)
    assert system.sets == ((0, 2), (1, 3))
    assert system.special_index == 2
    assert validate_partition(system) is None


def test_case1_sets_4_by_2():
    system = case1_sets(4, 2)
    assert system.special_index == 3
    assert 4 in system.sets[0]
    assert 2 in system.sets[2]
    assert validate_partition(system) is None


def test_case1_sets_3_by_4():
    system = case1_sets(3, 4)
    assert system.special_index == 2
    assert 6 in system.sets[0]
    assert 0 in system.sets[1]
    assert 3 in system.sets[1]
    assert validate_partition(system) is None


def test_case1_sets_grid():
    for m in range(2, 9):
        for n in range(2, 9):
            if (m * n) % 4 != 0:
                continue
            system = case1_sets(m, n)
            assert validate_partition(system) is None, (m, n)
            assert system.special_index != 1


def test_case1_sets_rejects_bad_shapes():
    with pytest.raises(ValueError):
        case1_sets(3, 3)
    with pytest.raises(ValueError):
        case1_sets(1, 4)


def test_case1_validator_catches_wrong_special_index():
    system = case1_sets(2, 2)
    tampered = Case1SetSystem(system.outer_count, system.inner_count, system.sets, 1)
    assert "differ from 1" in validate_partition(tampered)


def test_random_partitions_seeded():
    rng = random.Random(20240817)
    for _ in range(120):
        total = 2 * rng.randint(2, 60)
        sizes = []
        left = total
        while left > 0:
            if left in (2, 3) or left <= 3:
                sizes.append(left)
                break
            k = rng.randint(2, min(left - 2, 7))
            if left - k == 1:
                k += 1
            sizes.append(k)
            left -= k
        p = zero_sum_partition(total, sizes)
        assert check_zero_sum_partition(total, sizes, p.parts) is None, (total, sizes)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.data())
def test_partition_property(half_total, data):
    total = 2 * half_total
    sizes = []
    left = total
    while left > 3:
        k = data.draw(st.integers(2, min(left - 2, 6)))
        if left - k == 1:
            k += 1
        sizes.append(k)
        left -= k
    if left:
        sizes.append(left)
    p = zero_sum_partition(total, sizes)
    assert check_zero_sum_partition(total, sizes, p.parts) is None
