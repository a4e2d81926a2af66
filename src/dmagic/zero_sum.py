"""Zero-sum partitions of symmetric integer sets and the derived residue set systems.

The symmetric set for even N is {-N/2, ..., -1, 1, ..., N/2}.  It can always be
split into parts of prescribed sizes (each at least 2) with every part summing
to zero.  The constructor here uses a greedy fast path (antipodal pairs, plus
one mirrored zero-sum triple per pair of odd-size parts, triples anchored on
descending difference values) and falls back to a complete backtracking
assignment on any dead end.  Correctness rests on validate_partition, not on
the heuristic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "symmetric_set",
    "ZeroSumPartition",
    "Case1SetSystem",
    "zero_sum_partition",
    "case1_sets",
    "validate_partition",
]


def symmetric_set(n: int) -> List[int]:
    """The set {-n/2, ..., -1, 1, ..., n/2} for even n, sorted ascending."""
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"symmetric_set needs a positive even size, got {n}")
    half = n // 2
    return list(range(-half, 0)) + list(range(1, half + 1))


@dataclass(frozen=True)
class ZeroSumPartition:
    """Parts of the symmetric set for even size, each summing to zero as integers."""

    size: int
    parts: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Case1SetSystem:
    """Residue sets A^1..A^m mod m*n used to label the blocks of a blown-up clique.

    A^1 contains mn/2 and sums to mn/2; every other set sums to 0; the set with
    1-based index special_index contains mn/4 and is never the first one.
    """

    outer_count: int
    inner_count: int
    sets: Tuple[Tuple[int, ...], ...]
    special_index: int


def _canonical_part_order(parts: List[List[int]]) -> List[Tuple[int, ...]]:
    keyed = [tuple(sorted(p)) for p in parts]
    return sorted(keyed, key=lambda p: (len(p), min(abs(x) for x in p), p))


def _sum_triples(half: int, count: int, node_cap: int = 200_000) -> Optional[List[Tuple[int, int, int]]]:
    """Disjoint triples (d, k, k + d) in {1..half} with d = count..1, k > d.

    Each triple supplies one mirrored zero-sum pair {d, k, -(k-d)} later on.
    Difference-descending with ascending k succeeds without backtracking on
    tight pools where a smallest-first pairing strategy exhausts the low
    values; a node cap keeps pathological charts from stalling before the
    complete fallback takes over.
    """
    available = set(range(1, half + 1))
    chosen: List[Tuple[int, int, int]] = []
    nodes = 0

    def rec(d: int) -> bool:
        nonlocal nodes
        if d == 0:
            return True
        if d not in available:
            return False
        for k in range(d + 1, half - d + 1):
            if k in available and k + d in available:
                nodes += 1
                if nodes > node_cap:
                    return False
                available.difference_update((d, k, k + d))
                chosen.append((d, k, k + d))
                if rec(d - 1):
                    return True
                chosen.pop()
                available.update((d, k, k + d))
        return False

    return chosen if rec(count) else None


def _greedy(half: int, sizes_sorted: Sequence[int]) -> Optional[List[List[int]]]:
    """Antipodal pairs plus mirrored sum-triples; None on dead end."""
    parts: List[List[int]] = [[] for _ in sizes_sorted]
    odd_indices = [i for i, s in enumerate(sizes_sorted) if s % 2 == 1]
    used = set()
    if odd_indices:
        triples = _sum_triples(half, len(odd_indices) // 2)
        if triples is None:
            return None
        for (d, k, c), first, second in zip(triples, odd_indices[0::2], odd_indices[1::2]):
            used.update((d, k, c))
            parts[first].extend([d, k, -c])
            parts[second].extend([-d, -k, c])
    pool = [x for x in range(1, half + 1) if x not in used]
    at = 0
    for i, s in enumerate(sizes_sorted):
        need = (s - len(parts[i])) // 2
        for _ in range(need):
            if at >= len(pool):
                return None
            x = pool[at]
            at += 1
            parts[i].extend([x, -x])
    if at != len(pool):
        return None
    return parts


def _backtrack(half: int, sizes: Sequence[int]) -> Optional[List[List[int]]]:
    """Complete search assigning elements (largest magnitude first) to parts."""
    elems: List[int] = []
    for mag in range(half, 0, -1):
        elems.append(mag)
        elems.append(-mag)
    total = len(elems)
    index_of = {v: i for i, v in enumerate(elems)}
    suffix_sorted = [sorted(elems[i:]) for i in range(total + 1)]
    suffix_prefix = [list(itertools.accumulate(s, initial=0)) for s in suffix_sorted]

    def feasible(part_sum: int, slots: int, next_i: int) -> bool:
        if slots == 0:
            return part_sum == 0
        avail = suffix_sorted[next_i]
        if slots > len(avail):
            return False
        if slots == 1:
            need = -part_sum
            return need in index_of and index_of[need] >= next_i
        ps = suffix_prefix[next_i]
        smallest = ps[slots]
        largest = ps[len(avail)] - ps[len(avail) - slots]
        return part_sum + smallest <= 0 <= part_sum + largest

    open_sizes: List[int] = []
    open_sums: List[int] = []
    open_members: List[List[int]] = []
    unopened: Dict[int, int] = {}
    for s in sizes:
        unopened[s] = unopened.get(s, 0) + 1

    def rec(i: int) -> bool:
        if i == total:
            return all(not unopened[s] for s in unopened) and all(
                open_sums[j] == 0 and len(open_members[j]) == open_sizes[j]
                for j in range(len(open_sizes))
            )
        v = elems[i]
        for j in range(len(open_sizes)):
            room = open_sizes[j] - len(open_members[j])
            if room == 0:
                continue
            new_sum = open_sums[j] + v
            if not feasible(new_sum, room - 1, i + 1):
                continue
            open_members[j].append(v)
            open_sums[j] = new_sum
            if rec(i + 1):
                return True
            open_members[j].pop()
            open_sums[j] = new_sum - v
        for s in sorted(unopened, reverse=True):
            if unopened[s] == 0:
                continue
            if not feasible(v, s - 1, i + 1):
                continue
            unopened[s] -= 1
            open_sizes.append(s)
            open_sums.append(v)
            open_members.append([v])
            if rec(i + 1):
                return True
            open_members.pop()
            open_sums.pop()
            open_sizes.pop()
            unopened[s] += 1
        return False

    if rec(0):
        return open_members
    return None


def zero_sum_partition(size: int, sizes: Sequence[int]) -> ZeroSumPartition:
    """Partition {-size/2..-1, 1..size/2} into zero-sum parts of the given sizes.

    Parts in the result line up with the requested sizes; among equal sizes the
    order is deterministic (smallest absolute element first).
    """
    sizes = [int(s) for s in sizes]
    if size <= 0 or size % 2 != 0:
        raise ValueError(f"size must be a positive even integer, got {size}")
    if any(s < 2 for s in sizes):
        raise ValueError(f"every part size must be at least 2, got {sizes}")
    if sum(sizes) != size:
        raise ValueError(f"part sizes must sum to {size}, got sum {sum(sizes)}")
    half = size // 2
    sizes_sorted = sorted(sizes)
    parts = _greedy(half, sizes_sorted)
    if parts is None:
        parts = _backtrack(half, sizes)
    if parts is None:
        raise RuntimeError(
            f"no zero-sum partition found for size={size}, sizes={sizes}; this is a defect"
        )
    canonical = _canonical_part_order(parts)
    by_size: Dict[int, List[Tuple[int, ...]]] = {}
    for p in canonical:
        by_size.setdefault(len(p), []).append(p)
    ordered = []
    taken: Dict[int, int] = {}
    for s in sizes:
        k = taken.get(s, 0)
        taken[s] = k + 1
        ordered.append(by_size[s][k])
    result = ZeroSumPartition(size, tuple(ordered))
    problem = validate_partition(result, sizes=sizes)
    if problem is not None:
        raise RuntimeError(f"constructed partition fails validation: {problem}")
    return result


def case1_sets(m: int, n: int) -> Case1SetSystem:
    """Residue set system for the blown-up clique when m*n is divisible by 4."""
    if m < 2 or n < 2:
        raise ValueError(f"need m >= 2 and n >= 2, got m={m}, n={n}")
    order = m * n
    if order % 4 != 0:
        raise ValueError(f"m*n must be divisible by 4, got {order}")
    half = order // 2
    quarter = order // 4
    if n == 2:
        partition = zero_sum_partition(order - 2, [2] * (m - 1))
        raw_sets: List[List[int]] = [[0, half]]
        for p in partition.parts:
            raw_sets.append(sorted(x % order for x in p))
    else:
        partition = zero_sum_partition(order - 2, [n - 1, n - 1] + [n] * (m - 2))
        first, second = list(partition.parts[0]), list(partition.parts[1])
        if quarter in first:
            first, second = second, first
        raw_sets = [sorted(x % order for x in first) + [half]]
        raw_sets.append(sorted([x % order for x in second] + [0]))
        for p in partition.parts[2:]:
            raw_sets.append(sorted(x % order for x in p))
        raw_sets[0].sort()
    special = next(i for i, s in enumerate(raw_sets, start=1) if quarter in s)
    system = Case1SetSystem(m, n, tuple(tuple(sorted(s)) for s in raw_sets), special)
    problem = validate_partition(system)
    if problem is not None:
        raise RuntimeError(f"constructed set system fails validation: {problem}")
    return system


def validate_partition(obj: Union[ZeroSumPartition, Case1SetSystem],
                       sizes: Optional[Sequence[int]] = None) -> Optional[str]:
    """Return None if the object satisfies its invariants, else the first violation."""
    if isinstance(obj, ZeroSumPartition):
        if obj.size <= 0 or obj.size % 2 != 0:
            return f"size {obj.size} is not a positive even integer"
        expected = set(symmetric_set(obj.size))
        seen: List[int] = []
        for i, part in enumerate(obj.parts):
            if len(part) < 2:
                return f"part {i} has size {len(part)} < 2"
            if sum(part) != 0:
                return f"part {i} sum {sum(part)} != 0"
            seen.extend(part)
        if sizes is not None:
            got = [len(p) for p in obj.parts]
            if got != [int(s) for s in sizes]:
                return f"part sizes {got} do not match requested {list(sizes)}"
        if len(seen) != len(set(seen)):
            dup = next(x for x in seen if seen.count(x) > 1)
            return f"element {dup} appears in more than one part"
        if set(seen) != expected:
            missing = sorted(expected - set(seen))
            extra = sorted(set(seen) - expected)
            return f"union mismatch: missing {missing}, extra {extra}"
        return None
    if isinstance(obj, Case1SetSystem):
        m, n = obj.outer_count, obj.inner_count
        order = m * n
        if order % 4 != 0:
            return f"m*n = {order} is not divisible by 4"
        if len(obj.sets) != m:
            return f"expected {m} sets, got {len(obj.sets)}"
        seen = []
        for i, s in enumerate(obj.sets, start=1):
            if len(s) != n:
                return f"set {i} has size {len(s)} != {n}"
            if any(not 0 <= x < order for x in s):
                return f"set {i} contains a value outside 0..{order - 1}"
            total = sum(s) % order
            want = order // 2 if i == 1 else 0
            if total != want:
                return f"set {i} residue-sum {total} != {want}"
            seen.extend(s)
        if sorted(seen) != list(range(order)):
            return "sets do not partition the residues 0..m*n-1"
        if order // 2 not in obj.sets[0]:
            return f"set 1 must contain {order // 2}"
        if obj.special_index == 1:
            return "special index q must differ from 1"
        if not 1 <= obj.special_index <= m:
            return f"special index {obj.special_index} out of range"
        if order // 4 not in obj.sets[obj.special_index - 1]:
            return f"set {obj.special_index} must contain {order // 4}"
        return None
    return f"unsupported object type {type(obj).__name__}"
