"""Zero-sum partitions of symmetric integer sets and the derived residue set systems.

The symmetric set for even N is {-N/2, ..., -1, 1, ..., N/2}.  It can always be
split into parts of prescribed sizes (each at least 2) with every part summing
to zero, by one closed-form construction.  The number of odd sizes is even,
say 2t, because the sizes sum to N.  For i = 1..t take the two triples

    P_i = {i, 3t+1-2i, -(3t+1-i)}        N_i = {-i, -(t+i), t+2i}.

Proof that they, together with antipodal pairs {x, -x}, do the job:

- each triple sums to 0;
- positives: the P_i give 1..t and t+1, t+3, ..., 3t-1; the N_i give
  t+2, t+4, ..., 3t; together that is 1..3t, each once;
- negatives: the P_i give -(2t+1..3t); the N_i give -(1..t) and
  -(t+1..2t); together that is -1..-3t, each once;
- every odd part has at least 3 elements, so 6t <= N; the magnitudes
  3t+1..N/2 are left over, and as pairs {x, -x} they fill exactly the
  N - 6t remaining slots.

The j-th odd part takes the j-th triple of P_1, N_1, P_2, N_2, ...; then
every part, in the requested order, takes pairs in ascending magnitude until
it is full.  This is O(N) with no search; validate_partition re-checks the
result anyway.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

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


def _triples(t: int) -> Iterator[Tuple[int, int, int]]:
    """The zero-sum triples P_1, N_1, ..., P_t, N_t that partition +-{1..3t}."""
    for i in range(1, t + 1):
        yield (i, 3 * t + 1 - 2 * i, -(3 * t + 1 - i))
        yield (-i, -(t + i), t + 2 * i)


def zero_sum_partition(size: int, sizes: Sequence[int]) -> ZeroSumPartition:
    """Partition {-size/2..-1, 1..size/2} into zero-sum parts of the given sizes.

    Part j of the result has size sizes[j] and is sorted ascending.  Odd parts
    take the triples P_1, N_1, P_2, N_2, ... in the requested order, and every
    part then takes pairs {-x, x} with x ascending from 3t+1, so among parts of
    equal size the smallest |x| never decreases.
    """
    sizes = [int(s) for s in sizes]
    if size <= 0 or size % 2 != 0:
        raise ValueError(f"size must be a positive even integer, got {size}")
    if any(s < 2 for s in sizes):
        raise ValueError(f"every part size must be at least 2, got {sizes}")
    if sum(sizes) != size:
        raise ValueError(f"part sizes must sum to {size}, got sum {sum(sizes)}")
    t = sum(s % 2 for s in sizes) // 2
    triples = _triples(t)
    magnitudes = itertools.count(3 * t + 1)
    parts = []
    for s in sizes:
        part = list(next(triples)) if s % 2 else []
        for x in itertools.islice(magnitudes, (s - len(part)) // 2):
            part += (-x, x)
        parts.append(tuple(sorted(part)))
    result = ZeroSumPartition(size, tuple(parts))
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
