"""Dense GF(2) linear algebra on Python int bitsets (bit i = column i)."""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence, Tuple

__all__ = ["solve_affine", "span_iter"]


def solve_affine(rows: Sequence[int], rhs: Sequence[int], n_cols: int,
                 deadline: Optional[float] = None) -> Optional[Tuple[int, List[int]]]:
    """Solve A x = b over GF(2).

    rows are bitsets over n_cols columns, rhs is a 0/1 sequence.  Returns a
    particular solution plus a kernel basis, or None when inconsistent.
    Raises TimeoutError once perf_counter() passes deadline, checked per row.
    """
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs lengths differ")
    aug = [(row << 1) | (b & 1) for row, b in zip(rows, rhs)]
    pivot_of_col: dict[int, int] = {}
    reduced: List[int] = []
    for r in aug:
        if deadline is not None and perf_counter() > deadline:
            raise TimeoutError("GF(2) elimination ran past its deadline")
        for col in sorted(pivot_of_col, reverse=True):
            if (r >> (col + 1)) & 1:
                r ^= reduced[pivot_of_col[col]]
        if r == 1:
            return None
        if r == 0:
            continue
        col = r.bit_length() - 2
        for i, other in enumerate(reduced):
            if (other >> (col + 1)) & 1:
                reduced[i] = other ^ r
        pivot_of_col[col] = len(reduced)
        reduced.append(r)
    particular = 0
    for col, i in pivot_of_col.items():
        if reduced[i] & 1:
            particular |= 1 << col
    basis: List[int] = []
    for free in range(n_cols):
        if free in pivot_of_col:
            continue
        vec = 1 << free
        for col, i in pivot_of_col.items():
            if (reduced[i] >> (free + 1)) & 1:
                vec |= 1 << col
        basis.append(vec)
    return particular, basis


def span_iter(origin: int, basis: Sequence[int], deadline: Optional[float] = None):
    """Yield origin XOR every combination of basis vectors (Gray-code order).

    Raises TimeoutError once perf_counter() passes deadline, checked every
    4096 vectors.
    """
    v = origin
    yield v
    count = 1 << len(basis)
    for i in range(1, count):
        if not i & 4095 and deadline is not None and perf_counter() > deadline:
            raise TimeoutError("GF(2) span walk ran past its deadline")
        v ^= basis[(i & -i).bit_length() - 1]
        yield v
