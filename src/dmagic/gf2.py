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
    # pivot[col] is the reduced row led by column col, shifted left one bit
    # with its right-hand side in bit 0
    pivot: dict[int, int] = {}
    for row, b in zip(rows, rhs):
        if deadline is not None and perf_counter() > deadline:
            raise TimeoutError("GF(2) elimination ran past its deadline")
        r = (row << 1) | (b & 1)
        while r > 1 and r.bit_length() - 2 in pivot:
            r ^= pivot[r.bit_length() - 2]
        if r == 1:
            return None
        if r:
            pivot[r.bit_length() - 2] = r
    # back-substitute, lowest pivot first: each row is cleared of the pivot
    # columns below its own by rows that are already clear of the others
    below = 0
    for col in sorted(pivot):
        r = pivot[col]
        while r & below:
            r ^= pivot[(r & below).bit_length() - 2]
        pivot[col] = r
        below |= 1 << (col + 1)
    particular = sum(1 << col for col, r in pivot.items() if r & 1)
    basis = [(1 << free) | sum(1 << col for col, r in pivot.items() if r >> (free + 1) & 1)
             for free in range(n_cols) if free not in pivot]
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
