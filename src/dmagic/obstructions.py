"""Nonexistence arguments: the odd-regular order obstruction and parity counting.

theorem1_check and parity_feasibility each return a NonexistenceCertificate
when their argument applies and None otherwise; None proves nothing.
theorem1_check certifies r-regular graphs with r odd on 2 mod 4 vertices.
parity_feasibility asks, for an even-order graph, whether the vertex parities
of any bijective labeling could make every weight share one parity: a 0/1
vector p with sum-over-neighbors congruent to a constant c at every vertex and
exactly N/2 ones.  If neither c admits such a vector, no labeling can be magic
for any orientation, since weights mod 2 do not depend on arc directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Mapping, Optional

from . import gf2
from .graphs import UndirectedGraph, prism, regularity

__all__ = [
    "NonexistenceCertificate",
    "theorem1_check",
    "parity_feasibility",
    "parity_solutions",
    "prism_nonexistence",
]

REASON_THEOREM1 = "theorem1"
REASON_PARITY = "parity-infeasible"

# Kernel dimensions above this are not enumerated: the parity routines return
# None, never a certificate.
KERNEL_CAP = 24


@dataclass(frozen=True)
class NonexistenceCertificate:
    """A reason no orientation of the graph admits a magic labeling."""

    graph: UndirectedGraph
    reason: str
    details: Mapping[str, object] = field(default_factory=dict)


def theorem1_check(graph: UndirectedGraph) -> Optional[NonexistenceCertificate]:
    """Certificate for odd-regular graphs on 2 mod 4 vertices, else None."""
    n = graph.vertex_count
    r = regularity(graph)
    if r is None or r % 2 == 0 or n % 4 != 2:
        return None
    return NonexistenceCertificate(graph, REASON_THEOREM1, {"r": r, "order": n})


def parity_solutions(graph: UndirectedGraph, *, max_solutions: Optional[int] = None,
                     deadline: Optional[float] = None) -> Optional[Dict[int, List[int]]]:
    """All parity vectors solving the weight-parity system, keyed by constant c.

    Vectors are vertex bitmasks with exactly N/2 ones (the count of odd labels
    in any bijection onto Z_N for even N).  Returns None for odd N, or when a
    kernel exceeds KERNEL_CAP or a solution list would exceed max_solutions.
    Raises TimeoutError once perf_counter() passes deadline.
    """
    n = graph.vertex_count
    if n % 2 != 0:
        return None
    rows = [sum(1 << w for w in nb) for nb in graph._nbrs]  # neighbour masks
    limit = None if max_solutions is None else max_solutions + 1
    out: Dict[int, List[int]] = {}
    for c in (0, 1):
        solved = gf2.solve_affine(rows, [c] * n, n, deadline)
        if solved is None:
            out[c] = []
            continue
        if len(solved[1]) > KERNEL_CAP:
            return None
        vectors = (v for v in gf2.span_iter(*solved, deadline) if v.bit_count() == n // 2)
        out[c] = list(islice(vectors, limit))
        if max_solutions is not None and len(out[c]) > max_solutions:
            return None
    return out


def parity_feasibility(graph: UndirectedGraph) -> Optional[NonexistenceCertificate]:
    """Certificate when neither constant c has a parity vector with N/2 ones, else None."""
    if parity_solutions(graph, max_solutions=0) is None:
        return None
    return NonexistenceCertificate(graph, REASON_PARITY)


def prism_nonexistence(n: int) -> NonexistenceCertificate:
    """Nonexistence certificate for the prism over an n-cycle, n >= 3.

    Odd n falls to theorem1_check: the prism is 3-regular on 2n = 2 mod 4
    vertices.  Even n falls to parity_feasibility, by this argument.  Write
    the rails as u_0..u_{n-1} and w_0..w_{n-1} with rungs u_i w_i, and read
    them in zigzag order: s_i = u_i and t_i = w_i for even i, s_i = w_i and
    t_i = u_i for odd i (consistent around the cycle since n is even).  The
    neighbours of s_i are then t_{i-1}, t_i, t_{i+1}, and symmetrically, so
    the parity system says x[i-1] + x[i] + x[i+1] = c (mod 2) for both rail
    sequences x = s, t.  Subtracting consecutive equations gives
    x[i+2] = x[i-1]: each sequence has period 3.
      - If 3 does not divide n, periods 3 and n force x constant, and 3x = c
        makes every parity c: 0 or 2n ones.
      - If 3 divides n, each sequence repeats a pattern p of weight |p| = c
        (mod 2), so the ones number (n/3)(|p_s| + |p_t|), where the sum is
        even and so never 3.
    Neither case has the n odd labels a bijection onto Z_2n needs, for c = 0
    or 1.  The kernel has dimension 0 or 4, far below KERNEL_CAP, so the
    check always decides.  A prism that escapes both obstructions would be a
    defect and raises.
    """
    graph = prism(n)
    cert = theorem1_check(graph) or parity_feasibility(graph)
    if cert is None:
        raise RuntimeError(f"prism({n}) escapes its obstruction; this is a defect")
    return cert
