"""Constructive labelings for complete graphs and blown-up cliques.

construct_case1 handles orders divisible by 4; construct_case2 handles an odd
number of blocks of any size, and construct_complete odd complete graphs, both
through the rotational tournament with identity labels.  Together with the
theorem1 and parity obstructions they decide every cell of the blown-up clique
family.  Every constructor re-verifies its output before returning; an
unverified certificate is never produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .graphs import Orientation, UndirectedGraph, complete, empty_graph, lexicographic
from .verifier import Labeling, MagicCertificate, Violation, verify
from .zero_sum import case1_sets

__all__ = [
    "FamilyDecision",
    "STATUS_MAGIC",
    "STATUS_NOT_MAGIC",
    "construct_complete",
    "construct_case1",
    "construct_case2",
    "construct_empty",
    "case2_expected_mu",
    "decide_kmokn",
    "kmokn_graph",
]

STATUS_MAGIC = "magic"
STATUS_NOT_MAGIC = "not-magic"


@dataclass(frozen=True)
class FamilyDecision:
    """Outcome for one (m, n) cell of the blown-up clique family."""

    m: int
    n: int
    status: str
    method: Optional[str] = None
    obstruction: Optional[str] = None
    certificate: Optional[MagicCertificate] = None


def _checked(graph: UndirectedGraph, orientation: Orientation, labeling: Labeling) -> MagicCertificate:
    result = verify(graph, orientation, labeling)
    if isinstance(result, Violation):
        raise RuntimeError(
            f"constructed labeling is not magic: vertex {result.vertex} has weight "
            f"{result.weight}, expected {result.expected}; this is a defect"
        )
    return result


def _rotational(graph: UndirectedGraph, blocks: int, size: int) -> MagicCertificate:
    """Identity labels on consecutive blocks of size vertices, oriented by block.

    Block l points into block k exactly when k - l mod blocks lies in
    1..(blocks-1)/2 (a rotational tournament on the blocks).
    """
    window = (blocks - 1) // 2
    bits = tuple(0 if (v // size - u // size) % blocks <= window else 1 for u, v in graph.edges)
    order = graph.vertex_count
    return _checked(graph, Orientation(graph, bits), Labeling(order, tuple(range(order))))


def construct_complete(n: int) -> MagicCertificate:
    """Rotational tournament on an odd complete graph, labeled by vertex index."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n % 2 == 0:
        raise ValueError(f"no such labeling exists for even complete graphs, got n={n}")
    return _rotational(complete(n), n, 1)


def construct_empty(n: int) -> MagicCertificate:
    """Identity labeling of the edgeless graph; every weight is the empty sum."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    graph = empty_graph(n)
    return _checked(graph, Orientation(graph, ()), Labeling(n, tuple(range(n))))


def kmokn_graph(m: int, n: int) -> UndirectedGraph:
    """The blown-up clique: m mutually joined independent blocks of n vertices."""
    return lexicographic(complete(m), empty_graph(n))


def construct_case1(m: int, n: int) -> MagicCertificate:
    """Labeling of the blown-up clique on m*n vertices when 4 divides m*n.

    Block k receives the residue set A^k from case1_sets.  The first vertex of
    block 1 gets the label mn/2 and the first vertex of the special block q
    gets mn/4; edges between blocks 1 and q point into that special vertex and
    out of the rest of block q, and every other block pair is oriented
    uniformly from the lower-indexed block to the higher.
    """
    system = case1_sets(m, n)
    order = m * n
    half, quarter = order // 2, order // 4
    q = system.special_index
    graph = kmokn_graph(m, n)
    labels: List[int] = [0] * order
    for k in range(1, m + 1):
        block = sorted(system.sets[k - 1])
        start = (k - 1) * n
        pinned = half if k == 1 else quarter if k == q else None
        if pinned is None:
            assigned = block
        else:
            assigned = [pinned] + [x for x in block if x != pinned]
        for j, x in enumerate(assigned):
            labels[start + j] = x
    special_vertex = (q - 1) * n
    bits = []
    for u, v in graph.edges:
        bu, bv = u // n + 1, v // n + 1
        if bu == 1 and bv == q:
            bits.append(0 if v == special_vertex else 1)
        else:
            bits.append(0)
    return _checked(graph, Orientation(graph, tuple(bits)), Labeling(order, tuple(labels)))


def construct_case2(m: int, n: int) -> MagicCertificate:
    """Labeling of the blown-up clique for odd m >= 3 and any n >= 1.

    Vertex i of block k is labeled (i-1) + (k-1)n, and block l points into
    block k exactly when k - l mod m lies in 1..(m-1)/2.  Block l's labels
    sum to n^2 (l-1) + n(n-1)/2, and every block has (m-1)/2 in-blocks and
    as many out-blocks, so each vertex of block k weighs n^2 times a sum of
    (l-1) terms that is -(m^2-1)/4 mod m for every k: every weight is
    case2_expected_mu(m, n) mod mn.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"need odd m >= 3, got m={m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return _rotational(kmokn_graph(m, n), m, n)


def case2_expected_mu(m: int, n: int) -> int:
    """The verified constant weight of construct_case2 as a residue mod m*n."""
    return (-(n * n * (m * m - 1)) // 4) % (m * n)


def decide_kmokn(m: int, n: int) -> FamilyDecision:
    """Decide the blown-up clique family cell (m, n); every cell is decided.

    Magic decisions come with a verified certificate: complete for odd m and
    n = 1, empty for m = 1, case1 when 4 divides mn, and case2 for the rest,
    all of which have odd m.  Not-magic cells are those where theorem1
    applies (odd n with m = 2 mod 4) and the even complete graphs with
    m = 0 mod 4, where the only solutions of the parity system are constant,
    so none has the m/2 odd labels a labeling needs (reason "parity").
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if n == 1:
        if m % 2 == 1:
            return FamilyDecision(m, n, STATUS_MAGIC, method="complete",
                                  certificate=construct_complete(m))
        obstruction = "theorem1" if m % 4 == 2 else "parity"
        return FamilyDecision(m, n, STATUS_NOT_MAGIC, obstruction=obstruction)
    if m == 1:
        return FamilyDecision(m, n, STATUS_MAGIC, method="empty",
                              certificate=construct_empty(n))
    if n % 2 == 1 and m % 4 == 2:
        return FamilyDecision(m, n, STATUS_NOT_MAGIC, obstruction="theorem1")
    if (m * n) % 4 == 0:
        return FamilyDecision(m, n, STATUS_MAGIC, method="case1",
                              certificate=construct_case1(m, n))
    return FamilyDecision(m, n, STATUS_MAGIC, method="case2",
                          certificate=construct_case2(m, n))
