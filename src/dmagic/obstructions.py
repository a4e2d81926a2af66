"""Nonexistence arguments: the odd-regular order obstruction and parity counting.

Both checks are necessary-condition filters.  theorem1_check certifies
nonexistence for r-regular graphs with r odd on 2 mod 4 vertices.
parity_feasibility asks, for an even-order graph, whether the vertex parities
of any bijective labeling could make every weight share one parity: a 0/1
vector p with sum-over-neighbors congruent to a constant c at every vertex and
exactly N/2 ones.  If neither c admits such a vector, no labeling can be magic
for any orientation, since weights mod 2 do not depend on arc directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from . import gf2
from .graphs import UndirectedGraph, prism, regularity

__all__ = [
    "KERNEL_CAP",
    "NonexistenceCertificate",
    "ParityWitnessSpace",
    "theorem1_check",
    "parity_feasibility",
    "parity_solutions",
    "prism_nonexistence",
]

REASON_THEOREM1 = "theorem1"
REASON_PARITY = "parity-infeasible"
REASON_SEARCH = "exhausted-search"

# Kernel dimensions above this are not enumerated; the check reports
# "inconclusive" instead of risking a false certificate.
KERNEL_CAP = 24


@dataclass(frozen=True)
class NonexistenceCertificate:
    """A reason no orientation of the graph admits a magic labeling."""

    graph: UndirectedGraph
    reason: str
    details: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ParityWitnessSpace:
    """Feasibility of the weight-parity system per target constant c.

    feasible[c] is True/False when decided, None when the kernel was too large
    to enumerate (never reported as a certificate).
    """

    order: int
    feasible: Tuple[Optional[bool], Optional[bool]]

    @property
    def inconclusive(self) -> bool:
        return any(f is None for f in self.feasible)

    @property
    def certifies_nonexistence(self) -> bool:
        return self.feasible[0] is False and self.feasible[1] is False


def theorem1_check(graph: UndirectedGraph) -> Optional[NonexistenceCertificate]:
    """Certificate for odd-regular graphs on 2 mod 4 vertices, else None."""
    n = graph.vertex_count
    r = regularity(graph)
    if r is None or r % 2 == 0 or n % 4 != 2:
        return None
    return NonexistenceCertificate(graph, REASON_THEOREM1, {"r": r, "order": n})


def _neighbor_masks(graph: UndirectedGraph) -> List[int]:
    masks = [0] * graph.vertex_count
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _parity_vectors(graph: UndirectedGraph, kernel_cap: int,
                    require_cardinality: bool = True) -> Iterator[Tuple[int, Optional[Iterator[int]]]]:
    """Yield (c, vectors) for c = 0 then 1: the solutions of the parity system.

    vectors iterates the solution bitmasks, only those with exactly N/2 ones
    under require_cardinality; it is None when the kernel exceeds kernel_cap.
    """
    n = graph.vertex_count
    rows = _neighbor_masks(graph)
    target_ones = n // 2
    for c in (0, 1):
        solved = gf2.solve_affine(rows, [c] * n, n)
        if solved is None:
            yield c, iter(())
        elif len(solved[1]) > kernel_cap:
            yield c, None
        else:
            yield c, (v for v in gf2.span_iter(*solved)
                      if not require_cardinality or v.bit_count() == target_ones)


def parity_solutions(graph: UndirectedGraph, *, kernel_cap: int = KERNEL_CAP,
                     require_cardinality: bool = True,
                     max_solutions: Optional[int] = None) -> Optional[Dict[int, List[int]]]:
    """All parity vectors solving the weight-parity system, keyed by constant c.

    Vectors are vertex bitmasks.  With require_cardinality, only vectors with
    exactly N/2 ones are kept (the count of odd labels in any bijection onto
    Z_N for even N).  Returns None when a kernel exceeds kernel_cap or a
    solution list would exceed max_solutions.
    """
    if graph.vertex_count % 2 != 0:
        return None
    out: Dict[int, List[int]] = {}
    for c, vectors in _parity_vectors(graph, kernel_cap, require_cardinality):
        if vectors is None:
            return None
        out[c] = list(islice(vectors, None if max_solutions is None else max_solutions + 1))
        if max_solutions is not None and len(out[c]) > max_solutions:
            return None
    return out


def parity_feasibility(graph: UndirectedGraph, *,
                       kernel_cap: int = KERNEL_CAP) -> Optional[ParityWitnessSpace]:
    """Feasibility of the parity system for an even-order graph; None when odd."""
    n = graph.vertex_count
    if n % 2 != 0:
        return None
    feasible = [None if vectors is None else next(vectors, None) is not None
                for _, vectors in _parity_vectors(graph, kernel_cap)]
    return ParityWitnessSpace(n, (feasible[0], feasible[1]))


def prism_nonexistence(n: int, *, cross_check: bool = False,
                       search_config: Optional[object] = None) -> Optional[NonexistenceCertificate]:
    """Nonexistence certificate for the prism over an n-cycle, or None if unproven.

    Odd n falls to theorem1_check (order 2n = 2 mod 4, 3-regular).  Even n is
    settled by parity_feasibility.  With cross_check (n <= 5), the verdict is
    additionally confirmed by exhaustive search; a search witness would be a
    defect and raises.
    """
    graph = prism(n)
    cert: Optional[NonexistenceCertificate]
    if n % 2 == 1:
        cert = theorem1_check(graph)
        if cert is None:
            raise RuntimeError(f"prism({n}) unexpectedly fails the regularity check")
    else:
        space = parity_feasibility(graph)
        if space is not None and space.certifies_nonexistence:
            cert = NonexistenceCertificate(graph, REASON_PARITY,
                                           {"feasible": space.feasible, "order": 2 * n})
        else:
            cert = _search_fallback(graph, search_config)
    if cert is not None and cross_check and n <= 5:
        _confirm_by_search(graph, search_config)
    return cert


def _search_fallback(graph: UndirectedGraph,
                     search_config: Optional[object]) -> Optional[NonexistenceCertificate]:
    from .search import SearchConfig, VERDICT_EXHAUSTED, decide_existence

    outcome = decide_existence(graph, search_config or SearchConfig())
    if outcome.verdict == VERDICT_EXHAUSTED:
        return NonexistenceCertificate(graph, REASON_SEARCH,
                                       {"nodes": outcome.stats.nodes,
                                        "elapsed": outcome.stats.elapsed})
    return None


def _confirm_by_search(graph: UndirectedGraph, search_config: Optional[object]) -> None:
    from .search import SearchConfig, VERDICT_WITNESS, decide_existence

    outcome = decide_existence(graph, search_config or SearchConfig())
    if outcome.verdict == VERDICT_WITNESS:
        raise RuntimeError(
            "exhaustive search found a witness on a graph certified not magic; this is a defect"
        )
