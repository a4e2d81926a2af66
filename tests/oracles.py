"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the definitions, without calling
into the library's own algorithms: brute-force enumeration over permutations,
orientations, and parity vectors.  Keep these slow and obvious.
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import gcd
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from dmagic.graphs import Orientation
from dmagic.verifier import Labeling


@dataclass(frozen=True)
class ProductIndexing:
    """1-based coordinates (k, i) <-> flat vertex ids for a two-level product.

    Vertex (k, i), with k in 1..outer_count and i in 1..inner_count, gets id
    (k - 1) * inner_count + (i - 1), so inner blocks are consecutive.
    """

    outer_count: int
    inner_count: int

    def __post_init__(self) -> None:
        if self.outer_count < 1 or self.inner_count < 1:
            raise ValueError("product indexing needs positive block counts")

    def vertex(self, k: int, i: int) -> int:
        if not (1 <= k <= self.outer_count and 1 <= i <= self.inner_count):
            raise ValueError(f"coordinates ({k}, {i}) out of range")
        return (k - 1) * self.inner_count + (i - 1)

    def coords(self, vertex_id: int) -> Tuple[int, int]:
        if not 0 <= vertex_id < self.outer_count * self.inner_count:
            raise ValueError(f"vertex id {vertex_id} out of range")
        return vertex_id // self.inner_count + 1, vertex_id % self.inner_count + 1


def adjacency(vertex_count: int, edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Each vertex's neighbours, ascending, from the edge list, an edge at a
    time."""
    adj: List[List[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(nb) for nb in adj]


def graph_text(vertex_count: int, edges: Sequence[Tuple[int, int]]) -> str:
    """Graph text from the format's definition: the header, then one
    'e u v' line per edge."""
    return f"graph {vertex_count} {len(edges)}\n" + "".join("e %d %d\n" % e for e in edges)


def certificate_text(order: int, mu: int, labels: Sequence[int],
                     edges: Sequence[Tuple[int, int]], bits: Sequence[int]) -> str:
    """Certificate text from the format's definition: the header, the weight
    convention, mu, one 'l v x' line per vertex, then one 'a tail head' line
    per edge in edge order, bit 0 orienting (u, v) as u -> v."""
    lines = [f"certificate {order}",
             "# weight convention: in-neighbor labels add, out-neighbor labels subtract",
             f"mu {mu}"]
    lines += ["l %d %d" % (v, x) for v, x in enumerate(labels)]
    lines += ["a %d %d" % ((u, v) if b == 0 else (v, u)) for (u, v), b in zip(edges, bits)]
    return "".join(line + "\n" for line in lines)


def units(modulus: int) -> List[int]:
    """All multiplicatively invertible residues mod the given modulus."""
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return [a for a in range(modulus) if gcd(a, modulus) == 1]


def scaled(labeling: Labeling, unit: int) -> Labeling:
    """Every label multiplied by a fixed residue (a bijection when it is a unit)."""
    return Labeling(labeling.modulus, tuple(x * unit % labeling.modulus for x in labeling.labels))


def reversed_orientation(orientation: Orientation) -> Orientation:
    """The same edges with every arc flipped."""
    return Orientation(orientation.graph, tuple(1 - b for b in orientation.bits))


def symmetric_values(size: int) -> List[int]:
    half = size // 2
    return [x for x in range(-half, half + 1) if x != 0]


def check_zero_sum_partition(size: int, sizes: Sequence[int],
                             parts: Sequence[Sequence[int]]) -> Optional[str]:
    """First defect of a claimed partition, or None; independent of the library."""
    if size <= 0 or size % 2 != 0:
        return "size must be positive and even"
    if [len(p) for p in parts] != list(sizes):
        return f"part sizes {[len(p) for p in parts]} != requested {list(sizes)}"
    flat: List[int] = []
    for i, part in enumerate(parts):
        if sum(part) != 0:
            return f"part {i} sums to {sum(part)}"
        flat.extend(part)
    if sorted(flat) != sorted(symmetric_values(size)):
        return "parts do not cover the symmetric set exactly once"
    return None


def integer_partitions(total: int, minimum: int = 2) -> Iterator[Tuple[int, ...]]:
    """All multisets of integers >= minimum summing to total, descending order."""
    if total == 0:
        yield ()
        return
    for first in range(total, minimum - 1, -1):
        rest = total - first
        if rest == 0:
            yield (first,)
        elif rest >= minimum:
            for tail in integer_partitions(rest, minimum):
                if not tail or tail[0] <= first:
                    yield (first,) + tail


def brute_zero_sum_exists(size: int, sizes: Sequence[int]) -> bool:
    """Exhaustively decide whether a zero-sum partition with these sizes exists."""
    values = symmetric_values(size)

    def extend(remaining: Tuple[int, ...], sizes_left: Sequence[int]) -> bool:
        if not sizes_left:
            return not remaining
        k = sizes_left[0]
        # anchor on the smallest remaining value to kill permutation symmetry
        anchor = remaining[0]
        rest = remaining[1:]
        for combo in combinations(rest, k - 1):
            if anchor + sum(combo) != 0:
                continue
            chosen = set(combo)
            new_remaining = tuple(x for x in rest if x not in chosen)
            if extend(new_remaining, sizes_left[1:]):
                return True
        return False

    return extend(tuple(sorted(values)), sorted(sizes, reverse=True))


def brute_parity_feasible(vertex_count: int, edges: Sequence[Tuple[int, int]],
                          c: int) -> bool:
    """Is there a 0/1 vector p with exactly N/2 ones and sum of p over every
    neighborhood congruent to c mod 2?  Pure enumeration."""
    n = vertex_count
    if n % 2 != 0:
        raise ValueError("parity system only applies to even order")
    neighbors: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    for ones in combinations(range(n), n // 2):
        chosen = set(ones)
        if all(sum(1 for y in neighbors[x] if y in chosen) % 2 == c for x in range(n)):
            return True
    return False


def brute_parity_feasible_numpy(vertex_count: int, edges: Sequence[Tuple[int, int]],
                                c: int) -> bool:
    """Same decision, vectorized; used for orders around 18-20."""
    import numpy as np

    n = vertex_count
    if n % 2 != 0:
        raise ValueError("parity system only applies to even order")
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = 1
        adj[v, u] = 1
    vectors = np.array(list(combinations(range(n), n // 2)), dtype=np.int64)
    p = np.zeros((len(vectors), n), dtype=np.uint8)
    rows = np.repeat(np.arange(len(vectors)), n // 2)
    p[rows, vectors.ravel()] = 1
    weights = (p @ adj.T) % 2
    return bool(np.any(np.all(weights == c, axis=1)))


def brute_magic_search(vertex_count: int,
                       edges: Sequence[Tuple[int, int]]) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """Tiny independent search: try every labeling and every orientation.

    Returns (labels, orientation_bits, mu) for the first magic assignment in
    lexicographic order, or None.  Only sensible for about 5 vertices.
    """
    n = vertex_count
    for labels in permutations(range(n)):
        for bits in product((0, 1), repeat=len(edges)):
            weights = [0] * n
            for (u, v), b in zip(edges, bits):
                tail, head = (u, v) if b == 0 else (v, u)
                weights[head] += labels[tail]
                weights[tail] -= labels[head]
            weights = [w % n for w in weights]
            if len(set(weights)) <= 1:
                mu = weights[0] % n if n > 0 else 0
                return tuple(labels), tuple(bits), mu
    return None


def brute_magic_label_pairs(vertex_count: int, edges: Sequence[Tuple[int, int]],
                            u: int, v: int) -> Set[Tuple[int, int]]:
    """The pairs (labels[u], labels[v]) over every magic assignment: every
    labeling, every orientation.  Only sensible for about 6 vertices."""
    n = vertex_count
    found = set()
    for labels in permutations(range(n)):
        pair = (labels[u], labels[v])
        if pair not in found and any(len(set(brute_weights(n, edges, bits, labels))) == 1
                                     for bits in product((0, 1), repeat=len(edges))):
            found.add(pair)
    return found


def brute_weights(vertex_count: int, edges: Sequence[Tuple[int, int]],
                  bits: Sequence[int], labels: Sequence[int]) -> List[int]:
    """Weights from the definition, one edge at a time."""
    n = vertex_count
    weights = [0] * n
    for (u, v), b in zip(edges, bits):
        tail, head = (u, v) if b == 0 else (v, u)
        weights[head] += labels[tail]
        weights[tail] -= labels[head]
    return [w % n for w in weights]


def brute_vertex_transitive(vertex_count: int, edges: Sequence[Tuple[int, int]]) -> bool:
    """Does some automorphism map vertex 0 onto each vertex?  Every permutation
    is tried against the edge set.  Only sensible up to about 8 vertices."""
    n = vertex_count
    edge_set = {frozenset(e) for e in edges}
    images = {p[0] for p in permutations(range(n))
              if all(frozenset((p[u], p[v])) in edge_set for u, v in edges)}
    return len(images) == n


def brute_orbit(vertex_count: int, edges: Sequence[Tuple[int, int]], v: int,
                fixed: Sequence[int] = ()) -> Set[int]:
    """The images of v under every automorphism that fixes each vertex of
    fixed.  Every permutation is tried against the edge set.  Only sensible up
    to about 8 vertices."""
    n = vertex_count
    edge_set = {frozenset(e) for e in edges}
    return {p[v] for p in permutations(range(n))
            if all(p[f] == f for f in fixed)
            and all(frozenset((p[a], p[b])) in edge_set for a, b in edges)}
