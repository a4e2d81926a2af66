"""Simple undirected graphs, orientations, product constructions, and the text format.

Vertices are 0-based integers.  Edge lists are kept canonical: every pair is
stored as (u, v) with u < v, deduplicated and sorted lexicographically, so
equal graphs compare equal and file output is byte-stable.

Text is read two ways.  dmagic's own files are read in bulk, the integers
taken a bounded chunk of lines at a time, and the graph built from them is
kept only if writing it gives back the input exactly.  That guard is sound:
the line reader reads what graph_to_text writes back into the same graph,
so it would read the input into that graph too.  Any other text (comments,
blank lines, other spacing, errors) goes to the line reader, the one reader
of hand-written files and the one source of error messages.  The chunks
keep the bulk peak below the line reader's, which holds every line at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import getitem, itemgetter, lt
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FormatError",
    "UndirectedGraph",
    "Orientation",
    "complete",
    "empty_graph",
    "path",
    "cycle",
    "complete_multipartite",
    "lexicographic",
    "cartesian",
    "prism",
    "regularity",
    "graph_to_text",
    "parse_graph",
]


class FormatError(ValueError):
    """Raised for malformed text input; the message names the offending line."""


_TAIL, _HEAD, _REVERSED = itemgetter(0), itemgetter(1), itemgetter(1, 0)
_CHUNK = 1 << 16  # characters of text read at once in bulk, then on to a line end


def _canonical_edges(vertex_count: int, edges: Iterable[Sequence[int]]) -> Tuple[Tuple[int, int], ...]:
    seen = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        if u > v:
            u, v = v, u
        if not (0 <= u and v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
        seen.add((u, v))
    return tuple(sorted(seen))


@dataclass(frozen=True)
class UndirectedGraph:
    """A finite simple graph with a canonical sorted edge list."""

    vertex_count: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError(f"vertex_count must be non-negative, got {self.vertex_count}")
        e = self.edges  # every parse pays this check again, so it runs in bulk
        if e and not (0 <= e[0][0] and all(map(lt, map(_TAIL, e), map(_HEAD, e)))
                      and max(map(_HEAD, e)) < self.vertex_count and all(map(lt, e, e[1:]))):
            raise ValueError("edge list is not canonical; use UndirectedGraph.from_edges")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Sequence[int]]) -> "UndirectedGraph":
        """Build a graph, canonicalizing the edge list (orderings, duplicates)."""
        return cls(vertex_count, _canonical_edges(vertex_count, edges))

    @cached_property
    def _incidence(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        inc: List[List[Tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for idx, (u, v) in enumerate(self.edges):
            inc[u].append((idx, v))
            inc[v].append((idx, u))
        return tuple(tuple(x) for x in inc)

    def incident(self, v: int) -> Tuple[Tuple[int, int], ...]:
        """(edge_index, neighbor) pairs for vertex v."""
        return self._incidence[v]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return tuple(n for _, n in self._incidence[v])

    def degree(self, v: int) -> int:
        return len(self._incidence[v])


def regularity(graph: UndirectedGraph) -> Optional[int]:
    """The common degree r if the graph is r-regular, else None."""
    if graph.vertex_count == 0:
        return 0
    counts = Counter(chain.from_iterable(graph.edges))  # no incidence lists
    degrees = set(counts.values())
    if len(counts) < graph.vertex_count:
        degrees.add(0)  # isolated vertices
    if len(degrees) == 1:
        return degrees.pop()
    return None


@dataclass(frozen=True)
class Orientation:
    """An orientation of a graph's edges.

    bits[i] = 0 orients stored edge (u, v) as the arc u -> v, bits[i] = 1 as
    v -> u.
    """

    graph: UndirectedGraph
    bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != len(self.graph.edges):
            raise ValueError(
                f"expected {len(self.graph.edges)} orientation bits, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("orientation bits must be 0 or 1")

    def arcs(self) -> List[Tuple[int, int]]:
        """(tail, head) per edge, in canonical edge order."""
        edges = self.graph.edges
        return list(map(getitem, zip(edges, map(_REVERSED, edges)), self.bits))

    @classmethod
    def from_arcs(cls, graph: UndirectedGraph, arcs: Iterable[Tuple[int, int]]) -> "Orientation":
        """Build an orientation from (tail, head) pairs covering each edge once."""
        arcs = list(arcs)
        keys = [(tail, head) if tail < head else (head, tail) for tail, head in arcs]
        if tuple(keys) == graph.edges:  # in canonical edge order, as certificates list them
            return cls(graph, tuple([int(tail > head) for tail, head in arcs]))
        index = {e: i for i, e in enumerate(graph.edges)}
        bits: List[Optional[int]] = [None] * len(graph.edges)
        for (tail, head), key in zip(arcs, keys):
            if key not in index:
                raise ValueError(f"arc ({tail}, {head}) is not an edge of the graph")
            i = index[key]
            if bits[i] is not None:
                raise ValueError(f"edge {key} oriented twice")
            bits[i] = 0 if (tail, head) == key else 1
        missing = [graph.edges[i] for i, b in enumerate(bits) if b is None]
        if missing:
            # name a few: a certificate without arcs on a large graph misses them all
            shown = ", ".join(map(str, missing[:3])) + (", ..." if len(missing) > 3 else "")
            raise ValueError(f"{len(missing)} edges left unoriented: {shown}")
        return cls(graph, tuple(b for b in bits if b is not None))


def complete(n: int) -> UndirectedGraph:
    """The complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return UndirectedGraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def empty_graph(n: int) -> UndirectedGraph:
    """n isolated vertices."""
    if n < 0:
        raise ValueError(f"empty graph needs n >= 0, got {n}")
    return UndirectedGraph(n, ())


def path(n: int) -> UndirectedGraph:
    """The path on n >= 1 vertices."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return UndirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> UndirectedGraph:
    """The cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return UndirectedGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(sizes: Sequence[int]) -> UndirectedGraph:
    """Complete multipartite graph; part i occupies a consecutive index block."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be positive, got {list(sizes)}")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    n = starts[-1]
    edges = []
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            for u in range(starts[a], starts[a + 1]):
                for v in range(starts[b], starts[b + 1]):
                    edges.append((u, v))
    return UndirectedGraph.from_edges(n, edges)


def _upper_neighbors(g: UndirectedGraph) -> List[List[int]]:
    """Each vertex's higher-numbered neighbours, ascending: read off the sorted edges."""
    up: List[List[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        up[u].append(v)
    return up


def lexicographic(g: UndirectedGraph, h: UndirectedGraph) -> UndirectedGraph:
    """Lexicographic product: (g1, h1) ~ (g2, h2) iff g1 ~ g2, or g1 = g2 and h1 ~ h2.

    Vertex (a, b) of g x h is numbered a * |h| + b, so each block of |h|
    vertices is consecutive.  Vertex u's higher neighbours are then its block
    mates through h, then every vertex of each later block g joins to u's
    block; the edges come out in canonical order.
    """
    n = h.vertex_count
    if g.vertex_count < 1 or n < 1:
        raise ValueError("a graph product needs two non-empty factors")
    g_up, h_up = _upper_neighbors(g), _upper_neighbors(h)
    edges: List[Tuple[int, int]] = []
    for a in range(g.vertex_count):
        base = a * n
        across = [c * n + j for c in g_up[a] for j in range(n)]
        for b in range(n):
            u = base + b
            edges.extend((u, base + x) for x in h_up[b])
            edges.extend(zip(repeat(u), across))
    return UndirectedGraph(g.vertex_count * n, tuple(edges))


def cartesian(g: UndirectedGraph, h: UndirectedGraph) -> UndirectedGraph:
    """Cartesian product: one coordinate adjacent, the other equal.

    Numbered as lexicographic is; vertex u's higher neighbours are its block
    mates through h, then its copies in the later blocks g joins to u's block.
    """
    n = h.vertex_count
    if g.vertex_count < 1 or n < 1:
        raise ValueError("a graph product needs two non-empty factors")
    g_up, h_up = _upper_neighbors(g), _upper_neighbors(h)
    edges: List[Tuple[int, int]] = []
    for a in range(g.vertex_count):
        base = a * n
        for b in range(n):
            u = base + b
            edges.extend((u, base + x) for x in h_up[b])
            edges.extend((u, c * n + b) for c in g_up[a])
    return UndirectedGraph(g.vertex_count * n, tuple(edges))


def prism(n: int) -> UndirectedGraph:
    """The prism over an n-cycle (two cycle layers joined by a perfect matching)."""
    if n < 3:
        raise ValueError(f"prism needs n >= 3, got {n}")
    return cartesian(path(2), cycle(n))


def graph_to_text(graph: UndirectedGraph) -> str:
    """Canonical text form: header line then one 'e u v' line per edge."""
    edges = graph.edges
    return (f"graph {graph.vertex_count} {len(edges)}\n"
            + "e %d %d\n" * len(edges) % tuple(chain.from_iterable(edges)))


def _bulk_read(text: str, header_lines: int) -> Tuple[List[str], List[Tuple[int, int]]]:
    """The words of the first header_lines lines, then the int pairs of the
    'x a b' lines after them, split a bounded chunk of whole lines at a time;
    ValueError where such a field is not an integer.  The words x are not read:
    callers keep what they build only if it writes back to text exactly.
    """
    start = 0
    for _ in range(header_lines):
        start = text.find("\n", start) + 1 or len(text)
    head = text[:start].split()
    pairs: List[Tuple[int, int]] = []
    while start < len(text):
        stop = text.find("\n", start + _CHUNK) + 1 or len(text)
        fields, value = text[start:stop].split(), _Numerals().__getitem__
        pairs.extend(zip(map(value, fields[1::3]), map(value, fields[2::3])))
        start = stop
    return head, pairs


class _Numerals(dict):
    """The int of each numeral, converted once: a chunk repeats few numerals."""

    def __missing__(self, numeral: str) -> int:
        self[numeral] = value = int(numeral)
        return value


def parse_graph(text: str) -> UndirectedGraph:
    """Parse the graph text format; raises FormatError naming the bad line.

    Lines starting with '#' are comments.  Edges must appear canonically
    (u < v, strictly increasing lexicographic order).  Text exactly as
    graph_to_text writes it is read in bulk; see the module docstring.
    """
    try:
        (_, vertices, _), edges = _bulk_read(text, 1)
        graph = UndirectedGraph(int(vertices), tuple(edges))
    except ValueError:
        return _parse_graph_lines(text)
    return graph if graph_to_text(graph) == text else _parse_graph_lines(text)


def _parse_graph_lines(text: str) -> UndirectedGraph:
    """The line reader: any spacing, comments and blank lines; errors name the line."""
    header: Optional[Tuple[int, int]] = None
    edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "graph" or len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'graph <vertices> <edges>'")
            try:
                header = (int(fields[1]), int(fields[2]))
            except ValueError:
                raise FormatError(f"line {lineno}: vertex/edge counts must be integers") from None
            if header[0] < 0 or header[1] < 0:
                raise FormatError(f"line {lineno}: counts must be non-negative")
            continue
        if fields[0] != "e" or len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise FormatError(f"line {lineno}: edge endpoints must be integers") from None
        if not 0 <= u < v < header[0]:
            raise FormatError(f"line {lineno}: edge ({u}, {v}) must satisfy 0 <= u < v < {header[0]}")
        if edges and (u, v) <= edges[-1]:
            raise FormatError(f"line {lineno}: edges must be strictly increasing")
        edges.append((u, v))
    if header is None:
        raise FormatError("line 1: missing 'graph' header")
    if len(edges) != header[1]:
        raise FormatError(f"line 1: header declares {header[1]} edges, found {len(edges)}")
    return UndirectedGraph(header[0], tuple(edges))
