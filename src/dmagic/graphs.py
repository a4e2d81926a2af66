"""Simple undirected graphs, orientations, product constructions, and the text format.

Vertices are 0-based integers.  Edge lists are kept canonical: every pair is
stored as (u, v) with u < v, deduplicated and sorted lexicographically, so
equal graphs compare equal and file output is byte-stable.  The generators
and products build their edges in canonical order directly;
UndirectedGraph.from_edges canonicalizes edges that come from outside the
package, in any order and orientation and with repeats.

Graph text is read two ways.  dmagic's own graph files are read in bulk,
the integers taken a bounded chunk of lines at a time, and the graph built
from them is kept only if writing it gives back the input exactly.  That
guard is sound: the line reader reads what graph_to_text writes back into
the same graph, so it would read the input into that graph too.  Any other
text (comments, blank lines, other spacing, errors) goes to the line reader,
the one reader of hand-written files and the one source of error messages.
The chunks keep the bulk peak below the line reader's, which holds every
line at once.  The line readers of graph and certificate text share one
grammar: _lines skips blank and comment lines, and _ints names the line of a
word that is not an integer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import getitem, itemgetter, lt, xor
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

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


_TAIL, _HEAD = itemgetter(0), itemgetter(1)
_CHUNK = 1 << 16  # characters of text read at once in bulk, then on to a line end


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
        return cls(vertex_count, tuple(sorted(seen)))

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
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):  # b == 0 or b == 1, in bulk
            raise ValueError("orientation bits must be 0 or 1")

    @classmethod
    def from_arcs(cls, graph: UndirectedGraph, arcs: Iterable[Tuple[int, int]]) -> "Orientation":
        """Build an orientation from (tail, head) pairs covering each edge once."""
        edges = graph.edges
        index = {e: i for i, e in enumerate(edges)}
        bits: List[Optional[int]] = [None] * len(edges)
        for tail, head in arcs:
            key = (tail, head) if tail < head else (head, tail)
            if key not in index:
                raise ValueError(f"arc ({tail}, {head}) is not an edge of the graph")
            i = index[key]
            if bits[i] is not None:
                raise ValueError(f"edge {key} oriented twice")
            bits[i] = 0 if (tail, head) == key else 1
        missing = [edges[i] for i, b in enumerate(bits) if b is None]
        if missing:
            # name a few: a certificate without arcs on a large graph misses them all
            shown = ", ".join(map(str, missing[:3])) + (", ..." if len(missing) > 3 else "")
            raise ValueError(f"{len(missing)} edges left unoriented: {shown}")
        return cls(graph, tuple(b for b in bits if b is not None))


def _arc_ends(edges: Sequence[Tuple[int, int]], bits: Sequence[int]) -> List[int]:
    """Tail, head, tail, head, ... of the arcs that bits orient edges into."""
    ends = [0] * (2 * len(bits))
    ends[::2] = map(getitem, edges, bits)
    ends[1::2] = map(getitem, edges, map(xor, bits, repeat(1)))
    return ends


def complete(n: int) -> UndirectedGraph:
    """The complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    edges: List[Tuple[int, int]] = []
    for u in range(n):
        edges.extend(zip(repeat(u), range(u + 1, n)))
    return UndirectedGraph(n, tuple(edges))


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
    # canonical order: 0's two neighbours, then each later vertex's next one
    return UndirectedGraph(n, ((0, 1), (0, n - 1), *((i, i + 1) for i in range(1, n - 1))))


def complete_multipartite(sizes: Sequence[int]) -> UndirectedGraph:
    """Complete multipartite graph; part i occupies a consecutive index block."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be positive, got {list(sizes)}")
    starts = [0, *accumulate(sizes)]
    n = starts[-1]
    edges: List[Tuple[int, int]] = []
    for a, b in zip(starts, starts[1:]):  # u's higher neighbours are the later parts
        for u in range(a, b):
            edges.extend(zip(repeat(u), range(b, n)))
    return UndirectedGraph(n, tuple(edges))


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


def _bulk_chunks(text: str, start: int) -> Iterator[Tuple[List[str], Callable[[str], int]]]:
    """The words of text from offset start, split a bounded chunk of whole
    lines at a time, each chunk with the int of its numerals (ValueError for
    a word that is not one).  Callers read the 'x a b' lines of dmagic's files
    by stride and keep what they build only if it writes back to text exactly,
    so the words x are never read.
    """
    while start < len(text):
        stop = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:stop].split(), _Numerals().__getitem__
        start = stop


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
        start = text.find("\n") + 1 or len(text)
        _, vertices, _ = text[:start].split()
        pairs: List[Tuple[int, int]] = []
        for fields, value in _bulk_chunks(text, start):
            pairs.extend(zip(map(value, fields[1::3]), map(value, fields[2::3])))
        graph = UndirectedGraph(int(vertices), tuple(pairs))
    except ValueError:
        return _parse_graph_lines(text)
    return graph if graph_to_text(graph) == text else _parse_graph_lines(text)


def _lines(text: str) -> Iterator[Tuple[int, List[str]]]:
    """The line number and words of each line that is neither blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if words and not words[0].startswith("#"):
            yield lineno, words


def _ints(lineno: int, words: Sequence[str], message: str) -> List[int]:
    """The words as ints, or the FormatError of that line with that message."""
    try:
        return list(map(int, words))
    except ValueError:
        raise FormatError(f"line {lineno}: {message}") from None


def _parse_graph_lines(text: str) -> UndirectedGraph:
    """The line reader: any spacing, comments and blank lines; errors name the line."""
    lines = _lines(text)
    for lineno, fields in lines:  # the first line read is the header
        if fields[0] != "graph" or len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'graph <vertices> <edges>'")
        n, m = _ints(lineno, fields[1:], "vertex/edge counts must be integers")
        if n < 0 or m < 0:
            raise FormatError(f"line {lineno}: counts must be non-negative")
        break
    else:
        raise FormatError("line 1: missing 'graph' header")
    edges: List[Tuple[int, int]] = []
    for lineno, fields in lines:
        if fields[0] != "e" or len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
        u, v = _ints(lineno, fields[1:], "edge endpoints must be integers")
        if not 0 <= u < v < n:
            raise FormatError(f"line {lineno}: edge ({u}, {v}) must satisfy 0 <= u < v < {n}")
        if edges and (u, v) <= edges[-1]:
            raise FormatError(f"line {lineno}: edges must be strictly increasing")
        edges.append((u, v))
    if len(edges) != m:
        raise FormatError(f"line 1: header declares {m} edges, found {len(edges)}")
    return UndirectedGraph(n, tuple(edges))
