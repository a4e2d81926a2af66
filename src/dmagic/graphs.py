"""Simple undirected graphs, orientations, product constructions, and the text format.

Vertices are 0-based integers.  Edge lists are kept canonical: every pair is
stored as (u, v) with u < v, deduplicated and sorted lexicographically, so
equal graphs compare equal and file output is byte-stable.
UndirectedGraph.from_edges canonicalizes edges that come from outside the
package, in any order and orientation and with repeats; the constructor
checks canonical order edge by edge.

A graph holds its edges in one of two forms.  The constructor, and so
from_edges, empty_graph, path, cycle, cartesian, prism and the word and line
readers, keeps the edge tuple it is given.  The generators complete,
complete_multipartite and lexicographic, and so the blown-up cliques that
parse_graph builds from a header, go through _from_runs, which keeps only
the run table: one (tail, index of its first edge, heads) entry for each
tail with an edge, in order, the heads a range when they are consecutive
vertices, else a tuple.  _from_runs is the one place that checks the
generators' output, a run at a time: a run given as a range costs O(1), a
list one pass.  The other form is made on first use and kept: edges is
flattened from the table (from_arcs, and a search's witness), _runs is
derived from the tuple by one bisection per tail.  The writers, the
certificate readers, the weight sum and the constructions read the table,
and the search, the twins and the parity rows its neighbour table _nbrs,
so a blown-up clique is built, written, read, verified and searched
without its edge tuple; where they go a line or an arc at a time,
_edge_pairs makes the pairs from the table as they are taken.

An Orientation holds its bits as one immutable bytes object, a byte 0 or 1
per canonical edge.  It copies any other sequence of 0s and 1s into bytes
once and checks the values with bytes.count; the constructions, the
search's witness and the certificate readers build a bytearray or bytes and
hand it over, and the weight sum and the certificate writer read it as it
is, so no layer makes an int object per arc.

Graph text is written one vertex u's run of canonical edges at a time, its
lines joined under the shared prefix 'e u ' from the names of the vertices up
to the largest head, made once.  A graph whose tails average fewer than
_LONG_RUN edges, such as a path, cycle or prism, or that would need more
names than it has edges, is written a line per edge, which is faster there.
Certificate text is written from the same runs.

Graph text is read three ways.  The header 'graph N M' names at most one
blown-up clique K_k[b], k parts of b vertices: its N(N - b)/2 edges fix
b = N - 2M/N.  When 0 < M <= len(text)/6 (an edge line is at least 'e u v\n'),
2M is a multiple of N, b is a proper divisor of N and the first edge line is
'e 0 b', that candidate is built by complete_multipartite.  It needs
M >= N^2/4, as b <= N/2, and is never larger than the text.  Any other text,
and text that candidate does not match, goes to the word reader, which takes
the integers a bounded chunk of lines at a time.  Either graph is kept only
if graph_to_text, the writer itself, gives back the input exactly.  That
guard is sound: the line reader reads what graph_to_text writes back into
the same graph, so it would read the input into that graph too.  Any other
text (comments, blank lines, other spacing, errors) goes to the line reader,
the one reader of hand-written files and the one source of error messages.
Neither bulk reader makes anything per vertex that the header claims before
the text has shown room for it, and the chunks keep the word reader's peak
below the line reader's, which holds every line at once.  The line readers
of graph and certificate text share one grammar: _lines skips blank and
comment lines, and a word that is not an integer is an error of its line.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter, lt
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
_LONG_RUN = 16  # edges a run must average to be written, read or summed a run at a time


class UndirectedGraph:
    """A finite simple graph with a canonical sorted edge list, held as an
    edge tuple or a run table (see the module docstring).  It is immutable,
    and compares and hashes by vertex count and run table, so a graph built
    a run at a time equals the one built from its edges."""

    vertex_count: int

    def __init__(self, vertex_count: int, edges: Tuple[Tuple[int, int], ...]) -> None:
        if vertex_count < 0:
            raise ValueError(f"vertex_count must be non-negative, got {vertex_count}")
        e = edges  # every parse pays this check again, so it runs in bulk
        if e and not (0 <= e[0][0] and all(map(lt, map(_TAIL, e), map(_HEAD, e)))
                      and max(map(_HEAD, e)) < vertex_count and all(map(lt, e, e[1:]))):
            raise ValueError("edge list is not canonical; use UndirectedGraph.from_edges")
        self.__dict__.update(vertex_count=vertex_count, edges=edges)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not UndirectedGraph:
            return NotImplemented
        return self.vertex_count == other.vertex_count and self._runs == other._runs

    def __hash__(self) -> int:
        return hash((self.vertex_count, self._runs))

    def __repr__(self) -> str:
        return f"UndirectedGraph(vertex_count={self.vertex_count!r}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """The canonical edge tuple of a graph built a run at a time."""
        # a list, then one tuple: a tuple grown from an iterator rejoins the garbage
        # collector's youngest generation at each resize, which doubled the build time
        edges: List[Tuple[int, int]] = []
        for u, _, heads in self._runs:
            edges += zip(repeat(u), heads)
        return tuple(edges)

    @cached_property
    def _runs(self) -> Tuple[Tuple[int, int, Sequence[int]], ...]:
        """The run table of a graph built from an edge tuple."""
        edges, table, i = self.edges, [], 0
        while i < len(edges):
            u, first = edges[i]
            j = bisect_left(edges, (u + 1,), i)
            last = edges[j - 1][1]
            table.append((u, i, range(first, last + 1) if last - first == j - i - 1
                          else tuple(map(_HEAD, edges[i:j]))))
            i = j
        return tuple(table)

    @property
    def _size(self) -> int:
        """len(self.edges), read off the run table when the edges are not built."""
        runs = self.__dict__.get("_runs")
        if runs is None:
            return len(self.edges)
        return runs[-1][1] + len(runs[-1][2]) if runs else 0

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
    def _nbrs(self) -> Tuple[Tuple[int, ...], ...]:
        """Each vertex's neighbours, ascending, read off the run table: the
        one neighbour table of the search, the twins and the parity rows."""
        below: List[List[int]] = [[] for _ in range(self.vertex_count)]
        above: List[Sequence[int]] = [()] * self.vertex_count
        for u, _, heads in self._runs:
            above[u] = heads
            for h in heads:
                below[h].append(u)
        return tuple((*b, *a) for b, a in zip(below, above))


def regularity(graph: UndirectedGraph) -> Optional[int]:
    """The common degree r if the graph is r-regular, else None."""
    if graph.vertex_count == 0:
        return 0
    counts = Counter(chain.from_iterable(_edge_pairs(graph)))  # no neighbour table
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
    v -> u.  bits is one immutable bytes object, a byte 0 or 1 per edge:
    any other sequence of 0s and 1s (a tuple, a list, a bytearray) is copied
    into bytes once, here, so equal bits give equal orientations with equal
    hashes, and a bytearray changed afterwards leaves the orientation as it
    was.
    """

    graph: UndirectedGraph
    bits: bytes

    def __post_init__(self) -> None:
        if len(self.bits) != self.graph._size:
            raise ValueError(
                f"expected {self.graph._size} orientation bits, got {len(self.bits)}"
            )
        if type(self.bits) is not bytes:
            try:
                object.__setattr__(self, "bits", bytes(self.bits))
            except (TypeError, ValueError):  # a value outside 0..255, or not an int
                raise ValueError("orientation bits must be 0 or 1") from None
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):  # b == 0 or b == 1, in bulk
            raise ValueError("orientation bits must be 0 or 1")

    @classmethod
    def from_arcs(cls, graph: UndirectedGraph, arcs: Iterable[Tuple[int, int]]) -> "Orientation":
        """Build an orientation from (tail, head) pairs covering each edge once."""
        edges = graph.edges
        index = {e: i for i, e in enumerate(edges)}
        bits = bytearray(b"\2") * len(edges)  # 2: not oriented yet
        for tail, head in arcs:
            key = (tail, head) if tail < head else (head, tail)
            if key not in index:
                raise ValueError(f"arc ({tail}, {head}) is not an edge of the graph")
            i = index[key]
            if bits[i] != 2:
                raise ValueError(f"edge {key} oriented twice")
            bits[i] = tail > head
        if 2 in bits:
            missing = [edges[i] for i, b in enumerate(bits) if b == 2]
            # name a few: a certificate without arcs on a large graph misses them all
            shown = ", ".join(map(str, missing[:3])) + (", ..." if len(missing) > 3 else "")
            raise ValueError(f"{len(missing)} edges left unoriented: {shown}")
        return cls(graph, bits)


def _from_runs(n: int, runs: Iterable[Tuple[int, Sequence[int]]]) -> UndirectedGraph:
    """The graph on n vertices with each (tail, heads) run's edges, in order,
    held as its run table alone.  Canonical order is checked a run at a time,
    O(1) for a range of heads and one pass for a list: each non-empty run
    must have tail < first head < ... < last head < n and start above the
    last edge of the run before.  It raises exactly when UndirectedGraph(n,
    edges) does, with the same message."""
    if n < 0:
        raise ValueError(f"vertex_count must be non-negative, got {n}")
    table: List[Tuple[int, int, Sequence[int]]] = []
    size, last = 0, (0, 0)  # last: below every canonical edge, above any with a negative tail
    for u, heads in runs:
        if heads:
            ascending = type(heads) is range and heads.step > 0 or all(map(lt, heads, heads[1:]))
            if not (last < (u, heads[0]) and u < heads[0] and heads[-1] < n and ascending):
                raise ValueError("edge list is not canonical; use UndirectedGraph.from_edges")
            last = (u, heads[-1])
            if table and table[-1][0] == u:  # a tail's run given in parts is one run
                _, size, before = table.pop()
                heads = (*before, *heads)
            consecutive = heads[-1] - heads[0] == len(heads) - 1
            table.append((u, size, range(heads[0], heads[-1] + 1) if consecutive else tuple(heads)))
            size += len(heads)
    graph = object.__new__(UndirectedGraph)  # checked above, so not again edge by edge
    graph.__dict__.update(vertex_count=n, _runs=tuple(table))
    return graph


def complete(n: int) -> UndirectedGraph:
    """The complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return _from_runs(n, [(u, range(u + 1, n)) for u in range(n)])


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
    # u's higher neighbours are the later parts
    return _from_runs(n, [(u, range(b, n))
                          for a, b in zip(starts, starts[1:]) for u in range(a, b)])


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
    block; the runs come out in canonical order.
    """
    n = h.vertex_count
    if g.vertex_count < 1 or n < 1:
        raise ValueError("a graph product needs two non-empty factors")
    g_up, h_up = _upper_neighbors(g), _upper_neighbors(h)
    runs: List[Tuple[int, Sequence[int]]] = []
    for a, up in enumerate(g_up):
        base = a * n
        across = [c * n + j for c in up for j in range(n)]
        for b, mates in enumerate(h_up):
            runs.append((base + b, [*(base + x for x in mates), *across] if mates else across))
    return _from_runs(g.vertex_count * n, runs)


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
    size = graph._size
    header = f"graph {graph.vertex_count} {size}\n"
    runs = _edge_runs(graph, 0)
    if runs is None:
        return header + "e %d %d\n" * size % tuple(chain.from_iterable(_edge_pairs(graph)))
    return header + "".join([_run_text(f"e {tail} ", heads) for tail, _, heads in runs])


def _run_text(line: str, heads: Sequence[str]) -> str:
    """One run's lines: each head's name under the shared prefix line."""
    return line + ("\n" + line).join(heads) + "\n"


def _edge_runs(graph: UndirectedGraph,
               splits: int) -> Optional[List[Tuple[str, int, Sequence[str]]]]:
    """Each tail's run of the canonical edges: the tail's name, the index of
    its first edge and the names of its heads, a slice of names when the
    heads are consecutive vertices.  None when a line per edge writes them
    faster: when _tail_runs finds the runs short, or when there would be more
    vertex names, one for each vertex up to the largest head, than edges."""
    runs = _tail_runs(graph, splits)
    if runs is None:
        return None
    top = max(heads[-1] for _, _, heads in runs)
    if top >= graph._size:
        return None
    names = list(map(str, range(top + 1)))
    return [(names[u], i, names[heads.start:heads.stop] if type(heads) is range
             else [names[v] for v in heads]) for u, i, heads in runs]


def _edge_pairs(graph: UndirectedGraph) -> Iterable[Tuple[int, int]]:
    """The canonical edges in order: the edge tuple when the graph holds it,
    else made from the run table as they are taken, the tuple not built."""
    edges = graph.__dict__.get("edges")
    if edges is not None:
        return edges
    return chain.from_iterable(zip(repeat(u), heads) for u, _, heads in graph._runs)


def _long_runs(edges: int, runs: int) -> bool:
    """Whether edges in runs runs average _LONG_RUN or more a run: the one
    rule for reading, writing or summing them a run at a time."""
    return edges >= _LONG_RUN * runs


def _tail_runs(graph: UndirectedGraph,
               splits: int) -> Optional[Tuple[Tuple[int, int, Sequence[int]], ...]]:
    """The graph's run table; None when a line or a step per edge is faster:
    when the runs, cut at splits more places, average fewer than _LONG_RUN
    edges.  The tails lie in 0 up to the last edge's tail, which bounds the
    runs' count, so a graph built from edges derives its table only when its
    runs may be long."""
    runs, size = graph.__dict__.get("_runs"), graph._size
    if not size:
        return None
    last = graph.edges[-1][0] if runs is None else runs[-1][0]  # the edges are built when runs is None
    return graph._runs if _long_runs(size, last + 1 + splits) else None


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
        _, vertices, edges = text[:start].split()
        n, m = int(vertices), int(edges)
        # the one K_k[b] the header can name, b = N - 2M/N; see the module docstring
        b = n - 2 * m // n if 0 < n and 0 < m <= len(text) // 6 and 2 * m % n == 0 else 0
        if 0 < b and n % b == 0 and text.startswith(f"e 0 {b}\n", start):
            graph = complete_multipartite([b] * (n // b))
            if graph_to_text(graph) == text:
                return graph
        pairs: List[Tuple[int, int]] = []  # the word reader
        for fields, value in _bulk_chunks(text, start):
            pairs.extend(zip(map(value, fields[1::3]), map(value, fields[2::3])))
        graph = UndirectedGraph(n, tuple(pairs))
    except ValueError:
        return _parse_graph_lines(text)
    return graph if graph_to_text(graph) == text else _parse_graph_lines(text)


def _lines(text: str) -> Iterator[Tuple[int, List[str]]]:
    """The line number and words of each line that is neither blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if words and not words[0].startswith("#"):
            yield lineno, words


def _parse_graph_lines(text: str) -> UndirectedGraph:
    """The line reader: any spacing, comments and blank lines; errors name the line."""
    lines = _lines(text)
    for lineno, fields in lines:  # the first line read is the header
        if fields[0] != "graph" or len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'graph <vertices> <edges>'")
        try:
            n, m = int(fields[1]), int(fields[2])
        except ValueError:
            raise FormatError(f"line {lineno}: vertex/edge counts must be integers") from None
        if n < 0 or m < 0:
            raise FormatError(f"line {lineno}: counts must be non-negative")
        break
    else:
        raise FormatError("line 1: missing 'graph' header")
    edges: List[Tuple[int, int]] = []
    for lineno, fields in lines:
        if fields[0] != "e" or len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise FormatError(f"line {lineno}: edge endpoints must be integers") from None
        if not 0 <= u < v < n:
            raise FormatError(f"line {lineno}: edge ({u}, {v}) must satisfy 0 <= u < v < {n}")
        if edges and (u, v) <= edges[-1]:
            raise FormatError(f"line {lineno}: edges must be strictly increasing")
        edges.append((u, v))
    if len(edges) != m:
        raise FormatError(f"line 1: header declares {m} edges, found {len(edges)}")
    return UndirectedGraph(n, tuple(edges))
