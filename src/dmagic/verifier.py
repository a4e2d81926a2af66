"""Weight evaluation and certificate checking for oriented labelings.

The weight of a vertex x is the sum of the labels of its in-neighbors minus
the sum of the labels of its out-neighbors: each arc u -> v contributes +l(u)
to w(v) and -l(v) to w(u).  A labeling is magic when every weight equals the
same residue mu.

Certificate text is read as graph text is (see the graphs module), by one
bulk reader and one line reader.  parse_certificate is the line reader: any
spacing, comments and blank lines, and every error message.  read_certificate
is the bulk reader; dmagic verify reads every certificate through it.  It
reads a certificate against the graph it is bound to, as
bind_certificate(parse_certificate(text), graph) does, but builds no arc: it
reads only the tail of each arc line, takes bit i as whether that tail
differs from the tail of edge i, and keeps the result only if the
certificate of that graph, those bits, the labels and mu writes back to the
input exactly.  That guard is sound: the line reader reads that text back
into the same order, mu and labels, and into the graph's edges, in canonical
order, oriented by those bits, which bind_certificate binds to exactly those
bits.  Any other text, or a graph the text does not fit, goes through
bind_certificate(parse_certificate(text), graph) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import ne
from typing import List, Optional, Sequence, Tuple, Union

from .graphs import (FormatError, Orientation, UndirectedGraph, _TAIL, _arc_ends, _bulk_chunks,
                     _ints, _lines)

__all__ = [
    "NotALabelingError",
    "Labeling",
    "MagicCertificate",
    "Violation",
    "all_weights",
    "verify",
    "certificate_to_text",
    "ParsedCertificate",
    "parse_certificate",
    "bind_certificate",
    "read_certificate",
]

_CONVENTION_LINE = "# weight convention: in-neighbor labels add, out-neighbor labels subtract"


class NotALabelingError(ValueError):
    """The label array is not a bijection onto Z_N."""


@dataclass(frozen=True)
class Labeling:
    """Vertex labels as residues mod a fixed modulus."""

    modulus: int
    labels: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus <= 0:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if any(not 0 <= x < self.modulus for x in self.labels):
            raise ValueError("labels must be residues in 0..modulus-1")

    def is_bijection(self) -> bool:
        return len(self.labels) == self.modulus and len(set(self.labels)) == self.modulus


@dataclass(frozen=True)
class MagicCertificate:
    """A verified witness: every vertex weight equals mu."""

    graph: UndirectedGraph
    orientation: Orientation
    labeling: Labeling
    mu: int


@dataclass(frozen=True)
class Violation:
    """The lowest-indexed vertex whose weight differs from vertex 0's weight."""

    vertex: int
    weight: int
    expected: int


def all_weights(graph: UndirectedGraph, orientation: Orientation, labeling: Labeling) -> List[int]:
    """Raw weights (residues) of every vertex, computed in one arc sweep."""
    n = graph.vertex_count
    mod = labeling.modulus
    w = [0] * n
    lab = labeling.labels
    for (u, v), b in zip(graph.edges, orientation.bits):
        if b:  # the arc v -> u
            u, v = v, u
        w[v] += lab[u]
        w[u] -= lab[v]
    return [x % mod for x in w]


def verify(graph: UndirectedGraph, orientation: Orientation,
           labeling: Labeling) -> Union[MagicCertificate, Violation]:
    """Check a full triple.  Bijectivity is checked before any weight."""
    if graph.vertex_count < 1:
        raise ValueError("verification needs at least one vertex")
    if orientation.graph != graph:
        raise ValueError("orientation belongs to a different graph")
    if len(labeling.labels) != graph.vertex_count:
        raise NotALabelingError(
            f"not a labeling: {len(labeling.labels)} labels for {graph.vertex_count} vertices"
        )
    if labeling.modulus != graph.vertex_count:
        raise NotALabelingError(
            f"not a labeling: modulus {labeling.modulus} differs from order {graph.vertex_count}"
        )
    if not labeling.is_bijection():
        raise NotALabelingError("not a labeling: labels are not a bijection onto Z_N")
    w = all_weights(graph, orientation, labeling)
    mu = w[0]
    for v in range(1, graph.vertex_count):
        if w[v] != mu:
            return Violation(v, w[v], mu)
    return MagicCertificate(graph, orientation, labeling, mu)


def verified(graph: UndirectedGraph, orientation: Orientation, labeling: Labeling) -> MagicCertificate:
    """The certificate of a triple that dmagic built as magic; a violation is a defect."""
    result = verify(graph, orientation, labeling)
    if isinstance(result, Violation):
        raise RuntimeError(
            f"a labeling built as magic is not: vertex {result.vertex} has weight "
            f"{result.weight}, expected {result.expected}; this is a defect"
        )
    return result


def certificate_to_text(cert: MagicCertificate) -> str:
    """Canonical certificate text; arcs follow the canonical edge order."""
    orientation = cert.orientation
    ends = _arc_ends(orientation.graph.edges, orientation.bits)
    return _certificate_text(cert.labeling.modulus, cert.mu, cert.labeling.labels, ends)


def _certificate_text(order: int, mu: int, labels: Sequence[int], ends: Sequence[int]) -> str:
    """The text of a certificate whose arcs, flattened, are tail, head, tail, ..."""
    return (f"certificate {order}\n{_CONVENTION_LINE}\nmu {mu}\n"
            + "l %d %d\n" * len(labels) % tuple(chain.from_iterable(enumerate(labels)))
            + "a %d %d\n" * (len(ends) // 2) % tuple(ends))


@dataclass(frozen=True)
class ParsedCertificate:
    """Raw fields of a certificate file, before binding to a graph."""

    order: int
    mu: int
    labels: Tuple[int, ...]
    arcs: Tuple[Tuple[int, int], ...]


def parse_certificate(text: str) -> ParsedCertificate:
    """Parse the certificate text format; raises FormatError naming the bad line.

    The line reader: any spacing, comments and blank lines.
    """
    lines = _lines(text)
    for lineno, fields in lines:  # the first line read is the header
        if fields[0] != "certificate" or len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'certificate <N>'")
        order, = _ints(lineno, fields[1:], "order must be an integer")
        if order < 1:
            raise FormatError(f"line {lineno}: order must be positive")
        break
    else:
        raise FormatError("line 1: missing 'certificate' header")
    mu: Optional[int] = None
    labels: dict[int, int] = {}
    arcs: List[Tuple[int, int]] = []
    for lineno, fields in lines:
        if fields[0] == "mu":
            if mu is not None or len(fields) != 2:
                raise FormatError(f"line {lineno}: expected one 'mu <value>' line")
            mu, = _ints(lineno, fields[1:], "mu must be an integer")
        elif fields[0] == "l":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'l <vertex> <label>'")
            v, x = _ints(lineno, fields[1:], "labels must be integers")
            if not 0 <= v < order:
                raise FormatError(f"line {lineno}: vertex {v} out of range 0..{order - 1}")
            if not 0 <= x < order:
                raise FormatError(f"line {lineno}: label {x} out of range 0..{order - 1}")
            if v in labels:
                raise FormatError(f"line {lineno}: vertex {v} labeled twice")
            labels[v] = x
        elif fields[0] == "a":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'a <tail> <head>'")
            tail, head = _ints(lineno, fields[1:], "arc endpoints must be integers")
            if not 0 <= tail < order or not 0 <= head < order:
                raise FormatError(f"line {lineno}: arc endpoint out of range 0..{order - 1}")
            if tail == head:
                raise FormatError(f"line {lineno}: arc endpoints must differ")
            arcs.append((tail, head))
        else:
            raise FormatError(f"line {lineno}: unknown record '{fields[0]}'")
    if mu is None:
        raise FormatError("line 1: missing 'mu' line")
    if len(labels) != order:  # each labeled vertex is in range and labeled once
        raise FormatError("line 1: label lines must cover vertices 0..N-1 exactly")
    return ParsedCertificate(order, mu, tuple(labels[v] for v in range(order)), tuple(arcs))


def bind_certificate(parsed: ParsedCertificate,
                     graph: UndirectedGraph) -> Tuple[Orientation, Labeling, int]:
    """Attach parsed certificate fields to a graph, checking arcs against its edges.

    The claimed mu comes back as a residue in 0..N-1, so any integer
    congruent to the true constant matches it.
    """
    if parsed.order != graph.vertex_count:
        raise ValueError(
            f"certificate order {parsed.order} differs from graph order {graph.vertex_count}"
        )
    orientation = Orientation.from_arcs(graph, parsed.arcs)
    labeling = Labeling(parsed.order, parsed.labels)
    return orientation, labeling, parsed.mu % parsed.order


def read_certificate(text: str, graph: UndirectedGraph) -> Tuple[Orientation, Labeling, int]:
    """bind_certificate(parse_certificate(text), graph): the same result, or
    the same error.  Text exactly as certificate_to_text writes it for this
    graph is read in one bulk pass that builds no arc; see the module docstring.
    """
    edges = graph.edges
    try:
        start = 0
        for _ in range(3):  # the header, the weight convention and mu
            start = text.find("\n", start) + 1 or len(text)
        _, order, *_, mu = text[:start].split()
        order, mu = int(order), int(mu)
        arcs = text.find("\na ", start - 1) + 1 or len(text)
        labels = tuple(map(int, text[start:arcs].split()[2::3]))
        tails: List[int] = []
        for fields, value in _bulk_chunks(text, arcs):
            tails.extend(map(value, fields[1::3]))
    except ValueError:
        return bind_certificate(parse_certificate(text), graph)
    if (0 < order == graph.vertex_count == len(labels) and 0 <= min(labels)
            and max(labels) < order and len(tails) == len(edges)):
        bits = tuple(bytes(map(ne, tails, map(_TAIL, edges))))  # the bools as ints 0 and 1
        if _certificate_text(order, mu, labels, _arc_ends(edges, bits)) == text:
            return Orientation(graph, bits), Labeling(order, labels), mu % order
    return bind_certificate(parse_certificate(text), graph)
