"""Weight evaluation and certificate checking for oriented labelings.

The weight of a vertex x is the sum of the labels of its in-neighbors minus
the sum of the labels of its out-neighbors: each arc u -> v contributes +l(u)
to w(v) and -l(v) to w(u).  A labeling is magic when every weight equals the
same residue mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .graphs import FormatError, Orientation, UndirectedGraph

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

    def scaled(self, unit: int) -> "Labeling":
        """Labels multiplied by a fixed residue (bijective when the residue is a unit)."""
        return Labeling(self.modulus, tuple((x * unit) % self.modulus for x in self.labels))


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
        tail, head = (u, v) if b == 0 else (v, u)
        w[head] += lab[tail]
        w[tail] -= lab[head]
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


def certificate_to_text(cert: MagicCertificate) -> str:
    """Canonical certificate text; arcs follow the canonical edge order."""
    lines = [f"certificate {cert.labeling.modulus}", _CONVENTION_LINE, f"mu {cert.mu}"]
    lines.extend(f"l {v} {x}" for v, x in enumerate(cert.labeling.labels))
    lines.extend(f"a {t} {h}" for t, h in cert.orientation.arcs())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParsedCertificate:
    """Raw fields of a certificate file, before binding to a graph."""

    order: int
    mu: int
    labels: Tuple[int, ...]
    arcs: Tuple[Tuple[int, int], ...]


def parse_certificate(text: str) -> ParsedCertificate:
    """Parse the certificate text format; raises FormatError naming the bad line."""
    order: Optional[int] = None
    mu: Optional[int] = None
    labels: dict[int, int] = {}
    arcs: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if order is None:
            if fields[0] != "certificate" or len(fields) != 2:
                raise FormatError(f"line {lineno}: expected 'certificate <N>'")
            try:
                order = int(fields[1])
            except ValueError:
                raise FormatError(f"line {lineno}: order must be an integer") from None
            if order < 1:
                raise FormatError(f"line {lineno}: order must be positive")
            continue
        if fields[0] == "mu":
            if mu is not None or len(fields) != 2:
                raise FormatError(f"line {lineno}: expected one 'mu <value>' line")
            try:
                mu = int(fields[1])
            except ValueError:
                raise FormatError(f"line {lineno}: mu must be an integer") from None
        elif fields[0] == "l":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'l <vertex> <label>'")
            try:
                v, x = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError(f"line {lineno}: labels must be integers") from None
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
            try:
                tail, head = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError(f"line {lineno}: arc endpoints must be integers") from None
            if not 0 <= tail < order or not 0 <= head < order:
                raise FormatError(f"line {lineno}: arc endpoint out of range 0..{order - 1}")
            if tail == head:
                raise FormatError(f"line {lineno}: arc endpoints must differ")
            arcs.append((tail, head))
        else:
            raise FormatError(f"line {lineno}: unknown record '{fields[0]}'")
    if order is None:
        raise FormatError("line 1: missing 'certificate' header")
    if mu is None:
        raise FormatError("line 1: missing 'mu' line")
    if sorted(labels) != list(range(order)):
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
