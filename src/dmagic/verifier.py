"""Weight evaluation and certificate checking for oriented labelings.

The weight of a vertex x is the sum of the labels of its in-neighbors minus
the sum of the labels of its out-neighbors: each arc u -> v contributes +l(u)
to w(v) and -l(v) to w(u).  A labeling is magic when every weight equals the
same residue mu.

Weights are summed one tail u's run of canonical edges at a time, split
where the orientation bit changes.  A bit-0 run is the arcs u -> heads, a
bit-1 run the arcs heads -> u, so the run moves w(u) by -/+ the sum of its
heads' labels and each head by +/- l(u).  The heads of a run are taken to
be consecutive vertices, as in every blown-up clique: the sum is one slice
of the labels and the heads' share one step in a difference array.  The
bits are Orientation.bits, one bytes object with a byte per arc, so each
bit change is found by bytes.index, a scan in C.  When a tail's heads are
not consecutive, or the graph's runs average fewer than _LONG_RUN arcs, or
the bit runs found so far are already too many for the graph's edges to
average _LONG_RUN arcs a run, the weights are summed an arc at a time.  An
early cluster of bit changes is judged against every edge of the graph, not
the edges up to it, so it alone does not end the runs.  all_weights reads
only the graph's run table (an arc at a time, its edges), the bits and the
labels.

Certificate text is written and read as graph text is (see the graphs
module).  The arcs are written one vertex u's run of edges at a time, split
where the orientation bit changes: the lines of a bit-0 run share the
prefix 'a u ', those of a bit-1 run the ending ' u'.  The writer reads the
bits as they are: it counts the bit changes in one pass over them read as
one int, and finds each run's end with bytes.find.  Runs that average fewer
than _LONG_RUN arcs, or a graph that would need more vertex names than it
has edges, are written a line per arc.  parse_certificate is the line
reader: any spacing, comments and blank lines, and every error message.
read_certificate is the bulk reader; dmagic verify reads every certificate
through it.  It reads a certificate against the graph it is bound to, as
bind_certificate(parse_certificate(text), graph) does, but builds no arc.
The arc line of edge (u, v) has 4 + len(u) + len(v) characters whichever
way it points, so the graph alone fixes where each tail's run of lines
starts and ends.  Inside a run, str.find of ' u\n' (the end of a bit-1
line) or '\na u ' (the start of a bit-0 line) finds each bit change, and
counting the line ends before it gives its edge index; each bit run is one
slice of the bits.  When the graph's runs average fewer than _LONG_RUN
arcs, or the bit runs found so far are already too many for its edges to
average _LONG_RUN arcs a run, it reads word by word instead: only the tail
of each arc line, a bounded chunk of lines at a time, bit i being whether
that tail differs from the tail of edge i.  Either reader makes the bits as
one bytes object, which the Orientation keeps as it is.  Either way the
result is kept only if the writer of certificate_to_text, given that graph,
those bits, the labels and mu, gives back the input exactly.  That guard is
sound, whatever the bits were read from: the line reader reads that text
back into the same order, mu and labels, and into the graph's edges, in
canonical order, oriented by those bits, which bind_certificate binds to
exactly those bits.  Any other text, or a graph the text does not fit, goes
through bind_certificate(parse_certificate(text), graph) itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import add, getitem, ne, xor
from typing import List, Optional, Sequence, Tuple, Union

from .graphs import (FormatError, Orientation, UndirectedGraph, _TAIL, _bulk_chunks,
                     _edge_pairs, _edge_runs, _lines, _long_runs, _run_text, _tail_runs)

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
        if self.labels and not (0 <= min(self.labels) and max(self.labels) < self.modulus):
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
    """Raw weights (residues) of every vertex, summed a tail's run of one
    orientation bit at a time, or an arc at a time when the runs are short;
    see the module docstring."""
    bits, lab, mod = orientation.bits, labeling.labels, labeling.modulus
    w = _run_weights(graph, bits, lab)
    if w is None:
        w = [0] * graph.vertex_count
        for (u, v), b in zip(_edge_pairs(graph), bits):
            if b:  # the arc v -> u
                u, v = v, u
            w[v] += lab[u]
            w[u] -= lab[v]
    return [x % mod for x in w]


def _run_weights(graph: UndirectedGraph, bits: bytes,
                 lab: Sequence[int]) -> Optional[List[int]]:
    """The raw weights summed a tail's run of one bit at a time; None when a
    tail's heads are not consecutive, when the graph's runs average fewer
    than _LONG_RUN arcs, or when the bit runs found are too many for its
    edges to average _LONG_RUN arcs a run."""
    runs = _tail_runs(graph, 0)
    if runs is None:
        return None
    n, size = graph.vertex_count, graph._size
    w, steps, found = [0] * n, [0] * (n + 1), 0  # steps: what consecutive heads gain, as differences
    for u, i, heads in runs:
        if type(heads) is not range:  # the heads are not consecutive
            return None
        j, first = i + len(heads), heads.start
        k = i
        while k < j:  # the arcs k..m-1 point one way: u -> heads on bit 0, heads -> u on 1
            b = bits[k]
            try:
                m = bits.index(b ^ 1, k, j)
            except ValueError:
                m = j
            lo, hi = first + k - i, first + m - i  # the heads lo..hi-1
            share = -lab[u] if b else lab[u]  # what each head gains
            steps[lo] += share
            steps[hi] -= share
            total = sum(lab[lo:hi])
            w[u] += total if b else -total
            k, found = m, found + 1
            if not _long_runs(size, found):  # even if every later arc were in this run
                return None
    return list(map(add, w, accumulate(steps)))


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
    return _certificate_text(cert.labeling.modulus, cert.mu, cert.labeling.labels, cert.orientation)


def _certificate_text(order: int, mu: int, labels: Sequence[int], orientation: Orientation) -> str:
    """The text of a certificate; the arcs are written a run of one tail and
    one bit at a time, as the module docstring says."""
    graph, bits = orientation.graph, orientation.bits  # a byte 0 or 1 per arc
    parts = [f"certificate {order}\n{_CONVENTION_LINE}\nmu {mu}\n",
             "l %d %d\n" * len(labels) % tuple(chain.from_iterable(enumerate(labels)))]
    runs = _edge_runs(graph, _bit_changes(bits))
    if runs is None:
        ends = [0] * (2 * len(bits))  # tail, head, tail, head, ...
        ends[::2] = map(getitem, _edge_pairs(graph), bits)
        ends[1::2] = map(getitem, _edge_pairs(graph), map(xor, bits, repeat(1)))
        parts.append("a %d %d\n" * len(bits) % tuple(ends))
        return "".join(parts)
    for tail, start, heads in runs:
        tail_flags, i = bits[start:start + len(heads)], 0
        while i < len(heads):
            j = tail_flags.find(tail_flags[i] ^ 1, i)
            if j < 0:
                j = len(heads)
            run = heads[i:j]
            if tail_flags[i]:
                parts += "a ", f" {tail}\na ".join(run), f" {tail}\n"
            else:
                parts.append(_run_text(f"a {tail} ", run))
            i = j
    return "".join(parts)


def _bit_changes(bits: bytes) -> int:
    """The places where the bit changes from one arc to the next, counted in
    one pass over bits read as one int x: byte i of x ^ x >> 8 is bits[i] ^
    bits[i + 1], and the last byte is the last bit itself."""
    x = int.from_bytes(bits, "little")
    return (x ^ x >> 8).bit_count() - (bits[-1] if bits else 0)


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
        try:
            order = int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: order must be an integer") from None
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
    graph is read in bulk, a run at a time or word by word, and builds no
    arc; see the module docstring.
    """
    try:
        start = 0
        for _ in range(3):  # the header, the weight convention and mu
            start = text.find("\n", start) + 1 or len(text)
        _, order, *_, mu = text[:start].split()
        order, mu = int(order), int(mu)
        arcs = text.find("\na ", start - 1) + 1 or len(text)
        labels = tuple(map(int, text[start:arcs].split()[2::3]))
        bits = _run_bits(text, arcs, graph)
        if bits is None:  # the word reader: the tail of each arc line
            tails: List[int] = []
            for fields, value in _bulk_chunks(text, arcs):
                tails.extend(map(value, fields[1::3]))
            # the bools as bytes 0 and 1
            bits = bytes(map(ne, tails, map(_TAIL, _edge_pairs(graph))))
    except ValueError:
        return bind_certificate(parse_certificate(text), graph)
    # text that is not dmagic's can give either reader more or fewer bits than edges
    if (len(bits) == graph._size and 0 < order == graph.vertex_count == len(labels)
            and 0 <= min(labels) and max(labels) < order):
        orientation = Orientation(graph, bits)
        if _certificate_text(order, mu, labels, orientation) == text:
            return orientation, Labeling(order, labels), mu % order
    return bind_certificate(parse_certificate(text), graph)


def _run_bits(text: str, start: int, graph: UndirectedGraph) -> Optional[bytes]:
    """The orientation bits of the arc lines from offset start, read a tail's
    run of one bit at a time, as the module docstring says; None when the
    graph's runs average fewer than _LONG_RUN arcs, or when the bit runs
    found are too many for its edges to average _LONG_RUN arcs a run."""
    runs = _tail_runs(graph, 0)
    if runs is None:
        return None
    size = graph._size
    bits, found = bytearray(size), 0
    for u, i, heads in runs:
        j, last = i + len(heads), heads[-1]
        zero, one = f"\na {u} ", f" {u}\n"  # the start of a bit-0 line, the end of a bit-1 line
        # a line is 'a u v' or 'a v u', 4 + len(u) + len(v) characters either way,
        # and a head v has a digit for each of 1, 10, 100, ... up to v
        end, p = start + (j - i) * (len(one) + 2), 1
        while p <= last:
            end += len(heads) - bisect_left(heads, p)
            p *= 10
        s, k = start, i
        while s < end:  # s starts line k, the first line not yet read, read as bit 1
            z = text.find(zero, s - 1, end) + 1 or end  # the first bit-0 line from s
            n = k + text.count("\n", s, z)
            bits[k:n] = b"\1" * (n - k)
            found += (k < n) + (z < end)
            if not _long_runs(size, found):  # even if every later arc were in this run
                return None
            o = text.find(one, z, end)  # within the first bit-1 line after z
            if o < 0:
                break
            s = text.rfind("\n", z, o) + 1
            if s <= z:  # no line ended: not dmagic's text
                return None
            k = n + text.count("\n", z, s)
        start = end
    return bytes(bits)
