"""Automorphisms found by search: twin classes, and the orbit of a vertex
under the automorphisms that fix a set of vertices.

The search imports this module only in a reduced run, for its orbit
nogoods (search._run).  Every dmagic process imports search, so code here
is compiled only by the runs that use it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graphs import UndirectedGraph

# orbit gives up, proving nothing, before a round of its colour refinement
# would read more than this many colours in all: each round over both sides
# of the twin quotient, Q pieces and E_Q edges, reads 2(Q + 2E_Q).  A search
# refines two orbits at its first poll: on path(4000) two refinements to 2^20
# prove nothing in 0.6 s, the time of some 600k nodes; to 2^16, in 0.04 s.
# The budget proves K_m[n] transitive through K_m for m <= 25, not beyond.
_AUTOMORPHISM_CAP = 1 << 16


def twins(graph: UndirectedGraph) -> List[Tuple[int, ...]]:
    """Each vertex's twin class, read off the neighbour table graph._nbrs.

    Twins share their open neighbourhood (false twins, never adjacent) or
    their closed one (true twins, always adjacent), and swapping two of them
    while fixing every other vertex is an automorphism.  No vertex has twins
    of both kinds: if N(u) = N(v) and N[u] = N[w], then w is in N(u) = N(v),
    yet v is not in N[u] = N[w].  So a vertex's class is its open class if
    that holds another vertex, else its closed one, and the classes, each an
    independent set or a clique, part V.  One hashing pass per kind: O(N + E).
    """
    twin = [(v,) for v in range(graph.vertex_count)]
    for closed in (True, False):
        classes: Dict[Tuple[int, ...], List[int]] = {}
        for v, nb in enumerate(graph._nbrs):
            if closed:  # v put into its ascending place
                k = bisect_left(nb, v)
                nb = nb[:k] + (v,) + nb[k:]
            classes.setdefault(nb, []).append(v)
        for members in classes.values():
            if len(members) > 1:
                for v in (members := tuple(members)):
                    twin[v] = members
    return twin


def orbit(nbrs: Sequence[Tuple[int, ...]], twin: List[Tuple[int, ...]], v: int,
           fixed: Sequence[int] = (), deadline: Optional[float] = None) -> Set[int]:
    """The orbit of v under automorphisms that fix every vertex of fixed,
    found reading at most _AUTOMORPHISM_CAP colours and before perf_counter()
    passes deadline; {v} alone once the search gives up, proving nothing.
    nbrs is graph._nbrs and twin is twins(graph).

    The search runs on the quotient whose pieces are the twin classes, each
    vertex of fixed split off alone.  A piece is an independent set or a
    clique, and two pieces are joined by every edge or by none, so a map of
    the quotient that keeps edges, each piece's size and kind and each fixed
    vertex lifts to an automorphism, taking each piece onto its image by any
    bijection: the orbit is the union of the pieces in the orbit of v's
    piece.  An automorphism maps twin classes onto twin classes, so on a
    vertex-transitive graph they have one size and one kind, and the quotient
    is vertex-transitive too: K_m[n] is proven through K_m.

    Individualization-refinement (McKay and Piperno): to map piece p onto t,
    give p its own colour on one side and t on the other, and refine both
    colourings in lockstep, each piece's new colour its colour and its
    neighbours' sorted colours; once the two sides' multisets of new colours
    differ, no such map is left.  Then the first piece of the first cell of
    two or more is given its own colour against each piece of the same cell
    on the other side in turn, depth first.  Where every colour is one piece,
    the two colourings pair the pieces off.  As the last round matched each
    piece's neighbour colours with its partner's, the pairing maps edges onto
    edges; it is checked edge by edge all the same before it is kept.

    The targets are the pieces that refinement alone leaves in p's colour,
    and one already in the orbit, closed under the maps kept, needs none.
    They are taken from the top: on K_n the map found for n - 1 is an
    n-cycle, which completes the orbit at once.  A 2-regular quotient of one
    colour with nothing fixed needs no search: it is a union of cycles, and
    p's orbit is every cycle as long as p's, as rotations and swaps of equal
    cycles map p onto their pieces, and an automorphism keeps the length of
    the cycle through a piece.  The walk reads each piece once, so it runs
    however far one refinement round would pass the work cap.
    """
    fixed = set(fixed)
    piece, parts, keys = [-1] * len(nbrs), [], []
    for u, nb in enumerate(nbrs):
        if piece[u] < 0:
            part = [u] if u in fixed else [w for w in twin[u] if w not in fixed]
            for w in part:
                piece[w] = len(parts)
            keys.append((u if u in fixed else -1, len(part), part[-1] in nb))
            parts.append(part)
    n, p = len(parts), piece[v]
    if n < len(nbrs):  # else every piece is one vertex, and the quotient is the graph
        nbrs = [sorted({piece[w] for w in nbrs[part[0]]} - {i}) for i, part in enumerate(parts)]
    colours = {key: i for i, key in enumerate(sorted(set(keys)))}
    if not fixed and len(colours) == 1 and all(len(x) == 2 for x in nbrs):
        length = [0] * n  # walk each cycle; the other neighbour of t is the sum less prev
        for s in range(n):
            if not length[s]:
                cycle, prev, t = [s], s, nbrs[s][0]
                while t != s:
                    cycle.append(t)
                    prev, t = t, sum(nbrs[t]) - prev
                for t in cycle:
                    length[t] = len(cycle)
        return {w for t in range(n) if length[t] == length[p] for w in parts[t]}
    edges = [(a, b) for a in range(n) for b in nbrs[a] if a < b]
    work = _AUTOMORPHISM_CAP
    cost = 2 * (n + 2 * len(edges))  # one round
    adj = [set(x) for x in nbrs]

    def refine(left: List[int], right: List[int]) -> Optional[Tuple[List[int], List[int]]]:
        nonlocal work
        k = 0
        while True:
            if work < cost or (deadline is not None and perf_counter() > deadline):
                work = -1  # give up before the round that would pass the cap
                return None
            work -= cost
            sig = [[(c[u], tuple(sorted([c[w] for w in nbrs[u]]))) for u in range(n)]
                   for c in (left, right)]
            if Counter(sig[0]) != Counter(sig[1]):
                return None
            colour = {s: i for i, s in enumerate(sorted(set(sig[0])))}
            if len(colour) == k:
                return left, right
            k = len(colour)
            left, right = ([colour[s] for s in side] for side in sig)

    def individualize(c: List[int], u: int) -> List[int]:
        return c[:u] + [n] + c[u + 1:]  # above every colour in use; refine renumbers

    def automorphism(t: int) -> Optional[List[int]]:
        stack = [(base, base, p, iter([t]))]  # (left, right, u, the w to try for u)
        while stack and work >= 0:
            left, right, u, ws = stack[-1]
            w = next(ws, None)
            if w is None:
                stack.pop()
                continue
            pair = refine(individualize(left, u), individualize(right, w))
            if pair is None:
                continue
            left, right = pair
            cell = min((c for c, size in Counter(left).items() if size > 1), default=None)
            if cell is None:
                at = {c: x for x, c in enumerate(right)}
                sigma = [at[c] for c in left]
                if all(sigma[b] in adj[sigma[a]] for a, b in edges):
                    return sigma
            else:
                stack.append((left, right, left.index(cell),
                              iter([x for x in range(n) if right[x] == cell])))
        return None

    start = [colours[key] for key in keys]
    base = (refine(start, start) or (start,))[0]
    found, gens = {p}, []  # the orbit of p so far
    for t in range(n - 1, -1, -1):
        if t in found or base[t] != base[p] or work < 0:
            continue
        sigma = automorphism(t)
        if sigma is not None:
            gens.append(sigma)
            new = found
            while new:
                new = {s[x] for s in gens for x in new} - found
                found |= new
    return {v} if work < 0 else {w for t in found for w in parts[t]}

