"""Exhaustive search for a magic orientation-plus-labeling of a small graph.

The search interleaves label choices with arc choices: vertices are visited in
maximum-adjacency order, and each vertex is labeled and then its edges to
earlier vertices are oriented.  The last vertex is the exception: once the
second-to-last is labeled its label is the one left, so it is labeled right
after the second-to-last, and every vertex is labeled while the last two
vertices' arcs are chosen.  Each choice point is one step, N + E in all,
walked by one loop over an explicit stack, never by recursion, so a deep
graph costs memory rather than interpreter stack.  Each depth's applied
choice is its undo record.

The visit order is fixed, so what a step can check depends on its depth
alone.  _steps builds this check plan once per run, from running counts in
O(N + E): the touched vertices with all neighbours labeled and at most 3
undecided edges, with the neighbours on those edges.  Such a vertex y is
checked by its reach set, its weight plus +-l for each label l pending on its
undecided edges, one sum per choice of signs; a closed vertex, with nothing
pending, reaches its weight alone.  The reach set is one bit mask over Z_N:
the bit of y's weight, rotated both ways by each pending label in turn.  The
magic constant is never enumerated: the search keeps the set of constants
still possible, as one such mask, and each reach set narrows it.  The first
step with a closed vertex, at the same depth on every branch, leaves one
constant: it pins it.  Pruning rules:

  weight    a closed vertex empties the set of possible constants: its weight
            is off the pinned constant, or off every constant still possible
  interval  an open vertex's reach set empties the set of possible constants
  parity    the 0/1 label-parity pattern fixed so far extends to no solution of
            the weight-parity system with exactly N/2 odd labels
  forward   below the pin depth, a label step for a tries only labels l with
            pw(y) + l or pw(y) - l equal to the constant, for each touched y
            whose one undecided edge leads to a (Haralick and Elliott's
            forward checking); the labels it drops are exactly those whose
            nodes the interval rule would prune, and as they are never nodes,
            no prune is counted for them

The set of possible constants is sound: a vertex y whose neighbours are all
labeled and which has at most 3 undecided edges ends with weight pw(y) + sum
of +-l(w) over the pending labels l(w), for one choice of signs, and a
witness gives it weight mu.  So mu is among those sums, and deciding one of
y's arcs fixes one sign, which keeps only some of them.  Intersecting these
reach sets along a branch therefore keeps mu for every witness below it: a
branch whose set is empty holds no witness.

The order of the steps does not change which witness is met first.  The
last vertex's label step has one candidate on every branch, the one label
the other vertices left unused, wherever it stands, so moving it earlier
keeps the complete assignments in the same depth-first order.  Each rule
discards only branches that hold no witness, so the walk meets the first
witness of that order, the one it meets with no pruning at all.

A label step's candidates are one bit mask over places in the seeded label
order (_steps), from which the used labels and the forward check clear
bits; the step tries the set bits low to high, so in seeded order, at a cost
that grows with the candidates left rather than with N.

The parity candidates are one int over candidate indices, narrowed by a
per-vertex mask at each label step and by a weight-parity mask at the pin.
The rules only discard assignments that cannot extend to a witness, so an
exhausted search is a sound nonexistence verdict.

Two symmetries map witnesses to witnesses, and SearchConfig.reduce searches
one witness of each of their orbits:

  arc reversal  reversing every arc negates every weight, so a witness with
                constant mu becomes one with -mu: the first arc step tries only
                its first direction
  unit group    for a unit u of Z_N, u*l is again a bijection onto Z_N (u*x =
                u*y gives x = y), and a weight is a signed sum of labels, so
                w_{u*l} = u*w_l: a witness with constant mu becomes one with
                u*mu.  The first two labels are a kept pair (_pairs).

Reversal acts on the arcs alone and the units on the labels alone, so the two
commute: a witness is moved by a reversal to one whose first arc takes its
first direction, and then by a unit, which keeps that arc, to one whose first
two labels are kept.  That witness is in the reduced tree, so no orbit is lost.

A third symmetry, the graph's automorphisms, bars labels in the reduced
walk (orbit nogoods: Gent and Smith, "Symmetry breaking during
search", ECAI 2000).  Once a label step for v has exhausted the subtree of
label x, x is barred from every vertex of v's orbit under the automorphisms
that fix every vertex labeled above v, until the walk leaves that step; the
first label step bars the whole unit orbit U*x, and the second, below first
label g, the stabilizer orbit S_g*x.  A later label step's candidates lose
the labels barred for its vertex, so, as forward-checked labels, they are
never nodes.  If the orbit holds every vertex not yet labeled, x has nowhere
left to go and the step ends at once: one exhausted first label ends the
search on a graph symmetry.orbit proves vertex-transitive within its cap.

Take a witness W below the step's prefix P, the labels and arcs fixed above
it, with l(w) = u*x for some w in the orbit and u in the group barred with x
(u = 1 past the second step), and an automorphism s that fixes every labeled
vertex and takes w to v.  Moving W along s keeps P, as s fixes each labeled
vertex and so each edge between two of them, and gives l(v) = u*x.  Scaling
by 1/u, which keeps g at the second step, keeps P and gives l(v) = x.  P
holds the first arc if it holds any arc; if not, a reversal, if needed,
gives the first arc its first direction and keeps every label.  At the first
step a unit of S_x then takes l(v1) to its kept second label.  The result
lies in the exhausted subtree of x, which holds no witness, as every rule
and every earlier nogood discards only branches with none.  So each barred
branch holds no witness: verdicts and first witnesses stay the same.

Every run walks the reduced tree split at the kept pairs of first two labels
(_pairs), one job each, in order, so a serial run and a parallel one visit
the same nodes.  Inside a job the first two labels are fixed, so only twin
classes bar there (_nogoods), and they are built before its first node.  The
orbits of the first two label steps come from symmetry.orbit, found once, at
the run's first poll or when its first job ends, whichever comes first: a
run that ends within its first pair refines nothing.  They cut the pairs to
the first label's only if the first label step ends, and to the first pair
of each first label if the second does, as the walk tries no other.  And
they give the job for pair (g, b) what the walk has barred on reaching it:
U*h in the first step's slot for each first label h before g, and S_g*c in
the second's for each pair (g, c) before (g, b).  The proof above needs of a
barred x only that the subtree of x holds no witness, so these pre-bars are
sound once every earlier pair is exhausted; the run answers "exhausted" only
when every pair is, and verifies any witness again.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from math import gcd
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from . import fanout
from .graphs import Orientation, UndirectedGraph
from .obstructions import parity_solutions
from .verifier import Labeling, MagicCertificate, verified

__all__ = ["SearchConfig", "SearchStats", "SearchOutcome", "VERDICT_WITNESS",
           "VERDICT_EXHAUSTED", "VERDICT_INCONCLUSIVE", "decide_existence"]

VERDICT_WITNESS = "witness"
VERDICT_EXHAUSTED = "exhausted-no-solution"
VERDICT_INCONCLUSIVE = "inconclusive"

_PRUNE_KEYS = ("weight", "interval", "parity")

# The search runs without the parity rule when either constant of the root
# parity system has more solutions than this, which bounds the work of
# listing them and building their masks.  The value decides which searches
# use the rule, so changing it changes their trees.
PARITY_LIST_CAP = 4096

_POLL = 1024  # nodes between polls; the run finds its first two orbits at the first
              # (or when its first job ends, if sooner), and a parallel one starts its helpers


@dataclass(frozen=True)
class SearchConfig:
    """Budgets, reductions, and determinism knobs for the search.

    reduce, on by default, fixes the first arc, keeps one pair of first two
    labels per orbit of the unit group of Z_N, and bars labels by orbit
    nogoods (see the module docstring); off, the search walks the whole
    unreduced tree, the reference for tests.  seed shuffles the order in which
    labels are tried.

    A run searches the kept pairs of first two labels in order, one subtree
    each.  With workers > 1, workers - 1 helper processes join the calling
    process once the run passes 1024 nodes: a run that ends sooner returns
    the serial witness, and in a longer one timing decides which witness
    comes first.  The node budget counts the nodes of all workers, the time
    budget is one deadline, and the first witness stops the run.  Each worker
    notices a stop on its next poll, every 1024 nodes, or when its pair is
    done, so a parallel run may overshoot its budgets by up to 1024 nodes per
    worker; a serial one stops at budget + 1 nodes.
    """

    node_budget: Optional[int] = None
    time_budget: Optional[float] = None
    workers: int = 1
    reduce: bool = True
    parity_prune: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time_budget must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class SearchStats:
    """Nodes visited, prunes by rule, and seconds since the search began.

    prunes counts the nodes each rule discarded: weight, the set of possible
    constants left empty by a closed vertex, whose reach set is its weight
    alone; interval, that set left empty by the reach set of a vertex with
    undecided edges; parity, the parity candidates left empty at a label step
    or at the pin, or at the root when the parity system has no solution at
    all.  Labels dropped by forward checking are never nodes, so no prune
    counts them.
    """

    nodes: int = 0
    prunes: Dict[str, int] = field(default_factory=lambda: {k: 0 for k in _PRUNE_KEYS})
    elapsed: float = 0.0


@dataclass
class SearchOutcome:
    verdict: str
    certificate: Optional[MagicCertificate]
    stats: SearchStats


# Root parity candidates (all, by_vertex, by_c): bit i of all is candidate i,
# a (vertex parity pattern, weight parity c) pair; by_vertex[v][b] keeps those
# giving v label parity b, by_c[c] those with weight parity c.
_Parity = Optional[Tuple[int, Tuple[Tuple[int, int], ...], Tuple[int, int]]]
_Plan = Tuple[List[Tuple], List[int], int]  # see _steps
_Nogoods = Tuple[List[int], List[Optional[int]], int]  # see _nogoods
_Pair = Tuple[int, int, int, int]  # see _pairs


def _turn(reach: int, lam: int, mod: int, everything: int) -> int:
    """The residues of mask reach over Z_mod moved by +lam and by -lam: the
    mask rotated both ways."""
    return (reach << lam | reach >> mod - lam | reach >> lam | reach << mod - lam) & everything


def _members(mask: int, order: List[int]) -> Iterator[int]:
    """order[i] for each set bit i of mask, low to high."""
    while mask:
        low = mask & -mask
        yield order[low.bit_length() - 1]
        mask ^= low


def _visit_order(graph: UndirectedGraph) -> List[int]:
    """Maximum-adjacency order: next vertex has most labeled neighbors."""
    n, nbrs = graph.vertex_count, graph._nbrs
    # (labeled neighbours, degree, -v) packed into one int
    key = [len(nb) * n + n - 1 - v for v, nb in enumerate(nbrs)]
    rest = set(range(n))
    order = []
    while rest:
        best = max(rest, key=key.__getitem__)
        order.append(best)
        rest.discard(best)
        for w in nbrs[best]:
            key[w] += n * n
    return order


def _nogoods(steps: List[Tuple], twin: List[Tuple[int, ...]],
             orbits: Sequence[Set[int]] = ()) -> _Nogoods:
    """(reads, bars, slots), for each step: reads, the slots whose barred
    labels it skips, as a mask over slot numbers; bars, for a label step
    below the second, the slot it bars its exhausted labels in, or -1 if it
    ends after its first label, else None; and the number of slots.  twin is
    symmetry.twins' classes.

    Slots are numbered in the order they are made, so a mask has no more
    bits than there are slots.  Below the second label step a label step's
    orbit is its unlabeled twins, which refinement would pay for at every
    depth.  A step whose orbit holds every vertex not yet labeled ends after
    its first label; a step whose orbit holds any other vertex bars its
    labels from that vertex's step, in its twin class's slot, 2, 3, ..., made
    by the class's first such step and shared by its later steps.  The first
    two label steps try one label in a job; given their orbits, the other
    vertices of each that does not end read its slot, 0 or 1, which holds the
    job's pre-bars (_pairs).
    """
    at = [d for d, step in enumerate(steps) if step[0]]
    order = [steps[d][1] for d in at]
    n = len(order)
    rank = [0] * n  # rank[v]: v's place in label order
    for k, v in enumerate(order):
        rank[v] = k
    reads = [0] * len(steps)
    bars: List[Optional[int]] = [None] * len(steps)
    for k, (v, orbit) in enumerate(zip(order, orbits)):
        if len(orbit) < n - k:  # else that step ends: _pairs keeps its first label only
            for w in orbit - {v}:
                reads[at[rank[w]]] |= 1 << k
    slot: Dict[int, int] = {}  # the slot of each class barred in, by its least vertex
    for k in range(2, n):
        d, v = at[k], order[k]
        if twin[v][0] in slot:
            reads[d] |= 1 << slot[twin[v][0]]
        orbit = [w for w in twin[v] if rank[w] >= k]
        if len(orbit) == n - k:
            bars[d] = -1
        elif len(orbit) > 1:
            bars[d] = slot.setdefault(twin[v][0], 2 + len(slot))
    return reads, bars, 2 + len(slot)


def _pairs(plan: _Plan, orbits: Sequence[Set[int]] = ()) -> Iterator[_Pair]:
    """The kept pairs (g, b) of first two labels of a reduced run in walk
    order, each with the masks of the labels the walk has barred on reaching
    it: in slot 0, U*h for each first label h before g, and in slot 1, S_g*c
    for each pair (g, c) before it.

    The pairs are those of the unit group U of Z_N, in the seeded label
    order plan[1]: the first labels g are one element of each U-orbit, and
    after g the second labels b are the least element of each orbit of
    Z_N - {g} under the stabilizer S_g = {u in U : u*g = g}.  Every pair
    (a, b), a != b, is then mapped by some unit onto exactly one kept pair:

    - The U-orbits are the sets {y : gcd(y, N) = d} for d | N, each with
      least element d (0 for d = N), so the first labels are 0 and the proper
      divisors of N.  A unit keeps gcd(y, N).  Conversely, for y = d*y' with
      gcd(y', N/d) = 1, let t be the product of the primes of N that divide
      neither y' nor N/d: no prime of N divides u = y' + (N/d)*t, so u is a
      unit, and u*d = y.
    - S_g fixes g, so no S_g-orbit of Z_N - {g} contains g.  Given (a, b),
      a unit u takes a to its representative g, and some s in S_g takes u*b
      to the least element of its S_g-orbit; s*u maps (a, b) onto a kept pair.
    - Two kept pairs in one U-orbit share their first label g, so the unit
      between them lies in S_g and their second labels share an S_g-orbit:
      they are the same pair.

    Given the orbits of the first two label steps (see _nogoods), only the
    first label's pairs are kept if step 0's holds every vertex, only the
    first pair of each first label if step 1's holds every vertex but the
    first, and a step whose orbit is its vertex alone bars nothing.  Without
    them every kept pair is listed, with nothing barred.  The pairs after g
    are found only once g's are listed.
    """
    seeded = plan[1]
    n = len(seeded)
    size = [len(orbit) for orbit in orbits] or [1, 1]
    bit = [0] * n
    for i, lam in enumerate(seeded):
        bit[lam] = 1 << i
    units, slot_n = [u for u in range(n) if gcd(u, n) == 1], 0
    first = [g for g in seeded if g == 0 or n % g == 0]
    for g in first[:1] if size[0] == n else first:
        stab = [u for u in units if u * g % n == g]
        # a single vertex has no second label: its one job never reads b
        kept = [b for b in seeded if b != g and all(u * b % n >= b for u in stab)] or [g]
        slot_n1 = 0
        for b in kept[:1] if size[1] == n - 1 else kept:
            yield g, b, slot_n, slot_n1
            if size[1] > 1:
                slot_n1 |= sum(bit[y] for y in {u * b % n for u in stab})
        if size[0] > 1:
            slot_n |= sum(bit[y] for y in {u * g % n for u in units})


@dataclass(frozen=True)
class _AllPairs:
    """The pairs of an unreduced run: each (g, b) with b != g, in seeded
    label order, nothing barred.  Pair i is found by arithmetic, so the
    N(N - 1) pairs are never held."""

    labels: List[int]

    def __len__(self) -> int:
        return len(self.labels) * (len(self.labels) - 1) or 1  # one vertex: the pair (g, g)

    def __getitem__(self, i: int) -> _Pair:
        n = len(self.labels)
        q, r = divmod(i, n - 1 or 1)  # b is the r-th label other than g, or g alone
        return self.labels[q], self.labels[(r + (r >= q)) % n], 0, 0


def _steps(graph: UndirectedGraph, config: SearchConfig) -> _Plan:
    """The check plan: steps in visit order, seeded label order, pin depth.

    The last vertex's label step comes right after the second-to-last's
    (see the module docstring).

    A step is (label, a, b, opens, last): a label step labels a (b is a); an
    arc step orients edge (a, b), a -> b by choice 0, and last is its last
    choice.  opens holds the touched vertices with no unlabeled neighbour and
    at most 3 undecided edges as (y, pend): pend holds the neighbours on those
    edges, whose labels give y's reach set.  A closed vertex, one whose last
    edge is decided, has pend == (); the pin is the first step with one.  A
    touched vertex with an unlabeled neighbour, or with more than 3 undecided
    edges, is not checked.  Below the pin depth, last of a label step holds
    instead the touched vertices with no unlabeled neighbour and one
    undecided edge, the edge to a, left out of opens: they forward-check a's
    label.

    The counts come from a running state, not from the step's place in the
    label-then-arcs shape: y's labeled neighbours on undecided edges are
    pend[y][start[y]:], those labeled before y in ascending order, then each
    one labeled after y, read off the neighbour table graph._nbrs.  Edges are
    decided in that same order at both ends (an earlier vertex waits on at
    most the second-to-last vertex and then the last), so an arc step only
    advances start, and only a label step makes a tuple.  Steps share these
    tuples, so the plan takes O(N + E) memory.

    Every label step tries its labels in the seeded order, a shuffle of Z_N
    by config.seed; a run's pairs (_pairs, _AllPairs) fix the first two.
    """
    n, nbrs = graph.vertex_count, graph._nbrs
    order = _visit_order(graph)
    pos = sorted(range(n), key=order.__getitem__)  # pos[v] is v's place in order
    last_arc = 0 if config.reduce else 1
    labeled = [False] * n
    unlabeled = list(map(len, nbrs))
    pend: List[Tuple[int, ...]] = [()] * n  # pend[y][start[y]:] are y's labeled
    start = [0] * n                          # neighbours on undecided edges
    steps: List[Tuple] = []
    pin = -1

    def checks(touched: List[int], a: int = -1) -> Tuple[Tuple, Tuple]:
        """opens and, for a label step of a, the forward-checked vertices."""
        nonlocal pin
        forward = a >= 0 and 0 <= pin
        opens, checked = [], []
        for y in touched:
            m = len(pend[y]) - start[y]  # undecided edges, if y has no unlabeled neighbour
            if unlabeled[y] or m > 3:
                continue
            if m == 1 and forward and y != a:
                checked.append(y)
            else:
                opens.append((y, pend[y][start[y]:]))
                if not m and pin < 0:
                    pin = len(steps)
        return tuple(opens), tuple(checked)

    def label(v: int) -> None:
        labeled[v] = True
        earlier = [u for u in nbrs[v] if labeled[u]]
        for u in earlier:
            pend[u] = pend[u][start[u]:] + (v,)
            start[u] = 0
        for u in nbrs[v]:
            unlabeled[u] -= 1
        pend[v] = tuple(earlier)
        steps.append((True, v, v) + checks([v] + earlier, v))

    for i, v in enumerate(order):
        if not labeled[v]:
            label(v)
        if i == n - 2:
            label(order[-1])
        for w in nbrs[v]:
            if pos[w] < i:
                start[w] += 1  # the edge leads to the first pending neighbour
                start[v] += 1  # of each endpoint
                a, b = (w, v) if w < v else (v, w)
                steps.append((False, a, b, checks([w, v])[0], last_arc))
                last_arc = 1
    labels = list(range(n))
    if config.seed != 0:
        random.Random(config.seed).shuffle(labels)
    return steps, labels, pin


def _root_parity_candidates(graph: UndirectedGraph, config: SearchConfig,
                            deadline: Optional[float] = None) -> _Parity:
    if not config.parity_prune or graph.vertex_count % 2 != 0:
        return None
    sols = parity_solutions(graph, max_solutions=PARITY_LIST_CAP, deadline=deadline)
    if sols is None:
        return None
    n = graph.vertex_count
    masks = sols[0] + sols[1]
    everything = (1 << len(masks)) - 1
    even = (1 << len(sols[0])) - 1
    # transpose the bit matrix: column v of the masks, last row first, is the
    # set of candidates giving v parity 1
    rows = [format(mask, f"0{n}b") for mask in reversed(masks)]
    odd = [int("".join(col), 2) for col in zip(*rows)][::-1] if rows else [0] * n
    return everything, tuple((everything ^ o, o) for o in odd), (even, everything ^ even)


def _search(graph: UndirectedGraph, parity: _Parity, plan: _Plan, job: _Pair,
            nogoods: Optional[_Nogoods] = None, poll: Optional[Callable[[], bool]] = None,
            limit: int = sys.maxsize) -> SearchOutcome:
    """Run the step loop of plan, _steps(graph, config), from the root, over
    the subtree of one kept pair of first two labels: job, (g, b, pre-bars in
    slot 0, pre-bars in slot 1), of _pairs.

    nogoods, _nogoods(...), if given, bar labels from the first node.  poll,
    if given, is called every _POLL nodes, and the search stops as
    inconclusive once it returns true, or once it passes limit nodes.
    """
    steps, seeded, pin = plan
    mod = graph.vertex_count
    everything = (1 << mod) - 1
    # label sets are masks over places in the seeded order: bit[lam] is lam's
    # place's bit
    bit = [0] * mod
    for i, lam in enumerate(seeded):
        bit[lam] = 1 << i
    second = bit[job[1]]  # the only label step 1 tries
    root, by_vertex, by_c = parity or (-1, ((-1, -1),) * mod, (-1, -1))
    labels = [-1] * mod  # a label step's undo leaves its label stale
    pw = [0] * mod
    stats = SearchStats()
    prunes = stats.prunes
    t0 = perf_counter()

    def finish(verdict: str, nodes: int, cert: Optional[MagicCertificate] = None) -> SearchOutcome:
        stats.nodes, stats.elapsed = nodes, perf_counter() - t0
        return SearchOutcome(verdict, cert, stats)

    tick = min(limit + 1, _POLL)  # the next node count to poll or check the limit at
    last = len(steps) - 1
    todo = [iter(())] * len(steps)  # the untried labels of each label step
    applied = [-1] * len(steps)
    par = [root] * len(steps)  # the parity candidates left on entering each depth
    mus = [everything] * len(steps)  # the magic constants still possible there, as bits
    todo[0] = iter(job[:1])  # no label is used yet
    # orbit nogoods (see the module docstring), reduced only: barred[slot] holds
    # the labels barred in slot, in slots 0 and 1 by the job's pre-bars, in the
    # others by the label steps on the path; bit e of live is set while barred[e]
    # is not empty, so that until a label is barred no step reads a slot
    reads, bars, slots = nogoods or ([0] * len(steps), [None] * len(steps), 2)
    barred = [*job[2:], *[0] * (slots - 2)]
    live = sum(1 << e for e in (0, 1) if barred[e])

    def barring(mask: int, slot: int) -> Iterator[int]:
        # _members(mask, seeded), each label barred in slot once its subtree is
        # exhausted; the slot is restored once the step ends
        nonlocal live
        before = barred[slot]
        while mask:
            low = mask & -mask
            yield seeded[low.bit_length() - 1]
            barred[slot] |= low
            live |= 1 << slot
            mask ^= low
        barred[slot] = before
        if not before:
            live &= ~(1 << slot)

    used = mu = nodes = d = 0
    while True:
        # undo the choice this depth applied last, then take its next one
        label, a, b, opens, last_arc = steps[d]
        x = applied[d]
        if x >= 0:
            if label:
                used ^= bit[x]
            elif x:
                pw[a] -= labels[b]
                pw[b] += labels[a]
            else:
                pw[b] -= labels[a]
                pw[a] += labels[b]
        x = applied[d] = next(todo[d], -1) if label else (x + 1 if x < last_arc else -1)
        if x < 0:
            if d == 0:
                return finish(VERDICT_EXHAUSTED, nodes)
            d -= 1
            continue
        nodes += 1
        if nodes == tick:
            if (poll is not None and not nodes % _POLL and poll()) or nodes > limit:
                return finish(VERDICT_INCONCLUSIVE, nodes)
            tick = min(limit + 1, nodes + _POLL)
        p, consts = par[d], mus[d]
        if label:
            labels[a] = x
            used |= bit[x]
            p &= by_vertex[a][x & 1]
            if not p:
                prunes["parity"] += 1
                continue
        elif x:
            pw[a] += labels[b]
            pw[b] -= labels[a]
        else:
            pw[b] += labels[a]
            pw[a] -= labels[b]
        for y, pend in opens:  # the weights y can still reach
            reach = 1 << pw[y] % mod
            for w in pend:
                reach = _turn(reach, labels[w], mod, everything)
            consts &= reach
            if not consts:
                break
        if not consts:  # pend is that of the vertex that emptied the set
            prunes["interval" if pend else "weight"] += 1
            continue
        if d == pin:  # a closed vertex left one constant
            mu = consts.bit_length() - 1
            p &= by_c[mu & 1]
            if not p:
                prunes["parity"] += 1
                continue
        if d == last:  # an arc step's (a, b) is a stored edge, and its choice is the edge's bit
            bits = bytearray(graph._size)
            for (label, a, b, _, _), x in zip(steps, applied):
                if not label:
                    bits[bisect_left(graph.edges, (a, b))] = x
            return finish(VERDICT_WITNESS, nodes, verified(
                graph, Orientation(graph, bytes(bits)), Labeling(mod, tuple(labels))))
        # descend; a label step skips the labels used above it, below the pin
        # those that leave a forward-checked vertex off mu, and those barred for it
        d += 1
        par[d], mus[d] = p, consts
        applied[d] = -1
        if steps[d][0]:
            free = (everything if d > 1 else second) & ~used
            for y in steps[d][4]:
                free &= bit[(mu - pw[y]) % mod] | bit[(pw[y] - mu) % mod]
            slots = live & reads[d]  # the slots read that bar a label
            while slots:
                top = slots.bit_length() - 1
                free &= ~barred[top]
                slots ^= 1 << top
            if bars[d] is None:
                todo[d] = _members(free, seeded)
            elif bars[d] < 0:
                todo[d] = _members(free & -free, seeded)  # the first label only
            else:
                todo[d] = barring(free, bars[d])


def _add_nodes(run: List, k: int) -> bool:
    """Add k nodes to the run's count, and stop the run once the count is
    past the node budget or the clock past the deadline; true once stopped."""
    stop, shared_nodes, _, node_budget, deadline = run[:5]
    with shared_nodes.get_lock():
        shared_nodes.value += k
        over = node_budget is not None and shared_nodes.value > node_budget
    if over or (deadline is not None and perf_counter() > deadline):
        stop.value = 1
    return bool(stop.value)


def _take_pairs(run: List, add: Optional[Callable] = None) -> List[Tuple]:
    """(index, outcome) of each pair taken from the shared index until none is
    left, the run stops or a witness turns up; each job may visit the nodes
    the budget has left.  add(k), by default _add_nodes, counts k nodes and
    says whether to stop.  An error stops the run."""
    stop, shared_nodes, next_pair, node_budget, _, graph, parity, plan = run[:8]
    add = add or partial(_add_nodes, run)
    done = []
    try:
        while not stop.value:
            i = fanout.take(next_pair)
            nogoods, pairs = run[8:]  # completed at the calling process's first add
            if i >= len(pairs):
                break
            left = sys.maxsize if node_budget is None else max(0, node_budget - shared_nodes.value)
            out = _search(graph, parity, plan, pairs[i], nogoods, partial(add, _POLL), left)
            done.append((i, out))
            if out.certificate is not None:
                stop.value = 1
            add(out.stats.nodes % _POLL)
    except BaseException:
        stop.value = 1
        raise
    return done


def _run(graph: UndirectedGraph, config: SearchConfig, parity: _Parity, plan: _Plan,
         t0: float) -> SearchOutcome:
    """Search the kept pairs of first two labels (_pairs), each taken from one
    shared index, under one stop signal: in the calling process, and with
    workers > 1, once the run passes _POLL nodes, in up to workers - 1 helper
    processes too, no more than there are pairs left.

    Under reduce, the twin nogoods are built before the first pair.  The
    orbits of the first two label steps are found at this process's first
    poll or at the end of its first job, whichever comes first, unless the
    run has stopped: they complete the nogoods, cut the pairs and give each
    its pre-bars (see the module docstring).  The pairs are listed there too,
    and until then the run knows its first pair only, so it answers
    "exhausted" only once they are listed; unreduced, it finds them by
    arithmetic (_AllPairs) from the start.

    The signal is set by the first witness, by an error, or by the worker
    that polls past the deadline or takes the shared count past the node
    budget.  Workers see it on their next poll and take no pair after it;
    once every helper is done, one pass tallies every pair's nodes, prunes
    and verdict.  If this process took every pair, no helper holds one, and
    the helpers are ended rather than waited for: a spawned one may still be
    starting.  The witness returned is the first in job order, verified
    again here.
    """
    deadline = None if config.time_budget is None else t0 + config.time_budget
    steps = plan[0]
    nogoods, orbits, pairs = None, (), _AllPairs(plan[1])  # unreduced: no orbits
    if config.reduce:
        from . import symmetry  # compiled only by the runs that use it

        twin = symmetry.twins(graph)
        nogoods, orbits, pairs = _nogoods(steps, twin), None, [next(_pairs(plan))]
    shared = fanout.values(3, config.workers > 1)  # plain stand-ins when this process runs alone
    # the workers share the stop signal, the node count, the next pair's index,
    # the budgets, and what they search: graph, parity masks, plan, nogoods,
    # pairs, of which a reduced run knows the first only until the first add
    run = [*shared, config.node_budget, deadline, graph, parity, plan, nogoods, pairs]
    stop, shared_nodes, next_pair = shared
    helpers = []

    def add(k: int) -> bool:  # this process's poll also finds the orbits and starts the helpers
        nonlocal orbits
        if _add_nodes(run, k):
            return True
        if orbits is None:  # list the pairs, cut and pre-barred by the orbits
            first_two = [steps[0][1], steps[1][1]]
            orbits = [symmetry.orbit(graph._nbrs, twin, v, first_two[:i], deadline)
                      for i, v in enumerate(first_two)]
            run[-2:] = _nogoods(steps, twin, orbits), list(_pairs(plan, orbits))
        if (config.workers > 1 and not helpers and shared_nodes.value >= _POLL
                and next_pair.value < len(run[-1])):
            count = min(config.workers - 1, len(run[-1]) - next_pair.value)
            fanout.start(helpers, _take_pairs, run, count)
        return bool(stop.value)

    done: List[Tuple] = []
    try:
        done = _take_pairs(run, add)
    finally:  # wait for the helpers, which an error here has stopped
        results = fanout.collect(helpers, len(done) == len(run[-1]),
                                 "a search helper process died")
    for result in results:
        if isinstance(result, BaseException):
            raise result
        done += result
    pairs = run[-1]  # final if the orbits are known
    outs = [out for _, out in sorted(done, key=lambda d: d[0])]
    stats = SearchStats(sum(out.stats.nodes for out in outs), {
        k: sum(out.stats.prunes[k] for out in outs) for k in _PRUNE_KEYS}, perf_counter() - t0)
    c = next((out.certificate for out in outs if out.certificate is not None), None)
    if c is not None:
        return SearchOutcome(VERDICT_WITNESS, verified(graph, c.orientation, c.labeling), stats)
    exhausted = orbits is not None and len(outs) == len(pairs) and all(
        out.verdict == VERDICT_EXHAUSTED for out in outs)
    return SearchOutcome(VERDICT_EXHAUSTED if exhausted else VERDICT_INCONCLUSIVE, None, stats)


def decide_existence(graph: UndirectedGraph, config: Optional[SearchConfig] = None) -> SearchOutcome:
    """Search for a magic orientation-plus-labeling of the graph.

    Returns a witness certificate, a sound exhausted-no-solution verdict, or
    inconclusive when a budget ran out before the space was covered.
    """
    if graph.vertex_count < 1:
        raise ValueError("search needs at least one vertex")
    config = config or SearchConfig()
    t0 = perf_counter()
    try:
        parity = _root_parity_candidates(
            graph, config, None if config.time_budget is None else t0 + config.time_budget)
    except TimeoutError:  # the root parity solve used up the time budget
        return SearchOutcome(VERDICT_INCONCLUSIVE, None, SearchStats(elapsed=perf_counter() - t0))
    if parity is not None and not parity[0]:
        stats = SearchStats()
        stats.prunes["parity"] += 1
        stats.elapsed = perf_counter() - t0
        return SearchOutcome(VERDICT_EXHAUSTED, None, stats)
    return _run(graph, config, parity, _steps(graph, config), t0)
