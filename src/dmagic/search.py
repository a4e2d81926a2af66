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
order (_label_orders), from which the used labels and the forward check clear
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
                u*mu.  The first two labels are a kept pair (_label_orders).

Reversal acts on the arcs alone and the units on the labels alone, so the two
commute: a witness is moved by a reversal to one whose first arc takes its
first direction, and then by a unit, which keeps that arc, to one whose first
two labels are kept.  That witness is in the reduced tree, so no orbit is lost.

A third symmetry, the graph's automorphisms, ends the reduced search early:

  transitive    if the graph is vertex-transitive, the exhausted subtree of
                any one first label g proves that no witness exists

Take a witness W and the vertex x with label g, and an automorphism s with
s(x) = v0, the first visited vertex.  Moving W along s gives a witness with
l(v0) = g.  A reversal, if needed, gives the first arc its first direction
and keeps every label, and then a unit of the stabilizer S_g keeps g and that
arc while taking l(v1) to its kept second label.  The result is in the
reduced subtree of g, which, exhausted under sound rules, holds no witness.
The check (_vertex_transitive) runs at most once, and only a proof counts.
The serial search asks once its first label's subtree is exhausted, which a
witness search on a vertex-transitive graph never reaches: every first
label's subtree holds a witness.  A parallel run asks before its first pair,
as helpers could be searching later labels' pairs by then, and on a graph
proven vertex-transitive its pairs are the first label's kept pairs only.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from math import gcd
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .graphs import Orientation, UndirectedGraph, regularity
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

# _vertex_transitive gives up, proving nothing, before a round of its colour
# refinement would read more than this many colours in all: each round over
# both sides reads 2(N + 2E).
_AUTOMORPHISM_CAP = 1 << 20

_POLL = 1024  # nodes between polls; a parallel run starts its helpers after the first


@dataclass(frozen=True)
class SearchConfig:
    """Budgets, reductions, and determinism knobs for the search.

    reduce, on by default, fixes the first arc, keeps one pair of first two
    labels per orbit of the unit group of Z_N, and on a graph proven
    vertex-transitive stops once one first label's subtree is exhausted (see
    the module docstring); off, the search walks the whole unreduced tree, the
    reference for tests.  seed shuffles the order in which labels are tried.

    With workers > 1 the calling process searches the kept pairs of first two
    labels, one subtree each, and workers - 1 helper processes join it once
    the run passes 1024 nodes: a run that ends sooner returns the serial
    witness, and in a longer one timing decides which witness comes first.
    The node budget counts the nodes of all workers, the time budget is one
    deadline, and the first witness stops the run.  Each worker notices a
    stop on its next poll, every 1024 nodes, so a run may overshoot its
    budgets by up to 1024 nodes per worker.
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
_Orders = Tuple[List[int], List[List[int]], List[int]]  # see _label_orders
_Plan = Tuple[List[Tuple], _Orders, int]  # see _steps


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
    n = graph.vertex_count
    # (labeled neighbours, degree, -v) packed into one int
    key = [graph.degree(v) * n + n - 1 - v for v in range(n)]
    rest = set(range(n))
    order = []
    while rest:
        best = max(rest, key=key.__getitem__)
        order.append(best)
        rest.discard(best)
        for _, nb in graph.incident(best):
            key[nb] += n * n
    return order


def _label_orders(n: int, config: SearchConfig) -> _Orders:
    """The label candidates: first, second[g] after a first label g, and later.

    Each is a list in seeded order; used labels are skipped when a step is
    entered.  Unreduced, every one is all of Z_N.  Reduced, by the unit group
    U of Z_N: the first labels are one element of each U-orbit, and second[g]
    is the least element of each orbit of Z_N - {g} under the stabilizer
    S_g = {u in U : u*g = g}.  Every pair (a, b), a != b, is then mapped by
    some unit onto exactly one kept pair (g, b'):

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
    """
    labels = list(range(n))
    if config.seed != 0:
        random.Random(config.seed).shuffle(labels)
    second = [labels] * n
    if not config.reduce:
        return labels, second, labels
    units = [u for u in range(n) if gcd(u, n) == 1]
    first = [g for g in labels if g == 0 or n % g == 0]
    for g in first:
        stab = [u for u in units if u * g % n == g]
        second[g] = [b for b in labels if b != g and all(u * b % n >= b for u in stab)]
    return first, second, labels


def _vertex_transitive(graph: UndirectedGraph, deadline: Optional[float] = None) -> bool:
    """True once automorphisms found within a fixed work cap, and before
    perf_counter() passes deadline, map vertex 0 onto every vertex; false
    means not proven.

    Individualization-refinement (McKay and Piperno): to map 0 onto t, give 0
    its own colour on one side and t on the other, and refine both colourings
    in lockstep, each vertex's new colour its colour and its neighbours'
    sorted colours; once the two sides' multisets of new colours differ, no
    such map is left.  Then the first vertex of the first cell of two or more
    is given its own colour against each vertex of the same cell on the other
    side in turn, depth first.  Where every colour is one vertex, the two
    colourings pair the vertices off.  As the last round matched each
    vertex's neighbour colours with its partner's, the pairing maps edges
    onto edges; it is checked edge by edge all the same before it is kept.

    The orbit of 0 is closed under the automorphisms kept, so a target already
    in it needs none.  Targets are taken from the top: on K_n the map found
    for n - 1 is an n-cycle, which completes the orbit at once.  A 2-regular
    graph needs no search: it is a union of cycles, and it is transitive
    exactly when they all have one length, as rotations and swaps of equal
    cycles then map 0 onto every vertex, and an automorphism keeps the
    length of the cycle through a vertex.  The walk reads each vertex once,
    so it runs however far one refinement round would pass the work cap.
    """
    n = graph.vertex_count
    work, cost = _AUTOMORPHISM_CAP, 2 * (n + 2 * len(graph.edges))  # cost: one round
    # a regular graph with as many edges as vertices is 2-regular: it takes the walk
    if (cost > work and len(graph.edges) != n) or (degree := regularity(graph)) is None:
        return False
    nbrs = [graph.neighbors(v) for v in range(n)]
    if degree == 2:  # walk each cycle; the other neighbour of v is the sum less prev
        lengths, seen = set(), [False] * n
        for s in range(n):
            if not seen[s]:
                prev, v, k = s, nbrs[s][0], 1
                while v != s:
                    seen[v] = True
                    prev, v, k = v, sum(nbrs[v]) - prev, k + 1
                lengths.add(k)
        return len(lengths) == 1
    adj = [set(x) for x in nbrs]

    def refine(left: List[int], right: List[int]) -> Optional[Tuple[List[int], List[int]]]:
        nonlocal work
        k = 0
        while True:
            if work < cost or (deadline is not None and perf_counter() > deadline):
                work = 0  # give up before the round that would pass the cap
                return None
            work -= cost
            sig = [[(c[v], tuple(sorted([c[u] for u in nbrs[v]]))) for v in range(n)]
                   for c in (left, right)]
            if Counter(sig[0]) != Counter(sig[1]):
                return None
            colour = {s: i for i, s in enumerate(sorted(set(sig[0])))}
            if len(colour) == k:
                return left, right
            k = len(colour)
            left, right = ([colour[s] for s in side] for side in sig)

    def individualize(c: List[int], v: int) -> List[int]:
        return c[:v] + [n] + c[v + 1:]  # above every colour in use; refine renumbers

    def automorphism(t: int) -> Optional[List[int]]:
        stack = [([0] * n, [0] * n, 0, iter([t]))]  # (left, right, v, the w to try for v)
        while stack and work > 0:
            left, right, v, ws = stack[-1]
            w = next(ws, None)
            if w is None:
                stack.pop()
                continue
            pair = refine(individualize(left, v), individualize(right, w))
            if pair is None:
                continue
            left, right = pair
            cell = min((c for c, size in Counter(left).items() if size > 1), default=None)
            if cell is None:
                at = {c: u for u, c in enumerate(right)}
                sigma = [at[c] for c in left]
                if all(sigma[b] in adj[sigma[a]] for a, b in graph.edges):
                    return sigma
            else:
                stack.append((left, right, left.index(cell),
                              iter([u for u in range(n) if right[u] == cell])))
        return None

    orbit, gens = {0}, []
    for t in range(n - 1, 0, -1):
        if t in orbit:
            continue
        sigma = automorphism(t)
        if sigma is None:
            return False
        gens.append(sigma)
        new = orbit
        while new:
            new = {s[v] for s in gens for v in new} - orbit
            orbit |= new
    return True


def _steps(graph: UndirectedGraph, config: SearchConfig) -> _Plan:
    """The check plan: steps in visit order, label orders, pin depth.

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
    pend[y][start[y]:], those labeled before y in incidence order, then each
    one labeled after y.  Edges are decided in that same order at both ends
    (an earlier vertex waits on at most the second-to-last vertex and then
    the last), so an arc step only advances start, and only a label step
    makes a tuple.  Steps share these tuples, so the plan takes O(N + E)
    memory.

    Step 0 takes its labels from the first label order, step 1 from the
    second order of the label step 0 chose, and every later label step from
    the last (see _label_orders).
    """
    n = graph.vertex_count
    order = _visit_order(graph)
    pos = sorted(range(n), key=order.__getitem__)  # pos[v] is v's place in order
    last_arc = 0 if config.reduce else 1
    labeled = [False] * n
    unlabeled = [graph.degree(v) for v in range(n)]
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
        nbrs = [u for _, u in graph.incident(v) if labeled[u]]
        for u in nbrs:
            pend[u] = pend[u][start[u]:] + (v,)
            start[u] = 0
        for _, u in graph.incident(v):
            unlabeled[u] -= 1
        pend[v] = tuple(nbrs)
        steps.append((True, v, v) + checks([v] + nbrs, v))

    for i, v in enumerate(order):
        if not labeled[v]:
            label(v)
        if i == n - 2:
            label(order[-1])
        for e, w in graph.incident(v):
            if pos[w] < i:
                start[w] += 1  # the edge leads to the first pending neighbour
                start[v] += 1  # of each endpoint
                a, b = graph.edges[e]
                steps.append((False, a, b, checks([w, v])[0], last_arc))
                last_arc = 1
    return steps, _label_orders(n, config), pin


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


def _search(graph: UndirectedGraph, config: SearchConfig, parity: _Parity, plan: _Plan,
            t0: float, pair: Optional[Tuple[int, int]] = None,
            poll: Optional[Callable[[], bool]] = None) -> SearchOutcome:
    """Run the step loop of plan, _steps(graph, config), from the root;
    budgets count from t0.

    pair, if given, is the only pair of first two labels tried: the subtree
    of one parallel job.  poll, if given, is called every _POLL nodes, and the
    search stops as inconclusive once it returns true; without one, a time
    budget is polled there.
    """
    steps, (first, second, later), pin = plan
    if pair is not None:
        first, second = (pair[0],), {pair[0]: (pair[1],)}
    mod = graph.vertex_count
    deadline = None if config.time_budget is None else t0 + config.time_budget
    everything = (1 << mod) - 1
    # label sets are masks over places in the seeded order later, of which
    # first and every second[g] are subsequences: bit[lam] is lam's place's bit
    bit = [0] * mod
    for i, lam in enumerate(later):
        bit[lam] = 1 << i
    second_masks: Dict[int, int] = {}  # second[g] as a mask, built once g is tried
    root, by_vertex, by_c = parity or (-1, ((-1, -1),) * mod, (-1, -1))
    labels = [-1] * mod  # a label step's undo leaves its label stale
    pw = [0] * mod
    stats = SearchStats()
    prunes = stats.prunes

    def finish(verdict: str, nodes: int, cert: Optional[MagicCertificate] = None) -> SearchOutcome:
        stats.nodes, stats.elapsed = nodes, perf_counter() - t0
        return SearchOutcome(verdict, cert, stats)

    node_limit = config.node_budget if config.node_budget is not None else sys.maxsize
    if poll is None and deadline is not None:
        def poll() -> bool:
            return perf_counter() > deadline
    tick = min(node_limit + 1, _POLL)  # the next node count to check the budgets at
    last = len(steps) - 1
    todo = [iter(())] * len(steps)  # the untried labels of each label step
    applied = [-1] * len(steps)
    par = [root] * len(steps)  # the parity candidates left on entering each depth
    mus = [everything] * len(steps)  # the magic constants still possible there, as bits
    todo[0] = iter(first)  # no label is used yet
    transitive_check = config.reduce and pair is None
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
            if d == 0 and transitive_check:  # the first root subtree is exhausted
                if _vertex_transitive(graph, deadline):
                    return finish(VERDICT_EXHAUSTED, nodes)
                transitive_check = False
            continue
        nodes += 1
        if nodes == tick:
            if nodes > node_limit or (poll is not None and poll()):
                return finish(VERDICT_INCONCLUSIVE, nodes)
            tick = min(node_limit + 1, nodes + _POLL)
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
            bits = bytearray(len(graph.edges))
            for (label, a, b, _, _), x in zip(steps, applied):
                if not label:
                    bits[bisect_left(graph.edges, (a, b))] = x
            return finish(VERDICT_WITNESS, nodes, verified(
                graph, Orientation(graph, tuple(bits)), Labeling(mod, tuple(labels))))
        # descend; a label step skips the labels used above it and, below the
        # pin, those that leave a forward-checked vertex off mu
        d += 1
        par[d], mus[d] = p, consts
        applied[d] = -1
        if steps[d][0]:
            if d > 1:
                free = everything
            elif (free := second_masks.get(x)) is None:  # x is still the first label
                free = second_masks[x] = sum(bit[lam] for lam in second[x])
            free &= ~used
            for y in steps[d][4]:
                free &= bit[(mu - pw[y]) % mod] | bit[(pw[y] - mu) % mod]
            todo[d] = _members(free, later)


def _add_nodes(run: Tuple, k: int) -> bool:
    """Add k nodes to the run's count, and stop the run once the count is
    past the node budget or the clock past the deadline; true once stopped."""
    stop, shared_nodes, _, node_budget, deadline = run[:5]
    with shared_nodes.get_lock():
        shared_nodes.value += k
        over = node_budget is not None and shared_nodes.value > node_budget
    if over or (deadline is not None and perf_counter() > deadline):
        stop.set()
    return stop.is_set()


def _take_pairs(run: Tuple, add: Optional[Callable] = None) -> List[Tuple]:
    """(index, outcome) of each pair taken from the shared index until none is
    left, the run stops or a witness turns up.  add(k), by default _add_nodes,
    counts k nodes and says whether to stop.  An error stops the run."""
    stop, _, next_pair, _, _, graph, config, parity, plan, pairs = run
    add = add or partial(_add_nodes, run)
    done = []
    try:
        while not stop.is_set():
            with next_pair.get_lock():
                i, next_pair.value = next_pair.value, next_pair.value + 1
            if i >= len(pairs):
                break
            out = _search(graph, config, parity, plan, perf_counter(), pairs[i],
                          partial(add, _POLL))
            done.append((i, out))
            if out.certificate is not None:
                stop.set()
            add(out.stats.nodes % _POLL)
    except BaseException:
        stop.set()
        raise
    return done


def _helper(run: Tuple, conn) -> None:
    """A helper process: send its pairs' outcomes, or its error, to conn."""
    try:
        conn.send(_take_pairs(run))
    except BaseException as exc:  # raised again in the calling process
        conn.send(exc)


def _run_parallel(graph: UndirectedGraph, config: SearchConfig, parity: _Parity, plan: _Plan,
                  t0: float) -> SearchOutcome:
    """Search the root subtrees under one stop signal: in the calling process,
    and once the run passes _POLL nodes in up to workers - 1 helper processes
    too, no more than there are pairs left, each taking kept pairs of first
    two labels from one shared index.

    Under reduce, on a graph proven vertex-transitive before the first pair,
    the pairs are the first label's only (see the module docstring).  The
    signal is set by the first witness, by an error, or by the worker that
    polls past the deadline or takes the shared count past the node budget.
    Workers see it on their next poll and take no pair after it; once every
    helper is done, one pass tallies every pair's nodes, prunes and verdict.
    If this process took every pair, no helper holds one, and the helpers are
    ended rather than waited for: a spawned one may still be starting.
    The witness returned is the first in job order, verified again here.
    """
    import multiprocessing

    deadline = None if config.time_budget is None else t0 + config.time_budget
    first, second, _ = plan[1]
    if config.reduce and _vertex_transitive(graph, deadline):
        first = first[:1]
    pairs = [(lam0, lam1) for lam0 in first for lam1 in second[lam0] if lam1 != lam0]
    job_config = replace(config, workers=1, node_budget=None, time_budget=None)
    # the workers share the stop signal, the node count, the next pair's index,
    # the budgets, and what they search: graph, config, parity masks, plan, pairs
    run = (multiprocessing.Event(), multiprocessing.Value("q", 0), multiprocessing.Value("q", 0),
           config.node_budget, deadline, graph, job_config, parity, plan, pairs)
    stop, shared_nodes, next_pair = run[:3]
    helpers = []

    def add(k: int) -> bool:  # the calling process's poll also starts the helpers
        if (not _add_nodes(run, k) and not helpers and shared_nodes.value >= _POLL
                and next_pair.value < len(pairs)):
            for _ in range(min(config.workers - 1, len(pairs) - next_pair.value)):
                receive, send = multiprocessing.Pipe(duplex=False)
                helper = multiprocessing.Process(target=_helper, args=(run, send), daemon=True)
                helper.start()
                send.close()  # so that receive sees the end of a helper that died
                helpers.append((helper, receive))
        return stop.is_set()

    done: List[Tuple] = []
    try:
        done = _take_pairs(run, add)
    finally:  # wait for the helpers, which an error here has stopped
        results = []
        for helper, receive in helpers:
            if len(done) == len(pairs):  # this process took every pair: no helper holds one
                helper.terminate()
            else:
                try:
                    results.append(receive.recv())
                except EOFError:  # it died before it could send
                    results.append(RuntimeError("a search helper process died"))
            receive.close()
            helper.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
        done += result
    outs = [out for _, out in sorted(done, key=lambda d: d[0])]
    stats = SearchStats(sum(out.stats.nodes for out in outs), {
        k: sum(out.stats.prunes[k] for out in outs) for k in _PRUNE_KEYS}, perf_counter() - t0)
    c = next((out.certificate for out in outs if out.certificate is not None), None)
    if c is not None:
        return SearchOutcome(VERDICT_WITNESS, verified(graph, c.orientation, c.labeling), stats)
    exhausted = len(outs) == len(pairs) and all(out.verdict == VERDICT_EXHAUSTED for out in outs)
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
    plan = _steps(graph, config)
    if config.workers > 1 and graph.vertex_count >= 2:
        return _run_parallel(graph, config, parity, plan, t0)
    return _search(graph, config, parity, plan, t0)
