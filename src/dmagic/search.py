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
alone.  _steps builds this check plan once, from running counts in O(N + E):
the touched vertices whose last edge the step decides (they close), and for
each open one, its unlabeled neighbours and its labeled neighbours on
undecided edges.  The magic constant is never enumerated: the first step that
closes a vertex pins it, at the same depth on every branch.  Above that depth
the search keeps the set of constants still possible instead, as one bit mask
over Z_N.  Pruning rules:

  weight    a closed vertex whose weight differs from the pinned constant
  interval  an open vertex whose weight cannot reach the constant, each pending
            label l adding +-l and each unlabeled neighbour at most +- one of
            the largest unused labels; all signs are tried for up to 3 labels,
            and above the pin depth these reach sets narrow the set of
            possible constants, pruning once it is empty or lacks the pinned one
  parity    the 0/1 label-parity pattern fixed so far extends to no solution of
            the weight-parity system with exactly N/2 odd labels
  forward   below the pin depth, a label step for a tries only labels l with
            pw(y) + l or pw(y) - l equal to the constant, for each touched y
            whose one undecided edge leads to a (Haralick and Elliott's
            forward checking); the labels it drops are exactly those whose
            nodes the interval rule would prune, and as they are never nodes,
            no prune is counted for them

The set of possible constants is sound: a vertex y whose neighbours are all
labeled and which has 1 to 3 undecided edges ends with weight pw(y) + sum of
+-l(w) over the pending labels l(w), for one choice of signs, and a witness
gives it weight mu.  So mu is among those sums, and deciding one of y's arcs
fixes one sign, which keeps only some of them.  Intersecting these reach sets
along a branch therefore keeps mu for every witness below it: a branch whose
set is empty, or lacks the constant at the pin, holds no witness.

The order of the steps does not change which witness is met first.  The
last vertex's label step has one candidate on every branch, the one label
the other vertices left unused, wherever it stands, so moving it earlier
keeps the complete assignments in the same depth-first order.  Each rule
discards only branches that hold no witness, so the walk meets the first
witness of that order, the one it meets with no pruning at all.

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
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field, replace
from math import gcd
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graphs import Orientation, UndirectedGraph
from .obstructions import parity_solutions
from .verifier import Labeling, MagicCertificate, verify

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


@dataclass(frozen=True)
class SearchConfig:
    """Budgets, reductions, and determinism knobs for the search.

    reduce, on by default, fixes the first arc and keeps one pair of first two
    labels per orbit of the unit group of Z_N (see the module docstring); off,
    the search walks the whole unreduced tree, the reference for tests.  seed
    shuffles the order in which labels are tried.

    With workers > 1 each kept pair of first two labels is one independent
    subtree job.  The budgets still bound the whole run: the node budget
    counts the nodes of all workers together and the time budget is one
    deadline, and the first witness stops the run.  Each running worker
    notices a stop on its next poll, every 1024 nodes, so a parallel run may
    overshoot its budgets by up to one such tick per worker.  Which witness
    is found first is no longer determined by the config alone.
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
_Plan = Tuple[List[Tuple], List[Sequence], int]  # see _steps


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


def _label_orders(n: int, config: SearchConfig) -> Tuple[List[int], List[List[int]], List[int]]:
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


def _steps(graph: UndirectedGraph, config: SearchConfig) -> _Plan:
    """The check plan: steps in visit order, label candidates, pin depth.

    The last vertex's label step comes right after the second-to-last's
    (see the module docstring).

    A step is (label, a, b, closes, opens, last): a label step labels a (b is
    a); an arc step orients edge (a, b), a -> b by choice 0, and last is its
    last choice.  closes holds the touched vertices whose last edge the step
    decides; opens the others as (y, k, pend, start): y has k unlabeled
    neighbours and the labeled ones pend[start:] on undecided edges, or k = -1,
    listed first, when pend is all of at most three.  A vertex with m
    undecided edges is left out when m(m - 1) + 1 >= N: its m distinct pending
    labels reach all of Z_N.  Above the pin depth closes is empty and opens
    holds only the k = -1 vertices, which narrow the set of possible
    constants.  Below the pin depth, last of a label step holds instead the
    touched vertices with no unlabeled neighbour and one undecided edge, the
    edge to a, left out of opens: they forward-check a's label.

    The counts come from a running state, not from the step's place in the
    label-then-arcs shape: y's labeled neighbours on undecided edges are
    pend[y][start[y]:], those labeled before y in incidence order, then each
    one labeled after y.  Edges are decided in that same order at both ends
    (an earlier vertex waits on at most the second-to-last vertex and then
    the last), so an arc step only advances start, and only a label step
    makes a tuple.  Steps share these tuples, so the plan takes O(N + E)
    memory.

    cands[d] lists the labels of label step d, except that cands[1], for the
    second vertex, is a list by the label that step 0 chose.
    """
    n = graph.vertex_count
    order = _visit_order(graph)
    pos = sorted(range(n), key=order.__getitem__)  # pos[v] is v's place in order
    first, second, labels = _label_orders(n, config)
    last_arc = 0 if config.reduce else 1
    labeled = [False] * n
    unlabeled = [graph.degree(v) for v in range(n)]
    pend: List[Tuple[int, ...]] = [()] * n  # pend[y][start[y]:] are y's labeled
    start = [0] * n                          # neighbours on undecided edges
    steps: List[Tuple] = []
    cands: List[Sequence] = []
    pin = -1

    def checks(touched: List[int], a: int = -1) -> Tuple[Tuple, Tuple, Tuple]:
        """closes, opens and, for a label step of a, the forward-checked vertices."""
        nonlocal pin
        closes = tuple(y for y in touched if not unlabeled[y] and start[y] == len(pend[y]))
        if closes and pin < 0:
            pin = len(steps)
        forward = a >= 0 and 0 <= pin < len(steps)
        exact, bound, checked = [], [], []
        for y in touched:
            k, p, s = unlabeled[y], pend[y], start[y]
            m = k + len(p) - s  # undecided edges
            if k or m > 3:
                if pin >= 0 and m * (m - 1) + 1 < n:
                    bound.append((y, k, p, s))
            elif m == 1 and forward and y != a:
                checked.append(y)
            elif m:
                exact.append((y, -1, p[s:], 0))
        return closes, tuple(exact + bound), tuple(checked)

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
        cands.append(labels)

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
                closes, opens, _ = checks([w, v])
                steps.append((False, a, b, closes, opens, last_arc))
                cands.append(())
                last_arc = 1
    cands[0] = first
    if n > 1:
        cands[1] = second
    return steps, cands, pin


def _root_parity_candidates(graph: UndirectedGraph, config: SearchConfig) -> _Parity:
    if not config.parity_prune or graph.vertex_count % 2 != 0:
        return None
    sols = parity_solutions(graph, max_solutions=PARITY_LIST_CAP)
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


def _search(graph: UndirectedGraph, config: SearchConfig, parity: _Parity,
            t0: float, pinned: Optional[Dict[int, int]] = None,
            poll: Optional[Callable[[], bool]] = None,
            plan: Optional[_Plan] = None) -> SearchOutcome:
    """Run the step loop from the root; budgets count from t0.

    pinned maps a step index to its only label.  poll, if given, is called
    every 1024 nodes, and the search stops as inconclusive once it returns
    true; without one, a time budget is polled there.  plan is
    _steps(graph, config), built here when not given.
    """
    steps, cands, pin = plan or _steps(graph, config)
    mod = graph.vertex_count
    if pinned:
        cands = [(pinned[d],) if d in pinned else c for d, c in enumerate(cands)]
        if 1 in pinned:
            cands[1] = [cands[1]] * mod
    everything = (1 << mod) - 1
    root, by_vertex, by_c = parity or (-1, ((-1, -1),) * mod, (-1, -1))
    labels = [-1] * mod  # a label step's undo leaves its label stale
    pw = [0] * mod
    stats = SearchStats()
    prunes = stats.prunes

    def finish(verdict: str, nodes: int, cert: Optional[MagicCertificate] = None) -> SearchOutcome:
        stats.nodes, stats.elapsed = nodes, perf_counter() - t0
        return SearchOutcome(verdict, cert, stats)

    node_limit = config.node_budget if config.node_budget is not None else sys.maxsize
    if poll is None and config.time_budget is not None:
        def poll() -> bool:
            return perf_counter() - t0 > config.time_budget
    tick = min(node_limit + 1, 1024)  # the next node count to check the budgets at
    last = len(steps) - 1
    todo = [iter(())] * len(steps)  # the untried labels of each label step
    applied = [-1] * len(steps)
    par = [root] * len(steps)  # the parity candidates left on entering each depth
    mus = [everything] * len(steps)  # the magic constants still possible there, as bits
    todo[0] = iter(cands[0])  # no label is used yet
    used = mu = nodes = d = 0
    while True:
        # undo the choice this depth applied last, then take its next one
        label, a, b, closes, opens, last_arc = steps[d]
        x = applied[d]
        if x >= 0:
            if label:
                used ^= 1 << x
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
            if nodes > node_limit or (poll is not None and poll()):
                return finish(VERDICT_INCONCLUSIVE, nodes)
            tick = min(node_limit + 1, nodes + 1024)
        p, consts = par[d], mus[d]
        if label:
            labels[a] = x
            used |= 1 << x
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
        if d == pin:
            mu = pw[closes[0]] % mod  # any closer: candidates in p give all one parity
            p &= by_c[mu & 1]
            if not p:
                prunes["parity"] += 1
                continue
            consts &= 1 << mu
            if not consts:
                prunes["interval"] += 1
                continue
        if closes and (pw[closes[0]] % mod != mu or pw[closes[-1]] % mod != mu):
            prunes["weight"] += 1  # closes has one or two vertices, none above the pin
            continue
        failed = False
        for y, k, pend, start in opens:
            if k < 0:  # the weights y can still reach, one per choice of signs
                s = pw[y]
                if len(pend) == 1:
                    lam = labels[pend[0]]
                    consts &= 1 << (s + lam) % mod | 1 << (s - lam) % mod
                else:
                    sums = [s]
                    for w in pend:
                        lam = labels[w]
                        sums = [s - lam for s in sums] + [s + lam for s in sums]
                    reach = 0
                    for s in sums:
                        reach |= 1 << s % mod
                    consts &= reach
                failed = not consts
            else:  # the weight moves by at most h: the labels pending, the k largest unused
                need = (mu - pw[y]) % mod
                h, free = 0, everything ^ used
                for _ in range(k):
                    top = free.bit_length() - 1
                    h += top
                    if 2 * h + 1 >= mod:
                        break
                    free ^= 1 << top
                else:
                    h += sum([labels[w] for w in pend[start:]])
                    failed = 2 * h + 1 < mod and (need + h) % mod > 2 * h
            if failed:
                break
        if failed:
            prunes["interval"] += 1
            continue
        if d == last:
            arcs = [(a, b) if x == 0 else (b, a)
                    for (label, a, b, _, _, _), x in zip(steps, applied) if not label]
            result = verify(graph, Orientation.from_arcs(graph, arcs), Labeling(mod, tuple(labels)))
            if not isinstance(result, MagicCertificate):
                raise RuntimeError("search reached a non-magic full assignment; this is a defect")
            return finish(VERDICT_WITNESS, nodes, result)
        # descend; a label step skips the labels used above it and, below the
        # pin, those that leave a forward-checked vertex off mu
        d += 1
        par[d], mus[d] = p, consts
        applied[d] = -1
        if steps[d][0]:
            c = cands[d] if d > 1 else cands[1][x]  # x is still the first label
            free = everything ^ used
            for y in steps[d][5]:
                free &= 1 << (mu - pw[y]) % mod | 1 << (pw[y] - mu) % mod
            todo[d] = iter([lam for lam in c if (free >> lam) & 1])


# What a pool process shares with the rest of the run: the stop signal, the
# node count of all workers and the run's node budget; and what every job
# searches: the graph, the worker config, the root parity masks and the check
# plan.  _init_worker sets them once per pool process; a serial search never
# reads them.
_worker: Optional[Tuple] = None
_subtrees: Optional[Tuple[UndirectedGraph, SearchConfig, _Parity, _Plan]] = None


def _init_worker(stop, shared_nodes, node_budget: Optional[int], vertex_count: int,
                 edges: Tuple[Tuple[int, int], ...], config: SearchConfig,
                 parity: _Parity) -> None:
    global _worker, _subtrees
    _worker = (stop, shared_nodes, node_budget)
    graph = UndirectedGraph(vertex_count, edges)
    _subtrees = (graph, config, parity, _steps(graph, config))


def _add_nodes(k: int) -> bool:
    """Add k nodes to the run's count; true once the run is to stop.

    The worker whose nodes take the count past the node budget sets the stop
    signal itself, at the moment the count passes it.
    """
    stop, shared_nodes, node_budget = _worker
    with shared_nodes.get_lock():
        shared_nodes.value += k
        over = node_budget is not None and shared_nodes.value > node_budget
    if over:
        stop.set()
    return stop.is_set()


def _run_job(pair: Tuple[int, int]) -> Tuple[str, Optional[Tuple], int, Dict[str, int]]:
    """Search the subtree whose first two labels are the pinned pair."""
    if _worker[0].is_set():  # a job already queued when the run stopped
        return VERDICT_INCONCLUSIVE, None, 0, {k: 0 for k in _PRUNE_KEYS}
    graph, config, parity, plan = _subtrees
    outcome = _search(graph, config, parity, perf_counter(), {0: pair[0], 1: pair[1]},
                      lambda: _add_nodes(1024), plan)
    _add_nodes(outcome.stats.nodes & 1023)  # the nodes since the last poll
    c = outcome.certificate
    cert = None if c is None else (c.labeling.labels, c.orientation.bits)
    return outcome.verdict, cert, outcome.stats.nodes, outcome.stats.prunes


def _run_parallel(graph: UndirectedGraph, config: SearchConfig, parity: _Parity,
                  t0: float) -> SearchOutcome:
    """Search the root subtrees in a process pool under one stop signal.

    The signal is set by the first witness, by the run's deadline, or by the
    worker whose nodes take the shared count past the node budget.  Jobs not
    yet started are cancelled; running ones see the signal on their next
    poll and return, and their nodes and prunes are counted too.
    """
    import multiprocessing
    import threading
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    stats = SearchStats()
    n = graph.vertex_count
    first, second, _ = _label_orders(n, config)
    jobs = [(lam0, lam1) for lam0 in first for lam1 in second[lam0] if lam1 != lam0]
    job_config = replace(config, workers=1, node_budget=None, time_budget=None)
    deadline = None if config.time_budget is None else t0 + config.time_budget
    stop = multiprocessing.Event()
    shared_nodes = multiprocessing.Value("q", 0)
    witness: Optional[MagicCertificate] = None
    exhausted = 0  # jobs that searched their whole subtree
    with ProcessPoolExecutor(max_workers=config.workers, initializer=_init_worker,
                             initargs=(stop, shared_nodes, config.node_budget, n, graph.edges,
                                       job_config, parity)) as pool:
        try:
            pending = {pool.submit(_run_job, job) for job in jobs}
            while pending:
                timeout = None
                if deadline is not None and not stop.is_set():
                    # a huge budget, such as inf, would overflow the lock's timeout
                    timeout = min(max(0.0, deadline - perf_counter()), threading.TIMEOUT_MAX)
                done, pending = wait(pending, timeout, FIRST_COMPLETED)
                for fut in done:
                    verdict, cert, nodes, prunes = fut.result()
                    exhausted += verdict == VERDICT_EXHAUSTED
                    stats.nodes += nodes
                    for k, x in prunes.items():
                        stats.prunes[k] += x
                    if verdict == VERDICT_WITNESS and witness is None:
                        labels, bits = cert
                        result = verify(graph, Orientation(graph, bits), Labeling(n, labels))
                        if not isinstance(result, MagicCertificate):
                            raise RuntimeError("parallel worker returned a bad witness; this is a defect")
                        witness = result
                        stop.set()
                if deadline is not None and perf_counter() >= deadline:
                    stop.set()
                if stop.is_set():
                    # cancel() is false for a running job: wait for its result
                    pending = {fut for fut in pending if not fut.cancel()}
        finally:
            stop.set()  # also on an error, so that shutdown need not wait for the jobs
    stats.elapsed = perf_counter() - t0
    if witness is not None:
        return SearchOutcome(VERDICT_WITNESS, witness, stats)
    if exhausted == len(jobs):
        return SearchOutcome(VERDICT_EXHAUSTED, None, stats)
    return SearchOutcome(VERDICT_INCONCLUSIVE, None, stats)


def decide_existence(graph: UndirectedGraph, config: Optional[SearchConfig] = None) -> SearchOutcome:
    """Search for a magic orientation-plus-labeling of the graph.

    Returns a witness certificate, a sound exhausted-no-solution verdict, or
    inconclusive when a budget ran out before the space was covered.
    """
    if graph.vertex_count < 1:
        raise ValueError("search needs at least one vertex")
    config = config or SearchConfig()
    t0 = perf_counter()
    parity = _root_parity_candidates(graph, config)
    if parity is not None and not parity[0]:
        stats = SearchStats()
        stats.prunes["parity"] += 1
        stats.elapsed = perf_counter() - t0
        return SearchOutcome(VERDICT_EXHAUSTED, None, stats)
    if config.workers > 1 and graph.vertex_count >= 2:
        return _run_parallel(graph, config, parity, t0)
    return _search(graph, config, parity, t0)
