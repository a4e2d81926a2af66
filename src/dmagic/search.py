"""Exhaustive search for a magic orientation-plus-labeling of a small graph.

The search interleaves label choices with arc choices: vertices are visited in
maximum-adjacency order, and each edge is oriented at the moment its second
endpoint is labeled.  Each choice point is one step, N + E in all, and the
search walks them with a single loop over an explicit stack, never by
recursion, so a deep graph costs memory rather than interpreter stack.  Every
depth keeps an iterator over its remaining choices and the choice it applied,
which is its undo record: the step data names what the choice changed.

After a choice is applied, one check block runs over the vertices the step
touched: the labeled vertex and its earlier-visited neighbours for a label
step, tail and head for an arc step.  The magic constant is never enumerated;
the first touched vertex whose incident arcs are all decided pins it, and the
loop keeps the depth of that pin so that undoing the choice there unpins it.
Pruning rules:

  weight    a fully decided vertex whose weight differs from the pinned constant
  interval  a partly decided vertex whose achievable weights, bounded through
            the unused label pool, cannot reach the pinned constant
  parity    the 0/1 label-parity pattern fixed so far extends to no solution of
            the weight-parity system with exactly N/2 odd labels

All three rules only discard assignments that cannot extend to a witness, so
an exhausted search is a sound nonexistence verdict.  Fixing the first arc
halves the space and is existence-preserving (reversing every arc maps
witnesses to witnesses, negating the constant); restricting the first label to
one representative per unit-scaling orbit is available behind a toggle.
"""

from __future__ import annotations

import random
import sys
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from .graphs import Orientation, UndirectedGraph
from .obstructions import parity_solutions
from .verifier import Labeling, MagicCertificate, verify

__all__ = [
    "SearchConfig",
    "SearchStats",
    "SearchOutcome",
    "VERDICT_WITNESS",
    "VERDICT_EXHAUSTED",
    "VERDICT_INCONCLUSIVE",
    "decide_existence",
]

VERDICT_WITNESS = "witness"
VERDICT_EXHAUSTED = "exhausted-no-solution"
VERDICT_INCONCLUSIVE = "inconclusive"

_PRUNE_KEYS = ("weight", "interval", "parity")


@dataclass(frozen=True)
class SearchConfig:
    """Budgets, reductions, and determinism knobs for the search.

    With workers > 1 the top two label choices are expanded into independent
    subtree jobs.  The budgets still bound the whole run: the node budget
    counts the nodes of all workers together and the time budget is one
    deadline, and the first witness stops the run.  Each running worker
    notices a stop on its next poll, every 1024 nodes, so a parallel run may
    overshoot its budgets by up to one such tick per worker.  Which witness
    is found first is no longer determined by the config alone.
    """

    node_budget: Optional[int] = None
    time_budget: Optional[float] = None
    workers: int = 1
    fix_first_arc: bool = True
    unit_scaling: bool = False
    parity_prune: bool = True
    parity_list_cap: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
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


# A parity candidate is (vertex parity mask, weight parity c).
_ParityList = Optional[List[Tuple[int, int]]]


def _visit_order(graph: UndirectedGraph) -> List[int]:
    """Maximum-adjacency order: next vertex has most labeled neighbors."""
    n = graph.vertex_count
    chosen = [False] * n
    conn = [0] * n
    order = []
    for _ in range(n):
        best = -1
        key = None
        for v in range(n):
            if chosen[v]:
                continue
            k = (conn[v], graph.degree(v), -v)
            if key is None or k > key:
                key = k
                best = v
        order.append(best)
        chosen[best] = True
        for nb in graph.neighbors(best):
            conn[nb] += 1
    return order


def _steps(graph: UndirectedGraph, config: SearchConfig,
           pinned: Dict[int, int]) -> List[Tuple]:
    """Step data in visit order, each ending with its candidate choices.

    A label step is (True, v, touched, labels): touched is v followed by its
    earlier-visited neighbours in incidence order.  An arc step is
    (False, e, u, v, bits) for edge e = (u, v); bit 0 orients it u -> v.
    pinned maps a step index to the only label that step may take.
    """
    order = _visit_order(graph)
    pos = {v: i for i, v in enumerate(order)}
    n = graph.vertex_count
    labels = list(range(n))
    if config.seed != 0:
        random.Random(config.seed).shuffle(labels)
    first = labels
    if config.unit_scaling:
        # one representative per unit-scaling orbit: 0 and the divisors of N
        first = [lam for lam in labels if lam == 0 or n % lam == 0]
    arc_bits: Tuple[int, ...] = (0,) if config.fix_first_arc else (0, 1)
    steps: List[Tuple] = []
    for v in order:
        si = len(steps)
        cands = (pinned[si],) if si in pinned else (first if si == 0 else labels)
        back = [(e, u) for e, u in graph.incident(v) if pos[u] < pos[v]]
        steps.append((True, v, (v,) + tuple(u for _, u in back), cands))
        for e, _ in back:
            steps.append((False, e) + graph.edges[e] + (arc_bits,))
            arc_bits = (0, 1)
    return steps


def _root_parity_candidates(graph: UndirectedGraph, config: SearchConfig) -> _ParityList:
    if not config.parity_prune or graph.vertex_count % 2 != 0:
        return None
    sols = parity_solutions(graph, max_solutions=config.parity_list_cap)
    if sols is None:
        return None
    return [(mask, c) for c in (0, 1) for mask in sols[c]]


def _search(graph: UndirectedGraph, config: SearchConfig, psols: _ParityList,
            t0: float, pinned: Optional[Dict[int, int]] = None,
            poll: Optional[Callable[[], bool]] = None) -> SearchOutcome:
    """Run the step loop from the root; budgets count from t0.

    poll, if given, is called every 1024 nodes, and the search stops as
    inconclusive once it returns true.  Without one, a time budget is polled
    there instead.
    """
    steps = _steps(graph, config, pinned or {})
    mod = graph.vertex_count
    incident = [graph.incident(v) for v in range(mod)]
    labels = [-1] * mod
    bits = [-1] * graph.edge_count
    pw = [0] * mod
    und = [graph.degree(v) for v in range(mod)]
    stats = SearchStats()
    prunes = stats.prunes

    def interval_ok(x: int, need: int, used: int) -> bool:
        """Can the pending contributions to x still add up to need mod N?"""
        pending: List[int] = []
        k_unlabeled = 0
        for e, y in incident[x]:
            if bits[e] != -1:
                continue
            ly = labels[y]
            if ly >= 0:
                pending.append(ly)
            else:
                k_unlabeled += 1
        if k_unlabeled == 0 and len(pending) <= 3:
            achievable = {0}
            for val in pending:
                achievable = {s + val for s in achievable} | {s - val for s in achievable}
            return any(s % mod == need for s in achievable)
        lo = -sum(pending)
        hi = sum(pending)
        if k_unlabeled:
            total = 0
            count = 0
            lam = mod - 1
            while count < k_unlabeled and lam >= 0:
                if not (used >> lam) & 1:
                    total += lam
                    count += 1
                lam -= 1
            lo -= total
            hi += total
        if hi - lo + 1 >= mod:
            return True
        return lo + ((need - lo) % mod) <= hi

    def finish(verdict: str, nodes: int,
               certificate: Optional[MagicCertificate] = None) -> SearchOutcome:
        stats.nodes = nodes
        stats.elapsed = perf_counter() - t0
        return SearchOutcome(verdict, certificate, stats)

    node_limit = config.node_budget if config.node_budget is not None else sys.maxsize
    time_budget = config.time_budget
    if poll is None and time_budget is not None:
        def poll() -> bool:
            return perf_counter() - t0 > time_budget
    last = len(steps) - 1
    todo = [iter(())] * len(steps)
    applied = [-1] * len(steps)
    plist: List[_ParityList] = [None] * len(steps)
    todo[0] = iter(steps[0][-1])  # no label is used yet
    plist[0] = psols
    used = 0
    mu: Optional[int] = None
    mu_depth = -1
    nodes = 0
    d = 0
    while True:
        # undo the choice this depth applied last, then take its next one
        step = steps[d]
        x = applied[d]
        if x >= 0:
            if step[0]:
                labels[step[1]] = -1
                used ^= 1 << x
            else:
                _, e, u, v, _ = step
                tail, head = (u, v) if x == 0 else (v, u)
                bits[e] = -1
                pw[head] -= labels[tail]
                pw[tail] += labels[head]
                und[tail] += 1
                und[head] += 1
            if mu_depth == d:
                mu = None
                mu_depth = -1
        x = applied[d] = next(todo[d], -1)
        if x < 0:
            if d == 0:
                return finish(VERDICT_EXHAUSTED, nodes)
            d -= 1
            continue
        nodes += 1
        if nodes > node_limit or (poll is not None and not nodes & 1023 and poll()):
            return finish(VERDICT_INCONCLUSIVE, nodes)
        newp = plist[d]
        if step[0]:
            _, v, touched, _ = step
            labels[v] = x
            used |= 1 << x
            if newp is not None:
                newp = [s for s in newp if (s[0] >> v) & 1 == x & 1]
                if not newp:
                    prunes["parity"] += 1
                    continue
        else:
            _, e, u, v, _ = step
            tail, head = touched = (u, v) if x == 0 else (v, u)
            bits[e] = x
            pw[head] += labels[tail]
            pw[tail] -= labels[head]
            und[tail] -= 1
            und[head] -= 1
        # one check block for both kinds of step
        failed = None
        for y in touched:
            if und[y] == 0:
                w = pw[y] % mod
                if mu is None:
                    mu = w
                    mu_depth = d
                    if newp is not None:
                        newp = [s for s in newp if s[1] == w & 1]
                        if not newp:
                            failed = "parity"
                            break
                elif w != mu:
                    failed = "weight"
                    break
        if failed is None and mu is not None:
            for y in touched:
                if und[y] and not interval_ok(y, (mu - pw[y]) % mod, used):
                    failed = "interval"
                    break
        if failed is not None:
            prunes[failed] += 1
            continue
        if d == last:
            result = verify(graph, Orientation(graph, tuple(bits)), Labeling(mod, tuple(labels)))
            if not isinstance(result, MagicCertificate):
                raise RuntimeError("search reached a non-magic full assignment; this is a defect")
            return finish(VERDICT_WITNESS, nodes, result)
        # descend; a label step skips the labels used above it
        d += 1
        step = steps[d]
        todo[d] = iter(step[-1] if not step[0] else
                       [lam for lam in step[-1] if not (used >> lam) & 1])
        applied[d] = -1
        plist[d] = newp


# What a pool process shares with the rest of the run: the stop signal, the
# node count of all workers and the run's node budget.  Set in each pool
# process by _init_worker; a serial search never reads it.
_worker: Optional[Tuple] = None


def _init_worker(stop, shared_nodes, node_budget: Optional[int]) -> None:
    global _worker
    _worker = (stop, shared_nodes, node_budget)


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


def _run_job(args: Tuple) -> Tuple[str, Optional[Tuple], int, Dict[str, int]]:
    vertex_count, edges, cfg_kwargs, psols, pinned = args
    if _worker[0].is_set():  # a job already queued when the run stopped
        return VERDICT_INCONCLUSIVE, None, 0, {k: 0 for k in _PRUNE_KEYS}
    graph = UndirectedGraph(vertex_count, edges)
    outcome = _search(graph, SearchConfig(**cfg_kwargs), psols, perf_counter(), pinned,
                      lambda: _add_nodes(1024))
    _add_nodes(outcome.stats.nodes & 1023)  # the nodes since the last poll
    cert = None
    if outcome.certificate is not None:
        cert = (outcome.certificate.labeling.labels, outcome.certificate.orientation.bits)
    return outcome.verdict, cert, outcome.stats.nodes, outcome.stats.prunes


def _run_parallel(graph: UndirectedGraph, config: SearchConfig, psols: _ParityList,
                  t0: float) -> SearchOutcome:
    """Search the root subtrees in a process pool under one stop signal.

    The signal is set by the first witness, by the run's deadline, or by the
    worker whose nodes take the shared count past the node budget.  Jobs not
    yet started are cancelled; running ones see the signal on their next
    poll and return, and their nodes and prunes are counted too.
    """
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    stats = SearchStats()
    n = graph.vertex_count
    first = _steps(graph, config, {})[0][-1]
    jobs = [(lam0, lam1) for lam0 in first for lam1 in range(n) if lam1 != lam0]
    cfg_kwargs = asdict(config)
    cfg_kwargs.update(workers=1, node_budget=None, time_budget=None)
    payloads = [(n, graph.edges, cfg_kwargs, psols, {0: lam0, 1: lam1}) for lam0, lam1 in jobs]
    deadline = None if config.time_budget is None else t0 + config.time_budget
    stop = multiprocessing.Event()
    shared_nodes = multiprocessing.Value("q", 0)
    witness: Optional[MagicCertificate] = None
    exhausted = 0  # jobs that searched their whole subtree
    with ProcessPoolExecutor(max_workers=config.workers, initializer=_init_worker,
                             initargs=(stop, shared_nodes, config.node_budget)) as pool:
        try:
            pending = {pool.submit(_run_job, p) for p in payloads}
            while pending:
                timeout = None
                if deadline is not None and not stop.is_set():
                    timeout = max(0.0, deadline - perf_counter())
                done, pending = wait(pending, timeout, FIRST_COMPLETED)
                for fut in done:
                    verdict, cert, nodes, prunes = fut.result()
                    exhausted += verdict == VERDICT_EXHAUSTED
                    stats.nodes += nodes
                    for k, x in prunes.items():
                        stats.prunes[k] += x
                    if verdict == VERDICT_WITNESS and witness is None:
                        labels, bits = cert
                        labeling = Labeling(n, tuple(labels))
                        orientation = Orientation(graph, tuple(bits))
                        result = verify(graph, orientation, labeling)
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
    psols = _root_parity_candidates(graph, config)
    if psols is not None and not psols:
        stats = SearchStats()
        stats.prunes["parity"] += 1
        stats.elapsed = perf_counter() - t0
        return SearchOutcome(VERDICT_EXHAUSTED, None, stats)
    if config.workers > 1 and graph.vertex_count >= 2:
        return _run_parallel(graph, config, psols, t0)
    return _search(graph, config, psols, t0)
