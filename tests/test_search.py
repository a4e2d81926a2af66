import concurrent.futures
import hashlib
import multiprocessing
import random
from dataclasses import replace
from time import perf_counter

import pytest

from dmagic import search
from dmagic.constructors import kmokn_graph
from dmagic.graphs import (
    UndirectedGraph,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    path,
    prism,
)
from dmagic.search import (
    SearchConfig,
    VERDICT_EXHAUSTED,
    VERDICT_INCONCLUSIVE,
    VERDICT_WITNESS,
    decide_existence,
)
from dmagic.verifier import Labeling, MagicCertificate, certificate_to_text, verify
from oracles import brute_magic_label_pairs, brute_magic_search, units


def test_k4_has_no_solution():
    out = decide_existence(complete(4))
    assert out.verdict == VERDICT_EXHAUSTED
    assert out.certificate is None


def test_k4_has_no_solution_without_parity_rule():
    out = decide_existence(complete(4), SearchConfig(parity_prune=False))
    assert out.verdict == VERDICT_EXHAUSTED
    assert out.stats.nodes > 0


def test_k5_witness():
    out = decide_existence(complete(5))
    assert out.verdict == VERDICT_WITNESS
    cert = out.certificate
    assert isinstance(cert, MagicCertificate)
    result = verify(cert.graph, cert.orientation, cert.labeling)
    assert isinstance(result, MagicCertificate)


def test_small_witnesses_match_brute_force_existence():
    configs = (SearchConfig(), SearchConfig(parity_prune=False),
               SearchConfig(reduce=False), SearchConfig(parity_prune=False, reduce=False))
    # path(7) loses all its witnesses to a forward check that tries only
    # l = mu - pw(y), and K(1,1,2) to a last-label step that forgets the
    # second-to-last vertex among its neighbours' pending labels
    for g in (cycle(3), cycle(4), cycle(5), path(2), path(3), path(7),
              complete(4), complete(5), complete_multipartite([1, 2, 2]),
              complete_multipartite([1, 1, 2]),
              empty_graph(2), empty_graph(3),
              UndirectedGraph.from_edges(4, [(0, 1), (2, 3)]),
              UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)])):
        expected = brute_magic_search(g.vertex_count, g.edges)
        for config in configs:
            out = decide_existence(g, config)
            assert (out.verdict == VERDICT_WITNESS) == (expected is not None), (g, config)


def test_every_pinned_pair_matches_brute_force():
    # a (λ0, λ1) subtree holds a witness exactly when some magic assignment
    # gives the first two visited vertices those labels, so a rule that cuts
    # some of a graph's witnesses but not all of them fails here
    configs = (SearchConfig(), SearchConfig(parity_prune=False),
               SearchConfig(reduce=False), SearchConfig(parity_prune=False, reduce=False))
    for g in (cycle(3), cycle(4), cycle(5), cycle(6), path(3), complete(5),
              complete_multipartite([1, 2, 2]), complete_multipartite([2, 3]),
              complete_multipartite([1, 1, 3]), complete_multipartite([1, 1, 1, 2])):
        n = g.vertex_count
        order = search._visit_order(g)
        expected = brute_magic_label_pairs(n, g.edges, order[0], order[1])
        assert expected, g
        for config in configs:
            parity, plan = search._root_parity_candidates(g, config), search._steps(g, config)
            got = {(a, b) for a in range(n) for b in range(n) if a != b and search._search(
                g, config, parity, perf_counter(), pinned={0: a, 1: b}, plan=plan).verdict == VERDICT_WITNESS}
            assert got == expected, (g, config)


def test_single_vertex():
    out = decide_existence(empty_graph(1))
    assert out.verdict == VERDICT_WITNESS
    assert out.certificate.mu == 0


def test_zero_vertices_rejected():
    with pytest.raises(ValueError):
        decide_existence(empty_graph(0))


def test_parity_rule_only_prunes():
    # same verdict with and without the parity rule, fewer or equal nodes with it
    g = complete_multipartite([3, 3])
    with_rule = decide_existence(g)
    without_rule = decide_existence(g, SearchConfig(parity_prune=False))
    assert with_rule.verdict == VERDICT_EXHAUSTED
    assert without_rule.verdict == VERDICT_EXHAUSTED
    assert with_rule.stats.nodes <= without_rule.stats.nodes
    assert without_rule.stats.nodes > 0


def test_parity_rule_closes_even_completes_at_the_root():
    for n in (4, 6, 8):
        out = decide_existence(complete(n))
        assert out.verdict == VERDICT_EXHAUSTED
        assert out.stats.nodes == 0


def test_reduction_preserves_the_verdict():
    # the unreduced tree is the reference; every witness of either passes verify
    for g in _random_graphs():
        if g.vertex_count > 8:
            continue
        for parity in (True, False):
            reduced, unreduced = (decide_existence(g, SearchConfig(parity_prune=parity, reduce=r))
                                  for r in (True, False))
            assert reduced.verdict == unreduced.verdict != VERDICT_INCONCLUSIVE, (g, parity)
            for out in (reduced, unreduced):
                if out.verdict == VERDICT_WITNESS:
                    cert = out.certificate
                    assert isinstance(verify(cert.graph, cert.orientation, cert.labeling),
                                      MagicCertificate)


def test_first_arc_reduction_preserves_the_verdict():
    for g in (cycle(4), cycle(5), cycle(6), complete(4), complete(5),
              path(4), complete_multipartite([1, 2, 2]), complete_multipartite([2, 2]),
              prism(3)):
        reduced = decide_existence(g)
        unreduced = decide_existence(g, SearchConfig(reduce=False))
        assert reduced.verdict == unreduced.verdict, g


def test_unit_scaling_preserves_the_verdict():
    # a unit multiple of a witness is a witness with mu scaled by the unit
    for g in (cycle(4), cycle(5), complete(4), complete(5), path(4),
              complete_multipartite([2, 2])):
        n = g.vertex_count
        reduced = decide_existence(g)
        unreduced = decide_existence(g, SearchConfig(reduce=False))
        assert reduced.verdict == unreduced.verdict, g
        if unreduced.verdict != VERDICT_WITNESS:
            continue
        cert = unreduced.certificate
        for u in units(n):
            scaled = Labeling(n, tuple(u * x % n for x in cert.labeling.labels))
            result = verify(g, cert.orientation, scaled)
            assert isinstance(result, MagicCertificate), (g, u)
            assert result.mu == u * cert.mu % n, (g, u)


def test_first_arc_reduction_shrinks_exhausted_searches():
    reduced = decide_existence(complete(4), SearchConfig(parity_prune=False))
    unreduced = decide_existence(complete(4), SearchConfig(parity_prune=False,
                                                           reduce=False))
    assert reduced.verdict == unreduced.verdict == VERDICT_EXHAUSTED
    assert reduced.stats.nodes < unreduced.stats.nodes


def test_units_small():
    assert units(12) == [1, 5, 7, 11]
    assert units(6) == [1, 5]
    assert units(1) == [0]
    assert units(7) == [1, 2, 3, 4, 5, 6]


def test_label_representatives_cover_every_pair(monkeypatch):
    for n in range(1, 41):
        us = units(n)
        for seed in (0, n):
            first, second, _ = search._label_orders(n, SearchConfig(seed=seed))
            kept = [(g, b) for g in first for b in second[g]]
            assert all(g != b for g, b in kept) and len(set(kept)) == len(kept), n
            kept_set = set(kept)
            # complete: a unit maps every pair of distinct labels onto a kept pair
            for a in range(n):
                for b in range(n):
                    if a != b:
                        assert any((u * a % n, u * b % n) in kept_set for u in us), (n, a, b)
            # minimal: no unit maps one kept pair onto another
            for g, b in kept:
                for u in us:
                    image = (u * g % n, u * b % n)
                    assert image == (g, b) or image not in kept_set, (n, g, b, u)

    # the parallel run submits exactly the kept pairs, in order
    jobs = []

    class InlinePool:  # runs each job in this process as it is submitted
        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            jobs.append(job)
            fut = concurrent.futures.Future()
            fut.set_result(fn(job))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(search, "_worker", None)
    monkeypatch.setattr(search, "_subtrees", None)
    for graph, config in ((complete(4), SearchConfig(workers=2, parity_prune=False)),
                          (cycle(12), SearchConfig(workers=2, seed=2))):
        jobs.clear()
        out = decide_existence(graph, config)
        assert out.verdict == decide_existence(graph, replace(config, workers=1)).verdict
        first, second, _ = search._label_orders(graph.vertex_count, config)
        assert jobs == [(g, b) for g in first for b in second[g]]


def test_node_budget_is_inconclusive_not_wrong():
    out = decide_existence(complete(6), SearchConfig(parity_prune=False, node_budget=500))
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.certificate is None
    assert out.stats.nodes == 501


def test_time_budget_is_inconclusive():
    out = decide_existence(prism(4), SearchConfig(parity_prune=False, time_budget=0.01))
    assert out.verdict in (VERDICT_INCONCLUSIVE, VERDICT_EXHAUSTED)
    # on any realistic machine 10ms cannot cover the 165-thousand-node space
    assert out.verdict == VERDICT_INCONCLUSIVE


def test_search_is_deterministic():
    a = decide_existence(complete(5))
    b = decide_existence(complete(5))
    assert a.stats.nodes == b.stats.nodes
    assert a.stats.prunes == b.stats.prunes
    assert certificate_to_text(a.certificate) == certificate_to_text(b.certificate)


def test_seed_changes_the_path_but_not_the_verdict():
    base = decide_existence(cycle(4))
    seeded = decide_existence(cycle(4), SearchConfig(seed=99))
    again = decide_existence(cycle(4), SearchConfig(seed=99))
    assert base.verdict == seeded.verdict == VERDICT_WITNESS
    assert certificate_to_text(seeded.certificate) == certificate_to_text(again.certificate)


def test_exhausted_seeded_search_agrees():
    for seed in (0, 1, 17):
        out = decide_existence(complete(4), SearchConfig(parity_prune=False, seed=seed))
        assert out.verdict == VERDICT_EXHAUSTED, seed


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)
    with pytest.raises(ValueError):
        SearchConfig(time_budget=0)
    with pytest.raises(ValueError):
        SearchConfig(time_budget=float("nan"))
    with pytest.raises(ValueError):
        SearchConfig(workers=0)


def test_stats_elapsed_is_populated():
    out = decide_existence(complete(5))
    assert out.stats.elapsed >= 0.0
    assert set(out.stats.prunes) == {"weight", "interval", "parity"}


def test_parallel_witness():
    out = decide_existence(complete(5), SearchConfig(workers=2))
    assert out.verdict == VERDICT_WITNESS
    cert = out.certificate
    assert isinstance(verify(cert.graph, cert.orientation, cert.labeling),
                      MagicCertificate)


def test_parallel_exhaustion_agrees_with_serial():
    config = SearchConfig(workers=2, parity_prune=False)
    parallel = decide_existence(complete(4), config)
    serial = decide_existence(complete(4), SearchConfig(parity_prune=False))
    assert parallel.verdict == serial.verdict == VERDICT_EXHAUSTED
    assert parallel.stats.nodes > 0


def test_parallel_root_parity_closure():
    out = decide_existence(complete(6), SearchConfig(workers=2))
    assert out.verdict == VERDICT_EXHAUSTED
    assert out.stats.nodes == 0


def _worker_state(monkeypatch, node_budget=None):
    stop = multiprocessing.Event()
    shared_nodes = multiprocessing.Value("q", 0)
    monkeypatch.setattr(search, "_worker", (stop, shared_nodes, node_budget))
    return stop, shared_nodes


def _worker_search(graph, config):
    return search._search(graph, config, None, perf_counter(), None,
                          lambda: search._add_nodes(1024))


def test_stopped_worker_returns_within_one_poll(monkeypatch):
    stop, shared_nodes = _worker_state(monkeypatch)
    stop.set()
    config = SearchConfig(parity_prune=False)
    out = _worker_search(complete(6), config)
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.stats.nodes == 1024
    assert shared_nodes.value == 1024
    # a job taken from the queue after the stop visits no node at all
    verdict, cert, nodes, _ = search._run_job((0, 1))
    assert (verdict, cert, nodes) == (VERDICT_INCONCLUSIVE, None, 0)


def test_worker_past_the_shared_budget_sets_the_stop(monkeypatch):
    stop, shared_nodes = _worker_state(monkeypatch, node_budget=1500)
    out = _worker_search(complete(6), SearchConfig(parity_prune=False))
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.stats.nodes == shared_nodes.value == 2048
    assert stop.is_set()


def test_parallel_time_budget_bounds_the_whole_run():
    start = perf_counter()
    out = decide_existence(kmokn_graph(5, 3), SearchConfig(time_budget=0.2, workers=2))
    assert perf_counter() - start <= 1.2
    assert out.verdict != VERDICT_EXHAUSTED


@pytest.mark.parametrize("workers", [2, 4])  # 4 contend for the shared count
def test_parallel_node_budget_is_shared_by_the_workers(workers):
    config = SearchConfig(node_budget=20000, workers=workers)
    out = decide_existence(kmokn_graph(5, 3), config)
    assert out.verdict == VERDICT_INCONCLUSIVE
    # each worker may run on for up to one poll interval after the count passes
    assert out.stats.nodes <= 20000 + workers * 1024


# Reference search trees: verdict, nodes, prunes (weight, interval, parity)
# and the first 8 hex characters of the md5 of the certificate text.  Any
# change to the visit order, the candidate order or a pruning rule shows up
# here.  A row with a pinned pair runs one parallel job's subtree serially:
# its first two labels are fixed, as _run_job fixes them.  K2[6]-unit-scaling
# tries first label 2 before 0, so its witness (mu = 6) starts from a nonzero
# orbit representative and second labels from the stabilizer of 2.
_BUDGETED = SearchConfig(seed=1, node_budget=100000)
# a star with a tail, plus an isolated vertex that closes at its label step
_LEAFY = UndirectedGraph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)])


@pytest.mark.parametrize("graph, config, verdict, nodes, prunes, digest, pinned", [
    (path(12), SearchConfig(), VERDICT_EXHAUSTED, 3193, (882, 18, 46), None, None),
    (complete(9), SearchConfig(), VERDICT_WITNESS, 146, (3, 35, 0), "df17a29c", None),
    (complete(7), _BUDGETED, VERDICT_WITNESS, 35, (3, 4, 0), "1c990400", None),
    (kmokn_graph(3, 3), _BUDGETED, VERDICT_WITNESS, 39, (0, 3, 0), "66ca6218", None),
    (kmokn_graph(3, 4), _BUDGETED, VERDICT_WITNESS, 373, (1, 64, 65), "6f7a6400", None),
    (kmokn_graph(2, 6), _BUDGETED, VERDICT_WITNESS, 64, (9, 2, 0), "5249cd97", None),
    (kmokn_graph(2, 6), replace(_BUDGETED, seed=4), VERDICT_WITNESS, 74, (13, 3, 0),
     "1c4a9cbc", None),
    (kmokn_graph(5, 2), _BUDGETED, VERDICT_WITNESS, 340, (3, 67, 56), "abcbe177", None),
    (path(11), SearchConfig(), VERDICT_EXHAUSTED, 5253, (1548, 61, 0), None, None),
    (cycle(12), SearchConfig(seed=2, reduce=False), VERDICT_WITNESS, 1429,
     (383, 0, 16), "db9d9579", None),
    (cycle(12), SearchConfig(seed=2, parity_prune=False), VERDICT_WITNESS, 632,
     (164, 0, 0), "f3c5ba05", None),
    (_LEAFY, SearchConfig(), VERDICT_EXHAUSTED, 1367, (312, 190, 92), None, None),
    (kmokn_graph(5, 2), SearchConfig(seed=1), VERDICT_WITNESS, 414, (4, 84, 67),
     "66287c12", (2, 9)),
    (complete(6), SearchConfig(parity_prune=False), VERDICT_EXHAUSTED, 36580, (0, 12288, 0),
     None, None),
], ids=["P12", "K9", "K7", "K3[3]", "K3[4]", "K2[6]", "K2[6]-unit-scaling", "K5[2]", "P11", "C12-free-first-arc",
        "C12-no-parity", "leafy", "K5[2]-pinned", "K6-no-parity"])
def test_same_tree(graph, config, verdict, nodes, prunes, digest, pinned):
    if pinned is None:
        out = decide_existence(graph, config)
    else:
        psols = search._root_parity_candidates(graph, config)
        out = search._search(graph, config, psols, perf_counter(),
                             pinned={0: pinned[0], 1: pinned[1]})
    assert out.verdict == verdict
    assert out.stats.nodes == nodes
    assert out.stats.prunes == dict(zip(("weight", "interval", "parity"), prunes))
    if digest is None:
        assert out.certificate is None
    else:
        text = certificate_to_text(out.certificate)
        assert hashlib.md5(text.encode()).hexdigest()[:8] == digest


def _rescanned_checks(graph):
    """Per step, the vertex it labels (None for an arc step) and (vertex,
    unlabeled neighbours, pending labeled neighbours) of every touched vertex,
    found by rescanning its incidences.  Each vertex is labeled and then its
    edges to earlier vertices are decided, but the last vertex is labeled
    right after the second-to-last."""
    order = search._visit_order(graph)
    pos = {v: i for i, v in enumerate(order)}
    labeled, decided, out = set(), set(), []

    def facts(touched):
        return [(y, sum(z not in labeled for _, z in graph.incident(y)),
                 sorted(z for e, z in graph.incident(y) if z in labeled and e not in decided))
                for y in touched]

    def label(v):
        labeled.add(v)
        out.append((v, facts([v] + [u for _, u in graph.incident(v) if u in labeled])))

    for i, v in enumerate(order):
        if v not in labeled:
            label(v)
        if i == len(order) - 2:
            label(order[-1])
        for e, u in graph.incident(v):
            if pos[u] < i:
                decided.add(e)
                out.append((None, facts(graph.edges[e])))
    return out


def _random_graphs():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 17)
        p = rng.choice((0.15, 0.4, 0.8))
        yield UndirectedGraph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    yield from (_LEAFY, complete(6), prism(4), path(11), kmokn_graph(3, 5), complete(15))


def test_check_plan_matches_a_rescan():
    for graph in _random_graphs():
        n = graph.vertex_count
        steps, cands, pin = search._steps(graph, SearchConfig())
        expected = _rescanned_checks(graph)
        assert len(steps) == len(cands) == len(expected)
        assert [step[1] for step in steps if step[0]] == [a for a, _ in expected if a is not None]
        assert pin == min(d for d, (_, fs) in enumerate(expected)
                          if any(not k and not pend for _, k, pend in fs))
        for d, (step, (a, fs)) in enumerate(zip(steps, expected)):
            # below the pin, a label step checks a's label against each touched
            # vertex whose only undecided edge leads to a, and opens it no more
            checked = sorted(y for y, k, pend in fs if y != a and not k and pend == [a]
                             ) if a is not None and d > pin else []
            fs = [f for f in fs if f[0] not in checked]
            closes = sorted(y for y, k, pend in fs if not k and not pend)
            # an open vertex is checked exactly; or, from the pin on, by its bound
            # unless its m undecided edges carry m distinct labels that reach Z_N
            opens = sorted((y, -1 if not k and len(pend) <= 3 else k, pend) for y, k, pend in fs
                           if (k or pend) and (not k and len(pend) <= 3 or d >= pin and
                                               (k + len(pend)) * (k + len(pend) - 1) + 1 < n))
            got = sorted((y, k, sorted(pend[start:])) for y, k, pend, start in step[4])
            assert (sorted(step[3]), got) == (closes, opens), (graph, d)
            if step[0]:
                assert sorted(step[5]) == checked, (graph, d)


def test_visit_order_is_maximum_adjacency():
    # by its definition: the vertex with the most visited neighbours, then the
    # highest degree, then the least index
    for graph in [*_random_graphs(), kmokn_graph(30, 30)]:
        n = graph.vertex_count
        visited, degree = [0] * n, [graph.degree(v) for v in range(n)]
        rest, expected = set(range(n)), []
        while rest:
            best = max(rest, key=lambda v: (visited[v], degree[v], -v))
            expected.append(best)
            rest.discard(best)
            for _, u in graph.incident(best):
                visited[u] += 1
        assert search._visit_order(graph) == expected, graph


def test_deep_graph_stops_at_the_budget():
    # K11[5] has 1,430 steps, far beyond the interpreter's recursion limit
    out = decide_existence(kmokn_graph(11, 5), SearchConfig(node_budget=20000))
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.stats.nodes == 20001
