import hashlib
import multiprocessing
from dataclasses import asdict
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
from dmagic.verifier import MagicCertificate, certificate_to_text, verify
from oracles import brute_magic_search


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
    for g in (cycle(3), cycle(4), cycle(5), path(2), path(3),
              complete(4), complete(5), complete_multipartite([1, 2, 2]),
              empty_graph(2), empty_graph(3),
              UndirectedGraph.from_edges(4, [(0, 1), (2, 3)]),
              UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)])):
        out = decide_existence(g)
        expected = brute_magic_search(g.vertex_count, g.edges)
        assert (out.verdict == VERDICT_WITNESS) == (expected is not None), g


def test_single_vertex():
    out = decide_existence(empty_graph(1))
    assert out.verdict == VERDICT_WITNESS
    assert out.certificate.mu.value == 0


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


def test_first_arc_reduction_preserves_the_verdict():
    for g in (cycle(4), cycle(5), cycle(6), complete(4), complete(5),
              path(4), complete_multipartite([1, 2, 2]), complete_multipartite([2, 2]),
              prism(3)):
        reduced = decide_existence(g)
        unreduced = decide_existence(g, SearchConfig(fix_first_arc=False))
        assert reduced.verdict == unreduced.verdict, g


def test_first_arc_reduction_shrinks_exhausted_searches():
    reduced = decide_existence(complete(4), SearchConfig(parity_prune=False))
    unreduced = decide_existence(complete(4), SearchConfig(parity_prune=False,
                                                           fix_first_arc=False))
    assert reduced.verdict == unreduced.verdict == VERDICT_EXHAUSTED
    assert reduced.stats.nodes < unreduced.stats.nodes


def test_unit_scaling_preserves_the_verdict():
    for g in (cycle(4), cycle(5), complete(4), complete(5), path(4),
              complete_multipartite([2, 2])):
        base = decide_existence(g)
        scaled = decide_existence(g, SearchConfig(unit_scaling=True))
        assert base.verdict == scaled.verdict, g
        if scaled.verdict == VERDICT_WITNESS:
            cert = scaled.certificate
            assert isinstance(verify(cert.graph, cert.orientation, cert.labeling),
                              MagicCertificate)


def test_node_budget_is_inconclusive_not_wrong():
    out = decide_existence(complete(6), SearchConfig(parity_prune=False, node_budget=500))
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.certificate is None
    assert out.stats.nodes == 501


def test_time_budget_is_inconclusive():
    out = decide_existence(prism(4), SearchConfig(parity_prune=False, time_budget=0.01))
    assert out.verdict in (VERDICT_INCONCLUSIVE, VERDICT_EXHAUSTED)
    # on any realistic machine 10ms cannot cover the million-node space
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
    job = (6, complete(6).edges, asdict(config), None, {0: 0, 1: 1})
    verdict, cert, nodes, _ = search._run_job(job)
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
# here.
_BUDGETED = SearchConfig(seed=1, node_budget=100000)


@pytest.mark.parametrize("graph, config, verdict, nodes, prunes, digest", [
    (path(12), SearchConfig(), VERDICT_EXHAUSTED, 34393, (3443, 9903, 12398), None),
    (complete(9), SearchConfig(), VERDICT_WITNESS, 37414, (16616, 0, 0), "df17a29c"),
    (complete(7), _BUDGETED, VERDICT_WITNESS, 31565, (14004, 220, 0), "60ce4f39"),
    (kmokn_graph(3, 3), _BUDGETED, VERDICT_WITNESS, 86585, (29243, 12008, 0), "d1583f27"),
    (kmokn_graph(3, 4), _BUDGETED, VERDICT_WITNESS, 14286, (4893, 1436, 73), "b56cd933"),
    (kmokn_graph(2, 6), _BUDGETED, VERDICT_WITNESS, 1405, (618, 46, 0), "e1d8ca16"),
    (kmokn_graph(5, 2), _BUDGETED, VERDICT_INCONCLUSIVE, 100001, (0, 38448, 2), None),
], ids=["P12", "K9", "K7", "K3[3]", "K3[4]", "K2[6]", "K5[2]"])
def test_same_tree(graph, config, verdict, nodes, prunes, digest):
    out = decide_existence(graph, config)
    assert out.verdict == verdict
    assert out.stats.nodes == nodes
    assert out.stats.prunes == dict(zip(("weight", "interval", "parity"), prunes))
    if digest is None:
        assert out.certificate is None
    else:
        text = certificate_to_text(out.certificate)
        assert hashlib.md5(text.encode()).hexdigest()[:8] == digest


def test_deep_graph_stops_at_the_budget():
    # K11[5] has 1,430 steps, far beyond the interpreter's recursion limit
    out = decide_existence(kmokn_graph(11, 5), SearchConfig(node_budget=20000))
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.stats.nodes == 20001
