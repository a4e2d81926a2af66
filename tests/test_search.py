import hashlib
import multiprocessing
import os
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
from oracles import brute_magic_label_pairs, brute_magic_search, brute_vertex_transitive, units


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
                g, config, parity, plan, perf_counter(), pair=(a, b)).verdict == VERDICT_WITNESS}
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

    # the parallel run searches exactly the kept pairs, each once, in order,
    # up to a witness; these runs end within one poll, so no helper starts
    searched, real_search = [], search._search

    def spy(graph, config, parity, plan, t0, pair=None, poll=None):
        searched.append(pair)
        return real_search(graph, config, parity, plan, t0, pair, poll)

    def refuse(*args, **kwargs):
        raise AssertionError("a run within one poll started helper processes")

    monkeypatch.setattr(search, "_search", spy)
    monkeypatch.setattr(multiprocessing, "Process", refuse)
    # only the first label's pairs on a vertex-transitive graph
    for graph, config, transitive in (
            (complete(4), SearchConfig(workers=2, parity_prune=False), True),
            (cycle(12), SearchConfig(workers=2, seed=2), True),
            (path(6), SearchConfig(workers=2, parity_prune=False), False),
            (path(7), SearchConfig(workers=2, parity_prune=False), False)):
        serial = decide_existence(graph, replace(config, workers=1))
        searched.clear()
        out = decide_existence(graph, config)
        assert out.verdict == serial.verdict
        first, second, _ = search._label_orders(graph.vertex_count, config)
        first = first[:1] if transitive else first
        kept = [(g, b) for g in first for b in second[g]]
        if out.verdict == VERDICT_WITNESS:
            assert searched == kept[:len(searched)], graph
            assert out.certificate.labeling.labels[search._visit_order(graph)[0]] \
                == searched[-1][0], graph
        else:
            assert searched == kept, graph


def test_node_budget_is_inconclusive_not_wrong():
    out = decide_existence(complete(6), SearchConfig(parity_prune=False, node_budget=500))
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.certificate is None
    assert out.stats.nodes == 501


def test_time_budget_is_inconclusive():
    out = decide_existence(complete(8), SearchConfig(parity_prune=False, time_budget=0.01))
    assert out.verdict in (VERDICT_INCONCLUSIVE, VERDICT_EXHAUSTED)
    # K8 without parity is still inconclusive after a minute and millions of
    # nodes, so 10ms cannot cover it on any realistic machine
    assert out.verdict == VERDICT_INCONCLUSIVE


def test_time_budget_bounds_the_root_parity_solve():
    # 24 disjoint paths P3 and one edge: the parity system has a kernel of
    # dimension 24 for both constants and no vector with 37 ones, so listing
    # its solutions walks 2 * 2^24 vectors, seconds past the budget
    edges = [(3 * i + j, 3 * i + j + 1) for i in range(24) for j in (0, 1)] + [(72, 73)]
    graph = UndirectedGraph.from_edges(74, edges)
    for workers in (1, 2):
        started = perf_counter()
        out = decide_existence(graph, SearchConfig(time_budget=0.2, workers=workers))
        assert perf_counter() - started < 1.0, workers
        assert (out.verdict, out.stats.nodes) == (VERDICT_INCONCLUSIVE, 0), workers


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


def _run_state(graph, config, node_budget=None, deadline=None):
    """A parallel run's shared state, as _run_parallel builds it, with the one
    pair (0, 1) left to take."""
    return (multiprocessing.Event(), multiprocessing.Value("q", 0), multiprocessing.Value("q", 0),
            node_budget, deadline, graph, config, None, search._steps(graph, config), [(0, 1)])


def _worker_search(run):
    graph, config, _, plan, _ = run[5:]
    return search._search(graph, config, None, plan, perf_counter(), None,
                          lambda: search._add_nodes(run, 1024))


def test_stopped_worker_returns_within_one_poll():
    run = _run_state(complete(6), SearchConfig(parity_prune=False))
    stop, shared_nodes, next_pair = run[:3]
    stop.set()
    out = _worker_search(run)
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.stats.nodes == 1024
    assert shared_nodes.value == 1024
    # a worker that comes for a pair after the stop takes none and visits no node
    assert search._take_pairs(run) == []
    assert (next_pair.value, shared_nodes.value) == (0, 1024)


def test_worker_past_the_shared_budget_sets_the_stop():
    run = _run_state(complete(6), SearchConfig(parity_prune=False), node_budget=1500)
    stop, shared_nodes, _ = run[:3]
    out = _worker_search(run)
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.stats.nodes == shared_nodes.value == 2048
    assert stop.is_set()
    # a worker polling past the deadline sets the stop itself, also in a helper
    run = _run_state(complete(6), SearchConfig(parity_prune=False), deadline=perf_counter())
    [(i, out)] = search._take_pairs(run)
    assert (i, out.verdict, out.stats.nodes) == (0, VERDICT_INCONCLUSIVE, 1024)
    assert run[0].is_set()


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
# here.  A row with a pair runs one parallel job's subtree serially:
# its first two labels are fixed, as _take_pairs fixes them.  K2[6]-unit-scaling
# tries first label 2 before 0, so its witness (mu = 6) starts from a nonzero
# orbit representative and second labels from the stabilizer of 2.  K6 and
# prism(4) are vertex-transitive: their proofs end with the first label's
# subtree.
_BUDGETED = SearchConfig(seed=1, node_budget=100000)
# a star with a tail, plus an isolated vertex that closes at its label step
_LEAFY = UndirectedGraph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)])
_TREES = [
    (path(12), SearchConfig(), VERDICT_EXHAUSTED, 3194, (882, 16, 46), None, None),
    (complete(9), SearchConfig(), VERDICT_WITNESS, 146, (4, 34, 0), "df17a29c", None),
    (complete(7), _BUDGETED, VERDICT_WITNESS, 35, (4, 3, 0), "1c990400", None),
    (kmokn_graph(3, 3), _BUDGETED, VERDICT_WITNESS, 39, (0, 3, 0), "66ca6218", None),
    (kmokn_graph(3, 4), _BUDGETED, VERDICT_WITNESS, 373, (1, 64, 65), "6f7a6400", None),
    (kmokn_graph(2, 6), _BUDGETED, VERDICT_WITNESS, 64, (10, 1, 0), "5249cd97", None),
    (kmokn_graph(2, 6), replace(_BUDGETED, seed=4), VERDICT_WITNESS, 74, (15, 1, 0),
     "1c4a9cbc", None),
    (kmokn_graph(5, 2), _BUDGETED, VERDICT_WITNESS, 340, (4, 66, 56), "abcbe177", None),
    (path(11), SearchConfig(), VERDICT_EXHAUSTED, 5254, (1548, 58, 0), None, None),
    (cycle(12), SearchConfig(seed=2, reduce=False), VERDICT_WITNESS, 1429,
     (383, 0, 16), "db9d9579", None),
    (cycle(12), SearchConfig(seed=2, parity_prune=False), VERDICT_WITNESS, 632,
     (164, 0, 0), "f3c5ba05", None),
    (_LEAFY, SearchConfig(), VERDICT_EXHAUSTED, 1367, (312, 190, 92), None, None),
    (kmokn_graph(5, 2), SearchConfig(seed=1), VERDICT_WITNESS, 414, (6, 82, 67),
     "66287c12", (2, 9)),
    (complete(6), SearchConfig(parity_prune=False), VERDICT_EXHAUSTED, 6859, (0, 2304, 0),
     None, None),
    (prism(4), SearchConfig(parity_prune=False), VERDICT_EXHAUSTED, 27773, (3192, 0, 0),
     None, None),
    (path(13), SearchConfig(), VERDICT_EXHAUSTED, 11064, (3384, 60, 0), None, None),
    (complete(8), SearchConfig(parity_prune=False, node_budget=100000), VERDICT_INCONCLUSIVE,
     100001, (0, 33389, 0), None, None),
    (path(8), SearchConfig(parity_prune=False, reduce=False, seed=3), VERDICT_EXHAUSTED, 15472,
     (3584, 688, 0), None, None),
]
_TREE_IDS = ["P12", "K9", "K7", "K3[3]", "K3[4]", "K2[6]", "K2[6]-unit-scaling", "K5[2]", "P11",
             "C12-free-first-arc", "C12-no-parity", "leafy", "K5[2]-pinned", "K6-no-parity",
             "prism4-no-parity", "P13", "K8-no-parity-budgeted", "P8-unreduced-no-parity"]


def _tree(graph, config, pinned):
    if pinned is None:
        return decide_existence(graph, config)
    psols = search._root_parity_candidates(graph, config)
    return search._search(graph, config, psols, search._steps(graph, config), perf_counter(),
                          pair=pinned)


@pytest.mark.parametrize("graph, config, verdict, nodes, prunes, digest, pinned", _TREES,
                         ids=_TREE_IDS)
def test_same_tree(graph, config, verdict, nodes, prunes, digest, pinned):
    out = _tree(graph, config, pinned)
    assert out.verdict == verdict
    assert out.stats.nodes == nodes
    assert out.stats.prunes == dict(zip(("weight", "interval", "parity"), prunes))
    if digest is None:
        assert out.certificate is None
    else:
        text = certificate_to_text(out.certificate)
        assert hashlib.md5(text.encode()).hexdigest()[:8] == digest


def test_turned_reach_set_is_every_signed_sum():
    # the search's reach set of a weight s with pending labels lams, against
    # the residues of s +- l1 +- ... +- lk listed one choice of signs at a time
    rng = random.Random(4)
    for n in range(1, 71):
        for _ in range(20):
            s = rng.randint(-5 * n, 5 * n)
            lams = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
            reach = 1 << s % n
            for lam in lams:
                reach = search._turn(reach, lam, n, (1 << n) - 1)
            sums = {s}
            for lam in lams:
                sums = {x + lam for x in sums} | {x - lam for x in sums}
            assert reach == sum(1 << r for r in {x % n for x in sums}), (n, s, lams)


def test_members_of_a_mask_over_places_keep_the_seeded_order():
    rng = random.Random(5)
    for _ in range(300):
        order = list(range(rng.randint(1, 70)))
        rng.shuffle(order)
        chosen = set(rng.sample(order, rng.randint(0, len(order))))
        mask = sum(1 << i for i, lam in enumerate(order) if lam in chosen)
        assert list(search._members(mask, order)) == [lam for lam in order if lam in chosen]


def test_witness_trees_never_check_transitivity(monkeypatch):
    # a vertex-transitive graph with a witness meets one under its first
    # label, so the check costs a witness search nothing
    def refuse(graph):
        raise AssertionError("a witness search asked for automorphisms")

    monkeypatch.setattr(search, "_vertex_transitive", refuse)
    for (graph, config, verdict, nodes, _, _, pinned), name in zip(_TREES, _TREE_IDS):
        if verdict == VERDICT_WITNESS:
            out = _tree(graph, config, pinned)
            assert (out.verdict, out.stats.nodes) == (verdict, nodes), name


# 3-regular on 12 vertices, with no automorphism but the identity
_FRUCHT = UndirectedGraph.from_edges(12, [
    (0, 1), (0, 2), (0, 11), (1, 3), (1, 6), (2, 5), (2, 10), (3, 4), (3, 6), (4, 8), (4, 11),
    (5, 9), (5, 10), (6, 7), (7, 8), (7, 9), (8, 9), (10, 11)])
_PETERSEN = UndirectedGraph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)] +
                                       [(i, i + 5) for i in range(5)] +
                                       [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
# 2-regular, so colour refinement alone leaves it one cell
_C3_C4 = UndirectedGraph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
_C4_C4 = UndirectedGraph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7),
                                        (4, 7)])
# not regular, with a witness outside the first label's subtree: a search that
# took it for vertex-transitive would answer "no"
_TRIANGLE_TAIL = UndirectedGraph.from_edges(5, [(0, 1), (1, 3), (2, 3), (2, 4), (3, 4)])
_TRANSITIVE = [cycle(3), cycle(5), cycle(8), complete(2), complete(4), complete(6), prism(3),
               prism(4), kmokn_graph(3, 2), kmokn_graph(2, 3), kmokn_graph(4, 2), _C4_C4]
_NOT_TRANSITIVE = [path(3), path(6), complete_multipartite([1, 2, 2]), _C3_C4, _TRIANGLE_TAIL]


def _random_regular(rng, n, r):
    """A uniform pairing of r stubs per vertex, drawn again until it is simple;
    then, half the time, its complement."""
    while True:
        stubs = [v for v in range(n) for _ in range(r)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(p)) for p in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == n * r // 2 and all(u != v for u, v in pairs):
            break
    if rng.random() < 0.5:
        pairs = {(u, v) for u in range(n) for v in range(u + 1, n)} - pairs
    return UndirectedGraph.from_edges(n, pairs)


def test_vertex_transitive_matches_brute_force():
    rng = random.Random(7)
    shapes = [(7, 2), (8, 2), (8, 3)]
    graphs = _TRANSITIVE + _NOT_TRANSITIVE + [_random_regular(rng, *rng.choice(shapes))
                                              for _ in range(20)]
    for g in graphs:
        assert search._vertex_transitive(g) == brute_vertex_transitive(g.vertex_count, g.edges), g
    assert all(search._vertex_transitive(g) for g in _TRANSITIVE)
    assert not any(search._vertex_transitive(g) for g in _NOT_TRANSITIVE)
    assert search._vertex_transitive(_PETERSEN)
    assert search._vertex_transitive(kmokn_graph(3, 4))
    assert not search._vertex_transitive(_FRUCHT)


def test_transitive_rule_keeps_every_verdict():
    # reduced serial and parallel runs stop on a vertex-transitive graph after
    # one first label; the unreduced tree is the reference.  prism(4) is left
    # out: its unreduced tree without parity has a million nodes, and
    # test_same_tree pins its reduced one.
    for g in _TRANSITIVE + _NOT_TRANSITIVE:
        if g == prism(4):
            continue
        for parity in (True, False):
            reference = decide_existence(g, SearchConfig(parity_prune=parity, reduce=False))
            for config in (SearchConfig(parity_prune=parity),
                           SearchConfig(parity_prune=parity, workers=2)):
                out = decide_existence(g, config)
                assert out.verdict == reference.verdict != VERDICT_INCONCLUSIVE, (g, config)


def test_parallel_transitive_proof_walks_the_first_label_only():
    # the serial tree counts the first label's node once, each of its k jobs
    # once more: K6 has k = 3 (6,859 serial nodes), prism(4) k = 3 (27,773)
    config = SearchConfig(workers=2, parity_prune=False)
    for graph, nodes in ((complete(6), 6861), (prism(4), 27775)):
        out = decide_existence(graph, config)
        assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, nodes), graph


def test_plan_is_built_once_per_run(monkeypatch):
    # the workers search the plan the run built, and build none of their own
    steps, here = search._steps, os.getpid()

    def steps_here_only(graph, config):
        assert os.getpid() == here, "a worker built the plan"
        return steps(graph, config)

    monkeypatch.setattr(search, "_steps", steps_here_only)
    out = decide_existence(complete(6), SearchConfig(workers=2, parity_prune=False))
    assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, 6861)


def test_parallel_job_error_is_raised_once_the_pool_drains(monkeypatch):
    # the defect strikes in a helper process only: K6 without parity passes
    # 1024 nodes, so the helper starts while this process searches on
    here, real_search = os.getpid(), search._search

    def broken_in_a_helper(*args):
        if os.getpid() != here:
            raise RuntimeError("injected defect")
        return real_search(*args)

    monkeypatch.setattr(search, "_search", broken_in_a_helper)
    started = perf_counter()
    with pytest.raises(RuntimeError, match="injected defect"):
        decide_existence(complete(6), SearchConfig(workers=2, parity_prune=False))
    assert perf_counter() - started < 5


def test_a_helper_that_dies_is_an_error_not_a_verdict(monkeypatch):
    # the pair a dead helper took is never searched, so the run may not
    # answer "no"
    here, real_search = os.getpid(), search._search

    def dies_in_a_helper(*args):
        if os.getpid() != here:
            os._exit(3)
        return real_search(*args)

    monkeypatch.setattr(search, "_search", dies_in_a_helper)
    with pytest.raises(RuntimeError, match="helper process died"):
        decide_existence(complete(6), SearchConfig(workers=2, parity_prune=False))


def test_short_parallel_witness_searches_start_no_process(monkeypatch):
    # a witness within the first 1024 nodes is the serial one, found before
    # any helper process starts
    def refuse(*args, **kwargs):
        raise AssertionError("a run within one poll started helper processes")

    monkeypatch.setattr(multiprocessing, "Process", refuse)
    for graph in (complete(9), kmokn_graph(2, 6), complete_multipartite([1, 2, 2, 2, 2])):
        serial = decide_existence(graph, SearchConfig())
        out = decide_existence(graph, SearchConfig(workers=2))
        assert out.verdict == serial.verdict == VERDICT_WITNESS, graph
        assert certificate_to_text(out.certificate) == certificate_to_text(serial.certificate)


def test_no_more_helpers_start_than_pairs_are_left(monkeypatch):
    # K6 keeps 3 pairs, and this process holds one when the helpers start
    started = []

    class Counted(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    config = SearchConfig(workers=2, parity_prune=False)
    two = decide_existence(complete(6), config)
    monkeypatch.setattr(multiprocessing, "Process", Counted)
    out = decide_existence(complete(6), replace(config, workers=8))
    assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, two.stats.nodes)
    assert 1 <= len(started) <= 2


def test_more_workers_than_cores_take_every_pair_once():
    # a lost update on the shared pair index would search a pair twice or
    # skip one; each pair's subtree counts its first label's node once more
    # than the serial tree does
    started = perf_counter()
    for graph in (path(11), path(12)):
        serial = decide_existence(graph, SearchConfig())
        first, second, _ = search._label_orders(graph.vertex_count, SearchConfig())
        extra = sum(len(second[g]) - 1 for g in first)
        for _ in range(3):
            out = decide_existence(graph, SearchConfig(workers=4))
            assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, serial.stats.nodes + extra)
    assert perf_counter() - started < 20


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_proof_under_spawn(method):
    # spawned helpers inherit nothing: they search only what their process arguments carry
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        out = decide_existence(complete(6), SearchConfig(workers=2, parity_prune=False))
    finally:
        multiprocessing.set_start_method(before, force=True)
    assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, 6861)


def test_transitivity_check_stops_at_the_deadline():
    # without a deadline, prism(1000) refines colours for hundreds of milliseconds
    started = perf_counter()
    assert not search._vertex_transitive(prism(1000), deadline=perf_counter())
    assert perf_counter() - started < 0.1


def test_a_connected_2_regular_graph_is_transitive_at_once():
    started = perf_counter()
    assert search._vertex_transitive(cycle(2000))
    assert perf_counter() - started < 0.1
    # one refinement round on cycle(200000) reads 6 * 200000 colours, past the
    # work cap, but the walk needs no round
    assert search._vertex_transitive(cycle(200000))
    # unions of cycles are answered from their lengths, without refinement
    for lengths, transitive in (([1000, 1000], True), ([1000, 1001], False)):
        edges, start = [], 0
        for k in lengths:
            edges += [(start + i, start + (i + 1) % k) for i in range(k)]
            start += k
        g = UndirectedGraph.from_edges(start, edges)
        started = perf_counter()
        assert search._vertex_transitive(g) is transitive, lengths
        assert perf_counter() - started < 0.1
    # every 2-regular graph of order at most 8, as unions of cycles, renumbered
    rng = random.Random(3)
    for lengths in ([3], [4], [5], [6], [3, 3], [7], [3, 4], [8], [4, 4], [3, 5]):
        edges, start = [], 0
        for k in lengths:
            edges += [(start + i, start + (i + 1) % k) for i in range(k)]
            start += k
        for _ in range(3):
            perm = list(range(start))
            rng.shuffle(perm)
            g = UndirectedGraph.from_edges(start, [(perm[u], perm[v]) for u, v in edges])
            assert search._vertex_transitive(g) == brute_vertex_transitive(start, g.edges), g


def test_unproven_transitivity_leaves_the_tree_alone(monkeypatch):
    # past the work cap nothing is proven, and K6 walks every first label's subtree
    monkeypatch.setattr(search, "_AUTOMORPHISM_CAP", 1)
    assert not search._vertex_transitive(complete(6))
    out = decide_existence(complete(6), SearchConfig(parity_prune=False))
    assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, 36580)


def test_transitivity_check_stops_before_a_round_past_the_cap(monkeypatch):
    # one refinement round on K6 reads 2(6 + 2 * 15) = 72 colours: with less
    # work left the check gives up before it runs the round at all
    def refuse(*args):
        raise AssertionError("a refinement round ran past the work cap")

    monkeypatch.setattr(search, "_AUTOMORPHISM_CAP", 71)
    monkeypatch.setattr(search, "Counter", refuse)
    assert not search._vertex_transitive(complete(6))


def test_transitivity_check_skips_a_graph_whose_round_passes_the_cap(monkeypatch):
    # one round on K30[30] reads 2(900 + 2 * 391500) colours, past 2^20: the
    # check gives up before it reads a single edge
    def refuse(graph):
        raise AssertionError("the check read the edges")

    monkeypatch.setattr(search, "regularity", refuse)
    assert not search._vertex_transitive(kmokn_graph(30, 30))


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
        steps, _, pin = search._steps(graph, SearchConfig())
        expected = _rescanned_checks(graph)
        assert len(steps) == len(expected)
        assert [step[1] for step in steps if step[0]] == [a for a, _ in expected if a is not None]
        assert pin == min(d for d, (_, fs) in enumerate(expected)
                          if any(not k and not pend for _, k, pend in fs))
        for d, (step, (a, fs)) in enumerate(zip(steps, expected)):
            # below the pin, a label step checks a's label against each touched
            # vertex whose only undecided edge leads to a, and opens it no more
            checked = sorted(y for y, k, pend in fs if y != a and not k and pend == [a]
                             ) if a is not None and d > pin else []
            fs = [f for f in fs if f[0] not in checked]
            # a checked vertex has every neighbour labeled and at most 3 undecided
            # edges; a closed one has none, and its pend is empty
            opens = sorted((y, pend) for y, k, pend in fs if not k and len(pend) <= 3)
            got = sorted((y, sorted(pend)) for y, pend in step[3])
            assert got == opens, (graph, d)
            assert len(step) == 5
            if step[0]:
                assert sorted(step[4]) == checked, (graph, d)


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
