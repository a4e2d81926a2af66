import hashlib
import multiprocessing
import os
import random
import tracemalloc
from dataclasses import replace
from itertools import groupby
from operator import itemgetter
from time import perf_counter

import pytest

from dmagic import search, symmetry
from dmagic.constructors import kmokn_graph
from dmagic.graphs import (
    UndirectedGraph,
    _from_runs,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    graph_to_text,
    lexicographic,
    parse_graph,
    path,
    prism,
)
from dmagic.obstructions import parity_feasibility, theorem1_check
from dmagic.search import (
    SearchConfig,
    VERDICT_EXHAUSTED,
    VERDICT_INCONCLUSIVE,
    VERDICT_WITNESS,
    decide_existence,
)
from dmagic.verifier import Labeling, MagicCertificate, certificate_to_text, verify
from oracles import (
    adjacency,
    brute_magic_label_pairs,
    brute_magic_search,
    brute_orbit,
    brute_vertex_transitive,
    units,
)


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
            # a reduced job bars labels by its twin nogoods from its first node
            parity, plan = search._root_parity_candidates(g, config), search._steps(g, config)
            nogoods = search._nogoods(plan[0], symmetry.twins(g)) if config.reduce else None
            got = {(a, b) for a in range(n) for b in range(n) if a != b and search._search(
                g, parity, plan, (a, b, 0, 0), nogoods).verdict == VERDICT_WITNESS}
            assert got == expected, (g, config)


def test_single_vertex():
    # one label step and no second label: the run's one job still finds the witness
    for config in (SearchConfig(), SearchConfig(workers=2), SearchConfig(reduce=False)):
        out = decide_existence(empty_graph(1), config)
        assert (out.verdict, out.stats.nodes) == (VERDICT_WITNESS, 1), config
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
            plan = search._steps(empty_graph(n), SearchConfig(seed=seed))
            kept = [job[:2] for job in search._pairs(plan)]
            if n == 1:  # no two distinct labels: the one job is the first label's
                assert kept == [(0, 0)]
                continue
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

    # serial and parallel runs search exactly the kept pairs, each once, in
    # order, up to a witness; these runs end within one poll, so no helper starts
    searched, real_search = [], search._search

    def spy(graph, parity, plan, job, *args):
        searched.append(job[:2])
        return real_search(graph, parity, plan, job, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("a run within one poll started helper processes")

    monkeypatch.setattr(search, "_search", spy)
    monkeypatch.setattr(multiprocessing, "Process", refuse)
    # only the first label's pairs on a vertex-transitive graph, and only the
    # first pair of each first label where the automorphisms that fix the first
    # vertex are transitive on the rest
    for graph, config, transitive, rest_transitive in (
            (complete(4), SearchConfig(workers=2, parity_prune=False), True, True),
            (cycle(12), SearchConfig(workers=2, seed=2), True, False),
            (path(6), SearchConfig(workers=2, parity_prune=False), False, False),
            (path(7), SearchConfig(workers=2, parity_prune=False), False, False)):
        searched.clear()
        serial = decide_existence(graph, replace(config, workers=1))
        serial_searched = searched[:]
        searched.clear()
        out = decide_existence(graph, config)
        assert (out.verdict, searched) == (serial.verdict, serial_searched), graph
        by_first = [[job[:2] for job in jobs] for _, jobs in
                    groupby(search._pairs(search._steps(graph, config)), key=itemgetter(0))]
        kept = [pair for pairs in by_first[:1 if transitive else None]
                for pair in pairs[:1 if rest_transitive else None]]
        if out.verdict == VERDICT_WITNESS:
            assert searched == kept[:len(searched)], graph
            assert out.certificate.labeling.labels[search._visit_order(graph)[0]] \
                == searched[-1][0], graph
        else:
            assert searched == kept, graph


def test_node_budget_is_inconclusive_not_wrong():
    # prism(4) without parity is exhausted in 9,683 nodes
    out = decide_existence(prism(4), SearchConfig(parity_prune=False, node_budget=500))
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.certificate is None
    assert out.stats.nodes == 501


def test_serial_node_budget_holds_across_pairs():
    # each job may visit the nodes the budget has left, so a serial run stops
    # at exactly budget + 1 nodes in whichever pair the budget runs out: in the
    # first, at a poll (1024) or not; at the start of the second, when the
    # first uses the budget up exactly; or within the second
    g, config = prism(4), SearchConfig(parity_prune=False)
    plan = search._steps(g, config)
    first_job = search._search(g, None, plan, next(search._pairs(plan)),
                               search._nogoods(plan[0], symmetry.twins(g))).stats.nodes
    assert first_job == 8349
    for budget in (1023, 1024, 5000, first_job, first_job + 1, first_job + 500):
        out = decide_existence(g, replace(config, node_budget=budget))
        assert (out.verdict, out.stats.nodes) == (VERDICT_INCONCLUSIVE, budget + 1), budget


def test_unreduced_pairs_by_arithmetic_are_the_listed_pairs():
    # every (g, b) with b != g in seeded order, nothing barred; a single
    # vertex's one job is (g, g)
    for n in (1, 2, 3, 6):
        for seed in (0, 5):
            labels = search._steps(complete(n), SearchConfig(reduce=False, seed=seed))[1]
            listed = [(g, b, 0, 0) for g in labels for b in labels if b != g] or \
                [(g, g, 0, 0) for g in labels]
            pairs = search._AllPairs(labels)
            assert [pairs[i] for i in range(len(pairs))] == listed, (n, seed)


def test_unreduced_run_holds_no_pair_list():
    # cycle(600)'s first witness comes at 1,201 nodes, past the first poll,
    # where the run once listed all N(N - 1) = 359,400 pairs, a 28 MB peak
    g = cycle(600)
    tracemalloc.start()
    try:
        out = decide_existence(g, SearchConfig(node_budget=5000, reduce=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.verdict, out.stats.nodes) == (VERDICT_WITNESS, 1201)
    assert peak < 4 << 20, peak


def test_budgeted_searches_and_parity_leave_a_run_table_unflattened():
    # the plan, the twins and the parity rows read the neighbour table, so
    # only a witness flattens a run-built graph's edge tuple: K6[4], built,
    # and K5[4], parsed from its header, need N + E = 264 and 180 nodes for one
    for make in (lambda: kmokn_graph(6, 4), lambda: parse_graph(graph_to_text(kmokn_graph(5, 4)))):
        for workers in (1, 2):  # 2 workers start no helper below 1024 nodes
            g = make()
            out = decide_existence(g, SearchConfig(node_budget=150, workers=workers))
            assert (out.verdict, out.stats.nodes) == (VERDICT_INCONCLUSIVE, 151)
            assert "_nbrs" in g.__dict__ and "edges" not in g.__dict__, (g.vertex_count, workers)
        g = make()
        parity_feasibility(g)
        assert "_nbrs" in g.__dict__ and "edges" not in g.__dict__, g.vertex_count


def test_deadline_is_checked_as_each_pair_ends():
    # each of the 56 pairs of P8's unreduced tree ends before its first poll,
    # so only the end of the first job can see that the deadline has passed.
    # C12's first pair is exhausted before its first poll, and its witness
    # lies in the second: a run that stops before it finds the orbits, which
    # cut the pairs, does not know them all and may not answer "exhausted"
    for g, config, count in ((path(8), SearchConfig(parity_prune=False, reduce=False, seed=3), 56),
                             (cycle(12), SearchConfig(parity_prune=False, seed=2), 44)):
        plan = search._steps(g, config)
        nogoods = search._nogoods(plan[0], symmetry.twins(g)) if config.reduce else None
        pairs = list(search._pairs(plan)) if config.reduce else search._AllPairs(plan[1])
        jobs = [search._search(g, None, plan, pairs[i], nogoods) for i in range(len(pairs))]
        assert len(jobs) == count and jobs[0].verdict == VERDICT_EXHAUSTED
        assert jobs[0].stats.nodes < search._POLL
        for workers in (1, 2):
            out = decide_existence(g, replace(config, time_budget=1e-6, workers=workers))
            assert (out.verdict, out.stats.nodes) == (VERDICT_INCONCLUSIVE,
                                                      jobs[0].stats.nodes), (g, workers)
    assert any(job.verdict == VERDICT_WITNESS for job in jobs)  # C12's


def test_time_budget_is_inconclusive():
    out = decide_existence(kmokn_graph(11, 5), SearchConfig(time_budget=0.01))
    # K11[5] is still undecided after 100,000 nodes, about 0.13 s, so 10ms
    # cannot cover it on any realistic machine
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
    """A parallel run's shared state, as _run builds it, with the one pair
    (0, 1) left to take."""
    plan = search._steps(graph, config)
    return [*(multiprocessing.Value("q", 0) for _ in range(3)), node_budget, deadline, graph,
            None, plan, search._nogoods(plan[0], symmetry.twins(graph)), [(0, 1, 0, 0)]]


def _worker_search(run):
    graph, _, plan, nogoods, pairs = run[5:]
    return search._search(graph, None, plan, pairs[0], nogoods,
                          lambda: search._add_nodes(run, 1024))


def test_stopped_worker_returns_within_one_poll():
    # the job of prism(4)'s pair (0, 1) without parity passes 1024 nodes
    run = _run_state(prism(4), SearchConfig(parity_prune=False))
    stop, shared_nodes, next_pair = run[:3]
    stop.value = 1
    out = _worker_search(run)
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.stats.nodes == 1024
    assert shared_nodes.value == 1024
    # a worker that comes for a pair after the stop takes none and visits no node
    assert search._take_pairs(run) == []
    assert (next_pair.value, shared_nodes.value) == (0, 1024)


def test_worker_past_the_shared_budget_sets_the_stop():
    # the job of prism(4)'s pair (0, 1) without parity passes 1,500 nodes
    run = _run_state(prism(4), SearchConfig(parity_prune=False), node_budget=1500)
    stop, shared_nodes, _ = run[:3]
    out = _worker_search(run)
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.stats.nodes == shared_nodes.value == 2048
    assert stop.value
    # a worker polling past the deadline sets the stop itself, also in a helper
    run = _run_state(prism(4), SearchConfig(parity_prune=False), deadline=perf_counter())
    [(i, out)] = search._take_pairs(run)
    assert (i, out.verdict, out.stats.nodes) == (0, VERDICT_INCONCLUSIVE, 1024)
    assert run[0].value


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
# here.  Every run walks the kept pairs of first two labels, one job each,
# and each job counts its first label's node.  A row with a pair runs one
# job's subtree alone, without nogoods.  K2[6]-unit-scaling
# tries first label 2 before 0, so its witness (mu = 6) starts from a nonzero
# orbit representative and second labels from the stabilizer of 2.  Reduced
# rows bar labels by twin nogoods from their first node, and the exhaustive
# ones by orbit nogoods once their first job ends or polls: K6, K8 and
# prism(4) are vertex-transitive, so their proofs keep the first label's pairs
# only, and on K6 and K8, all of whose vertices are twins, every label step
# ends after its first label, so they keep one pair.  K8-no-parity-budgeted
# is cut off by its budget; K8-no-parity-seeded, in another label order, is
# exhausted in as many nodes as K8 in the default order.
_BUDGETED = SearchConfig(seed=1, node_budget=100000)
# a star with a tail, plus an isolated vertex that closes at its label step
_LEAFY = UndirectedGraph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)])
_TREES = [
    (path(12), SearchConfig(), VERDICT_EXHAUSTED, 3194, (872, 8, 68), None, None),
    (complete(9), SearchConfig(), VERDICT_WITNESS, 114, (4, 18, 0), "df17a29c", None),
    (complete(7), _BUDGETED, VERDICT_WITNESS, 35, (4, 3, 0), "1c990400", None),
    (kmokn_graph(3, 3), _BUDGETED, VERDICT_WITNESS, 39, (0, 3, 0), "66ca6218", None),
    (kmokn_graph(3, 4), _BUDGETED, VERDICT_WITNESS, 373, (1, 64, 65), "6f7a6400", None),
    (kmokn_graph(2, 6), _BUDGETED, VERDICT_WITNESS, 64, (10, 1, 0), "5249cd97", None),
    (kmokn_graph(2, 6), replace(_BUDGETED, seed=4), VERDICT_WITNESS, 74, (15, 1, 0),
     "1c4a9cbc", None),
    (kmokn_graph(5, 2), _BUDGETED, VERDICT_WITNESS, 340, (4, 66, 56), "abcbe177", None),
    (path(11), SearchConfig(), VERDICT_EXHAUSTED, 5241, (1548, 54, 0), None, None),
    (cycle(12), SearchConfig(seed=2, reduce=False), VERDICT_WITNESS, 1431,
     (383, 0, 16), "db9d9579", None),
    (cycle(12), SearchConfig(seed=2, parity_prune=False), VERDICT_WITNESS, 633,
     (164, 0, 0), "f3c5ba05", None),
    (_LEAFY, SearchConfig(), VERDICT_EXHAUSTED, 681, (128, 90, 62), None, None),
    (kmokn_graph(5, 2), SearchConfig(seed=1), VERDICT_WITNESS, 414, (6, 82, 67),
     "66287c12", (2, 9)),
    (complete(6), SearchConfig(parity_prune=False), VERDICT_EXHAUSTED, 134, (0, 32, 0),
     None, None),
    (prism(4), SearchConfig(parity_prune=False), VERDICT_EXHAUSTED, 9683, (1080, 0, 0),
     None, None),
    (path(13), SearchConfig(), VERDICT_EXHAUSTED, 11051, (3384, 56, 0), None, None),
    (complete(8), SearchConfig(parity_prune=False, node_budget=50000), VERDICT_INCONCLUSIVE,
     50001, (0, 12393, 0), None, None),
    (path(8), SearchConfig(parity_prune=False, reduce=False, seed=3), VERDICT_EXHAUSTED, 15520,
     (3584, 688, 0), None, None),
    (complete(8), SearchConfig(parity_prune=False, seed=1), VERDICT_EXHAUSTED, 66086,
     (0, 16384, 0), None, None),
]
_TREE_IDS = ["P12", "K9", "K7", "K3[3]", "K3[4]", "K2[6]", "K2[6]-unit-scaling", "K5[2]", "P11",
             "C12-free-first-arc", "C12-no-parity", "leafy", "K5[2]-pinned", "K6-no-parity",
             "prism4-no-parity", "P13", "K8-no-parity-budgeted", "P8-unreduced-no-parity",
             "K8-no-parity-seeded"]


def _tree(graph, config, pinned):
    if pinned is None:
        return decide_existence(graph, config)
    psols = search._root_parity_candidates(graph, config)
    return search._search(graph, psols, search._steps(graph, config), (*pinned, 0, 0))


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
    # a run that ends within its first pair, before its first poll, refines
    # nothing: the witness rows (but C12-no-parity, whose first pair is
    # exhausted), serially and, where no helper can start, with 2 workers, and
    # K11[5] stopped by its budget.  An unreduced run refines nothing at all.
    def refuse(*args):
        raise AssertionError("a run within its first pair asked for orbits")

    monkeypatch.setattr(symmetry, "orbit", refuse)
    for (graph, config, verdict, nodes, _, _, pinned), name in zip(_TREES, _TREE_IDS):
        if verdict == VERDICT_WITNESS and name != "C12-no-parity":
            out = _tree(graph, config, pinned)
            assert (out.verdict, out.stats.nodes) == (verdict, nodes), name
            if pinned is None and nodes < search._POLL:
                out = decide_existence(graph, replace(config, workers=2))
                assert (out.verdict, out.stats.nodes) == (verdict, nodes), name
    for workers in (1, 2):
        out = decide_existence(kmokn_graph(11, 5), SearchConfig(node_budget=1000, workers=workers))
        assert (out.verdict, out.stats.nodes) == (VERDICT_INCONCLUSIVE, 1001), workers


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


def _transitive(graph, deadline=None):
    """True once symmetry.orbit proves vertex 0's orbit is V, as the orbit
    nogoods prove that the first label step ends; false means not proven."""
    orbit = symmetry.orbit(graph._nbrs, symmetry.twins(graph), 0, (), deadline)
    return len(orbit) == graph.vertex_count


def test_vertex_transitive_matches_brute_force():
    rng = random.Random(7)
    shapes = [(7, 2), (8, 2), (8, 3)]
    graphs = _TRANSITIVE + _NOT_TRANSITIVE + [_random_regular(rng, *rng.choice(shapes))
                                              for _ in range(20)]
    for g in graphs:
        assert _transitive(g) == brute_vertex_transitive(g.vertex_count, g.edges), g
    assert all(_transitive(g) for g in _TRANSITIVE)
    assert not any(_transitive(g) for g in _NOT_TRANSITIVE)
    assert _transitive(_PETERSEN)
    assert _transitive(kmokn_graph(3, 4))
    assert not _transitive(_FRUCHT)


def _twin_rich(rng, order):
    """A random graph of at most order vertices whose blocks of 1 to 3
    vertices are twins: each block an independent set or a clique, and each
    two blocks joined by every edge or none; renumbered at random."""
    blocks, n = [], 0
    while n < order and (not blocks or rng.random() < 0.7):
        size = min(rng.randint(1, 3), order - n)
        blocks.append(range(n, n + size))
        n += size
    edges = [(u, v) for i, a in enumerate(blocks) for b in blocks[i + 1:] if rng.random() < 0.5
             for u in a for v in b]
    edges += [(u, v) for a in blocks if rng.random() < 0.5 for u in a for v in a if u < v]
    new = list(range(n))
    rng.shuffle(new)
    return UndirectedGraph.from_edges(n, [(new[u], new[v]) for u, v in edges])


def _random_graph(rng, order):
    n = rng.randint(1, order)
    p = rng.choice((0.2, 0.5, 0.8))
    return UndirectedGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_orbit_matches_brute_force():
    # the orbit of a vertex under the automorphisms that fix a random set, on
    # random graphs of order at most 7, half of them rich in twins
    rng = random.Random(11)
    for i in range(150):
        g = _twin_rich(rng, 7) if i % 2 else _random_graph(rng, 7)
        n = g.vertex_count
        v = rng.randrange(n)
        fixed = rng.sample([u for u in range(n) if u != v], rng.randint(0, min(2, n - 1)))
        assert symmetry.orbit(g._nbrs, symmetry.twins(g), v, fixed) == \
            brute_orbit(n, g.edges, v, fixed), (g, v, fixed)


def test_twin_quotient_decides_transitivity():
    # twin-rich graphs of order at most 8 against brute force; a blown-up
    # clique is proven through its quotient K_m, K25[30] within 0.5 s though
    # one round on the graph itself would pass the work cap, and the cap is
    # passed on K_26 and beyond, so K26[2] and K30[30] are not proven
    rng = random.Random(12)
    graphs = [_twin_rich(rng, 8) for _ in range(40)] + [
        lexicographic(cycle(4), empty_graph(2)), lexicographic(cycle(4), complete(2)),
        complete_multipartite([2, 3]), complete_multipartite([1, 1, 2]), kmokn_graph(4, 2)]
    for g in graphs:
        assert _transitive(g) == brute_vertex_transitive(g.vertex_count, g.edges), g
    assert _transitive(lexicographic(cycle(7), complete(3)))
    assert not _transitive(lexicographic(path(4), empty_graph(3)))
    started = perf_counter()
    assert _transitive(kmokn_graph(25, 30))
    assert perf_counter() - started < 0.5
    assert not _transitive(kmokn_graph(26, 2))
    assert not _transitive(kmokn_graph(30, 30))


def test_orbit_nogoods_keep_every_verdict_and_first_witness(monkeypatch):
    # nogoods against none at all, with symmetry that proves no two vertices
    # alike: the same verdict and first witness, on a subset of the nodes, and
    # the verdict of the unreduced tree, on random graphs of order at most 7;
    # each label order meets other exhausted labels on the way to the first
    # witness
    twins, orbit = symmetry.twins, symmetry.orbit

    def no_twins(graph):
        return [(v,) for v in range(graph.vertex_count)]

    rng = random.Random(13)
    for i in range(200):
        g = _twin_rich(rng, 7) if i % 3 == 0 else _random_graph(rng, 7)
        parity = rng.random() < 0.5
        reference = decide_existence(g, SearchConfig(parity_prune=parity, reduce=False))
        for seed in (0, 1, 2):
            config = SearchConfig(parity_prune=parity, seed=seed)
            barred = decide_existence(g, config)
            monkeypatch.setattr(symmetry, "twins", no_twins)
            monkeypatch.setattr(symmetry, "orbit", lambda nbrs, twin, v, *args: {v})
            plain = decide_existence(g, config)
            monkeypatch.setattr(symmetry, "twins", twins)
            monkeypatch.setattr(symmetry, "orbit", orbit)
            assert barred.verdict == plain.verdict == reference.verdict, (g, config)
            assert barred.stats.nodes <= plain.stats.nodes, (g, config)
            if plain.certificate is not None:
                assert certificate_to_text(barred.certificate) == \
                    certificate_to_text(plain.certificate), (g, config)


def test_nogood_slot_masks_have_no_more_bits_than_slots():
    # slots are numbered as they are made, 0 and 1 for the pre-bars, then one
    # for each twin class that bars: on two disjoint cycles, with label steps
    # in index order, the first step's orbit is the first cycle, whose every
    # other vertex reads slot 0, and no mask grows with the vertex numbers
    a = 100
    two_cycles = UndirectedGraph.from_edges(
        2 * a + 1, [*cycle(a).edges, *((u + a, v + a) for u, v in cycle(a + 1).edges)])
    graphs = [two_cycles, kmokn_graph(3, 4), lexicographic(path(4), empty_graph(3)),
              lexicographic(cycle(5), complete(2))]
    for g in graphs:
        nbrs, twin = g._nbrs, symmetry.twins(g)
        in_index_order = [(True, v, v, (), ()) for v in range(g.vertex_count)]
        for steps in (in_index_order, search._steps(g, SearchConfig())[0]):
            first_two = [step[1] for step in steps if step[0]][:2]
            orbits = [symmetry.orbit(nbrs, twin, v, first_two[:i]) for i, v in enumerate(first_two)]
            reads, bars, slots = search._nogoods(steps, twin, orbits)
            assert max(reads).bit_length() <= slots, g
            assert {b for b in bars if b is not None and b >= 0} == set(range(2, slots)), g
            if g is two_cycles and steps is in_index_order:
                assert orbits[0] == set(range(a)) and sum(r & 1 for r in reads) == a - 1


def test_parallel_jobs_walk_the_serial_barred_tree():
    # 2 workers answer as the unreduced tree, and an exhausted run visits
    # exactly the nodes of the serial walk.  The random graphs are those of
    # the test above; K6, prism(4) and K8 have no solution (theorem1, then
    # parity), and their unreduced trees without parity are too large to walk
    # here.
    rng = random.Random(13)
    cases = []
    for i in range(200):
        g = _twin_rich(rng, 7) if i % 3 == 0 else _random_graph(rng, 7)
        parity = rng.random() < 0.5
        reference = decide_existence(g, SearchConfig(parity_prune=parity, reduce=False)).verdict
        cases.append((g, SearchConfig(parity_prune=parity, seed=i % 3), reference))
    for g in (complete(6), prism(4), complete(8)):
        assert theorem1_check(g) or parity_feasibility(g), g
        cases.append((g, SearchConfig(parity_prune=False, seed=1), VERDICT_EXHAUSTED))
    for g, config, reference in cases:
        out = decide_existence(g, replace(config, workers=2))
        assert out.verdict == reference, (g, config)
        if out.verdict == VERDICT_EXHAUSTED:
            assert out.stats.nodes == decide_existence(g, config).stats.nodes, (g, config)


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
    # the jobs walk the serial barred tree, split at the first label's kept
    # pairs: K6 keeps one pair, prism(4) three
    config = SearchConfig(workers=2, parity_prune=False)
    for graph, nodes in ((complete(6), 134), (prism(4), 9683)):
        out = decide_existence(graph, config)
        assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, nodes), graph


def test_plan_is_built_once_per_run(monkeypatch):
    # the workers search the plan and the nogoods the run built, and build none
    # of their own: the nogoods are built from the twins before the first pair,
    # and once more with the first two orbits, at the end of K6's one job and
    # at prism(4)'s first poll, where a helper starts
    here, built = os.getpid(), []

    def here_only(build):
        def built_here(*args):
            assert os.getpid() == here, f"a worker ran {build.__name__}"
            built.append(build.__name__)
            return build(*args)
        return built_here

    for name in ("_steps", "_nogoods"):
        monkeypatch.setattr(search, name, here_only(getattr(search, name)))
    for graph, nodes in ((complete(6), 134), (prism(4), 9683)):
        built.clear()
        out = decide_existence(graph, SearchConfig(workers=2, parity_prune=False))
        assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, nodes), graph
        assert built == ["_steps", "_nogoods", "_nogoods"], graph


def test_parallel_job_error_is_raised_once_the_pool_drains(monkeypatch):
    # the defect strikes in a helper process only: the first of prism(4)'s 3
    # jobs without parity passes 1024 nodes, so the helper starts while this
    # process searches on
    here, real_search = os.getpid(), search._search

    def broken_in_a_helper(*args):
        if os.getpid() != here:
            raise RuntimeError("injected defect")
        return real_search(*args)

    monkeypatch.setattr(search, "_search", broken_in_a_helper)
    started = perf_counter()
    with pytest.raises(RuntimeError, match="injected defect"):
        decide_existence(prism(4), SearchConfig(workers=2, parity_prune=False))
    assert perf_counter() - started < 5


def test_a_helper_that_dies_is_an_error_not_a_verdict(monkeypatch):
    # the pair a dead helper took is never searched, so the run may not
    # answer "no"; prism(4)'s first job passes 1024 nodes, so a helper starts
    here, real_search = os.getpid(), search._search

    def dies_in_a_helper(*args):
        if os.getpid() != here:
            os._exit(3)
        return real_search(*args)

    monkeypatch.setattr(search, "_search", dies_in_a_helper)
    with pytest.raises(RuntimeError, match="helper process died"):
        decide_existence(prism(4), SearchConfig(workers=2, parity_prune=False))


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
    # prism(4) keeps 3 pairs, and this process holds one when the helpers start
    started = []

    class Counted(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    config = SearchConfig(workers=2, parity_prune=False)
    two = decide_existence(prism(4), config)
    monkeypatch.setattr(multiprocessing, "Process", Counted)
    out = decide_existence(prism(4), replace(config, workers=8))
    assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, two.stats.nodes)
    assert 1 <= len(started) <= 2


def test_more_workers_than_cores_take_every_pair_once():
    # a lost update on the shared pair index would search a pair twice or
    # skip one: the run's nodes are those of every kept pair's own subtree,
    # barred by the nogoods and by what the pairs before it bar
    started = perf_counter()
    for graph in (path(11), path(12)):
        config = SearchConfig()
        parity, plan = search._root_parity_candidates(graph, config), search._steps(graph, config)
        nbrs, twin = graph._nbrs, symmetry.twins(graph)
        first_two = [plan[0][0][1], plan[0][1][1]]
        orbits = [symmetry.orbit(nbrs, twin, v, first_two[:k]) for k, v in enumerate(first_two)]
        nogoods = search._nogoods(plan[0], twin, orbits)
        expected = sum(search._search(graph, parity, plan, pair, nogoods).stats.nodes
                       for pair in search._pairs(plan, orbits))
        for _ in range(3):
            out = decide_existence(graph, SearchConfig(workers=4))
            assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, expected)
    assert perf_counter() - started < 20


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_proof_under_spawn(method):
    # spawned helpers inherit nothing: they search only what their process
    # arguments carry; K6's one job ends within a poll, prism(4)'s first starts
    # a helper
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        outs = [decide_existence(graph, SearchConfig(workers=2, parity_prune=False))
                for graph in (complete(6), prism(4))]
    finally:
        multiprocessing.set_start_method(before, force=True)
    assert [(out.verdict, out.stats.nodes) for out in outs] == [(VERDICT_EXHAUSTED, 134),
                                                                 (VERDICT_EXHAUSTED, 9683)]


def test_transitivity_check_stops_at_the_deadline():
    # without a deadline, prism(1000) refines colours for hundreds of milliseconds
    started = perf_counter()
    assert not _transitive(prism(1000), deadline=perf_counter())
    assert perf_counter() - started < 0.1


def test_a_connected_2_regular_graph_is_transitive_at_once():
    started = perf_counter()
    assert _transitive(cycle(2000))
    assert perf_counter() - started < 0.1
    # one refinement round on cycle(200000) reads 6 * 200000 colours, past the
    # work cap, but the walk needs no round
    assert _transitive(cycle(200000))
    # unions of cycles are answered from their lengths, without refinement
    for lengths, transitive in (([1000, 1000], True), ([1000, 1001], False)):
        edges, start = [], 0
        for k in lengths:
            edges += [(start + i, start + (i + 1) % k) for i in range(k)]
            start += k
        g = UndirectedGraph.from_edges(start, edges)
        started = perf_counter()
        assert _transitive(g) is transitive, lengths
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
            assert _transitive(g) == brute_vertex_transitive(start, g.edges), g


def test_unproven_transitivity_leaves_the_tree_alone(monkeypatch):
    # past the work cap nothing is proven, and K6 walks every kept pair;
    # below the second label step its twins, which need no refinement, still
    # bar labels
    monkeypatch.setattr(symmetry, "_AUTOMORPHISM_CAP", 1)
    assert not _transitive(complete(6))
    out = decide_existence(complete(6), SearchConfig(parity_prune=False))
    assert (out.verdict, out.stats.nodes) == (VERDICT_EXHAUSTED, 2144)


def test_transitivity_check_stops_before_a_round_past_the_cap(monkeypatch):
    # one refinement round on the Petersen graph, which has no twins, reads
    # 2(10 + 2 * 15) = 80 colours: with less work left the check gives up
    # before it runs the round at all
    def refuse(*args):
        raise AssertionError("a refinement round ran past the work cap")

    monkeypatch.setattr(symmetry, "_AUTOMORPHISM_CAP", 79)
    monkeypatch.setattr(symmetry, "Counter", refuse)
    assert not _transitive(_PETERSEN)


def test_transitivity_check_skips_a_graph_whose_round_passes_the_cap(monkeypatch):
    # the crown graph on 2 * 520 vertices, K(520, 520) less a perfect matching,
    # has no twins, so one round on its quotient, itself, reads 2(1040 + 2 *
    # 269,880) colours, past the cap: the check gives up before any round.  A
    # round on K25[30] would read more, but its quotient is K25.
    def refuse(*args):
        raise AssertionError("a refinement round ran past the work cap")

    crown = _from_runs(1040, [(i, tuple(520 + j for j in range(520) if j != i))
                              for i in range(520)])
    monkeypatch.setattr(symmetry, "Counter", refuse)
    assert not _transitive(crown)


def _rescanned_checks(graph):
    """Per step, the vertex it labels (None for an arc step) and (vertex,
    unlabeled neighbours, pending labeled neighbours) of every touched vertex,
    found by rescanning its incidences.  Each vertex is labeled and then its
    edges to earlier vertices are decided, but the last vertex is labeled
    right after the second-to-last."""
    order = search._visit_order(graph)
    pos = {v: i for i, v in enumerate(order)}
    adj = adjacency(graph.vertex_count, graph.edges)
    labeled, decided, out = set(), set(), []

    def facts(touched):
        return [(y, sum(z not in labeled for z in adj[y]),
                 sorted(z for z in adj[y] if z in labeled and frozenset((y, z)) not in decided))
                for y in touched]

    def label(v):
        labeled.add(v)
        out.append((v, facts([v] + [u for u in adj[v] if u in labeled])))

    for i, v in enumerate(order):
        if v not in labeled:
            label(v)
        if i == len(order) - 2:
            label(order[-1])
        for u in adj[v]:
            if pos[u] < i:
                decided.add(frozenset((u, v)))
                out.append((None, facts(sorted((u, v)))))
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
        adj = adjacency(n, graph.edges)
        visited, degree = [0] * n, list(map(len, adj))
        rest, expected = set(range(n)), []
        while rest:
            best = max(rest, key=lambda v: (visited[v], degree[v], -v))
            expected.append(best)
            rest.discard(best)
            for u in adj[best]:
                visited[u] += 1
        assert search._visit_order(graph) == expected, graph


def test_deep_graph_stops_at_the_budget():
    # K11[5] has 1,430 steps, far beyond the interpreter's recursion limit
    out = decide_existence(kmokn_graph(11, 5), SearchConfig(node_budget=20000))
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.stats.nodes == 20001
