"""Acceptance gate: one test per shipped guarantee, with explicit budgets.

Each test prints a single PASS line on success (visible with pytest -rA or -v
through the test outcome itself); a failure of any test here means the package
does not meet its contract.
"""

import random
from time import perf_counter

from dmagic.constructors import (
    STATUS_MAGIC,
    STATUS_NOT_MAGIC,
    case2_expected_mu,
    construct_case1,
    construct_case2,
    construct_complete,
    construct_empty,
    decide_kmokn,
    kmokn_graph,
)
from dmagic.graphs import complete, complete_multipartite, prism
from dmagic.obstructions import parity_feasibility, prism_nonexistence, theorem1_check
from dmagic.search import (
    SearchConfig,
    VERDICT_EXHAUSTED,
    VERDICT_WITNESS,
    decide_existence,
)
from dmagic.verifier import MagicCertificate, verify
from dmagic.zero_sum import zero_sum_partition
from oracles import brute_weights, check_zero_sum_partition, reversed_orientation, scaled, units


def recheck(cert: MagicCertificate) -> None:
    weights = brute_weights(cert.graph.vertex_count, cert.graph.edges,
                            cert.orientation.bits, cert.labeling.labels)
    assert set(weights) == {cert.mu}


def test_criterion_1_case1_grid_constants_and_speed():
    # every cell with 2 <= m, n <= 12 and 4 | mn: verified, mu = mn/2, < 1s each
    cells = 0
    for m in range(2, 13):
        for n in range(2, 13):
            if (m * n) % 4 != 0:
                continue
            started = perf_counter()
            cert = construct_case1(m, n)
            elapsed = perf_counter() - started
            assert elapsed < 1.0, (m, n, elapsed)
            assert cert.mu == m * n // 2, (m, n)
            recheck(cert)
            cells += 1
    assert cells == 66
    print("criterion 1 (case1 grid, mu = mn/2, < 1s each): PASS")


def test_criterion_2_case2_grid_constants_and_speed():
    # odd m <= 11, n in {2, 6, 10}: verified, mu matches the closed form, < 1s each
    for m in (3, 5, 7, 9, 11):
        for n in (2, 6, 10):
            started = perf_counter()
            cert = construct_case2(m, n)
            elapsed = perf_counter() - started
            assert elapsed < 1.0, (m, n, elapsed)
            expected = case2_expected_mu(m, n)
            assert expected == (-(n * n * (m * m - 1)) // 4) % (m * n)
            assert cert.mu == expected, (m, n)
            recheck(cert)
    print(
        "criterion 2 (case2 grid, mu = -(n^2 (m^2-1))/4 mod mn;"
        " the verified sign is the negative one; < 1s each): PASS"
    )


def test_criterion_3_complete_graphs_both_parities():
    for n in range(1, 16, 2):
        cert = construct_complete(n)
        recheck(cert)
    started = perf_counter()
    out = decide_existence(complete(4))
    assert out.verdict == VERDICT_EXHAUSTED
    assert perf_counter() - started < 1.0
    started = perf_counter()
    out = decide_existence(complete(6))
    assert out.verdict == VERDICT_EXHAUSTED
    assert perf_counter() - started < 600.0
    print("criterion 3 (odd completes verified; K4 < 1s and K6 < 10min exhausted): PASS")


def test_criterion_4_prisms():
    for n in (3, 5):
        cert = prism_nonexistence(n)
        assert cert is not None and cert.reason == "theorem1", n
        assert theorem1_check(prism(n)) is not None
    assert parity_feasibility(prism(4)) is not None
    started = perf_counter()
    out = decide_existence(prism(4), SearchConfig(parity_prune=False))
    elapsed = perf_counter() - started
    assert out.verdict == VERDICT_EXHAUSTED
    assert elapsed < 600.0, elapsed
    print("criterion 4 (prism 3/5 regularity, prism 4 parity and independent search < 10min): PASS")


def test_criterion_5_search_finds_witnesses():
    for sizes in ([1, 2, 2], [1, 2, 4]):
        g = complete_multipartite(sizes)
        started = perf_counter()
        out = decide_existence(g)
        elapsed = perf_counter() - started
        assert out.verdict == VERDICT_WITNESS, sizes
        assert elapsed < 300.0, (sizes, elapsed)
        cert = out.certificate
        assert isinstance(verify(cert.graph, cert.orientation, cert.labeling),
                          MagicCertificate)
        recheck(cert)
    print("criterion 5 (witnesses on two multipartite graphs, re-verified, < 5min each): PASS")


def test_criterion_6_random_partitions_never_fail():
    rng = random.Random(1776)
    produced = 0
    for _ in range(500):
        total = 2 * rng.randint(2, 100)
        sizes = []
        left = total
        while left > 0:
            if left <= 3:
                sizes.append(left)
                break
            k = rng.randint(2, min(left - 2, 9))
            if left - k == 1:
                k += 1
            sizes.append(k)
            left -= k
        partition = zero_sum_partition(total, sizes)
        assert check_zero_sum_partition(total, sizes, partition.parts) is None, (total, sizes)
        produced += 1
    assert produced == 500
    print("criterion 6 (500 random zero-sum partitions, independent checker, 0 failures): PASS")


def test_criterion_7_obstructions_never_contradict_the_search():
    contradictions = []
    for m in range(1, 9):
        for n in range(1, 9):
            if m * n > 8:
                continue
            decision = decide_kmokn(m, n)
            out = decide_existence(kmokn_graph(m, n))
            if decision.status == STATUS_MAGIC and out.verdict != VERDICT_WITNESS:
                contradictions.append((m, n, decision.status, out.verdict))
            if decision.status == STATUS_NOT_MAGIC and out.verdict != VERDICT_EXHAUSTED:
                contradictions.append((m, n, decision.status, out.verdict))
    assert contradictions == []
    print("criterion 7 (analytic decisions vs search on all cells of order <= 8, 0 contradictions): PASS")


def test_criterion_8_symmetry_reduction_is_sound():
    from dmagic.graphs import UndirectedGraph, cycle, empty_graph, path

    graphs = [cycle(3), cycle(4), cycle(5), cycle(6),
              complete(2), complete(3), complete(4), complete(5), complete(6),
              path(2), path(3), path(4), path(5), path(6),
              complete_multipartite([2, 2]), complete_multipartite([1, 2, 2]),
              complete_multipartite([2, 4]), complete_multipartite([1, 1, 2]),
              empty_graph(4), prism(3),
              UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),
              UndirectedGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])]
    for g in graphs:
        reduced = decide_existence(g)
        unreduced = decide_existence(g, SearchConfig(reduce=False))
        assert reduced.verdict == unreduced.verdict, g
    print("criterion 8 (symmetry reduction changes no verdict on graphs of order <= 12): PASS")


def test_criterion_9_certificate_invariances():
    certificates = []
    for n in (1, 3, 5, 7, 9, 11):
        certificates.append(construct_complete(n))
    for m, n in ((2, 2), (2, 4), (4, 3), (3, 4), (4, 4), (2, 8), (6, 4), (5, 4)):
        if m * n <= 24:
            certificates.append(construct_case1(m, n))
    certificates.append(construct_case2(3, 2))
    certificates.append(construct_case2(3, 6))
    certificates.append(construct_case2(5, 2))
    certificates.append(construct_empty(6))
    for g in (complete(5), complete_multipartite([1, 2, 2])):
        out = decide_existence(g)
        assert out.verdict == VERDICT_WITNESS
        certificates.append(out.certificate)
    assert all(c.labeling.modulus <= 24 for c in certificates)
    for cert in certificates:
        g, o, labeling, mu = cert.graph, cert.orientation, cert.labeling, cert.mu
        reversed_result = verify(g, reversed_orientation(o), labeling)
        assert isinstance(reversed_result, MagicCertificate)
        assert reversed_result.mu == (-mu) % labeling.modulus
        for u in units(labeling.modulus):
            scaled_result = verify(g, o, scaled(labeling, u))
            assert isinstance(scaled_result, MagicCertificate)
            assert scaled_result.mu == mu * u % labeling.modulus
    print("criterion 9 (reversal and every unit scaling preserve magicness with mapped mu): PASS")
