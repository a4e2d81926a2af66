from time import perf_counter

import pytest

from dmagic import gf2
from dmagic.constructors import kmokn_graph
from dmagic.graphs import (
    UndirectedGraph,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    graph_to_text,
    parse_graph,
    path,
    prism,
)
from dmagic.obstructions import (
    NonexistenceCertificate,
    parity_feasibility,
    parity_solutions,
    prism_nonexistence,
    theorem1_check,
)
from oracles import adjacency, brute_parity_feasible, brute_parity_feasible_numpy


def test_theorem1_applies_to_odd_regular_orders_2_mod_4():
    cert = theorem1_check(prism(3))
    assert cert is not None
    assert cert.reason == "theorem1"
    assert cert.details == {"r": 3, "order": 6}
    cert = theorem1_check(complete(6))
    assert cert is not None and cert.details["r"] == 5
    assert theorem1_check(complete_multipartite([3, 3])) is not None


def test_theorem1_counts_degrees_without_incidence_lists():
    g = kmokn_graph(14, 15)
    assert theorem1_check(g).details == {"r": 195, "order": 210}
    assert "_nbrs" not in g.__dict__


def test_theorem1_reads_a_parsed_blown_up_clique_without_its_edges():
    # parse_graph builds K14[15] from its header as a run table, and the
    # degrees are counted from that table
    g = parse_graph(graph_to_text(kmokn_graph(14, 15)))
    assert theorem1_check(g).details == {"r": 195, "order": 210}
    assert "edges" not in g.__dict__


def test_theorem1_does_not_apply_elsewhere():
    assert theorem1_check(prism(4)) is None          # order 0 mod 4
    assert theorem1_check(cycle(6)) is None          # even degree
    assert theorem1_check(complete(7)) is None       # odd order
    assert theorem1_check(path(6)) is None           # not regular


def test_theorem1_on_k2():
    cert = theorem1_check(complete(2))
    assert cert is not None
    assert cert.details == {"r": 1, "order": 2}


def test_parity_prism_4_infeasible_both_constants():
    assert parity_solutions(prism(4)) == {0: [], 1: []}
    cert = parity_feasibility(prism(4))
    assert cert is not None
    assert cert.reason == "parity-infeasible"
    assert cert.details == {}


def test_parity_four_cycle_feasible():
    assert parity_solutions(cycle(4))[0]
    assert parity_feasibility(cycle(4)) is None


def test_parity_even_complete_infeasible():
    for n in (2, 4, 6, 8, 10, 12):
        cert = parity_feasibility(complete(n))
        assert cert is not None and cert.reason == "parity-infeasible", n


def test_parity_odd_order_is_out_of_scope():
    assert parity_feasibility(complete(5)) is None
    assert parity_solutions(complete(5)) is None


def test_parity_solutions_listing():
    sols = parity_solutions(cycle(4))
    assert {c: len(v) for c, v in sols.items()} == {0: 2, 1: 4}
    for c, vectors in sols.items():
        for p in vectors:
            assert bin(p).count("1") == 2
    sols = parity_solutions(prism(4))
    assert sols == {0: [], 1: []}


def test_parity_solutions_caps_return_none():
    # 26 isolated vertices: kernel dimension 26 exceeds the default cap
    assert parity_solutions(empty_graph(26)) is None
    assert parity_solutions(cycle(4), max_solutions=0) is None


def test_parity_solutions_stop_at_a_passed_deadline():
    with pytest.raises(TimeoutError):
        parity_solutions(prism(4), deadline=perf_counter() - 1)
    # no deadline, no limit on the time spent
    assert parity_solutions(prism(4), deadline=None) == {0: [], 1: []}


def test_parity_feasibility_kernel_cap_gives_inconclusive_not_certificate():
    # 26 isolated vertices: kernel dimension 26 exceeds the default cap
    assert parity_feasibility(empty_graph(26)) is None


SMALL_GRAPHS = [
    cycle(4), cycle(6), cycle(8),
    complete(2), complete(4), complete(6),
    prism(3), prism(4), prism(5), prism(6), prism(7), prism(8),
    complete_multipartite([3, 3]), complete_multipartite([2, 2, 2]),
    complete_multipartite([1, 2, 3]), complete_multipartite([2, 4]),
    path(6), path(8), empty_graph(6),
    UndirectedGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]),
]


def test_parity_feasibility_matches_brute_force():
    # a constant c is feasible exactly when its solution list is not empty
    for g in SMALL_GRAPHS:
        sols = parity_solutions(g)
        assert sols is not None
        expected = [brute_parity_feasible(g.vertex_count, g.edges, c) for c in (0, 1)]
        for c in (0, 1):
            assert bool(sols[c]) == expected[c], (g, c)
        assert (parity_feasibility(g) is not None) == (expected == [False, False]), g


def test_parity_feasibility_matches_brute_force_large_prisms():
    for n in (9, 10):
        g = prism(n)
        sols = parity_solutions(g)
        expected = [brute_parity_feasible_numpy(g.vertex_count, g.edges, c) for c in (0, 1)]
        for c in (0, 1):
            assert bool(sols[c]) == expected[c], (n, c)
        assert (parity_feasibility(g) is not None) == (expected == [False, False]), n


def test_parity_feasibility_certifies_exactly_when_no_vector_is_listed():
    odd_order = [complete(5), cycle(7), path(9), empty_graph(3), complete_multipartite([1, 2, 2])]
    for g in SMALL_GRAPHS + [empty_graph(26)] + odd_order:
        assert (parity_feasibility(g) is not None) == (parity_solutions(g) == {0: [], 1: []}), g


def test_parity_solutions_lists_match_brute_force():
    from itertools import combinations

    for g in SMALL_GRAPHS:
        n = g.vertex_count
        sols = parity_solutions(g)
        if sols is None:
            continue
        neighbors = adjacency(n, g.edges)
        for c in (0, 1):
            expected = set()
            for ones in combinations(range(n), n // 2):
                chosen = set(ones)
                if all(sum(1 for y in neighbors[x] if y in chosen) % 2 == c for x in range(n)):
                    expected.add(sum(1 << i for i in ones))
            assert set(sols[c]) == expected, (g, c)


def test_prism_solutions_have_period_three_in_zigzag_order():
    # relabel each rung so consecutive zigzag vertices alternate rails; in that
    # order each vertex sees positions i-1, i, i+1 of the opposite sequence, so
    # any solution of the unrestricted system repeats with period 3
    for n in (4, 6, 8, 10):
        g = prism(n)
        rows = [sum(1 << y for y in nb) for nb in adjacency(2 * n, g.edges)]
        u_seq = [j if j % 2 == 0 else n + j for j in range(n)]
        w_seq = [n + j if j % 2 == 0 else j for j in range(n)]
        for c in (0, 1):
            solved = gf2.solve_affine(rows, [c] * (2 * n), 2 * n)
            assert solved is not None and len(solved[1]) == (4 if n % 3 == 0 else 0)
            for p in gf2.span_iter(*solved):
                for seq in (u_seq, w_seq):
                    for i in range(n):
                        a = (p >> seq[i]) & 1
                        b = (p >> seq[(i + 3) % n]) & 1
                        assert a == b, (n, p, i)


def test_prism_nonexistence_odd_uses_regularity():
    for n in (3, 5, 7, 9):
        cert = prism_nonexistence(n)
        assert isinstance(cert, NonexistenceCertificate)
        assert cert.reason == "theorem1"


def test_prism_nonexistence_even_uses_parity():
    # the docstring proves every even n; check n = 4..60
    for n in range(4, 61, 2):
        cert = prism_nonexistence(n)
        assert isinstance(cert, NonexistenceCertificate)
        assert cert.reason == "parity-infeasible"


def test_prism_nonexistence_rejects_degenerate_cycles():
    with pytest.raises(ValueError):
        prism_nonexistence(2)
