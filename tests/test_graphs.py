import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dmagic.graphs import (
    FormatError,
    Orientation,
    UndirectedGraph,
    cartesian,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    graph_to_text,
    lexicographic,
    parse_graph,
    path,
    prism,
    regularity,
)
from oracles import ProductIndexing


def test_complete_counts():
    for n in range(1, 10):
        g = complete(n)
        assert g.vertex_count == n
        assert len(g.edges) == n * (n - 1) // 2
        assert regularity(g) == n - 1 if n > 1 else regularity(g) == 0


def test_empty_graph():
    g = empty_graph(5)
    assert g.vertex_count == 5
    assert g.edges == ()
    assert regularity(g) == 0
    assert empty_graph(0).vertex_count == 0


def test_path_and_cycle():
    assert path(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert regularity(cycle(7)) == 2
    assert regularity(path(4)) is None
    with pytest.raises(ValueError):
        cycle(2)


def test_regularity_is_the_common_degree_of_every_vertex():
    # random graphs of order 0-9, isolated vertices and edgeless graphs included
    rng = random.Random(5)
    for n in range(10):
        for density in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            for _ in range(20):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < density]
                g = UndirectedGraph(n, tuple(edges))
                degrees = {sum(v in e for e in edges) for v in range(n)}
                expected = 0 if n == 0 else degrees.pop() if len(degrees) == 1 else None
                assert regularity(g) == expected, (n, edges)
    assert regularity(UndirectedGraph(3, ((0, 1),))) is None  # vertex 2 has degree 0
    assert regularity(UndirectedGraph(4, ((0, 1), (2, 3)))) == 1


def test_complete_multipartite_counts():
    g = complete_multipartite([1, 2, 2])
    assert g.vertex_count == 5
    assert len(g.edges) == 8
    assert sorted(g.degree(v) for v in range(5)) == [3, 3, 3, 3, 4]


def test_lexicographic_blowup_equals_multipartite():
    for m in range(2, 6):
        for n in range(1, 5):
            blown = lexicographic(complete(m), empty_graph(n))
            assert blown == complete_multipartite([n] * m)


def test_lexicographic_triangle_blowup():
    g = lexicographic(complete(3), empty_graph(2))
    assert g.vertex_count == 6
    assert len(g.edges) == 12
    assert regularity(g) == 4


def test_cartesian_prism():
    g = cartesian(path(2), cycle(4))
    assert g.vertex_count == 8
    assert len(g.edges) == 12
    assert g == prism(4)


def test_prism_is_cubic():
    for n in range(3, 9):
        g = prism(n)
        assert g.vertex_count == 2 * n
        assert regularity(g) == 3


def test_from_edges_canonicalizes():
    g = UndirectedGraph.from_edges(4, [(2, 1), (3, 0), (1, 2)])
    assert g.edges == ((0, 3), (1, 2))


def test_constructor_rejects_non_canonical():
    with pytest.raises(ValueError):
        UndirectedGraph(3, ((1, 0),))
    with pytest.raises(ValueError):
        UndirectedGraph(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        UndirectedGraph(3, ((0, 3),))
    with pytest.raises(ValueError):
        UndirectedGraph(3, ((1, 2), (0, 1)))


def test_incidence():
    g = cycle(4)
    assert g.neighbors(0) == (1, 3)
    assert {e for e, _ in g.incident(0)} == {0, 1}
    assert g.degree(2) == 2


def test_orientation_from_arcs():
    g = cycle(3)
    o = Orientation.from_arcs(g, [(0, 1), (2, 0), (1, 2)])
    assert o.bits == (0, 1, 0)
    with pytest.raises(ValueError):
        Orientation.from_arcs(g, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Orientation.from_arcs(g, [(0, 1), (2, 0)])


def test_orientation_length_mismatch():
    with pytest.raises(ValueError):
        Orientation(cycle(3), (0, 1))


def test_product_indexing_bijection():
    for m, n in ((2, 2), (3, 4), (5, 1)):
        ix = ProductIndexing(m, n)
        seen = set()
        for k in range(1, m + 1):
            for i in range(1, n + 1):
                v = ix.vertex(k, i)
                assert ix.coords(v) == (k, i)
                seen.add(v)
        assert seen == set(range(m * n))


def test_graph_text_round_trip():
    for g in (complete(5), prism(4), empty_graph(3), complete_multipartite([1, 2, 2])):
        assert parse_graph(graph_to_text(g)) == g


def test_graph_text_exact_form():
    assert graph_to_text(path(3)) == "graph 3 2\ne 0 1\ne 1 2\n"


def test_parse_accepts_comments_and_blanks():
    text = "# a small path\n\ngraph 3 2\ne 0 1\n# middle\ne 1 2\n"
    assert parse_graph(text) == path(3)


@pytest.mark.parametrize("text, line", [
    ("graph 3\ne 0 1\n", 1),
    ("graph 3 1\ne 1 0\n", 2),
    ("graph 3 1\ne 0 0\n", 2),
    ("graph 3 1\ne 0 5\n", 2),
    ("graph 3 2\ne 0 1\ne 0 1\n", 3),
    ("graph 3 2\ne 1 2\ne 0 1\n", 3),
    ("graph 3 2\ne 0 1\n", 1),
    ("graph 3 1\nx 0 1\n", 2),
    ("e 0 1\n", 1),
])
def test_parse_errors_name_the_line(text, line):
    with pytest.raises(FormatError) as err:
        parse_graph(text)
    assert f"line {line}" in str(err.value)


graphs = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=12,
    ).map(lambda edges: UndirectedGraph.from_edges(n, edges)))


@settings(max_examples=60)
@given(graphs)
def test_round_trip_any_graph(g):
    assert parse_graph(graph_to_text(g)) == g


@settings(max_examples=60)
@given(graphs, st.randoms(use_true_random=False))
def test_from_arcs_binds_canonical_and_shuffled_order_alike(g, rng):
    bits = tuple(rng.randrange(2) for _ in g.edges)
    arcs = [(v, u) if b else (u, v) for (u, v), b in zip(g.edges, bits)]
    shuffled = arcs[:]
    rng.shuffle(shuffled)
    assert Orientation.from_arcs(g, arcs).bits == Orientation.from_arcs(g, shuffled).bits == bits
    assert all(type(b) is int for b in Orientation.from_arcs(g, arcs).bits)


@settings(max_examples=60)
@given(graphs)
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * len(g.edges)


def _by_definition(g, h, adjacent):
    """A product's sorted edges, from its adjacency rule on 1-based coordinates."""
    idx = ProductIndexing(g.vertex_count, h.vertex_count)
    g_adj = {frozenset((u + 1, v + 1)) for u, v in g.edges}
    h_adj = {frozenset((u + 1, v + 1)) for u, v in h.edges}
    cells = [(k, i) for k in range(1, g.vertex_count + 1) for i in range(1, h.vertex_count + 1)]
    edges = {(idx.vertex(*p), idx.vertex(*q)) for p in cells for q in cells
             if idx.vertex(*p) < idx.vertex(*q) and adjacent(g_adj, h_adj, p, q)}
    return UndirectedGraph(len(cells), tuple(sorted(edges)))


def _lexicographic_rule(g_adj, h_adj, p, q):
    return frozenset((p[0], q[0])) in g_adj or (p[0] == q[0] and frozenset((p[1], q[1])) in h_adj)


def _cartesian_rule(g_adj, h_adj, p, q):
    return ((frozenset((p[0], q[0])) in g_adj and p[1] == q[1])
            or (p[0] == q[0] and frozenset((p[1], q[1])) in h_adj))


@settings(max_examples=80)
@given(graphs, graphs)
@example(empty_graph(1), empty_graph(1))
@example(empty_graph(1), cycle(4))
@example(cycle(4), empty_graph(1))
@example(empty_graph(3), path(3))
@example(path(3), empty_graph(3))
def test_products_match_their_definitions(g, h):
    assert lexicographic(g, h) == _by_definition(g, h, _lexicographic_rule)
    assert cartesian(g, h) == _by_definition(g, h, _cartesian_rule)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=6), st.integers(3, 40))
def test_generators_match_their_definitions(sizes, n):
    # the generators build canonical edges directly; from_edges sorts the definitions
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    order = len(part)
    assert complete_multipartite(sizes) == UndirectedGraph.from_edges(
        order, [(u, v) for u in range(order) for v in range(u) if part[u] != part[v]])
    ring = [(i, (i + 1) % n) for i in range(n)]
    assert cycle(n) == UndirectedGraph.from_edges(n, ring)
    assert prism(n) == UndirectedGraph.from_edges(
        2 * n, ring + [(u + n, v + n) for u, v in ring] + [(i, i + n) for i in range(n)])


def test_products_reject_an_empty_factor():
    for product in (lexicographic, cartesian):
        with pytest.raises(ValueError):
            product(empty_graph(0), complete(2))
        with pytest.raises(ValueError):
            product(complete(2), empty_graph(0))
