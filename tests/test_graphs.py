import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings, strategies as st

from dmagic.graphs import (
    FormatError,
    Orientation,
    UndirectedGraph,
    _from_runs,
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
from oracles import ProductIndexing, adjacency


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


def test_regularity_of_a_run_table_matches_its_edges():
    # products built a run at a time, heads as ranges and as tuples, against
    # the same graphs built from their edges; the edge tuple is never built
    for g in (complete_multipartite([3, 3, 3]), complete_multipartite([1, 2, 2]),
              lexicographic(cycle(5), empty_graph(3)), lexicographic(cycle(5), complete(2)),
              lexicographic(path(4), complete(2)), lexicographic(prism(3), empty_graph(2)),
              complete(1), complete(7)):
        from_edges = UndirectedGraph(g.vertex_count, _from_runs(g.vertex_count, [
            (u, heads) for u, _, heads in g._runs]).edges)
        assert regularity(g) == regularity(from_edges), g
        assert "edges" not in g.__dict__


def test_complete_multipartite_counts():
    g = complete_multipartite([1, 2, 2])
    assert g.vertex_count == 5
    assert len(g.edges) == 8
    assert sorted(map(len, adjacency(5, g.edges))) == [3, 3, 3, 3, 4]


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


def _random_runs(rng, n):
    """A few (tail, heads) runs around 0..n: tails that mostly rise, heads a
    range of any step or a list, mostly ascending above the tail and below n,
    sometimes empty, unsorted, repeated or out of range."""
    runs, u = [], rng.choice([-1, 0, 0, 0, 1])
    for _ in range(rng.randint(0, 4)):
        low, top = u + rng.choice([1, 1, 1, 2, 0, -1]), n + rng.choice([0, 0, 0, 1])
        if rng.random() < 0.5:
            step = rng.choice([1, 1, 1, 2, -1])
            stop = top if step == 1 else rng.randint(low - 3, low + 4)
            heads = range(low, stop, step)
        else:
            pool = range(low, max(low, top))
            heads = sorted(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            if heads and rng.random() < 0.2:
                heads.insert(rng.randrange(len(heads) + 1), rng.choice(heads))
            if rng.random() < 0.1:
                heads.reverse()
        runs.append((u, heads))
        u += rng.choice([-1, 0, 1, 1, 1, 2])
    return runs


def test_run_builder_raises_exactly_when_the_constructor_does():
    # the run builder checks a run at a time what the constructor checks edge
    # by edge: the same error message, or an equal graph, which holds only its
    # run table and hashes, flattens and pickles as the edge-built one does
    rng = random.Random(26)
    outcomes = {"graph": 0, "error": 0}
    for _ in range(20000):
        n = rng.choice([-1, *range(8)])
        runs = _random_runs(rng, n)
        edges = tuple((u, v) for u, heads in runs for v in heads)
        try:
            expected = UndirectedGraph(n, edges)
        except ValueError as err:
            expected = str(err)
        try:
            got = _from_runs(n, runs)
        except ValueError as err:
            got = str(err)
        assert got == expected, (n, runs)
        if not isinstance(expected, str):
            assert "edges" not in got.__dict__
            assert got._runs == expected._runs and hash(got) == hash(expected)
            for graph in (got, pickle.loads(pickle.dumps(got)), expected):
                copy = pickle.loads(pickle.dumps(graph))
                assert copy == expected and copy.__dict__.keys() == graph.__dict__.keys()
            assert got.edges == expected.edges == edges
        if isinstance(expected, str) or edges:
            outcomes["error" if isinstance(expected, str) else "graph"] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_graphs_are_immutable_in_either_form():
    for g in (complete(4), cycle(4)):  # run-built, edge-built
        for name in ("vertex_count", "edges", "_runs", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(g, name)
    assert complete(3) == UndirectedGraph(3, ((0, 1), (0, 2), (1, 2)))
    assert repr(complete(3)) == "UndirectedGraph(vertex_count=3, edges=((0, 1), (0, 2), (1, 2)))"


def test_incidence():
    g = cycle(4)
    assert adjacency(4, g.edges) == [[1, 3], [0, 2], [1, 3], [0, 2]]
    assert g._nbrs == ((1, 3), (0, 2), (1, 3), (0, 2))


def test_orientation_from_arcs():
    g = cycle(3)
    o = Orientation.from_arcs(g, [(0, 1), (2, 0), (1, 2)])
    assert o.bits == b"\0\1\0"
    with pytest.raises(ValueError):
        Orientation.from_arcs(g, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Orientation.from_arcs(g, [(0, 1), (2, 0)])


def test_orientation_length_mismatch():
    with pytest.raises(ValueError):
        Orientation(cycle(3), (0, 1))


def test_orientation_bits_are_one_bytes_object():
    # any sequence of 0s and 1s is copied into bytes once: the same bits as a
    # tuple, a list, a bytearray or bytes are the same orientation
    g = cycle(4)
    forms = [(0, 1, 1, 0), [0, 1, 1, 0], bytearray(b"\0\1\1\0"), b"\0\1\1\0"]
    orientations = [Orientation(g, bits) for bits in forms]
    assert all(type(o.bits) is bytes and o.bits == b"\0\1\1\0" for o in orientations)
    assert len(set(orientations)) == 1
    assert len({hash(o) for o in orientations}) == 1
    # the bytes given are kept as they are
    assert Orientation(g, forms[3]).bits is forms[3]
    # a bytearray changed afterwards leaves the orientation as it was
    mutable = bytearray(b"\0\1\1\0")
    o = Orientation(g, mutable)
    mutable[0] = 1
    assert o.bits == b"\0\1\1\0" and o == orientations[0]


@pytest.mark.parametrize("bits", [(0, 2, 0), (0, -1, 0), (0, 256, 0), (0, "1", 0),
                                  [1, 0, 2], b"\0\2\1", bytearray(b"\3\0\0")])
def test_orientation_bits_other_than_0_or_1_are_rejected(bits):
    with pytest.raises(ValueError, match="^orientation bits must be 0 or 1$"):
        Orientation(cycle(3), bits)


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
    assert Orientation.from_arcs(g, arcs).bits == Orientation.from_arcs(g, shuffled).bits == bytes(bits)
    assert all(type(b) is int for b in Orientation.from_arcs(g, arcs).bits)


@settings(max_examples=60)
@given(graphs)
def test_handshake(g):
    assert sum(map(len, g._nbrs)) == 2 * len(g.edges)


@settings(max_examples=60)
@given(graphs)
def test_neighbour_table_matches_the_edges(g):
    assert list(map(list, g._nbrs)) == adjacency(g.vertex_count, g.edges)


def test_neighbour_table_of_a_run_table_matches_its_edges():
    # products built a run at a time, heads as ranges and as tuples, and
    # blown-up cliques parse_graph builds from a header: the table is read
    # off the runs, the edge tuple not built
    built = [lexicographic(cycle(5), complete(3)), lexicographic(path(4), empty_graph(3)),
             complete_multipartite([1, 2, 3]), complete(7), complete(1)]
    parsed = [parse_graph(graph_to_text(complete_multipartite([b] * m)))
              for m, b in ((2, 3), (5, 4), (7, 1))]
    for g in built + parsed:
        table = list(map(list, g._nbrs))
        assert "edges" not in g.__dict__
        assert table == adjacency(g.vertex_count, g.edges), g


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
