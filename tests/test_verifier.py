import pytest
from hypothesis import given, settings, strategies as st

from dmagic.graphs import (
    FormatError,
    Orientation,
    UndirectedGraph,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
)
from dmagic.verifier import (
    Labeling,
    MagicCertificate,
    NotALabelingError,
    Violation,
    all_weights,
    bind_certificate,
    certificate_to_text,
    parse_certificate,
    verify,
)
from oracles import brute_weights, units


def oriented_triangle():
    g = cycle(3)
    # arcs 0 -> 1 -> 2 -> 0 over edges (0,1), (0,2), (1,2)
    return g, Orientation(g, (0, 1, 0))


def test_directed_triangle_is_magic():
    g, o = oriented_triangle()
    labeling = Labeling(3, (0, 1, 2))
    result = verify(g, o, labeling)
    assert isinstance(result, MagicCertificate)
    assert result.mu == 1


def four_cycle_block_certificate():
    # both blocks of two: labels (2, 0) and (1, 3), arcs into vertex 2 from
    # block one, out of vertex 3 toward block one
    g = complete_multipartite([2, 2])
    o = Orientation(g, (0, 1, 0, 1))
    labeling = Labeling(4, (2, 0, 1, 3))
    return g, o, labeling


def test_block_certificate_weights_all_two():
    g, o, labeling = four_cycle_block_certificate()
    assert all_weights(g, o, labeling) == [2, 2, 2, 2]
    result = verify(g, o, labeling)
    assert isinstance(result, MagicCertificate)
    assert result.mu == 2


def test_swapping_the_second_block_still_verifies():
    # exchanging the labels 1 and 3 inside the second block flips the sign of
    # the weights on block one, and -2 = 2 mod 4, so the result stays magic
    g, o, _ = four_cycle_block_certificate()
    result = verify(g, o, Labeling(4, (2, 0, 3, 1)))
    assert isinstance(result, MagicCertificate)
    assert result.mu == 2


def test_cross_block_swap_breaks_it():
    g, o, _ = four_cycle_block_certificate()
    result = verify(g, o, Labeling(4, (1, 0, 2, 3)))
    assert isinstance(result, Violation)
    assert result.vertex == 3
    assert result.weight == 3
    assert result.expected == 1


def test_violation_reports_lowest_vertex():
    g = cycle(4)
    o = Orientation(g, (0, 0, 0, 0))
    result = verify(g, o, Labeling(4, (0, 1, 2, 3)))
    assert isinstance(result, Violation)
    assert result.vertex == min(
        v for v, w in enumerate(all_weights(g, o, Labeling(4, (0, 1, 2, 3))))
        if w != all_weights(g, o, Labeling(4, (0, 1, 2, 3)))[0])


def test_not_a_labeling_is_raised_before_weights():
    g, o = oriented_triangle()
    with pytest.raises(NotALabelingError):
        verify(g, o, Labeling(3, (0, 1, 1)))
    with pytest.raises(NotALabelingError):
        verify(g, o, Labeling(3, (0, 1)))
    with pytest.raises(NotALabelingError):
        verify(g, o, Labeling(4, (0, 1, 2)))


def test_orientation_graph_mismatch():
    g, o = oriented_triangle()
    other = cycle(4)
    with pytest.raises(ValueError):
        verify(other, o, Labeling(4, (0, 1, 2, 3)))


def test_single_vertex_graph_is_vacuously_magic():
    g = empty_graph(1)
    result = verify(g, Orientation(g, ()), Labeling(1, (0,)))
    assert isinstance(result, MagicCertificate)
    assert result.mu == 0


def test_certificate_text_round_trip():
    g, o, labeling = four_cycle_block_certificate()
    cert = verify(g, o, labeling)
    text = certificate_to_text(cert)
    parsed = parse_certificate(text)
    orientation, relabeled, mu = bind_certificate(parsed, g)
    assert orientation == o
    assert relabeled == labeling
    assert mu == cert.mu
    result = verify(g, orientation, relabeled)
    assert isinstance(result, MagicCertificate)


def test_certificate_text_exact_form():
    g, o = oriented_triangle()
    cert = verify(g, o, Labeling(3, (0, 1, 2)))
    assert certificate_to_text(cert) == (
        "certificate 3\n"
        "# weight convention: in-neighbor labels add, out-neighbor labels subtract\n"
        "mu 1\n"
        "l 0 0\n"
        "l 1 1\n"
        "l 2 2\n"
        "a 0 1\n"
        "a 2 0\n"
        "a 1 2\n"
    )


@pytest.mark.parametrize("text, line", [
    ("certificate 3\nmu 0\nl 0 0\nl 1 1\nl 2 2\na 9 1\n", 6),
    ("certificate 3\nmu 0\nl 0 0\nl 1 7\nl 2 2\n", 4),
    ("certificate 3\nmu 0\nl 0 0\nl 0 1\nl 2 2\n", 4),
    ("certificate x\n", 1),
    ("mu 0\n", 1),
])
def test_certificate_parse_errors_name_the_line(text, line):
    with pytest.raises(FormatError) as err:
        parse_certificate(text)
    assert f"line {line}" in str(err.value)


def test_bind_rejects_mismatched_graphs():
    g, o = oriented_triangle()
    cert = verify(g, o, Labeling(3, (0, 1, 2)))
    parsed = parse_certificate(certificate_to_text(cert))
    with pytest.raises(ValueError):
        bind_certificate(parsed, complete(4))
    with pytest.raises(ValueError):
        # same order, but the arc over the chord (0, 2) has no matching edge
        bind_certificate(parsed, UndirectedGraph(3, ((0, 1), (1, 2))))


def random_oriented_labeled(draw_seed):
    import random

    rng = random.Random(draw_seed)
    n = rng.randint(2, 9)
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    g = UndirectedGraph(n, tuple(sorted(edges)))
    bits = tuple(rng.randint(0, 1) for _ in g.edges)
    labels = list(range(n))
    rng.shuffle(labels)
    return g, Orientation(g, bits), Labeling(n, tuple(labels))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_weights_match_definition(seed):
    g, o, labeling = random_oriented_labeled(seed)
    assert all_weights(g, o, labeling) == brute_weights(
        g.vertex_count, g.edges, o.bits, labeling.labels)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reversal_negates_every_weight(seed):
    g, o, labeling = random_oriented_labeled(seed)
    forward = all_weights(g, o, labeling)
    backward = all_weights(g, o.reverse(), labeling)
    n = g.vertex_count
    assert backward == [(-w) % n for w in forward]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_weight_parity_ignores_orientation_for_even_order(seed):
    # reduction mod n preserves integer parity only when n is even, which is
    # exactly the case the parity obstruction relies on
    g, o, labeling = random_oriented_labeled(seed)
    if g.vertex_count % 2 != 0:
        return
    flipped = Orientation(g, tuple(1 - b for b in o.bits))
    a = [w % 2 for w in all_weights(g, o, labeling)]
    b = [w % 2 for w in all_weights(g, flipped, labeling)]
    assert a == b
    expected = [sum(labeling.labels[y] for y in g.neighbors(x)) % 2
                for x in range(g.vertex_count)]
    assert a == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_unit_scaling_scales_weights(seed):
    g, o, labeling = random_oriented_labeled(seed)
    n = g.vertex_count
    base = all_weights(g, o, labeling)
    for u in units(n):
        scaled = all_weights(g, o, labeling.scaled(u))
        assert scaled == [(w * u) % n for w in base]
