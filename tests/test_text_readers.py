"""The bulk readers of graph and certificate text against the line readers,
and the weights summed a run at a time against the definition.

parse_graph reads graph text exactly as dmagic writes it in bulk, and hands
any other text to its line reader.  Whatever the text, the two must agree:
the same graph, or a FormatError with the same message.  read_certificate
reads a certificate against a graph in bulk, and must agree in the same way
with bind_certificate(parse_certificate(text), graph), where
parse_certificate is the certificate line reader.  Both bulk readers'
guards re-render through the writers, which are checked byte for byte
against per-line renderers written from the format's definition.
read_certificate and all_weights work a tail's run of one orientation bit
at a time when the runs are long, and a line or an arc at a time when they
are short; both sides of that rule are checked by patching _LONG_RUN.
"""

import contextlib
import pickle
import tracemalloc
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dmagic import graphs, verifier
from dmagic.cli import main
from dmagic.constructors import construct_case1, construct_case2, construct_complete, kmokn_graph
from dmagic.graphs import (FormatError, Orientation, UndirectedGraph, complete,
                           complete_multipartite, empty_graph, graph_to_text, lexicographic,
                           parse_graph)
from dmagic.verifier import (
    Labeling,
    MagicCertificate,
    all_weights,
    bind_certificate,
    certificate_to_text,
    parse_certificate,
    read_certificate,
    verify,
)
from oracles import brute_weights, certificate_text, graph_text


def graphs_on(n):
    if n == 0:
        return st.just(UndirectedGraph(0, ()))
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return st.lists(edges, max_size=12).map(lambda edges: UndirectedGraph.from_edges(n, edges))


small_graphs = st.integers(0, 8).flatmap(graphs_on)
# the blown-up cliques K_k[b], k parts of b vertices, K_k and the edgeless
# K_1[b] among them: each is the one graph its header names, so parse_graph
# builds it from the header; and complete multipartite graphs with parts of
# any sizes, which it reads word by word
blown_up_cliques = st.builds(lambda k, b: complete_multipartite([b] * k),
                             st.integers(1, 7), st.integers(1, 6))
multipartite_graphs = st.one_of(
    blown_up_cliques,
    st.lists(st.integers(1, 6), min_size=2, max_size=7).map(complete_multipartite))


def relabelled(g, new):
    return UndirectedGraph.from_edges(g.vertex_count, [(new[u], new[v]) for u, v in g.edges])


# graphs whose tails have long runs of edges: blown-up cliques and uneven
# multipartite graphs, whose heads are consecutive vertices; and products
# G[n] = lexicographic(G, empty_graph(n)) and relabelled blown-up cliques,
# whose heads mostly are not
long_run_graphs = st.one_of(
    multipartite_graphs,
    st.builds(lambda g, n: lexicographic(g, empty_graph(n)),
              small_graphs.filter(lambda g: g.vertex_count > 0), st.integers(1, 4)),
    blown_up_cliques.flatmap(
        lambda g: st.permutations(range(g.vertex_count)).map(partial(relabelled, g))))


@st.composite
def bit_patterns(draw, m):
    """m orientation bits: all 0, all 1, alternating (a run of one bit per
    arc), random, or runs of one bit of random lengths."""
    kind = draw(st.sampled_from(["zeros", "ones", "alternating", "random", "runs"]))
    if kind == "random":
        return tuple(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    if kind == "runs":
        bits, b = [], draw(st.integers(0, 1))
        while len(bits) < m:
            bits += [b] * draw(st.integers(1, m))
            b ^= 1
        return tuple(bits[:m])
    return tuple({"zeros": 0, "ones": 1, "alternating": i % 2}[kind] for i in range(m))


@st.composite
def certificates(draw):
    """A random graph, or one with long runs, and the certificate text of an
    orientation and labeling of it; the labeling need not be magic."""
    g = draw(st.one_of(small_graphs, long_run_graphs).filter(lambda g: g.vertex_count > 0))
    n = g.vertex_count
    bits = draw(bit_patterns(len(g.edges)))
    labels = tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    mu = draw(st.integers(-2 * n, 2 * n))
    return g, certificate_to_text(MagicCertificate(g, Orientation(g, bits), Labeling(n, labels), mu))


@st.composite
def misfits(draw, g):
    """g itself, or a graph a certificate of g does not fit: one edge moved,
    the order one more or one less, or no edges."""
    n, edges = g.vertex_count, g.edges
    kind = draw(st.sampled_from(["own", "moved", "order+1", "order-1", "no edges"]))
    if kind == "moved":
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        if edges and non_edges:
            i, moved = draw(st.integers(0, len(edges) - 1)), draw(st.sampled_from(non_edges))
            return UndirectedGraph.from_edges(n, edges[:i] + edges[i + 1:] + (moved,))
    if kind == "order+1":
        return UndirectedGraph(n + 1, edges)
    if kind == "order-1":
        return UndirectedGraph.from_edges(n - 1, [e for e in edges if e[1] < n - 1])
    if kind == "no edges":
        return UndirectedGraph(n, ())
    return g


@st.composite
def edited(draw, texts):
    """A dmagic text, unchanged (None) or with one edit of the kind named."""
    text = draw(texts)
    lines = text.split("\n")[:-1]
    kind = draw(st.sampled_from([None, "digit", "drop", "duplicate", "swap", "space",
                                 "comment", "blank", "crlf", "count"]))
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "digit":
        digits = [i for i, c in enumerate(text) if c.isdigit()]
        i = draw(st.sampled_from(digits))
        return kind, text[:i] + draw(st.sampled_from("0123456789")) + text[i + 1:]
    if kind == "space":
        i = draw(st.sampled_from([i for i, c in enumerate(text) if c == " "]))
        return kind, text[:i] + " " + text[i:]
    if kind == "crlf":
        return kind, text.replace("\n", "\r\n")
    if kind == "count":  # the last header field, the edge count or the order, off by one
        head, _, rest = text.partition("\n")
        *words, count = head.split(" ")
        count = str(int(count) + draw(st.sampled_from([-1, 1])))
        return kind, " ".join(words + [count]) + "\n" + rest
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind in ("comment", "blank"):
        lines.insert(at, "# an edit" if kind == "comment" else "")
    return kind, "".join(line + "\n" for line in lines)


@st.composite
def near_misses(draw, g):
    """The text of g, a complete multipartite graph with edges, with one near
    miss of the kind named: a run with one head missing, the last run cut
    short, a run with a gap that still ends at N-1, a tail written with a
    leading 0, or an extra last line; the header's edge count left as it was
    or made to fit."""
    header, *lines = graph_to_text(g).split("\n")[:-1]
    runs = {}  # each tail's line indexes
    for i, line in enumerate(lines):
        runs.setdefault(line.split()[1], []).append(i)
    kind = draw(st.sampled_from(["hole", "cut", "gap", "leading 0", "extra line"]))
    run = draw(st.sampled_from(list(runs.values())))
    if kind == "hole":
        del lines[draw(st.sampled_from(run))]
    elif kind == "cut":
        last = list(runs.values())[-1]
        del lines[draw(st.sampled_from(last[1:] or last)):]
    elif kind == "gap" and len(run) > 2:
        del lines[draw(st.sampled_from(run[1:-1]))]
    elif kind == "leading 0":
        i = draw(st.sampled_from(run))
        lines[i] = lines[i].replace(" ", " 0", 1)
    else:
        kind = "extra line"
        lines.append(draw(st.sampled_from([lines[-1], "", "# the end", f"e 0 {g.vertex_count}"])))
    if draw(st.booleans()):
        header = f"graph {g.vertex_count} {sum(line.startswith('e') for line in lines)}"
    return kind, "".join(line + "\n" for line in [header, *lines])


@st.composite
def impostors(draw, g):
    """Text that a first look at its header and first line takes for a
    blown-up clique it is not, from g = K_k[b] with edges: g's text under a
    header whose edge count names K_(N/c)[c] for another divisor c of N, or
    the text of g relabelled with vertex 0's part kept at 0..b-1, so that its
    first line is still 'e 0 b' while the other parts are mixed."""
    n, edges = g.vertex_count, g.edges
    b = edges[0][1]
    if draw(st.booleans()):
        c = draw(st.sampled_from([c for c in range(1, n + 1) if n % c == 0 and c != b]))
        return "shape", f"graph {n} {n * (n - c) // 2}\n" + graph_to_text(g).partition("\n")[2]
    relabel = [*range(b), *draw(st.permutations(range(b, n)))]
    return "relabelled", graph_to_text(
        UndirectedGraph.from_edges(n, [(relabel[u], relabel[v]) for u, v in edges]))


def outcome(read, text):
    try:
        return read(text)
    except FormatError as err:
        return f"FormatError: {err}"


@settings(max_examples=400)
@given(st.one_of(edited(small_graphs.map(graph_to_text)),
                 edited(multipartite_graphs.map(graph_to_text)),
                 multipartite_graphs.filter(lambda g: g.edges).flatmap(near_misses),
                 blown_up_cliques.filter(lambda g: g.edges).flatmap(impostors)))
def test_graph_readers_agree_on_edited_text(edit):
    kind, text = edit
    expected = outcome(graphs._parse_graph_lines, text)
    if kind is None:  # dmagic's own text: the line reader must not be needed
        with mock.patch.object(graphs, "_parse_graph_lines",
                               side_effect=AssertionError("line reader")):
            assert parse_graph(text) == expected
    else:
        assert outcome(parse_graph, text) == expected, (kind, text)


@st.composite
def oriented_graphs(draw):
    """A graph on up to 12 vertices, often with long runs of edges from one
    tail, some vertices isolated or with no higher neighbour, or no edges at
    all; and orientation bits random, all 0, all 1 or alternating, the last
    with a run of one bit per arc."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = UndirectedGraph.from_edges(n, edges)
    return Orientation(g, draw(bit_patterns(len(g.edges))))


@settings(max_examples=300)
@given(oriented_graphs(), st.data())
def test_writers_match_the_per_line_renderers(orientation, data):
    g = orientation.graph
    n = g.vertex_count
    labels = tuple(data.draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)))
    mu = data.draw(st.integers(-2 * n, 2 * n))
    # runs joined (unless the names would outnumber the edges), then every run short
    for long_run in (0, len(g.edges) + 1):
        with mock.patch.object(graphs, "_LONG_RUN", long_run):
            assert graph_to_text(g) == graph_text(n, g.edges)
            if n > 0:  # a certificate labels at least one vertex
                cert = MagicCertificate(g, orientation, Labeling(n, labels), mu)
                assert (certificate_to_text(cert)
                        == certificate_text(n, mu, labels, g.edges, orientation.bits))


def parse_then_bind(text, graph):
    return bind_certificate(parse_certificate(text), graph)


def bound(read, text, graph):
    try:
        return read(text, graph)
    except ValueError as err:  # FormatError among them
        return f"{type(err).__name__}: {err}"


# read_certificate's way round the bulk read: the line reader, then the binding
ROUND_THE_BULK_READ = ("parse_certificate", "bind_certificate")


def long_run_rules(data, edges):
    """Values to patch graphs._LONG_RUN with: 0, which takes every run a run
    at a time; one up to the tails' average run, which takes the tails' runs
    but may find the bit runs too short partway and start again an arc at a
    time; and len(edges) + 1, which takes no run."""
    tails = edges[-1][0] + 1 if edges else 1
    return 0, data.draw(st.integers(1, max(1, len(edges) // tails))), len(edges) + 1


@settings(max_examples=300)
@given(st.data())
def test_read_certificate_is_bind_of_parse_on_edited_text_and_misfit_graphs(data):
    g, text = data.draw(certificates())
    kind, text = data.draw(edited(st.just(text)))
    graph = data.draw(misfits(g))
    expected = bound(parse_then_bind, text, graph)
    for long_run in long_run_rules(data, g.edges):
        with mock.patch.object(graphs, "_LONG_RUN", long_run):
            if kind is None and graph == g:  # a certificate of this graph: the bulk read must take it
                with contextlib.ExitStack() as stack:
                    # with arcs to read, the run reader too
                    round_it = ROUND_THE_BULK_READ + (("_bulk_chunks",) if long_run == 0 and g.edges
                                                      else ())
                    for name in round_it:
                        stack.enter_context(
                            mock.patch.object(verifier, name, side_effect=AssertionError(name)))
                    assert read_certificate(text, graph) == expected
            else:
                assert bound(read_certificate, text, graph) == expected, (long_run, kind, graph, text)


@settings(max_examples=200)
@given(st.data())
def test_certificates_read_word_by_word_after_a_run_reader_bails_out(data):
    # with _LONG_RUN up to the tails' average run, the run reader may find
    # the bit runs too short after some runs; the word reader must then take
    # the certificate afresh, not the line reader, and read the same
    g = data.draw(long_run_graphs.filter(lambda g: g.edges))
    n = g.vertex_count
    bits = data.draw(bit_patterns(len(g.edges)))
    labels = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    cert = MagicCertificate(g, Orientation(g, bits), Labeling(n, labels), data.draw(st.integers(0, n - 1)))
    text = certificate_to_text(cert)
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(graphs, "_LONG_RUN", long_run_rules(data, g.edges)[1]))
        for name in ROUND_THE_BULK_READ:
            stack.enter_context(mock.patch.object(verifier, name, side_effect=AssertionError(name)))
        assert read_certificate(text, g) == (cert.orientation, cert.labeling, cert.mu)


@settings(max_examples=300)
@given(st.data())
def test_all_weights_match_the_definition_a_run_or_an_arc_at_a_time(data):
    # consecutive heads take the difference array; a graph with a tail
    # whose heads are not consecutive is summed an arc at a time
    g = data.draw(long_run_graphs.filter(lambda g: g.vertex_count > 0))
    n = g.vertex_count
    bits = data.draw(bit_patterns(len(g.edges)))
    labels = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    expected = brute_weights(n, g.edges, bits, labels)
    for long_run in long_run_rules(data, g.edges):
        with mock.patch.object(graphs, "_LONG_RUN", long_run):
            assert all_weights(g, Orientation(g, bits), Labeling(n, labels)) == expected


@settings(max_examples=200)
@given(st.data())
def test_run_built_and_edge_built_graphs_write_read_and_sum_alike(data):
    # a graph built a run at a time holds only its run table, the same graph
    # built from its edge tuple holds the tuple: at every rule both must
    # write the same bytes, read the same certificate and sum the same weights
    g = data.draw(st.one_of(long_run_graphs, blown_up_cliques).filter(lambda g: g.vertex_count > 0))
    fresh = partial(pickle.loads, pickle.dumps(g))  # a copy of g as built, its edges not flattened
    n, flat = g.vertex_count, UndirectedGraph(g.vertex_count, fresh().edges)
    bits = data.draw(bit_patterns(len(flat.edges)))
    labels = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    mu = data.draw(st.integers(-2 * n, 2 * n))
    cert = MagicCertificate(flat, Orientation(flat, bits), Labeling(n, labels), mu)
    _, text = data.draw(edited(st.just(certificate_to_text(cert))))
    for long_run in long_run_rules(data, flat.edges):
        with mock.patch.object(graphs, "_LONG_RUN", long_run):
            results = []
            for graph in (fresh(), flat):
                orientation = Orientation(graph, bits)
                results.append((
                    graph_to_text(graph),
                    certificate_to_text(MagicCertificate(graph, orientation, cert.labeling, mu)),
                    bound(read_certificate, text, graph),
                    all_weights(graph, orientation, cert.labeling)))
            assert results[0] == results[1], (long_run, text)


@pytest.mark.parametrize("cut", [
    lambda lines: lines[:-1],                    # the last arc missing
    lambda lines: lines + lines[-1:],            # the last arc twice
    lambda lines: lines[:-2] + lines[:-3:-1],    # the last two arcs swapped
])
def test_read_certificate_is_bind_of_parse_on_arcs_cut_or_added_at_the_end(cut):
    # K5's arcs cut short, one too many, or out of edge order: the first
    # still writes back from the arcs it holds, so only their count against
    # the graph's edges tells it from a certificate of K5
    cert = construct_complete(5)
    lines = certificate_to_text(cert).splitlines(keepends=True)
    text = "".join(cut(lines))
    assert bound(read_certificate, text, cert.graph) == bound(parse_then_bind, text, cert.graph)


@pytest.mark.parametrize("build", [partial(construct_case1, 8, 8), partial(construct_case2, 5, 10),
                                   partial(construct_complete, 49)],
                         ids=["K8[8]", "K5[10]", "K49"])
def test_built_certificates_are_read_and_summed_a_run_at_a_time(build):
    # each tail's bit runs average 16 arcs or more, as in every benchmark
    # certificate: a silent fall back to the word reader, or to the arc at a
    # time sum, fails here
    cert = build()
    g, bits, labels = cert.graph, cert.orientation.bits, cert.labeling.labels
    with contextlib.ExitStack() as stack:
        for name in ROUND_THE_BULK_READ + ("_bulk_chunks",):
            stack.enter_context(mock.patch.object(verifier, name, side_effect=AssertionError(name)))
        read = read_certificate(certificate_to_text(cert), g)
    assert read == (cert.orientation, cert.labeling, cert.mu)
    raw = verifier._run_weights(g, bits, labels)
    assert [x % g.vertex_count for x in raw] == [cert.mu] * g.vertex_count


@settings(max_examples=200)
@given(st.binary(max_size=40).map(lambda raw: bytes(b & 1 for b in raw)))
def test_bit_changes_count_each_place_the_bit_changes(bits):
    assert verifier._bit_changes(bits) == sum(a != b for a, b in zip(bits, bits[1:]))


def test_an_early_cluster_of_bit_changes_is_still_read_and_summed_a_run_at_a_time():
    # K5[12]: 1440 arcs on 48 tails.  The first tail's first 20 arcs change
    # bit at every arc, yet the bit runs average over 16 arcs overall, as in
    # the tampered copy of a stored certificate: the run reader and the run
    # sum judge the runs found against every arc, so neither gives up
    g = kmokn_graph(5, 12)
    n = g.vertex_count
    bits = bytearray(len(g.edges))
    bits[:20] = b"\0\1" * 10
    assert len(bits) >= 16 * (bits.count(b"\0\1") + bits.count(b"\1\0") + 48)
    labels = tuple(range(n))
    cert = MagicCertificate(g, Orientation(g, bits), Labeling(n, labels), 7)
    text = certificate_to_text(cert)
    with mock.patch.object(verifier, "_bulk_chunks", wraps=verifier._bulk_chunks) as words:
        read = read_certificate(text, g)
    assert read == bind_certificate(parse_certificate(text), g) == (cert.orientation, cert.labeling, 7)
    assert not words.called
    raw = verifier._run_weights(g, cert.orientation.bits, labels)
    assert raw is not None
    assert [x % n for x in raw] == brute_weights(n, g.edges, bits, labels)


@pytest.mark.parametrize("build", [partial(construct_case1, 8, 8), partial(construct_case2, 5, 10),
                                   partial(construct_complete, 49), partial(construct_case1, 24, 27)],
                         ids=["K8[8]", "K5[10]", "K49", "K24[27]"])
def test_built_graphs_are_written_read_and_verified_from_their_runs(build):
    # the built graph and the one parse_graph builds from the header each
    # hold only their run table, which every step below reads
    cert = build()
    graph = parse_graph(graph_to_text(cert.graph))
    orientation, labeling, mu = read_certificate(certificate_to_text(cert), graph)
    assert verify(graph, orientation, labeling).mu == mu == cert.mu
    assert "edges" not in cert.graph.__dict__ and "edges" not in graph.__dict__


def test_construct_then_verify_of_k24_27_peak_under_12_mb(tmp_path, capsys):
    # 201,204 edges: an edge tuple alone takes about 18 MB
    graph_file, cert_file = str(tmp_path / "k.graph"), str(tmp_path / "k.cert")
    for args in (["construct", "--family", "kmokn", "--m", "24", "--n", "27",
                  "--graph-out", graph_file, "--cert-out", cert_file],
                 ["verify", "--graph", graph_file, "--cert", cert_file]):
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == "magic mu=324\n"
        assert peak < 12 * 10**6, (args[0], peak)


def test_construct_output_is_read_in_bulk(tmp_path, capsys, monkeypatch):
    # a silent fall back to the line readers on dmagic's own files fails here
    graph_file, cert_file = tmp_path / "k54.graph", tmp_path / "k54.cert"
    assert main(["construct", "--family", "kmokn", "--m", "5", "--n", "4",
                 "--graph-out", str(graph_file), "--cert-out", str(cert_file)]) == 0
    # reversing t -> h moves w(t) by +2l(h) and w(h) by -2l(t): with neither
    # label 0 nor N/2 = 10 the copy is not magic, yet it still writes back exactly
    lines = cert_file.read_text().splitlines(keepends=True)
    labels = {int(f[1]): int(f[2]) for f in map(str.split, lines) if f[0] == "l"}
    i = next(i for i, line in enumerate(lines) if line.startswith("a ")
             and all(labels[int(x)] not in (0, 10) for x in line.split()[1:]))
    _, tail, head = lines[i].split()
    lines[i] = f"a {head} {tail}\n"
    tampered_file = tmp_path / "k54.tampered"
    tampered_file.write_text("".join(lines))
    k7_file = tmp_path / "k7.graph"
    assert main(["graph", "--family", "complete", "--n", "7", "-o", str(k7_file)]) == 0
    monkeypatch.setattr(graphs, "_parse_graph_lines", mock.Mock(side_effect=AssertionError("line reader")))
    with mock.patch.object(graphs, "_bulk_chunks", side_effect=AssertionError("word reader")):
        # K5[4] and K7 = K7[1] are the blown-up cliques their headers name, built from them
        assert parse_graph(graph_file.read_text()) == kmokn_graph(5, 4)
        assert parse_graph(k7_file.read_text()) == complete(7)
    for name in ROUND_THE_BULK_READ:  # dmagic verify reads a certificate in one bulk pass
        monkeypatch.setattr(verifier, name, mock.Mock(side_effect=AssertionError(name)))
    capsys.readouterr()
    assert main(["verify", "--graph", str(graph_file), "--cert", str(cert_file)]) == 0
    assert capsys.readouterr().out.strip() == "magic mu=10"
    assert main(["verify", "--graph", str(graph_file), "--cert", str(tampered_file)]) == 1
    assert capsys.readouterr().out.startswith("violation")


def traced_peak(read, text):
    tracemalloc.start()
    try:
        read(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("to_text, read, line_reader", [
    (lambda cert: graph_to_text(cert.graph), parse_graph, graphs._parse_graph_lines),
])
def test_bulk_read_peaks_no_higher_than_the_line_reader(to_text, read, line_reader):
    # K3[88]: 23,232 edges on 264 vertices, so most numerals are above the
    # small ints Python shares; reading the whole text in one split would
    # hold three strings per line at once and peak above the line reader
    text = to_text(construct_case1(3, 88))
    assert traced_peak(read, text) <= traced_peak(line_reader, text)


@pytest.mark.parametrize("text", [
    "graph 1000000 0\n",
    "graph 2000000 999999000000\ne 0 1\n",
    "graph 400 40000\ne 0 200\n",
    "graph 0 3\ne 0 1\ne 0 2\ne 1 2\n",
], ids=["no-edge", "more-edges-than-lines", "clique-larger-than-text", "no-vertex"])
def test_graph_header_alone_sizes_nothing(text):
    # a header that claims a million vertices and no edge, more edges than the
    # text has lines (K2[200] the clique it names, first line and all), or
    # edges on no vertex: no vertex name is made, no candidate clique is
    # built, and no count is divided by N = 0
    assert traced_peak(partial(outcome, parse_graph), text) < 1 << 20
    assert outcome(parse_graph, text) == outcome(graphs._parse_graph_lines, text)


def test_read_certificate_peaks_no_higher_than_parse_then_bind():
    # K3[88] again: reading only the tails builds no pair per arc
    cert = construct_case1(3, 88)
    g, text = cert.graph, certificate_to_text(cert)
    assert (traced_peak(lambda text: read_certificate(text, g), text)
            <= traced_peak(lambda text: parse_then_bind(text, g), text))
