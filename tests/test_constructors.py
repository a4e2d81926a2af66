import pytest

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
from dmagic.graphs import complete, regularity
from dmagic.obstructions import parity_feasibility, theorem1_check
from dmagic.search import SearchConfig, VERDICT_WITNESS, decide_existence
from dmagic.verifier import MagicCertificate, certificate_to_text, verify
from oracles import brute_weights


def recheck(cert: MagicCertificate) -> None:
    weights = brute_weights(cert.graph.vertex_count, cert.graph.edges,
                            cert.orientation.bits, cert.labeling.labels)
    assert set(weights) == {cert.mu}


def test_odd_complete_graphs():
    for n in range(1, 16, 2):
        cert = construct_complete(n)
        recheck(cert)
        half = (n - 1) // 2
        expected = (-2 * half * (half + 1) // 2) % n
        assert cert.mu == expected


def test_complete_known_constants():
    assert construct_complete(5).mu == 4
    assert construct_complete(7).mu == 2
    assert construct_complete(1).mu == 0


def test_complete_uses_identity_labels():
    cert = construct_complete(7)
    assert cert.labeling.labels == tuple(range(7))


def test_even_complete_is_rejected():
    for n in (2, 4, 6, 8):
        with pytest.raises(ValueError):
            construct_complete(n)


def test_empty():
    cert = construct_empty(4)
    assert cert.mu == 0
    assert cert.graph.edges == ()
    recheck(cert)


def test_case1_smallest():
    cert = construct_case1(2, 2)
    assert cert.labeling.labels == (2, 0, 1, 3)
    assert cert.mu == 2
    recheck(cert)


def test_case1_4_by_3():
    cert = construct_case1(4, 3)
    assert cert.mu == 6
    assert cert.labeling.labels[0] == 6
    recheck(cert)


def test_case1_grid_constant_is_half_the_order():
    for m in range(2, 9):
        for n in range(2, 9):
            if (m * n) % 4 != 0:
                continue
            cert = construct_case1(m, n)
            assert cert.mu == m * n // 2, (m, n)
            recheck(cert)


def test_case1_rejects_bad_shapes():
    with pytest.raises(ValueError):
        construct_case1(3, 3)
    with pytest.raises(ValueError):
        construct_case1(1, 4)


def test_case2_3_by_2():
    cert = construct_case2(3, 2)
    assert cert.labeling.labels == (0, 1, 2, 3, 4, 5)
    assert cert.mu == 4
    assert case2_expected_mu(3, 2) == 4
    recheck(cert)


def test_case2_5_by_2():
    cert = construct_case2(5, 2)
    assert cert.mu == 6
    assert case2_expected_mu(5, 2) == 6
    recheck(cert)


def test_case2_grid_matches_closed_form():
    for m in (3, 5, 7, 9):
        for n in (*range(1, 9), 10):
            cert = construct_case2(m, n)
            assert cert.mu == case2_expected_mu(m, n), (m, n)
            recheck(cert)


def test_case2_with_single_vertex_blocks_is_the_complete_construction():
    for m in (3, 5, 7, 9):
        assert certificate_to_text(construct_case2(m, 1)) == certificate_to_text(construct_complete(m))


def test_case2_rejects_bad_shapes():
    with pytest.raises(ValueError):
        construct_case2(4, 2)
    with pytest.raises(ValueError):
        construct_case2(3, 0)
    with pytest.raises(ValueError):
        construct_case2(1, 2)


def test_kmokn_graph_shape():
    g = kmokn_graph(4, 3)
    assert g.vertex_count == 12
    assert regularity(g) == 9
    assert kmokn_graph(1, 5).edges == ()
    assert kmokn_graph(3, 1) == complete(3)


def test_decide_magic_cells():
    d = decide_kmokn(4, 3)
    assert d.status == STATUS_MAGIC and d.method == "case1"
    assert d.certificate.mu == 6
    d = decide_kmokn(3, 2)
    assert d.status == STATUS_MAGIC and d.method == "case2"
    d = decide_kmokn(7, 1)
    assert d.status == STATUS_MAGIC and d.method == "complete"
    d = decide_kmokn(1, 4)
    assert d.status == STATUS_MAGIC and d.method == "empty"


def test_decide_not_magic_cells():
    d = decide_kmokn(6, 3)
    assert d.status == STATUS_NOT_MAGIC and d.obstruction == "theorem1"
    d = decide_kmokn(6, 1)
    assert d.status == STATUS_NOT_MAGIC and d.obstruction == "theorem1"
    d = decide_kmokn(8, 1)
    assert d.status == STATUS_NOT_MAGIC and d.obstruction == "parity"


def test_decide_odd_by_odd_cells_by_case2():
    for m, n in ((3, 3), (5, 3), (3, 5), (9, 7)):
        d = decide_kmokn(m, n)
        assert d.status == STATUS_MAGIC and d.method == "case2"
        assert d.certificate.mu == case2_expected_mu(m, n)
        recheck(d.certificate)


def test_decide_answers_every_cell():
    for m in range(1, 13):
        for n in range(1, 13):
            d = decide_kmokn(m, n)
            assert d.status in (STATUS_MAGIC, STATUS_NOT_MAGIC), (m, n)
            assert (d.certificate is None) == (d.status == STATUS_NOT_MAGIC), (m, n)


def test_k3_3_search_agrees_with_the_construction():
    assert decide_kmokn(3, 3).status == STATUS_MAGIC
    out = decide_existence(kmokn_graph(3, 3), SearchConfig(seed=1, node_budget=100_000))
    assert out.verdict == VERDICT_WITNESS
    recheck(out.certificate)


def test_even_complete_graphs_fail_the_parity_system():
    # backs the "parity" reason: in K_m every parity solution is constant
    for m in range(2, 25, 2):
        space = parity_feasibility(complete(m))
        assert space is not None and space.certifies_nonexistence, m


def test_decide_rejects_bad_input():
    with pytest.raises(ValueError):
        decide_kmokn(0, 3)
    with pytest.raises(ValueError):
        decide_kmokn(3, 0)


def test_not_magic_claims_are_backed_by_an_obstruction():
    # every analytic not-magic cell must carry a machine-checkable reason
    for m in range(1, 11):
        for n in range(1, 9):
            d = decide_kmokn(m, n)
            if d.status != STATUS_NOT_MAGIC:
                continue
            g = kmokn_graph(m, n)
            if d.obstruction == "theorem1":
                assert theorem1_check(g) is not None, (m, n)
            else:
                assert d.obstruction == "parity"
                space = parity_feasibility(g)
                assert space is not None and space.certifies_nonexistence, (m, n)


def test_every_decided_magic_cell_carries_a_recheckable_certificate():
    for m in range(1, 9):
        for n in range(1, 7):
            d = decide_kmokn(m, n)
            if d.status == STATUS_MAGIC:
                recheck(d.certificate)
                result = verify(d.certificate.graph, d.certificate.orientation,
                                d.certificate.labeling)
                assert isinstance(result, MagicCertificate)
