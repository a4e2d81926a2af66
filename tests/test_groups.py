import pytest
from hypothesis import given, strategies as st

from dmagic.groups import GroupElement, symmetric_set, to_residue
from oracles import units


def test_addition_wraps():
    assert (GroupElement(3, 10) + GroupElement(9, 10)).value == 2


def test_negation_of_self_inverse_element():
    assert (-GroupElement(5, 10)).value == 5


def test_mixed_modulus_arithmetic_is_an_error():
    with pytest.raises(ValueError):
        GroupElement(1, 4) + GroupElement(1, 6)
    with pytest.raises(ValueError):
        GroupElement(1, 4) - GroupElement(1, 6)


def test_value_is_normalized():
    assert GroupElement(-1, 5).value == 4
    assert GroupElement(12, 5).value == 2


def test_invalid_modulus_rejected():
    with pytest.raises(ValueError):
        GroupElement(0, 0)
    with pytest.raises(ValueError):
        GroupElement(0, -3)


def test_scale():
    assert GroupElement(3, 10).scale(7).value == 1


def _symmetric(r, n):
    """The representative of residue r in [-n/2, n/2], from the definition."""
    return r if 2 * r <= n else r - n


def test_symmetric_representative_examples():
    assert to_residue(3, 10) == 3
    assert to_residue(5, 10) == 5
    assert to_residue(-4, 10) == 6
    assert to_residue(-1, 10) == 9
    with pytest.raises(ValueError):
        to_residue(1, 0)


def test_residue_round_trip_exhaustive():
    for n in range(1, 200):
        for r in range(n):
            x = _symmetric(r, n)
            assert -(n // 2) <= x <= n // 2
            assert to_residue(x, n) == r


def test_symmetric_set_small():
    assert symmetric_set(4) == [-2, -1, 1, 2]
    assert symmetric_set(6) == [-3, -2, -1, 1, 2, 3]
    with pytest.raises(ValueError):
        symmetric_set(5)
    with pytest.raises(ValueError):
        symmetric_set(0)


def test_symmetric_set_is_antipodally_closed():
    for n in (4, 8, 12, 20):
        values = symmetric_set(n)
        assert len(values) == n
        assert sum(values) == 0
        assert set(values) == {-x for x in values}
        # as residues mod n + 2 the set covers everything except 0 and (n + 2) / 2
        covered = {to_residue(x, n + 2) for x in values}
        assert covered == set(range(n + 2)) - {0, (n + 2) // 2}


def test_units_small():
    assert units(12) == [1, 5, 7, 11]
    assert units(6) == [1, 5]
    assert units(1) == [0]
    assert units(7) == [1, 2, 3, 4, 5, 6]


elements = st.integers(min_value=2, max_value=64).flatmap(
    lambda n: st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1)).map(
        lambda t: (GroupElement(t[0], n), GroupElement(t[1], n), GroupElement(t[2], n))))


@given(elements)
def test_group_laws(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    zero = GroupElement(0, a.modulus)
    assert a + zero == a
    assert a + (-a) == zero
    assert a - b == a + (-b)


@given(st.integers(min_value=1, max_value=500), st.data())
def test_residue_round_trip_property(n, data):
    r = data.draw(st.integers(0, n - 1))
    assert to_residue(_symmetric(r, n), n) == r
