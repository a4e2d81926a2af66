import random

from dmagic import gf2


def _solutions(rows, rhs, n_cols):
    """Every x in GF(2)^n_cols with A x = b, by trying them all."""
    return {x for x in range(1 << n_cols)
            if all(bin(row & x).count("1") % 2 == b for row, b in zip(rows, rhs))}


def test_solve_affine_matches_brute_force():
    rng = random.Random(11)
    for _ in range(600):
        n_cols = rng.randrange(0, 11)
        density = rng.random()
        rows = [sum(1 << c for c in range(n_cols) if rng.random() < density)
                for _ in range(rng.randrange(0, 14))]
        if rng.random() < 0.5:  # half consistent by construction
            x = rng.getrandbits(n_cols) if n_cols else 0
            rhs = [bin(row & x).count("1") % 2 for row in rows]
        else:
            rhs = [rng.randrange(2) for _ in rows]
        expected = _solutions(rows, rhs, n_cols)
        solved = gf2.solve_affine(rows, rhs, n_cols)
        if not expected:
            assert solved is None, (rows, rhs)
            continue
        assert solved is not None, (rows, rhs)
        particular, basis = solved
        span = set(gf2.span_iter(particular, basis))
        assert span == expected and len(span) == 1 << len(basis), (rows, rhs)
