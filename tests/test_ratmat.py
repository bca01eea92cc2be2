"""Exact matrix arithmetic."""

import ast
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import carrieslab
from carrieslab import RationalMatrix
from carrieslab.ratmat import solve_linear


def _random_matrix(rng, dim, span=9):
    return RationalMatrix(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(dim)]
            for _ in range(dim)
        ]
    )


def test_constructor_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix([])


def test_identity_and_diagonal():
    i3 = RationalMatrix.identity(3)
    d = RationalMatrix([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 4)]])
    assert i3 @ d == d == d @ i3
    assert d[1][1] == Fraction(1, 2) and d[0][1] == 0


def test_power_matches_repeated_product():
    rng = Random(5)
    m = _random_matrix(rng, 3)
    by_hand = RationalMatrix.identity(3)
    for k in range(6):
        assert m.power(k) == by_hand
        by_hand = by_hand @ m
    with pytest.raises(ValueError):
        m.power(-1)


def test_power_multiplies_only_what_its_bits_need(monkeypatch):
    # k needs bit_length(k) - 1 squarings and popcount(k) - 1 products.
    calls = []
    matmul = RationalMatrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    m = RationalMatrix([[1, 2], [3, Fraction(1, 2)]])
    expected = [RationalMatrix.identity(2)]
    for _ in range(22):
        expected.append(expected[-1] @ m)
    monkeypatch.setattr(RationalMatrix, "__matmul__", counted)
    for k, want in {0: 0, 1: 0, 2: 1, 3: 2, 16: 4, 21: 6, 22: 6}.items():
        calls.clear()
        assert m.power(k) == expected[k]
        assert len(calls) == want, k


def test_inverse_round_trip_and_singular():
    rng = Random(7)
    for dim in (1, 2, 3, 4):
        while True:  # singular draws are rare but possible
            m = _random_matrix(rng, dim)
            try:
                inv = m.inverse()
                break
            except ValueError:
                continue
        assert m @ inv == RationalMatrix.identity(dim)
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [2, 4]]).inverse()


def test_solve_linear_agrees_with_inverse():
    m = RationalMatrix([[2, 1], [1, 3]])
    rhs = (Fraction(1), Fraction(0))
    x = solve_linear(m, rhs)
    assert tuple(sum(m[i][j] * x[j] for j in range(2)) for i in range(2)) == rhs


def test_transpose_scale_row_col_mul():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert m.transpose() == RationalMatrix([[1, 3], [2, 4]])
    assert m.scale(Fraction(1, 2)) == RationalMatrix(
        [[Fraction(1, 2), 1], [Fraction(3, 2), 2]]
    )
    assert m.row_mul([1, 2]) == (7, 10)  # row vector times matrix
    assert m.col_mul([1, 0]) == (1, 3)  # matrix times column vector


def test_stochastic_and_primitive_predicates():
    half = Fraction(1, 2)
    m = RationalMatrix([[half, half], [1, 0]])
    assert m.is_stochastic() and m.is_primitive()  # not positive, but m^2 is
    assert RationalMatrix([[half, half], [half, half]]).is_primitive()
    assert not RationalMatrix([[half, 1]] * 2).is_stochastic()


def _positive(m):
    return all(x > 0 for row in m.rows for x in row)


def test_is_primitive_named_cases():
    half = Fraction(1, 2)
    assert not RationalMatrix([[0, 1], [1, 0]]).is_primitive()  # a 2-cycle: period 2
    assert not RationalMatrix([[half, half], [0, 1]]).is_primitive()  # reducible, triangular
    assert RationalMatrix([[1]]).is_primitive() and not RationalMatrix([[0]]).is_primitive()
    # Wielandt's extremal matrix at d = 4: the cycle 0 -> 1 -> 2 -> 3 -> 0 plus 3 -> 1.
    # Its first positive power is (d-1)^2 + 1 = 10, so the bound cannot be lowered.
    wielandt = RationalMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [half, half, 0, 0]])
    assert wielandt.is_primitive()
    assert not _positive(wielandt.power(9)) and _positive(wielandt.power(10))


def test_integer_rows_are_canonical_however_they_are_scaled():
    # One stored form: d > 0 and gcd(d, *numerators) = 1, whatever scaling the rows came in.
    by_fractions = RationalMatrix([[Fraction(1, 2), Fraction(-3, 4), 0], [0, 0, 0],
                                   [Fraction(-2, 3), 5, Fraction(1, 6)]])
    scalings = (
        [([2, -3, 0], 4), ([0, 0, 0], 7), ([4, -30, -1], -6)],
        [([6, -9, 0], 12), ([0, 0, 0], -1), ([-8, 60, 2], 12)],
        [([-2, 3, 0], -4), ([0, 0, 0], 1), ([-4, 30, 1], 6)],
    )
    for rows in scalings:
        scaled = RationalMatrix.from_integer_rows(rows)
        assert scaled == by_fractions and hash(scaled) == hash(by_fractions)
        assert scaled.rows == by_fractions.rows
        assert scaled.integer_rows == (((2, -3, 0), 4), ((0, 0, 0), 1), ((-4, 30, 1), 6))
    assert all(type(x) is Fraction for row in by_fractions.rows for x in row)
    with pytest.raises(ValueError):
        RationalMatrix.from_integer_rows([([1], 0)])


def _fraction_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def test_operations_match_a_plain_fraction_fold():
    rng = Random(11)
    for dim in (1, 2, 3, 4, 5):
        for _ in range(4):
            m, other = _random_matrix(rng, dim), _random_matrix(rng, dim)
            a, b = [list(row) for row in m.rows], [list(row) for row in other.rows]
            assert (m @ other).rows == tuple(map(tuple, _fraction_product(a, b)))
            folded = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
            for k in range(5):
                assert m.power(k).rows == tuple(map(tuple, folded))
                folded = _fraction_product(folded, a)
            assert m.transpose().rows == tuple(zip(*a))
            factor = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert m.scale(factor).rows == tuple(tuple(factor * x for x in row) for row in a)
            rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)]
            try:
                x = solve_linear(m, rhs)
            except ValueError:
                continue
            assert [row[0] for row in _fraction_product(a, [[v] for v in x])] == rhs


def test_no_module_reaches_into_ratmat_privates():
    # The integer-row format lives in ratmat, and the stationary law's proof in spectral: no
    # other module imports a private name of either.
    for owner in ("ratmat", "spectral"):
        for path in Path(carrieslab.__file__).parent.glob("*.py"):
            if path.name == f"{owner}.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(owner):
                    assert not [a.name for a in node.names if a.name.startswith("_")], path.name
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    assert not (node.value.id == owner and node.attr.startswith("_")), path.name
