"""Dense square matrices of exact rationals.

Just enough linear algebra for the spectral analysis: multiplication,
integer powers, inversion and exact linear solves.  Products run on
integer rows: each row of the left factor and each column of the right
factor is scaled to integers over one denominator, the lcm of its entries'
denominators, so every entry is one integer dot product and one
``Fraction``.  A solve runs fraction-free Bareiss elimination on rows
scaled the same way, ``Fraction``s appearing only in back-substitution; an
inverse solves the identity's columns one at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence


class RationalMatrix:
    """Immutable square matrix with Fraction entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        frozen = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not frozen:
            raise ValueError("matrix must have at least one row")
        dim = len(frozen)
        if any(len(row) != dim for row in frozen):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> tuple[Fraction, ...]:
        return self.rows[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix({self.dim}x{self.dim}: {body})"

    @classmethod
    def identity(cls, dim: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return RationalMatrix(_dot_products(self.rows, zip(*other.rows)))

    def power(self, k: int) -> "RationalMatrix":
        if k < 0:
            raise ValueError("negative powers are not supported; invert first")
        if k == 0:
            return RationalMatrix.identity(self.dim)
        # No identity start and no square past the top bit: k costs
        # bit_length(k) - 1 squarings and popcount(k) - 1 products.
        base, result = self, None
        while True:
            if k & 1:
                result = base if result is None else result @ base
            k >>= 1
            if not k:
                return result
            base = base @ base

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self.rows))

    def scale(self, factor: Fraction | int) -> "RationalMatrix":
        factor = Fraction(factor)
        return RationalMatrix([[factor * x for x in row] for row in self.rows])

    def row_mul(self, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """vector @ self for a row vector."""
        return self.transpose().col_mul(vector)

    def col_mul(self, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """self @ vector for a column vector."""
        if len(vector) != self.dim:
            raise ValueError("vector length mismatch")
        column = [Fraction(v) for v in vector]
        return tuple(row[0] for row in _dot_products(self.rows, [column]))

    def is_stochastic(self) -> bool:
        return all(min(row) >= 0 and sum(row) == 1 for row in self.rows)

    def is_primitive(self) -> bool:
        """Whether some power of this nonnegative matrix is positive: by Wielandt's bound, power
        (d-1)^2 + 1, taken as a boolean power of the zero pattern with bitmask rows and columns."""
        cols = [sum(1 << j for j, x in enumerate(col) if x) for col in zip(*self.rows)]
        reach = [sum(1 << k for k, x in enumerate(row) if x) for row in self.rows]
        for _ in range((self.dim - 1) ** 2):
            reach = [sum(1 << k for k, col in enumerate(cols) if r & col) for r in reach]
        return all(r == (1 << self.dim) - 1 for r in reach)

    def inverse(self) -> "RationalMatrix":
        """Exact inverse, one ``solve_linear`` per unit column; raises ValueError if singular."""
        return RationalMatrix(zip(*(solve_linear(self, e) for e in self.identity(self.dim).rows)))


def _integer_scaled(vectors: Iterable[Sequence[Fraction]]) -> list:
    """Each vector as (integer numerators, d) with d the lcm of its denominators."""
    scaled = []
    for vector in vectors:
        den = lcm(*(x.denominator for x in vector))
        scaled.append(([x.numerator * (den // x.denominator) for x in vector], den))
    return scaled


def _dot_products(rows: Iterable[Sequence[Fraction]], cols: Iterable[Sequence[Fraction]]) -> list:
    """Exact dot product of every row with every column, one ``Fraction`` each."""
    cols = _integer_scaled(cols)
    return [
        [Fraction(sum(map(mul, row, col)), row_den * col_den) for col, col_den in cols]
        for row, row_den in _integer_scaled(rows)
    ]


def solve_linear(matrix: RationalMatrix, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Solve matrix @ x = rhs exactly; raises ValueError if singular.

    Fraction-free Bareiss elimination (Math. Comp. 22, 1968) on the rows
    [matrix | rhs], each scaled to integers, divides exactly; its last
    pivot d is +-det of the scaled matrix.  d x is an integer vector
    (Cramer), so back-substitution divides exactly too; x_i = Fraction(d x_i, d).
    """
    dim = matrix.dim
    if len(rhs) != dim:
        raise ValueError("right-hand side length mismatch")
    work = [nums for nums, _ in _integer_scaled(
        row + (Fraction(x),) for row, x in zip(matrix.rows, rhs))]
    det = 1  # leading minor of the columns eliminated so far: the exact divisor
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if work[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        top = work[col]
        lead = top[col]
        for row in work[col + 1:]:
            factor = row[col]
            row[col + 1:] = [(lead * x - factor * y) // det
                             for x, y in zip(row[col + 1:], top[col + 1:])]
        det = lead
    scaled = [0] * dim  # det * x, an integer vector
    for i in reversed(range(dim)):
        row = work[i]
        scaled[i] = (det * row[dim] - sum(map(mul, row[i + 1:dim], scaled[i + 1:]))) // row[i]
    return tuple(Fraction(v, det) for v in scaled)
