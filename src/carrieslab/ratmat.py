"""Dense square matrices of exact rationals, held as integer rows.

Multiplication, integer powers, inversion and exact linear solves.  The one
stored form, ``integer_rows``, holds row i as (numerators, d) with entries
numerators[j] / d, d > 0 and gcd(d, *numerators) = 1, so equal matrices have
equal rows.  A product scales the right factor's rows to one common
denominator; each result row costs one ``gcd``.  ``Fraction``s are built only
where a value leaves the type: ``rows``, ``m[i]``, vectors and solutions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, or_
from typing import Iterable, Sequence


def integer_row(values: Iterable[Fraction | int]) -> tuple[tuple[int, ...], int]:
    """The rationals ``values`` as one canonical integer row: (numerators, d), d the lcm of
    their reduced denominators, so the numerators and d share no factor."""
    values = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def _canonical(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """The integer row nums / den with its common factor divided out and den > 0 (if den != 0)."""
    g = (gcd(den, *nums) if den > 0 else -gcd(den, *nums)) or 1
    return (tuple(nums) if g == 1 else tuple(x // g for x in nums)), den // g


def _common_columns(rows: Sequence[tuple]) -> tuple[int, list[tuple[int, ...]]]:
    """The columns of ``rows`` as integers over the rows' one common denominator."""
    den = lcm(*(d for _, d in rows))
    return den, list(zip(*([x * (den // d) for x in nums] for nums, d in rows)))


def _square(rows: tuple) -> tuple:
    if not rows or any(len(nums) != len(rows) or not d for nums, d in rows):
        raise ValueError("matrix must be square and non-empty, each row over a nonzero d")
    return rows


class RationalMatrix:
    """Immutable square matrix of exact rationals, stored as canonical integer rows."""

    __slots__ = ("integer_rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        object.__setattr__(self, "integer_rows", _square(tuple(map(integer_row, rows))))

    @classmethod
    def from_integer_rows(cls, rows: Iterable[tuple[Sequence[int], int]]) -> "RationalMatrix":
        """The matrix whose row i is numerators / d for the i-th pair (numerators, d), d != 0."""
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "integer_rows", _square(tuple(_canonical(*r) for r in rows)))
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def dim(self) -> int:
        return len(self.integer_rows)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as reduced ``Fraction``s, built on each access."""
        return tuple(map(self.__getitem__, range(self.dim)))

    def __getitem__(self, index: int) -> tuple[Fraction, ...]:
        nums, den = self.integer_rows[index]
        return tuple(Fraction(x, den) for x in nums)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.integer_rows == other.integer_rows

    def __hash__(self) -> int:
        return hash(self.integer_rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix({self.dim}x{self.dim}: {body})"

    @classmethod
    def identity(cls, dim: int) -> "RationalMatrix":
        return cls.from_integer_rows(([int(i == j) for j in range(dim)], 1) for i in range(dim))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        den, cols = _common_columns(other.integer_rows)
        return RationalMatrix.from_integer_rows(
            ([sum(map(mul, nums, col)) for col in cols], d * den) for nums, d in self.integer_rows)

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
        den, cols = _common_columns(self.integer_rows)
        return RationalMatrix.from_integer_rows((col, den) for col in cols)

    def scale(self, factor: Fraction | int) -> "RationalMatrix":
        top, bottom = Fraction(factor).as_integer_ratio()
        return RationalMatrix.from_integer_rows(
            ([x * top for x in nums], d * bottom) for nums, d in self.integer_rows)

    def row_mul(self, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """vector @ self for a row vector."""
        return self.transpose().col_mul(vector)

    def col_mul(self, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """self @ vector for a column vector."""
        if len(vector) != self.dim:
            raise ValueError("vector length mismatch")
        column, den = integer_row(vector)
        return tuple(Fraction(sum(map(mul, nums, column)), d * den)
                     for nums, d in self.integer_rows)

    def is_stochastic(self) -> bool:
        return all(min(nums) >= 0 and sum(nums) == d for nums, d in self.integer_rows)

    def is_primitive(self) -> bool:
        """Whether some power of this nonnegative matrix is positive: by Wielandt's bound, every
        power past (d-1)^2, so the zero pattern, as bitmask rows, is squared till it gets there,
        or till it is full, as every later power of a full pattern is."""
        full = (1 << self.dim) - 1
        reach = [sum(1 << k for k, x in enumerate(nums) if x) for nums, _ in self.integer_rows]
        for _ in range(((self.dim - 1) ** 2).bit_length()):  # square: OR the rows each reaches
            if min(reach) == full:
                return True
            reach = [reduce(or_, (x for k, x in enumerate(reach) if r >> k & 1), 0) for r in reach]
        return min(reach) == full

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination of [self | I] over ``Fraction``s; raises
        ValueError if singular."""
        dim = self.dim
        work = [[*row, *(Fraction(i == j) for j in range(dim))] for i, row in enumerate(self.rows)]
        for col in range(dim):
            pivot = next((r for r in range(col, dim) if work[r][col]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            lead = work[col][col]
            top = work[col] = [x / lead for x in work[col]]
            for row in work:
                factor = row[col]
                if factor and row is not top:
                    row[:] = [x - factor * y for x, y in zip(row, top)]
        return RationalMatrix(row[dim:] for row in work)


def solve_linear(matrix: RationalMatrix, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Solve matrix @ x = rhs exactly, as matrix^-1 @ rhs; raises ValueError if singular."""
    if len(rhs) != matrix.dim:
        raise ValueError("right-hand side length mismatch")
    return matrix.inverse().col_mul(rhs)
