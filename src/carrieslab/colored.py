"""The wreath product Z_p wr S_n as windows of (position, color) pairs.

An element maps i to position sigma(i) with color sigma_c(i); the window
notation lists the pairs (sigma(i), sigma_c(i)) for i = 1..n.  Two linear
orders on the letters drive two descent statistics:

- standard order: color 0 first, then colors p-1, p-2, ..., 1; positions
  ascending within a color.  Descents also count the end position when its
  color is nonzero.
- dash order: colors 0, 1, ..., p-1, positions ascending within a color.
  Dash descents count the end position when its color is p-1.

Both are one rule, ``_descents``: a key comparison of adjacent letters plus
the order's end predicate, ``_end_descent``.  At p = 1 the dash end always
counts, so the dash count is the standard count plus one.
``descent_histograms`` counts the whole group by the same rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, cycle, permutations, product, repeat, starmap, tee
from operator import add, gt, itemgetter
from typing import Iterator

from .process import ENUMERATION_LIMIT, check_count, check_limit

Pairs = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ColoredPermutation:
    """Element of Z_p wr S_n in window form."""

    n: int
    p: int
    pairs: Pairs

    def __post_init__(self) -> None:
        check_count("colors p", self.p)
        if len(self.pairs) != self.n:
            raise ValueError(f"expected {self.n} pairs, got {len(self.pairs)}")
        object.__setattr__(
            self, "pairs", tuple((int(k), int(c)) for k, c in self.pairs)
        )
        positions = sorted(k for k, _ in self.pairs)
        if positions != list(range(1, self.n + 1)):
            raise ValueError(f"positions must be a permutation of 1..{self.n}: {self.pairs}")
        if any(not 0 <= c < self.p for _, c in self.pairs):
            raise ValueError(f"colors must lie in 0..{self.p - 1}: {self.pairs}")

    @classmethod
    def identity(cls, n: int, p: int) -> "ColoredPermutation":
        return cls(n, p, tuple((i, 0) for i in range(1, n + 1)))

    def to_text(self) -> str:
        return ("(%d,%d)" * self.n) % tuple(chain.from_iterable(self.pairs))


def _compose_pairs(tau_pairs: Pairs, sigma_pairs: Pairs, p: int) -> Pairs:
    """Window of tau after sigma: position tau(sigma(i)), color tau_c(sigma(i)) + sigma_c(i)."""
    return tuple([(tau_pairs[k - 1][0], (tau_pairs[k - 1][1] + c) % p) for k, c in sigma_pairs])


def compose(tau: ColoredPermutation, sigma: ColoredPermutation) -> ColoredPermutation:
    """tau after sigma: position tau(sigma(i)), color tau_c(sigma(i)) + sigma_c(i)."""
    if tau.n != sigma.n or tau.p != sigma.p:
        raise ValueError(f"cannot compose elements of ({tau.n},{tau.p}) and ({sigma.n},{sigma.p})")
    return ColoredPermutation(tau.n, tau.p, _compose_pairs(tau.pairs, sigma.pairs, tau.p))


def inverse(sigma: ColoredPermutation) -> ColoredPermutation:
    """The group inverse: position sigma(i) goes back to i with negated color."""
    pairs: list[tuple[int, int]] = [(0, 0)] * sigma.n
    for i, (k, c) in enumerate(sigma.pairs, start=1):
        pairs[k - 1] = (i, (-c) % sigma.p)
    return ColoredPermutation(sigma.n, sigma.p, tuple(pairs))


def _letter_key(pair: tuple[int, int], p: int, dash: bool = False) -> tuple[int, int]:
    """Sort key of a letter (position, color) in the standard order, or the dash order."""
    k, c = pair
    return (c if dash or c == 0 else p - c, k)


def _end_descent(color: int, p: int, dash: bool = False) -> bool:
    """Whether the end position counts as a descent, from its color: nonzero
    (standard) or p-1 (dash, even when p = 1)."""
    return color == p - 1 if dash else color != 0


def _descents(pairs: Pairs, p: int, dash: bool = False) -> int:
    """Descents of a window in the standard order, or in the dash order when ``dash``.

    Counts i < n whose letter sorts above letter i+1 under the order's key,
    plus the end position n when ``_end_descent`` holds for its color.
    """
    keys = [_letter_key(pair, p, dash) for pair in pairs]
    return sum(map(gt, keys, keys[1:])) + _end_descent(pairs[-1][1], p, dash)


def descent_count(sigma: ColoredPermutation) -> int:
    """Descents of the window word in the standard order.

    Counts i < n with pair i above pair i+1, plus the end position n when
    its color is nonzero.
    """
    return _descents(sigma.pairs, sigma.p)


def dash_descent_count(sigma: ColoredPermutation) -> int:
    """Descents in the dash order, with end position counted at color p-1."""
    return _descents(sigma.pairs, sigma.p, dash=True)


def negate_colors(sigma: ColoredPermutation) -> ColoredPermutation:
    """sigma', every color negated mod p: the form even factors take in a '-' trace."""
    return ColoredPermutation(sigma.n, sigma.p, _negate_pairs(sigma.pairs, sigma.p))


def _negate_pairs(pairs: Pairs, p: int) -> Pairs:
    """The window of ``negate_colors``, unchecked: every color c becomes -c mod p."""
    return tuple([(k, -c % p) for k, c in pairs])


def group_order(n: int, p: int) -> int:
    """p^n n!, the order of Z_p wr S_n, or a partial product once past 2^64 (every cap)."""
    order = 1
    for k in range(1, n + 1):
        order *= k * p
        if order > 2**64:
            break
    return order


def _check_group(n: int, p: int) -> None:
    """Refuse a bad or oversized Z_p wr S_n before any element is visited."""
    check_count("cards n", n)
    check_count("colors p", p)
    check_limit(f"enumerating Z_{p} wr S_{n}", group_order(n, p), ENUMERATION_LIMIT, "elements")


def enumerate_group(n: int, p: int) -> Iterator[ColoredPermutation]:
    """Yield all p^n n! elements; guarded against oversized groups."""
    _check_group(n, p)
    for positions in permutations(range(1, n + 1)):
        for colors in product(range(p), repeat=n):
            yield ColoredPermutation(n, p, tuple(zip(positions, colors)))


def descent_histograms(n: int, p: int) -> tuple[Counter, Counter]:
    """Counts of the p^n n! elements by standard descents and by dash descents.

    One pass visits every element, as its letters' ranks in both orders, and
    builds none.  Each order ranks the letters by ``_letter_key``, letter (k, c)
    at row k - 1 and column c of its table.  An element's descents are the drops
    between the ranks of adjacent letters, plus ``_end_descent`` of its last
    color.  C iterators do the work per element; memory is O(n p).
    """
    _check_group(n, p)
    letters = [(k, c) for k in range(1, n + 1) for c in range(p)]
    streams = []
    for dash in (False, True):
        order = sorted(letters, key=lambda letter: _letter_key(letter, p, dash))
        rank = {letter: r for r, letter in enumerate(order)}
        tables = [[rank[k, c] for c in range(p)] for k in range(1, n + 1)]
        # Each element's letter ranks: position permutations outer, color tuples inner.
        windows, shifted = tee(chain.from_iterable(starmap(product, permutations(tables))))
        drops = map(sum, map(map, repeat(gt), windows, map(itemgetter(slice(1, None)), shifted)))
        # The last color varies fastest, through p^n windows per permutation: its end terms cycle.
        streams.append(map(add, drops, cycle([_end_descent(c, p, dash) for c in range(p)])))
    counts, dash_counts = Counter(), Counter()
    for (value, dash_value), count in Counter(zip(*streams)).items():
        counts[value] += count
        dash_counts[dash_value] += count
    return counts, dash_counts
