"""Colored riffle shuffles driven by digit words, and the carries bijections.

A word A in {0..b-1}^n drives one b-shuffle of n cards: card i receives
label a_i, cards are reordered stably by label, and card i picks up color
a_i mod p.  Repeated shuffles compose on the left.  The maps in this module
(star, sharp, bar, the multiplication map f) convert between stacks of
digit words and summand arrays of multi-digit numbers, and the two
``bijection_*`` constructions realize the carries of an n-fold addition as
descent statistics of the composed shuffles, term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, cycle, islice, repeat
from math import comb
from operator import getitem, mul
from typing import Callable, Iterable, Sequence

from .colored import (
    ColoredPermutation,
    Pairs,
    _compose_pairs,
    _descents,
    _negate_pairs,
    descent_count,
    inverse,
)
from .process import (DEFAULT_SEED, ENUMERATION_LIMIT, SHUFFLE_LIMIT, check_base, check_count,
                      check_limit, check_sign, check_steps, check_words, draw_words,
                      parameter_ratio, state_count)


@dataclass(frozen=True)
class MultiDigitWord:
    """n summands of N base-b digits each; rows store digits least significant first."""

    b: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_base(self.b)
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        check_count("summands", len(rows))
        check_count("digit places", len(rows[0]))
        check_words(rows, self.b, len(rows[0]))

    @property
    def places(self) -> int:
        return len(self.rows[0])

    @property
    def count(self) -> int:
        return len(self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        """Digits at each place, least significant first, across summands."""
        return list(zip(*self.rows))

    def row_values(self) -> tuple[int, ...]:
        return tuple(_row_values(self.rows, self.b))

    @classmethod
    def from_values(cls, b: int, places: int, values: Sequence[int]) -> "MultiDigitWord":
        limit = b**places
        for value in values:
            if not 0 <= value < limit:
                raise ValueError(f"value {value} outside 0..{limit - 1}")
        return cls(b, tuple(_digit_rows(values, b, places)))


def _row_values(rows: Sequence[Sequence[int]], b: int, flip_odd: bool = False) -> list[int]:
    """The value of each row of base-b digits, least significant first.  With ``flip_odd`` every
    digit at an odd index k is first reversed, x -> b-1-x: its term becomes (b-1-x) b^k."""
    weights = [-(b**k) if flip_odd and k % 2 else b**k for k in range(len(rows[0]))]
    offset = (1 - b) * sum(weight for weight in weights if weight < 0)  # the (b-1) b^k terms
    return [offset + sum(map(mul, weights, row)) for row in rows]


def _digit_rows(values: Iterable[int], b: int, places: int) -> list[tuple[int, ...]]:
    """The ``places`` base-b digits of each value in 0..b^places - 1, least significant first."""
    powers = [b**k for k in range(places)]
    return [tuple(map(b.__rmod__, map(value.__floordiv__, powers))) for value in values]


def gsr_to_permutation(labels: Sequence[int], p: int) -> ColoredPermutation:
    """The shuffle produced by one digit word: stable rank plus color mod p.

    Card i moves to position 1 + #{j : a_j < a_i} + #{j < i : a_j = a_i}
    and receives color a_i mod p.
    """
    check_count("colors p", p)
    return ColoredPermutation(len(labels), p, _gsr_pairs(labels, p))


def _gsr_pairs(labels: Sequence[int], p: int) -> Pairs:
    """The window of ``gsr_to_permutation(labels, p)``, unchecked: card i at 1 + its rank under
    a stable sort by label (ties keep index order), with color a_i mod p."""
    pairs: list = [None] * len(labels)
    for position, card in enumerate(sorted(range(len(labels)), key=labels.__getitem__), 1):
        pairs[card] = (position, labels[card] % p)
    return tuple(pairs)


def star_map(words: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Re-index each word by the sorted order of the words below it.

    ``words`` is in application order (first shuffle first).  Level k+1 of
    the output at row i is word k+1 at the rank of row i among the already
    starred levels 1..k.  Level 1 is unchanged.  Each level's row order is
    the last one stably re-sorted by that level's digits.
    """
    levels: list[tuple[int, ...]] = []
    order: Sequence[int] = range(len(words[0])) if words else ()
    for word in words:
        rank = sorted(range(len(order)), key=order.__getitem__)  # the inverse of the order
        levels.append(tuple(map(tuple(word).__getitem__, rank)))
        order = sorted(order, key=levels[-1].__getitem__)
    return levels


def unstar_map(levels: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Inverse of ``star_map``: recover the words from the starred levels, each level's digits
    listed in the row order of the levels below it, ranked as in ``star_map``."""
    words: list[tuple[int, ...]] = []
    order: Sequence[int] = range(len(levels[0])) if levels else ()
    for level in levels:
        words.append(tuple(map(level.__getitem__, order)))
        order = sorted(order, key=level.__getitem__)
    return words


def sharp_compose(word2: Sequence[int], word1: Sequence[int], b1: int) -> tuple[int, ...]:
    """Single word over b1*b2 equivalent to shuffling by word1 then word2.

    Pairs the starred second word with the first: a_i = a2*_i b1 + a1_i.
    """
    if len(word1) != len(word2):
        raise ValueError("words must have equal length")
    starred = star_map([word1, word2])[1]
    return tuple(starred[i] * b1 + word1[i] for i in range(len(word1)))


def f_map(x: int, b: int, p: int) -> int:
    """Multiplication by p mod b; a bijection on {0..b-1} when gcd(p, b) = 1."""
    return (p * x) % b


def bar_map(word: MultiDigitWord) -> MultiDigitWord:
    """Replace each summand value by the running total mod b^N."""
    totals = _running_totals(word.row_values(), word.b**word.places)
    return MultiDigitWord.from_values(word.b, word.places, totals)


def _running_totals(values: Iterable[int], modulus: int) -> list[int]:
    """The running totals of ``values`` mod ``modulus``: the bar map on plain integers."""
    return list(map(modulus.__rmod__, accumulate(values)))


def unbar_map(word: MultiDigitWord) -> MultiDigitWord:
    """Inverse of ``bar_map``: successive differences mod b^N."""
    modulus, totals = word.b**word.places, word.row_values()
    values = [(total - prev) % modulus for prev, total in zip((0, *totals), totals)]
    return MultiDigitWord.from_values(word.b, word.places, values)


@dataclass(frozen=True)
class ShuffleTrace:
    """A sequence of composed shuffles with per-step descent values.

    ``words[r-1]`` drives step r; ``elements[r-1]`` is the composition
    after r steps.  For sign '+' the composition is plain and
    ``descents[r-1]`` = descent count of the r-step element.  For sign '-'
    every even-numbered factor enters with negated colors, and the recorded
    value is n - dash-descents after odd steps and plain descents after
    even steps; these are the values that match the negative-base carries
    chain.
    """

    words: tuple[tuple[int, ...], ...]
    elements: tuple[ColoredPermutation, ...]
    descents: tuple[int, ...]


class _Memo(dict):
    """A memo whose misses ``build`` fills in; a hit is a plain ``dict`` lookup, in C."""

    __slots__ = ("build",)

    def __init__(self, build: Callable) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _composer:
    """The trace engine: words in application order -> windows after each step, and values.

    Factors and values follow the sign rule described on ``ShuffleTrace``.  Letter (k, c)
    has the code (k - 1) p + c.  While n p <= 256 a window is the ``bytes`` of its codes and
    a factor is its translation table: the images of every letter, position by position,
    padded to 256 bytes, so each step is one ``bytes.translate``.  A position's p images
    come from ``_compose_pairs`` on that position's one letter, once per distinct letter.
    Past 256 letters windows are pairs and step by ``_compose_pairs``.  Every stack starts
    from the identity window, whose image under a table is the table's own window.

    Each phase holds a factor memo (per word) and a value memo (per window), filled on a
    miss while the engine lives, so a repeated word or window costs one ``dict`` lookup.
    The engine steps that one rule by two drivers.  ``trace`` runs one stack as an
    ``accumulate`` and returns every window and every value; ``columns`` runs a batch of
    stacks one step column at a time and returns the last windows and every value.  Both
    stay because the stack's shape picks the cheaper one: one long stack through
    ``columns`` builds two one-item lists per step, several times ``trace``'s cost, and a
    batch through ``trace`` pays Python calls per stack.  Nothing sized by n or p is built
    before the first word.
    """

    def __init__(self, n: int, p: int, sign: str) -> None:
        self.n, self.p, self.coded = n, p, n * p <= 256
        self.step = bytes.translate if self.coded else self._compose
        block = cache(lambda letter: _window_code(
            _compose_pairs((letter,), [(1, c) for c in range(p)], p), p))

        def factor(negate: bool) -> Callable:
            def build(word: tuple[int, ...]) -> bytes | Pairs:
                pairs = _negate_pairs(_gsr_pairs(word, p), p) if negate else _gsr_pairs(word, p)
                return b"".join(map(block, pairs)).ljust(256, b"\0") if self.coded else pairs
            return build

        def value(dash: bool) -> Callable:
            def build(window: bytes | Pairs) -> int:
                pairs = _window_pairs(window, p)
                return n - _descents(pairs, p, dash=True) if dash else _descents(pairs, p)
            return build

        # The phases (negate, dash), cycled over the steps, as factor memos and value memos.
        phases = [(False, False)] if sign == "+" else [(False, True), (True, False)]
        self.factors = [_Memo(factor(negate)) for negate, _ in phases]
        self.values = [_Memo(value(dash)) for _, dash in phases]

    def _compose(self, window: Pairs, factor: Pairs) -> Pairs:
        return _compose_pairs(factor, window, self.p)

    @cached_property
    def identity(self) -> bytes | Pairs:
        n, p = self.n, self.p
        return bytes(range(0, n * p, p)) if self.coded else tuple((k, 0) for k in range(1, n + 1))

    def trace(self, words: Iterable[tuple[int, ...]]) -> tuple[list, tuple[int, ...]]:
        """One stack, ``words`` in application order: the window and value after each step."""
        steps = map(getitem, cycle(self.factors), words)
        windows = list(islice(accumulate(steps, self.step, initial=self.identity), 1, None))
        return windows, tuple(map(getitem, cycle(self.values), windows))

    def columns(self, columns: Sequence[Sequence[tuple[int, ...]]]) -> tuple[list, list[list[int]]]:
        """A batch of equal-length stacks of one or more words, ``columns[r]`` holding word
        r + 1 of each stack: the windows after the last step and each step's values."""
        windows, values = repeat(self.identity), []
        for column, factors, seen in zip(columns, cycle(self.factors), cycle(self.values)):
            windows = list(map(self.step, windows, map(factors.__getitem__, column)))
            values.append(list(map(seen.__getitem__, windows)))
        return windows, values


def _window_code(pairs: Pairs, p: int) -> bytes:
    """The letter codes of a window of at most 256 letters, (k, c) -> (k - 1) p + c."""
    return bytes([(k - 1) * p + c for k, c in pairs])


def _window_pairs(window: bytes | Pairs, p: int) -> Pairs:
    """The pairs of a trace-engine window: letter code x decodes to (x // p + 1, x % p)."""
    return tuple([(x // p + 1, x % p) for x in window]) if isinstance(window, bytes) else window


def trace_from_words(
    b: int, n: int, p: int, words: Sequence[Sequence[int]], sign: str = "+"
) -> ShuffleTrace:
    """Compose the shuffles driven by ``words`` and record descent values."""
    check_sign(sign)
    check_base(b)
    check_count("cards n", n)
    check_count("colors p", p)
    frozen = tuple(tuple(int(x) for x in w) for w in words)
    check_words(frozen, b, n)
    windows, values = _composer(n, p, sign).trace(frozen)
    distinct = {w: ColoredPermutation(n, p, _window_pairs(w, p)) for w in dict.fromkeys(windows)}
    return ShuffleTrace(frozen, tuple(map(distinct.__getitem__, windows)), values)


def sample_sequence(
    b: int, n: int, p: int, steps: int, seed: int = DEFAULT_SEED, sign: str = "+"
) -> ShuffleTrace:
    """Trace of ``steps`` uniform shuffles, driven by the first ``steps`` words of
    ``draw_words(seed, b, n)``."""
    check_steps(steps, what="shuffle count")
    check_count("cards n", n)
    check_count("colors p", p)
    check_limit("a shuffle sequence", steps * n, SHUFFLE_LIMIT, "digits (shuffles x cards)")
    return trace_from_words(b, n, p, tuple(islice(draw_words(seed, b, n), steps)), sign)


def _bijection_stages(
    b: int, rows: Sequence[Sequence[int]], p: int, sign: str
) -> tuple[list[int], list[int], list[int], list[tuple[int, ...]]]:
    """The stages of the carries-to-shuffles construction for either sign, on plain integers.

    For '-' every digit at an even place is first reversed (x -> b-1-x); then
    the n rows of N digits become running totals (bar), each multiplied by p
    mod b^N, and the digit columns, read as starred levels, are unstarred.
    Returns the values of the (flipped) summands, the totals, the products
    and the words in application order.  The caller checks (sign, b, p).
    """
    places = len(rows[0])
    modulus = b**places
    values = _row_values(rows, b, flip_odd=sign == "-")  # odd index k: an even place k + 1
    totals = _running_totals(values, modulus)
    products = [f_map(total, modulus, p) for total in totals]
    return values, totals, products, unstar_map(list(zip(*_digit_rows(products, b, places))))


def bijection_plus(summands: MultiDigitWord, p: int) -> ShuffleTrace:
    """Shuffle trace tracking the carries of adding the summands.

    Requires b = 1 mod p.  The construction: replace summands by running
    totals (bar), multiply each total by p mod b^N, read the digit columns
    as starred levels, and unstar.  The resulting words drive a '+' trace
    whose descent count after r shuffles equals the r-th carry of the
    positive-base chain fed the same digit columns.
    """
    parameter_ratio("+", summands.b, p)
    words = _bijection_stages(summands.b, summands.rows, p, "+")[3]
    return trace_from_words(summands.b, summands.count, p, words, sign="+")


def bijection_minus(summands: MultiDigitWord, p: int) -> ShuffleTrace:
    """Shuffle trace tracking the carries of a negative-base addition.

    Requires b = -1 mod p.  The construction reverses every digit at an
    even place (x -> b-1-x), applies bar and the multiplication map, and
    unstars; the resulting words drive a '-' trace whose recorded values
    equal the negative-base carries of the original summands, step by step.
    """
    parameter_ratio("-", summands.b, p)
    words = _bijection_stages(summands.b, summands.rows, p, "-")[3]
    return trace_from_words(summands.b, summands.count, p, words, sign="-")


def shuffle_probability(sigma: ColoredPermutation, b: int, r: int = 1) -> Fraction:
    """Law of the element after r uniform b-shuffles of the identity.

    Closed form b^(-rn) C(n + (b^r - 1)/p - d(sigma^(-1)), n); needs
    b = 1 mod p.
    """
    n, p = sigma.n, sigma.p
    parameter_ratio("+", b, p)
    check_steps(r, what="shuffle count")
    m = (b**r - 1) // p
    d_inv = descent_count(inverse(sigma))
    return Fraction(comb(n + m - d_inv, n), b ** (r * n))


def gessel_coefficients(n: int, p: int, d: int) -> list[list[int]]:
    """Counts c[i][j] of factorizations tau mu = sigma by descents of the parts, d(sigma) = d.

    Their generating identity (Nakano-Sadahiro, arXiv 1403.5822), sum c[i][j] s^i t^j /
    ((1-s)(1-t))^(n+1) = sum g[a][b] s^a t^b with g[a][b] = C(n + p a b + a + b - d, n),
    times ((1-s)(1-t))^(n+1) gives c[i][j] = sum over k <= i, l <= j of (-1)^(k+l) C(n+1, k)
    C(n+1, l) g[i-k][j-l]: C(n+2, 2)^2 terms, refused past ``ENUMERATION_LIMIT``.  The oracle,
    a count over the group, is ``verify.suite_gessel``."""
    check_count("cards n", n)
    check_count("colors p", p)
    check_limit(f"the Gessel table of Z_{p} wr S_{n}", comb(n + 2, 2) ** 2, ENUMERATION_LIMIT,
                "identity terms")
    if not isinstance(d, int) or not 0 <= d < state_count(n, p):
        raise ValueError(f"no element of Z_{p} wr S_{n} has descent count {d}")
    g = [[comb(n + p * a * b + a + b - d, n) for b in range(n + 1)] for a in range(n + 1)]
    signed = [(-1) ** k * comb(n + 1, k) for k in range(n + 1)]
    return [[sum(signed[k] * signed[l] * g[i - k][j - l]
                 for k in range(i + 1) for l in range(j + 1)) for j in range(n + 1)]
            for i in range(n + 1)]
