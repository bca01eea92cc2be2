"""Carries chains over positive and negative bases, in exact arithmetic.

A chain is described by a sign, a base magnitude b >= 2, the number of
summands n >= 1, and a rational parameter p >= 1 subject to the validity
condition that (b - 1)/p (positive base) or (b + 1)/p (negative base) is a
positive integer.  The normalized state space is {0, ..., n-1} when p = 1
and {0, ..., n} otherwise.  This module owns that validity rule
(``parameter_ratio``) and the work caps: the ``*_LIMIT`` table, ``check_limit``
and ``check_grid``, which the rest of the package and the command line call.

It is also the only source of digit words: ``enumerate_words`` fixes the
enumeration order (lexicographic, refused past ``ENUMERATION_LIMIT`` before
any word exists) and ``draw_words`` is the one seeded stream, on
``random.Random(seed)``, that every path and sample takes its words from.

It owns the input rules as well, one check each, which every entry point
applies where its work starts: ``check_sign``, ``check_base``,
``check_count`` (summands, cards, colors, samples), ``check_words`` (digit
words), ``check_steps``, ``check_shape`` (the (n, p) of the eigenvector
matrices) and ``check_state`` (a start state of a chain).

Chains that arise from repeatedly adding n numbers written over a digit set
{d, ..., d + b - 1} carry the offset d; ``derive_p`` recovers the parameter
from (sign, b, d, n) and ``derive_carry_set`` gives the interval of carries
the column additions can produce.  All quantities are exact: states and
digits are ints, parameters are ``fractions.Fraction``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, product, repeat
from typing import Iterable, Iterator, Sequence

SIGNS = ("+", "-")

#: Seed used by sampling helpers when the caller does not pass one.
DEFAULT_SEED = 1729

#: Chain states the ``matrix``, ``eigen`` and ``moments`` commands and ``moments_oracle`` accept:
#: ``eigen --check`` at 128 states takes about 3 s at b = 4, 9 s at b = 1000.
STATE_LIMIT = 128
#: Steps of a moments query (its closed forms hold b^(2r)) or of the moments oracle.
STEP_LIMIT = 1000
#: Digit tuples, arrays, group elements, compositions or identity terms that one call visits.
ENUMERATION_LIMIT = 10**7
#: states^2 x (r+1) x (s+1), summed over the chains of the whole ``verify moments`` grid: the
#: default grid has 123,984; at the cap r = 3471 at b, n <= 2 takes about 3 s, b <= 177 at n = 1
#: about 3.5 s, n <= 44 at b = 2 about 0.5 s and r = s = 16 at b <= 4, n <= 3 about 0.1 s.
MOMENT_GRID_LIMIT = 125 * 10**3
#: Summands n_max of the ``verify eigen``, ``duality`` and ``sf-numbers`` grids: at the cap
#: ``eigen`` takes about 5 s, ``duality`` and ``sf-numbers`` under 1 s.
GRID_N_LIMIT = 20
#: Digits a simulated path draws and holds (steps times summands).
SIMULATE_LIMIT = 10**6
#: Digits a sampled shuffle sequence draws (shuffles times cards).
SHUFFLE_LIMIT = 2 * 10**5
#: Monte-Carlo samples the sampled tier of a bijection suite draws.
SAMPLE_LIMIT = 10**7


def check_limit(what: str, amount: int | tuple[int, int], limit: int, unit: str) -> None:
    """Refuse ``what`` past ``limit`` ``unit``.  A pair ``amount`` (base, exponent) is compared
    without building past base**64, which tops every cap; counts past 2^64 print as such."""
    power = isinstance(amount, tuple)
    base, exponent = amount if power else (amount, 1)
    if base ** min(exponent, 64) > limit:
        got = f"{base}^{exponent}" if power else (base if base < 2**64 else "over 2^64")
        raise ValueError(f"{what} is limited to {limit} {unit}, got {got}")


def check_grid(what: str, cells: Iterable[tuple[str, int, object]], limit: int, unit: str) -> list:
    """The cells of ``what``, a grid of (label, cost, cell) triples read lazily in the order
    the grid runs; refused as ``"{what} through {label}"`` once the costs' sum passes ``limit``."""
    total, grid = 0, []
    for label, cost, cell in cells:
        total += cost
        check_limit(f"{what} through {label}", total, limit, unit)
        grid.append(cell)
    return grid


def enumerate_words(what: str, b: int, length: int, unit: str,
                    low: int = 0) -> Iterator[tuple[int, ...]]:
    """Every word of ``length`` digits in {low..low+b-1}, the last digit fastest; ``what``
    past ``ENUMERATION_LIMIT`` ``unit`` is refused before any word exists."""
    check_steps(length, what="a word length")
    check_limit(what, (b, length), ENUMERATION_LIMIT, unit)
    return product(range(low, low + b), repeat=length)


def draw_words(seed: int, b: int, length: int) -> Iterator[tuple[int, ...]]:
    """The endless seeded stream of uniform words of ``length`` digits in {0..b-1}.

    Its order is one ``random.Random(seed).randrange(b)`` per digit, word by
    word.  For b >= 256 that is how the digits are drawn.  For b < 256 they
    are read in bulk, 4096 32-bit generator outputs per refill, and come out
    the same, because in CPython:

    - ``randrange(b)`` is ``getrandbits(k)`` with k = b.bit_length(), redrawn
      while it is >= b;
    - ``getrandbits(k <= 32)`` is the top k bits of the next 32-bit output;
    - ``getrandbits(32 m)`` packs the next m outputs, first output lowest.

    So the top byte of each output, shifted right by 8 - k, is one draw; a
    ``bytes.translate`` deletes the redrawn ones and maps the rest to digits.
    Each refill's whole words come out of one ``zip``, chained, so a word costs
    no Python frame.  Outputs drawn past the last digit used only advance a
    generator no one else holds.
    """
    check_base(b)
    rng = random.Random(seed)
    if b >= 256 or length == 0:
        draw = rng.randrange
        return (tuple([draw(b) for _ in range(length)]) for _ in repeat(None))
    shift = 8 - b.bit_length()
    table = bytes(x >> shift for x in range(256))
    redrawn = bytes(x for x in range(256) if x >> shift >= b)

    def refills() -> Iterator[Iterator[tuple[int, ...]]]:
        digits = b""
        while True:
            top = rng.getrandbits(32 * 4096).to_bytes(4 * 4096, "little")[3::4]
            digits += top.translate(table, redrawn)
            whole = len(digits) - len(digits) % length
            yield zip(*[iter(digits[:whole])] * length)
            digits = digits[whole:]

    return chain.from_iterable(refills())


def check_sign(sign: str) -> None:
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def check_base(b: int) -> None:
    if not isinstance(b, int) or b < 2:
        raise ValueError(f"base magnitude must be an integer >= 2, got {b!r}")


def check_count(what: str, value: int) -> None:
    """Refuse a count of summands, cards, colors or samples that is not an integer >= 1."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"need an integer number of {what} >= 1, got {value!r}")


def check_words(words: Sequence[Sequence[int]], b: int, length: int) -> None:
    """Refuse any word that is not ``length`` digits in {0..b-1}."""
    for word in words:
        if len(word) != length or any(not 0 <= x < b for x in word):
            raise ValueError(f"bad word {word} for b={b}: need {length} digits in 0..{b - 1}")


def check_steps(*steps: int, what: str = "step count") -> None:
    """Refuse a negative count of steps (or of what ``what`` names)."""
    if min(steps) < 0:
        raise ValueError(f"{what} must be nonnegative")


def check_shape(n: int, p) -> int:
    """The state count of the (n, p) eigenvector matrices; refuses n < 1 summands or p < 1."""
    check_count("summands n", n)
    if p < 1:
        raise ValueError(f"a chain needs p >= 1, got p={p}")
    return state_count(n, p)


def check_state(params: ProcessParams, i: int) -> None:
    if not (isinstance(i, int) and 0 <= i < params.state_count):
        raise ValueError(f"start state must lie in 0..{params.state_count - 1}, got {i!r}")


def _check_offset(b: int, d: int) -> None:
    if not isinstance(d, int) or not (1 - b <= d <= 0):
        raise ValueError(f"digit offset must satisfy 1-b <= d <= 0, got d={d!r} for b={b}")


def parameter_ratio(sign: str, b: int, p) -> int:
    """(b-1)/p for sign '+', (b+1)/p for sign '-': a positive integer exactly when
    (sign, b, p) is valid, for a carries chain and its colored shuffles alike."""
    check_sign(sign)
    check_base(b)
    top = b - 1 if sign == "+" else b + 1
    if p < 1 or top % p != 0:
        raise ValueError(f"invalid parameter: sign {sign} needs p >= 1 and "
                         f"b = {'1' if sign == '+' else '-1'} mod p, got b={b} p={p}")
    return top // p


def carry_slope(sign: str, b: int, d: int) -> Fraction:
    """Slope of the carry range in the summand count.

    Equals d/(b-1) for base +b and -(b+d)/(b+1) for base -b; always lies
    in [-1, 0].
    """
    check_sign(sign)
    check_base(b)
    _check_offset(b, d)
    if sign == "+":
        return Fraction(d, b - 1)
    return Fraction(-(b + d), b + 1)


def derive_carry_set(sign: str, b: int, d: int, n: int) -> range:
    """Carry interval for n-fold addition over the digit set {d..d+b-1}, as a ``range``.

    The interval is [floor((n-1)l), ceil((n-1)(l+1))] where l is
    ``carry_slope``; its size is n when (n-1)l is an integer and n+1
    otherwise.
    """
    check_count("summands n", n)
    slope = carry_slope(sign, b, d)
    lo = math.floor((n - 1) * slope)
    hi = math.ceil((n - 1) * (slope + 1))
    return range(lo, hi + 1)


def derive_p(sign: str, b: int, d: int, n: int) -> Fraction:
    """Chain parameter determined by the digit set: 1/(1 - <(n-1)l>).

    <x> is the fractional part.  The result is 1 exactly when (n-1)l is an
    integer, which is also the case where the carry set has only n values.
    """
    check_count("summands n", n)
    slope = carry_slope(sign, b, d)
    t = (n - 1) * slope
    fractional = t - math.floor(t)
    return 1 / (1 - fractional)


def state_count(n: int, p) -> int:
    """Number of normalized states: n when p = 1, n + 1 otherwise."""
    return n if p == 1 else n + 1


@dataclass(frozen=True)
class ProcessParams:
    """Validated parameter bundle for a carries chain.

    ``d`` is optional; when present the chain is the one realized by the
    digit set {d..d+b-1} and ``p`` must agree with ``derive_p``.
    """

    sign: str
    b: int
    n: int
    p: Fraction
    d: int | None = None
    #: Constant added to every column sum: (b-1)(1 - 1/p) or (b+1)/p - 1.
    column_shift: int = field(init=False, repr=False, compare=False)
    #: Number of normalized states, held so the per-call start-state check stays cheap.
    state_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Fraction(self.p))
        ratio = parameter_ratio(self.sign, self.b, self.p)
        check_count("summands n", self.n)
        # (b-1)(1 - 1/p) = (b-1) - ratio and (b+1)/p - 1 = ratio - 1.
        shift = self.b - 1 - ratio if self.sign == "+" else ratio - 1
        object.__setattr__(self, "column_shift", shift)
        object.__setattr__(self, "state_count", state_count(self.n, self.p))
        if self.d is not None:
            expected = derive_p(self.sign, self.b, self.d, self.n)
            if expected != self.p:
                raise ValueError(
                    f"digit offset d={self.d} determines p={expected}, "
                    f"but p={self.p} was given"
                )

    @property
    def states(self) -> range:
        return range(self.state_count)

    @property
    def signed_base(self) -> int:
        return self.b if self.sign == "+" else -self.b


def make_process(sign: str, b: int, n: int, p, d: int | None = None) -> ProcessParams:
    """Build and validate chain parameters; ``p`` may be int, str or Fraction."""
    return ProcessParams(sign, b, n, Fraction(p), d)


def process_from_digit_set(sign: str, b: int, d: int, n: int) -> ProcessParams:
    """Chain realized by n-fold addition over the digit set {d..d+b-1}."""
    return ProcessParams(sign, b, n, derive_p(sign, b, d, n), d)


def step_carry(params: ProcessParams, kappa: int, digits: Sequence[int]) -> tuple[int, int]:
    """One column addition in normalized coordinates.

    Returns (next state, remainder digit).  For base +b the update is
    kappa + sum + shift = kappa' * b + s; for base -b it is
    kappa + sum + shift = (n - kappa') * b + s, with s in {0..b-1}.
    """
    total = kappa + sum(digits) + params.column_shift
    quotient, remainder = divmod(total, params.b)
    if params.sign == "+":
        return quotient, remainder
    return params.n - quotient, remainder


def original_step(sign: str, b: int, d: int, carry: int, digits: Sequence[int]) -> tuple[int, int]:
    """One column addition in original coordinates over the digit set {d..d+b-1}.

    carry + sum(digits) = carry' * (+-b) + r with r in {d..d+b-1}; both
    carry' and r are uniquely determined.
    """
    total = carry + sum(digits)
    r = d + (total - d) % b
    signed = b if sign == "+" else -b
    return (total - r) // signed, r


def realized_carry_set(sign: str, b: int, d: int, n: int) -> frozenset[int]:
    """Carries reachable from 0 by exhaustive closure of ``original_step``.

    Independent of the interval formula; intended as a brute-force check
    of ``derive_carry_set`` at small sizes.
    """
    check_sign(sign)
    check_base(b)
    _check_offset(b, d)
    check_count("summands n", n)
    digit_tuples = list(enumerate_words(f"the carry closure at b={b} n={n}", b, n,
                                        "digit tuples", low=d))
    seen: set[int] = {0}
    frontier = [0]
    while frontier:
        carry = frontier.pop()
        for digits in digit_tuples:
            nxt, _ = original_step(sign, b, d, carry, digits)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


@dataclass(frozen=True)
class CarriesTrace:
    """Realized chain path: states, remainder digits, and the digit columns.

    ``kappas`` has one more entry than the others (the start state 0).
    ``summand_digits[r]`` is the n-tuple of digits consumed at step r+1.
    """

    kappas: tuple[int, ...]
    remainders: tuple[int, ...]
    summand_digits: tuple[tuple[int, ...], ...]


def simulate_trace(
    params: ProcessParams,
    steps: int,
    seed: int = DEFAULT_SEED,
    columns: Sequence[Sequence[int]] | None = None,
) -> CarriesTrace:
    """Run the chain from state 0 for ``steps`` column additions.

    Digits come from ``columns`` when given, otherwise from the first
    ``steps`` words of ``draw_words(seed, ...)``, one column per word
    (summand 1 first).
    """
    check_steps(steps)
    check_limit("a simulated path", steps * params.n, SIMULATE_LIMIT, "digits (steps x summands)")
    if columns is None:
        drawn = tuple(islice(draw_words(seed, params.b, params.n), steps))
    else:
        if len(columns) != steps:
            raise ValueError(f"expected {steps} digit columns, got {len(columns)}")
        drawn = tuple(tuple(col) for col in columns)
        check_words(drawn, params.b, params.n)
    kappas = [0]
    remainders = []
    for col in drawn:
        nxt, rem = step_carry(params, kappas[-1], col)
        kappas.append(nxt)
        remainders.append(rem)
    return CarriesTrace(tuple(kappas), tuple(remainders), drawn)


def digit_expansion(x: int, sign: str, b: int, d: int = 0) -> tuple[int, ...]:
    """Digits (a_0, ..., a_N), least significant first, of x over {d..d+b-1}.

    x = sum a_k (+-b)^k.  Every x >= 0 has a unique finite expansion except
    over (+b, d = 1-b) where only 0 is representable; that case raises
    ValueError.
    """
    check_sign(sign)
    check_base(b)
    _check_offset(b, d)
    if not isinstance(x, int) or x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x!r}")
    if sign == "+" and d == 1 - b and x > 0:
        raise ValueError(f"{x} has no expansion over base {b} with digits {{{d}..0}}")
    signed = b if sign == "+" else -b
    digits = [ ]
    # Bound: remainders shrink; 4*bit_length + 8 steps is far more than enough.
    for _ in range(4 * x.bit_length() + 8):
        a = d + (x - d) % b
        digits.append(a)
        x = (x - a) // signed
        if x == 0:
            return tuple(digits)
    raise ValueError(f"expansion of {x} over sign={sign} b={b} d={d} did not terminate")


def digit_value(digits: Sequence[int], sign: str, b: int) -> int:
    """Evaluate a least-significant-first digit tuple: sum a_k (+-b)^k."""
    check_sign(sign)
    check_base(b)
    signed = b if sign == "+" else -b
    total = 0
    for a in reversed(digits):
        total = total * signed + a
    return total
