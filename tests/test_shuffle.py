"""Digit words, shuffle composition, and the carry-descent constructions."""

import gc
import signal
import sys
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from carrieslab import (
    MultiDigitWord,
    bar_map,
    bijection_minus,
    bijection_plus,
    compose,
    descent_count,
    enumerate_group,
    f_map,
    gessel_coefficients,
    gsr_to_permutation,
    make_process,
    sharp_compose,
    shuffle_probability,
    simulate_trace,
    star_map,
    trace_from_words,
    unstar_map,
)
from carrieslab import colored, shuffle, verify
from carrieslab.shuffle import unbar_map


def test_multi_digit_word_round_trips():
    word = MultiDigitWord(5, ((4, 0, 3), (1, 2, 0)))
    assert word.places == 3 and word.count == 2
    assert word.columns() == [(4, 1), (0, 2), (3, 0)]
    values = word.row_values()
    assert values == (4 + 3 * 25, 1 + 2 * 5)
    assert MultiDigitWord.from_values(5, 3, values) == word
    with pytest.raises(ValueError):
        MultiDigitWord(5, ((5, 0), (1, 2)))
    with pytest.raises(ValueError):
        MultiDigitWord(5, ((1, 0), (1,)))


def test_gsr_stable_ranking():
    # Equal labels keep their original relative order.
    sigma = gsr_to_permutation((1, 0, 1, 0), 2)
    assert sigma.pairs == ((3, 1), (1, 0), (4, 1), (2, 0))


def test_star_unstar_inverse():
    rng = Random(3)
    for _ in range(20):
        words = [tuple(rng.randrange(4) for _ in range(5)) for _ in range(3)]
        levels = star_map(words)
        assert unstar_map(levels) == [tuple(w) for w in words]


def test_sharp_compose_pairs_starred_digits():
    # The sharp word encodes a2* b1 + a1 digit by digit, with the second
    # word starred against the first.
    word1 = (1, 3, 2, 0)
    word2 = (2, 0, 1, 1)
    starred = star_map([word1, word2])[1]
    combined = sharp_compose(word2, word1, 4)
    assert combined == tuple(s * 4 + a for a, s in zip(word1, starred))


def test_sharp_compose_matches_group_composition():
    # word2 is read at the positions produced by word1's shuffle; the
    # sharp word performs both shuffles at once.
    b1, b2, p = 3, 5, 1
    rng = Random(9)
    for _ in range(10):
        w1 = tuple(rng.randrange(b1) for _ in range(4))
        w2 = tuple(rng.randrange(b2) for _ in range(4))
        sigma = gsr_to_permutation(w1, p)
        tau = gsr_to_permutation(w2, p)
        combined = gsr_to_permutation(sharp_compose(w2, w1, b1), p)
        assert combined == compose(tau, sigma)


def test_bar_map_prefix_sums_and_inverse():
    word = MultiDigitWord(3, ((1, 2), (2, 0), (1, 1)))
    barred = bar_map(word)
    modulus = 3**2
    values = word.row_values()
    partial = 0
    for row_value, got in zip(values, barred.row_values()):
        partial = (partial + row_value) % modulus
        assert got == partial
    assert unbar_map(barred) == word


def test_the_integer_stages_are_the_public_maps_composed():
    # Every array at b <= 3, n <= 2, N <= 3, both signs and every valid p: the values, totals,
    # products and words of ``_bijection_stages`` are those of the flip, ``bar_map``,
    # ``f_map`` through ``from_values``, and ``unstar_map`` of the digit columns.
    for sign, b, n, places in product("+-", (2, 3), (1, 2), (1, 2, 3)):
        top = b - 1 if sign == "+" else b + 1
        for p, flat in product([k for k in range(1, top + 1) if top % k == 0],
                               product(range(b), repeat=n * places)):
            rows = tuple(flat[i * places:(i + 1) * places] for i in range(n))
            if sign == "-":
                rows = tuple(tuple(b - 1 - x if k % 2 else x for k, x in enumerate(row))
                             for row in rows)
            flipped = MultiDigitWord(b, rows)
            barred = bar_map(flipped)
            mixed = MultiDigitWord.from_values(
                b, places, [f_map(v, b**places, p) for v in barred.row_values()])
            stages = shuffle._bijection_stages(b, tuple(zip(*[iter(flat)] * places)), p, sign)
            assert stages == (list(flipped.row_values()), list(barred.row_values()),
                              list(mixed.row_values()), unstar_map(mixed.columns()))


def test_f_map_is_a_bijection():
    for b, p in ((7, 3), (5, 2), (4, 1)):
        image = {f_map(x, b, p) for x in range(b)}
        assert image == set(range(b))
        assert f_map(1, b, p) == p % b


def test_trace_composes_factors():
    trace = trace_from_words(4, 3, 3, [(0, 1, 2), (3, 2, 0)], "+")
    first = gsr_to_permutation((0, 1, 2), 3)
    second = gsr_to_permutation((3, 2, 0), 3)
    assert trace.elements[0] == first
    assert trace.elements[1] == compose(second, first)
    assert trace.descents == (descent_count(first), descent_count(compose(second, first)))


def test_trace_refuses_empty_deck_and_unit_base():
    with pytest.raises(ValueError):
        trace_from_words(4, 0, 3, [(), ()], "+")
    with pytest.raises(ValueError):
        trace_from_words(1, 2, 1, [(0, 0)], "+")


@pytest.mark.parametrize("p", [0, -4, 2.5])
def test_traces_refuse_a_bad_color_count_with_no_words(p):
    with pytest.raises(ValueError, match="colors p"):
        trace_from_words(3, 2, p, [])
    with pytest.raises(ValueError, match="colors p"):
        shuffle.sample_sequence(3, 2, p, 0)


def test_bijection_plus_tracks_carries():
    b, n, p, places = 4, 2, 3, 3
    params = make_process("+", b, n, p)
    rng = Random(21)
    for _ in range(25):
        rows = tuple(tuple(rng.randrange(b) for _ in range(places)) for _ in range(n))
        summands = MultiDigitWord(b, rows)
        trace = simulate_trace(params, places, columns=summands.columns())
        assert bijection_plus(summands, p).descents == trace.kappas[1:]


def test_bijection_minus_tracks_carries():
    b, n, p, places = 2, 2, 3, 3
    params = make_process("-", b, n, p)
    for flat in product(range(b), repeat=n * places):
        rows = tuple(flat[i * places : (i + 1) * places] for i in range(n))
        summands = MultiDigitWord(b, rows)
        trace = simulate_trace(params, places, columns=summands.columns())
        assert bijection_minus(summands, p).descents == trace.kappas[1:]


def test_shuffle_probability_normalizes():
    for b, n, p in ((3, 2, 1), (4, 2, 3)):
        total = sum(shuffle_probability(sigma, b) for sigma in enumerate_group(n, p))
        assert total == 1


def test_shuffle_probability_counts_words():
    b, n, p = 4, 2, 3
    from collections import Counter

    counts = Counter(gsr_to_permutation(w, p).pairs for w in product(range(b), repeat=n))
    for sigma in enumerate_group(n, p):
        expected = Fraction(counts.get(sigma.pairs, 0), b**n)
        assert shuffle_probability(sigma, b) == expected


def test_iterated_shuffle_probability():
    b, n, p, r = 4, 2, 3, 2
    from collections import Counter

    counts: Counter = Counter()
    for flat in product(range(b), repeat=n * r):
        words = [flat[k * n : (k + 1) * n] for k in range(r)]
        counts[trace_from_words(b, n, p, words, "+").elements[-1].pairs] += 1
    for sigma in enumerate_group(n, p):
        expected = Fraction(counts.get(sigma.pairs, 0), b ** (n * r))
        assert shuffle_probability(sigma, b, r) == expected


def test_gessel_identity_holds():
    # The closed form against a count: c[i][j] = #{mu : d(sigma mu^-1) = i, d(mu) = j} at
    # one representative sigma of each descent count d, for n <= 4 and p <= 3.
    for n, p in product(range(1, 5), range(1, 4)):
        elements = list(enumerate_group(n, p))
        descents = {e: descent_count(e) for e in elements}
        representatives = {}
        for e in elements:
            representatives.setdefault(descents[e], e)
        assert sorted(representatives) == list(range(n + (p > 1)))
        for d, sigma in representatives.items():
            counts = [[0] * (n + 1) for _ in range(n + 1)]
            for mu in elements:
                counts[descents[compose(sigma, colored.inverse(mu))]][descents[mu]] += 1
            assert gessel_coefficients(n, p, d) == counts, (n, p, d)


def test_gessel_factorizations_above_the_enumeration_limit_are_refused():
    # The closed form sums C(n + 2, 2)^2 identity terms: 9,985,600 at n = 78, the largest
    # n it accepts; n = 79 and a huge n are refused before any term, as is a d that is no
    # descent count.
    for n in (79, 10**30):
        with pytest.raises(ValueError, match="limited to 10000000 identity terms"):
            gessel_coefficients(n, 2, 1)
    for d in (-1, 3, 1.0):
        with pytest.raises(ValueError, match=f"no element of Z_1 wr S_3 has descent count {d}"):
            gessel_coefficients(3, 1, d)
    assert len(verify.run_suite("gessel").cases) == 15


def test_exhaustive_bijection_tier_builds_each_factor_once(monkeypatch):
    # One trace engine per case: a word becomes a window at most once
    # per color negation, however many digit arrays drive it.
    words = []
    real = shuffle._gsr_pairs

    def counted(word, p):
        words.append(word)
        return real(word, p)

    monkeypatch.setattr(shuffle, "_gsr_pairs", counted)
    for sign, negations in (("+", 1), ("-", 2)):  # b = 3, n = 2: nine words
        words.clear()
        assert verify._bijection_case(sign, 3, 2, 2, 2)[1]() == ""
        assert len(words) <= negations * 9


@pytest.mark.parametrize("sign, b, n, p, places", [("+", 3, 2, 1, 3), ("-", 3, 2, 2, 3)])
def test_an_exhaustive_tier_enters_at_most_60_python_frames_per_array(sign, b, n, p, places):
    # The construction runs on plain integers: no digit word is built or checked per array.
    # Set-up and the memo misses are shared out over the 729 arrays.
    calls, previous = [], sys.getprofile()
    gc.collect()
    gc.disable()
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(None))
    try:
        assert verify._bijection_case(sign, b, n, p, places)[1]() == ""
    finally:
        sys.setprofile(previous)
        gc.enable()
    assert len(calls) <= 60 * b ** (n * places)


def test_pair_window_traces_compose_by_the_engine_rule(monkeypatch):
    # Past 256 letters (here n p = 2000) windows stay pairs; the same planted fault shows.
    words = [(3, 500), (7, 2)]
    expected = compose(gsr_to_permutation(words[1], 1000), gsr_to_permutation(words[0], 1000))
    assert trace_from_words(1001, 2, 1000, words).elements[-1] == expected

    def no_colour_sum(tau_pairs, sigma_pairs, p):
        return tuple(tau_pairs[k - 1] for k, _ in sigma_pairs)

    monkeypatch.setattr(shuffle, "_compose_pairs", no_colour_sum)
    assert trace_from_words(1001, 2, 1000, words).elements[-1] != expected


def test_trace_engine_builds_nothing_before_the_first_word():
    # Nothing sized by n or p is built up front, so a refused case is refused at once.
    def hung(signum, frame):
        raise TimeoutError("the trace engine did not start within 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        for sign in "+-":
            assert callable(shuffle._composer(10**30, 10**30, sign).trace)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
