"""The bijection: carries of an addition are descents of riffle shuffles.

Adding n random base-b numbers produces a sequence of carries.  Dealing
the same digits through a re-indexing pipeline produces a sequence of
colored riffle shuffles, and the descent count after r shuffles is
exactly the r-th carry -- digit row by digit row, not just in law.  This
walk-through runs the pipeline in both base signs on random summands,
then checks the single-shuffle law against direct enumeration.
"""

import random
from fractions import Fraction

from carrieslab import (
    MultiDigitWord,
    bijection_minus,
    bijection_plus,
    descent_count,
    enumerate_group,
    gsr_to_permutation,
    make_process,
    shuffle_probability,
    simulate_trace,
)


def random_summands(b: int, n: int, places: int, rng: random.Random) -> MultiDigitWord:
    rows = tuple(tuple(rng.randrange(b) for _ in range(places)) for _ in range(n))
    return MultiDigitWord(b, rows)


def main() -> None:
    rng = random.Random(99)

    b, n, p, places = 7, 4, 3, 5
    print(f"Adding n = {n} random base-{b} numbers, {places} digits each (p = {p}).")
    summands = random_summands(b, n, places, rng)
    for row, value in zip(summands.rows, summands.row_values()):
        print(f"    digits {row}  =  {value}")
    trace = simulate_trace(make_process("+", b, n, p), places, columns=summands.columns())
    print("Carries, least significant column first:", trace.kappas[1:])

    shuffles = bijection_plus(summands, p)
    print("The same digits, rearranged into shuffle words:")
    for step, (word, element, descents) in enumerate(
        zip(shuffles.words, shuffles.elements, shuffles.descents), start=1
    ):
        print(f"    step {step}: word {word}  composition {element.to_text()}"
              f"  descents {descents}")
    assert shuffles.descents == trace.kappas[1:]
    print("Descent counts match the carries exactly.")

    b, n, p, places = 5, 3, 2, 4
    print(f"\nSame story over base -{b} (n = {n}, p = {p}): the pipeline flips")
    print("every second digit place and negates colors on even steps.")
    summands = random_summands(b, n, places, rng)
    trace = simulate_trace(make_process("-", b, n, p), places, columns=summands.columns())
    shuffles = bijection_minus(summands, p)
    print("    negative-base carries:", trace.kappas[1:])
    print("    matched descent stats:", shuffles.descents)
    assert shuffles.descents == trace.kappas[1:]

    b, n, p = 3, 2, 2
    print(f"\nLaw of a single b = {b} shuffle of {p}-colored {n}-card decks,")
    print("closed form against enumeration of all b^n dealt words:")
    counts: dict = {}
    for value in range(b**n):
        word = tuple((value // b**k) % b for k in range(n))
        counts[gsr_to_permutation(word, p).pairs] = (
            counts.get(gsr_to_permutation(word, p).pairs, 0) + 1
        )
    total = Fraction(0)
    for sigma in enumerate_group(n, p):
        prob = shuffle_probability(sigma, b)
        assert prob == Fraction(counts.get(sigma.pairs, 0), b**n)
        total += prob
        if prob:
            print(f"    {sigma.to_text():>12}  d = {descent_count(sigma)}  prob {prob}")
    assert total == 1
    print("Probabilities sum to exactly 1.")


if __name__ == "__main__":
    main()
