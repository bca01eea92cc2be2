"""Descent tables, a deformed Stirling triangle, and matrix symmetries.

The left eigenvector matrix of the carries chain is a table of descent
counts on colored permutations, and the top row of the right matrix is a
p-deformed version of the Stirling numbers of the first kind.  This
walk-through rebuilds both tables from their recursions, checks them
against brute-force enumeration of the group, and displays the exact
symmetries of the transition matrix.
"""

from math import factorial

from carrieslab import (
    descent_count,
    descent_statistics,
    duality_check_left,
    duality_check_right,
    enumerate_group,
    left_eigen_matrix,
    make_process,
    right_eigen_matrix,
    stirling_frobenius,
    symmetry_check,
)


def main() -> None:
    print("Eulerian numbers (plain permutations) from the recursion:")
    for n in range(1, 5):
        print(f"    n = {n}:", descent_statistics(n, 1))

    n, p = 3, 2
    print(f"\nSigned permutations, n = {n}: recursion vs brute force over all")
    print(f"{len(list(enumerate_group(n, p)))} group elements.")
    table = descent_statistics(n, p)
    histogram = [0] * (n + 1)
    for sigma in enumerate_group(n, p):
        histogram[descent_count(sigma)] += 1
    print("    recursion  :", table)
    print("    enumeration:", tuple(histogram))
    assert table == tuple(histogram)

    dash = descent_statistics(n, p, variant="dash")
    print("The companion statistic reverses the table:", dash)
    assert dash == table[::-1]

    print("\nRows of the deformed first-kind triangle, and the identity")
    print("tying them to the top row of the right eigenvector matrix:")
    for p in (2, 3):
        for n in range(1, 4):
            row = stirling_frobenius(n, p)
            scaled = right_eigen_matrix(n, p).scale(p**n * factorial(n))
            top = tuple(scaled[0][j] for j in range(scaled.dim))
            assert row == top[::-1]
        print(f"    p = {p}, n = 3:", stirling_frobenius(3, p))
    print("    p = 1, n = 3:", stirling_frobenius(3, 1),
          " (leading 0; the rest are unsigned first-kind Stirling numbers)")

    print("\nThe left matrix is base-free, so one duality swaps it across")
    print("signs; a second one reflects the right matrix.  Checked exactly:")
    for n in (2, 3, 4):
        assert duality_check_left(n, 2) and duality_check_right(n, 2)
    print("    dualities hold for n = 2, 3, 4 at p = 2")

    print("\nSymmetries of the transition matrix itself:")
    for sign, b, n, p in (("+", 3, 3, 1), ("-", 3, 2, 2), ("+", 4, 2, 3)):
        found = symmetry_check(make_process(sign, b, n, p))
        tags = ", ".join(sorted(key for key, ok in found.items() if ok))
        print(f"    ({sign}, b={b}, n={n}, p={p}): {tags}")


if __name__ == "__main__":
    main()
