"""From column addition to an exactly diagonalizable Markov chain.

When n numbers are added digit by digit, the running carry is a Markov
chain on a small set of integers.  This walk-through builds its exact
transition matrix for the classical base-10 case and for a negative
base, factors the matrix through its two eigenvector matrices, and
watches the law of the carry converge to stationarity at the geometric
rate set by the base.
"""

from fractions import Fraction

from carrieslab import (
    eigen_system,
    make_process,
    stationary_fixed_point,
    transition_matrix,
)


def show(matrix) -> None:
    width = max(len(str(x)) for row in matrix.rows for x in row)
    for row in matrix.rows:
        print("   ", "  ".join(f"{str(x):>{width}}" for x in row))


def main() -> None:
    print("Three summands, base 10, ordinary digits 0..9.")
    params = make_process("+", 10, 3, 1)
    matrix = transition_matrix(params)
    print(f"The carry lives on {params.state_count} states; P(i, j) is exact:")
    show(matrix)

    system = eigen_system(params)
    print("\nEigenvalues are pure powers of 1/b:", ", ".join(map(str, system.eigenvalues)))
    print("Row i of L and column i of R are the matching eigenvector pairs;")
    print("L does not depend on b, and R is its exact inverse.  Left matrix:")
    show(system.left)

    pi = stationary_fixed_point(params)
    print("\nStationary law (row 0 of L, normalized):", ", ".join(map(str, pi)))

    print("\nDistance to stationarity from a cold start, shrinking like 1/b:")
    law = tuple(Fraction(int(i == 0)) for i in range(params.state_count))
    for step in range(5):
        distance = sum(abs(x - y) for x, y in zip(law, pi)) / 2
        ratio = distance * params.b**step
        print(f"    after {step} steps  tv = {str(distance):>12}   tv * b^step = {ratio}")
        law = matrix.row_mul(law)

    print("\nThe same machinery runs over a negative base.  Base -2, n = 2:")
    params = make_process("-", 2, 2, 1)
    show(transition_matrix(params))
    values = eigen_system(params).eigenvalues
    print("Eigenvalues now alternate in sign:", ", ".join(map(str, values)))
    print("so the chain overshoots and corrects as it settles into")
    print("its stationary law:", ", ".join(map(str, stationary_fixed_point(params))))


if __name__ == "__main__":
    main()
