"""Exact moments of the carry: closed forms against an exact oracle.

The centred mean of the carry decays like (+-b)^-r, and its variance
climbs to (n+1)/12 at a rate independent of the start state.  This
walk-through evaluates the closed forms, recomputes each number from
integer vectors walked through the transition matrix, and visits the one
family of parameters (a single summand) where only the oracle answers.
"""

from carrieslab import (
    covariance_conditional,
    make_process,
    mean_conditional,
    moments_oracle,
    stationary_moments,
    variance_conditional,
)


def main() -> None:
    params = make_process("+", 10, 3, 1)
    print("Base 10, three summands, cold start.  Closed form vs integer-walk oracle:")
    print("    r        mean (both)          variance (both)")
    for r in range(5):
        oracle = moments_oracle(params, r, start=0)
        mean = mean_conditional(params, r, 0)
        var = variance_conditional(params, r)
        assert oracle.mean == mean and oracle.variance == var
        print(f"    {r}    {str(mean):>12}    {str(var):>16}")
    print("The mean heads to (n+1)/2 - 1/p = 1 and the variance to (n+1)/12 = 1/3.")

    print("\nOver base -3 the lag-r autocovariance alternates in sign:")
    params = make_process("-", 3, 2, 2)
    for r in range(1, 5):
        cov = covariance_conditional(params, 2, r, 0)
        assert cov == moments_oracle(params, r, s=2, start=0).covariance
        print(f"    lag {r}:  Cov = {cov}")

    mean, var = stationary_moments(params, 0)
    _, lag1 = stationary_moments(params, 1)
    print(f"Stationary mean {mean}, variance {var}, lag-1 autocovariance {lag1}.")

    print("\nWith a single summand the chain is too small to carry the")
    print("quadratic eigenfunction behind the variance formula, so the")
    print("closed form refuses and the oracle takes over:")
    params = make_process("+", 3, 1, 2)
    try:
        variance_conditional(params, 1)
    except ValueError as exc:
        print(f"    closed form: {exc}")
    oracle = moments_oracle(params, 1, start=0)
    print(f"    oracle:      Var = {oracle.variance} (the formula would say 4/27)")


if __name__ == "__main__":
    main()
