"""The partition generating functions, as power series in q truncated at a
cutoff n: the tuple of their coefficients of q^0..q^n."""

from __future__ import annotations

from .errors import BudgetExceeded, InputError

__all__ = ["two_row_partition_series", "drezet_series"]

# The most coefficient updates that one partition series may make; n = 3000
# in the two-row series, about 9 * 10^6 updates, takes over a second.
UPDATE_BUDGET = 10 ** 6


def _check_budget(required):
    if required > UPDATE_BUDGET:
        raise BudgetExceeded(f"the series needs {required} coefficient updates",
                             required=required, budget=UPDATE_BUDGET)


def _series(n, blocks):
    """Coefficients 0..n of (1 - q) * prod_{i in blocks} (1 - q^i)^{-1}."""
    c = [1] + [0] * n
    for i in blocks:
        for k in range(i, n + 1):
            c[k] += c[k - i]
    for k in range(n, 0, -1):
        c[k] -= c[k - 1]
    return tuple(c)


def two_row_partition_series(n):
    """Coefficients 0..n of (1 - q) * prod_{i>=1} (1 - q^i)^{-2}.

    The coefficient of q^k counts two-row plane partitions of weight k; the
    product may be truncated at i = n without changing anything below the
    cutoff.
    """
    if n < 0:
        raise InputError("cutoff must be nonnegative")
    # two divisions by each 1 - q^i, of n + 1 - i updates each
    _check_budget(n * (n + 1))
    return _series(n, [*range(1, n + 1)] * 2)


def drezet_series(d, e, n):
    """Coefficients 0..n of (1-q) prod_{i<=d}(1-q^i)^{-1} prod_{i<=e}(1-q^i)^{-1}."""
    if d < 1 or e < 1:
        raise InputError("both block sizes must be at least 1")
    if n < 0:
        raise InputError("cutoff must be nonnegative")
    # one division by each 1 - q^i, of at most n updates each
    _check_budget(n * (min(d, n) + min(e, n)))
    return _series(n, [*range(1, min(d, n) + 1), *range(1, min(e, n) + 1)])
