"""Truncated power series and the partition generating functions."""

from __future__ import annotations

from .errors import BudgetExceeded, InputError

__all__ = ["TruncatedSeries", "two_row_partition_series", "drezet_series"]

# The most coefficient updates that one partition series may make; n = 3000
# in the two-row series, about 9 * 10^6 updates, takes over a second.
UPDATE_BUDGET = 10 ** 6


def _check_budget(required):
    if required > UPDATE_BUDGET:
        raise BudgetExceeded(f"the series needs {required} coefficient updates",
                             required=required, budget=UPDATE_BUDGET)


class TruncatedSeries:
    """Power series in q kept exactly up to a fixed cutoff degree."""

    __slots__ = ("coeffs", "cutoff")

    def __init__(self, coeffs, cutoff):
        if cutoff < 0:
            raise InputError("cutoff must be nonnegative")
        coeffs = list(coeffs)
        if len(coeffs) > cutoff + 1:
            raise InputError("more coefficients than the cutoff allows")
        coeffs += [0] * (cutoff + 1 - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "cutoff", cutoff)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def one(cls, cutoff):
        return cls([1], cutoff)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.cutoff == other.cutoff and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.cutoff))

    def times_one_minus_qk(self, k):
        """Multiply by (1 - q^k)."""
        out = list(self.coeffs)
        for i in range(self.cutoff, k - 1, -1):
            out[i] -= self.coeffs[i - k]
        return TruncatedSeries(out, self.cutoff)

    def divide_one_minus_qk(self, k):
        """Multiply by the inverse of (1 - q^k)."""
        out = list(self.coeffs)
        for i in range(k, self.cutoff + 1):
            out[i] += out[i - k]
        return TruncatedSeries(out, self.cutoff)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)}, cutoff={self.cutoff})"


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
    s = TruncatedSeries.one(n)
    for i in range(1, n + 1):
        s = s.divide_one_minus_qk(i).divide_one_minus_qk(i)
    return s.times_one_minus_qk(1) if n >= 1 else s


def drezet_series(d, e, n):
    """Coefficients 0..n of (1-q) prod_{i<=d}(1-q^i)^{-1} prod_{i<=e}(1-q^i)^{-1}."""
    if d < 1 or e < 1:
        raise InputError("both block sizes must be at least 1")
    if n < 0:
        raise InputError("cutoff must be nonnegative")
    # one division by each 1 - q^i, of at most n updates each
    _check_budget(n * (min(d, n) + min(e, n)))
    s = TruncatedSeries.one(n)
    for i in range(1, min(d, n) + 1):
        s = s.divide_one_minus_qk(i)
    for i in range(1, min(e, n) + 1):
        s = s.divide_one_minus_qk(i)
    return s.times_one_minus_qk(1) if n >= 1 else s
