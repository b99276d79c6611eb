import pytest

from quivermoduli.errors import BudgetExceeded, InputError
from quivermoduli.series import UPDATE_BUDGET, drezet_series, two_row_partition_series


class TestPartitionSeries:
    def test_two_row_reference_values(self):
        assert list(two_row_partition_series(6)) == [1, 1, 3, 5, 10, 16, 29]

    def test_two_row_small(self):
        assert list(two_row_partition_series(0)) == [1]
        assert list(two_row_partition_series(1)) == [1, 1]

    def test_drezet_stabilizes_to_two_row(self):
        # large block sizes reproduce the two-row series below the cutoff
        assert drezet_series(6, 6, 6) == two_row_partition_series(6)

    def test_drezet_small(self):
        # (1-q)/(1-q)^2 = 1/(1-q)
        assert list(drezet_series(1, 1, 4)) == [1, 1, 1, 1, 1]

    def test_input_validation(self):
        with pytest.raises(InputError):
            drezet_series(0, 1, 3)
        with pytest.raises(InputError):
            two_row_partition_series(-1)

    def test_update_budget(self):
        # the largest two-row cutoff within the budget runs; one more refuses
        # before it starts, as does a Drezet series with a huge cutoff
        n = max(n for n in range(2000) if n * (n + 1) <= UPDATE_BUDGET)
        assert len(two_row_partition_series(n)) == n + 1
        with pytest.raises(BudgetExceeded) as exc:
            two_row_partition_series(n + 1)
        assert exc.value.required == (n + 1) * (n + 2)
        assert exc.value.budget == UPDATE_BUDGET
        with pytest.raises(BudgetExceeded):
            drezet_series(2, 10 ** 9, 10 ** 9)
        assert drezet_series(10 ** 9, 10 ** 9, 28) == two_row_partition_series(28)
