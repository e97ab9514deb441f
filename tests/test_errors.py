import math
import time

import pytest

from specbound.errors import InvalidInputError, ResourceLimitError, check_budget, max_exponent


class TestMaxExponent:
    def test_matches_powers(self):
        for base in range(2, 13):
            for budget in range(1, 2000):
                k = max_exponent(base, budget)
                assert base ** k <= budget < base ** (k + 1), (base, budget)

    def test_budgets_of_the_package(self):
        assert max_exponent(3, 10 ** 7) == 14
        assert max_exponent(4, 10 ** 6) == 9
        assert max_exponent(707, 5 * 10 ** 5) == 2
        assert max_exponent(708, 5 * 10 ** 5) == 1
        assert max_exponent(10 ** 6 + 1, 10 ** 6) == 0
        assert max_exponent(int("9" * 4000), 10 ** 7) == 0

    @pytest.mark.parametrize("base", [-1, 0, 1])
    def test_base_below_2_rejected(self, base):
        # no power of -1, 0 or 1 ever passes the budget, so the search would not end
        with pytest.raises(InvalidInputError, match=rf"^power base must be >= 2, got {base}$"):
            max_exponent(base, 10)
        with pytest.raises(InvalidInputError):
            check_budget("x", base, 10, exponent=5)


class TestCheckBudget:
    def test_admits_up_to_the_budget(self):
        check_budget("points", 10 ** 7, 10 ** 7)
        check_budget("points", 3, 10 ** 7, 14)
        check_budget("points", 3, 1, 0)
        with pytest.raises(ResourceLimitError, match=r"^points = 10000001, over the 1e\+07 budget$"):
            check_budget("points", 10 ** 7 + 1, 10 ** 7)
        with pytest.raises(ResourceLimitError, match=r"^points = 3\*\*15, over the 1e\+07 budget$"):
            check_budget("points", 3, 10 ** 7, 15)

    def test_nan_fails(self):
        with pytest.raises(ResourceLimitError, match=r"= nan, over the 2e\+05 budget"):
            check_budget("solves", math.nan, 2 * 10 ** 5)

    def test_power_is_not_built(self):
        # 3**(10**9) would take minutes to build and cannot be printed
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match=r"^grid points = 3\*\*1000000000, over"):
            check_budget("grid points", 3, 10 ** 7, 10 ** 9)
        assert time.monotonic() - start < 0.1

    def test_long_count_shown_by_its_size(self):
        nines = int("9" * 4000)
        with pytest.raises(ResourceLimitError, match=r"^rows = a 13288-bit number, over"):
            check_budget("rows", nines, 10 ** 7)
        with pytest.raises(ResourceLimitError, match=r"^rows = a 26576-bit number, over"):
            check_budget("rows", nines * nines, 10 ** 7)
        with pytest.raises(ResourceLimitError, match=r"^grid = \(a 13288-bit number\)\*\*2, over"):
            check_budget("grid", nines, 10 ** 7, 2)
        with pytest.raises(ResourceLimitError, match=r"^rows = 340282366920938463463374607431768211455, over"):
            check_budget("rows", 2 ** 128 - 1, 10 ** 7)
