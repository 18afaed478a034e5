"""Unit tests for the exact integer units of time, cost and bytes."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import CostModelConfig
from repro.sim import units


class TestPageShares:
    @given(st.integers(min_value=0, max_value=8192), st.integers(1, 400))
    def test_row_shares_sum_to_bytes_used(self, total, rows):
        shares = [
            units.share_prefix(total, rows, j + 1)
            - units.share_prefix(total, rows, j)
            for j in range(rows)
        ]
        assert sum(shares) == total
        q = total // rows
        assert set(shares) <= {q, q + 1}
        assert units.share_prefix(total, rows, rows) == total
        assert units.share_prefix(total, rows, 0) == 0

    def test_extra_bytes_go_to_the_first_rows(self):
        # 10 bytes over 4 rows: 3, 3, 2, 2.
        prefix = [units.share_prefix(10, 4, k) for k in range(5)]
        assert prefix == [0, 3, 6, 8, 10]


class TestConversions:
    def test_default_cost_model_converts_exactly(self):
        cost = CostModelConfig()
        t = units.cost_ticks(cost)
        assert t.seq_page_read == 160_000
        assert t.cpu_tuple == 100
        assert t.cpu_operator == 400
        assert t.cpu_hash == t.cpu_compare == 200
        assert units.cost_ticks(cost) is t  # converted once per config

    def test_paper_load_factors_are_exact(self):
        assert units.factor(2.5) == 2500
        assert units.factor(3.0) == 3000
        assert units.factor(1.0) == units.FACTOR_ONE

    def test_factor_that_rounds_to_zero_is_rejected(self):
        with pytest.raises(ValueError):
            units.factor(1e-6)

    def test_instants_round_trip_to_seconds(self):
        for s in (0.0, 0.16, 10.0, 101.76, 1825.411):
            assert units.seconds(units.instant(s)) == s
        assert units.instant(math.inf) == units.NEVER

    def test_reprice_rounds_to_nearest(self):
        assert units.reprice(2999, 3000, 1000) == 1000
        assert units.reprice(2998, 3000, 1000) == 999
        assert units.reprice(4000, 1000, 2500) == 10000
