"""The percentile rule and failure accounting of the benchmark."""

import math

import pytest

from perfbench import stats
from perfbench.run import count_failures


class TestTail:
    def test_p99_needs_ten_samples_beyond(self):
        pct, value, beyond = stats.tail(list(range(1, 1001)))
        assert (pct, value, beyond) == (99.0, 990, 10)

    def test_falls_back_to_the_highest_supported_percentile(self):
        pct, _, beyond = stats.tail(list(range(999)))
        assert pct == 95.0 and beyond == 49

    def test_median_is_the_floor_and_none_below_it(self):
        assert stats.tail(list(range(20)))[0] == 50.0
        assert stats.tail(list(range(19))) is None

    def test_p999_with_ten_thousand_samples(self):
        pct, value, beyond = stats.tail(list(range(1, 10001)))
        assert (pct, value, beyond) == (99.9, 9990, 10)

    def test_nearest_rank(self):
        assert stats.percentile([5, 1, 3], 50) == 3
        assert stats.percentile([1, 2, 3, 4], 50) == 2
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class TestOpLedger:
    def test_failures_count_against_attempts(self):
        ledger = stats.OpLedger()
        first = ledger.ok(1.0)
        ledger.ok(2.0)
        ledger.fail("Overloaded")
        ledger.fail("ReproError")
        ledger.mark_wrong(first, "mismatch")
        ledger.mark_wrong(first, "mismatch")  # counted once
        assert ledger.attempted == 4
        assert ledger.failed == 3
        assert ledger.errors == {"Overloaded": 1, "ReproError": 1, "mismatch": 1}

    def test_failed_requests_miss_every_latency_limit(self):
        ledger = stats.OpLedger()
        ledger.ok(1.0)
        ledger.ok(2.0)
        for _ in range(3):
            ledger.fail("DeadlineExceeded")
        assert ledger.latencies_ms.count(math.inf) == 3
        assert stats.percentile(ledger.latencies_ms, 50) == math.inf

    def test_response_failure(self):
        assert stats.response_failure({"ok": True}) is None
        assert stats.response_failure({"ok": False, "error_type": "Overloaded"}) == "Overloaded"
        assert stats.response_failure({"ok": False}) == "error"


class TestCampaignFailures:
    def rep(self, digest="d", cells=6, records=6, quarantined=0):
        return {"digest": digest, "cells": cells, "records": records, "quarantined": quarantined}

    def test_clean_reps(self):
        assert count_failures([self.rep(), self.rep()], "d") == (12, 0, 0)

    def test_quarantined_cells_fail(self):
        reps = [self.rep(), self.rep(records=4, quarantined=2, digest="d")]
        assert count_failures(reps, "d") == (12, 2, 0)

    def test_digest_mismatch_fails_the_whole_repetition(self):
        assert count_failures([self.rep(), self.rep(digest="x")], "d") == (12, 6, 1)


def test_fastest_total_takes_each_steps_fastest_repetition():
    assert stats.fastest_total([[3.0, 1.0, 2.0], [1.0, 4.0, 2.5]]) == 4.0
    assert stats.fastest_total([[2.0, math.inf], [math.inf, 5.0]]) == 7.0


def test_spread_is_iqr_over_median():
    assert stats.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stats.spread([90, 95, 100, 105, 110]) == pytest.approx(0.15)
