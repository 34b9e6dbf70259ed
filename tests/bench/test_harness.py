"""Unit tests for the benchmark harness (tiny configurations)."""

from __future__ import annotations

import pytest

from repro.bench import (
    fig8_rows,
    fig9_rows,
    fig10_rows,
    fig11_rows,
    fig12_rows,
    format_table,
)


class TestFormatTable:
    def test_alignment_and_title(self):
        table = format_table(
            "My title", ["x", "value"], [(1, 2.0), (10, 3.25)]
        )
        lines = table.splitlines()
        assert lines[0] == "My title"
        assert "x" in lines[1] and "value" in lines[1]
        assert set(lines[2].replace(" ", "")) == {"-"}
        assert "3.2500" in lines[4]

    def test_handles_strings_and_ints(self):
        table = format_table("t", ["a", "b"], [("central", 7)])
        assert "central" in table
        assert "7" in table


class TestFigureFunctionsSmall:
    """Each figure function runs on tiny configs and returns sane rows."""

    def test_fig8_rows(self):
        rows = fig8_rows(
            sizes=(1, 2), updates_between_recons=2, participants=3, rounds=1
        )
        assert [size for size, _r in rows] == [1, 2]
        for _size, ratio in rows:
            assert 1.0 <= ratio <= 3.0

    def test_fig9_rows(self):
        rows = fig9_rows(intervals=(1, 2), participants=3, transactions_per_peer=4)
        assert [interval for interval, _r in rows] == [1, 2]
        for _interval, ratio in rows:
            assert 1.0 <= ratio <= 3.0

    def test_fig10_rows(self):
        rows = fig10_rows(
            intervals=(2,),
            stores=("central", "distributed"),
            participants=3,
            transactions_per_peer=4,
        )
        assert len(rows) == 2
        for _interval, store, store_s, local_s, total_s in rows:
            assert store in ("central", "distributed")
            assert total_s == pytest.approx(store_s + local_s)
            assert total_s > 0

    def test_fig11_rows(self):
        rows = fig11_rows(peer_counts=(2, 3), interval=2, rounds=1)
        assert [peers for peers, _r in rows] == [2, 3]
        for peers, ratio in rows:
            assert 1.0 <= ratio <= peers

    def test_fig12_rows(self):
        rows = fig12_rows(
            peer_counts=(3,), stores=("central",), interval=2, rounds=1
        )
        [(peers, store, store_s, local_s, total_s)] = rows
        assert peers == 3 and store == "central"
        assert total_s == pytest.approx(store_s + local_s)


class TestRegressionGate:
    """The multi-benchmark CI gate (benchmarks/check_regression.py)."""

    def _write(self, path, point):
        import json

        path.write_text(json.dumps(point))
        return path

    def _baseline(self, tmp_path, speedups):
        return self._write(
            tmp_path / "baseline.json",
            {
                "schema_version": 2,
                "benchmarks": {
                    name: {"benchmark": name, "speedup": speedup}
                    for name, speedup in speedups.items()
                },
            },
        )

    def test_all_points_within_threshold_pass(self, tmp_path):
        from benchmarks.check_regression import main

        baseline = self._baseline(
            tmp_path, {"engine_reconciliation": 4.0, "dht_network_centric": 3.0}
        )
        engine = self._write(
            tmp_path / "e.json",
            {"benchmark": "engine_reconciliation", "speedup": 3.9},
        )
        dht = self._write(
            tmp_path / "d.json",
            {"benchmark": "dht_network_centric", "speedup": 2.8},
        )
        assert main([str(engine), str(dht), "--baseline", str(baseline)]) == 0

    def test_any_regressed_point_fails(self, tmp_path):
        from benchmarks.check_regression import main

        baseline = self._baseline(
            tmp_path, {"engine_reconciliation": 4.0, "dht_network_centric": 3.0}
        )
        engine = self._write(
            tmp_path / "e.json",
            {"benchmark": "engine_reconciliation", "speedup": 3.9},
        )
        dht = self._write(
            tmp_path / "d.json",
            {"benchmark": "dht_network_centric", "speedup": 2.0},
        )
        assert main([str(engine), str(dht), "--baseline", str(baseline)]) == 1

    def test_budgeted_metrics_within_ceiling_pass(self, tmp_path):
        from benchmarks.check_regression import main

        baseline = self._write(
            tmp_path / "baseline.json",
            {
                "schema_version": 3,
                "benchmarks": {
                    "dht_network_centric": {
                        "benchmark": "dht_network_centric",
                        "speedup": 2.9,
                        "budgets": {"message_ratio": 1.8, "byte_ratio": 1.5},
                    }
                },
            },
        )
        fresh = self._write(
            tmp_path / "d.json",
            {
                "benchmark": "dht_network_centric",
                "speedup": 3.5,
                "message_ratio": 1.7,
                "byte_ratio": 1.3,
            },
        )
        assert main([str(fresh), "--baseline", str(baseline)]) == 0

    def test_budget_overrun_fails_even_with_good_speedup(self, tmp_path):
        from benchmarks.check_regression import main

        baseline = self._write(
            tmp_path / "baseline.json",
            {
                "schema_version": 3,
                "benchmarks": {
                    "dht_network_centric": {
                        "benchmark": "dht_network_centric",
                        "speedup": 2.9,
                        "budgets": {"message_ratio": 1.8},
                    }
                },
            },
        )
        fresh = self._write(
            tmp_path / "d.json",
            {
                "benchmark": "dht_network_centric",
                "speedup": 5.0,
                "message_ratio": 2.4,
            },
        )
        assert main([str(fresh), "--baseline", str(baseline)]) == 1

    def test_missing_budgeted_metric_fails(self, tmp_path):
        from benchmarks.check_regression import main

        baseline = self._write(
            tmp_path / "baseline.json",
            {
                "schema_version": 3,
                "benchmarks": {
                    "dht_network_centric": {
                        "benchmark": "dht_network_centric",
                        "speedup": 2.9,
                        "budgets": {"byte_ratio": 1.5},
                    }
                },
            },
        )
        fresh = self._write(
            tmp_path / "d.json",
            {"benchmark": "dht_network_centric", "speedup": 3.5},
        )
        assert main([str(fresh), "--baseline", str(baseline)]) == 1

    def test_baseline_without_benchmarks_map_is_an_error(self, tmp_path):
        import pytest as _pytest

        from benchmarks.check_regression import main

        # The pre-v2 flat layout: a single point, no "benchmarks" map.
        baseline = self._write(
            tmp_path / "baseline.json",
            {"benchmark": "engine_reconciliation", "speedup": 4.0},
        )
        fresh = self._write(
            tmp_path / "e.json",
            {"benchmark": "engine_reconciliation", "speedup": 4.1},
        )
        with _pytest.raises(SystemExit) as exited:
            main([str(fresh), "--baseline", str(baseline)])
        assert exited.value.code != 0
        assert "has no 'benchmarks' map" in str(exited.value.code)

    def test_unknown_benchmark_name_is_an_error(self, tmp_path):
        import pytest as _pytest

        from benchmarks.check_regression import main

        baseline = self._baseline(tmp_path, {"engine_reconciliation": 4.0})
        fresh = self._write(
            tmp_path / "x.json", {"benchmark": "mystery", "speedup": 1.0}
        )
        with _pytest.raises(SystemExit):
            main([str(fresh), "--baseline", str(baseline)])
