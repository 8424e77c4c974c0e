"""``benchmarks/bench_compare.py`` — the regression gate with attribution.

Covers the comparison rules (median/p95/p99 fields, lower-is-better,
threshold both ways) and the acceptance scenario: a seeded synthetic
regression whose records carry ``profile`` sections makes the report
name the operator responsible, not just a percentage.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_compare import main, median_fields  # noqa: E402


def _write(directory: Path, filename: str, document: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename
    path.write_text(json.dumps(document))
    return path


@pytest.fixture()
def dirs(tmp_path):
    return tmp_path / "bench", tmp_path / "history"


class TestMedianFields:
    def test_matches_median_p95_p99(self):
        record = {
            "live_median_ms": 10.0,
            "frozen_p95_ms": 20,
            "p99_ms": 30.5,
            "workers": 4,
            "profiled": True,
            "name": "x",
        }
        assert median_fields(record) == {
            "live_median_ms": 10.0,
            "frozen_p95_ms": 20.0,
            "p99_ms": 30.5,
        }

    def test_booleans_are_not_numbers(self):
        assert median_fields({"median_ok": True}) == {}


class TestCompareGate:
    def test_first_record_passes(self, dirs, capsys):
        bench, history = dirs
        _write(bench, "BENCH_x.json", {"median_ms": 10.0})
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history)]) == 0
        assert "first record" in capsys.readouterr().out
        # And it was archived as the new baseline.
        assert (history / "BENCH_x.json.1").exists()

    def test_within_threshold_passes(self, dirs):
        bench, history = dirs
        _write(bench, "BENCH_x.json", {"median_ms": 11.0})
        _write(history, "BENCH_x.json.1", {"median_ms": 10.0})
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history), "--no-archive"]) == 0

    def test_median_regression_fails(self, dirs, capsys):
        bench, history = dirs
        _write(bench, "BENCH_x.json", {"median_ms": 15.0})
        _write(history, "BENCH_x.json.1", {"median_ms": 10.0})
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history), "--no-archive"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_p95_and_p99_regressions_detected(self, dirs, capsys):
        # Satellite: the tail fields gate too, not just the median.
        bench, history = dirs
        _write(bench, "BENCH_x.json",
               {"median_ms": 10.0, "p95_ms": 40.0, "p99_ms": 90.0})
        _write(history, "BENCH_x.json.1",
               {"median_ms": 10.0, "p95_ms": 20.0, "p99_ms": 30.0})
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history), "--no-archive"]) == 1
        out = capsys.readouterr().out
        assert "p95_ms: 20 -> 40" in out
        assert "p99_ms: 30 -> 90" in out

    def test_improvement_reported_not_fatal(self, dirs, capsys):
        bench, history = dirs
        _write(bench, "BENCH_x.json", {"median_ms": 5.0})
        _write(history, "BENCH_x.json.1", {"median_ms": 10.0})
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history), "--no-archive"]) == 0
        out = capsys.readouterr().out
        assert "IMPROVEMENT" in out
        assert "1 improvement(s)" in out

    def test_archives_fresh_records_with_next_sequence(self, dirs):
        bench, history = dirs
        _write(bench, "BENCH_x.json", {"median_ms": 10.0})
        _write(history, "BENCH_x.json.3", {"median_ms": 10.0})
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history)]) == 0
        assert (history / "BENCH_x.json.4").exists()

    def test_empty_bench_dir_is_a_noop(self, dirs, capsys):
        bench, history = dirs
        bench.mkdir(parents=True)
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history)]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_archived_record_without_fresh_counterpart_is_ignored(
        self, dirs, capsys
    ):
        # A retired experiment (e.g. BENCH_delta_overlay.json) keeps its
        # archived baselines; with no fresh record it is never diffed.
        bench, history = dirs
        _write(bench, "BENCH_x.json", {"median_ms": 10.0})
        _write(history, "BENCH_x.json.1", {"median_ms": 10.0})
        _write(history, "BENCH_retired.json.1", {"median_ms": 1.0})
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history), "--no-archive"]) == 0
        out = capsys.readouterr().out
        assert "retired" not in out
        assert "1 record(s) within" in out


class TestAttribution:
    def _seeded_regression(self, bench, history):
        """A 3x median regression whose profile blames one operator:
        ``rows_scanned`` (and with it CP-3.2) exploded; everything else
        is flat."""
        previous = {
            "median_ms": 10.0,
            "profile": {
                "operators": {"rows_scanned": 1000, "heap_inserts": 50},
                "cps": {"3.2": 1000, "8.5": 50},
                "span_us": {"scan_messages": 9000},
            },
        }
        current = {
            "median_ms": 30.0,
            "profile": {
                "operators": {"rows_scanned": 50000, "heap_inserts": 50},
                "cps": {"3.2": 50000, "8.5": 50},
                "span_us": {"scan_messages": 27000},
            },
        }
        _write(bench, "BENCH_power.json", current)
        _write(history, "BENCH_power.json.1", previous)

    def test_regression_names_the_suspect_operator(self, dirs, capsys):
        bench, history = dirs
        self._seeded_regression(bench, history)
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history), "--no-archive"]) == 1
        out = capsys.readouterr().out
        assert "attribution" in out
        # The exploded counter, its choke point and its span all appear;
        # the flat operator does not.
        assert "rows_scanned" in out
        assert "3.2" in out
        assert "scan_messages" in out
        assert "heap_inserts" not in out

    def test_no_attribution_without_profile_sections(self, dirs, capsys):
        bench, history = dirs
        _write(bench, "BENCH_x.json", {"median_ms": 30.0})
        _write(history, "BENCH_x.json.1", {"median_ms": 10.0})
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history), "--no-archive"]) == 1
        assert "attribution" not in capsys.readouterr().out

    def test_top_n_limits_rows_per_axis(self, dirs, capsys):
        bench, history = dirs
        previous = {
            "median_ms": 10.0,
            "profile": {"operators": {f"op{i}": 10 for i in range(8)}},
        }
        current = {
            "median_ms": 30.0,
            "profile": {
                # op0 grew the most, op7 the least.
                "operators": {f"op{i}": 10 * (9 - i) for i in range(8)}
            },
        }
        _write(bench, "BENCH_x.json", current)
        _write(history, "BENCH_x.json.1", previous)
        assert main(["--bench-dir", str(bench),
                     "--history-dir", str(history),
                     "--no-archive", "--top", "2"]) == 1
        out = capsys.readouterr().out
        assert "op0" in out and "op1" in out
        assert "op6" not in out and "op7" not in out
