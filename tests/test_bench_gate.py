"""The bench-regression gate's comparison logic (no measuring involved)."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest


SPEC = importlib.util.spec_from_file_location(
    "bench_hotpath", Path(__file__).resolve().parent.parent / "benchmarks" / "bench_hotpath.py"
)
bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench)


def recorded():
    return {
        "optimized": {
            "machine": {"cpus": 1},
            "workload": {"trainer_steps": 160},
            "graph_features": {
                "16": {"graphs_per_sec": 1000.0, "ms_per_graph": 1.0},
                "64": {"graphs_per_sec": 100.0, "ms_per_graph": 10.0},
            },
            "synthesis": {"16": {"graphs_per_sec": 80.0}},
        },
        "speedups": {
            "graph_features_n16": 2.0,
            "synthesize_curve_n16": 6.7,
            "farm_pool_over_serial": 2.4,
        },
    }


def current(**overrides):
    result = {
        "optimized": {
            "machine": {"cpus": 4},
            "workload": {"trainer_steps": 24},
            "graph_features": {"16": {"graphs_per_sec": 900.0, "ms_per_graph": 1.1}},
            "synthesis": {"8": {"graphs_per_sec": 150.0}},
        },
        "speedups": {
            "graph_features_n8": 1.0,
            "synthesize_curve_n8": 1.0,
            "farm_pool_over_serial": 1.0,
        },
    }
    result.update(overrides)
    return result


class TestCheckAgainst:
    def test_clean_pass(self):
        assert bench.check_against(recorded(), current(), tolerance=0.2) == []

    def test_widths_are_normalized_not_matched_exactly(self):
        # Recorded n16/n64 keys are satisfied by current n8 keys of the
        # same family; smoke runs at smaller widths by design.
        problems = bench.check_against(recorded(), current(), tolerance=0.2)
        assert not any("graph_features" in p for p in problems)

    def test_missing_section_fails(self):
        cur = current()
        del cur["optimized"]["synthesis"]
        cur["speedups"].pop("synthesize_curve_n8")
        problems = bench.check_against(recorded(), cur, tolerance=0.2)
        assert any("'synthesis' disappeared" in p for p in problems)
        assert any("synthesize_curve_n*" in p for p in problems)

    def test_missing_speedup_family_fails(self):
        cur = current()
        cur["speedups"].pop("farm_pool_over_serial")
        problems = bench.check_against(recorded(), cur, tolerance=0.2)
        assert any("farm_pool_over_serial" in p for p in problems)

    def test_throughput_regression_beyond_tolerance_fails(self):
        cur = current()
        cur["optimized"]["graph_features"]["16"]["graphs_per_sec"] = 100.0  # 10x down
        problems = bench.check_against(recorded(), cur, tolerance=0.2)
        assert any("graphs_per_sec regressed" in p for p in problems)

    def test_latency_regression_beyond_tolerance_fails(self):
        cur = current()
        cur["optimized"]["graph_features"]["16"]["ms_per_graph"] = 50.0
        problems = bench.check_against(recorded(), cur, tolerance=0.2)
        assert any("ms_per_graph regressed" in p for p in problems)

    def test_numbers_within_tolerance_pass(self):
        cur = current()
        # 3x slower: ugly but within the 5x noise allowance at 0.2.
        cur["optimized"]["graph_features"]["16"]["graphs_per_sec"] = 334.0
        assert bench.check_against(recorded(), cur, tolerance=0.2) == []

    def test_unmatched_widths_are_structure_only(self):
        # Recorded synthesis is n16, current is n8: no number comparison.
        cur = current()
        cur["optimized"]["synthesis"]["8"]["graphs_per_sec"] = 0.001
        assert bench.check_against(recorded(), cur, tolerance=0.2) == []

    def test_real_bench_json_passes_against_itself(self):
        import json

        path = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
        data = json.loads(path.read_text())
        assert bench.check_against(data, data, tolerance=0.2) == []


class TestProfileHelp:
    def test_help_names_exactly_the_profile_sections(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["bench_hotpath.py", "--help"])
        with pytest.raises(SystemExit):
            bench.main()
        help_text = " ".join(capsys.readouterr().out.split())
        listed = re.search(r"\(sections: ([^)]*)\)", help_text).group(1)
        assert listed.split(", ") == list(bench.profile_sections())
