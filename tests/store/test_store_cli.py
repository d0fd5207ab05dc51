"""Warm-restart smoke gate: ``--store-dir`` makes reruns synthesis-free.

Run by the CI store-smoke job: a deterministic ``repro train`` against a
store directory, rerun against the same directory, pays **zero** synthesis
misses the second time.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def run_cli(*args, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def cache_counters(stdout: str) -> "tuple[int, int, int]":
    m = re.search(r"cache: LayeredStore\(entries=(\d+), hits=(\d+), misses=(\d+)", stdout)
    assert m, stdout
    return int(m.group(1)), int(m.group(2)), int(m.group(3))


@pytest.mark.slow
def test_train_rerun_against_the_same_store_pays_zero_misses(tmp_path):
    store = tmp_path / "curves"
    args = ("train", "8", "--steps", "40", "--seed", "3", "--store-dir", str(store))

    cold = run_cli(*args)
    assert cold.returncode == 0, cold.stderr
    _, _, cold_misses = cache_counters(cold.stdout)
    assert cold_misses > 0  # the cold run actually synthesized
    assert list(store.glob("seg-*.crv")), "no segment files written"

    warm = run_cli(*args)
    assert warm.returncode == 0, warm.stderr
    warm_entries, warm_hits, warm_misses = cache_counters(warm.stdout)
    # Every curve the deterministic rerun needs is already on disk.
    assert warm_misses == 0, warm.stdout
    assert warm_hits > 0
    assert warm_entries >= cold_misses
    # The frontiers of the two runs are identical: disk curves are
    # byte-identical to the memory path, so training is unperturbed.
    def frontier(out):
        return out[out.index("frontier") :]

    assert frontier(warm.stdout) == frontier(cold.stdout)
