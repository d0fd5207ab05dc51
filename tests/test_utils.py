"""Utility-layer tests: RNG plumbing, scale profiles, ASCII rendering, the BLAS thread default."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.utils import ensure_rng, format_table, run_scale, scatter_plot, spawn_rngs


class TestRng:
    def test_none_is_deterministic(self):
        a = ensure_rng(None).integers(1000)
        b = ensure_rng(None).integers(1000)
        assert a == b

    def test_int_seed(self):
        assert ensure_rng(5).integers(1000) == ensure_rng(5).integers(1000)
        assert ensure_rng(5).integers(1000) != ensure_rng(6).integers(1000)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_spawn_independent_streams(self):
        children = spawn_rngs(0, 3)
        draws = [c.integers(10**9) for c in children]
        assert len(set(draws)) == 3

    def test_spawn_reproducible(self):
        a = [c.integers(10**9) for c in spawn_rngs(1, 4)]
        b = [c.integers(10**9) for c in spawn_rngs(1, 4)]
        assert a == b

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_zero_ok(self):
        assert spawn_rngs(0, 0) == []


class TestRunScale:
    def test_default_profile(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert run_scale().name == "ci"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert run_scale().name == "medium"

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert run_scale("paper").name == "paper"

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            run_scale("huge")

    def test_paper_profile_matches_paper(self):
        paper = run_scale("paper")
        assert paper.width_small == 32
        assert paper.width_large == 64
        assert paper.residual_blocks == 32
        assert paper.channels == 256
        assert paper.num_weights == 15
        assert paper.delay_targets == 40

    def test_profiles_frozen(self):
        with pytest.raises(AttributeError):
            run_scale("ci").width_small = 4


class TestAsciiPlot:
    def test_empty(self):
        assert scatter_plot({}) == "(no data)\n"

    def test_contains_markers_and_legend(self):
        text = scatter_plot({"alpha": [(1.0, 1.0)], "beta": [(2.0, 2.0)]})
        assert "*=alpha" in text
        assert "o=beta" in text

    def test_degenerate_single_point(self):
        text = scatter_plot({"a": [(1.0, 1.0)]})
        assert "*" in text

    def test_axis_labels(self):
        text = scatter_plot({"a": [(0.0, 0.0), (1.0, 1.0)]}, xlabel="x", ylabel="y")
        assert text.startswith("y (vertical")

    def test_format_table_alignment(self):
        text = format_table(["col", "n"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("col")
        assert "---" in lines[1]
        assert len(lines) == 4


class TestBlasThreadDefault:
    """``import repro`` leaves numpy's OpenBLAS on the calling thread (``repro/__init__.py``)."""

    SCRIPT = (
        "import ctypes, numpy as np\n"
        "blas = ctypes.CDLL((getattr(np, '_core', None) or np.core)._multiarray_umath.__file__)\n"
        "names = [p + '_get_num_threads' + s for p in ('scipy_openblas', 'openblas') for s in ('64_', '')]\n"
        "getter = next((getattr(blas, n) for n in names if hasattr(blas, n)), None)\n"
        "before = getter() if getter else -1\n"
        "import repro\n"
        "print(before, getter() if getter else -1)\n"
    )

    def threads_before_and_after_import(self, setting):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        out = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, text=True, check=True)
        before, after = map(int, out.stdout.split())
        if before < 0:
            pytest.skip("numpy is not linked against an OpenBLAS with a thread-count symbol")
        return before, after

    def test_one_thread_after_import(self):
        _, after = self.threads_before_and_after_import(None)
        assert after == 1

    def test_an_explicit_openblas_setting_is_left_alone(self):
        before, after = self.threads_before_and_after_import("2")
        assert after == before
