"""Area-delay curve, w-optimal reward points, scaling calibration, cache."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import nangate45
from repro.prefix import brent_kung, sklansky
from repro.synth import (
    AreaDelayCurve,
    SynthesisCache,
    SynthesisEvaluator,
    calibrate_scaling,
    synthesize_curve,
)
from repro.synth.curve import C_AREA, C_DELAY


@pytest.fixture(scope="module")
def lib():
    return nangate45()


@pytest.fixture(scope="module")
def sk8_curve(lib):
    return synthesize_curve(sklansky(8), lib)


class TestAreaDelayCurve:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            AreaDelayCurve([])

    def test_monotone_cleanup(self):
        # A slower sample with larger area must be flattened to the running min.
        curve = AreaDelayCurve([(1.0, 100.0), (2.0, 120.0), (3.0, 80.0)])
        assert curve.area_at(2.0) <= 100.0
        assert curve.area_at(3.0) == pytest.approx(80.0)

    def test_duplicate_delays_deduped(self):
        curve = AreaDelayCurve([(1.0, 100.0), (1.0, 90.0), (2.0, 50.0)])
        assert curve.area_at(1.0) == pytest.approx(90.0)

    def test_clamping(self):
        curve = AreaDelayCurve([(1.0, 100.0), (2.0, 50.0)])
        assert curve.area_at(0.0) == pytest.approx(100.0)
        assert curve.area_at(9.0) == pytest.approx(50.0)

    def test_single_point_curve(self):
        curve = AreaDelayCurve([(1.0, 10.0)])
        assert curve.area_at(5.0) == 10.0
        assert curve.w_optimal(0.5, 0.5) == (10.0, 1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),
                st.floats(min_value=1.0, max_value=1000.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_monotone_nonincreasing(self, samples):
        curve = AreaDelayCurve(samples)
        ds = np.linspace(curve.min_delay, curve.max_delay, 30)
        areas = [curve.area_at(float(d)) for d in ds]
        for earlier, later in zip(areas, areas[1:]):
            assert later <= earlier + 1e-6

    def test_interpolation_passes_through_samples(self, sk8_curve):
        for d, a in sk8_curve.points():
            assert sk8_curve.area_at(d) == pytest.approx(a, rel=1e-9)


def staircase(n: int) -> "list[tuple[float, float]]":
    return [(0.5 * (j + 1), 100.0 - 10.0 * j) for j in range(n)]


class TestFiniteSamples:
    """Construction rejects what PCHIP would: at any sample count, so a bad
    wire or disk curve fails where it arrives rather than inside a reward."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("coord", [0, 1], ids=["delay", "area"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, n, coord, bad):
        samples = staircase(n)
        # The fastest sample: its area survives the running-minimum cleaning.
        fastest = list(samples[0])
        fastest[coord] = bad
        samples[0] = tuple(fastest)
        with pytest.raises(ValueError, match="finite"):
            AreaDelayCurve(samples)
        with pytest.raises(ValueError, match="finite"):
            AreaDelayCurve.from_points([list(p) for p in samples])

    @pytest.mark.parametrize(
        "samples",
        [
            [(1.0, 10.0)],
            staircase(4),
            [(1.0, 2.0), (2.0, float("inf"))],  # the running minimum replaces the inf
            [(1.0, 100.0), (1.0, 90.0), (2.0, 50.0)],
        ],
    )
    def test_finite_cleaned_samples_still_construct(self, samples):
        curve = AreaDelayCurve(samples)
        assert np.isfinite(curve.w_optimal(0.5, 0.5)).all()


@pytest.fixture
def pchip_builds(monkeypatch):
    """Counts every interpolator :class:`AreaDelayCurve` builds."""
    import repro.synth.curve as curve_module

    builds = []
    real = curve_module.PchipInterpolator

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(curve_module, "PchipInterpolator", counting)
    return builds


def store_key(i: int) -> tuple:
    return (f"digest-{i:04d}", "nangate45", "openphysyn")


class TestLazyInterpolator:
    def test_store_hits_and_decodes_build_none(self, tmp_path, pchip_builds):
        from repro.store import DiskStore, LayeredStore, decode_entries, encode_entries

        items = [(store_key(i), AreaDelayCurve(staircase(4))) for i in range(3)]
        disk = DiskStore(tmp_path / "disk")
        disk.put_many(items)
        pchip_builds.clear()
        assert all(v is not None for v in disk.get_many([k for k, _ in items]))
        disk.close()
        layered = LayeredStore(SynthesisCache(), DiskStore(tmp_path / "disk"))
        assert all(v is not None for v in layered.get_many([k for k, _ in items]))
        assert layered.stats()["disk"]["hits"] == 3 and len(layered.front) == 3  # promoted
        layered.close()
        assert len(decode_entries(encode_entries(items))) == 3
        AreaDelayCurve.from_points([list(p) for p in staircase(4)])
        assert pchip_builds == []

    def test_one_build_per_curve_however_often_read(self, pchip_builds):
        curve = AreaDelayCurve(staircase(4))
        assert pchip_builds == []
        for w in np.linspace(0.1, 0.9, 5):
            curve.w_optimal(w, 1 - w)
            curve.area_at(0.5 + w)
        assert len(pchip_builds) == 1

    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),
                st.floats(min_value=1.0, max_value=1000.0),
            ),
            min_size=1,
            max_size=10,
        ),
        delays=st.lists(st.floats(min_value=0.0, max_value=11.0), min_size=1, max_size=5),
        weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_bit_identical_to_an_eager_pchip(self, tmp_path_factory, samples, delays, weights):
        from scipy.interpolate import PchipInterpolator

        from repro.store import DiskStore

        fresh = AreaDelayCurve(samples)
        root = tmp_path_factory.mktemp("lazy")
        store = DiskStore(root)
        store.put(store_key(0), fresh)
        store.close()
        store = DiskStore(root)
        reread = store.get(store_key(0))
        store.close()
        assert reread.points() == fresh.points()
        for curve in (fresh, reread):
            ds, areas = curve.delays, curve.areas
            if len(ds) == 1:
                assert all(curve.area_at(d) == areas[0] for d in delays)
                assert all(curve.w_optimal(w, 1 - w) == (areas[0], ds[0]) for w in weights)
                continue
            oracle = PchipInterpolator(ds, areas, extrapolate=False)
            for d in delays:
                want = float(areas[0]) if d <= ds[0] else float(areas[-1]) if d >= ds[-1] else float(oracle(d))
                assert curve.area_at(d).hex() == want.hex()
            grid = np.linspace(ds[0], ds[-1], 64)
            grid_areas = oracle(grid)
            for w in weights:
                idx = int(np.argmin(w * C_AREA * grid_areas + (1 - w) * C_DELAY * grid))
                want = (float(grid_areas[idx]), float(grid[idx]))
                assert [v.hex() for v in curve.w_optimal(w, 1 - w)] == [v.hex() for v in want]


class TestWOptimal:
    def test_extreme_weights_pick_extremes(self):
        curve = AreaDelayCurve([(1.0, 100.0), (1.5, 70.0), (2.0, 50.0)])
        c_area, c_delay = calibrate_scaling([(100.0, 1.0), (50.0, 2.0)])
        area_hi, delay_hi = curve.w_optimal(0.99, 0.01, c_area, c_delay)
        area_lo, delay_lo = curve.w_optimal(0.01, 0.99, c_area, c_delay)
        assert area_hi < area_lo          # area-weighted: small circuit
        assert delay_hi > delay_lo        # delay-weighted: fast circuit

    def test_weight_sweep_traces_curve(self, sk8_curve):
        c_area, c_delay = calibrate_scaling(
            [(a, d) for d, a in sk8_curve.points()]
        )
        points = [
            sk8_curve.w_optimal(w, 1 - w, c_area, c_delay)
            for w in np.linspace(0.05, 0.95, 9)
        ]
        areas = [p[0] for p in points]
        delays = [p[1] for p in points]
        # More area weight -> smaller, slower circuits (weak monotonicity).
        assert areas[-1] <= areas[0] + 1e-9
        assert delays[-1] >= delays[0] - 1e-9


class TestCalibration:
    def test_spans_normalized(self):
        c_area, c_delay = calibrate_scaling([(100.0, 1.0), (300.0, 3.0)])
        assert c_area == pytest.approx(1 / 200.0)
        assert c_delay == pytest.approx(1 / 2.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            calibrate_scaling([(1.0, 1.0)])

    def test_degenerate_span(self):
        c_area, c_delay = calibrate_scaling([(100.0, 1.0), (100.0, 2.0)])
        assert c_area == 1.0


class TestSynthesizeCurve:
    def test_curve_has_four_samples(self, sk8_curve):
        assert 2 <= len(sk8_curve.points()) <= 4

    def test_curve_monotone(self, sk8_curve):
        areas = [a for _, a in sk8_curve.points()]
        assert areas == sorted(areas, reverse=True)

    def test_fast_end_larger_than_slow_end(self, sk8_curve):
        pts = sk8_curve.points()
        assert pts[0][1] >= pts[-1][1]

    def test_structures_ranked_sensibly(self, lib):
        sk = synthesize_curve(sklansky(8), lib)
        bk = synthesize_curve(brent_kung(8), lib)
        # Brent-Kung trades speed for area: its relaxed area is no larger.
        assert bk.areas[-1] <= sk.areas[-1] + 1e-9


class TestSynthesisCache:
    def test_hit_miss_accounting(self):
        cache = SynthesisCache()
        assert cache.get(("k",)) is None
        cache.put(("k",), 42)
        assert cache.get(("k",)) == 42
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = SynthesisCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))
        cache.put(("c",), 3)  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert len(cache) == 2

    def test_reset_stats_keeps_entries(self):
        cache = SynthesisCache()
        cache.put(("a",), 1)
        cache.get(("a",))
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0
        assert len(cache) == 1

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            SynthesisCache(max_entries=0)

    def test_get_and_put_are_one_item_batches(self):
        """Counters, LRU order and checkpoint bytes do not depend on whether
        a key went through get/put or get_many/put_many."""
        import json

        curves = {k: AreaDelayCurve([(1.0, 10.0 + i), (2.0, 5.0)]) for i, k in enumerate("abcd")}
        ops = [("put", "a"), ("put", "b"), ("get", "a"), ("put", "c"), ("get", "b"),
               ("put", "d"), ("get", "c"), ("get", "a"), ("put", "b"), ("get", "d")]
        single, batched = SynthesisCache(max_entries=3), SynthesisCache(max_entries=3)
        for op, k in ops:
            if op == "put":
                single.put((k,), curves[k])
                batched.put_many([((k,), curves[k])])
            else:
                assert single.get((k,)) is batched.get_many([(k,)])[0]
        assert (single.hits, single.misses) == (batched.hits, batched.misses) == (4, 1)
        assert json.dumps(single.state_dict()) == json.dumps(batched.state_dict())


class TestSynthesisEvaluator:
    def test_caching_across_calls(self, lib):
        ev = SynthesisEvaluator(lib, w_area=0.5, w_delay=0.5)
        g = sklansky(8)
        m1 = ev.evaluate(g)
        m2 = ev.evaluate(g)
        assert m1 == m2
        assert ev.cache.hits >= 1

    def test_weights_change_point(self, lib):
        cache = SynthesisCache()
        curve = synthesize_curve(sklansky(8), lib)
        c_area, c_delay = calibrate_scaling([(a, d) for d, a in curve.points()])
        ev_a = SynthesisEvaluator(
            lib, w_area=0.95, w_delay=0.05, cache=cache, c_area=c_area, c_delay=c_delay
        )
        ev_d = SynthesisEvaluator(
            lib, w_area=0.05, w_delay=0.95, cache=cache, c_area=c_area, c_delay=c_delay
        )
        g = sklansky(8)
        assert ev_a.evaluate(g).area <= ev_d.evaluate(g).area
        assert ev_a.evaluate(g).delay >= ev_d.evaluate(g).delay

    def test_negative_weight_rejected(self, lib):
        with pytest.raises(ValueError):
            SynthesisEvaluator(lib, w_area=-0.1)

    def test_scalarize(self, lib):
        ev = SynthesisEvaluator(lib, w_area=1.0, w_delay=0.0, c_area=2.0)
        from repro.synth import CircuitMetrics

        assert ev.scalarize(CircuitMetrics(area=10.0, delay=99.0)) == pytest.approx(20.0)
