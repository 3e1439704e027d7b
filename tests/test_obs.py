"""Tests for repro.obs — the telemetry plane.

Covers the core instruments (log2 histogram bucketing, merge algebra,
the label-cardinality guard, the disabled no-op path), the exposition
formats (Prometheus text, snapshot validation, the stdlib HTTP
exporter), the update-visibility tracker, and the property the
multi-process plane depends on: a worker registry snapshot shipped
over the control channel and merged into the frontend registry counts
the same events an in-process run counts directly.
"""

from __future__ import annotations

import json
import math
import random
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    NULL_REGISTRY,
    OVERFLOW_LABELS,
    SCHEMA,
    ZERO_BUCKET,
    MetricsExporter,
    Registry,
    VisibilityTracker,
    bucket_bounds,
    bucket_index,
    snapshot_count,
    snapshot_quantile,
    snapshot_value,
    to_prometheus,
    validate_metrics_payload,
)
from repro.serve import (
    build_events,
    scenario,
    serve_plane_scenario,
)

from tests.conftest import random_fib


class TestBuckets:
    def test_powers_of_two_land_in_their_own_bucket(self):
        # Bucket e covers [2^(e-1), 2^e): an exact power of two is the
        # *lower* edge of the next bucket up.
        assert bucket_index(1.0) == 1
        assert bucket_index(2.0) == 2
        assert bucket_index(0.5) == 0
        assert bucket_index(1.5) == 1

    def test_bounds_invert_index(self):
        for value in (1e-9, 3.7e-6, 0.001, 0.999, 1.0, 12.0, 4096.5):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo <= value < hi, value

    def test_zero_and_negative_share_the_zero_bucket(self):
        assert bucket_index(0.0) == ZERO_BUCKET
        assert bucket_index(-1.5) == ZERO_BUCKET
        # The zero bucket collapses to the 0 edge (le="0" in the
        # Prometheus rendering).
        assert bucket_bounds(ZERO_BUCKET) == (0.0, 0.0)

    def test_histogram_quantiles_bracket_the_data(self):
        registry = Registry()
        hist = registry.histogram("h", "test")
        values = [0.001 * (i + 1) for i in range(100)]
        for value in values:
            hist.observe(value)
        snap = registry.snapshot()
        p50 = snapshot_quantile(snap, "h", 0.50)
        p99 = snapshot_quantile(snap, "h", 0.99)
        assert min(values) <= p50 <= p99 <= max(values)
        # Log2 buckets guarantee at worst a 2x bracket around the truth.
        assert p50 == pytest.approx(0.050, rel=1.0)
        assert p99 == pytest.approx(0.099, rel=1.0)


class TestMerge:
    @staticmethod
    def _registry(seed: int) -> Registry:
        rng = random.Random(seed)
        registry = Registry()
        counter = registry.counter("events_total", "t", labelnames=("kind",))
        hist = registry.histogram("latency", "t")
        gauge = registry.gauge("depth", "t")
        for _ in range(50):
            counter.labels(rng.choice("abc")).inc(rng.randint(1, 5))
            hist.observe(rng.uniform(1e-6, 1e-2))
            gauge.add(rng.uniform(-1, 1))
        return registry

    @staticmethod
    def _assert_equivalent(a: dict, b: dict) -> None:
        # Merging is associative up to float-summation rounding: counts
        # and bucket tallies must match exactly, running sums to 1 ulp-ish.
        assert a["metrics"].keys() == b["metrics"].keys()
        for name, record in a["metrics"].items():
            other = b["metrics"][name]
            for series_a, series_b in zip(record["series"], other["series"]):
                assert series_a["labels"] == series_b["labels"]
                for key, value in series_a.items():
                    if isinstance(value, float):
                        assert series_b[key] == pytest.approx(value), (name, key)
                    else:
                        assert series_b[key] == value, (name, key)

    def test_merge_is_associative_and_commutative(self):
        snaps = [self._registry(seed).snapshot() for seed in (1, 2, 3)]
        left = Registry()
        for snap in snaps:
            left.merge(snap)
        right = Registry()
        for snap in reversed(snaps):
            right.merge(snap)
        nested = Registry()
        inner = Registry()
        inner.merge(snaps[1])
        inner.merge(snaps[2])
        nested.merge(snaps[0])
        nested.merge(inner)
        self._assert_equivalent(left.snapshot(), right.snapshot())
        self._assert_equivalent(left.snapshot(), nested.snapshot())

    def test_merge_adds_counts_and_keeps_extremes(self):
        a, b = Registry(), Registry()
        a.histogram("h", "t").observe(0.25)
        b.histogram("h", "t").observe(8.0)
        a.merge(b)
        record = a.snapshot()["metrics"]["h"]["series"][0]
        assert record["count"] == 2
        assert record["min"] == 0.25
        assert record["max"] == 8.0
        assert record["sum"] == pytest.approx(8.25)

    def test_merge_registry_object_equals_merge_snapshot(self):
        a, b = self._registry(7), self._registry(8)
        via_object = Registry()
        via_object.merge(a)
        via_object.merge(b)
        via_snapshot = Registry()
        via_snapshot.merge(a.snapshot())
        via_snapshot.merge(b.snapshot())
        assert via_object.snapshot() == via_snapshot.snapshot()


class TestCardinalityGuard:
    def test_overflow_label_absorbs_past_the_cap(self):
        registry = Registry(max_series=4)
        counter = registry.counter("c", "t", labelnames=("peer",))
        for peer in range(10):
            counter.labels(peer).inc()
        record = registry.snapshot()["metrics"]["c"]
        label_sets = [tuple(s["labels"]) for s in record["series"]]
        assert len(label_sets) <= 5  # 4 real + the overflow sink
        assert OVERFLOW_LABELS in label_sets
        total = sum(s["value"] for s in record["series"])
        assert total == 10  # nothing dropped, only folded

    def test_conflicting_redeclaration_raises(self):
        registry = Registry()
        registry.counter("c", "t")
        with pytest.raises(ValueError):
            registry.gauge("c", "t")
        with pytest.raises(ValueError):
            registry.counter("c", "t", labelnames=("x",))


class TestDisabled:
    def test_null_registry_records_nothing(self):
        hist = NULL_REGISTRY.histogram("h", "t")
        hist.observe(1.0)
        NULL_REGISTRY.counter("c", "t").labels("x").inc(5)
        NULL_REGISTRY.gauge("g", "t").set(3)
        with NULL_REGISTRY.span("s"):
            pass
        assert NULL_REGISTRY.snapshot()["metrics"] == {}
        assert not NULL_REGISTRY.enabled

    def test_disabled_visibility_tracker_is_inert(self):
        tracker = VisibilityTracker(NULL_REGISTRY.histogram("v", "t"))
        tracker.stamp()
        tracker.observe()
        assert NULL_REGISTRY.snapshot()["metrics"] == {}


class TestVisibilityTracker:
    def test_one_slot_keeps_oldest_stamp(self):
        registry = Registry()
        tracker = VisibilityTracker(registry.histogram("v", "t"))
        tracker.stamp(1_000)
        tracker.stamp(2_000)  # younger update must not shorten the window
        elapsed = tracker.observe(4_000)
        assert elapsed == pytest.approx(3e-6)
        assert not tracker.pending
        assert snapshot_count(registry.snapshot(), "v") == 1

    def test_negative_window_is_skipped(self):
        registry = Registry()
        tracker = VisibilityTracker(registry.histogram("v", "t"))
        tracker.stamp(5_000)
        assert tracker.observe(1_000) is None
        assert snapshot_count(registry.snapshot(), "v") == 0


class TestExposition:
    @staticmethod
    def _sample() -> Registry:
        registry = Registry()
        registry.counter("events_total", "events", labelnames=("kind",)).labels(
            "lookup"
        ).inc(3)
        registry.histogram("latency_seconds", "lat").observe(0.5)
        return registry

    def test_prometheus_text_roundtrip_fields(self):
        text = to_prometheus(self._sample())
        assert '# TYPE repro_events_total counter' in text
        assert 'repro_events_total{kind="lookup"} 3' in text
        assert "repro_latency_seconds_count 1" in text
        assert 'le="+Inf"' in text

    def test_validate_accepts_snapshot_and_wrapper(self):
        snap = self._sample().snapshot()
        assert validate_metrics_payload(snap) == []
        wrapper = {"schema": SCHEMA, "rows": [{"name": "x", "snapshot": snap}]}
        assert validate_metrics_payload(wrapper) == []

    def test_validate_rejects_corrupt_histogram(self):
        snap = self._sample().snapshot()
        series = snap["metrics"]["latency_seconds"]["series"][0]
        series["count"] = 99  # no longer the bucket sum
        assert validate_metrics_payload(snap)

    def test_http_exporter_serves_both_formats(self):
        registry = self._sample()
        with MetricsExporter(registry, port=0) as exporter:
            base = f"http://127.0.0.1:{exporter.port}"
            text = urllib.request.urlopen(f"{base}/metrics").read().decode()
            assert "repro_events_total" in text
            payload = json.loads(urllib.request.urlopen(f"{base}/json").read())
            assert payload["schema"] == SCHEMA
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/other")


class TestCrossProcessMerge:
    def test_worker_snapshots_merge_to_in_process_totals(self, medium_fib):
        """The multi-process invariant: worker registries shipped over
        the control channel and merged frontend-side must count the
        same served lookups an in-process instrumented run counts."""
        events = build_events(
            scenario("bgp-churn"), medium_fib, 600, 40, seed=5, batch_size=64
        )
        local = serve_plane_scenario(
            "prefix-dag", medium_fib, events, scenario="bgp-churn", obs=Registry()
        )
        pooled = serve_plane_scenario(
            "prefix-dag",
            medium_fib,
            events,
            scenario="bgp-churn",
            workers=2,
            obs=Registry(),
        )
        assert pooled.obs is not None
        assert snapshot_value(pooled.obs, "serve_lookups_total") == snapshot_value(
            local.obs, "serve_lookups_total"
        )
        assert snapshot_count(pooled.obs, "serve_lookup_latency_seconds") > 0
        assert pooled.lookup_latency_p99 is not None
        if pooled.transport == "shm":
            # Ring telemetry arrives from both producers: the frontend
            # (request rings) and the workers (response rings).
            labels = {
                tuple(s["labels"])
                for s in pooled.obs["metrics"]["ring_bytes_total"]["series"]
            }
            assert ("req:0",) in labels and ("res:0",) in labels
            assert snapshot_value(pooled.obs, "ring_bytes_total") > 0
