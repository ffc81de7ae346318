"""Observability tests: instruments, tracing, propagation, crash safety.

Four concerns are pinned here:

* the metric instruments and the registry — thread safety, the type-conflict
  guard, and the disabled registry's shared null instruments;
* the tracer — span nesting/parentage, the ``NULL_SPAN`` fast path, and the
  tree re-assembly helpers;
* context propagation across thread-pool fan-out
  (``contextvars.copy_context().run``) — the 8-thread stress asserts every job's span hangs off the submitting wave's
  root and never off another session's (no cross-trace leakage);
* the JSONL exporter's write-temp-then-``os.replace`` crash safety, plus the
  end-to-end service instrumentation (per-round span trees, DTO solver
  stats, and bit-identical rankings with observability on or off).
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import repro.obs.exporters as exporters_module
from repro import obs
from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    InMemoryExporter,
    JSONLExporter,
    MetricsRegistry,
    NULL_SPAN,
    Tracer,
    build_span_tree,
    current_span,
    format_span_tree,
    render_snapshot,
)
from repro.utils.concurrency import ReadWriteLock, StripedLockMap

NUM_THREADS = 8


@pytest.fixture(autouse=True)
def _hub_disabled_after():
    """Every test leaves the process-wide hub in its default (off) state."""
    yield
    obs.disable()


# --------------------------------------------------------------------- metrics
class TestInstruments:
    def test_counter_accumulates_and_rejects_decrements(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_sets_and_moves(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value == 7.0
        assert gauge.snapshot() == {"type": "gauge", "value": 7.0}

    def test_histogram_buckets_and_running_stats(self):
        histogram = Histogram("h", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        state = histogram.snapshot()
        assert state["count"] == 4
        assert state["sum"] == pytest.approx(55.55)
        assert state["min"] == 0.05 and state["max"] == 50.0
        assert histogram.mean == pytest.approx(55.55 / 4)
        assert state["buckets"] == {
            "le_0.1": 1,
            "le_1": 1,
            "le_10": 1,
            "le_inf": 1,
        }

    def test_histogram_edge_lands_in_its_bucket(self):
        histogram = Histogram("h", buckets=[1.0, 2.0])
        histogram.observe(1.0)  # exactly on an edge: the <= bucket
        assert histogram.snapshot()["buckets"]["le_1"] == 1

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=[1.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=[2.0, 1.0])

    def test_default_buckets_are_log_spaced(self):
        assert len(DEFAULT_BUCKETS) == 10
        assert DEFAULT_BUCKETS[0] == pytest.approx(5e-05)
        for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]):
            assert b == pytest.approx(4.0 * a)

    def test_counter_thread_safety(self):
        counter = Counter("c")
        barrier = threading.Barrier(NUM_THREADS)

        def worker():
            barrier.wait(timeout=10)
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(NUM_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert counter.value == NUM_THREADS * 1000


class TestMetricsRegistry:
    def test_get_or_create_caches_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.names() == ["a"]

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_disabled_registry_hands_out_shared_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a")
        assert counter is registry.counter("b")  # one shared singleton
        counter.inc(5)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(1.0)
        assert counter.value == 0.0
        assert registry.names() == []  # nothing was registered
        assert registry.snapshot() == {}

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", buckets=[1.0]).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c"] == {"type": "counter", "value": 2.0}
        assert snapshot["h"]["count"] == 1
        registry.reset()
        assert registry.snapshot() == {}

    def test_registry_concurrent_get_or_create(self):
        registry = MetricsRegistry()
        instruments = []
        barrier = threading.Barrier(NUM_THREADS)

        def worker():
            barrier.wait(timeout=10)
            for i in range(100):
                instruments.append(registry.counter(f"c{i % 5}"))

        threads = [threading.Thread(target=worker) for _ in range(NUM_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(registry.names()) == 5
        # Every thread got the same instrument per name.
        assert len({id(i) for i in instruments}) == 5


# --------------------------------------------------------------------- tracing
class TestTracer:
    def test_nesting_records_parentage_and_shared_trace_id(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        with tracer.span("root", wave=3) as root:
            assert current_span() is root
            with tracer.span("child") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
            assert current_span() is root
        assert current_span() is None
        names = [span.name for span in exporter.spans]
        assert names == ["child", "root"]  # children close (export) first
        assert root.duration is not None and root.duration >= 0

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id
        assert a.parent_id is None and b.parent_id is None

    def test_disabled_tracer_returns_the_null_span_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", attr=1)
        assert span is NULL_SPAN
        assert tracer.span("other") is span
        with span as entered:
            assert entered.set(more=2) is entered
            assert current_span() is None  # never installed as current
        assert span.duration is None

    def test_exception_is_annotated_and_span_still_exported(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = exporter.spans
        assert span.attributes["error"] == "RuntimeError"
        assert span.end is not None

    def test_build_and_format_span_tree(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        with tracer.span("wave"):
            with tracer.span("round", session_id="s1"):
                with tracer.span("solve"):
                    pass
            with tracer.span("round", session_id="s2"):
                pass
        (root,) = build_span_tree(exporter.spans)
        assert root["span"].name == "wave"
        children = [node["span"].attributes["session_id"] for node in root["children"]]
        assert children == ["s1", "s2"]  # ordered by start time
        assert root["children"][0]["children"][0]["span"].name == "solve"
        text = format_span_tree(exporter.spans)
        lines = text.splitlines()
        assert lines[0].startswith("wave  (")
        assert lines[1].startswith("  round  (") and "session_id=s1" in lines[1]
        assert lines[2].startswith("    solve  (")

    def test_to_document_round_trips_through_json(self):
        tracer = Tracer()
        with tracer.span("op", k=5) as span:
            pass
        document = json.loads(json.dumps(span.to_document()))
        assert document["name"] == "op"
        assert document["attributes"] == {"k": 5}
        assert document["duration"] == pytest.approx(span.duration)


class TestParallelPropagation:
    def test_eight_thread_fanout_keeps_parents_and_traces_apart(self):
        """8 caller threads share one thread pool, submitting each job under
        ``contextvars.copy_context().run``; every job span must hang off its
        own caller's root — never another session's."""
        import contextvars
        from concurrent.futures import ThreadPoolExecutor

        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        pool = ThreadPoolExecutor(max_workers=4)
        JOBS_PER_WAVE = 6
        errors = []
        roots = {}
        barrier = threading.Barrier(NUM_THREADS)

        def job(thread_index, job_index):
            with tracer.span(
                "job", thread=thread_index, job=job_index
            ):
                return thread_index

        def wave(thread_index):
            try:
                barrier.wait(timeout=30)
                with tracer.span("wave", thread=thread_index) as root:
                    roots[thread_index] = root
                    futures = [
                        pool.submit(
                            contextvars.copy_context().run, job, thread_index, j
                        )
                        for j in range(JOBS_PER_WAVE)
                    ]
                    results = [future.result(timeout=60) for future in futures]
                assert results == [thread_index] * JOBS_PER_WAVE
            except BaseException as error:  # noqa: BLE001 - reported to the test
                errors.append(error)

        threads = [
            threading.Thread(target=wave, args=(i,)) for i in range(NUM_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        pool.shutdown()
        assert not errors, f"wave raised: {errors[0]!r}"

        job_spans = [span for span in exporter.spans if span.name == "job"]
        assert len(job_spans) == NUM_THREADS * JOBS_PER_WAVE
        for span in job_spans:
            expected_root = roots[span.attributes["thread"]]
            assert span.parent_id == expected_root.span_id
            assert span.trace_id == expected_root.trace_id
        # Exactly one trace per caller thread; none of them shared.
        assert len({root.trace_id for root in roots.values()}) == NUM_THREADS

    def test_service_round_spans_nest_under_the_feedback_batch(
        self, small_dataset, small_database
    ):
        """An enabled per-round workload yields a complete span tree: batch →
        round → solve, with the index search under the open wave."""
        import copy

        from repro.cbir.database import ImageDatabase
        from repro.service import FeedbackRequest, RetrievalService, SearchRequest

        database = ImageDatabase(
            small_dataset, log_database=copy.deepcopy(small_database.log_database)
        )
        database.build_index("brute-force")
        exporter = InMemoryExporter()
        obs.configure(exporters=[exporter])
        try:
            service = RetrievalService(database, log_policy="on_close")
            responses = service.open_sessions(
                [
                    SearchRequest(query=i, top_k=8, algorithm="lrf-csvm")
                    for i in range(4)
                ]
            )
            batch = [
                FeedbackRequest(
                    session_id=response.session_id,
                    judgements={int(response.image_indices[0]): 1,
                                int(response.image_indices[-1]): -1},
                    top_k=8,
                )
                for response in responses
            ]
            responses = service.submit_feedback_batch(batch)
            service.close_sessions([r.session_id for r in responses])
            service.shutdown()
        finally:
            obs.disable()

        spans = exporter.spans
        by_id = {span.span_id: span for span in spans}
        batch_spans = [s for s in spans if s.name == "service.feedback_batch"]
        assert len(batch_spans) == 1
        round_spans = [s for s in spans if s.name == "service.round"]
        assert len(round_spans) == 4
        for span in round_spans:
            assert span.parent_id == batch_spans[0].span_id
        solve_spans = [s for s in spans if s.name == "solver.smo.solve"]
        assert solve_spans, "feedback rounds must produce solver spans"
        for span in solve_spans:
            ancestor = span
            while ancestor.parent_id is not None:
                ancestor = by_id[ancestor.parent_id]
            assert ancestor.name == "service.feedback_batch"
        open_spans = [s for s in spans if s.name == "service.open_sessions"]
        search_spans = [s for s in spans if s.name == "index.search"]
        assert open_spans and search_spans
        assert any(
            s.parent_id == open_spans[0].span_id for s in search_spans
        ), "the open wave's batched search must nest under service.open_sessions"

    def test_enabled_metrics_cover_every_layer_and_match_disabled_rankings(
        self, small_dataset, small_database
    ):
        """Observability on vs off: identical rankings, and the enabled run
        records nonzero metrics for service, solver, index and logdb
        layers."""
        import copy

        from repro.cbir.database import ImageDatabase
        from repro.service import FeedbackRequest, RetrievalService, SearchRequest

        def run_workload():
            database = ImageDatabase(
                small_dataset,
                log_database=copy.deepcopy(small_database.log_database),
            )
            database.build_index("ivf")
            service = RetrievalService(database, log_policy="on_close")
            rankings = []
            responses = service.open_sessions(
                [
                    SearchRequest(query=i, top_k=8, algorithm="lrf-csvm")
                    for i in range(3)
                ]
            )
            rankings.append([np.asarray(r.image_indices).copy() for r in responses])
            batch = [
                FeedbackRequest(
                    session_id=response.session_id,
                    judgements={int(response.image_indices[0]): 1,
                                int(response.image_indices[-1]): -1},
                    top_k=8,
                )
                for response in responses
            ]
            responses = service.submit_feedback_batch(batch)
            rankings.append([np.asarray(r.image_indices).copy() for r in responses])
            service.close_sessions([r.session_id for r in responses])
            service.shutdown()
            return rankings

        baseline = run_workload()
        hub = obs.configure()
        try:
            traced = run_workload()
            snapshot = hub.metrics.snapshot()
        finally:
            obs.disable()

        for round_baseline, round_traced in zip(baseline, traced):
            for a, b in zip(round_baseline, round_traced):
                np.testing.assert_array_equal(a, b)

        def total(name):
            state = snapshot.get(name, {})
            return state.get("value", state.get("count", 0))

        assert total("service.rounds_scored") == 3
        assert total("solver.smo.solves") > 0
        assert total("index.queries") > 0
        assert total("index.ivf.cells_probed") > 0
        assert total("logdb.sessions_appended") == 3
        assert total("service.feedback_batch_seconds") > 0


# ------------------------------------------------------------------- exporters
class TestJSONLExporter:
    def _span(self, tracer, name):
        with tracer.span(name) as span:
            pass
        return span

    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "traces" / "spans.jsonl"
        exporter = JSONLExporter(path)
        tracer = Tracer([exporter])
        for name in ("a", "b", "c"):
            self._span(tracer, name)
        exporter.flush()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b", "c"]

    def test_auto_flush_every_n_spans(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = JSONLExporter(path, flush_every=2)
        tracer = Tracer([exporter])
        self._span(tracer, "a")
        assert not path.exists()  # still buffered
        self._span(tracer, "b")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_crash_mid_flush_preserves_previous_file(self, tmp_path, monkeypatch):
        """Kill os.replace mid-flush: the previous complete file survives
        and no temp droppings are left behind."""
        path = tmp_path / "spans.jsonl"
        exporter = JSONLExporter(path, flush_every=100)
        tracer = Tracer([exporter])
        self._span(tracer, "committed")
        exporter.flush()
        before = path.read_text(encoding="utf-8")

        self._span(tracer, "doomed")

        def dying_replace(src, dst):
            raise OSError("simulated crash mid-replace")

        monkeypatch.setattr(exporters_module.os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated crash"):
            exporter.flush()
        monkeypatch.undo()

        assert path.read_text(encoding="utf-8") == before  # old file intact
        assert not list(tmp_path.glob("*tmp*"))  # temp unlinked
        # Recovery: the buffered spans are still there for the next flush.
        exporter.flush()
        names = [
            json.loads(line)["name"]
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert names == ["committed", "doomed"]

    def test_rejects_bad_flush_every(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JSONLExporter(tmp_path / "s.jsonl", flush_every=0)


class TestInMemoryExporter:
    def test_collects_copies_and_clears(self):
        exporter = InMemoryExporter()
        tracer = Tracer([exporter])
        with tracer.span("a"):
            pass
        listed = exporter.spans
        assert len(exporter) == 1 and listed[0].name == "a"
        listed.append("junk")  # the property hands out a copy
        assert len(exporter) == 1
        exporter.clear()
        assert len(exporter) == 0


# ------------------------------------------------------------------ lock waits
class TestLockWaitHooks:
    def _contended(self, hold, acquire):
        """Hold a lock in another thread for ~50 ms, then run *acquire*."""
        holding = threading.Event()
        release = threading.Event()

        def holder():
            with hold():
                holding.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=holder)
        thread.start()
        assert holding.wait(timeout=10)
        timer = threading.Timer(0.05, release.set)
        timer.start()
        try:
            acquire()
        finally:
            release.set()
            thread.join(timeout=10)
            timer.cancel()

    def test_striped_lock_map_reports_stripe_and_wave_waits(self):
        recorded = []
        locks = StripedLockMap(
            num_stripes=2, wait_callback=lambda mode, dt: recorded.append((mode, dt))
        )

        def acquire():
            with locks.holding("key"):
                pass

        self._contended(lambda: locks.holding("key"), acquire)
        stripe_waits = [dt for mode, dt in recorded if mode == "stripe"]
        assert len(stripe_waits) == 2  # holder's (free) + contender's
        assert max(stripe_waits) > 0.01  # the contender really waited

        recorded.clear()
        with locks.all_of(["a", "b", "c"]):
            pass
        assert [mode for mode, _ in recorded] == ["wave"]
        assert recorded[0][1] >= 0.0

    def test_read_write_lock_reports_read_and_write_waits(self):
        recorded = []
        lock = ReadWriteLock(
            wait_callback=lambda mode, dt: recorded.append((mode, dt))
        )
        with lock.read_locked():
            pass
        with lock.write_locked():
            pass
        assert [mode for mode, _ in recorded] == ["read", "write"]

        recorded.clear()

        def acquire():
            with lock.write_locked():
                pass

        self._contended(lambda: lock.read_locked(), acquire)
        write_waits = [dt for mode, dt in recorded if mode == "write"]
        assert write_waits and max(write_waits) > 0.01

    def test_unhooked_primitives_record_nothing(self):
        # The default construction takes no timing at all — this just pins
        # that the callback-free path still works.
        locks = StripedLockMap(num_stripes=2)
        with locks.holding("k"):
            pass
        lock = ReadWriteLock()
        with lock.write_locked():
            pass

    def test_lock_wait_recorder_respects_the_hub_switch(self):
        recorder = obs.lock_wait_recorder("service.session_locks")
        recorder("stripe", 0.5)  # hub disabled: dropped
        hub = obs.configure()
        try:
            recorder("stripe", 0.25)
            snapshot = hub.metrics.snapshot()
        finally:
            obs.disable()
        state = snapshot["service.session_locks.stripe.wait_seconds"]
        assert state["count"] == 1
        assert state["sum"] == pytest.approx(0.25)


# ------------------------------------------------------------------- hub & DTO
class TestHub:
    def test_default_hub_is_disabled_and_noop(self):
        hub = obs.get_hub()
        assert not hub.enabled
        assert hub.span("x") is NULL_SPAN
        hub.count("c")
        hub.observe("h", 1.0)
        hub.set_gauge("g", 2.0)
        with hub.timer("t"):
            pass
        assert hub.metrics.snapshot() == {}

    def test_configure_and_disable_swap_the_process_hub(self):
        exporter = InMemoryExporter()
        hub = obs.configure(exporters=[exporter])
        assert obs.get_hub() is hub and hub.enabled
        with hub.span("op"):
            hub.count("c", 2)
        hub.flush()
        assert len(exporter) == 1
        assert hub.metrics.snapshot()["c"]["value"] == 2.0
        disabled = obs.disable()
        assert obs.get_hub() is disabled and not disabled.enabled

    def test_timer_observes_duration(self):
        hub = obs.configure()
        try:
            with hub.timer("t"):
                pass
            state = hub.metrics.snapshot()["t"]
        finally:
            obs.disable()
        assert state["count"] == 1 and state["sum"] >= 0.0

    def test_render_snapshot_text_and_json(self):
        hub = obs.configure()
        try:
            assert render_snapshot() == "(no metrics recorded)"
            hub.count("solver.smo.solves", 3)
            hub.set_gauge("service.open_sessions", 2)
            hub.observe("logdb.append_seconds", 0.5)
            text = render_snapshot()
            document = render_snapshot("json")
        finally:
            obs.disable()
        assert "solver.smo.solves" in text and "value=3" in text
        assert "count=1" in text  # the histogram line
        assert document["enabled"] is True
        assert document["metrics"]["service.open_sessions"]["value"] == 2.0
        json.dumps(document)  # JSON-safe as promised
        with pytest.raises(ValueError, match="fmt"):
            render_snapshot("yaml")


class TestSolverStatsDTO:
    def test_feedback_response_and_view_surface_solver_counters(
        self, small_dataset, small_database
    ):
        """LRF-CSVM coupled rounds publish their solve cost through the
        response and the session view; round 0 publishes nothing."""
        from repro.service import RetrievalService, SearchRequest

        service = RetrievalService(small_database, log_policy="off")
        opened = service.open_session(
            SearchRequest(query=0, top_k=10, algorithm="lrf-csvm")
        )
        assert opened.solver_stats is None  # round 0: nothing solved yet
        category = small_dataset.category_of(0)
        judgements = {
            int(i): (1 if small_dataset.category_of(int(i)) == category else -1)
            for i in opened.image_indices
        }
        response = service.submit_feedback(opened.session_id, judgements)
        stats = response.solver_stats
        assert stats is not None
        assert stats["path"] == "coupled"
        assert stats["solver_iterations"] >= 1
        assert stats["gram_builds"] >= 1
        assert stats["kernel_evaluations"] > 0
        assert "label_flips" in stats
        view = service.get_session(opened.session_id)
        assert view.solver_stats == stats
        service.discard_session(opened.session_id)

    def test_silent_strategy_yields_none_stats(self, small_database):
        from repro.service import RetrievalService, SearchRequest

        service = RetrievalService(small_database, log_policy="off")
        opened = service.open_session(
            SearchRequest(query=0, top_k=8, algorithm="euclidean")
        )
        response = service.submit_feedback(
            opened.session_id, {int(opened.image_indices[0]): 1}
        )
        assert response.solver_stats is None
        service.discard_session(opened.session_id)
