"""Outside-in span tracer: wraps the layers' public callables from ``bench/``.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces a
callable on its owning class (or module) with a wrapper that records one
span per call — name, start, end, parent span, and optionally a tag, a
session/wave context and a work count — in memory.  Targets come from two
places:

* the classes of the **live** objects of an assembled system
  (:func:`live_targets`: index, stores, log façade, snapshot — whatever
  backend the workload configured), and
* :data:`NAMED_TARGETS`, a short table of dotted names for the classes and
  free functions that have no live handle.

A target that no longer exists is reported as missing (its metrics read 0
and a warning is printed); it never fails the run.

Wrappers are installed before a cluster router forks, so worker processes
inherit them.  A worker appends its spans to ``spans-<pid>.jsonl`` in the
spill directory each time a top-level span completes; the parent merges
those files with its own spans.  ``time.perf_counter`` is CLOCK_MONOTONIC on
Linux, so timestamps of forked processes share one timeline.
"""

from __future__ import annotations

import itertools
import json
import os
import pkgutil
import statistics
import threading
import time
from collections import defaultdict, deque
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Target(NamedTuple):
    """One callable to wrap: ``getattr(owner, attr)`` recorded as *name*."""

    name: str
    owner: Any  # a class or module, or a dotted path to one
    attr: str
    tag: Optional[Callable[[tuple, dict], Optional[str]]] = None
    ctx: Optional[Callable[[tuple, dict], Optional[str]]] = None
    count: Optional[Callable[[tuple, dict, Any], float]] = None


# ------------------------------------------------------------ span extraction
def _self_name(args, kwargs):
    return getattr(args[0], "name", None)


def _session_ids(args, kwargs) -> str:
    """Session ids of a service/router call (request, id, or lists of them)."""
    payload = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    items = payload if isinstance(payload, (list, tuple)) else [payload]
    return ",".join(str(getattr(item, "session_id", item)) for item in items)


def _wave_width(args, kwargs, result) -> float:
    return float(len(args[1]))


def _appended(args, kwargs, result) -> float:
    return float(len(result))


def _result_size(args, kwargs, result) -> float:
    return float(result.size)


def _result_bytes(args, kwargs, result) -> float:
    return float(result.nbytes)


def _result_iterations(args, kwargs, result) -> float:
    return float(result.iterations)


#: Classes and free functions wrapped by dotted name.  Free functions are
#: patched in the namespace that *calls* them.
NAMED_TARGETS: Tuple[Target, ...] = (
    Target("cluster.router.call", "repro.cluster.ClusterRouter", "open_session",
           tag=lambda a, k: "open", ctx=_session_ids),
    Target("cluster.router.call", "repro.cluster.ClusterRouter", "submit_feedback",
           tag=lambda a, k: "round", ctx=_session_ids),
    Target("cluster.router.call", "repro.cluster.ClusterRouter", "close_session",
           tag=lambda a, k: "close", ctx=_session_ids),
    Target("service.open_sessions", "repro.service.RetrievalService", "open_sessions",
           tag=lambda a, k: "open", ctx=_session_ids, count=_wave_width),
    Target("service.submit_feedback_batch", "repro.service.RetrievalService",
           "submit_feedback_batch", tag=lambda a, k: "round", ctx=_session_ids,
           count=_wave_width),
    Target("service.close_sessions", "repro.service.RetrievalService", "close_sessions",
           tag=lambda a, k: "close", ctx=_session_ids, count=_wave_width),
    Target("cbir.search.batch_search", "repro.cbir.SearchEngine", "batch_search"),
    Target("feedback.rank", "repro.feedback.RelevanceFeedbackAlgorithm", "rank",
           tag=_self_name),
    # The only vectorised override; the base rank_batch just loops over rank.
    Target("feedback.rank", "repro.feedback.EuclideanFeedback", "rank_batch",
           tag=_self_name),
    Target("core.coupled.fit", "repro.core.CoupledSVM", "fit",
           count=lambda a, k, r: float(a[0].result_.total_flips)),
    Target("core.coupled.decision_function", "repro.core.CoupledSVM", "decision_function"),
    Target("core.selection.select", "repro.core.NearLabeledSelection", "select"),
    Target("svm.smo.solve", "repro.svm.SMOSolver", "solve", count=_result_iterations),
    Target("svm.decision_function", "repro.svm.SVMModel", "decision_function"),
    Target("svm.kernel.call", "repro.svm.RBFKernel", "__call__", count=_result_size),
    Target("svm.kernel.call", "repro.svm.LinearKernel", "__call__", count=_result_size),
    Target("graph.build", "repro.graph.KNNGraphBuilder", "build"),
    Target("graph.cache.get", "repro.graph.GraphCache", "get_or_build"),
    Target("graph.fuse_with_log", "repro.graph.feedback", "fuse_with_log"),
    Target("graph.propagate", "repro.graph.feedback", "propagate_labels",
           count=_result_iterations),
)


def live_targets(system) -> List[Target]:
    """Targets on the classes of *system*'s live objects.

    The pluggable backends (index, session store, log store) are wrapped on
    whatever class the workload actually configured.  Inside a cluster the
    session store lives in the workers, so it is taken from the class the
    ``ClusterConfig`` directories imply.
    """
    database = system.database
    facade = type(database.log_database)
    snapshot = database.log_database.snapshot()
    log_store = type(system.log_store)
    if system.router is None:
        session_store = type(system.front.store)
    else:
        from repro import FileSessionStore as session_store
    index = type(database.index)
    return [
        Target("service.store.put", session_store, "put"),
        Target("service.store.get", session_store, "get"),
        Target("logdb.snapshot", facade, "snapshot"),
        Target("logdb.extend", facade, "extend", count=_appended),
        Target("logdb.extend", facade, "extend_once", count=_appended),
        Target("logdb.store.extend", log_store, "extend", count=_appended),
        Target("logdb.store.extend", log_store, "extend_once", count=_appended),
        Target("logdb.log_vectors", type(snapshot), "log_vectors"),
        Target("logdb.log_csr", type(snapshot), "log_csr"),
        Target("logdb.densify", type(snapshot.matrix), "log_vectors", count=_result_bytes),
        Target("index.batch_search", index, "batch_search",
               count=lambda a, k, r: float(len(a[1]))),
        Target("index.build", index, "build"),
    ]


# --------------------------------------------------------------------- tracer
class Tracer:
    """Installs span-recording wrappers and collects what they record."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.missing: List[str] = []
        self._installed: List[Tuple[Any, str, bool, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._home_pid = self._pid
        self._spans: List[tuple] = []

    # -------------------------------------------------------------- install
    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            owner = target.owner
            try:
                if isinstance(owner, str):
                    owner = pkgutil.resolve_name(owner)
                original = getattr(owner, target.attr)
            except (ImportError, AttributeError):
                self.missing.append(target.name)
                print(f"bench.trace: warning: target for '{target.name}' "
                      f"({target.owner}.{target.attr}) no longer exists", flush=True)
                continue
            own = target.attr in vars(owner)
            setattr(owner, target.attr, self._wrap(original, target))
            self._installed.append((owner, target.attr, own, original))

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, tag_of, ctx_of, count_of = target.name, target.tag, target.ctx, target.count

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = None
                if result is not None:  # the call returned
                    count = self._extract(name, count_of, args, kwargs, result)
                self._record((
                    name,
                    self._extract(name, tag_of, args, kwargs),
                    self._extract(name, ctx_of, args, kwargs),
                    count or 0.0,
                    start, end, span_id, parent, self._pid, threading.get_ident(),
                ), top_level=not stack)

        traced.__wrapped__ = fn
        return traced

    def _extract(self, name: str, extractor: Optional[Callable], *inputs):
        """A span's tag / context / count; ``None`` (and one warning) when the
        traced code no longer has the shape the extractor reads."""
        if extractor is None:
            return None
        try:
            return extractor(*inputs)
        except (AttributeError, TypeError, IndexError, KeyError):
            if name not in self.missing:
                self.missing.append(name)
                print(f"bench.trace: warning: cannot read tag/ctx/count of '{name}'",
                      flush=True)
            return None

    def _stack(self) -> List[int]:
        if os.getpid() != self._pid:
            # First call in a forked worker: the spans and stacks copied
            # from the parent are the parent's to report.
            self._pid = os.getpid()
            self._spans = []
            self._local = threading.local()
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _record(self, span: tuple, *, top_level: bool) -> None:
        self._spans.append(span)
        if top_level and self._pid != self._home_pid:
            spans, self._spans = self._spans, []
            with open(self.spill_dir / f"spans-{self._pid}.jsonl", "a") as handle:
                for row in spans:
                    handle.write(json.dumps(row) + "\n")

    # -------------------------------------------------------------- collect
    def collect(self) -> List[dict]:
        """This process's spans plus every worker spill file (then removed)."""
        rows = list(self._spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                rows.extend(tuple(json.loads(line)) for line in handle)
            path.unlink()
        return [dict(zip(SPAN_FIELDS, row)) for row in rows]


SPAN_FIELDS = ("name", "tag", "ctx", "count", "start", "end", "id", "parent", "pid", "tid")


# ---------------------------------------------------------------- trace files
def write_trace(path: Path, header: dict, spans: List[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json.dumps({"header": header}) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_trace(path: Path) -> Tuple[dict, List[dict]]:
    with open(path) as handle:
        header = json.loads(handle.readline())["header"]
        return header, [json.loads(line) for line in handle]


# ---------------------------------------------------------------- aggregation
def _self_times(spans: List[dict]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, span id)``: its duration
    minus the durations of its direct children — wrapped calls nest on one
    thread, so a span's children never overlap."""
    self_time = {(s["pid"], s["id"]): s["end"] - s["start"] for s in spans}
    for span in spans:
        parent = (span["pid"], span["parent"])
        if parent in self_time:
            self_time[parent] -= span["end"] - span["start"]
    return self_time


def aggregate(spans: List[dict]) -> Dict[str, dict]:
    """Per span name: calls, inclusive busy time, self time and work count."""
    self_time = _self_times(spans)
    totals: Dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0.0}
    )
    for span in spans:
        row = totals[span["name"]]
        row["calls"] += 1
        row["busy_s"] += span["end"] - span["start"]
        row["self_s"] += self_time[(span["pid"], span["id"])]
        row["count"] += span["count"]
    return dict(totals)


def within(spans: List[dict], window: Tuple[float, float]) -> List[dict]:
    """The spans that started inside *window* (children follow their root)."""
    lo, hi = window
    return [s for s in spans if lo <= s["start"] <= hi]


_SERVICE_WAVES = ("service.open_sessions", "service.submit_feedback_batch",
                  "service.close_sessions")


def layer_metrics(
    spans: List[dict], window: Tuple[float, float], *, home_pid: int, clients: int,
    rounds: int,
) -> Dict[str, float]:
    """Every per-layer metric derivable from one trace (name -> value)."""
    inside = within(spans, window)
    totals = aggregate(inside)
    whole_run = aggregate(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0.0}
    metrics: Dict[str, float] = {}

    def emit(name: str, row: dict) -> None:
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.busy_s"] = row["busy_s"]
        metrics[f"{name}.self_s"] = row["self_s"]

    for name in (
        "cluster.router.call", *_SERVICE_WAVES, "service.store.put", "service.store.get",
        "logdb.snapshot", "logdb.log_vectors", "logdb.densify", "logdb.log_csr", "logdb.extend",
        "logdb.store.extend", "index.batch_search", "cbir.search.batch_search",
        "feedback.rank", "core.coupled.fit", "core.coupled.decision_function",
        "core.selection.select", "svm.smo.solve", "svm.decision_function",
        "svm.kernel.call", "graph.fuse_with_log", "graph.propagate",
    ):
        emit(name, totals.get(name, empty))
    # Builds happen during set-up, outside the measured window.
    emit("index.build", whole_run.get("index.build", empty))
    emit("graph.build", whole_run.get("graph.build", empty))

    def total(name: str, key: str) -> float:
        return totals.get(name, empty)[key]

    # cluster: service waves that ran in worker processes, matched to the
    # router call that waited for them by (operation, session id).
    worker_spans = [
        dict(s, name="cluster.worker.service") if s["name"] in _SERVICE_WAVES else s
        for s in inside if s["pid"] != home_pid
    ]
    worker_waves = [s for s in worker_spans if s["name"] == "cluster.worker.service"]
    emit("cluster.worker.service",
         aggregate(worker_spans).get("cluster.worker.service", empty))
    waves_by_key: Dict[Tuple[str, str], deque] = defaultdict(deque)
    for wave in sorted(worker_waves, key=lambda s: s["start"]):
        for session_id in wave["ctx"].split(","):
            waves_by_key[(wave["tag"], session_id)].append(wave)
    overhead = []
    for call in sorted((s for s in inside if s["name"] == "cluster.router.call"),
                       key=lambda s: s["start"]):
        matched = waves_by_key.get((call["tag"], call["ctx"]))
        if matched:
            wave = matched.popleft()
            overhead.append((call["end"] - call["start"]) - (wave["end"] - wave["start"]))
    metrics["cluster.overhead_ms_per_call"] = (
        1e3 * sum(overhead) / len(overhead) if overhead else 0.0
    )
    metrics["cluster.wave_width_mean"] = (
        sum(w["count"] for w in worker_waves) / len(worker_waves) if worker_waves else 0.0
    )

    rounds = max(1, rounds)
    metrics["logdb.extend.records"] = total("logdb.store.extend", "count")
    metrics["logdb.snapshots_per_round"] = total("logdb.snapshot", "calls") / rounds
    metrics["logdb.dense_mb_per_round"] = total("logdb.densify", "count") / 2**20 / rounds
    queries = total("index.batch_search", "count")
    metrics["index.batch_search.queries"] = queries
    busy = total("index.batch_search", "busy_s")
    metrics["index.qps"] = queries / busy if busy else 0.0
    for algorithm in ("rf-svm", "lrf-2svms", "lrf-csvm", "lrf-graph", "euclidean"):
        durations = [
            1e3 * (s["end"] - s["start"])
            for s in inside if s["name"] == "feedback.rank" and s["tag"] == algorithm
        ]
        metrics[f"feedback.{algorithm}.round_ms_p50"] = (
            statistics.median(durations) if durations else 0.0
        )
    metrics["core.label_flips"] = total("core.coupled.fit", "count")
    metrics["svm.smo.iterations"] = total("svm.smo.solve", "count")
    metrics["svm.kernel.evals"] = total("svm.kernel.call", "count")
    metrics["graph.propagate.iterations"] = total("graph.propagate", "count")
    lookups = total("graph.cache.get", "calls")
    builds = sum(1 for s in inside if s["name"] == "graph.build")
    metrics["graph.cache.hit_ratio"] = 1.0 - builds / lookups if lookups else 0.0

    # Wall the clients spent outside every wrapped call (generator work,
    # judging, gaps): per client thread, so two clients do not mask it.
    roots = sum(
        s["end"] - s["start"] for s in inside if s["pid"] == home_pid and not s["parent"]
    )
    wall = window[1] - window[0]
    metrics["trace.unattributed_share"] = max(0.0, 1.0 - roots / (wall * clients))
    return metrics


def layer_table(spans: List[dict], window: Tuple[float, float]) -> List[str]:
    """The per-layer self-time table of one trace, as printable lines."""
    totals = aggregate(within(spans, window))
    wall = window[1] - window[0]
    lines = [f"{'layer':<9}{'span':<34}{'calls':>8}{'busy_s':>10}{'self_s':>10}{'self/wall':>10}"]
    for name in sorted(totals):
        row = totals[name]
        lines.append(
            f"{name.split('.')[0]:<9}{name:<34}{row['calls']:>8}{row['busy_s']:>10.4f}"
            f"{row['self_s']:>10.4f}{row['self_s'] / wall:>10.3f}"
        )
    return lines
