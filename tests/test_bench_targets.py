"""Every trace target of the round-budget benchmark still exists.

``bench/trace.py`` wraps the layers' public callables — by dotted name
(``NAMED_TARGETS``) and on the classes of an assembled system's live
objects (``live_targets``) — and reads 0 for a target that no longer
resolves (the result JSON must hold numbers), so a deleted or renamed
method would silently blind the budget.  These are the tests that break
instead.
"""

from __future__ import annotations

import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    # Loaded by path: ``bench`` is not an installed package and the suite
    # may be run from ``tests/`` alone.
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _assert_resolves(target):
    owner = target.owner
    if isinstance(owner, str):
        owner = pkgutil.resolve_name(owner)
    assert callable(getattr(owner, target.attr, None)), (
        f"bench.trace target '{target.name}' ({target.owner}.{target.attr}) "
        "no longer exists"
    )


@pytest.mark.parametrize(
    "target",
    _load_bench("trace").NAMED_TARGETS,
    ids=lambda target: f"{target.owner}.{target.attr}",
)
def test_named_target_resolves(target):
    _assert_resolves(target)


@pytest.mark.parametrize("workload", ["wave_search", "log_growth"])
def test_live_targets_resolve(workload, tmp_path):
    """The targets taken from a smoke-scale system of each in-process
    workload: the index's ``batch_search`` and ``build``, the session and
    log stores, the log snapshot."""
    workloads, trace = _load_bench("workloads"), _load_bench("trace")
    spec = workloads.SPECS["smoke"][workload]
    system = workloads.build_system(spec, workloads.make_inputs(7, spec), tmp_path)
    try:
        targets = trace.live_targets(system)
    finally:
        system.close()
    assert {
        "index.batch_search", "index.build", "service.store.put", "service.store.get",
        "logdb.store.extend", "logdb.snapshot",
    } <= {target.name for target in targets}
    for target in targets:
        _assert_resolves(target)
