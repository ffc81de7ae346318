"""Every dotted trace target of the round-budget benchmark still exists.

``bench/trace.py`` wraps the layers' public callables by dotted name and
reads 0 for a target that no longer resolves (the result JSON must hold
numbers), so a deleted or renamed method would silently blind the budget.
This is the test that breaks instead.
"""

from __future__ import annotations

import importlib.util
import pkgutil
from pathlib import Path

import pytest

_TRACE_PATH = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def _named_targets():
    # Loaded by path: ``bench`` is not an installed package and the suite
    # may be run from ``tests/`` alone.
    spec = importlib.util.spec_from_file_location("_bench_trace", _TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NAMED_TARGETS


@pytest.mark.parametrize(
    "target",
    _named_targets(),
    ids=lambda target: f"{target.owner}.{target.attr}",
)
def test_named_target_resolves(target):
    owner = target.owner
    if isinstance(owner, str):
        owner = pkgutil.resolve_name(owner)
    assert callable(getattr(owner, target.attr, None)), (
        f"bench.trace target '{target.name}' ({target.owner}.{target.attr}) "
        "no longer exists"
    )
