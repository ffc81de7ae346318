"""Small shared utilities: RNG, validation, arrays, atomic IO, concurrency,
the BLAS thread budget and the deterministic fault-injection seam."""

from __future__ import annotations

from repro.utils.arrays import exact_top_k, l2_normalize_rows, minmax_scale, zscore
from repro.utils.blas import limit_blas_threads
from repro.utils.concurrency import LOCK_ORDER, StripedLockMap, WaitCallback
from repro.utils.faults import FaultPlan, FaultRule
from repro.utils.io import load_array_bundle, load_json, save_array_bundle, save_json
from repro.utils.rng import derive_seed, ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_labels,
    check_positive,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "derive_seed",
    "spawn_rngs",
    "check_array",
    "check_labels",
    "check_positive",
    "check_in_range",
    "check_probability",
    "zscore",
    "minmax_scale",
    "l2_normalize_rows",
    "exact_top_k",
    "save_json",
    "load_json",
    "save_array_bundle",
    "load_array_bundle",
    "StripedLockMap",
    "WaitCallback",
    "LOCK_ORDER",
    "FaultPlan",
    "FaultRule",
    "limit_blas_threads",
]
