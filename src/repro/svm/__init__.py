"""Support-vector-machine substrate (Section 3 of the paper).

The paper implements its coupled SVM by modifying LIBSVM; the only
modification the algorithm needs is *per-sample box constraints* so that
labelled samples are weighted by ``C`` while unlabeled (transductive) samples
are weighted by ``rho * C``.  This package provides a from-scratch SMO solver
with exactly that capability, the paper's two kernels (RBF for the visual
features, linear for the log) and a scikit-learn-like :class:`SVC`
estimator.
"""

from __future__ import annotations

from repro.svm.gram_cache import GramCache
from repro.svm.kernels import Kernel, LinearKernel, RBFKernel, build_kernel
from repro.svm.model import PoolColumns, SVMModel
from repro.svm.smo import SMOSolver, SMOResult
from repro.svm.svc import SVC

__all__ = [
    "Kernel",
    "LinearKernel",
    "RBFKernel",
    "build_kernel",
    "GramCache",
    "SVMModel",
    "PoolColumns",
    "SMOSolver",
    "SMOResult",
    "SVC",
]
