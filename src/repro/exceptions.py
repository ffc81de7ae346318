"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class at API boundaries while still being able to react
to specific failure modes (bad configuration, numerical trouble in the SVM
solver, inconsistent database state, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ValidationError",
    "FeatureExtractionError",
    "SolverError",
    "ConvergenceWarning",
    "DatabaseError",
    "LogDatabaseError",
    "EvaluationError",
    "SessionError",
    "ClusterError",
    "WorkerDiedError",
    "ClusterTimeoutError",
    "NoWorkersError",
    "FaultInjectedError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A configuration object contains an invalid or inconsistent value."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, dtype, range, ...)."""


class FeatureExtractionError(ReproError):
    """Feature extraction failed for an image (bad shape, empty image, ...)."""


class SolverError(ReproError):
    """The SVM solver could not produce a usable model."""


class ConvergenceWarning(UserWarning):
    """The iterative optimisation stopped before reaching its tolerance."""


class DatabaseError(ReproError):
    """The image database is in an inconsistent state for the request."""


class LogDatabaseError(ReproError):
    """The user-feedback log database is in an inconsistent state."""


class EvaluationError(ReproError):
    """An evaluation protocol was configured or executed incorrectly."""


class SessionError(ReproError):
    """A retrieval-service session is unknown or in a wrong state."""


class ClusterError(ReproError):
    """Base class of the multi-process serving tier's failure modes."""


class WorkerDiedError(ClusterError):
    """A cluster worker process died while a request was outstanding on it."""


class ClusterTimeoutError(ClusterError, TimeoutError):
    """A cluster request exceeded the router's response deadline.

    Also a :class:`TimeoutError`, so generic deadline handling works
    (mirroring :class:`ValidationError`'s ``ValueError`` ancestry).
    """


class NoWorkersError(ClusterError):
    """No alive worker is available to serve a request (cluster degraded)."""


class FaultInjectedError(ClusterError):
    """A deterministic test fault fired (see :mod:`repro.utils.faults`).

    Never raised in production: only an installed :class:`FaultPlan` can
    produce it, and plans are installed by tests.
    """
