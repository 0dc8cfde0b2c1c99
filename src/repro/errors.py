"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration problems from runtime ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """An invalid parameter name, value, or configuration was supplied."""


class WorkloadError(ReproError):
    """A workload specification or trace is malformed."""


class DatastoreError(ReproError):
    """The datastore was driven into an invalid state or misused."""


class ActuationError(DatastoreError):
    """The verified-actuation layer was misused.

    Raised for repair requests that target unknown or non-drifted nodes,
    drift verification against an unprovisioned adapter, and other
    misuses of the push/verify/repair protocol.  *Detected* drift is
    never an exception — it is a reported, reconcilable state
    (``actuate.drift`` events); this error marks protocol misuse.
    """


class TrainingError(ReproError):
    """Model training could not proceed (bad shapes, empty data, ...)."""


class PersistenceError(ReproError):
    """An on-disk artifact is missing, truncated, or corrupt.

    Raised by every loader of external state (surrogate files, dataset
    artifacts, manifests) so callers never see raw
    ``JSONDecodeError``/``KeyError`` from a torn or bit-flipped file.
    """


class SearchError(ReproError):
    """Configuration search was invoked with an unusable setup."""


class FaultError(ReproError):
    """A fault — injected or real — disrupted an operation.

    Raised for fault-plan misuse (out-of-range node, negative schedule)
    and for failures that will not go away on their own.  See
    :class:`TransientError` for the retryable flavour.
    """


class MiddlewareError(ReproError):
    """The multi-tenant middleware was misused or hit an unservable state.

    Raised by the serve layer for conditions that are not a single
    tenant's fault — e.g. a sharded window round whose shared
    recommendation cache evicted mid-round, which would silently break
    the sharded-equals-serial bit-identity contract.
    """


class GuardError(MiddlewareError):
    """An overload-protection (guard) spec or component was misconfigured.

    Raised for invalid SLO specs (negative throughput floors, error
    budgets outside [0, 1]), breaker/bulkhead settings that cannot work
    (zero failure thresholds, empty spans), and capacity ledgers with a
    non-positive modeled capacity.
    """


class TransientError(FaultError):
    """A retryable fault: the same operation may succeed if reissued.

    The online controller's retry/backoff machinery and the execution
    backend's worker-crash containment both key off this type; anything
    else escapes immediately.
    """
