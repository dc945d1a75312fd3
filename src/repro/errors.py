"""Exception hierarchy for the EMAP reproduction package.

Every error raised by this package derives from :class:`EMAPError`, so
callers can catch one type to handle any library failure.  Subclasses
are grouped by subsystem (signals, storage, MDB, search, tracking,
network, framework) to keep error handling precise where it matters.
"""

from __future__ import annotations


class EMAPError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(EMAPError):
    """A configuration value is missing, malformed, or inconsistent."""


class SignalError(EMAPError):
    """A signal container or signal-processing operation failed."""


class FilterError(SignalError):
    """A filter design or streaming-filter operation failed."""


class ResampleError(SignalError):
    """Resampling a signal to the base frequency failed."""


class DatasetError(EMAPError):
    """A dataset generator or dataset registry operation failed."""


class StorageError(EMAPError):
    """The embedded document store rejected an operation."""


class QueryError(StorageError):
    """A document-store filter expression is malformed."""


class DuplicateKeyError(StorageError):
    """An insert would violate a unique-id constraint."""


class MDBError(EMAPError):
    """Building or querying the mega-database failed."""


class SearchError(EMAPError):
    """The cloud cross-correlation search failed."""


class CloudUnavailableError(SearchError):
    """The cloud endpoint could not be reached (outage, open breaker)."""


class PayloadError(SearchError):
    """A search-result payload arrived dropped, truncated, or corrupted."""


class FaultPlanError(EMAPError):
    """A fault-injection plan is malformed or internally inconsistent."""


class TrackingError(EMAPError):
    """The edge signal-tracking stage failed."""


class KernelError(TrackingError):
    """The compiled edge kernel could not honour a forced selection."""


class NetworkError(EMAPError):
    """A network-model computation failed (unknown platform, bad payload)."""


class FrameworkError(EMAPError):
    """The closed-loop EMAP framework hit an unrecoverable state."""


class ObservabilityError(EMAPError):
    """A metrics, tracing, or profiling operation was misused."""


class SanitizerError(ObservabilityError):
    """A sanitized run violated a concurrency or resource budget."""


class GatewayError(EMAPError):
    """The serving gateway was misconfigured or misused."""
