"""Exception hierarchy for the reproduction library."""

from __future__ import annotations

import builtins

__all__ = [
    "ReproError",
    "RdmaError",
    "ProtectionError",
    "BoundsError",
    "TransportError",
    "TimeoutError",
    "FaultError",
    "NodeDownError",
    "PartitionError",
    "DDSSError",
    "AllocationError",
    "CoherenceError",
    "StaleHomeError",
    "TxnError",
    "TxnConflict",
    "LockError",
    "CacheError",
    "MonitorError",
    "ConfigError",
    "SanitizerError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class RdmaError(ReproError):
    """Base class for RDMA verb failures."""


class ProtectionError(RdmaError):
    """Remote access with a wrong or revoked rkey."""


class BoundsError(RdmaError):
    """Remote access outside a registered memory region."""


class TransportError(ReproError):
    """Socket/SDP transport failure."""


class TimeoutError(ReproError, builtins.TimeoutError):
    """An operation exceeded its deadline (retry budget exhausted).

    Also subclasses the builtin ``TimeoutError`` so generic handlers
    written against the standard library catch it.
    """


class FaultError(ReproError):
    """An injected fault surfaced to the application."""


class NodeDownError(FaultError):
    """Communication with a crashed (or unreachable) node."""


class PartitionError(NodeDownError):
    """Transfer crossed an injected network partition.

    Subclasses :class:`NodeDownError`: from the initiator's NIC a cut
    link is indistinguishable from a dead peer (the RC retry budget is
    exhausted either way), so every handler written for crashes also
    tolerates partitions.
    """


class DDSSError(ReproError):
    """Distributed data sharing substrate failure."""


class AllocationError(DDSSError):
    """No space left in any shared-state segment."""


class CoherenceError(DDSSError):
    """Coherence-model contract violation."""


class StaleHomeError(DDSSError):
    """A one-sided op hit a tombstoned unit location (rebalanced away).

    The unit was migrated to a new home after the client cached its
    metadata; the client must invalidate the cache, re-resolve the key
    through the directory, and retry at the new location.
    """


class TxnError(ReproError):
    """Multi-key transaction failure."""


class TxnConflict(TxnError):
    """Optimistic validation failed: a read or write set member changed
    (or is mid-install) since the snapshot.  Abort and retry."""


class LockError(ReproError):
    """Distributed lock manager protocol failure."""


class CacheError(ReproError):
    """Cooperative cache failure."""


class MonitorError(ReproError):
    """Resource-monitoring failure."""


class ConfigError(ReproError):
    """Invalid configuration of a simulated component."""


class SanitizerError(ReproError):
    """An oracle found a violation in a trace:
    :meth:`repro.obs.Observability.check` raises it when a replay of the
    ring flags one."""

