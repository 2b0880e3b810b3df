"""Network timing parameters, calibrated to 2007-era interconnects.

All latencies are in microseconds; bandwidth is in bytes/µs (numerically
equal to MB/s).  The one preset, :meth:`NetworkParams.infiniband`, is the
paper's IBA-style SAN with RDMA and remote atomics, ~900 MB/s; its
socket CPU costs price the host-based protocols that run over it.  What
its verbs cost is the calibration table of DESIGN.md §6, checked by
``tests/net/test_calibration.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["NetworkParams"]


@dataclass(frozen=True)
class NetworkParams:
    """Latency/bandwidth/CPU model of one interconnect."""

    name: str
    #: one-way propagation + switching delay (µs)
    wire_latency_us: float
    #: link bandwidth in bytes/µs (== MB/s)
    bandwidth_bpus: float
    #: NIC per-message processing at the sender (µs)
    nic_tx_us: float
    #: NIC per-message processing at the receiver (µs)
    nic_rx_us: float
    #: CPU time to post a work request / initiate a transfer (µs)
    post_us: float
    #: target-NIC turnaround for servicing an RDMA read (µs)
    rdma_turnaround_us: float
    #: target-NIC execution time for a remote atomic (µs)
    atomic_exec_us: float
    #: latency of a loopback (same-node) NIC operation (µs)
    local_op_us: float
    #: host CPU cost per message for socket-style protocols (µs, each end)
    sock_cpu_per_msg_us: float
    #: host CPU cost per byte for socket-style copies (µs/byte, each end)
    sock_cpu_per_byte_us: float
    #: wire-level message header size used for control traffic (bytes)
    header_bytes: int = 32

    def __post_init__(self):
        if self.bandwidth_bpus <= 0:
            raise ConfigError("bandwidth must be positive")
        for field in ("wire_latency_us", "nic_tx_us", "nic_rx_us", "post_us",
                      "rdma_turnaround_us", "atomic_exec_us", "local_op_us",
                      "sock_cpu_per_msg_us", "sock_cpu_per_byte_us"):
            if getattr(self, field) < 0:
                raise ConfigError(f"{field} must be non-negative")

    # -- derived helpers -------------------------------------------------
    def serialization_us(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto the wire."""
        return nbytes / self.bandwidth_bpus

    def sock_cpu_us(self, nbytes: int) -> float:
        """Host CPU work for one socket send or receive of ``nbytes``."""
        return self.sock_cpu_per_msg_us + nbytes * self.sock_cpu_per_byte_us

    # -- presets -----------------------------------------------------------
    @classmethod
    def infiniband(cls) -> "NetworkParams":
        """InfiniBand-style SAN (RDMA + atomics), DDR-era numbers."""
        return cls(
            name="infiniband",
            wire_latency_us=2.0,
            bandwidth_bpus=900.0,
            nic_tx_us=0.5,
            nic_rx_us=0.5,
            post_us=0.3,
            rdma_turnaround_us=2.0,
            atomic_exec_us=1.5,
            local_op_us=0.5,
            sock_cpu_per_msg_us=3.0,
            sock_cpu_per_byte_us=0.002,
        )
