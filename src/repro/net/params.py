"""Network timing parameters, calibrated to 2007-era interconnects.

All latencies are in microseconds; bandwidth is in bytes/µs (numerically
equal to MB/s).  The presets reflect the platforms in the paper's
evaluation:

* :meth:`NetworkParams.infiniband` — IBA-style SAN with RDMA and remote
  atomics, ~900 MB/s.  What its verbs cost is the calibration table of
  DESIGN.md §6, checked by ``tests/net/test_calibration.py``.
* :meth:`NetworkParams.tcp_gige` — host-based TCP over gigabit Ethernet:
  higher wire latency, ~110 MB/s, and significant *CPU* cost per message
  and per byte on both ends (the paper's core complaint about sockets).
* :meth:`NetworkParams.tcp_10gige` — 10GigE with host TCP: bandwidth
  close to IB but the host CPU costs remain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    #: whether the interconnect offers RDMA + remote atomics
    has_rdma: bool
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

    def with_(self, **overrides) -> "NetworkParams":
        """A copy with selected fields replaced (for sweeps/ablations)."""
        return replace(self, **overrides)

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
            has_rdma=True,
            sock_cpu_per_msg_us=3.0,
            sock_cpu_per_byte_us=0.002,
        )

    @classmethod
    def tcp_gige(cls) -> "NetworkParams":
        """Host-based TCP over gigabit Ethernet (the sockets baseline)."""
        return cls(
            name="tcp-gige",
            wire_latency_us=22.0,
            bandwidth_bpus=110.0,
            nic_tx_us=1.0,
            nic_rx_us=1.0,
            post_us=0.5,
            rdma_turnaround_us=0.0,
            atomic_exec_us=0.0,
            local_op_us=1.0,
            has_rdma=False,
            sock_cpu_per_msg_us=8.0,
            sock_cpu_per_byte_us=0.008,
        )

    @classmethod
    def tcp_10gige(cls) -> "NetworkParams":
        """Host TCP over 10GigE: fat pipe, same host-CPU tax."""
        return cls(
            name="tcp-10gige",
            wire_latency_us=10.0,
            bandwidth_bpus=900.0,
            nic_tx_us=1.0,
            nic_rx_us=1.0,
            post_us=0.5,
            rdma_turnaround_us=0.0,
            atomic_exec_us=0.0,
            local_op_us=1.0,
            has_rdma=False,
            sock_cpu_per_msg_us=8.0,
            sock_cpu_per_byte_us=0.006,
        )
