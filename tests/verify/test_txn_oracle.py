"""Seeded mutation-injection tests for the transaction oracle.

Each test hand-crafts a txn.* trace containing one specific violation
class (lost update, dependency cycle, dirty read/write, torn install,
torn read, skipped version) and asserts the oracle names it — and the
matching clean trace stays clean, so detections are not vacuous."""

import pytest

from repro.ddss.client import _fingerprint
from repro.verify import TxnOracle
from repro.verify.trace import TraceEvent, TraceView, replay_fresh

NB = 16
ZEROS = b"\x00" * NB
A = b"A" * NB
B = b"B" * NB
C = b"C" * NB

FP_ZERO = _fingerprint(ZEROS)
FP_A = _fingerprint(A)
FP_B = _fingerprint(B)
FP_C = _fingerprint(C)

_BUSY = 1 << 63


def ev(t, etype, **fields):
    return TraceEvent(float(t), 0, "txn." + etype, fields)


def check(events):
    """Replay a synthetic trace; return (oracle, violation msgs)."""
    oracles, violations = replay_fresh(TraceView(events), [TxnOracle])
    return oracles[0], [v["msg"] for v in violations]


def write_txn(t0, tid, key, version, payload_fp, read_version=None,
              read_fp=FP_ZERO, attempt=1):
    """Events for one txn that reads `key` then installs `version`."""
    rv = version - 1 if read_version is None else read_version
    return [
        ev(t0, "begin", tid=tid, label="w", keys=[key]),
        ev(t0 + 1, "read", tid=tid, attempt=attempt, key=key,
           version=rv, data=read_fp, nbytes=NB),
        ev(t0 + 2, "validate", tid=tid, attempt=attempt, ok=True),
        ev(t0 + 3, "install", tid=tid, attempt=attempt, key=key,
           version=version, data=payload_fp),
        ev(t0 + 4, "commit", tid=tid, attempt=attempt, keys=[key]),
    ]


class TestCleanTraces:
    def test_serial_chain_is_clean(self):
        events = (write_txn(0, 1, key=1, version=1, payload_fp=FP_A)
                  + write_txn(10, 2, key=1, version=2, payload_fp=FP_B,
                              read_fp=FP_A))
        oracle, msgs = check(events)
        assert msgs == []
        assert not oracle.violations
        assert oracle.checked == len(events)

    def test_aborted_attempt_without_install_is_clean(self):
        events = write_txn(0, 1, key=1, version=1, payload_fp=FP_A) + [
            ev(20, "begin", tid=2, label="a", keys=[1]),
            ev(21, "read", tid=2, attempt=1, key=1, version=1,
               data=FP_A, nbytes=NB),
            ev(22, "validate", tid=2, attempt=1, ok=False),
            ev(23, "abort", tid=2, attempt=1, reason="conflict"),
        ]
        _oracle, msgs = check(events)
        assert msgs == []

    def test_wedged_installs_are_readable(self):
        """A mid-publish crash leaves durable installs other committed
        transactions may legally read."""
        events = [
            ev(0, "begin", tid=1, label="w", keys=[1, 2]),
            ev(1, "read", tid=1, attempt=1, key=1, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(2, "read", tid=1, attempt=1, key=2, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(3, "install", tid=1, attempt=1, key=1, version=1,
               data=FP_A),
            ev(4, "wedged", tid=1, attempt=1, installed=[1],
               keys=[1, 2]),
        ] + write_txn(10, 2, key=1, version=2, payload_fp=FP_B,
                      read_fp=FP_A)
        _oracle, msgs = check(events)
        assert msgs == []


class TestLostUpdate:
    def test_double_install_at_same_version_flagged(self):
        events = (write_txn(0, 1, key=1, version=1, payload_fp=FP_A)
                  + write_txn(10, 2, key=1, version=1, payload_fp=FP_B))
        _oracle, msgs = check(events)
        assert any("lost update" in m and "[1, 2]" in m for m in msgs)


class TestSerializabilityCycle:
    def test_write_skew_cycle_flagged(self):
        """Classic write skew: each txn reads the key the other writes,
        both validate against version 0, both commit."""
        events = [
            ev(0, "begin", tid=1, label="ws", keys=[1]),
            ev(1, "read", tid=1, attempt=1, key=1, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(2, "read", tid=1, attempt=1, key=2, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(3, "begin", tid=2, label="ws", keys=[2]),
            ev(4, "read", tid=2, attempt=1, key=1, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(5, "read", tid=2, attempt=1, key=2, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(6, "install", tid=1, attempt=1, key=1, version=1,
               data=FP_A),
            ev(7, "install", tid=2, attempt=1, key=2, version=1,
               data=FP_B),
            ev(8, "commit", tid=1, attempt=1, keys=[1]),
            ev(9, "commit", tid=2, attempt=1, keys=[2]),
        ]
        _oracle, msgs = check(events)
        assert any("serializability violation" in m
                   and "1 -> 2 -> 1" in m for m in msgs)

    def test_serial_write_skew_shape_is_clean(self):
        """Same reads/writes, but txn 2 reads txn 1's install — a serial
        order exists, so no cycle may be reported."""
        events = [
            ev(0, "begin", tid=1, label="ws", keys=[1]),
            ev(1, "read", tid=1, attempt=1, key=1, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(2, "read", tid=1, attempt=1, key=2, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(3, "install", tid=1, attempt=1, key=1, version=1,
               data=FP_A),
            ev(4, "commit", tid=1, attempt=1, keys=[1]),
            ev(5, "begin", tid=2, label="ws", keys=[2]),
            ev(6, "read", tid=2, attempt=1, key=1, version=1,
               data=FP_A, nbytes=NB),
            ev(7, "read", tid=2, attempt=1, key=2, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(8, "install", tid=2, attempt=1, key=2, version=1,
               data=FP_B),
            ev(9, "commit", tid=2, attempt=1, keys=[2]),
        ]
        _oracle, msgs = check(events)
        assert msgs == []


class TestDirtyAccess:
    def test_dirty_write_and_dirty_read_flagged(self):
        events = [
            ev(0, "begin", tid=1, label="d", keys=[1]),
            ev(1, "read", tid=1, attempt=1, key=1, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(2, "install", tid=1, attempt=1, key=1, version=1,
               data=FP_A),
            ev(3, "abort", tid=1, attempt=1, reason="fault"),
            ev(10, "begin", tid=2, label="d", keys=[1]),
            ev(11, "read", tid=2, attempt=1, key=1, version=1,
               data=FP_A, nbytes=NB),
            ev(12, "install", tid=2, attempt=1, key=1, version=2,
               data=FP_B),
            ev(13, "commit", tid=2, attempt=1, keys=[1]),
        ]
        _oracle, msgs = check(events)
        assert any("dirty write" in m and "txn 1" in m for m in msgs)
        assert any("dirty read" in m and "txn 2" in m for m in msgs)


class TestTornInstall:
    def test_commit_without_install_flagged(self):
        events = [
            ev(0, "begin", tid=1, label="t", keys=[1, 2]),
            ev(1, "read", tid=1, attempt=1, key=1, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(2, "read", tid=1, attempt=1, key=2, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(3, "install", tid=1, attempt=1, key=1, version=1,
               data=FP_A),
            # key 2 never installed, yet the commit names it
            ev(4, "commit", tid=1, attempt=1, keys=[1, 2]),
        ]
        _oracle, msgs = check(events)
        assert any("torn install" in m and "[2]" in m for m in msgs)

    def test_version_gap_flagged(self):
        events = (write_txn(0, 1, key=1, version=1, payload_fp=FP_A)
                  + write_txn(10, 2, key=1, version=3, payload_fp=FP_C,
                              read_version=1, read_fp=FP_A))
        _oracle, msgs = check(events)
        assert any("version 3 installed but version 2 never was" in m
                   for m in msgs)

    def test_busy_bit_in_read_version_flagged(self):
        events = write_txn(0, 1, key=1, version=1, payload_fp=FP_A) + [
            ev(10, "begin", tid=2, label="b", keys=[1]),
            ev(11, "read", tid=2, attempt=1, key=1, version=1 | _BUSY,
               data=FP_A, nbytes=NB),
        ]
        _oracle, msgs = check(events)
        assert any("install busy bit" in m for m in msgs)


class TestTornRead:
    def test_fingerprint_mismatch_flagged(self):
        events = (write_txn(0, 1, key=1, version=1, payload_fp=FP_A)
                  # reader observes bytes matching no install of v1
                  + write_txn(10, 2, key=1, version=2, payload_fp=FP_B,
                              read_version=1, read_fp=FP_C))
        _oracle, msgs = check(events)
        assert any("torn read" in m and "matching no install" in m
                   for m in msgs)

    def test_read_of_never_installed_version_flagged(self):
        events = [
            ev(0, "begin", tid=1, label="t", keys=[1]),
            ev(1, "read", tid=1, attempt=1, key=1, version=7,
               data=FP_A, nbytes=NB),
            ev(2, "install", tid=1, attempt=1, key=1, version=8,
               data=FP_B),
            ev(3, "commit", tid=1, attempt=1, keys=[1]),
        ]
        _oracle, msgs = check(events)
        assert any("no transaction installed" in m for m in msgs)

    def test_nonzero_payload_at_version_zero_flagged(self):
        events = [
            ev(0, "begin", tid=1, label="t", keys=[1]),
            ev(1, "read", tid=1, attempt=1, key=1, version=0,
               data=FP_A, nbytes=NB),
            ev(2, "install", tid=1, attempt=1, key=1, version=1,
               data=FP_B),
            ev(3, "commit", tid=1, attempt=1, keys=[1]),
        ]
        _oracle, msgs = check(events)
        assert any("version 0 but the payload is not zeros" in m
                   for m in msgs)


class TestProtocolBookkeeping:
    def test_double_commit_flagged(self):
        events = write_txn(0, 1, key=1, version=1, payload_fp=FP_A)
        events.append(ev(9, "commit", tid=1, attempt=1, keys=[1]))
        _oracle, msgs = check(events)
        assert any("committed twice" in m for m in msgs)

    def test_commit_after_abort_flagged(self):
        events = [
            ev(0, "begin", tid=1, label="t", keys=[1]),
            ev(1, "read", tid=1, attempt=1, key=1, version=0,
               data=FP_ZERO, nbytes=NB),
            ev(2, "abort", tid=1, attempt=1, reason="conflict"),
            ev(3, "commit", tid=1, attempt=1, keys=[]),
        ]
        _oracle, msgs = check(events)
        assert any("already aborted" in m for m in msgs)

    @pytest.mark.parametrize("version", [0, _BUSY | 1])
    def test_install_at_invalid_version_flagged(self, version):
        events = [
            ev(0, "begin", tid=1, label="t", keys=[1]),
            ev(1, "install", tid=1, attempt=1, key=1, version=version,
               data=FP_A),
        ]
        _oracle, msgs = check(events)
        assert any("invalid version" in m for m in msgs)

    def test_duplicate_install_same_attempt_flagged(self):
        events = [
            ev(0, "begin", tid=1, label="t", keys=[1]),
            ev(1, "install", tid=1, attempt=1, key=1, version=1,
               data=FP_A),
            ev(2, "install", tid=1, attempt=1, key=1, version=2,
               data=FP_B),
        ]
        _oracle, msgs = check(events)
        assert any("installed key 1 twice" in m for m in msgs)
