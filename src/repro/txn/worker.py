"""lstore-style transaction workers: queue transactions, run, join.

A :class:`TxnWorker` owns one :class:`repro.txn.TxnClient` and drains
its queued transactions sequentially in a single simulation process —
N workers over shared keys is the standard concurrent-update
correctness harness (``tests/txn/test_concurrent_updates.py``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TxnError
from repro.sim import Event
from repro.txn.base import Txn, TxnClient, TxnResult

__all__ = ["TxnWorker"]


class TxnWorker:
    """Run queued transactions back to back on one client."""

    def __init__(self, client: TxnClient, name: str = "txn-worker"):
        self.client = client
        self.name = name
        self._queue: List[Txn] = []
        self._event: Optional[Event] = None
        self.results: List[TxnResult] = []
        #: simulated instant the last queued transaction resolved
        self.finished_at: Optional[float] = None

    def add_txn(self, txn: Txn) -> None:
        if self._event is not None:
            raise TxnError(f"{self.name}: already started")
        self._queue.append(txn)

    def start(self) -> Event:
        """Begin draining the queue; the event fires when all done."""
        if self._event is None:
            self._event = self.client.env.process(
                self._drain(), name=self.name)
        return self._event

    def _drain(self):
        for txn in self._queue:
            result = yield self.client.run(txn)
            self.results.append(result)
        self.finished_at = self.client.env.now
        return tuple(self.results)
