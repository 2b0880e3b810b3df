"""TPC-C-flavored multi-key transaction mix for ``repro.txn``.

Two transaction shapes over fixed-size DDSS units whose first 8 bytes
hold a big-endian unsigned counter (``balance``):

* **transfer** — move an amount between two account units (the classic
  conservation workload: the sum of all balances is invariant, so any
  lost update is arithmetically visible).
* **new-order** — TPC-C's backbone shrunk to units: read a district
  counter, assign the next order id, and decrement the stock of a few
  items; one multi-key read-modify-write spanning 1 + n_items keys.

:class:`TpccMix` draws transactions deterministically from a seeded rng
stream; contention is controlled by the size of the account/stock key
pools (fewer keys = hotter keys).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.txn.base import Txn

__all__ = ["TpccMix", "balance", "pack_balance",
           "transfer_txn", "new_order_txn"]

_COUNTER_BYTES = 8
#: a new-order touches 1..MAX_ITEMS stock keys; a transfer moves
#: 1..MAX_AMOUNT units
MAX_ITEMS = 3
MAX_AMOUNT = 20
#: the transfer share of a :class:`TpccMix`; new-orders are the rest
P_TRANSFER = 0.5


def balance(data: bytes) -> int:
    """The unit's counter: first 8 bytes, big-endian."""
    return int.from_bytes(bytes(data[:_COUNTER_BYTES]), "big")


def pack_balance(value: int, data: bytes) -> bytes:
    """``data`` with its counter replaced by ``value``."""
    if value < 0:
        value = 0  # balances saturate at zero (no negative stock)
    return value.to_bytes(_COUNTER_BYTES, "big") + bytes(
        data[_COUNTER_BYTES:])


def transfer_txn(src: int, dst: int, amount: int) -> Txn:
    """Move ``amount`` (capped at the source balance) from src to dst."""
    if src == dst:
        raise ValueError("transfer needs two distinct accounts")

    def compute(vals: Dict[int, bytes]) -> Dict[int, bytes]:
        take = min(amount, balance(vals[src]))
        return {
            src: pack_balance(balance(vals[src]) - take, vals[src]),
            dst: pack_balance(balance(vals[dst]) + take, vals[dst]),
        }

    return Txn(reads=(src, dst), compute=compute, label="transfer")


def new_order_txn(district: int, items: Sequence[int]) -> Txn:
    """Bump the district's order counter; decrement each item's stock."""
    items = tuple(items)
    if district in items:
        raise ValueError("district key cannot also be an item")

    def compute(vals: Dict[int, bytes]) -> Dict[int, bytes]:
        writes = {district: pack_balance(
            balance(vals[district]) + 1, vals[district])}
        for it in items:
            writes[it] = pack_balance(balance(vals[it]) - 1, vals[it])
        return writes

    return Txn(reads=(district,) + items, compute=compute,
               label="new-order")


class TpccMix:
    """Deterministic transaction generator.

    ``accounts`` and ``stock`` are unit-key pools; ``districts`` the
    (small) district pool; :data:`P_TRANSFER` sets the
    transfer/new-order split.  Smaller pools raise contention.
    """

    def __init__(self, rng, accounts: Sequence[int],
                 districts: Sequence[int], stock: Sequence[int]):
        if len(accounts) < 2:
            raise ValueError("need at least two accounts")
        if not districts or not stock:
            raise ValueError("need districts and stock keys")
        self.rng = rng
        self.accounts = list(accounts)
        self.districts = list(districts)
        self.stock = list(stock)
        self.max_items = min(MAX_ITEMS, len(self.stock))

    def next_txn(self) -> Txn:
        if self.rng.random() < P_TRANSFER:
            i, j = self.rng.choice(len(self.accounts), size=2,
                                   replace=False)
            amount = int(self.rng.integers(1, MAX_AMOUNT + 1))
            return transfer_txn(self.accounts[int(i)],
                                self.accounts[int(j)], amount)
        district = self.districts[
            int(self.rng.integers(0, len(self.districts)))]
        n_items = int(self.rng.integers(1, self.max_items + 1))
        picks = self.rng.choice(len(self.stock), size=n_items,
                                replace=False)
        return new_order_txn(district,
                             [self.stock[int(p)] for p in picks])

    def batch(self, n: int) -> List[Txn]:
        return [self.next_txn() for _ in range(n)]
