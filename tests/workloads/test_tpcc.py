"""Unit behaviour of the TPC-C-flavored transaction mix."""

import pytest

from repro.net import Cluster
from repro.workloads import tpcc
from repro.workloads.tpcc import (TpccMix, balance, new_order_txn,
                                  pack_balance, transfer_txn)


def unit(value, size=32):
    return value.to_bytes(8, "big") + b"\x00" * (size - 8)


class TestCounters:
    def test_balance_roundtrip(self):
        data = unit(123)
        assert balance(data) == 123
        assert balance(pack_balance(7, data)) == 7
        # non-counter bytes survive the repack
        tail = b"\x01" * 24
        assert pack_balance(7, (5).to_bytes(8, "big") + tail)[8:] == tail

    def test_balance_saturates_at_zero(self):
        assert balance(pack_balance(-3, unit(0))) == 0


class TestTransfer:
    def test_compute_moves_amount(self):
        txn = transfer_txn(1, 2, 30)
        writes = txn.compute({1: unit(100), 2: unit(5)})
        assert balance(writes[1]) == 70
        assert balance(writes[2]) == 35

    def test_amount_capped_at_source_balance(self):
        txn = transfer_txn(1, 2, 30)
        writes = txn.compute({1: unit(10), 2: unit(0)})
        assert balance(writes[1]) == 0
        assert balance(writes[2]) == 10  # only what the source had

    def test_same_account_rejected(self):
        with pytest.raises(ValueError, match="distinct accounts"):
            transfer_txn(3, 3, 1)


class TestNewOrder:
    def test_compute_shape(self):
        txn = new_order_txn(1, [2, 3])
        assert txn.keys() == (1, 2, 3)
        writes = txn.compute({1: unit(4), 2: unit(9), 3: unit(9)})
        assert balance(writes[1]) == 5
        assert balance(writes[2]) == balance(writes[3]) == 8

    def test_district_cannot_be_an_item(self):
        with pytest.raises(ValueError, match="cannot also be an item"):
            new_order_txn(1, [1, 2])


class TestMix:
    def _mix(self, seed=0, **kw):
        rng = Cluster(n_nodes=1, seed=seed).rng.get("tpcc")
        return TpccMix(rng, accounts=[1, 2, 3], districts=[4],
                       stock=[5, 6, 7], **kw)

    def test_batch_is_deterministic(self):
        a = [t.label for t in self._mix().batch(20)]
        b = [t.label for t in self._mix().batch(20)]
        assert a == b
        assert set(a) == {"transfer", "new-order"}

    def test_p_transfer_extremes(self, monkeypatch):
        monkeypatch.setattr(tpcc, "P_TRANSFER", 1.0)
        only_t = self._mix().batch(10)
        assert all(t.label == "transfer" for t in only_t)
        monkeypatch.setattr(tpcc, "P_TRANSFER", 0.0)
        only_n = self._mix().batch(10)
        assert all(t.label == "new-order" for t in only_n)
        # every new-order spans the district plus 1..max_items stock keys
        assert all(2 <= len(t.keys()) <= 4 for t in only_n)

    def test_pool_validation(self):
        rng = Cluster(n_nodes=1, seed=0).rng.get("tpcc")
        with pytest.raises(ValueError, match="two accounts"):
            TpccMix(rng, accounts=[1], districts=[2], stock=[3])
        with pytest.raises(ValueError, match="districts and stock"):
            TpccMix(rng, accounts=[1, 2], districts=[], stock=[3])
