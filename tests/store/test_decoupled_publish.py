"""The decoupled begin/write/finish publication protocol (Section 5.2.1).

The concurrency property the paper stresses: reconciliation uses "the
latest epoch not preceded by an 'unfinished' epoch", so a slow publisher
never lets a reconciler observe a half-written history — transactions
published *after* an unfinished epoch stay invisible until it finishes.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.model import Insert, make_transaction
from repro.policy import TrustPolicy
from repro.store import DhtUpdateStore, MemoryUpdateStore, create_store


RAT1 = ("rat", "prot1", "immune")
MOUSE2 = ("mouse", "prot2", "immune")


@pytest.fixture(params=["memory", "central", "dht"])
def store(request, schema):
    if request.param == "memory":
        yield MemoryUpdateStore(schema)
    elif request.param == "central":
        with create_store("central", schema) as central:
            yield central
    else:
        yield DhtUpdateStore(schema, hosts=4)


@pytest.fixture
def peers(store):
    for pid in (1, 2, 3):
        policy = TrustPolicy()
        for other in (1, 2, 3):
            if other != pid:
                policy.trust_participant(other, 1)
        store.register_participant(pid, policy)
    return store


class TestDecoupledPublish:
    def test_three_phase_equals_one_shot(self, peers):
        store = peers
        txn = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        epoch = store.begin_publish(1)
        store.write_transactions(1, epoch, [txn])
        store.finish_publish(1, epoch)
        batch = store.begin_reconciliation(2)
        assert [r.tid for r in batch.roots] == [txn.tid]

    def test_unfinished_epoch_blocks_stability(self, peers):
        store = peers
        # p1 starts publishing but does not finish.
        slow_epoch = store.begin_publish(1)
        slow_txn = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.write_transactions(1, slow_epoch, [slow_txn])

        # p3 publishes completely *after* p1 started.
        fast_txn = make_transaction(3, 0, [Insert("F", MOUSE2, 3)])
        store.publish(3, [fast_txn])

        # p2 reconciles: the stable epoch precedes p1's unfinished one, so
        # it must see NEITHER transaction.
        batch = store.begin_reconciliation(2)
        assert batch.recno < slow_epoch
        assert batch.roots == []

        # p1 finishes; now both epochs become visible at once.
        store.finish_publish(1, slow_epoch)
        batch = store.begin_reconciliation(2)
        assert sorted(str(r.tid) for r in batch.roots) == ["X1:0", "X3:0"]

    def test_write_to_foreign_epoch_rejected(self, peers):
        store = peers
        epoch = store.begin_publish(1)
        txn = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        with pytest.raises(StoreError):
            store.write_transactions(2, epoch, [txn])
        store.finish_publish(1, epoch)

    def test_write_after_finish_rejected(self, peers):
        store = peers
        epoch = store.begin_publish(1)
        store.finish_publish(1, epoch)
        txn = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        with pytest.raises(StoreError):
            store.write_transactions(1, epoch, [txn])

    def test_double_finish_rejected(self, peers):
        store = peers
        epoch = store.begin_publish(1)
        store.finish_publish(1, epoch)
        with pytest.raises(StoreError):
            store.finish_publish(1, epoch)

    def test_incremental_writes_accumulate(self, peers):
        store = peers
        epoch = store.begin_publish(1)
        first = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        second = make_transaction(1, 1, [Insert("F", MOUSE2, 1)])
        store.write_transactions(1, epoch, [first])
        store.write_transactions(1, epoch, [second])
        store.finish_publish(1, epoch)
        batch = store.begin_reconciliation(2)
        assert [str(r.tid) for r in batch.roots] == ["X1:0", "X1:1"]
        orders = [r.order for r in batch.roots]
        assert orders == sorted(orders)