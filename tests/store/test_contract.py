"""Contract tests every update store must satisfy.

The four implementations (memory, sqlite central, durable file-backed,
simulated DHT) must be observationally identical at the
:class:`~repro.store.base.UpdateStore` interface; each test in this
module runs against all four.
"""

from __future__ import annotations

import pytest

from repro.core.decisions import ReconcileResult
from repro.errors import StoreError
from repro.model import Insert, Modify, make_transaction
from repro.policy import TrustPolicy
from repro.store import (
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
    create_store,
)


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
RAT1_RESP = ("rat", "prot1", "cell-resp")
MOUSE2 = ("mouse", "prot2", "immune")


@pytest.fixture(params=["memory", "central", "durable", "dht"])
def store(request, schema, tmp_path):
    if request.param == "memory":
        yield MemoryUpdateStore(schema)
    elif request.param == "central":
        with create_store("central", schema) as central:
            yield central
    elif request.param == "durable":
        with DurableUpdateStore(
            schema, path=str(tmp_path / "contract.db"), cache_size=8
        ) as durable:
            yield durable
    else:
        yield DhtUpdateStore(schema, hosts=4)


def register_trusting_peers(store, peers=(1, 2, 3), priority=1):
    """Register peers that all trust each other at ``priority``."""
    for peer in peers:
        policy = TrustPolicy()
        for other in peers:
            if other != peer:
                policy.trust_participant(other, priority)
        store.register_participant(peer, policy)


class TestRegistration:
    def test_duplicate_registration_rejected(self, store):
        store.register_participant(1, TrustPolicy())
        with pytest.raises(StoreError):
            store.register_participant(1, TrustPolicy())

    def test_unregistered_participant_rejected(self, store):
        with pytest.raises(StoreError):
            store.publish(9, [])
        with pytest.raises(StoreError):
            store.begin_reconciliation(9)
        with pytest.raises(StoreError):
            store.last_reconciliation_epoch(9)


class TestPublication:
    def test_publish_allocates_increasing_epochs(self, store):
        register_trusting_peers(store)
        e1 = store.publish(1, [make_transaction(1, 0, [Insert("F", RAT1, 1)])])
        e2 = store.publish(2, [make_transaction(2, 0, [Insert("F", MOUSE2, 2)])])
        assert e2 > e1
        assert store.current_epoch() == e2
        assert store.transaction_count() == 2

    def test_cannot_publish_others_transactions(self, store):
        register_trusting_peers(store)
        with pytest.raises(StoreError):
            store.publish(1, [make_transaction(2, 0, [Insert("F", RAT1, 2)])])

    def test_empty_publication_advances_epoch(self, store):
        register_trusting_peers(store)
        before = store.current_epoch()
        store.publish(1, [])
        assert store.current_epoch() == before + 1

    def test_antecedents_computed_at_publish(self, store):
        register_trusting_peers(store)
        x10 = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        x11 = make_transaction(1, 1, [Modify("F", RAT1, RAT1_IMMUNE, 1)])
        store.publish(1, [x10])
        store.publish(1, [x11])
        assert store.antecedents_of(x11.tid) == (x10.tid,)
        assert store.antecedents_of(x10.tid) == ()

    def test_internal_chain_is_not_an_antecedent(self, store):
        register_trusting_peers(store)
        txn = make_transaction(
            1, 0, [Insert("F", RAT1, 1), Modify("F", RAT1, RAT1_IMMUNE, 1)]
        )
        store.publish(1, [txn])
        assert store.antecedents_of(txn.tid) == ()

    def test_cross_participant_antecedent(self, store):
        register_trusting_peers(store)
        x10 = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.publish(1, [x10])
        x20 = make_transaction(2, 0, [Modify("F", RAT1, RAT1_IMMUNE, 2)])
        store.publish(2, [x20])
        assert store.antecedents_of(x20.tid) == (x10.tid,)


class TestReconciliationBatches:
    def test_batch_delivers_trusted_roots_with_priorities(self, store):
        register_trusting_peers(store)
        x10 = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.publish(1, [x10])
        batch = store.begin_reconciliation(2)
        assert [r.tid for r in batch.roots] == [x10.tid]
        assert batch.roots[0].priority == 1
        assert x10.tid in batch.graph

    def test_own_transactions_not_delivered(self, store):
        register_trusting_peers(store)
        x10 = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.publish(1, [x10])
        batch = store.begin_reconciliation(1)
        assert batch.roots == []

    def test_untrusted_transactions_not_delivered_as_roots(self, store):
        # Peer 1 trusts only peer 2; peer 3's publication is untrusted.
        policy1 = TrustPolicy().trust_participant(2, 1)
        store.register_participant(1, policy1)
        store.register_participant(3, TrustPolicy())
        x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        store.publish(3, [x30])
        batch = store.begin_reconciliation(1)
        assert batch.roots == []

    def test_untrusted_antecedent_is_delivered_in_graph(self, store):
        # Peer 1 trusts peer 2 but not peer 3; a trusted transaction from
        # peer 2 depends on peer 3's insert, which must ride along.
        store.register_participant(1, TrustPolicy().trust_participant(2, 1))
        store.register_participant(
            2, TrustPolicy().trust_participant(3, 1)
        )
        store.register_participant(3, TrustPolicy())
        x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        store.publish(3, [x30])
        x20 = make_transaction(2, 0, [Modify("F", RAT1, RAT1_IMMUNE, 2)])
        store.publish(2, [x20])
        batch = store.begin_reconciliation(1)
        assert [r.tid for r in batch.roots] == [x20.tid]
        assert x30.tid in batch.graph
        assert batch.graph.antecedents_of(x20.tid) == (x30.tid,)

    def test_no_redelivery_after_decision(self, store):
        register_trusting_peers(store)
        x10 = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.publish(1, [x10])
        batch = store.begin_reconciliation(2)
        assert len(batch.roots) == 1
        result = ReconcileResult(recno=batch.recno)
        result.applied = [x10.tid]
        result.accepted = [x10.tid]
        store.complete_reconciliation(2, result)
        # Publish something new so there is a later epoch to scan.
        store.publish(3, [make_transaction(3, 0, [Insert("F", MOUSE2, 3)])])
        batch2 = store.begin_reconciliation(2)
        assert [r.tid for r in batch2.roots] != [x10.tid]
        assert all(r.tid != x10.tid for r in batch2.roots)

    def test_rejected_not_redelivered(self, store):
        register_trusting_peers(store)
        x10 = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.publish(1, [x10])
        batch = store.begin_reconciliation(2)
        result = ReconcileResult(recno=batch.recno)
        result.rejected = [x10.tid]
        store.complete_reconciliation(2, result)
        store.publish(3, [make_transaction(3, 0, [Insert("F", MOUSE2, 3)])])
        batch2 = store.begin_reconciliation(2)
        assert all(r.tid != x10.tid for r in batch2.roots)

    def test_deferred_not_redelivered_as_root(self, store):
        register_trusting_peers(store)
        x10 = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.publish(1, [x10])
        batch = store.begin_reconciliation(2)
        result = ReconcileResult(recno=batch.recno)
        result.deferred = [x10.tid]
        store.complete_reconciliation(2, result)
        store.publish(3, [make_transaction(3, 0, [Insert("F", MOUSE2, 3)])])
        batch2 = store.begin_reconciliation(2)
        assert all(r.tid != x10.tid for r in batch2.roots)

    def test_reconciliation_epoch_advances(self, store):
        register_trusting_peers(store)
        assert store.last_reconciliation_epoch(2) == 0
        store.publish(1, [make_transaction(1, 0, [Insert("F", RAT1, 1)])])
        batch = store.begin_reconciliation(2)
        assert batch.recno == store.current_epoch()
        assert store.last_reconciliation_epoch(2) == batch.recno

    def test_applied_antecedents_pruned_from_closure(self, store):
        register_trusting_peers(store)
        x10 = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.publish(1, [x10])
        batch = store.begin_reconciliation(2)
        result = ReconcileResult(recno=batch.recno)
        result.applied = [x10.tid]
        result.accepted = [x10.tid]
        store.complete_reconciliation(2, result)

        x11 = make_transaction(1, 1, [Modify("F", RAT1, RAT1_IMMUNE, 1)])
        store.publish(1, [x11])
        batch2 = store.begin_reconciliation(2)
        assert [r.tid for r in batch2.roots] == [x11.tid]
        # x10 already applied by peer 2: the store prunes it from the graph.
        assert x10.tid not in batch2.graph

    def test_multiple_epochs_in_one_batch(self, store):
        register_trusting_peers(store)
        x10 = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        x30 = make_transaction(3, 0, [Insert("F", MOUSE2, 3)])
        store.publish(1, [x10])
        store.publish(3, [x30])
        batch = store.begin_reconciliation(2)
        assert [r.tid for r in batch.roots] == [x10.tid, x30.tid]

    def test_roots_ordered_by_publish_order(self, store):
        register_trusting_peers(store)
        txns = []
        for seq in range(3):
            txn = make_transaction(
                1, seq, [Insert("F", ("rat", f"p{seq}", "fn"), 1)]
            )
            txns.append(txn)
            store.publish(1, [txn])
        batch = store.begin_reconciliation(2)
        assert [r.tid for r in batch.roots] == [t.tid for t in txns]
        orders = [r.order for r in batch.roots]
        assert orders == sorted(orders)


class TestPerfAccounting:
    def test_messages_are_counted(self, store):
        register_trusting_peers(store)
        before = store.perf.messages
        store.publish(1, [make_transaction(1, 0, [Insert("F", RAT1, 1)])])
        store.begin_reconciliation(2)
        assert store.perf.messages > before
        assert store.perf.simulated_seconds > 0

    def test_dht_costs_more_messages_than_central(self, schema):
        def run(store):
            register_trusting_peers(store)
            for seq in range(5):
                store.publish(
                    1,
                    [
                        make_transaction(
                            1, seq, [Insert("F", ("rat", f"p{seq}", "fn"), 1)]
                        )
                    ],
                )
            store.begin_reconciliation(2)
            return store.perf.messages

        central_messages = run(MemoryUpdateStore(schema))
        dht_messages = run(DhtUpdateStore(schema, hosts=4))
        assert dht_messages > central_messages
