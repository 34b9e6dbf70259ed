"""Reconciliation-aware retention of the shared store-side memos.

The context-free extension memo and the shared pair memo used to be
FIFO-capped; they are now pruned when every registered participant holds
a final verdict for a root — the memo tracks the confederation's open
frontier, not its history.
"""

from __future__ import annotations

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.core.decisions import ReconcileResult
from repro.model import Insert
from repro.model.transactions import Transaction, TransactionId
from repro.policy import TrustPolicy
from repro.store import MemoryUpdateStore, create_store
from repro.workload import WorkloadConfig, curated_schema


def mutual_store(factory):
    store = factory(curated_schema())
    for pid in (1, 2, 3):
        policy = TrustPolicy()
        for other in (1, 2, 3):
            if other != pid:
                policy.trust_participant(other, 1)
        store.register_participant(pid, policy)
    return store


class TestRetention:
    def _publish_one(self, store):
        txn = Transaction(
            TransactionId(1, 0), (Insert("F", ("rat", "p1", "fn-a"), 1),)
        )
        store.publish(1, [txn])
        return txn

    def test_memory_memo_retired_once_all_participants_decided(self):
        store = mutual_store(MemoryUpdateStore)
        txn = self._publish_one(store)
        # Both receivers fetch (populating the memo), then decide.
        store.begin_reconciliation(2)
        store.begin_reconciliation(3)
        assert txn.tid in store._nc_context_free
        store.complete_reconciliation(
            2, ReconcileResult(recno=1, applied=[txn.tid])
        )
        # Participant 3 is still undecided: the entry must survive.
        assert txn.tid in store._nc_context_free
        store.complete_reconciliation(
            3, ReconcileResult(recno=1, applied=[txn.tid])
        )
        assert txn.tid not in store._nc_context_free

    def test_central_memo_retired_once_all_participants_decided(self):
        store = mutual_store(lambda schema: create_store("central", schema))
        txn = self._publish_one(store)
        store.begin_reconciliation(2)
        store.begin_reconciliation(3)
        assert txn.tid in store._nc_context_free
        store.complete_reconciliation(
            2, ReconcileResult(recno=1, applied=[txn.tid])
        )
        assert txn.tid in store._nc_context_free
        store.complete_reconciliation(
            3, ReconcileResult(recno=1, rejected=[txn.tid])
        )
        assert txn.tid not in store._nc_context_free

    def test_deferred_roots_are_not_retired(self):
        store = mutual_store(MemoryUpdateStore)
        txn = self._publish_one(store)
        store.begin_reconciliation(2)
        store.complete_reconciliation(
            2, ReconcileResult(recno=1, deferred=[txn.tid])
        )
        store.complete_reconciliation(
            3, ReconcileResult(recno=1, applied=[txn.tid])
        )
        # 2's deferral keeps the root open — it will be reconsidered.
        assert txn.tid in store._nc_context_free

    def test_pair_memo_shrinks_with_retirement(self):
        store = mutual_store(MemoryUpdateStore)
        txn = self._publish_one(store)
        store.begin_reconciliation(2)
        pairs = store.shared_pair_cache()
        # Plant a pair entry involving the root; retirement must drop it.
        other = TransactionId(2, 99)
        extension = store._nc_context_free[txn.tid]
        pairs.store(pairs.pair_key(txn.tid, other), extension, extension, ())
        assert len(pairs) == 1
        for pid in (2, 3):
            store.complete_reconciliation(
                pid, ReconcileResult(recno=1, applied=[txn.tid])
            )
        assert len(pairs) == 0

    def _threaded_retention_run(self, schedule_mode, memo_limit=None):
        """One seeded run; ``memo_limit`` shrinks the shared memos so
        the FIFO backstop evicts *during* the run, concurrently with
        retirement and the threaded reconcile phases."""
        config = ConfederationConfig(
            store="memory",
            peers=(1, 2, 3, 4),
            reconciliation_interval=2,
            rounds=3,
            final_reconcile=True,
            schedule_mode=schedule_mode,
            workload=WorkloadConfig(transaction_size=2, seed=11),
        )
        log = []
        hooks = HookBus()
        hooks.on_decision(
            lambda **kw: log.append(
                (kw["participant"], kw["recno"], str(kw["tid"]), str(kw["decision"]))
            )
        )
        with Confederation(config, hooks=hooks) as confed:
            if memo_limit is not None:
                # Instance attribute shadows the class constant: both
                # the context-free memo's FIFO cap and the shared pair
                # cache (created below with this limit) shrink.
                confed.store.SHARED_MEMO_LIMIT = memo_limit
                confed.store.shared_pair_cache().limit = memo_limit
            confed.run()
            snapshots = {
                p.id: p.instance.snapshot() for p in confed.participants
            }
            open_roots = set()
            for participant in confed.participants:
                open_roots |= set(participant.state.deferred)
            memo = dict(getattr(confed.store, "_nc_context_free", {}) or {})
        return sorted(log), snapshots, memo, open_roots

    def test_threaded_reconcile_safe_under_retirement_and_eviction(self):
        """Concurrent reconciles + retirement + a tiny FIFO backstop:
        a reconciling participant must never be handed a retired or
        evicted entry it cannot recover from — decisions stay
        byte-identical to the serial schedule and to an unbounded memo
        (eviction only ever costs a recomputation on the next miss)."""
        # The serial and threaded schedules interleave differently (two
        # distinct, equally valid schedules), so the pin is per mode:
        # shrinking the memos must change nothing.
        serial_tiny = self._threaded_retention_run("serial", memo_limit=2)
        serial_wide = self._threaded_retention_run("serial")
        threaded_tiny = self._threaded_retention_run("threaded", memo_limit=2)
        threaded_wide = self._threaded_retention_run("threaded")
        assert serial_tiny[0] == serial_wide[0]
        assert serial_tiny[1] == serial_wide[1]
        assert threaded_tiny[0] == threaded_wide[0]
        assert threaded_tiny[1] == threaded_wide[1]
        # Retention kept up even while workers raced the memo: nothing
        # finally decided by everyone lingers.
        assert set(threaded_tiny[2]) <= threaded_tiny[3]

    def test_memo_shrinks_after_a_full_confederation_round(self):
        """End to end: after every peer reconciles everything (a full
        round with a final reconcile pass), the shared memo is empty."""
        config = ConfederationConfig(
            store="memory",
            peers=(1, 2, 3),
            reconciliation_interval=2,
            rounds=2,
            final_reconcile=True,
            workload=WorkloadConfig(transaction_size=1, seed=5),
        )
        with Confederation(config) as confed:
            confed.run()
            store = confed.store
            memo = getattr(store, "_nc_context_free", {}) or {}
            # Only roots some participant still has open may remain.
            open_roots = set()
            for participant in confed.participants:
                open_roots |= set(participant.state.deferred)
            assert set(memo) <= open_roots
