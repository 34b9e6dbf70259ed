"""The paper's soft-state claim, verified end to end.

"Each client contains only soft state; it is possible to reconstruct the
entire state of the participant, up to his or her last reconciliation,
from the update store."  A participant rebuilt via
:meth:`Participant.rebuild` must match the live one: same instance, same
decision sets, same open conflicts — and continue operating (publish,
reconcile, resolve) seamlessly.  Verified over all four stores, and over
the sqlite store, under both of its driver names, closed and reopened
from disk.
"""

from __future__ import annotations

import pytest

from repro.cdss import CDSS, Participant, Simulation, SimulationConfig
from repro.errors import StoreError
from repro.model import Insert
from repro.store import (
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
    create_store,
)
from repro.workload import WorkloadConfig, curated_schema


def build_store(kind, schema, path=None):
    if kind == "memory":
        return MemoryUpdateStore(schema)
    if kind == "central":
        return create_store("central", schema, path=path or ":memory:")
    if kind == "durable":
        return DurableUpdateStore(schema, path=path or ":memory:", cache_size=8)
    return DhtUpdateStore(schema, hosts=5)


@pytest.mark.parametrize("kind", ["memory", "central", "durable", "dht"])
def test_rebuilt_participant_matches_live(kind, tmp_path):
    schema = curated_schema()
    store = build_store(kind, schema, path=str(tmp_path / "rebuild.db"))
    config = SimulationConfig(
        participants=4,
        reconciliation_interval=3,
        rounds=3,
        workload=WorkloadConfig(transaction_size=2, seed=23),
    )
    simulation = Simulation(config, store=store)
    simulation.run()

    for live in simulation.cdss.participants:
        rebuilt = Participant.rebuild(live.id, store, live.policy)
        assert rebuilt.instance.snapshot() == live.instance.snapshot()
        assert rebuilt.state.applied == live.state.applied
        assert rebuilt.state.rejected == live.state.rejected
        assert set(rebuilt.state.deferred) == set(live.state.deferred)
        assert rebuilt.state.dirty_keys == live.state.dirty_keys
        rebuilt_groups = {g.group_id for g in rebuilt.open_conflicts()}
        live_groups = {g.group_id for g in live.open_conflicts()}
        assert rebuilt_groups == live_groups


def test_rebuilt_participant_continues_operating():
    schema = curated_schema()
    store = MemoryUpdateStore(schema)
    cdss = CDSS(store)
    p1, p2 = cdss.add_mutually_trusting_participants([1, 2])
    p1.execute([Insert("F", ("rat", "prot1", "immune"), 1)])
    p1.publish_and_reconcile()
    p2.publish_and_reconcile()

    # p2's machine dies; it rebuilds from the store and keeps going.
    reborn = Participant.rebuild(2, store, p2.policy)
    assert reborn.instance.contains_row("F", ("rat", "prot1", "immune"))
    # Sequence numbers continue where they left off (no tid reuse).
    txn = reborn.execute([Insert("F", ("mouse", "prot2", "defense"), 2)])
    assert txn.tid.sequence == p2._sequence
    reborn.publish_and_reconcile()
    result = p1.publish_and_reconcile()
    assert len(result.accepted) == 1
    assert p1.instance.contains_row("F", ("mouse", "prot2", "defense"))


@pytest.mark.parametrize("driver", ["central", "durable"])
def test_central_store_survives_restart(driver, tmp_path):
    schema = curated_schema()
    path = str(tmp_path / "store.db")

    with create_store(driver, schema, path=path) as store:
        cdss = CDSS(store)
        p1, p2 = cdss.add_mutually_trusting_participants([1, 2])
        p1.execute([Insert("F", ("rat", "prot1", "immune"), 1)])
        p1.publish_and_reconcile()
        p2.publish_and_reconcile()
        live_snapshot = p2.instance.snapshot()
        policy1, policy2 = p1.policy, p2.policy

    # Process restart: a brand-new store object over the same file.
    with create_store(driver, schema, path=path) as reopened:
        # Policies are process state; re-registering adopts the
        # participants already on disk.
        reopened.register_participant(1, policy1)
        reopened.register_participant(2, policy2)
        rebuilt = Participant.rebuild(2, reopened, policy2)
        assert rebuilt.instance.snapshot() == live_snapshot
        assert reopened.transaction_count() == 1
        assert reopened.last_reconciliation_epoch(2) >= 1


def test_central_store_finishes_a_dangling_epoch_on_reopen(tmp_path):
    schema = curated_schema()
    path = str(tmp_path / "store.db")

    with create_store("central", schema, path=path) as store:
        cdss = CDSS(store)
        p1, p2 = cdss.add_mutually_trusting_participants([1, 2])
        txn = p1.execute([Insert("F", ("rat", "prot1", "immune"), 1)])
        p1.publish_and_reconcile()
        # The publisher dies between begin_publish and finish_publish.
        dangling = store.begin_publish(2)
        policy1, policy2 = p1.policy, p2.policy

    with create_store("central", schema, path=path) as reopened:
        reopened.register_participant(1, policy1)
        reopened.register_participant(2, policy2)
        # The unfinished epoch no longer blocks the stable prefix: p2's
        # next reconciliation reaches it and sees p1's transaction.
        batch = reopened.begin_reconciliation(2)
        assert batch.recno >= dangling
        assert [root.tid for root in batch.roots] == [txn.tid]
        with pytest.raises(StoreError, match="already finished"):
            reopened.finish_publish(2, dangling)
