"""The store driver registry: lookup, capabilities, duplicate rejection."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.store import (
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
    StoreCapabilities,
    available_stores,
    create_store,
    register_store,
    store_capabilities,
    store_driver,
    unregister_store,
)
from repro.store.durable import JDBC_CALL_OVERHEAD
from repro.workload import curated_schema


class TestBuiltinDrivers:
    def test_builtins_registered(self):
        assert {"memory", "central", "dht"} <= set(available_stores())

    def test_create_by_name(self):
        schema = curated_schema()
        assert isinstance(create_store("memory", schema), MemoryUpdateStore)
        assert isinstance(create_store("central", schema), DurableUpdateStore)
        assert isinstance(create_store("dht", schema), DhtUpdateStore)

    def test_central_is_durable_with_the_jdbc_cost_model(self):
        schema = curated_schema()
        central = create_store("central", schema)
        durable = create_store("durable", schema)
        assert type(central) is type(durable)
        assert central._call_overhead == JDBC_CALL_OVERHEAD
        assert durable._call_overhead == 0.0
        assert store_capabilities("central") == store_capabilities("durable")
        # The cost-model default stays overridable by option.
        free = create_store("central", schema, call_overhead_seconds=0.0)
        assert free._call_overhead == 0.0

    def test_factory_options_forwarded(self):
        store = create_store("dht", curated_schema(), hosts=7)
        assert len(store._hosts) == 7

    def test_unknown_backend_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown store backend"):
            store_driver("cassandra")
        with pytest.raises(ConfigError, match="available"):
            create_store("cassandra", curated_schema())


class TestCapabilityFlags:
    def test_network_centric_stores_ship_context_free(self):
        for name in ("memory", "central"):
            caps = store_capabilities(name)
            assert caps.ships_context_free
            assert caps.shared_pair_memo
            assert caps.network_centric_batches

    def test_dht_flags_are_honest(self):
        # Since PR 3 the DHT derives context-free extensions at publish
        # and ships them on fetch, with the shared pair memo; since PR 5
        # it assembles fully network-centric batches over the ring too.
        caps = store_capabilities("dht")
        assert caps.ships_context_free
        assert caps.shared_pair_memo
        assert caps.network_centric_batches

    def test_dht_shipping_opt_out_downgrades_instance_flags(self):
        # ship_context_free=False restores the paper's client-compute-only
        # store; the instance's flags must honestly say so.
        store = create_store(
            "dht", curated_schema(), hosts=2, ship_context_free=False
        )
        assert not store.capabilities.ships_context_free
        assert not store.capabilities.shared_pair_memo

    def test_only_central_is_durable(self):
        assert store_capabilities("central").durable
        assert not store_capabilities("memory").durable
        assert not store_capabilities("dht").durable

    def test_instances_carry_their_flags(self):
        # The registry's flags and the class's flags are the same object
        # of truth — batch.capabilities comes from the instance.
        schema = curated_schema()
        for name in ("memory", "central", "dht"):
            store = create_store(name, schema)
            assert store.capabilities == store_capabilities(name)

    def test_unshipping_dht_batches_ship_nothing(self):
        from repro.policy import TrustPolicy

        store = create_store(
            "dht", curated_schema(), hosts=2, ship_context_free=False
        )
        store.register_participant(1, TrustPolicy().trust_all(1))
        batch = store.begin_reconciliation(1)
        assert batch.extensions is None
        assert batch.pair_cache is None


class TestCapabilityRouting:
    """The engine adopts shipped payloads via flags, not store types."""

    def _one_published_transaction(self, store):
        from repro.model import Insert
        from repro.model.transactions import Transaction, TransactionId
        from repro.policy import TrustPolicy

        store.register_participant(1, TrustPolicy().trust_all(1))
        store.register_participant(2, TrustPolicy().trust_all(1))
        transaction = Transaction(
            TransactionId(1, 0), (Insert("F", ("rat", "p1", "x"), 1),)
        )
        store.publish(1, [transaction])
        return store.begin_reconciliation(2)

    def test_declaring_stores_ship(self):
        batch = self._one_published_transaction(
            create_store("memory", curated_schema())
        )
        assert batch.extensions is not None
        assert batch.pair_cache is not None

    def test_undeclared_capability_stops_store_side_shipping(self):
        class NoShipStore(MemoryUpdateStore):
            capabilities = StoreCapabilities(
                ships_context_free=False,
                shared_pair_memo=False,
                network_centric_batches=True,
            )

        batch = self._one_published_transaction(NoShipStore(curated_schema()))
        assert batch.extensions is None
        assert batch.pair_cache is None

    def test_pair_memo_ships_independently_of_extensions(self):
        class MemoOnlyStore(MemoryUpdateStore):
            capabilities = StoreCapabilities(
                ships_context_free=False,
                shared_pair_memo=True,
                network_centric_batches=True,
            )

        batch = self._one_published_transaction(MemoOnlyStore(curated_schema()))
        assert batch.extensions is None
        assert batch.pair_cache is not None

    def test_engine_ignores_shipped_payloads_without_the_flag(self):
        from repro.core.engine import Reconciler
        from repro.core.state import ParticipantState
        from repro.instance.memory import MemoryInstance

        schema = curated_schema()
        batch = self._one_published_transaction(create_store("memory", schema))
        assert batch.extensions  # the store did ship
        # A dishonest/legacy wire: payloads present but the declared
        # capabilities deny them — the engine must recompute locally.
        batch.capabilities = StoreCapabilities(
            ships_context_free=False, shared_pair_memo=False
        )
        reconciler = Reconciler(
            schema, MemoryInstance(schema), ParticipantState(2)
        )
        result = reconciler.reconcile(batch)
        assert [str(t) for t in result.accepted] == ["X1:0"]
        assert reconciler.cache.stats.shipped == 0


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_store(
                "memory",
                lambda schema, **_: MemoryUpdateStore(schema),
                StoreCapabilities(),
            )

    def test_replace_allows_override_and_unregister_removes(self):
        try:
            register_store(
                "memory-test-double",
                lambda schema, **_: MemoryUpdateStore(schema),
                StoreCapabilities(durable=True),
            )
            assert "memory-test-double" in available_stores()
            register_store(
                "memory-test-double",
                lambda schema, **_: MemoryUpdateStore(schema),
                StoreCapabilities(),
                replace=True,
            )
            assert not store_capabilities("memory-test-double").durable
        finally:
            unregister_store("memory-test-double")
        assert "memory-test-double" not in available_stores()

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigError, match="non-empty string"):
            register_store(
                "", lambda schema, **_: MemoryUpdateStore(schema), StoreCapabilities()
            )
