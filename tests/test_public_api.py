"""API-surface snapshot: ``repro.__all__`` and the driver registry.

A name disappearing from (or silently joining) the public surface is an
API change and must show up in review as an edit to this file.
"""

from __future__ import annotations

import repro
from repro.confed.hooks import EVENTS
from repro.store import available_stores, store_capabilities

EXPECTED_ALL = {
    # Confederation layer
    "Confederation",
    "ConfederationConfig",
    "ConfederationReport",
    "HookBus",
    "ParticipantSnapshot",
    # Legacy entry points (deprecation shims)
    "CDSS",
    "Simulation",
    "SimulationConfig",
    # Participants, the engine, and the session/scheduler layers (PR 3)
    "Decision",
    "Participant",
    "ParticipantState",
    "ReconcileResult",
    "ReconcileSession",
    "Reconciler",
    "Resolution",
    "SerialScheduler",
    "ThreadedScheduler",
    "resolve_conflicts",
    # Fault tolerance (PR 6)
    "FaultController",
    "FaultPlan",
    "HostCrash",
    "MessageFault",
    "ParticipantRestart",
    # Stores and the driver registry
    "DhtUpdateStore",
    "DurableUpdateStore",
    "MemoryUpdateStore",
    "StoreCapabilities",
    "UpdateStore",
    "available_stores",
    "create_store",
    "register_store",
    "store_capabilities",
    # Instances
    "Instance",
    "MemoryInstance",
    "SqliteInstance",
    # Policies
    "AcceptanceRule",
    "TrustPolicy",
    "always",
    "attribute_equals",
    "origin_is",
    "policy_from_priorities",
    # Workload and metrics
    "WorkloadConfig",
    "WorkloadGenerator",
    "curated_schema",
    "state_ratio",
    # Model
    "AttributeDef",
    "Delete",
    "ForeignKey",
    "Insert",
    "Modify",
    "RelationSchema",
    "Schema",
    "Transaction",
    "TransactionId",
    "Update",
    "flatten",
    "flatten_transactions",
    "make_transaction",
    "updates_conflict",
    # Errors
    "ConfigError",
    "ConstraintViolation",
    "FaultError",
    "FlattenError",
    "NetworkError",
    "PolicyError",
    "PublicationError",
    "ReconciliationError",
    "ReproError",
    "ResolutionError",
    "RetryExhaustedError",
    "SchedulerError",
    "SchemaError",
    "StoreError",
    "UnknownTransactionError",
    "UpdateError",
    "WorkloadError",
}


def test_public_all_is_exactly_the_snapshot():
    assert set(repro.__all__) == EXPECTED_ALL


def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_builtin_registry_contents():
    assert available_stores() == ["central", "dht", "durable", "memory"]


def test_registry_capability_snapshot():
    assert store_capabilities("memory").as_dict() == {
        "ships_context_free": True,
        "shared_pair_memo": True,
        "durable": False,
        "network_centric_batches": True,
    }
    assert store_capabilities("central").as_dict() == {
        "ships_context_free": True,
        "shared_pair_memo": True,
        "durable": True,
        "network_centric_batches": True,
    }
    # PR 5: the DHT assembles fully network-centric batches over the
    # ring — every built-in backend now serves Figure 3's store-computed
    # column.
    assert store_capabilities("dht").as_dict() == {
        "ships_context_free": True,
        "shared_pair_memo": True,
        "durable": False,
        "network_centric_batches": True,
    }
    # PR 9: the honest persistent backend — full history on a database
    # file, bounded resident memory, crash recovery.
    assert store_capabilities("durable").as_dict() == {
        "ships_context_free": True,
        "shared_pair_memo": True,
        "durable": True,
        "network_centric_batches": True,
    }


def test_hook_event_names_are_stable():
    assert EVENTS == (
        "publish",
        "epoch_start",
        "decision",
        "conflict",
        "cache_stats",
        "reconcile",
        "epoch_end",
        "fault",
        "retry",
        "degraded",
        "recovery",
    )
