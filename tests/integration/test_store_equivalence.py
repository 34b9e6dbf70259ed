"""Observational equivalence of the four update stores.

The same seeded workload, replayed through the memory, central-sqlite,
durable-file, and simulated-DHT stores, must leave every participant
with an identical instance and identical decision bookkeeping — the
stores may only differ in cost and persistence, never in outcome.

Since PR 3 this also pins the DHT's shipping parity: the DHT with
store-derived context-free extensions (and the shared pair memo), the
DHT computing everything client-side, and the central store must make
*byte-identical* accept/reject/defer decisions, in the same order, at
every reconciliation.
"""

from __future__ import annotations

import pytest

from repro.cdss import Simulation, SimulationConfig
from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.store import (
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
    create_store,
)
from repro.workload import WorkloadConfig, curated_schema


def run_with(store_name: str, seed: int):
    schema = curated_schema()
    if store_name == "memory":
        store = MemoryUpdateStore(schema)
    elif store_name == "central":
        store = create_store("central", schema)
    elif store_name == "durable":
        store = DurableUpdateStore(schema, cache_size=8)
    else:
        store = DhtUpdateStore(schema, hosts=5)
    config = SimulationConfig(
        participants=5,
        reconciliation_interval=3,
        rounds=3,
        workload=WorkloadConfig(transaction_size=2, seed=seed),
    )
    simulation = Simulation(config, store=store)
    report = simulation.run()
    snapshots = {
        p.id: p.instance.snapshot() for p in simulation.cdss.participants
    }
    decisions = {
        p.id: (
            sorted(map(str, p.state.applied)),
            sorted(map(str, p.state.rejected)),
            sorted(map(str, p.state.deferred)),
        )
        for p in simulation.cdss.participants
    }
    return snapshots, decisions, report.state_ratio


@pytest.mark.parametrize("seed", [3, 17])
def test_stores_produce_identical_outcomes(seed):
    memory = run_with("memory", seed)
    central = run_with("central", seed)
    durable = run_with("durable", seed)
    dht = run_with("dht", seed)
    assert memory[0] == central[0] == durable[0] == dht[0]  # instances
    assert memory[1] == central[1] == durable[1] == dht[1]  # decisions
    assert memory[2] == central[2] == durable[2] == dht[2]  # state ratio


# ----------------------------------------------------------------------
# PR 3: byte-identical decision pins for DHT shipping parity


def run_with_decision_log(
    store_name,
    store_options,
    seed,
    network_centric=False,
    schedule_mode="serial",
):
    """Replay the seeded evaluation schedule, recording every decision
    event (participant, recno, tid, verdict) in emission order."""
    config = ConfederationConfig(
        store=store_name,
        store_options=store_options,
        peers=(1, 2, 3, 4, 5),
        reconciliation_interval=3,
        rounds=3,
        final_reconcile=True,
        network_centric=network_centric,
        schedule_mode=schedule_mode,
        workload=WorkloadConfig(transaction_size=2, seed=seed),
    )
    log = []
    hooks = HookBus()
    hooks.on_decision(
        lambda **kw: log.append(
            (kw["participant"], kw["recno"], str(kw["tid"]), str(kw["decision"]))
        )
    )
    with Confederation(config, hooks=hooks) as confed:
        report = confed.run()
        snapshots = {
            p.id: p.instance.snapshot() for p in confed.participants
        }
    return log, snapshots, report.state_ratio


@pytest.mark.parametrize("seed", [7, 29])
def test_dht_shipping_decisions_byte_identical(seed):
    shipped = run_with_decision_log("dht", {"hosts": 5}, seed)
    client_computed = run_with_decision_log(
        "dht", {"hosts": 5, "ship_context_free": False}, seed
    )
    central = run_with_decision_log("central", {}, seed)
    # The decision *stream* — order included — must match exactly:
    # adopting a shipped extension is only legal when it provably equals
    # the local computation.
    assert shipped[0] == client_computed[0] == central[0]
    assert shipped[1] == client_computed[1] == central[1]
    assert shipped[2] == client_computed[2] == central[2]


# ----------------------------------------------------------------------
# PR 5: the full equivalence matrix, including fully store-computed
# DHT batches (Figure 3's last quadrant)


@pytest.mark.parametrize("seed", [7, 29])
def test_equivalence_matrix_with_store_computed_batches(seed):
    """dht-store-computed / dht-shipped / dht-client-computed / central
    and durable (each client- and store-computed) must emit
    byte-identical decision streams: the store deriving a participant's
    extensions against its applied set is only legal because it provably
    equals the client's own computation — and since PR 9, persisting the
    history to a file with a tiny body page cache must not perturb a
    single verdict either."""
    matrix = [
        run_with_decision_log("dht", {"hosts": 5}, seed, network_centric="store"),
        run_with_decision_log("dht", {"hosts": 5}, seed),
        run_with_decision_log(
            "dht", {"hosts": 5, "ship_context_free": False}, seed
        ),
        run_with_decision_log("central", {}, seed),
        run_with_decision_log("central", {}, seed, network_centric="store"),
        run_with_decision_log("durable", {"cache_size": 4}, seed),
        run_with_decision_log(
            "durable", {"cache_size": 4}, seed, network_centric="store"
        ),
    ]
    reference = matrix[0]
    for other in matrix[1:]:
        assert other[0] == reference[0]  # decision stream, order included
        assert other[1] == reference[1]  # replica snapshots
        assert other[2] == reference[2]  # state ratio


# ----------------------------------------------------------------------
# PR 10: the matrix under the async schedule


def per_participant(log):
    """Group a decision log per participant, preserving stream order."""
    streams = {}
    for participant, *rest in log:
        streams.setdefault(participant, []).append(tuple(rest))
    return streams


@pytest.mark.parametrize("seed", [7, 29])
def test_equivalence_matrix_under_async_schedule(seed):
    """The store-equivalence pin holds under ``schedule_mode="async"``:
    every backend (client- and store-computed) must emit the *same
    global* decision stream — the single event loop interleaves whole
    synchronous segments in deterministic task order, so even the
    cross-participant order is pinned — and that stream must agree
    per participant with the threaded schedule's."""
    matrix = [
        run_with_decision_log(
            "dht", {"hosts": 5}, seed, network_centric="store",
            schedule_mode="async",
        ),
        run_with_decision_log("dht", {"hosts": 5}, seed, schedule_mode="async"),
        run_with_decision_log(
            "dht", {"hosts": 5, "ship_context_free": False}, seed,
            schedule_mode="async",
        ),
        run_with_decision_log("memory", {}, seed, schedule_mode="async"),
        run_with_decision_log("central", {}, seed, schedule_mode="async"),
        run_with_decision_log(
            "central", {}, seed, network_centric="store", schedule_mode="async"
        ),
        run_with_decision_log(
            "durable", {"cache_size": 4}, seed, schedule_mode="async"
        ),
    ]
    reference = matrix[0]
    for other in matrix[1:]:
        assert other[0] == reference[0]  # global stream, order included
        assert other[1] == reference[1]  # replica snapshots
        assert other[2] == reference[2]  # state ratio
    # Across schedules the contract is per participant: async and
    # threaded share publish order and RNG substreams, so each
    # participant's stream is byte-identical between the two modes.
    threaded = run_with_decision_log(
        "central", {}, seed, schedule_mode="threaded"
    )
    assert per_participant(reference[0]) == per_participant(threaded[0])
    assert reference[1] == threaded[1]
    assert reference[2] == threaded[2]
