"""Experiment definitions: one function per figure of Section 6.

Every function runs scaled-down but shape-preserving versions of the
paper's experiments (the paper's runs used a dual-Xeon server and tens of
minutes; ours target seconds on a laptop).  The parameters default to the
paper's x-axis values wherever feasible; ``rounds`` and domain sizes are
the scaled knobs, and every function accepts overrides so EXPERIMENTS.md
can record both quick and full configurations.

All experiments use the paper's setting: every participant trusts every
other at the same priority, so conflicting updates can only be deferred,
never auto-resolved.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.confed import Confederation, ConfederationConfig
from repro.store.base import UpdateStore
from repro.store.dht import DhtUpdateStore
from repro.store.registry import create_store
from repro.workload.generator import WorkloadConfig, curated_schema

#: Store factories for the timing experiments, keyed by the paper's names.
STORE_FACTORIES: Dict[str, Callable[[int], UpdateStore]] = {
    "central": lambda peers: create_store("central", curated_schema()),
    "distributed": lambda peers: DhtUpdateStore(
        curated_schema(), hosts=max(2, peers)
    ),
}


def _run(
    participants: int,
    interval: int,
    rounds: int,
    transaction_size: int = 1,
    seed: int = 42,
    store: Optional[UpdateStore] = None,
    final_reconcile: bool = False,
):
    config = ConfederationConfig(
        peers=tuple(range(1, participants + 1)),
        workload=WorkloadConfig(transaction_size=transaction_size, seed=seed),
        reconciliation_interval=interval,
        rounds=rounds,
        final_reconcile=final_reconcile,
    )
    with Confederation(config, store=store) as confederation:
        return confederation.run()


# ----------------------------------------------------------------------
# Figure 8: transaction size vs. state ratio


def fig8_rows(
    sizes: Sequence[int] = (1, 2, 3, 4, 5, 6, 8, 10),
    updates_between_recons: int = 8,
    participants: int = 10,
    rounds: int = 5,
    seed: int = 42,
) -> List[Tuple[int, float]]:
    """State ratio as transaction size grows, holding the number of
    updates between reconciliations constant (the paper holds it fixed
    while varying size, so larger transactions mean fewer of them)."""
    rows: List[Tuple[int, float]] = []
    for size in sizes:
        interval = max(1, updates_between_recons // size)
        report = _run(
            participants, interval, rounds, transaction_size=size, seed=seed
        )
        rows.append((size, report.state_ratio))
    return rows


# ----------------------------------------------------------------------
# Figure 9: reconciliation interval vs. state ratio


def fig9_rows(
    intervals: Sequence[int] = (1, 2, 4, 8, 12, 16, 20),
    participants: int = 10,
    transactions_per_peer: int = 40,
    seed: int = 42,
) -> List[Tuple[int, float]]:
    """State ratio as reconciliation gets less frequent (size-1 txns).

    The total number of transactions per peer is held near-constant so
    only the interval varies, as in the paper's Figure 9.
    """
    rows: List[Tuple[int, float]] = []
    for interval in intervals:
        rounds = max(1, transactions_per_peer // interval)
        report = _run(participants, interval, rounds, seed=seed)
        rows.append((interval, report.state_ratio))
    return rows


# ----------------------------------------------------------------------
# Figure 10: reconciliation interval vs. total reconciliation time
# per participant, split into store and local time, for both stores.


def fig10_rows(
    intervals: Sequence[int] = (4, 20, 50),
    stores: Sequence[str] = ("central", "distributed"),
    participants: int = 10,
    transactions_per_peer: int = 100,
    seed: int = 42,
) -> List[Tuple[int, str, float, float, float]]:
    """Rows of ``(interval, store, store_s, local_s, total_s)``.

    Total reconciliation time per participant (summed over the run, as in
    the paper's Figure 10), with the per-peer transaction budget held
    constant so smaller intervals mean more reconciliations.
    """
    rows: List[Tuple[int, str, float, float, float]] = []
    for interval in intervals:
        rounds = max(1, transactions_per_peer // interval)
        for store_name in stores:
            store = STORE_FACTORIES[store_name](participants)
            report = _run(
                participants,
                interval,
                rounds,
                seed=seed,
                store=store,
                final_reconcile=True,
            )
            rows.append(
                (
                    interval,
                    store_name,
                    report.mean_store_seconds_per_participant,
                    report.mean_local_seconds_per_participant,
                    report.mean_total_seconds_per_participant,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Figure 11: number of participants vs. state ratio


def fig11_rows(
    peer_counts: Sequence[int] = (5, 10, 20, 35, 50),
    interval: int = 4,
    rounds: int = 2,
    seed: int = 42,
) -> List[Tuple[int, float]]:
    """State ratio as the confederation grows."""
    rows: List[Tuple[int, float]] = []
    for peers in peer_counts:
        report = _run(peers, interval, rounds, seed=seed)
        rows.append((peers, report.state_ratio))
    return rows


# ----------------------------------------------------------------------
# Figure 12: number of participants vs. average time per reconciliation


def fig12_rows(
    peer_counts: Sequence[int] = (10, 25, 50),
    stores: Sequence[str] = ("central", "distributed"),
    interval: int = 4,
    rounds: int = 2,
    seed: int = 42,
) -> List[Tuple[int, str, float, float, float]]:
    """Rows of ``(peers, store, store_s, local_s, total_s)`` — the average
    cost of a single reconciliation as the confederation grows."""
    rows: List[Tuple[int, str, float, float, float]] = []
    for peers in peer_counts:
        for store_name in stores:
            store = STORE_FACTORIES[store_name](peers)
            report = _run(
                peers, interval, rounds, seed=seed, store=store,
                final_reconcile=True,
            )
            rows.append(
                (
                    peers,
                    store_name,
                    report.mean_store_seconds_per_reconciliation,
                    report.mean_local_seconds_per_reconciliation,
                    report.mean_seconds_per_reconciliation,
                )
            )
    return rows
