"""The benchmark's workloads: what each runs, and why it exists.

Every workload uses the paper's evaluation shape
(:meth:`ConfederationConfig.evaluation`: peers ``1..n``, mutual trust at
one priority, Zipf s=1.5, 7.3 xrefs per insert).  The seed is a
benchmark argument and reaches the program only as
``WorkloadConfig(seed=...)``.

Each workload is sized so that one layer dominates it and another is
nearly absent, so a change to one layer shows on one workload and reads
flat on another.  ``stresses``/``bypasses`` record that intent; the
traced self-time shares that back it are in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.confed import ConfederationConfig
from repro.workload import WorkloadConfig

#: ``BENCHMARK.json`` at the checkout root: the one copy of each
#: workload's reason and of each metric's name and unit.
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: Durable-store database file name inside the run's work directory.
DB_NAME = "history.db"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a confederation shape plus its rationale."""

    name: str
    store: str
    peers: int
    interval: int
    rounds: int
    stresses: str
    bypasses: str
    #: Workload seeds derived from ``--seed``; a pass runs one repetition
    #: of each.  Seed content moves the figures, so each workload runs
    #: several.
    seeds: int
    #: Nominal wall seconds of one untraced pass on the reference host
    #: (2 cores), set-ups and probes included; it sets how many passes
    #: an invocation makes (:func:`perfbench.bench.passes`).
    pass_seconds: float
    store_options: Dict[str, object] = field(default_factory=dict)
    schedule_mode: str = "serial"
    network_centric: str = "client"

    @property
    def why(self) -> str:
        """The workload's one-line reason for existing."""
        return next(w["why"] for w in SPEC["workloads"] if w["name"] == self.name)

    @property
    def file_backed(self) -> bool:
        """The store writes a database file.  Recovery then closes the
        store and reopens the file before restoring every participant
        (the crash-restart path of Sec. 5.2); otherwise participants are
        restored from the live store."""
        return self.store == "durable"

    def _evaluation(self, seed: int, **overrides) -> ConfederationConfig:
        return ConfederationConfig.evaluation(
            self.peers,
            schedule_mode=self.schedule_mode,
            reconciliation_interval=self.interval,
            rounds=self.rounds,
            workload=WorkloadConfig(seed=seed),
            **overrides,
        )

    def config(
        self, seed: int, workdir: Optional[Path] = None
    ) -> ConfederationConfig:
        """The confederation this workload runs on ``seed``.

        A store that writes a database file puts it in ``workdir``.
        """
        options = dict(self.store_options)
        if self.file_backed:
            if workdir is None:
                raise ValueError(f"workload {self.name} needs a work directory")
            options["path"] = str(workdir / DB_NAME)
        return self._evaluation(
            seed,
            store=self.store,
            store_options=options,
            network_centric=self.network_centric,
        )

    def reference_config(self, seed: int) -> ConfederationConfig:
        """The decision reference: the same schedule mode and seed on the
        ``memory`` store, client-computed, with the engine caches off."""
        return self._evaluation(
            seed, store="memory", network_centric="client", engine_caching=False
        )

    def describe(self) -> Dict[str, object]:
        """The workload's recorded shape and rationale."""
        return {
            "why": self.why,
            "store": self.store,
            "store_options": dict(self.store_options),
            "peers": self.peers,
            "interval": self.interval,
            "rounds": self.rounds,
            "transactions_per_repetition": self.peers * self.interval * self.rounds,
            "seeds": self.seeds,
            "pass_seconds": self.pass_seconds,
            "schedule_mode": self.schedule_mode,
            "batch_mode": self.network_centric,
            "recovery": "reopen file, then restore()" if self.file_backed
            else "restore() from the live store",
            "stresses": self.stresses,
            "bypasses": self.bypasses,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig12-memory",
            store="memory",
            peers=16,
            interval=4,
            rounds=2,
            seeds=16,
            pass_seconds=10.0,
            stresses="engine (ReconcileSession), TrustPolicy.priority_of, "
            "WorkloadGenerator.transaction_updates",
            bypasses="sqlite store and row codec, page cache, simnet",
        ),
        Workload(
            name="durable-history",
            store="durable",
            store_options={"cache_size": 16},
            peers=2,
            interval=16,
            rounds=16,
            seeds=10,
            pass_seconds=25.0,
            stresses="reconciliation_batch paging through the body page "
            "cache, the write path, crash-restart recovery",
            bypasses="simnet, DHT protocol, async barrier; the engine is small",
        ),
        Workload(
            name="dht-async",
            store="dht",
            store_options={"hosts": 8, "real_latency": True},
            network_centric="store",
            schedule_mode="async",
            peers=16,
            interval=2,
            rounds=4,
            seeds=12,
            pass_seconds=40.0,
            stresses="simnet and DHT protocol messages, LatencyClock waits, "
            "the pipelined publish barrier",
            bypasses="sqlite store and row codec, page cache",
        ),
    )
}
