"""Update stores: the publication and retrieval substrate (Section 5.2).

The update store logs published transactions with their epochs, computes
antecedent edges at publish time, applies trust predicates, assembles
reconciliation batches, and records each participant's decisions so no
transaction is delivered twice.

Three implementations share the :class:`repro.store.base.UpdateStore`
interface and are registered under four names in the **driver
registry** (:mod:`repro.store.registry`) so backends are selected by
name with honest capability flags:

* ``memory`` — :class:`repro.store.memory.MemoryUpdateStore` — plain
  in-process state; fastest, used by the state-ratio simulations; ships
  context-free extensions and the shared pair memo;
* ``central`` and ``durable`` — :class:`repro.store.durable.DurableUpdateStore`
  — the paper's central relational store (Section 5.2.1) on sqlite3:
  the epoch begin/finish protocol and stable-epoch computation, an
  append-only schema on a database file (WAL mode, crash recovery,
  adopt-on-reopen), transaction bodies paged through a bounded LRU so
  resident memory is O(open frontier), and retired shared-memo entries
  spilled to disk instead of dropped.  The two names differ only in the
  per-call cost model: ``central`` charges
  :data:`repro.store.durable.JDBC_CALL_OVERHEAD` per store call (the
  paper's remote commercial RDBMS), ``durable`` charges none (an
  embedded store);
* ``dht`` — :class:`repro.store.dht.DhtUpdateStore` — the paper's
  distributed store (Section 5.2.2), simulated over a Pastry-style ring
  with per-message latency and byte accounting (Figures 6-7); since
  PR 3 its transaction controllers derive context-free extensions at
  publish time and ship them on fetch, with a confederation-wide pair
  memo (``ships_context_free=True``, ``shared_pair_memo=True``;
  ``ship_context_free=False`` restores the paper's client-compute-only
  behaviour); since PR 5 it also serves *fully* network-centric batches
  (``network_centric_batches=True``): controllers derive each
  participant's extensions against that participant's applied set over
  the ring, closing the last quadrant of Figure 3.

New backends call :func:`repro.store.registry.register_store` and become
selectable from a :class:`repro.confed.ConfederationConfig` without any
engine changes.
"""

from repro.store.base import PerfCounters, UpdateStore
from repro.store.dht import DhtUpdateStore
from repro.store.durable import JDBC_CALL_OVERHEAD, DurableUpdateStore
from repro.store.memory import MemoryUpdateStore
from repro.store.registry import (
    StoreCapabilities,
    StoreDriver,
    available_stores,
    create_store,
    register_store,
    store_capabilities,
    store_driver,
    unregister_store,
)

register_store(
    "memory",
    lambda schema, **options: MemoryUpdateStore(schema, **options),
    MemoryUpdateStore.capabilities,
)
register_store(
    "central",
    lambda schema, **options: DurableUpdateStore(
        schema, **{"call_overhead_seconds": JDBC_CALL_OVERHEAD, **options}
    ),
    DurableUpdateStore.capabilities,
)
register_store(
    "dht",
    lambda schema, **options: DhtUpdateStore(schema, **options),
    DhtUpdateStore.capabilities,
)
register_store(
    "durable",
    lambda schema, **options: DurableUpdateStore(schema, **options),
    DurableUpdateStore.capabilities,
)

__all__ = [
    "DhtUpdateStore",
    "DurableUpdateStore",
    "MemoryUpdateStore",
    "PerfCounters",
    "StoreCapabilities",
    "StoreDriver",
    "UpdateStore",
    "available_stores",
    "create_store",
    "register_store",
    "store_capabilities",
    "store_driver",
    "unregister_store",
]
