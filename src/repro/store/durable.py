"""The sqlite update store (Section 5.2.1): the paper's central
relational log, persisted, with RAM O(open frontier).

The paper built its central store on "a major commercial RDBMS";
sqlite3 (stdlib) stands in.  One class serves two registry names that
differ only in the per-call cost model: ``central`` charges
:data:`JDBC_CALL_OVERHEAD` per store procedure call (the paper's remote
RDBMS) and ``durable`` charges none (an embedded store; the paper's
participants each hold "a complete copy of the shared database").  The
design points the paper highlights are reproduced:

* an epoch counter implemented as a database sequence (here the
  ``epochs`` table's row ids), with *begin* and *finish* markers per
  publication, so publishing is not assumed instantaneous;
* reconciliation picks "the latest epoch not preceded by an 'unfinished'
  epoch" and records it immediately in the ``reconciliations`` table,
  holding the epochs-table lock as briefly as possible;
* trust-predicate application and update-extension assembly happen
  store-side, so only relevant transactions and their antecedent closures
  travel to the client;
* the sets of applied and rejected transactions per participant live in
  the store (the client keeps only soft state) — a participant's full
  state is reconstructible from the store alone.

Trust policies themselves are Python callables and are held by the store
process rather than serialised into SQL; the paper's store likewise knows
each peer's trust conditions.

The append-only schema lives in a database file in WAL mode (":memory:"
is the default, and ``central``'s usual choice), which adds:

* **bounded resident memory**: transaction bodies page from disk
  through a :class:`repro.core.cache.PageCache` (LRU, ``cache_size``
  entries), so reconciling over a multi-hundred-thousand-transaction
  history keeps O(cache) bodies in RAM, not O(history);
* **spill-aware retention**: the shared context-free extension memo's
  retired entries (:meth:`~repro.store.network_centric.NetworkCentricMixin.retire_shared_entries`)
  move to the ``retired_extensions`` table instead of being dropped, so
  a participant registered after retirement pages them back in rather
  than recomputing;
* **crash recovery**: reopening a database left by a crashed process
  replays sqlite's WAL, closes any epoch whose publisher died
  mid-publication (publication batches are transactional, so a torn
  batch is impossible — the dangling epoch is simply finished empty),
  and resumes the persisted per-participant applied-set version
  counters — recovery cost is O(delta), never a full-history replay;
  ``Confederation.open()`` then re-registers the configured peers (this
  store *adopts* a participant already on disk) and
  ``Confederation.restore()`` rebuilds each replica from the decisions.
"""

from __future__ import annotations

import ast
import sqlite3
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache import PageCache
from repro.core.decisions import ReconcileResult
from repro.core.extensions import (
    ReconciliationBatch,
    RelevantTransaction,
    TransactionGraph,
    UpdateExtension,
)
from repro.errors import StoreError, UnknownTransactionError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.model.updates import Delete, Insert, Modify, Update
from repro.policy.acceptance import TrustPolicy
from repro.store.base import DEFAULT_MESSAGE_LATENCY, UpdateStore
from repro.store.logic import antecedent_closure, compute_antecedents
from repro.store.network_centric import NetworkCentricMixin
from repro.store.registry import StoreCapabilities

#: Simulated cost per store API call under the ``central`` driver, in
#: seconds.  The paper's central store was a commercial RDBMS on a
#: separate server reached over switched 100Mb Ethernet; each of the
#: "constant number of procedures invoked during each reconciliation"
#: paid a network round trip plus DBMS request processing.  Our
#: in-process sqlite pays neither, so ``central`` charges this per-call
#: overhead to preserve the fixed-cost-per-reconciliation behaviour that
#: drives Figure 10 (frequent reconciliation is expensive on the central
#: store).  The value is calibrated to the order of magnitude of a
#: 2006-era JDBC procedure call against a commercial DBMS over switched
#: Ethernet.
JDBC_CALL_OVERHEAD = 0.025

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS epochs (
    epoch INTEGER PRIMARY KEY AUTOINCREMENT,
    participant INTEGER NOT NULL,
    finished INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS participants (
    id INTEGER PRIMARY KEY,
    last_recon_epoch INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS txns (
    ord INTEGER PRIMARY KEY AUTOINCREMENT,
    participant INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    epoch INTEGER NOT NULL,
    UNIQUE (participant, seq)
);
CREATE TABLE IF NOT EXISTS txn_updates (
    ord INTEGER NOT NULL,
    idx INTEGER NOT NULL,
    kind TEXT NOT NULL,
    relation TEXT NOT NULL,
    old_row TEXT,
    new_row TEXT,
    PRIMARY KEY (ord, idx)
);
CREATE TABLE IF NOT EXISTS antecedents (
    ord INTEGER NOT NULL,
    ante_ord INTEGER NOT NULL,
    PRIMARY KEY (ord, ante_ord)
);
CREATE TABLE IF NOT EXISTS producers (
    relation TEXT NOT NULL,
    row TEXT NOT NULL,
    ord INTEGER NOT NULL,
    PRIMARY KEY (relation, row)
);
CREATE TABLE IF NOT EXISTS decisions (
    participant INTEGER NOT NULL,
    ord INTEGER NOT NULL,
    verdict TEXT NOT NULL,
    PRIMARY KEY (participant, ord)
);
CREATE TABLE IF NOT EXISTS reconciliations (
    participant INTEGER NOT NULL,
    recno INTEGER NOT NULL,
    epoch INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS applied_versions (
    participant INTEGER PRIMARY KEY,
    version INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS retired_extensions (
    participant INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (participant, seq)
);
CREATE INDEX IF NOT EXISTS idx_txns_epoch ON txns (epoch);
CREATE INDEX IF NOT EXISTS idx_decisions ON decisions (participant, verdict);
CREATE INDEX IF NOT EXISTS idx_decisions_ord ON decisions (ord);
"""


class DurableUpdateStore(NetworkCentricMixin, UpdateStore):
    """The sqlite update store with crash recovery and paged bodies."""

    capabilities = StoreCapabilities(
        ships_context_free=True,
        shared_pair_memo=True,
        durable=True,
        network_centric_batches=True,
    )

    #: Default transaction-body page-cache capacity (entries, not bytes):
    #: large enough that an evaluation-schedule frontier never thrashes,
    #: small enough that resident memory is visibly O(cache), not
    #: O(history), at benchmark scale.
    DEFAULT_CACHE_SIZE = 1024

    def __init__(
        self,
        schema: Schema,
        path: str = ":memory:",
        message_latency: float = DEFAULT_MESSAGE_LATENCY,
        cache_size: int = DEFAULT_CACHE_SIZE,
        call_overhead_seconds: float = 0.0,
        real_latency: bool = False,
    ) -> None:
        """``path`` is the database file (":memory:" cannot survive a
        process restart); ``cache_size`` bounds the resident transaction
        bodies; ``call_overhead_seconds`` is the simulated cost charged
        per store procedure call (see :data:`JDBC_CALL_OVERHEAD`)."""
        super().__init__(schema, message_latency, real_latency=real_latency)
        self._call_overhead = call_overhead_seconds
        self.path = path
        # The threaded epoch scheduler calls into the store from worker
        # threads; every call already holds the reentrant store.lock
        # (Participant._store_call, enforced by RPR004), so cross-thread
        # use of one connection is serialised and safe.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        # The standard WAL pairing: commits append to the WAL without an
        # fsync of the main database; the log itself stays consistent, so
        # crash recovery is unaffected — only the most recent commits can
        # be lost, never torn.
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA_SQL)
        self._policies: Dict[int, TrustPolicy] = {}
        self._applied_versions: Dict[int, int] = {}
        self._page_cache = PageCache(cache_size)
        self._recover()

    def close(self) -> None:
        """Close the sqlite connection."""
        self._conn.close()

    def __enter__(self) -> "DurableUpdateStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Crash recovery

    def _recover(self) -> None:
        """Resume from whatever the database file holds.

        Opening the connection already replayed sqlite's WAL.  Two
        pieces of soft state are then rebuilt in O(delta):

        * any epoch still marked unfinished belongs to a publisher that
          died between ``begin_publish`` and ``finish_publish``; its
          batch either committed atomically (``write_transactions`` is
          one sqlite transaction) or not at all, so the epoch is simply
          marked finished and stops blocking the stable-epoch
          computation;
        * the per-participant applied-set version counters are loaded
          from the ``applied_versions`` table — no history replay.
        """
        with self._conn:
            self._conn.execute("UPDATE epochs SET finished = 1 WHERE finished = 0")
        self._applied_versions.update(
            self._conn.execute("SELECT participant, version FROM applied_versions")
        )

    # ------------------------------------------------------------------
    # Registration: adopt participants already on disk

    def register_participant(
        self, participant: int, policy: TrustPolicy
    ) -> None:
        """Register a participant, adopting its on-disk record if any.

        Re-registering an id already attached *in this process* is
        still an error; an id present only in the database (a previous
        incarnation of the confederation) is adopted — its decisions,
        reconciliation epoch, and version counter all resume.  This is
        what lets ``Confederation.open()`` reopen a database file.
        """
        if participant in self._policies:
            raise StoreError(f"participant {participant} already registered")
        self._policies[participant] = policy
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO participants (id) VALUES (?)",
                (participant,),
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO applied_versions (participant, version)"
                " VALUES (?, 0)",
                (participant,),
            )
        self._applied_versions.setdefault(participant, 0)
        self._charge_call()

    def _charge_call(self) -> None:
        """Account one client-server procedure call (request + reply,
        plus the simulated DBMS round-trip overhead)."""
        self.perf.charge(2, self._message_latency)
        self.perf.simulated_seconds += self._call_overhead

    def _policy_of(self, participant: int) -> TrustPolicy:
        try:
            return self._policies[participant]
        except KeyError:
            raise StoreError(
                f"participant {participant} is not registered"
            ) from None

    # ------------------------------------------------------------------
    # Publication (begin epoch -> write transactions -> finish epoch)

    def publish(
        self, participant: int, transactions: Sequence[Transaction]
    ) -> int:
        """Publish a batch under a fresh epoch; see the base class."""
        epoch = self.begin_publish(participant)
        try:
            self.write_transactions(participant, epoch, transactions)
        finally:
            # Mark the epoch finished even on failure so it never blocks
            # the stable-epoch computation forever (aborted publications
            # contribute an empty epoch).
            self.finish_publish(participant, epoch)
        return epoch

    def begin_publish(self, participant: int) -> int:
        """Allocate an epoch and record that publishing has started."""
        self._policy_of(participant)
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO epochs (participant, finished) VALUES (?, 0)",
                (participant,),
            )
            epoch = int(cursor.lastrowid)
        self._charge_call()
        return epoch

    def _validate_open_epoch(self, participant: int, epoch: int) -> None:
        record = self._conn.execute(
            "SELECT participant, finished FROM epochs WHERE epoch = ?",
            (epoch,),
        ).fetchone()
        if record is None or int(record[0]) != participant:
            raise StoreError(
                f"epoch {epoch} is not being published by {participant}"
            )
        if int(record[1]):
            raise StoreError(f"epoch {epoch} is already finished")

    def write_transactions(
        self, participant: int, epoch: int, transactions: Sequence[Transaction]
    ) -> None:
        """Write transactions under an open epoch."""
        self._validate_open_epoch(participant, epoch)
        with self._conn:
            for transaction in transactions:
                self._write_transaction(participant, epoch, transaction)
        self._charge_call()

    def finish_publish(self, participant: int, epoch: int) -> None:
        """Record that the peer has finished writing this epoch."""
        self._validate_open_epoch(participant, epoch)
        with self._conn:
            self._conn.execute(
                "UPDATE epochs SET finished = 1 WHERE epoch = ?", (epoch,)
            )
        self._charge_call()

    def _write_transaction(
        self, participant: int, epoch: int, transaction: Transaction
    ) -> None:
        if transaction.origin != participant:
            raise StoreError(
                f"participant {participant} cannot publish {transaction.tid}"
            )
        antecedents = compute_antecedents(_ProducerView(self), transaction)
        try:
            cursor = self._conn.execute(
                "INSERT INTO txns (participant, seq, epoch) VALUES (?, ?, ?)",
                (transaction.tid.participant, transaction.tid.sequence, epoch),
            )
        except sqlite3.IntegrityError:
            raise StoreError(
                f"transaction {transaction.tid} was already published"
            ) from None
        ord_ = int(cursor.lastrowid)
        for idx, update in enumerate(transaction.updates):
            kind, old_row, new_row = _explode(update)
            self._conn.execute(
                "INSERT INTO txn_updates (ord, idx, kind, relation, old_row,"
                " new_row) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    ord_,
                    idx,
                    kind,
                    update.relation,
                    _encode_row(old_row),
                    _encode_row(new_row),
                ),
            )
            written = update.written_row()
            if written is not None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO producers (relation, row, ord)"
                    " VALUES (?, ?, ?)",
                    (update.relation, _encode_row(written), ord_),
                )
        self._conn.executemany(
            "INSERT OR IGNORE INTO antecedents (ord, ante_ord) VALUES (?, ?)",
            [(ord_, self._ord_of(ante)) for ante in antecedents],
        )
        # The publisher has, by definition, applied its own transaction.
        self._conn.execute(
            "INSERT OR REPLACE INTO decisions (participant, ord, verdict)"
            " VALUES (?, ?, 'applied')",
            (participant, ord_),
        )
        self._bump_applied_version(participant)

    # ------------------------------------------------------------------
    # Reconciliation

    def begin_reconciliation(self, participant: int) -> ReconciliationBatch:
        """Assemble the next batch; see the base class."""
        policy = self._policy_of(participant)
        last = self.last_reconciliation_epoch(participant)

        # Stable epoch: largest prefix of finished epochs.  The paper holds
        # the epochs-table lock just long enough to read this and record
        # the reconciliation; sqlite's connection-level transaction gives
        # the same effect.
        with self._conn:
            record = self._conn.execute(
                "SELECT COALESCE(MIN(epoch) - 1, "
                " (SELECT COALESCE(MAX(epoch), 0) FROM epochs))"
                " FROM epochs WHERE finished = 0"
            ).fetchone()
            recon_epoch = int(record[0])
            self._conn.execute(
                "INSERT INTO reconciliations (participant, recno, epoch)"
                " VALUES (?, ?, ?)",
                (participant, recon_epoch, recon_epoch),
            )
            self._conn.execute(
                "UPDATE participants SET last_recon_epoch = ? WHERE id = ?",
                (recon_epoch, participant),
            )

        rows = self._conn.execute(
            "SELECT t.ord FROM txns t"
            " WHERE t.epoch > ? AND t.epoch <= ? AND t.participant != ?"
            " AND NOT EXISTS (SELECT 1 FROM decisions d WHERE"
            "   d.participant = ? AND d.ord = t.ord)"
            " ORDER BY t.ord",
            (last, recon_epoch, participant, participant),
        ).fetchall()

        roots: List[RelevantTransaction] = []
        for (ord_,) in rows:
            transaction = self._load_transaction(ord_)
            priority = policy.priority_of(self._schema, transaction)
            if priority > 0:
                roots.append(RelevantTransaction(transaction, priority, ord_))

        graph = TransactionGraph()
        closure = antecedent_closure(
            self.antecedents_of,
            [root.tid for root in roots],
            stop=set(self._decided_tids(participant, "applied")),
        )
        for tid in closure:
            graph.add(*self._nc_lookup(tid))

        self._charge_call()
        batch = ReconciliationBatch(
            recno=recon_epoch,
            roots=sorted(roots, key=lambda r: r.order),
            graph=graph,
        )
        # Derived data riding along with the closure transactions: the
        # flattened context-free extensions, computed once per published
        # transaction for the whole confederation (see the mixin).
        self.ship_context_free_extensions(batch)
        return batch

    def complete_reconciliation(
        self, participant: int, result: ReconcileResult
    ) -> None:
        """Record decisions; see the base class."""
        with self._conn:
            for tid in result.applied:
                self._record_decision(participant, tid, "applied")
            for tid in result.rejected:
                self._record_decision(participant, tid, "rejected")
            for tid in result.deferred:
                self._record_decision(participant, tid, "deferred")
        if result.applied:
            self._bump_applied_version(participant)
        self.retire_shared_entries(self._fully_decided(result))
        self._charge_call()

    def _record_decision(
        self, participant: int, tid: TransactionId, verdict: str
    ) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO decisions (participant, ord, verdict)"
            " VALUES (?, ?, ?)",
            (participant, self._ord_of(tid), verdict),
        )

    def _bump_applied_version(self, participant: int) -> None:
        """Bump the participant's applied-set version and persist it.

        May run inside an open publication transaction (covered by the
        caller's commit) or standalone (committed here immediately).
        """
        version = self._applied_versions.get(participant, 0) + 1
        self._applied_versions[participant] = version
        self._write_through(
            "INSERT INTO applied_versions (participant, version) VALUES (?, ?)"
            " ON CONFLICT(participant) DO UPDATE SET version = excluded.version",
            (participant, version),
        )

    def _write_through(self, sql: str, params: Sequence) -> None:
        """Run one write inside the caller's open transaction if there is
        one, else commit it on its own."""
        in_txn = self._conn.in_transaction
        self._conn.execute(sql, params)
        if not in_txn:
            self._conn.commit()

    # Set-based decision bookkeeping: a per-transaction COUNT query is
    # fine at the evaluation schedule's scale but quadratic over a
    # benchmark-sized history (each count scans the growing decisions
    # table).  The ``decisions (ord)`` index resolves a whole
    # reconciliation's retirement set in O(result) chunked queries.

    #: sqlite bind-parameter batches stay well under SQLITE_MAX_VARIABLE_NUMBER.
    _SQL_CHUNK = 400

    def _ords_for(
        self, tids: Sequence[TransactionId]
    ) -> Dict[TransactionId, int]:
        """The ``txns.ord`` of every given transaction id, batched."""
        mapping: Dict[TransactionId, int] = {}
        for start in range(0, len(tids), self._SQL_CHUNK):
            chunk = tids[start : start + self._SQL_CHUNK]
            clause = " OR ".join(
                "(participant = ? AND seq = ?)" for _ in chunk
            )
            params = [
                value
                for tid in chunk
                for value in (tid.participant, tid.sequence)
            ]
            for pid, seq, ord_ in self._conn.execute(
                f"SELECT participant, seq, ord FROM txns WHERE {clause}",
                params,
            ).fetchall():
                mapping[TransactionId(pid, seq)] = ord_
        return mapping

    def _fully_decided(
        self, result: ReconcileResult
    ) -> List[TransactionId]:
        """Roots of this result now finally decided by every participant."""
        candidates = sorted(set(result.applied) | set(result.rejected))
        if not candidates:
            return []
        total = len(self._policies)
        ords = self._ords_for(candidates)
        decided = set()
        ord_list = sorted(ords.values())
        for start in range(0, len(ord_list), self._SQL_CHUNK):
            chunk = ord_list[start : start + self._SQL_CHUNK]
            placeholders = ", ".join("?" for _ in chunk)
            rows = self._conn.execute(
                f"SELECT ord FROM decisions WHERE ord IN ({placeholders})"
                " AND verdict IN ('applied', 'rejected')"
                " GROUP BY ord HAVING COUNT(DISTINCT participant) >= ?",
                (*chunk, total),
            ).fetchall()
            decided.update(ord_ for (ord_,) in rows)
        return [tid for tid in candidates if ords.get(tid) in decided]

    def retire_shared_entries(self, roots) -> None:
        """Retire memo entries, batching their spills into one commit.

        The mixin retires entry by entry; without an enclosing
        transaction every spilled extension would pay its own commit.
        """
        if self._conn.in_transaction:
            super().retire_shared_entries(roots)
            return
        with self._conn:  # commits, or rolls back on any exception
            self._conn.execute("BEGIN")
            super().retire_shared_entries(roots)

    # ------------------------------------------------------------------
    # Introspection

    def current_epoch(self) -> int:
        """The highest epoch allocated so far."""
        record = self._conn.execute(
            "SELECT COALESCE(MAX(epoch), 0) FROM epochs"
        ).fetchone()
        return int(record[0])

    def transaction_count(self) -> int:
        """Total number of transactions ever published."""
        record = self._conn.execute("SELECT COUNT(*) FROM txns").fetchone()
        return int(record[0])

    def last_reconciliation_epoch(self, participant: int) -> int:
        """The participant's most recent reconciliation epoch."""
        record = self._conn.execute(
            "SELECT last_recon_epoch FROM participants WHERE id = ?",
            (participant,),
        ).fetchone()
        if record is None:
            raise StoreError(f"participant {participant} is not registered")
        return int(record[0])

    def antecedents_of(self, tid: TransactionId) -> Tuple[TransactionId, ...]:
        """The antecedents computed for ``tid`` at publish time."""
        return self._antecedent_tids(self._ord_of(tid))

    def decided_transactions(self, participant: int):
        """Applied transactions (publish order) plus rejected/deferred ids."""
        applied_ords = self._conn.execute(
            "SELECT ord FROM decisions WHERE participant = ?"
            " AND verdict = 'applied' ORDER BY ord",
            (participant,),
        ).fetchall()
        return (
            [self._load_transaction(ord_) for (ord_,) in applied_ords],
            sorted(self._decided_tids(participant, "rejected")),
            sorted(self._decided_tids(participant, "deferred")),
        )

    def page_cache_stats(self) -> dict:
        """The body page cache's counters (JSON-friendly)."""
        return self._page_cache.as_dict()

    def retired_extension_count(self) -> int:
        """How many retired extensions have been spilled to disk."""
        record = self._conn.execute(
            "SELECT COUNT(*) FROM retired_extensions"
        ).fetchone()
        return int(record[0])

    # ------------------------------------------------------------------
    # Network-centric accessors (see repro.store.network_centric)

    def _nc_deferred_tids(self, participant: int):
        return self._decided_tids(participant, "deferred")

    def _nc_applied_tids(self, participant: int):
        return set(self._decided_tids(participant, "applied"))

    def _nc_applied_version(self, participant: int) -> int:
        return self._applied_versions.get(participant, 0)

    def _nc_lookup(self, tid: TransactionId):
        ord_ = self._ord_of(tid)
        return self._load_transaction(ord_), self._antecedent_tids(ord_), ord_

    def _nc_priority(self, participant: int, transaction: Transaction) -> int:
        return self._policy_of(participant).priority_of(
            self._schema, transaction
        )

    # ------------------------------------------------------------------
    # Spill-aware shared-memo retention

    def _spill_retired(
        self, tid: TransactionId, extension: UpdateExtension
    ) -> None:
        """Move a retired/evicted context-free extension to disk."""
        self._write_through(
            "INSERT OR REPLACE INTO retired_extensions"
            " (participant, seq, payload) VALUES (?, ?, ?)",
            (tid.participant, tid.sequence, _encode_extension(extension)),
        )

    def _load_retired(self, tid: TransactionId) -> Optional[UpdateExtension]:
        """Page a spilled context-free extension back in, if present."""
        record = self._conn.execute(
            "SELECT payload FROM retired_extensions"
            " WHERE participant = ? AND seq = ?",
            (tid.participant, tid.sequence),
        ).fetchone()
        if record is None:
            return None
        return _decode_extension(record[0])

    # ------------------------------------------------------------------
    # Row/transaction codecs

    def _ord_of(self, tid: TransactionId) -> int:
        record = self._conn.execute(
            "SELECT ord FROM txns WHERE participant = ? AND seq = ?",
            (tid.participant, tid.sequence),
        ).fetchone()
        if record is None:
            raise UnknownTransactionError(str(tid))
        return int(record[0])

    def _tid_of(self, ord_: int) -> TransactionId:
        record = self._conn.execute(
            "SELECT participant, seq FROM txns WHERE ord = ?", (ord_,)
        ).fetchone()
        if record is None:
            raise UnknownTransactionError(f"ord={ord_}")
        return TransactionId(int(record[0]), int(record[1]))

    def _antecedent_tids(self, ord_: int) -> Tuple[TransactionId, ...]:
        rows = self._conn.execute(
            "SELECT t.participant, t.seq FROM antecedents a"
            " JOIN txns t ON t.ord = a.ante_ord WHERE a.ord = ?"
            " ORDER BY t.ord",
            (ord_,),
        ).fetchall()
        return tuple(TransactionId(int(p), int(s)) for p, s in rows)

    def _decided_tids(
        self, participant: int, verdict: str
    ) -> List[TransactionId]:
        """The participant's transactions with ``verdict``, in publish order."""
        rows = self._conn.execute(
            "SELECT t.participant, t.seq FROM decisions d"
            " JOIN txns t ON t.ord = d.ord"
            " WHERE d.participant = ? AND d.verdict = ? ORDER BY d.ord",
            (participant, verdict),
        ).fetchall()
        return [TransactionId(int(p), int(s)) for p, s in rows]

    def _load_transaction(self, ord_: int) -> Transaction:
        """A transaction body, served from the LRU page cache when hot."""
        cached = self._page_cache.get(ord_)
        if cached is not None:
            return cached
        tid = self._tid_of(ord_)
        rows = self._conn.execute(
            "SELECT kind, relation, old_row, new_row FROM txn_updates"
            " WHERE ord = ? ORDER BY idx",
            (ord_,),
        ).fetchall()
        updates = tuple(
            _implode(kind, relation, _decode_row(old), _decode_row(new), tid.participant)
            for kind, relation, old, new in rows
        )
        transaction = Transaction(tid, updates)
        self._page_cache.put(ord_, transaction)
        return transaction


class _ProducerView:
    """The ``producers`` table behind the one mapping method
    :func:`~repro.store.logic.compute_antecedents` uses."""

    __slots__ = ("_store",)

    def __init__(self, store: DurableUpdateStore) -> None:
        self._store = store

    def get(self, key, default=None):
        """The transaction that last wrote ``(relation, row)``, else
        ``default`` — ``dict.get``'s contract."""
        relation, row = key
        record = self._store._conn.execute(
            "SELECT ord FROM producers WHERE relation = ? AND row = ?",
            (relation, _encode_row(row)),
        ).fetchone()
        if record is None:
            return default
        return self._store._tid_of(int(record[0]))


def _encode_row(row: Optional[Tuple]) -> Optional[str]:
    return None if row is None else repr(row)


def _decode_row(text: Optional[str]) -> Optional[Tuple]:
    return None if text is None else ast.literal_eval(text)


def _explode(update: Update) -> Tuple[str, Optional[Tuple], Optional[Tuple]]:
    """Decompose an update into (kind, old_row, new_row) for storage."""
    if isinstance(update, Insert):
        return "insert", None, update.row
    if isinstance(update, Delete):
        return "delete", update.row, None
    return "modify", update.old_row, update.new_row


def _implode(
    kind: str,
    relation: str,
    old_row: Optional[Tuple],
    new_row: Optional[Tuple],
    origin: int,
) -> Update:
    """The inverse of :func:`_explode`."""
    if kind == "insert":
        return Insert(relation, new_row, origin)
    if kind == "delete":
        return Delete(relation, old_row, origin)
    return Modify(relation, old_row, new_row, origin)


def _encode_extension(extension: UpdateExtension) -> str:
    """Serialise an extension as a ``repr`` literal (see sqlite_instance).

    Every field is literal-representable: transaction ids become
    ``(participant, sequence)`` pairs, updates become
    ``(kind, relation, old_row, new_row, origin)`` tuples, and the
    touched-key set is sorted so the encoding is deterministic.
    """
    operations = []
    for update in extension.operations:
        kind, old_row, new_row = _explode(update)
        operations.append((kind, update.relation, old_row, new_row, update.origin))
    payload = (
        (extension.root.participant, extension.root.sequence),
        extension.priority,
        tuple((m.participant, m.sequence) for m in extension.members),
        tuple(operations),
        tuple(sorted(extension.touched)),
    )
    return repr(payload)


def _decode_extension(text: str) -> UpdateExtension:
    """Rebuild an :func:`_encode_extension` payload.

    The decoded extension is *value*-equal to the one spilled; the
    identity-keyed shared pair memo therefore misses against it and
    re-compares, which is exactly the semantics of a cache re-fill.
    """
    root_pair, priority, members, operations, touched = ast.literal_eval(text)
    return UpdateExtension(
        root=TransactionId(*root_pair),
        members=tuple(TransactionId(*pair) for pair in members),
        operations=tuple(_implode(*operation) for operation in operations),
        touched=frozenset(touched),
        priority=priority,
    )
