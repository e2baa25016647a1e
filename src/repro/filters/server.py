"""Server-side filter: structural queries, share evaluation, result buffering.

The server is untrusted: it sees only pre/post/parent numbers and share
coefficient vectors.  Every method of this class takes and returns plain
serialisable values (ints, lists, dicts) so it can sit behind the
:class:`~repro.rmi.proxy.RemoteProxy` boundary exactly like the prototype's
RMI ``ServerFilter``.

Batch protocol
--------------

The per-node primitives (``node_info``, ``children_of``, ``evaluate``, …)
each cost one remote round trip, so a query step over *k* candidates used to
issue *k* calls.  The bulk endpoints collapse that to one call per step:

* :meth:`node_infos` / :meth:`children_of_many` / :meth:`descendants_of_many`
  — structural queries over a whole candidate list, returning one result per
  input ``pre`` (aligned by position, unknown nodes yield ``None`` / ``[]``
  exactly like their single-node counterparts).
* :meth:`evaluate_batch` / :meth:`fetch_shares_batch` — share access for a
  whole candidate list.  Unknown ``pre`` numbers raise :class:`LookupError`,
  matching :meth:`evaluate` / :meth:`fetch_share`.

The row-resolving endpoints (``node_infos``, ``evaluate_batch``,
``fetch_shares_batch``) answer dense batches (the common case: candidates
are a contiguous sibling or subtree range) in a **single ascending pass**
over the ``pre`` index instead of one B+-tree descent per node, falling back
to point lookups for sparse batches; ``children_of_many`` /
``descendants_of_many`` iterate their per-node counterparts server-side (the
saving there is the round trips, not the index work).  Decoded
:class:`~repro.poly.ring.RingPolynomial` shares are kept in a bounded LRU
cache (the table is bulk-load-then-query, so entries never go stale);
:meth:`share_cache_info` exposes hit/miss accounting.

Write protocol
--------------

Mutations arrive as **deltas** (see :class:`repro.encode.mutate.WriteDelta`)
through a two-phase surface: :meth:`prepare_delta` validates the delta
against the table's current **epoch** and stages it, :meth:`commit_delta`
applies the staged rows atomically (under the server lock) and advances the
epoch, :meth:`abort_delta` discards it.  A delta whose ``base_epoch`` does
not match the table raises
:class:`~repro.storage.errors.WriteConflictError` — the optimistic
concurrency check that serialises concurrent writers.  Committing evicts
every touched ``pre`` from the decoded-share LRU, so no stale polynomial is
ever served after a write.  :meth:`row_versions` exposes the per-row write
versions that read-repair compares across servers.

Thread-safety contract
----------------------

The concurrent cluster transport may hit one server from several client
threads at once (a structural prefetch overlapping an in-flight share
scatter, a hedged re-issue racing the original).  The mutable server state —
the decoded-share LRU (an ``OrderedDict`` whose ``move_to_end`` is a
read-modify-write), the ``next_node`` queue table, and the write-path
staging area — is guarded by one internal lock.  Delta commits mutate the
node table under that lock; a read racing a commit sees either the old or
the new rows of the affected range, and the cross-server version checks at
reconstruction time catch (and repair) any skew the race exposes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.filters.interface import Filter
from repro.poly.ring import QuotientRing, RingPolynomial
from repro.storage.errors import StaleVersionError, WriteConflictError
from repro.storage.table import Table

#: below this key-density a batch is resolved by point lookups instead of a
#: single range pass (scanning a long sparse range would touch more rows)
_DENSE_SCAN_FACTOR = 4


class ServerFilter(Filter):
    """Answers structural and share-evaluation requests from the node table."""

    def __init__(self, table: Table, ring: QuotientRing, share_cache_size: int = 256):
        if share_cache_size < 0:
            raise ValueError("share_cache_size must be non-negative")
        self._table = table
        self._ring = ring
        # Result queues for the next_node() pipeline: the big server buffers
        # intermediate result sets so the thin client holds one node at a time.
        # Deques give O(1) pops from the front; a plain list.pop(0) made
        # draining a queue quadratic in its length.
        self._queues: Dict[int, Deque[int]] = {}
        self._next_queue_id = 1
        # Bounded LRU of decoded share polynomials, keyed by ``pre``.
        self._share_cache: "OrderedDict[int, RingPolynomial]" = OrderedDict()
        self._share_cache_size = share_cache_size
        self._share_cache_hits = 0
        self._share_cache_misses = 0
        # Guards the share LRU and the queue table against concurrent
        # readers (see the module docstring's thread-safety contract).
        self._lock = threading.RLock()
        # Write path: the table's committed epoch and the staged delta of an
        # in-flight two-phase write (at most one at a time per server).
        self._table_epoch = 0
        self._staged_delta: Optional[Dict] = None

    # ------------------------------------------------------------------
    # Structural queries (all via the indexed access paths)
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Total number of stored nodes."""
        return len(self._table)

    def root_pre(self) -> int:
        """Locate the root: the only node with ``parent == 0`` (indexed)."""
        rows = self._table.lookup("parent", 0)
        if not rows:
            raise LookupError("node table contains no root (parent = 0) row")
        if len(rows) > 1:
            raise LookupError("node table contains %d root rows" % len(rows))
        return rows[0]["pre"]

    def node_info(self, pre: int) -> Optional[Dict[str, int]]:
        """pre/post/parent of one node, or ``None`` when absent."""
        rows = self._table.lookup("pre", pre)
        if not rows:
            return None
        row = rows[0]
        return {"pre": row["pre"], "post": row["post"], "parent": row["parent"]}

    def node_infos(self, pres: List[int]) -> List[Optional[Dict[str, int]]]:
        """Batch variant of :meth:`node_info` (aligned with ``pres``)."""
        pres = list(pres)
        rows = self._rows_for(pres)
        infos: List[Optional[Dict[str, int]]] = []
        for pre in pres:
            row = rows.get(pre)
            if row is None:
                infos.append(None)
            else:
                infos.append({"pre": row["pre"], "post": row["post"], "parent": row["parent"]})
        return infos

    def children_of(self, pre: int) -> List[int]:
        """Direct children via the ``parent`` index, in document order."""
        rows = self._table.lookup("parent", pre)
        return sorted(row["pre"] for row in rows)

    def children_of_many(self, pres: List[int]) -> List[List[int]]:
        """Children of every node in ``pres`` (one list per input node).

        Dense batches (the common case: a contiguous sibling or subtree
        range) are resolved in one grouped ascending pass over the
        ``parent`` index between the smallest and largest requested parent;
        sparse batches fall back to one point lookup per parent, exactly
        like :meth:`children_of`.
        """
        pres = list(pres)
        if not pres:
            return []
        wanted = set(pres)
        grouped: Dict[int, List[int]] = {pre: [] for pre in wanted}
        low, high = min(wanted), max(wanted)
        scanned = False
        if high - low + 1 <= _DENSE_SCAN_FACTOR * len(wanted):
            # The parent index is non-unique, so a small key range can still
            # hold a huge row count (an unrequested node with big fanout).
            # Abandon the scan once the wasted rows exceed the budget and
            # fall back to point lookups.
            budget = _DENSE_SCAN_FACTOR * len(wanted)
            wasted = 0
            scanned = True
            for row in self._table.range_lookup("parent", low=low, high=high):
                bucket = grouped.get(row["parent"])
                if bucket is None:
                    wasted += 1
                    if wasted > budget:
                        scanned = False
                        grouped = {pre: [] for pre in wanted}
                        break
                else:
                    bucket.append(row["pre"])
            if scanned:
                for bucket in grouped.values():
                    bucket.sort()
        if not scanned:
            for pre in wanted:
                grouped[pre] = sorted(
                    row["pre"] for row in self._table.lookup("parent", pre)
                )
        return [list(grouped[pre]) for pre in pres]

    def descendants_of(self, pre: int) -> List[int]:
        """All proper descendants via a bounded ``pre`` range scan.

        Pre-order subtrees are contiguous: every descendant follows the
        anchor in ``pre`` order and precedes it in ``post`` order, and the
        first following row with a larger ``post`` marks the end of the
        subtree — so the scan stops there instead of filtering every row to
        the end of the table.
        """
        anchor_rows = self._table.lookup("pre", pre)
        if not anchor_rows:
            return []
        anchor = anchor_rows[0]
        result = []
        for row in self._table.range_lookup("pre", low=anchor["pre"], include_low=False):
            if row["post"] > anchor["post"]:
                break
            result.append(row["pre"])
        return result

    def descendants_of_many(self, pres: List[int]) -> List[List[int]]:
        """Descendants of every node in ``pres`` (one list per input node)."""
        return [self.descendants_of(pre) for pre in pres]

    def parent_of(self, pre: int) -> int:
        """Parent ``pre`` number (0 for the root; raises for unknown nodes)."""
        rows = self._table.lookup("pre", pre)
        if not rows:
            raise LookupError("no node with pre=%d" % pre)
        return rows[0]["parent"]

    # ------------------------------------------------------------------
    # Share access
    # ------------------------------------------------------------------

    def evaluate(self, pre: int, point: int) -> int:
        """Evaluate the *stored server share* of node ``pre`` at ``point``."""
        return self._ring.evaluate(self._share_polynomial(pre), point)

    def evaluate_batch(self, pres: List[int], point: int) -> List[int]:
        """Evaluate the stored shares of all ``pres`` at ``point``.

        One remote call and one index pass resolve every non-cached share;
        results are aligned with ``pres``.  Unknown nodes raise
        :class:`LookupError` like :meth:`evaluate`.
        """
        pres = list(pres)
        polys: Dict[int, RingPolynomial] = {}
        uncached: List[int] = []
        # One lock acquisition covers the whole cache-lookup pass (instead of
        # one per candidate); hit/miss accounting and LRU touch order match
        # the per-node loop exactly.
        with self._lock:
            for pre in dict.fromkeys(pres):
                poly = self._share_cache.get(pre)
                if poly is not None:
                    self._share_cache.move_to_end(pre)
                    self._share_cache_hits += 1
                    polys[pre] = poly
                else:
                    self._share_cache_misses += 1
                    uncached.append(pre)
        if uncached:
            rows = self._rows_for(uncached)
            absent = sorted(set(uncached) - rows.keys())
            if absent:
                raise LookupError("no node with pre=%s" % absent)
            for pre in uncached:
                polys[pre] = self._ring.wrap_canonical(rows[pre]["share"])
            if self._share_cache_size:
                # Second single acquisition stores every decoded share.
                # Insertions append in the same order the loop did, and
                # evicting from the front afterwards pops exactly the
                # entries per-store eviction would have.
                with self._lock:
                    for pre in uncached:
                        self._share_cache[pre] = polys[pre]
                        self._share_cache.move_to_end(pre)
                    while len(self._share_cache) > self._share_cache_size:
                        self._share_cache.popitem(last=False)
        return self._ring.evaluate_many([polys[pre] for pre in pres], point)

    def fetch_share(self, pre: int) -> List[int]:
        """The raw server-share coefficients of node ``pre``.

        Needed by the client for the equality test, which must reconstruct
        whole polynomials rather than just evaluations.
        """
        return list(self._share_row(pre)["share"])

    def fetch_shares_batch(self, pres: List[int]) -> List[List[int]]:
        """Raw share coefficients for all ``pres``, one index pass.

        Results align with ``pres`` (duplicates allowed); unknown nodes raise
        :class:`LookupError` like :meth:`fetch_share`.
        """
        pres = list(pres)
        rows = self._rows_for(pres)
        absent = sorted(set(pres) - rows.keys())
        if absent:
            raise LookupError("no node with pre=%s" % absent)
        return [list(rows[pre]["share"]) for pre in pres]

    def _share_row(self, pre: int) -> Dict:
        rows = self._table.lookup("pre", pre)
        if not rows:
            raise LookupError("no node with pre=%d" % pre)
        return rows[0]

    def _share_polynomial(self, pre: int) -> RingPolynomial:
        poly = self._cached_share(pre)
        if poly is None:
            # Rows were written from canonical share coefficients by the
            # encoder, so the validating constructor is unnecessary here.
            poly = self._ring.wrap_canonical(self._share_row(pre)["share"])
            self._store_share(pre, poly)
        return poly

    # ------------------------------------------------------------------
    # Batch row resolution + share cache
    # ------------------------------------------------------------------

    def _rows_for(self, pres: Sequence[int]) -> Dict[int, Dict]:
        """Resolve the table rows of a batch of ``pre`` keys.

        Dense batches are answered by a single ascending pass over the
        ``pre`` index between the smallest and largest key; sparse batches
        (where that range would be mostly misses) use point lookups.
        Missing keys are simply absent from the result.
        """
        wanted = set(pres)
        if not wanted:
            return {}
        found: Dict[int, Dict] = {}
        low, high = min(wanted), max(wanted)
        if high - low + 1 <= _DENSE_SCAN_FACTOR * len(wanted):
            for row in self._table.range_lookup("pre", low=low, high=high):
                if row["pre"] in wanted:
                    found[row["pre"]] = row
                    if len(found) == len(wanted):
                        break
        else:
            for pre in wanted:
                rows = self._table.lookup("pre", pre)
                if rows:
                    found[pre] = rows[0]
        return found

    def _cached_share(self, pre: int) -> Optional[RingPolynomial]:
        with self._lock:
            poly = self._share_cache.get(pre)
            if poly is not None:
                self._share_cache.move_to_end(pre)
                self._share_cache_hits += 1
                return poly
            self._share_cache_misses += 1
            return None

    def _store_share(self, pre: int, poly: RingPolynomial) -> None:
        if self._share_cache_size == 0:
            return
        with self._lock:
            self._share_cache[pre] = poly
            self._share_cache.move_to_end(pre)
            while len(self._share_cache) > self._share_cache_size:
                self._share_cache.popitem(last=False)

    def share_cache_info(self) -> Dict[str, object]:
        """Hit/miss/occupancy accounting of the decoded-share LRU cache.

        ``backend`` names the arithmetic kernel that produced every
        evaluation this server performed, so traces and reports can state
        which implementation they measured.
        """
        with self._lock:
            return {
                "hits": self._share_cache_hits,
                "misses": self._share_cache_misses,
                "size": len(self._share_cache),
                "capacity": self._share_cache_size,
                "backend": self._ring.kernel.name,
            }

    # ------------------------------------------------------------------
    # Write path — two-phase delta application
    # ------------------------------------------------------------------

    def table_epoch(self) -> int:
        """The epoch of the last committed delta (0 = bulk-loaded state)."""
        with self._lock:
            return self._table_epoch

    def row_versions(self, pres: List[int]) -> List[int]:
        """Write versions of the given rows, aligned with ``pres``.

        Rows the bulk encoder loaded (never mutated) report version 0;
        unknown rows report -1.  Read-repair compares these across servers
        to tell *stale* (behind on a committed write) from *corrupt*.
        """
        rows = self._rows_for(list(pres))
        versions = []
        for pre in pres:
            row = rows.get(pre)
            if row is None:
                versions.append(-1)
            else:
                versions.append(row.get("version") or 0)
        return versions

    def prepare_delta(self, payload: Dict) -> Dict[str, int]:
        """Phase one: validate a delta against the table epoch and stage it.

        Raises :class:`WriteConflictError` when the delta was computed
        against a different epoch than the table holds (another write
        committed first, or this server missed one), and
        :class:`StaleVersionError` when a structural update targets a row
        this server does not have.  Staging is idempotent for the same
        epoch; a different staged epoch is a conflict.
        """
        base_epoch = int(payload["base_epoch"])
        epoch = int(payload["epoch"])
        if epoch <= base_epoch:
            raise WriteConflictError(
                "delta epoch %d does not advance base epoch %d" % (epoch, base_epoch)
            )
        with self._lock:
            if self._table_epoch != base_epoch:
                raise WriteConflictError(
                    "delta was computed against epoch %d but the table is at "
                    "epoch %d" % (base_epoch, self._table_epoch)
                )
            if self._staged_delta is not None and self._staged_delta["epoch"] != epoch:
                raise WriteConflictError(
                    "another delta (epoch %d) is already prepared"
                    % self._staged_delta["epoch"]
                )
            missing = [
                pre
                for pre, _, _ in payload.get("structural", [])
                if not self._table.lookup("pre", pre)
            ]
            if missing:
                raise StaleVersionError(
                    "structural update targets rows this server does not "
                    "hold: %s" % missing,
                    stale_pres=missing,
                    expected=base_epoch,
                    found=self._table_epoch,
                )
            self._staged_delta = {
                "base_epoch": base_epoch,
                "epoch": epoch,
                "upserts": [list(record) for record in payload.get("upserts", [])],
                "structural": [list(record) for record in payload.get("structural", [])],
                "deletes": [int(pre) for pre in payload.get("deletes", [])],
            }
            return {"epoch": epoch, "base_epoch": base_epoch}

    def commit_delta(self, epoch: int) -> Dict[str, int]:
        """Phase two: apply the staged delta atomically and advance the epoch.

        All deletions (explicit deletes, re-shared rows, renumbered rows)
        happen before any insertion, so the unique ``pre``/``post`` indexes
        never see a transient collision while a whole range shifts.  Every
        touched ``pre`` is evicted from the decoded-share LRU.
        """
        with self._lock:
            staged = self._staged_delta
            if staged is None or staged["epoch"] != epoch:
                raise WriteConflictError(
                    "no delta at epoch %d is prepared (staged: %s)"
                    % (epoch, staged["epoch"] if staged else None)
                )
            inserts: List[Dict] = []
            touched: List[int] = list(staged["deletes"])
            for pre, post, parent in staged["structural"]:
                rows = self._table.lookup("pre", pre)
                if not rows:
                    raise StaleVersionError(
                        "structural update targets a row this server lost: %d" % pre,
                        stale_pres=[pre],
                    )
                old = rows[0]
                row = {"pre": pre, "post": post, "parent": parent, "share": old["share"]}
                if old.get("version"):
                    row["version"] = old["version"]
                inserts.append(row)
                touched.append(pre)
            for pre, post, parent, share, version in staged["upserts"]:
                row = {"pre": pre, "post": post, "parent": parent, "share": tuple(share)}
                if version:
                    row["version"] = version
                inserts.append(row)
                touched.append(pre)
            for pre in touched:
                self._table.delete_by("pre", pre)
            for row in inserts:
                self._table.insert(row)
            self._table_epoch = epoch
            self._staged_delta = None
            for pre in touched:
                self._share_cache.pop(pre, None)
            for queue in self._queues.values():
                # buffered result queues may reference renumbered rows;
                # a committed write invalidates in-flight pipelines
                queue.clear()
            return {
                "epoch": epoch,
                "upserts": len(staged["upserts"]),
                "structural": len(staged["structural"]),
                "deletes": len(staged["deletes"]),
            }

    def abort_delta(self, epoch: int) -> bool:
        """Discard a staged delta; returns whether one was staged."""
        with self._lock:
            if self._staged_delta is not None and self._staged_delta["epoch"] == epoch:
                self._staged_delta = None
                return True
            return False

    def apply_delta(self, payload: Dict) -> Dict[str, int]:
        """One-shot prepare + commit (journal replay and read-repair path)."""
        prepared = self.prepare_delta(payload)
        return self.commit_delta(prepared["epoch"])

    def set_table_epoch(self, epoch: int) -> None:
        """Force the table epoch (heal path: a rebuilt server adopts the
        consistent epoch its rows were re-derived at)."""
        with self._lock:
            self._table_epoch = int(epoch)
            self._staged_delta = None

    # ------------------------------------------------------------------
    # next_node() pipeline — server-side buffering of intermediate results
    # ------------------------------------------------------------------

    def open_queue(self, pres: List[int]) -> int:
        """Create a buffered result queue and return its id."""
        with self._lock:
            queue_id = self._next_queue_id
            self._next_queue_id += 1
            self._queues[queue_id] = deque(pres)
            return queue_id

    def open_children_queue(self, pres: List[int]) -> int:
        """Create a queue holding the children of every node in ``pres``."""
        children: List[int] = []
        for pre in pres:
            children.extend(self.children_of(pre))
        return self.open_queue(children)

    def open_descendants_queue(self, pres: List[int]) -> int:
        """Create a queue holding the descendants of every node in ``pres``."""
        descendants: List[int] = []
        for pre in pres:
            descendants.extend(self.descendants_of(pre))
        return self.open_queue(descendants)

    def next_node(self, queue_id: int) -> int:
        """Pop the next buffered node (``-1`` once the queue is exhausted)."""
        with self._lock:
            queue = self._queues.get(queue_id)
            if queue is None:
                raise LookupError("unknown queue id %d" % queue_id)
            if not queue:
                return -1
            return queue.popleft()

    def queue_size(self, queue_id: int) -> int:
        """Number of nodes still buffered in a queue."""
        with self._lock:
            queue = self._queues.get(queue_id)
            if queue is None:
                raise LookupError("unknown queue id %d" % queue_id)
            return len(queue)

    def close_queue(self, queue_id: int) -> bool:
        """Discard a queue; returns whether it existed."""
        with self._lock:
            return self._queues.pop(queue_id, None) is not None


class CorruptibleServerFilter(ServerFilter):
    """A :class:`ServerFilter` with a share-corruption fault injector.

    Chaos harnesses need to corrupt a *live* server's stored shares — the
    on-disk deployment slice must stay pristine so a healed replacement can
    be byte-compared against it.  :meth:`corrupt_share` mutates one node's
    share row in place and drops its decoded LRU entry, so the corruption is
    served on the very next read.  Only the ``repro-server --chaos`` flag
    wires this subclass in; production servers never export the method.
    """

    def corrupt_share(self, pre: int, delta: int = 1) -> List[int]:
        """Add ``delta`` (mod the field order) to every stored coefficient.

        Returns the corrupted coefficients.  Raises :class:`LookupError`
        for an unknown node and :class:`ValueError` when ``delta`` is a
        multiple of the field order (which would corrupt nothing).
        """
        order = self._ring.field.order
        delta = int(delta) % order
        if delta == 0:
            raise ValueError("delta must be non-zero modulo the field order")
        row = self._share_row(pre)
        row["share"] = tuple((coeff + delta) % order for coeff in row["share"])
        with self._lock:
            self._share_cache.pop(pre, None)
        return list(row["share"])
