"""Server-side filter: structural queries, share evaluation, result buffering.

The server is untrusted: it sees only pre/post/parent numbers and share
coefficient vectors.  Every method of this class takes and returns plain
serialisable values (ints, lists, dicts) so it can sit behind the
:class:`~repro.rmi.proxy.RemoteProxy` boundary exactly like the prototype's
RMI ``ServerFilter``.

Every request is answered from the columnar node table
(:class:`~repro.storage.table.Table`): a node's row is the array offset
``pre - 1``, its children are one slice of the child-offset index, and its
descendants are the contiguous pre range up to the subtree's end.

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

``evaluate_batch`` is a bounds check, one gather of the candidates' share
rows out of the table's share block (a fancy index over a zero-copy view
under the numpy kernels) and one ``ring.evaluate_rows`` sweep;
``fetch_shares_batch`` is the same gather handed back as lists.  Nothing is
decoded per row, so there is no decoded-share cache:
:meth:`share_cache_info` keeps its keys for reports and reads zero.

Write protocol
--------------

Mutations arrive as **deltas** (see :class:`repro.encode.mutate.WriteDelta`)
through a two-phase surface: :meth:`prepare_delta` validates the delta
against the table's current **epoch** and stages it, :meth:`commit_delta`
splices the staged rows into the table atomically (under the server lock)
and advances the epoch, :meth:`abort_delta` discards it.  A delta whose
``base_epoch`` does not match the table raises
:class:`~repro.storage.errors.WriteConflictError` — the optimistic
concurrency check that serialises concurrent writers — and one that would
leave the pre numbers non-dense raises
:class:`~repro.storage.errors.DenseOrderError` at prepare time.
:meth:`row_versions` exposes the per-row write versions that read-repair
compares across servers.

Thread-safety contract
----------------------

The concurrent cluster transport may hit one server from several client
threads at once (a structural prefetch overlapping an in-flight share
scatter, a hedged re-issue racing the original).  The mutable server state —
the ``next_node`` queue table and the write-path staging area — is guarded
by one internal lock, and commits run under it.  A commit swaps in freshly
built columns instead of resizing the live ones, so a read racing it works
on either the old or the new column it fetched; the cross-server version
checks at reconstruction time catch (and repair) any skew the race exposes.
"""

from __future__ import annotations

import threading
from collections import deque
from operator import itemgetter
from typing import Deque, Dict, List, Optional, Sequence

from repro.filters.interface import Filter
from repro.poly.ring import QuotientRing
from repro.storage.errors import StaleVersionError, WriteConflictError
from repro.storage.table import Table


class ServerFilter(Filter):
    """Answers structural and share-evaluation requests from the node table.

    ``share_cache_size`` is accepted and ignored: the decoded-share cache it
    sized is gone (see the module docstring), and reports still read the
    keyword's default.
    """

    def __init__(self, table: Table, ring: QuotientRing, share_cache_size: int = 256):
        self._table = table
        self._ring = ring
        # Result queues for the next_node() pipeline: the big server buffers
        # intermediate result sets so the thin client holds one node at a time.
        # Deques give O(1) pops from the front; a plain list.pop(0) made
        # draining a queue quadratic in its length.
        self._queues: Dict[int, Deque[int]] = {}
        self._next_queue_id = 1
        # Guards the queue table and the write path (see the module
        # docstring's thread-safety contract).
        self._lock = threading.RLock()
        # Write path: the table's committed epoch and the staged delta of an
        # in-flight two-phase write (at most one at a time per server).
        self._table_epoch = 0
        self._staged_delta: Optional[Dict] = None

    @property
    def table(self) -> Table:
        """The node table this server answers from."""
        return self._table

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Total number of stored nodes."""
        return len(self._table)

    def root_pre(self) -> int:
        """Locate the root: the only node with ``parent == 0``."""
        roots = self._table.children(0)
        if not roots:
            raise LookupError("node table contains no root (parent = 0) row")
        if len(roots) > 1:
            raise LookupError("node table contains %d root rows" % len(roots))
        return roots[0]

    def node_info(self, pre: int) -> Optional[Dict[str, int]]:
        """pre/post/parent of one node, or ``None`` when absent."""
        return self.node_infos([pre])[0]

    def node_infos(self, pres: List[int]) -> List[Optional[Dict[str, int]]]:
        """Batch variant of :meth:`node_info` (aligned with ``pres``)."""
        post, parent = self._table.post, self._table.parent
        count = min(len(post), len(parent))
        return [
            {"pre": pre, "post": post[pre - 1], "parent": parent[pre - 1]}
            if 1 <= pre <= count
            else None
            for pre in pres
        ]

    def children_of(self, pre: int) -> List[int]:
        """Direct children in document order (one child-index slice)."""
        return self._table.children(pre)

    def children_of_many(self, pres: List[int]) -> List[List[int]]:
        """Children of every node in ``pres`` (one list per input node)."""
        return self._table.children_many(list(pres))

    def descendants_of(self, pre: int) -> List[int]:
        """All proper descendants: the contiguous pre range after ``pre``
        up to the end of its subtree."""
        if not 1 <= pre <= len(self._table):
            return []
        return list(range(pre + 1, self._table.subtree_end(pre) + 1))

    def descendants_of_many(self, pres: List[int]) -> List[List[int]]:
        """Descendants of every node in ``pres`` (one list per input node)."""
        return [self.descendants_of(pre) for pre in pres]

    def parent_of(self, pre: int) -> int:
        """Parent ``pre`` number (0 for the root; raises for unknown nodes)."""
        info = self.node_infos([pre])[0]
        if info is None:
            raise LookupError("no node with pre=%d" % pre)
        return info["parent"]

    # ------------------------------------------------------------------
    # Share access
    # ------------------------------------------------------------------

    def _share_rows(self, pres: Sequence[int]):
        """The share rows of ``pres`` in the kernel's matrix form; unknown
        nodes raise :class:`LookupError`."""
        table = self._table
        block, width = table.shares, table.width
        count = len(block) // width if width else 0
        if pres and (min(pres) < 1 or max(pres) > count):
            absent = sorted({pre for pre in pres if not 1 <= pre <= count})
            raise LookupError("no node with pre=%s" % absent)
        return self._ring.kernel.gather_rows(block, width, [pre - 1 for pre in pres])

    def evaluate(self, pre: int, point: int) -> int:
        """Evaluate the *stored server share* of node ``pre`` at ``point``."""
        return self.evaluate_batch([pre], point)[0]

    def evaluate_batch(self, pres: List[int], point: int) -> List[int]:
        """Evaluate the stored shares of all ``pres`` at ``point``.

        One gather and one kernel sweep; results are aligned with ``pres``.
        Unknown nodes raise :class:`LookupError` like :meth:`evaluate`.
        """
        pres = list(pres)
        if not pres:
            return []
        return self._ring.evaluate_rows(self._share_rows(pres), point)

    def fetch_share(self, pre: int) -> List[int]:
        """The raw server-share coefficients of node ``pre``.

        Needed by the client for the equality test, which must reconstruct
        whole polynomials rather than just evaluations.
        """
        return self.fetch_shares_batch([pre])[0]

    def fetch_shares_batch(self, pres: List[int]) -> List[List[int]]:
        """Raw share coefficients for all ``pres``: one row gather.

        Results align with ``pres`` (duplicates allowed); unknown nodes raise
        :class:`LookupError` like :meth:`fetch_share`.
        """
        pres = list(pres)
        if not pres:
            return []
        return self._ring.kernel.unstack(self._share_rows(pres))

    def share_cache_info(self) -> Dict[str, object]:
        """Accounting of the retired decoded-share cache (all zero).

        ``backend`` names the arithmetic kernel that produced every
        evaluation this server performed, so traces and reports can state
        which implementation they measured.
        """
        return {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "capacity": 0,
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
        version = self._table.version
        count = len(version)
        return [version[pre - 1] if 1 <= pre <= count else -1 for pre in pres]

    def prepare_delta(self, payload: Dict) -> Dict[str, int]:
        """Phase one: validate a delta against the table epoch and stage it.

        Raises :class:`WriteConflictError` when the delta was computed
        against a different epoch than the table holds (another write
        committed first, or this server missed one),
        :class:`StaleVersionError` when a structural update targets a row
        this server does not have, and
        :class:`~repro.storage.errors.DenseOrderError` when applying it
        would leave the pre numbers non-dense.  Staging is idempotent for
        the same epoch; a different staged epoch is a conflict.
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
            table = self._table
            structural = [tuple(record) for record in payload.get("structural", [])]
            missing = [pre for pre, _, _ in structural if not 1 <= pre <= len(table)]
            if missing:
                raise StaleVersionError(
                    "structural update targets rows this server does not "
                    "hold: %s" % missing,
                    stale_pres=missing,
                    expected=base_epoch,
                    found=self._table_epoch,
                )
            upserts = sorted(payload.get("upserts", []), key=itemgetter(0))
            if any(len(record[3]) != table.width for record in upserts):
                raise WriteConflictError(
                    "upserted share rows must have %d coefficients" % table.width
                )
            deletes = [int(pre) for pre in payload.get("deletes", [])]
            table.splice_count(upserts, structural, deletes)
            self._staged_delta = {
                "epoch": epoch,
                "upserts": upserts,
                "structural": structural,
                "deletes": deletes,
            }
            return {"epoch": epoch, "base_epoch": base_epoch}

    def commit_delta(self, epoch: int) -> Dict[str, int]:
        """Phase two: splice the staged delta into the table and advance
        the epoch.

        The splice rewrites every column over the touched range in one
        copy, so the table goes from the old rows to the new ones without
        a transient state.
        """
        with self._lock:
            staged = self._staged_delta
            if staged is None or staged["epoch"] != epoch:
                raise WriteConflictError(
                    "no delta at epoch %d is prepared (staged: %s)"
                    % (epoch, staged["epoch"] if staged else None)
                )
            self._table.splice(staged["upserts"], staged["structural"], staged["deletes"])
            self._table_epoch = epoch
            self._staged_delta = None
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
    be byte-compared against it.  :meth:`corrupt_share` rewrites one node's
    share row in the table's share block, so the corruption is served on
    the very next read.  Only the ``repro-server --chaos`` flag wires this
    subclass in; production servers never export the method.
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
        corrupted = [(coeff + delta) % order for coeff in self._table.share_row(pre)]
        self._table.set_share(pre, corrupted)
        return corrupted
