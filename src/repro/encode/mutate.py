"""Incremental re-encode of node mutations: tree edits → per-server deltas.

The bulk :class:`~repro.encode.encoder.Encoder` streams a whole document
into share tables.  Mutating one node the same way would mean re-encoding
(and re-sharing, and re-shipping) every row.  This module keeps a
client-side :class:`DocumentState` — the plaintext tree, the pre/post/parent
numbering and every node's cached polynomial — and turns each edit into the
smallest write set the numbering scheme permits:

* **tag update** — the node's polynomial changes, and with it the running
  child product of every ancestor: the write set is the root-to-node path,
  ``O(depth)`` rows.  No pre/post/parent number moves.
* **subtree insert / delete** — pre-order numbers are dense, so every node
  at or after the edit position shifts: the write set is the ancestor path
  plus the contiguous pre-order tail ``[P .. N]``.  A shifted row must be
  *re-shared* even when its polynomial is untouched, because the PRG mask
  lanes are keyed on the pre number the row is stored under.

Every re-shared row is stamped with the mutation's **epoch** and its masks
are drawn from the version-salted PRG streams (see
:meth:`repro.prg.generator.KeyedPRG.elements`): reusing the version-0 masks
would let a single server subtract its old slice from its new one and read
the polynomial delta in the clear.

The result of one edit is a :class:`WriteDelta` — per-server upsert rows
plus shared structural updates and deletions — which the
:class:`~repro.rmi.write.WriteCoordinator` ships through the two-phase
prepare/commit protocol.  Applying the delta to each server's table yields
tables byte-identical (up to heap order) to re-deploying the edited
document from scratch at the same versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.encode.tagmap import TagMap
from repro.secretshare.scheme import SharingScheme
from repro.xmldoc.nodes import XMLDocument, XMLElement


class MutationError(ValueError):
    """Raised for edits the numbering scheme or document cannot support."""


@dataclass(frozen=True)
class RowUpsert:
    """One re-shared row headed for one server's node table."""

    pre: int
    post: int
    parent: int
    share: Tuple[int, ...]
    version: int

    def as_wire(self) -> Tuple[object, ...]:
        """Compact JSON-friendly form for the delta payload."""
        return (self.pre, self.post, self.parent, self.share, self.version)


@dataclass(frozen=True)
class StructuralUpdate:
    """A renumbering-only update: the stored share (and version) survive."""

    pre: int
    post: int
    parent: int

    def as_wire(self) -> Tuple[int, int, int]:
        return (self.pre, self.post, self.parent)


@dataclass
class WriteDelta:
    """Everything one committed edit changes, for every server.

    ``upserts[s]`` is server ``s``'s list of re-shared rows (shares differ
    per server; pre/post/parent/version agree).  ``structural`` and
    ``deletes`` are identical across servers.  ``base_epoch`` is the table
    epoch this delta was computed against — the two-phase protocol refuses
    to prepare it on a server whose epoch has moved on — and ``epoch`` is
    the version stamped on every re-shared row once committed.
    """

    base_epoch: int
    epoch: int
    upserts: List[List[RowUpsert]]
    structural: List[StructuralUpdate] = field(default_factory=list)
    deletes: List[int] = field(default_factory=list)
    #: human-readable description of the edit (journal/bench reporting)
    description: str = ""

    @property
    def num_servers(self) -> int:
        return len(self.upserts)

    @property
    def touched_pres(self) -> List[int]:
        """Sorted pre positions this delta re-shares (per server)."""
        return sorted(row.pre for row in self.upserts[0]) if self.upserts else []

    @property
    def write_rows(self) -> int:
        """Rows re-shared per server — the bench's 'touched range' metric."""
        return len(self.upserts[0]) if self.upserts else 0

    def payload(self, server_index: int) -> Dict[str, object]:
        """The wire payload of this delta for one server.

        Every sequence is a tuple of ints or of such tuples.  The write
        journal keeps every committed payload, and the garbage collector
        stops scanning tuples that hold only ints, so a growing journal
        does not slow down each full collection.  The codec encodes
        tuples exactly as it encodes lists.
        """
        return {
            "base_epoch": self.base_epoch,
            "epoch": self.epoch,
            "upserts": tuple(row.as_wire() for row in self.upserts[server_index]),
            "structural": tuple(update.as_wire() for update in self.structural),
            "deletes": tuple(self.deletes),
        }

    def summary(self) -> Dict[str, object]:
        touched = self.touched_pres
        return {
            "epoch": self.epoch,
            "description": self.description,
            "rows_reshared": self.write_rows,
            "rows_structural": len(self.structural),
            "rows_deleted": len(self.deletes),
            "pre_range": [touched[0], touched[-1]] if touched else None,
        }


class DocumentState:
    """Client-side source of truth for an evolving deployed document.

    Holds the plaintext tree, the dense pre/post/parent numbering, every
    node's cached polynomial (kernel coefficient vector) and the per-row
    version map.  Construction reproduces the bulk encoder's rows exactly
    (epoch 0, unsalted masks); each edit advances the epoch by one and
    returns the :class:`WriteDelta` that brings the server tables along.

    Polynomials are cached per *node object*: an edit invalidates only the
    root-to-edit path, so recomputing the document's polynomials after an
    edit costs ``O(depth)`` ring multiplications — the untouched subtrees
    (the overwhelming majority) are reused by reference.  Renumbering is a
    plain integer walk over the plaintext tree, which is orders of
    magnitude cheaper than the ring arithmetic and PRG material it avoids.
    """

    def __init__(self, document: XMLDocument, tag_map: TagMap, scheme: SharingScheme):
        self._document = document
        self._tag_map = tag_map
        self._scheme = scheme
        self._ring = scheme.ring
        self._kernel = scheme.ring.kernel
        #: node -> cached polynomial (kernel coefficient vector)
        self._poly: Dict[XMLElement, object] = {}
        #: pre -> node, rebuilt on every renumber
        self._by_pre: Dict[int, XMLElement] = {}
        #: pre -> (post, parent, polynomial, version) as the servers hold it
        self._rows: Dict[int, Tuple[int, int, object, int]] = {}
        self._epoch = 0
        self._rebuild(initial=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def document(self) -> XMLDocument:
        return self._document

    @property
    def epoch(self) -> int:
        """The epoch of the last produced delta (0 = bulk-encoded state)."""
        return self._epoch

    @property
    def node_count(self) -> int:
        return len(self._rows)

    def node_at(self, pre: int) -> XMLElement:
        """The element currently numbered ``pre``."""
        node = self._by_pre.get(pre)
        if node is None:
            raise MutationError("no node at pre position %d" % pre)
        return node

    def version_of(self, pre: int) -> int:
        """The write version the servers hold for row ``pre``."""
        try:
            return self._rows[pre][3]
        except KeyError:
            raise MutationError("no node at pre position %d" % pre)

    def versions(self) -> Dict[int, int]:
        """The full pre → version map (0 for never-touched rows)."""
        return {pre: row[3] for pre, row in self._rows.items()}

    def expected_rows(self, server_index: int) -> List[Dict[str, object]]:
        """Every row server ``server_index`` must currently hold.

        Regenerates the full table from the plaintext state — the oracle
        the write-path tests compare server tables against.  Rows at
        version 0 omit the ``version`` key, matching the bulk encoder.
        """
        pres = sorted(self._rows)
        polys = [self._rows[pre][2] for pre in pres]
        versions = [self._rows[pre][3] for pre in pres]
        share_rows = self._scheme.server_share_rows(polys, pres, versions)
        rows = []
        for position, pre in enumerate(pres):
            post, parent, _, version = self._rows[pre]
            row = {
                "pre": pre,
                "post": post,
                "parent": parent,
                "share": tuple(share_rows[server_index][position]),
            }
            if version:
                row["version"] = version
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # Numbering and polynomials
    # ------------------------------------------------------------------

    def _renumber(self) -> Tuple[Dict[XMLElement, Tuple[int, int, int]], List[XMLElement]]:
        """Assign pre/post/parent to every node, mirroring the SAX encoder.

        Returns the numbering map and the nodes in close (post) order —
        children always before parents, which is the order polynomial
        recomputation needs.
        """
        info: Dict[XMLElement, Tuple[int, int, int]] = {}
        order: List[XMLElement] = []
        pre_counter = 0
        post_counter = 0
        stack: List[Tuple[XMLElement, int, Optional[int]]] = [
            (self._document.root, 0, None)
        ]
        while stack:
            node, parent_pre, pre = stack.pop()
            if pre is None:  # open the element
                pre_counter += 1
                stack.append((node, parent_pre, pre_counter))
                for child in reversed(node.children):
                    stack.append((child, pre_counter, None))
            else:  # close the element (all children already closed)
                post_counter += 1
                info[node] = (pre, post_counter, parent_pre)
                order.append(node)
        return info, order

    def _polynomial(self, node: XMLElement) -> object:
        """The node's cached polynomial; children must be computed already."""
        poly = self._poly.get(node)
        if poly is not None:
            return poly
        kernel = self._kernel
        tag_value = self._tag_map.value(node.tag)
        if not node.children:
            poly = kernel.linear_factor(tag_value, self._ring.length)
        else:
            product = self._poly[node.children[0]]
            for child in node.children[1:]:
                product = kernel.cyclic_convolve(product, self._poly[child])
            poly = kernel.cyclic_mul_linear(tag_value, product)
        self._poly[node] = poly
        return poly

    def _invalidate_path(self, node: Optional[XMLElement]) -> None:
        """Drop cached polynomials on the path from ``node`` to the root."""
        while node is not None:
            self._poly.pop(node, None)
            node = node.parent

    def _forget_subtree(self, node: XMLElement) -> None:
        """Drop cached polynomials of a detached subtree (frees the refs)."""
        for descendant in node.iter():
            self._poly.pop(descendant, None)

    def _rebuild(self, initial: bool = False) -> Optional[WriteDelta]:
        """Renumber, recompute polynomials, and (post-edit) diff into a delta."""
        info, order = self._renumber()
        for node in order:  # close order: children before parents
            self._polynomial(node)
        new_rows: Dict[int, Tuple[int, int, object, int]] = {}
        changed: List[Tuple[int, int, int, object]] = []
        structural: List[StructuralUpdate] = []
        for node in order:
            pre, post, parent = info[node]
            poly = self._poly[node]
            old = self._rows.get(pre)
            if old is not None and old[2] is poly:
                if old[0] == post and old[1] == parent:
                    new_rows[pre] = old  # untouched row, version survives
                else:
                    structural.append(StructuralUpdate(pre, post, parent))
                    new_rows[pre] = (post, parent, poly, old[3])
            elif old is not None and self._same_poly(old[2], poly):
                # recomputed to the same value (e.g. a no-op tag update):
                # keep the stored share, adjust numbering if it moved
                if old[0] == post and old[1] == parent:
                    new_rows[pre] = (post, parent, poly, old[3])
                else:
                    structural.append(StructuralUpdate(pre, post, parent))
                    new_rows[pre] = (post, parent, poly, old[3])
            else:
                changed.append((pre, post, parent, poly))
                new_rows[pre] = (post, parent, poly, 0)  # version set below
        deletes = sorted(pre for pre in self._rows if pre not in new_rows)
        self._by_pre = {info[node][0]: node for node in order}
        if initial:
            self._rows = new_rows
            return None
        base_epoch = self._epoch
        self._epoch += 1
        epoch = self._epoch
        changed.sort(key=lambda record: record[0])
        pres = [record[0] for record in changed]
        versions = [epoch] * len(pres)
        share_rows = self._scheme.server_share_rows(
            [record[3] for record in changed], pres, versions
        )
        upserts: List[List[RowUpsert]] = []
        for server_rows in share_rows:
            upserts.append(
                [
                    RowUpsert(pre, post, parent, tuple(share), epoch)
                    for (pre, post, parent, _), share in zip(changed, server_rows)
                ]
            )
        for pre, post, parent, poly in changed:
            new_rows[pre] = (post, parent, poly, epoch)
        self._rows = new_rows
        return WriteDelta(
            base_epoch=base_epoch,
            epoch=epoch,
            upserts=upserts,
            structural=structural,
            deletes=deletes,
        )

    def _same_poly(self, old: object, new: object) -> bool:
        """Value equality of two kernel vectors (identity already failed)."""
        kernel = self._kernel
        return kernel.unwrap(old) == kernel.unwrap(new)

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------

    def update_tag(self, pre: int, new_tag: str) -> WriteDelta:
        """Rename the node at ``pre``; re-shares the root-to-node path."""
        self._tag_map.value(new_tag)  # unknown tags fail before any mutation
        node = self.node_at(pre)
        old_tag = node.tag
        node.tag = new_tag
        self._invalidate_path(node)
        delta = self._rebuild()
        delta.description = "update_tag(pre=%d, %s -> %s)" % (pre, old_tag, new_tag)
        return delta

    def insert_subtree(
        self, parent_pre: int, element: XMLElement, index: Optional[int] = None
    ) -> WriteDelta:
        """Graft ``element`` under the node at ``parent_pre``.

        ``index`` is the child position (``None`` appends).  Re-shares the
        ancestor path plus the contiguous pre-order tail from the insertion
        point — every row whose pre number shifts.
        """
        for descendant in element.iter():
            self._tag_map.value(descendant.tag)
        if element.parent is not None:
            raise MutationError("the inserted subtree is already attached")
        parent = self.node_at(parent_pre)
        if index is None:
            index = len(parent.children)
        if not 0 <= index <= len(parent.children):
            raise MutationError(
                "child index %d out of range for %d children"
                % (index, len(parent.children))
            )
        element.parent = parent
        parent.children.insert(index, element)
        self._invalidate_path(parent)
        delta = self._rebuild()
        delta.description = "insert_subtree(parent=%d, index=%d, nodes=%d)" % (
            parent_pre,
            index,
            element.subtree_size(),
        )
        return delta

    def delete_subtree(self, pre: int) -> WriteDelta:
        """Remove the node at ``pre`` and its whole subtree.

        Re-shares the ancestor path plus the shifted pre-order tail; the
        rows past the new document length are deleted on every server.
        """
        node = self.node_at(pre)
        parent = node.parent
        if parent is None:
            raise MutationError("cannot delete the document root")
        removed = node.subtree_size()
        parent.children.remove(node)
        node.parent = None
        self._forget_subtree(node)
        self._invalidate_path(parent)
        delta = self._rebuild()
        delta.description = "delete_subtree(pre=%d, nodes=%d)" % (pre, removed)
        return delta
