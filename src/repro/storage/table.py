"""The node table as a struct of arrays.

The paper's server is a MySQL table with one row per XML node, ``(pre,
post, parent, polynomial)``, behind B-tree indexes on ``pre``, ``post``
and ``parent``.  Pre-order numbers are dense, so here a node's row is not
an index lookup but an array offset: row ``pre`` sits at offset ``pre - 1``
of every column, and its subtree is the contiguous range ``pre ..
subtree_end(pre)`` (the pre/post plane of the XPath Accelerator: Grust,
SIGMOD 2002).

Every column is a stdlib :class:`array.array`, so the store needs no
numpy:

* ``post``, ``parent`` and ``version``: signed 64-bit integers.  A
  ``version`` of 0 marks a row the bulk encoder wrote and no write has
  touched since.
* ``shares``: one row-major ``(rows × width)`` block of share
  coefficients, ``width`` being the ring length ``q - 1``, in the
  narrowest unsigned typecode that holds the field (``'B'`` for F_83).
* a child-offset index (CSR): per-parent offsets into the children's pre
  numbers in document order.  It is derived from ``parent`` on first use
  and rebuilt after a change.

The numpy kernels view the share block through ``np.frombuffer`` without
a copy (:meth:`repro.gf.kernels.FieldKernel.gather_rows`), so the
pure-Python axis and the numpy axis serve one representation.  No row is
ever a Python object, so the garbage collector has nothing to walk.

Writes never resize a column that may be shared: :meth:`Table.splice`
builds each new column in one copy and swaps it in, so a reader holding
the old column (or a numpy view of it) keeps a consistent snapshot.  Only
the bulk load (:meth:`Table.place`) and the fault injector
(:meth:`Table.set_share`) write in place.

``index_columns`` and ``btree_order`` build nothing.  They feed
:meth:`Table.index_bytes`, a size model of the B+-trees whose size the
paper's Fig. 4 reports, and the index ablation: without ``parent`` among
the index columns, :meth:`Table.children` scans the ``parent`` column.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, groupby
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.storage.errors import DenseOrderError, SchemaError

#: name of the server-side node table
NODE_TABLE_NAME = "nodes"

#: the columns the paper's MySQL schema indexed (the default size model)
DEFAULT_INDEX_COLUMNS = ("pre", "post", "parent")

#: typecode of the post, parent and version columns
_INT = "q"


def share_typecode(width: int) -> str:
    """The narrowest unsigned typecode holding a field of ``width + 1``
    elements (every coefficient is below the field order)."""
    for code in "BHILQ":
        if width < 1 << (8 * array(code).itemsize):
            return code
    raise SchemaError("no array typecode holds a field of order %d" % (width + 1))


def btree_index_bytes(distinct: int, postings: int, order: int) -> int:
    """Size model of a B+-tree of ``order`` over ``postings`` row pointers
    filed under ``distinct`` keys, at 8 bytes per key and per pointer.

    The leaves hold every key once and every row pointer once, which is
    exact.  The internal levels are those of ascending inserts: a leaf
    splits at its middle when it reaches ``order`` keys and only the
    rightmost leaf keeps growing, so every leaf but the last keeps
    ``order // 2`` keys.  An internal node splits the same way once it
    passes ``order`` children, and costs one pointer per child and one key
    fewer.
    """
    if distinct < order:
        return 8 * (distinct + postings)  # one leaf, no internal level
    leaves = nodes = 2 + (distinct - order) // (order // 2)
    internal = 0
    while nodes > 1:
        nodes = 1 if nodes <= order else 2 + (nodes - order - 1) // (order // 2 + 1)
        internal += nodes
    children = leaves + internal - 1  # every node but the root is a child
    return 8 * (distinct + postings + 2 * children - internal)


class Table:
    """The node table: ``pre``-addressed columns plus one share block.

    ``width`` is the number of coefficients per share row; a table created
    empty adopts the width of the first rows it receives.
    """

    def __init__(
        self,
        name: str = NODE_TABLE_NAME,
        width: int = 0,
        index_columns: Iterable[str] = DEFAULT_INDEX_COLUMNS,
        btree_order: int = 64,
    ):
        index_columns = list(dict.fromkeys(index_columns))
        unknown = sorted(set(index_columns) - set(DEFAULT_INDEX_COLUMNS))
        if unknown:
            raise SchemaError("table %s has no column %s to index" % (name, unknown))
        if btree_order < 3:
            raise ValueError("B+-tree order must be at least 3, got %d" % btree_order)
        self.name = name
        self.index_columns = index_columns
        self.btree_order = btree_order
        self.width = width
        self.post = array(_INT)
        self.parent = array(_INT)
        self.version = array(_INT)
        self.shares = array(share_typecode(width))
        #: (parent column it was built from, offsets, child pres)
        self._child_index: Optional[Tuple[array, array, array]] = None

    @classmethod
    def from_rows(cls, rows: Iterable[Dict[str, Any]], **options: Any) -> "Table":
        """A table holding ``rows``: dicts with ``pre``, ``post``,
        ``parent``, ``share`` and optionally ``version``, in any order."""
        try:
            rows = sorted(rows, key=lambda row: row["pre"])
            if [row["pre"] for row in rows] != list(range(1, len(rows) + 1)):
                raise DenseOrderError("pre numbers of the rows are not 1 .. %d" % len(rows))
            if not all(0 <= row["parent"] < row["pre"] for row in rows):
                raise DenseOrderError("a row does not follow its parent in pre order")
            table = cls(width=len(rows[0]["share"]) if rows else 0, **options)
            table.post = array(_INT, [row["post"] for row in rows])
            table.parent = array(_INT, [row["parent"] for row in rows])
            table.version = array(_INT, [row.get("version") or 0 for row in rows])
            table.shares = _packed(table.shares.typecode, [row["share"] for row in rows])
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise SchemaError("not a node-table row: %s: %s" % (type(error).__name__, error))
        if len(table.shares) != len(rows) * table.width:
            raise SchemaError("share rows of table %s differ in width" % table.name)
        return table

    def __len__(self) -> int:
        return len(self.post)

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------

    def _offset(self, pre: int) -> int:
        if not 1 <= pre <= len(self.post):
            raise LookupError("no node with pre=%d" % pre)
        return pre - 1

    def row(self, pre: int) -> Dict[str, Any]:
        """Row ``pre`` as a dict (the shape of the encoder's rows: a
        version of 0 omits the key)."""
        offset = self._offset(pre)
        width = self.width
        row = {
            "pre": pre,
            "post": self.post[offset],
            "parent": self.parent[offset],
            "share": tuple(self.shares[offset * width : (offset + 1) * width]),
        }
        if self.version[offset]:
            row["version"] = self.version[offset]
        return row

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Every row as a dict, in pre order (a copy: edits do not stick)."""
        return (self.row(pre) for pre in range(1, len(self) + 1))

    def share_row(self, pre: int) -> List[int]:
        """The share coefficients of row ``pre``."""
        offset = self._offset(pre) * self.width
        return self.shares[offset : offset + self.width].tolist()

    def set_share(self, pre: int, coeffs: Sequence[int]) -> None:
        """Overwrite the share of row ``pre`` in place."""
        offset = self._offset(pre) * self.width
        if len(coeffs) != self.width:
            raise SchemaError("a share row has %d coefficients, got %d" % (self.width, len(coeffs)))
        self.shares[offset : offset + self.width] = _packed(self.shares.typecode, [coeffs])

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def _children_csr(self) -> Tuple[array, array]:
        index = self._child_index
        parent = self.parent
        if index is None or index[0] is not parent:
            counts = [0] * (len(parent) + 1)
            for value in parent:
                counts[value] += 1
            offsets = array(_INT, accumulate(counts, initial=0))
            # a stable sort by parent keeps each child list in pre order
            ordered = sorted(range(len(parent)), key=parent.__getitem__)
            index = (parent, offsets, array(_INT, [offset + 1 for offset in ordered]))
            self._child_index = index
        return index[1], index[2]

    def children(self, pre: int) -> List[int]:
        """The children of ``pre`` in document order (``pre`` 0 yields the
        root); empty for a leaf or an unknown node."""
        return self.children_many([pre])[0]

    def children_many(self, pres: Sequence[int]) -> List[List[int]]:
        """:meth:`children` of every node in ``pres``: one slice of the
        child index each, or a scan of ``parent`` when it is not indexed."""
        if "parent" not in self.index_columns:
            parent = self.parent
            return [[offset + 1 for offset, value in enumerate(parent) if value == pre] for pre in pres]
        offsets, children = self._children_csr()
        limit = len(offsets) - 1
        return [
            children[offsets[pre] : offsets[pre + 1]].tolist() if 0 <= pre < limit else []
            for pre in pres
        ]

    def subtree_end(self, pre: int) -> int:
        """The last pre number of ``pre``'s subtree (``pre`` for a leaf):
        its last child's subtree end, down the chain of last children."""
        self._offset(pre)
        offsets, children = self._children_csr()
        while offsets[pre] != offsets[pre + 1]:
            pre = children[offsets[pre + 1] - 1]
        return pre

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _adopt_width(self, width: int) -> None:
        if width == self.width:
            return
        if len(self):
            raise SchemaError(
                "share rows of table %s have %d coefficients, got %d"
                % (self.name, self.width, width)
            )
        self.width = width
        self.shares = array(share_typecode(width))

    def place(
        self,
        pres: Sequence[int],
        posts: Sequence[int],
        parents: Sequence[int],
        shares: Sequence[Sequence[int]],
    ) -> None:
        """Bulk load: write rows at their pre offsets, growing every column
        to the largest ``pre``.  The encoder closes nodes in post order, so
        a batch fills scattered offsets; rows not yet placed read as zeros."""
        if not pres:
            return
        self._adopt_width(len(shares[0]))
        width = self.width
        grow = max(pres) - len(self.post)
        if grow > 0:
            zeros = array(_INT, bytes(8 * grow))
            self.post.extend(zeros)
            self.parent.extend(zeros)
            self.version.extend(zeros)
            self.shares.extend(array(self.shares.typecode, bytes(self.shares.itemsize * grow * width)))
        post, parent, block, code = self.post, self.parent, self.shares, self.shares.typecode
        for pre, post_value, parent_value, share in zip(pres, posts, parents, shares):
            offset = pre - 1
            post[offset] = post_value
            parent[offset] = parent_value
            block[offset * width : (offset + 1) * width] = _packed(code, [share])
        self._child_index = None

    def splice_count(
        self,
        written: Sequence[Sequence[Any]],
        moved: Sequence[Sequence[int]] = (),
        deleted: Sequence[int] = (),
    ) -> int:
        """The row count after :meth:`splice` applies these rows.

        Raises :class:`DenseOrderError` unless the result is exactly
        ``1 .. count`` with every parent before its child: a write may
        grow or shrink the table at its end only, and a renumbered row
        must exist before and after.
        """
        count = len(self)
        written_set = {row[0] for row in written}
        gone = set(deleted) - written_set
        grown = {pre for pre in written_set if pre > count}
        after = count - len(gone) + len(grown)
        if (
            len(written_set) != len(written)
            or min(written_set, default=1) < 1
            or gone != set(range(after + 1, count + 1))
            or grown != set(range(count + 1, after + 1))
        ):
            raise DenseOrderError(
                "splice of %d rewritten and %d deleted rows leaves table %s "
                "of %d rows without dense pre numbers"
                % (len(written), len(deleted), self.name, count)
            )
        limit = min(count, after)
        stray = sorted(row[0] for row in moved if not 1 <= row[0] <= limit)
        if stray:
            raise DenseOrderError("renumbered rows %s are not in table %s" % (stray[:5], self.name))
        if not all(0 <= row[2] < row[0] for row in chain(written, moved)):
            raise DenseOrderError("a spliced row does not follow its parent in pre order")
        return after

    def splice(
        self,
        written: Sequence[Sequence[Any]],
        moved: Sequence[Sequence[int]] = (),
        deleted: Sequence[int] = (),
    ) -> int:
        """Apply one write: every column is rebuilt in one copy and swapped in.

        ``written`` holds ``(pre, post, parent, share, version)`` rows
        (new content), ``moved`` ``(pre, post, parent)`` rows whose share and
        version stay, ``deleted`` pre numbers.  Returns the new row count
        (see :meth:`splice_count`, which validates it first).
        """
        count = self.splice_count(written, moved, deleted)
        width, code = self.width, self.shares.typecode
        post = _resized(self.post, count)
        parent = _resized(self.parent, count)
        version = _resized(self.version, count)
        shares = _resized(self.shares, count * width)
        ordered = sorted(written, key=lambda row: row[0])
        # consecutive pres form runs; each run is one slice per column
        for _, numbered in groupby(enumerate(ordered), key=lambda item: item[1][0] - item[0]):
            run = [row for _, row in numbered]
            start, stop = run[0][0] - 1, run[-1][0]
            post[start:stop] = array(_INT, [row[1] for row in run])
            parent[start:stop] = array(_INT, [row[2] for row in run])
            version[start:stop] = array(_INT, [row[4] for row in run])
            block = _packed(code, [row[3] for row in run])
            if len(block) != len(run) * width:
                raise SchemaError("a rewritten share row is not %d coefficients wide" % width)
            shares[start * width : stop * width] = block
        for pre, post_value, parent_value in moved:
            post[pre - 1] = post_value
            parent[pre - 1] = parent_value
        self.post, self.parent, self.version, self.shares = post, parent, version, shares
        self._child_index = None
        return count

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def index_bytes(self) -> int:
        """Modelled size of a B+-tree on every index column (see
        :func:`btree_index_bytes`); ``pre`` and ``post`` are unique."""
        rows = len(self)
        total = 0
        for column in self.index_columns:
            distinct = len(set(self.parent)) if column == "parent" else rows
            total += btree_index_bytes(distinct, rows, self.btree_order)
        return total

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "Table(%s, rows=%d, width=%d)" % (self.name, len(self), self.width)


def _packed(code: str, rows: Sequence[Sequence[int]]) -> array:
    """One array holding ``rows`` back to back.

    ``bytes()`` converts small ints several times faster than ``array()``
    does, so one-byte share blocks (every field up to 256 elements) take
    that path.
    """
    if code == "B":
        return array(code, b"".join(map(bytes, rows)))
    return array(code, chain.from_iterable(rows))


def _resized(column: array, length: int) -> array:
    """A copy of ``column`` cut or zero-padded to ``length`` elements."""
    if length <= len(column):
        return column[:length]
    return column + array(column.typecode, bytes(column.itemsize * (length - len(column))))
