"""Server-side storage (the prototype's MySQL replacement).

The prototype stores one row per XML node in a MySQL table::

    (pre, post, parent, polynomial-coefficients)

with B-tree indices on ``pre``, ``post`` and ``parent`` "in order to speed up
the search process" (section 5.1).  Pre-order numbers are dense, so this
package stores the same rows as a struct of arrays instead, and every access
the server makes is an array offset or a slice:

* :class:`~repro.storage.table.Table` — the node table: ``pre``-addressed
  ``post``/``parent``/``version`` columns, one share block and a child-offset
  index derived from ``parent``; write splices and the Fig. 4 index-size
  model live here too,
* :class:`~repro.storage.database.Database` — a named catalog of tables with
  JSON persistence.

A node's row is offset ``pre - 1``, its children are one slice of the
child-offset index, and its subtree is the contiguous pre range up to
:meth:`~repro.storage.table.Table.subtree_end`.
"""

from repro.storage.database import Database
from repro.storage.errors import DenseOrderError, StorageError
from repro.storage.table import NODE_TABLE_NAME, Table

__all__ = [
    "Database",
    "DenseOrderError",
    "NODE_TABLE_NAME",
    "StorageError",
    "Table",
]
