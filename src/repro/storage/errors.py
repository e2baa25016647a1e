"""Exception hierarchy of the storage substrate."""


class StorageError(Exception):
    """Base class for storage-layer failures."""


class SchemaError(StorageError):
    """A row does not have the node table's shape (a missing column, a
    share vector of the wrong width, a value out of the column's range)."""


class UnknownTableError(StorageError):
    """A referenced table does not exist in the database catalog."""


class WriteConflictError(StorageError):
    """A write could not be applied consistently.

    Raised server-side when a delta's preconditions fail (an unknown
    transaction id, a prepare against rows another in-flight transaction
    already holds, or an op targeting a row that no longer exists) and
    client-side when the two-phase apply cannot reach every live server.
    Travels the wire typed (see ``repro.rmi.socket``).
    """


class StaleVersionError(WriteConflictError):
    """A row version precondition failed: the server holds newer (or older)
    rows than the write or read expected.  Carries enough context for
    read-repair to know *which* rows diverged."""

    def __init__(self, message: str, stale_pres=(), expected=None, found=None):
        super().__init__(message)
        #: pre numbers whose version check failed
        self.stale_pres = tuple(stale_pres)
        #: version the caller expected (per-pre mapping or single int)
        self.expected = expected
        #: version actually found
        self.found = found


class DenseOrderError(WriteConflictError):
    """A splice or load would leave the pre-order numbering with a gap, a
    duplicate or a row past the end: rows are addressed by ``pre - 1``, so
    the numbers must stay exactly ``1 .. len(table)``."""
