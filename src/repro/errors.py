"""The public error surface, re-exported from one place.

Every exception a caller of :class:`repro.EncryptedXMLDatabase` may need
to catch is importable from here, regardless of which subsystem defines
it.  The defining modules stay the source of truth (so internal code
keeps its local imports); this module only aggregates:

========================== =============================================
exception                  raised when
========================== =============================================
``ConfigError``            a typed config object is inconsistent
``QueryConfigError``       a query/constructor option combination is
                           invalid (subclass of ``ConfigError``)
``StorageError``           a stored row violates the node-table schema
``MutationError``          a tree edit is structurally impossible
                           (unknown tag, root delete, attached subtree)
``WriteConflictError``     a delta's preconditions no longer hold
                           (epoch moved, double-stage, journal gap)
``StaleVersionError``      a delta targets rows the server no longer
                           has at the expected position/version
``DenseOrderError``        a delta would leave the pre numbers of a
                           node table with a gap (subclass of
                           ``WriteConflictError``)
``WriteError``             a two-phase apply failed before any server
                           committed (subclass of ``WriteConflictError``)
``ServerUnavailable``      a share server is unreachable or died
                           mid-call (a ``ConnectionError``)
``WireProtocolError``      a peer violated the framing protocol
``RemoteCallError``        a server-side exception of a type the wire
                           cannot reconstruct
``UnknownRemoteMethodError`` the server does not export the method
``InconsistentShareError`` reconstruction produced shares that fail
                           verification (corruption or version skew)
``AttributionInconclusive`` corruption was detected but no k+2 honest
                           quorum exists to name the corrupted server
``SupervisorError``        a fleet heal could not complete
``KernelUnavailableError`` the requested accelerator kernel is missing
========================== =============================================
"""

from repro.core.config import ConfigError, QueryConfigError
from repro.encode.mutate import MutationError
from repro.filters.cluster import ClusterProtocolError, InconsistentShareError
from repro.gf.base import FieldError
from repro.gf.kernels import KernelUnavailableError
from repro.rmi.socket import (
    OversizedFrameError,
    RemoteCallError,
    ServerUnavailable,
    SocketTransportError,
    UnknownRemoteMethodError,
    WireProtocolError,
)
from repro.rmi.supervisor import SupervisorError
from repro.rmi.write import WriteError
from repro.secretshare.scheme import AttributionInconclusive, SharingError
from repro.storage.errors import DenseOrderError, StaleVersionError, StorageError, WriteConflictError

__all__ = [
    "AttributionInconclusive",
    "ClusterProtocolError",
    "ConfigError",
    "DenseOrderError",
    "FieldError",
    "InconsistentShareError",
    "KernelUnavailableError",
    "MutationError",
    "OversizedFrameError",
    "QueryConfigError",
    "RemoteCallError",
    "ServerUnavailable",
    "SharingError",
    "SocketTransportError",
    "StaleVersionError",
    "StorageError",
    "SupervisorError",
    "UnknownRemoteMethodError",
    "WireProtocolError",
    "WriteConflictError",
    "WriteError",
]
