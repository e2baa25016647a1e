"""repro — reproduction of *Experiments with Queries over Encrypted Data Using
Secret Sharing* (Brinkman, Schoenmakers, Doumen, Jonker; SDM @ VLDB 2005).

The package implements the paper's encrypted XML database end to end:

* finite-field and polynomial-ring arithmetic (:mod:`repro.gf`, :mod:`repro.poly`),
* secret sharing with PRG-regenerated client shares — two-party additive,
  n-of-n additive with regenerable lanes, and (k, n) Shamir threshold
  sharing for multi-server clusters (:mod:`repro.prg`, :mod:`repro.secretshare`),
* an XML substrate, XMark-style data generator and the trie representation of
  text content (:mod:`repro.xmldoc`, :mod:`repro.xmark`, :mod:`repro.trie`),
* a columnar node store addressed by pre-order number and a simulated RMI
  boundary, including the scatter-gather cluster transport
  (:mod:`repro.storage`, :mod:`repro.rmi`),
* the encoder, the client/server filter pair, the XPath subset and the two
  query engines (:mod:`repro.encode`, :mod:`repro.filters`, :mod:`repro.xpath`,
  :mod:`repro.engines`),
* the experiment harness regenerating every table and figure of the paper's
  evaluation (:mod:`repro.experiments`).

The one-stop entry point is :class:`repro.EncryptedXMLDatabase`.

.. warning::
   The scheme reproduced here is a 2005 research prototype whose security has
   since been shown to be weak.  This library exists to reproduce the paper's
   system and measurements, not to protect real data.
"""

from repro.core.config import (
    ClusterConfig,
    DatabaseConfig,
    FieldConfig,
    TransportConfig,
    WriteConfig,
)
from repro.core.database import EncryptedXMLDatabase, QueryConfigError
from repro.engines.base import QueryResult
from repro.filters.interface import MatchRule

__version__ = "1.0.0"

__all__ = [
    "EncryptedXMLDatabase",
    "QueryConfigError",
    "QueryResult",
    "MatchRule",
    "DatabaseConfig",
    "FieldConfig",
    "ClusterConfig",
    "TransportConfig",
    "WriteConfig",
    "__version__",
]
