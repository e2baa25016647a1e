"""The declarative per-method spec table for the remote call surface.

Before this module existed the knowledge about remote methods was
scattered: the gateway kept its exported-session surface as a hand-built
union (``EXPORTED_METHODS``), the result cache kept its own cacheable
set (``CACHEABLE_METHODS``), and the admission scheduler kept a third list of batch-priced methods.
Adding one endpoint meant editing three files and hoping the sets stayed
consistent.

Now every remote method is ONE :class:`MethodSpec` row in
:data:`METHOD_SPECS` and everything else is derived:

* ``kind`` groups the surface: replicated ``structural-read``\\ s,
  scatter-gathered ``share-read``\\ s, session-pinned ``queue`` cursors,
  and the ``write`` protocol (two-phase delta application + version
  introspection).
* ``cacheable`` marks results safe to share across gateway sessions
  (static between epochs, no per-session state).
* ``mutating`` marks methods that change server state; a mutation
  commits a new table epoch, so they are never cacheable and never on
  the gateway session surface (the write coordinator talks to share
  servers directly and pokes the gateway with ``__bump_epoch__``).
* ``cost`` prices admission: ``"batch"`` methods take a ``pres`` list
  first and are charged its length by the fair scheduler; everything
  else costs 1.

The derived frozensets below are re-exported from their historical homes
(:mod:`repro.rmi.cache`, :mod:`repro.rmi.gateway`) so existing imports
keep working; the regression test in ``tests/test_config_api.py`` pins
them against the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "MethodSpec",
    "METHOD_SPECS",
    "SPECS_BY_NAME",
    "STRUCTURAL_READ_METHODS",
    "SHARE_READ_METHODS",
    "QUEUE_METHODS",
    "QUEUE_OPEN_METHODS",
    "WRITE_METHODS",
    "MUTATING_METHODS",
    "CACHEABLE_METHODS",
    "BATCH_ARG_METHODS",
    "GATEWAY_EXPORTED_METHODS",
    "SERVER_METHODS",
    "spec_for",
    "request_cost",
]

_KINDS = ("structural-read", "share-read", "queue", "write")


@dataclass(frozen=True)
class MethodSpec:
    """One row of the remote-method table.

    ``cost`` is ``"unit"`` (flat admission charge) or ``"batch"`` (the
    first argument is a list whose length is the charge).
    """

    name: str
    kind: str
    cacheable: bool = False
    mutating: bool = False
    cost: str = "unit"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError("unknown method kind %r for %r" % (self.kind, self.name))
        if self.cost not in ("unit", "batch"):
            raise ValueError("unknown cost model %r for %r" % (self.cost, self.name))
        if self.cacheable and self.mutating:
            raise ValueError("%r cannot be both cacheable and mutating" % (self.name,))


#: the whole remote surface, one row per method.  Order groups by kind.
METHOD_SPECS: Tuple[MethodSpec, ...] = (
    # -- replicated structure-only reads (static between epochs) -------
    MethodSpec("node_count", "structural-read", cacheable=True),
    MethodSpec("root_pre", "structural-read", cacheable=True),
    MethodSpec("node_info", "structural-read", cacheable=True),
    MethodSpec("node_infos", "structural-read", cacheable=True, cost="batch"),
    MethodSpec("children_of", "structural-read", cacheable=True),
    MethodSpec("children_of_many", "structural-read", cacheable=True, cost="batch"),
    MethodSpec("descendants_of", "structural-read", cacheable=True),
    MethodSpec("descendants_of_many", "structural-read", cacheable=True, cost="batch"),
    MethodSpec("parent_of", "structural-read", cacheable=True),
    # -- scatter-gathered share reads (combined results cacheable) -----
    MethodSpec("evaluate", "share-read", cacheable=True),
    MethodSpec("evaluate_batch", "share-read", cacheable=True, cost="batch"),
    MethodSpec("fetch_share", "share-read", cacheable=True),
    MethodSpec("fetch_shares_batch", "share-read", cacheable=True, cost="batch"),
    # -- per-session queue cursors (mutable session state, NEVER cached)
    MethodSpec("open_queue", "queue", cost="batch"),
    MethodSpec("open_children_queue", "queue", cost="batch"),
    MethodSpec("open_descendants_queue", "queue", cost="batch"),
    MethodSpec("next_node", "queue"),
    MethodSpec("queue_size", "queue"),
    MethodSpec("close_queue", "queue"),
    # -- the versioned write protocol (coordinator <-> share server) ---
    MethodSpec("table_epoch", "write"),
    MethodSpec("row_versions", "write", cost="batch"),
    MethodSpec("prepare_delta", "write", mutating=True),
    MethodSpec("commit_delta", "write", mutating=True),
    MethodSpec("abort_delta", "write", mutating=True),
    MethodSpec("apply_delta", "write", mutating=True),
    MethodSpec("set_table_epoch", "write", mutating=True),
)

#: name -> spec, for O(1) dispatch-time lookups
SPECS_BY_NAME: Dict[str, MethodSpec] = {spec.name: spec for spec in METHOD_SPECS}
if len(SPECS_BY_NAME) != len(METHOD_SPECS):  # pragma: no cover - table sanity
    raise RuntimeError("duplicate method name in METHOD_SPECS")


def _names(predicate) -> "frozenset[str]":
    return frozenset(spec.name for spec in METHOD_SPECS if predicate(spec))


#: replicated structure-only reads (static after bulk load, so cacheable)
STRUCTURAL_READ_METHODS = _names(lambda spec: spec.kind == "structural-read")

#: scatter-gathered share reads whose *combined* results are cacheable
SHARE_READ_METHODS = _names(lambda spec: spec.kind == "share-read")

#: per-session queue-cursor methods (pinned to the opening server)
QUEUE_METHODS = _names(lambda spec: spec.kind == "queue")

#: the queue openers (batch-priced: they take the full ``pres`` list)
QUEUE_OPEN_METHODS = _names(lambda spec: spec.kind == "queue" and spec.cost == "batch")

#: the write-protocol surface (two-phase apply + version introspection)
WRITE_METHODS = _names(lambda spec: spec.kind == "write")

#: methods that change server state (epoch-committing)
MUTATING_METHODS = _names(lambda spec: spec.mutating)

#: the full cacheable read surface shared across gateway sessions
CACHEABLE_METHODS = _names(lambda spec: spec.cacheable)

#: methods whose first argument is a batch (a ``pres`` list): admission
#: cost scales with the batch size so one hog round is charged what it
#: actually occupies upstream
BATCH_ARG_METHODS = _names(lambda spec: spec.cost == "batch")

#: the session surface a remote client may call through the gateway.
#: Write methods are deliberately absent: mutations go through the
#: :class:`~repro.rmi.write.WriteCoordinator` straight to the share
#: servers, never through a shared read gateway session.
GATEWAY_EXPORTED_METHODS = STRUCTURAL_READ_METHODS | QUEUE_METHODS | SHARE_READ_METHODS

#: everything a share server's socket front end may dispatch.  This is
#: the registration point for new endpoints: a method absent from the
#: table is not reachable on a fleet server, even if the filter object
#: happens to define a public callable with that name.
SERVER_METHODS = _names(lambda spec: True)


def spec_for(method: str) -> Optional[MethodSpec]:
    """The spec row of one method."""
    return SPECS_BY_NAME.get(method)


def request_cost(method: str, args) -> float:
    """Admission cost: ~batch size for batch-priced methods, 1 otherwise."""
    spec = SPECS_BY_NAME.get(method)
    if spec is not None and spec.cost == "batch" and args:
        first = args[0]
        if isinstance(first, (list, tuple)):
            return float(max(1, len(first)))
    return 1.0
