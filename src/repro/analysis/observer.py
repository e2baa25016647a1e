"""Recording what the server observes while answering queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.filters.server import ServerFilter


@dataclass(frozen=True)
class ObservedCall:
    """One server-side request as the server sees it.

    ``method`` is the remote method name; ``pre`` the node it concerned (when
    applicable); ``point`` the evaluation point for containment tests — this
    is exactly the client's secret ``map(tag)`` value, sent in the clear.
    """

    sequence: int
    method: str
    pre: Optional[int] = None
    point: Optional[int] = None
    pres: Tuple[int, ...] = ()


class ServerView:
    """The accumulated observation log of an honest-but-curious server."""

    def __init__(self) -> None:
        self.calls: List[ObservedCall] = []
        self._sequence = 0
        #: arithmetic kernel backend that served the observed trace
        #: ("prime", "table" or "naive"); stamped by the observing filter
        self.backend: Optional[str] = None

    def record(self, method: str, pre: Optional[int] = None, point: Optional[int] = None, pres: Tuple[int, ...] = ()) -> None:
        """Append one observation."""
        self._sequence += 1
        self.calls.append(ObservedCall(self._sequence, method, pre=pre, point=point, pres=pres))

    # ------------------------------------------------------------------
    # Convenience projections
    # ------------------------------------------------------------------

    _EVALUATION_METHODS = ("evaluate", "evaluate_batch")
    _EXPANSION_METHODS = (
        "children_of",
        "descendants_of",
        "children_of_many",
        "descendants_of_many",
    )
    _FETCH_METHODS = ("fetch_share", "fetch_shares_batch")

    def evaluation_points(self) -> List[int]:
        """Distinct evaluation points observed, in first-seen order."""
        seen: Dict[int, None] = {}
        for call in self.calls:
            if call.method in self._EVALUATION_METHODS and call.point is not None:
                seen.setdefault(call.point, None)
        return list(seen)

    def evaluations_by_point(self) -> Dict[int, List[int]]:
        """Evaluation point → list of node ``pre`` numbers it was applied to.

        Batched evaluations are unpacked: one ``evaluate_batch`` over *n*
        candidates leaks exactly the same (point, pre) pairs as *n* per-node
        calls, so the attacks see through the batching untouched.
        """
        grouped: Dict[int, List[int]] = {}
        for call in self.calls:
            if call.method not in self._EVALUATION_METHODS or call.point is None:
                continue
            if call.pre is not None:
                grouped.setdefault(call.point, []).append(call.pre)
            for pre in call.pres:
                grouped.setdefault(call.point, []).append(pre)
        return grouped

    def expanded_nodes(self) -> List[int]:
        """Nodes whose children/descendants were subsequently requested."""
        expanded: Dict[int, None] = {}
        for call in self.calls:
            if call.method in self._EXPANSION_METHODS:
                if call.pre is not None:
                    expanded.setdefault(call.pre, None)
                for pre in call.pres:
                    expanded.setdefault(pre, None)
        return list(expanded)

    def fetched_shares(self) -> List[int]:
        """Nodes whose full share vectors were fetched (equality tests)."""
        fetched: Dict[int, None] = {}
        for call in self.calls:
            if call.method in self._FETCH_METHODS:
                if call.pre is not None:
                    fetched.setdefault(call.pre, None)
                for pre in call.pres:
                    fetched.setdefault(pre, None)
        return list(fetched)

    def call_count(self, method: Optional[str] = None) -> int:
        """Total observations, optionally restricted to one method."""
        if method is None:
            return len(self.calls)
        return sum(1 for call in self.calls if call.method == method)

    def clear(self) -> None:
        """Forget everything observed so far."""
        self.calls.clear()
        self._sequence = 0


class ObservingServerFilter(ServerFilter):
    """A :class:`ServerFilter` that logs every request into a :class:`ServerView`.

    The wrapper changes no behaviour — results are identical to the plain
    server filter — it only records the information any real server would
    necessarily see while executing the protocol.
    """

    def __init__(self, table, ring, view: Optional[ServerView] = None):
        super().__init__(table, ring)
        self.view = view or ServerView()
        self.view.backend = ring.kernel.name

    # Structural queries -------------------------------------------------

    def root_pre(self) -> int:
        self.view.record("root_pre")
        return super().root_pre()

    def children_of(self, pre: int):
        self.view.record("children_of", pre=pre)
        return super().children_of(pre)

    def children_of_many(self, pres):
        self.view.record("children_of_many", pres=tuple(pres))
        return super().children_of_many(pres)

    def descendants_of(self, pre: int):
        self.view.record("descendants_of", pre=pre)
        return super().descendants_of(pre)

    def descendants_of_many(self, pres):
        self.view.record("descendants_of_many", pres=tuple(pres))
        return super().descendants_of_many(pres)

    def node_infos(self, pres):
        self.view.record("node_infos", pres=tuple(pres))
        return super().node_infos(pres)

    def parent_of(self, pre: int) -> int:
        self.view.record("parent_of", pre=pre)
        return super().parent_of(pre)

    # Share access --------------------------------------------------------

    def evaluate(self, pre: int, point: int) -> int:
        self.view.record("evaluate", pre=pre, point=point)
        return super().evaluate(pre, point)

    def evaluate_batch(self, pres, point):
        self.view.record("evaluate_batch", point=point, pres=tuple(pres))
        return super().evaluate_batch(pres, point)

    def fetch_share(self, pre: int):
        self.view.record("fetch_share", pre=pre)
        return super().fetch_share(pre)

    def fetch_shares_batch(self, pres):
        self.view.record("fetch_shares_batch", pres=tuple(pres))
        return super().fetch_shares_batch(pres)
