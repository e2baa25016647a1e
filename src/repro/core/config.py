"""Typed configuration for :class:`~repro.core.database.EncryptedXMLDatabase`.

``from_document`` historically grew one keyword argument per feature —
twenty-nine knobs in one flat signature, with the conflict rules (modeled
latency over a measured transport, cluster options without a cluster, …)
buried in the constructor body.  This module replaces that surface with
four small dataclasses grouped by concern:

* :class:`FieldConfig` — the encoding itself: field, tag map, seed,
  trie transform, storage layout.
* :class:`ClusterConfig` — the share fleet: server count, sharing
  scheme, threshold, read quorum, verification.
* :class:`TransportConfig` — how calls travel: simulated or asyncio,
  latency model, concurrency, hedging, prefetch.
* :class:`WriteConfig` — the versioned write path: enablement, journal
  retention, reconstruction-time read repair.

:class:`DatabaseConfig` composes them (plus ``keep_plaintext``) and owns
every cross-cutting validation rule in :meth:`DatabaseConfig.validated`,
raising :class:`QueryConfigError` — the same type the legacy surface
raised, so existing error handling keeps working.  The legacy kwargs are
accepted through :meth:`DatabaseConfig.from_legacy_kwargs` (the mapping
shim behind ``from_document``'s deprecation path).
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field, fields, replace
from typing import Iterable, List, Optional, Tuple, Union


class ConfigError(ValueError):
    """An invalid or internally conflicting database configuration."""


class QueryConfigError(ConfigError):
    """Raised for invalid engine/rule selections or unusable configurations.

    Historically defined in :mod:`repro.core.database`; it lives with the
    config objects now and is re-exported from its old home.
    """


@dataclass(frozen=True)
class FieldConfig:
    """The encoding: field choice, tag map, seed and storage layout."""

    #: map alphabet (e.g. the DTD's element names); ``None`` derives it
    #: from the document itself
    tag_names: Optional[Iterable[str]] = None
    #: PRG master seed; ``None`` draws a fresh one
    seed: Optional[bytes] = None
    #: field characteristic (``None`` picks the smallest fitting prime)
    p: Optional[int] = None
    #: field extension degree (``F_{p^e}``)
    e: int = 1
    #: shuffle seed for a randomised tag -> value assignment
    map_shuffle_seed: Optional[int] = None
    #: rewrite text payloads into trie elements (enables ``contains()``)
    use_trie: bool = False
    #: compress trie chains into single edges
    trie_compressed: bool = True
    #: B+-tree fan-out of the modelled node-table indexes (the Fig. 4
    #: index-size model only: the columnar store builds no index)
    btree_order: int = 64
    #: modelled index columns (``None`` = pre, post and parent); without
    #: ``parent`` the server scans the parent column for children
    index_columns: Optional[List[str]] = None


@dataclass(frozen=True)
class ClusterConfig:
    """The share fleet: how many servers hold what under which scheme."""

    servers: int = 1
    #: reconstruction threshold for ``sharing="shamir"`` (k of n)
    threshold: Optional[int] = None
    #: ``"additive"`` (n-of-n, regenerable PRG lanes) or ``"shamir"``
    sharing: str = "additive"
    #: force (``True``) or forbid (``False``) the cluster stack;
    #: ``None`` infers it from the other knobs
    cluster: Optional[bool] = None
    #: servers contacted per share read (``None`` = all of them)
    read_quorum: Optional[int] = None
    #: verify redundant replies against the reconstruction
    verify_shares: bool = True


@dataclass(frozen=True)
class TransportConfig:
    """How calls travel and what latency they are charged."""

    #: ``"simulated"`` (in-process servers) or ``"asyncio"`` (subprocess
    #: servers over the socket wire)
    transport: str = "simulated"
    #: single-server mode: cross a simulated RMI boundary (vs in-process)
    use_rmi: bool = True
    #: batched per-step remote protocol (vs one call per candidate)
    batched: bool = True
    per_call_latency: float = 0.0
    per_byte_latency: float = 0.0
    latency_jitter: float = 0.0
    #: simulated makespan clock: ``True`` charges a scatter round its
    #: critical path, ``False`` the latency sum (replies are identical)
    concurrency: bool = True
    #: hedged straggler co-issue (simulated: modeled ratio; asyncio: an
    #: observed-RTT quantile)
    hedge: Union[bool, float] = False
    #: structural rounds overlapped with in-flight share reads
    prefetch: int = 0
    #: fixed modeled cost per scatter round
    round_overhead: float = 0.0


@dataclass(frozen=True)
class WriteConfig:
    """The versioned write path (see :mod:`repro.rmi.write`)."""

    #: build the write surface: a client-side
    #: :class:`~repro.encode.mutate.DocumentState` plus a
    #: :class:`~repro.rmi.write.WriteCoordinator` driving two-phase
    #: deltas across the fleet
    enabled: bool = False
    #: committed deltas retained for replay repair (``None`` = unbounded)
    journal_capacity: Optional[int] = None
    #: arm reconstruction-time read repair on the cluster client
    read_repair: bool = True


#: legacy ``from_document`` keyword -> (config group, field name)
LEGACY_KWARG_MAP = {
    "tag_names": ("field", "tag_names"),
    "seed": ("field", "seed"),
    "p": ("field", "p"),
    "e": ("field", "e"),
    "map_shuffle_seed": ("field", "map_shuffle_seed"),
    "use_trie": ("field", "use_trie"),
    "trie_compressed": ("field", "trie_compressed"),
    "btree_order": ("field", "btree_order"),
    "index_columns": ("field", "index_columns"),
    "servers": ("cluster", "servers"),
    "threshold": ("cluster", "threshold"),
    "sharing": ("cluster", "sharing"),
    "cluster": ("cluster", "cluster"),
    "read_quorum": ("cluster", "read_quorum"),
    "verify_shares": ("cluster", "verify_shares"),
    "transport": ("transport", "transport"),
    "use_rmi": ("transport", "use_rmi"),
    "batched": ("transport", "batched"),
    "per_call_latency": ("transport", "per_call_latency"),
    "per_byte_latency": ("transport", "per_byte_latency"),
    "latency_jitter": ("transport", "latency_jitter"),
    "concurrency": ("transport", "concurrency"),
    "hedge": ("transport", "hedge"),
    "prefetch": ("transport", "prefetch"),
    "round_overhead": ("transport", "round_overhead"),
    "enable_writes": ("write", "enabled"),
    "journal_capacity": ("write", "journal_capacity"),
    "read_repair": ("write", "read_repair"),
    "keep_plaintext": ("root", "keep_plaintext"),
}


@dataclass(frozen=True)
class DatabaseConfig:
    """Everything ``from_document`` needs, grouped and validated."""

    field: FieldConfig = _field(default_factory=FieldConfig)
    cluster: ClusterConfig = _field(default_factory=ClusterConfig)
    transport: TransportConfig = _field(default_factory=TransportConfig)
    write: WriteConfig = _field(default_factory=WriteConfig)
    #: retain the plaintext document (ground truth for experiments; the
    #: write path's :class:`~repro.encode.mutate.DocumentState` needs it)
    keep_plaintext: bool = True

    # ------------------------------------------------------------------
    # The legacy mapping shim
    # ------------------------------------------------------------------

    @classmethod
    def from_legacy_kwargs(cls, **kwargs) -> "DatabaseConfig":
        """Build a config from ``from_document``'s historical flat kwargs.

        Unknown names raise :class:`TypeError` exactly like the old
        signature did.  This is a pure mapping — validation happens in
        :meth:`validated`, same as for directly constructed configs.
        """
        groups = {"field": {}, "cluster": {}, "transport": {}, "write": {}, "root": {}}
        for name, value in kwargs.items():
            try:
                group, attr = LEGACY_KWARG_MAP[name]
            except KeyError:
                raise TypeError(
                    "from_document() got an unexpected keyword argument %r" % (name,)
                ) from None
            groups[group][attr] = value
        return cls(
            field=FieldConfig(**groups["field"]),
            cluster=ClusterConfig(**groups["cluster"]),
            transport=TransportConfig(**groups["transport"]),
            write=WriteConfig(**groups["write"]),
            **groups["root"],
        )

    # ------------------------------------------------------------------
    # Validation (every cross-cutting conflict rule lives here)
    # ------------------------------------------------------------------

    def validated(self) -> "DatabaseConfig":
        """Check every conflict rule; returns the config with the
        effective ``cluster`` flag resolved (never ``None``).

        Raises :class:`QueryConfigError` — a :class:`ConfigError` — on
        any invalid or internally conflicting combination.
        """
        cluster_cfg = self.cluster
        transport_cfg = self.transport
        kind = transport_cfg.transport
        if kind not in ("simulated", "asyncio"):
            raise QueryConfigError(
                "unknown transport %r; expected 'simulated' or 'asyncio'" % (kind,)
            )
        resolved = cluster_cfg.cluster
        if kind == "asyncio":
            if resolved is False:
                raise QueryConfigError(
                    "transport='asyncio' deploys a share cluster; it conflicts with cluster=False"
                )
            resolved = True
            conflicts = []
            if transport_cfg.per_call_latency:
                conflicts.append("per_call_latency=%r" % transport_cfg.per_call_latency)
            if transport_cfg.per_byte_latency:
                conflicts.append("per_byte_latency=%r" % transport_cfg.per_byte_latency)
            if transport_cfg.latency_jitter:
                conflicts.append("latency_jitter=%r" % transport_cfg.latency_jitter)
            if conflicts:
                raise QueryConfigError(
                    "the asyncio transport measures latency instead of modelling it; "
                    "it conflicts with %s" % ", ".join(conflicts)
                )
            if not transport_cfg.concurrency:
                raise QueryConfigError(
                    "the asyncio transport is inherently concurrent (one event "
                    "loop multiplexes every call); it conflicts with concurrency=False"
                )
            hedge = transport_cfg.hedge
            if hedge is not False and hedge is not True and not 0 < hedge < 1:
                raise QueryConfigError(
                    "asyncio hedging is driven by observed RTT percentiles: hedge "
                    "must be a quantile in (0, 1) (or True for the default), got %r"
                    % (hedge,)
                )
        if resolved is None:
            resolved = (
                cluster_cfg.servers > 1
                or cluster_cfg.sharing != "additive"
                or cluster_cfg.threshold is not None
            )
        if not resolved:
            # An explicit cluster=False must not silently discard cluster
            # configuration — especially not a threshold sharing request.
            conflicts = []
            if cluster_cfg.servers != 1:
                conflicts.append("servers=%d" % cluster_cfg.servers)
            if cluster_cfg.sharing != "additive":
                conflicts.append("sharing=%r" % cluster_cfg.sharing)
            if cluster_cfg.threshold is not None:
                conflicts.append("threshold=%r" % (cluster_cfg.threshold,))
            if transport_cfg.latency_jitter:
                conflicts.append("latency_jitter=%r" % transport_cfg.latency_jitter)
            if cluster_cfg.read_quorum is not None:
                conflicts.append("read_quorum=%r" % (cluster_cfg.read_quorum,))
            if not transport_cfg.concurrency:
                conflicts.append("concurrency=%r" % transport_cfg.concurrency)
            if transport_cfg.hedge is not False:
                conflicts.append("hedge=%r" % (transport_cfg.hedge,))
            if transport_cfg.prefetch:
                conflicts.append("prefetch=%r" % transport_cfg.prefetch)
            if transport_cfg.round_overhead:
                conflicts.append("round_overhead=%r" % transport_cfg.round_overhead)
            if conflicts:
                raise QueryConfigError(
                    "a non-cluster deployment conflicts with %s" % ", ".join(conflicts)
                )
        write_cfg = self.write
        if write_cfg.enabled:
            if not resolved:
                raise QueryConfigError(
                    "the write path runs the two-phase protocol across a share "
                    "fleet; WriteConfig(enabled=True) needs a cluster deployment"
                )
            if not self.keep_plaintext:
                raise QueryConfigError(
                    "the write path edits the client-side plaintext tree; "
                    "WriteConfig(enabled=True) conflicts with keep_plaintext=False"
                )
            if self.field.use_trie:
                raise QueryConfigError(
                    "incremental writes do not rewrite trie payloads yet; "
                    "WriteConfig(enabled=True) conflicts with use_trie=True"
                )
        if write_cfg.journal_capacity is not None and write_cfg.journal_capacity < 1:
            raise QueryConfigError(
                "journal_capacity must be positive, got %r" % (write_cfg.journal_capacity,)
            )
        return replace(self, cluster=replace(cluster_cfg, cluster=resolved))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def as_legacy_kwargs(self) -> dict:
        """The flat legacy-kwarg view of this config (tests, round-trips)."""
        flat = {}
        sections = {
            "field": self.field,
            "cluster": self.cluster,
            "transport": self.transport,
            "write": self.write,
        }
        for legacy_name, (group, attr) in LEGACY_KWARG_MAP.items():
            if group == "root":
                flat[legacy_name] = getattr(self, attr)
            else:
                flat[legacy_name] = getattr(sections[group], attr)
        return flat


def legacy_kwarg_names() -> Tuple[str, ...]:
    """Every keyword the legacy ``from_document`` surface accepts."""
    return tuple(sorted(LEGACY_KWARG_MAP))


def config_field_names() -> Tuple[str, ...]:
    """Every (group, field) pair of the typed surface — shim coverage check."""
    pairs = []
    for group_name, cls in (
        ("field", FieldConfig),
        ("cluster", ClusterConfig),
        ("transport", TransportConfig),
        ("write", WriteConfig),
    ):
        for spec in fields(cls):
            pairs.append("%s.%s" % (group_name, spec.name))
    pairs.append("root.keep_plaintext")
    return tuple(sorted(pairs))
