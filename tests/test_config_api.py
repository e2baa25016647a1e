"""The redesigned typed config surface and the declarative method table.

Differential guarantees of the API redesign: every legacy flat-kwarg
combination builds a database that behaves byte-identically to one built
from the equivalent :class:`~repro.core.config.DatabaseConfig`; the
mapping shim covers the full config surface both ways; the per-method
spec table in :mod:`repro.rmi.methods` reproduces the hand-maintained
registries it replaced, name for name.
"""

import warnings

import pytest

import repro.core.database as database_module
from repro.core.config import (
    ClusterConfig,
    ConfigError,
    DatabaseConfig,
    FieldConfig,
    QueryConfigError,
    TransportConfig,
    WriteConfig,
    config_field_names,
    legacy_kwarg_names,
    LEGACY_KWARG_MAP,
)
from repro.core.database import EncryptedXMLDatabase
from repro.rmi import methods as method_table
from repro.xmldoc.parser import parse_string

XML = (
    "<site><people><person><name/><city/></person><person><city/></person></people>"
    "<regions><europe><item><name/></item></europe></regions></site>"
)
SEED = b"config-api-test-seed-0123456789!"


def _quiet_legacy(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return EncryptedXMLDatabase.from_document(parse_string(XML), **kwargs)


def _node_rows(db):
    tables = (
        db.encoded.node_tables
        if hasattr(db.encoded, "node_tables")
        else [db.encoded.node_table]
    )
    return [
        sorted(
            (dict(row, share=tuple(row["share"])) for row in table.scan()),
            key=lambda row: row["pre"],
        )
        for table in tables
    ]


class TestLegacyEquivalence:
    """Legacy kwargs and config objects build byte-identical databases."""

    CASES = [
        (
            dict(seed=SEED, p=83),
            DatabaseConfig(field=FieldConfig(seed=SEED, p=83)),
        ),
        (
            dict(seed=SEED, p=83, servers=3),
            DatabaseConfig(
                field=FieldConfig(seed=SEED, p=83),
                cluster=ClusterConfig(servers=3),
            ),
        ),
        (
            dict(seed=SEED, p=83, servers=4, threshold=2, sharing="shamir"),
            DatabaseConfig(
                field=FieldConfig(seed=SEED, p=83),
                cluster=ClusterConfig(servers=4, threshold=2, sharing="shamir"),
            ),
        ),
        (
            dict(seed=SEED, p=83, use_trie=True, batched=False),
            DatabaseConfig(
                field=FieldConfig(seed=SEED, p=83, use_trie=True),
                transport=TransportConfig(batched=False),
            ),
        ),
        (
            dict(
                seed=SEED,
                p=83,
                servers=4,
                threshold=2,
                sharing="shamir",
                enable_writes=True,
                journal_capacity=8,
            ),
            DatabaseConfig(
                field=FieldConfig(seed=SEED, p=83),
                cluster=ClusterConfig(servers=4, threshold=2, sharing="shamir"),
                write=WriteConfig(enabled=True, journal_capacity=8),
            ),
        ),
    ]

    @pytest.mark.parametrize("legacy, config", CASES)
    def test_stored_rows_are_byte_identical(self, legacy, config):
        via_legacy = _quiet_legacy(**legacy)
        via_config = EncryptedXMLDatabase.from_document(
            parse_string(XML), config=config
        )
        assert _node_rows(via_legacy) == _node_rows(via_config)
        for xpath in ("//city", "//name"):
            assert (
                via_legacy.query(xpath, strict=True).matches
                == via_config.query(xpath, strict=True).matches
            )

    @pytest.mark.parametrize("legacy, config", CASES)
    def test_shim_maps_to_the_same_config(self, legacy, config):
        assert (
            DatabaseConfig.from_legacy_kwargs(**legacy).validated()
            == config.validated()
        )

    def test_mixing_config_and_kwargs_is_rejected(self):
        with pytest.raises(QueryConfigError):
            EncryptedXMLDatabase.from_document(
                parse_string(XML), config=DatabaseConfig(), seed=SEED
            )

    def test_unknown_legacy_kwarg_raises_type_error(self):
        with pytest.raises(TypeError):
            DatabaseConfig.from_legacy_kwargs(no_such_option=1)

    def test_deprecation_warning_fires_exactly_once_per_process(self):
        original = database_module._legacy_kwargs_warned
        database_module._legacy_kwargs_warned = False
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                EncryptedXMLDatabase.from_document(parse_string(XML), seed=SEED)
                EncryptedXMLDatabase.from_document(parse_string(XML), seed=SEED)
            deprecations = [
                w for w in caught if issubclass(w.category, DeprecationWarning)
            ]
            assert len(deprecations) == 1
            assert "DatabaseConfig" in str(deprecations[0].message)
        finally:
            database_module._legacy_kwargs_warned = original

    def test_config_objects_warn_nothing(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            EncryptedXMLDatabase.from_document(
                parse_string(XML), config=DatabaseConfig(field=FieldConfig(seed=SEED))
            )
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []


class TestConfigValidation:
    """Conflict rules moved into the config layer, typed."""

    def test_conflicts_raise_typed_config_errors(self):
        conflicting = [
            DatabaseConfig(transport=TransportConfig(transport="bogus")),
            DatabaseConfig(transport=TransportConfig(transport="socket")),
            DatabaseConfig(
                cluster=ClusterConfig(cluster=False),
                transport=TransportConfig(transport="asyncio"),
            ),
            DatabaseConfig(
                transport=TransportConfig(transport="asyncio", per_call_latency=0.1)
            ),
            DatabaseConfig(
                transport=TransportConfig(transport="asyncio", concurrency=False)
            ),
            DatabaseConfig(cluster=ClusterConfig(cluster=False, servers=3)),
            DatabaseConfig(write=WriteConfig(enabled=True)),  # needs a cluster
            DatabaseConfig(
                cluster=ClusterConfig(servers=3),
                write=WriteConfig(enabled=True),
                keep_plaintext=False,
            ),
            DatabaseConfig(
                cluster=ClusterConfig(servers=3),
                write=WriteConfig(enabled=True, journal_capacity=0),
            ),
        ]
        for config in conflicting:
            with pytest.raises(QueryConfigError):
                config.validated()

    def test_query_config_error_is_a_config_error(self):
        assert issubclass(QueryConfigError, ConfigError)
        # the historical import home keeps working
        from repro.core.database import QueryConfigError as relocated

        assert relocated is QueryConfigError

    def test_shim_covers_the_whole_config_surface(self):
        mapped = {
            "%s.%s" % (group, field) for group, field in LEGACY_KWARG_MAP.values()
        }
        assert mapped == set(config_field_names())
        assert len(legacy_kwarg_names()) == len(LEGACY_KWARG_MAP)

    def test_round_trip_through_legacy_kwargs(self):
        config = DatabaseConfig(
            field=FieldConfig(seed=SEED, p=83),
            cluster=ClusterConfig(servers=4, threshold=2, sharing="shamir"),
            write=WriteConfig(enabled=True),
        )
        rebuilt = DatabaseConfig.from_legacy_kwargs(**config.as_legacy_kwargs())
        assert rebuilt == config


class TestMethodSpecTable:
    """One declarative table reproduces every hand-maintained registry."""

    OLD_STRUCTURAL = frozenset(
        (
            "node_count",
            "root_pre",
            "node_info",
            "node_infos",
            "children_of",
            "children_of_many",
            "descendants_of",
            "descendants_of_many",
            "parent_of",
        )
    )
    OLD_SHARE = frozenset(
        (
            "evaluate",
            "evaluate_batch",
            "fetch_share",
            "fetch_shares_batch",
        )
    )
    OLD_QUEUE = frozenset(
        (
            "open_queue",
            "open_children_queue",
            "open_descendants_queue",
            "next_node",
            "queue_size",
            "close_queue",
        )
    )
    OLD_QUEUE_OPEN = frozenset(
        ("open_queue", "open_children_queue", "open_descendants_queue")
    )
    OLD_BATCH_ARG = frozenset(
        (
            "evaluate_batch",
            "fetch_shares_batch",
            "node_infos",
            "children_of_many",
            "descendants_of_many",
            "open_queue",
            "open_children_queue",
            "open_descendants_queue",
        )
    )

    def test_table_reproduces_the_old_registries_exactly(self):
        assert method_table.STRUCTURAL_READ_METHODS == self.OLD_STRUCTURAL
        assert method_table.SHARE_READ_METHODS == self.OLD_SHARE
        assert method_table.QUEUE_METHODS == self.OLD_QUEUE
        assert method_table.QUEUE_OPEN_METHODS == self.OLD_QUEUE_OPEN
        assert method_table.CACHEABLE_METHODS == self.OLD_STRUCTURAL | self.OLD_SHARE
        assert self.OLD_BATCH_ARG <= method_table.BATCH_ARG_METHODS
        assert (
            method_table.GATEWAY_EXPORTED_METHODS
            == self.OLD_STRUCTURAL | self.OLD_QUEUE | self.OLD_SHARE
        )

    def test_gateway_and_cache_import_from_the_table(self):
        from repro.rmi.cache import CACHEABLE_METHODS
        from repro.rmi.gateway import EXPORTED_METHODS

        assert CACHEABLE_METHODS is method_table.CACHEABLE_METHODS
        assert EXPORTED_METHODS is method_table.GATEWAY_EXPORTED_METHODS

    def test_write_methods_are_not_gateway_exported(self):
        assert method_table.WRITE_METHODS & method_table.GATEWAY_EXPORTED_METHODS == frozenset()
        assert method_table.MUTATING_METHODS <= method_table.WRITE_METHODS
        # but the share servers themselves export the whole table
        assert method_table.WRITE_METHODS <= method_table.SERVER_METHODS

    def test_every_method_has_exactly_one_spec(self):
        names = [spec.name for spec in method_table.METHOD_SPECS]
        assert len(names) == len(set(names))
        assert set(names) == set(method_table.SPECS_BY_NAME)
        for spec in method_table.METHOD_SPECS:
            assert not (spec.cacheable and spec.mutating)

    def test_request_cost_matches_the_old_behaviour(self):
        cost = method_table.request_cost
        assert cost("node_count", ()) == 1.0
        assert cost("evaluate", (3, 1)) == 1.0
        assert cost("fetch_shares_batch", ([1, 2, 3],)) == 3.0
        assert cost("open_queue", ([1, 2, 3, 4],)) == 4.0
        assert cost("fetch_shares_batch", ([],)) == 1.0
