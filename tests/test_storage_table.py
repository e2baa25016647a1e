"""Tests for the columnar node table, its index-size model and the catalog."""

import gc
import json

import pytest

from repro.storage.database import Database
from repro.storage.errors import DenseOrderError, SchemaError, StorageError, UnknownTableError
from repro.storage.table import Table, btree_index_bytes, share_typecode


def tracked_objects(root) -> int:
    """How many objects the garbage collector tracks under ``root``
    (types and what they reference are shared, so not followed)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def _rows():
    # <a><b><c/></b><d/></a>: pre order a=1, b=2, c=3, d=4
    return [
        {"pre": 1, "post": 4, "parent": 0, "share": (1, 2)},
        {"pre": 2, "post": 2, "parent": 1, "share": (3, 4)},
        {"pre": 3, "post": 1, "parent": 2, "share": (5, 6)},
        {"pre": 4, "post": 3, "parent": 1, "share": (7, 8), "version": 2},
    ]


@pytest.fixture()
def table():
    return Table.from_rows(reversed(_rows()))


class TestLayout:
    def test_narrowest_share_typecode(self):
        assert share_typecode(82) == "B"  # F_83
        assert share_typecode(255) == "B"
        assert share_typecode(256) == "H"
        assert share_typecode(65535) == "H"
        assert share_typecode(65536) in ("I", "L")

    def test_rows_round_trip_in_pre_order(self, table):
        assert list(table.rows()) == _rows()
        assert len(table) == 4 and table.width == 2
        assert table.shares.typecode == "B"
        assert table.row(4)["version"] == 2 and "version" not in table.row(1)

    def test_columns_are_arrays_addressed_by_pre(self, table):
        assert table.post.tolist() == [4, 2, 1, 3]
        assert table.parent.tolist() == [0, 1, 2, 1]
        assert table.version.tolist() == [0, 0, 0, 2]
        assert table.shares.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_store_holds_no_per_row_objects(self):
        # a thousand rows cost the garbage collector exactly what four do:
        # the columns are flat arrays, not one object per row
        small = Table.from_rows(_rows())
        rows = [
            {"pre": pre, "post": 1001 - pre, "parent": pre - 1, "share": (pre % 7, 1)}
            for pre in range(1, 1001)
        ]
        large = Table.from_rows(rows)
        for table in (small, large):
            table.children(1)
        assert tracked_objects(large) == tracked_objects(small) < 20

    def test_unknown_rows_raise(self, table):
        with pytest.raises(LookupError):
            table.row(0)
        with pytest.raises(LookupError):
            table.share_row(5)

    def test_non_dense_rows_rejected(self):
        rows = _rows()
        rows[3] = dict(rows[3], pre=5)
        with pytest.raises(DenseOrderError):
            Table.from_rows(rows)
        rows = _rows()
        rows[1] = dict(rows[1], parent=3)  # a parent after its child
        with pytest.raises(DenseOrderError):
            Table.from_rows(rows)

    def test_malformed_rows_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_rows([{"pre": 1, "post": 1, "parent": 0}])
        with pytest.raises(SchemaError):
            Table.from_rows([{"pre": 1, "post": 1, "parent": 0, "share": (1, 300)}])
        rows = _rows()
        rows[1] = dict(rows[1], share=(3,))
        with pytest.raises(SchemaError):
            Table.from_rows(rows)

    def test_unknown_index_column_rejected(self):
        with pytest.raises(SchemaError):
            Table(index_columns=["missing"])


class TestStructure:
    def test_children_in_document_order(self, table):
        assert table.children(0) == [1]
        assert table.children(1) == [2, 4]
        assert table.children(3) == [] and table.children(99) == []
        assert table.children_many([1, 2, 99, 0]) == [[2, 4], [3], [], [1]]

    def test_unindexed_parent_scan_agrees(self, table):
        scanned = Table.from_rows(table.rows(), index_columns=[])
        for pre in range(0, 6):
            assert scanned.children(pre) == table.children(pre)

    def test_subtree_end_follows_last_children(self, table):
        assert [table.subtree_end(pre) for pre in (1, 2, 3, 4)] == [4, 3, 3, 4]

    def test_set_share_in_place(self, table):
        table.set_share(3, [9, 9])
        assert table.share_row(3) == [9, 9]
        with pytest.raises(SchemaError):
            table.set_share(3, [1])


class TestPlaceAndSplice:
    def test_place_scatters_rows_closed_in_post_order(self):
        table = Table(width=2)
        table.place([3, 2], [1, 2], [2, 1], [[5, 6], [3, 4]])
        table.place([4, 1], [3, 4], [1, 0], [[7, 8], [1, 2]])
        # the bulk load writes version 0 everywhere
        expected = [{k: v for k, v in row.items() if k != "version"} for row in _rows()]
        assert list(table.rows()) == expected

    def test_splice_rewrites_renumbers_and_grows(self, table):
        count = table.splice(
            [(4, 5, 1, (0, 0), 3), (5, 4, 1, (1, 1), 3)], moved=[(2, 3, 1)]
        )
        assert count == 5 and len(table) == 5
        assert table.row(5) == {"pre": 5, "post": 4, "parent": 1, "share": (1, 1), "version": 3}
        assert table.row(2)["post"] == 3 and table.row(2)["share"] == (3, 4)
        assert table.children(1) == [2, 4, 5]

    def test_splice_shrinks_at_the_end(self, table):
        assert table.splice([(1, 3, 0, (0, 0), 1)], moved=[(2, 2, 1)], deleted=[4]) == 3
        assert [row["pre"] for row in table.rows()] == [1, 2, 3]
        assert table.children(1) == [2]

    def test_splice_swaps_columns_instead_of_resizing(self, table):
        old_shares = table.shares
        view = memoryview(old_shares)  # an exported buffer forbids resizing
        table.splice([(5, 5, 1, (1, 1), 1)])
        assert old_shares.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
        assert len(table.shares) == 10
        view.release()

    @pytest.mark.parametrize(
        "written, moved, deleted",
        [
            ([(6, 5, 1, (1, 1), 1)], (), ()),  # a gap at pre 5
            ([], (), [2]),  # a hole in the middle
            ([(5, 5, 1, (1, 1), 1)], (), [4]),  # grow and shrink at once
            ([(2, 2, 1, (1, 1), 1), (2, 2, 1, (1, 1), 1)], (), ()),  # duplicate
            ([], [(9, 1, 0)], ()),  # renumbering a row that is not there
            ([], [(4, 1, 0)], [4]),  # renumbering a deleted row
            ([(3, 1, 3, (1, 1), 1)], (), ()),  # a row as its own parent
            ([], [(2, 2, 4)], ()),  # a parent after its child
        ],
    )
    def test_splice_refuses_non_dense_results(self, table, written, moved, deleted):
        before = list(table.rows())
        with pytest.raises(DenseOrderError):
            table.splice(written, moved, deleted)
        assert list(table.rows()) == before


class TestIndexSizeModel:
    def test_pinned_to_ascending_b_plus_tree_inserts(self):
        # sizes a B+-tree of that order reached after ascending inserts
        assert btree_index_bytes(54533, 54533, 64) == 900192
        assert btree_index_bytes(5512, 5512, 64) == 90976
        assert btree_index_bytes(1000, 3000, 4) == 41992
        assert btree_index_bytes(200, 200, 3) == 7920
        assert btree_index_bytes(10, 12, 64) == 8 * 22  # one leaf

    def test_table_sums_its_index_columns(self, table):
        unique = btree_index_bytes(4, 4, 64)
        assert table.index_bytes() == 2 * unique + btree_index_bytes(3, 4, 64)
        assert Table.from_rows(table.rows(), index_columns=[]).index_bytes() == 0


class TestDatabase:
    def test_create_and_lookup(self):
        database = Database("test")
        table = database.add_table(Table())
        assert database.table("nodes") is table
        assert "nodes" in database
        assert database.table_names() == ["nodes"]

    def test_duplicate_table_rejected(self):
        database = Database()
        database.add_table(Table())
        with pytest.raises(StorageError):
            database.add_table(Table())

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            Database().table("missing")
        with pytest.raises(UnknownTableError):
            Database().drop_table("missing")

    def test_drop_table(self):
        database = Database()
        database.add_table(Table())
        database.drop_table("nodes")
        assert "nodes" not in database

    def test_persistence_roundtrip(self, tmp_path, table):
        database = Database("persisted")
        database.add_table(table)
        path = str(tmp_path / "db.json")
        database.save(path)
        payload = json.loads(open(path).read())["tables"]["nodes"]
        assert [column["name"] for column in payload["columns"]] == [
            "pre", "post", "parent", "share", "version"
        ]
        assert payload["indexes"] == [
            {"column": "parent", "unique": False},
            {"column": "post", "unique": True},
            {"column": "pre", "unique": True},
        ]
        loaded = Database.load(path).table("nodes")
        assert list(loaded.rows()) == _rows()
        assert loaded.index_columns == ["parent", "post", "pre"]

    def test_rows_of_any_order_load(self, tmp_path):
        path = tmp_path / "db.json"
        payload = {"name": "x", "tables": {"nodes": {
            "columns": [{"name": name} for name in ("pre", "post", "parent", "share")],
            "indexes": [],
            "rows": [dict(row, share=list(row["share"])) for row in reversed(_rows())],
        }}}
        path.write_text(json.dumps(payload))
        assert list(Database.load(str(path)).table("nodes").rows()) == _rows()

    def test_non_node_tables_rejected(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"tables": {"blobs": {"columns": [{"name": "id"}], "rows": []}}}))
        with pytest.raises(SchemaError):
            Database.load(str(path))
