"""Database catalog: named node tables plus JSON persistence."""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List

from repro.storage.errors import SchemaError, StorageError, UnknownTableError
from repro.storage.table import Table

#: the column list every saved node table declares (the file format of
#: the relational era, kept so files stay readable both ways)
_COLUMNS = [
    {"name": "pre", "type": "integer", "nullable": False},
    {"name": "post", "type": "integer", "nullable": False},
    {"name": "parent", "type": "integer", "nullable": False},
    {"name": "share", "type": "int_list", "nullable": False},
    {"name": "version", "type": "integer", "nullable": True},
]


class Database:
    """A named collection of tables — the server-side "MySQL" of the prototype.

    The database is deliberately unencrypted and considered publicly readable,
    exactly like the paper's server store: all confidentiality comes from the
    secret-shared polynomial column, not from the storage layer.
    """

    def __init__(self, name: str = "encrypted_xml"):
        self.name = name
        self._tables: Dict[str, Table] = {}

    # ------------------------------------------------------------------
    # Catalog operations
    # ------------------------------------------------------------------

    def add_table(self, table: Table) -> Table:
        """Adopt a built table under its name (error if the name is taken)."""
        if table.name in self._tables:
            raise StorageError("table %r already exists" % table.name)
        self._tables[table.name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table (error if missing)."""
        if name not in self._tables:
            raise UnknownTableError("no such table: %r" % name)
        del self._tables[name]

    def table(self, name: str) -> Table:
        """Fetch a table by name."""
        table = self._tables.get(name)
        if table is None:
            raise UnknownTableError("no such table: %r" % name)
        return table

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        """All table names in creation order."""
        return list(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # Persistence (JSON)
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Serialise the whole database to a JSON file, rows in pre order."""
        payload: Dict[str, Any] = {"name": self.name, "tables": {}}
        for name, table in self._tables.items():
            payload["tables"][name] = {
                "columns": _COLUMNS,
                "indexes": [
                    {"column": column, "unique": column != "parent"}
                    for column in sorted(table.index_columns)
                ],
                "rows": list(table.rows()),
            }
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, path: str) -> "Database":
        """Load a database previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        database = cls(payload.get("name", "encrypted_xml"))
        for table_name, table_payload in payload.get("tables", {}).items():
            names = {column["name"] for column in table_payload.get("columns", [])}
            if not {"pre", "post", "parent", "share"} <= names:
                raise SchemaError("table %r of %s is not a node table" % (table_name, path))
            database.add_table(
                Table.from_rows(
                    table_payload.get("rows", []),
                    name=table_name,
                    index_columns=[index["column"] for index in table_payload.get("indexes", [])],
                )
            )
        return database

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "Database(%s, tables=%s)" % (self.name, self.table_names())
