"""The one sqlite3 oracle of the tests: a query's rows as stdlib
``sqlite3`` computes them over the same relations.

An answer the repo did not write: the statement memo checks its warm
database against it, and the lattice property every query it draws.
"""

import sqlite3
from collections import Counter


def sqlite_rows(relations, sql: str) -> Counter:
    """*sql*'s rows over *relations* (``Relation`` objects), as a
    multiset."""
    connection = sqlite3.connect(":memory:")
    try:
        for relation in relations:
            names = relation.schema.names
            connection.execute(
                f"CREATE TABLE {relation.name} ({', '.join(names)})")
            connection.executemany(
                f"INSERT INTO {relation.name} VALUES "
                f"({', '.join('?' * len(names))})", relation.rows)
        return Counter(connection.execute(sql).fetchall())
    finally:
        connection.close()
