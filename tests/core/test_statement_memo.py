"""Compile once, run many: the statement memo of :class:`DBS3`.

The reference is always a *cold* database — a fresh ``DBS3`` that has
seen no statement — and, for rows, stdlib ``sqlite3``.  A statement
through a long-lived ``DBS3`` must be indistinguishable from the same
statement through a cold one: rows, virtual time, schedule, every
per-operation counter.
"""

import random
import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.database as database_module
from repro.compiler.optimizer import NormalizedQuery
from repro.core.database import DBS3
from repro.engine.executor import QuerySchedule
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.serve.harness import build_submissions, default_templates
from repro.storage.wisconsin import generate_wisconsin

#: name -> (cardinality, generator seed, degree, with_strings).
TABLES = {"A": (400, 1, 5, False), "B": (100, 2, 5, True),
          "C": (100, 3, 4, False)}

THREE_WAY = ("SELECT * FROM A JOIN B ON A.unique1 = B.unique1 "
             "JOIN C ON A.unique1 = C.unique1")

#: Statement templates and the literals each may take: the five of the
#: ledger's ``sql_short`` first, then one of each remaining shape.
TEMPLATES = (
    ("SELECT * FROM A WHERE unique2 = {}", range(400)),
    ("SELECT * FROM A WHERE unique1 < {}", range(90, 111)),
    ("SELECT unique1, ten FROM B WHERE onePercent = {}", range(100)),
    ("SELECT * FROM A JOIN B ON A.unique1 = B.unique1", (None,)),
    ("SELECT COUNT(*) FROM B WHERE ten = {}", range(10)),
    ("SELECT A.unique2, B.unique2 FROM A JOIN B ON A.unique1 = B.unique1 "
     "WHERE B.ten = {}", range(10)),
    ("SELECT * FROM A WHERE unique1 < {} AND two = 0", range(5, 60)),
    ("SELECT ten, COUNT(*), SUM(unique2), MAX(unique1) FROM B "
     "WHERE unique1 < {} GROUP BY ten", range(20, 100)),
    ("SELECT * FROM B WHERE unique1 < {}", [n + 0.5 for n in range(10, 80)]),
    ("SELECT unique1 FROM B WHERE string4 = {}",
     ("'AAAA'", "'HHHH'", "'OOOO'", "'VVVV'", "'none'")),
    (THREE_WAY, (None,)),
)


class Twin:
    """One database state, replayable: the DDL applied so far."""

    def __init__(self):
        self.tables = dict(TABLES)
        self.indexes = []

    def relations(self):
        return [generate_wisconsin(name, card, seed=seed, with_strings=strings)
                for name, (card, seed, _, strings) in self.tables.items()]

    def cold(self) -> DBS3:
        db = DBS3(processors=16)
        for relation in self.relations():
            db.create_table(relation, "unique1", self.tables[relation.name][2])
        for table, attribute in self.indexes:
            db.create_index(table, attribute)
        return db

    def expected(self, sql: str) -> Counter:
        connection = sqlite3.connect(":memory:")
        try:
            for relation in self.relations():
                names = relation.schema.names
                connection.execute(
                    f"CREATE TABLE {relation.name} ({', '.join(names)})")
                connection.executemany(
                    f"INSERT INTO {relation.name} VALUES "
                    f"({', '.join('?' * len(names))})", relation.rows)
            return Counter(connection.execute(sql).fetchall())
        finally:
            connection.close()


def templates(db: DBS3) -> list:
    """The statement templates *db* remembers (its memo, white box)."""
    return [value for value in db._statements.values()
            if isinstance(value, NormalizedQuery)]


def run(db: DBS3, sql: str, **kwargs):
    """One statement through a one-query session: (handle, result)."""
    handle = db.session().submit(sql, **kwargs)
    return handle, handle.result()


def check(warm: DBS3, twin: Twin, sql: str, **kwargs):
    """*sql* through the long-lived *warm* equals it through a cold
    ``DBS3`` in the same catalog state, and sqlite3 on the rows."""
    handle, result = run(warm, sql, **kwargs)
    cold_handle, cold_result = run(twin.cold(), sql, **kwargs)
    assert result.rows == cold_result.rows
    assert result.response_time == cold_result.response_time
    assert handle.schedule == cold_handle.schedule
    assert result.execution.operations == cold_result.execution.operations
    assert result.description == cold_result.description
    assert Counter(result.rows) == twin.expected(sql)
    return handle


@st.composite
def scripts(draw):
    """Statements of one or two templates (so that most are memo hits)
    with, now and then, DDL in between."""
    pool = draw(st.lists(st.sampled_from(TEMPLATES), min_size=1, max_size=2))
    script = []
    for _ in range(draw(st.integers(2, 5))):
        ddl = draw(st.sampled_from((None, None, "index", "index_entry",
                                    "recreate")))
        if ddl == "recreate":
            script.append((ddl, draw(st.sampled_from("ABC"))))
        elif ddl is not None:
            script.append((ddl, draw(st.sampled_from(
                (("A", "unique2"), ("B", "onePercent"), ("C", "unique2"))))))
        sql, literals = draw(st.sampled_from(pool))
        script.append(("sql", sql.format(draw(st.sampled_from(literals)))))
    return script


class TestWarmEqualsCold:
    @given(script=scripts())
    @settings(max_examples=12, deadline=None)
    def test_fuzz(self, script):
        twin = Twin()
        warm = twin.cold()
        for kind, argument in script:
            if kind == "sql":
                check(warm, twin, argument)
            elif kind == "index":
                warm.create_index(*argument)
                twin.indexes.append(argument)
            elif kind == "index_entry":      # not through the facade
                warm.table(argument[0]).create_index(argument[1])
                twin.indexes.append(argument)
            else:            # same name; other rows, size and (C) degree
                card, seed, degree, strings = twin.tables[argument]
                card = TABLES[argument][0] * (4 if card < 400 else 1)
                if argument == "C":
                    degree = 10 - degree
                twin.tables[argument] = (card, seed + 10, degree, strings)
                twin.indexes = [i for i in twin.indexes if i[0] != argument]
                warm.drop_table(argument)
                warm.create_table(
                    generate_wisconsin(argument, card, seed=seed + 10,
                                       with_strings=strings),
                    "unique1", degree)

    def test_every_template_twice(self):
        """The fuzz's deterministic floor: each template with two
        literals, the second a memo hit."""
        twin = Twin()
        twin.indexes.append(("A", "unique2"))
        warm = twin.cold()
        rng = random.Random(0)
        for _ in range(2):
            for sql, literals in TEMPLATES:
                check(warm, twin, sql.format(rng.choice(literals)))


class TestDirected:
    def test_threads_then_auto_then_explicit_schedule(self):
        twin = Twin()
        warm = twin.cold()
        sql = "SELECT * FROM A WHERE unique1 < {}"
        explicit = QuerySchedule.for_plan(
            warm.compile(sql.format(1)).plan, 3, "lpt")
        for literal, kwargs in ((100, {"threads": 4}), (101, {}),
                                (102, {"schedule": explicit}),
                                (103, {"threads": 4}), (104, {})):
            handle = check(warm, twin, sql.format(literal), **kwargs)
            if "schedule" in kwargs:
                assert handle.schedule is explicit

    def test_literal_type_is_part_of_the_template(self):
        twin = Twin()
        warm = twin.cold()
        for literal in ("1", "1.0", "'1'", "2", "2.5", "'two'"):
            check(warm, twin, f"SELECT unique1 FROM B WHERE ten = {literal}")
        assert len(templates(warm)) == 3     # one each for int, float, str

    def test_three_way_join_keeps_private_intermediates(self):
        """The one plan with run state (``StoreSpec.target_fragments``)
        gets a fresh plan per statement: no rows pile up."""
        warm = Twin().cold()
        for _ in range(3):
            compiled = warm.compile(THREE_WAY)
            assert {n.name for n in compiled.plan.nodes} == {
                "join1", "store1", "join2"}
            assert warm.query(THREE_WAY).cardinality == 100

    def test_algorithm_is_part_of_the_key(self):
        twin = Twin()
        warm = twin.cold()
        sql = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"
        for algorithm in ("nested_loop", "hash", "nested_loop", "hash"):
            check(warm, twin, sql, algorithm=algorithm)
        assert len(templates(warm)) == 2

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(database_module, "STATEMENT_MEMO_LIMIT", 3)
        twin = Twin()
        warm = twin.cold()
        for column in ("two", "four", "ten", "twenty", "unique2"):
            for threads in (1, 2, 3, 1):
                check(warm, twin, f"SELECT {column} FROM A", threads=threads)
                assert len(warm._statements) <= 3

    def test_a_failing_statement_is_not_remembered(self):
        from repro.errors import CompilationError
        warm = Twin().cold()
        for _ in range(2):
            with pytest.raises(CompilationError, match="unknown relation"):
                warm.query("SELECT * FROM ghost WHERE x = 1")
        assert not warm._statements


class TestStaleness:
    """A memo entry outliving the catalog state it was compiled against."""

    SQL = "SELECT * FROM A WHERE unique2 = {}"

    def test_index_created_on_the_entry(self):
        twin = Twin()
        warm = twin.cold()
        check(warm, twin, self.SQL.format(7))
        warm.table("A").create_index("unique2")
        twin.indexes.append(("A", "unique2"))
        check(warm, twin, self.SQL.format(8))
        assert "index_scan" in warm.compile(self.SQL.format(9)).description

    def test_drop_and_recreate_under_the_same_name(self):
        twin = Twin()
        warm = twin.cold()
        check(warm, twin, self.SQL.format(7))
        warm.drop_table("A")
        twin.tables["A"] = (2000, 9, 3, False)
        warm.create_table(generate_wisconsin("A", 2000, seed=9), "unique1", 3)
        check(warm, twin, self.SQL.format(8))
        assert len(run(warm, self.SQL.format(1999))[1].rows) == 1


class TestTheHitPathIsWhatRan:
    """Call counts, spied — there is no hit/miss counter API."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = Counter()

        def spy(owner, name, label):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[label] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        spy(database_module, "parse_tokens", "parse")
        spy(database_module, "normalize", "normalize")
        spy(database_module, "parallelize", "parallelize")
        spy(AdaptiveScheduler, "schedule", "schedule")
        return calls

    def test_sql_short_shaped_statements(self, spies):
        """The ledger's ``sql_short``: 40 cycles of five templates."""
        twin = Twin()
        twin.indexes.append(("A", "unique2"))
        db = twin.cold()
        rng = random.Random(0)
        for _ in range(40):
            for sql, literals in TEMPLATES[:5]:
                db.query(sql.format(rng.choice(literals)))
        assert spies == {"parse": 5, "normalize": 5, "schedule": 5,
                         "parallelize": 200}

    def test_serving_arrivals(self, spies):
        times = [0.01 * i for i in range(400)]
        submissions = build_submissions(default_templates(), times, seed=0)
        assert spies == {"schedule": 3}
        assert len(submissions) == 400
        assert len({id(s.compiled.plan) for s in submissions}) == 3
        assert len({id(s.schedule) for s in submissions}) == 3
