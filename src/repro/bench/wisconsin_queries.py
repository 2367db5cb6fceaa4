"""The classic Wisconsin benchmark query set, adapted to this engine.

[Bitton83] defines a fixed query suite over the DewittA/DewittB
("A", "Bprime") relations; the paper runs its experiments on these
relations.  This module provides the suite's canonical shapes as
ready-to-run workloads:

* ``sel_1pct`` / ``sel_10pct`` — selections with 1% / 10% selectivity
  (queries 1 and 3 of the benchmark, without output to screen);
* ``join_a_bprime`` — the two-relation join on ``unique1``
  (query 9's shape: |Bprime| = |A| / 10, every Bprime tuple matches);
* ``join_a_sel_bprime`` — join with a 10% restriction on the streamed
  operand (the selJoin family), compiling to the Figure 1 pipeline;
* ``agg_min_grouped`` — the MIN aggregate with grouping (query 18's
  shape).

Each function returns a ready :class:`WisconsinQuery` bundling the
SQL, the expected cardinality, and the database handle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.database import DBS3
from repro.core.results import QueryResult
from repro.storage.wisconsin import generate_wisconsin


@dataclass(frozen=True)
class WisconsinQuery:
    """One benchmark query, ready to execute."""

    name: str
    sql: str
    expected_cardinality: int
    db: DBS3

    def run(self, threads: int | None = None,
            algorithm: str = "nested_loop") -> QueryResult:
        """Execute and sanity-check the cardinality."""
        result = self.db.query(self.sql, threads=threads,
                               algorithm=algorithm)
        if result.cardinality != self.expected_cardinality:
            raise AssertionError(
                f"{self.name}: got {result.cardinality} rows, benchmark "
                f"defines {self.expected_cardinality}")
        return result


#: The benchmark database's machine size and generator seed.
PROCESSORS = 32
SEED = 11


def make_database(cardinality: int = 10_000, degree: int = 50) -> DBS3:
    """A and Bprime, the benchmark's standard pair (|Bprime| = |A|/10).

    Both hash partitioned on ``unique1`` with the same degree, the
    regime of the paper's IdealJoin experiments.
    """
    db = DBS3(processors=PROCESSORS)
    db.create_table(generate_wisconsin("A", cardinality, seed=SEED),
                    "unique1", degree)
    db.create_table(generate_wisconsin("Bprime", cardinality // 10,
                                       seed=SEED + 1),
                    "unique1", degree)
    return db


def sel_1pct(db: DBS3) -> WisconsinQuery:
    """1% selection on A via the onePercent attribute."""
    cardinality = db.table("A").cardinality
    return WisconsinQuery(
        name="sel_1pct",
        sql="SELECT * FROM A WHERE onePercent = 7",
        expected_cardinality=cardinality // 100,
        db=db,
    )


def sel_10pct(db: DBS3) -> WisconsinQuery:
    """10% selection on A via the tenPercent attribute."""
    cardinality = db.table("A").cardinality
    return WisconsinQuery(
        name="sel_10pct",
        sql="SELECT * FROM A WHERE tenPercent = 3",
        expected_cardinality=cardinality // 10,
        db=db,
    )


def join_a_bprime(db: DBS3) -> WisconsinQuery:
    """joinABprime: every Bprime tuple finds its unique A partner."""
    return WisconsinQuery(
        name="join_a_bprime",
        sql="SELECT * FROM A JOIN Bprime ON A.unique1 = Bprime.unique1",
        expected_cardinality=db.table("Bprime").cardinality,
        db=db,
    )


def join_a_sel_bprime(db: DBS3) -> WisconsinQuery:
    """joinAselBprime: restrict Bprime to 10% before joining.

    Compiles to the filter-join pipeline (the filtered operand
    streams), so this is the benchmark query exercising Figure 1.
    """
    return WisconsinQuery(
        name="join_a_sel_bprime",
        sql=("SELECT * FROM A JOIN Bprime ON A.unique1 = Bprime.unique1 "
             "WHERE Bprime.tenPercent = 3"),
        expected_cardinality=db.table("Bprime").cardinality // 10,
        db=db,
    )


def agg_min_grouped(db: DBS3) -> WisconsinQuery:
    """MIN with 100 groups (the benchmark's grouped-aggregate shape)."""
    return WisconsinQuery(
        name="agg_min_grouped",
        sql="SELECT onePercent, MIN(unique1) FROM A GROUP BY onePercent",
        expected_cardinality=100,
        db=db,
    )


def standard_suite(db: DBS3 | None = None) -> list[WisconsinQuery]:
    """The full adapted suite over one shared database."""
    if db is None:
        db = make_database()
    return [sel_1pct(db), sel_10pct(db), join_a_bprime(db),
            join_a_sel_bprime(db), agg_min_grouped(db)]
