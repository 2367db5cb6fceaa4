"""A fragment owns its indexes; executions borrow them.

``Fragment.index_on(position, kind)`` builds through
``storage.indexes.build_index`` once and keeps the result until the
fragment's rows change.  What must hold: one build per ``(fragment,
position, kind)`` however many executions probe it; a warm execution
is indistinguishable from a cold one in rows, virtual time and every
counter (the *charge* for a build recurs, the build does not);
``append`` / ``clear`` invalidate; ``Catalog.drop`` releases.
"""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DBS3, ExecutionOptions, WorkloadOptions
from repro.bench.workloads import JOIN_SCHEMA, make_join_database
from repro.engine.executor import Executor
from repro.lera.operators import JOIN_NESTED_LOOP, JOIN_TEMP_INDEX
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.storage import fragment as fragment_module
from repro.storage.catalog import Catalog
from repro.storage.fragment import Fragment
from repro.storage.indexes import (
    HashIndex,
    SortedIndex,
    build_index,
    build_join_index,
)
from repro.storage.partitioning import PartitioningSpec
from repro.storage.relation import Relation

ALGORITHMS = (JOIN_NESTED_LOOP, JOIN_TEMP_INDEX)


@pytest.fixture
def builds(monkeypatch):
    """Every build a fragment makes, as ``(id(rows), position, kind)``."""
    calls = []

    def counting(rows, position, kind="hash"):
        calls.append((id(rows), position, kind))
        return build_index(rows, position, kind)

    monkeypatch.setattr(fragment_module, "build_index", counting)
    return calls


@pytest.fixture
def join_builds(monkeypatch):
    """Every join index a fragment builds, as ``id(outer rows)``."""
    calls = []

    def counting(outer_rows, position, inner_rows, inner):
        calls.append(id(outer_rows))
        return build_join_index(outer_rows, position, inner_rows, inner)

    monkeypatch.setattr(fragment_module, "build_join_index", counting)
    return calls


def _run(plan, threads=8, seed=0):
    machine = Machine.uniform(processors=16)
    schedule = AdaptiveScheduler(machine).schedule(plan, threads)
    return Executor(machine, ExecutionOptions(seed=seed)).execute(plan,
                                                                 schedule)


def _dict_join(rows_a, rows_b) -> Counter:
    by_key = {}
    for row in rows_b:
        by_key.setdefault(row[0], []).append(row)
    return Counter(row + match for row in rows_a
                   for match in by_key.get(row[0], ()))


def _a_first(rows) -> Counter:
    """AssocJoin emits B' + A, IdealJoin A + B'; B' payloads are >= 1e9."""
    return Counter(row if row[1] < row[3] else row[2:] + row[:2]
                   for row in rows)


class TestBuiltOnce:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_build_per_fragment_position_kind(self, join_db, builds,
                                                  algorithm):
        plans = (assoc_join_plan(join_db.entry_a, join_db.entry_b,
                                 "key", "key", algorithm=algorithm),
                 ideal_join_plan(join_db.entry_a, join_db.entry_b,
                                 "key", "key", algorithm=algorithm))
        for plan in plans:
            _run(plan)
        first = list(builds)
        for plan in plans:
            _run(plan)
        assert builds == first, "the second executions built something"
        assert len(set(first)) == len(first), "one structure built twice"
        # AssocJoin probes every stored A fragment; IdealJoin indexes its
        # inner B' (nested loop) or its outer A (temp index).
        kind = "sorted" if algorithm == JOIN_TEMP_INDEX else "hash"
        assert {(position, k) for _, position, k in first} == {(0, kind)}
        indexed = {rows for rows, _, _ in first}
        assert indexed >= {id(f.rows) for f in join_db.entry_a.fragments}

    @pytest.mark.parametrize("grain", (1, 3))
    def test_a_repeated_ideal_join_matches_each_pair_once(self, join_db,
                                                          join_builds, grain):
        """Two runs of one nested-loop IdealJoin plan build ``degree``
        join indexes, not twice that; the warm run is the cold one."""
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b, "key",
                               "key", grain=grain)
        cold, warm = _run(plan), _run(plan)
        assert len(join_builds) == len(set(join_builds)) == join_db.degree
        assert warm.result_rows == cold.result_rows
        assert warm.response_time == cold.response_time
        assert warm.operations == cold.operations

    def test_chunked_activations_index_their_own_slice(self, join_db, builds):
        """``grain > 1``: the repeated build is the modelled price."""
        _run(ideal_join_plan(join_db.entry_a, join_db.entry_b,
                             "key", "key", algorithm=JOIN_TEMP_INDEX, grain=4))
        assert builds == []

    def test_permanent_and_temporary_index_are_one_object(self, join_db,
                                                          builds):
        entry = join_db.entry_a
        entry.create_index("key")
        built = len(builds)
        _run(assoc_join_plan(entry, join_db.entry_b, "key", "key",
                             algorithm=JOIN_NESTED_LOOP))
        assert len(builds) == built
        for fragment, index in zip(entry.fragments, entry.index_on("key")):
            assert fragment.index_on(0) is index


class TestWarmEqualsCold:
    @pytest.mark.parametrize("grain", (1, 3))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_triggered(self, algorithm, grain):
        self._check(lambda db: ideal_join_plan(
            db.entry_a, db.entry_b, "key", "key",
            algorithm=algorithm, grain=grain))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_pipelined(self, algorithm):
        cold = self._check(lambda db: assoc_join_plan(
            db.entry_a, db.entry_b, "key", "key", algorithm=algorithm))
        if algorithm != JOIN_NESTED_LOOP:
            # The build is charged to each instance's first activation of
            # *every* execution: those activations cost more than the rest.
            costs = Counter(cold.operation("join").activation_costs)
            assert len(costs) == 2 and min(costs.values()) == 20

    @staticmethod
    def _check(build):
        database = make_join_database(2000, 200, degree=20, theta=0.0)
        plan = build(database)
        cold, warm = _run(plan), _run(plan)
        # A new plan (new DBFuncs) over fragments indexed by the runs
        # above, and one over fragments nobody has indexed.
        replanned = _run(build(database))
        fresh = _run(build(make_join_database(2000, 200, degree=20,
                                              theta=0.0)))
        for other in (warm, replanned, fresh):
            assert other.result_rows == cold.result_rows
            assert other.response_time == cold.response_time
            # activation_costs, polls, enqueues, dequeue batches, busy...
            assert other.operations == cold.operations
        assert _a_first(cold.result_rows) == _dict_join(
            database.entry_a.relation.rows, database.entry_b.relation.rows)
        return cold


class TestInvalidation:
    @pytest.mark.parametrize("kind", ("hash", "sorted"))
    def test_append_and_clear_drop_the_index(self, kind):
        fragment = Fragment("R", 0, JOIN_SCHEMA, [(1, 10), (2, 20)])
        index = fragment.index_on(0, kind)
        assert fragment.index_on(0, kind) is index
        fragment.extend([(1, 11)])
        appended = fragment.index_on(0, kind)
        assert appended is not index
        assert list(appended.lookup(1)) == [(1, 10), (1, 11)]
        assert list(index.lookup(1)) == [(1, 10)], "a borrowed index moved"
        fragment.clear()
        assert fragment.rows == () and fragment.size_bytes() == 0
        assert list(fragment.index_on(0, kind).lookup(1)) == []

    def test_kinds_and_positions_are_separate(self):
        fragment = Fragment("R", 0, JOIN_SCHEMA, [(1, 10), (2, 10)])
        assert isinstance(fragment.index_on(0), HashIndex)
        assert isinstance(fragment.index_on(0, "sorted"), SortedIndex)
        assert len(fragment.index_on(1).lookup(10)) == 2
        with pytest.raises(ValueError, match="unknown index kind"):
            fragment.index_on(0, "btree")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("append"), st.integers(0, 5), st.integers()),
        st.tuples(st.just("probe"), st.integers(0, 5),
                  st.sampled_from(("hash", "sorted"))),
        st.tuples(st.just("clear"), st.just(0), st.just(0))), max_size=40))
    def test_interleaved_appends_and_probes_agree_with_a_scan(self, steps):
        fragment = Fragment("R", 0, JOIN_SCHEMA)
        for step, key, argument in steps:
            if step == "append":
                fragment.extend([(key, argument)])
            elif step == "clear":
                fragment.clear()
            else:
                scan = [row for row in fragment.rows if row[0] == key]
                assert list(fragment.index_on(0, argument).lookup(key)) == scan


class TestRelease:
    def test_dropping_the_table_frees_its_indexes(self):
        catalog = Catalog()
        relation = Relation("R", JOIN_SCHEMA, [(i, i) for i in range(40)])
        entry = catalog.register(relation, PartitioningSpec.on("key", 4))
        entry.create_index("key")
        refs = [weakref.ref(fragment.index_on(0))
                for fragment in entry.fragments]
        refs.append(weakref.ref(entry.fragments[0].index_on(1, "sorted")))
        assert all(ref() is not None for ref in refs)
        catalog.drop("R")
        del entry
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)


class TestSharing:
    def test_four_concurrent_joins_hold_one_table_set(self, builds):
        """The shape of perf_ledger's ``concurrent_mpl4_observed``."""
        database = make_join_database(4000, 400, degree=40, theta=0.0)
        db = DBS3(machine=Machine.uniform(processors=70),
                  options=ExecutionOptions(seed=0))
        session = db.session(WorkloadOptions())
        handles = []
        for builder in (ideal_join_plan, assoc_join_plan) * 2:
            plan = builder(database.entry_a, database.entry_b, "key", "key")
            handles.append(session.submit_plan(
                plan, JOIN_SCHEMA, schedule=db.scheduler.schedule(plan, 20)))
        result = session.run()
        assert len(result.executions) == 4
        # Both IdealJoins probe B', both AssocJoins probe A: 80 tables
        # for four queries, not 160.
        assert len(builds) == len(set(builds)) == 80
        for entry in (database.entry_a, database.entry_b):
            for fragment in entry.fragments:
                assert fragment.index_on(0) is fragment.index_on(0)
        assert len(builds) == 80
        expected = _dict_join(database.entry_a.relation.rows,
                              database.entry_b.relation.rows)
        for handle in handles:
            assert _a_first(handle.result().rows) == expected
