"""Property-based tests: fingerprint soundness for shared-work folds.

The fold pass may only merge two subplans when their canonical
fingerprints (:mod:`repro.lera.fingerprint`) are equal — and that is
*sound* only if equal fingerprints imply identical row multisets.
These tests fuzz workloads drawn from the Wisconsin query suite
(:mod:`repro.bench.wisconsin_queries` shapes, plus constant-varied
cousins that must NOT fold into them) and check the end-to-end
contract: a shared (folding) run returns, query for query, exactly
the rows of a private run — whatever the fold pass decided.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.wisconsin_queries import make_database
from repro.workload.options import WorkloadOptions

#: The fuzz vocabulary: the suite's canonical shapes plus variants
#: that differ only in a predicate constant — semantically different
#: queries whose plans are structurally identical, the exact trap an
#: unsound fingerprint would fall into.
TEMPLATES = (
    "SELECT * FROM A WHERE onePercent = 7",
    "SELECT * FROM A WHERE onePercent = 8",
    "SELECT * FROM A WHERE tenPercent = 3",
    "SELECT * FROM A JOIN Bprime ON A.unique1 = Bprime.unique1",
    ("SELECT * FROM A JOIN Bprime ON A.unique1 = Bprime.unique1 "
     "WHERE Bprime.tenPercent = 3"),
    "SELECT onePercent, MIN(unique1) FROM A GROUP BY onePercent",
)


@pytest.fixture(scope="module")
def db():
    return make_database(cardinality=2_000, degree=10)


def _run(db, sqls, shared):
    session = db.session(options=WorkloadOptions(
        max_concurrent=len(sqls), shared=shared))
    for sql in sqls:
        session.submit(sql)
    return session.run()


def _row_sets(result):
    return {tag: sorted(result.execution(tag).result_rows)
            for tag in result.order}


def _folded_ops(result):
    return [(tag, name)
            for tag in result.order
            for name, op in result.execution(tag).operations.items()
            if op.cost_share < 1.0]


class TestFingerprintSoundness:
    @given(picks=st.lists(st.integers(min_value=0,
                                      max_value=len(TEMPLATES) - 1),
                          min_size=2, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_folding_never_changes_any_result(self, db, picks):
        """Whatever the fold pass merges, every query of a shared run
        returns exactly the rows of the private run — the executable
        form of "equal fingerprints imply equal row multisets"."""
        sqls = [TEMPLATES[i] for i in picks]
        private = _run(db, sqls, shared=False)
        shared = _run(db, sqls, shared=True)
        for tag in private.order:
            assert shared.status_of(tag) == private.status_of(tag)
        assert _row_sets(shared) == _row_sets(private)
        if len(set(picks)) < len(picks):
            # Duplicate templates over one catalog compile to subplans
            # with equal fingerprints; admitted in one batch they must
            # actually fold (liveness — sharing that never shares
            # would pass the safety check vacuously).
            assert _folded_ops(shared), \
                f"no fold in a workload with duplicates: {sqls}"

    def test_constant_varied_predicates_never_fold(self, db):
        """``onePercent = 7`` vs ``= 8``: structurally identical scans
        over the same fragments whose row sets differ — the predicate
        component of the fingerprint must keep them apart."""
        sqls = [TEMPLATES[0], TEMPLATES[1]]
        shared = _run(db, sqls, shared=True)
        assert not _folded_ops(shared)
        private = _run(db, sqls, shared=False)
        assert _row_sets(shared) == _row_sets(private)
        rows = _row_sets(shared)
        assert rows["q0"] != rows["q1"]

    def test_join_and_filtered_join_never_fold_terminals(self, db):
        """joinABprime vs joinAselBprime: the restricted join must not
        ride the unrestricted one's result, whatever their shared
        upstream looks like."""
        sqls = [TEMPLATES[3], TEMPLATES[4]]
        shared = _run(db, sqls, shared=True)
        private = _run(db, sqls, shared=False)
        assert _row_sets(shared) == _row_sets(private)
        rows = _row_sets(shared)
        assert len(rows["q0"]) != len(rows["q1"])
