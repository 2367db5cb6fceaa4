"""Run registry: persistence, comparison, and the regression gate."""

import json

import pytest

from repro.diag import RunRecord, RunRegistry, compare, diagnose
from repro.diag.registry import (
    DEFAULT_TOLERANCE,
    RECORD_SCHEMA,
    RUNS_DIR_ENV,
    sanitize_run_id,
)
from repro.errors import ReproError


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(root=tmp_path / "runs")


class TestPersistence:
    def test_record_load_round_trip(self, registry, observed):
        path = registry.record(observed, "baseline", label="first")
        assert path.exists()
        loaded = registry.load("baseline")
        fresh = RunRecord.of(observed, "baseline", label="first",
                             created_at=loaded.created_at)
        assert loaded.to_json() == fresh.to_json()

    def test_record_is_valid_json_with_schema(self, registry, observed):
        path = registry.record(observed, "baseline")
        document = json.loads(path.read_text())
        assert document["schema"] == RECORD_SCHEMA
        assert document["critical_path"]["bottleneck"] == \
            registry.load("baseline").bottleneck

    def test_run_ids_sorted(self, registry, observed):
        for run_id in ("zeta", "alpha", "mid"):
            registry.record(observed, run_id)
        assert registry.run_ids() == ["alpha", "mid", "zeta"]

    def test_missing_run_lists_available(self, registry, observed):
        registry.record(observed, "only-one")
        with pytest.raises(ReproError, match="only-one"):
            registry.load("nope")

    def test_env_override_controls_root(self, tmp_path, monkeypatch,
                                        observed):
        monkeypatch.setenv(RUNS_DIR_ENV, str(tmp_path / "elsewhere"))
        registry = RunRegistry()
        registry.record(observed, "env-run")
        assert (tmp_path / "elsewhere" / "env-run.json").exists()

    def test_newer_record_schema_rejected(self):
        with pytest.raises(ReproError, match="newer"):
            RunRecord.from_json({"schema": RECORD_SCHEMA + 1})

    def test_sanitize_run_id(self):
        assert sanitize_run_id("a b/c:d") == "a_b_c_d"
        assert sanitize_run_id("ok-1.2_x") == "ok-1.2_x"
        with pytest.raises(ReproError):
            sanitize_run_id("   ")


class TestComparison:
    def test_identical_runs_compare_clean(self, registry, join_db,
                                          execute_assoc_join):
        registry.record(execute_assoc_join(join_db, 8, 8), "a")
        registry.record(execute_assoc_join(join_db, 8, 8), "b")
        comparison = compare(registry.load("a"), registry.load("b"))
        assert comparison.clean
        assert comparison.elapsed_delta == 0.0
        assert "within tolerance" in comparison.verdict

    def test_injected_slowdown_flags_regression_and_shift(
            self, registry, join_db, execute_assoc_join):
        # Choking the transmit pool 8 -> 1 slows the query ~50% and
        # moves the limiter from the join to the scan; the comparison
        # must report both.
        registry.record(execute_assoc_join(join_db, 8, 8), "balanced")
        registry.record(execute_assoc_join(join_db, 1, 8), "choked")
        comparison = compare(registry.load("balanced"),
                             registry.load("choked"))
        assert comparison.regressed
        assert comparison.elapsed_delta > DEFAULT_TOLERANCE
        assert comparison.bottleneck_shifted
        assert comparison.a.bottleneck == "join"
        assert comparison.b.bottleneck == "transmit"
        assert not comparison.clean
        assert "REGRESSION" in comparison.verdict
        assert "shifted" in comparison.verdict

    def test_improvement_direction(self, registry, join_db,
                                   execute_assoc_join):
        registry.record(execute_assoc_join(join_db, 1, 8), "slow")
        registry.record(execute_assoc_join(join_db, 8, 8), "fast")
        comparison = compare(registry.load("slow"), registry.load("fast"))
        assert comparison.improved
        assert not comparison.regressed

    def test_tolerance_widens_the_gate(self, registry, join_db,
                                       execute_assoc_join):
        registry.record(execute_assoc_join(join_db, 8, 8), "balanced")
        registry.record(execute_assoc_join(join_db, 1, 8), "choked")
        lax = compare(registry.load("balanced"), registry.load("choked"),
                      tolerance=10.0)
        assert not lax.regressed

    def test_op_deltas_cover_both_sides(self, registry, join_db,
                                        execute_assoc_join):
        registry.record(execute_assoc_join(join_db, 8, 8), "a")
        registry.record(execute_assoc_join(join_db, 1, 8), "b")
        comparison = compare(registry.load("a"), registry.load("b"))
        names = {delta.operation for delta in comparison.op_deltas}
        assert names == {"transmit", "join"}
        document = comparison.to_json()
        assert document["regressed"] is True
        assert document["bottleneck_shifted"] is True
        assert "  ** shifted **" in comparison.render()


def test_diagnose_front_door_matches_parts(observed):
    diagnosis = diagnose(observed)
    assert diagnosis.bottleneck == diagnosis.critical_path.bottleneck
    text = diagnosis.render()
    assert "diagnosis (live run):" in text
    assert "critical path:" in text
    assert "imbalance doctor" in text
