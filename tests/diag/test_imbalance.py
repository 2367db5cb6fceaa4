"""The imbalance doctor: skew detection, ranking, hints."""

import pytest

from repro.bench.figures import SKEW_THREADS
from repro.bench.runners import run_assoc_join
from repro.bench.workloads import make_join_database
from repro.diag import (
    REDISTRIBUTION_SKEW,
    STEAL_PRESSURE,
    ObservedRun,
    diagnose_imbalance,
    render_findings,
)


@pytest.fixture(scope="module")
def fig12_skewed():
    """The Figure 12 setup (scaled down 25x for test speed): AssocJoin,
    Zipf-skewed stored operand, uniform stream, Random consumption."""
    database = make_join_database(4000, 400, degree=40, theta=1.0)
    return run_assoc_join(database, SKEW_THREADS, strategy="random",
                          observe=True)


@pytest.fixture(scope="module")
def fig12_uniform():
    database = make_join_database(4000, 400, degree=40, theta=0.0)
    return run_assoc_join(database, SKEW_THREADS, strategy="random",
                          observe=True)


class TestSkewDetection:
    def test_skewed_join_is_top_finding(self, fig12_skewed):
        findings = diagnose_imbalance(fig12_skewed)
        assert findings, "skewed workload produced no findings"
        top = findings[0]
        assert top.operation == "join"
        assert top.kind == REDISTRIBUTION_SKEW
        assert top.score > 1.5

    def test_uniform_control_has_no_skew_finding(self, fig12_uniform):
        findings = diagnose_imbalance(fig12_uniform)
        assert all(f.kind != REDISTRIBUTION_SKEW for f in findings)

    def test_finding_reports_real_ratio(self, fig12_skewed):
        top = diagnose_imbalance(fig12_skewed)[0]
        # The score must be re-derivable from the reconstructed
        # per-instance work distribution.
        work = ObservedRun.of(fig12_skewed).instance_busy_times("join")
        mean = sum(work) / len(work)
        assert top.score == pytest.approx(max(work) / mean)

    def test_severity_ranked_descending(self, fig12_skewed):
        findings = diagnose_imbalance(fig12_skewed)
        severities = [finding.severity for finding in findings]
        assert severities == sorted(severities, reverse=True)


class TestInstanceWorkReconstruction:
    def test_skew_shows_in_work_not_counts(self, fig12_skewed):
        # The Figure 12 signature: the uniform stream spreads
        # activation *counts* evenly, the skewed stored operand
        # concentrates the *work*.
        run = ObservedRun.of(fig12_skewed)
        counts = run.ops["join"].queue_activations
        assert max(counts) <= 2 * (sum(counts) / len(counts))
        work = run.instance_busy_times("join")
        assert max(work) > 2 * (sum(work) / len(work))

    def test_work_accounts_for_all_join_busy_time(self, fig12_skewed):
        run = ObservedRun.of(fig12_skewed)
        reconstructed = sum(run.instance_busy_times("join"))
        activation_busy = sum(
            span.duration for span in run.obs.trace.events
            if span.operation == "join" and span.kind == "activation")
        assert reconstructed == pytest.approx(activation_busy)


class TestPresentation:
    def test_render_lists_findings_worst_first(self, fig12_skewed):
        findings = diagnose_imbalance(fig12_skewed)
        text = render_findings(findings)
        assert "imbalance doctor" in text
        assert text.index("redistribution-skew") < len(text)
        for finding in findings:
            assert finding.hint in text

    def test_clean_run_renders_clean(self):
        assert "balanced" in render_findings([])

    def test_finding_json_shape(self, fig12_skewed):
        document = diagnose_imbalance(fig12_skewed)[0].to_json()
        assert set(document) == {"kind", "operation", "severity", "score",
                                 "message", "hint"}


class TestStealPressure:
    def test_redistribution_skew_comes_with_stealing(self, fig12_skewed):
        # Random consumption over a flooded queue forces secondary
        # accesses; the doctor should surface both sides of the story.
        findings = diagnose_imbalance(fig12_skewed)
        kinds = {finding.kind for finding in findings}
        assert STEAL_PRESSURE in kinds
