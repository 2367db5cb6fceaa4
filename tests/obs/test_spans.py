"""Span assembly and self-audit on hand-built workload event streams."""

import pytest

from repro.errors import ReproError
from repro.obs.bus import (
    QUERY_ADMIT,
    QUERY_CANCEL,
    QUERY_FINISH,
    QUERY_GRANT,
    QUERY_SUBMIT,
    EventBus,
)
from repro.obs.spans import (
    SPAN_CANCELLED,
    SPAN_DONE,
    SPAN_TIMED_OUT,
    assemble_spans,
    verify_spans,
)


def _older_writer_bus() -> EventBus:
    """q0 runs to completion; q1 is withdrawn from the queue.  Logged as
    an older writer did: ``query.submit`` still carries a ``footprint``
    key, which assembly ignores."""
    bus = EventBus()
    bus.emit(QUERY_SUBMIT, 0.0, "q0", demand=4, footprint=100)
    bus.emit(QUERY_SUBMIT, 0.01, "q1", demand=2, footprint=50)
    bus.emit(QUERY_ADMIT, 0.0, "q0")
    bus.emit(QUERY_GRANT, 0.0, "q0", threads=4, reason="admission")
    bus.emit(QUERY_CANCEL, 0.02, "q1", reason="cancel", admitted=False)
    bus.emit(QUERY_FINISH, 0.5, "q0", response_time=0.5, threads=4)
    return bus


class TestAssembleSpans:
    def test_full_lifecycle(self):
        spans = assemble_spans(_older_writer_bus())
        assert len(spans) == 2
        q0 = spans.of("q0")
        assert q0.status == SPAN_DONE
        assert q0.demand == 4
        assert q0.admitted_at == 0.0
        assert q0.latency == 0.5
        assert "footprint" not in q0.to_json()
        assert [g.threads for g in q0.grants] == [4]
        assert q0.terminal_events == 1

    def test_queue_withdrawal_is_terminal(self):
        spans = assemble_spans(_older_writer_bus())
        q1 = spans.of("q1")
        assert q1.status == SPAN_CANCELLED
        assert q1.admitted_at is None
        assert q1.finished_at == 0.02
        assert q1.terminal_events == 1

    def test_timeout_withdrawal_status(self):
        bus = EventBus()
        bus.emit(QUERY_SUBMIT, 0.0, "q0")
        bus.emit(QUERY_CANCEL, 0.1, "q0", reason="timeout", admitted=False)
        span = assemble_spans(bus).of("q0")
        assert span.status == SPAN_TIMED_OUT

    def test_non_query_events_ignored(self):
        bus = _older_writer_bus()
        bus.emit("fault.memory", 0.05, None, factor=0.5)
        bus.emit("thread.finish", 0.3, "join", thread_id=2)
        spans = assemble_spans(bus)
        assert len(spans) == 2

    def test_fold_links_mirrored(self):
        bus = EventBus()
        bus.emit(QUERY_SUBMIT, 0.0, "host")
        bus.emit(QUERY_ADMIT, 0.0, "host")
        bus.emit(QUERY_SUBMIT, 0.0, "sub")
        bus.emit(QUERY_ADMIT, 0.0, "sub", folds={"join": "host"})
        bus.emit(QUERY_FINISH, 0.4, "host", status=SPAN_DONE)
        bus.emit(QUERY_FINISH, 0.4, "sub", status=SPAN_DONE)
        spans = assemble_spans(bus)
        assert spans.of("sub").folds == {"join": "host"}
        assert spans.of("host").subscribers == ["sub"]
        assert not spans.of("host").folds

    def test_duplicate_submit_rejected(self):
        bus = EventBus()
        bus.emit(QUERY_SUBMIT, 0.0, "q0")
        bus.emit(QUERY_SUBMIT, 0.1, "q0")
        with pytest.raises(ReproError):
            assemble_spans(bus)

    def test_event_before_submit_rejected(self):
        bus = EventBus()
        bus.emit(QUERY_ADMIT, 0.0, "q0")
        with pytest.raises(ReproError):
            assemble_spans(bus)

    def test_latencies_and_status_counts(self):
        spans = assemble_spans(_older_writer_bus())
        assert spans.latencies() == [0.5, 0.01]
        assert spans.latencies(status=SPAN_DONE) == [0.5]
        assert spans.status_counts() == {"done": 1, "cancelled": 1}

    def test_unknown_tag_rejected(self):
        spans = assemble_spans(_older_writer_bus())
        with pytest.raises(ReproError):
            spans.of("q9")


class TestVerifySpans:
    def test_clean_stream_passes(self):
        spans = assemble_spans(_older_writer_bus())
        assert verify_spans(spans, makespan=0.5) == []

    def test_missing_terminal_flagged(self):
        bus = EventBus()
        bus.emit(QUERY_SUBMIT, 0.0, "q0")
        bus.emit(QUERY_ADMIT, 0.0, "q0")
        problems = verify_spans(assemble_spans(bus))
        assert any("terminal" in p for p in problems)

    def test_double_finish_flagged(self):
        bus = _older_writer_bus()
        bus.emit(QUERY_FINISH, 0.6, "q0", status=SPAN_DONE)
        problems = verify_spans(assemble_spans(bus))
        assert any("2 terminal events" in p for p in problems)

    def test_finish_past_makespan_flagged(self):
        spans = assemble_spans(_older_writer_bus())
        problems = verify_spans(spans, makespan=0.4)
        assert any("past the makespan" in p for p in problems)

    def test_fold_onto_unknown_host_flagged(self):
        bus = EventBus()
        bus.emit(QUERY_SUBMIT, 0.0, "sub")
        bus.emit(QUERY_ADMIT, 0.0, "sub", folds={"join": "ghost"})
        bus.emit(QUERY_FINISH, 0.4, "sub", status=SPAN_DONE)
        problems = verify_spans(assemble_spans(bus))
        assert any("unknown query" in p for p in problems)

    def test_status_mismatch_against_executions_flagged(self):
        class FakeExecution:
            status = SPAN_CANCELLED
            response_time = 0.5

        spans = assemble_spans(_older_writer_bus())
        problems = verify_spans(spans, {"q0": FakeExecution(),
                                        "q1": FakeExecution()})
        assert any("span status" in p for p in problems)
