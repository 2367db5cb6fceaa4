"""The figures table's registry and the demo driver (structure-level)."""

import re

import pytest

from repro.bench.figures import FIGURES


class TestExperimentRegistry:
    def test_every_figure_registered(self):
        """Every figure of the evaluation, then the extension sweeps
        and the ablations, is a row."""
        names = [row.name for row in FIGURES]
        assert names[:13] == [
            "fig08_09", "fig08_small_threads", "fig12", "fig13", "fig14",
            "fig15", "fig16", "fig17", "fig18", "fig19",
            "fig_concurrent", "fig_sharing", "fig_serving"]
        assert names[13:15] == ["taxonomy", "multiuser"]
        assert len([name for name in names
                    if name.startswith("ablation_")]) == 7


class TestDemoDriver:
    def test_demo_runs(self, capsys):
        from repro import __main__ as main_module
        code = main_module.main([])
        assert code == 0
        output = capsys.readouterr().out
        assert "SQL>" in output
        assert "IdealJoin" in output

    @pytest.mark.parametrize("argv, line", [
        ("run --concurrent 4", "reason=regrant"),
        ("run --concurrent 8 --shared",
         "peak 0 threads, 1 shared op.*folding gains .*x on top of"),
        ("run --concurrent 4 --shared --report", "workload report"),
        ("run --concurrent 4 --monitors", "latency_slo"),
        ("run --concurrent 4 --profile", "attributed"),
        ("run --concurrent 4 --policy adaptive", "schedule explanation:"),
        ("serve --count 60", "decision digest: "),
        ("diagnose --strategy lpt", "bottleneck operator: transmit"),
    ])
    def test_demo_invocations_print_their_block(self, argv, line, capsys):
        """The invocations the docs name (and CI's demo steps used to
        run): exit 0 and, by pattern, the block each one exists to show.
        What the numbers must be is the gate tables' business."""
        from repro import __main__ as main_module
        assert main_module.main(argv.split()) == 0
        assert re.search(line, capsys.readouterr().out, re.DOTALL)

    def test_figures_flag_dispatches(self, monkeypatch):
        """``python -m repro figures`` hands the table and the committed
        pins to the twin machinery's driver, read-only."""
        from repro import __main__ as main_module
        from repro.bench import twins
        called = {}

        def fake_drive(table, pins, record=False):
            called.update(table=table, pins=pins, record=record)
            return 0

        monkeypatch.setattr(twins, "drive", fake_drive)
        assert main_module.main(["figures"]) == 0
        assert called["table"] is FIGURES
        assert set(called["pins"]) >= {row.name for row in FIGURES}
        assert called["record"] is False
