"""The figures table's registry and the demo driver (structure-level)."""

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
