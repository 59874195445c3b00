"""Tests for the ``python -m repro`` command-line interface."""


from repro.__main__ import EXPERIMENTS, main


class TestList:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4", "table1", "fig14", "variation"):
            assert name in out

    def test_registry_covers_every_paper_artefact(self):
        required = {"fig2", "fig4", "table1", "table2", "fig5", "fig7",
                    "fig8", "fig10", "fig12", "fig14", "area", "toggle"}
        assert required <= set(EXPERIMENTS)


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "area"]) == 0
        out = capsys.readouterr().out
        assert "area overhead" in out
        assert "[area:" in out

    def test_run_fast_analog_experiment(self, capsys):
        assert main(["run", "fig12"]) == 0
        assert "hysteresis" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_mixed_unknown_rejected_before_running(self, capsys):
        assert main(["run", "area", "bogus"]) == 2


class TestExportSpice:
    def test_export_fault_free(self, tmp_path, capsys):
        path = tmp_path / "chain.cir"
        assert main(["export-spice", str(path), "--stages", "3"]) == 0
        deck = path.read_text()
        assert deck.startswith("* instrumented 3-stage CML chain")
        assert "FAULT" not in deck

    def test_export_with_pipe(self, tmp_path):
        path = tmp_path / "faulty.cir"
        assert main(["export-spice", str(path), "--stages", "8",
                     "--pipe", "4e3"]) == 0
        assert "R_FAULT_PIPE_DUT_Q3" in path.read_text()


class TestCampaign:
    ARGS = ["campaign", "--stages", "2", "--kinds", "pipe", "--limit", "4"]

    @staticmethod
    def _table(text):
        return [line for line in text.splitlines() if "|" in line]

    def test_tiny_deadline_quarantines_every_defect(self, capsys):
        assert main(self.ARGS + ["--deadline", "1e-9"]) == 0
        out = capsys.readouterr().out
        assert "4 quarantined" in out
        reasons = [line for line in out.splitlines()
                   if line.startswith("  quarantined ")]
        assert len(reasons) == 4
        assert all("budget" in line for line in reasons)

    def test_parallel_run_prints_the_serial_table(self, capsys):
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--parallel", "--workers", "2",
                                 "--chunk-timeout", "60"]) == 0
        parallel = capsys.readouterr().out
        assert self._table(serial)
        assert self._table(parallel) == self._table(serial)
        assert "quarantined" not in parallel

    def test_negative_limit_exits_2(self, capsys):
        assert main(self.ARGS[:-1] + ["-1"]) == 2
        assert "limit" in capsys.readouterr().err

    def test_serial_chunk_timeout_exits_2(self, capsys):
        assert main(self.ARGS + ["--chunk-timeout", "5"]) == 2
        assert "parallel" in capsys.readouterr().err
