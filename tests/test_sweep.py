"""Tests for the parallel application sweep (repro.experiments.sweep)."""

import json
from dataclasses import replace

import pytest

import repro.experiments.sweep as sweep_mod
from repro.experiments.config import default_config
from repro.experiments.sweep import (
    AppSweepRow,
    SweepError,
    render_sweep,
    run_sweep,
    sweep_app,
)
from repro.__main__ import main as cli_main


@pytest.fixture(scope="module")
def small_config():
    # A tiny scale keeps the sweep fast; verification stays on.
    return replace(default_config(), scale=4, input_len=512)


class TestRunSweep:
    def test_serial_rows_in_input_order(self, small_config):
        rows = run_sweep(["Bro217", "LV"], small_config, jobs=1)
        assert [row.abbr for row in rows] == ["Bro217", "LV"]
        for row in rows:
            assert row.n_states > 0
            assert row.baseline_batches >= 1
            assert row.baseline_cycles > 0
            assert 0.0 <= row.hot_fraction <= 1.0
            assert row.spap_speedup > 0
            assert row.seconds >= 0

    def test_parallel_matches_serial(self, small_config):
        serial = run_sweep(["Bro217", "LV"], small_config, jobs=1)
        parallel = run_sweep(["Bro217", "LV"], small_config, jobs=2)
        for a, b in zip(serial, parallel):
            # Wall time (and measured MB/s, when a backend executes)
            # differs between processes; the science must not.
            assert replace(a, seconds=0.0, backend_mb_s=0.0) == \
                replace(b, seconds=0.0, backend_mb_s=0.0)

    def test_backend_execution_populates_row(self, small_config):
        (row,) = run_sweep(["Bro217"], small_config, jobs=1, backend="auto")
        assert row.backend in ("reference", "bitpacked", "dfa", "lazydfa")
        assert row.backend_mb_s > 0.0
        (forced,) = run_sweep(
            ["Bro217"], small_config, jobs=1, backend="bitpacked"
        )
        assert forced.backend == "bitpacked"
        assert forced.advised_backend == row.advised_backend

    def test_explicit_infeasible_backend_fails_the_row(self, small_config):
        # LV bursts the subset budget, so a forced dfa request must fail
        # its row loudly (wrapped per-app by the pool boundary) ...
        with pytest.raises(SweepError, match="LV"):
            run_sweep(["LV"], small_config, jobs=1, backend="dfa")
        # ... unless the operator opted into substitution.
        (row,) = run_sweep(
            ["LV"], small_config, jobs=1, backend="dfa", backend_fallback=True
        )
        assert row.backend == "lazydfa"
        assert row.backend_mb_s > 0.0

    def test_unknown_app_rejected(self, small_config):
        with pytest.raises(KeyError, match="nope"):
            run_sweep(["nope"], small_config)
        with pytest.raises(KeyError):
            sweep_app("nope", small_config)

    def test_pipeline_failure_names_the_app(self, small_config, monkeypatch):
        def boom(abbr, config):
            raise ValueError("kaboom")

        monkeypatch.setattr(sweep_mod, "get_run", boom)
        with pytest.raises(SweepError, match="Bro217: kaboom") as excinfo:
            run_sweep(["Bro217"], small_config, jobs=1)
        assert excinfo.value.abbr == "Bro217"
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_row_serializes(self, small_config):
        (row,) = run_sweep(["Bro217"], small_config, jobs=1)
        payload = json.loads(json.dumps(row.to_json()))
        assert payload["abbr"] == "Bro217"
        assert AppSweepRow(**payload) == row


class TestRenderSweep:
    def test_table_contains_every_app(self, small_config):
        rows = run_sweep(["Bro217", "LV"], small_config, jobs=1)
        table = render_sweep(rows)
        assert "Bro217" in table and "LV" in table
        assert "SpAP" in table


class TestSweepCli:
    def test_cli_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4")
        monkeypatch.setenv("REPRO_INPUT", "512")
        assert cli_main(["sweep", "Bro217", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Bro217" in out
        assert "1 applications" in out

    def test_cli_json(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4")
        monkeypatch.setenv("REPRO_INPUT", "512")
        assert cli_main(["sweep", "Bro217", "--jobs", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["abbr"] == "Bro217"

    def test_cli_unknown_app(self, capsys):
        assert cli_main(["sweep", "nope"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_cli_sweep_failure_exits_cleanly(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise SweepError("CAV4k", ValueError("NFA too large"))

        monkeypatch.setattr(sweep_mod, "run_sweep", boom)
        assert cli_main(["sweep", "Bro217"]) == 1
        err = capsys.readouterr().err
        assert "CAV4k" in err and "NFA too large" in err
