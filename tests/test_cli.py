"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, TABLES, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "3.3" in out and "5.5" in out and "3.14" in out

    @pytest.mark.parametrize("tid", sorted(TABLES))
    def test_every_table_renders(self, tid, capsys):
        assert main(["table", tid]) == 0
        out = capsys.readouterr().out
        assert f"Table {tid}" in out
        assert len(out.splitlines()) > 3

    @pytest.mark.parametrize("fid", ["3.13", "3.14", "3.15", "4.1", "5.5"])
    def test_figures_render(self, fid, capsys):
        assert main(["figure", fid]) == 0
        out = capsys.readouterr().out
        assert f"Fig {fid}" in out

    def test_table_5_5_values(self, capsys):
        main(["table", "5.5"])
        out = capsys.readouterr().out
        assert "9" in out and "27" in out and "63" in out

    def test_unknown_table_id_exits_nonzero_with_valid_ids(self, capsys):
        assert main(["table", "9.9"]) == 2
        err = capsys.readouterr().err
        assert "unknown table id '9.9'" in err
        for tid in sorted(TABLES):
            assert tid in err

    def test_unknown_figure_id_exits_nonzero_with_valid_ids(self, capsys):
        assert main(["figure", "9.9"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure id '9.9'" in err
        for fid in sorted(FIGURES):
            assert fid in err

    def test_unknown_ids_never_traceback(self, capsys):
        # The audit contract: bad IDs are reported, not raised.
        for cmd in ("table", "figure"):
            assert main([cmd, "nope"]) == 2

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_list_includes_benchmarks(self, capsys):
        assert main(["list"]) == 0
        assert "benchmarks:" in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "quick" in out and "cfm" in out

    def test_unknown_bench_exits_nonzero_with_valid_names(self, capsys):
        assert main(["bench", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown bench id 'nope'" in err
        assert "quick" in err

    def test_bench_quick_writes_well_formed_json(self, tmp_path, capsys):
        import json

        assert main(["bench", "--quick", "--out", str(tmp_path)]) == 0
        path = tmp_path / "BENCH_quick.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["bench"] == "quick"
        assert doc["schema"] == "repro-bench/1"
        systems = {r["system"] for r in doc["runs"]}
        assert {"cfm", "interleaved"} <= systems
        for run in doc["runs"]:
            assert run["throughput"] > 0
            assert run["latency"]["p50"] is not None
            assert run["latency"]["p99"] >= run["latency"]["p50"]
            assert "retries" in run and "conflicts" in run
            if run["params"].get("engine"):
                # Engine-driven runs are unobserved by design (observers
                # would break the vectorized/stacked proof): the key is
                # present but carries no per-resource samples.
                assert run["utilization"] == {}
            else:
                assert run["utilization"], "per-resource utilization missing"
        cfm = next(r for r in doc["runs"] if r["system"] == "cfm")
        banks = [k for k in cfm["utilization"] if k.startswith("cfm.bank[")]
        assert len(banks) == cfm["params"]["n_banks"]
        assert cfm["conflicts"] == 0

    def test_parallel_bench_writes_the_serial_document(self, tmp_path):
        import json

        pooled, serial = tmp_path / "A", tmp_path / "B"
        assert main(["bench", "quick", "--quick", "--parallel", "2",
                     "--out", str(pooled)]) == 0
        assert main(["bench", "quick", "--quick",
                     "--out", str(serial)]) == 0
        doc = json.loads((pooled / "BENCH_quick.json").read_text())
        assert "timing" not in doc
        assert doc == json.loads((serial / "BENCH_quick.json").read_text())

    def test_failed_spec_is_reported_serial_and_pooled(
            self, tmp_path, monkeypatch, capsys):
        """A spec that raises costs only its own run at any ``--parallel``:
        the surviving runs are written, the spec is named on stderr, and
        the command exits 1."""
        import json

        from repro.obs import bench

        bad = {"system": "no_such_system", "params": {}}
        quick = bench.BENCH_SPECS["quick"]
        monkeypatch.setitem(bench.BENCH_SPECS, "quick",
                            lambda q: quick(q)[:2] + [dict(bad)])
        docs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(["bench", "quick", "--quick", "--parallel", jobs,
                         "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert "error: bench spec failed: no_such_system" in err
            docs.append(json.loads((out / "BENCH_quick.json").read_text()))
        for doc in docs:
            assert [f["spec"] for f in doc["failures"]] == [bad]
        assert len(docs[0]["runs"]) == 2
        assert docs[0]["runs"] == docs[1]["runs"]


class TestVerify:
    def test_verify_reports_full_reproduction(self, capsys):
        from repro.cli import verify

        assert verify() == 0
        out = capsys.readouterr().out
        assert "9/9 deterministic artifacts match the paper" in out
        assert "FAIL" not in out

    def test_verify_via_main(self, capsys):
        assert main(["verify"]) == 0
