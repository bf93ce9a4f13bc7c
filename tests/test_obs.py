"""Tests for the observability layer: metrics registry, probes, artifacts."""

import json

import pytest

from repro.obs import (
    CountingProbe,
    JsonlProbe,
    MetricsRegistry,
    MultiProbe,
    RecordingProbe,
    drain_artifacts,
    load_probe_events,
)
from repro.serve import RequestError, validate_request
from repro.serve import service as service_module
from repro.serve.service import OVERFLOW_TENANT
from repro.sim.stats import Histogram, RunningStats, TallyCounter, Utilization
from tests.serving import serve_serially, tenant_labels


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        c1 = reg.counter("cfm.accesses")
        c1.incr("completed")
        c2 = reg.counter("cfm.accesses")
        assert c1 is c2
        assert c2["completed"] == 1

    def test_all_primitive_kinds_supported(self):
        reg = MetricsRegistry()
        assert isinstance(reg.counter("a.b"), TallyCounter)
        assert isinstance(reg.stats("a.c"), RunningStats)
        assert isinstance(reg.histogram("a.d"), Histogram)
        assert isinstance(reg.utilization("a.e"), Utilization)
        assert len(reg) == 4

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.histogram("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_hierarchical_names_with_indices(self):
        reg = MetricsRegistry()
        for k in range(4):
            reg.utilization(f"cfm.bank[{k}].util").tick(k % 2 == 0)
        names = reg.names()
        assert names == sorted(names)
        assert "cfm.bank[3].util" in reg

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("n.c").incr("hits", 3)
        reg.stats("n.s").extend([1.0, 2.0, 3.0])
        reg.histogram("n.h").add(5, 10)
        reg.utilization("n.u").tick(True)
        snap = json.loads(reg.to_json())
        assert snap["n.c"] == {"type": "counter", "counts": {"hits": 3},
                               "total": 3}
        assert snap["n.s"]["mean"] == pytest.approx(2.0)
        assert snap["n.h"]["p50"] == 5 and snap["n.h"]["p99"] == 5
        assert snap["n.u"] == {"type": "utilization", "busy": 1, "total": 1,
                               "fraction": 1.0}

    def test_snapshot_of_empty_instruments_does_not_raise(self):
        reg = MetricsRegistry()
        reg.stats("empty.s")
        reg.histogram("empty.h")
        snap = reg.snapshot()
        assert snap["empty.s"] == {"type": "stats", "n": 0}
        assert snap["empty.h"] == {"type": "histogram", "n": 0}

    def test_fractions_filters_by_prefix(self):
        reg = MetricsRegistry()
        reg.utilization("cfm.bank[0].util").tick(True)
        reg.utilization("cfm.bank[1].util").tick(False)
        reg.utilization("net.xbar.out[0].util").tick(True)
        reg.counter("cfm.bank.count")  # not a Utilization: excluded
        fr = reg.fractions("cfm.bank")
        assert fr == {"cfm.bank[0].util": 1.0, "cfm.bank[1].util": 0.0}


class TestTenantMetrics:
    """Per-tenant ``tenant[<label>].*`` instruments of the service's one
    registry, bounded to ``MAX_TENANTS`` label sets (network input)."""

    def test_named_tenants_get_their_own_registry(self):
        snap = serve_serially([{"tenant": "alice"}, {"tenant": "bob"},
                               {"tenant": "alice"}])
        assert tenant_labels(snap) == {"alice", "bob"}
        service = snap["service"]
        assert service["tenant[alice].requests"]["counts"] == {
            "total": 2, "ok": 2}
        assert service["tenant[alice].cache"]["counts"] == {"miss": 2}
        assert service["tenant[bob].latency_ms"]["n"] == 1

    def test_family_never_exceeds_max_tenants(self, monkeypatch):
        # The overflow set is reserved INSIDE the bound.  With MAX_TENANTS
        # distinct labels there are exactly MAX_TENANTS label sets:
        # MAX_TENANTS - 1 named ones plus the overflow set — never
        # MAX_TENANTS + 1 (the regression: the bound admitted MAX_TENANTS
        # named tenants and then created "<overflow>" on top of them).
        monkeypatch.setattr(service_module, "MAX_TENANTS", 5)
        snap = serve_serially([{"tenant": f"t{i}"} for i in range(5)]
                              + [{"tenant": f"late{i}"} for i in range(10)])
        assert tenant_labels(snap) == {"t0", "t1", "t2", "t3",
                                       OVERFLOW_TENANT}
        # The last arrival and every later stranger share the overflow.
        overflow = snap["service"][f"tenant[{OVERFLOW_TENANT}].requests"]
        assert overflow["counts"]["total"] == 11

    def test_admitted_tenants_survive_overflow(self, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_TENANTS", 3)
        snap = serve_serially([{"tenant": t} for t in "abcab"])
        assert tenant_labels(snap) == {"a", "b", OVERFLOW_TENANT}
        totals = {t: snap["service"][f"tenant[{t}].requests"]["counts"][
            "total"] for t in ("a", "b", OVERFLOW_TENANT)}
        assert totals == {"a": 2, "b": 2, OVERFLOW_TENANT: 1}

    def test_max_tenants_one_sends_everyone_to_overflow(self, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_TENANTS", 1)
        snap = serve_serially([{"tenant": "only"}, {"tenant": "other"}])
        assert tenant_labels(snap) == {OVERFLOW_TENANT}
        assert snap["service"][f"tenant[{OVERFLOW_TENANT}].requests"][
            "counts"]["total"] == 2

    def test_snapshot_nests_by_tenant(self):
        # One snapshot schema: a tenant's instruments sit in the service
        # snapshot under their labelled names; /metrics has no other
        # tenant section.
        snap = serve_serially([{"tenant": "a"}])
        assert "tenants" not in snap
        assert snap["service"]["tenant[a].requests"] == {
            "type": "counter", "counts": {"total": 1, "ok": 1}, "total": 2}

    def test_validation(self):
        with pytest.raises(RequestError, match="tenant"):
            validate_request({"id": "x", "system": "cfm", "tenant": ""})
        with pytest.raises(RequestError, match="tenant"):
            validate_request({"id": "x", "system": "cfm", "tenant": "t" * 65})


class TestProbes:
    def test_recording_probe_select(self):
        p = RecordingProbe()
        p.emit("cfm", "issue", 0, proc=1)
        p.emit("cfm", "complete", 17, proc=1, latency=17)
        p.emit("mem", "conflict", 3, proc=0)
        assert len(p) == 3
        assert [ev.t for ev in p.select("cfm")] == [0, 17]
        assert p.select(event="conflict")[0].fields["proc"] == 0
        p.clear()
        assert len(p) == 0

    def test_counting_probe(self):
        p = CountingProbe()
        for t in range(5):
            p.emit("x", "y", t)
        assert p.count == 5

    def test_multi_probe_fans_out(self):
        a, b = RecordingProbe(), CountingProbe()
        m = MultiProbe([a, b])
        m.emit("s", "e", 1, k=2)
        assert len(a) == 1 and b.count == 1
        assert a.events[0].fields == {"k": 2}

    def test_jsonl_probe_roundtrip(self, tmp_path):
        path = tmp_path / "run.probe.jsonl"
        with JsonlProbe.open(path, description="unit test") as p:
            p.emit("cfm", "issue", 0, proc=2, kind="read")
            p.emit("cfm", "complete", 17, proc=2, latency=17)
        events = load_probe_events(path)
        assert [(e.source, e.event, e.t) for e in events] == [
            ("cfm", "issue", 0), ("cfm", "complete", 17),
        ]
        assert events[1].fields == {"proc": 2, "latency": 17}

    def test_jsonl_header_validated(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a probe trace"):
            load_probe_events(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty probe trace"):
            load_probe_events(empty)


class TestArtifactCapture:
    def test_emit_table_is_recorded_structurally(self, capsys):
        from repro.report import emit_table

        drain_artifacts()
        emit_table("T", ["a", "b"], [(1, 2), (3, 4)])
        capsys.readouterr()
        records = drain_artifacts()
        assert records == [{
            "kind": "table", "title": "T", "headers": ["a", "b"],
            "rows": [["1", "2"], ["3", "4"]],
        }]

    def test_emit_series_records_full_resolution(self, capsys):
        from repro.report import emit_series

        drain_artifacts()
        xs = [i / 100 for i in range(50)]
        emit_series("S", "rate", xs, {"eff": [1.0] * 50})
        capsys.readouterr()
        (rec,) = drain_artifacts()
        assert rec["kind"] == "series"
        assert len(rec["x"]) == 50  # not decimated like the printout
        assert rec["series"]["eff"] == [1.0] * 50

    def test_env_sink_appends_jsonl(self, tmp_path, monkeypatch, capsys):
        from repro.report import emit_table

        sink = tmp_path / "artifacts.jsonl"
        monkeypatch.setenv("REPRO_BENCH_JSONL", str(sink))
        drain_artifacts()
        emit_table("T1", ["x"], [(1,)])
        emit_table("T2", ["x"], [(2,)])
        capsys.readouterr()
        drain_artifacts()
        lines = [json.loads(l) for l in sink.read_text().splitlines()]
        assert [r["title"] for r in lines] == ["T1", "T2"]
