"""Schema round-trip and validation tests for TelemetryReport v1/v2."""

import json

import pytest

from repro.telemetry import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    InMemoryRecorder,
    StepClock,
    TelemetryError,
    TelemetryReport,
    check_report,
    run_metadata,
    validate_report,
)
from repro.util.errors import ReproError


def sample_recorder() -> InMemoryRecorder:
    rec = InMemoryRecorder(clock=StepClock(step=0.25))
    rec.counter("engine.ticks").add(128)
    rec.counter("engine.passes").add(4)
    rec.timer("kernel.bitplane.tick_seconds").record(0.001)
    rec.timer("kernel.bitplane.tick_seconds").record(0.002)
    with rec.span("engine.run"):
        with rec.span("engine.pass", tick=0, generation=0):
            pass
    rec.event("supervisor.spawn", worker=0)
    return rec


def sample_payload() -> dict:
    return TelemetryReport.from_recorder(
        sample_recorder(), meta={"command": "simulate"}
    ).to_dict()


class TestRoundTrip:
    def test_to_dict_carries_schema_identity(self):
        payload = sample_payload()
        assert payload["schema"] == SCHEMA_NAME
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_valid_by_construction(self):
        assert validate_report(sample_payload()) == []

    def test_write_json_load_round_trips(self, tmp_path):
        report = TelemetryReport.from_recorder(
            sample_recorder(), meta={"command": "simulate", "rows": 16}
        )
        path = tmp_path / "telemetry.json"
        report.write_json(path)
        loaded = TelemetryReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_written_file_is_stable_json(self, tmp_path):
        path = tmp_path / "telemetry.json"
        TelemetryReport.from_recorder(sample_recorder()).write_json(path)
        text = path.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload == json.loads(json.dumps(payload, sort_keys=True))

    def test_from_dict_validates(self):
        with pytest.raises(TelemetryError, match="schema"):
            TelemetryReport.from_dict({"schema": "nope"})

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(TelemetryError, match="cannot read"):
            TelemetryReport.load(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError, match="cannot read"):
            TelemetryReport.load(tmp_path / "absent.json")


class TestValidation:
    def test_non_mapping_payload(self):
        assert validate_report([1, 2]) == ["report must be a mapping, got list"]

    def test_wrong_schema_name(self):
        payload = sample_payload()
        payload["schema"] = "other"
        assert any("schema is" in p for p in validate_report(payload))

    def test_wrong_schema_version(self):
        payload = sample_payload()
        payload["schema_version"] = 99
        assert any("schema_version" in p for p in validate_report(payload))

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "3"])
    def test_bad_counter_values(self, bad):
        payload = sample_payload()
        payload["counters"]["engine.ticks"] = bad
        assert any("non-negative int" in p for p in validate_report(payload))

    def test_timer_missing_keys(self):
        payload = sample_payload()
        del payload["timers"]["kernel.bitplane.tick_seconds"]["buckets"]
        assert any("missing key(s): buckets" in p for p in validate_report(payload))

    def test_span_forward_parent_reference(self):
        payload = sample_payload()
        payload["spans"][0]["parent"] = 5  # must reference an earlier index
        assert any("earlier span" in p for p in validate_report(payload))

    def test_span_missing_keys(self):
        payload = sample_payload()
        del payload["spans"][0]["seconds"]
        assert any("missing key(s): seconds" in p for p in validate_report(payload))

    def test_event_without_name(self):
        payload = sample_payload()
        payload["events"].append({"worker": 1})
        assert any("event [1]" in p for p in validate_report(payload))

    def test_meta_must_be_mapping(self):
        payload = sample_payload()
        payload["meta"] = ["not", "a", "mapping"]
        assert "meta must be a mapping" in validate_report(payload)

    def test_all_problems_reported_at_once(self):
        payload = sample_payload()
        payload["schema_version"] = 99
        payload["counters"]["engine.ticks"] = -1
        payload["spans"] = "nope"
        problems = validate_report(payload)
        assert len(problems) == 3

    def test_check_report_raises_listing_problems(self):
        with pytest.raises(TelemetryError, match="schema.*; .*counters"):
            check_report({"schema": "x"})

    def test_telemetry_error_is_a_repro_error(self):
        assert issubclass(TelemetryError, ReproError)


class TestSummaries:
    def test_total_seconds_sums_by_prefix(self):
        rec = InMemoryRecorder(clock=StepClock())
        rec.timer("kernel.bitplane.tick_seconds").record(1.0)
        rec.timer("kernel.reference.tick_seconds").record(2.0)
        rec.timer("bench.kernels.x.pass_seconds").record(4.0)
        report = TelemetryReport.from_recorder(rec)
        assert report.total_seconds("kernel.") == pytest.approx(3.0)
        assert report.total_seconds("bench.") == pytest.approx(4.0)
        assert report.total_seconds("nothing.") == 0.0

    def test_summary_lines_cover_every_section(self):
        report = TelemetryReport.from_recorder(
            sample_recorder(), meta={"command": "simulate"}
        )
        text = "\n".join(report.summary_lines())
        assert f"schema {SCHEMA_NAME} v{SCHEMA_VERSION}" in text
        assert "command=simulate" in text
        assert "engine.ticks = 128" in text
        assert "kernel.bitplane.tick_seconds: n=2" in text
        assert "spans: 2" in text
        assert "engine.run" in text
        assert "(1 nested)" in text
        assert "supervisor.spawn x1" in text

    def test_summary_of_empty_report_names_every_absent_section(self):
        report = TelemetryReport.from_recorder(InMemoryRecorder(clock=StepClock()))
        lines = report.summary_lines()
        assert lines[0].startswith("telemetry report")
        # No silent sections: zero spans render an explicit marker rather
        # than disappearing (the old rendering made "no spans" ambiguous
        # with "spans not recorded at this schema version").
        assert "  spans: none recorded" in lines
        # Run metadata is always stamped, so the empty report still
        # carries provenance.
        assert any(line.startswith("  run: ") for line in lines)
        assert len(lines) == 3

    def test_summary_json_digest(self):
        report = TelemetryReport.from_recorder(
            sample_recorder(), meta={"command": "simulate"}
        )
        digest = report.summary_json()
        assert digest["schema"] == SCHEMA_NAME
        assert digest["schema_version"] == SCHEMA_VERSION
        assert digest["counters"]["engine.ticks"] == 128
        timer = digest["timers"]["kernel.bitplane.tick_seconds"]
        assert timer["count"] == 2
        assert "buckets" not in timer
        roots = digest["spans"]["roots"]
        assert roots[0]["name"] == "engine.run"
        assert roots[0]["nested"] == 1
        assert digest["events"]["by_name"]["supervisor.spawn"] == 1
        assert json.dumps(digest)  # JSON-serializable end to end


class TestRunMetadata:
    def test_run_metadata_fields(self):
        meta = run_metadata(producer="test")
        assert set(meta) == {
            "host", "pid", "python", "cpu_count", "repro_version", "producer",
        }
        assert meta["cpu_count"] >= 1

    def test_every_report_is_stamped(self):
        payload = sample_payload()
        run = payload["meta"]["run"]
        for key in ("host", "pid", "python", "cpu_count", "repro_version"):
            assert key in run

    def test_explicit_run_meta_wins(self):
        rec = InMemoryRecorder(clock=StepClock())
        report = TelemetryReport.from_recorder(
            rec, meta={"run": {"host": "h", "pid": 1, "python": "3",
                               "cpu_count": 2, "repro_version": "0"}}
        )
        assert report.meta["run"]["host"] == "h"

    def test_v2_requires_run_block(self):
        payload = sample_payload()
        del payload["meta"]["run"]
        assert any("meta.run" in p for p in validate_report(payload))

    def test_v2_requires_complete_run_block(self):
        payload = sample_payload()
        del payload["meta"]["run"]["host"]
        assert any("missing key(s): host" in p for p in validate_report(payload))

    def test_v1_tolerates_absent_run_block(self):
        payload = sample_payload()
        payload["schema_version"] = 1
        del payload["meta"]["run"]
        del payload["processes"]
        assert validate_report(payload) == []

    def test_v1_payload_still_loads(self):
        payload = sample_payload()
        payload["schema_version"] = 1
        del payload["meta"]["run"]
        del payload["processes"]
        report = TelemetryReport.from_dict(payload)
        assert report.version == 1
        assert report.to_dict()["schema_version"] == 1
        assert "processes" not in report.to_dict()

    def test_supported_versions(self):
        assert SCHEMA_VERSION in SUPPORTED_VERSIONS
        assert 1 in SUPPORTED_VERSIONS


class TestProcessesValidation:
    def test_processes_must_be_a_list(self):
        payload = sample_payload()
        payload["processes"] = {"not": "a list"}
        assert any("processes" in p for p in validate_report(payload))

    def test_process_entries_need_a_name(self):
        payload = sample_payload()
        payload["processes"] = [{"kind": "worker"}]
        assert any("name" in p for p in validate_report(payload))

    def test_well_formed_process_entry_passes(self):
        payload = sample_payload()
        payload["processes"] = [
            {"name": "worker-0.0", "kind": "worker", "pid": 7,
             "counters": {"shard.generations": 4}, "timers": {}},
        ]
        assert validate_report(payload) == []
