"""Command-line entry points, exercised in-process via ``main``."""

import json

import pytest

from ceforge.cli import EXIT_LEMMA, EXIT_OK, EXIT_SCENARIO, main

from conftest import load_jsonl


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--seed", "5", "--out", str(a)]) == EXIT_OK
        assert main(["gen", "--seed", "5", "--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_prints_to_stdout_without_out(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--seed", "1", "--stages", "50")
        assert code == EXIT_OK
        assert json.loads(out)["stages"] == 50


class TestRun:
    def test_demo_scenario_exits_clean(self, capsys, tmp_path, data_dir):
        trace = tmp_path / "trace.jsonl"
        report = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys,
            "run",
            "--scenario", str(data_dir / "demo_scenario.json"),
            "--engine", "dual",
            "--trace-out", str(trace),
            "--report-out", str(report),
        )
        assert code == EXIT_OK, err
        assert json.loads(report.read_text())["pass"] is True
        assert trace.read_text().splitlines()

    def test_malformed_scenario_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == EXIT_SCENARIO
        assert "scenario error" in err

    def test_overweight_schedule_exits_two(self, capsys, tmp_path):
        heavy = tmp_path / "heavy.json"
        heavy.write_text(
            json.dumps(
                {
                    "universal_events": [[1, "00", "0"], [1, "01", "1"]],
                    "set_a": [],
                    "set_d": [],
                    "halting": [],
                    "stages": 5,
                }
            )
        )
        code, _, _ = run_cli(capsys, "run", "--scenario", str(heavy))
        assert code == EXIT_SCENARIO

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "run", "--scenario", str(tmp_path / "nope.json")
        )
        assert code == EXIT_SCENARIO


class TestAudit:
    def test_replay_report_is_byte_identical(self, capsys, tmp_path, data_dir):
        scenario = str(data_dir / "demo_scenario.json")
        trace = tmp_path / "trace.jsonl"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(
            [
                "run", "--scenario", scenario, "--engine", "single",
                "--trace-out", str(trace), "--report-out", str(first),
            ]
        ) == EXIT_OK
        capsys.readouterr()
        assert main(
            [
                "audit", "--scenario", scenario, "--trace", str(trace),
                "--report-out", str(second),
            ]
        ) == EXIT_OK
        assert first.read_text() == second.read_text()

    def test_negative_control_exits_three(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--scenario", str(data_dir / "single_scripted.json"),
            "--trace", str(data_dir / "negative_control_trace.jsonl"),
        )
        assert code == EXIT_LEMMA
        assert json.loads(out)["pass"] is False


def _markers_as_list(records):
    records[1]["markers"] = list(records[1]["markers"].values())


def _n_length_null(records):
    entry = next(r for r in records[1:] if r["n_entries"])["n_entries"][0]
    entry["length"] = None


def _m_justify_as_list(records):
    entry = next(r for r in records[1:] if r["m_entries"])["m_entries"][0]
    entry["justify"] = [entry["justify"]]


def _stage_as_string(records):
    records[2] = "noop"


def _stage_as_list(records):
    records[2] = [records[2]]


def _header_as_list(records):
    records[0] = [records[0]]


def _negative_deficit(records):
    records[1]["markers"]["0"]["p_a"] = "-1/2^0"


@pytest.mark.parametrize(
    "fixture, corrupt",
    [
        ("single_scripted", _markers_as_list),
        ("single_scripted", _n_length_null),
        ("dual_scripted", _m_justify_as_list),
        ("single_scripted", _stage_as_string),
        ("single_scripted", _stage_as_list),
        ("single_scripted", _header_as_list),
        ("dual_scripted", _negative_deficit),
    ],
    ids=lambda value: getattr(value, "__name__", value).lstrip("_"),
)
def test_malformed_trace_exits_two(
    capsys, tmp_path, data_dir, fixture, corrupt
):
    records = load_jsonl(data_dir / f"{fixture}_trace.jsonl")
    corrupt(records)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(
        capsys,
        "audit",
        "--scenario", str(data_dir / f"{fixture}.json"),
        "--trace", str(trace),
    )
    assert code == EXIT_SCENARIO
    assert out == ""
    assert len(err.splitlines()) == 1, err


class TestKc:
    def test_complete_code_table(self, capsys, tmp_path):
        requests = tmp_path / "req.txt"
        requests.write_text("x 1\ny 2\nz 2\n")
        code, out, _ = run_cli(capsys, "kc", str(requests))
        assert code == EXIT_OK
        assert out.splitlines() == ["0\tx", "10\ty", "11\tz"]

    def test_exhaustion_exits_two(self, capsys, tmp_path):
        requests = tmp_path / "req.txt"
        requests.write_text("a 1\nb 1\nc 1\n")
        code, _, err = run_cli(capsys, "kc", str(requests))
        assert code == EXIT_SCENARIO
        assert "request error" in err


class TestEncodeReal:
    def test_constant_zero_is_empty(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("[[0, 0], [0, 0]]")
        code, out, _ = run_cli(capsys, "encode-real", str(real))
        assert code == EXIT_OK
        assert out == ""

    def test_single_flip(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("[[0, 0], [0, 1]]")
        code, out, _ = run_cli(capsys, "encode-real", str(real))
        assert code == EXIT_OK
        assert out.splitlines() == ["2\t1"]

    def test_overflow_exits_two(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("[[0, 0], [0, 1], [1, 0], [1, 1]]")
        code, _, _ = run_cli(capsys, "encode-real", str(real))
        assert code == EXIT_SCENARIO
