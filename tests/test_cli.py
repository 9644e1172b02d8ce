"""CLI surface: exit codes, output formats, file round-trips."""

import hashlib
import itertools
import json
import threading

import pytest

from helpers import UnclaimedListDepq

from depq import scenarios
from depq.cli import main
from depq.lincheck import Event, write_history
from depq.workload import RunReport, WorkloadConfig, run_bench, run_stress


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bench_json_report(capsys):
    code, out, _ = run_cli(capsys, "bench", "--impl", "list-depq",
                           "--threads-insert", "2", "--threads-min", "1",
                           "--threads-max", "1", "--ops", "200", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["audit_ok"] is True
    assert report["accounting_ok"] is True
    assert report["ops"]["insert"] == 400


@pytest.mark.parametrize("mode", ["two-locks", "combining"])
def test_bench_list_depq_reports_the_requested_mode(capsys, mode):
    code, out, _ = run_cli(capsys, "bench", "--impl", "list-depq", "--mode", mode,
                           "--ops", "100", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == mode
    extractions = report["ops"]["extract_min"] + report["ops"]["extract_max"]
    assert sum(report["batch_sizes"].values()) > 0
    if mode == "two-locks":
        assert report["batch_sizes"] == {"1": extractions}


def test_report_json_key_order_and_values():
    report = RunReport(
        schema=1, impl="list-depq", mode="combining", seed=7, wall_time_s=0.25,
        ops={"insert": 4, "extract_min": 2, "extract_max": 1},
        throughput={"insert": 16.0, "extract_min": 8.0, "extract_max": 4.0},
        retries={"failed_reserve": 1, "failed_insert_cas": 0},
        batch_sizes={1: 2, 3: 1}, retired_nodes=5, audit_ok=True,
        accounting_ok=False, notes=["a note"])
    assert json.dumps(report.to_dict()) == (
        '{"schema": 1, "impl": "list-depq", "mode": "combining", "seed": 7, '
        '"wall_time_s": 0.25, '
        '"ops": {"insert": 4, "extract_min": 2, "extract_max": 1}, '
        '"throughput": {"insert": 16.0, "extract_min": 8.0, "extract_max": 4.0}, '
        '"retries": {"failed_reserve": 1, "failed_insert_cas": 0}, '
        '"batch_sizes": {"1": 2, "3": 1}, "retired_nodes": 5, "audit_ok": true, '
        '"accounting_ok": false, "notes": ["a note"]}')


def test_bench_rejects_bad_config(capsys):
    code, _, err = run_cli(capsys, "bench", "--threads-insert", "0",
                           "--threads-min", "0", "--threads-max", "0")
    assert code == 2
    assert "invalid configuration" in err


@pytest.mark.parametrize("command", ["bench", "stress"])
@pytest.mark.parametrize("impl", ["dual-heap"])
def test_epoch_reclaim_on_a_dual_build_is_rejected(capsys, command, impl):
    """dual-heap has no reclaimer, so epoch mode would silently not run."""
    code, _, err = run_cli(capsys, command, "--impl", impl, "--reclaim", "epoch")
    assert code == 2
    assert "invalid configuration" in err


@pytest.mark.parametrize("windows", ["0", "-3"])
def test_stress_rejects_a_window_count_below_one(capsys, windows):
    """Zero windows would check nothing and still report success."""
    code, out, err = run_cli(capsys, "stress", "--windows", windows)
    assert code == 2
    assert "invalid configuration" in err
    assert "linearizable" not in out


def test_bench_rejects_ops_and_duration_together(capsys):
    code, _, err = run_cli(capsys, "bench", "--ops", "10", "--duration-ms", "10")
    assert code == 2


def test_duration_mode_runs(capsys):
    code, out, _ = run_cli(capsys, "bench", "--impl", "dual-heap",
                           "--duration-ms", "50", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["accounting_ok"] is True


def test_single_threaded_bench_is_deterministic():
    cfg = dict(impl="list-depq", threads_insert=1, threads_min=0,
               threads_max=0, ops_per_thread=300, seed=99, prefill=10)
    a = run_bench(WorkloadConfig(**cfg))
    b = run_bench(WorkloadConfig(**cfg))
    assert a.ops == b.ops
    assert a.retries == b.retries
    assert a.accounting_ok and b.accounting_ok


def test_single_threaded_streams_reproduce_results_exactly():
    import random

    from depq.list_depq import ListDepq

    def run_once(seed):
        d = ListDepq()
        rng = random.Random(seed)
        out = []
        for _ in range(500):
            roll = rng.random()
            if roll < 0.5:
                d.insert(rng.randrange(100))
            elif roll < 0.75:
                out.append(("min", d.extract_min()))
            else:
                out.append(("max", d.extract_max()))
        return out

    assert run_once(9) == run_once(9)


def test_stress_exit_zero_on_clean_windows(capsys, tmp_path):
    cap = tmp_path / "cap.jsonl"
    code, out, _ = run_cli(capsys, "stress", "--impl", "list-depq",
                           "--windows", "10", "--seed", "5",
                           "--capture", str(cap))
    assert code == 0
    assert "10/10 windows linearizable" in out
    assert cap.exists()


def test_stress_capture_that_cannot_be_written_exits_2(capsys, monkeypatch, tmp_path):
    # The window's build is closed before its history is written.
    from depq import workload

    builds = []
    make = workload.BUILDS["list-depq"]

    def recording(cfg):
        depq = make(cfg)
        builds.append(depq)
        return depq

    monkeypatch.setitem(workload.BUILDS, "list-depq", recording)
    missing = tmp_path / "missing" / "h.jsonl"
    code, out, err = run_cli(capsys, "stress", "--windows", "2", "--capture", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot write history: ") and str(missing) in err
    [depq] = builds
    assert depq.reclaim._closed


def test_stress_reports_offending_window(capsys, tmp_path):
    # Feed the stress loop the deliberately broken build via the factory
    # hook and make sure the verdict, exit path and capture file all fire.
    class BrokenTarget:
        def __init__(self, cfg):
            self.depq = UnclaimedListDepq()

        def close(self):
            pass

    cap = tmp_path / "bad.jsonl"
    outcome = run_stress(WorkloadConfig(impl="list-depq", seed=1),
                         windows=50, capture=str(cap),
                         _target_factory=BrokenTarget)
    assert outcome.failed is not None
    assert outcome.failed.verdict.value == "NOT_LINEARIZABLE"
    assert cap.exists()


def test_lincheck_command_accepts_and_rejects(capsys, tmp_path):
    good = tmp_path / "good.jsonl"
    write_history([
        Event(0, "Insert", 4, None, 0, 1),
        Event(0, "ExtractMin", None, 4, 2, 3),
    ], str(good))
    code, out, _ = run_cli(capsys, "lincheck", str(good))
    assert code == 0
    assert "LINEARIZABLE" in out

    bad = tmp_path / "bad.jsonl"
    write_history([
        Event(0, "Insert", 4, None, 0, 1),
        Event(0, "ExtractMin", None, 9, 2, 3),
    ], str(bad))
    code, out, _ = run_cli(capsys, "lincheck", str(bad))
    assert code == 4
    assert "NOT_LINEARIZABLE" in out


def test_lincheck_command_bad_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "lincheck", str(tmp_path / "missing.jsonl"))
    assert code == 2


@pytest.mark.parametrize("line", [
    '{"thread":0,"kind":"Insert","arg":4,"result":null,"invoke":0}',
    '{"thread":0,"kind":"Insert","arg":4,"result":null,"invoke":"0","response":1}',
], ids=["missing-field", "string-stamp"])
def test_lincheck_command_unreadable_line(capsys, tmp_path, line):
    path = tmp_path / "h.jsonl"
    path.write_text(line + "\n")
    code, out, err = run_cli(capsys, "lincheck", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot read history:") and err.count("\n") == 1


def test_lincheck_command_malformed_history(capsys, tmp_path):
    path = tmp_path / "overlap.jsonl"
    write_history([Event(0, "ExtractMin", None, None, 0, None),
                   Event(0, "ExtractMax", None, None, 1, None)], str(path))
    code, out, err = run_cli(capsys, "lincheck", str(path))
    assert code == 2
    assert out == ""
    assert "cannot check history" in err and "overlapping" in err


def test_replay_commands(capsys):
    for name in ("counterexample", "twist"):
        code, out, _ = run_cli(capsys, "replay", name)
        assert code == 0, out
        assert f"replay {name}: ok" in out


#: The first 16 hex digits of ``sha256(describe())`` for each replay, the
#: text ``depq replay`` prints.  A pause site added, removed or moved on a
#: replayed path, or any changed detail, changes the text.
REPLAY_OUTPUTS = {
    "counterexample": "f026c9f5df9ff915",
    "twist": "5bee21c96dcc71be",
    "single-item-race": "f8fb1e2b121641a8",
    "index-start-reclaimed": "b33505ad41f2ba86",
}


@pytest.mark.parametrize("name", list(REPLAY_OUTPUTS))
def test_replay_output_is_pinned(name):
    text = scenarios.run(name).describe()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == REPLAY_OUTPUTS[name], text


def test_replay_single_item_race(capsys):
    code, out, _ = run_cli(capsys, "replay", "single-item-race")
    assert code == 0
    assert "exclusive_everywhere: True" in out


def test_stress_on_dual_impl_windows(capsys):
    code, out, _ = run_cli(capsys, "stress", "--impl", "dual-heap",
                           "--mode", "two-locks", "--windows", "6", "--seed", "2")
    assert code == 0


def test_capture_is_byte_reproducible_under_fixed_seed(tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        cfg = WorkloadConfig(impl="list-depq", seed=0xFEED)
        outcome = run_stress(cfg, windows=7, capture=str(path))
        assert outcome.failed is None
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].stat().st_size > 0


def test_replay_schedule_failure_exits_5(capsys, monkeypatch):
    from depq import cli, sched

    def explode(name):
        raise sched.ScheduleError("forced for the test")

    monkeypatch.setattr(cli.scenarios, "run", explode)
    code, _, err = run_cli(capsys, "replay", "twist")
    assert code == 5
    assert "schedule could not be realized" in err


def test_failed_audit_exits_3(capsys, monkeypatch):
    from depq import cli

    real = cli.run_bench

    def doctored(cfg):
        report = real(cfg)
        report.audit_ok = False
        report.notes = ["synthetic corruption for the exit-code test"]
        return report

    monkeypatch.setattr(cli, "run_bench", doctored)
    code, _, err = run_cli(capsys, "bench", "--ops", "20")
    assert code == 3
    assert "audit FAILED" in err


def test_failed_accounting_exits_3(capsys, monkeypatch):
    from depq.list_depq import ListDepq

    real = ListDepq.remaining_keys
    monkeypatch.setattr(ListDepq, "remaining_keys",
                        lambda self: real(self) + [-1])
    code, out, err = run_cli(capsys, "bench", "--ops", "20")
    assert code == 3
    assert json.loads(out)["accounting_ok"] is False
    assert "accounting FAILED" in err


def test_failed_accounting_exits_3_dual_heap(capsys, monkeypatch):
    from depq.dual_depq import DualDepq

    real = DualDepq.remaining_keys
    monkeypatch.setattr(DualDepq, "remaining_keys",
                        lambda self: real(self) + [-1])
    code, out, err = run_cli(capsys, "bench", "--impl", "dual-heap", "--ops", "20")
    assert code == 3
    assert json.loads(out)["accounting_ok"] is False
    assert "accounting FAILED" in err


def test_lincheck_command_checks_a_long_history(capsys, tmp_path):
    path = tmp_path / "long.jsonl"
    write_history([Event(0, "Insert", k, None, 2 * k, 2 * k + 1) for k in range(1500)],
                  str(path))
    code, out, _ = run_cli(capsys, "lincheck", str(path))
    assert code == 0
    assert out.startswith("LINEARIZABLE")


def test_raising_worker_exits_6(capsys, monkeypatch):
    from depq.list_depq import ListDepq

    def broken(self, user_key):
        raise RuntimeError("injected insert failure")

    monkeypatch.setattr(ListDepq, "insert", broken)
    code, out, err = run_cli(capsys, "bench", "--ops", "20")
    assert code == 6
    assert out == ""
    assert "injected insert failure" in err
    assert "worker ins" in err


def test_raising_extraction_under_combining_exits_6(capsys, monkeypatch):
    # The first extraction raises inside a combiner serving two min
    # extractors.  The role must still be handed on, or the other extractor
    # spins forever; the run is on a daemon thread so a hang fails the test.
    from depq.dual_depq import DualDepq

    real = DualDepq._extract
    calls = itertools.count()

    def raises_once(self, end):
        if next(calls) == 0:
            raise RuntimeError("injected extraction failure")
        return real(self, end)

    monkeypatch.setattr(DualDepq, "_extract", raises_once)
    codes = []
    runner = threading.Thread(daemon=True, target=lambda: codes.append(
        main(["bench", "--mode", "combining", "--threads-min", "2", "--ops", "200"])))
    runner.start()
    runner.join(timeout=30)
    assert codes == [6]
    assert "injected extraction failure" in capsys.readouterr().err


def test_replay_index_start_reclaimed(capsys):
    code, out, _ = run_cli(capsys, "replay", "index-start-reclaimed")
    assert code == 0
    assert "replay index-start-reclaimed: ok" in out
