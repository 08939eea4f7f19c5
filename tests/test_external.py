"""Wire-protocol tests against scripted stub trainers."""

import os
import shlex
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace

import pytest

from madshpo.blackbox import FAILED_REASON, EvaluationRequest, ProcessAdapter, external_evaluate
from madshpo.campaign import LEDGER_NAME, CampaignSettings, read_checked_ledger, run
from madshpo.cli import main
from madshpo.early_stop import BaselineEnvelope, StoppingMonitor, TrainingHistory
from madshpo.ledger import KIND_FULL, KIND_SURROGATE, read_ledger, write_ledger
from madshpo.space import preset_config


def make_stub(tmp_path, body, name="stub.py"):
    path = tmp_path / name
    path.write_text(
        "import sys\n"
        + textwrap.dedent(body)
    )
    return ProcessAdapter((sys.executable, "-u", str(path)), line_timeout=20.0)


FIXED_CURVE_STUB = """
    header = sys.stdin.readline().split()
    assert header[0] == "CONFIG"
    curve = [(1, 0.5, 1.2, 0.01), (2, 0.6, 1.0, 0.01), (3, 0.7, 0.9, 0.01)]
    for e, a, l, r in curve:
        print(f"EPOCH {e} ACC {a} LOSS {l} LR {r}", flush=True)
        if sys.stdin.readline().strip() == "STOP":
            break
    print("DONE", flush=True)
"""


class TestExternalEvaluate:
    def test_fixed_three_epoch_curve(self, tmp_path):
        adapter = make_stub(tmp_path, FIXED_CURVE_STUB)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 200, 1.0, 0), adapter)
        assert not result.failed
        assert result.epochs_used == 3
        assert result.final_val_accuracy == pytest.approx(0.7)
        assert result.history.val_loss == [1.2, 1.0, 0.9]

    def test_header_carries_fidelity_parameters(self, tmp_path):
        echo = """
            header = sys.stdin.readline().split()
            epochs = int(header[header.index("EPOCHS") + 1])
            fraction = float(header[header.index("FRACTION") + 1])
            seed = int(header[header.index("SEED") + 1])
            acc = fraction / 2
            print(f"EPOCH 1 ACC {acc} LOSS 1.0 LR 0.01", flush=True)
            sys.stdin.readline()
            print("DONE", flush=True)
        """
        adapter = make_stub(tmp_path, echo)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 25, 0.5, 3), adapter)
        assert result.final_val_accuracy == pytest.approx(0.25)
        assert result.wall_cost == pytest.approx(1 * 0.5)

    def test_non_numeric_accuracy_fails(self, tmp_path):
        bad = """
            sys.stdin.readline()
            print("EPOCH 1 ACC oops LOSS 1.0 LR 0.01", flush=True)
            sys.stdin.readline()
            print("DONE", flush=True)
        """
        adapter = make_stub(tmp_path, bad)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), adapter)
        assert result.failed
        assert result.final_val_accuracy == 0.0

    def test_monitor_stop_directive_honored(self, tmp_path):
        # stub would emit 10 epochs; a dominating baseline stops it at milestone 5,
        # so epochs_used == 5 proves the STOP directive was sent and obeyed
        ten_epochs = """
            sys.stdin.readline()
            for e in range(1, 11):
                print(f"EPOCH {e} ACC 0.2 LOSS 1.0 LR 0.01", flush=True)
                if sys.stdin.readline().strip() == "STOP":
                    break
            print("DONE", flush=True)
        """
        adapter = make_stub(tmp_path, ten_epochs)
        baseline = TrainingHistory.from_rows((e, 0.99, 0.01, 0.01) for e in range(1, 201))
        monitor = StoppingMonitor("scheduler+baseline", BaselineEnvelope(baseline))
        result = external_evaluate(
            EvaluationRequest(preset_config("p1"), 200, 1.0, 0, monitor), adapter
        )
        assert not result.failed
        assert result.epochs_used == 5
        assert result.stop_reason == "envelope-breach"

    def test_child_crash_mid_curve_fails(self, tmp_path):
        crash = """
            sys.stdin.readline()
            print("EPOCH 1 ACC 0.5 LOSS 1.0 LR 0.01", flush=True)
            sys.stdin.readline()
            sys.exit(3)
        """
        adapter = make_stub(tmp_path, crash)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), adapter)
        assert result.failed

    def test_timeout_fails(self, tmp_path):
        sleeper = """
            import time
            sys.stdin.readline()
            time.sleep(30)
        """
        path = tmp_path / "sleeper.py"
        path.write_text("import sys\n" + textwrap.dedent(sleeper))
        adapter = ProcessAdapter((sys.executable, "-u", str(path)), line_timeout=0.5)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), adapter)
        assert result.failed

    def test_wrong_epoch_number_fails(self, tmp_path):
        skipper = """
            sys.stdin.readline()
            print("EPOCH 2 ACC 0.5 LOSS 1.0 LR 0.01", flush=True)
            sys.stdin.readline()
            print("DONE", flush=True)
        """
        adapter = make_stub(tmp_path, skipper)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), adapter)
        assert result.failed

    def test_missing_command_fails(self):
        adapter = ProcessAdapter(("/nonexistent/trainer",), line_timeout=1.0)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), adapter)
        assert result.failed

    @pytest.mark.parametrize("body,message", [
        ("""
            sys.stdin.readline()
            print("EPOCH 1 ACC 0.5 LOSS 1.0 RATE 0.01", flush=True)
            sys.stdin.readline()
            print("DONE", flush=True)
        """, "malformed epoch line 'EPOCH 1 ACC 0.5 LOSS 1.0 RATE 0.01'"),
        ("""
            sys.stdin.readline()
            for e in (1, 2):
                print(f"EPOCH {e} ACC 0.5 LOSS 1.0 LR 0.01", flush=True)
                sys.stdin.readline()
            print("DONE", flush=True)
        """, "missing DONE after STOP, got 'EPOCH 2 ACC 0.5 LOSS 1.0 LR 0.01'"),
        # refused at MAX_LINE_BYTES, well before the 20 s line timeout
        ("""
            import time
            sys.stdin.readline()
            sys.stdout.write("x" * 2**20)
            sys.stdout.flush()
            time.sleep(30)
        """, "a line of more than 65536 bytes"),
    ], ids=["malformed-epoch-line", "epoch-after-stop", "line-without-end"])
    def test_protocol_violation_fails_by_name(self, tmp_path, caplog, body, message):
        adapter = make_stub(tmp_path, body)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 1, 1.0, 0), adapter)
        assert result.failed
        assert f"evaluation failed: {message}" in caplog.messages

    def test_output_that_is_not_utf8_is_a_malformed_line(self, tmp_path, caplog):
        adapter = make_stub(tmp_path, """
            sys.stdin.readline()
            sys.stdout.buffer.write(b"EPOCH 1 ACC 0.5 LOSS 1.0 LR 0.01\\xff\\n")
            sys.stdout.flush()
            sys.stdin.readline()
            print("DONE", flush=True)
        """)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), adapter)
        assert result.failed
        assert "evaluation failed: could not convert string to float: '0.01\ufffd'" in caplog.messages

    def test_half_a_line_then_silence_times_out(self, tmp_path, caplog):
        # a chunk without a line break must not end the wait for the rest of the line
        adapter = make_stub(tmp_path, """
            import time
            sys.stdin.readline()
            sys.stdout.write("EPOCH 1 ACC")
            sys.stdout.flush()
            time.sleep(30)
        """)
        adapter = ProcessAdapter(adapter.command, line_timeout=0.5)
        started = time.monotonic()
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), adapter)
        assert time.monotonic() - started < adapter.line_timeout + 1.0
        assert result.failed
        assert "evaluation failed: no line within 0.5 s" in caplog.messages

    def test_crlf_line_ends_read_as_line_feeds(self, tmp_path):
        request = EvaluationRequest(preset_config("p1"), 200, 1.0, 0)
        lf = external_evaluate(request, make_stub(tmp_path, FIXED_CURVE_STUB))
        crlf = external_evaluate(request, make_stub(tmp_path, "sys.stdout.reconfigure(newline='\\r\\n')\n"
                                                    + textwrap.dedent(FIXED_CURVE_STUB), name="crlf.py"))
        assert not crlf.failed
        assert crlf.history == lf.history and crlf.epochs_used == 3

    def test_a_last_line_without_a_line_break_is_read(self, tmp_path):
        adapter = make_stub(tmp_path, """
            sys.stdin.readline()
            print("EPOCH 1 ACC 0.5 LOSS 1.0 LR 0.01", flush=True)
            sys.stdin.readline()
            sys.stdout.write("DONE")
        """)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), adapter)
        assert (result.failed, result.epochs_used) == (False, 1)

    def test_trainings_leave_no_thread_or_open_file_behind(self, tmp_path):
        threads = []

        class CountingMonitor(StoppingMonitor):
            def verdict(self, history):
                threads.append(threading.active_count())
                return super().verdict(history)

        def open_fds():
            return len(os.listdir("/proc/self/fd")) if sys.platform.startswith("linux") else 0

        sleeper = make_stub(tmp_path, """
            import time
            sys.stdin.readline()
            print("EPOCH 1 ACC 0.5 LOSS 1.0 LR 0.01", flush=True)
            time.sleep(30)
        """, name="sleeper.py")
        children = [
            (make_stub(tmp_path, FIXED_CURVE_STUB), 200, False),  # ends early with DONE
            (make_stub(tmp_path, FIXED_CURVE_STUB), 2, False),  # stopped, then DONE
            (make_stub(tmp_path, "sys.stdin.readline()\nsys.exit(3)\n", name="crash.py"), 10, True),
            (ProcessAdapter(sleeper.command, line_timeout=0.2), 10, True),
            (make_stub(tmp_path, """
                sys.stdin.readline()
                sys.stdout.buffer.write(b"EPOCH 1 ACC 0.5\\xff LOSS 1.0 LR 0.01\\n")
                sys.stdout.flush()
                sys.stdin.readline()
            """, name="not_utf8.py"), 10, True),
        ]
        before = (threading.active_count(), open_fds())
        for adapter, max_epochs, failed in children * 4:
            request = EvaluationRequest(preset_config("p1"), max_epochs, 1.0, 0, CountingMonitor("none"))
            assert external_evaluate(request, adapter).failed == failed
        assert (threading.active_count(), open_fds()) == before
        assert threads and set(threads) == {before[0]}

    def test_a_child_that_outlives_its_grace_after_done_is_killed(self, tmp_path, monkeypatch):
        waits, kills = [], []
        real_wait, real_kill = subprocess.Popen.wait, subprocess.Popen.kill

        def wait(proc, timeout=None):
            # the grace period runs out at once, rather than after 5 s
            waits.append(timeout)
            if len(waits) == 1:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            return real_wait(proc, timeout)

        def kill(proc):
            kills.append(proc.pid)
            real_kill(proc)

        monkeypatch.setattr(subprocess.Popen, "wait", wait)
        monkeypatch.setattr(subprocess.Popen, "kill", kill)
        adapter = make_stub(tmp_path, FIXED_CURVE_STUB)
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 200, 1.0, 0), adapter)
        assert (result.failed, result.epochs_used) == (False, 3)
        assert waits == [5.0, None] and len(kills) == 1

    @pytest.mark.parametrize("command", ["", " ", "\t\n"], ids=["empty", "space", "whitespace"])
    def test_an_empty_command_is_refused(self, tmp_path, capsys, command):
        with pytest.raises(ValueError, match="external trainer command is empty"):
            ProcessAdapter.from_command(command)
        out = tmp_path / "out"
        argv = ["run", "--backend", "external", "--backend-cmd", command, "--budget", "3", "--rank", "none",
                "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: external trainer command is empty\n"
        assert not out.exists()

    def test_a_command_with_blanks_around_it_is_recorded_stripped(self, tmp_path, capsys):
        stub = make_stub(tmp_path, FIXED_CURVE_STUB)
        command = shlex.join(stub.command)
        out = tmp_path / "out"
        argv = ["run", "--backend", "external", "--backend-cmd", f"{command} ", "--budget", "1", "--rank", "none",
                "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        header, records, _ = read_checked_ledger(out / LEDGER_NAME)
        assert header["external_command"] == command
        # the stub ends its training after 3 epochs, which only a simulated training may not
        assert [(r.epochs_used, r.stop_reason) for r in records] == [(3, "none")]

    def test_from_command_splits_shell_words(self):
        adapter = ProcessAdapter.from_command("python3 -u trainer.py --gpu 0")
        assert adapter.command == ("python3", "-u", "trainer.py", "--gpu", "0")
        assert adapter.line_timeout == 120.0


@pytest.mark.parametrize("line", [
    "EPOCH 1 ACC 0.5 LOSS nan LR 0.01",
    "EPOCH 1 ACC 0.5 LOSS inf LR 0.01",
    "EPOCH 1 ACC 0.5 LOSS 1.0 LR nan",
    "EPOCH 1 ACC 0.5 LOSS 1.0 LR inf",
], ids=["nan-loss", "inf-loss", "nan-rate", "inf-rate"])
def test_epoch_that_is_not_finite_is_a_failed_row(tmp_path, line):
    stub = make_stub(tmp_path, f"""
        sys.stdin.readline()
        print({line!r}, flush=True)
        sys.stdin.readline()
        print("DONE", flush=True)
    """)
    run(CampaignSettings(bbe_budget=1, surrogate="none", backend="external",
                         external_command=shlex.join(stub.command), out_dir=tmp_path / "out"))
    _, records = read_ledger(tmp_path / "out" / LEDGER_NAME)
    assert [(r.stop_reason, r.incumbent) for r in records] == [(FAILED_REASON, False)]


# a trainer that logs each start to the file its argument names, and whose curve rises to a level set by its header
LOGGED_STUB = """
    import zlib
    with open(sys.argv[1], "a") as log:
        print("start", file=log)
    header = sys.stdin.readline().split()
    top = 0.3 + 0.6 * zlib.crc32(" ".join(header).encode()) / 2**32
    for e in range(1, int(header[header.index("EPOCHS") + 1]) + 1):
        print(f"EPOCH {e} ACC {top * e / (e + 3)} LOSS 1.0 LR 0.01", flush=True)
        if sys.stdin.readline().strip() == "STOP":
            break
    print("DONE", flush=True)
"""


def test_export_of_a_cut_ranked_ledger_starts_no_trainer(tmp_path):
    log = tmp_path / "starts.log"
    command = shlex.join((*make_stub(tmp_path, LOGGED_STUB).command, str(log)))
    run(CampaignSettings(bbe_budget=8, surrogate="r2", max_epochs=20, backend="external",
                         external_command=command, out_dir=tmp_path / "out"))
    header, records = read_ledger(tmp_path / "out" / LEDGER_NAME)
    kinds = [r.kind for r in records]
    first_estimate = kinds.index(KIND_SURROGATE)
    first_full = kinds.index(KIND_FULL, first_estimate)
    starts = log.read_text()
    # inside the first estimate block, and after the first full row of its poll
    cuts = (first_estimate + 2, first_full + 1)
    assert kinds[cuts[0]] == KIND_SURROGATE and cuts[1] < len(records)
    cut = tmp_path / "cut.csv"
    for n in cuts:
        write_ledger(cut, records[:n], header)
        assert read_checked_ledger(cut)[1] == records[:n]
        assert log.read_text() == starts
    # the rows a cut ledger keeps are still compared with those the loop makes
    edited = replace(records[first_estimate + 1], epochs_used=11)
    write_ledger(cut, [*records[:first_estimate + 1], edited], header)
    with pytest.raises(ValueError, match=f": record {first_estimate + 1}: epochs_used 11, expected 10$"):
        read_checked_ledger(cut)
    assert log.read_text() == starts
