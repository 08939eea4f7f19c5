import csv
import io
import json
import tracemalloc
from dataclasses import replace

import pytest

from madshpo import campaign
from madshpo.blackbox import FAILED_REASON, SimulatedBlackbox
from madshpo.campaign import (
    LEDGER_NAME,
    SUMMARY_NAME,
    CampaignSettings,
    initial_config,
    resume,
    run,
    settings_header,
)
from madshpo.cli import main, read_settings_file
from madshpo.early_stop import MODES
from madshpo.ledger import (
    COLUMNS,
    KIND_FULL,
    KIND_SURROGATE,
    LedgerRecord,
    encode_row,
    export_convergence,
    read_ledger,
    write_ledger,
)
from madshpo.space import deserialize, dimension, preset_config, serialize


def settings(out_dir, **overrides):
    base = dict(preset="p1", bbe_budget=40, seed=3, out_dir=out_dir)
    base.update(overrides)
    return CampaignSettings(**base)


class TestSettings:
    def test_presets_match_paper_dimensions(self):
        for name, dim in (("p1", 17), ("p2", 22), ("p3", 36)):
            config = preset_config(name)
            assert dimension(config.n_conv, config.n_fc) == dim

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignSettings(bbe_budget=0)
        with pytest.raises(ValueError):
            CampaignSettings(stop_mode="bogus")
        with pytest.raises(ValueError):
            CampaignSettings(backend="external")  # missing command
        with pytest.raises(ValueError):
            CampaignSettings(preset="p9").__class__ and initial_config(CampaignSettings(preset="p9"))

    def test_header_round_trip_strings(self, tmp_path):
        s = settings(tmp_path, max_iterations=7, surrogate_custom=(50, 0.5, 0.25))
        header = settings_header(s)
        assert header["max_iterations"] == "7"
        assert header["surrogate"].startswith("custom 50")
        assert deserialize(header["initial"]) == preset_config("p1")


class TestRunPersistence:
    def test_run_writes_ledger_and_summary(self, tmp_path):
        result = run(settings(tmp_path / "out"))
        ledger_path = tmp_path / "out" / LEDGER_NAME
        summary_path = tmp_path / "out" / SUMMARY_NAME
        assert ledger_path.exists() and summary_path.exists()
        header, records = read_ledger(ledger_path)
        assert len(records) == len(result.records)
        assert header["seed"] == "3"
        summary = json.loads(summary_path.read_text())
        assert summary["best_score"] == result.best_score
        assert summary["total_charged_bbe"] <= 40 + 1e-9

    def test_byte_identical_ledgers(self, tmp_path):
        run(settings(tmp_path / "a"))
        run(settings(tmp_path / "b"))
        assert (tmp_path / "a" / LEDGER_NAME).read_bytes() == (
            tmp_path / "b" / LEDGER_NAME
        ).read_bytes()

    def test_cumulative_cost_monotone_and_within_budget(self, tmp_path):
        result = run(settings(tmp_path / "out"))
        cum = [r.cumulative_cost for r in result.records]
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        assert cum[-1] <= 40 + 1e-9

    def test_surrogate_trains_no_longer_than_a_full_training(self, tmp_path):
        s = settings(tmp_path / "out", bbe_budget=6, seed=1, max_epochs=50, surrogate="r4")
        run(s)
        _, records = read_ledger(tmp_path / "out" / LEDGER_NAME)
        estimates = [r for r in records if r.kind == KIND_SURROGATE]
        assert estimates
        blackbox = SimulatedBlackbox(noise_sigma=s.noise_sigma)
        for r in estimates:
            assert r.epochs_used == 50
            assert r.score == blackbox.final_accuracy(deserialize(r.config), s.seed, 50, 0.1)

    def test_incumbent_scores_monotone(self, tmp_path):
        result = run(settings(tmp_path / "out"))
        scores = [r.score for r in result.records if r.kind == KIND_FULL and r.incumbent]
        assert all(b > a for a, b in zip(scores, scores[1:]))


class TestResume:
    def run_full(self, tmp_path, **overrides):
        s = settings(tmp_path / "full", **overrides)
        run(s)
        path = tmp_path / "full" / LEDGER_NAME
        return s, path, path.read_bytes()

    def test_replay_equivalence_at_cut_points(self, tmp_path):
        s, path, full_bytes = self.run_full(tmp_path)
        header, records = read_ledger(path)
        cuts = [1, len(records) // 3, (2 * len(records)) // 3]
        for cut in cuts:
            out = tmp_path / f"cut{cut}"
            out.mkdir()
            write_ledger(out / LEDGER_NAME, records[:cut], header)
            resume(replace(s, out_dir=out))
            assert (out / LEDGER_NAME).read_bytes() == full_bytes, f"cut at {cut}"

    @pytest.mark.parametrize("surrogate", ["none", "r4"])
    @pytest.mark.parametrize("stop_mode", MODES)
    @pytest.mark.parametrize("preset", ["p1", "p3"])
    def test_replay_equivalence_every_iteration(self, tmp_path, preset, stop_mode, surrogate):
        # cut just after the first record of each iteration: the cut in
        # iteration 1 keeps only iteration 0, the one in iteration 0 nothing
        s, path, full_bytes = self.run_full(
            tmp_path, preset=preset, stop_mode=stop_mode, surrogate=surrogate, seed=1, bbe_budget=20
        )
        header, records = read_ledger(path)
        firsts = [i for i, r in enumerate(records) if i == 0 or r.iteration != records[i - 1].iteration]
        assert len(firsts) > 2
        self.assert_resumes_from(tmp_path, s, header, records, firsts, full_bytes)

    def test_replay_equivalence_after_failed_iteration(self, tmp_path):
        # the mesh refines only after a failed iteration, which a short
        # campaign never completes before its budget runs out
        s, path, full_bytes = self.run_full(tmp_path, surrogate="r4", seed=2, bbe_budget=70)
        header, records = read_ledger(path)
        failed = min(
            k for k in range(1, records[-1].iteration)
            if not any(r.incumbent for r in records if r.iteration == k and r.kind == KIND_FULL)
        )
        firsts = [next(i for i, r in enumerate(records) if r.iteration == k) for k in (failed + 1, failed + 2)]
        assert records[firsts[0]].mesh_index == records[firsts[0] - 1].mesh_index - 1
        self.assert_resumes_from(tmp_path, s, header, records, firsts, full_bytes)

    def assert_resumes_from(self, tmp_path, s, header, records, firsts, full_bytes):
        """Resume from a cut just after each given record; the ledger must come out whole."""
        for first in firsts:
            out = tmp_path / f"cut{first}"
            out.mkdir()
            write_ledger(out / LEDGER_NAME, records[: first + 1], header)
            resume(replace(s, out_dir=out))
            assert (out / LEDGER_NAME).read_bytes() == full_bytes, f"cut after record {first}"

    def test_resume_regenerates_only_adopted_baselines(self, tmp_path, monkeypatch):
        s, path, full_bytes = self.run_full(tmp_path, surrogate="none")
        _, records = read_ledger(path)
        kept = [r for r in records if r.iteration < records[-1].iteration]
        fulls = [r for r in kept if r.kind == KIND_FULL and r.stop_reason != FAILED_REASON]
        adopted = sum(1 for i, r in enumerate(fulls) if i == 0 or r.incumbent)
        assert adopted < len(fulls)
        calls = []
        real = campaign.simulate_curve

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign, "simulate_curve", counting)
        resume(s)
        assert len(calls) == adopted
        assert path.read_bytes() == full_bytes

    def test_completed_run_resume_is_noop(self, tmp_path):
        s, path, full_bytes = self.run_full(tmp_path)
        resume(s)
        assert path.read_bytes() == full_bytes

    def test_mismatched_settings_rejected(self, tmp_path):
        s, _, _ = self.run_full(tmp_path)
        with pytest.raises(ValueError, match="seed"):
            resume(replace(s, seed=99))
        with pytest.raises(ValueError, match="bbe_budget"):
            resume(replace(s, bbe_budget=80))

    def test_external_backend_rejected(self, tmp_path):
        s = settings(tmp_path, backend="external", external_command="true")
        with pytest.raises(ValueError, match="simulated"):
            resume(s)

    def test_missing_ledger_rejected(self, tmp_path):
        with pytest.raises(OSError):
            resume(settings(tmp_path / "nowhere"))


class TestExport:
    def test_series_monotone_and_fractional_axis(self, tmp_path):
        s = settings(tmp_path / "out", surrogate="r4")
        run(s)
        header, records = read_ledger(tmp_path / "out" / LEDGER_NAME)
        rows = export_convergence(records, surrogate_data_fraction=0.1)
        best = [r[3] for r in rows]
        assert best == sorted(best)
        bbe = [r[0] for r in rows]
        assert all(b > a for a, b in zip(bbe, bbe[1:]))
        # ranked polls charge fractional costs, so some bbe gaps are non-integral
        gaps = {round(b - a, 6) for a, b in zip(bbe, bbe[1:])}
        assert any(abs(g - round(g)) > 1e-9 for g in gaps)

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError):
            export_convergence([])

    def test_single_eval_ledger(self):
        rec = LedgerRecord(0, KIND_FULL, "x=1", 0.5, 200, "none", 1.0, 1.0, True, 0, 0)
        rows = export_convergence([rec])
        assert rows == [(1.0, 200, 200.0, 0.5)]

    def test_running_best(self):
        records = [
            LedgerRecord(i, KIND_FULL, "x=1", s, 10, "none", 1.0, float(i + 1), False, i, 0)
            for i, s in enumerate([0.5, 0.4, 0.6])
        ]
        rows = export_convergence(records)
        assert [r[3] for r in rows] == [0.5, 0.5, 0.6]

    def test_surrogate_rows_add_cost_units(self):
        records = [
            LedgerRecord(0, KIND_SURROGATE, "x=1", 0.3, 200, "none", 0.1, 0.1, False, 1, 0),
            LedgerRecord(1, KIND_FULL, "x=1", 0.5, 100, "none", 1.0, 1.1, True, 1, 0),
        ]
        rows = export_convergence(records, surrogate_data_fraction=0.1)
        assert rows == [(1.1, 300, 100.0 + 200 * 0.1, 0.5)]


class TestLedgerIO:
    def test_round_trip(self, tmp_path):
        records = [
            LedgerRecord(0, KIND_FULL, serialize(preset_config("p1")), 0.5, 200, "none", 1.0, 1.0, True, 0, 0),
            LedgerRecord(1, KIND_SURROGATE, "fc0=16 optimizer=sgd", 0.25, 25, "none", 0.125, 1.125, False, 1, -1),
        ]
        header = {"seed": "7", "note": "x = y"}
        path = tmp_path / "ledger.csv"
        write_ledger(path, records, header)
        got_header, got_records = read_ledger(path)
        assert got_header == header
        assert got_records == records

    def test_quoted_fields_match_csv_writer(self, tmp_path):
        p1 = serialize(preset_config("p1"))
        records = [
            LedgerRecord(0, KIND_FULL, p1, 0.5, 200, "none", 1.0, 1.0, True, 0, 0),
            LedgerRecord(1, KIND_FULL, p1 + ',note="a, b"', 0.25, 9, 'stop, "early"', 1.0, 2.0, False, 1, -1),
            LedgerRecord(2, KIND_SURROGATE, '"', 0.125, 25, ",", 0.125, 2.125, False, 2, -2),
        ]
        header = {"seed": "7", "note": 'x = "y", z'}
        path = tmp_path / "ledger.csv"
        write_ledger(path, records, header)
        reference = io.StringIO()
        for key, value in header.items():
            reference.write(f"# {key} = {value}\n")
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows(record.row() for record in records)
        assert path.read_bytes() == reference.getvalue().encode()
        assert read_ledger(path) == (header, records)
        for fields in (["", ""], ['a"b', "c,d"]):
            reference = io.StringIO()
            csv.writer(reference, lineterminator="\n").writerow(fields)
            assert encode_row(fields) == reference.getvalue()

    @pytest.mark.parametrize("line_break", ["\n", "\r"], ids=["lf", "cr"])
    def test_line_breaks_refused_and_ledger_untouched(self, tmp_path, line_break):
        # read_ledger reads one row per line, so a line break in a field
        # would write a file that cannot be read back
        p1 = serialize(preset_config("p1"))
        good = [LedgerRecord(0, KIND_FULL, p1, 0.5, 200, "none", 1.0, 1.0, True, 0, 0)]
        path = tmp_path / "ledger.csv"
        write_ledger(path, good, {"seed": "7"})
        before = path.read_bytes()
        broken_config = [replace(good[0], config=f"a{line_break}b")]
        broken_reason = good + [replace(good[0], record_index=1, stop_reason=f"stop{line_break}", incumbent=False)]
        for records, header, match in (
            (broken_config, {"seed": "7"}, "config holds a line break"),
            (broken_reason, {"seed": "7"}, "stop_reason holds a line break"),
            (good, {"backend_cmd": f"python{line_break}trainer.py"}, "header backend_cmd holds a line break"),
        ):
            with pytest.raises(ValueError, match=match):
                write_ledger(path, records, header)
            assert path.read_bytes() == before
            assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.csv"]
        assert read_ledger(path) == ({"seed": "7"}, good)

    def test_codec_memory_is_bounded(self, tmp_path):
        # a p1 ledger of about 2.6k records and 1.1 MB
        result = run(settings(tmp_path / "out", bbe_budget=1000, seed=1, surrogate="r4",
                              stop_mode="scheduler+baseline"))
        assert len(result.records) > 2500
        path = tmp_path / "ledger.csv"
        tracemalloc.start()
        try:
            write_ledger(path, result.records, {"seed": "1"})
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            header, records = read_ledger(path)
            held, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert records == list(result.records)
        assert write_peak < size / 4
        assert read_peak - held < size / 4

    def test_non_ledger_rejected(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_ledger(path)

    def test_decreasing_cumulative_rejected(self, tmp_path):
        records = [
            LedgerRecord(0, KIND_FULL, "x=1", 0.5, 1, "none", 1.0, 2.0, True, 0, 0),
            LedgerRecord(1, KIND_FULL, "x=1", 0.5, 1, "none", 1.0, 1.0, False, 1, 0),
        ]
        path = tmp_path / "ledger.csv"
        write_ledger(path, records, {})
        with pytest.raises(ValueError):
            read_ledger(path)

    @pytest.mark.parametrize("edit", ["cut", "extra", "bad-score", "bad-kind", "bad-incumbent"])
    def test_wrong_field_count_rejected(self, tmp_path, edit):
        records = [LedgerRecord(i, KIND_FULL, "x=1", 0.5, 1, "none", 1.0, i + 1.0, True, i, 0) for i in range(2)]
        path = tmp_path / "ledger.csv"
        write_ledger(path, records, {"seed": "0"})
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        lines[-1] = {
            "cut": lines[-1][: len(lines[-1]) // 2],
            "extra": lines[-1] + ",7",
            "bad-score": ",".join(fields[:3] + ["x"] + fields[4:]),
            "bad-kind": ",".join(fields[:1] + ["fuII-eval"] + fields[2:]),
            "bad-incumbent": ",".join(fields[:8] + ["yes"] + fields[9:]),
        }[edit]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{path}:4: "):
            read_ledger(path)


class TestCli:
    def test_run_happy_path(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--preset", "p1",
                "--budget", "20",
                "--stop", "scheduler+baseline",
                "--rank", "r4",
                "--seed", "7",
                "--backend", "simulated",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / LEDGER_NAME).exists()
        out = capsys.readouterr().out
        assert "best score" in out

    def test_budget_zero_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--budget", "0", "--out", str(tmp_path / "out")])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_settings_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("preset = p2\nbudget = 15\nseed = 11\nstop = last-success\n")
        values = read_settings_file(cfg)
        assert values == {"preset": "p2", "budget": "15", "seed": "11", "stop": "last-success"}
        code = main(
            [
                "run",
                "--config-file", str(cfg),
                "--seed", "12",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        header, _ = read_ledger(tmp_path / "out" / LEDGER_NAME)
        assert header["seed"] == "12"  # flag wins
        assert header["stop_mode"] == "last-success"
        assert deserialize(header["initial"]).n_conv == 2

    def test_bad_settings_file_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("budget 15\n")
        with pytest.raises(ValueError):
            read_settings_file(cfg)

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MADSHPO_OUT_ROOT", str(tmp_path / "root"))
        s = CampaignSettings.from_text({"out": "exp1", "budget": "5"})
        assert s.out_dir == tmp_path / "root" / "exp1"

    def test_resume_and_export_commands(self, tmp_path):
        out = tmp_path / "out"
        argv = ["--budget", "25", "--seed", "4", "--out", str(out)]
        assert main(["run", *argv]) == 0
        full = (out / LEDGER_NAME).read_bytes()
        header, records = read_ledger(out / LEDGER_NAME)
        write_ledger(out / LEDGER_NAME, records[: len(records) // 2], header)
        assert main(["resume", *argv]) == 0
        assert (out / LEDGER_NAME).read_bytes() == full
        series = tmp_path / "series.csv"
        assert main(["export", "--ledger", str(out / LEDGER_NAME), "--out", str(series)]) == 0
        lines = series.read_text().splitlines()
        assert lines[0] == "bbe,epochs,cost_units,best_accuracy"
        assert len(lines) > 2

    @pytest.mark.parametrize("command", ["export", "resume"])
    def test_cut_ledger_row_is_a_clean_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = ["--budget", "5", "--seed", "4", "--out", str(out)]
        assert main(["run", *argv]) == 0
        text = (out / LEDGER_NAME).read_text()
        (out / LEDGER_NAME).write_text(text[: len(text) - 40])
        series = ["--ledger", str(out / LEDGER_NAME), "--out", str(tmp_path / "series.csv")]
        assert main([command, *(series if command == "export" else argv)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_export_scales_custom_surrogate_epochs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--budget", "10", "--rank-custom", "20,0.5,0.1", "--out", str(out)]) == 0
        series = tmp_path / "series.csv"
        assert main(["export", "--ledger", str(out / LEDGER_NAME), "--out", str(series)]) == 0
        _, records = read_ledger(out / LEDGER_NAME)
        assert any(r.kind == KIND_SURROGATE for r in records)
        written = [float(line.split(",")[2]) for line in series.read_text().splitlines()[1:]]
        assert written == [row[2] for row in export_convergence(records, surrogate_data_fraction=0.5)]

    def test_truncated_surrogate_header_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--budget", "5", "--rank-custom", "20,0.5,0.1", "--out", str(out)]) == 0
        header, records = read_ledger(out / LEDGER_NAME)
        write_ledger(out / LEDGER_NAME, records, {**header, "surrogate": "custom 20"})
        assert main(["export", "--ledger", str(out / LEDGER_NAME), "--out", str(tmp_path / "s.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_initial_config_file(self, tmp_path):
        init = tmp_path / "start.cfg"
        init.write_text(serialize(preset_config("p3")) + "\n")
        s = CampaignSettings.from_text({"initial": str(init), "budget": "5", "out": str(tmp_path / "o")})
        assert initial_config(s).n_conv == 5
