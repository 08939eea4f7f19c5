import csv
import io
import json
import re
import shlex
import sys
import tracemalloc
from dataclasses import replace
from inspect import ismodule

import pytest

import madshpo
from madshpo import campaign, mads
from madshpo.blackbox import FAILED_REASON, SimulatedBlackbox, simulate_curve
from madshpo.campaign import (
    LEDGER_NAME,
    SUMMARY_NAME,
    CampaignSettings,
    build_plan,
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
    KIND_RANKING,
    KIND_SURROGATE,
    LedgerRecord,
    encode_row,
    export_convergence,
    read_ledger,
    write_ledger,
)
from madshpo.space import SlotSpec, default_bounds, deserialize, dimension, preset_config, serialize


def settings(out_dir, **overrides):
    base = dict(preset="p1", bbe_budget=40, seed=3, out_dir=out_dir)
    base.update(overrides)
    return CampaignSettings(**base)


def failing_start_point(monkeypatch):
    """A p1 start point whose evaluation fails, with campaigns made to search
    a space with a linear learning-rate slot, which lets the simulator
    refuse rate 0."""
    default = default_bounds()
    bounds = replace(default, scalar_slots=(SlotSpec(0.0, 1.0, granularity=1e-3), *default.scalar_slots[1:]))
    monkeypatch.setattr(campaign, "default_bounds", lambda: bounds)
    return replace(preset_config("p1"), learning_rate=0.0)


def test_package_exports_only_its_campaign_entry_points():
    # every other name is imported from its own module
    public = {name for name, value in vars(madshpo).items()
              if not ismodule(value) and (not name.startswith("_") or name == "__version__")}
    assert public == {"CampaignSettings", "resume", "run", "__version__"}


class TestSettings:
    def test_presets_match_paper_dimensions(self):
        for name, dim in (("p1", 17), ("p2", 22), ("p3", 36)):
            config = preset_config(name)
            assert dimension(config.n_conv, config.n_fc) == dim

    def test_validation(self, tmp_path):
        # the settings refuse what no lower layer refuses before training
        with pytest.raises(ValueError, match="max_epochs must be >= 1"):
            CampaignSettings(max_epochs=0)
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            CampaignSettings(backend="gpu")
        # the plan refuses an external backend without a command (the adapter's
        # refusal), a cap below 0 and a floor above the start mesh, which would
        # end the campaign after its start point
        with pytest.raises(ValueError, match="external trainer command is empty"):
            build_plan(settings(tmp_path, backend="external"))
        with pytest.raises(ValueError, match="max_iterations must be >= 0"):
            build_plan(settings(tmp_path, max_iterations=-2))
        with pytest.raises(ValueError, match=f"min_mesh_index must be <= {mads.MAX_MESH_INDEX}"):
            build_plan(settings(tmp_path, min_mesh_index=mads.MAX_MESH_INDEX + 1))
        build_plan(settings(tmp_path, max_iterations=0, min_mesh_index=mads.MAX_MESH_INDEX))
        # the campaign loop refuses the budget, and the start point's
        # evaluation the stop mode and the preset, before any row is written
        with pytest.raises(ValueError, match="budget must be positive"):
            mads.run_campaign(preset_config("p1"), 0, build_plan(settings(tmp_path)))
        out = tmp_path / "out"
        for overrides, error in [(dict(bbe_budget=0), "budget must be positive"),
                                 (dict(stop_mode="bogus"), "unknown stopping mode 'bogus'"),
                                 (dict(preset="p9"), "unknown preset 'p9'")]:
            with pytest.raises(ValueError, match=error):
                run(settings(out, **overrides))
        assert not out.exists()

    def test_defaults_owned_by_other_types(self):
        s = CampaignSettings()
        assert (s.noise_sigma, s.max_epochs, s.min_mesh_index, s.charge_ranking) == (1e-4, 200, -50, True)

    def test_surrogate_is_checked_and_written_in_header_form(self, tmp_path):
        with pytest.raises(ValueError, match="unknown surrogate 'bogus'"):
            CampaignSettings(surrogate="bogus")
        for text in ("12,0.5,0.25", "custom 12 0.5 0.25"):
            s = settings(tmp_path, surrogate=text)
            assert s.surrogate == settings_header(s)["surrogate"] == "custom 12 0.5 0.25"
        assert settings(tmp_path, surrogate="R2").surrogate == "r2"

    def test_header_round_trip_strings(self, tmp_path):
        s = settings(tmp_path, max_iterations=7, surrogate="50,0.5,0.25")
        header = settings_header(s)
        assert header["max_iterations"] == "7"
        assert header["surrogate"].startswith("custom 50")
        assert deserialize(header["initial"]) == preset_config("p1")

    def test_settings_text_reads_lists_and_no_command_as_the_header_writes_them(self, tmp_path):
        s = CampaignSettings.from_text({"milestones": "5 10, 25", "margins": "0.5 0.6 0.7", "backend_cmd": "-"})
        assert (s.milestones, s.margins, s.external_command) == ((5, 10, 25), (0.5, 0.6, 0.7), None)
        header = settings_header(s)
        assert header["milestones"] == "5 10 25" and header["external_command"] == "-"
        assert campaign.header_settings(header, tmp_path / LEDGER_NAME)[0] == replace(s, initial=preset_config("p1"))
        with pytest.raises(ValueError, match="^milestones: invalid literal for int"):
            CampaignSettings.from_text({"milestones": "5,,10"})


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

    @pytest.mark.parametrize("sigma", [0.0, 0.002])
    def test_replay_equivalence_at_a_noise_level(self, tmp_path, sigma):
        # resume regenerates the incumbent's curve with the simulator the run trained with
        s, path, full_bytes = self.run_full(tmp_path, noise_sigma=sigma, surrogate="r4", seed=2)
        header, records = read_ledger(path)
        assert header["noise_sigma"] == str(sigma)
        self.assert_resumes_from(tmp_path, s, header, records, [1, len(records) // 3, (2 * len(records)) // 3],
                                 full_bytes)

    def assert_resumes_from(self, tmp_path, s, header, records, firsts, full_bytes):
        """Resume from a cut just after each given record; the ledger must come out whole."""
        for first in firsts:
            out = tmp_path / f"cut{first}"
            out.mkdir()
            write_ledger(out / LEDGER_NAME, records[: first + 1], header)
            resume(replace(s, out_dir=out))
            assert (out / LEDGER_NAME).read_bytes() == full_bytes, f"cut after record {first}"

    def test_resume_regenerates_only_the_incumbents_curve(self, tmp_path, monkeypatch):
        # the curves of the last iteration's baselines: the incumbent it polls
        # around and the one it ends with, here the same row
        s, path, full_bytes = self.run_full(tmp_path, surrogate="none")
        _, records = read_ledger(path)
        incumbents = [r for r in records if r.incumbent]
        assert len(incumbents) > 1 and incumbents[-1].iteration < records[-1].iteration
        calls = []
        real = campaign.simulate_curve

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign, "simulate_curve", counting)
        resume(s)
        model = SimulatedBlackbox(noise_sigma=s.noise_sigma).model_for(deserialize(incumbents[-1].config), s.seed)
        assert calls == [(model, incumbents[-1].epochs_used)]
        assert path.read_bytes() == full_bytes

    def test_resume_of_a_cut_ledger_regenerates_the_baselines_of_its_last_iteration(self, tmp_path, monkeypatch):
        # cut just after an improving training: the incumbent its iteration
        # polls around and that training's row
        s, path, _ = self.run_full(tmp_path, surrogate="none")
        header, records = read_ledger(path)
        last, polled = [i for i, r in enumerate(records) if r.incumbent][-2:][::-1]
        assert records[polled].iteration < records[last].iteration
        out = tmp_path / "cut"
        out.mkdir()
        write_ledger(out / LEDGER_NAME, records[:last + 1], header)
        calls = []
        real = campaign.simulate_curve
        monkeypatch.setattr(campaign, "simulate_curve", lambda *args: calls.append(args) or real(*args))
        resume(replace(s, out_dir=out))
        simulator = SimulatedBlackbox(noise_sigma=s.noise_sigma)
        assert calls == [(simulator.model_for(deserialize(records[i].config), s.seed), records[i].epochs_used)
                         for i in (polled, last)]

    def test_resuming_a_finished_campaign_trains_nothing(self, tmp_path, monkeypatch):
        s, path, full_bytes = self.run_full(tmp_path, surrogate="r4")
        summary = (tmp_path / "full" / SUMMARY_NAME).read_text()
        calls = []
        for name in ("evaluate", "final_accuracy"):
            real = getattr(SimulatedBlackbox, name)
            monkeypatch.setattr(SimulatedBlackbox, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        resume(s)
        assert calls == []
        assert path.read_bytes() == full_bytes

        def without_wall_seconds(text):
            return [line for line in text.splitlines() if '"wall_seconds"' not in line]

        assert without_wall_seconds((tmp_path / "full" / SUMMARY_NAME).read_text()) == without_wall_seconds(summary)

    def test_replay_equivalence_after_failed_start_point(self, tmp_path, monkeypatch):
        # a failed first evaluation leaves the start point the incumbent
        start = failing_start_point(monkeypatch)
        s = settings(tmp_path / "full", initial=start, bbe_budget=12, seed=1, surrogate="none")
        run(s)
        full_bytes = (tmp_path / "full" / LEDGER_NAME).read_bytes()
        header, records = read_ledger(tmp_path / "full" / LEDGER_NAME)
        assert records[0].stop_reason == FAILED_REASON and records[1].iteration == 1
        out = tmp_path / "cut"
        out.mkdir()
        write_ledger(out / LEDGER_NAME, records[:2], header)
        resume(replace(s, out_dir=out))
        assert (out / LEDGER_NAME).read_bytes() == full_bytes

    @staticmethod
    def assert_rebuilds_the_live_end_state(s):
        """The loop run against the whole ledger writes every row and stops
        in the live run's end state."""
        end = run(s)
        path = s.out_dir / LEDGER_NAME
        _, records = read_ledger(path)
        plan = build_plan(s)
        rebuilt = mads.continue_campaign(campaign._rebuild_state(s, plan, records, path), s.bbe_budget, plan)
        assert (rebuilt.incumbent.key, rebuilt.best_score) == (end.incumbent.key, end.best_score)
        assert (rebuilt.mesh, rebuilt.next_iteration, rebuilt.termination) == (
            end.mesh, end.next_iteration, end.termination)
        assert (rebuilt.records, rebuilt.cumulative) == (end.records, end.cumulative)
        assert all(a is b for a, b in zip(rebuilt.records, records))
        # the baseline is the incumbent's curve
        incumbent_row = [r for r in records if r.incumbent][-1]
        assert len(end.envelope.baseline_curve) == incumbent_row.epochs_used
        assert rebuilt.envelope.baseline_curve.val_accuracy == end.envelope.baseline_curve.val_accuracy

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("surrogate", ["none", "r4"])
    @pytest.mark.parametrize("stop_mode", MODES)
    @pytest.mark.parametrize("preset", ["p1", "p3"])
    def test_rebuilt_state_is_the_live_end_state(self, tmp_path, preset, stop_mode, surrogate, seed):
        s = settings(tmp_path / "full", preset=preset, stop_mode=stop_mode, surrogate=surrogate, seed=seed,
                     bbe_budget=60)
        self.assert_rebuilds_the_live_end_state(s)

    def test_rebuilt_state_is_the_live_end_state_after_failed_start_point(self, tmp_path, monkeypatch):
        start = failing_start_point(monkeypatch)
        s = settings(tmp_path / "full", initial=start, bbe_budget=12, seed=1, surrogate="none")
        self.assert_rebuilds_the_live_end_state(s)

    def test_completed_run_resume_is_noop(self, tmp_path):
        s, path, full_bytes = self.run_full(tmp_path)
        resume(s)
        assert path.read_bytes() == full_bytes

    @pytest.mark.parametrize("overrides", [
        dict(max_iterations=-1), dict(min_mesh_index=1), dict(milestones=(0, 10), margins=(0.5, 0.6)),
        dict(bbe_budget=0), dict(stop_mode="bogus"),
    ], ids=["negative-cap", "floor-above-start", "zero-milestone", "zero-budget", "unknown-stop-mode"])
    def test_refused_settings_leave_the_ledger_untouched(self, tmp_path, overrides):
        s, path, _ = self.run_full(tmp_path)
        header, records = read_ledger(path)
        write_ledger(path, records[: len(records) // 2], header)
        cut = path.read_bytes()
        with pytest.raises(ValueError):
            resume(replace(s, **overrides))
        assert path.read_bytes() == cut

    @pytest.mark.parametrize("edit, error", [
        # the same configuration, spelled as the writer never spells it
        (lambda r: dict(config=r.config.replace(" fc0=", " fc0=+")), "config {edited!r}, expected {key!r}"),
        (lambda r: dict(config=r.config.replace(" optimizer=", " optimiser=")), "config {edited!r}, expected {key!r}"),
        (lambda r: dict(epochs_used=201), "epochs_used 201 outside [1, 200]"),
    ], ids=["plus-signed-slot", "malformed-config", "epochs-above-max"])
    def test_an_incumbent_row_the_loop_does_not_write_is_refused(self, tmp_path, edit, error):
        s, path, _ = self.run_full(tmp_path)
        header, records = read_ledger(path)
        best = [r for r in records if r.incumbent][-1]
        assert best.record_index > 0
        records[best.record_index] = replace(best, **edit(best))
        write_ledger(path, records, header)
        edited = path.read_bytes()
        error = error.format(edited=records[best.record_index].config, key=best.config)
        with pytest.raises(ValueError, match=re.escape(f"{path}: record {best.record_index}: {error}")):
            resume(s)
        assert path.read_bytes() == edited

    def test_a_ledger_that_leaves_the_space_is_refused_before_any_training(self, tmp_path, monkeypatch):
        # the incumbent's row is the one the run wrote, but its configuration
        # lies outside the space the campaign resumes in; the loop polls only
        # inside it, so the first poll's estimates already differ
        s, path, before = self.run_full(tmp_path)
        _, records = read_ledger(path)
        best = [r for r in records if r.incumbent][-1]
        fc0 = deserialize(best.config).fc_sizes[0]
        bounds = replace(default_bounds(), fc_slot=SlotSpec(16, fc0 - 1, granularity=1))
        monkeypatch.setattr(campaign, "default_bounds", lambda: bounds)

        def no_training(*args):
            raise AssertionError("trained while rows were left")

        monkeypatch.setattr(SimulatedBlackbox, "evaluate", no_training)
        monkeypatch.setattr(SimulatedBlackbox, "final_accuracy", no_training)
        with pytest.raises(ValueError, match=re.escape(f"{path}: record 1: config ")):
            resume(s)
        assert path.read_bytes() == before

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
        estimate = LedgerRecord(0, KIND_SURROGATE, "x=1", 0.3, 200, "none", 0.1, 0.1, False, 1, 0)
        with pytest.raises(ValueError, match="ledger has no full evaluations"):
            export_convergence([estimate])

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

    def test_plain_fields_match_csv_writer(self):
        for fields in (list(COLUMNS), ["", ""], [serialize(preset_config("p1")), "none", "0.5"]):
            reference = io.StringIO()
            csv.writer(reference, lineterminator="\n").writerow(fields)
            assert encode_row(fields) == reference.getvalue()

    @pytest.mark.parametrize("column,value", [
        ("config", "a=1,b=2"), ("config", 'a="1"'), ("stop_reason", "stop, early"), ("stop_reason", '"early"'),
    ], ids=["config-comma", "config-quote", "stop_reason-comma", "stop_reason-quote"])
    def test_commas_and_quotes_refused_and_ledger_untouched(self, tmp_path, column, value):
        # read_ledger splits each line on commas and quotes nothing, so such
        # a field would write a row that cannot be read back
        p1 = serialize(preset_config("p1"))
        good = [LedgerRecord(0, KIND_FULL, p1, 0.5, 200, "none", 1.0, 1.0, True, 0, 0)]
        path = tmp_path / "ledger.csv"
        write_ledger(path, good, {"seed": "7"})
        before = path.read_bytes()
        broken = good + [replace(good[0], record_index=1, incumbent=False, **{column: value})]
        with pytest.raises(ValueError, match=f"^{column} holds a comma or quote: "):
            write_ledger(path, broken, {"seed": "7"})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.csv"]
        assert read_ledger(path) == ({"seed": "7"}, good)

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

    def test_rows_share_equal_text_and_records_have_no_dict(self, tmp_path):
        p1 = serialize(preset_config("p1"))
        path = tmp_path / "ledger.csv"
        write_ledger(path, [LedgerRecord(i, KIND_FULL, p1, 0.5, 1, "none", 1.0, i + 1.0, i == 0, i, 0)
                            for i in range(3)], {})
        _, records = read_ledger(path)
        assert records[1].config == p1
        for column in ("kind", "config", "stop_reason"):
            assert len({id(getattr(r, column)) for r in records}) == 1, column
        assert not hasattr(records[0], "__dict__")

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

    @pytest.mark.parametrize("edit", ["cut", "extra", "bad-score", "bad-kind", "bad-incumbent", "negative-epochs", "quote",
                                      "header-after-columns", "negative-charge"])
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
            "negative-epochs": ",".join(fields[:4] + ["-1"] + fields[5:]),
            "quote": ",".join(fields[:2] + ['"x=1"'] + fields[3:]),
            "header-after-columns": "# seed = 1",
            # the cumulative cost is the running sum, so only the sign is wrong
            "negative-charge": ",".join(fields[:6] + ["-1.0", "0.0"] + fields[8:]),
        }[edit]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{path}:4: "):
            read_ledger(path)


def _resequenced(records):
    """``records`` with the record indices and cumulative costs of their new order."""
    total, out = 0.0, []
    for i, record in enumerate(records):
        total += record.charged_cost
        out.append(replace(record, record_index=i, cumulative_cost=total))
    return out


# The first column in which each edited row differs from the row that the
# loop, run against the ledger, writes there: the ledger's value, then the loop's.
MISPLACED_REASONS = {
    "raised-mesh-index": "mesh_index 1, expected 0",
    "cleared-incumbent": "incumbent 0, expected 1",
    "iteration-out-of-order": "iteration 3, expected 4",
    "replaced-start-point": "config {records[1].config!r}, expected {records[0].config!r}",
    "lowered-ranking-pass": "score 0.6441, expected 0.6541",
    "deleted-ranking-pass": "kind 'full-eval', expected 'ranking-pass'",
    "second-start-point-row": "iteration 0, expected 1",
    "estimate-after-ranking-pass": "kind 'ranking-pass', expected 'surrogate-eval'",
    "repeated-ranking-pass": "kind 'ranking-pass', expected 'surrogate-eval'",
}


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

    @pytest.mark.parametrize("spelling", ["1", "true", "yes", "on", "TRUE"])
    def test_a_true_spelling_in_a_settings_file_writes_the_default_ledger(self, tmp_path, spelling):
        (tmp_path / "default.cfg").write_text("budget = 12\n")
        (tmp_path / "true.cfg").write_text(f"budget = 12\ncharge_ranking = {spelling}\n")
        (tmp_path / "false.cfg").write_text("budget = 12\ncharge_ranking = off\n")
        for name in ("default", "true", "false"):
            assert main(["run", "--config-file", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / name)]) == 0
        default = (tmp_path / "default" / LEDGER_NAME).read_bytes()
        assert (tmp_path / "true" / LEDGER_NAME).read_bytes() == default
        # free ranking passes write another ledger at this budget
        assert (tmp_path / "false" / LEDGER_NAME).read_bytes() != default

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

    def test_a_comment_after_a_value_is_not_part_of_it(self, tmp_path):
        # a one-epoch stub trainer that records its arguments
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import json, sys\n"
            "open(sys.argv[0] + '.argv', 'w').write(json.dumps(sys.argv[1:]))\n"
            "sys.stdin.readline()\n"
            "print('EPOCH 1 ACC 0.5 LOSS 1.0 LR 0.01', flush=True)\n"
            "sys.stdin.readline()\n"
            "print('DONE', flush=True)\n"
        )
        command = shlex.join([sys.executable, "-u", str(stub), "--tag=#1"])
        cfg = tmp_path / "commented.cfg"
        cfg.write_text(
            f"out = {tmp_path / 'demo'} # my run\n"
            "budget = 3  # three\n"
            "  # an indented comment line\n"
            "rank = none\t# unranked\n"
            "backend = external\n"
            f"backend_cmd = {command} # x\n"
        )
        assert read_settings_file(cfg) == {
            "out": str(tmp_path / "demo"), "budget": "3", "rank": "none", "backend": "external",
            "backend_cmd": command,
        }
        assert main(["run", "--config-file", str(cfg)]) == 0
        header, records = read_ledger(tmp_path / "demo" / LEDGER_NAME)
        assert (header["bbe_budget"], header["external_command"], len(records)) == ("3", command, 3)
        assert json.loads((tmp_path / "stub.py.argv").read_text()) == ["--tag=#1"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["commented.cfg", "demo", "stub.py", "stub.py.argv"]

    def test_no_successful_training_writes_null_best(self, tmp_path, capsys):
        # every child exits at once, so every training fails
        out = tmp_path / "out"
        child = f"{shlex.quote(sys.executable)} -c 'import sys; sys.exit(1)'"
        argv = ["run", "--preset", "p1", "--budget", "3", "--rank", "none", "--backend", "external",
                "--backend-cmd", child, "--out", str(out)]
        assert main(argv) == 0
        assert "best score: none" in capsys.readouterr().out

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((out / SUMMARY_NAME).read_text(), parse_constant=refuse)
        assert (summary["best_config"], summary["best_score"]) == (None, None)
        assert summary["full_evaluations"] == 3

    @pytest.mark.parametrize("sigma", ["-0.1", "nan", "inf"])
    def test_bad_noise_sigma_is_one_error_line_and_writes_nothing(self, tmp_path, capsys, sigma):
        out = tmp_path / "out"
        assert main(["run", "--budget", "3", "--noise-sigma", sigma, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: noise_sigma") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,error", [
        ("--rank", "10,0.5,nan", "error: rank: cost_ratio must lie in [0, 1]"),
        ("--margins", "0.5,nan,0.7,0.8,0.85,0.9,0.95", "error: margins must lie in (0, 1]"),
        ("--milestones", "0,10,25,50,100,125,150", "error: milestones must be epochs >= 1"),
        ("--max-iterations", "-1", "error: max_iterations must be >= 0"),
        ("--min-mesh-index", "1", "error: min_mesh_index must be <= 0"),
        ("--budget", "0", "error: budget must be positive"),
        # only the name none trains zero epochs
        ("--rank", "0,1.0,0.0", "error: rank: epoch_budget must be >= 1"),
        ("--rank", "custom 0 1.0 0.0", "error: rank: epoch_budget must be >= 1"),
    ], ids=["nan-cost-ratio", "nan-margin", "zero-milestone", "negative-cap", "floor-above-start", "zero-budget",
            "zero-epoch-triple", "zero-epoch-header-form"])
    def test_nan_setting_is_one_error_line_and_writes_nothing(self, tmp_path, capsys, flag, value, error):
        out = tmp_path / "out"
        assert main(["run", "--preset", "p1", "--budget", "5", flag, value, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == error + "\n"
        assert not out.exists()

    def test_a_triple_equal_to_a_table_row_writes_that_rows_ledger(self, tmp_path):
        ledgers = []
        for rank in ("25,1.0,0.125", "r1"):
            out = tmp_path / rank
            assert main(["run", "--budget", "10", "--seed", "7", "--rank", rank, "--out", str(out)]) == 0
            ledgers.append((out / LEDGER_NAME).read_bytes())
        assert ledgers[0] == ledgers[1]
        assert read_ledger(tmp_path / "r1" / LEDGER_NAME)[0]["surrogate"] == "r1"

    @pytest.mark.parametrize("command", ["export", "resume"])
    def test_a_ledger_from_another_start_point_is_refused(self, tmp_path, capsys, command):
        # export runs the loop from the header's start point, which does not
        # write record 0; resume compares the header with its settings first
        out = tmp_path / "out"
        argv = ["--preset", "p1", "--budget", "10", "--stop", "scheduler+baseline", "--rank", "r4", "--seed", "7",
                "--backend", "simulated", "--out", str(out)]
        assert main(["run", *argv]) == 0
        ledger = out / LEDGER_NAME
        header, records = read_ledger(ledger)
        assert len(records) == 40
        write_ledger(ledger, records, {**header, "initial": preset_config("p2").key})
        before = ledger.read_bytes()
        capsys.readouterr()
        series = ["--ledger", str(ledger), "--out", str(tmp_path / "series.csv")]
        assert main([command, *(series if command == "export" else argv)]) == 1
        error = {"export": f"{ledger}: record 0: config {records[0].config!r}, expected {preset_config('p2').key!r}",
                 "resume": "ledger settings do not match: initial"}[command]
        assert capsys.readouterr().err == f"error: {error}\n"
        assert ledger.read_bytes() == before

    def test_refused_resume_is_one_error_line_and_leaves_the_ledger(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--budget", "10", "--seed", "7", "--out", str(out)]
        assert main(["run", *argv]) == 0
        before = (out / LEDGER_NAME).read_bytes()
        capsys.readouterr()
        assert main(["resume", *argv, "--max-iterations", "-1"]) == 1
        assert capsys.readouterr().err == "error: max_iterations must be >= 0\n"
        assert (out / LEDGER_NAME).read_bytes() == before

    def test_a_header_value_with_blanks_around_it_resumes(self, tmp_path, capsys):
        # the header holds the value as read_ledger reads it back, so resume
        # finds the settings match; a command of blanks is no command
        out = tmp_path / "out"
        argv = ["--budget", "3", "--rank", "none", "--backend-cmd", " ", "--out", str(out)]
        assert main(["run", *argv]) == 0
        ran = (out / LEDGER_NAME).read_bytes()
        assert main(["resume", *argv]) == 0, capsys.readouterr().err
        assert (out / LEDGER_NAME).read_bytes() == ran
        assert b"# external_command = -\n" in ran

    @pytest.mark.parametrize("command", ["x", "x ", "python3 train.py"])
    @pytest.mark.parametrize("verb", ["run", "resume"])
    def test_the_simulated_backend_refuses_a_command(self, tmp_path, capsys, verb, command):
        # the header would record a command that nothing runs, and a resume without it would not match
        out = tmp_path / "out"
        argv = [verb, "--budget", "3", "--rank", "none", "--backend-cmd", command, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: backend_cmd: the simulated backend runs no command\n"
        assert not out.exists()
        with pytest.raises(ValueError, match="^backend_cmd: the simulated backend runs no command$"):
            build_plan(settings(out, external_command=command))

    @pytest.mark.parametrize("text, key, line", [
        ("seed = 1\nbudget = 5\nseed = 5\n", "seed", 3),
        ("max-epochs = 5\n# dashes and underscores spell one key\nmax_epochs = 6\n", "max_epochs", 3),
    ], ids=["seed", "dash-and-underscore"])
    def test_settings_file_key_given_twice_is_one_error_line(self, tmp_path, capsys, text, key, line):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=f":{line}: key '{key}' appears twice"):
            read_settings_file(cfg)
        out = tmp_path / "out"
        assert main(["run", "--config-file", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: key '{key}' appears twice\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("edit", [
        "deleted-row", "edited-cumulative", "negative-epochs", "header-after-columns",
        "repeated-header-key", "header-without-value",
    ])
    @pytest.mark.parametrize("command", ["export", "resume"])
    def test_rows_that_disagree_are_a_clean_error(self, tmp_path, capsys, command, edit):
        out = tmp_path / "out"
        argv = ["--preset", "p1", "--budget", "30", "--seed", "3", "--out", str(out)]
        assert main(["run", *argv]) == 0
        capsys.readouterr()
        ledger = out / LEDGER_NAME
        lines = ledger.read_text().splitlines(keepends=True)
        first = lines.index(encode_row(COLUMNS)) + 1
        at = first + 117
        fields = lines[at].rstrip("\n").split(",")
        assert fields[:2] == ["117", KIND_FULL]  # a full evaluation mid-run
        if edit == "deleted-row":
            # each row is whole, but record 118 now follows record 116
            del lines[at]
        elif edit == "edited-cumulative":
            cum = COLUMNS.index("cumulative_cost")
            fields[cum] = repr(float(fields[cum]) + 0.5)
            lines[at] = encode_row(fields)
        elif edit == "negative-epochs":
            # export's epochs axis would start at -200
            at = first
            fields = lines[at].rstrip("\n").split(",")
            fields[COLUMNS.index("epochs_used")] = "-200"
            lines[at] = encode_row(fields)
        elif edit == "header-after-columns":
            # export would scale the cost_units axis by r2's data fraction
            at = len(lines)
            lines.append("# surrogate = r2\n")
        elif edit == "repeated-header-key":
            # read as the last value, the header would claim seed 5 for seed 3's rows
            at = first - 1
            lines.insert(at, "# seed = 5\n")
        else:
            # read as key "garbage" with an empty value
            at = first - 1
            lines.insert(at, "# garbage\n")
        ledger.write_text("".join(lines))
        series = ["--ledger", str(ledger), "--out", str(tmp_path / "series.csv")]
        assert main([command, *(series if command == "export" else argv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ledger}:{at + 1}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["export", "resume"])
    @pytest.mark.parametrize("edit,first", [
        ("raised-mesh-index", 79), ("cleared-incumbent", 117), ("iteration-out-of-order", 123),
        ("replaced-start-point", 0), ("lowered-ranking-pass", 77), ("deleted-ranking-pass", 77),
        ("second-start-point-row", 1), ("estimate-after-ranking-pass", 76), ("repeated-ranking-pass", 79),
    ])
    def test_kept_rows_against_the_campaign_rules_are_a_clean_error(self, tmp_path, capsys, edit, first, command):
        # each edit keeps the ledger readable, and read alone every edited
        # row could have been written by some campaign
        out = tmp_path / "out"
        argv = ["--preset", "p1", "--budget", "30", "--seed", "3", "--out", str(out)]
        assert main(["run", *argv]) == 0
        capsys.readouterr()
        ledger = out / LEDGER_NAME
        header, records = read_ledger(ledger)
        assert (len(records), records[-1].iteration) == (235, 6)
        reason = MISPLACED_REASONS[edit].format(records=records)
        if edit == "raised-mesh-index":
            assert {r.mesh_index for r in records if r.iteration == 3} == {0}
            records = [replace(r, mesh_index=1) if r.iteration == 3 else r for r in records]
        elif edit == "cleared-incumbent":
            assert records[117].kind == KIND_FULL and records[117].incumbent
            records[117] = replace(records[117], incumbent=False)
        elif edit == "iteration-out-of-order":
            assert (records[123].kind, records[123].iteration) == (KIND_SURROGATE, 4)
            records[123] = replace(records[123], iteration=3)
        elif edit == "replaced-start-point":
            assert records[1].iteration == 1
            records[0] = replace(records[0], config=records[1].config)
        elif edit == "lowered-ranking-pass":
            assert (records[77].kind, records[77].iteration, records[77].score) == (KIND_RANKING, 2, 0.6541)
            records[77] = replace(records[77], score=records[77].score - 0.01)
        elif edit == "deleted-ranking-pass":
            # a ranking pass charges nothing, so only the record indices move
            assert (records[77].kind, records[77].charged_cost) == (KIND_RANKING, 0.0)
            records = [replace(r, record_index=i) for i, r in enumerate(records[:77] + records[78:])]
        elif edit == "second-start-point-row":
            assert (records[1].kind, records[1].iteration) == (KIND_SURROGATE, 1)
            records[1] = replace(records[1], iteration=0)
        elif edit == "estimate-after-ranking-pass":
            assert [r.kind for r in records[76:78]] == [KIND_SURROGATE, KIND_RANKING]
            records = _resequenced(records[:76] + [records[77], records[76]] + records[78:])
        else:
            assert [(r.kind, r.iteration) for r in records[77:80]] == [
                (KIND_RANKING, 2), (KIND_FULL, 2), (KIND_SURROGATE, 3)]
            records = _resequenced(records[:79] + [records[77]] + records[79:])
        write_ledger(ledger, records, header)
        series = ["--ledger", str(ledger), "--out", str(tmp_path / "series.csv")]
        assert main([command, *(series if command == "export" else argv)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ledger}: record {first}: {reason}\n"
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("command", ["export", "resume"])
    @pytest.mark.parametrize("edit,error", [
        ("charged-ranking-pass", "record 77: charged_cost 0.1, expected 0.0"),
        ("ranking-pass-epochs", "record 77: epochs_used 5, expected 0"),
        ("stopped-estimate", "record 1: stop_reason 'envelope-breach', expected 'none'"),
        ("estimates-without-a-surrogate", "record 1: kind 'surrogate-eval', expected 'full-eval'"),
        ("uncharged-ranking-header", "record 1: charged_cost 0.1, expected 0.0"),
        ("capped-epochs-header", "record 1: epochs_used 200, expected 50"),
        ("bad-charge-header", "header charge_ranking 'x': expected a boolean, got 'x'"),
        ("no-epochs-header", "header: max_epochs must be >= 1"),
        ("bad-surrogate-header", "header surrogate 'custom 20': unknown surrogate 'custom 20' "
                                 "(expected one of ['none', 'oracle', 'r1', 'r2', 'r3', 'r4'] or epochs,fraction,cost)"),
        ("bad-stop-header", "header stop_mode 'bogus': unknown stopping mode 'bogus' (expected one of "
                            "('none', 'default', 'last-success', 'scheduler', 'scheduler+baseline'))"),
        ("bad-milestones-header", "header milestones '5 x': invalid literal for int() with base 10: 'x'"),
        ("bad-seed-header", "header seed 'x': invalid literal for int() with base 10: 'x'"),
        ("negative-noise-header", "header: noise_sigma must be finite and >= 0, got -1.0"),
        ("short-margins-header", "header: milestones and margins must have equal length"),
        ("simulated-command-header", "header: backend_cmd: the simulated backend runs no command"),
        ("format-header", "header format '9': expected '1'"),
        ("unknown-key-header", "header tag 'mine': no setting has this key"),
    ])
    def test_rows_the_header_settings_rule_out_are_a_clean_error(self, tmp_path, capsys, edit, error, command):
        # only the settings its header records rule a row out; resume compares
        # the settings it is given with those before it runs the loop
        out = tmp_path / "out"
        argv = ["--preset", "p1", "--budget", "30", "--seed", "3", "--out", str(out)]
        assert main(["run", *argv]) == 0
        capsys.readouterr()
        ledger = out / LEDGER_NAME
        header, records = read_ledger(ledger)
        assert (records[1].kind, records[77].kind, records[1].charged_cost) == (KIND_SURROGATE, KIND_RANKING, 0.1)
        if edit == "charged-ranking-pass":
            records[77] = replace(records[77], charged_cost=0.1)
        elif edit == "ranking-pass-epochs":
            records[77] = replace(records[77], epochs_used=5)
        elif edit == "stopped-estimate":
            records[1] = replace(records[1], stop_reason="envelope-breach")
        else:
            if edit == "capped-epochs-header":
                # the start point's training then holds to the header too, and
                # the ledger is cut before the first full training of a poll
                assert records[39].kind == KIND_FULL
                model = SimulatedBlackbox().model_for(preset_config("p1"), 3)
                records[0] = replace(records[0], epochs_used=50, score=simulate_curve(model, 50).best_accuracy())
                records = records[:39]
            header = {**header, **{
                "estimates-without-a-surrogate": {"surrogate": "none"},
                "uncharged-ranking-header": {"charge_ranking": "0"},
                "capped-epochs-header": {"max_epochs": "50"},
                "bad-charge-header": {"charge_ranking": "x"},
                "no-epochs-header": {"max_epochs": "0"},
                "bad-surrogate-header": {"surrogate": "custom 20"},
                "bad-stop-header": {"stop_mode": "bogus"},
                "bad-milestones-header": {"milestones": "5 x"},
                "bad-seed-header": {"seed": "x"},
                "negative-noise-header": {"noise_sigma": "-1"},
                "short-margins-header": {"margins": "0.5 0.6"},
                "simulated-command-header": {"external_command": "python3 train.py"},
                "format-header": {"format": "9"},
                "unknown-key-header": {"tag": "mine"},
            }[edit]}
        write_ledger(ledger, _resequenced(records), header)
        before = ledger.read_bytes()
        series = ["--ledger", str(ledger), "--out", str(tmp_path / "series.csv")]
        assert main([command, *(series if command == "export" else argv)]) == 1
        mismatched = {"estimates-without-a-surrogate": "surrogate", "uncharged-ranking-header": "charge_ranking",
                      "capped-epochs-header": "max_epochs"}
        if command == "resume" and edit in mismatched:
            error = f"ledger settings do not match: {mismatched[edit]}"
        else:
            error = f"{ledger}: {error}"
        assert capsys.readouterr().err == f"error: {error}\n"
        assert ledger.read_bytes() == before

    @pytest.mark.parametrize("key, edit, error", [
        ("charge_ranking", {"charged_cost": 0.0}, "charged_cost 0.0, expected 0.1"),
        ("max_epochs", {"epochs_used": 7}, "epochs_used 7, expected 200"),
        ("surrogate", {"charged_cost": 0.0}, "charged_cost 0.0, expected 0.1"),
    ], ids=["charge_ranking", "max_epochs", "surrogate"])
    def test_a_header_without_a_setting_holds_the_rows_to_its_default(self, tmp_path, capsys, key, edit, error):
        # the run's settings are the defaults, so its rows pass and the edited one is refused
        out = tmp_path / "out"
        ledger = out / LEDGER_NAME
        assert main(["run", "--budget", "10", "--out", str(out)]) == 0
        header, records = read_ledger(ledger)
        del header[key]
        assert records[1].kind == KIND_SURROGATE
        series = ["export", "--ledger", str(ledger), "--out", str(tmp_path / "series.csv")]
        write_ledger(ledger, records, header)
        assert main(series) == 0
        records[1] = replace(records[1], **edit)
        write_ledger(ledger, _resequenced(records), header)
        before = ledger.read_bytes()
        capsys.readouterr()
        assert main(series) == 1
        assert capsys.readouterr().err == f"error: {ledger}: record 1: {error}\n"
        assert ledger.read_bytes() == before

    def test_export_without_initial_header_starts_from_the_stock_start_point(self, tmp_path, capsys):
        out = tmp_path / "out"
        ledger = out / LEDGER_NAME
        assert main(["run", "--budget", "10", "--out", str(out)]) == 0
        header, records = read_ledger(ledger)
        del header["initial"]
        series = ["export", "--ledger", str(ledger), "--out", str(tmp_path / "series.csv")]
        write_ledger(ledger, records, header)
        assert main(series) == 0
        records[0] = replace(records[0], config=records[1].config)
        write_ledger(ledger, records, header)
        capsys.readouterr()
        assert main(series) == 1
        assert capsys.readouterr().err == (
            f"error: {ledger}: record 0: config {records[1].config!r}, expected {preset_config('p1').key!r}\n")

    def test_export_scales_custom_triple_epochs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--budget", "10", "--rank", "20,0.5,0.1", "--out", str(out)]) == 0
        series = tmp_path / "series.csv"
        assert main(["export", "--ledger", str(out / LEDGER_NAME), "--out", str(series)]) == 0
        _, records = read_ledger(out / LEDGER_NAME)
        assert any(r.kind == KIND_SURROGATE for r in records)
        written = [float(line.split(",")[2]) for line in series.read_text().splitlines()[1:]]
        assert written == [row[2] for row in export_convergence(records, surrogate_data_fraction=0.5)]

    def test_truncated_surrogate_header_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--budget", "5", "--rank", "20,0.5,0.1", "--out", str(out)]) == 0
        header, records = read_ledger(out / LEDGER_NAME)
        write_ledger(out / LEDGER_NAME, records, {**header, "surrogate": "custom 20"})
        assert main(["export", "--ledger", str(out / LEDGER_NAME), "--out", str(tmp_path / "s.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_initial_config_file(self, tmp_path):
        init = tmp_path / "start.cfg"
        init.write_text(serialize(preset_config("p3")) + "\n")
        s = CampaignSettings.from_text({"initial": str(init), "budget": "5", "out": str(tmp_path / "o")})
        assert initial_config(s).n_conv == 5
