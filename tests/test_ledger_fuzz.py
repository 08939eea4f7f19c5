"""Resume refuses what export refuses: named repros and a seeded ledger fuzzer.

Every case edits a finished campaign's ledger, most the README
quickstart's (p1, ``r4``, ``scheduler+baseline``, seed 7, budget 10: 40
rows, iterations 0 and 1), and runs ``madshpo export`` and ``madshpo
resume`` on it in-process.  The rule is one: if resume accepts a ledger,
export accepts that ledger and the one resume writes.  Every refusal is
exit 1 with one ``error:`` line, and a refused resume leaves the ledger
byte-identical.
"""

import random

import pytest

from madshpo.blackbox import FAILED_REASON
from madshpo.campaign import LEDGER_NAME
from madshpo.cli import main
from madshpo.ledger import COLUMNS, KIND_FULL, KIND_SURROGATE, encode_row

QUICKSTART = ["--preset", "p1", "--budget", "10", "--stop", "scheduler+baseline", "--rank", "r4", "--seed", "7",
              "--backend", "simulated"]

# Field values the writer never writes, some read as another value (٣ is 3,
# 1_0 is 10) and some as the same one (01, " 1", "+1", 0200).
TOKENS = ("٣", "1_0", "01", " 1", "1 ", "+1", "nan", "inf", "0200", "0", "1", "2", "-1", "150", "200", "0.99",
          "1.0", "1e0", "", "x")
# Charges, which the edit that sets one re-sums, and estimate epochs: the
# header's settings allow only 0.0, 0.1 or 1.0 by kind, and 200 epochs.
CHARGES = ("0.0", "0.1", "1.0", "1e0", "0.5", "0.05", "2.0")
EPOCHS = ("0", "1", "7", "199", "200", "0200", "201")
# A full training's stop reason and epochs: the header allows the reasons of
# its stop mode, and epochs at milestones or 200 by reason.
REASONS = ("none", "evaluation-failed", "envelope-breach", "scheduler-lr-floor", "last-success",
           "default-low-accuracy", "default-loss-plateau", "stopped")
FULL_EPOCHS = ("0", "1", "5", "7", "50", "124", "125", "199", "200", "201", "500")
# Scores outside [0, 1], which the header allows no row.
SCORES = ("nan", "inf", "-inf", "-0.1", "-1e-300", "1.0000000000000002", "1.5", "100")
# The edits that set one column of a row of one kind: (kind, column, values).
COLUMN_EDITS = {
    "estimate-epochs": (KIND_SURROGATE, "epochs_used", EPOCHS),
    "full-reason": (KIND_FULL, "stop_reason", REASONS),
    "full-epochs": (KIND_FULL, "epochs_used", FULL_EPOCHS),
    "estimate-score": (KIND_SURROGATE, "score", SCORES),
}


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    out = tmp_path_factory.mktemp("quickstart")
    assert main(["run", *QUICKSTART, "--out", str(out)]) == 0
    lines = (out / LEDGER_NAME).read_text().splitlines(keepends=True)
    assert len(lines) - lines.index(encode_row(COLUMNS)) - 1 == 40
    return lines


def _cli(capsys, argv) -> tuple[int, str]:
    """Exit code and stderr of one command; a refusal is exit 1 with one ``error:`` line."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1), argv
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, err


def _export(capsys, ledger):
    return _cli(capsys, ["export", "--ledger", str(ledger), "--out", str(ledger.parent / "series.csv")])


def _resume(capsys, ledger, flags=QUICKSTART):
    return _cli(capsys, ["resume", *flags, "--out", str(ledger.parent)])


def _set_field(lines, record, column, value):
    """``lines`` with one field of record ``record`` set to ``value``."""
    at = lines.index(encode_row(COLUMNS)) + 1 + record
    fields = lines[at].rstrip("\n").split(",")
    assert fields[0] == str(record)
    fields[COLUMNS.index(column)] = value
    return [*lines[:at], ",".join(fields) + "\n", *lines[at + 1:]]


def _set_header(lines, key, value):
    """``lines`` with header ``key`` set to ``value``."""
    edited = [f"# {key} = {value}\n" if line.startswith(f"# {key} = ") else line for line in lines]
    assert edited != lines
    return edited


def _resummed(lines):
    """``lines`` with every ``cumulative_cost`` the running sum of ``charged_cost``, summed as the writer sums."""
    first = lines.index(encode_row(COLUMNS)) + 1
    charge, cumulative = COLUMNS.index("charged_cost"), COLUMNS.index("cumulative_cost")
    total = 0.0
    out = lines[:first]
    for line in lines[first:]:
        fields = line.rstrip("\n").split(",")
        total += float(fields[charge])
        fields[cumulative] = repr(total)
        out.append(",".join(fields) + "\n")
    return out


# p1 ranked with r4 at seed 3: record 0 is the start point, record 1 an estimate
# of 200 epochs charged 0.1, and the campaign runs past record 1's iteration
REPRO = ["--preset", "p1", "--rank", "r4", "--seed", "3", "--budget", "40"]


@pytest.fixture(scope="module")
def repro(tmp_path_factory):
    out = tmp_path_factory.mktemp("repro")
    assert main(["run", *REPRO, "--out", str(out)]) == 0
    return (out / LEDGER_NAME).read_text().splitlines(keepends=True)


@pytest.mark.parametrize("record, column, value, error", [
    (1, "charged_cost", "0.0", "charged_cost 0.0, expected 0.1"),
    (0, "charged_cost", "0.5", "charged_cost 0.5, expected 1.0"),
    (1, "epochs_used", "7", "epochs_used 7, expected 200"),
], ids=["free-estimate", "half-charged-start-point", "short-estimate"])
def test_a_charge_or_estimate_epochs_the_header_rules_out_is_refused(tmp_path, capsys, repro, record, column,
                                                                      value, error):
    # each edit re-sums cumulative_cost, so the rows agree with each other
    # and replay; only the header's settings rule the row out
    ledger = tmp_path / LEDGER_NAME
    ledger.write_text("".join(_resummed(_set_field(repro, record, column, value))))
    before = ledger.read_bytes()
    assert _export(capsys, ledger) == (1, f"error: {ledger}: record {record}: {error}\n")
    assert _resume(capsys, ledger, REPRO) == (1, f"error: {ledger}: record {record}: {error}\n")
    assert ledger.read_bytes() == before


# p1 unranked at seed 3 under scheduler+baseline: record 1 trains 200 epochs
# with stop reason none, records 2 and 3 are envelope breaches at epochs 125
# and 50, and the campaign runs past record 3's iteration
UNRANKED = ["--preset", "p1", "--rank", "none", "--seed", "3", "--budget", "30"]


@pytest.fixture(scope="module")
def unranked(tmp_path_factory):
    out = tmp_path_factory.mktemp("unranked")
    assert main(["run", *UNRANKED, "--out", str(out)]) == 0
    return (out / LEDGER_NAME).read_text().splitlines(keepends=True)


@pytest.mark.parametrize("record, column, value, error", [
    (2, "stop_reason", "last-success",
     "stop_reason 'last-success', expected one of ('none', 'evaluation-failed', 'envelope-breach', "
     "'scheduler-lr-floor')"),
    (2, "epochs_used", "500", "epochs_used 500 outside [1, 200]"),
    (1, "epochs_used", "7", "epochs_used 7, expected 200"),
    (2, "stop_reason", "evaluation-failed", "epochs_used 125, expected 0 for stop_reason 'evaluation-failed'"),
    (3, "epochs_used", "0", "epochs_used 0 outside [1, 200]"),
], ids=["reason-of-another-mode", "epochs-above-max", "short-unstopped-training", "failure-with-epochs",
        "breach-at-epoch-0"])
def test_a_full_training_the_header_rules_out_is_refused(tmp_path, capsys, unranked, record, column, value, error):
    # no edit moves a charge or an incumbent flag, so the rows replay; only
    # the header's stop mode, max_epochs and backend rule the training out
    assert [unranked[unranked.index(encode_row(COLUMNS)) + 1 + r].split(",")[4:6] for r in (1, 2, 3)] == [
        ["200", "none"], ["125", "envelope-breach"], ["50", "envelope-breach"]]
    ledger = tmp_path / LEDGER_NAME
    ledger.write_text("".join(_set_field(unranked, record, column, value)))
    before = ledger.read_bytes()
    assert _export(capsys, ledger) == (1, f"error: {ledger}: record {record}: {error}\n")
    assert _resume(capsys, ledger, UNRANKED) == (1, f"error: {ledger}: record {record}: {error}\n")
    assert ledger.read_bytes() == before


@pytest.mark.parametrize("key, record, column, value", [
    ("stop_mode", 2, "stop_reason", "last-success"),
    ("max_epochs", 1, "epochs_used", "500"),
    ("milestones", 2, "epochs_used", "124"),
    ("backend", 1, "epochs_used", "7"),
    # a loop bound, set in the header itself below what the rows reach
    ("bbe_budget", None, None, "12"),
    ("max_iterations", None, None, "2"),
    ("min_mesh_index", None, None, "1"),
])
def test_a_header_without_a_setting_holds_the_rows_to_its_default(tmp_path, capsys, unranked, key, record, column,
                                                                   value):
    lines = _set_header(unranked, key, value) if record is None else _set_field(unranked, record, column, value)
    ledger = tmp_path / LEDGER_NAME
    ledger.write_text("".join(lines))
    refused = _export(capsys, ledger)
    assert refused[0] == 1
    ledger.write_text("".join(line for line in lines if not line.startswith(f"# {key} = ")))
    # the run's training settings are the defaults, so the same row is
    # refused; a loop bound's default lies beyond every row
    assert _export(capsys, ledger) == ((0, "") if record is None else refused)


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """The lines of the ledger of a finished campaign run with the given flags, each run once."""
    ledgers = {}

    def lines(flags):
        if tuple(flags) not in ledgers:
            out = tmp_path_factory.mktemp("finished")
            assert main(["run", *flags, "--out", str(out)]) == 0
            ledgers[tuple(flags)] = (out / LEDGER_NAME).read_text().splitlines(keepends=True)
        return ledgers[tuple(flags)]

    return lines


# p1 ranked with r4 at seed 1: records 0 to 362 lie on mesh 0 and record 363,
# the first of iteration 9, on mesh -1
MESHED = ["--preset", "p1", "--seed", "1", "--budget", "200"]


# a header's loop bound, lowered below the rows: (flags of the run, header key,
# its flag, the lowered value, the first row beyond it, the error)
@pytest.mark.parametrize("flags, key, flag, value, record, error", [
    (UNRANKED, "bbe_budget", "--budget", "12", 12, "after the loop stopped (budget)"),
    (UNRANKED, "max_iterations", "--max-iterations", "2", 10, "after the loop stopped (iterations)"),
    (MESHED, "min_mesh_index", "--min-mesh-index", "0", 363, "after the loop stopped (mesh)"),
], ids=["over-budget", "past-iteration-cap", "below-mesh-floor"])
def test_a_row_beyond_a_loop_bound_of_the_header_is_refused(tmp_path, capsys, finished, flags, key, flag, value,
                                                            record, error):
    # the loop writes the rows before the bound as the run wrote them, and
    # resume is given the lowered setting, so the settings match; the loop
    # stops at the bound, leaving the rows beyond it over
    ledger = tmp_path / LEDGER_NAME
    ledger.write_text("".join(_set_header(finished(flags), key, value)))
    before = ledger.read_bytes()
    assert _export(capsys, ledger) == (1, f"error: {ledger}: record {record}: {error}\n")
    assert _resume(capsys, ledger, [*flags, flag, value]) == (1, f"error: {ledger}: record {record}: {error}\n")
    assert ledger.read_bytes() == before


# p1 ranked with r4 at seed 3: records 1 to 37 are the estimates of iteration
# 1, best first, and record 43 is one of iteration 2 whose configuration has
# an fc0 slot
RANKED = ["--preset", "p1", "--seed", "3", "--budget", "30"]


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.5"], ids=["nan-score", "score-above-1", "negative-score"])
def test_a_score_outside_0_1_is_refused(tmp_path, capsys, finished, value):
    ledger = tmp_path / LEDGER_NAME
    ledger.write_text("".join(_set_field(finished(RANKED), 2, "score", value)))
    before = ledger.read_bytes()
    assert _export(capsys, ledger) == (1, f"error: {ledger}: record 2: score {value} outside [0, 1]\n")
    assert _resume(capsys, ledger, RANKED) == (1, f"error: {ledger}: record 2: score {value} outside [0, 1]\n")
    assert ledger.read_bytes() == before


@pytest.mark.parametrize("record, column, value", [
    # record 6 is an estimate in the middle of iteration 1, moved to iteration 2
    (6, "iteration", "2"),
    # record 39's incumbent flag then disagrees
    (0, "score", "0.99"),
], ids=["hole-1-iteration", "hole-1-score"])
def test_resume_refuses_a_row_export_refuses_with_the_same_line(tmp_path, capsys, quickstart, record, column, value):
    ledger = tmp_path / LEDGER_NAME
    ledger.write_text("".join(_set_field(quickstart, record, column, value)))
    before = ledger.read_bytes()
    code, export_err = _export(capsys, ledger)
    assert code == 1 and export_err.startswith(f"error: {ledger}: record ")
    assert _resume(capsys, ledger) == (1, export_err)
    assert ledger.read_bytes() == before


@pytest.mark.parametrize("record, value, best", [
    # record 0, the start point, is the incumbent that the last iteration
    # polls around, and its edited score is still below record 39's
    (0, "0.5", "0.6837000000000001"),
    # record 39 is the last incumbent
    (39, "0.9", "0.7587"),
], ids=["start-point", "last-incumbent"])
def test_an_incumbent_row_its_curve_does_not_reproduce_is_refused(tmp_path, capsys, quickstart, record, value, best):
    # the loop regenerates the training of each baseline of the last
    # iteration, whose best accuracy is not the edited score
    ledger = tmp_path / LEDGER_NAME
    ledger.write_text("".join(_set_field(quickstart, record, "score", value)))
    before = ledger.read_bytes()
    error = f"error: {ledger}: record {record}: score {value}, expected {best}\n"
    assert _export(capsys, ledger) == (1, error)
    assert _resume(capsys, ledger) == (1, error)
    assert ledger.read_bytes() == before


@pytest.mark.parametrize("record", [0, 39], ids=["start-point", "last-incumbent"])
def test_a_failed_training_flagged_incumbent_is_refused_without_regenerating_it(tmp_path, capsys, caplog, quickstart,
                                                                               record):
    # a failure has no curve to regenerate, so the tape answers with the
    # row, and the loop's incumbent rule refuses the flag
    lines = quickstart
    for column, value in (("score", "0.0"), ("epochs_used", "0"), ("stop_reason", FAILED_REASON)):
        lines = _set_field(lines, record, column, value)
    ledger = tmp_path / LEDGER_NAME
    ledger.write_text("".join(lines))
    before = ledger.read_bytes()
    error = f"error: {ledger}: record {record}: incumbent 1, expected 0\n"
    assert _export(capsys, ledger) == (1, error)
    assert _resume(capsys, ledger) == (1, error)
    assert ledger.read_bytes() == before
    assert not caplog.records


def _plus_signed_fc0(lines, record):
    """``lines`` with the fc0 slot of record ``record`` spelled with a plus sign, as the writer never spells it."""
    at = lines.index(encode_row(COLUMNS)) + 1 + record
    assert lines[at].startswith(f"{record},") and " fc0=" in lines[at]
    return [*lines[:at], lines[at].replace(" fc0=", " fc0=+"), *lines[at + 1:]]


@pytest.mark.parametrize("edit, record", [
    # the key of the configuration that the loop estimates is not in its
    # iteration's estimates, so that one scores worst and the rows after
    # the edited one shift up
    (lambda lines: _plus_signed_fc0(lines, 43), 43),
    # an estimate scored below the rows after it: the loop ranks it later
    (lambda lines: _set_field(lines, 5, "score", "0.3"), 5),
], ids=["plus-signed-estimate", "lowered-estimate"])
def test_an_estimate_the_loop_does_not_rank_there_is_refused(tmp_path, capsys, finished, edit, record):
    # the first column that differs is the config the loop ranks at the edited row
    ledger = tmp_path / LEDGER_NAME
    ledger.write_text("".join(edit(finished(RANKED))))
    before = ledger.read_bytes()
    code, err = _export(capsys, ledger)
    assert code == 1 and err.startswith(f"error: {ledger}: record {record}: config '")
    assert _resume(capsys, ledger, RANKED) == (1, err)
    assert ledger.read_bytes() == before


def _edit(rng, lines):
    """One seeded edit of a ledger's lines, in place; returns what it did."""
    first = lines.index(encode_row(COLUMNS)) + 1
    at = rng.randrange(first, len(lines))
    kind = rng.choice(("field", "field", "slot", "drop", "duplicate", "swap", "truncate", "header", "charge",
                       *COLUMN_EDITS))
    if kind == "charge":
        fields = lines[at].split(",")
        fields[COLUMNS.index("charged_cost")] = rng.choice(CHARGES)
        lines[at] = ",".join(fields)
        lines[:] = _resummed(lines)
        return f"charge of line {at + 1}, re-summed: {fields[COLUMNS.index('charged_cost')]!r}"
    if kind in COLUMN_EDITS:
        row_kind, column, values = COLUMN_EDITS[kind]
        at = rng.choice([i for i in range(first, len(lines)) if lines[i].split(",")[1] == row_kind])
        fields = lines[at].split(",")
        fields[COLUMNS.index(column)] = rng.choice(values)
        lines[at] = ",".join(fields)
        return f"{column} of {row_kind} line {at + 1}: {fields[COLUMNS.index(column)]!r}"
    if kind in ("field", "slot"):
        fields = lines[at].rstrip("\n").split(",")
        column = rng.randrange(len(fields)) if kind == "field" else COLUMNS.index("config")
        if kind == "slot":
            tokens = fields[column].split(" ")
            i = rng.randrange(len(tokens))
            tokens[i] = tokens[i].partition("=")[0] + "=" + rng.choice(TOKENS)
            fields[column] = " ".join(tokens)
        else:
            fields[column] = rng.choice(TOKENS)
        lines[at] = ",".join(fields) + "\n"
        return f"{kind} {COLUMNS[column]} of line {at + 1}: {fields[column]!r}"
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = rng.randrange(first, len(lines))
        lines[at], lines[other] = lines[other], lines[at]
        return f"swap lines {at + 1} and {other + 1}"
    elif kind == "truncate":
        lines[at] = lines[at][:rng.randrange(len(lines[at]) - 1)] + "\n"
    else:
        at = rng.randrange(first - 1)
        lines[at] = f"{lines[at].partition('=')[0]}= {rng.choice(TOKENS)}\n"
        return f"header line {at + 1}: {lines[at]!r}"
    return f"{kind} line {at + 1}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_resume_accepts_only_what_export_accepts(tmp_path, capsys, quickstart, seed):
    rng = random.Random(seed)
    ledger = tmp_path / LEDGER_NAME
    accepted = 0
    for _ in range(100):
        lines = list(quickstart)
        what = _edit(rng, lines)
        ledger.write_text("".join(lines))
        before = ledger.read_bytes()
        export_code, _ = _export(capsys, ledger)
        if _resume(capsys, ledger)[0]:
            assert ledger.read_bytes() == before, what
        else:
            accepted += 1
            assert export_code == 0, what
            assert _export(capsys, ledger)[0] == 0, what
    # the edits reach both outcomes
    assert 0 < accepted < 100
