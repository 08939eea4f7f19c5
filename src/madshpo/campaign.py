"""Campaign settings, persistence, and the ledger check that export and resume share.

``CampaignSettings`` is the one table of run settings: each field carries
its settings-file key (also its command-line flag), its parser from text
and its ``argparse`` options, and says whether the ledger header records
it.

A campaign writes ``ledger.csv`` (with its settings as header comments)
and ``summary.json`` into its output directory.  Export and resume check
a ledger by running the campaign loop of its header's settings against
its rows (``mads.Tape``), which must write the same rows.  Export trains
nothing past the rows; resume trains on from there, and because every
source of randomness is derived from the seed, the final file is
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping

from . import mads
from .blackbox import (
    FAILED_REASON,
    WORST_SCORE,
    EvaluationRequest,
    ProcessAdapter,
    SimulatedBlackbox,
    external_evaluate,
    simulate_curve,
)
# benchmark/tracing.py wraps update_baseline by this name, so it stays a module attribute here.
from .early_stop import (DEFAULT_MARGINS, DEFAULT_MILESTONES, MODES, REASON_ENVELOPE, REASON_NONE,  # noqa: F401
                         stop_reasons, update_baseline)
from .ledger import KIND_FULL, LedgerRecord, read_ledger, write_ledger
# benchmark/tracing.py wraps serialize by this name; Configuration.key calls it.
from .space import Configuration, default_bounds, deserialize, preset_config, serialize  # noqa: F401
from .surrogates import surrogate_by_name

LEDGER_NAME = "ledger.csv"
SUMMARY_NAME = "summary.json"
FORMAT_VERSION = "1"
OUT_ROOT_ENV = "MADSHPO_OUT_ROOT"
BACKENDS = ("simulated", "external")


def _setting(default, parse: Callable[[str], object], *, key: str | None = None,
             flag: str | None = None, header: bool = True, **options):
    """One campaign setting.

    ``key`` (the field name if not given) is its settings-file key, and
    ``--key`` with dashes for underscores its flag unless ``flag`` names
    another; ``parse`` turns the text of either into a value; ``header``
    says whether the ledger header records it; ``options`` go to argparse.
    """
    metadata = {"key": key, "flag": flag, "parse": parse, "header": header, "options": options}
    return field(default=default, metadata=metadata)


def _comma_list(kind: Callable[[str], object]) -> Callable[[str], tuple]:
    """A list separated by commas or, as the header writes it, by blanks."""
    return lambda text: tuple(kind(x) for x in re.split(r"\s*,\s*|\s+", text.strip()))


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _optional(kind: Callable[[str], object]) -> Callable[[str], object]:
    """A setting that may be unset: None for ``-`` (how the header writes None)
    or blank text, and any other text read by ``kind``."""
    return lambda text: None if text.strip() in ("", "-") else kind(text)


def _parse_stop_mode(text: str) -> str:
    stop_reasons(text)  # refuses an unknown mode
    return text


def _surrogate_text(text: str) -> str:
    """The surrogate ``text`` names, checked, in the header form of ``SurrogateSpec.text`` or ``none``."""
    spec = surrogate_by_name(text)
    return "none" if spec is None else spec.text


@dataclass(frozen=True)
class CampaignSettings:
    preset: str = _setting("p1", str, header=False, choices=("p1", "p2", "p3"), help="starting configuration")
    initial: Configuration | None = _setting(
        None, lambda path: deserialize(Path(path).read_text().strip()), header=False,
        help="file holding a serialized configuration")
    seed: int = _setting(0, int, help="random seed")
    bbe_budget: int = _setting(200, int, key="budget", help="blackbox-evaluation budget")
    max_epochs: int = _setting(EvaluationRequest.max_epochs, int, help="epochs of one full training")
    stop_mode: str = _setting("scheduler+baseline", _parse_stop_mode, key="stop", choices=MODES,
                              help="early-stopping strategy")
    surrogate: str = _setting("r4", _surrogate_text, key="rank",
                              help="ranking surrogate: r1..r4, oracle, none, or epochs,fraction,cost")
    out_dir: Path = _setting(Path("campaign-out"), Path, key="out", header=False,
                             help="output directory (ledger + summary)")
    backend: str = _setting("simulated", str, choices=BACKENDS, help="trainer backend")
    external_command: str | None = _setting(None, _optional(str), key="backend_cmd", help="external trainer command")
    charge_ranking: bool = _setting(mads.RunPlan.charge_ranking, _parse_bool, flag="--no-charge-ranking",
                                    action="store_const", const="0",
                                    help="do not charge ranking passes against the budget")
    min_mesh_index: int = _setting(mads.RunPlan.min_mesh_index, int, help="stop once the mesh index falls below this")
    max_iterations: int | None = _setting(None, _optional(int), help="iteration cap")
    milestones: tuple[int, ...] = _setting(
        DEFAULT_MILESTONES, _comma_list(int), help="comma-separated milestone epochs")
    margins: tuple[float, ...] = _setting(
        DEFAULT_MARGINS, _comma_list(float), help="comma-separated envelope margins")
    noise_sigma: float = _setting(SimulatedBlackbox.noise_sigma, float, help="noise level of the simulated trainer")

    def __post_init__(self) -> None:
        # what no lower layer refuses before training; the code that uses each other value checks it
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        object.__setattr__(self, "surrogate", _surrogate_text(self.surrogate))
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")

    @classmethod
    def from_text(cls, values: Mapping[str, str]) -> "CampaignSettings":
        """Settings from flag or settings-file text keyed by setting key.

        Missing keys keep their defaults.  A relative output directory, the
        default one included, goes under ``$MADSHPO_OUT_ROOT`` when that is set.
        """
        parsed = {}
        for key, f in setting_fields():
            if key in values:
                try:
                    parsed[f.name] = f.metadata["parse"](values[key])
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from None
        settings = cls(**parsed)
        root = os.environ.get(OUT_ROOT_ENV)
        if root and not settings.out_dir.is_absolute():
            settings = replace(settings, out_dir=Path(root) / settings.out_dir)
        return settings


def setting_fields() -> list[tuple[str, Field]]:
    """(settings-file key, field) of every campaign setting, in field order."""
    return [(f.metadata["key"] or f.name, f) for f in fields(CampaignSettings)]


def _header_text(value) -> str:
    """A setting's header value as ``read_ledger`` reads it back: stripped, and ``-`` for None or blank text."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    text = "" if value is None else str(value).strip()
    return text or "-"


def initial_config(settings: CampaignSettings) -> Configuration:
    if settings.initial is not None:
        return settings.initial
    return preset_config(settings.preset)


def _simulator(settings: CampaignSettings) -> SimulatedBlackbox:
    """The simulated trainer that a campaign trains with and that resume regenerates curves with."""
    return SimulatedBlackbox(noise_sigma=settings.noise_sigma)


def build_plan(settings: CampaignSettings) -> mads.RunPlan:
    """The plan of a persisted campaign: it searches ``default_bounds()``, the space its header implies."""
    if settings.backend == "simulated":
        # the header records the command, which a resume must repeat, so one that nothing runs is refused
        if (settings.external_command or "").strip():
            raise ValueError("backend_cmd: the simulated backend runs no command")
        blackbox = _simulator(settings)
        evaluate = blackbox.evaluate

        def fidelity_eval(config: Configuration, epochs: int, fraction: float) -> float:
            return blackbox.final_accuracy(config, settings.seed, epochs, fraction)

    else:
        # shlex.split(None) would read stdin; no command is an empty one, which the adapter refuses
        adapter = ProcessAdapter.from_command(settings.external_command or "")

        def evaluate(request: EvaluationRequest):
            return external_evaluate(request, adapter)

        def fidelity_eval(config: Configuration, epochs: int, fraction: float) -> float:
            return evaluate(EvaluationRequest(config, epochs, fraction, settings.seed)).final_val_accuracy

    def full_eval(config: Configuration, monitor):
        return evaluate(EvaluationRequest(config, settings.max_epochs, 1.0, settings.seed, monitor))

    spec = surrogate_by_name(settings.surrogate)
    return mads.RunPlan(
        bounds=default_bounds(),
        seed=settings.seed,
        # capped so that an estimate never trains longer than a full training
        surrogate=None if spec is None else replace(spec, epoch_budget=min(spec.epoch_budget, settings.max_epochs)),
        stop_mode=settings.stop_mode,
        milestones=settings.milestones,
        margins=settings.margins,
        full_eval=full_eval,
        fidelity_eval=fidelity_eval,
        charge_ranking=settings.charge_ranking,
        min_mesh_index=settings.min_mesh_index,
        max_iterations=settings.max_iterations,
    )


def settings_header(settings: CampaignSettings) -> dict[str, str]:
    """Settings fingerprint embedded in the ledger (consistency-checked on resume)."""
    header = {"format": FORMAT_VERSION}
    for f in fields(settings):
        if f.metadata["header"]:
            header[f.name] = _header_text(getattr(settings, f.name))
    header["initial"] = initial_config(settings).key
    return header


def _persist(settings: CampaignSettings, state: mads.CampaignState, wall_seconds: float) -> None:
    out = Path(settings.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ledger(out / LEDGER_NAME, state.records, settings_header(settings))
    # no training succeeded: there is no best point, and JSON has no -Infinity
    found = math.isfinite(state.best_score)
    summary = {
        "best_config": state.incumbent.key if found else None,
        "best_score": state.best_score if found else None,
        "total_charged_bbe": state.cumulative,
        "total_epochs": sum(r.epochs_used for r in state.records),
        "full_evaluations": sum(1 for r in state.records if r.kind == KIND_FULL),
        "iterations": state.next_iteration - 1,
        "termination": state.termination,
        "final_mesh_index": state.mesh.index,
        "records": len(state.records),
        "wall_seconds": wall_seconds,
    }
    (out / SUMMARY_NAME).write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")


def header_settings(header: Mapping[str, str], path: Path) -> CampaignSettings:
    """The settings a ledger header records: the one reader of a header.
    Each key is read by its field's parser, ``initial`` as a configuration's
    text, and a missing key is the default.  A key that no setting owns, a
    ``format`` other than ``FORMAT_VERSION`` and a value that does not parse
    or that the settings refuse are errors naming ``path`` and, where one
    key is at fault, the key."""
    parsers = {f.name: f.metadata["parse"] for f in fields(CampaignSettings) if f.metadata["header"]}
    parsers["initial"] = deserialize
    parsed = {}
    for key, text in header.items():
        if (key, text) == ("format", FORMAT_VERSION):
            continue
        try:
            if key not in parsers:
                raise ValueError(f"expected {FORMAT_VERSION!r}" if key == "format" else "no setting has this key")
            parsed[key] = parsers[key](text)
        except ValueError as exc:
            raise ValueError(f"{path}: header {key} {text!r}: {exc}") from None
    try:
        return CampaignSettings(**parsed)
    except ValueError as exc:
        raise ValueError(f"{path}: header: {exc}") from None


def _row_rule(settings: CampaignSettings, rec: LedgerRecord) -> str | None:
    """What rules out ``rec`` as an output of the trainer of ``settings``,
    which a tape of it feeds the loop, or None.  Every row scores in [0, 1].
    A full training's stop reason is ``none``, a failure or one that its
    stop mode gives.  A failure trains 0 epochs and scores
    ``WORST_SCORE``, any other training 1 to ``max_epochs``.  The envelope
    stops a training only at a milestone, and a simulated training that
    nothing stopped runs ``max_epochs``."""
    if not 0.0 <= rec.score <= 1.0:
        return f"score {rec.score!r} outside [0, 1]"
    if rec.kind != KIND_FULL:
        return None
    reasons = (REASON_NONE, FAILED_REASON, *stop_reasons(settings.stop_mode))
    reason, epochs = rec.stop_reason, rec.epochs_used
    if reason not in reasons:
        return f"stop_reason {reason!r}, expected one of {reasons}"
    if reason == FAILED_REASON:
        if epochs != 0:
            return f"epochs_used {epochs}, expected 0 for stop_reason {reason!r}"
        return None if rec.score == WORST_SCORE else f"score {rec.score!r}, expected {WORST_SCORE!r}"
    if not 1 <= epochs <= settings.max_epochs:
        return f"epochs_used {epochs} outside [1, {settings.max_epochs}]"
    if reason == REASON_ENVELOPE and epochs not in settings.milestones:
        return f"stop_reason {reason!r} at epoch {epochs}, not a milestone"
    if settings.backend == "simulated" and reason == REASON_NONE and epochs != settings.max_epochs:
        return f"epochs_used {epochs}, expected {settings.max_epochs}"
    return None


class _PastTheRows(Exception):
    """What export's full training past a ledger's rows raises."""


def _past_the_rows(config: Configuration, monitor) -> None:
    raise _PastTheRows


def read_checked_ledger(path: Path) -> tuple[dict[str, str], list[LedgerRecord], mads.RunPlan]:
    """The ledger at ``path``, its rows checked by running the loop of the
    settings its header records against them until they run out, and the
    plan of those settings: what export reads.  Past the rows the loop
    trains nothing: an estimate scores ``WORST_SCORE``, and a full training
    ends the check."""
    header, records = read_ledger(path)
    settings = header_settings(header, path)
    try:
        plan = build_plan(settings)
    except ValueError as exc:
        raise ValueError(f"{path}: header: {exc}") from None
    untrained = replace(plan, full_eval=_past_the_rows, fidelity_eval=lambda config, epochs, fraction: WORST_SCORE)
    try:
        mads.continue_campaign(_rebuild_state(settings, records, path), settings.bbe_budget, untrained)
    except _PastTheRows:
        pass
    return header, records, plan


def _rebuild_state(settings: CampaignSettings, records: list[LedgerRecord], path: Path | None) -> mads.CampaignState:
    """The fresh state that the loop runs the campaign of ``settings`` from,
    with a tape of the ``records`` of the ledger at ``path`` (``mads.Tape``),
    each held to ``_row_rule``.  The tape regenerates curves with the
    simulator the campaign trained with (not an external trainer's), without
    their learning-rate column, which envelope comparisons do not read."""
    for rec in records:
        problem = _row_rule(settings, rec)
        if problem is not None:
            raise ValueError(f"{path}: record {rec.record_index}: {problem}")
    curve = None
    if settings.backend == "simulated":
        simulator = _simulator(settings)

        def curve(config: Configuration, epochs: int):
            return simulate_curve(simulator.model_for(config, settings.seed), epochs)

    return mads.CampaignState(incumbent=initial_config(settings), tape=mads.Tape(records, path, curve))


def run(settings: CampaignSettings) -> mads.CampaignState:
    """Execute a campaign and persist its ledger and summary: ``resume`` of a ledger with no rows."""
    return _continue(settings, None)


def resume(settings: CampaignSettings) -> mads.CampaignState:
    """Continue an interrupted campaign from its persisted ledger.

    The header must record ``settings``.  Then the campaign loop runs
    against the rows, as export runs it, and trains on once they run out;
    determinism makes the final ledger byte-identical to an uninterrupted
    run, and a finished campaign resumes without a training.  Only the
    simulated backend can regenerate curves, so external campaigns cannot
    be resumed.
    """
    return _continue(settings, Path(settings.out_dir) / LEDGER_NAME)


def _continue(settings: CampaignSettings, path: Path | None) -> mads.CampaignState:
    """Run the campaign on the tape of the ledger at ``path``, of no rows if it is
    None, and persist it.  The plan is built first, so that a refused setting raises
    before any read; the settings the header records, read as export reads
    them, must then equal ``settings`` in the form ``settings_header`` writes."""
    started = time.monotonic()
    plan = build_plan(settings)
    records = []
    if path is not None:
        if settings.backend != "simulated":
            raise ValueError("resume is only supported for the simulated backend")
        header, records = read_ledger(path)
        given, recorded = settings_header(settings), settings_header(header_settings(header, path))
        if recorded != given:
            raise ValueError("ledger settings do not match: " + "; ".join(
                f"{key} {recorded[key]!r} in the ledger, {given[key]!r} given"
                for key in sorted(given) if recorded[key] != given[key]))
    state = mads.continue_campaign(_rebuild_state(settings, records, path), settings.bbe_budget, plan)
    _persist(settings, state, wall_seconds=time.monotonic() - started)
    return state
