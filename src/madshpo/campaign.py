"""Campaign settings, persistence, and resume-by-replay.

``CampaignSettings`` is the one table of run settings: each field carries
its settings-file key (also its command-line flag), its parser from text
and its ``argparse`` options, and says whether the ledger header records
it.

A campaign writes ``ledger.csv`` (with its settings as header comments)
and ``summary.json`` into its output directory.  Resuming checks every
row, truncates the ledger back to the last completed iteration boundary
and replays forward; because every source of randomness is derived from
the seed, the final file is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping

from . import mads
from .blackbox import (
    EvaluationRequest,
    ProcessAdapter,
    SimulatedBlackbox,
    external_evaluate,
    simulate_curve,
)
from .early_stop import DEFAULT_MARGINS, DEFAULT_MILESTONES, MODES, update_baseline
from .ledger import KIND_FULL, LedgerRecord, read_ledger, write_ledger
# benchmark/tracing.py wraps serialize by this name; Configuration.key calls it.
from .space import Configuration, SpaceBounds, default_bounds, deserialize, preset_config, serialize  # noqa: F401
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
    return lambda text: tuple(kind(x) for x in text.split(","))


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class CampaignSettings:
    preset: str = _setting("p1", str, header=False, choices=("p1", "p2", "p3"), help="starting configuration")
    initial: Configuration | None = _setting(
        None, lambda path: deserialize(Path(path).read_text().strip()), header=False,
        help="file holding a serialized configuration")
    seed: int = _setting(0, int, help="random seed")
    bbe_budget: int = _setting(200, int, key="budget", help="blackbox-evaluation budget")
    max_epochs: int = _setting(EvaluationRequest.max_epochs, int, help="epochs of one full training")
    stop_mode: str = _setting("scheduler+baseline", str, key="stop", choices=MODES, help="early-stopping strategy")
    surrogate: str = _setting("r4", lambda text: surrogate_by_name(text).text, key="rank",
                              help="ranking surrogate: r1..r4, oracle, none, or epochs,fraction,cost")
    out_dir: Path = _setting(Path("campaign-out"), Path, key="out", header=False,
                             help="output directory (ledger + summary)")
    backend: str = _setting("simulated", str, choices=BACKENDS, help="trainer backend")
    external_command: str | None = _setting(None, str, key="backend_cmd", help="external trainer command")
    charge_ranking: bool = _setting(mads.RunPlan.charge_ranking, _parse_bool, flag="--no-charge-ranking",
                                    action="store_const", const="0",
                                    help="do not charge ranking passes against the budget")
    min_mesh_index: int = _setting(mads.RunPlan.min_mesh_index, int, help="stop once the mesh index falls below this")
    max_iterations: int | None = _setting(
        None, lambda text: None if text in ("", "-") else int(text), help="iteration cap")
    milestones: tuple[int, ...] = _setting(
        DEFAULT_MILESTONES, _comma_list(int), help="comma-separated milestone epochs")
    margins: tuple[float, ...] = _setting(
        DEFAULT_MARGINS, _comma_list(float), help="comma-separated envelope margins")
    noise_sigma: float = _setting(SimulatedBlackbox.noise_sigma, float, help="noise level of the simulated trainer")

    def __post_init__(self) -> None:
        # what no lower layer refuses before training; the code that uses each other value checks it
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        # checked and normalised to the header form of SurrogateSpec.text
        object.__setattr__(self, "surrogate", surrogate_by_name(self.surrogate).text)
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
    if value is None or value == "":
        return "-"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def initial_config(settings: CampaignSettings) -> Configuration:
    if settings.initial is not None:
        return settings.initial
    return preset_config(settings.preset)


def _simulator(settings: CampaignSettings) -> SimulatedBlackbox:
    """The simulated trainer that a campaign trains with and that resume regenerates curves with."""
    return SimulatedBlackbox(noise_sigma=settings.noise_sigma)


def build_plan(settings: CampaignSettings, bounds: SpaceBounds | None = None) -> mads.RunPlan:
    bounds = bounds or default_bounds()
    if settings.backend == "simulated":
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
        bounds=bounds,
        seed=settings.seed,
        # the ranking surrogate never trains longer than a full training
        surrogate=replace(spec, epoch_budget=min(spec.epoch_budget, settings.max_epochs)),
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


def header_data_fraction(header: Mapping[str, str]) -> float:
    """Data fraction of the ranking surrogate in a ledger header that
    ``settings_header`` wrote (a ledger without one ranked nothing)."""
    text = header.get("surrogate", "none")
    try:
        return surrogate_by_name(text).data_fraction
    except ValueError as exc:
        raise ValueError(f"surrogate header {text!r}: {exc}") from None


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


def read_checked_ledger(path: Path) -> tuple[dict[str, str], list[LedgerRecord]]:
    """The ledger at ``path``, every row replayed from its header's ``initial``: what export and resume read."""
    header, records = read_ledger(path)
    mads.replay(records, header.get("initial"), path)
    return header, records


def _rebuild_state(settings: CampaignSettings, plan: mads.RunPlan, kept: list[LedgerRecord],
                   path: Path | None) -> mads.CampaignState:
    """Campaign state after the kept records of the ledger at ``path``.

    ``mads.replay`` checks the rows and rebuilds the state from them; only
    the incumbent's curve is regenerated, as the baseline, without its
    learning-rate column, which envelope comparisons do not read.  The
    incumbent's row must hold its configuration's key and a full training's
    epochs, and its score must be that curve's best accuracy.  Of no
    records, it is the fresh state of ``mads.run_campaign``.
    """
    initial = initial_config(settings)
    state, best = mads.replay(kept, initial.key, path)
    state.incumbent, state.envelope = initial, plan.envelope
    if best is not None:
        try:
            state.incumbent = deserialize(best.config)
            if state.incumbent.key != best.config:
                raise ValueError(f"config is not its configuration's key {state.incumbent.key!r}")
            if not 1 <= best.epochs_used <= settings.max_epochs:
                raise ValueError(f"epochs_used {best.epochs_used} outside [1, {settings.max_epochs}]")
            model = _simulator(settings).model_for(state.incumbent, settings.seed)
            curve = simulate_curve(model, best.epochs_used)
            if curve.best_accuracy() != best.score:
                raise ValueError(f"score {best.score!r} is not its curve's best accuracy {curve.best_accuracy()!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: record {best.record_index}: {exc}") from None
        state.envelope = update_baseline(state.envelope, curve)
    return state


def run(settings: CampaignSettings, bounds: SpaceBounds | None = None) -> mads.CampaignState:
    """Execute a campaign and persist its ledger and summary: ``resume`` of a ledger with no rows."""
    return _continue(settings, bounds, None)


def resume(settings: CampaignSettings, bounds: SpaceBounds | None = None) -> mads.CampaignState:
    """Continue an interrupted campaign from its persisted ledger.

    Every row is checked first, by the read ``madshpo export`` makes.  Then the
    trailing (possibly incomplete) iteration is discarded and replayed;
    determinism makes the final ledger byte-identical to an uninterrupted
    run.  Only the simulated backend can regenerate curves, so external
    campaigns cannot be resumed.
    """
    return _continue(settings, bounds, Path(settings.out_dir) / LEDGER_NAME)


def _continue(settings: CampaignSettings, bounds: SpaceBounds | None, path: Path | None) -> mads.CampaignState:
    """Continue the campaign from the kept rows of the ledger at ``path``, from none if it is None,
    and persist it.  The plan is built first, so that a refused setting raises before any read."""
    started = time.monotonic()
    plan = build_plan(settings, bounds)
    records = []
    if path is not None:
        if settings.backend != "simulated":
            raise ValueError("resume is only supported for the simulated backend")
        header, records = read_checked_ledger(path)
        mismatched = sorted(key for key, value in settings_header(settings).items() if header.get(key) != value)
        if mismatched:
            raise ValueError(f"ledger settings do not match: {', '.join(mismatched)}")
        # the last row's iteration, which may be incomplete, is dropped and run again
        if records:
            del records[next(i for i, r in enumerate(records) if r.iteration == records[-1].iteration):]
    state = mads.continue_campaign(_rebuild_state(settings, plan, records, path), settings.bbe_budget, plan)
    _persist(settings, state, wall_seconds=time.monotonic() - started)
    return state
