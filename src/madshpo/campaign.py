"""Campaign settings, persistence, and resume-by-replay.

``CampaignSettings`` is the one table of run settings: each field carries
its settings-file key (also its command-line flag), its parser from text
and its ``argparse`` options, and says whether the ledger header records
it.

A campaign writes ``ledger.csv`` (with its settings as header comments)
and ``summary.json`` into its output directory.  Resuming truncates the
ledger back to the last completed iteration boundary and replays forward;
because every source of randomness is derived from the seed, the final
file is byte-identical to an uninterrupted run.
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
    FAILED_REASON,
    EvaluationRequest,
    ProcessAdapter,
    SimulatedBlackbox,
    external_evaluate,
    simulate_curve,
)
from .early_stop import (
    DEFAULT_MARGINS, DEFAULT_MILESTONES, MODES, BaselineEnvelope, adopts_baseline, update_baseline,
)
from .ledger import KIND_FULL, LedgerRecord, read_ledger, write_ledger
# benchmark/tracing.py wraps serialize by this name; Configuration.key calls it.
from .space import Configuration, SpaceBounds, default_bounds, deserialize, preset_config, serialize  # noqa: F401
from .surrogates import SURROGATE_TABLE, SurrogateSpec, custom_surrogate, surrogate_by_name

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


def _parse_custom(text: str) -> tuple[int, float, float]:
    epochs, fraction, cost = text.split(",")
    return int(epochs), float(fraction), float(cost)


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
    max_epochs: int = _setting(200, int, help="epochs of one full training")
    stop_mode: str = _setting("scheduler+baseline", str, key="stop", choices=MODES, help="early-stopping strategy")
    surrogate: str = _setting("r4", str, key="rank", choices=sorted(SURROGATE_TABLE), help="ranking surrogate")
    surrogate_custom: tuple[int, float, float] | None = _setting(
        None, _parse_custom, key="rank_custom", header=False, help="custom surrogate: epochs,fraction,cost")
    out_dir: Path = _setting(Path("campaign-out"), Path, key="out", header=False,
                             help="output directory (ledger + summary)")
    backend: str = _setting("simulated", str, choices=BACKENDS, help="trainer backend")
    external_command: str | None = _setting(None, str, key="backend_cmd", help="external trainer command")
    charge_ranking: bool = _setting(True, _parse_bool, flag="--no-charge-ranking", action="store_const",
                                    const="0", help="do not charge ranking passes against the budget")
    min_mesh_index: int = _setting(-50, int, help="stop once the mesh index falls below this")
    max_iterations: int | None = _setting(
        None, lambda text: None if text in ("", "-") else int(text), help="iteration cap")
    milestones: tuple[int, ...] = _setting(
        DEFAULT_MILESTONES, _comma_list(int), help="comma-separated milestone epochs")
    margins: tuple[float, ...] = _setting(
        DEFAULT_MARGINS, _comma_list(float), help="comma-separated envelope margins")
    noise_sigma: float = _setting(1e-4, float, help="noise level of the simulated trainer")

    def __post_init__(self) -> None:
        if self.bbe_budget <= 0:
            raise ValueError("bbe_budget must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.stop_mode not in MODES:
            raise ValueError(f"unknown stop mode {self.stop_mode!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "external" and not self.external_command:
            raise ValueError("external backend needs a command")

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


def surrogate_spec(settings: CampaignSettings) -> SurrogateSpec:
    """The ranking surrogate, which never trains longer than a full training."""
    if settings.surrogate_custom is not None:
        spec = custom_surrogate(*settings.surrogate_custom)
    else:
        spec = surrogate_by_name(settings.surrogate)
    if spec.epoch_budget > settings.max_epochs:
        spec = replace(spec, epoch_budget=settings.max_epochs)
    return spec


def build_plan(settings: CampaignSettings, bounds: SpaceBounds | None = None) -> mads.RunPlan:
    bounds = bounds or default_bounds()
    if settings.backend == "simulated":
        blackbox = SimulatedBlackbox(noise_sigma=settings.noise_sigma)
        evaluate = blackbox.evaluate

        def fidelity_eval(config: Configuration, epochs: int, fraction: float) -> float:
            return blackbox.final_accuracy(config, settings.seed, epochs, fraction)

    else:
        adapter = ProcessAdapter.from_command(settings.external_command)

        def evaluate(request: EvaluationRequest):
            return external_evaluate(request, adapter)

        def fidelity_eval(config: Configuration, epochs: int, fraction: float) -> float:
            return evaluate(EvaluationRequest(config, epochs, fraction, settings.seed)).final_val_accuracy

    def full_eval(config: Configuration, monitor):
        return evaluate(EvaluationRequest(config, settings.max_epochs, 1.0, settings.seed, monitor))

    return mads.RunPlan(
        bounds=bounds,
        seed=settings.seed,
        surrogate=surrogate_spec(settings),
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
    if settings.surrogate_custom is not None:
        epochs, fraction, cost = settings.surrogate_custom
        header["surrogate"] = f"custom {epochs} {fraction!r} {cost!r}"
    header["initial"] = initial_config(settings).key
    return header


def header_data_fraction(header: Mapping[str, str]) -> float:
    """Data fraction of the ranking surrogate in a ledger header that
    ``settings_header`` wrote (a ledger without one ranked nothing)."""
    text = header.get("surrogate", "none")
    kind, _, custom = text.partition(" ")
    try:
        if kind == "custom":
            return custom_surrogate(*_parse_custom(custom.replace(" ", ","))).data_fraction
        return surrogate_by_name(text).data_fraction
    except ValueError as exc:
        raise ValueError(f"surrogate header {text!r}: {exc}") from None


def run(settings: CampaignSettings, bounds: SpaceBounds | None = None) -> mads.CampaignResult:
    """Execute a campaign and persist its ledger and summary."""
    started = time.monotonic()
    plan = build_plan(settings, bounds)
    result = mads.run_campaign(initial_config(settings), settings.bbe_budget, plan)
    _persist(settings, result, wall_seconds=time.monotonic() - started)
    return result


def _persist(settings: CampaignSettings, result: mads.CampaignResult, wall_seconds: float) -> None:
    out = Path(settings.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ledger(out / LEDGER_NAME, result.records, settings_header(settings))
    total_epochs = sum(r.epochs_used for r in result.records)
    full_evals = sum(1 for r in result.records if r.kind == KIND_FULL)
    summary = {
        "best_config": result.best_config.key,
        "best_score": result.best_score,
        "total_charged_bbe": result.total_cost,
        "total_epochs": total_epochs,
        "full_evaluations": full_evals,
        "iterations": result.iterations,
        "termination": result.termination,
        "final_mesh_index": result.final_mesh_index,
        "records": len(result.records),
        "wall_seconds": wall_seconds,
    }
    (out / SUMMARY_NAME).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _rebuild_state(settings: CampaignSettings, kept: list[LedgerRecord]) -> mads.CampaignState:
    """Campaign state after the kept records, read from the ledger.

    The full evaluations give the incumbent and the baseline envelope.  Only
    the curves the envelope adopts are regenerated, without their
    learning-rate column, which envelope comparisons do not read.  The mesh
    is the last record's ``mesh_index``, updated for whether its iteration
    succeeded.
    """
    blackbox = SimulatedBlackbox(noise_sigma=settings.noise_sigma)
    envelope = BaselineEnvelope(None, settings.milestones, settings.margins)
    incumbent = None
    incumbent_score = -math.inf
    improved_iteration = None
    for rec in kept:
        if rec.kind != KIND_FULL:
            continue
        if rec.stop_reason != FAILED_REASON and adopts_baseline(envelope, rec.score, incumbent_score):
            model = blackbox.model_for(deserialize(rec.config), settings.seed)
            envelope = update_baseline(envelope, simulate_curve(model, rec.epochs_used), rec.score, incumbent_score)
        if rec.incumbent:
            incumbent = deserialize(rec.config)
            incumbent_score = rec.score
            improved_iteration = rec.iteration
    last = kept[-1]
    mesh = mads.Mesh(last.mesh_index)
    if last.iteration >= 1:
        mesh = mads.update_mesh(mesh, improved_iteration == last.iteration)
    return mads.CampaignState(
        records=list(kept),
        cumulative=last.cumulative_cost,
        incumbent=incumbent,
        incumbent_score=incumbent_score,
        envelope=envelope,
        mesh=mesh,
        next_iteration=last.iteration + 1,
    )


def resume(settings: CampaignSettings, bounds: SpaceBounds | None = None) -> mads.CampaignResult:
    """Continue an interrupted campaign from its persisted ledger.

    The trailing (possibly incomplete) iteration is discarded and replayed;
    determinism makes the final ledger byte-identical to an uninterrupted
    run.  Only the simulated backend can regenerate curves, so external
    campaigns cannot be resumed.
    """
    if settings.backend != "simulated":
        raise ValueError("resume is only supported for the simulated backend")
    path = Path(settings.out_dir) / LEDGER_NAME
    header, records = read_ledger(path)
    expected = settings_header(settings)
    mismatched = sorted(
        key for key in expected if header.get(key) != expected[key]
    )
    if mismatched:
        raise ValueError(f"ledger settings do not match: {', '.join(mismatched)}")

    started = time.monotonic()
    plan = build_plan(settings, bounds)
    last_iteration = max((r.iteration for r in records), default=0)
    kept = [r for r in records if r.iteration < last_iteration]
    if not kept:
        result = mads.run_campaign(initial_config(settings), settings.bbe_budget, plan)
    else:
        state = _rebuild_state(settings, kept)
        result = mads.continue_campaign(state, settings.bbe_budget, plan)
    _persist(settings, result, wall_seconds=time.monotonic() - started)
    return result
