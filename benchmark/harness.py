"""The closed op loop, the output checks and the metrics computed from them."""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from madshpo.campaign import LEDGER_NAME
from madshpo.early_stop import (
    REASON_ENVELOPE,
    REASON_LAST_SUCCESS,
    REASON_LOSS_PLATEAU,
    REASON_LOW_ACCURACY,
    REASON_LR_FLOOR,
)
from madshpo.ledger import KIND_FULL, KIND_RANKING, KIND_SURROGATE, export_convergence, read_ledger, write_ledger

from tracing import Tracer
from workloads import OpOutput, Workload

STOP_REASONS = (REASON_ENVELOPE, REASON_LR_FLOOR, REASON_LOW_ACCURACY, REASON_LOSS_PLATEAU, REASON_LAST_SUCCESS)
MIN_TAIL_SAMPLES = 10


@dataclass
class LedgerStats:
    """Per-op figures read from a checked ledger (deterministic per seed)."""

    bbe: float
    best: float
    best_25pct: float
    full_evals: int
    full_epochs: int
    iterations: int
    iteration_full_evals: int
    successes: int
    rank_bbe: float
    top1_wins: int
    stops: Counter


@dataclass
class Op:
    index: int
    seed: int
    traced: bool
    seconds: float
    problems: list[str]
    stats: LedgerStats | None = None


@dataclass
class RunResult:
    ops: list[Op] = field(default_factory=list)
    run_problems: list[str] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)


def ledger_stats(records, budget: float | None) -> LedgerStats:
    """Search-efficiency figures of one ledger.

    ``best_25pct`` is acceptance criterion 8's best-so-far at a quarter of
    the budget, read from ``export_convergence``.  An unbounded campaign
    (quad-poll) takes the quarter of the BBE it actually spent.
    """
    total = records[-1].cumulative_cost
    limit = 0.25 * (total if budget is None else budget) + 1e-9
    rows = export_convergence(records)
    full = [r for r in records if r.kind == KIND_FULL]
    polled = [r for r in full if r.iteration > 0]
    winners = {r.iteration: r.config for r in polled if r.incumbent}
    tops = {r.iteration: r.config for r in records if r.kind == KIND_RANKING}
    return LedgerStats(
        bbe=total,
        best=max(r.score for r in full),
        best_25pct=max((best for bbe, _, _, best in rows if bbe <= limit), default=0.0),
        full_evals=len(full),
        full_epochs=sum(r.epochs_used for r in full),
        iterations=max(r.iteration for r in records),
        iteration_full_evals=len(polled),
        successes=len(winners),
        rank_bbe=sum(r.charged_cost for r in records if r.kind == KIND_SURROGATE),
        top1_wins=sum(1 for k, config in winners.items() if tops.get(k) == config),
        stops=Counter(r.stop_reason for r in full if r.stop_reason in STOP_REASONS),
    )


def check_op(output: OpOutput, op_dir: Path, digests: dict, seed: int) -> tuple[list[str], LedgerStats | None]:
    """Output checks of one op; returns the problems found and the ledger figures."""
    ledger = output.ledger
    if ledger is None:
        ledger = op_dir / LEDGER_NAME
        write_ledger(ledger, output.records, {"seed": str(seed)})
    data = ledger.read_bytes()
    try:
        _, records = read_ledger(ledger)
    except Exception as exc:  # noqa: BLE001 - any rejection is a failed check
        return [f"read_ledger rejected the ledger: {exc!r}"], None
    problems = []
    if [r.record_index for r in records] != list(range(len(records))):
        problems.append("record_index is not contiguous")
    full = [r for r in records if r.kind == KIND_FULL]
    if not full:
        return problems + ["ledger has no full evaluation"], None
    if output.budget is not None and max(r.cumulative_cost for r in records) > output.budget + 1e-9:
        problems.append(f"cumulative_cost exceeds the budget of {output.budget}")
    incumbents = [r.score for r in full if r.incumbent]
    if any(b <= a for a, b in zip(incumbents, incumbents[1:])):
        problems.append("incumbent scores do not strictly increase")
    best = max(r.score for r in full)
    reported = output.summary["best_score"] if output.summary is not None else output.best_score
    if reported != best:
        problems.append(f"reported best score {reported!r} != best full score {best!r}")
    digest = hashlib.sha256(data).hexdigest()
    if digests.setdefault(seed, digest) != digest:
        problems.append(f"ledger SHA-256 differs from the earlier run of seed {seed}")
    if output.reference is not None and data != output.reference:
        problems.append("resumed ledger is not byte-identical to its reference")
    return problems, ledger_stats(records, output.budget)


def run_ops(workload: Workload, seeds: list[int], seconds: float, work: Path,
            tracer: Tracer | None = None, before_op=None, probe=None, probes: int = 0) -> RunResult:
    """Closed loop: run ops back to back until ``seconds`` have passed.

    One untimed op first lets caches fill and lazy set-up finish.  Ops
    cycle through ``seeds``; the loop always covers every seed and
    repeats one, so the deterministic metrics and the repeat check exist
    on any machine.  With a tracer, ops alternate untraced and traced on
    the same seed.  ``before_op(op_dir)`` may alter an op's staged input.
    ``probe()`` is called ``probes`` times, spread evenly between the ops,
    so that its samples see the same machine as the ops do.
    """
    per_seed = 2 if tracer is not None else 1
    min_ops = max(per_seed * (len(seeds) + 1), MIN_TAIL_SAMPLES + 1)
    result = RunResult()
    digests: dict = {}
    warm = work / "warm-up"
    workload.stage(seeds[0], warm)
    workload.execute(seeds[0], warm)
    shutil.rmtree(warm)
    started = time.perf_counter()
    index = 0
    while index < min_ops or time.perf_counter() - started < seconds:
        if len(result.probes) < probes and time.perf_counter() - started >= len(result.probes) * seconds / probes:
            result.probes.append(probe())
        seed = seeds[(index // per_seed) % len(seeds)]
        traced = tracer is not None and index % 2 == 1
        op_dir = work / f"op{index}"
        workload.stage(seed, op_dir)
        if before_op is not None:
            before_op(op_dir)
        if traced:
            tracer.install(index)
        begin = time.perf_counter()
        try:
            output = workload.execute(seed, op_dir)
            error = None
        except Exception:  # noqa: BLE001 - a raising op is a counted failure
            output, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - begin
        if traced:
            tracer.uninstall(elapsed)
        if output is None:
            op = Op(index, seed, traced, elapsed, [f"op raised: {error}"])
        else:
            problems, stats = check_op(output, op_dir, digests, seed)
            op = Op(index, seed, traced, elapsed, problems, stats)
        result.ops.append(op)
        shutil.rmtree(op_dir, ignore_errors=True)
        index += 1
    while len(result.probes) < probes:
        result.probes.append(probe())
    required = workload.required_stop
    if required and not any(op.stats.stops[required] for op in result.ops if op.stats is not None):
        result.run_problems.append(f"no full training ended with {required}")
    return result


def per_seed_stats(result: RunResult) -> list[LedgerStats]:
    """Ledger figures of each seed's first passing op, in seed order."""
    seen: dict[int, LedgerStats] = {}
    for op in result.ops:
        if op.stats is not None and op.seed not in seen:
            seen[op.seed] = op.stats
    return list(seen.values())


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With n > 10 samples it is the (n-10)-th smallest, the 100*(n-10)/n
    percentile; ``run_ops`` always makes at least 11 ops.
    """
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - MIN_TAIL_SAMPLES - 1], 100.0 * (n - MIN_TAIL_SAMPLES) / n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result: RunResult) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and the details printed beside them.

    ``setup_s`` is the median of the run's set-up probes.
    """
    times = [op.seconds for op in result.ops]
    passing = [op for op in result.ops if op.stats is not None]
    seeds = per_seed_stats(result)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(result.probes), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "bbe_per_s": (sum(op.stats.bbe for op in passing) / sum(op.seconds for op in passing), "BBE/s")
        if passing else (0.0, "BBE/s"),
        "best_acc_mean": (statistics.fmean(s.best for s in seeds) if seeds else 0.0, "fraction"),
        "best_acc_25pct": (statistics.fmean(s.best_25pct for s in seeds) if seeds else 0.0, "fraction"),
        "epochs_per_full": (sum(s.full_epochs for s in seeds) / max(1, sum(s.full_evals for s in seeds)), "epochs"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "failed_frac": (result.failed / len(result.ops), "ratio"),
    }
    details = {
        "ops": len(times),
        "op_s_tail_percentile": round(tail_pct, 1),
        "distinct_seeds": len(seeds),
        "setup_probes": len(result.probes),
    }
    return metrics, details


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, result: RunResult) -> dict:
    """Per-layer metrics (name -> (value, unit)) of a traced run.

    ``.calls`` are per traced op, ``.self_us`` are per call, ``.share`` is
    inclusive time over traced op time; the ledger ratios cover every op.
    """
    ops = max(1, tracer.ops)
    calls, self_s, incl_s, counts = tracer.calls, tracer.self_s, tracer.incl_s, tracer.counts

    def per_op(name):
        return (calls[name] / ops, "count")

    def self_us(name):
        return (_ratio(self_s[name], calls[name]) * 1e6, "us")

    def share(name):
        return (_ratio(incl_s[name], tracer.op_seconds), "ratio")

    traced = [op for op in result.ops if op.traced]
    untraced = [op for op in result.ops if not op.traced]
    seeds = per_seed_stats(result)
    full = sum(s.full_evals for s in seeds)
    successes = sum(s.successes for s in seeds)
    iterations = sum(s.iterations for s in seeds)
    stops = sum((s.stops for s in seeds), Counter())
    m = {
        "space.serialize.calls": per_op("space.serialize"),
        "space.serialize.self_us": self_us("space.serialize"),
        "space.with_vector.calls": per_op("space.with_vector"),
        "space.with_vector.self_us": self_us("space.with_vector"),
        "space.snap_array.calls": per_op("space.snap_array"),
        "space.snap_array.self_us": self_us("space.snap_array"),
        "space.to_vector.calls": per_op("space.to_vector"),
        "space.quantitative_slots.calls": per_op("space.quantitative_slots"),
        "space.neighbors.calls": per_op("space.neighbors"),
        "space.deserialize.calls": per_op("space.deserialize"),
        "space.deserialize.self_us": self_us("space.deserialize"),
        "mads.generate_poll.calls": per_op("mads.generate_poll"),
        "mads.generate_poll.self_us": self_us("mads.generate_poll"),
        "mads.generate_poll.share": share("mads.generate_poll"),
        "mads.poll.candidates": (_ratio(counts["poll.candidates"], calls["mads.generate_poll"]), "count"),
        "mads.poll.unique_ratio": (_ratio(counts["poll.candidates"], counts["poll.generated"]), "ratio"),
        "mads.iterations": (_ratio(iterations, len(seeds)), "count"),
        "mads.full_evals_per_iter": (_ratio(sum(s.iteration_full_evals for s in seeds), iterations), "count"),
        "mads.iter_success_ratio": (_ratio(successes, iterations), "ratio"),
        "surrogates.rank_candidates.calls": per_op("surrogates.rank_candidates"),
        "surrogates.rank_candidates.self_us_per_candidate": (
            _ratio(self_s["surrogates.rank_candidates"], counts["rank.candidates"]) * 1e6, "us"),
        "surrogates.rank_candidates.share": share("surrogates.rank_candidates"),
        "surrogates.rank_bbe_share": (_ratio(sum(s.rank_bbe for s in seeds), sum(s.bbe for s in seeds)), "ratio"),
        "surrogates.top1_win_ratio": (_ratio(sum(s.top1_wins for s in seeds), successes), "ratio"),
        "blackbox.evaluate.calls": per_op("blackbox.evaluate"),
        "blackbox.evaluate.us_per_epoch": (_ratio(incl_s["blackbox.evaluate"], counts["evaluate.epochs"]) * 1e6, "us"),
        "blackbox.evaluate.share": share("blackbox.evaluate"),
        "blackbox.final_accuracy.calls": per_op("blackbox.final_accuracy"),
        "blackbox.final_accuracy.self_us": self_us("blackbox.final_accuracy"),
        "blackbox.model_for.calls": per_op("blackbox.model_for"),
        "blackbox.model_for.self_us": self_us("blackbox.model_for"),
        "blackbox.model_for.distinct_ratio": (_ratio(tracer.distinct_model_keys, calls["blackbox.model_for"]), "ratio"),
        "blackbox.curve_arrays.self_us": self_us("blackbox.curve_arrays"),
        "blackbox.simulate_curve.calls": per_op("blackbox.simulate_curve"),
        "blackbox.simulate_curve.self_us": self_us("blackbox.simulate_curve"),
        "blackbox.external_evaluate.calls": per_op("blackbox.external_evaluate"),
        "blackbox.external_evaluate.ms_per_call": (
            _ratio(incl_s["blackbox.external_evaluate"], calls["blackbox.external_evaluate"]) * 1e3, "ms"),
        "blackbox.external_evaluate.us_per_epoch": (
            _ratio(incl_s["blackbox.external_evaluate"], counts["external.epochs"]) * 1e6, "us"),
        "blackbox.external_evaluate.failed": (counts["external.failed"], "count"),
        "blackbox.external_evaluate.share": share("blackbox.external_evaluate"),
        "early_stop.verdict.calls": per_op("early_stop.verdict"),
        "early_stop.verdict.self_us": self_us("early_stop.verdict"),
        "early_stop.update_baseline.calls": per_op("early_stop.update_baseline"),
        "early_stop.update_baseline.self_us": self_us("early_stop.update_baseline"),
        "early_stop.stop_ratio": (_ratio(sum(stops.values()), full), "ratio"),
        **{f"early_stop.stops.{reason}": (_ratio(stops[reason], len(seeds)), "count") for reason in STOP_REASONS},
        "ledger.write_ledger.us_per_1k_records": (
            _ratio(incl_s["ledger.write_ledger"], counts["write_ledger.records"]) * 1e9, "us"),
        "ledger.write_ledger.bytes": (_ratio(counts["write_ledger.bytes"], calls["ledger.write_ledger"]), "bytes"),
        "ledger.read_ledger.us_per_1k_records": (
            _ratio(incl_s["ledger.read_ledger"], counts["read_ledger.records"]) * 1e9, "us"),
        "campaign.build_plan.ms": (_ratio(incl_s["campaign.build_plan"], calls["campaign.build_plan"]) * 1e3, "ms"),
        "campaign.run.self_ms": (_ratio(self_s["campaign.run"], calls["campaign.run"]) * 1e3, "ms"),
        "campaign.resume.rebuild_ms": (
            _ratio(incl_s["campaign.resume"] - incl_s["ledger.read_ledger"] - incl_s["mads.continue_campaign"],
                   calls["campaign.resume"]) * 1e3, "ms"),
        "campaign._rebuild_state.share": share("campaign._rebuild_state"),
        "trace.overhead_ratio": (
            _ratio(statistics.median(op.seconds for op in traced), statistics.median(op.seconds for op in untraced))
            if traced and untraced else 0.0, "ratio"),
    }
    return m

