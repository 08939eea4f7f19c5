"""Spans around the calls into each madshpo layer, recorded from outside.

Modules bind imported names at import time, so a wrapper has to replace
the name where the caller looks it up: ``madshpo.mads.serialize`` as well
as ``madshpo.blackbox.serialize``, and methods on their class.  Wrappers
are installed around one traced op and removed after it, so untraced ops
run the program's own functions.

A span records its name, start, end, parent span and op id.  Spans of the
first few traced ops are kept in memory and written out at exit; for
every op the self time of each span (its duration minus the time its child
spans cover) is added up by name.
"""

from __future__ import annotations

import csv
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

from madshpo import blackbox, campaign, early_stop, mads, space

_SPAN = "span"
_COUNT = "count"
KEEP_SPAN_OPS = 3  # traced ops whose raw spans are kept and written out


def _after_poll(tracer, args, result):
    tracer.counts["poll.candidates"] += len(result.candidates)
    tracer.counts["poll.generated"] += result.directions.shape[1]


def _after_neighbors(tracer, args, result):
    tracer.counts["poll.generated"] += len(result)


def _after_rank(tracer, args, result):
    tracer.counts["rank.candidates"] += len(result.candidates)


def _after_evaluate(tracer, args, result):
    tracer.counts["evaluate.epochs"] += result.epochs_used


def _after_external(tracer, args, result):
    tracer.counts["external.epochs"] += result.epochs_used
    tracer.counts["external.failed"] += result.failed


def _after_model_for(tracer, args, result):
    # args = (blackbox, config, seed); configurations are frozen and hashable
    tracer.op_model_keys.add((args[1], args[2]))


def _after_write_ledger(tracer, args, result):
    tracer.counts["write_ledger.records"] += len(args[1])
    tracer.counts["write_ledger.bytes"] += os.stat(args[0]).st_size


def _after_read_ledger(tracer, args, result):
    tracer.counts["read_ledger.records"] += len(result[1])


# (owner, attribute, span name, kind, hook run on the result)
TARGETS = (
    (mads, "serialize", "space.serialize", _SPAN, None),
    (blackbox, "serialize", "space.serialize", _SPAN, None),
    (campaign, "serialize", "space.serialize", _SPAN, None),
    (mads, "with_vector", "space.with_vector", _SPAN, None),
    (mads, "snap_array", "space.snap_array", _SPAN, None),
    (mads, "to_vector", "space.to_vector", _COUNT, None),
    (mads, "quantitative_slots", "space.quantitative_slots", _COUNT, None),
    (space, "quantitative_slots", "space.quantitative_slots", _COUNT, None),
    (mads, "neighbors", "space.neighbors", _COUNT, _after_neighbors),
    (campaign, "deserialize", "space.deserialize", _SPAN, None),
    (mads, "generate_poll", "mads.generate_poll", _SPAN, _after_poll),
    (mads, "run_campaign", "mads.run_campaign", _SPAN, None),
    (mads, "continue_campaign", "mads.continue_campaign", _SPAN, None),
    (mads, "rank_candidates", "surrogates.rank_candidates", _SPAN, _after_rank),
    (blackbox.SimulatedBlackbox, "evaluate", "blackbox.evaluate", _SPAN, _after_evaluate),
    (blackbox.SimulatedBlackbox, "final_accuracy", "blackbox.final_accuracy", _SPAN, None),
    (blackbox.SimulatedBlackbox, "model_for", "blackbox.model_for", _SPAN, _after_model_for),
    (blackbox, "curve_arrays", "blackbox.curve_arrays", _SPAN, None),
    (campaign, "simulate_curve", "blackbox.simulate_curve", _SPAN, None),
    (campaign, "external_evaluate", "blackbox.external_evaluate", _SPAN, _after_external),
    (early_stop.StoppingMonitor, "verdict", "early_stop.verdict", _SPAN, None),
    (mads, "update_baseline", "early_stop.update_baseline", _SPAN, None),
    (campaign, "update_baseline", "early_stop.update_baseline", _SPAN, None),
    (campaign, "write_ledger", "ledger.write_ledger", _SPAN, _after_write_ledger),
    (campaign, "read_ledger", "ledger.read_ledger", _SPAN, _after_read_ledger),
    (campaign, "build_plan", "campaign.build_plan", _SPAN, None),
    (campaign, "run", "campaign.run", _SPAN, None),
    (campaign, "resume", "campaign.resume", _SPAN, None),
    (campaign, "_rebuild_state", "campaign._rebuild_state", _SPAN, None),
)


class Tracer:
    """Per-name call counts, self and inclusive seconds, plus raw spans."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct_model_keys = 0
        self.op_model_keys: set = set()
        self.spans: list[tuple] = []
        self.ops = 0
        self.op_seconds = 0.0
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._op_id = -1
        self._next_span = 0

    def _span_wrapper(self, name, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]  # seconds covered by child spans, id
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.incl_s[name] += duration
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if self.ops < KEEP_SPAN_OPS:
                    self.spans.append((name, start, end, span_id, parent, self._op_id))
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self, op_id: int) -> None:
        """Replace every target with its wrapper for the op about to run."""
        self._op_id = op_id
        self.op_model_keys = set()
        for owner, attr, name, kind, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            make = self._span_wrapper if kind == _SPAN else self._count_wrapper
            setattr(owner, attr, make(name, original, hook))

    def uninstall(self, op_seconds: float) -> None:
        """Restore the program's functions and close the op's accounting."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()
        self.ops += 1
        self.op_seconds += op_seconds
        self.distinct_model_keys += len(self.op_model_keys)

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as CSV, times in seconds from the first span."""
        base = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start_s", "end_s", "span", "parent", "op"))
            for name, start, end, span_id, parent, op in self.spans:
                writer.writerow((name, f"{start - base:.9f}", f"{end - base:.9f}", span_id, parent, op))
