"""Append-only run ledger: CSV persistence and convergence-series export.

The ledger records every charged event of a campaign (full evaluations,
surrogate estimates, ranking passes).  Files carry the campaign settings
as ``# key = value`` header lines so a run can be resumed or audited from
the file alone.  Identical campaigns write byte-identical files.  Ledgers
are written and read one row at a time, so the only memory that grows with
a ledger is the records themselves.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

KIND_FULL = "full-eval"
KIND_SURROGATE = "surrogate-eval"
KIND_RANKING = "ranking-pass"

COLUMNS = (
    "record_index",
    "kind",
    "config",
    "score",
    "epochs_used",
    "stop_reason",
    "charged_cost",
    "cumulative_cost",
    "incumbent",
    "iteration",
    "mesh_index",
)


@dataclass(frozen=True)
class LedgerRecord:
    record_index: int
    kind: str
    config: str
    score: float
    epochs_used: int
    stop_reason: str
    charged_cost: float
    cumulative_cost: float
    incumbent: bool
    iteration: int
    mesh_index: int

    def row(self) -> list[str]:
        return [
            str(self.record_index),
            self.kind,
            self.config,
            repr(self.score),
            str(self.epochs_used),
            self.stop_reason,
            repr(self.charged_cost),
            repr(self.cumulative_cost),
            "1" if self.incumbent else "0",
            str(self.iteration),
            str(self.mesh_index),
        ]

    @classmethod
    def from_row(cls, row: list[str]) -> "LedgerRecord":
        if row[1] not in (KIND_FULL, KIND_SURROGATE, KIND_RANKING):
            raise ValueError(f"unknown kind {row[1]!r}")
        if row[8] not in ("0", "1"):
            raise ValueError(f"incumbent must be 0 or 1, found {row[8]!r}")
        return cls(
            record_index=int(row[0]),
            kind=row[1],
            config=row[2],
            score=float(row[3]),
            epochs_used=int(row[4]),
            stop_reason=row[5],
            charged_cost=float(row[6]),
            cumulative_cost=float(row[7]),
            incumbent=row[8] == "1",
            iteration=int(row[9]),
            mesh_index=int(row[10]),
        )


def _refuse_line_break(name: str, value: str) -> None:
    if "\n" in value or "\r" in value:
        raise ValueError(f"{name} holds a line break: {value!r}")


def encode_row(fields) -> str:
    """One CSV line, exactly as ``csv.writer`` writes it in the excel dialect
    with newline line ends.  Fields free of commas, quotes and line breaks
    are joined as they are; a row with commas or quotes goes through
    ``csv.writer`` for its quoting.  A field that holds a line break raises
    ``ValueError`` naming its ledger column, because ``read_ledger`` reads
    one row per line."""
    line = ",".join(fields)
    if line.count(",") == len(fields) - 1 and '"' not in line and "\n" not in line and "\r" not in line:
        return line + "\n"
    for name, value in zip(COLUMNS, fields):
        _refuse_line_break(name, value)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def write_ledger(path: Path, records, header: dict[str, str]) -> None:
    """Write one row at a time to a temp file, then rename it over ``path``.
    On an error, such as a line break in a header value, ``path`` is untouched."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with tmp.open("w") as fh:
            for key in header:
                _refuse_line_break(f"header {key}", header[key])
                fh.write(f"# {key} = {header[key]}\n")
            fh.write(encode_row(COLUMNS))
            for record in records:
                fh.write(encode_row(record.row()))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)


def read_ledger(path: Path) -> tuple[dict[str, str], list[LedgerRecord]]:
    """Header and records of a ledger, read one line at a time."""
    header: dict[str, str] = {}
    records: list[LedgerRecord] = []
    columns_seen = False
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            elif line:
                row = line.split(",") if '"' not in line else next(csv.reader([line]))
                if not columns_seen:
                    if tuple(row) != COLUMNS:
                        break
                    columns_seen = True
                elif len(row) != len(COLUMNS):
                    raise ValueError(f"{path}:{lineno}: expected {len(COLUMNS)} fields, found {len(row)}")
                else:
                    try:
                        records.append(LedgerRecord.from_row(row))
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not columns_seen:
        raise ValueError(f"{path}: not a ledger file")
    for prev, rec in pairwise(records):
        if rec.cumulative_cost < prev.cumulative_cost:
            raise ValueError(f"{path}: cumulative cost decreases at record {rec.record_index}")
    return header, records


SERIES_COLUMNS = ("bbe", "epochs", "cost_units", "best_accuracy")


def export_convergence(records, *, surrogate_data_fraction: float = 1.0) -> list[tuple[float, int, float, float]]:
    """Best-so-far accuracy against three aligned cost axes.

    One row per full evaluation: cumulative charged budget, cumulative
    epochs over all trainings, and cumulative abstract cost (epochs scaled
    by the data fraction actually used).
    """
    if not records:
        raise ValueError("ledger is empty")
    rows = []
    epochs = 0
    cost_units = 0.0
    best = float("-inf")
    for rec in records:
        epochs += rec.epochs_used
        if rec.kind == KIND_FULL:
            cost_units += rec.epochs_used
            best = max(best, rec.score)
            rows.append((rec.cumulative_cost, epochs, cost_units, best))
        elif rec.kind == KIND_SURROGATE:
            cost_units += rec.epochs_used * surrogate_data_fraction
    if not rows:
        raise ValueError("ledger has no full evaluations")
    return rows


def write_series(path: Path, rows) -> None:
    with Path(path).open("w") as fh:
        fh.write(encode_row(SERIES_COLUMNS))
        for bbe, epochs, cost_units, best in rows:
            fh.write(encode_row([repr(float(bbe)), str(epochs), repr(float(cost_units)), repr(float(best))]))
