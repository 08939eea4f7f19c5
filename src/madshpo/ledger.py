"""Append-only run ledger: persistence and convergence-series export.

The ledger records every charged event of a campaign (full evaluations,
surrogate estimates, ranking passes).  A file starts with the campaign
settings as ``# key = value`` header lines, so a run can be resumed or
audited from the file alone.  Then come the column line and one line per
record.  Each line is one row, its fields joined by commas.  Fields are
plain tokens: configurations are ``name=value`` tokens, and kinds and stop
reasons are constants.  So nothing is quoted, and a field holding a comma,
a quote or a line break is refused on writing and reading.  Identical
campaigns write byte-identical files.  Ledgers are written and read one row
at a time, so the only memory that grows with a ledger is the records
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

KIND_FULL = "full-eval"
KIND_SURROGATE = "surrogate-eval"
KIND_RANKING = "ranking-pass"


@dataclass(frozen=True, slots=True)
class LedgerRecord:
    """One ledger row; the fields are the columns, in file order."""

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
        return [spell(getattr(self, name)) for name, spell in zip(COLUMNS, _SPELLS)]

    @classmethod
    def from_row(cls, row: list[str]) -> "LedgerRecord":
        if row[1] not in (KIND_FULL, KIND_SURROGATE, KIND_RANKING):
            raise ValueError(f"unknown kind {row[1]!r}")
        return cls(*[read(text) for read, text in zip(_READS, row)])


def _codec(field) -> tuple:
    """How the column of ``field`` is spelled in a row and read back, by its type:
    a float by ``repr``, so it reads back bit-exact, and a bool as 1 or 0."""
    if field.type != "bool":
        return {"int": (str, int), "float": (repr, float), "str": (str, str)}[field.type]

    def read(text: str) -> bool:
        if text not in ("0", "1"):
            raise ValueError(f"{field.name} must be 0 or 1, found {text!r}")
        return text == "1"

    return (lambda value: "1" if value else "0"), read


COLUMNS = tuple(field.name for field in fields(LedgerRecord))
_SPELLS, _READS = zip(*map(_codec, fields(LedgerRecord)))
# positions of the text columns, whose values repeat from row to row
_TEXT_COLUMNS = tuple(i for i, field in enumerate(fields(LedgerRecord)) if field.type == "str")


def _refuse_line_break(name: str, value: str) -> None:
    if "\n" in value or "\r" in value:
        raise ValueError(f"{name} holds a line break: {value!r}")


def check_plain(name: str, value: str) -> None:
    """Refuse a field that one ledger line cannot carry: ``read_ledger``
    splits each line on commas and reads one row per line, so a value that
    holds a comma, a quote or a line break raises ``ValueError`` naming
    column ``name``."""
    _refuse_line_break(name, value)
    if "," in value or '"' in value:
        raise ValueError(f"{name} holds a comma or quote: {value!r}")


def encode_row(row) -> str:
    """One ledger line: the fields joined by commas; each must pass ``check_plain``."""
    line = ",".join(row)
    if line.count(",") != len(row) - 1 or '"' in line or "\n" in line or "\r" in line:
        for name, value in zip(COLUMNS, row):
            check_plain(name, value)
    return line + "\n"


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


def _check_sequence(record: LedgerRecord, index: int, total: float) -> None:
    """Refuse a record that disagrees with the rows before it: ``record_index``
    runs 0, 1, 2, ... in file order, charges and epochs are not negative,
    and ``cumulative_cost`` is ``total``, the running sum of
    ``charged_cost``.  The writer adds the charges in the same order, so the
    sum is exact."""
    if record.record_index != index:
        raise ValueError(f"record_index {record.record_index}, expected {index}")
    if record.charged_cost < 0:
        raise ValueError(f"negative charged_cost {record.charged_cost!r}")
    if record.epochs_used < 0:
        raise ValueError(f"negative epochs_used {record.epochs_used}")
    if record.cumulative_cost != total:
        raise ValueError(f"cumulative_cost {record.cumulative_cost!r} is not the running sum {total!r} of charged_cost")


def read_ledger(path: Path) -> tuple[dict[str, str], list[LedgerRecord]]:
    """Header and records of a ledger, read one line at a time.  A header
    line that is not ``# key = value``, repeats a key or comes after the
    column line, a malformed row, or one that disagrees with the rows before
    it, raises ``ValueError`` naming ``path:line``.  Rows with equal text in
    a text column share one ``str``."""
    header: dict[str, str] = {}
    records: list[LedgerRecord] = []
    texts: dict[str, str] = {}
    total = 0.0
    columns_seen = False
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                if columns_seen:
                    raise ValueError(f"{path}:{lineno}: header line after the column line")
                key, eq, value = line[1:].partition("=")
                key = key.strip()
                if not eq or not key:
                    raise ValueError(f"{path}:{lineno}: a header line is '# key = value'")
                if key in header:
                    raise ValueError(f"{path}:{lineno}: header key {key!r} appears twice")
                header[key] = value.strip()
            elif line:
                row = line.split(",")
                if not columns_seen:
                    if tuple(row) != COLUMNS:
                        break
                    columns_seen = True
                elif len(row) != len(COLUMNS):
                    raise ValueError(f"{path}:{lineno}: expected {len(COLUMNS)} fields, found {len(row)}")
                elif '"' in line:
                    raise ValueError(f"{path}:{lineno}: a field holds a quote")
                else:
                    for i in _TEXT_COLUMNS:
                        row[i] = texts.setdefault(row[i], row[i])
                    try:
                        record = LedgerRecord.from_row(row)
                        total += record.charged_cost
                        _check_sequence(record, len(records), total)
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from None
                    records.append(record)
    if not columns_seen:
        raise ValueError(f"{path}: not a ledger file")
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
