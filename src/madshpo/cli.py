"""Command-line interface: run, resume, and export campaigns.

The flags of ``run`` and ``resume`` come from the ``CampaignSettings``
table.  Settings can also be loaded from a ``key = value`` file (one pair
per line, ``#`` comments allowed) whose keys are the flag names without
the leading dashes; explicit flags override file values.  The
``MADSHPO_OUT_ROOT`` environment variable prefixes relative output
directories.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .campaign import (LEDGER_NAME, SUMMARY_NAME, CampaignSettings, header_settings, read_checked_ledger, resume,
                       run, setting_fields)
from .ledger import export_convergence, write_series


def read_settings_file(path: Path) -> dict[str, str]:
    keys = {key for key, _ in setting_fields()}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        # a "#" at the start or after whitespace begins a comment; one inside a word, as in --tag=#1, is kept
        line = re.sub(r"(?:^|\s)#.*", "", raw).strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not eq or key not in keys:
            raise ValueError(f"{path}:{lineno}: bad settings line {raw!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key!r} appears twice")
        values[key] = value.strip()
    return values


def _merge(args: argparse.Namespace) -> dict[str, str]:
    values: dict[str, str] = {}
    if args.config_file:
        values.update(read_settings_file(Path(args.config_file)))
    for key, _ in setting_fields():
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return values


def _add_settings_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config-file", help="key = value settings file (flags override)")
    for key, f in setting_fields():
        flag = f.metadata["flag"] or "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, **f.metadata["options"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="madshpo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign")
    _add_settings_flags(p_run)

    p_resume = sub.add_parser("resume", help="continue an interrupted campaign")
    _add_settings_flags(p_resume)

    p_export = sub.add_parser("export", help="export convergence series from a ledger")
    p_export.add_argument("--ledger", required=True, help="path to ledger.csv")
    p_export.add_argument("--out", required=True, help="series output file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "resume"):
            settings = CampaignSettings.from_text(_merge(args))
            state = run(settings) if args.command == "run" else resume(settings)
            summary = json.loads((Path(settings.out_dir) / SUMMARY_NAME).read_text())
            print(f"ledger: {Path(settings.out_dir) / LEDGER_NAME}")
            best = summary["best_score"]
            print("best score: none" if best is None else f"best score: {best:.4f}")
            print(f"charged bbe: {summary['total_charged_bbe']:.3f}")
            print(f"total epochs: {summary['total_epochs']}")
            print(f"termination: {state.termination}")
            return 0
        # argparse requires one of the three commands, so this one is export
        header, records = read_checked_ledger(Path(args.ledger))
        spec = header_settings(header, Path(args.ledger))[1].surrogate
        rows = export_convergence(records, surrogate_data_fraction=1.0 if spec is None else spec.data_fraction)
        write_series(Path(args.out), rows)
        print(f"wrote {len(rows)} rows to {args.out}")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
