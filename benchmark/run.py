"""madshpo benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload p3-campaign --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics listed in ``BENCHMARK.json``; with
``--trace 1`` ops alternate untraced and traced, and the JSON holds the
per-layer metrics, the tracing overhead among them.  Lines before it
record the environment, the workload's settings and reason, and every
metric with its unit, including the op timings that ``BENCHMARK.json``
leaves out.  Results, with every op's time, and the spans of the first
traced ops are also written under ``.benchrun/``.

Exit codes: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when the program cannot be loaded (nothing
is printed on standard output).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".benchrun"
SETUP_PROBES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size: small budgets, two seeds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program() -> str | None:
    """Put ``src/`` first on the path and import madshpo from it; return an error or None."""
    if not (SRC / "madshpo" / "__init__.py").is_file():
        return f"no madshpo sources under {SRC}"
    sys.path.insert(0, str(SRC))
    try:
        import madshpo
    except ImportError as exc:
        return f"cannot import madshpo: {exc}"
    if Path(madshpo.__file__).resolve().parent != SRC / "madshpo":
        return f"imported madshpo from {madshpo.__file__}, not from {SRC}"
    return None


def setup_probe(args) -> None:
    """Child process: time importing madshpo and building one op's settings and plan."""
    started = time.perf_counter()
    error = load_program()
    if error:
        raise SystemExit(error)
    from workloads import WORKLOADS, campaign_seeds

    workload = WORKLOADS[args.workload](args.tiny)
    seed = campaign_seeds(workload.name, args.seed, 1)[0]
    workload.build(seed, WORK_ROOT / "probe")
    print(repr(time.perf_counter() - started))


def setup_sampler(args):
    """A callable that times one set-up in a fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])

    def sample() -> float:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    return sample


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(args, workload, spec: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": workload.name,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "settings": workload.settings(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    error = load_program()
    if error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 2
    from harness import end_to_end, layer_metrics, run_ops
    from tracing import Tracer
    from workloads import WORKLOADS, campaign_seeds

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r} (one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.tiny)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args, workload, spec)
    print("environment: " + json.dumps(env, sort_keys=True))

    seeds = campaign_seeds(workload.name, args.seed, workload.pool_size)
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        work.mkdir(parents=True)
        workload.prepare(seeds, work)
        if tracer is None:
            result = run_ops(workload, seeds, args.seconds, work, probe=setup_sampler(args), probes=SETUP_PROBES)
        else:
            result = run_ops(workload, seeds, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics, details = end_to_end(result)
    else:
        metrics = layer_metrics(tracer, result)
        details = {"traced_ops": tracer.ops, "ops": len(result.ops), "failed_frac": result.failed / len(result.ops)}
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    for name, (value, unit) in metrics.items():
        note = "" if name in gated else "  (printed only, not in BENCHMARK.json)"
        print(f"metric {name} = {value:.6g} {unit}{note}")
    print("details: " + json.dumps(details, sort_keys=True))
    problems = [f"op {op.index} (seed {op.seed}): {p}" for op in result.ops for p in op.problems]
    problems += result.run_problems
    for line in problems[:20]:
        print(f"check failed: {line}")

    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "details": details, "problems": problems,
              "ops": [{"seed": op.seed, "traced": op.traced, "seconds": op.seconds} for op in result.ops],
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    reported = {name: record["metrics"][name] for name in gated}
    (WORK_ROOT / f"result-{label}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write_spans(WORK_ROOT / f"spans-{label}.csv")

    print(json.dumps({
        "correct": not problems,
        "attempted": len(result.ops),
        "failed": result.failed,
        "metrics": reported,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
