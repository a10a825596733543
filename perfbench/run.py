"""Verification benchmark for padicharm.

    python3 perfbench/run.py --workload fe_pvs --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

A run first measures set-up (import of every padicharm module plus building
the workload's inputs) in several fresh interpreters, then runs whole rounds
of the workload until --seconds have passed (at least one round).  Each round
is a fresh single process with PADICHARM_WORKERS unset, so no cache carries
over from one round to the next.  --trace 0 reports the end-to-end metrics;
--trace 1 runs the rounds with span tracing on, writes the spans under
perfbench/out/ and reports the per-layer metrics.  --fast runs the same code
at p = 3, k = 2, level 1, in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
FAST_SETUP_PROBES = 3
ROUND_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


# --------------------------------------------------- inside a fresh process

def import_program():
    """Import every padicharm module from this checkout's src/."""
    import importlib
    import pkgutil
    sys.path.insert(0, str(SRC))
    import padicharm
    if Path(padicharm.__file__).resolve().parent != SRC / "padicharm":
        raise BenchError(f"padicharm imported from {padicharm.__file__}, not {SRC}")
    for info in pkgutil.iter_modules(padicharm.__path__):
        importlib.import_module(f"padicharm.{info.name}")


def plan(args):
    from workloads import FAST, FULL, WORKLOADS
    return WORKLOADS[args.workload](args.seed, FAST if args.fast else FULL)


def probe(args) -> dict:
    t0 = time.perf_counter()
    import_program()
    plan(args)
    return {"setup_s": time.perf_counter() - t0}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def one_round(args) -> dict:
    import_program()
    steps = plan(args)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    outputs = []
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for step in steps:
        try:
            outputs.append(step.run())
        except Exception as exc:   # noqa: BLE001 - a failed operation, reported
            outputs.append(exc)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()
    rss_mb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0

    attempted = failed = 0
    errors = []
    for step, out in zip(steps, outputs):
        attempted += step.ops
        if isinstance(out, Exception):
            failed += step.ops
            errors.append(f"{step.label}: {type(out).__name__}: {out}")
            continue
        try:
            ok = step.check(out)
        except Exception as exc:   # noqa: BLE001 - a malformed output fails its step
            ok = [False] * step.ops
            errors.append(f"{step.label}: check raised {type(exc).__name__}: {exc}")
        bad = step.ops - sum(1 for x in ok[:step.ops] if x)
        if bad:
            errors.append(f"{step.label}: {bad} of {step.ops} checks failed")
        failed += bad
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb,
              "attempted": attempted, "failed": failed, "errors": errors}
    if tracer is not None:
        result["layers"] = trace_metrics(args, tracer, wall)
    return result


def trace_metrics(args, tracer, wall) -> dict:
    from spans import layer_metrics
    from padicharm import fxspace
    _, per_layer = metric_spec()
    wanted = [m["name"] for m in per_layer]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}{'-fast' if args.fast else ''}.npz")
    metrics = layer_metrics(tracer.arrays(), tracer.sweep_passes, wanted)
    eta_coeff = getattr(fxspace, "_eta_coeff", None)
    info = eta_coeff.cache_info() if hasattr(eta_coeff, "cache_info") else None
    lookups = info.hits + info.misses if info else 0
    metrics["fxspace.eta_coeff.hit_ratio"] = info.hits / lookups if lookups else 0.0
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = len(tracer.start)
    return {m: metrics[m] for m in wanted}


# ------------------------------------------------------------- orchestrator

def child(args, role: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PADICHARM_WORKERS"}
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)] + (["--fast"] if args.fast else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{role} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def orchestrate(args) -> int:
    if not (SRC / "padicharm" / "__init__.py").is_file():
        raise BenchError(f"no padicharm sources under {SRC}")
    end_to_end, per_layer = metric_spec()
    probes = FAST_SETUP_PROBES if args.fast else SETUP_PROBES
    setup = statistics.median(child(args, "probe")["setup_s"] for _ in range(probes))

    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < args.seconds:
        rounds.append(child(args, "round"))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for err in sorted({e for r in rounds for e in r["errors"]}):
        print(f"FAILED {err}", file=sys.stderr)

    if args.trace:
        units = {m["name"]: m["unit"] for m in per_layer}
        values = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name in units}
    else:
        units = {m["name"]: m["unit"] for m in end_to_end}
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
            "setup_s": setup,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record(args, rounds, result)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def record(args, rounds, result):
    """Keep the run's rounds; a traced run also states its overhead."""
    OUT.mkdir(exist_ok=True)
    saved = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "fast": args.fast, "rounds": rounds, "result": result}
    untraced = OUT / f"result-{args.workload}-fast{int(args.fast)}-trace0.json"
    if args.trace and untraced.is_file():
        base = json.loads(untraced.read_text())["result"]["metrics"]["wall_s"]["value"]
        traced = statistics.median(r["wall_s"] for r in rounds)
        saved["trace_overhead"] = traced / base - 1.0
        print(f"trace overhead: {traced:.2f} s traced vs {base:.2f} s untraced "
              f"({100 * saved['trace_overhead']:+.1f}%)", file=sys.stderr)
    name = f"result-{args.workload}-fast{int(args.fast)}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(saved, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("fe_pvs", "gl1"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true",
                    help="p = 3, k = 2, level 1: exercise the harness in seconds")
    ap.add_argument("--role", choices=("probe", "round"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role == "probe":
        print(json.dumps(probe(args)))
        return 0
    if args.role == "round":
        print(json.dumps(one_round(args)))
        return 0
    # a terminated run still kills and waits for its current child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return orchestrate(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
