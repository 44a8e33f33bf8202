"""Run one named workload of the end-to-end benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm_replay --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures an untraced window, then a traced one, and
reports the per-layer metrics (plus tracing overhead) instead.  Every
returned logit is checked bit-for-bit against a reference; a mismatch
makes the command exit 1.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The host is used as found: no BLAS thread count or similar is set.  The
run records the host (``nproc``, fingerprint, NumPy/BLAS versions and a
``calibration_s`` timing of a fixed NumPy kernel) but never rescales a
metric by it.  Outputs (spans, full records, pool spool files) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    from repro.plan.autotune import host_fingerprint

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rng = np.random.default_rng(0)
    a = rng.random((256, 256))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            a @ a
        times.append(time.perf_counter() - start)
    return {
        "nproc": os.cpu_count(),
        "host_fingerprint": host_fingerprint(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "calibration_s": statistics.median(times),
    }


def timing_line(name: str, values_ms) -> str:
    s = metrics.summarize(values_ms)
    top = (
        f"p{s['top_percentile']:g} {s['top']:.3f}"
        if s["top_percentile"] is not None else "no percentile supported"
    )
    return (f"  {name:<28} n={s['n']:<6} p50 {s['p50']:.3f}  p99 {s['p99']:.3f}  "
            f"highest supported: {top}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        run = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = run.tally
    e2e = run.e2e()
    report = {
        "failed_share": (
            metrics.failed_share(tally.attempted, tally.failed, tally.shed, tally.wrong),
            "ratio", tally.attempted,
        ),
        **run.report,
    }
    correct = tally.wrong == 0 and run.stale_kernel_hits == 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  replicas {workloads.REPLICAS}")
    print("host: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"requests: attempted {tally.attempted}, failed {tally.failed}, "
          f"shed {tally.shed}, wrong logits {tally.wrong}, "
          f"stale kernel hits {run.stale_kernel_hits}")
    print("end-to-end, every workload (* = gated in BENCHMARK.json):")
    for name, (value, unit, n) in e2e.items():
        _, gated, meaning = layers.END_TO_END[name]
        print(f" {'*' if gated else ' '}{name:<26} {value:12.4f} {unit:<6} "
              f"n={n:<6} {meaning}")
    print("end-to-end, this workload:")
    for name, (value, unit, n) in report.items():
        print(f"  {name:<26} {value:12.4f} {unit:<6} n={n}")
    print("per replica: throughput "
          + " ".join(f"{v:.1f}" for v in run.throughput)
          + "  p50_ms " + " ".join(f"{v * 1e3:.1f}" for v in run.p50_s)
          + "  setup_s " + " ".join(f"{v:.3f}" for v in run.setup_s))
    print("timings (ms):")
    for name, values in run.timings.items():
        print(timing_line(name, values))

    if args.trace:
        per_layer = {name: float(run.per_layer.get(name, 0.0))
                     for name in layers.PER_LAYER}
        print("per-layer, traced window (0 where the workload does not "
              "reach the layer):")
        for name, value in per_layer.items():
            _, unit, _, moves, where = layers.PER_LAYER[name]
            print(f"  {name:<38} {value:12.4f} {unit:<6} moves {moves} "
                  f"[most/least: {where}]")
        run.tracer.write(OUT / f"spans-{tag}.json")
        out_metrics = {n: {"value": v, "unit": layers.PER_LAYER[n][1]}
                       for n, v in per_layer.items()}
    else:
        out_metrics = {n: {"value": float(v), "unit": u}
                       for n, (v, u, _) in e2e.items() if layers.END_TO_END[n][1]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "end_to_end": {
            n: {"value": v, "unit": u, "n": k}
            for n, (v, u, k) in {**e2e, **report}.items()
        },
        "metrics": out_metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.bad,
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
