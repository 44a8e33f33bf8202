"""The per-layer metrics of the traced run and the end-to-end metric each
should move.

``PER_LAYER`` is the layer → end-to-end map later changes cite by name:
for every per-layer metric it names the layer (module), its unit, which
direction is better, the end-to-end metrics it should move and the
workloads where the layer does the most and the least work.  The
end-to-end names are those ``run.py`` prints; ``END_TO_END`` lists the
ones every workload reports and marks the subset ``BENCHMARK.json``
gates.  The rest of the module derives the per-layer metrics from a
traced window's spans and counter deltas.
"""

from __future__ import annotations

import statistics

from repro.codegen import kernel_cache_segment

import metrics
from tracing import Tracer

#: Shard workers of every pool the benchmark builds.
WORKERS = 2

#: Engine-level windows of ``SessionStats.phase_seconds`` that overlap
#: the ``packed_adjacency_for`` / ``plan_for`` spans; every other phase
#: is executor time inside ``execute_forward_plan``.
ENGINE_WINDOW_PHASES = ("pack_adjacency", "plan_compile")

#: End-to-end metrics every workload reports: unit, whether
#: ``BENCHMARK.json`` gates it, and what it means there.
END_TO_END = {
    "setup_s": ("s", True,
                "median over replicas of: build the pool+gateway or session, "
                "warm up, first pass compiling every distinct structure"),
    "setup_rss_mb": ("MB", True,
                     "peak resident memory through inputs, reference and the "
                     "first set-up (sequential, so repeatable)"),
    "peak_rss_mb": ("MB", False,
                    "peak resident memory of the whole run; set by transient "
                    "buffers that coincide at random in the two shard threads, "
                    "so it spreads past the largest bound a gate may use"),
    "throughput_rps": ("req/s", True,
                       "closed loops: correct settled req/s; open_loop_mixed: "
                       "goodput of the over-saturation phase (saturated_rps.high); "
                       "mutate_serve: fresh rounds/s"),
    "latency_p50_ms": ("ms", False,
                       "closed loops: submit to settled; open_loop_mixed: "
                       "interactive_p50_ms.mid; mutate_serve: fresh_p50_ms; a "
                       "saturated closed loop's median amplifies host-speed "
                       "drift about twofold, so it is printed, not gated"),
    "latency_tail_ms": ("ms", True,
                        "as latency_p50_ms, at p99 (mutate_serve: p95, the "
                        "highest its sample supports)"),
}

_GEMM_MOVES = "throughput_rps, latency_p50_ms / fresh_p50_ms"
_GEMM_WHERE = "warm_replay, mutate_serve / open_loop_mixed"

#: name -> (layer, unit, better, should move, most work / least work)
PER_LAYER = {
    "gnn.gemm_ms": ("gnn", "ms", "lower", _GEMM_MOVES, _GEMM_WHERE),
    "gnn.pack_ms": ("gnn", "ms", "lower", _GEMM_MOVES, _GEMM_WHERE),
    "gnn.quantize_ms": ("gnn", "ms", "lower", _GEMM_MOVES, _GEMM_WHERE),
    "gnn.epilogue_ms": ("gnn", "ms", "lower", _GEMM_MOVES, _GEMM_WHERE),
    "core.mma_ops": ("core", "count", "lower", _GEMM_MOVES, "warm_replay / open_loop_mixed"),
    "core.tile_skip_share": ("core", "ratio", "higher", _GEMM_MOVES, "warm_replay / open_loop_mixed"),
    "engine.adjacency_ms": ("engine", "ms", "lower", "throughput_rps", "cache_churn / warm_replay"),
    "engine.adjacency_hit_ratio": ("engine", "ratio", "higher", "throughput_rps", "cache_churn / warm_replay"),
    "engine.plan_hit_ratio": ("engine", "ratio", "higher", "throughput_rps", "cache_churn / warm_replay"),
    "plan.compile_ms": ("plan", "ms", "lower", "throughput_rps", "cache_churn / warm_replay"),
    "engine.round_ms": ("engine", "ms", "lower", "latency_p50_ms, peak_rss_mb", "cache_churn, warm_replay"),
    "engine.self_ms": ("engine", "ms", "lower", "latency_p50_ms, peak_rss_mb", "cache_churn, warm_replay"),
    "engine.cache_mb": ("engine", "MB", "lower", "latency_p50_ms, peak_rss_mb", "cache_churn, warm_replay"),
    "codegen.lower_ms": ("codegen", "ms", "lower", "fresh_p50_ms, setup_s", "mutate_serve / warm_replay"),
    "codegen.compile_ms": ("codegen", "ms", "lower", "fresh_p50_ms, setup_s", "mutate_serve / warm_replay"),
    "codegen.kernel_hit_ratio": ("codegen", "ratio", "higher", "fresh_p50_ms, setup_s", "mutate_serve / warm_replay"),
    "pool.merge_ms": ("pool", "ms", "lower", "interactive_p99_ms.mid, slo_share.*, latency_tail_ms", "open_loop_mixed / mutate_serve"),
    "pool.merges": ("pool", "count", "lower", "interactive_p99_ms.mid, slo_share.*, latency_tail_ms", "open_loop_mixed / mutate_serve"),
    "pool.merge_share": ("pool", "ratio", "lower", "interactive_p99_ms.mid, slo_share.*, latency_tail_ms", "open_loop_mixed / mutate_serve"),
    "pool.queue_wait_ms": ("pool", "ms", "lower", "latency_p50_ms, throughput_rps", "warm_replay, cache_churn"),
    "pool.batch_occupancy": ("pool", "count", "higher", "latency_p50_ms, throughput_rps", "warm_replay, cache_churn"),
    "pool.shard_imbalance": ("pool", "ratio", "lower", "latency_p50_ms, throughput_rps", "warm_replay, cache_churn"),
    "pool.worker_busy_share": ("pool", "ratio", "higher", "latency_p50_ms, throughput_rps", "warm_replay, cache_churn"),
    "gateway.admit_wait_ms": ("gateway", "ms", "lower", "slo_share.high, failed_share", "open_loop_mixed / closed loops"),
    "gateway.shed_share": ("gateway", "ratio", "lower", "slo_share.high, failed_share", "open_loop_mixed / closed loops"),
    "gateway.reroute_share": ("gateway", "ratio", "lower", "slo_share.high, failed_share", "open_loop_mixed / closed loops"),
    "dynamic.mutate_ms": ("dynamic", "ms", "lower", "fresh_p50_ms", "mutate_serve / everything else"),
    "dynamic.serve_ms": ("dynamic", "ms", "lower", "fresh_p50_ms", "mutate_serve / everything else"),
    "dynamic.patch_share": ("dynamic", "ratio", "higher", "fresh_p50_ms", "mutate_serve / everything else"),
    "dynamic.kernels_invalidated_per_batch": ("dynamic", "count", "lower", "fresh_p50_ms", "mutate_serve / everything else"),
    "dynamic.stale_kernel_hits": ("dynamic", "count", "lower", "must stay 0", "mutate_serve / everything else"),
    "trace.coverage": ("trace", "ratio", "higher", "share of request wall time inside recorded spans", "all"),
    "trace.overhead_share": ("trace", "ratio", "lower", "traced median latency / untraced - 1", "all"),
}


# --------------------------------------------------------------------- #
# Derivation from counters and spans
# --------------------------------------------------------------------- #
def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_ms(spans) -> float:
    return _median([s.seconds for s in spans]) * 1e3


def _coverage(root, spans) -> float:
    """Share of ``root``'s wall time inside ``spans``."""
    return _ratio(
        metrics.covered(root.start, root.end, [(s.start, s.end) for s in spans]),
        root.seconds,
    )


def engine_counters(engines) -> dict:
    """Flat running totals of the engines' counters (and the shared
    codegen kernel segment), for :func:`delta`."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for engine in engines:
        stats = engine.stats
        add("requests", stats.requests)
        add("batches", stats.batches)
        add(f"requests.{engine.label}", stats.requests)
        add("mma_ops", stats.mma_ops)
        add("tiles_total", stats.tiles_total)
        add("tiles_skipped", stats.tiles_skipped)
        for phase, seconds in stats.phase_seconds.items():
            add(f"phase.{phase}", seconds)
        for kind in ("adjacency", "plan"):
            cache = engine.plan_artifacts.segment(kind).stats
            add(f"{kind}.hits", cache.hits)
            add(f"{kind}.misses", cache.misses)
    kernel = kernel_cache_segment().stats
    out["kernel.hits"] = kernel.hits
    out["kernel.misses"] = kernel.misses
    return out


def gateway_counters(gateway) -> dict:
    stats = gateway.stats()
    return {
        "submitted": stats.submitted,
        "rejected": stats.rejected,
        "rerouted": stats.rerouted,
    }


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def cache_megabytes(engines) -> float:
    """Bytes held by every distinct cache segment the engines mount."""
    segments = {}
    for engine in engines:
        cache = engine.plan_artifacts
        for kind in cache.kinds():
            segment = cache.segment(kind)
            segments[id(segment)] = segment
    return sum(s.nbytes for s in segments.values()) / 2**20


def core_and_gnn(d: dict, requests: float) -> dict:
    """Per-request phase times, bit-GEMM work and hit ratios from counter
    deltas."""

    def per_request_ms(key):
        return _ratio(d.get(key, 0.0), requests) * 1e3

    def hit_ratio(kind):
        hits = d.get(f"{kind}.hits", 0.0)
        return _ratio(hits, hits + d.get(f"{kind}.misses", 0.0))

    return {
        "gnn.gemm_ms": per_request_ms("phase.gemm"),
        "gnn.pack_ms": per_request_ms("phase.pack"),
        "gnn.quantize_ms": per_request_ms("phase.quantize"),
        "gnn.epilogue_ms": per_request_ms("phase.epilogue"),
        "core.mma_ops": _ratio(d.get("mma_ops", 0.0), requests),
        "core.tile_skip_share": _ratio(d.get("tiles_skipped", 0.0), d.get("tiles_total", 0.0)),
        "codegen.lower_ms": per_request_ms("phase.plan_lower"),
        "codegen.compile_ms": per_request_ms("phase.kernel_compile"),
        "codegen.kernel_hit_ratio": hit_ratio("kernel"),
        "engine.adjacency_hit_ratio": hit_ratio("adjacency"),
        "engine.plan_hit_ratio": hit_ratio("plan"),
    }


def serving_layer_metrics(tracer: Tracer, d: dict, gw: dict, window_s: float,
                          engines) -> dict:
    """Per-layer metrics of a traced gateway → pool → engine window."""
    infers = tracer.named("engine.infer")
    by_trace: dict[int, list] = {}
    for span in tracer.spans:
        if span.trace is not None:
            by_trace.setdefault(span.trace, []).append(span)
    for span in infers:  # a coalesced round serves every member's trace
        for trace in span.attrs["traces"][1:]:
            by_trace.setdefault(trace, []).append(span)
    admit, coverage = [], []
    for root in tracer.named("gateway.submit"):
        spans = [s for s in by_trace.get(root.trace, []) if s is not root]
        submits = [s.start for s in spans if s.name == "pool.submit"]
        if submits:
            admit.append(min(submits) - root.start)
        coverage.append(_coverage(root, spans))
    children = tracer.children()
    self_ms = []
    for span in infers:
        executor = sum(
            seconds for phase, seconds in span.attrs["phases"].items()
            if phase not in ENGINE_WINDOW_PHASES
        )
        kids = [(s.start, s.end) for s in children.get(span.span_id, [])]
        self_ms.append(metrics.self_time(span.start, span.end, kids) - executor)
    merges = tracer.named("pool.merge")
    merge_s = sum(s.seconds for s in merges)
    busy_s = sum(s.seconds for s in infers) + merge_s
    shard_requests = [v for k, v in d.items() if k.startswith("requests.w")]
    requests = d.get("requests", 0.0)
    out = core_and_gnn(d, requests)
    out.update({
        "engine.adjacency_ms": _median_ms(tracer.named("engine.adjacency")),
        "plan.compile_ms": _median_ms(tracer.named("plan.plan_for")),
        "engine.round_ms": _median_ms(infers),
        "engine.self_ms": _median(self_ms) * 1e3,
        "engine.cache_mb": cache_megabytes(engines),
        "pool.merge_ms": _median_ms(merges),
        "pool.merges": float(len(merges)),
        "pool.merge_share": _ratio(merge_s, busy_s),
        "pool.queue_wait_ms": _median_ms(tracer.named("pool.queue")),
        "pool.batch_occupancy": _ratio(requests, d.get("batches", 0.0)),
        "pool.shard_imbalance": _ratio(
            max(shard_requests, default=0.0),
            _ratio(sum(shard_requests), len(shard_requests)),
        ),
        "pool.worker_busy_share": _ratio(busy_s, window_s * WORKERS),
        "gateway.admit_wait_ms": _median(admit) * 1e3,
        "gateway.shed_share": _ratio(gw["rejected"], gw["submitted"]),
        "gateway.reroute_share": _ratio(gw["rerouted"], gw["submitted"]),
        "trace.coverage": _median(coverage),
    })
    return out


def dynamic_layer_metrics(tracer: Tracer, d: dict, dyn: dict, forwards,
                          engines) -> dict:
    """Per-layer metrics of a traced mutate-then-serve window.

    ``DynamicSession.serve`` feeds the engine's phase and cache counters
    but not its bit-GEMM counters, so those come from the served forward
    results themselves.
    """
    for forward in forwards:
        totals = forward.total_counters
        for key in ("mma_ops", "tiles_total", "tiles_skipped"):
            d[key] = d.get(key, 0.0) + getattr(totals, key)
    children = tracer.children()
    out = core_and_gnn(d, float(len(forwards)))
    out.update({
        "engine.cache_mb": cache_megabytes(engines),
        "dynamic.mutate_ms": _median_ms(tracer.named("dynamic.mutate")),
        "dynamic.serve_ms": _median_ms(tracer.named("dynamic.serve")),
        "dynamic.patch_share": _ratio(dyn["plans_patched"], dyn["mutation_batches"]),
        "dynamic.kernels_invalidated_per_batch": _ratio(
            dyn["kernels_invalidated"], dyn["mutation_batches"]
        ),
        "dynamic.stale_kernel_hits": dyn["stale_kernel_hits"],
        "trace.coverage": _median([
            _coverage(r, children.get(r.span_id, []))
            for r in tracer.named("dynamic.round")
        ]),
    })
    return out
