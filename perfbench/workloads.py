"""The four named workloads: inputs from a seed, set-up, measured windows,
bit-for-bit checks, and the end-to-end metrics each reports.

Every workload drives the public API only: ``ServingGateway`` over a
2-worker ``ServingPool`` of ``InferenceEngine`` shards, or a
``DynamicSession``.  Load comes from one process on a single event-loop
thread.  Inputs depend on the seed alone; offered rates, client counts
and sizes are constants, never rescaled from a measurement.

The graphs and models are fixed fixtures generated from constant seeds
(``DATASET_SEED``); the workload seed generates the traffic: request
order, arrival times and lanes, and mutation batches.  Runs under
different seeds therefore measure the same system under different
traffic, not different systems.

A run is ``REPLICAS`` independent replicas: each sets the system up from
cold (timed: ``setup_s``) and measures ``seconds / REPLICAS``.  Backend
choices are frozen into compiled plans from timings taken while setting
up, so one set-up can land in a slower mode than another; the run
reports throughput and latency tails over all replicas' samples pooled,
and the median over replicas of their median latency, so one unlucky
set-up does not decide the figure.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import itertools
import resource
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.codegen import kernel_cache_segment
from repro.dynamic import DynamicSession
from repro.errors import PoolSaturated
from repro.gnn import make_batched_gin
from repro.gnn.models import make_cluster_gcn
from repro.gnn.quantized import (
    ActivationCalibration,
    pack_batch_adjacency,
    quantized_forward,
)
from repro.graph import induced_subgraphs, load_dataset
from repro.graph.batching import Subgraph
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition, partition_graph
from repro.serving import (
    GatewayConfig,
    InferenceEngine,
    PoolConfig,
    ServingConfig,
    ServingGateway,
    ServingPool,
)

import layers
import metrics
from tracing import Tracer

DATASET_SEED = 0
REPLICAS = 8
CLOSED_LOOP_CLIENTS = 16
#: Open loop: absolute offered rates (req/s), the share of a replica's
#: window each runs for, the interactive share of arrivals and the
#: interactive latency limit.  The top rate sits above the saturation
#: measured on a 2-core host (~260 req/s), so its phase shows overload.
RATES = {"low": 50.0, "mid": 150.0, "high": 450.0}
RATE_SHARE = {"low": 0.15, "mid": 0.6, "high": 0.25}
INTERACTIVE_SHARE = 0.8
INTERACTIVE_LIMIT_S = 0.050
SLO_TARGET = 0.99
#: Admission budget; a phase whose outstanding requests exceed it when
#: its last request is sent has a growing backlog.  The long admission
#: timeout makes overload show as latency, not as shed requests.
MAX_IN_FLIGHT = 64
QUEUE_TIMEOUT_S = 30.0
#: mutate_serve: edges inserted or deleted per round, as a share of edges.
MUTATION_SHARE = 0.001


def _unique(subgraph: Subgraph) -> Subgraph:
    # A distinct object with the same arrays: the tracer links a shard's
    # batch back to the request through object identity, and both runs
    # pay for the copy so traced and untraced work stay identical.
    return dataclasses.replace(subgraph)


def _as_subgraph(graph) -> Subgraph:
    return Subgraph(graph=graph, original_nodes=np.arange(graph.num_nodes))


def _ms(quantity: float, samples: int) -> tuple[float, str, int]:
    return (quantity * 1e3, "ms", samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class ServingInputs:
    structures: list[Subgraph]
    model: object
    config: ServingConfig
    #: Structure index of every closed-loop request, in issue order
    #: (cycled if a run issues more).
    order: list[int]


def warm_replay_inputs(seed: int) -> ServingInputs:
    """8-bit, 48 METIS parts (~120 nodes) of the PPI stand-in; the shard
    caches are sized to hold the whole working set."""
    graph = load_dataset("PPI", scale=0.1, seed=DATASET_SEED)
    parts = partition_graph(graph, 48, method="metis", seed=DATASET_SEED)
    structures = induced_subgraphs(graph, parts.assignment)
    model = make_batched_gin(graph.feature_dim, graph.num_classes, seed=DATASET_SEED)
    config = ServingConfig(
        feature_bits=8, adjacency_cache_capacity=64, plan_cache_capacity=64
    )
    # Independent uniform picks: a cycled permutation would repeat one
    # fixed shard sequence, so each seed would measure its own fixed
    # imbalance pattern rather than the same traffic statistics.
    order = np.random.default_rng(seed).integers(0, len(structures), 1 << 14)
    return ServingInputs(structures, model, config, order.tolist())


def cache_churn_inputs(seed: int) -> ServingInputs:
    """1-bit, 48 distinct ~1500-node structures cycled through shard
    caches of default capacity, so every round misses."""
    rng = np.random.default_rng(DATASET_SEED)
    structures = [
        _as_subgraph(planted_partition_graph(
            1500, 6000, num_communities=4, feature_dim=16, num_classes=4,
            rng=rng,
        ))
        for _ in range(48)
    ]
    model = make_batched_gin(16, 4, hidden_dim=16, seed=DATASET_SEED)
    # Cycling one permutation keeps every structure's reuse distance at 48
    # requests, beyond what the shard caches hold, so every round misses.
    order = np.random.default_rng(seed).permutation(len(structures)).tolist()
    return ServingInputs(structures, model, ServingConfig(feature_bits=1), order)


def open_loop_inputs() -> ServingInputs:
    """1-bit, 16 METIS parts (~256 nodes) of a planted-partition graph."""
    rng = np.random.default_rng(DATASET_SEED)
    graph = planted_partition_graph(
        4096, 24576, num_communities=16, feature_dim=16, num_classes=4, rng=rng
    )
    structures = induced_subgraphs(
        graph, metis_like_partition(graph, 16, seed=DATASET_SEED)
    )
    model = make_batched_gin(16, 4, seed=DATASET_SEED)
    return ServingInputs(structures, model, ServingConfig(feature_bits=1), [])


def poisson_schedule(seed, seconds: float, count: int) -> dict:
    """Per phase: seeded ``(offset_s, structure, lane)`` arrivals."""
    rng = np.random.default_rng(seed)
    schedule = {}
    for phase, rate in RATES.items():
        duration = seconds * RATE_SHARE[phase]
        gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < duration]
        picks = rng.integers(0, count, size=len(offsets))
        interactive = rng.random(len(offsets)) < INTERACTIVE_SHARE
        lanes = np.where(interactive, "interactive", "batch")
        schedule[phase] = list(zip(offsets.tolist(), picks.tolist(), lanes.tolist()))
    return schedule


# --------------------------------------------------------------------- #
# What a run measured
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class Tally:
    """Outcome counts of the requests a run attempted."""

    attempted: int = 0
    failed: int = 0
    shed: int = 0
    wrong: int = 0

    @property
    def bad(self) -> int:
        return self.failed + self.shed + self.wrong


@dataclasses.dataclass
class Run:
    """Per-replica figures of one run, reduced to end-to-end metrics."""

    tally: Tally = dataclasses.field(default_factory=Tally)
    setup_s: list[float] = dataclasses.field(default_factory=list)
    throughput: list[float] = dataclasses.field(default_factory=list)
    #: Correct requests (or rounds) the throughput windows counted, and
    #: the seconds those windows lasted, summed over replicas.
    served: int = 0
    served_s: float = 0.0
    p50_s: list[float] = dataclasses.field(default_factory=list)
    #: Latencies of every replica, pooled (seconds).
    latencies: list[float] = dataclasses.field(default_factory=list)
    #: Workload-specific end-to-end metrics: name -> (value, unit, n).
    report: dict = dataclasses.field(default_factory=dict)
    #: Raw timing samples (ms) printed with their sample counts.
    timings: dict = dataclasses.field(default_factory=dict)
    per_layer: dict = dataclasses.field(default_factory=dict)
    tracer: Tracer | None = None
    stale_kernel_hits: int = 0
    setup_rss_mb: float = 0.0
    #: Quantile ``latency_tail_ms`` reports: the highest the workload's
    #: sample supports at the benchmark's run length.
    tail_q: float = 0.99

    def add(self, setup_s: float, served: int, seconds: float, latencies) -> None:
        """One replica: its set-up time, ``served`` correct requests in
        ``seconds``, and the latencies its tails are taken over."""
        self.setup_s.append(setup_s)
        self.served += served
        self.served_s += seconds
        self.throughput.append(served / seconds)
        self.p50_s.append(metrics.quantile(latencies, 0.5))
        self.latencies.extend(latencies)

    def quantile_ms(self, q: float) -> tuple[float, str, int]:
        """A quantile of the pooled latencies."""
        return _ms(metrics.quantile(self.latencies, q), len(self.latencies))

    def e2e(self) -> dict:
        n = len(self.latencies)
        return {
            "setup_s": (statistics.median(self.setup_s), "s", len(self.setup_s)),
            "setup_rss_mb": (self.setup_rss_mb, "MB", 1),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
            "throughput_rps": (self.served / self.served_s, "req/s", self.served),
            "latency_p50_ms": _ms(statistics.median(self.p50_s), n),
            "latency_tail_ms": self.quantile_ms(self.tail_q),
        }


def _overhead(untraced_s, traced_s) -> float:
    """Traced median latency over untraced, minus one."""
    base = metrics.quantile(untraced_s, 0.5)
    return metrics.quantile(traced_s, 0.5) / base - 1.0 if base else 0.0


# --------------------------------------------------------------------- #
# Gateway → pool → engine plumbing
# --------------------------------------------------------------------- #
def reference_logits(inputs: ServingInputs, calibration) -> list[np.ndarray]:
    """Each structure's logits from a single reference engine; its first
    pass freezes the shared calibration."""
    engine = InferenceEngine(inputs.model, inputs.config, calibration=calibration)
    return [engine.infer_one(s).logits for s in inputs.structures]


async def _submit(gateway, subgraph, expected, tally: Tally, lane="interactive"):
    """One request through the gateway; returns whether it settled with
    the reference logits."""
    tally.attempted += 1
    try:
        reply = await gateway.submit(_unique(subgraph), lane=lane)
    except PoolSaturated:
        tally.shed += 1
        return False
    except Exception:
        tally.failed += 1
        return False
    if not np.array_equal(reply.logits, expected):
        tally.wrong += 1
        return False
    return True


async def set_up(inputs, expected, calibration, spool: Path, gateway_config,
                 tally: Tally):
    """Build a pool and gateway from cold and send every distinct structure
    once, one at a time, so each compiles as the singleton round later
    windows replay.  Returns ``(pool, gateway, seconds)``."""
    kernel_cache_segment().clear()
    start = time.perf_counter()
    pool = ServingPool(
        inputs.model, inputs.config,
        pool=PoolConfig(workers=layers.WORKERS, spool_dir=str(spool)),
        calibration=calibration,
    )
    gateway = ServingGateway(pool, gateway_config)
    pool.warm_up()
    for structure, want in zip(inputs.structures, expected):
        await _submit(gateway, structure, want, tally)
    return pool, gateway, time.perf_counter() - start


async def traced_serving(pool, gateway, measure, untraced_s, run: Run) -> None:
    """Wrap the stack's entry points, measure one more window, and derive
    the per-layer metrics from its spans and counter deltas."""
    tracer = Tracer()
    tracer.wrap_gateway(gateway)
    tracer.wrap_pool(pool)
    engines = pool.workers
    before = layers.engine_counters(engines)
    gateway_before = layers.gateway_counters(gateway)
    start = time.perf_counter()
    traced_s = await measure()
    window = time.perf_counter() - start
    run.per_layer = layers.serving_layer_metrics(
        tracer,
        layers.delta(layers.engine_counters(engines), before),
        layers.delta(layers.gateway_counters(gateway), gateway_before),
        window, engines,
    )
    run.per_layer["trace.overhead_share"] = _overhead(untraced_s, traced_s)
    run.tracer = tracer


def serve_replicas(inputs, seconds, trace, work: Path, gateway_config,
                   measure, finish) -> Run:
    """Run ``REPLICAS`` set-up + measure cycles over one reference.

    ``measure(gateway, expected, replica, run, setup_s)`` measures one
    window, counts its requests in ``run.tally``, records its figures in
    ``run`` unless ``setup_s`` is ``None`` (the traced window), and returns
    the latencies tracing overhead is judged on.  ``finish(run)`` reduces
    what the replicas recorded.
    """
    calibration = ActivationCalibration()
    expected = reference_logits(inputs, calibration)
    run = Run()

    async def main():
        for replica in range(REPLICAS):
            pool, gateway, setup_s = await set_up(
                inputs, expected, calibration, work / f"spool{replica}",
                gateway_config, run.tally,
            )
            if replica == 0:
                run.setup_rss_mb = peak_rss_mb()
            try:
                untraced = await measure(gateway, expected, replica, run, setup_s)
                if trace and replica == REPLICAS - 1:
                    await traced_serving(
                        pool, gateway,
                        lambda: measure(gateway, expected, replica, run, None),
                        untraced, run,
                    )
            finally:
                pool.shutdown()
                # Free the retired pool now (its shard threads hold
                # reference cycles), so each replica starts from the same
                # memory state.
                del pool, gateway
                gc.collect()

    asyncio.run(main())
    finish(run)
    return run


# --------------------------------------------------------------------- #
# Closed loop: warm_replay and cache_churn
# --------------------------------------------------------------------- #
async def closed_loop(gateway, inputs, expected, seconds: float, tally: Tally):
    """``CLOSED_LOOP_CLIENTS`` clients, each sending its next request when
    the previous one settles.  Returns (latencies_s, elapsed_s)."""
    latencies: list[float] = []
    issued = itertools.count()
    start = time.perf_counter()
    stop_at = start + seconds

    async def client():
        while time.perf_counter() < stop_at:
            index = inputs.order[next(issued) % len(inputs.order)]
            sent = time.perf_counter()
            if await _submit(gateway, inputs.structures[index], expected[index], tally):
                latencies.append(time.perf_counter() - sent)

    await asyncio.gather(*(client() for _ in range(CLOSED_LOOP_CLIENTS)))
    return latencies, time.perf_counter() - start


def run_closed_loop(inputs: ServingInputs, seconds: float, trace: bool,
                    work: Path) -> Run:
    window = seconds / REPLICAS

    async def measure(gateway, expected, replica, run, setup_s):
        latencies, elapsed = await closed_loop(gateway, inputs, expected, window, run.tally)
        if setup_s is not None:
            run.add(setup_s, len(latencies), elapsed, latencies)
        return latencies

    def finish(run: Run) -> None:
        run.report["latency_p99_ms"] = run.quantile_ms(0.99)
        run.timings["latency_ms"] = [v * 1e3 for v in run.latencies]

    return serve_replicas(inputs, seconds, trace, work, GatewayConfig(), measure, finish)


def warm_replay(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    return run_closed_loop(warm_replay_inputs(seed), seconds, trace, work)


def cache_churn(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    return run_closed_loop(cache_churn_inputs(seed), seconds, trace, work)


# --------------------------------------------------------------------- #
# Open loop: open_loop_mixed
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class Phase:
    """One offered rate's requests: ``(lane, latency_s or None, settled)``
    records, generator lateness, and outstanding requests at the last
    send."""

    records: list = dataclasses.field(default_factory=list)
    lateness: list = dataclasses.field(default_factory=list)
    outstanding: int = 0
    start: float = 0.0

    def latencies(self, lane: str) -> list[float]:
        return [lat for kind, lat, _ in self.records if kind == lane and lat is not None]


async def open_loop_phase(gateway, inputs, expected, arrivals, tally: Tally) -> Phase:
    """Send ``arrivals`` on schedule regardless of completions, timing each
    request from its scheduled send."""
    phase = Phase()
    in_flight = 0

    async def one(due, index, lane):
        nonlocal in_flight
        in_flight += 1
        ok = await _submit(gateway, inputs.structures[index], expected[index], tally, lane)
        in_flight -= 1
        settled = time.perf_counter()
        phase.records.append((lane, settled - due if ok else None, settled))

    phase.start = time.perf_counter() + 0.005
    tasks = []
    for offset, index, lane in arrivals:
        due = phase.start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.lateness.append(time.perf_counter() - due)
        tasks.append(asyncio.ensure_future(one(due, index, lane)))
    phase.outstanding = in_flight
    await asyncio.gather(*tasks)
    return phase


def open_loop_mixed(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    inputs = open_loop_inputs()
    window = seconds / REPLICAS
    sweeps: list[dict[str, Phase]] = []

    async def measure(gateway, expected, replica, run, setup_s):
        schedule = poisson_schedule([seed, replica], window, len(inputs.structures))
        phases = {}
        for name, arrivals in schedule.items():
            phases[name] = await open_loop_phase(gateway, inputs, expected, arrivals, run.tally)
        high = phases["high"]
        good = [r for r in high.records if r[1] is not None]
        last = max((r[2] for r in high.records), default=high.start)
        if setup_s is not None:
            sweeps.append(phases)
            run.add(setup_s, len(good), last - high.start,
                    phases["mid"].latencies("interactive"))
        return phases["mid"].latencies("interactive")

    def finish(run: Run) -> None:
        report = run.report
        slo_phases = []
        for name, rate in RATES.items():
            phases = [sweep[name] for sweep in sweeps]
            interactive = [
                lat for p in phases for lane, lat, _ in p.records if lane == "interactive"
            ]
            share = metrics.slo_share(interactive, INTERACTIVE_LIMIT_S)
            outstanding = max(p.outstanding for p in phases)
            slo_phases.append((rate, share, outstanding <= MAX_IN_FLIGHT))
            report[f"slo_share.{name}"] = (share, "ratio", len(interactive))
            report[f"outstanding_max.{name}"] = (outstanding, "count", len(phases))
        report["slo_rate_rps"] = (
            metrics.slo_rate(slo_phases, SLO_TARGET), "req/s", len(slo_phases)
        )
        mid_batch = [lat for s in sweeps for lat in s["mid"].latencies("batch")]
        e2e = run.e2e()
        report["interactive_p50_ms.mid"] = e2e["latency_p50_ms"]
        report["interactive_p99_ms.mid"] = e2e["latency_tail_ms"]
        report["batch_p99_ms.mid"] = _ms(metrics.quantile(mid_batch, 0.99), len(mid_batch))
        report["saturated_rps.high"] = e2e["throughput_rps"]
        lateness = [v for s in sweeps for p in s.values() for v in p.lateness]
        report["generator_late_p99_ms"] = _ms(metrics.quantile(lateness, 0.99), len(lateness))
        run.timings["interactive_latency_ms.mid"] = [v * 1e3 for v in run.latencies]
        run.timings["generator_late_ms"] = [v * 1e3 for v in lateness]

    return serve_replicas(
        inputs, seconds, trace, work,
        GatewayConfig(max_in_flight=MAX_IN_FLIGHT, queue_timeout_s=QUEUE_TIMEOUT_S),
        measure, finish,
    )


# --------------------------------------------------------------------- #
# Dynamic graph: mutate_serve
# --------------------------------------------------------------------- #
def mutate_serve_inputs():
    """A ~2k-node planted-partition graph and a 3-layer Cluster-GCN."""
    rng = np.random.default_rng(DATASET_SEED)
    graph = planted_partition_graph(
        2048, 8192, num_communities=16, feature_dim=16, num_classes=8, rng=rng
    )
    return graph, make_cluster_gcn(16, 8, seed=DATASET_SEED)


def mutation_batch(mutable, count: int, rng) -> list[tuple[str, int, int]]:
    """~50/50 deletes of present edges and inserts of absent ones."""
    csr = mutable.to_csr()
    rows = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
    keep = rows < csr.indices
    present = np.stack([rows[keep], csr.indices[keep]], axis=1)
    batch = []
    for index in rng.choice(len(present), size=count, replace=False):
        if rng.random() < 0.5:
            u, v = (int(x) for x in present[index])
            batch.append(("delete", u, v))
        else:
            while True:
                u, v = (int(x) for x in rng.integers(0, mutable.num_nodes, size=2))
                if u != v and not mutable.has_edge(u, v):
                    batch.append(("insert", u, v))
                    break
    return batch


def oracle_matches(session, model, served) -> bool:
    """Served logits equal a fresh pack + eager forward of the live graph."""
    batch = session.mutable.to_batch()
    config = session.engine.config
    oracle = quantized_forward(
        model, batch,
        feature_bits=config.feature_bits,
        weight_bits=config.effective_weight_bits,
        packed_adjacency=pack_batch_adjacency(batch),
        calibration=session.engine.calibration,
        # Any backend is bit-identical; blas is the fastest here, which
        # keeps the between-rounds check short.
        engine="blas",
    )
    return bool(np.array_equal(served.logits, oracle.logits))


def mutate_rounds(session, model, seconds: float, rng, tally: Tally,
                  tracer: Tracer | None = None):
    """Closed loop of mutate-then-serve rounds until ``seconds`` of round
    time is spent.  Stream generation and the oracle run between rounds,
    outside the timed windows.  Returns per-round seconds and the served
    forward results."""
    count = max(1, round(MUTATION_SHARE * session.mutable.num_edges))
    rounds: list[float] = []
    forwards = []
    spent = 0.0
    while spent < seconds:
        batch = mutation_batch(session.mutable, count, rng)
        tally.attempted += 1
        scope = tracer.round("dynamic.round") if tracer is not None else nullcontext()
        try:
            with scope:
                start = time.perf_counter()
                session.mutate(batch)
                served = session.serve()
                elapsed = time.perf_counter() - start
        except Exception:
            tally.failed += 1
            continue
        spent += elapsed
        if oracle_matches(session, model, served):
            rounds.append(elapsed)
            forwards.append(served)
        else:
            tally.wrong += 1
    return rounds, forwards


def traced_dynamic(session, model, window, rng, untraced_s, run: Run) -> None:
    """Wrap the session's entry points, run one more window of rounds, and
    derive the per-layer metrics from its spans and counter deltas."""
    tracer = Tracer()
    tracer.wrap_dynamic(session)
    engines = [session.engine]
    before = layers.engine_counters(engines)
    dynamic_before = session.stats.as_metrics()
    traced_s, forwards = mutate_rounds(session, model, window, rng, run.tally, tracer)
    run.per_layer = layers.dynamic_layer_metrics(
        tracer,
        layers.delta(layers.engine_counters(engines), before),
        layers.delta(session.stats.as_metrics(), dynamic_before),
        forwards, engines,
    )
    run.per_layer["trace.overhead_share"] = _overhead(untraced_s, traced_s)
    run.tracer = tracer


def mutate_serve(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    graph, model = mutate_serve_inputs()
    window = seconds / REPLICAS
    # ~30 rounds/s for 16 s: p99 would rest on fewer than ten rounds.
    run = Run(tail_q=0.95)
    for replica in range(REPLICAS):
        kernel_cache_segment().clear()
        start = time.perf_counter()
        session = DynamicSession(model, graph)
        served = session.serve()
        setup_s = time.perf_counter() - start
        if replica == 0:
            run.setup_rss_mb = peak_rss_mb()
        run.tally.attempted += 1
        if not oracle_matches(session, model, served):
            run.tally.wrong += 1
        rng = np.random.default_rng([seed, replica])
        rounds, _ = mutate_rounds(session, model, window, rng, run.tally)
        run.add(setup_s, len(rounds), sum(rounds), rounds)
        if trace and replica == REPLICAS - 1:
            traced_dynamic(session, model, window, rng, rounds, run)
        run.stale_kernel_hits += session.stats.stale_kernel_hits
    e2e = run.e2e()
    run.report["fresh_p50_ms"] = e2e["latency_p50_ms"]
    run.report["fresh_p95_ms"] = e2e["latency_tail_ms"]
    run.report["fresh_p99_ms"] = run.quantile_ms(0.99)
    run.timings["fresh_ms"] = [v * 1e3 for v in run.latencies]
    return run


WORKLOADS = {
    "warm_replay": warm_replay,
    "cache_churn": cache_churn,
    "open_loop_mixed": open_loop_mixed,
    "mutate_serve": mutate_serve,
}
