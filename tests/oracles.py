"""Test-side reference implementations, one place for all of them.

Each is the plain form of something ``src/`` computes in a faster shape
(a population matrix, a pipelined GA generation, an operation block, a
stacked ensemble, a tabled bottleneck solve, an indexed drain).  The
production path is held bit-identical to its oracle by the test module
named in each section.
"""

import math

import numpy as np

from repro.config.cassandra import LEVELED
from repro.datastore.cluster import SHOOTER_CAPACITY_OPS
from repro.ga.algorithm import GAResult
from repro.lsm.analytic import CACHE_WARMUP_SECONDS
from repro.lsm.engine import FLUSH_STALL_DEPTH, OP_DELETE, OP_READ
from repro.lsm.record import Record
from repro.lsm.sstable import BLOCK_BYTES
from repro.sim import costs
from repro.sim.rng import derive_rng

# ---------------------------------------------------------------------------
# core.search: one feature row per fitness call (test_batch_equivalence)
# ---------------------------------------------------------------------------


def scalar_fitness(optimizer, read_ratio):
    """``ConfigurationOptimizer``'s fitness for one gene vector at a
    time: a GA run on it (through :func:`lockstep_fitness`) is what
    ``optimize`` must reproduce from its population-at-a-time scoring.
    The feature row clips the genes to bounds first, as every row did
    before the population was held in bounds."""
    encoder = optimizer.encoder

    def fitness(genes: np.ndarray) -> float:
        inside = np.clip(np.asarray(genes, dtype=float), encoder.lower, encoder.upper)
        unit = (inside - encoder.lower) / encoder.span
        row = np.concatenate(([read_ratio], unit))[None, :]
        if optimizer.uncertainty_penalty > 0.0:
            mean, spread = optimizer.surrogate.predict_mean_std(row)
            return float(mean[0] - optimizer.uncertainty_penalty * spread[0])
        return float(optimizer.surrogate.predict_features(row)[0])

    return fitness


# ---------------------------------------------------------------------------
# ga.algorithm: the GA's fitness form from a plain one, the feasibility
# violation, and the loop that scores every generation's snapped winner in
# a call of its own, on the spot (test_batch_equivalence)
# ---------------------------------------------------------------------------


def lockstep_fitness(fitness, per_row=False):
    """The GA's one fitness form, ``(batch, mask) -> scores of
    batch[mask]``, from a row-batch ``fitness(matrix) -> (n,)`` or, with
    ``per_row``, a scalar ``fitness(genes) -> float`` called row by row.
    Every search of a lockstep run scores on the same function."""
    if per_row:
        return lambda batch, mask: np.array([float(fitness(g)) for g in batch[mask]])
    return lambda batch, mask: fitness(batch[mask])


def _tournament_select_many(fitness, rng, count, k=3):
    n = len(fitness)
    contenders = rng.integers(n, size=(count, min(k, n)))
    fvals = np.asarray(fitness)[contenders]
    return contenders[np.arange(count), np.argmax(fvals, axis=1)]


def _weighted_average_crossover_many(parents_a, parents_b, rng):
    r = rng.random(parents_a.shape)
    return r * parents_a + (1.0 - r) * parents_b


def _gaussian_mutation_many(children, lower, upper, span, rng, rate, scale):
    mask = rng.random(children.shape) < rate
    noise = rng.standard_normal(children.shape)
    mutated = np.where(mask, children + noise * scale * span, children)
    return np.clip(mutated, lower, upper)


def violation_batch(encoder, genes):
    """Per-row distance from feasibility: the normalized bound overshoot
    plus, on the clipped genes, each integral gene's distance to the
    nearest integer.  Zero iff ``encoder.decode`` would be a no-op snap."""
    below = np.maximum(encoder.lower - genes, 0.0) / encoder.span
    above = np.maximum(genes - encoder.upper, 0.0) / encoder.span
    total = np.sum(below + above, axis=1)
    inside = np.clip(genes, encoder.lower, encoder.upper)
    frac = np.abs(inside - np.round(inside))
    total += np.sum(frac[:, encoder.integral], axis=1)
    return total


def reference_ga_run(ga, fitness_lockstep_fn, seed=0, initial=None) -> GAResult:
    """``GeneticAlgorithm.run`` as it stood before the winner's re-score
    was pipelined: two tournament draws per generation, the full
    bounds-and-integrality violation, and one extra fitness call per
    generation for the snapped winner, booked before the next
    generation is bred.  Scores with ``fitness_lockstep_fn``, the GA's
    fitness form, on a one-search batch holding the rows first.  Reads
    its other parameters off ``ga``, counts evaluations
    itself and leaves ``ga`` untouched."""
    encoder = ga.encoder
    evaluations = 0

    def raw_fitness_many(population):
        nonlocal evaluations
        evaluations += len(population)
        batch = np.zeros((1, ga.population_size + 1, population.shape[1]))
        batch[0, : len(population)] = population
        mask = np.zeros(batch.shape[:2], dtype=bool)
        mask[0, : len(population)] = True
        return np.asarray(fitness_lockstep_fn(batch, mask), dtype=float).ravel()

    def penalized_many(population, raw, penalty_scale):
        violations = violation_batch(encoder, population)
        return np.where(violations > 0.0, raw - penalty_scale * violations, raw)

    def best_feasible(population, fitness):
        snapped = encoder.snap(population[int(np.argmax(fitness))])
        raw = float(raw_fitness_many(snapped[None, :])[0])
        return snapped, raw

    n_genes = encoder.n_genes
    initial_genes = [np.asarray(genes, dtype=float) for genes in initial or ()]
    rng = derive_rng(seed)

    population = rng.uniform(
        encoder.lower, encoder.upper, size=(ga.population_size, n_genes)
    )
    for i, genes in enumerate(initial_genes[: ga.population_size]):
        population[i] = genes

    raw_first = raw_fitness_many(population)
    if ga.penalty_scale is not None:
        penalty_scale = ga.penalty_scale
    else:
        spread = max(np.ptp(raw_first), abs(np.mean(raw_first)) * 0.1, 1e-9)
        penalty_scale = 2.0 * spread
    fitness = penalized_many(population, raw_first, penalty_scale)

    best_genes, best_fit = best_feasible(population, fitness)
    history = [best_fit]
    stagnant = 0
    generation = 0

    for generation in range(1, ga.generations + 1):
        order = np.argsort(fitness)[::-1]
        n_children = ga.population_size - ga.elites
        ia = _tournament_select_many(fitness, rng, n_children)
        ib = _tournament_select_many(fitness, rng, n_children)
        children = _weighted_average_crossover_many(population[ia], population[ib], rng)
        children = _gaussian_mutation_many(
            children,
            encoder.lower,
            encoder.upper,
            encoder.span,
            rng,
            rate=ga.mutation_rate,
            scale=ga.mutation_scale,
        )
        population = np.concatenate((population[order[: ga.elites]], children))
        raw = raw_fitness_many(population)
        fitness = penalized_many(population, raw, penalty_scale)

        gen_best_genes, gen_best_fit = best_feasible(population, fitness)
        if gen_best_fit > best_fit + 1e-12:
            best_genes, best_fit = gen_best_genes, gen_best_fit
            stagnant = 0
        else:
            stagnant += 1
        history.append(best_fit)
        if stagnant >= ga.stagnation_limit:
            break

    config = encoder.decode(best_genes)
    return GAResult(
        best_configuration=config,
        best_fitness=best_fit,
        evaluations=evaluations,
        generations=generation,
        history=history,
    )


# ---------------------------------------------------------------------------
# sim.rng: a named stream from numpy's list-of-ints entropy (test_sim_rng)
# ---------------------------------------------------------------------------


def list_entropy_stream(root, count, name):
    """The generator ``SeedSequence(root)`` hands out as ``name``'s stream
    number ``count``, built as it was before the entropy became one
    uint32 array: numpy coerces the list ``[root, count, *code points]``
    (``[0]`` for the empty name) itself."""
    codes = [ord(c) for c in name] or [0]
    return np.random.default_rng(np.random.SeedSequence([root, count, *codes]))


# ---------------------------------------------------------------------------
# ml.ensemble: the per-member forward walk (test_batch_equivalence)
# ---------------------------------------------------------------------------


def oracle_mean_std(ens, x: np.ndarray):
    """The per-member reference walk: one ``forward_rows`` per network,
    mean and spread accumulated member by member."""
    xs = ens.x_scaler.transform(np.atleast_2d(x))
    forwards = [net.forward_rows(xs) for net in ens.networks]
    total = forwards[0].copy()
    for f in forwards[1:]:
        total += f
    mean = total / len(forwards)
    sq = np.zeros_like(mean)
    for f in forwards:
        sq += (f - mean) ** 2
    std = np.sqrt(sq / len(forwards))
    return ens.y_scaler.inverse_transform(mean), std * ens.y_scaler.scale_[0]


# ---------------------------------------------------------------------------
# lsm.engine: the point ops as they were written before the op loop — one
# method per step, terms re-asked and the drain re-entered on every op —
# driving the engine's real commitlog, memtable, layout and cache
# (test_batch_opstream), and the drain as first written (test_lsm_engine)
# ---------------------------------------------------------------------------


def _oracle_next_timestamp(engine) -> float:
    # Strictly increasing even when the clock stands still within a batch.
    engine._write_seq += 1
    return engine.clock.now + engine._write_seq * 1e-12


def _oracle_advance_for_op(
    engine, cpu_seconds, seq_bytes, random_reads, hold_seconds, write=False, extra_seconds=0.0
):
    terms = engine._charge_terms()
    if write:
        threads, contention = engine.knobs.concurrent_writes, terms.write_contention
    else:
        threads, contention = engine.knobs.concurrent_reads, terms.read_contention
    dt_cpu = cpu_seconds * contention / terms.cores
    dt_seq = dt_rand = 0.0
    if seq_bytes:
        if write:
            engine.disk.stats.seq_bytes_written += seq_bytes
        else:
            engine.disk.stats.seq_bytes_read += seq_bytes
        dt_seq = seq_bytes / terms.seq_bandwidth
    if random_reads:
        engine.disk.stats.random_reads += random_reads
        dt_rand = random_reads / terms.rand_iops
    dt_pool = hold_seconds / threads

    dt = max(dt_cpu, dt_seq, dt_rand, dt_pool) + extra_seconds
    engine.stats.busy_seconds += dt
    engine.clock.advance(dt)
    if engine._pending_compactions or engine._flush_queue_bytes > 0:
        reference_drain(engine, dt)


def _oracle_write(engine, record) -> None:
    sync_extra = engine.commitlog.append(record, now=engine.clock.now)
    engine.memtable.put(record)

    stall = 0.0
    if engine.memtable.should_flush(engine.knobs.memtable_cleanup_threshold):
        flush_bytes = engine.memtable.size_bytes
        engine._flush_memtable()
        # If flush writers are behind, the write path stalls until the
        # queue depth falls back under the limit.
        flush_bw = engine.knobs.memtable_flush_writers * engine.costs.flush_writer_bandwidth
        max_queue = FLUSH_STALL_DEPTH * max(flush_bytes, 1)
        if engine._flush_queue_bytes > max_queue:
            stall = (engine._flush_queue_bytes - max_queue) / flush_bw
            engine.stats.write_stall_seconds += stall

    _oracle_advance_for_op(
        engine,
        cpu_seconds=costs.write_cpu_seconds(engine.costs),
        seq_bytes=costs.commitlog_bytes_per_write(record.size_bytes, engine.costs),
        random_reads=0,
        hold_seconds=engine.costs.write_thread_hold,
        write=True,
        extra_seconds=sync_extra + stall,
    )


def oracle_put(engine, key, value, timestamp=None) -> None:
    ts = timestamp if timestamp is not None else _oracle_next_timestamp(engine)
    _oracle_write(engine, Record(key=key, timestamp=ts, value=value))
    engine.stats.writes += 1


def oracle_delete(engine, key, timestamp=None) -> None:
    ts = timestamp if timestamp is not None else _oracle_next_timestamp(engine)
    _oracle_write(engine, Record.tombstone(key, ts))
    engine.stats.deletes += 1


def oracle_probe(engine, key):
    """The newest record for ``key``, found table by table as the probe
    was written before the op loop: the memtable, then every
    ``read_candidates`` table whose ``might_contain`` passes, located
    and charged to the LRU cache in that order, with every tally booked
    on the engine's stats.  Returns ``(record, blooms, probes,
    cache_hits, disk_reads)``."""
    stats = engine.stats
    stats.reads += 1
    best = engine.memtable.get(key)
    if best is not None:
        stats.memtable_hits += 1
    candidates = engine.layout.read_candidates(key)
    probes = cache_hits = 0
    for table in candidates:
        if not table.might_contain(key):
            continue
        block, row = table.locate(key)
        probes += 1
        cache_hits += engine.cache.access((table.table_id, block))
        if row < 0:
            continue  # bloom false positive
        stats.bloom_true_positives += 1
        rec = table.record_at(row)
        if best is None or rec.supersedes(best):
            best = rec
    stats.bloom_checks += len(candidates)
    stats.tables_probed += probes
    stats.cache_hits += cache_hits
    stats.cache_misses += probes - cache_hits
    return best, len(candidates), probes, cache_hits, probes - cache_hits


def oracle_get(engine, key):
    """One point read through the table-by-table probe, charged as one op."""
    best, blooms, probes, cache_hits, disk_reads = oracle_probe(engine, key)
    cpu = costs.read_cpu_seconds(blooms, probes, cache_hits, engine.costs)
    _oracle_advance_for_op(engine, cpu, 0.0, disk_reads, engine.costs.read_thread_hold)
    if best is None or best.is_tombstone:
        return None
    return best.value


def apply_scalar_columns(
    engine, kinds, keys, sizes, api=(oracle_get, oracle_put, oracle_delete)
) -> list:
    """Run the ops one at a time through ``api``'s ``(get, put, delete)``
    — the per-op oracle, or ``LSMEngine``'s own methods for the ops as
    one-op blocks; the clock after each."""
    get, put, delete = api
    trace = []
    for kind, key, size in zip(kinds, keys, sizes):
        if kind == OP_READ:
            get(engine, key)
        elif kind == OP_DELETE:
            delete(engine, key)
        else:
            put(engine, key, bytes(int(size)))
        trace.append(engine.clock.now)
    return trace


def apply_scalar(engine, block) -> list:
    """:func:`apply_scalar_columns` on an ``OperationBatch``'s columns."""
    return apply_scalar_columns(
        engine, block.kinds, block.key_names(), block.value_sizes
    )


def reference_drain(engine, dt):
    """``_drain_background`` as first written — a list copy of the queue
    per turn and a scan of all of it for completions — kept as the
    reference for the float operations and their order."""
    if engine._flush_queue_bytes > 0:
        flush_bw = engine.knobs.memtable_flush_writers * engine.costs.flush_writer_bandwidth
        engine._flush_queue_bytes = max(0.0, engine._flush_queue_bytes - flush_bw * dt)
    rate = oracle_compaction_input_rate(engine.knobs, len(engine._pending_compactions))
    if rate <= 0.0:
        return
    budget = rate * dt
    while budget > 0 and engine._pending_compactions:
        active = list(engine._pending_compactions)[: engine.knobs.concurrent_compactors]
        share = budget / len(active)
        consumed = 0.0
        for pending in active:
            used = min(share, pending.remaining_bytes)
            pending.remaining_bytes -= used
            consumed += used
        budget -= consumed
        completed = [
            p for p in list(engine._pending_compactions) if p.remaining_bytes <= 0
        ]
        for p in completed:
            engine._pending_compactions.remove(p)
            engine._complete_compaction(p.task)
        if consumed <= 0:
            break


# ---------------------------------------------------------------------------
# lsm.background: the background load as each substrate priced it before
# they shared one model — the engine through its stateful CPU and disk
# models, the analytic segment inline (test_lsm_background); the drain
# above and the solve below take their compaction rate from here
# ---------------------------------------------------------------------------

#: One compactor's streaming capacity and leveled compaction's floor.
ORACLE_COMPACTOR_STREAM_BYTES = 45 * 1024 * 1024
ORACLE_LEVELED_MIN_COMPACTION_BYTES = 64 * 1024 * 1024

#: The terms both forms yield, by name.
BACKGROUND_TERMS = (
    "compaction_rate", "cores", "read_contention", "write_contention",
    "seq_bandwidth", "rand_iops",
)


def oracle_compaction_input_rate(knobs, queued):
    """Input bytes/s compaction processes with ``queued`` tasks waiting."""
    if not queued:
        return 0.0
    active = min(queued, knobs.concurrent_compactors)
    stream_cap = active * ORACLE_COMPACTOR_STREAM_BYTES
    throttle = knobs.compaction_throughput_bytes * active
    if knobs.compaction_method == LEVELED:
        throttle = max(throttle, ORACLE_LEVELED_MIN_COMPACTION_BYTES)
    return min(throttle, stream_cap)


def oracle_engine_terms(knobs, hardware, sim_costs, queued, flush_rate):
    """The engine's path: the rate, the (cpu, seq) utilizations flush and
    compaction steal, set on a CPU model (clamped to [0, 0.9]) and a disk
    model (seq and IOPS clamped to [0, 0.95], IOPS set to 0.0), and the
    cores and budgets read back off them."""
    comp_rate = oracle_compaction_input_rate(knobs, queued)
    seq_demand = comp_rate * sim_costs.compaction_io_factor + flush_rate
    seq_util = min(seq_demand / hardware.disk_seq_bandwidth, 0.9)
    cpu_demand = comp_rate * sim_costs.compaction_cpu_per_byte
    cpu_util = min(cpu_demand / hardware.cpu_cores, 0.6)
    cpu_bg = min(max(cpu_util, 0.0), 0.9)
    seq_bg, iops_bg = min(max(seq_util, 0.0), 0.95), min(max(0.0, 0.0), 0.95)
    available_cores = hardware.cpu_cores * (1.0 - cpu_bg)
    cores = max(available_cores * (hardware.cpu_ghz / 3.0), 0.5)
    return (
        comp_rate,
        cores,
        costs.thread_contention(knobs.concurrent_reads, cores, sim_costs),
        costs.thread_contention(knobs.concurrent_writes, cores, sim_costs),
        hardware.disk_seq_bandwidth * (1.0 - seq_bg),
        hardware.disk_rand_iops * hardware.disk_count * (1.0 - iops_bg),
    )


def oracle_segment_terms(knobs, hardware, sim_costs, queued, flush_rate):
    """The analytic segment's inline block."""
    comp_rate = oracle_compaction_input_rate(knobs, queued)
    seq_demand = comp_rate * sim_costs.compaction_io_factor + flush_rate
    bg_seq = min(seq_demand / hardware.disk_seq_bandwidth, 0.9)
    bg_cpu = min(comp_rate * sim_costs.compaction_cpu_per_byte / hardware.cpu_cores, 0.6)
    cores = max(hardware.cpu_cores * (1.0 - bg_cpu) * (hardware.cpu_ghz / 3.0), 0.5)
    return (
        comp_rate,
        cores,
        costs.thread_contention(knobs.concurrent_reads, cores, sim_costs),
        costs.thread_contention(knobs.concurrent_writes, cores, sim_costs),
        hardware.disk_seq_bandwidth * (1.0 - bg_seq),
        hardware.disk_rand_iops * hardware.disk_count,
    )


# ---------------------------------------------------------------------------
# lsm.compaction: size-tiered bucketing as the analytic model wrote it, on
# (position, size) pairs (test_lsm_compaction)
# ---------------------------------------------------------------------------


def oracle_size_buckets(sizes):
    """Positions in ``sizes`` grouped by similar size."""
    buckets, averages = [], []
    for i, s in sorted(enumerate(sizes), key=lambda p: p[1]):
        placed = False
        for bi, avg in enumerate(averages):
            if 0.5 * avg <= s <= 1.5 * avg:
                buckets[bi].append((i, s))
                averages[bi] = sum(x[1] for x in buckets[bi]) / len(buckets[bi])
                placed = True
                break
        if not placed:
            buckets.append([(i, s)])
            averages.append(s)
    return [[i for i, _ in bucket] for bucket in buckets]


# ---------------------------------------------------------------------------
# lsm.analytic / datastore.cluster: the bottleneck equation evaluated with
# no term table (test_lsm_analytic_properties, test_lsm_analytic)
# ---------------------------------------------------------------------------


def soft_min_oracle(caps):
    """The power-mean soft minimum, on python floats only."""
    finite = [c for c in caps if not (math.isinf(c) or math.isnan(c))]
    if not finite:
        return math.inf
    scale = min(finite)
    if scale <= 0:
        return 0.0
    total = 0.0
    for c in finite:
        total += math.pow(scale / c, 8.0)
    return scale * math.pow(total, -1.0 / 8.0)


def reference_hit(model):
    """The cache hit ratio at this instant, from the knobs and profile."""
    knobs, sim_costs = model.knobs, model.costs
    pages = knobs.file_cache_bytes / BLOCK_BYTES
    if pages <= 0:
        return 0.0
    if max(model.dataset_bytes / BLOCK_BYTES, 1.0) <= pages:
        steady = 1.0
    else:
        coverage = sim_costs.cache_coverage_ops_per_page
        if knobs.compaction_method == LEVELED:
            coverage *= sim_costs.leveled_cache_locality
        steady = 1.0 - math.exp(-pages * coverage / model.profile.krd_mean_ops)
    return steady * (1.0 - math.exp(-model.cache_age / CACHE_WARMUP_SECONDS))


def reference_throughput(model, read_ratio):
    """The bottleneck equation straight from ``sim.costs``: every term
    recomputed from the model's knobs, hardware, costs and profile."""
    knobs, hardware, sim_costs, profile = (
        model.knobs, model.hardware, model.costs, model.profile
    )
    r, w = read_ratio, 1.0 - read_ratio
    hit = reference_hit(model)

    if knobs.compaction_method == LEVELED:
        n_checked = len(model.l0_tables) + sum(1 for b in model.level_bytes[1:] if b > 0)
    else:
        n_checked = float(len(model.st_tables))
    spread = costs.expected_version_spread(max(n_checked, 1.0), profile.update_fraction)
    probed = min(
        spread + knobs.bloom_fp_chance * max(n_checked - spread, 0.0),
        max(n_checked, 1.0),
    )
    disk_probes = costs.expected_disk_probes_per_read(
        spread, n_checked, knobs.bloom_fp_chance, hit
    )
    cpu_r = costs.read_cpu_seconds(n_checked, probed, probed * hit, sim_costs)
    cpu_w = costs.write_cpu_seconds(sim_costs)

    flush_active = model.memtable_bytes > 0.5 * knobs.flush_trigger_bytes
    flush_rate = (
        knobs.memtable_flush_writers * sim_costs.flush_writer_bandwidth
        if flush_active
        else 0.0
    ) * 0.5
    _, cores, read_contention, write_contention, seq_bw, iops = oracle_segment_terms(
        knobs, hardware, sim_costs, len(model.backlog), flush_rate
    )

    cpu_per_op = r * cpu_r * read_contention + w * cpu_w * write_contention
    caps = [cores / cpu_per_op if cpu_per_op > 0 else math.inf]
    if w > 0:
        cl_bytes = costs.commitlog_bytes_per_write(profile.record_bytes, sim_costs)
        caps.append(seq_bw / (w * cl_bytes))
        flush_bw = knobs.memtable_flush_writers * sim_costs.flush_writer_bandwidth
        caps.append(flush_bw / (w * profile.record_bytes))
        caps.append(knobs.concurrent_writes / (w * sim_costs.write_thread_hold))
    if r > 0:
        if r * disk_probes > 0:
            caps.append(iops / (r * disk_probes))
        if r * sim_costs.read_thread_hold > 0:
            caps.append(knobs.concurrent_reads / (r * sim_costs.read_thread_hold))
    return max(soft_min_oracle(caps) * model.run_bias, 1.0)


# -- the per-second oracle: a one-second step of a model and of a ring as
# -- written before the stepping loop, on the untabled solve


def oracle_solve(model, read_ratio):
    """The untabled equation, times a self-tuning store's modulation."""
    x = reference_throughput(model, read_ratio)
    tuner = getattr(model, "autotuner", None)
    return x if tuner is None else x * tuner.multiplier(model.t)


def oracle_absorb(model, reads, writes, dt):
    """The general write and drain paths, then the clocks."""
    model._apply_writes(writes)
    model._drain_background(dt)
    model.t += dt
    model.cache_age += dt
    model.total_ops += reads + writes


def oracle_step(model, read_ratio, dt=1.0):
    """One solve, one noise draw, one absorb; the step's throughput."""
    x = oracle_solve(model, read_ratio)
    if model.noise_sigma > 0:
        x *= max(0.2, 1.0 + model.noise_sigma * model.rng.standard_normal())
    oracle_absorb(model, x * read_ratio * dt, x * (1.0 - read_ratio) * dt, dt)
    return x


def oracle_cluster_step(cluster, read_ratio, dt=1.0):
    """A ring's one-second step as it was: everything re-derived every
    second, each node solved through the oracle; the step's logical
    throughput."""
    live = cluster.live_node_indices
    rf = min(cluster.replication_factor, len(live))
    fanout = read_ratio + (1.0 - read_ratio) * rf
    node_rr = read_ratio / fanout
    per_node = min(
        oracle_solve(cluster.nodes[i], node_rr) / cluster._slowdown.get(i, 1.0)
        for i in live
    )
    x = min(per_node * len(live) / fanout, cluster.n_nodes * SHOOTER_CAPACITY_OPS)
    node_ops = x * fanout / len(live)
    reads = node_ops * node_rr * dt
    writes = node_ops * (1.0 - node_rr) * dt
    for i in live:
        oracle_absorb(cluster.nodes[i], reads, writes, dt)
    cluster.t += dt
    return x
