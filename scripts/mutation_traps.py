#!/usr/bin/env python
"""Mutation traps: each row breaks one invariant of ``src/`` on purpose
and names the tier-1 test that must notice.

A bit-identity claim is only as good as the tests that would catch its
loss.  Every row is ``(what it breaks, file under src/, [(find, replace),
...], failing test id)``.  The script first runs all the named tests on
the untouched tree (they must pass), then applies each row to a
temporary copy of ``src/`` — every ``find`` must occur exactly once, so
a row that has drifted from the code fails loudly instead of mutating
nothing — and runs the named test against the copy, which must fail.
Hypothesis runs without its shrink phase (the ``no-shrink`` profile in
``tests/conftest.py``): a trap needs the failure, not the smallest one.

Run from the repo root (106 rows, ~3.5 min on a 2-vCPU host)::

    python scripts/mutation_traps.py            # all rows
    python scripts/mutation_traps.py snap       # rows whose name contains "snap"
    python scripts/mutation_traps.py op loop    # ... "op" and "loop"

Exit status 0 = every trap is live; 1 = a mutant survived, a ``find``
did not match, or a named test fails on the untouched tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

GA = "repro/ga/algorithm.py"
ENSEMBLE = "repro/ml/ensemble.py"
EQUIVALENCE = "tests/test_batch_equivalence.py"
REFERENCE = f"{EQUIVALENCE}::TestPipelinedRunEqualsReference"
ENGINE = "repro/lsm/engine.py"
OP_LOOP = "tests/test_batch_opstream.py::TestOpLoop"
INLINE_WRITE = "tests/test_batch_opstream.py::TestInlineWrite"
PLAN_TRAPS = "tests/test_batch_opstream.py::TestProbePlanTraps"
BLOOM = "repro/lsm/bloom.py"
SSTABLE = "repro/lsm/sstable.py"
KEY_COLUMN = "tests/test_lsm_sstable.py::TestKeyColumn"
CACHE = "repro/sim/cache.py"
CACHE_TESTS = "tests/test_sim_cache.py::TestLruFileCache"
STATE_MACHINE = "tests/test_lsm_state_machine.py::TestEngineMatchesDict"
BACKGROUND = "repro/lsm/background.py"
BACKGROUND_TESTS = "tests/test_lsm_background.py"
ENTRY_POINTS = "tests/test_entry_points.py"
ANALYTIC = "repro/lsm/analytic.py"
ANALYTIC_TESTS = "tests/test_lsm_analytic.py"
SCHEDULER = "repro/middleware/scheduler.py"
RAFIKI = "repro/core/rafiki.py"
LOCKSTEP = f"{EQUIVALENCE}::TestLockstepEqualsAlone"
FUSED = f"{EQUIVALENCE}::TestFusedDraws"
ROUND = "tests/test_round_searches.py"
STRUCTURE = f"{ANALYTIC_TESTS}::TestStepStructureTraps"
SEGMENT_KEY = (
    "            or s.n_checked != n_checked\n"
    "            or s.n_backlog != n_backlog\n"
    "            or s.flushing is not flushing\n"
)
FLAG_FLIP = (
    "            if s is not None and (memtable > half_flush_trigger) is not flushing:\n"
    "                s = None\n"
)
WRITE_BACK = (
    "        model.memtable_bytes, model.dataset_bytes = memtable, dataset\n"
    "        model.t, model.cache_age, model.total_ops = clock, age, ops\n"
)

TRAPS = [
    (
        "book the riding winner after the generation's own bookkeeping",
        GA,
        [
            (
                "            for s in searches:\n"
                "                if rides[s]:  # booked as if scored before the population\n"
                "                    evaluations[s] += 1\n"
                "                    book(s, generation - 1, winners[s], float(raw[s, population_size]))\n",
                "            late = [(s, generation - 1, winners[s], float(raw[s, population_size]))\n"
                "                    for s in searches if rides[s]]\n"
                "            for s in searches:\n"
                "                if rides[s]:\n"
                "                    evaluations[s] += 1\n",
            ),
            (
                "            if not any(live):\n                break\n",
                "            for args in late:\n                book(*args)\n"
                "            if not any(live):\n                break\n",
            ),
        ],
        f"{REFERENCE}::test_plateau_stops_on_the_reference_generation",
    ),
    (
        "no score on the spot when one more stagnant generation ends the search",
        GA,
        [
            (
                "if live[s] and (generation == last or stagnant[s] + 1 >= stagnation_limit):",
                "if live[s] and generation == last:",
            )
        ],
        f"{REFERENCE}::test_plateau_stops_on_the_reference_generation",
    ),
    (
        "the merged draw's halves swapped (mutation mask used as crossover weights)",
        GA,
        [
            (
                "weights, mutate = draws[:, 0], draws[:, 1]",
                "mutate, weights = draws[:, 0], draws[:, 1]",
            )
        ],
        f"{REFERENCE}::test_surrogate_search",
    ),
    # -- fused draws: one raw PCG64 block per search and generation
    (
        "fused draws: a Lemire rejection in a block ignored",
        GA,
        [("if fused[s] is not None and s in rejected:", "if False:")],
        f"{FUSED}::test_lemire_rejection_rewinds_to_the_public_calls",
    ),
    (
        "fused draws: a rejected block redrawn without rewinding it",
        GA,
        [("fused[s].advance(2**128 - n_words)", "pass")],
        f"{FUSED}::test_lemire_rejection_rewinds_to_the_public_calls",
    ),
    (
        "fused draws: a non-PCG64 generator decoded as PCG64 words",
        GA,
        [
            (
                "type(bits) is np.random.PCG64:\n"
                '        if not bits.state["has_uint32"]:',
                "True:\n        if True:",
            )
        ],
        f"{FUSED}::test_other_generators_take_the_public_calls",
    ),
    (
        "fused draws: a PCG64 with a buffered half on the fast path",
        GA,
        [('if not bits.state["has_uint32"]:', "if True:")],
        f"{FUSED}::test_other_generators_take_the_public_calls",
    ),
    (
        "fused draws: the generator's uinteger slot left as it was",
        GA,
        [('state["uinteger"] = int(words[s, n_int_words - 1] >> 32)', "pass")],
        f"{FUSED}::test_fused_draws_are_the_public_calls",
    ),
    (
        "fused draws: unmutated genes add +0.0, not -0.0",
        GA,
        [("np.putmask(noise, keep, -0.0)", "np.putmask(noise, keep, 0.0)")],
        f"{FUSED}::test_unmutated_genes_keep_their_signed_zero",
    ),
    (
        "named streams: a negative root seed accepted",
        "repro/sim/rng.py",
        [("if root < 0:", "if False:")],
        "tests/test_sim_rng.py::TestSeedSequence::test_negative_root_rejected",
    ),
    (
        "collect: a grid with no sample left after the faults accepted",
        "repro/bench/collection.py",
        [("if n_faulty >= n_workloads * n_configurations:", "if False:")],
        "tests/test_bench_collection.py::TestPlan::test_fault_count_covering_the_grid_rejected",
    ),
    (
        "children bred into the batch their parents and elites are read from",
        GA,
        [("batch = batches[generation % 2]", "batch = batches[0]")],
        f"{REFERENCE}::test_surrogate_search",
    ),
    (
        "crossover's (1 - w) taken after the weight block was overwritten",
        GA,
        [
            (
                "                np.multiply(weights, parents[:, :n_children], out=children)\n"
                "                # (1 - weights) * second parents, in the weight block: the\n"
                "                # first parents' product above was the weights' last use.\n"
                "                np.subtract(1.0, weights, out=weights)\n",
                "                np.subtract(1.0, weights, out=weights)\n"
                "                np.multiply(weights, parents[:, :n_children], out=children)\n",
            )
        ],
        f"{REFERENCE}::test_surrogate_search",
    ),
    (
        "a non-finite derived penalty scale let through",
        GA,
        [("if not (scales < math.inf).all():", "if False:")],
        "tests/test_ga_algorithm.py::TestGeneticAlgorithm"
        "::test_non_finite_initial_spread_rejected",
    ),
    (
        "the riding winner keeps the -0.0 that rounding gives small negatives",
        GA,
        [("best.round() + 0.0", "best.round()")],
        "tests/test_batch_equivalence.py::TestGABatchDeterminism"
        "::test_scored_winners_are_snapped_rows_bitwise",
    ),
    (
        "the default floor read from row 0 instead of the riding last row",
        "repro/core/search.py",
        [("for score in scores[:, -1]]", "for score in scores[:, 0]]")],
        f"{EQUIVALENCE}::TestOptimizerBatchEquivalence::test_batched_and_scalar_paths_identical",
    ),
    (
        "seed genes outside the bounds accepted",
        GA,
        [
            (
                "if not np.all((genes >= lower) & (genes <= upper)):",
                "if False:",
            )
        ],
        "tests/test_ga_algorithm.py::TestGeneticAlgorithm"
        "::test_initial_genes_out_of_bounds_rejected",
    ),
    # -- the lockstep GA: each search on its own state, the round's
    # -- searches taken only where a miss would have searched
    (
        "lockstep: search s penalized with search s-1's penalty scale",
        GA,
        [("fitness *= penalty_scales", "fitness *= np.roll(penalty_scales, 1, axis=0)")],
        f"{LOCKSTEP}::test_each_search_is_the_reference",
    ),
    (
        "lockstep: search s's tournaments read search s-1's fitness row",
        GA,
        [
            (
                "picks = fitness.take(contenders + fitness_base)",
                "picks = np.roll(fitness, 1, axis=0).take(contenders + fitness_base)",
            )
        ],
        f"{LOCKSTEP}::test_each_search_is_the_reference",
    ),
    (
        "lockstep: a stopped search keeps being booked",
        GA,
        [("                rides[s] = live[s]\n", "                rides[s] = True\n")],
        f"{LOCKSTEP}::test_each_search_is_the_reference",
    ),
    (
        "prefetch: a cold key's membership check counted as a cache miss",
        RAFIKI,
        [("if key not in self.cache:", "if self.cache.get(key) is None:")],
        f"{ROUND}::TestPrefetch::test_counts_caches_and_takes_nothing_by_itself",
    ),
    (
        "prefetch: a result taken whatever its seed stream's index",
        RAFIKI,
        [(" and ready[0] == self.seeds.count(name)", "")],
        f"{ROUND}::TestPrefetch::test_a_moved_stream_is_searched_again",
    ),
    (
        "prefetch: unconsumed results kept past the campaign",
        RAFIKI,
        [
            (
                "        finally:\n            self._prefetched, self._prefetch_stamp = {}, None\n",
                "        finally:\n            pass\n",
            )
        ],
        f"{ROUND}::TestPrefetch::test_counts_caches_and_takes_nothing_by_itself",
    ),
    (
        "prefetch: a campaign's results pickled with the rafiki",
        RAFIKI,
        [('state["_prefetched"] = {}', "pass")],
        f"{ROUND}::TestPrefetch::test_counts_caches_and_takes_nothing_by_itself",
    ),
    (
        "prefetch: a result taken after the ensemble was retrained (stamp ignored)",
        RAFIKI,
        [(" and self._stamp_holds()", "")],
        f"{ROUND}::TestInputsMovedMidCampaign::test_ensemble_retrained_after_round_1",
    ),
    (
        "prefetch: the stamp holds the forward plan but not the GA's sizes",
        RAFIKI,
        [("return then[0] is now[0] and then[1:] == now[1:]", "return then[0] is now[0]")],
        f"{ROUND}::TestInputsMovedMidCampaign::test_ga_changed_after_round_1",
    ),
    (
        "prefetch: the row bound dropped, every cold key in one lockstep",
        RAFIKI,
        [
            (
                "per_lockstep = max(1, PREFETCH_ROWS // (optimizer.population_size + 1))",
                "per_lockstep = max(1, len(cold))",
            )
        ],
        f"{ROUND}::TestRowBound::test_more_cold_keys_than_one_lockstep_holds",
    ),
    (
        "snap keeps the -0.0 that np.round gives small negatives",
        "repro/ga/encoding.py",
        [("np.round(clipped) + 0.0", "np.round(clipped)")],
        f"{EQUIVALENCE}::TestEncoderBatchEquivalence"
        "::test_snap_matches_decode_encode_round_trip_bitwise",
    ),
    (
        "rows-innermost on a fan_out == 1 layer",
        ENSEMBLE,
        [
            ("wide = sizes[i] > 1 and sizes[i + 1] > 1", "wide = sizes[i] > 1"),
            (
                "forwards = a[:, :n, 0]",
                "forwards = a[:, 0, :n] if layers[-1][3] else a[:, :n, 0]",
            ),
        ],
        f"{EQUIVALENCE}::TestEnsembleBatchEquivalence"
        "::test_stacked_forward_matches_per_member_oracle",
    ),
    (
        "a one-row query contracted without its twin row",
        ENSEMBLE,
        [("            x = np.concatenate((x, x))\n", "            pass\n")],
        f"{EQUIVALENCE}::TestEnsembleBatchEquivalence"
        "::test_stacked_forward_matches_per_member_oracle",
    ),
    (
        "tanh written in place through a flipped (transposed) layout",
        ENSEMBLE,
        [
            (
                'a = np.tanh(a.transpose(0, 2, 1), order="C")',
                "a = np.tanh(a, out=a).transpose(0, 2, 1)",
            )
        ],
        f"{EQUIVALENCE}::TestEnsembleBatchEquivalence"
        "::test_stacked_forward_matches_per_member_oracle",
    ),
    (
        "the forward's plan kept across a rebound scaler array",
        ENSEMBLE,
        [
            (
                "sources = [x_scaler.mean_, x_scaler.scale_, y_scaler.mean_, y_scaler.scale_]",
                "sources = []",
            )
        ],
        "tests/test_batch_equivalence.py::TestStackedEnsembleState"
        "::test_rebinding_a_scaler_array_moves_the_next_prediction",
    ),
    (
        "a wide layer's bias left (M, 1, fan_out)",
        ENSEMBLE,
        [
            (
                "b = np.ascontiguousarray(b[:, :, None])",
                "b = b[:, None, :]",
            )
        ],
        f"{EQUIVALENCE}::TestEnsembleBatchEquivalence"
        "::test_stacked_forward_matches_per_member_oracle",
    ),
    # -- the engine's op loop: what it holds across ops and what each op owes
    (
        "op loop: charge terms kept across a flush",
        ENGINE,
        [
            (
                "                        extra += stall\n                    terms = None\n",
                "                        extra += stall\n",
            )
        ],
        f"{OP_LOOP}::test_flush_then_the_queue_drains_to_zero",
    ),
    (
        "op loop: charge terms kept when the flush queue drains to 0.0",
        ENGINE,
        [("                if queue <= 0:\n                    terms = None\n", "")],
        f"{OP_LOOP}::test_flush_then_the_queue_drains_to_zero",
    ),
    (
        "op loop: charge terms kept across a compaction's completion",
        ENGINE,
        [("                completed = True\n", "")],
        f"{OP_LOOP}::test_last_compaction_completing_idles_the_regime",
    ),
    (
        "op loop: no drain while only the flush queue is busy",
        ENGINE,
        [
            (
                "            if queue > 0:\n                queue = self._flush",
                "            if queue > 0 and pending:\n                queue = self._flush",
            )
        ],
        f"{OP_LOOP}::test_flush_then_the_queue_drains_to_zero",
    ),
    (
        "op loop: the write stall left out of the op's interval",
        ENGINE,
        [("extra += stall", "pass")],
        f"{OP_LOOP}::test_write_stall",
    ),
    (
        "op loop: the sync barrier left out of the op's interval",
        ENGINE,
        [("extra = SYNC_OVERHEAD_SECONDS", "extra = 0.0 * SYNC_OVERHEAD_SECONDS")],
        f"{OP_LOOP}::test_sync_barriers",
    ),
    (
        "op loop: the write sequence stands still (timestamp ties)",
        ENGINE,
        [("write_seq += 1", "pass")],
        f"{OP_LOOP}::test_sync_barriers",
    ),
    (
        "op loop: no flush check inside a same-kind run, only at its first op",
        ENGINE,
        [
            (
                "if mem_bytes >= flush_at:",
                "if mem_bytes >= flush_at and (j == 0 or kinds[j - 1] == OP_READ):",
            )
        ],
        "tests/test_batch_opstream.py::TestExecuteBatchEquivalence"
        "::test_write_heavy_run_crosses_flush_and_compaction",
    ),
    (
        "op loop: random reads dropped from the bottleneck",
        ENGINE,
        [("if disk and disk / rand_iops > dt:", "if False:")],
        "tests/test_batch_opstream.py::TestProbePlanTraps"
        "::test_flush_mid_block_is_seen_by_later_reads",
    ),
    # -- the write's inline record, commit-log append, memtable put and clock
    (
        "inline write: the old version's bytes not given back on an overwrite",
        ENGINE,
        [("mem_bytes += size - old[3]", "mem_bytes += size")],
        f"{INLINE_WRITE}::test_a_key_overwritten_twice_in_one_block",
    ),
    (
        "inline write: a tie in stamps kept the older version",
        ENGINE,
        [("elif stamp >= old[1]:", "elif stamp > old[1]:")],
        f"{INLINE_WRITE}::test_a_key_overwritten_twice_in_one_block",
    ),
    (
        "inline write: the row map not re-bound after a flush",
        ENGINE,
        [
            (
                "rows, mem_bytes = memtable.rows, memtable.size_bytes",
                "mem_bytes = memtable.size_bytes",
            )
        ],
        f"{INLINE_WRITE}::test_reads_of_keys_written_just_before_a_mid_block_flush",
    ),
    (
        "inline write: the memtable's bytes not written back before _flush_memtable",
        ENGINE,
        [("flush_bytes = memtable.size_bytes = mem_bytes", "flush_bytes = mem_bytes")],
        f"{INLINE_WRITE}::test_a_flush_sees_the_memtable_log_and_clock_written_back",
    ),
    (
        "inline write: a sync barrier charged on the log's first append",
        ENGINE,
        [
            (
                "                    last_sync = now\n                elif",
                "                    last_sync = now\n"
                "                    syncs += 1\n"
                "                    extra = SYNC_OVERHEAD_SECONDS\n"
                "                elif",
            )
        ],
        f"{OP_LOOP}::test_sync_barriers",
    ),
    (
        "inline write: a record that ends a segment exactly left in it",
        ENGINE,
        [("if segment >= segment_at:", "if segment > segment_at:")],
        f"{INLINE_WRITE}::test_a_write_that_ends_a_segment_exactly",
    ),
    (
        "inline write: the clock not stored before a flush (only when the block ends)",
        ENGINE,
        [
            ("            now += dt\n            clock.now = now\n", "            now += dt\n"),
            (
                "        memtable.size_bytes, log.active_segment_bytes = mem_bytes, segment\n",
                "        clock.now = now\n"
                "        memtable.size_bytes, log.active_segment_bytes = mem_bytes, segment\n",
            ),
        ],
        f"{INLINE_WRITE}::test_a_flush_sees_the_memtable_log_and_clock_written_back",
    ),
    (
        "op loop: a per-block tally not written back to the stats",
        ENGINE,
        [("        stats.bloom_true_positives += true_positives\n", "")],
        f"{OP_LOOP}::test_reads_after_a_read_run_keep_their_plan_entries",
    ),
    (
        "op loop: the drain shortcut taken past a compaction's end",
        ENGINE,
        [
            (
                "if not common or p.remaining_bytes <= share:",
                "if not common:",
            )
        ],
        f"{OP_LOOP}::test_last_compaction_completing_idles_the_regime",
    ),
    # -- the probe plan: one layout-wide pass per epoch
    (
        "probe plan: a table's key-range ends searched on the wrong sides",
        ENGINE,
        [
            (
                'np.searchsorted(by_key, min_keys, "left")',
                'np.searchsorted(by_key, min_keys, "right")',
            ),
            (
                'np.searchsorted(by_key, max_keys, "right")',
                'np.searchsorted(by_key, max_keys, "left")',
            ),
        ],
        f"{PLAN_TRAPS}::test_reads_on_and_past_the_table_key_ranges",
    ),
    (
        "probe plan: presence taken from the search alone (every bloom positive a hit)",
        ENGINE,
        [
            (
                'karr.take(row, mode="clip") == keys[a:b]',
                'karr.take(row, mode="clip") >= keys[a:b]',
            )
        ],
        f"{PLAN_TRAPS}::test_reconfigure_between_blocks",
    ),
    (
        "probe plan: each read's true-positive count shifted onto the next read",
        ENGINE,
        [
            (
                "np.bincount(reads[present], minlength=n)",
                "np.bincount(reads[present] + 1, minlength=n + 1)[:n]",
            )
        ],
        f"{PLAN_TRAPS}::test_flush_mid_block_is_seen_by_later_reads",
    ),
    # -- the byte key column: built once per table, exact or absent
    (
        "key column: no NUL guard (an S column drops trailing NULs)",
        BLOOM,
        [
            (
                '    if "\\x00" in joined or not joined.isascii():\n',
                "    if not joined.isascii():\n",
            )
        ],
        "tests/test_lsm_engine.py::TestNulKeys",
    ),
    (
        "key column: non-ASCII keys encoded lossily",
        BLOOM,
        [
            (
                '    if "\\x00" in joined or not joined.isascii():\n',
                '    if "\\x00" in joined:\n',
            ),
            (
                '    return np.array(keys, dtype="S")\n',
                '    return np.array(\n'
                '        [k.encode("ascii", errors="replace") for k in keys], dtype="S"\n'
                "    )\n",
            ),
        ],
        "tests/test_batch_opstream.py::TestByteKeyColumns"
        "::test_one_non_ascii_table_takes_the_fallback",
    ),
    (
        "key column: served past the float64 guard",
        SSTABLE,
        [("        if (len(self._keys) - 1) * self.size_bytes < 2**53:\n", "        if True:\n")],
        f"{KEY_COLUMN}::test_none_past_the_float64_guard",
    ),
    (
        "key column: the constructor drops its column, so it is built again",
        SSTABLE,
        [
            (
                "        self._keys_arr = column\n",
                "        self._keys_arr = _key_column(keys)\n",
            )
        ],
        f"{KEY_COLUMN}::test_built_once_and_kept",
    ),
    (
        "LRU replay: a hit not moved to the most-recent end",
        CACHE,
        [("                lru.move_to_end(page)\n", "")],
        f"{CACHE_TESTS}::test_access_refreshes_recency",
    ),
    (
        "LRU replay: the cache's hit and miss tallies not kept",
        CACHE,
        [("        self.hits += hits\n        self.misses += len(pages) - hits\n", "")],
        f"{CACHE_TESTS}::test_hit_ratio",
    ),
    (
        "filter bank: a filter's bits read at its neighbour's offset",
        BLOOM,
        [("pos += self.offsets[f]", "pos += self.offsets[np.maximum(f - 1, 0)]")],
        f"{PLAN_TRAPS}::test_flush_mid_block_is_seen_by_later_reads",
    ),
    (
        "filter bank: every filter tested with the largest hash count",
        BLOOM,
        [
            (
                "row = np.arange(n_hashes, dtype=np.uint64)[:, None]",
                "row = np.arange(self.hash_counts[-1], dtype=np.uint64)[:, None]",
            )
        ],
        f"{PLAN_TRAPS}::test_reconfigure_between_blocks",
    ),
    # -- the engine against a dict
    (
        "point read: a flushed tombstone skipped, so the older row it shadows comes back",
        ENGINE,
        [
            (
                "                    rec = table.record_at(row)\n",
                "                    rec = table.record_at(row)\n"
                "                    if rec.is_tombstone:\n"
                "                        continue\n",
            )
        ],
        STATE_MACHINE,
    ),
    # -- the background model both substrates share, against test-side
    # -- oracles that do not import it
    (
        "background: leveled compaction's floor dropped",
        BACKGROUND,
        [
            (
                "throttle = max(throttle, LEVELED_MIN_COMPACTION_BYTES)",
                "throttle = max(throttle, 0)",
            )
        ],
        f"{BACKGROUND_TESTS}::TestBackgroundTerms::test_leveled_floor",
    ),
    (
        "background: the flush writers left out of the sequential demand",
        BACKGROUND,
        [
            (
                "seq_demand = rate * costs.compaction_io_factor + flush_rate",
                "seq_demand = rate * costs.compaction_io_factor",
            )
        ],
        f"{BACKGROUND_TESTS}::TestBackgroundTerms::test_flush_writers_take_sequential_bandwidth",
    ),
    (
        "background: the queue not capped at concurrent_compactors",
        BACKGROUND,
        [
            (
                "active = min(queued, knobs.concurrent_compactors)",
                "active = queued",
            )
        ],
        f"{BACKGROUND_TESTS}::TestBackgroundTerms::test_per_compactor_throttle",
    ),
    (
        "size buckets: the running average not updated",
        "repro/lsm/compaction.py",
        [
            (
                "                averages[b] = sum(sizes[j] for j in buckets[b]) / len(buckets[b])\n",
                "",
            )
        ],
        "tests/test_lsm_compaction.py::TestSizeBuckets"
        "::test_the_running_average_moves_the_window",
    ),
    # -- the analytic substrate: what the node-second kernel holds across
    # -- seconds, what keys a segment, and what a served step owes
    (
        "kernel: segment kept after the structure moved",
        ANALYTIC,
        [
            (
                "                memtable, dataset = model.memtable_bytes, model.dataset_bytes\n"
                "                s = None\n",
                "                memtable, dataset = model.memtable_bytes, model.dataset_bytes\n",
            )
        ],
        f"{STRUCTURE}::test_chained_merge_keeps_backlog_length",
    ),
    (
        "kernel: the half-trigger crossing ignored",
        ANALYTIC,
        [(FLAG_FLIP, "")],
        f"{STRUCTURE}::test_half_trigger_crossed_both_ways",
    ),
    (
        "kernel: the hit ratio read off the model's copies, stale within a segment",
        ANALYTIC,
        [
            ("if not dataset / block_bytes", "if not model.dataset_bytes / block_bytes"),
            ("exp(-age / warmup_s)", "exp(-model.cache_age / warmup_s)"),
        ],
        f"{STRUCTURE}::test_working_set_outgrows_the_cache_mid_run",
    ),
    (
        "kernel: the inline hit ratio's steady share frozen at the overflowing cache's",
        ANALYTIC,
        [
            (
                "                if not dataset / block_bytes <= fits_pages:\n"
                "                    hit = steady_hit * hit\n",
                "                hit = steady_hit * hit\n",
            )
        ],
        f"{STRUCTURE}::test_working_set_outgrows_the_cache_mid_run",
    ),
    (
        "kernel: the clocks, bytes and op count not written back on close",
        ANALYTIC,
        [("    finally:\n" + WRITE_BACK, "    finally:\n        pass\n")],
        f"{ANALYTIC_TESTS}::TestStepping::test_step_advances_time",
    ),
    (
        "run: the single-node run's final step not absorbed",
        ANALYTIC,
        [
            (
                "            absorb((x * r * dt, x * w * dt))\n",
                "            if k + 1 < steps:\n"
                "                absorb((x * r * dt, x * w * dt))\n",
            )
        ],
        "tests/test_lsm_analytic_properties.py::TestRunEqualsOracle::test_server",
    ),
    (
        "soft-min: the six-cap form drops its NaN fallback",
        ANALYTIC,
        [
            (
                "                if total == total:\n"
                "                    return scale * total ** root\n",
                "                return scale * total ** root\n",
            )
        ],
        "tests/test_lsm_analytic_properties.py::TestSoftMin"
        "::test_six_cap_form_equals_math_oracle",
    ),
    (
        "soft-min: the scale chain skips the random-disk cap",
        ANALYTIC,
        [("            scale = iops_cap if iops_cap < scale else scale\n", "")],
        "tests/test_lsm_analytic_properties.py::TestSoftMin"
        "::test_scale_chain_equals_builtin_min_in_every_position",
    ),
    (
        "segment: key without the tables a read checks",
        ANALYTIC,
        [("            or s.n_checked != n_checked\n", "")],
        f"{STRUCTURE}::test_chained_merge_keeps_backlog_length",
    ),
    (
        "segment: keyed on the backlog length alone",
        ANALYTIC,
        [(SEGMENT_KEY, "            or s.n_backlog != n_backlog\n")],
        f"{STRUCTURE}::test_chained_merge_keeps_backlog_length",
    ),
    (
        "segment: key without the flush flag",
        ANALYTIC,
        [("            or s.flushing is not flushing\n", "")],
        f"{STRUCTURE}::test_half_trigger_crossed_both_ways",
    ),
    (
        "writes: one flush per step at most",
        ANALYTIC,
        [
            (
                "while self.memtable_bytes >= trigger:",
                "if self.memtable_bytes >= trigger:",
            )
        ],
        f"{STRUCTURE}::test_several_flushes_inside_one_step",
    ),
    (
        "cache hit: the steady share frozen at the overflowing cache's",
        ANALYTIC,
        [
            (
                "steady = 1.0 if working_set_pages <= pages else t.steady_hit",
                "steady = t.steady_hit",
            )
        ],
        f"{STRUCTURE}::test_working_set_outgrows_the_cache_mid_run",
    ),
    (
        "regime: a table kept across rebound knobs",
        ANALYTIC,
        [("            or t.knobs is not self.knobs\n", "")],
        f"{ANALYTIC_TESTS}::TestTermTable::test_rebound_knobs_invalidate",
    ),
    (
        "noise: a noiseless run draws anyway",
        ANALYTIC,
        [
            (
                "draws = self.rng.standard_normal(steps).tolist() if sigma > 0 else None",
                "draws = self.rng.standard_normal(steps).tolist()",
            )
        ],
        f"{STRUCTURE}::test_noiseless_model_draws_nothing",
    ),
    (
        "noise: the block drawn before the read ratio is checked",
        ANALYTIC,
        [
            (
                '        if not (0.0 <= read_ratio <= 1.0):\n'
                '            raise ValueError("read_ratio must be in [0, 1]")\n'
                "        steps = ",
                "        steps = ",
            ),
            (
                "if sigma > 0 else None\n",
                "if sigma > 0 else None\n"
                "        if not (0.0 <= read_ratio <= 1.0):\n"
                '            raise ValueError("read_ratio must be in [0, 1]")\n',
            ),
        ],
        f"{ANALYTIC_TESTS}::TestRejectedCallsTouchNothing::test_model_run",
    ),
    (
        "pickle: the regime table pickled with the model",
        ANALYTIC,
        [('        del state["_terms"]\n', "")],
        f"{ANALYTIC_TESTS}::TestTermTable::test_pickle_is_unchanged_by_a_solve",
    ),
    (
        "absorb: the drain fast path taken when the head ends exactly on the budget",
        ANALYTIC,
        [
            (
                "not head.remaining_io_bytes > budget > 0.0:",
                "not head.remaining_io_bytes >= budget > 0.0:",
            )
        ],
        f"{STRUCTURE}::test_head_compaction_ending_exactly_on_the_budget",
    ),
    (
        "absorb: a flush drains at the compaction rate from before it",
        ANALYTIC,
        [
            (
                "                if flush:\n"
                "                    model._apply_writes(writes)\n"
                "                model._drain_background(dt)\n",
                "                if flush:\n"
                "                    model._apply_writes(writes)\n"
                "                if flush and head is not None and head.remaining_io_bytes > budget > 0.0:\n"
                "                    head.remaining_io_bytes -= budget\n"
                "                else:\n"
                "                    model._drain_background(dt)\n",
            )
        ],
        f"{STRUCTURE}::test_flush_that_queues_a_merge_drains_at_the_new_rate",
    ),
    (
        "ring: one live node's absorb skipped",
        "repro/datastore/cluster.py",
        [
            (
                "absorbs = [kernel.send for kernel, _ in kernels]",
                "absorbs = [kernel.send for kernel, _ in kernels[1:]]",
            )
        ],
        "tests/test_lsm_analytic_properties.py::TestRunEqualsOracle::test_cluster",
    ),
    (
        "ring: the slowest-node compare reversed",
        "repro/datastore/cluster.py",
        [("if per_node is None or x < per_node:", "if per_node is None or x > per_node:")],
        "tests/test_lsm_analytic_properties.py::TestRingCapacity",
    ),
    (
        "ring: the shooters' cap dropped",
        "repro/datastore/cluster.py",
        [("        return cap if cap < x else x\n", "        return x\n")],
        "tests/test_lsm_analytic_properties.py::TestRingCapacity",
    ),
    (
        "window: the read-ratio clip lets a negative ratio through",
        "repro/middleware/session.py",
        [("if 0.0 <= x <= 1.0 else", "if -1.0 <= x <= 1.0 else")],
        "tests/test_middleware_adapter.py::TestReadRatioClip::test_edges",
    ),
    (
        "window: a fractional remainder served as a rounded number of seconds",
        "repro/middleware/session.py",
        [("math.floor(remaining)", "remaining")],
        "tests/test_middleware_adapter.py::TestWindowWithNoTimeLeft"
        "::test_fractional_penalty_serves_only_whole_seconds_left",
    ),
    (
        "forecast: a prediction kept across an update",
        "repro/workload/forecast.py",
        [("        self._current_bin = new_bin\n        self._prediction = None\n",
          "        self._current_bin = new_bin\n")],
        "tests/test_workload_forecast.py::TestMarkovRegime::test_learns_alternation",
    ),
    # -- the sharded serve round: the rafiki its workers' canaries read and
    # -- the order its two journals are republished in
    (
        "sharded round: the first round's rafiki blob reused across rounds",
        SCHEDULER,
        [
            (
                "blob = self._rafiki_blob()",
                'blob = vars(self).setdefault("_first_blob", self._rafiki_blob())',
            )
        ],
        "tests/test_sharded_scheduler.py::TestRoundBlob"
        "::test_ensemble_retrained_mid_run_reaches_the_workers",
    ),
    (
        "sharded round: the worker's journal republished before the parent's",
        SCHEDULER,
        [
            (
                "journals[tenant_id] + worker_records",
                "worker_records + journals[tenant_id]",
            )
        ],
        "tests/test_sharded_scheduler.py::TestEveryFeatureOn::test_serial_equals_sharded",
    ),
    # -- process entry: what a fresh interpreter loads and how many BLAS
    # -- threads it computes on
    (
        "footprint: scipy.stats imported at module level again",
        "repro/core/anova.py",
        [
            (
                "import numpy as np\n\nfrom repro",
                "import numpy as np\nfrom scipy import stats\n\nfrom repro",
            )
        ],
        f"{ENTRY_POINTS}::TestImportFootprint"
        "::test_root_loads_no_numpy_and_serving_loads_no_scipy",
    ),
    (
        # Needs a host with >= 2 CPUs: OpenBLAS caps its threads at the core count.
        "threads: python -m repro leaves the BLAS thread count to the caller",
        "repro/__main__.py",
        [("    pin_threads()\n", "")],
        f"{ENTRY_POINTS}::TestOneBlasThread"
        "::test_train_writes_the_same_bytes_at_any_thread_count",
    ),
    # -- the GA's Deb penalty and the serve fleet's tenant ids
    (
        "penalty: infeasible rows scored on their raw fitness",
        GA,
        [("fitness *= penalty_scales", "fitness *= 0.0")],
        "tests/test_ga_algorithm.py::TestPenalizedFitness::test_violation_penalized",
    ),
    (
        "tenant id: an empty dot segment accepted",
        SCHEDULER,
        [(' or "" in self.tenant_id.split(".")', "")],
        "tests/test_middleware_scheduler.py::TestValidation::test_bad_specs_rejected",
    ),
    (
        "a NaN read ratio accepted into a tenant's series",
        SCHEDULER,
        [("if math.isnan(read_ratio):", "if False:")],
        "tests/test_middleware_scheduler.py::TestValidation"
        "::test_nan_read_ratio_rejected_naming_tenant_and_window",
    ),
    # -- the tenant manifest reads its schema from TenantSpec and the stanza specs
    (
        "manifest: a key the document sets is not passed to TenantSpec",
        "repro/middleware/manifest.py",
        [
            (
                "for key, value in entry.items() if key in _FIELD_OF\n",
                'for key, value in entry.items() if key in _FIELD_OF and key != "priority"\n',
            )
        ],
        "tests/test_middleware_manifest.py::TestSpecBuilding::test_every_set_key_reaches_the_spec",
    ),
    (
        "manifest: a stanza accepts a key its spec has no field for",
        "repro/middleware/manifest.py",
        [
            (
                "{f.name for f in fields(spec)}",
                "{f.name for each in _STANZAS.values() for f in fields(each)}",
            )
        ],
        "tests/test_middleware_manifest.py::TestGuardStanzas"
        "::test_stanza_takes_exactly_its_spec_fields",
    ),
    (
        "faults: a single-node generated plan draws a slowdown",
        "repro/faults/plan.py",
        [("if rng.random() < slowdown_probability and n_nodes > 1:",
          "if rng.random() < slowdown_probability:")],
        "tests/test_faults.py::TestPlanGeneration::test_single_node_plan_at_defaults_is_valid",
    ),
    (
        "serve: a restart charged to the topic's first segment",
        "repro/cli.py",
        [
            (
                "partial(on_restart, tenant_id)",
                'lambda e: on_restart(e.topic.split(".")[1], e)',
            )
        ],
        "tests/test_cli.py::TestServe::test_serve_dotted_rolling_tenant_reports_its_restarts",
    ),
    # -- the CLI's artifact loads: one line and exit 1, never a traceback
    (
        "cli: a surrogate that cannot load ends in a traceback",
        "repro/cli.py",
        [
            (
                "_load_artifact(load_surrogate, args.surrogate, datastore.space)",
                "load_surrogate(args.surrogate, datastore.space)",
            )
        ],
        "tests/test_cli.py::TestArtifactLoadErrors::test_surrogate_commands",
    ),
    (
        "cli: a dataset that cannot load ends in a traceback",
        "repro/cli.py",
        [
            (
                "_load_artifact(load_dataset, args.dataset, datastore.space)",
                "load_dataset(args.dataset, datastore.space)",
            )
        ],
        "tests/test_cli.py::TestArtifactLoadErrors::test_train",
    ),
    (
        "cli: a surrogate of no known format (a TrainingError) ends in a traceback",
        "repro/cli.py",
        [("except (PersistenceError, TrainingError) as exc:", "except PersistenceError as exc:")],
        "tests/test_cli.py::TestArtifactLoadErrors::test_surrogate_commands",
    ),
]


def run_tests(src: Path, test_ids) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-profile=no-shrink", *test_ids,
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )


def main(argv) -> int:
    traps = [t for t in TRAPS if all(word in t[0] for word in argv)]
    if not traps:
        print("no trap matches", argv)
        return 1
    baseline = run_tests(REPO / "src", sorted({t[3] for t in traps}))
    if baseline.returncode != 0:
        print("the named tests do not pass on the untouched tree:")
        print(baseline.stdout[-2000:])
        return 1
    survivors = 0
    for name, rel, edits, test_id in traps:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(
                REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
            )
            text = (src / rel).read_text()
            for find, replace in edits:
                if text.count(find) != 1:
                    print(f"STALE    {name}: {find!r} occurs {text.count(find)}x in {rel}")
                    survivors += 1
                    break
                text = text.replace(find, replace)
            else:
                (src / rel).write_text(text)
                done = run_tests(src, [test_id])
                caught = done.returncode == 1  # ran and failed; 2 = could not collect
                survivors += not caught
                print(f"{'caught  ' if caught else 'SURVIVED'} {name}")
                why = [ln for ln in done.stdout.splitlines() if ln.startswith(("FAILED", "ERROR"))]
                print(f"         {(why or [test_id])[0][:160]}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
