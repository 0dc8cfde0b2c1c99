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

Run from the repo root (~2 min)::

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
PLAN_TRAPS = "tests/test_batch_opstream.py::TestProbePlanTraps"
BLOOM = "repro/lsm/bloom.py"
STATE_MACHINE = "tests/test_lsm_state_machine.py::TestEngineMatchesDict"
BACKGROUND = "repro/lsm/background.py"
BACKGROUND_TESTS = "tests/test_lsm_background.py"
ENTRY_POINTS = "tests/test_entry_points.py"
ANALYTIC = "repro/lsm/analytic.py"
ANALYTIC_TESTS = "tests/test_lsm_analytic.py"
SCHEDULER = "repro/middleware/scheduler.py"
STRUCTURE = f"{ANALYTIC_TESTS}::TestStepStructureTraps"
SEGMENT_KEY = (
    "            or s.n_checked != n_checked\n"
    "            or s.n_backlog != n_backlog\n"
    "            or s.flushing is not flushing\n"
)
SEGMENT_DROP = (
    "        if moved or (model.memtable_bytes > t.half_flush_trigger) is not s.flushing:\n"
)

TRAPS = [
    (
        "book the riding winner after the generation's own bookkeeping",
        GA,
        [
            (
                "                book(\n"
                "                    generation - 1,\n"
                "                    winner,\n"
                "                    float(raw[-1]),\n"
                "                    self.evaluations - population_size,\n"
                "                )\n",
                "                late = (generation - 1, winner, float(raw[-1]),\n"
                "                        self.evaluations - self.population_size)\n",
            ),
            (
                "            winner = np.where(encoder.integral, best.round() + 0.0, best)\n",
                "            rode, winner = winner, np.where(encoder.integral, best.round() + 0.0, best)\n",
            ),
            (
                "                if book(generation, winner, raw_winner, self.evaluations):\n"
                "                    break\n"
                "                winner = None\n",
                "                if book(generation, winner, raw_winner, self.evaluations):\n"
                "                    break\n"
                "                winner = None\n"
                "            if rode is not None:\n"
                "                book(*late)\n",
            ),
        ],
        f"{REFERENCE}::test_plateau_stops_on_the_reference_generation",
    ),
    (
        "no score on the spot when one more stagnant generation ends the search",
        GA,
        [
            (
                "if generation == self.generations or stagnant + 1 >= stagnation_limit:",
                "if generation == self.generations:",
            )
        ],
        f"{REFERENCE}::test_plateau_stops_on_the_reference_generation",
    ),
    (
        "publish self.evaluations as it stands when a riding winner is booked",
        GA,
        [
            (
                "self.evaluations - population_size,",
                "self.evaluations,",
            )
        ],
        f"{REFERENCE}::test_surrogate_search",
    ),
    (
        "the merged draw's halves swapped (mutation mask used as crossover weights)",
        GA,
        [
            (
                "weights, mutate = rng.random((2, n_children, n_genes))",
                "mutate, weights = rng.random((2, n_children, n_genes))",
            )
        ],
        f"{REFERENCE}::test_surrogate_search",
    ),
    (
        "one batch reused across generations: the elites copied after the children overwrote it",
        GA,
        [
            (
                "batch = np.empty((population_size + 1, n_genes))",
                "batch = population.base if generation > 1 else "
                "np.empty((population_size + 1, n_genes))",
            )
        ],
        f"{REFERENCE}::test_surrogate_search",
    ),
    (
        "crossover's (1 - w) taken after the weight block was overwritten",
        GA,
        [
            (
                "                np.multiply(weights, parents[:n_children], out=children)\n"
                "                # (1 - weights) * second parents, in the weight block: the\n"
                "                # first parents' product above was the weights' last use.\n"
                "                np.subtract(1.0, weights, out=weights)\n",
                "                np.subtract(1.0, weights, out=weights)\n"
                "                np.multiply(weights, parents[:n_children], out=children)\n",
            )
        ],
        f"{REFERENCE}::test_surrogate_search",
    ),
    (
        "a non-finite derived penalty scale let through",
        GA,
        [("if not penalty_scale < math.inf:", "if False:")],
        "tests/test_ga_algorithm.py::TestGeneticAlgorithm"
        "::test_non_finite_initial_spread_rejected",
    ),
    (
        "search.generation skipped when a bus is attached",
        GA,
        [("if generation and bus is not None:", "if False:")],
        f"{EQUIVALENCE}::TestSearchEvents::test_ga_publishes_lifecycle_events",
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
        [("fitness.floor = float(scores[-1])", "fitness.floor = float(scores[0])")],
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
        [("extra = log_append(rec, now)", "extra = log_append(rec, now) * 0.0")],
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
                "if mem_put(rec) >= flush_at:",
                "if mem_put(rec) >= flush_at and (j == 0 or kinds[j - 1] == OP_READ):",
            )
        ],
        "tests/test_batch_opstream.py::TestExecuteBatchEquivalence"
        "::test_write_heavy_run_crosses_flush_and_compaction",
    ),
    (
        "op loop: random reads dropped from the bottleneck",
        ENGINE,
        [
            (
                "dt = max(dt_cpu, dt_seq, dt_rand, dt_pool) + extra",
                "dt = max(dt_cpu, dt_seq, dt_pool) + extra",
            )
        ],
        "tests/test_batch_opstream.py::TestProbePlanTraps"
        "::test_flush_mid_block_is_seen_by_later_reads",
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
                't.min_key for t in tables], dtype=str), "left")',
                't.min_key for t in tables], dtype=str), "right")',
            ),
            (
                't.max_key for t in tables], dtype=str), "right")',
                't.max_key for t in tables], dtype=str), "left")',
            ),
        ],
        f"{PLAN_TRAPS}::test_reads_on_and_past_the_table_key_ranges",
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
                "                        rec = table.record_at(row)\n",
                "                        rec = table.record_at(row)\n"
                "                        if rec.is_tombstone:\n"
                "                            continue\n",
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
    # -- the analytic substrate: what a node cursor holds across seconds,
    # -- what keys a segment, and what a served step owes
    (
        "cursor: segment kept after the structure moved",
        ANALYTIC,
        [(SEGMENT_DROP, SEGMENT_DROP.replace("moved or ", ""))],
        f"{STRUCTURE}::test_chained_merge_keeps_backlog_length",
    ),
    (
        "cursor: the half-trigger crossing ignored",
        ANALYTIC,
        [(SEGMENT_DROP, "        if moved:\n")],
        f"{STRUCTURE}::test_half_trigger_crossed_both_ways",
    ),
    (
        "cursor: the hit ratio not recomputed after a step",
        ANALYTIC,
        [("        self.hit = model._cache_hit(t)\n", "")],
        f"{STRUCTURE}::test_working_set_outgrows_the_cache_mid_run",
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
                "if head.remaining_io_bytes > budget > 0.0:",
                "if head.remaining_io_bytes >= budget > 0.0:",
            )
        ],
        f"{STRUCTURE}::test_head_compaction_ending_exactly_on_the_budget",
    ),
    (
        "absorb: a flush drains at the compaction rate from before it",
        ANALYTIC,
        [
            (
                "                model._drain_background(dt)\n"
                "                moved = True\n"
                "        comp_rate = s.comp_rate\n"
                "        if comp_rate > 0.0 and not moved:\n",
                "                moved = True\n"
                "        comp_rate = s.comp_rate\n"
                "        if comp_rate > 0.0:\n",
            )
        ],
        f"{STRUCTURE}::test_several_flushes_inside_one_step",
    ),
    (
        "ring: one live node's absorb skipped",
        "repro/datastore/cluster.py",
        [
            (
                "absorbs = [cursor.absorb for cursor in cursors]",
                "absorbs = [cursor.absorb for cursor in cursors[1:]]",
            )
        ],
        "tests/test_lsm_analytic_properties.py::TestRunEqualsOracle::test_cluster",
    ),
    (
        "window: a fractional remainder served as a rounded number of seconds",
        "repro/middleware/session.py",
        [("math.floor(remaining)", "remaining")],
        "tests/test_middleware_adapter.py::TestWindowWithNoTimeLeft"
        "::test_fractional_penalty_serves_only_whole_seconds_left",
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
