"""Repetition harness: fixture builds, a reference repetition, timed
repetitions on fresh state, and metrics normalised to the host's nominal
speed.

Measured on this shared 2-vCPU host: it runs everything 1.3-2.3x slower
for seconds to minutes at a time, and whatever was built from raw times
(median of repetitions, fastest repetition, fastest execution of each
step) moved 15-30 % between two sets of runs of the same code.  A fixed
kernel timed between every two steps (``calibrate.py``) moves with the
repetition around it, and a time divided by the run's host factor repeats
within 3-7 %.  README.md has the measurements.
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
from statistics import median
from types import SimpleNamespace

import numpy as np

from calibrate import NOMINAL_S, burst
from spans import SpanRecorder

#: Repetitions of a ``--budget smoke`` pass; a full run never stops below
#: the workload's own ``MIN_REPS``, whatever ``--seconds`` says.
SMOKE_REPS = 3
#: A full untraced run rebuilds the fixtures after these repetitions, so
#: ``setup_s`` is a median of three builds spread over the run.
REBUILD_AFTER = (2, 4)


def _children_cpu() -> float:
    """CPU seconds of *reaped* child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def _host_factor(kernels: np.ndarray) -> np.ndarray:
    """``[wall, cpu]`` host factors from ``[wall_s, cpu_s]`` kernel rows."""
    return kernels.mean(axis=0) / NOMINAL_S


class _Pace:
    """Kernel bursts around and inside a fixture build; their own time is
    kept out of the build's."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def __call__(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(burst())
        self.spent_s += time.perf_counter() - t0


def repetition(workload, rec=None, reference: bool = False) -> SimpleNamespace:
    """One repetition on fresh state.

    An exception in the timed region is recorded, not raised: the
    repetition counts as failed and the run goes on.  The state is kept
    only for a traced repetition (the probe phases need the end state);
    holding every repetition's engine would inflate ``peak_rss_mb``.
    """
    gc.collect()
    kids0 = _children_cpu()
    t0 = time.perf_counter()
    state = workload.prepare(rec, reference=reference)
    prepare_s = time.perf_counter() - t0
    gc.collect()
    error = None
    if rec is not None:
        rec.open("bench.rep")
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        workload.run(state)
    except Exception:
        error = traceback.format_exc()
    gross_wall_s = time.perf_counter() - t0
    gross_cpu_s = time.process_time() - cpu0
    if rec is not None:
        rec.close_all()  # an exception may have left spans open
    # Closing the pool reaps the workers, which is when their CPU shows.
    workload.finish(state)
    worker_cpu_s = _children_cpu() - kids0
    rep = SimpleNamespace(
        prepare_s=prepare_s,
        gross_wall_s=gross_wall_s,
        worker_cpu_s=worker_cpu_s,
        outcome=None,
        failures=[error] if error else [],
        state=state if rec is not None else None,
    )
    if error is None:
        rep.outcome = outcome = workload.observe(state)
        rep.failures = list(outcome.failures)
        # The calibration kernel's own time is no part of the repetition.
        kernel_wall_s, kernel_cpu_s = outcome.kernels.sum(axis=0)
        rep.wall_s = gross_wall_s - kernel_wall_s
        rep.parent_cpu_s = gross_cpu_s - kernel_cpu_s
        rep.host = _host_factor(outcome.kernels)
    return rep


def measure(workload, seconds: float, budget: str, trace: bool, spans_path) -> dict:
    """Run one workload; returns its result document.

    ``fixture build -> reference repetition -> repetitions while they fit
    into `seconds`, counted from the start of the first build (never
    fewer than the workload's MIN_REPS) [-> one traced repetition]``.
    """
    started = time.perf_counter()
    fixture_s, fixture_raw_s = [], []

    def build() -> dict:
        pace = _Pace()
        pace()
        t0, paced0 = time.perf_counter(), pace.spent_s
        layers = workload.build_fixtures(pace)
        took = time.perf_counter() - t0 - (pace.spent_s - paced0)
        pace()
        factor = _host_factor(np.concatenate(pace.samples))[0]
        fixture_raw_s.append(took)
        fixture_s.append(took / factor)
        return {
            name: value / factor if name.endswith("_s") else value
            for name, value in layers.items()
        }

    fixture_layers = build()
    rebuild = budget == "full" and not trace
    reference = repetition(workload, reference=True)
    if reference.failures:
        raise RuntimeError(
            "reference repetition failed:\n" + "\n".join(reference.failures)
        )
    steps_per_rep = len(reference.outcome.steps)

    # A traced run keeps its last slot for the traced repetition.
    slots = 2 if trace else 1
    min_reps = (SMOKE_REPS if budget == "smoke" else workload.MIN_REPS) + 1 - slots
    reps = []
    while True:
        cost = median(r.prepare_s + r.gross_wall_s for r in reps) if reps else 0.0
        spent = time.perf_counter() - started
        if len(reps) >= min_reps and spent + slots * cost > seconds:
            break
        reps.append(repetition(workload))
        if rebuild and len(reps) in REBUILD_AFTER:
            build()

    timed = [r for r in reps if r.outcome is not None]
    if not timed:
        raise RuntimeError("every repetition raised:\n" + reps[0].failures[0])
    # Ratio of sums: all the step time of the run over all its kernel time.
    host = _host_factor(np.concatenate([r.outcome.kernels for r in timed]))
    wall_s = float(np.mean([r.wall_s for r in timed])) / host[0]
    # Step i does the same work in every repetition: its mean over the
    # repetitions averages the host's bursts out, the run's host factor
    # takes the level out.
    raw_steps_s = np.stack([r.outcome.steps[:, 0] for r in timed])
    steps_s = raw_steps_s.mean(axis=0) / host[0]
    cpu_s = float(np.mean([r.parent_cpu_s + r.worker_cpu_s for r in timed])) / host[1]

    per_layer = table = traced = None
    if trace:
        rec = SpanRecorder()
        traced = repetition(workload, rec)
        if traced.outcome is None:
            raise RuntimeError("traced repetition raised:\n" + traced.failures[0])
        per_layer, table = _per_layer(
            rec, traced, steps_s, fixture_layers, workload.probe(traced.state)
        )
        workload.uninstrument()
        traced.state = None
        rec.write(spans_path)

    checked = reps + ([traced] if traced else [])
    failures = []
    for index, rep in enumerate(checked):
        if rep.outcome is not None and rep.outcome.digest != reference.outcome.digest:
            rep.failures.append("digest differs from the reference repetition's")
        failures += [f"repetition {index}: {f}" for f in rep.failures]
    attempted = steps_per_rep * len(checked)
    failed = steps_per_rep * sum(1 for rep in checked if rep.failures)

    prepared = [reference] + timed
    end_to_end = {
        "setup_s": median(fixture_s)
        + median(r.prepare_s / r.host[0] for r in prepared),
        "work_per_s": reference.outcome.work_units / wall_s,
        "step_ms_p50": 1e3 * float(np.percentile(steps_s, 50)),
        "step_ms_p90": 1e3 * float(np.percentile(steps_s, 90)),
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "sim_ops_per_s": reference.outcome.sim_ops_per_s,
    }
    return {
        "workload": workload.name,
        "work_unit": workload.unit,
        "repetitions": len(reps),
        "host_factor": float(host[0]),
        "host_factor_cpu": float(host[1]),
        "host_factor_per_repetition": [float(r.host[0]) for r in timed],
        # As the clock read them, before the host factor.
        "raw": {
            "repetition_wall_s": [r.wall_s for r in timed],
            "step_ms_p50": 1e3 * float(np.percentile(raw_steps_s.mean(axis=0), 50)),
            "fixture_build_s": fixture_raw_s,
            "prepare_s": [r.prepare_s for r in prepared],
        },
        "wall_s": wall_s,
        "steps_per_repetition": steps_per_rep,
        # Samples above the 90th percentile of the repetition's steps.
        "p90_samples_beyond": steps_per_rep // 10,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "counts": reference.outcome.counts,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_table": table,
        "traced_wall_s": traced.gross_wall_s if traced else None,
        "traced_host_factor": float(traced.host[0]) if traced else None,
    }


def _per_layer(rec, traced, steps_s, fixture_layers, probes):
    """Per-layer metrics of the traced repetition, by contract name, and
    the layer table (name, calls, inclusive s, self s) by self time.

    The table is as the clock read it and sums to the traced wall; the
    metrics are its times over the traced repetition's own host factor.
    """
    totals = rec.totals()
    absent = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    factor = traced.host[0]

    def total(name):
        return totals.get(name, absent)["total_s"] / factor

    def self_s(name):
        return totals.get(name, absent)["self_s"] / factor

    out = {**fixture_layers, **traced.outcome.counts}
    out.update({name: value / factor for name, value in probes.items()})
    out.update(
        {
            "core.recommend_s": total("core.recommend"),
            "ga.search_self_s": self_s("core.recommend"),
            "ml.predict_s": total("ml.predict"),
            "ml.predict_calls": totals.get("ml.predict", absent)["calls"],
            "ml.predict_rows": rec.units["ml.predict"],
            "datastore.run_s": total("datastore.run"),
            "datastore.run_calls": totals.get("datastore.run", absent)["calls"],
            "lsm.analytic_steps": rec.units["datastore.run"],
            "datastore.push_s": total("datastore.push"),
            "datastore.pushes": totals.get("datastore.push", absent)["calls"],
            "datastore.verify_s": total("datastore.verify"),
            "scheduler.round_self_s": self_s("scheduler.run"),
            "backend.map_s": total("backend.map"),
            "workload.gen_s": total("workload.gen"),
            "lsm.exec_s": total("lsm.exec"),
            "trace.unattributed_s": self_s("bench.rep"),
            # Step by step, the traced execution against the untraced
            # ones, both at nominal host speed; the median ignores the
            # steps that a burst of the host hit.
            "trace.overhead_frac": float(
                np.median(traced.outcome.steps[:, 0] / factor / steps_s) - 1.0
            ),
        }
    )
    out.update(
        {f"{name}_s": total(name) for name in totals if name.startswith("session.")}
    )
    if out["ml.predict_rows"]:
        out["ml.predict_us_per_row"] = 1e6 * out["ml.predict_s"] / out["ml.predict_rows"]
    if "workload.gen_ops" in out:
        out["workload.gen_us_per_op"] = 1e6 * out["workload.gen_s"] / out["workload.gen_ops"]
        out["lsm.exec_us_per_op"] = 1e6 * out["lsm.exec_s"] / out["lsm.exec_ops"]
    if "stateship.blob_ships" in out:   # a pool ran
        out["backend.worker_cpu_s"] = traced.worker_cpu_s / traced.host[1]
        out["backend.parent_cpu_s"] = traced.parent_cpu_s / traced.host[1]
    table = sorted(
        ([name, row["calls"], row["total_s"], row["self_s"]]
         for name, row in totals.items()),
        key=lambda row: -row[3],
    )
    return out, table
