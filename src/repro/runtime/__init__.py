"""Execution runtime: backends and structured progress events.

The offline Rafiki stages — the 220-point data-collection campaign
(§4.2), the ~25-parameter OFAT ANOVA sweep (§3.4), and the 20-net
ensemble training (§3.6) — are all embarrassingly parallel: every work
unit is independent and carries its own pre-derived random stream.  This
package provides the two pieces that let those stages, and the sharded
serve loop's window rounds, scale with cores without giving up the
repo's core invariant (bitwise determinism under a seed):

* :class:`ExecutionBackend` — ``map_tasks(fn, tasks)`` over independent,
  picklable work units.  :class:`SerialBackend` runs them inline;
  :class:`ProcessPoolBackend` fans them out over one lazily built,
  reused pool of worker processes (``warm()`` pre-spawns it,
  ``close()`` releases it).  Because every task ships its own
  :class:`~repro.sim.rng.SeedSequence`-derived generator, results are
  identical regardless of scheduling.
* :class:`EventBus` — structured pub/sub progress events: the one
  channel every stage and the online loop report on.
"""

from repro.runtime.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.events import Event, EventBus, ScopedEventBus

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    "Event",
    "EventBus",
    "ScopedEventBus",
]
