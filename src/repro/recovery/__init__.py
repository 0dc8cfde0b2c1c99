"""Crash-safe artifacts and LSM engine crash recovery.

The offline jobs themselves are not resumable: the paper's whole
collection campaign runs in seconds, so a killed ``collect`` or
``train`` is simply rerun (every stream is seeded, so the rerun is
bit-identical).  What must survive a crash is what those jobs leave on
disk, and the storage engine's own state:

* :mod:`repro.recovery.atomic` — every artifact (surrogate, dataset) is
  written temp-file + fsync + rename with a CRC32 footer, and every
  load rejects corruption with :class:`~repro.errors.PersistenceError`.
* :mod:`repro.recovery.crashsim` — kills an LSM engine at scheduled
  :class:`~repro.faults.plan.CrashPoint`\\ s and rebuilds it through
  commitlog replay + SSTable checksum scrub.

Recovery actions are observable on the EventBus:
``recovery.journal_replayed`` (an engine's commitlog was re-applied)
and ``recovery.corrupt_artifact`` (a file failed verification).
"""

from repro.recovery.atomic import (
    ARTIFACT_VERSION,
    read_artifact,
    verify_artifact,
    write_artifact,
    write_text_atomic,
)
from repro.recovery.crashsim import (
    CrashSimReport,
    generate_ops,
    run_ops,
    state_snapshot,
    states_equivalent,
)

__all__ = [
    "ARTIFACT_VERSION",
    "CrashSimReport",
    "generate_ops",
    "read_artifact",
    "run_ops",
    "state_snapshot",
    "states_equivalent",
    "verify_artifact",
    "write_artifact",
    "write_text_atomic",
]
