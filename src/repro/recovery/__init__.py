"""Crash-safe artifacts.

The offline jobs themselves are not resumable: the paper's whole
collection campaign runs in seconds, so a killed ``collect`` or
``train`` is simply rerun (every stream is seeded, so the rerun is
bit-identical).  What must survive a crash is what those jobs leave on
disk:

* :mod:`repro.recovery.atomic` — every artifact (surrogate, dataset) is
  written temp-file + fsync + rename with a CRC32 footer, and every
  load rejects corruption with :class:`~repro.errors.PersistenceError`.

A rejected file is observable on the EventBus as
``recovery.corrupt_artifact``.
"""

from repro.recovery.atomic import (
    ARTIFACT_VERSION,
    read_artifact,
    verify_artifact,
    write_artifact,
    write_text_atomic,
)

__all__ = [
    "ARTIFACT_VERSION",
    "read_artifact",
    "verify_artifact",
    "write_artifact",
    "write_text_atomic",
]
