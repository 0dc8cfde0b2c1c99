"""Atomic, checksummed artifact files.

Every artifact this package writes (surrogate weights, collection
datasets) used to be a bare ``open(path, "w")`` —
a crash mid-write left a truncated or torn file that later loads parsed
half-way and failed with raw ``JSONDecodeError``/``KeyError``.  This
module is the single write/read path for those artifacts:

* **Atomic replace** — content is written to a temp file in the target
  directory, fsynced, then ``os.replace``d over the destination (and the
  directory entry fsynced), so readers only ever observe the old file or
  the complete new one.
* **Self-describing envelope** — artifacts are a single JSON document
  carrying a ``format_version`` header, an ``artifact_kind`` tag, and a
  ``crc32`` footer computed over the canonical serialization of
  everything else.  The envelope keys live at the top level next to the
  payload's own keys, so artifacts stay plain, human-inspectable JSON.
* **Checked reads** — :func:`read_artifact` rejects missing, truncated,
  bit-flipped, or mis-typed files with
  :class:`~repro.errors.PersistenceError` instead of leaking parser
  internals.  Legacy (pre-checksum) files are accepted when
  ``allow_legacy`` is set so artifacts written by older builds keep
  loading; corruption in those cannot be detected beyond JSON validity.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import zlib
from typing import Dict, Optional, Union

from repro.errors import PersistenceError

PathLike = Union[str, pathlib.Path]

#: On-disk envelope version for all artifact files.
ARTIFACT_VERSION = 1

#: Envelope keys owned by this layer (payloads may not redefine them).
_ENVELOPE_KEYS = ("format_version", "artifact_kind", "crc32")


def canonical_json(obj) -> str:
    """Deterministic serialization used for checksums (not for storage).

    ``default=float`` matches the storage serialization, so a checksum
    computed before writing equals one computed over the parsed
    document after reading.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=float)


def body_crc32(body: Dict) -> int:
    """CRC32 of an artifact body (everything except the ``crc32`` footer)."""
    return zlib.crc32(canonical_json(body).encode("utf-8")) & 0xFFFFFFFF


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def write_text_atomic(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via temp file + fsync + rename."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def write_artifact(
    path: PathLike,
    payload: Dict,
    kind: str,
    version: int = ARTIFACT_VERSION,
    indent: Optional[int] = None,
) -> None:
    """Atomically write ``payload`` as a checksummed ``kind`` artifact.

    The payload's keys land at the top level of the JSON document, after
    the ``format_version``/``artifact_kind`` header; the ``crc32`` footer
    is appended last.  A payload carrying its own ``format_version``
    must agree with ``version`` (the surrogate format predates the
    envelope and keeps its field).
    """
    body = {"format_version": int(version), "artifact_kind": kind}
    for key in _ENVELOPE_KEYS:
        if key in payload and key != "format_version":
            raise PersistenceError(f"payload may not define envelope key {key!r}")
    if "format_version" in payload and payload["format_version"] != version:
        raise PersistenceError(
            f"payload format_version {payload['format_version']!r} disagrees "
            f"with artifact version {version!r}"
        )
    body.update(payload)
    document = dict(body)
    document["crc32"] = body_crc32(body)
    write_text_atomic(path, json.dumps(document, indent=indent, default=float))


def read_artifact(
    path: PathLike,
    kind: Optional[str] = None,
    allow_legacy: bool = False,
    events=None,
) -> Dict:
    """Read and verify an artifact written by :func:`write_artifact`.

    Returns the body (envelope header included, ``crc32`` footer
    stripped).  Raises :class:`PersistenceError` if the file is missing,
    not valid JSON (truncated/torn), fails its checksum (bit-flipped),
    or carries the wrong ``artifact_kind``.  With ``allow_legacy``, a
    well-formed JSON object without a ``crc32`` footer is returned
    unverified (pre-envelope files).  ``events`` (an EventBus) receives
    a ``recovery.corrupt_artifact`` event before any corruption raise.
    """
    path = pathlib.Path(path)

    def corrupt(reason: str) -> PersistenceError:
        if events is not None:
            events.publish(
                "recovery.corrupt_artifact",
                f"corrupt artifact {path}: {reason}",
                path=str(path),
                reason=reason,
            )
        return PersistenceError(f"corrupt artifact {path}: {reason}")

    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise PersistenceError(f"missing artifact {path}: file not found") from exc
    except OSError as exc:
        raise PersistenceError(f"cannot read artifact {path}: {exc.strerror or exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise corrupt(f"invalid JSON (truncated write?): {exc}") from exc
    if not isinstance(document, dict):
        raise corrupt("artifact root is not a JSON object")

    if "crc32" not in document:
        if allow_legacy:
            return document
        raise corrupt("missing crc32 footer (not an artifact file?)")
    stored_crc = document.pop("crc32")
    if not isinstance(stored_crc, int):
        raise corrupt("crc32 footer is not an integer")
    actual_crc = body_crc32(document)
    if actual_crc != stored_crc:
        raise corrupt(
            f"checksum mismatch (stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x})"
        )
    if kind is not None and document.get("artifact_kind") != kind:
        raise corrupt(
            f"artifact kind {document.get('artifact_kind')!r}, expected {kind!r}"
        )
    return document


def verify_artifact(path: PathLike) -> Dict:
    """Checksum-verify an artifact and summarize it (CLI ``verify-artifact``).

    Returns ``{"path", "artifact_kind", "format_version", "keys"}``;
    raises :class:`PersistenceError` exactly as :func:`read_artifact`.
    """
    body = read_artifact(path)
    return {
        "path": str(path),
        "artifact_kind": body.get("artifact_kind"),
        "format_version": body.get("format_version"),
        "keys": sorted(k for k in body if k not in _ENVELOPE_KEYS),
    }
