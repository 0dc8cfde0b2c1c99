"""Structured progress events.

The :class:`EventBus` is the one progress channel: producers publish
:class:`Event` records on dotted topics (``"collect.sample"``,
``"anova.parameter"``, ``"train.member"``, ``"pipeline.stage"``) and
consumers subscribe to exact topics or topic prefixes, so anything
downstream can filter or aggregate without agreeing on a string format.

A checksummed artifact that fails verification publishes
``recovery.corrupt_artifact`` (see :mod:`repro.recovery`).

The bus is intentionally synchronous and in-process: it is a progress /
observability channel, not a task queue (that is the execution
backend's job, see :mod:`repro.runtime.backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Event", "EventBus", "ScopedEventBus"]


@dataclass(frozen=True)
class Event:
    """One structured progress record."""

    topic: str
    message: str = ""
    payload: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # human-readable fallback rendering
        return f"[{self.topic}] {self.message}" if self.message else f"[{self.topic}]"


class EventBus:
    """Synchronous pub/sub over dotted topics.

    A subscription to ``"collect"`` receives ``"collect"`` and every
    subtopic (``"collect.sample"``, ...); ``topic=None`` receives
    everything.  ``subscribe`` returns an unsubscribe callable.
    """

    def __init__(self):
        self._subscribers: List[Tuple[Optional[str], Callable[[Event], None]]] = []
        self.published_count = 0

    def subscribe(
        self, handler: Callable[[Event], None], topic: Optional[str] = None
    ) -> Callable[[], None]:
        entry = (topic, handler)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            if entry in self._subscribers:
                self._subscribers.remove(entry)

        return unsubscribe

    @staticmethod
    def _matches(subscription: Optional[str], topic: str) -> bool:
        if subscription is None or subscription == topic:
            return True
        return topic.startswith(subscription + ".")

    def publish(self, topic: str, message: str = "", **payload: Any) -> Event:
        event = Event(topic=topic, message=message, payload=payload)
        self.published_count += 1
        for subscription, handler in list(self._subscribers):
            if self._matches(subscription, topic):
                handler(event)
        return event

    def scoped(self, prefix: str) -> "ScopedEventBus":
        """A view of this bus that namespaces every topic under ``prefix``.

        ``bus.scoped("tenant.3").publish("controller.retry", ...)``
        publishes ``tenant.3.controller.retry`` on this bus, so existing
        publish sites (controller, fault injector, adapters) compose with
        per-tenant prefixes without being rewritten.  Subscriptions made
        through the scoped view are prefixed the same way; scopes nest
        (``bus.scoped("a").scoped("b")`` is the ``a.b`` scope).
        """
        return ScopedEventBus(self, prefix)


class RecordingBus(EventBus):
    """Journals every publish as ``(topic, message, payload)``, in order,
    so its events can be republished on another bus later."""

    def __init__(self):
        super().__init__()
        self.records: List[Tuple[str, str, dict]] = []

    def publish(self, topic: str, message: str = "", **payload: Any) -> Event:
        self.records.append((topic, message, payload))
        return super().publish(topic, message, **payload)


class ScopedEventBus:
    """Prefix-namespacing view over a parent :class:`EventBus`.

    Implements the same ``publish`` / ``subscribe`` / ``scoped`` surface,
    so any component that takes an ``events=`` bus can transparently be
    handed a tenant-scoped view.  All events land on the shared parent
    bus (there is exactly one delivery loop per run), just under dotted
    ``<prefix>.<topic>`` names.
    """

    def __init__(self, parent: EventBus, prefix: str):
        if not prefix or prefix != prefix.strip("."):
            raise ValueError(f"scope prefix must be a dotted name, got {prefix!r}")
        if any(not part for part in prefix.split(".")):
            raise ValueError(f"scope prefix has an empty segment: {prefix!r}")
        # Collapse nested scopes onto the root bus so delivery is always
        # a single hop regardless of scoping depth.
        if isinstance(parent, ScopedEventBus):
            prefix = f"{parent.prefix}.{prefix}"
            parent = parent.parent
        self.parent = parent
        self.prefix = prefix

    @property
    def published_count(self) -> int:
        return self.parent.published_count

    def publish(self, topic: str, message: str = "", **payload: Any) -> Event:
        full = f"{self.prefix}.{topic}" if topic else self.prefix
        return self.parent.publish(full, message, **payload)

    def subscribe(
        self, handler: Callable[[Event], None], topic: Optional[str] = None
    ) -> Callable[[], None]:
        full = self.prefix if topic is None else f"{self.prefix}.{topic}"
        return self.parent.subscribe(handler, topic=full)

    def scoped(self, prefix: str) -> "ScopedEventBus":
        return ScopedEventBus(self, prefix)

    def __repr__(self) -> str:
        return f"ScopedEventBus({self.prefix!r} on {self.parent!r})"
