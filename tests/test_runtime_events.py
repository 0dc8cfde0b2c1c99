"""EventBus: topic matching, unsubscribe, scoping, legacy callback adapter."""

import pytest

from repro.runtime import EventBus, ScopedEventBus


class TestEventBus:
    def test_publish_returns_event(self):
        bus = EventBus()
        event = bus.publish("collect.sample", "sample 1/10", done=1, total=10)
        assert event.topic == "collect.sample"
        assert event.payload == {"done": 1, "total": 10}

    def test_subscribe_all(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish("a", "x")
        bus.publish("b.c", "y")
        assert [e.topic for e in seen] == ["a", "b.c"]

    def test_topic_prefix_matching(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, topic="collect")
        bus.publish("collect", "root")
        bus.publish("collect.sample", "child")
        bus.publish("collection", "not a subtopic")
        bus.publish("anova.parameter", "other")
        assert [e.message for e in seen] == ["root", "child"]

    def test_exact_topic(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, topic="pipeline.stage")
        bus.publish("pipeline.stage", "collecting")
        bus.publish("pipeline", "ignored")
        assert len(seen) == 1

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.publish("a")
        unsubscribe()
        unsubscribe()  # idempotent
        bus.publish("b")
        assert len(seen) == 1

    def test_published_count(self):
        bus = EventBus()
        bus.publish("a")
        bus.publish("b")
        assert bus.published_count == 2

    def test_str_rendering(self):
        bus = EventBus()
        assert str(bus.publish("t", "msg")) == "[t] msg"
        assert str(bus.publish("t")) == "[t]"


class TestScopedEventBus:
    def test_publish_is_prefixed(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        scoped = bus.scoped("tenant.3")
        event = scoped.publish("controller.retry", "again", attempt=1)
        assert event.topic == "tenant.3.controller.retry"
        assert [e.topic for e in seen] == ["tenant.3.controller.retry"]
        assert event.payload == {"attempt": 1}

    def test_empty_topic_publishes_the_prefix(self):
        bus = EventBus()
        assert bus.scoped("tenant.a").publish("").topic == "tenant.a"

    def test_subscribe_sees_only_own_namespace(self):
        bus = EventBus()
        seen = []
        bus.scoped("tenant.a").subscribe(seen.append, topic="controller")
        bus.publish("tenant.a.controller.rollback")
        bus.publish("tenant.b.controller.rollback")
        bus.publish("tenant.a.fault.crash")
        assert [e.topic for e in seen] == ["tenant.a.controller.rollback"]

    def test_subscribe_all_scopes_to_prefix(self):
        bus = EventBus()
        seen = []
        bus.scoped("tenant.a").subscribe(seen.append)
        bus.publish("tenant.a.x")
        bus.publish("tenant.b.x")
        assert [e.topic for e in seen] == ["tenant.a.x"]

    def test_nested_scopes_flatten(self):
        bus = EventBus()
        scoped = bus.scoped("tenant.a").scoped("canary")
        assert isinstance(scoped, ScopedEventBus)
        assert scoped.parent is bus
        assert scoped.publish("check").topic == "tenant.a.canary.check"

    def test_published_count_is_shared(self):
        bus = EventBus()
        scoped = bus.scoped("t")
        bus.publish("a")
        scoped.publish("b")
        assert scoped.published_count == bus.published_count == 2

    def test_unsubscribe_roundtrip(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.scoped("t").subscribe(seen.append)
        bus.publish("t.x")
        unsubscribe()
        bus.publish("t.y")
        assert len(seen) == 1

    @pytest.mark.parametrize("bad", ["", ".", "a..b", ".a", "a."])
    def test_invalid_prefix_rejected(self, bad):
        with pytest.raises(ValueError):
            EventBus().scoped(bad)
