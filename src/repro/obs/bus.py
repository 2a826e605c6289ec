"""Telemetry event bus with a null-sink fast path.

Instrumented objects (``Machine``, ``CacheSystem``, ``Worker`` via the
runtime, ``CharmStrategy`` via the runtime) hold an ``obs`` attribute that
is ``None`` by default, so the *detached* cost of every instrumentation
point is one attribute load plus one ``is None`` branch.  When telemetry
is attached but a topic has no subscribers, :meth:`EventBus.emit` is one
dict lookup and a falsy check — the "null sink".

Events are plain keyword dicts.  Every emit site sits at *batch* or
*decision* granularity (one event per serviced access batch, per cache
bulk operation, per policy evaluation, per steal/migration), never inside
per-block hot loops, so even a fully subscribed bus stays cheap relative
to the work it annotates.

The bus is observation-only by contract: subscribers receive references
to already-updated state and must not mutate simulator state.  The
bit-identity property test (tests/test_obs_equivalence.py) enforces the
contract end to end.
"""

from typing import Callable, Dict, List

Subscriber = Callable[[str, dict], None]


class EventBus:
    """Topic -> subscriber fan-out; no-op when a topic has no subscribers."""

    __slots__ = ("subs", "counts")

    def __init__(self) -> None:
        self.subs: Dict[str, List[Subscriber]] = {}
        # Per-topic emit tallies.  Counting happens only when the topic has
        # at least one subscriber, so the null sink stays count-free too.
        self.counts: Dict[str, int] = {}

    def subscribe(self, topic: str, fn: Subscriber) -> None:
        self.subs.setdefault(topic, []).append(fn)

    def emit(self, topic: str, fields: dict) -> None:
        subs = self.subs.get(topic)
        if not subs:
            return
        counts = self.counts
        counts[topic] = counts.get(topic, 0) + 1
        for fn in subs:
            fn(topic, fields)

    def topics(self) -> List[str]:
        return sorted(self.subs)
