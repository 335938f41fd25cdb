"""Event sinks: where structured observability events go.

Every event is one JSON-serializable dict with at least an ``"event"``
type tag and a ``"ts"`` wall-clock timestamp (added by the sink when the
producer did not set one).  Sinks are deliberately tiny: the hot paths
never talk to a sink directly — the :class:`~repro.obs.MetricsRegistry`
batches counters and only phase boundaries and heartbeats reach
``emit``.

The JSONL format (one event object per line) is documented in
``docs/observability.md`` and validated by
``scripts/check_metrics_schema.py``.
"""

from __future__ import annotations

import json
import time
from typing import IO, Optional


class EventSink:
    """Base sink: drops everything.  Subclasses override :meth:`emit`.

    A ``None`` sink and an ``EventSink()`` behave identically from the
    producer side; producers still guard with ``if sink is not None`` so
    the disabled path performs no calls at all.
    """

    def emit(self, event: dict) -> None:  # pragma: no cover - trivial
        pass

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _stamp(event: dict) -> dict:
    if "ts" not in event:
        event["ts"] = round(time.time(), 6)
    return event


class MemorySink(EventSink):
    """Collects events in a list — tests and in-process inspection."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(_stamp(dict(event)))

    def of_type(self, event_type: str) -> list[dict]:
        return [e for e in self.events if e.get("event") == event_type]


class JsonlSink(EventSink):
    """Appends one JSON object per line to a file (or open stream).

    Writes are line-buffered-ish (flushed per event) so a crashed or
    killed process leaves a readable prefix; partial trailing lines are
    tolerated by the schema validator.
    """

    def __init__(self, path_or_stream) -> None:
        self._owns_stream = isinstance(path_or_stream, (str, bytes)) or hasattr(
            path_or_stream, "__fspath__"
        )
        if self._owns_stream:
            self._stream: Optional[IO[str]] = open(path_or_stream, "a", encoding="utf-8")
        else:
            self._stream = path_or_stream

    def emit(self, event: dict) -> None:
        stream = self._stream
        if stream is None:
            return
        stream.write(json.dumps(_stamp(dict(event)), separators=(",", ":")) + "\n")
        stream.flush()

    def close(self) -> None:
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None
