"""Schema anchor with a dead entry (no emission site anywhere)."""

EVENT_SCHEMAS = {
    "ping": ({"x": int}, {"y": int}),
    "dead_event": ({"z": int}, {}),
    "stats.alert": ({"rule": int}, {}),
    "stats.window": ({"index": int}, {}),
}
