"""Minimal event schema anchor for the lint fixtures."""

EVENT_SCHEMAS = {
    "ping": ({"x": int}, {"y": int}),
    "stats.window": ({"index": int}, {"resumes": int}),
    "explain.report": ({"algorithm": str}, {"fs_cuts": int}),
}
