"""Minimal counter/phase catalogue anchor for the lint fixtures."""

COUNTERS = ("prune_demo", "resumes")
VERTEX_COUNTERS = ("entered",)
PHASES = ("search",)
