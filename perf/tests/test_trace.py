from __future__ import annotations

import repro.core.matcher
from repro.service.session import DataGraphSession

from perf.trace import SITES, Recorder, Span, self_times, totals_within


def _span(name, start, end, parent):
    return Span(name, float(start), float(end), parent, None)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0, 10, -1),
        _span("b", 1, 4, 0),
        _span("d", 2, 3, 1),
        _span("c", 5, 7, 0),
        _span("e", 11, 12, -1),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]


def test_totals_within_sums_descendants_per_enclosing_span():
    spans = [
        _span("apply", 0, 10, -1),
        _span("mid", 1, 8, 0),
        _span("leaf", 2, 4, 1),
        _span("leaf", 5, 6, 0),
        _span("apply", 20, 30, -1),
        _span("leaf", 40, 41, -1),  # outside any apply
    ]
    assert totals_within(spans, "leaf", "apply") == [3.0, 0.0]


def test_recorder_nests_spans_and_tags_requests():
    recorder = Recorder()

    def inner():
        return 1

    wrapped_inner = recorder.wrap("inner", inner)

    def outer():
        return wrapped_inner() + 1

    recorder.request = 4
    assert recorder.wrap("outer", outer)() == 2
    names = [(s.name, s.parent, s.request) for s in recorder.spans]
    assert names == [("outer", -1, 4), ("inner", 0, 4)]
    assert recorder.fired() == {"inner", "outer"}


def test_installed_restores_every_site():
    originals = (repro.core.matcher.build_dag, DataGraphSession.apply)
    recorder = Recorder()
    with recorder.installed():
        assert repro.core.matcher.build_dag is not originals[0]
        assert DataGraphSession.apply is not originals[1]
    assert (repro.core.matcher.build_dag, DataGraphSession.apply) == originals
    assert len({site.span for site in SITES}) == len(SITES)
