"""Payloads that reach ``emit`` without (or in spite of) schema evidence."""


def build(raw):
    data = {}
    data["kind"] = len(raw)
    return data


def relay(sink, raw):
    payload = build(raw)
    sink.emit(payload)


def emit_window(sink, index):
    payload = {"event": "stats.window", "index": index}
    payload["bogus"] = 1
    sink.emit(payload)
