"""Fork-boundary usage done right: only plain data crosses the pickle
boundary, and workers report results over the pipe instead of mutating
parent globals."""

import multiprocessing


def worker(conn, n):
    total = sum(range(n))
    conn.send(("ok", total))
    conn.close()


def launch(n):
    parent, child = multiprocessing.Pipe()
    proc = multiprocessing.Process(target=worker, args=(child, n))
    proc.start()
    status, total = parent.recv()
    proc.join()
    return status, total
