"""An example script whose suppression names no registered checker."""


def demo(xs):
    return sorted(xs)  # lint: ignore[BUD001]
