"""Suppressions left behind when a checker was deleted or renamed."""


def legacy(xs):
    return sorted(xs)  # lint: ignore[IFC003]


def mixed(xs):
    return sorted(xs)  # lint: ignore[DET001, NOPE99]
