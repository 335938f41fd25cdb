"""Stand-in option contract so IFC002 has anchors in the fixture tree."""


class MatchOptions:
    limit: int = None
    time_limit: float = None
    on_embedding: object = None
    count_only: bool = False
    budget: object = None


class Matcher:
    supported_options = frozenset({"limit", "time_limit", "on_embedding"})
