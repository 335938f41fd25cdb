from __future__ import annotations

import pytest

from perf.stats import nearest_rank
from perf.spread import spread_rows


def test_nearest_rank_edge_cases():
    assert nearest_rank([], 90) == 0.0
    assert nearest_rank([7.0], 1) == nearest_rank([7.0], 100) == 7.0
    values = list(range(1, 11))
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(values, 91) == 10
    assert nearest_rank(values, 100) == 10
    assert nearest_rank(values, 10) == 1
    # 0.28 * 25 is 7.000000000000001 in floating point; the rank is 7.
    assert nearest_rank(list(range(1, 26)), 28) == 7
    assert nearest_rank([3, 1, 2], 50) == 2  # unsorted input
    assert nearest_rank([1, 2, 3, 4], 50) == 2  # an observed value, not 2.5


@pytest.mark.parametrize("percent", [0, -5, 101])
def test_nearest_rank_rejects_out_of_range_percent(percent):
    with pytest.raises(ValueError):
        nearest_rank([1.0], percent)


def test_spread_rows():
    runs = [{"metrics": {"t": {"value": v}}} for v in (10.0, 11.0, 12.0, 13.0)]
    (row,) = spread_rows(runs, [{"name": "t", "better": "lower", "bound": 0.1}])
    assert row["median"] == 11.5
    assert row["range"] == pytest.approx(3 / 11.5)
    # first half median 10.5, second 12.5: lower is better, so +19% is worse
    assert row["halves"] == pytest.approx(2 / 10.5)
    assert not row["same"]
