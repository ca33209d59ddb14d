"""Per-station vectors derived from a slot's metrics, for tests that read them.

SlotMetrics keeps the role maps the allocator read and the net flows; a
test that wants a station-indexed demand or delivered vector builds it
here, from those, as the summary sink derives its totals.
"""


def demand_vector(metrics) -> list[float]:
    """Each station's demand, 0.0 for a station that is not a consumer."""
    demands = metrics.demands
    return [demands.get(i, 0.0) for i in range(len(metrics.flow_J))]


def delivered_vector(metrics) -> list[float]:
    """The energy delivered to each station: the positive part of its net flow."""
    return [f if f > 0.0 else 0.0 for f in metrics.flow_J]
