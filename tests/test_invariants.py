"""Per-slot role and flow invariants of whole runs, each shown able to fail.

A slot's metrics keep the two role maps the allocator read (demands and
surpluses) and the net flows the battery pass read; the summary sink
takes the energy delivered to a station as the positive part of its flow.
That is exact only because no station is both a consumer and a source in
one slot, so these checks hold every stored slot of many small runs to it:

- the demands and surpluses maps share no key;
- a station in neither map has flow 0.0;
- a consumer's flow lies in [0, demand], within 2 ulps of the demand
  (gross = demand / fraction, then gross * fraction);
- a source's sent energy, -flow, lies in [0, surplus], within SENT_ULPS
  ulps of the surplus (each debit rounds once in the allocator and once in
  the flow);
- the flows add up to at most 0.0: transfers lose energy, never make it.

Each check is then shown to catch a planted fault on a copy of a stored
slot: a decision whose source is a consumer, an over-debit, and a dropped
debit.
"""

import dataclasses
import math

from hypothesis import given, settings

from ppgsim.engine import run
from test_streaming import TRADING, small_configs
from test_transfer import contended_config

SENT_ULPS = 4


def slot_violations(m) -> list[tuple[str, int]]:
    """(check, station) of each invariant the slot breaks; station -1 for the balance."""
    demands, surpluses, flows = m.demands, m.surpluses, m.flow_J
    found = [("both roles", i) for i in sorted(demands.keys() & surpluses.keys())]
    for i, flow in enumerate(flows):
        if i in demands:
            demand = demands[i]
            if not 0.0 <= flow <= demand + 2 * math.ulp(demand):
                found.append(("consumer", i))
        elif i in surpluses:
            surplus = surpluses[i]
            if not 0.0 <= -flow <= surplus + SENT_ULPS * math.ulp(surplus):
                found.append(("source", i))
        elif flow != 0.0:
            found.append(("neutral", i))
    if not math.fsum(flows) <= 0.0:
        found.append(("balance", -1))
    return found


def run_violations(result) -> list[tuple[int, str, int]]:
    return [(m.slot, *v) for m in result.slots for v in slot_violations(m)]


def test_small_trading_configs():
    trades = {}

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(config=small_configs(trading=True))
    def check(config):
        result = run(config)
        assert run_violations(result) == []
        trades[config] = bool(result.jobs)

    check()
    # a draw that never trades checks only the roles and zeros
    assert 2 * sum(trades.values()) >= len(trades), (sum(trades.values()), len(trades))


def test_contended_variant(reference_config):
    result = run(contended_config(reference_config))
    assert any(job.overrun for job in (job for _, job in result.jobs))
    assert run_violations(result) == []


def busy_slot():
    """A stored slot of the pinned trading run with a neutral station, and the jobs it executed."""
    result = run(TRADING)
    slot = next(m for m in result.slots if any(m.flow_J) and len(m.demands) + len(m.surpluses) < len(m.flow_J))
    jobs = [job for t, job in result.jobs if t == slot.slot]
    assert slot_violations(slot) == []
    return slot, jobs


def with_flows(m, change):
    flows = list(m.flow_J)
    change(flows)
    return dataclasses.replace(m, flow_J=flows)


class TestPlantedFaultsAreCaught:
    def test_decision_whose_source_is_a_consumer(self):
        m, jobs = busy_slot()
        d = jobs[0].decision

        def debit_the_consumer(flows):
            flows[d.source_id] += d.gross_J
            flows[d.consumer_id] -= d.gross_J

        assert ("consumer", d.consumer_id) in slot_violations(with_flows(m, debit_the_consumer))
        # the same fault seen in the role maps: the consumer listed as a source too
        both = dataclasses.replace(m, surpluses={**m.surpluses, d.consumer_id: d.gross_J})
        assert ("both roles", d.consumer_id) in slot_violations(both)

    def test_over_debit(self):
        m, jobs = busy_slot()
        source = jobs[0].decision.source_id

        def debit_past_the_surplus(flows):
            flows[source] = -m.surpluses[source] * (1.0 + 1e-9)

        assert slot_violations(with_flows(m, debit_past_the_surplus)) == [("source", source)]

    def test_dropped_debit(self):
        m, jobs = busy_slot()
        d = max(jobs, key=lambda job: job.decision.gross_J).decision

        def keep_what_was_sent(flows):
            flows[d.source_id] += d.gross_J

        assert ("balance", -1) in slot_violations(with_flows(m, keep_what_was_sent))

    def test_flow_on_a_neutral_station(self):
        m, _ = busy_slot()
        neutral = next(i for i in range(len(m.flow_J)) if i not in m.demands and i not in m.surpluses)

        def deliver_to_neutral(flows):
            flows[neutral] = 1.0

        assert ("neutral", neutral) in slot_violations(with_flows(m, deliver_to_neutral))
