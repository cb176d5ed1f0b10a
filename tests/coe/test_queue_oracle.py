"""A node's queue against a deque oracle.

Each node keeps one queue (:attr:`repro.coe.node.NodeState.queue`, a
:class:`repro.coe.columnar.GroupColumns` with a head cursor) that
submits, event-path begins, steals, columnar drains and a crashed
node's ``drain()`` all edit in place. Random operation sequences run on
one engine and on a plain ``deque[RequestGroup]`` oracle, from an
empty queue or from one array admission filled; after every
operation the queued groups, the steal index, the backlog estimate
(bitwise) and the lookahead window (the queue's next-use index) must
be the oracle's, a submitted group must leave the queue as the object
it entered as, and every completion record must carry its own
request's columns.
"""

import random
from collections import Counter, deque

import pytest

from repro.coe import engine as engine_module
from repro.coe.cache import first_uses
from repro.coe.columnar import admit_backlog, group_backlog
from repro.coe.engine import EngineRequest, ServingEngine, _drain_to_horizon
from repro.coe.expert import build_samba_coe_library
from repro.coe.scheduling import (
    FifoScheduler, RequestGroup, coalesce_groups,
)
from repro.sim.engine import Simulator
from repro.systems.platforms import sn40l_platform
from tests.coe.grouping import node_order


def _check(engine, oracle):
    """Every view of the engine's queue is the oracle's, and the phase
    rows it keeps through edits (``flat``) are a fresh ``price()``
    rebuild's, bit for bit."""
    assert engine._queue == list(oracle)
    queue = engine.state.queue
    if queue.flat is not None:
        kept, live = queue.flat, slice(0, len(queue.names))
        assert len(kept) == len(queue.rows)
        queue.flat = None
        queue.price(queue._factor)
        assert queue.flat[live].tobytes() == kept[live].tobytes()
        queue.flat = kept
    assert engine.queue_depth == len(oracle)
    fresh = Counter(group.expert.name for group in oracle)
    if engine._queued is not None:
        assert engine._queued == fresh
    now = engine._sim.now
    busy = max(0.0, engine._busy_until_s - now) if engine.busy else 0.0
    want = busy + sum(engine._group_exec_time(group) for group in oracle)
    # The backlog sum prices the queue: from here on it keeps ``flat``.
    assert engine.estimated_backlog_s().hex() == want.hex()
    first, head = engine.server.runtime.policy._backlog()
    want, _ = first_uses(group.expert.name for group in oracle)
    assert {name: p - head for name, p in first.items()} == want


def _same(got, expected, submitted):
    """``got`` is ``expected``, group for group: equal, and the very
    object for a group that entered the queue through ``submit``."""
    assert list(got) == list(expected)
    assert all(g is e for g, e in zip(got, expected) if id(e) in submitted)


def _steal_oracle(oracle, busy, wanted, count):
    """The groups ``steal_many`` takes: latest-queued first, the head
    only while busy; removed from ``oracle``."""
    floor = 0 if busy else 1
    taken = [i for i in range(len(oracle) - 1, floor - 1, -1)
             if oracle[i].expert.name in wanted][:count]
    groups = [oracle[i] for i in taken]
    for i in taken:
        del oracle[i]
    return groups


def _requests(rng, expert, first_id):
    return [
        EngineRequest(
            request_id, expert, prompt_tokens=rng.choice((64, 256)),
            output_tokens=rng.choice((4, 20)),
            arrival_s=rng.uniform(0.0, 0.5),
        )
        for request_id in range(first_id, first_id + rng.randint(1, 3))
    ]


def _run_sequence(seed, monkeypatch, admitted):
    rng = random.Random(seed)
    library = build_samba_coe_library(6)
    experts = library.experts
    sim = Simulator()
    engine = ServingEngine(
        sn40l_platform(), library,
        policy=rng.choice(["fifo", "affinity", "overlap"]),
        cache_policy="lookahead", simulator=sim,
        max_batch=rng.randint(1, 4), window=rng.randint(1, 8),
    )
    oracle = deque()
    submitted = {}
    objects = set()  # ids of the submitted groups
    next_id = 0
    if admitted:
        backlog = []
        while len(backlog) < rng.randrange(1, 200):
            backlog += _requests(rng, rng.choice(experts), len(backlog))
        admit_backlog([engine], group_backlog(
            backlog, FifoScheduler(), engine.policy, engine.window,
            engine.max_batch))
        oracle.extend(coalesce_groups(
            node_order(backlog, engine.policy, engine.window),
            engine.max_batch,
        ))
        for group in oracle:
            submitted.update((r.request_id, (group, r))
                             for r in group.requests)
        next_id = len(backlog)
        engine._kick()  # the head's begin, as the reference path has it
        _check(engine, oracle)
    began = []
    real_begin = engine.state.begin

    def begin(group, next_expert, now):
        began.append(group)
        return real_begin(group, next_expert, now)

    engine.state.begin = begin
    stops = []
    real_drain = engine_module._columnar_drain

    def drain_spy(*args):
        stops.append(real_drain(*args))
        return stops[-1]

    monkeypatch.setattr(engine_module, "_columnar_drain", drain_spy)
    kinds = Counter()
    for _ in range(rng.randrange(20, 60)):
        op = rng.choice(["submit", "submit", "submit", "begin", "steal",
                         "drain", "factor", "index"])
        kinds[op] += 1
        if op == "submit":
            # One group, or several in one submit (a replication's move).
            groups = []
            for _ in range(rng.choice((1, 1, rng.randint(2, 6)))):
                expert = rng.choice(experts)
                requests = _requests(rng, expert, next_id)
                next_id += len(requests)
                groups.append(RequestGroup(expert, tuple(requests)))
                submitted.update((r.request_id, (groups[-1], r))
                                 for r in requests)
                objects.add(id(groups[-1]))
            engine.submit(*groups)
            oracle.extend(groups)
        elif op == "begin":
            # Run the events due next: a begin takes the head.
            if sim.peek_next_time() is not None:
                sim.run(until=sim.peek_next_time())
            _same(began, [oracle.popleft() for _ in began], objects)
        elif op == "steal":
            wanted = set(rng.sample([e.name for e in experts],
                                    rng.randint(1, 3)))
            count = rng.randint(1, 4)
            expected = _steal_oracle(oracle, engine.busy, wanted, count)
            if count == 1:
                got = engine.steal(wanted)
                assert got == (expected[0] if expected else None)
                _same([got] if expected else [], expected, objects)
            else:
                _same(engine.steal_many(wanted, count), expected, objects)
        elif op == "drain":
            # A columnar drain stopped at a random horizon: the next
            # event of another source bounds it.
            sim.schedule_at(sim.now + rng.uniform(0.0, 0.3), lambda: None)
            _drain_to_horizon([engine])
            for stop in stops:
                for _ in range(stop.begun):
                    oracle.popleft()
            stops.clear()
        elif op == "factor":
            engine.slow_factor = rng.choice((1.0, 1.5, 3.0))
        else:
            engine.queued_expert_counts()  # builds the steal index
        began.clear()
        _check(engine, oracle)
    engine.halt()
    in_flight = [engine._current[0]] if engine._current is not None else []
    _same(engine.drain(), in_flight + list(oracle), objects)
    oracle.clear()
    _check(engine, oracle)
    log = engine.completed
    for record in log:
        group, request = submitted.pop(record.request_id)
        assert (record.expert, record.batch, record.arrival_s,
                record.output_tokens) == (
            group.expert.name, group.batch, request.arrival_s,
            request.output_tokens)
    # Drained runs read arrivals and tokens from the queue's columns.
    assert log.latency_values() == [record.latency_s for record in log]
    assert log.token_total() == sum(record.output_tokens for record in log)
    return kinds


@pytest.mark.parametrize("admitted", [False, True],
                         ids=["empty", "admitted"])
@pytest.mark.parametrize("seed", range(30))
def test_queue_edits_match_a_deque_oracle(monkeypatch, seed, admitted):
    kinds = _run_sequence(seed, monkeypatch, admitted)
    assert kinds["submit"] > 0
