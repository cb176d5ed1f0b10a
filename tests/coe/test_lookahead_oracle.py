"""Oracle test: the next-use-index lookahead ranking IS the full scan.

:class:`~repro.coe.cache.LookaheadPolicy` ranks residents from a
next-use index: each queued expert's first position at or after the
queue's head (:meth:`~repro.coe.columnar.GroupColumns.next_use`, or
:func:`~repro.coe.cache.first_uses` of a plain name list). The reference
below is the original form: scan the whole horizon of the backlog into
a first-use table, sort with a per-element key, and scan again for
every ``why``. Over random backlogs, resident sets and horizons, and
over a real node queue through admission, appends, head moves and
removals, the two must agree exactly.
"""

import random

import pytest

from repro.coe.cache import LookaheadPolicy, LookaheadUnboundError, first_uses
from repro.coe.columnar import GroupColumns, admit_backlog, group_backlog
from repro.coe.engine import EngineRequest, ServingEngine
from repro.coe.expert import ExpertProfile, build_samba_coe_library
from repro.coe.scheduling import FifoScheduler, RequestGroup
from repro.systems.platforms import sn40l_platform

NAMES = [f"e{i:02d}" for i in range(30)]
PROFILES = {name: ExpertProfile(name, "code") for name in NAMES}


def reference_distances(backlog, horizon):
    distances = {}
    for index, name in enumerate(backlog):
        if index >= horizon:
            break
        if name not in distances:
            distances[name] = index
    return distances


def reference_order(policy, resident, backlog):
    distances = reference_distances(backlog, policy.horizon)
    beyond = policy.horizon + 1
    return sorted(
        resident,
        key=lambda n: (-distances.get(n, beyond), policy._recency(n), n),
    )


def reference_why(policy, name, backlog):
    distance = reference_distances(backlog, policy.horizon).get(name)
    if distance is None:
        return f"lookahead: unused within horizon {policy.horizon}"
    return f"lookahead: next use {distance} groups ahead"


def _random_case(rng):
    backlog = [rng.choice(NAMES) for _ in range(rng.randrange(0, 400))]
    horizon = rng.choice(
        (1, max(1, len(backlog) // 2), rng.randrange(1, 300), 256)
    )
    policy = LookaheadPolicy(horizon=horizon)
    for _ in range(rng.randrange(0, 60)):
        policy.on_access(PROFILES[rng.choice(NAMES)], hit=rng.random() < 0.5)
    resident = {
        name: PROFILES[name]
        for name in rng.sample(NAMES, rng.randrange(0, 21))
    }
    return policy, resident, backlog


@pytest.mark.parametrize("seed", range(40))
def test_bounded_ranking_and_reused_why_equal_full_scan(seed):
    rng = random.Random(seed)
    policy, resident, backlog = _random_case(rng)
    policy.bind_backlog(lambda: first_uses(backlog))

    assert policy.eviction_order(resident) == reference_order(
        policy, resident, backlog
    )
    # Resident names and names the ranking never saw alike.
    for name in NAMES:
        assert policy.why(name) == reference_why(policy, name, backlog)


def test_reused_why_follows_the_latest_ranking():
    backlog = ["a", "b", "c"]
    policy = LookaheadPolicy()
    policy.bind_backlog(lambda: first_uses(backlog))
    policy.eviction_order({"b": None, "c": None})
    assert policy.why("c") == "lookahead: next use 2 groups ahead"
    backlog[:] = ["c", "b"]
    policy.eviction_order({"c": None})
    assert policy.why("c") == "lookahead: next use 0 groups ahead"
    assert policy.why("b") == "lookahead: next use 1 groups ahead"


# ----------------------------------------------------------------------
# A real node queue: the index kept through every edit
# ----------------------------------------------------------------------

LIBRARY = build_samba_coe_library(12)
EXPERTS = list(LIBRARY.experts)


def _group(rng, first_id):
    expert = rng.choice(EXPERTS)
    return RequestGroup(expert, tuple(
        EngineRequest(request_id, expert, output_tokens=rng.choice((4, 20)),
                      arrival_s=rng.uniform(0.0, 0.5))
        for request_id in range(first_id, first_id + rng.randint(1, 3))
    ))


def _queue(rng, admitted):
    """A queue filled by array admission, or appended group by group."""
    groups = [_group(rng, 10 * k) for k in range(rng.randrange(0, 300))]
    if not admitted or not groups:
        queue = GroupColumns.empty()
        for group in groups:
            queue.extend((group,), ((0.1, 0.2, 0.3),))
        return queue
    engine = ServingEngine(sn40l_platform(), LIBRARY, policy="fifo")
    admit_backlog([engine], group_backlog(
        [r for g in groups for r in g.requests], FifoScheduler(), "fifo", 1,
        3))
    return engine.state.queue


def _edit(rng, queue, next_id):
    """One random edit of ``queue``: appends, a head move, or a removal
    of random queued positions (one, several, or all of them)."""
    op = rng.choice(["append", "append", "head", "remove"])
    if op == "append":
        for _ in range(rng.randint(1, 5)):
            queue.extend((_group(rng, next_id),), ((0.1, 0.2, 0.3),))
            next_id += 10
    elif op == "head":
        queue.head += rng.randint(0, min(len(queue), 40))
    elif len(queue):
        queued = range(queue.head, len(queue.names))
        count = rng.choice((1, rng.randint(1, len(queue)), len(queue)))
        positions = rng.sample(queued, count)
        if rng.random() < 0.5:
            positions.sort(reverse=True)  # as steal_many passes them
        queue.remove(positions)
    return next_id


@pytest.mark.parametrize("admitted", [False, True],
                         ids=["appended", "admitted"])
@pytest.mark.parametrize("seed", range(12))
def test_queue_index_ranking_equals_full_scan(seed, admitted):
    rng = random.Random(f"lookahead-columns:{seed}:{admitted}")
    queue = _queue(rng, admitted)
    names = [e.name for e in EXPERTS]
    policies = [LookaheadPolicy(horizon=h) for h in (1, 16, 256)]
    for policy in policies:
        policy.bind_backlog(queue.next_use)
    next_id = 10_000
    for step in range(60):
        # Some steps edit twice or more before the next read, so the
        # index catches up on several edits at once.
        for _ in range(rng.choice((1, 1, 2, 4))):
            next_id = _edit(rng, queue, next_id)
        backlog = list(queue.unbegun())
        resident = {n: None for n in rng.sample(names, rng.randint(0, 12))}
        for policy in policies:
            for _ in range(rng.randrange(0, 4)):
                policy.on_access(rng.choice(EXPERTS), hit=True)
            assert policy.eviction_order(resident) == reference_order(
                policy, resident, backlog), (step, policy.horizon)
            for name in names:
                assert policy.why(name) == reference_why(
                    policy, name, backlog), (step, policy.horizon, name)


class _Window(dict):
    """A first-use map that counts lookups and refuses iteration."""

    lookups = 0

    def get(self, key, default=None):
        _Window.lookups += 1
        return super().get(key, default)

    def __iter__(self):
        raise AssertionError("a ranking iterated the backlog")


class _Names(list):
    """A queue's name column that counts the entries read from it."""

    reads = 0

    def __getitem__(self, index):
        _Names.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        raise AssertionError("the index re-read the whole queue")


def test_ranking_never_iterates_the_backlog():
    # A ranking looks each resident up once; a why looks up one name.
    window, _ = first_uses(["x", "a", "y", "b", "z"] * 50)
    window = _Window(window)
    policy = LookaheadPolicy()
    policy.bind_backlog(lambda: (window, 0))
    _Window.lookups = 0
    assert policy.eviction_order({"a": None, "b": None, "q": None}) == [
        "q", "b", "a"]
    assert _Window.lookups == 3
    assert policy.why("z") == "lookahead: next use 4 groups ahead"
    assert _Window.lookups == 4

    # A node queue reads each name once to build its index, then only
    # the groups the head passes: one read per group begun.
    rng = random.Random(7)
    queue = GroupColumns.empty()
    for k in range(100):
        queue.extend((_group(rng, 10 * k),), ((0.1, 0.2, 0.3),))
    queue.names = _Names(queue.names)
    policy = LookaheadPolicy()
    policy.bind_backlog(queue.next_use)
    resident = {e.name: None for e in EXPERTS}
    _Names.reads = 0
    policy.eviction_order(resident)
    assert _Names.reads == len(queue)
    for moved in (0, 1, 5, 17):
        _Names.reads = 0
        queue.head += moved
        policy.eviction_order(resident)
        policy.why(EXPERTS[0].name)
        assert _Names.reads == moved


def test_unbound_policy_still_raises():
    policy = LookaheadPolicy()
    with pytest.raises(LookaheadUnboundError):
        policy.eviction_order({"e00": PROFILES["e00"]})
    with pytest.raises(LookaheadUnboundError):
        policy.eviction_order({})
    assert policy.why("e00") == "lookahead: no backlog bound"
