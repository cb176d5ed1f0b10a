"""Oracle test: the bounded-scan lookahead ranking IS the full scan.

:class:`~repro.coe.cache.LookaheadPolicy` stops scanning the backlog once
every resident has been seen, and :meth:`~LookaheadPolicy.why` reads its
distances back out of the most recent ranking. The reference below is
the original form: scan the whole horizon into a first-use table, sort
with a per-element key, and scan again for every ``why``. Over random
backlogs, resident sets and horizons the two must agree exactly.
"""

import random

import pytest

from repro.coe.cache import LookaheadPolicy, LookaheadUnboundError
from repro.coe.expert import ExpertProfile

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
    policy.bind_backlog(lambda: iter(backlog))

    assert policy.eviction_order(resident) == reference_order(
        policy, resident, backlog
    )
    # Reused from the ranking just made (resident names) ...
    for name in resident:
        assert policy.why(name) == reference_why(policy, name, backlog)
    # ... and scanned fresh for names that ranking never saw.
    for name in NAMES:
        if name not in resident:
            assert policy.why(name) == reference_why(policy, name, backlog)


def test_reused_why_follows_the_latest_ranking():
    backlog = ["a", "b", "c"]
    policy = LookaheadPolicy()
    policy.bind_backlog(lambda: map(str, backlog))
    policy.eviction_order({"b": None, "c": None})
    assert policy.why("c") == "lookahead: next use 2 groups ahead"
    backlog[:] = ["c", "b"]
    policy.eviction_order({"c": None})
    assert policy.why("c") == "lookahead: next use 0 groups ahead"
    # "b" was not in the latest ranking, so it is scanned fresh.
    assert policy.why("b") == "lookahead: next use 1 groups ahead"


def test_scan_stops_once_every_resident_is_seen():
    pulled = []

    def backlog():
        for name in ["x", "a", "y", "b", "z"] * 50:
            pulled.append(name)
            yield name

    policy = LookaheadPolicy()
    policy.bind_backlog(backlog)
    assert policy.eviction_order({"a": None, "b": None}) == ["b", "a"]
    assert len(pulled) == 4
    pulled.clear()
    assert policy.why("z") == "lookahead: next use 4 groups ahead"
    assert len(pulled) == 5


def test_unbound_policy_still_raises():
    policy = LookaheadPolicy()
    with pytest.raises(LookaheadUnboundError):
        policy.eviction_order({"e00": PROFILES["e00"]})
    with pytest.raises(LookaheadUnboundError):
        policy.eviction_order({})
    assert policy.why("e00") == "lookahead: no backlog bound"
