"""The steal path's per-event queries return exactly the fresh answers.

:meth:`ServingEngine.estimated_backlog_s` sums memoized exec times,
:meth:`ServingEngine.steal_many` moves several groups in one pass and
:attr:`RequestGroup.phase_key` is a cached property. Each is checked
here against the plain computation it replaces.
"""

from repro.coe.api import ServeConfig, build_server
from repro.coe.engine import EngineRequest, ServingEngine, zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.coe.scheduling import ExpertPredictor, Request, RequestGroup
from repro.sim.engine import Simulator
from repro.systems.platforms import sn40l_platform


def _oracle_backlog_s(engine: ServingEngine) -> float:
    now = engine._sim.now
    busy_rem = max(0.0, engine._busy_until_s - now) if engine._busy else 0.0
    return busy_rem + sum(engine._group_exec_time(g) for g in engine._queue)


def test_backlog_memo_matches_fresh_sum_across_slow_window():
    library = build_samba_coe_library(48)
    requests = zipf_request_stream(library, 3_000, seed=7)
    server = build_server(
        sn40l_platform, library,
        ServeConfig(num_nodes=4, faults=("slow:node1:2.0:4.0:3.0",)),
    )
    engines = [node.engine for node in server.nodes]
    factors = set()
    checks = 0

    def checked(hook):
        def on_group_done(engine, group):
            nonlocal checks
            for other in engines:
                assert other.estimated_backlog_s() == _oracle_backlog_s(other)
                if other is engines[1] and other.queue_depth:
                    factors.add(other.slow_factor)
                checks += 1
            hook(engine, group)
        return on_group_done

    for engine in engines:
        engine.on_group_done = checked(engine.on_group_done)
    report = server.serve(requests)
    assert report.steals > 0 and report.replications > 0
    assert checks > 1_000
    # The memo was filled before the window opened and queried inside it.
    assert factors == {1.0, 3.0}


class TestRequestGroup:
    def _requests(self, expert):
        return (
            EngineRequest(0, expert, prompt_tokens=128, output_tokens=20),
            EngineRequest(1, expert, prompt_tokens=256, output_tokens=10),
        )

    def test_phase_key_pads_to_longest_request(self):
        expert = build_samba_coe_library(2).experts[0]
        group = RequestGroup(expert, self._requests(expert))
        assert group.phase_key == (expert.name, 2, 256, 20)
        assert group.phase_key is group.phase_key

    def test_eq_hash_repr_ignore_the_cached_key(self):
        expert = build_samba_coe_library(2).experts[0]
        read = RequestGroup(expert, self._requests(expert))
        fresh = RequestGroup(expert, self._requests(expert))
        read.phase_key
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert repr(read) == (
            f"RequestGroup(expert={expert!r}, "
            f"requests={self._requests(expert)!r})"
        )

    def test_plain_request_groups_construct(self):
        expert = build_samba_coe_library(2).experts[0]
        group = RequestGroup(expert, (Request(0, expert), Request(1, expert)))
        assert group.batch == 2
        assert group == RequestGroup(expert, group.requests)


def _engine_with_queue(library, names, busy):
    engine = ServingEngine(sn40l_platform(), library, policy="affinity",
                           simulator=Simulator())
    by_name = {e.name: e for e in library.experts}
    for i, name in enumerate(names):
        expert = by_name[name]
        engine.submit(RequestGroup(expert, (EngineRequest(i, expert),)))
    engine._busy = busy
    return engine


def _ids(groups):
    return [g.requests[0].request_id for g in groups]


def test_steal_many_matches_repeated_steal():
    library = build_samba_coe_library(3)
    a, b, c = (e.name for e in library.experts)
    names = [a, b, a, c, a, b, a, a, c, a]
    for busy in (False, True):
        for count in range(1, 9):
            for target in (a, b, c):
                wanted = lambda e, t=target: e.name == t
                single = _engine_with_queue(library, names, busy)
                repeated = _engine_with_queue(library, names, busy)
                moved = single.steal_many(wanted, count)
                stolen = []
                for _ in range(count):
                    group = repeated.steal(wanted)
                    if group is None:
                        break
                    stolen.append(group)
                assert _ids(moved) == _ids(stolen)
                assert _ids(single._queue) == _ids(repeated._queue)


def test_has_queued_sees_the_whole_queue():
    library = build_samba_coe_library(3)
    a, b, c = (e.name for e in library.experts)
    engine = _engine_with_queue(library, [a, b, a], busy=False)
    assert engine.has_queued({a})
    assert engine.has_queued({c, b})
    assert not engine.has_queued({c})
    assert not engine.has_queued(set())


def test_predictor_known_names_tracks_observations():
    library = build_samba_coe_library(3)
    predictor = ExpertPredictor()
    assert not predictor.known_names
    predictor.observe(library.experts[0])
    predictor.observe_run(library.experts[1:])
    assert set(predictor.known_names) == {e.name for e in library.experts}
    assert {c.name for c in predictor.candidates()} == set(
        predictor.known_names
    )
