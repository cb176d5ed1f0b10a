"""Affinity batching, grouping, admission and expert prediction."""

import random
import sys
from collections import Counter, OrderedDict
from itertools import groupby

import numpy as np
import pytest

from repro.coe import cluster_engine as cluster_module
from repro.coe import engine as engine_module
from repro.coe import live_engine as live_module
from repro.coe.api import ServeConfig
from repro.coe.cluster_engine import ClusterEngine
from repro.coe.columnar import admit_backlog, group_backlog
from repro.coe.decisions import DecisionLog
from repro.coe.dispatch import admit, shard_experts
from repro.coe.engine import EngineRequest, ServingEngine
from repro.coe.expert import build_samba_coe_library
from repro.coe.live_engine import LiveEngine
from repro.coe.policies import NodePolicy
from repro.coe.scheduling import (
    ExpertPredictor,
    ExpertReorderScheduler,
    FifoScheduler,
    Request,
    RequestGroup,
    Scheduler,
    affinity_schedule,
    coalesce_groups,
    fifo_schedule,
    make_scheduler,
    release_times,
)
from repro.sim.engine import Simulator
from repro.systems.platforms import sn40l_platform
from tests.coe.grouping import node_order


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(60)


def _interleaved_requests(library, copies=4, experts=6):
    """e0, e1, ..., e5, e0, e1, ... — worst case for an LRU of < 6 slots."""
    reqs = []
    rid = 0
    for _ in range(copies):
        for idx in range(experts):
            reqs.append(Request(rid, library.experts[idx]))
            rid += 1
    return reqs


class TestSchedules:
    def test_fifo_preserves_order(self, library):
        reqs = _interleaved_requests(library)
        assert fifo_schedule(reqs) == reqs

    def test_affinity_groups_within_window(self, library):
        reqs = _interleaved_requests(library, copies=2, experts=3)
        scheduled = affinity_schedule(reqs, window=6)
        experts_seen = [r.expert.name for r in scheduled]
        # Each expert's two requests are adjacent.
        for name in set(experts_seen):
            positions = [i for i, n in enumerate(experts_seen) if n == name]
            assert positions[1] - positions[0] == 1

    def test_affinity_is_a_permutation(self, library):
        reqs = _interleaved_requests(library)
        scheduled = affinity_schedule(reqs, window=8)
        assert sorted(r.request_id for r in scheduled) == list(range(len(reqs)))

    def test_window_bounds_reordering(self, library):
        reqs = _interleaved_requests(library, copies=3, experts=4)
        scheduled = affinity_schedule(reqs, window=4)
        for pos, request in enumerate(scheduled):
            assert abs(pos - request.request_id) < 4

    def test_bad_window_rejected(self, library):
        with pytest.raises(ValueError):
            affinity_schedule([], window=0)


class TestPredictor:
    def test_learns_transitions(self, library):
        p = ExpertPredictor()
        a, b, c = library.experts[:3]
        # Workflow a -> b, a -> b, a -> c: after 'a', 'b' is most likely.
        for e in (a, b, a, b, a, c, a):
            p.observe(e)
        assert p.predict().name == b.name

    def test_falls_back_to_frequency(self, library):
        p = ExpertPredictor()
        a, b = library.experts[0], library.experts[1]
        for e in (b, b, b, a):  # 'a' has no outgoing transitions yet
            p.observe(e)
        assert p.predict().name == b.name

    def test_candidates_cover_all_seen_experts(self, library):
        p = ExpertPredictor()
        for e in library.experts[:5]:
            p.observe(e)
        assert {c.name for c in p.candidates()} == {
            e.name for e in library.experts[:5]
        }

    def test_no_history_no_prediction(self):
        assert ExpertPredictor().predict() is None
        assert ExpertPredictor().candidates() == []


class _OracleAssembler:
    """The streaming assembler as it was written before it closed groups
    through :func:`node_order` and :func:`coalesce_groups`: its own
    window reorder and run coalescer, group by group."""

    def __init__(self, policy, window, max_batch):
        self.policy = NodePolicy.coerce(policy).value
        self.window = window
        self.max_batch = max_batch
        self._pending = []
        self._run = []

    def _close_run(self):
        group = RequestGroup(self._run[0].expert, tuple(self._run))
        self._run = []
        return group

    def _feed(self, request, out):
        if self._run and (
            request.expert.name != self._run[0].expert.name
            or len(self._run) >= self.max_batch
        ):
            out.append(self._close_run())
        self._run.append(request)

    def _drain_window(self, out):
        chunk = self._pending
        self._pending = []
        groups = OrderedDict()
        for request in chunk:
            groups.setdefault(request.expert.name, []).append(request)
        for run in groups.values():
            for request in run:
                self._feed(request, out)

    def push(self, request):
        out = []
        if self.policy == "fifo":
            self._feed(request, out)
            return out
        self._pending.append(request)
        if len(self._pending) >= self.window:
            self._drain_window(out)
        return out

    def flush(self):
        out = []
        if self._pending:
            self._drain_window(out)
        if self._run:
            out.append(self._close_run())
        return out


def _oracle_affinity_schedule(requests, window):
    """``affinity_schedule`` as the Python loop it was: per window, an
    ordered dict of same-expert lists, emitted in first-arrival order."""
    scheduled = []
    for start in range(0, len(requests), window):
        groups = OrderedDict()
        for request in requests[start:start + window]:
            groups.setdefault(request.expert.name, []).append(request)
        for group in groups.values():
            scheduled.extend(group)
    return scheduled


def _oracle_coalesce_groups(schedule, max_batch):
    """``coalesce_groups`` as the Python loop it was: each maximal
    same-expert run, cut into ``max_batch``-sized groups."""
    groups = []
    for _, same in groupby(schedule, lambda r: r.expert.name):
        run = tuple(same)
        for start in range(0, len(run), max_batch):
            chunk = run[start:start + max_batch]
            groups.append(RequestGroup(chunk[0].expert, chunk))
    return groups


class TestGroupingOracle:
    """The array kernels behind ``affinity_schedule``/``coalesce_groups``
    and the sim's t=0 admission form exactly the loops' groups."""

    @staticmethod
    def _stream(rng, experts, size, tokens):
        reqs = []
        while len(reqs) < size:
            expert = rng.choice(experts)
            for _ in range(rng.choice((1, 1, 2, 3, 6, 11))):
                if tokens:
                    reqs.append(EngineRequest(
                        len(reqs), expert,
                        prompt_tokens=rng.choice((64, 128, 256, 512)),
                        output_tokens=rng.choice((1, 8, 20, 64)),
                    ))
                else:
                    reqs.append(Request(len(reqs), expert))
        return reqs[:size]

    @pytest.mark.parametrize("tokens", [True, False],
                             ids=["mixed-lengths", "shapeless"])
    @pytest.mark.parametrize("policy", ["fifo", "affinity", "overlap"])
    def test_wrappers_equal_the_loops(self, library, policy, tokens):
        rng = random.Random(f"{policy}:{tokens}")
        experts = library.experts[:rng.randint(1, 9)]
        for window in range(1, 301):
            for max_batch in range(1, 10):
                reqs = self._stream(rng, experts, rng.randint(0, 60), tokens)
                ordered = (list(reqs) if policy == "fifo"
                           else _oracle_affinity_schedule(reqs, window))
                assert node_order(reqs, policy, window) == ordered
                groups = coalesce_groups(ordered, max_batch)
                assert groups == _oracle_coalesce_groups(ordered, max_batch)
                assert all(g.expert is g.requests[0].expert for g in groups)

    @pytest.mark.parametrize("policy", ["fifo", "affinity", "overlap"])
    def test_admission_columns_equal_the_loops(self, library, policy):
        """One engine's admitted columns hold the loops' groups, phase
        keys (``np.maximum.reduceat`` over mixed lengths) and phases."""
        rng = random.Random(f"admit:{policy}")
        experts = library.experts[:9]
        for trial in range(40):
            reqs = self._stream(rng, experts, rng.randint(1, 300), True)
            window, max_batch = rng.randint(1, 300), rng.randint(1, 9)
            ordered = (list(reqs) if policy == "fifo"
                       else _oracle_affinity_schedule(reqs, window))
            oracle = _oracle_coalesce_groups(ordered, max_batch)
            engine = ServingEngine(sn40l_platform(), library, policy=policy,
                                   simulator=Simulator())
            roots, shed, count = _array_admit(
                [engine], reqs, FifoScheduler(), policy, window, max_batch)
            cols = engine.state.queue
            assert (roots, shed, count) == ([engine], [], len(oracle))
            assert engine._queue == oracle, trial
            assert cols.names == [g.expert.name for g in oracle]
            assert [cols.base[row] for row in cols.rows.tolist()] == [
                engine.state.phase_times(g) for g in oracle]
            assert {g.phase_key for g in oracle} == set(
                engine.state.phase_cache)


def _array_admit(engines, requests, scheduler, policy, window, max_batch,
                 **kwargs):
    """The sim's admission: group the whole backlog once, then admit
    every group in one :func:`admit_backlog` call."""
    backlog = group_backlog(requests, scheduler, policy, window, max_batch)
    return (*admit_backlog(engines, backlog, **kwargs), len(backlog.starts))


def _oracle_admit(engines, requests, scheduler, policy, window, max_batch,
                  owner_of, deadline_s, decisions, node_names):
    """``admit_backlog`` as the per-group path it replaced: the public
    grouping wrappers, the stable highest-priority-first order under a
    deadline, then per group :func:`admit` against a fresh left-to-right
    sum of the node's queued ``_group_exec_time`` floats, and an append.
    """
    groups = coalesce_groups(
        node_order(scheduler.order(requests), policy, window), max_batch)
    admitted = groups
    if deadline_s is not None:
        admitted = sorted(groups, key=lambda g: -max(
            r.priority for r in g.requests))
    queued = [[] for _ in engines]
    roots, shed = [], []
    for group in admitted:
        index = owner_of[group.expert.name]
        engine = engines[index]
        exec_s = backlog_s = 0.0
        if deadline_s is not None:
            exec_s = engine._group_exec_time(group)
            for queued_s in queued[index]:
                backlog_s += queued_s
        if not admit(group.expert.name, group.batch, node_names[index],
                     decisions, deadline_s, 0.0, backlog_s, exec_s):
            shed.extend(group.requests)
            continue
        if engine not in roots:
            roots.append(engine)
        engine.state.queue.extend((group,), (engine.state.phase_times(group),))
        queued[index].append(exec_s)
    return roots, shed, len(groups)


class TestAdmissionOracle:
    """Array admission (:func:`admit_backlog`), the only t=0 admission
    of both drain modes, equals the per-group path it replaced: queues,
    shed requests, root order, group count and ``admission`` records."""

    @staticmethod
    def _backlog(rng, experts, size):
        reqs = []
        while len(reqs) < size:
            expert = rng.choice(experts)
            for _ in range(rng.choice((1, 1, 2, 3, 6, 11))):
                reqs.append(EngineRequest(
                    len(reqs), expert,
                    prompt_tokens=rng.choice((64, 128, 256, 512)),
                    output_tokens=rng.choice((1, 8, 20, 64)),
                    priority=rng.randrange(3),
                ))
        return reqs[:size]

    @staticmethod
    def _engines(library, num_nodes, policy):
        shards, owners = shard_experts(library, num_nodes)
        engines = [ServingEngine(sn40l_platform(), library, policy=policy,
                                 simulator=Simulator())
                   for _ in shards]
        return engines, {name: nodes[0] for name, nodes in owners.items()}

    @pytest.mark.parametrize("scheduler", ["fifo", "expert_reorder"])
    @pytest.mark.parametrize("policy", ["fifo", "affinity", "overlap"])
    @pytest.mark.parametrize("num_nodes", [1, 3, 8])
    def test_array_admission_equals_the_per_group_path(
            self, library, num_nodes, policy, scheduler):
        rng = random.Random(f"admission:{num_nodes}:{policy}:{scheduler}")
        experts = library.experts[:rng.randint(12, 40)]
        scheduler = (FifoScheduler() if scheduler == "fifo"
                     else ExpertReorderScheduler(rng.choice((8, 64, 256))))
        for trial in range(3):
            reqs = self._backlog(rng, experts, rng.randint(60, 300))
            window, max_batch = rng.randint(1, 64), rng.randint(1, 9)
            engines, owner_of = self._engines(library, num_nodes, policy)
            names = [f"node{i}" for i in range(len(engines))]
            _oracle_admit(engines, reqs, scheduler, policy, window,
                          max_batch, owner_of, None, None, names)
            busiest = max(e.estimated_backlog_s() for e in engines)
            for deadline_s in (None, rng.uniform(0.2, 0.6) * busiest):
                for logged in (False, True):
                    runs = []
                    for admission in (_array_admit, _oracle_admit):
                        engines, _ = self._engines(library, num_nodes,
                                                   policy)
                        log = DecisionLog() if logged else None
                        roots, shed, count = admission(
                            engines, reqs, scheduler, policy, window,
                            max_batch, owner_of=owner_of,
                            deadline_s=deadline_s, decisions=log,
                            node_names=names)
                        runs.append((
                            [e._queue for e in engines],
                            [r.request_id for r in shed],
                            [engines.index(e) for e in roots], count,
                            log.stream("admission") if logged else None,
                        ))
                    fast, oracle = runs
                    where = (trial, deadline_s, logged)
                    assert fast[0] == oracle[0], where
                    assert fast[1:] == oracle[1:], where
                    assert bool(fast[1]) == (deadline_s is not None), where
                    if deadline_s is None:
                        assert (len(fast[2]) > 1) == (num_nodes > 1), where

    @pytest.mark.parametrize("policy", ["fifo", "affinity"])
    def test_admission_in_batches_equals_one_call(self, library, policy):
        """Admitting a grouping's groups in several ``lo:hi`` calls, as
        the live engine does, fills the same queues and takes the same
        verdicts as one call: later calls extend the queues and carry
        each node's admission sum. Priorities are uniform, so no call
        reorders its groups."""
        rng = random.Random(f"batches:{policy}")
        experts = library.experts[:30]
        for trial in range(4):
            reqs = [EngineRequest(r.request_id, r.expert,
                                  prompt_tokens=r.prompt_tokens,
                                  output_tokens=r.output_tokens)
                    for r in self._backlog(rng, experts, 200)]
            grouping = group_backlog(reqs, FifoScheduler(), policy,
                                     rng.randint(1, 32), rng.randint(1, 9))
            engines, owner_of = self._engines(library, 3, policy)
            names = [f"node{i}" for i in range(3)]
            admit_backlog(engines, grouping, owner_of=owner_of,
                          decisions=DecisionLog(), node_names=names)
            deadline_s = 0.5 * max(e.state.admitted_s for e in engines)
            count = len(grouping.starts)
            cuts = sorted(rng.sample(range(1, count), min(5, count - 1)))
            runs = []
            for bounds in ([0, count], [0, *cuts, count]):
                engines, _ = self._engines(library, 3, policy)
                log = DecisionLog()
                shed = []
                for lo, hi in zip(bounds, bounds[1:]):
                    shed += admit_backlog(
                        engines, grouping, lo, hi, owner_of, deadline_s,
                        log, names)[1]
                runs.append(([e._queue for e in engines],
                             [e.state.admitted_s for e in engines],
                             [r.request_id for r in shed],
                             log.stream("admission")))
            assert runs[0] == runs[1], trial
            assert runs[0][2], trial  # the deadline shed something

    def test_both_drain_modes_admit_through_the_arrays(
            self, library, monkeypatch):
        """A reference-drain run and a cluster serve each admit once
        through :func:`admit_backlog`, and a live serve once per release
        instant, never through the wrappers."""
        calls = Counter()

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for module in (engine_module, cluster_module, live_module):
            monkeypatch.setattr(module, "admit_backlog", spy(
                "admit_backlog", module.admit_backlog))
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and getattr(
                    module, "coalesce_groups", None) is coalesce_groups:
                monkeypatch.setattr(module, "coalesce_groups", spy(
                    "coalesce_groups", coalesce_groups))
        for cls in (Scheduler, FifoScheduler, ExpertReorderScheduler):
            if "order" in vars(cls):
                monkeypatch.setattr(cls, "order", spy("order", cls.order))
        rng = random.Random("admission-spy")
        reqs = self._backlog(rng, library.experts[:20], 200)
        for scheduler in ("fifo", "expert_reorder"):
            ServingEngine(sn40l_platform(), library, policy="affinity",
                          drain_mode="reference",
                          scheduler=scheduler).run(reqs)
            assert calls == {"admit_backlog": 1}, scheduler
            calls.clear()
            for drain_mode in ("reference", "columnar"):
                ClusterEngine(sn40l_platform, library, 3,
                              policy="least_loaded", scheduler=scheduler,
                              drain_mode=drain_mode,
                              deadline_s=1.0).serve(reqs)
                assert calls == {"admit_backlog": 1}, (scheduler, drain_mode)
                calls.clear()
            spread = [EngineRequest(r.request_id, r.expert,
                                    arrival_s=r.request_id // 40 * 1e-3)
                      for r in reqs]
            LiveEngine(sn40l_platform(), library, ServeConfig(
                mode="live", policy="fifo", num_nodes=3,
                cluster_policy="least_loaded", scheduler=scheduler,
                time_scale=1e-3)).serve(spread)
            # Five arrival instants; expert_reorder may pull a later
            # arrival into an earlier window and merge instants.
            assert set(calls) == {"admit_backlog"}, scheduler
            assert calls["admit_backlog"] == 5 or scheduler != "fifo"
            calls.clear()


class _StreamingAssembler:
    """The live engine's grouping before it admitted through
    :func:`group_backlog` and :func:`release_times`: a front end that
    sees requests one at a time buffers one window (one request under
    ``fifo``) and, when it fills, groups the open run plus the window
    with ``coalesce_groups(node_order(...))``. Every group but the last
    is closed and released; the last, which may still grow, is the new
    open run."""

    def __init__(self, policy, window, max_batch):
        self.policy = NodePolicy.coerce(policy).value
        self.window = window
        self.max_batch = max_batch
        self._release_at = 1 if self.policy == "fifo" else window
        self._pending = []
        self._run = []

    def push(self, request):
        """Ingest one request; returns the groups this arrival closed."""
        self._pending.append(request)
        if len(self._pending) < self._release_at:
            return []
        groups = self.flush()
        self._run = list(groups.pop().requests)
        return groups

    def flush(self):
        """End of stream: group the partial window and the open run."""
        groups = coalesce_groups(
            self._run + node_order(self._pending, self.policy, self.window),
            self.max_batch,
        )
        self._pending = []
        self._run = []
        return groups

    def stream(self, requests):
        """Each group released over ``requests`` and the number of
        requests pushed when it was."""
        released = [(group, pushed)
                    for pushed, request in enumerate(requests, 1)
                    for group in self.push(request)]
        return released + [(group, len(requests)) for group in self.flush()]


def _grouped(requests, policy, window, max_batch, scheduler=None):
    """The groups :func:`group_backlog` forms, as :class:`RequestGroup`
    objects, and the backlog."""
    backlog = group_backlog(requests, make_scheduler(scheduler), policy,
                            window, max_batch)
    ordered = [requests[row] for row in backlog.grouped.tolist()]
    bounds = backlog.starts.tolist() + [len(requests)]
    return [RequestGroup(ordered[lo].expert, tuple(ordered[lo:hi]))
            for lo, hi in zip(bounds, bounds[1:])], backlog


def _ids(groups):
    return [(g.expert.name, tuple(r.request_id for r in g.requests))
            for g in groups]


class TestGroupAssembler:
    """The one grouping (:func:`group_backlog`) and its release schedule
    (:func:`release_times`) against the streaming assembler the live
    engine used before (:class:`_StreamingAssembler`): the same groups,
    each released after the same arrival."""

    def _streams(self, library, seed, tokens=True):
        rng = random.Random(seed)
        experts = library.experts[:9]
        reqs = []
        rid = 0
        # A mix of runs and churn: the shapes that stress both the
        # window reorder and the run coalescer. With tokens, lengths
        # vary per request, so a group mixes prompt and output lengths.
        while rid < 120:
            expert = rng.choice(experts)
            for _ in range(rng.randint(1, 5)):
                if tokens:
                    reqs.append(EngineRequest(
                        rid, expert,
                        prompt_tokens=rng.choice((64, 128, 256, 512)),
                        output_tokens=rng.choice((1, 8, 20, 64)),
                    ))
                else:
                    reqs.append(Request(rid, expert))
                rid += 1
        return reqs

    @staticmethod
    def _assert_phase_keys(groups):
        for g in groups:
            assert g.phase_key == (
                g.expert.name,
                len(g.requests),
                max(r.prompt_tokens for r in g.requests),
                max(r.output_tokens for r in g.requests),
            )

    @pytest.mark.parametrize("window,max_batch", [
        (1, 1), (2, 8), (4, 2), (5, 3), (16, 8), (32, 4), (300, 8),
    ])
    def test_streaming_equals_batch_pipeline(self, library, window, max_batch):
        for seed in range(3):
            reqs = self._streams(library, seed)
            batch = coalesce_groups(
                affinity_schedule(reqs, window=window), max_batch=max_batch
            )
            assembler = _StreamingAssembler("affinity", window, max_batch)
            streamed = [g for g, _ in assembler.stream(reqs)]
            grouped, _ = _grouped(reqs, "affinity", window, max_batch)
            assert _ids(streamed) == _ids(batch) == _ids(grouped), (
                window, max_batch, seed)
            # Every builder keys every group by its own requests: single
            # requests, mixed lengths and max_batch splits alike.
            self._assert_phase_keys(batch)
            self._assert_phase_keys(grouped)

    @pytest.mark.parametrize("policy", ["fifo", "affinity"])
    def test_phase_keys_of_singles_mixed_lengths_and_splits(
        self, library, policy
    ):
        a, b = library.experts[:2]
        reqs = [
            EngineRequest(0, a, prompt_tokens=64, output_tokens=8),
            EngineRequest(1, a, prompt_tokens=512, output_tokens=1),
            EngineRequest(2, a, prompt_tokens=128, output_tokens=64),
            EngineRequest(3, b, prompt_tokens=256, output_tokens=20),
        ]
        batch = coalesce_groups(reqs, max_batch=2)
        assembler = _StreamingAssembler(policy, 4, 2)
        streamed = [g for g, _ in assembler.stream(reqs)]
        grouped, backlog = _grouped(reqs, policy, 4, 2)
        # a's run of three splits at max_batch into a mixed-length pair
        # and a single; b is a single.
        expected = [(a.name, 2, 512, 8), (a.name, 1, 128, 64),
                    (b.name, 1, 256, 20)]
        assert [g.phase_key for g in batch] == expected
        assert [g.phase_key for g in streamed] == expected
        assert [g.phase_key for g in grouped] == expected
        # The backlog's own maxima, which admission keys shapes by.
        assert (backlog.sizes.tolist(), backlog.prompts.tolist(),
                backlog.outputs.tolist()) == ([2, 1, 1], [512, 128, 256],
                                              [8, 64, 20])

    def test_token_less_groups_fail_on_phase_key(self, library):
        reqs = self._streams(library, 5, tokens=False)
        batch = coalesce_groups(affinity_schedule(reqs, window=4), max_batch=3)
        assembler = _StreamingAssembler("affinity", 4, 3)
        streamed = [g for g, _ in assembler.stream(reqs)]
        assert {len(g.requests) for g in batch} == {1, 2, 3}
        for group in batch + streamed:
            with pytest.raises(AttributeError, match="prompt_tokens"):
                group.phase_key
        # Admission needs the lengths: a shapeless trace cannot group.
        with pytest.raises(AttributeError, match="_tokens"):
            _grouped(reqs, "affinity", 4, 3)

    @pytest.mark.parametrize("max_batch", [1, 3, 8])
    def test_fifo_streaming_equals_batch_pipeline(self, library, max_batch):
        reqs = self._streams(library, 11)
        batch = coalesce_groups(fifo_schedule(reqs), max_batch=max_batch)
        assembler = _StreamingAssembler("fifo", 16, max_batch)
        streamed = [g for g, _ in assembler.stream(reqs)]
        grouped, _ = _grouped(reqs, "fifo", 16, max_batch)
        assert _ids(streamed) == _ids(batch) == _ids(grouped)

    def test_partial_window_only_emits_on_flush(self, library):
        expert = library.experts[0]
        reqs = [EngineRequest(rid, expert, arrival_s=float(rid))
                for rid in range(5)]  # never fills the window
        assembler = _StreamingAssembler("affinity", 16, 8)
        assert [assembler.push(r) for r in reqs] == [[]] * 5
        assert [len(g.requests) for g in assembler.flush()] == [5]
        # The one group is released once the last arrival is in.
        _, backlog = _grouped(reqs, "affinity", 16, 8)
        release = release_times(backlog.arrivals[backlog.grouped],
                                backlog.starts, "affinity", 16)
        assert release.tolist() == [4.0]

    @pytest.mark.parametrize("policy", ["fifo", "affinity", "overlap"])
    def test_every_push_matches_the_oracle(self, library, policy):
        """The release schedule is the streaming assembler's: each
        group, in order, released after the same push, at the latest
        arrival pushed by then, under either scheduler's order and with
        arrivals out of order; the assembler itself matches the loop
        oracle push by push."""
        rng = random.Random(policy)
        experts = library.experts[:7]
        windows = (1, 2, 3, 4, 5, 7, 8, 13, 16, 19, 31, 64, 150, 300)
        for trial in range(40):
            reqs = []
            size = rng.randint(1, 400)
            while len(reqs) < size:
                expert = rng.choice(experts)
                for _ in range(rng.choice((1, 1, 2, 3, 6, 11))):
                    reqs.append(EngineRequest(
                        len(reqs), expert,
                        prompt_tokens=rng.choice((64, 256)),
                        output_tokens=rng.choice((1, 20)),
                        arrival_s=rng.uniform(0.0, 5.0),
                    ))
            window = rng.choice(windows)
            max_batch = rng.randint(1, 9)
            scheduler = rng.choice((FifoScheduler(), ExpertReorderScheduler(
                rng.choice((8, 64, 256)))))
            ordered = scheduler.order(reqs)
            where = (trial, window, max_batch, scheduler)
            assembler = _StreamingAssembler(policy, window, max_batch)
            oracle = _OracleAssembler(policy, window, max_batch)
            released = []
            for pushed, request in enumerate(ordered, 1):
                groups = assembler.push(request)
                assert groups == oracle.push(request), (*where, pushed)
                released += [(g, pushed) for g in groups]
            groups = assembler.flush()
            assert groups == oracle.flush(), where
            released += [(g, len(ordered)) for g in groups]

            grouped, backlog = _grouped(reqs, policy, window, max_batch,
                                        scheduler)
            assert grouped == [g for g, _ in released], where
            arrivals = backlog.arrivals[backlog.grouped]
            latest = np.maximum.accumulate([r.arrival_s for r in ordered])
            assert release_times(
                arrivals, backlog.starts, policy, window).tolist() == [
                latest[pushed - 1] for _, pushed in released], where
            # With each request arriving at its push index, the release
            # instant names the push itself.
            position = {r.request_id: float(i) for i, r in enumerate(ordered)}
            pushes = release_times(
                np.array([position[reqs[row].request_id]
                          for row in backlog.grouped.tolist()]),
                backlog.starts, policy, window)
            assert (pushes + 1).tolist() == [p for _, p in released], where

    def test_node_order_is_affinity_unless_fifo(self, library):
        reqs = self._streams(library, 2)
        assert node_order(reqs, "fifo", 16) == fifo_schedule(reqs)
        assert node_order(reqs, NodePolicy.FIFO, 16) == reqs
        for policy in ("affinity", "overlap", NodePolicy.AFFINITY):
            assert node_order(reqs, policy, 16) == affinity_schedule(
                reqs, window=16)
        # fifo is the affinity order with a window of one.
        assert node_order(reqs, "fifo", 16) == affinity_schedule(
            reqs, window=1)

    def test_validation(self, library):
        # group_backlog groups with an engine's window and max_batch,
        # which the engine's constructor validated.
        with pytest.raises(ValueError, match="window"):
            ServingEngine(sn40l_platform(), library, window=0)
        with pytest.raises(ValueError, match="max_batch"):
            ServingEngine(sn40l_platform(), library, max_batch=0)
        # Counts are integers, refused before any grouping.
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="window must be an integer"):
                ServingEngine(sn40l_platform(), library, window=bad)

    def test_policy_is_coerced_at_construction(self, library):
        reqs = self._streams(library, 4)
        with pytest.raises(ValueError, match="unknown NodePolicy 'overlapp'"):
            _grouped(reqs, "overlapp", 16, 8)
        _, backlog = _grouped(reqs, "fifo", 16, 8)
        with pytest.raises(ValueError, match="unknown NodePolicy 'overlapp'"):
            release_times(backlog.arrivals, backlog.starts, "overlapp", 16)
        for fifo in ("fifo", NodePolicy.FIFO):
            assert _ids(_grouped(reqs, fifo, 16, 8)[0]) == _ids(
                coalesce_groups(reqs, 8))
        assert _ids(_grouped(reqs, "overlap", 16, 8)[0]) == _ids(
            _grouped(reqs, NodePolicy.AFFINITY, 16, 8)[0])
